//! Differential suite: the tournament-merge query path against the
//! materialize–sort–truncate model, over randomized workloads and the
//! documented edge cases — k = 0, duplicate redelivery, capacity-trimmed
//! views, and cross-view timestamp ties. The floor-aware path
//! (`query_newer`) must equal the model filtered to tuples strictly newer
//! than the floor.

use piggyback_graph::NodeId;
use piggyback_store::server::{QueryScratch, StoreServer};
use piggyback_store::EventTuple;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn ev(user: u32, id: u64, ts: u64) -> EventTuple {
    EventTuple::new(user, id, ts)
}

/// The model answer: every event of every listed view, newest first,
/// duplicates removed, the `k` newest kept.
fn model(server: &StoreServer, views: &[NodeId], k: usize) -> Vec<EventTuple> {
    let mut all: Vec<EventTuple> = views
        .iter()
        .filter_map(|&v| server.view(v))
        .flat_map(|view| view.iter_newest())
        .collect();
    all.sort_unstable_by(|a, b| b.cmp(a));
    all.dedup();
    all.truncate(k);
    all
}

/// Asserts the fast path and the model agree for every `k` in `ks`.
fn assert_agree(server: &mut StoreServer, views: &[NodeId], ks: &[usize], ctx: &str) {
    let mut scratch = QueryScratch::new();
    for &k in ks {
        let fast = server.query_with(views, k, &mut scratch).to_vec();
        let reference = model(server, views, k);
        assert_eq!(fast, reference, "{ctx}, k = {k}, views = {views:?}");
    }
}

#[test]
fn randomized_workloads_agree() {
    for seed in 0..10u64 {
        for view_capacity in [0usize, 4, 17, 128] {
            let mut rng = StdRng::seed_from_u64(seed * 31 + view_capacity as u64);
            let mut s = StoreServer::new(view_capacity);
            for i in 0..500u64 {
                // Small user/id spaces force duplicate redelivery (same
                // producer + event id, sometimes different timestamps) and
                // cross-view timestamp ties.
                let e = ev(
                    rng.random_range(0..8),
                    rng.random_range(0..120),
                    rng.random_range(0..60u64) * 10 + i % 3,
                );
                let fanout = rng.random_range(1..6usize);
                let views: Vec<NodeId> = (0..fanout).map(|_| rng.random_range(0..10u32)).collect();
                s.update(&views, e);
            }
            // Random view subsets, including missing views (id 10..12).
            for _ in 0..20 {
                let n = rng.random_range(1..8usize);
                let views: Vec<NodeId> = (0..n).map(|_| rng.random_range(0..13u32)).collect();
                assert_agree(
                    &mut s,
                    &views,
                    &[0, 1, 3, 10, 64, 1000],
                    &format!("seed {seed}, capacity {view_capacity}"),
                );
            }
        }
    }
}

#[test]
fn duplicate_redelivery_across_views_agrees() {
    let mut s = StoreServer::new(0);
    // The same events land in every view (piggyback fan-out), redelivered
    // several times; some redeliveries carry a different timestamp.
    for i in 0..20u64 {
        let e = ev(3, i, 100 + i);
        s.update(&[0, 1, 2, 3], e);
        s.update(&[1, 3], e); // exact redelivery
        s.update(&[2], ev(3, i, 100 + i)); // exact, single view
    }
    // A stale redelivery with a shifted timestamp lands after the filter
    // window has cycled: both paths must present identical output anyway.
    for i in 0..20u64 {
        s.update(&[0], ev(3, i, 99));
    }
    assert_agree(&mut s, &[0, 1, 2, 3], &[0, 5, 10, 100], "dup redelivery");
}

#[test]
fn cross_view_timestamp_ties_agree() {
    let mut s = StoreServer::new(0);
    // Distinct events sharing one timestamp, spread across views: the
    // merge's tie-break (full tuple order) must match the sort's.
    for u in 0..6u32 {
        for id in 0..10u64 {
            s.update(&[u % 3], ev(u, id, 50));
            s.update(&[(u + 1) % 3], ev(u, id, 50)); // tie + duplicate
        }
    }
    assert_agree(&mut s, &[0, 1, 2], &[0, 1, 7, 30, 500], "ties");
}

#[test]
fn capacity_trimmed_views_agree() {
    let mut s = StoreServer::new(5);
    // Heavy traffic into tiny views: every view is in steady trim.
    for i in 0..200u64 {
        s.update(&[0, 1], ev((i % 4) as u32, i, i));
        if i % 3 == 0 {
            s.update(&[2], ev((i % 4) as u32, i, i));
        }
    }
    assert_agree(&mut s, &[0, 1, 2], &[0, 2, 5, 10, 100], "trimmed");
}

#[test]
fn empty_server_and_k_zero_agree() {
    let mut s = StoreServer::new(0);
    assert_agree(&mut s, &[0, 1, 2], &[0, 10], "empty");
    s.update(&[7], ev(1, 1, 1));
    assert_agree(&mut s, &[7], &[0], "k zero");
}

/// Asserts `query_newer(.., Some(floor), ..)` is the model answer
/// restricted to tuples strictly newer than `floor` (those are a prefix
/// of the model's, so its truncation to `k` is the same), and that the
/// shard counts exactly the tuples it ships.
fn assert_floor_agrees(
    server: &mut StoreServer,
    views: &[NodeId],
    k: usize,
    floor: EventTuple,
    ctx: &str,
) -> Vec<EventTuple> {
    let mut scratch = QueryScratch::new();
    let shipped_before = server.stats().events_returned;
    let fast = server
        .query_newer(views, k, Some(floor), &mut scratch)
        .to_vec();
    let shipped = server.stats().events_returned - shipped_before;
    assert_eq!(shipped, fast.len() as u64, "{ctx}: events_returned");
    let reference: Vec<EventTuple> = model(server, views, k)
        .into_iter()
        .filter(|&t| t > floor)
        .collect();
    assert_eq!(
        fast, reference,
        "{ctx}, k = {k}, floor = {floor:?}, views = {views:?}"
    );
    fast
}

/// The tuple below every stored one: the workloads below stamp events
/// from timestamp 1 on.
const BELOW_ALL: EventTuple = EventTuple {
    timestamp: 0,
    user: 0,
    event_id: 0,
};

#[test]
fn randomized_floors_agree() {
    for seed in 0..10u64 {
        for view_capacity in [0usize, 4, 17] {
            let mut rng = StdRng::seed_from_u64(seed * 37 + view_capacity as u64);
            let mut s = StoreServer::new(view_capacity);
            let mut stored = Vec::new();
            for i in 0..400u64 {
                let e = ev(
                    rng.random_range(0..8),
                    rng.random_range(0..120),
                    1 + rng.random_range(0..60u64) * 10 + i % 3,
                );
                stored.push(e);
                let fanout = rng.random_range(1..6usize);
                let views: Vec<NodeId> = (0..fanout).map(|_| rng.random_range(0..10u32)).collect();
                s.update(&views, e);
            }
            for _ in 0..20 {
                let n = rng.random_range(1..8usize);
                let views: Vec<NodeId> = (0..n).map(|_| rng.random_range(0..13u32)).collect();
                let k = [0, 1, 3, 10, 64][rng.random_range(0..5usize)];
                let ctx = format!("seed {seed}, capacity {view_capacity}");
                // A stored tuple (exact ties with the floor), a random
                // point between tuples, and both extremes.
                let at = stored[rng.random_range(0..stored.len())];
                let between = ev(
                    rng.random_range(0..8),
                    rng.random_range(0..120),
                    rng.random_range(0..610u64),
                );
                for floor in [at, between, BELOW_ALL, ev(u32::MAX, u64::MAX, u64::MAX)] {
                    assert_floor_agrees(&mut s, &views, k, floor, &ctx);
                }
            }
        }
    }
}

#[test]
fn floor_equal_to_a_stored_tuple_excludes_it() {
    let mut s = StoreServer::new(0);
    for i in 1..=20u64 {
        s.update(&[0, 1], ev(1, i, i * 10));
        s.update(&[2], ev(2, i, i * 10 + 5));
    }
    let floor = ev(1, 15, 150);
    let got = assert_floor_agrees(&mut s, &[0, 1, 2], 10, floor, "at a tuple");
    assert!(!got.contains(&floor), "the floor itself is never shipped");
    // Eleven tuples are newer (155..=205); the oldest of them is cut.
    assert_eq!(got.len(), 10);
    assert_eq!(got.last(), Some(&ev(1, 16, 160)));
}

#[test]
fn floor_above_every_tuple_ships_nothing() {
    let mut s = StoreServer::new(0);
    for i in 1..=20u64 {
        s.update(&[0, 1, 2], ev((i % 3) as u32, i, i));
    }
    let top = ev(2, 20, 20);
    for k in [1, 10, 100] {
        assert!(assert_floor_agrees(&mut s, &[0, 1, 2], k, top, "at the top").is_empty());
        let above = ev(0, 0, 21);
        assert!(assert_floor_agrees(&mut s, &[0, 1, 2], k, above, "above").is_empty());
    }
}

#[test]
fn floor_below_every_tuple_is_query_with() {
    let mut s = StoreServer::new(6);
    for i in 1..=50u64 {
        s.update(&[0, 1], ev((i % 4) as u32, i, i));
        s.update(&[1, 2], ev((i % 4) as u32, i, i)); // duplicate across views
    }
    let mut scratch = QueryScratch::new();
    for k in [0, 1, 5, 10, 100] {
        let plain = s.query_with(&[0, 1, 2, 9], k, &mut scratch).to_vec();
        let floored = assert_floor_agrees(&mut s, &[0, 1, 2, 9], k, BELOW_ALL, "below");
        assert_eq!(floored, plain, "k = {k}");
    }
}

#[test]
fn floor_with_k_zero_ships_nothing() {
    let mut s = StoreServer::new(0);
    s.update(&[0, 1], ev(1, 1, 5));
    assert!(assert_floor_agrees(&mut s, &[0, 1], 0, BELOW_ALL, "k zero").is_empty());
}

#[test]
fn floor_over_duplicates_and_trimmed_views_agrees() {
    let mut s = StoreServer::new(5);
    // Every event lands in several tiny views (steady trim), and each
    // view's trim point differs, so a floor cuts each cursor elsewhere.
    for i in 1..=200u64 {
        s.update(&[0, 1], ev((i % 4) as u32, i, i));
        if i % 3 == 0 {
            s.update(&[2, 0], ev((i % 4) as u32, i, i));
        }
    }
    for ts in [0, 150, 195, 197, 198, 199, 200] {
        for k in [1, 2, 5, 10] {
            let floor = ev((ts % 4) as u32, ts, ts);
            assert_floor_agrees(&mut s, &[0, 1, 2], k, floor, "dup + trimmed");
        }
    }
}
