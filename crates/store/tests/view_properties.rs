//! Property tests: the ring-buffer [`View`] against a flat `Vec`-based
//! reference model.
//!
//! The model reimplements the view contract independently — a sorted
//! `Vec` with explicit trim and an exact duplicate test — and random
//! insert/trim/migrate-merge sequences with fixed seeds must leave both
//! sides with identical contents. If the ring's wrap/shift/trim arithmetic
//! or the duplicate semantics drift, these diverge immediately.

use piggyback_store::view::View;
use piggyback_store::EventTuple;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Independent reimplementation of the view semantics: ascending sorted
/// `Vec`, oldest-first trim, bit-identical redeliveries dropped.
#[derive(Default)]
struct ModelView {
    /// Ascending by `EventTuple` order (oldest first).
    events: Vec<EventTuple>,
    capacity: usize,
}

impl ModelView {
    fn with_capacity(capacity: usize) -> Self {
        ModelView {
            capacity,
            ..ModelView::default()
        }
    }

    fn insert(&mut self, t: EventTuple) {
        let pos = self.events.partition_point(|e| *e < t);
        if self.events[pos..].first() == Some(&t) {
            return;
        }
        if self.capacity > 0 && self.events.len() == self.capacity {
            if pos == 0 {
                return; // older than the whole full window
            }
            self.events.remove(0);
            self.events.insert(pos - 1, t);
        } else {
            self.events.insert(pos, t);
        }
    }

    /// Newest first, like `View::to_vec_newest`.
    fn newest_first(&self) -> Vec<EventTuple> {
        self.events.iter().rev().copied().collect()
    }
}

fn random_event(rng: &mut StdRng, users: u32, ids: u64, ts_range: u64) -> EventTuple {
    EventTuple::new(
        rng.random_range(0..users),
        rng.random_range(0..ids),
        rng.random_range(0..ts_range),
    )
}

fn assert_same(view: &View, model: &ModelView, ctx: &str) {
    assert_eq!(view.len(), model.events.len(), "length diverged: {ctx}");
    assert_eq!(
        view.to_vec_newest(),
        model.newest_first(),
        "contents diverged: {ctx}"
    );
}

#[test]
fn random_inserts_match_the_model() {
    for seed in 0..8u64 {
        for capacity in [0usize, 1, 2, 7, 16, 100] {
            let mut rng = StdRng::seed_from_u64(seed * 1000 + capacity as u64);
            let mut view = View::with_capacity(capacity);
            let mut model = ModelView::with_capacity(capacity);
            for step in 0..600 {
                // Skewed toward fresh timestamps so the monotonic-append
                // fast path and the shift paths both run; narrow id space
                // forces plenty of same-key events, exact duplicates among
                // them.
                let t = if rng.random_range(0..4) == 0 {
                    random_event(&mut rng, 5, 40, 1000)
                } else {
                    EventTuple::new(
                        rng.random_range(0..5),
                        rng.random_range(0..200),
                        600 + step as u64,
                    )
                };
                view.insert(t);
                model.insert(t);
            }
            assert_same(
                &view,
                &model,
                &format!("seed {seed}, capacity {capacity}, inserts"),
            );
        }
    }
}

#[test]
fn monotonic_append_stream_matches_the_model() {
    for capacity in [0usize, 3, 64] {
        let mut view = View::with_capacity(capacity);
        let mut model = ModelView::with_capacity(capacity);
        for i in 0..5000u64 {
            let t = EventTuple::new((i % 17) as u32, i, i);
            view.insert(t);
            model.insert(t);
        }
        assert_same(&view, &model, &format!("monotonic, capacity {capacity}"));
    }
}

#[test]
fn replicated_delivery_converges_across_replicas() {
    // The replicated write path: every replica slot receives the same set
    // of distinct events, but batching, read routing, and chaos-mode
    // duplication mean each copy sees its own delivery order with
    // back-to-back redeliveries mixed in. Whatever the order, every
    // replica must converge to the same ring contents — the `capacity`
    // newest events (all of them when unbounded) — so a failover read
    // from any surviving replica is exact, not approximate.
    for capacity in [0usize, 1, 8, 64] {
        for seed in 0..4u64 {
            let events: Vec<EventTuple> = (0..150u64)
                .map(|i| EventTuple::new((i % 7) as u32, i, i))
                .collect();
            // Canonical replica: in-order delivery of the sorted feed.
            let mut canonical = View::with_capacity(capacity);
            for &e in &events {
                canonical.insert(e);
            }
            for replica in 0..3u64 {
                let mut rng = StdRng::seed_from_u64((seed * 31 + replica) ^ 0x5EED);
                let mut order = events.clone();
                for i in (1..order.len()).rev() {
                    let j = rng.random_range(0..=i);
                    order.swap(i, j);
                }
                let mut view = View::with_capacity(capacity);
                for &e in &order {
                    view.insert(e);
                    if rng.random_range(0..10) < 3 {
                        view.insert(e); // immediate redelivery (duplicate batch)
                    }
                }
                assert_eq!(
                    view.to_vec_newest(),
                    canonical.to_vec_newest(),
                    "replica diverged: capacity {capacity}, seed {seed}, replica {replica}"
                );
            }
        }
    }
}

#[test]
fn duplicate_storm_leaves_exactly_the_newest_distinct_events() {
    // Every event is delivered one to three times to a small bounded
    // view, in a jittered, mostly ascending order so that nearly every
    // first copy is admitted — except that the seven newest events arrive
    // once at the very start and again at the very end. They stay in the
    // ring throughout (nothing newer ever displaces them) while hundreds
    // of other events are admitted beneath them, so their last copies are
    // redeliveries of *retained* events that no bounded memory of recent
    // keys would still recognize. Dedup has to be exact: the ring must end
    // as the `CAPACITY` newest distinct events, each once.
    const CAPACITY: usize = 8;
    const EVENTS: u64 = 300;
    const PINNED: u64 = 7;
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(0x570F ^ seed);
        let event = |i: u64| EventTuple::new((i % 7) as u32, i, i);
        // (delivery key, event): sorted by key = delivery order.
        let mut deliveries: Vec<(u64, u64)> = Vec::new();
        for i in 0..EVENTS {
            for _ in 0..rng.random_range(1..=3u32) {
                deliveries.push((100 + i + rng.random_range(0..40u64), i));
            }
            if i >= EVENTS - PINNED {
                deliveries.push((rng.random_range(0..100u64), i));
                deliveries.push((1_000 + rng.random_range(0..100u64), i));
            }
        }
        deliveries.sort_unstable();
        let mut view = View::with_capacity(CAPACITY);
        // Admissions so far, and the count at which each event got in.
        let mut admissions = 0usize;
        let mut admitted_at = vec![0usize; EVENTS as usize];
        let mut stalest_redelivery = 0usize;
        for &(_, i) in &deliveries {
            let retained = view.iter_newest().any(|e| e == event(i));
            view.insert(event(i));
            if retained {
                stalest_redelivery = stalest_redelivery.max(admissions - admitted_at[i as usize]);
            } else if view.iter_newest().any(|e| e == event(i)) {
                admissions += 1;
                admitted_at[i as usize] = admissions;
            }
        }
        assert!(
            stalest_redelivery >= 64,
            "storm too tame to prove anything: the stalest redelivery of a \
             retained event came {stalest_redelivery} admissions after the original"
        );
        let want: Vec<EventTuple> = (EVENTS - CAPACITY as u64..EVENTS)
            .rev()
            .map(event)
            .collect();
        assert_eq!(view.to_vec_newest(), want, "seed {seed}");
    }
}

#[test]
fn faulty_replicated_delivery_converges_after_anti_entropy() {
    use piggyback_store::fault::{FaultDecision, FaultInjector, FaultPlan};
    // The wire under chaos: each replica's delivery stream runs through a
    // real [`FaultInjector`] — batches reordered, some delivered twice
    // back-to-back, some dropped after the transport acked them. Dropped
    // batches are redelivered in a second shuffled pass (the anti-entropy
    // catch-up a rejoining or lagging replica gets). Whatever the
    // interleaving, every replica must end bit-identical to a faultless
    // twin that saw the feed in order — the exactness both failover reads
    // and the post-catch-up readmit lean on.
    for capacity in [0usize, 8, 64] {
        for seed in 0..4u64 {
            let events: Vec<EventTuple> = (0..200u64)
                .map(|i| EventTuple::new((i % 9) as u32, i, i))
                .collect();
            let mut canonical = View::with_capacity(capacity);
            for &e in &events {
                canonical.insert(e);
            }
            for replica in 0..3u64 {
                let injector = FaultInjector::new(
                    FaultPlan {
                        seed: seed * 17 + replica,
                        drop_update_per_mille: 150,
                        duplicate_per_mille: 150,
                        ..FaultPlan::default()
                    },
                    1,
                    piggyback_obs::Clock::monotonic(),
                );
                let mut rng = StdRng::seed_from_u64(((seed << 8) | replica) ^ 0xFA11);
                let shuffle = |rng: &mut StdRng, xs: &mut Vec<EventTuple>| {
                    for i in (1..xs.len()).rev() {
                        let j = rng.random_range(0..=i);
                        xs.swap(i, j);
                    }
                };
                let mut order = events.clone();
                shuffle(&mut rng, &mut order);
                let mut view = View::with_capacity(capacity);
                let mut lost = Vec::new();
                for &e in &order {
                    match injector.decide(true) {
                        FaultDecision::DropUpdate => lost.push(e),
                        FaultDecision::Duplicate => {
                            view.insert(e);
                            view.insert(e);
                        }
                        // A delay is just a reorder, and the stream is
                        // already shuffled — deliver.
                        FaultDecision::Deliver | FaultDecision::Delay => view.insert(e),
                    }
                }
                let (dropped, duplicated, _, _) = injector.counts();
                assert!(
                    dropped > 0 && duplicated > 0,
                    "storm too tame to prove anything: {dropped} drops, {duplicated} dups"
                );
                // Anti-entropy: redeliver everything the wire lost, again
                // out of order.
                shuffle(&mut rng, &mut lost);
                for &e in &lost {
                    view.insert(e);
                }
                assert_eq!(
                    view.to_vec_newest(),
                    canonical.to_vec_newest(),
                    "replica diverged from the faultless twin: capacity {capacity}, \
                     seed {seed}, replica {replica}"
                );
            }
        }
    }
}

#[test]
fn migrate_merge_sequences_match_the_model() {
    // A fleet of views exchanging contents through remove + merge — the
    // live-rebalancing pattern — interleaved with fresh traffic.
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(0xFEED ^ seed);
        let capacity = [0usize, 8, 32][(seed % 3) as usize];
        let mut views: Vec<View> = (0..4).map(|_| View::with_capacity(capacity)).collect();
        let mut models: Vec<ModelView> =
            (0..4).map(|_| ModelView::with_capacity(capacity)).collect();
        let mut ts = 0u64;
        for _ in 0..400 {
            match rng.random_range(0..10) {
                // Migrate-merge: replay one view's events (newest first,
                // the wire order) into another.
                0 => {
                    let from = rng.random_range(0..4usize);
                    let to = (from + 1 + rng.random_range(0..3usize)) % 4;
                    let payload = views[from].to_vec_newest();
                    for &e in &payload {
                        views[to].insert(e);
                        models[to].insert(e);
                    }
                }
                // Duplicate redelivery of a recent event.
                1 => {
                    let v = rng.random_range(0..4usize);
                    let newest = views[v].iter_newest().next();
                    if let Some(e) = newest {
                        views[v].insert(e);
                        models[v].insert(e);
                    }
                }
                // Fresh share fanning into a random subset.
                _ => {
                    ts += 1;
                    let t = EventTuple::new(rng.random_range(0..6), ts, ts);
                    for v in 0..4usize {
                        if rng.random_range(0..2) == 0 {
                            views[v].insert(t);
                            models[v].insert(t);
                        }
                    }
                }
            }
        }
        for (v, m) in views.iter().zip(&models) {
            assert_same(v, m, &format!("migrate-merge, seed {seed}"));
        }
    }
}
