//! The caller-runs transport ([`RpcMode::Direct`]) end to end: the same
//! coalesced protocol as the batched plane, executed inline on the issuing
//! thread. Everything the worker-pool planes guarantee must hold
//! unchanged — delivery, message accounting, churn, live rebalancing with
//! view migration, and zero staleness violations.

use std::collections::HashSet;

use piggyback_core::scheduler::{Hybrid, Instance, Scheduler};
use piggyback_graph::gen::{copying, CopyingConfig};
use piggyback_graph::{CsrGraph, NodeId};
use piggyback_serve::{RpcMode, ServeConfig, ServeRuntime};
use piggyback_store::topology::PartitionStrategy;
use piggyback_workload::Rates;

fn world(nodes: usize) -> (CsrGraph, Rates) {
    let g = copying(CopyingConfig {
        nodes,
        follows_per_node: 5,
        copy_prob: 0.7,
        seed: 6,
    });
    let r = Rates::log_degree(&g, 5.0);
    (g, r)
}

fn boot(g: &CsrGraph, r: &Rates, config: ServeConfig) -> ServeRuntime {
    let s = Hybrid.schedule(&Instance::new(g, r)).schedule;
    ServeRuntime::start(g.clone(), r.clone(), s, Box::new(Hybrid), config)
}

/// Direct and batched planes answer every query identically (same events,
/// same message counts) on the same deterministic op sequence.
#[test]
fn direct_matches_batched_end_to_end() {
    let (g, r) = world(150);
    let run = |rpc: RpcMode| {
        let rt = boot(
            &g,
            &r,
            ServeConfig {
                shards: 8,
                workers: 2,
                rpc,
                view_capacity: 0,
                top_k: usize::MAX,
                ..Default::default()
            },
        );
        let mut c = rt.client();
        for u in 0..150u32 {
            c.share(u);
        }
        let mut streams = Vec::new();
        let mut messages = 0u64;
        for v in 0..150u32 {
            let (events, msgs) = c.query(v);
            let users: Vec<NodeId> = events.iter().map(|e| e.user).collect();
            streams.push(users);
            messages += msgs;
        }
        drop(c);
        let report = rt.shutdown();
        assert!(report.churn.zero_violations());
        (streams, messages)
    };
    let (batched_streams, batched_msgs) = run(RpcMode::Batched);
    let (direct_streams, direct_msgs) = run(RpcMode::Direct);
    assert_eq!(batched_streams, direct_streams, "stream contents diverged");
    assert_eq!(batched_msgs, direct_msgs, "message accounting diverged");
}

/// The same differential at the default `top_k` and `view_capacity`, on
/// a stream long enough to fill the views: here the caller-runs client's
/// floor fires, so Direct ships fewer tuples than Batched for the very
/// same feeds and message counts. Shares outweigh queries five to one,
/// so the hybrid schedule pulls and a query reaches several shards.
#[test]
fn direct_matches_batched_with_the_floor_firing() {
    let (g, _) = world(150);
    let r = Rates::log_degree(&g, 0.2);
    let config = ServeConfig::default();
    let run = |rpc: RpcMode| {
        let rt = boot(
            &g,
            &r,
            ServeConfig {
                rpc,
                workers: 2,
                ..config
            },
        );
        let mut c = rt.client();
        // Producers in scattered order (a multiplicative hash), so each
        // feed interleaves events from several shards near its k-th.
        for i in 0..1200u32 {
            c.share(i.wrapping_mul(2_654_435_761) % 150);
        }
        let mut feeds = Vec::new();
        let mut messages = 0u64;
        for v in 0..150u32 {
            let (events, msgs) = c.query(v);
            feeds.push(events.to_vec());
            messages += msgs;
        }
        drop(c);
        let shipped: u64 = rt.shard_stats().iter().map(|s| s.events_returned).sum();
        let report = rt.shutdown();
        assert!(report.churn.zero_violations());
        (feeds, messages, shipped)
    };
    let (batched_feeds, batched_msgs, batched_shipped) = run(RpcMode::Batched);
    let (direct_feeds, direct_msgs, direct_shipped) = run(RpcMode::Direct);
    assert!(
        batched_feeds
            .iter()
            .filter(|f| f.len() == config.top_k)
            .count()
            > 100,
        "most feeds must be full for the floor to matter"
    );
    assert_eq!(batched_feeds, direct_feeds, "feeds diverged");
    assert_eq!(batched_msgs, direct_msgs, "message accounting diverged");
    assert!(
        direct_shipped < batched_shipped,
        "the floor never fired: Direct shipped {direct_shipped}, Batched {batched_shipped}"
    );
}

/// Concurrent direct-mode clients with churn: multiple threads execute
/// shard work inline against the same shard mutexes while the churn
/// manager publishes epochs.
#[test]
fn concurrent_direct_clients_stay_consistent() {
    let (g, r) = world(200);
    let rt = boot(
        &g,
        &r,
        ServeConfig {
            shards: 16,
            workers: 1, // ignored: no worker threads in direct mode
            rpc: RpcMode::Direct,
            ..Default::default()
        },
    );
    std::thread::scope(|s| {
        for t in 0..4 {
            let mut c = rt.client();
            s.spawn(move || {
                for i in 0..300u32 {
                    let u = (i * 13 + t * 53) % 200;
                    match i % 4 {
                        0 => {
                            c.share(u);
                        }
                        3 => {
                            let v = (u + 1 + i % 29) % 200;
                            if u != v && !c.follow(u, v) {
                                c.unfollow(u, v);
                            }
                        }
                        _ => {
                            let _ = c.query(u);
                        }
                    }
                }
            });
        }
    });
    let report = rt.shutdown();
    assert!(report.churn.follows_applied > 0);
    assert!(
        report.churn.zero_violations(),
        "staleness violated: {:?}",
        report.churn.staleness_violation
    );
}

/// Live rebalancing in direct mode: the churn manager's migration requests
/// execute inline (no worker pool exists), views still travel with their
/// users, and piggybacked delivery survives.
#[test]
fn rebalance_migrates_views_without_a_worker_pool() {
    let (g, r) = world(150);
    let rt = boot(
        &g,
        &r,
        ServeConfig {
            shards: 4,
            workers: 2,
            rpc: RpcMode::Direct,
            partition: PartitionStrategy::Ldg,
            rebalance_threshold: 1e-9,
            reopt_threshold: f64::INFINITY,
            view_capacity: 0,
            top_k: usize::MAX,
            ..Default::default()
        },
    );
    let mut c = rt.client();
    for u in 0..150u32 {
        c.share(u);
    }
    for i in 0..60u32 {
        c.follow(i, (i + 11) % 150);
    }
    for v in g.nodes().take(40) {
        let (events, _) = c.query(v);
        let have: HashSet<NodeId> = events.iter().map(|e| e.user).collect();
        for &p in g.in_neighbors(v) {
            assert!(
                have.contains(&p),
                "consumer {v} missing producer {p} after direct-mode rebalance"
            );
        }
    }
    drop(c);
    let report = rt.shutdown();
    assert!(report.churn.rebalances >= 1, "no rebalance fired");
    assert!(report.churn.users_migrated > 0, "no view migrated");
    assert!(report.churn.zero_violations());
}
