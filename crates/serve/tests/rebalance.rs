//! Live topology rebalancing: when churn pushes enough message rate
//! across servers, the control plane re-partitions, copies every moved view
//! to every replica slot it is new on, publishes the new topology through
//! the same epoch swap the schedule uses, then drops the departed copies.
//!
//! The staleness contract under rebalance: *zero violations* — under
//! quiescent traffic every event visible before a rebalance is still
//! visible after it (views travel with their users), the post-run
//! bounded-staleness validation stays clean, and no request ever routes
//! through a mix of two topologies (each request loads one snapshot; the
//! snapshot owns both the serving sets and the `user → shard` map).
//! Updates that *race* a migration follow the store's memcached model —
//! a concurrently-written event may land at a view's old home and miss
//! later queries, like any re-placement cache miss (see
//! `Rebalancer::upon_churn`); schedule-level staleness is still
//! validated clean under concurrent traffic below.

use std::collections::HashSet;

use piggyback_core::scheduler::{Hybrid, Instance, Scheduler};
use piggyback_graph::gen::{copying, CopyingConfig};
use piggyback_graph::{CsrGraph, NodeId};
use piggyback_serve::{ServeConfig, ServeRuntime};
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

/// The core acceptance property: a rebalance between requests loses
/// nothing. Events shared before the rebalance are still served after
/// it, for users that moved shards and users that did not.
#[test]
fn rebalance_preserves_every_pre_rebalance_event() {
    let (g, r) = world(200);
    let rt = boot(
        &g,
        &r,
        ServeConfig {
            shards: 8,
            workers: 2,
            partition: PartitionStrategy::Ldg,
            // Any cross-server churn cost triggers a rebalance.
            rebalance_threshold: 1e-9,
            // Isolate rebalancing from re-optimization.
            reopt_threshold: f64::INFINITY,
            view_capacity: 0,
            ..Default::default()
        },
    );
    let mut c = rt.client();
    // Every user shares one event under the boot topology.
    for u in 0..200u32 {
        c.share(u);
    }
    let topo_before = rt.snapshot().topology().clone();
    // Churn the graph: with the near-zero threshold every cross-server
    // follow triggers a rebalance, and the accumulated new edges pull the
    // LDG partition away from the boot topology.
    for v in 0..200u32 {
        let u = (v + 7) % 200;
        if u != v {
            c.follow(u, v);
        }
    }
    let topo_after = rt.snapshot().topology().clone();
    assert_ne!(
        topo_before.moved_users(&topo_after).len(),
        0,
        "rebalance must re-home at least one user"
    );
    // Every user still sees their own pre-rebalance event — including the
    // users whose views were migrated to a different shard.
    for u in 0..200u32 {
        let (events, _) = c.query(u);
        assert!(
            events.iter().any(|e| e.user == u),
            "user {u} lost their own event after rebalance \
             (moved: {})",
            topo_before.server_of(u) != topo_after.server_of(u)
        );
    }
    drop(c);
    let report = rt.shutdown();
    assert!(report.churn.rebalances >= 1, "no rebalance fired");
    assert!(report.churn.users_migrated > 0, "no view migrated");
    assert!(
        report.churn.zero_violations(),
        "staleness violated: {:?}",
        report.churn.staleness_violation
    );
}

/// At replication 2 a rebalance fills *every* replica slot of a moved
/// view, not only its new primary: with each slot in turn the only
/// readable one, every moved user still reads its own pre-rebalance event.
#[test]
fn rebalance_at_replication_two_fills_every_new_slot() {
    let (g, r) = world(200);
    let rt = boot(
        &g,
        &r,
        ServeConfig {
            shards: 8,
            workers: 2,
            partition: PartitionStrategy::Ldg,
            replication: 2,
            rebalance_threshold: 1e-9,
            reopt_threshold: f64::INFINITY,
            view_capacity: 0,
            ..Default::default()
        },
    );
    let mut c = rt.client();
    for u in 0..200u32 {
        c.share(u);
    }
    let before = rt.snapshot().topology().clone();
    for v in 0..200u32 {
        c.follow((v + 7) % 200, v);
    }
    let after = rt.snapshot().topology().clone();
    let moved = before.moved_users(&after);
    assert!(
        !moved.is_empty(),
        "rebalance must re-home at least one user"
    );
    // No heartbeats run, so the detector only changes when told to.
    let health = rt.health().expect("replicated");
    let mut missing = Vec::new();
    for &u in &moved {
        let slots: Vec<usize> = after.replica_slots(u).collect();
        for &slot in &slots {
            let others = || slots.iter().copied().filter(move |&o| o != slot);
            others().for_each(|o| health.mark_down(o));
            if !c.query(u).0.iter().any(|e| e.user == u) {
                missing.push((u, slot));
            }
            others().for_each(|o| health.record_ok(o));
        }
    }
    assert!(
        missing.is_empty(),
        "{} of {} new slots lack their view: {missing:?}",
        missing.len(),
        2 * moved.len()
    );
    drop(c);
    let report = rt.shutdown();
    assert!(report.churn.zero_violations());
}

/// Piggybacked delivery works across a rebalance: an event pushed to a hub
/// view before the migration is still found by the consumer pulling that
/// hub view at its new home.
#[test]
fn piggybacked_delivery_survives_migration() {
    let (g, r) = world(150);
    let rt = boot(
        &g,
        &r,
        ServeConfig {
            shards: 4,
            workers: 2,
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
    // Enough churn to fire several rebalances (every cross-server follow
    // crosses the tiny threshold).
    for i in 0..60u32 {
        c.follow(i, (i + 11) % 150);
    }
    // Every consumer can still assemble every producer it follows.
    for v in g.nodes().take(40) {
        let (events, _) = c.query(v);
        let have: HashSet<NodeId> = events.iter().map(|e| e.user).collect();
        for &p in g.in_neighbors(v) {
            assert!(
                have.contains(&p),
                "consumer {v} missing producer {p} after rebalance"
            );
        }
    }
    drop(c);
    let report = rt.shutdown();
    assert!(report.churn.zero_violations());
}

/// Rebalancing under concurrent multi-client traffic: shares, queries and
/// churn race with repeated rebalances; the run must stay violation-free
/// and the runtime responsive.
#[test]
fn concurrent_traffic_across_repeated_rebalances_stays_clean() {
    let (g, r) = world(300);
    let rt = boot(
        &g,
        &r,
        ServeConfig {
            shards: 16,
            workers: 4,
            partition: PartitionStrategy::Ldg,
            rebalance_threshold: 0.002,
            reopt_threshold: f64::INFINITY,
            ..Default::default()
        },
    );
    std::thread::scope(|s| {
        for t in 0..3 {
            let mut c = rt.client();
            s.spawn(move || {
                for i in 0..400u32 {
                    let u = (i * 17 + t * 131) % 300;
                    match i % 4 {
                        0 => {
                            c.share(u);
                        }
                        1 | 2 => {
                            let _ = c.query(u);
                        }
                        _ => {
                            let v = (u + 1 + i % 37) % 300;
                            if u != v {
                                // Alternate add/remove to keep churn flowing.
                                if !c.follow(u, v) {
                                    c.unfollow(u, v);
                                }
                            }
                        }
                    }
                }
            });
        }
    });
    let report = rt.shutdown();
    assert!(
        report.churn.rebalances >= 1,
        "threshold never crossed: {} follows",
        report.churn.follows_applied
    );
    assert!(
        report.churn.zero_violations(),
        "staleness violated under concurrent rebalancing: {:?}",
        report.churn.staleness_violation
    );
    assert!(report.final_epoch > 0);
}
