//! End-to-end failover: kill a shard under live load and require the
//! failure detector to notice, the failover controller to re-point the
//! dead primary at its surviving replica, and the run to finish with the
//! paper's bounded-staleness invariant intact.
//!
//! The lifecycle itself is checked row by row on a virtual clock in the
//! crate's fault matrix (`src/runtime/fault_matrix.rs`). This is the
//! real-thread smoke that stays: with `stats_wire.rs`'s replicated case,
//! the only check that the heartbeat ticker thread really ticks the
//! controller at the heartbeat cadence on the monotonic clock.

use std::time::{Duration, Instant};

use piggyback_core::scheduler::{by_name, Instance};
use piggyback_graph::gen::{copying, CopyingConfig};
use piggyback_serve::{ServeConfig, ServeRuntime};
use piggyback_store::FaultPlan;
use piggyback_workload::{OpTrace, Rates};

#[test]
fn killed_shard_fails_over_and_queries_keep_answering() {
    let g = copying(CopyingConfig {
        nodes: 400,
        follows_per_node: 5,
        copy_prob: 0.7,
        seed: 9,
    });
    let r = Rates::log_degree(&g, 5.0);
    let schedule = by_name("hybrid")
        .unwrap()
        .schedule(&Instance::new(&g, &r))
        .schedule;
    let rt = ServeRuntime::start(
        g,
        r.clone(),
        schedule,
        by_name("hybrid").unwrap(),
        ServeConfig {
            shards: 8,
            replication: 2,
            heartbeat_interval: Duration::from_millis(2),
            staleness_budget: Duration::from_millis(50),
            // A zero fault plan: no drops/duplicates/delays, but the
            // injector's kill switches are armed.
            faults: Some(FaultPlan::default()),
            ..Default::default()
        },
    );
    let mut c = rt.client();
    let mut trace = OpTrace::new(&r, 0.01, 17);
    for _ in 0..300 {
        c.apply_op(trace.next_op());
    }
    assert!(rt.kill_shard(3), "fault plan configured, kill must arm");

    // Keep load flowing while the detector confirms the death; the
    // controller must publish a failover epoch within a few heartbeats.
    let deadline = Instant::now() + Duration::from_secs(10);
    let metrics = rt.metrics().expect("metrics on by default");
    loop {
        for _ in 0..50 {
            c.apply_op(trace.next_op());
        }
        if metrics.snapshot().counter("failover.count") >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no failover within 10s of killing shard 3"
        );
    }

    // Post-failover: the data plane must still answer everything —
    // including reads that used to be homed on the dead shard.
    for _ in 0..300 {
        c.apply_op(trace.next_op());
    }
    let events = metrics.events().recent(64);
    assert!(
        events
            .iter()
            .any(|e| e.to_string().contains("failover shard=3")),
        "event log must record the failover: {events:?}"
    );

    drop(c);
    let report = rt.shutdown();
    assert_eq!(report.replication, 2);
    assert!(
        report.churn.failovers >= 1,
        "report must count the failover"
    );
    assert!(
        report.churn.users_failed_over > 0,
        "shard 3 hosted views that must have moved"
    );
    assert!(
        report.churn.detection_ms + report.churn.failover_ms > 0.0,
        "the detection window is real wall time"
    );
    assert!(
        report.churn.zero_violations(),
        "bounded staleness violated across the failover: {:?}",
        report.churn.staleness_violation
    );
}
