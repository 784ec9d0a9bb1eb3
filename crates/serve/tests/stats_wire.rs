//! Differential test for the `Stats` wire request: an identical operation
//! stream must produce **identical per-shard counters** whether the shard
//! plane runs caller-side (`RpcMode::Direct`) or through the batched
//! worker pool (`RpcMode::Batched`). Both planes route every request —
//! including the stats scrape itself — through the store's single
//! `handle_request`, so any divergence means one plane is doing different
//! work, not just reporting differently. The one counter that may differ
//! is `events_returned`: it counts the tuples shipped, and caller-runs
//! query batches carry the running k-th newest as a floor, so that plane
//! can ship fewer. On this 500-op stream over 200 users no query holds
//! `k` tuples before its last batch, so the floor never fires and that
//! counter agrees too.
//!
//! The same harness also pins down the replication layer's differential
//! guarantees: heartbeat probes touch no store counters (a monitored run
//! is byte-identical to an unmonitored one), and at replication 2 the two
//! planes still agree with each other.

use std::time::{Duration, Instant};

use piggyback_core::scheduler::{by_name, Instance};
use piggyback_graph::gen::{copying, CopyingConfig};
use piggyback_graph::CsrGraph;
use piggyback_serve::{ReoptMode, RpcMode, ServeConfig, ServeRuntime};
use piggyback_store::server::ShardStats;
use piggyback_store::FaultPlan;
use piggyback_workload::{OpTrace, Rates};

fn world() -> (CsrGraph, Rates) {
    let g = copying(CopyingConfig {
        nodes: 200,
        follows_per_node: 5,
        copy_prob: 0.7,
        seed: 3,
    });
    let r = Rates::log_degree(&g, 5.0);
    (g, r)
}

fn drive_with(
    rpc: RpcMode,
    replication: usize,
    heartbeat: Duration,
) -> (Vec<ShardStats>, piggyback_obs::Snapshot) {
    let (g, r) = world();
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
            shards: 4,
            workers: 2,
            rpc,
            replication,
            heartbeat_interval: heartbeat,
            ..Default::default()
        },
    );
    let mut c = rt.client();
    // Deterministic share/query stream (no churn: the store counters must
    // be a pure function of the ops, not of churn-thread interleaving).
    let mut trace = OpTrace::new(&r, 0.0, 99);
    for _ in 0..500 {
        c.apply_op(trace.next_op());
    }
    let per_shard = rt.shard_stats();
    drop(c);
    let report = rt.shutdown();
    (per_shard, report.metrics.expect("metrics on by default"))
}

fn drive(rpc: RpcMode) -> (Vec<ShardStats>, piggyback_obs::Snapshot) {
    drive_with(rpc, 1, Duration::ZERO)
}

/// The store counters both planes must agree on, plus the serve-side op
/// counters recorded independently on each plane.
const DIFFERENTIAL_KEYS: [&str; 9] = [
    "store.updates",
    "store.queries",
    "store.events_inserted",
    "store.events_returned",
    "store.batches",
    "store.batch_ops",
    "serve.ops.shares",
    "serve.ops.queries",
    "serve.store_messages",
];

#[test]
fn stats_are_identical_across_direct_and_batched_planes() {
    let (direct, direct_snap) = drive(RpcMode::Direct);
    let (batched, batched_snap) = drive(RpcMode::Batched);
    assert_eq!(direct.len(), 4);
    assert_eq!(
        direct, batched,
        "per-shard Stats must match between the caller-runs and worker planes"
    );
    let touched: u64 = direct.iter().map(|s| s.updates + s.queries).sum();
    assert!(touched > 0, "the op stream never reached the store");
    // The end-of-run snapshots agree on every folded store counter.
    for key in DIFFERENTIAL_KEYS {
        assert_eq!(
            direct_snap.counter(key),
            batched_snap.counter(key),
            "{key} differs between planes"
        );
    }
    // The resilience and re-optimizer instruments ship in the default
    // catalog and stay zero/empty on an unreplicated, unmonitored,
    // churn-free run.
    for key in [
        "replica.lag",
        "health.suspect",
        "failover.count",
        "reopt.stream_passes",
        "reopt.budget_spent_ms",
        "reopt.hubs_admitted",
        "reopt.hubs_evicted",
    ] {
        assert!(
            direct_snap.get(key).is_some(),
            "instrument {key} missing from the catalog"
        );
    }
    assert_eq!(direct_snap.counter("failover.count"), 0);
    assert_eq!(
        direct_snap.counter("reopt.stream_passes"),
        0,
        "no churn, so no re-optimization may have run"
    );
}

#[test]
fn continuous_reopt_feeds_the_reopt_instruments() {
    // Continuous mode with the streaming re-optimizer: churn dirties the
    // graph, the manager fires back-to-back background sweeps under the
    // amortized budget, and every installed result folds its run stats
    // into the reopt.* instruments.
    let (g, r) = world();
    let schedule = by_name("chitchat-stream")
        .unwrap()
        .schedule(&Instance::new(&g, &r))
        .schedule;
    let rt = ServeRuntime::start(
        g,
        r.clone(),
        schedule,
        by_name("chitchat-stream").unwrap(),
        ServeConfig {
            shards: 4,
            workers: 2,
            reopt_mode: ReoptMode::Continuous,
            reopt_budget_frac: 1.0,
            ..Default::default()
        },
    );
    let mut c = rt.client();
    let mut trace = OpTrace::new(&r, 0.5, 7);
    for _ in 0..600 {
        c.apply_op(trace.next_op());
    }
    drop(c);
    let report = rt.shutdown();
    assert!(
        report.churn.reopts >= 1,
        "continuous mode never re-optimized under churn"
    );
    let snap = report.metrics.expect("metrics on by default");
    assert!(
        snap.counter("reopt.stream_passes") >= report.churn.reopts,
        "each streaming re-optimization runs at least one pass"
    );
    assert!(
        snap.counter("reopt.hubs_admitted") > 0,
        "the streaming sweeps admitted no hubs on a hub-rich graph"
    );
    // budget_spent_ms is wall-clock and may legitimately round to 0 on a
    // sub-millisecond sweep, so only the catalog pins it; hubs_evicted
    // stays 0 when the revisit buffer never overflows.
    assert!(snap.get("reopt.budget_spent_ms").is_some());
    assert_eq!(report.churn.live_staleness_violations, 0);
}

#[test]
fn heartbeats_leave_store_counters_untouched() {
    // The replication-1 differential guarantee: turning the failure
    // detector on adds Heartbeat wire requests, but those touch no shard
    // state and no counters — the data plane is byte-identical to the
    // pre-replication plane.
    let (plain, plain_snap) = drive_with(RpcMode::Batched, 1, Duration::ZERO);
    let (probed, probed_snap) = drive_with(RpcMode::Batched, 1, Duration::from_millis(2));
    assert_eq!(
        plain, probed,
        "heartbeat probes must not perturb per-shard stats"
    );
    for key in DIFFERENTIAL_KEYS {
        assert_eq!(
            plain_snap.counter(key),
            probed_snap.counter(key),
            "{key} differs once heartbeats are on"
        );
    }
    assert_eq!(
        probed_snap.counter("failover.count"),
        0,
        "no shard died, nothing may fail over"
    );
}

#[test]
fn rejoin_lifecycle_is_traced_in_the_event_log() {
    // Kill a replicated shard, restart it as a fresh empty process, and
    // require the whole rejoin lifecycle — rejoin detection, anti-entropy
    // catch-up batches, the staleness-gated readmit — to surface as
    // structured obs events with the shard and view counts attached.
    let (g, r) = world();
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
            shards: 4,
            workers: 2,
            replication: 2,
            heartbeat_interval: Duration::from_millis(2),
            staleness_budget: Duration::from_millis(50),
            faults: Some(FaultPlan::default()),
            ..Default::default()
        },
    );
    let mut c = rt.client();
    let mut trace = OpTrace::new(&r, 0.0, 23);
    for _ in 0..300 {
        c.apply_op(trace.next_op());
    }
    assert!(rt.kill_shard(1), "fault plan configured, kill must arm");
    let metrics = rt.metrics().expect("metrics on by default");
    let deadline = Instant::now() + Duration::from_secs(10);
    while metrics.snapshot().counter("failover.count") < 1 {
        for _ in 0..50 {
            c.apply_op(trace.next_op());
        }
        assert!(
            Instant::now() < deadline,
            "no failover within 10s of killing shard 1"
        );
    }
    assert!(rt.restart_shard(1), "a killed shard must restart");
    let has = |needle: &str| {
        metrics
            .events()
            .recent(256)
            .iter()
            .any(|e| e.to_string().contains(needle))
    };
    while !has("readmit shard=1") {
        for _ in 0..50 {
            c.apply_op(trace.next_op());
        }
        assert!(
            Instant::now() < deadline,
            "no readmit within 10s of restarting shard 1: {:?}",
            metrics.events().recent(256)
        );
    }
    for needle in [
        "rejoin shard=1",
        "catch-up-batch shard=1",
        "readmit shard=1",
    ] {
        assert!(has(needle), "event log missing {needle:?}");
    }
    drop(c);
    let report = rt.shutdown();
    assert!(
        report.churn.rejoins >= 1 && report.churn.readmits >= 1,
        "report must count the rejoin + readmit cycle: {} rejoins, {} readmits",
        report.churn.rejoins,
        report.churn.readmits
    );
    assert!(
        report.churn.readmit_ms > 0.0,
        "catch-up took real wall time"
    );
    assert!(
        report.churn.zero_violations(),
        "bounded staleness violated across the rejoin: {:?}",
        report.churn.staleness_violation
    );
}

#[test]
fn stats_are_identical_across_planes_at_replication_two() {
    // With replicated writes the absolute counters change (each update
    // fans out to every replica slot), but the two production planes must
    // still agree with each other operation for operation.
    let (direct, direct_snap) = drive_with(RpcMode::Direct, 2, Duration::ZERO);
    let (batched, batched_snap) = drive_with(RpcMode::Batched, 2, Duration::ZERO);
    assert_eq!(
        direct, batched,
        "per-shard Stats must match between planes at replication 2"
    );
    for key in DIFFERENTIAL_KEYS {
        assert_eq!(
            direct_snap.counter(key),
            batched_snap.counter(key),
            "{key} differs between planes at replication 2"
        );
    }
    // Replication doubles the per-view write traffic vs a single-copy run
    // of the same trace: every view appears on exactly two replica slots,
    // so each update inserts its event twice. (`store.updates` counts
    // per-server groups, which coalesce differently, so the exact ×2 law
    // lives on the per-view counter.)
    let (_, single_snap) = drive(RpcMode::Batched);
    assert_eq!(
        direct_snap.counter("store.events_inserted"),
        2 * single_snap.counter("store.events_inserted"),
        "every view insert must land on both replica slots"
    );
}
