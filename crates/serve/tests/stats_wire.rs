//! The `Stats` wire request end to end: what the runtime scrapes over the
//! wire, per shard and folded into its snapshot's `store.*` counters, is
//! what the shards counted, and the serve-side counters agree with it.
//! (That the scrape equals each shard's own counters is
//! `runtime::tests::wire_scrape_equals_the_shards_own_counters`.)
//!
//! The same harness pins the replication layer's guarantees: heartbeat
//! probes touch no store counters (a monitored run is byte-identical to
//! an unmonitored one), and replication 2 inserts every event into both
//! replica slots.

use std::time::{Duration, Instant};

use piggyback_core::scheduler::{by_name, Instance};
use piggyback_graph::gen::{copying, CopyingConfig};
use piggyback_graph::CsrGraph;
use piggyback_serve::{ReoptMode, ServeConfig, ServeRuntime};
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

fn drive() -> (Vec<ShardStats>, piggyback_obs::Snapshot) {
    drive_with(1, Duration::ZERO)
}

/// The folded store counters, plus the serve-side op counters recorded
/// independently of them.
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
fn the_wire_scrape_folds_into_the_snapshot() {
    let (per_shard, snap) = drive();
    assert_eq!(per_shard.len(), 4);
    let mut total = ShardStats::default();
    for s in &per_shard {
        total.merge(s);
    }
    assert!(
        total.updates + total.queries > 0,
        "the op stream never reached the store"
    );
    for (key, value) in [
        ("store.updates", total.updates),
        ("store.queries", total.queries),
        ("store.events_inserted", total.events_inserted),
        ("store.events_returned", total.events_returned),
        ("store.batches", total.batches),
        ("store.batch_ops", total.batch_ops),
        // Faultless: every message the clients billed is one batch served.
        ("serve.store_messages", total.batches),
    ] {
        assert_eq!(snap.counter(key), value, "{key}");
    }
    assert_eq!(
        snap.counter("serve.ops.shares") + snap.counter("serve.ops.queries"),
        500
    );
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
            snap.get(key).is_some(),
            "instrument {key} missing from the catalog"
        );
    }
    assert_eq!(snap.counter("failover.count"), 0);
    assert_eq!(
        snap.counter("reopt.stream_passes"),
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
    let (plain, plain_snap) = drive();
    let (probed, probed_snap) = drive_with(1, Duration::from_millis(2));
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
fn replication_two_inserts_every_event_into_both_slots() {
    // Every view appears on exactly two replica slots, so each update
    // inserts its event twice. (`store.updates` counts per-server groups,
    // which coalesce differently, so the exact ×2 law lives on the
    // per-view counter.)
    let (_, replicated) = drive_with(2, Duration::ZERO);
    let (_, single) = drive();
    assert_eq!(
        replicated.counter("store.events_inserted"),
        2 * single.counter("store.events_inserted"),
        "every view insert must land on both replica slots"
    );
    assert_eq!(
        replicated.counter("serve.ops.shares"),
        single.counter("serve.ops.shares")
    );
}
