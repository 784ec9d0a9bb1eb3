//! End-to-end online serving: interleaved share/query/follow/unfollow
//! load with live re-optimization, validated for bounded staleness.

use std::time::Duration;

use crossbeam::channel::{bounded, Receiver};
use piggyback_core::scheduler::{by_name, Hybrid, Instance, ScheduleOutcome, Scheduler};
use piggyback_graph::gen::{copying, CopyingConfig};
use piggyback_graph::{CsrGraph, NodeId};
use piggyback_serve::{run_harness, Arrival, HarnessConfig, ReoptMode, ServeConfig, ServeRuntime};
use piggyback_workload::Rates;

fn world(nodes: usize, seed: u64) -> (CsrGraph, Rates) {
    let g = copying(CopyingConfig {
        nodes,
        follows_per_node: 6,
        copy_prob: 0.8,
        seed,
    });
    let r = Rates::log_degree(&g, 5.0);
    (g, r)
}

/// Heavy follow pressure with a hair-trigger threshold must fire at least
/// one background re-optimization, and the serving path must stay
/// feasible throughout (zero staleness violations post-run).
#[test]
fn churn_triggers_background_reoptimization() {
    let (g, r) = world(400, 9);
    let opt = by_name("parallelnosy").unwrap();
    let schedule = opt.schedule(&Instance::new(&g, &r)).schedule;
    let rt = ServeRuntime::start(
        g.clone(),
        r.clone(),
        schedule,
        by_name("hybrid").unwrap(),
        ServeConfig {
            shards: 4,
            reopt_threshold: 0.01,
            ..Default::default()
        },
    );
    let mut c = rt.client();
    let n = g.node_count() as u32;
    // Deterministic follow storm: new edges cost hybrid price each, so the
    // overlay delta crosses 1% of base quickly.
    let mut applied = 0;
    for i in 0..2_000u32 {
        let u = (i * 7919) % n;
        let v = (i * 104_729 + 1) % n;
        if u != v && c.follow(u, v) {
            applied += 1;
        }
        // Keep the read/write path busy between mutations.
        if i % 16 == 0 {
            c.share(u % n);
            c.query(v % n);
        }
    }
    assert!(applied > 100, "follow storm barely applied: {applied}");
    drop(c);
    let report = rt.shutdown();
    assert_eq!(report.churn.follows_applied, applied);
    assert!(
        report.churn.reopts >= 1,
        "no re-optimization fired despite threshold 0.01 and {applied} follows"
    );
    assert!(
        report.churn.zero_violations(),
        "staleness violated: {:?}",
        report.churn.staleness_violation
    );
    // The re-optimized schedule starts from a fresh (higher) base cost
    // that reflects the grown graph.
    assert!(report.churn.base_cost > 0.0);
    assert!(report.final_epoch as u64 > applied);
}

/// Hybrid, once the test opens its gate: a re-optimization job that stays
/// out for exactly as long as the test wants.
struct Gated(Receiver<()>);

impl Scheduler for Gated {
    fn name(&self) -> &str {
        "gated-hybrid"
    }

    fn schedule(&self, inst: &Instance) -> ScheduleOutcome {
        self.0.recv().expect("the test opens the gate");
        Hybrid.schedule(inst)
    }
}

/// The production shutdown path, step by step: follows applied while a
/// job is out are replayed at its install, `shutdown` waits for that job
/// and rejects churn from a client that outlives it, and the report counts
/// all of it.
#[test]
fn shutdown_lands_the_job_out_and_rejects_late_churn() {
    let (g, r) = world(300, 5);
    let schedule = Hybrid.schedule(&Instance::new(&g, &r)).schedule;
    let (release, gate) = bounded::<()>(0);
    let rt = ServeRuntime::start(
        g.clone(),
        r,
        schedule,
        Box::new(Gated(gate)),
        ServeConfig {
            shards: 4,
            reopt_mode: ReoptMode::Continuous,
            ..Default::default()
        },
    );
    let n = g.node_count() as NodeId;
    let mut fresh = (0..n)
        .flat_map(|u| (0..n).map(move |v| (u, v)))
        .filter(|&(u, v)| u != v && !g.has_edge(u, v));
    let c = rt.client();
    let mut late = rt.client();
    // The first follow fires the job, which blocks in the gate; the next
    // ones are logged for the install to replay.
    let mut applied: Vec<(NodeId, NodeId)> = fresh.by_ref().take(6).collect();
    for &(u, v) in &applied {
        assert!(c.follow(u, v), "{u} -> {v} is a new edge");
    }
    drop(c);
    let shut = std::thread::spawn(move || rt.shutdown());
    // Until shutdown closes the control plane a new edge still applies
    // (and joins the replay); the first one refused is the rejection.
    for (u, v) in fresh.by_ref() {
        if !late.follow(u, v) {
            break;
        }
        applied.push((u, v));
    }
    assert!(!shut.is_finished(), "shutdown returned with the job out");
    release.send(()).expect("the job waits at the gate");
    let report = shut.join().expect("shutdown panicked").churn;
    assert_eq!(report.reopts, 1);
    assert_eq!(report.follows_applied, applied.len() as u64);
    assert_eq!((report.unfollows_applied, report.churn_rejected), (0, 1));
    assert!(
        report.zero_violations(),
        "staleness violated: {:?}",
        report.staleness_violation
    );
    // The late client still reaches the shards, and the installed
    // schedule serves every edge followed while the job was out.
    for &(u, v) in &applied {
        late.share(u);
        let (events, _) = late.query(v);
        assert!(
            events.iter().any(|e| e.user == u),
            "{u} -> {v} not served after the install"
        );
    }
}

/// The full harness on a mid-size graph: concurrent clients, churn, the
/// stats dumper and the closed-loop generator all compose, and the
/// post-run validation is clean.
#[test]
fn harness_sustains_concurrent_churn() {
    let (g, r) = world(1_000, 4);
    let opt = by_name("chitchat").unwrap();
    let schedule = opt.schedule(&Instance::new(&g, &r)).schedule;
    let report = run_harness(
        &g,
        &r,
        schedule,
        by_name("hybrid").unwrap(),
        ServeConfig {
            shards: 8,
            reopt_threshold: 0.05,
            ..Default::default()
        },
        &HarnessConfig {
            clients: 3,
            duration: Duration::from_millis(400),
            churn_ratio: 0.1,
            arrival: Arrival::Closed,
            seed: 21,
            stats_interval: Some(Duration::from_millis(100)),
        },
    );
    assert!(report.ops > 0);
    assert!(report.follows + report.unfollows > 0, "no churn exercised");
    assert!(report.serve.churn.zero_violations());
    assert!(
        report.serve.final_epoch >= report.serve.churn.follows_applied,
        "every applied mutation publishes an epoch"
    );
    // The live metrics capture agrees with the harness's own tallies:
    // shares/queries count issued ops, follows count *applied* mutations.
    let snap = report
        .serve
        .metrics
        .as_ref()
        .expect("metrics on by default");
    assert_eq!(snap.counter("serve.ops.shares"), report.shares);
    assert_eq!(snap.counter("serve.ops.queries"), report.queries);
    assert_eq!(
        snap.counter("serve.ops.follows"),
        report.serve.churn.follows_applied
    );
    assert_eq!(snap.counter("churn.staleness_violations"), 0);
    assert!(snap.counter("store.updates") > 0, "wire scrape folded in");
    // Percentiles are well-formed.
    assert!(report.quantile_ms(0.5) <= report.quantile_ms(0.95));
    assert!(report.quantile_ms(0.95) <= report.quantile_ms(0.99));
}

/// The paper's throughput ordering survives the online path: with enough
/// servers that batching no longer hides fan-out (Figure 6's right side),
/// the same live workload costs strictly fewer store messages under a
/// piggybacking schedule than under push-all.
#[test]
fn piggybacking_reduces_online_messages() {
    let (g, r) = world(600, 2);
    let mk = |name: &str| {
        let opt = by_name(name).unwrap();
        opt.schedule(&Instance::new(&g, &r)).schedule
    };
    let cfg = ServeConfig {
        shards: 256,
        ..Default::default()
    };
    let load = HarnessConfig {
        clients: 1,
        duration: Duration::from_millis(300),
        churn_ratio: 0.0,
        arrival: Arrival::Closed,
        seed: 33,
        stats_interval: None,
    };
    let run = |name: &str| run_harness(&g, &r, mk(name), by_name("hybrid").unwrap(), cfg, &load);
    let push_all = run("push-all");
    let chitchat = run("chitchat");
    let pa = push_all.messages as f64 / push_all.ops.max(1) as f64;
    let cc = chitchat.messages as f64 / chitchat.ops.max(1) as f64;
    assert!(
        cc < pa,
        "chitchat should touch fewer servers per op: {cc:.2} vs push-all {pa:.2}"
    );
}
