//! Online serving benchmark: boots the `piggyback-serve` runtime once per
//! schedule family and drives it with the same interleaved
//! share/query/follow/unfollow workload, emitting machine-readable JSON
//! (throughput plus p50/p95/p99 latency per schedule).
//!
//! The paper's §4.3 ordering — piggybacking schedules sustain higher
//! throughput than the baselines once the system has enough servers that
//! batching no longer hides fan-out — shows up here *end-to-end in the
//! online path*, live churn and all.
//!
//! ```text
//! cargo run --release -p piggyback-bench --bin serve_bench -- [--smoke] \
//!     [--nodes <n>] [--servers <n>] [--duration-ms <n>] [--out <file>] \
//!     [--metrics on|off] [--stats-out <file>]
//! cargo run --release -p piggyback-bench --bin serve_bench -- --chaos [--smoke] \
//!     [--kill <n>] [--replication <k>] [--domains <d>] [--scenarios a,b,c]
//! ```
//!
//! `--metrics off` boots the runtimes without the observability layer —
//! CI runs the smoke twice and gates the metrics-on throughput at ≥ 95%
//! of metrics-off. `--stats-out` writes every run's final metrics
//! snapshot (instruments + per-shard wire scrape) as one JSON document;
//! with metrics on, each `results` row also embeds it under `"obs"`.
//!
//! `--smoke` shrinks everything for CI (a few hundred ms per schedule);
//! the default configuration runs a 100k-node graph at 1000 servers.
//!
//! `--chaos` switches to the fault-tolerance benchmark: an asymmetric
//! fault **matrix** over a replicated runtime (`--replication`, default 2)
//! with 5ms heartbeats and `--domains` failure domains (default 4).
//! Against a faultless twin baseline it sweeps: random kills (`--kill`
//! shards, default 1), a correlated **whole-domain kill** under
//! domain-spread placement and again under domain-blind placement (the
//! control that measures real data loss), a **kill + rejoin** cycle
//! (fresh empty process, anti-entropy catch-up, staleness-budgeted
//! readmit), **sustained delay**, **sustained drop**, and a
//! one-directional **partial partition** that heals. Every scenario must
//! finish with zero bounded-staleness violations (and, except the
//! domain-blind control, zero views lost). The JSON gains a `matrix`
//! section with per-scenario failure-lifecycle phase timings
//! (detection/failover/catch-up/readmit) and a `recovery` section for the
//! plain kill scenario. `--scenarios a,b,c` restricts the sweep (the
//! faultless baseline always runs).
//!
//! Every schedule family is optimized once and the harness runs over the
//! two production planes — `batched` (coalesced `ShardBatch` messages to
//! the shard-worker pool, pooled reply channel and buffers, bounded k-way
//! merges) and `direct` (the same coalesced protocol executed
//! caller-side, no thread hop).
//!
//! Throughput, latency and per-layer numbers are `benchmark/`'s job
//! (pigbench, `BENCHMARK.json`); this binary stays for the two things
//! pigbench cannot drive: the metrics on/off overhead comparison and the
//! fault matrix.

use std::time::Duration;

use piggyback_bench::REFERENCE_RW_RATIO;
use piggyback_core::scheduler::{by_name, Instance};
use piggyback_graph::gen;
use piggyback_serve::{
    run_harness, Arrival, ChaosSpec, HarnessConfig, HarnessReport, RpcMode, ServeConfig,
};
use piggyback_store::{FaultPlan, PartitionDir};
use piggyback_workload::Rates;

/// The schedule families the acceptance ordering is stated over.
const SCHEDULES: [&str; 3] = ["push-all", "hybrid", "chitchat"];

struct Args {
    smoke: bool,
    nodes: usize,
    servers: usize,
    duration: Duration,
    out: Option<String>,
    metrics: bool,
    stats_out: Option<String>,
    chaos: bool,
    kill: usize,
    replication: usize,
    domains: usize,
    scenarios: Option<Vec<String>>,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let (mut nodes, mut servers, mut duration_ms) = (None, None, None);
    let mut out = None;
    let mut metrics = true;
    let mut stats_out = None;
    let mut chaos = false;
    let mut kill = 1;
    let mut replication = 2;
    let mut domains = 4;
    let mut scenarios = None;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--smoke" => {
                smoke = true;
                i += 1;
            }
            "--chaos" => {
                chaos = true;
                i += 1;
            }
            "--kill" => {
                kill = argv[i + 1].parse().expect("--kill");
                i += 2;
            }
            "--replication" => {
                replication = argv[i + 1].parse().expect("--replication");
                i += 2;
            }
            "--domains" => {
                domains = argv[i + 1].parse().expect("--domains");
                i += 2;
            }
            "--scenarios" => {
                scenarios = Some(
                    argv[i + 1]
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect::<Vec<_>>(),
                );
                i += 2;
            }
            "--metrics" => {
                metrics = match argv[i + 1].as_str() {
                    "on" => true,
                    "off" => false,
                    other => panic!("--metrics takes on|off, got {other:?}"),
                };
                i += 2;
            }
            "--stats-out" => {
                stats_out = Some(argv[i + 1].clone());
                i += 2;
            }
            "--nodes" => {
                nodes = Some(argv[i + 1].parse().expect("--nodes"));
                i += 2;
            }
            "--servers" => {
                servers = Some(argv[i + 1].parse().expect("--servers"));
                i += 2;
            }
            "--duration-ms" => {
                duration_ms = Some(argv[i + 1].parse().expect("--duration-ms"));
                i += 2;
            }
            "--out" => {
                out = Some(argv[i + 1].clone());
                i += 2;
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    // Explicit flags win over the smoke/full presets, regardless of order.
    // Chaos mode has its own presets: fewer shards (each kill removes a
    // meaningful slice of capacity) and enough wall time for kill →
    // detect → failover → recover to play out inside the run.
    Args {
        smoke,
        nodes: nodes.unwrap_or(if smoke { 2000 } else { 100_000 }),
        servers: servers.unwrap_or(if chaos {
            16
        } else if smoke {
            256
        } else {
            1000
        }),
        duration: Duration::from_millis(duration_ms.unwrap_or(if chaos && smoke {
            800
        } else if smoke {
            300
        } else {
            2000
        })),
        out,
        metrics,
        stats_out,
        chaos,
        kill,
        replication,
        domains,
        scenarios,
    }
}

fn json_result(name: &str, rpc: RpcMode, cost: f64, r: &HarnessReport) -> String {
    let churn = &r.serve.churn;
    // The embedded metrics snapshot (registry + wire scrape), or null when
    // the run had metrics off (the overhead-gate comparison arm).
    let obs = r
        .serve
        .metrics
        .as_ref()
        .map_or_else(|| "null".to_string(), piggyback_obs::Snapshot::to_json);
    format!(
        concat!(
            "    {{\"schedule\": \"{}\", \"rpc\": \"{}\", \"cost\": {:.1}, \"ops\": {}, ",
            "\"throughput_ops_per_sec\": {:.1}, \"messages_per_op\": {:.3}, ",
            "\"p50_ms\": {:.4}, \"p95_ms\": {:.4}, \"p99_ms\": {:.4}, \"max_ms\": {:.4}, ",
            "\"follows_applied\": {}, \"unfollows_applied\": {}, \"reopts\": {}, ",
            "\"epochs\": {}, \"staleness_ok\": {}, ",
            "\"replication\": {}, \"failovers\": {}, \"unavailable_ms\": {:.1}, ",
            "\"max_replica_lag_ms\": {:.2}, \"views_lost\": {}, \"rejoins\": {}, ",
            "\"readmits\": {}, \"detection_ms\": {:.1}, \"failover_ms\": {:.1}, ",
            "\"catchup_ms\": {:.1}, \"readmit_ms\": {:.1}, \"obs\": {}}}"
        ),
        name,
        rpc.name(),
        cost,
        r.ops,
        r.throughput(),
        r.messages as f64 / r.ops.max(1) as f64,
        r.quantile_ms(0.5),
        r.quantile_ms(0.95),
        r.quantile_ms(0.99),
        r.latency.max_ns() as f64 / 1e6,
        churn.follows_applied,
        churn.unfollows_applied,
        churn.reopts,
        r.serve.final_epoch,
        churn.zero_violations(),
        r.serve.replication,
        churn.failovers,
        churn.failover_unavailable_ms,
        r.serve.max_replica_lag_ms,
        churn.views_lost,
        churn.rejoins,
        churn.readmits,
        churn.detection_ms,
        churn.failover_ms,
        churn.catchup_ms,
        churn.readmit_ms,
        obs
    )
}

/// One row of the chaos matrix: a named fault pattern, the domain layout
/// it runs under, and what a correct run must show. Every scenario drives
/// the same storm against the same replicated runtime; only the faults
/// differ.
struct Scenario {
    name: &'static str,
    /// Failure domains for this run's placement (0 = domain-blind — the
    /// control that measures what spread placement buys).
    domains: usize,
    /// Wire-level fault plan (drop/duplicate/delay) behind the injector.
    plan: FaultPlan,
    /// Process-level chaos: kills or partitions driven mid-storm.
    chaos: Option<ChaosSpec>,
    /// Failovers a correct run must record. Zero means *must record
    /// none*: sustained wire faults may not masquerade as dead shards.
    min_failovers: u64,
    /// The domain-blind control *must* lose views — that loss is the
    /// measured win of spread placement. Everyone else must lose zero.
    expect_loss: bool,
    /// Whether the scenario must complete a rejoin plus staleness-gated
    /// readmit cycle.
    expect_readmit: bool,
}

/// Chaos mode: boot a replicated runtime with heartbeats on and sweep an
/// asymmetric fault matrix — random kills, a correlated whole-domain kill
/// under spread and under domain-blind placement, kill + rejoin with
/// anti-entropy catch-up, sustained delay, sustained drop, and a partial
/// one-directional partition that heals. Every scenario must hold the
/// paper's bounded-staleness guarantee; a faultless twin run at the same
/// replicated configuration is the throughput yardstick.
fn run_chaos(args: &Args) {
    let clients = if args.smoke { 2 } else { 4 };
    let churn_ratio = 0.02;
    let ndomains = args.domains.min(args.servers).max(1);
    // Shards in failure domain 0 under the contiguous block layout — the
    // correlated-kill target for the domain scenarios.
    let domain0: Vec<usize> = (0..args.servers)
        .filter(|&s| s * ndomains / args.servers == 0)
        .collect();
    eprintln!(
        "# serve_bench --chaos: {} nodes, {} shards, replication {}, {} domains, {:?}{}",
        args.nodes,
        args.servers,
        args.replication,
        ndomains,
        args.duration,
        if args.smoke { " (smoke)" } else { "" }
    );
    let g = gen::flickr_like(args.nodes, 42);
    let rates = Rates::log_degree(&g, REFERENCE_RW_RATIO);
    let inst = Instance::new(&g, &rates);
    let opt = by_name("hybrid").expect("registered scheduler");
    let outcome = opt.schedule(&inst);
    let cost = outcome.stats.cost;
    // Heartbeat every 5ms: a dead shard is confirmed `Down` after 4 misses,
    // ~20ms, well inside the 50ms Theorem-1 staleness budget a lagging
    // replica may legally carry — and that a rejoining shard must fit
    // before readmission.
    let config = ServeConfig {
        shards: args.servers,
        workers: 4,
        replication: args.replication,
        domains: ndomains,
        heartbeat_interval: Duration::from_millis(5),
        staleness_budget: Duration::from_millis(50),
        reopt_threshold: 0.25,
        metrics: args.metrics,
        ..Default::default()
    };
    let load = HarnessConfig {
        clients,
        duration: args.duration,
        churn_ratio,
        arrival: Arrival::Closed,
        seed: 7,
        stats_interval: None,
        chaos: None,
    };
    let run = |cfg: ServeConfig, chaos: Option<ChaosSpec>| {
        run_harness(
            &g,
            &rates,
            outcome.schedule.clone(),
            by_name("hybrid").expect("hybrid registered"),
            cfg,
            &HarnessConfig {
                chaos,
                ..load.clone()
            },
        )
    };
    let baseline = run(config, None);
    eprintln!(
        "#   {:<18} {:>9.0} op/s  p99 {:.3}ms",
        "faultless",
        baseline.throughput(),
        baseline.quantile_ms(0.99)
    );
    assert!(
        baseline.serve.churn.zero_violations(),
        "faultless replicated run violated staleness: {:?}",
        baseline.serve.churn.staleness_violation
    );
    // Duplicate-heavy delivery (5% of batches sent twice) rides along
    // with every kill scenario: it exercises the idempotent write path
    // without dropping updates, keeping "no view lost" falsifiable.
    let dup = FaultPlan {
        seed: 7,
        duplicate_per_mille: 50,
        ..Default::default()
    };
    let scenarios = [
        // Random kills at mid-storm: the baseline fault the recovery
        // section has always gated on.
        Scenario {
            name: "kill",
            domains: ndomains,
            plan: dup,
            chaos: Some(ChaosSpec {
                kill_shards: args.kill,
                kill_at_frac: 0.5,
                ..Default::default()
            }),
            min_failovers: args.kill as u64,
            expect_loss: false,
            expect_readmit: false,
        },
        // Correlated whole-domain kill under domain-spread placement:
        // every replica set straddles domains, so losing one whole
        // domain loses zero views.
        Scenario {
            name: "kill-domain-spread",
            domains: ndomains,
            plan: dup,
            chaos: Some(ChaosSpec {
                kill_shards: domain0.len(),
                kill_at_frac: 0.5,
                kill_set: Some(domain0.clone()),
                ..Default::default()
            }),
            min_failovers: domain0.len() as u64,
            expect_loss: false,
            expect_readmit: false,
        },
        // The same correlated kill under domain-blind placement: the
        // control that measures the data loss spread placement prevents.
        Scenario {
            name: "kill-domain-blind",
            domains: 0,
            plan: dup,
            chaos: Some(ChaosSpec {
                kill_shards: domain0.len(),
                kill_at_frac: 0.5,
                kill_set: Some(domain0.clone()),
                ..Default::default()
            }),
            min_failovers: domain0.len() as u64,
            expect_loss: true,
            expect_readmit: false,
        },
        // Kill one shard, then restart it as a fresh empty process: the
        // failover controller must detect the rejoin, stream views back
        // via anti-entropy, and readmit only inside the staleness budget.
        Scenario {
            name: "kill-rejoin",
            domains: ndomains,
            plan: dup,
            chaos: Some(ChaosSpec {
                kill_shards: 1,
                kill_at_frac: 0.35,
                recover_at_frac: Some(0.6),
                ..Default::default()
            }),
            min_failovers: 1,
            expect_loss: false,
            expect_readmit: true,
        },
        // Sustained wire delay: 15% of batches arrive 1ms late. Slow is
        // not dead — detection must not fail anyone over.
        Scenario {
            name: "sustained-delay",
            domains: ndomains,
            plan: FaultPlan {
                seed: 7,
                delay_per_mille: 150,
                delay: Duration::from_millis(1),
                ..Default::default()
            },
            chaos: None,
            min_failovers: 0,
            expect_loss: false,
            expect_readmit: false,
        },
        // Sustained update drop: 3% of replica deliveries vanish. The
        // resilient write path must absorb it without staleness escapes
        // or spurious failovers.
        Scenario {
            name: "sustained-drop",
            domains: ndomains,
            plan: FaultPlan {
                seed: 7,
                drop_update_per_mille: 30,
                ..Default::default()
            },
            chaos: None,
            min_failovers: 0,
            expect_loss: false,
            expect_readmit: false,
        },
        // Partial one-directional partition, no kill: the shard stays up
        // but unreachable inbound, must be failed over, then healed and
        // readmitted through the same rejoin pipeline.
        Scenario {
            name: "partial-partition",
            domains: ndomains,
            plan: FaultPlan {
                seed: 7,
                ..Default::default()
            },
            chaos: Some(ChaosSpec {
                kill_shards: 1,
                kill_at_frac: 0.4,
                partition: Some(PartitionDir::Inbound),
                recover_at_frac: Some(0.7),
                ..Default::default()
            }),
            min_failovers: 1,
            expect_loss: false,
            expect_readmit: true,
        },
    ];
    if let Some(wanted) = &args.scenarios {
        for w in wanted {
            assert!(
                scenarios.iter().any(|s| s.name == w),
                "--scenarios: unknown scenario {w:?} (known: {:?})",
                scenarios.iter().map(|s| s.name).collect::<Vec<_>>()
            );
        }
    }
    let mut rows = vec![json_result(
        "hybrid-faultless",
        RpcMode::Batched,
        cost,
        &baseline,
    )];
    let mut matrix = Vec::new();
    let mut kill_report = None;
    for sc in &scenarios {
        if let Some(wanted) = &args.scenarios {
            if !wanted.iter().any(|w| w == sc.name) {
                continue;
            }
        }
        let report = run(
            ServeConfig {
                domains: sc.domains,
                faults: Some(sc.plan),
                ..config
            },
            sc.chaos.clone(),
        );
        let churn = &report.serve.churn;
        let vs_faultless = report.throughput() / baseline.throughput().max(1e-9);
        eprintln!(
            "#   {:<18} {:>9.0} op/s ({:>3.0}%)  failovers {} lost {} rejoins {} readmits {}  \
             detect {:.1}ms failover {:.1}ms catchup {:.1}ms readmit {:.1}ms  staleness_ok {}",
            sc.name,
            report.throughput(),
            vs_faultless * 100.0,
            churn.failovers,
            churn.views_lost,
            churn.rejoins,
            churn.readmits,
            churn.detection_ms,
            churn.failover_ms,
            churn.catchup_ms,
            churn.readmit_ms,
            churn.zero_violations()
        );
        assert!(
            churn.zero_violations(),
            "{}: staleness violated: {:?}",
            sc.name,
            churn.staleness_violation
        );
        if sc.min_failovers == 0 {
            assert_eq!(
                churn.failovers, 0,
                "{}: sustained wire faults must not trigger failovers, saw {}",
                sc.name, churn.failovers
            );
        } else {
            assert!(
                churn.failovers >= sc.min_failovers,
                "{}: expected >= {} failovers, saw {}",
                sc.name,
                sc.min_failovers,
                churn.failovers
            );
        }
        if sc.expect_loss {
            assert!(
                churn.views_lost > 0,
                "{}: the domain-blind control lost no views — the spread-placement \
                 win is unmeasured",
                sc.name
            );
        } else {
            assert_eq!(
                churn.views_lost, 0,
                "{}: lost {} views despite domain-spread replicas",
                sc.name, churn.views_lost
            );
        }
        if sc.expect_readmit {
            assert!(
                churn.rejoins >= 1 && churn.readmits >= 1,
                "{}: expected a completed rejoin + readmit cycle, saw {} rejoins / {} readmits",
                sc.name,
                churn.rejoins,
                churn.readmits
            );
            // Foreground traffic must ride through catch-up: the full run
            // gates 80% of faultless throughput (smoke runs are too short
            // to average out the detection gap).
            if !args.smoke {
                assert!(
                    vs_faultless >= 0.8,
                    "{}: throughput fell to {:.0}% of faultless during catch-up",
                    sc.name,
                    vs_faultless * 100.0
                );
            }
        }
        matrix.push(format!(
            concat!(
                "    {{\"scenario\": \"{}\", \"staleness_ok\": {}, \"failovers\": {}, ",
                "\"views_lost\": {}, \"rejoins\": {}, \"readmits\": {}, ",
                "\"detection_ms\": {:.1}, \"failover_ms\": {:.1}, \"catchup_ms\": {:.1}, ",
                "\"readmit_ms\": {:.1}, \"unavailable_ms\": {:.1}, ",
                "\"max_replica_lag_ms\": {:.2}, \"throughput_vs_faultless\": {:.3}}}"
            ),
            sc.name,
            churn.zero_violations(),
            churn.failovers,
            churn.views_lost,
            churn.rejoins,
            churn.readmits,
            churn.detection_ms,
            churn.failover_ms,
            churn.catchup_ms,
            churn.readmit_ms,
            churn.failover_unavailable_ms,
            report.serve.max_replica_lag_ms,
            vs_faultless
        ));
        rows.push(json_result(
            &format!("hybrid-{}", sc.name),
            RpcMode::Batched,
            cost,
            &report,
        ));
        if sc.name == "kill" {
            kill_report = Some(report);
        }
    }
    // The `recovery` section keeps its pre-matrix shape, keyed off the
    // plain-kill scenario, so existing gates keep parsing it.
    let recovery = kill_report.as_ref().map_or_else(String::new, |r| {
        format!(
            ",\n  \"recovery\": {{\"failovers\": {}, \"users_failed_over\": {}, \
             \"unavailable_ms\": {:.1}, \"max_replica_lag_ms\": {:.2}, \
             \"throughput_vs_faultless\": {:.3}, \"staleness_ok\": {}}}",
            r.serve.churn.failovers,
            r.serve.churn.users_failed_over,
            r.serve.churn.failover_unavailable_ms,
            r.serve.max_replica_lag_ms,
            r.throughput() / baseline.throughput().max(1e-9),
            r.serve.churn.zero_violations()
        )
    });
    let json = format!(
        "{{\n  \"bench\": \"serve_chaos\",\n  \"smoke\": {},\n  \"nodes\": {},\n  \"edges\": {},\n  \
         \"shards\": {},\n  \"replication\": {},\n  \"domains\": {},\n  \"killed_shards\": {},\n  \
         \"duration_ms\": {},\n  \"heartbeat_ms\": 5,\n  \"staleness_budget_ms\": 50,\n  \
         \"results\": [\n{}\n  ],\n  \"matrix\": [\n{}\n  ]{}\n}}",
        args.smoke,
        g.node_count(),
        g.edge_count(),
        args.servers,
        args.replication,
        ndomains,
        args.kill,
        args.duration.as_millis(),
        rows.join(",\n"),
        matrix.join(",\n"),
        recovery
    );
    println!("{json}");
    if let Some(path) = &args.out {
        std::fs::write(path, format!("{json}\n")).expect("write --out file");
        eprintln!("# wrote {path}");
    }
}

fn main() {
    let args = parse_args();
    if args.chaos {
        run_chaos(&args);
        return;
    }
    let clients = if args.smoke { 2 } else { 4 };
    let churn_ratio = 0.02;
    eprintln!(
        "# serve_bench: {} nodes, {} servers, {:?} per schedule{}",
        args.nodes,
        args.servers,
        args.duration,
        if args.smoke { " (smoke)" } else { "" }
    );
    let g = gen::flickr_like(args.nodes, 42);
    let rates = Rates::log_degree(&g, REFERENCE_RW_RATIO);
    let inst = Instance::new(&g, &rates);
    let mut rows = Vec::new();
    let mut stats_rows = Vec::new();
    let mut summary = Vec::new();
    for name in SCHEDULES {
        let opt = by_name(name).expect("registered scheduler");
        let outcome = opt.schedule(&inst);
        let cost = outcome.stats.cost;
        for rpc in [RpcMode::Batched, RpcMode::Direct] {
            let report = run_harness(
                &g,
                &rates,
                outcome.schedule.clone(),
                by_name("hybrid").expect("hybrid registered"),
                ServeConfig {
                    shards: args.servers,
                    workers: 4,
                    reopt_threshold: 0.25,
                    rpc,
                    metrics: args.metrics,
                    ..Default::default()
                },
                &HarnessConfig {
                    clients,
                    duration: args.duration,
                    churn_ratio,
                    arrival: Arrival::Closed,
                    seed: 7,
                    stats_interval: None,
                    chaos: None,
                },
            );
            assert!(
                report.serve.churn.zero_violations(),
                "{name}/{}: staleness violated: {:?}",
                rpc.name(),
                report.serve.churn.staleness_violation
            );
            eprintln!(
                "#   {:<9} {:<7} {:>9.0} op/s  {:.3} msg/op  p50 {:.3}ms  p99 {:.3}ms",
                name,
                rpc.name(),
                report.throughput(),
                report.messages as f64 / report.ops.max(1) as f64,
                report.quantile_ms(0.5),
                report.quantile_ms(0.99)
            );
            if rpc == RpcMode::Direct {
                summary.push((name, report.throughput()));
            }
            if let Some(snap) = &report.serve.metrics {
                stats_rows.push(format!("  \"{}_{}\": {}", name, rpc.name(), snap.to_json()));
            }
            rows.push(json_result(name, rpc, cost, &report));
        }
    }
    let json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"smoke\": {},\n  \"nodes\": {},\n  \"edges\": {},\n  \
         \"servers\": {},\n  \"clients\": {},\n  \"duration_ms\": {},\n  \"churn_ratio\": {},\n  \
         \"results\": [\n{}\n  ]\n}}",
        args.smoke,
        g.node_count(),
        g.edge_count(),
        args.servers,
        clients,
        args.duration.as_millis(),
        churn_ratio,
        rows.join(",\n")
    );
    println!("{json}");
    if let Some(path) = &args.out {
        std::fs::write(path, format!("{json}\n")).expect("write --out file");
        eprintln!("# wrote {path}");
    }
    if let Some(path) = &args.stats_out {
        let stats = format!("{{\n{}\n}}\n", stats_rows.join(",\n"));
        std::fs::write(path, stats).expect("write --stats-out file");
        eprintln!("# wrote {path}");
    }
    // The paper's ordering is a trend, not a per-run guarantee (placement
    // and thread scheduling add noise, especially in smoke runs) — report
    // it rather than asserting.
    let ordered = summary.windows(2).all(|w| w[1].1 >= w[0].1 * 0.95);
    eprintln!(
        "# throughput ordering chitchat >= hybrid >= push-all: {}",
        if ordered {
            "holds (within 5%)"
        } else {
            "NOT observed this run"
        }
    );
}
