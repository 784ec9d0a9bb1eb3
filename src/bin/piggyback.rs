//! `piggyback` — command-line front end for the social-piggybacking
//! library: generate graphs, compute request schedules offline, and
//! evaluate them, mirroring the paper's deployment model (schedules are
//! computed out-of-band and shipped to the application servers).
//!
//! ```text
//! piggyback generate  --model flickr --nodes 4000 --seed 42 --out g.edges
//! piggyback stats     --graph g.edges
//! piggyback schedule  --graph g.edges --algorithm parallelnosy --out s.sched
//! piggyback evaluate  --graph g.edges --schedule s.sched --servers 500
//! piggyback partition --graph g.edges --schedule s.sched --servers 16 \
//!                     --partitioner hash
//! piggyback compare   --preset flickr-like --nodes 2000
//! piggyback serve     --model flickr --nodes 100000 --algorithm chitchat --duration 2s
//! ```
//!
//! `serve` is the *online* mode: it boots the `piggyback-serve` runtime
//! and drives it with an interleaved share/query/follow/unfollow workload,
//! reporting throughput, latency percentiles, churn/re-optimization
//! accounting, the failure lifecycle (with `--heartbeat-ms`), and the
//! post-run bounded-staleness validation.
//!
//! Every optimizer is reached through the [`Scheduler`] registry — the CLI
//! has no per-algorithm call sites, so a newly registered algorithm shows
//! up in `schedule --algorithm` and `compare` automatically.

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Instant;

use social_piggybacking::core::schedule_io::{load_schedule, save_schedule};
use social_piggybacking::core::validate::coverage_report;
use social_piggybacking::graph::io::{load_edge_list, save_edge_list};
use social_piggybacking::graph::stats as gstats;
use social_piggybacking::prelude::*;
use social_piggybacking::serve::ChurnReport;
use social_piggybacking::store::topology::edges_cut;
use social_piggybacking::store::tuple::TUPLE_BYTES;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  piggyback generate --model <flickr|twitter|erdos-renyi|copying> --nodes <n> \\
                     [--seed <s>] [--edges <m>] [--follows <k>] [--copy-prob <p>] \\
                     --out <file>
  piggyback stats    --graph <file>
  piggyback schedule --graph <file> --algorithm <name> \\
                     [--rw-ratio <r>] [--threads <t>] --out <file>
  piggyback evaluate --graph <file> --schedule <file> [--rw-ratio <r>] [--servers <n>]
  piggyback partition --graph <file> [--schedule <file>] [--partitioner <name>] \\
                     [--servers <n>] [--seed <s>] [--rw-ratio <r>]
  piggyback analyze  --graph <file> --schedule <file> [--rw-ratio <r>] [--top <k>]
  piggyback compare  [--preset <flickr-like|twitter-like>] [--graph <file>] \\
                     [--nodes <n>] [--seed <s>] [--rw-ratio <r>] \\
                     [--threads <t>] [--servers <n>]
  piggyback serve    [--graph <file> | --model <m> --nodes <n>] [--algorithm <name>] \\
                     [--duration <2s|500ms>] [--clients <n>] [--servers <n>] \\
                     [--churn-ratio <f>] [--rate <ops/s>] [--reopt-threshold <f>] \\
                     [--partitioner <name>] [--rebalance-threshold <f>] \\
                     [--replication <k>] [--domains <d>] [--heartbeat-ms <n>] \\
                     [--staleness-ms <n>] \\
                     [--rw-ratio <r>] [--seed <s>] [--threads <t>] \\
                     [--stats-interval <1s|500ms>]

<name> under --algorithm is a registered scheduler: push-all, pull-all,
hybrid, chitchat, chitchat-stream, parallelnosy, exact; under
--partitioner it is hash or ldg (--rebalance-threshold needs ldg).
--staleness-ms is how long a replica may miss heartbeats and still serve
reads (0 = never). serve prints a replies: line (event tuples and bytes
the shards shipped per query). With --heartbeat-ms, serve ends with a
failover: line (failovers, views lost, rejoins/readmits,
detect/failover/readmit ms).";

type Handler = fn(&HashMap<String, String>) -> Result<(), String>;

/// Every subcommand: its name, the flags it accepts (space-separated), and
/// its handler. The one table [`run`] validates against and the tests
/// check [`USAGE`] against, so a flag is neither parsed undocumented nor
/// silently ignored.
const COMMANDS: &[(&str, &str, Handler)] = &[
    (
        "generate",
        "model nodes seed edges follows copy-prob out",
        cmd_generate,
    ),
    ("stats", "graph", cmd_stats),
    (
        "schedule",
        "graph algorithm rw-ratio threads out",
        cmd_schedule,
    ),
    ("evaluate", "graph schedule rw-ratio servers", cmd_evaluate),
    (
        "partition",
        "graph schedule partitioner servers seed rw-ratio",
        cmd_partition,
    ),
    ("analyze", "graph schedule rw-ratio top", cmd_analyze),
    (
        "compare",
        "preset graph nodes seed rw-ratio threads servers",
        cmd_compare,
    ),
    (
        "serve",
        "graph model nodes algorithm duration clients servers churn-ratio rate \
         reopt-threshold partitioner rebalance-threshold replication domains heartbeat-ms \
         staleness-ms rw-ratio seed threads stats-interval",
        cmd_serve,
    ),
];

/// Parses `--key value` pairs after the subcommand.
fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {:?}", args[i]))?;
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
        i += 2;
    }
    Ok(flags)
}

fn required<'a>(flags: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    flags
        .get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required flag --{key}"))
}

fn parsed<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value for --{key}: {v:?}")),
    }
}

/// [`parsed`] for a count with a lower bound, checked where the flag is
/// read — before anything is printed or booted — so an out-of-range value
/// is a usage error, not a library panic.
fn at_least(
    flags: &HashMap<String, String>,
    key: &str,
    default: usize,
    min: usize,
) -> Result<usize, String> {
    let v = parsed(flags, key, default)?;
    if v < min {
        return Err(format!("--{key} must be at least {min}"));
    }
    Ok(v)
}

/// [`parsed`] for a real that must be finite and positive (`--rw-ratio`,
/// `--rate`), checked like [`at_least`]'s counts.
fn positive(flags: &HashMap<String, String>, key: &str, default: f64) -> Result<f64, String> {
    let v: f64 = parsed(flags, key, default)?;
    if !(v.is_finite() && v > 0.0) {
        return Err(format!("--{key} must be finite and above 0"));
    }
    Ok(v)
}

/// [`parsed`] for a trigger threshold: at least 0, `inf` turning the
/// trigger off; NaN is rejected, not read as off.
fn threshold(flags: &HashMap<String, String>, key: &str, default: f64) -> Result<f64, String> {
    let v: f64 = parsed(flags, key, default)?;
    if v.is_nan() || v < 0.0 {
        return Err(format!("--{key} must be at least 0 (inf turns it off)"));
    }
    Ok(v)
}

/// `--servers` where it is optional: `None` when absent.
fn optional_servers(flags: &HashMap<String, String>) -> Result<Option<usize>, String> {
    flags
        .contains_key("servers")
        .then(|| at_least(flags, "servers", 1, 1))
        .transpose()
}

/// Resolves `--partitioner` (`default` when absent) against the one
/// partitioner registry, [`PartitionStrategy::ALL`].
fn resolve_partitioner(
    flags: &HashMap<String, String>,
    default: PartitionStrategy,
) -> Result<PartitionStrategy, String> {
    flags.get("partitioner").map_or(Ok(default), |name| {
        PartitionStrategy::parse(name).ok_or_else(|| format!("unknown partitioner {name:?}"))
    })
}

/// The cluster `--servers` prices schedules on in `evaluate` and `compare`:
/// hash placement under one fixed seed, so both bill a schedule alike.
fn hash_cluster(g: &CsrGraph, servers: usize) -> Topology {
    Topology::hash(g.node_count(), servers, 1)
}

fn run(args: &[String]) -> Result<(), String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err("no subcommand given".into());
    };
    let &(_, accepted, handler) = COMMANDS
        .iter()
        .find(|(name, ..)| name == cmd)
        .ok_or_else(|| format!("unknown subcommand {cmd:?}"))?;
    let flags = parse_flags(rest)?;
    let accepted: Vec<&str> = accepted.split_whitespace().collect();
    if let Some(key) = flags
        .keys()
        .filter(|k| !accepted.contains(&k.as_str()))
        .min()
    {
        return Err(format!(
            "unknown flag --{key} for '{cmd}' (accepted: --{})",
            accepted.join(", --")
        ));
    }
    handler(&flags)
}

fn cmd_generate(flags: &HashMap<String, String>) -> Result<(), String> {
    let model = required(flags, "model")?;
    let nodes: usize = parsed(flags, "nodes", 4000)?;
    let seed: u64 = parsed(flags, "seed", 42)?;
    let out = required(flags, "out")?;
    let g = match model {
        "flickr" => gen::flickr_like(nodes, seed),
        "twitter" => gen::twitter_like(nodes, seed),
        "erdos-renyi" => {
            let edges: usize = parsed(flags, "edges", nodes * 10)?;
            gen::erdos_renyi(nodes, edges, seed)
        }
        "copying" => gen::copying(gen::CopyingConfig {
            nodes,
            follows_per_node: parsed(flags, "follows", 8)?,
            copy_prob: parsed(flags, "copy-prob", 0.9)?,
            seed,
        }),
        other => return Err(format!("unknown model {other:?}")),
    };
    save_edge_list(&g, out).map_err(|e| e.to_string())?;
    println!(
        "wrote {} nodes / {} edges to {out}",
        g.node_count(),
        g.edge_count()
    );
    Ok(())
}

fn cmd_stats(flags: &HashMap<String, String>) -> Result<(), String> {
    let path = required(flags, "graph")?;
    let g = load_edge_list(path).map_err(|e| e.to_string())?;
    let out = gstats::out_degree_summary(&g);
    let inn = gstats::in_degree_summary(&g);
    let (closed, wedges) = gstats::piggyback_triangles(&g, 500, 7);
    println!("nodes:        {}", g.node_count());
    println!("edges:        {}", g.edge_count());
    println!(
        "out-degree:   mean {:.2}  median {}  p99 {}  max {}",
        out.mean, out.median, out.p99, out.max
    );
    println!(
        "in-degree:    mean {:.2}  median {}  p99 {}  max {}",
        inn.mean, inn.median, inn.p99, inn.max
    );
    println!("reciprocity:  {:.3}", gstats::reciprocity(&g));
    println!(
        "clustering:   {:.3} (sampled)",
        gstats::sampled_clustering_coefficient(&g, 500, 7)
    );
    println!(
        "wedge closure: {:.3} ({} closed / {} wedges, sampled)",
        closed as f64 / wedges.max(1) as f64,
        closed,
        wedges
    );
    Ok(())
}

/// Applies CLI configuration flags to a registry scheduler. The one place
/// per-algorithm flags live: `schedule`, `compare` and `serve` all route
/// through it, so a flag honored in one subcommand is honored in the
/// others. `--threads` caps the worker fan-out of every parallel optimizer
/// (0 = one per core); every registered algorithm is deterministic across
/// thread counts, so the flag never changes the schedule.
fn configure_scheduler(
    flags: &HashMap<String, String>,
    scheduler: Box<dyn Scheduler>,
) -> Result<Box<dyn Scheduler>, String> {
    let threads: usize = parsed(flags, "threads", 0)?;
    if threads > 0 {
        return scheduler::by_name_with_threads(scheduler.name(), threads)
            .ok_or_else(|| format!("unknown algorithm {:?}", scheduler.name()));
    }
    Ok(scheduler)
}

/// Resolves `--algorithm` against the scheduler registry and applies any
/// configuration flags.
fn resolve_scheduler(
    flags: &HashMap<String, String>,
    algorithm: &str,
) -> Result<Box<dyn Scheduler>, String> {
    let scheduler = scheduler::by_name(algorithm).ok_or_else(|| {
        let names: Vec<_> = scheduler::registry()
            .iter()
            .map(|s| s.name().to_string())
            .collect();
        format!(
            "unknown algorithm {algorithm:?} (registered: {})",
            names.join(", ")
        )
    })?;
    configure_scheduler(flags, scheduler)
}

fn cmd_schedule(flags: &HashMap<String, String>) -> Result<(), String> {
    let ratio = positive(flags, "rw-ratio", 5.0)?;
    let g = load_edge_list(required(flags, "graph")?).map_err(|e| e.to_string())?;
    let rates = Rates::log_degree(&g, ratio);
    let out = required(flags, "out")?;
    let scheduler = resolve_scheduler(flags, required(flags, "algorithm")?)?;
    let inst = Instance::new(&g, &rates);
    if !scheduler.supports(&inst) {
        return Err(format!(
            "algorithm {:?} cannot handle this instance (too large for exact search)",
            scheduler.name()
        ));
    }
    let outcome = scheduler.schedule(&inst);
    validate_bounded_staleness(&g, &outcome.schedule)
        .map_err(|e| format!("internal error — infeasible schedule: {e}"))?;
    save_schedule(&outcome.schedule, out).map_err(|e| e.to_string())?;
    let ff = Hybrid.schedule(&inst);
    println!(
        "wrote schedule to {out}: cost {:.1}, improvement over hybrid {:.3}x",
        outcome.stats.cost,
        predicted_improvement(&g, &rates, &outcome.schedule, &ff.schedule)
    );
    Ok(())
}

/// Runs every registered scheduler on one instance and prints one
/// cost/stats line per algorithm.
fn cmd_compare(flags: &HashMap<String, String>) -> Result<(), String> {
    let nodes: usize = parsed(flags, "nodes", 2000)?;
    let seed: u64 = parsed(flags, "seed", 42)?;
    let ratio = positive(flags, "rw-ratio", 5.0)?;
    let servers = optional_servers(flags)?;
    let g = match flags.get("graph") {
        Some(path) => {
            // --graph fixes the instance; generation flags would be
            // silently dead, so reject the combination.
            for conflicting in ["preset", "nodes", "seed"] {
                if flags.contains_key(conflicting) {
                    return Err(format!("--graph conflicts with --{conflicting}"));
                }
            }
            load_edge_list(path).map_err(|e| e.to_string())?
        }
        None => match flags
            .get("preset")
            .map(String::as_str)
            .unwrap_or("flickr-like")
        {
            "flickr-like" | "flickr" => gen::flickr_like(nodes, seed),
            "twitter-like" | "twitter" => gen::twitter_like(nodes, seed),
            other => return Err(format!("unknown preset {other:?}")),
        },
    };
    let rates = Rates::log_degree(&g, ratio);
    let inst = Instance::new(&g, &rates);
    println!(
        "# instance: {} nodes, {} edges, rw-ratio {ratio}",
        g.node_count(),
        g.edge_count()
    );
    let hybrid = Hybrid.schedule(&inst);
    let hybrid_cost = hybrid.stats.cost;
    // With --servers, every schedule is also billed on `evaluate`'s cluster:
    // batched messages per request, and hybrid's over it on the same map.
    let cluster = servers.map(|servers| hash_cluster(&g, servers));
    let msgs = |s: &Schedule| {
        let t = cluster.as_ref()?;
        let acct = CostModel::with_topology(t.assignment(), t.servers()).batched(&g, &rates, s);
        Some(acct.msgs_per_request())
    };
    let hybrid_msgs = msgs(&hybrid.schedule);
    print!(
        "# {:<18} {:>12} {:>8} {:>12} {:>10} {:>10} {:>10}",
        "algorithm", "cost", "vs_ff", "oracle", "iters", "hubs", "wall_ms"
    );
    if let Some(servers) = servers {
        print!(
            " {:>10} {:>9}",
            format!("msgs@{servers}"),
            format!("vs_ff@{servers}")
        );
    }
    println!();
    let schedulers: Vec<Box<dyn Scheduler>> = scheduler::registry()
        .into_iter()
        .map(|s| configure_scheduler(flags, s))
        .collect::<Result<_, _>>()?;
    for s in &schedulers {
        if !s.supports(&inst) {
            println!("  {:<18} (skipped: instance unsupported)", s.name());
            continue;
        }
        let out = s.schedule(&inst);
        validate_bounded_staleness(&g, &out.schedule)
            .map_err(|e| format!("{}: infeasible schedule: {e}", s.name()))?;
        let st = &out.stats;
        print!(
            "  {:<18} {:>12.1} {:>7.3}x {:>12} {:>10} {:>10} {:>10.1}",
            s.name(),
            st.cost,
            if st.cost > 0.0 {
                hybrid_cost / st.cost
            } else {
                f64::INFINITY
            },
            st.oracle_calls,
            st.iterations,
            st.hubs_applied,
            st.wall_time.as_secs_f64() * 1e3
        );
        if let (Some(msgs), Some(ff)) = (msgs(&out.schedule), hybrid_msgs) {
            print!(" {msgs:>10.4} {:>8.3}x", ff / msgs);
        }
        println!();
    }
    Ok(())
}

fn cmd_evaluate(flags: &HashMap<String, String>) -> Result<(), String> {
    let servers = optional_servers(flags)?;
    let ratio = positive(flags, "rw-ratio", 5.0)?;
    let g = load_edge_list(required(flags, "graph")?).map_err(|e| e.to_string())?;
    let rates = Rates::log_degree(&g, ratio);
    let schedule =
        load_schedule(required(flags, "schedule")?, g.edge_count()).map_err(|e| e.to_string())?;
    validate_bounded_staleness(&g, &schedule).map_err(|e| format!("infeasible schedule: {e}"))?;
    let ff = hybrid_schedule(&g, &rates);
    let report = coverage_report(&g, &schedule);
    println!("cost:        {:.1}", schedule_cost(&g, &rates, &schedule));
    println!(
        "improvement: {:.3}x over hybrid",
        predicted_improvement(&g, &rates, &schedule, &ff)
    );
    println!(
        "serving:     {} push, {} pull, {} both, {} piggybacked, {} unserved",
        report.push, report.pull, report.both, report.covered, report.unserved
    );
    if let Some(servers) = servers {
        let cluster = hash_cluster(&g, servers);
        let model = CostModel::with_topology(cluster.assignment(), servers);
        let batched = model.batched(&g, &rates, &schedule);
        println!(
            "@{servers} servers: normalized throughput {:.4} (hybrid {:.4}), load balance σ {:.2e}",
            batched.normalized_throughput(),
            model.batched(&g, &rates, &ff).normalized_throughput(),
            batched.load_balance().1.sqrt()
        );
    }
    Ok(())
}

/// Parses `"2s"`, `"500ms"`, or a plain number of seconds.
fn parse_duration(v: &str) -> Result<std::time::Duration, String> {
    let (num, scale) = if let Some(ms) = v.strip_suffix("ms") {
        (ms, 1e-3)
    } else if let Some(s) = v.strip_suffix('s') {
        (s, 1.0)
    } else {
        (v, 1.0)
    };
    let secs: f64 = num
        .parse()
        .map_err(|_| format!("invalid duration {v:?} (use e.g. 2s or 500ms)"))?;
    if !secs.is_finite() || secs <= 0.0 || secs * scale > 86_400.0 {
        return Err("duration must be positive (and at most 24h)".into());
    }
    Ok(std::time::Duration::from_secs_f64(secs * scale))
}

fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), String> {
    let seed: u64 = parsed(flags, "seed", 42)?;
    let servers = at_least(flags, "servers", 64, 1)?;
    let clients = at_least(flags, "clients", 4, 1)?;
    let replication: usize = parsed(flags, "replication", 1)?;
    let domains: usize = parsed(flags, "domains", 0)?;
    if domains > servers {
        return Err(format!("--domains {domains} exceeds --servers {servers}"));
    }
    // Replicas of a view never share a server, nor a failure domain when
    // domains are given.
    let spread = if domains > 0 { domains } else { servers };
    if replication > spread {
        return Err(format!("--replication must be at most {spread}"));
    }
    let ratio = positive(flags, "rw-ratio", 5.0)?;
    let rate = flags
        .contains_key("rate")
        .then(|| positive(flags, "rate", 1.0))
        .transpose()?;
    let reopt_threshold = threshold(flags, "reopt-threshold", 0.2)?;
    let partition = resolve_partitioner(flags, PartitionStrategy::Hash)?;
    let rebalance_threshold = threshold(flags, "rebalance-threshold", f64::INFINITY)?;
    if rebalance_threshold.is_finite() && partition == PartitionStrategy::Hash {
        let why = "hash placement never moves a view";
        return Err(format!(
            "--rebalance-threshold needs --partitioner ldg: {why}"
        ));
    }
    let g = match flags.get("graph") {
        Some(path) => {
            let g = load_edge_list(path).map_err(|e| e.to_string())?;
            if g.node_count() < 2 {
                return Err(format!("{path}: serve needs at least two users"));
            }
            g
        }
        None => {
            let nodes = at_least(flags, "nodes", 10_000, 2)?;
            match flags.get("model").map(String::as_str).unwrap_or("flickr") {
                "flickr" => gen::flickr_like(nodes, seed),
                "twitter" => gen::twitter_like(nodes, seed),
                other => return Err(format!("unknown model {other:?}")),
            }
        }
    };
    let rates = Rates::log_degree(&g, ratio);
    let algorithm = flags
        .get("algorithm")
        .map(String::as_str)
        .unwrap_or("parallelnosy");
    let scheduler = resolve_scheduler(flags, algorithm)?;
    let inst = Instance::new(&g, &rates);
    if !scheduler.supports(&inst) {
        return Err(format!(
            "algorithm {algorithm:?} cannot handle this instance"
        ));
    }
    let outcome = scheduler.schedule(&inst);
    validate_bounded_staleness(&g, &outcome.schedule)
        .map_err(|e| format!("internal error — infeasible schedule: {e}"))?;
    let serve_config = ServeConfig {
        shards: servers,
        staleness_budget: std::time::Duration::from_millis(parsed(flags, "staleness-ms", 0)?),
        reopt_threshold,
        partition,
        rebalance_threshold,
        placement_seed: seed,
        replication,
        domains,
        heartbeat_interval: std::time::Duration::from_millis(parsed(flags, "heartbeat-ms", 0)?),
        ..Default::default()
    };
    let churn_ratio: f64 = parsed(flags, "churn-ratio", 0.02)?;
    if !(0.0..=1.0).contains(&churn_ratio) {
        return Err("--churn-ratio must be in [0, 1]".into());
    }
    let load = HarnessConfig {
        clients,
        duration: parse_duration(flags.get("duration").map(String::as_str).unwrap_or("2s"))?,
        churn_ratio,
        arrival: rate.map_or(Arrival::Closed, |ops_per_sec| Arrival::Open { ops_per_sec }),
        seed,
        stats_interval: flags
            .get("stats-interval")
            .map(|v| parse_duration(v))
            .transpose()?,
    };
    println!(
        "# online serve: {} nodes, {} edges, schedule {} (cost {:.1}), {} servers, {} clients, churn {:.1}%",
        g.node_count(),
        g.edge_count(),
        algorithm,
        outcome.stats.cost,
        serve_config.shards,
        load.clients,
        load.churn_ratio * 100.0
    );
    let report = run_harness(&g, &rates, outcome.schedule, scheduler, serve_config, &load);
    let churn = &report.serve.churn;
    println!(
        "throughput:  {:.0} op/s ({} ops in {:.2}s; {} shares, {} queries, {} follows, {} unfollows)",
        report.throughput(),
        report.ops,
        report.elapsed_secs,
        report.shares,
        report.queries,
        report.follows,
        report.unfollows
    );
    println!(
        "messages:    {} total, {:.2} per op",
        report.messages,
        report.messages as f64 / report.ops.max(1) as f64
    );
    if let Some(snap) = &report.serve.metrics {
        println!(
            "{}",
            replies_line(
                snap.counter("store.events_returned"),
                snap.counter("serve.ops.queries")
            )
        );
    }
    println!(
        "latency:     p50 {:.3}ms  p95 {:.3}ms  p99 {:.3}ms  max {:.3}ms",
        report.quantile_ms(0.5),
        report.quantile_ms(0.95),
        report.quantile_ms(0.99),
        report.latency.max_ns() as f64 / 1e6
    );
    println!(
        "churn:       {} follows + {} unfollows applied ({} rejected), {} epochs published, {} re-optimizations",
        churn.follows_applied,
        churn.unfollows_applied,
        churn.churn_rejected,
        report.serve.final_epoch,
        churn.reopts
    );
    println!(
        "topology:    {} partitioner, {} rebalances, {} views migrated",
        partition.name(),
        churn.rebalances,
        churn.users_migrated
    );
    if !serve_config.heartbeat_interval.is_zero() {
        println!("{}", failover_line(churn));
    }
    println!(
        "cost:        base {:.1} -> final {:.1} ({:+.2}%)",
        churn.base_cost,
        churn.final_cost,
        if churn.base_cost > 0.0 {
            (churn.final_cost / churn.base_cost - 1.0) * 100.0
        } else {
            0.0
        }
    );
    if let Some(snap) = &report.serve.metrics {
        println!(
            "metrics:     {} instruments; final snapshot (rates over {:.2}s):",
            snap.len(),
            report.elapsed_secs
        );
        print!("{}", snap.render(Some(report.elapsed_secs)));
    }
    match &churn.staleness_violation {
        None => println!("staleness:   OK (zero violations, validated post-run)"),
        Some(v) => return Err(format!("staleness violated after online churn: {v}")),
    }
    Ok(())
}

/// What the shards shipped per query: event tuples and their wire bytes
/// ([`TUPLE_BYTES`] each), from the store's `events_returned` counter over
/// the queries served.
fn replies_line(returned: u64, queries: u64) -> String {
    let per_query = returned as f64 / queries.max(1) as f64;
    format!(
        "replies:     {per_query:.2} tuples, {:.0} B per query ({returned} tuples over {queries} queries)",
        per_query * TUPLE_BYTES as f64
    )
}

/// The failure lifecycle a run with heartbeats went through: failovers,
/// views lost, rejoins and readmits, and the summed phase timings.
fn failover_line(churn: &ChurnReport) -> String {
    format!(
        "failover:    {} failovers, {} views lost, {}/{} rejoins/readmits; \
         detect {:.1}ms, failover {:.1}ms, readmit {:.1}ms",
        churn.failovers,
        churn.views_lost,
        churn.rejoins,
        churn.readmits,
        churn.detection_ms,
        churn.failover_ms,
        churn.readmit_ms
    )
}

/// Partitions a graph with every registered partitioner and bills the
/// schedule on each map (`CostModel::batched`): one summary row per
/// partitioner, then the per-shard table of the one `--partitioner` picks.
fn cmd_partition(flags: &HashMap<String, String>) -> Result<(), String> {
    let ratio = positive(flags, "rw-ratio", 5.0)?;
    let g = load_edge_list(required(flags, "graph")?).map_err(|e| e.to_string())?;
    let servers = at_least(flags, "servers", 16, 1)?;
    let seed: u64 = parsed(flags, "seed", 42)?;
    let picked = resolve_partitioner(flags, PartitionStrategy::Ldg)?;
    let rates = Rates::log_degree(&g, ratio);
    // Without --schedule the hybrid baseline is the schedule priced.
    let hybrid = hybrid_schedule(&g, &rates);
    let loaded = flags
        .get("schedule")
        .map(|path| load_schedule(path, g.edge_count()))
        .transpose()
        .map_err(|e| e.to_string())?;
    let schedule = loaded.as_ref().unwrap_or(&hybrid);
    let req = PartitionRequest {
        graph: &g,
        rates: &rates,
        schedule: Some(schedule),
        servers,
        seed,
        domains: None,
    };
    println!(
        "# {} users, {} edges, {servers} servers: batched messages per request",
        g.node_count(),
        g.edge_count()
    );
    println!(
        "# {:<15} {:>10} {:>10} {:>10} {:>10} {:>9} {:>9} {:>10}",
        "partitioner",
        "msgs/req",
        "hybrid",
        "load_σ",
        "edges_cut",
        "min_users",
        "max_users",
        "wall_ms"
    );
    let mut shown = None;
    for p in PartitionStrategy::ALL {
        let started = Instant::now();
        let topology = p.partitioner().partition(&req);
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        let model = CostModel::with_topology(topology.assignment(), servers);
        let acct = model.batched(&g, &rates, schedule);
        let sizes = topology.shard_sizes();
        println!(
            "  {:<15} {:>10.4} {:>10.4} {:>10.2e} {:>10} {:>9} {:>9} {:>10.1}",
            p.name(),
            acct.msgs_per_request(),
            model.batched(&g, &rates, &hybrid).msgs_per_request(),
            acct.load_balance().1.sqrt(),
            edges_cut(&g, &topology),
            sizes.iter().min().unwrap_or(&0),
            sizes.iter().max().unwrap_or(&0),
            wall_ms
        );
        if p == picked {
            shown = Some((topology, acct.query_load));
        }
    }
    let (topology, query_load) = shown.expect("the registry lists every strategy");
    println!("# partitioner {}, per shard:", picked.name());
    println!(
        "# {:>5} {:>8} {:>12} {:>12} {:>14}",
        "shard", "users", "edges_in", "edges_cut", "query_load"
    );
    let sizes = topology.shard_sizes();
    let mut edges_within = vec![0usize; servers];
    let mut edges_crossing = vec![0usize; servers];
    for (_, u, v) in g.edges() {
        let (su, sv) = (topology.server_of(u), topology.server_of(v));
        if su == sv {
            edges_within[su] += 1;
        } else {
            edges_crossing[su] += 1;
            edges_crossing[sv] += 1;
        }
    }
    for s in 0..servers {
        println!(
            "  {:>5} {:>8} {:>12} {:>12} {:>14.1}",
            s, sizes[s], edges_within[s], edges_crossing[s], query_load[s]
        );
    }
    Ok(())
}

fn cmd_analyze(flags: &HashMap<String, String>) -> Result<(), String> {
    use social_piggybacking::core::analysis::{amplification, cost_breakdown, hub_report};
    let ratio = positive(flags, "rw-ratio", 5.0)?;
    let g = load_edge_list(required(flags, "graph")?).map_err(|e| e.to_string())?;
    let top: usize = parsed(flags, "top", 10)?;
    let rates = Rates::log_degree(&g, ratio);
    let schedule =
        load_schedule(required(flags, "schedule")?, g.edge_count()).map_err(|e| e.to_string())?;
    let b = cost_breakdown(&g, &rates, &schedule);
    println!(
        "cost breakdown: push {:.1} + pull {:.1} = {:.1}; piggybacking saves {:.1}",
        b.push_cost,
        b.pull_cost,
        b.total(),
        b.covered_hybrid_cost
    );
    let a = amplification(&g, &rates, &schedule);
    println!(
        "amplification:  {:.2} views/share, {:.2} views/query (rate-weighted)",
        a.views_per_share, a.views_per_query
    );
    let hubs = hub_report(&g, &schedule);
    println!("hubs:           {} total; top {top}:", hubs.len());
    for h in hubs.iter().take(top) {
        println!(
            "  user {:>8}: covers {:>5} edges ({} pushes in, {} pulls out)",
            h.hub, h.edges_covered, h.pushes_in, h.pulls_out
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn flag_parsing() {
        let flags = parse_flags(&s(&["--model", "flickr", "--nodes", "100"])).unwrap();
        assert_eq!(flags["model"], "flickr");
        assert_eq!(flags["nodes"], "100");
    }

    #[test]
    fn missing_value_rejected() {
        assert!(parse_flags(&s(&["--model"])).is_err());
        assert!(parse_flags(&s(&["model", "x"])).is_err());
    }

    #[test]
    fn unknown_subcommand_rejected() {
        assert!(run(&s(&["frobnicate"])).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn end_to_end_via_tempdir() {
        let dir = std::env::temp_dir().join("piggyback-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let graph = dir.join("g.edges").to_string_lossy().into_owned();
        let sched = dir.join("s.sched").to_string_lossy().into_owned();
        run(&s(&[
            "generate", "--model", "flickr", "--nodes", "300", "--seed", "7", "--out", &graph,
        ]))
        .unwrap();
        run(&s(&["stats", "--graph", &graph])).unwrap();
        run(&s(&[
            "schedule",
            "--graph",
            &graph,
            "--algorithm",
            "parallelnosy",
            "--out",
            &sched,
        ]))
        .unwrap();
        // Out-of-range input is a usage error, not a library panic.
        for (servers, err) in [("100", None), ("0", Some("--servers must be at least 1"))] {
            let out = run(&s(&[
                "evaluate",
                "--graph",
                &graph,
                "--schedule",
                &sched,
                "--servers",
                servers,
            ]));
            assert_eq!(out.err().as_deref(), err);
        }
        run(&s(&[
            "analyze",
            "--graph",
            &graph,
            "--schedule",
            &sched,
            "--top",
            "5",
        ]))
        .unwrap();
        std::fs::write(&graph, "").unwrap();
        let err = run(&s(&["serve", "--graph", &graph])).unwrap_err();
        assert!(err.contains("at least two users"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compare_runs_every_registered_scheduler() {
        run(&s(&[
            "compare",
            "--preset",
            "flickr-like",
            "--nodes",
            "150",
            "--seed",
            "3",
        ]))
        .unwrap();
        run(&s(&[
            "compare",
            "--preset",
            "twitter-like",
            "--nodes",
            "120",
        ]))
        .unwrap();
        // Topology-aware columns: cost re-priced against a hash topology.
        run(&s(&[
            "compare",
            "--preset",
            "flickr-like",
            "--nodes",
            "120",
            "--servers",
            "32",
        ]))
        .unwrap();
        assert!(run(&s(&[
            "compare",
            "--preset",
            "flickr-like",
            "--nodes",
            "120",
            "--servers",
            "0",
        ]))
        .is_err());
        assert!(run(&s(&["compare", "--preset", "weird"])).is_err());
        // Generation flags are dead when --graph fixes the instance.
        let err = run(&s(&[
            "compare",
            "--graph",
            "g.edges",
            "--preset",
            "flickr-like",
        ]))
        .unwrap_err();
        assert!(err.contains("conflicts"), "{err}");
    }

    #[test]
    fn schedule_accepts_registry_names() {
        let dir = std::env::temp_dir().join("piggyback-cli-test3");
        std::fs::create_dir_all(&dir).unwrap();
        let graph = dir.join("g.edges").to_string_lossy().into_owned();
        run(&s(&[
            "generate", "--model", "flickr", "--nodes", "200", "--seed", "1", "--out", &graph,
        ]))
        .unwrap();
        for registered in scheduler::registry() {
            let algo = registered.name();
            let sched = dir
                .join(format!("{algo}.sched"))
                .to_string_lossy()
                .into_owned();
            let res = run(&s(&[
                "schedule",
                "--graph",
                &graph,
                "--algorithm",
                algo,
                "--out",
                &sched,
            ]));
            if algo == "exact" {
                // Exact must refuse an instance this large instead of hanging.
                let err = res.unwrap_err();
                assert!(err.contains("cannot handle"), "{err}");
            } else {
                res.unwrap_or_else(|e| panic!("{algo}: {e}"));
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn threads_flag_reaches_every_optimizer_entry_point() {
        let dir = std::env::temp_dir().join("piggyback-cli-test4");
        std::fs::create_dir_all(&dir).unwrap();
        let graph = dir.join("g.edges").to_string_lossy().into_owned();
        run(&s(&[
            "generate", "--model", "flickr", "--nodes", "200", "--seed", "9", "--out", &graph,
        ]))
        .unwrap();
        // schedule: any algorithm accepts --threads (identical schedules,
        // so the files must round-trip through evaluate).
        for algo in ["chitchat", "parallelnosy", "chitchat-stream"] {
            let sched = dir
                .join(format!("{algo}.sched"))
                .to_string_lossy()
                .into_owned();
            run(&s(&[
                "schedule",
                "--graph",
                &graph,
                "--algorithm",
                algo,
                "--threads",
                "2",
                "--out",
                &sched,
            ]))
            .unwrap_or_else(|e| panic!("{algo}: {e}"));
            run(&s(&["evaluate", "--graph", &graph, "--schedule", &sched])).unwrap();
        }
        // compare honors it for the whole registry sweep.
        run(&s(&[
            "compare",
            "--preset",
            "flickr-like",
            "--nodes",
            "150",
            "--threads",
            "2",
        ]))
        .unwrap();
        assert!(run(&s(&[
            "schedule",
            "--graph",
            &graph,
            "--algorithm",
            "chitchat",
            "--threads",
            "zap",
            "--out",
            "/dev/null",
        ]))
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn partition_subcommand_reports_all_partitioners() {
        let dir = std::env::temp_dir().join("piggyback-cli-test5");
        std::fs::create_dir_all(&dir).unwrap();
        let graph = dir.join("g.edges").to_string_lossy().into_owned();
        let sched = dir.join("s.sched").to_string_lossy().into_owned();
        run(&s(&[
            "generate", "--model", "flickr", "--nodes", "300", "--seed", "4", "--out", &graph,
        ]))
        .unwrap();
        // Schedule-free: hybrid traffic prices the partition.
        run(&s(&["partition", "--graph", &graph, "--servers", "4"])).unwrap();
        // With an optimized schedule, for every registered partitioner.
        run(&s(&[
            "schedule",
            "--graph",
            &graph,
            "--algorithm",
            "parallelnosy",
            "--out",
            &sched,
        ]))
        .unwrap();
        for p in PartitionStrategy::ALL.map(PartitionStrategy::name) {
            run(&s(&[
                "partition",
                "--graph",
                &graph,
                "--schedule",
                &sched,
                "--servers",
                "8",
                "--partitioner",
                p,
            ]))
            .unwrap_or_else(|e| panic!("{p}: {e}"));
        }
        let err = run(&s(&[
            "partition",
            "--graph",
            &graph,
            "--partitioner",
            "round-robin",
        ]))
        .unwrap_err();
        assert!(err.contains("unknown partitioner"), "{err}");
        assert!(run(&s(&["partition", "--graph", &graph, "--servers", "0"])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_accepts_partitioner_and_rebalance_flags() {
        run(&s(&[
            "serve",
            "--model",
            "flickr",
            "--nodes",
            "300",
            "--duration",
            "150ms",
            "--clients",
            "2",
            "--servers",
            "8",
            "--partitioner",
            "ldg",
            "--rebalance-threshold",
            "0.0001",
            "--churn-ratio",
            "0.2",
        ]))
        .unwrap();
        assert!(run(&s(&["serve", "--partitioner", "bogus"])).is_err());
        // Hash placement never rebalances: a threshold there is an error,
        // with or without an explicit --partitioner hash.
        for hash in [&[][..], &["--partitioner", "hash"]] {
            let mut args = vec!["serve", "--rebalance-threshold", "0.05"];
            args.extend_from_slice(hash);
            let err = run(&s(&args)).unwrap_err();
            assert!(err.contains("--partitioner ldg"), "{err}");
        }
    }

    #[test]
    fn serve_subcommand_runs_online_and_validates() {
        run(&s(&[
            "serve",
            "--model",
            "flickr",
            "--nodes",
            "400",
            "--algorithm",
            "chitchat",
            "--duration",
            "200ms",
            "--clients",
            "2",
            "--servers",
            "8",
            "--churn-ratio",
            "0.05",
            "--staleness-ms",
            "20",
        ]))
        .unwrap();
        // Heartbeats on: the run ends with one `failover:` line.
        run(&s(&[
            "serve",
            "--model",
            "flickr",
            "--nodes",
            "200",
            "--duration",
            "100ms",
            "--servers",
            "4",
            "--replication",
            "2",
            "--heartbeat-ms",
            "5",
        ]))
        .unwrap();
        let churn = ChurnReport {
            failovers: 1,
            views_lost: 3,
            rejoins: 1,
            readmits: 1,
            detection_ms: 20.0,
            failover_ms: 0.3,
            readmit_ms: 45.0,
            ..Default::default()
        };
        assert_eq!(
            failover_line(&churn),
            "failover:    1 failovers, 3 views lost, 1/1 rejoins/readmits; \
             detect 20.0ms, failover 0.3ms, readmit 45.0ms"
        );
        assert_eq!(
            replies_line(940, 100),
            "replies:     9.40 tuples, 226 B per query (940 tuples over 100 queries)"
        );
        assert_eq!(
            replies_line(0, 0),
            "replies:     0.00 tuples, 0 B per query (0 tuples over 0 queries)"
        );
        // Open-loop arrival and threshold flags parse too.
        run(&s(&[
            "serve",
            "--model",
            "flickr",
            "--nodes",
            "200",
            "--duration",
            "150ms",
            "--rate",
            "500",
            "--reopt-threshold",
            "0.01",
        ]))
        .unwrap();
        assert!(run(&s(&["serve", "--duration", "bogus"])).is_err());
        assert!(run(&s(&["serve", "--duration", "-1s"])).is_err());
        assert!(run(&s(&["serve", "--duration", "inf"])).is_err());
        assert!(run(&s(&["serve", "--duration", "9e99s"])).is_err());
        assert!(run(&s(&["serve", "--churn-ratio", "1.5"])).is_err());
        assert!(run(&s(&["serve", "--model", "weird"])).is_err());
    }

    #[test]
    fn out_of_range_counts_are_usage_errors_not_panics() {
        let mut rows: Vec<(String, &str)> = [
            ("serve --servers 0", "--servers"),
            ("serve --clients 0", "--clients"),
            ("serve --nodes 1", "--nodes"),
            ("serve --replication 3 --servers 2", "--replication"),
            ("serve --replication 3 --domains 2", "--replication"),
            ("serve --domains 9 --servers 8", "--domains"),
        ]
        .map(|(args, flag)| (args.to_string(), flag))
        .into();
        // Every subcommand that reads the read/write ratio; `Rates` would
        // panic on any of these values.
        for cmd in [
            "schedule",
            "evaluate",
            "partition",
            "analyze",
            "compare",
            "serve",
        ] {
            for bad in ["0", "-1", "nan", "inf"] {
                rows.push((format!("{cmd} --rw-ratio {bad}"), "--rw-ratio"));
            }
        }
        for bad in ["0", "-1", "nan", "inf"] {
            rows.push((format!("serve --rate {bad}"), "--rate"));
        }
        for flag in ["--reopt-threshold", "--rebalance-threshold"] {
            for bad in ["nan", "-1"] {
                rows.push((format!("serve {flag} {bad} --partitioner ldg"), flag));
            }
        }
        for (args, flag) in &rows {
            let args: Vec<&str> = args.split(' ').collect();
            let err = run(&s(&args)).unwrap_err();
            assert!(err.contains(flag), "{args:?}: {err}");
        }
    }

    #[test]
    fn duration_parsing() {
        assert_eq!(
            parse_duration("2s").unwrap(),
            std::time::Duration::from_secs(2)
        );
        assert_eq!(
            parse_duration("500ms").unwrap(),
            std::time::Duration::from_millis(500)
        );
        assert_eq!(
            parse_duration("1.5").unwrap(),
            std::time::Duration::from_millis(1500)
        );
        assert!(parse_duration("0s").is_err());
        assert!(parse_duration("x").is_err());
    }

    #[test]
    fn schedule_rejects_unknown_algorithm() {
        let dir = std::env::temp_dir().join("piggyback-cli-test2");
        std::fs::create_dir_all(&dir).unwrap();
        let graph = dir.join("g.edges").to_string_lossy().into_owned();
        run(&s(&[
            "generate",
            "--model",
            "erdos-renyi",
            "--nodes",
            "50",
            "--edges",
            "200",
            "--out",
            &graph,
        ]))
        .unwrap();
        let err = run(&s(&[
            "schedule",
            "--graph",
            &graph,
            "--algorithm",
            "magic",
            "--out",
            "/dev/null",
        ]))
        .unwrap_err();
        assert!(err.contains("unknown algorithm"));
        // The removed sharded optimizer fails the same way, by name and by
        // its old alias, and the error names what is registered.
        for gone in ["sharded-chitchat", "sharded"] {
            let err = run(&s(&[
                "schedule",
                "--graph",
                &graph,
                "--algorithm",
                gone,
                "--out",
                "/dev/null",
            ]))
            .unwrap_err();
            assert!(
                err.contains("unknown algorithm") && err.contains("chitchat-stream, parallelnosy"),
                "{err}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_flags_are_rejected_per_subcommand() {
        // A typo must not run with defaults and exit 0.
        let err = run(&s(&["serve", "--duraton", "2s"])).unwrap_err();
        assert!(err.contains("unknown flag --duraton for 'serve'"), "{err}");
        assert!(
            err.contains("--duration"),
            "lists the accepted flags: {err}"
        );
        // Flags removed with the pull cache and the sharded optimizer.
        let err = run(&s(&["serve", "--cache-ttl-ms", "20"])).unwrap_err();
        assert!(
            err.contains("--cache-ttl-ms") && err.contains("--staleness-ms"),
            "{err}"
        );
        let err = run(&s(&["compare", "--shards", "4"])).unwrap_err();
        assert!(err.contains("unknown flag --shards for 'compare'"), "{err}");
        // A flag another subcommand owns is still unknown here.
        assert!(run(&s(&["stats", "--graph", "g.edges", "--servers", "4"])).is_err());
        // Flags removed with the shard-worker plane.
        for flag in ["--rpc", "--workers"] {
            let err = run(&s(&["serve", "--nodes", "50", flag, "2"])).unwrap_err();
            assert!(
                err.contains(&format!("unknown flag {flag} for 'serve'")),
                "{err}"
            );
        }
    }

    #[test]
    fn usage_names_exactly_the_registered_schedulers() {
        let usage = USAGE.split_whitespace().collect::<Vec<_>>().join(" ");
        let listed = usage
            .split_once("is a registered scheduler: ")
            .and_then(|(_, rest)| rest.split_once(';'))
            .expect("USAGE lists the scheduler names")
            .0;
        let registered: Vec<String> = scheduler::registry()
            .iter()
            .map(|s| s.name().to_string())
            .collect();
        assert_eq!(listed.split(", ").collect::<Vec<_>>(), registered);
    }

    #[test]
    fn usage_lists_exactly_the_accepted_flags() {
        for &(cmd, accepted, _) in COMMANDS {
            let head = format!("  piggyback {cmd} ");
            let mut lines = USAGE.lines().skip_while(|l| !l.starts_with(&head));
            let mut section = lines
                .next()
                .unwrap_or_else(|| panic!("USAGE lacks {cmd}"))
                .to_string();
            // Continuation lines are indented deeper than a command line.
            for l in lines.take_while(|l| l.starts_with("   ")) {
                section.push_str(l);
            }
            let mut listed: Vec<&str> = section
                .split("--")
                .skip(1)
                .map(|t| {
                    t.split(|c: char| !(c.is_ascii_lowercase() || c == '-'))
                        .next()
                        .unwrap()
                })
                .collect();
            listed.sort_unstable();
            let mut want: Vec<&str> = accepted.split_whitespace().collect();
            want.sort_unstable();
            assert_eq!(listed, want, "USAGE vs flag table for '{cmd}'");
        }
    }
}
