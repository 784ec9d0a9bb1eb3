//! Building a workload's world and booting the feed server on it.

use std::time::{Duration, Instant};

use piggyback_core::baseline::hybrid_schedule;
use piggyback_core::cost::schedule_cost;
use piggyback_core::schedule::Schedule;
use piggyback_core::scheduler::{by_name_with_threads, Instance, ScheduleOutcome, Scheduler};
use piggyback_graph::gen::{flickr_like, twitter_like};
use piggyback_graph::CsrGraph;
use piggyback_serve::{ReoptMode, RpcMode, ServeConfig, ServeRuntime};
use piggyback_workload::Rates;

use crate::spec::{Family, Spec};

/// Data-store shards the server spreads views over (hash placement).
pub const SHARDS: usize = 256;
/// Events per feed query (the paper's prototype returns 10).
pub const TOP_K: usize = 10;

/// Generator seed of every workload's graph. The graph is part of what a
/// workload *is* (family, size, this seed), as a dataset is in LDBC: graphs
/// of one family differ by several percent in hub structure from seed to
/// seed, which would drown every bound. `--seed` drives what is sampled
/// on the graph: placement, operation streams, churn, probes.
pub const GRAPH_SEED: u64 = 42;

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A workload's fixed inputs: the graph, its rates, the hybrid baseline.
pub struct World {
    pub graph: CsrGraph,
    pub rates: Rates,
    /// Cost of the hybrid baseline (Silberstein et al.) on this instance;
    /// the denominator of `cost_ratio`.
    pub hybrid_cost: f64,
    /// Wall time of the graph generator alone.
    pub gen_wall: Duration,
}

impl World {
    pub fn build(spec: &Spec) -> World {
        let t = Instant::now();
        let graph = match spec.family {
            Family::Flickr => flickr_like(spec.nodes, GRAPH_SEED),
            Family::Twitter => twitter_like(spec.nodes, GRAPH_SEED),
        };
        let gen_wall = t.elapsed();
        let rates = Rates::log_degree(&graph, spec.read_write);
        let hybrid = hybrid_schedule(&graph, &rates);
        let hybrid_cost = schedule_cost(&graph, &rates, &hybrid);
        World {
            graph,
            rates,
            hybrid_cost,
            gen_wall,
        }
    }

    pub fn instance(&self) -> Instance<'_> {
        Instance::new(&self.graph, &self.rates)
    }
}

/// The registered optimizer `name` with one worker per core.
pub fn scheduler(name: &str) -> Box<dyn Scheduler> {
    by_name_with_threads(name, nproc()).unwrap_or_else(|| panic!("no scheduler named {name}"))
}

/// One timed `Scheduler::schedule` call.
pub fn timed_schedule(world: &World, name: &str) -> (ScheduleOutcome, Duration) {
    let s = scheduler(name);
    let inst = world.instance();
    let t = Instant::now();
    let outcome = s.schedule(&inst);
    (outcome, t.elapsed())
}

/// Server configuration of a workload. Load comes over `RpcMode::Direct`
/// (caller-runs): the same batches, wire format and message accounting as
/// the worker pool without the thread hop, which on a two-core machine is
/// scheduler noise rather than signal.
pub fn serve_config(reopt: Option<ReoptMode>, seed: u64) -> ServeConfig {
    ServeConfig {
        shards: SHARDS,
        workers: 1,
        top_k: TOP_K,
        placement_seed: seed,
        rpc: RpcMode::Direct,
        reopt_threshold: f64::INFINITY,
        reopt_mode: reopt.unwrap_or(ReoptMode::Threshold),
        reopt_budget_frac: 0.5,
        ..ServeConfig::default()
    }
}

/// Boots the feed server on `schedule`. The clones `ServeRuntime::start`
/// needs (it takes ownership) are made before the clock starts.
pub fn boot(
    world: &World,
    schedule: &Schedule,
    reopt: Option<ReoptMode>,
    seed: u64,
) -> (ServeRuntime, Duration) {
    let (graph, rates, schedule) = (world.graph.clone(), world.rates.clone(), schedule.clone());
    // The background re-optimizer gets one thread: the clients own the rest.
    let reopt_scheduler =
        by_name_with_threads("chitchat-stream", 1).expect("chitchat-stream is registered");
    let config = serve_config(reopt, seed);
    let t = Instant::now();
    let runtime = ServeRuntime::start(graph, rates, schedule, reopt_scheduler, config);
    (runtime, t.elapsed())
}
