//! One trait for every optimizer: the unified `Scheduler` abstraction.
//!
//! The crate grew one request-schedule optimizer per paper section —
//! baselines (§1), CHITCHAT (§3.1), PARALLELNOSY (§3.2), streaming
//! CHITCHAT, and the exact solver — each
//! with its own entry point and result struct. Benches, examples and the
//! CLI all had per-algorithm call sites, so adding an algorithm meant
//! touching every consumer.
//!
//! This module is the one seam they all plug into instead:
//!
//! * [`Instance`] — the problem: a graph plus per-user rates.
//! * [`Scheduler`] — the algorithm: `name()` + `schedule(&Instance)`.
//! * [`ScheduleOutcome`] — the answer: a feasible [`Schedule`] plus
//!   [`ScheduleStats`] common to every algorithm (cost, oracle calls,
//!   iterations, hubs applied, wall time).
//! * [`registry`] / [`by_name`] — the name-keyed catalog consumers iterate
//!   over (`for s in &registry() { s.schedule(&inst) }`), so a new
//!   algorithm becomes one `impl Scheduler` plus one registry line.
//!
//! The exact solver cannot handle arbitrary instances (its search space is
//! exponential); [`Scheduler::supports`] lets such algorithms bow out of an
//! instance without panicking, and lets generic drivers skip them cleanly.

use std::time::{Duration, Instant};

use piggyback_graph::CsrGraph;
use piggyback_workload::Rates;

use crate::baseline::{hybrid_schedule, pull_all_schedule, push_all_schedule};
use crate::chitchat::ChitChat;
use crate::chitchat_stream::ChitChatStream;
use crate::cost::{assert_rates_cover, schedule_cost};
use crate::optimal::{optimal_schedule, search_space};
use crate::parallelnosy::ParallelNosy;
use crate::schedule::Schedule;

/// One DISSEMINATION instance: the social graph and its workload.
///
/// Fields are private so [`Instance::new`]'s coverage check is the only
/// way in — every scheduler can then index `rates` by any node id without
/// re-validating.
#[derive(Clone, Copy, Debug)]
pub struct Instance<'a> {
    graph: &'a CsrGraph,
    rates: &'a Rates,
}

impl<'a> Instance<'a> {
    /// Bundles a graph and its rates.
    ///
    /// # Panics
    ///
    /// Panics if the rates do not cover every node of the graph.
    pub fn new(graph: &'a CsrGraph, rates: &'a Rates) -> Self {
        assert_rates_cover(graph, rates);
        Instance { graph, rates }
    }

    /// The social graph (`u → v` = `v` subscribes to `u`).
    pub fn graph(&self) -> &'a CsrGraph {
        self.graph
    }

    /// Per-user production/consumption rates (cover every node).
    pub fn rates(&self) -> &'a Rates {
        self.rates
    }
}

/// Statistics every scheduler reports, in the same shape.
///
/// Fields that do not apply to an algorithm stay zero (e.g. the baselines
/// make no oracle calls and run no iterations). What the schedule costs on
/// a cluster is priced separately, by
/// [`CostModel::batched`](crate::cost::CostModel::batched).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ScheduleStats {
    /// Cost `c(H, L)` of the produced schedule under the §2.1 model.
    pub cost: f64,
    /// Densest-subgraph oracle invocations (CHITCHAT family).
    pub oracle_calls: usize,
    /// Optimization iterations executed (PARALLELNOSY family); the exact
    /// solver reports evaluated assignments here.
    pub iterations: usize,
    /// Hub-graphs applied / hub selections made.
    pub hubs_applied: usize,
    /// Wall-clock time of the `schedule` call.
    pub wall_time: Duration,
    /// Milliseconds of work executed inside the algorithm's fan-out
    /// sections, summed over workers (zero for algorithms without one).
    /// See [`FanoutTelemetry`](crate::fanout::FanoutTelemetry).
    pub fanout_busy_ms: f64,
    /// Milliseconds of fan-out capacity (section wall time × workers);
    /// `fanout_busy_ms / fanout_capacity_ms` is the busy fraction the
    /// benchmark rows gate on.
    pub fanout_capacity_ms: f64,
    /// Hub candidates evicted from a bounded buffer (streaming CHITCHAT's
    /// revisit buffer); zero for every other algorithm.
    pub hubs_evicted: usize,
}

/// A schedule plus the uniform statistics of the run that produced it.
#[derive(Clone, Debug)]
pub struct ScheduleOutcome {
    /// The computed request schedule. Every registered scheduler returns a
    /// *feasible* schedule (each edge pushed, pulled, or covered).
    pub schedule: Schedule,
    /// Run statistics.
    pub stats: ScheduleStats,
}

/// A request-schedule optimizer.
///
/// `Send + Sync` is part of the contract: online consumers (the
/// `piggyback-serve` runtime) hand a scheduler to a background thread for
/// full re-optimization while the serving path keeps running. Every
/// registered scheduler is a plain configuration struct, so the bound is
/// free.
pub trait Scheduler: Send + Sync {
    /// Stable registry key (lower-kebab-case, e.g. `"parallelnosy"`).
    fn name(&self) -> &str;

    /// Whether this scheduler can handle `inst`. Defaults to `true`;
    /// algorithms with hard feasibility limits (the exact solver) override
    /// it, and generic drivers skip unsupported instances.
    fn supports(&self, _inst: &Instance) -> bool {
        true
    }

    /// Computes a feasible schedule for `inst`.
    ///
    /// # Panics
    ///
    /// May panic if `supports` returned `false` for this instance.
    fn schedule(&self, inst: &Instance) -> ScheduleOutcome;
}

/// Times `f` and assembles an outcome, filling `cost` and `wall_time`.
fn timed(inst: &Instance, f: impl FnOnce() -> (Schedule, ScheduleStats)) -> ScheduleOutcome {
    let start = Instant::now();
    let (schedule, mut stats) = f();
    stats.wall_time = start.elapsed();
    stats.cost = schedule_cost(inst.graph, inst.rates, &schedule);
    ScheduleOutcome { schedule, stats }
}

/// `(busy_ms, capacity_ms)` from a fan-out telemetry record.
fn telemetry_ms(t: &crate::fanout::FanoutTelemetry) -> (f64, f64) {
    (t.busy_ns as f64 / 1e6, t.capacity_ns as f64 / 1e6)
}

/// Push-all baseline (§1): every edge is a push.
#[derive(Clone, Copy, Debug, Default)]
pub struct PushAll;

impl Scheduler for PushAll {
    fn name(&self) -> &str {
        "push-all"
    }

    fn schedule(&self, inst: &Instance) -> ScheduleOutcome {
        timed(inst, || {
            (push_all_schedule(inst.graph), ScheduleStats::default())
        })
    }
}

/// Pull-all baseline (§1): every edge is a pull.
#[derive(Clone, Copy, Debug, Default)]
pub struct PullAll;

impl Scheduler for PullAll {
    fn name(&self) -> &str {
        "pull-all"
    }

    fn schedule(&self, inst: &Instance) -> ScheduleOutcome {
        timed(inst, || {
            (pull_all_schedule(inst.graph), ScheduleStats::default())
        })
    }
}

/// The hybrid FEEDINGFRENZY baseline of Silberstein et al.: per edge, the
/// cheaper of push and pull.
#[derive(Clone, Copy, Debug, Default)]
pub struct Hybrid;

impl Scheduler for Hybrid {
    fn name(&self) -> &str {
        "hybrid"
    }

    fn schedule(&self, inst: &Instance) -> ScheduleOutcome {
        timed(inst, || {
            (
                hybrid_schedule(inst.graph, inst.rates),
                ScheduleStats::default(),
            )
        })
    }
}

impl Scheduler for ChitChat {
    fn name(&self) -> &str {
        "chitchat"
    }

    fn schedule(&self, inst: &Instance) -> ScheduleOutcome {
        timed(inst, || {
            let res = self.run(inst.graph, inst.rates);
            let (fanout_busy_ms, fanout_capacity_ms) = telemetry_ms(&res.telemetry);
            let stats = ScheduleStats {
                oracle_calls: res.oracle_calls,
                hubs_applied: res.hub_selections,
                fanout_busy_ms,
                fanout_capacity_ms,
                ..Default::default()
            };
            (res.schedule, stats)
        })
    }
}

impl Scheduler for ChitChatStream {
    fn name(&self) -> &str {
        "chitchat-stream"
    }

    fn schedule(&self, inst: &Instance) -> ScheduleOutcome {
        timed(inst, || {
            let res = self.run(inst.graph, inst.rates);
            let (fanout_busy_ms, fanout_capacity_ms) = telemetry_ms(&res.telemetry);
            let stats = ScheduleStats {
                oracle_calls: res.oracle_calls,
                // The streaming path iterates passes, not greedy rounds.
                iterations: res.passes,
                hubs_applied: res.hubs_admitted,
                hubs_evicted: res.revisit_evictions,
                fanout_busy_ms,
                fanout_capacity_ms,
                ..Default::default()
            };
            (res.schedule, stats)
        })
    }
}

impl Scheduler for ParallelNosy {
    fn name(&self) -> &str {
        "parallelnosy"
    }

    fn schedule(&self, inst: &Instance) -> ScheduleOutcome {
        timed(inst, || {
            let res = self.run(inst.graph, inst.rates);
            let (fanout_busy_ms, fanout_capacity_ms) = telemetry_ms(&res.telemetry);
            let stats = ScheduleStats {
                iterations: res.iterations,
                hubs_applied: res.hubs_applied,
                fanout_busy_ms,
                fanout_capacity_ms,
                ..Default::default()
            };
            (res.schedule, stats)
        })
    }
}

/// The exact (exponential) DISSEMINATION solver. Only [`supports`] tiny
/// instances — see [`MAX_ASSIGNMENTS`](crate::optimal::MAX_ASSIGNMENTS).
///
/// [`supports`]: Scheduler::supports
#[derive(Clone, Copy, Debug, Default)]
pub struct Exact;

impl Scheduler for Exact {
    fn name(&self) -> &str {
        "exact"
    }

    fn supports(&self, inst: &Instance) -> bool {
        search_space(inst.graph).is_some()
    }

    fn schedule(&self, inst: &Instance) -> ScheduleOutcome {
        timed(inst, || {
            let res = optimal_schedule(inst.graph, inst.rates)
                .expect("instance too large for the exact solver; check supports() first");
            let stats = ScheduleStats {
                iterations: res.assignments_evaluated as usize,
                ..Default::default()
            };
            (res.schedule, stats)
        })
    }
}

/// Every registered scheduler, baselines first, in a stable order.
///
/// The list is the single source of truth for "all algorithms" across the
/// CLI (`piggyback compare`), benches and tests.
pub fn registry() -> Vec<Box<dyn Scheduler>> {
    registry_with_threads(0)
}

/// [`registry`] with an explicit worker-thread budget applied to every
/// parallel optimizer (`0` = one worker per available core). Every
/// parallel algorithm in the registry is deterministic across thread
/// counts, so the knob only changes wall time.
pub fn registry_with_threads(threads: usize) -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(PushAll),
        Box::new(PullAll),
        Box::new(Hybrid),
        Box::new(ChitChat { threads }),
        Box::new(ChitChatStream { threads }),
        Box::new(ParallelNosy {
            threads,
            ..Default::default()
        }),
        Box::new(Exact),
    ]
}

/// Looks a scheduler up by its registry [`name`](Scheduler::name).
/// Common aliases from the CLI's history are honored.
pub fn by_name(name: &str) -> Option<Box<dyn Scheduler>> {
    by_name_with_threads(name, 0)
}

/// [`by_name`] with an explicit worker-thread budget (see
/// [`registry_with_threads`]).
pub fn by_name_with_threads(name: &str, threads: usize) -> Option<Box<dyn Scheduler>> {
    let canonical = match name {
        "ff" | "feedingfrenzy" => "hybrid",
        "pn" => "parallelnosy",
        "cc" => "chitchat",
        "ccs" | "stream" => "chitchat-stream",
        other => other,
    };
    registry_with_threads(threads)
        .into_iter()
        .find(|s| s.name() == canonical)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_bounded_staleness;
    use piggyback_graph::gen::erdos_renyi;
    use piggyback_graph::GraphBuilder;

    fn small_world() -> (CsrGraph, Rates) {
        let g = erdos_renyi(60, 240, 3);
        let r = Rates::log_degree(&g, 5.0);
        (g, r)
    }

    #[test]
    fn registry_names_are_unique_and_stable() {
        let names: Vec<String> = registry().iter().map(|s| s.name().to_string()).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate scheduler names");
        assert_eq!(
            names,
            vec![
                "push-all",
                "pull-all",
                "hybrid",
                "chitchat",
                "chitchat-stream",
                "parallelnosy",
                "exact",
            ]
        );
    }

    #[test]
    fn by_name_resolves_aliases() {
        for (alias, canonical) in [
            ("ff", "hybrid"),
            ("pn", "parallelnosy"),
            ("cc", "chitchat"),
            ("ccs", "chitchat-stream"),
            ("stream", "chitchat-stream"),
            ("exact", "exact"),
        ] {
            assert_eq!(by_name(alias).expect(alias).name(), canonical);
        }
        assert!(by_name("no-such-algorithm").is_none());
    }

    #[test]
    fn every_supported_scheduler_is_feasible_with_cost_filled() {
        let (g, r) = small_world();
        let inst = Instance::new(&g, &r);
        for s in &registry() {
            if !s.supports(&inst) {
                continue;
            }
            let out = s.schedule(&inst);
            validate_bounded_staleness(&g, &out.schedule)
                .unwrap_or_else(|e| panic!("{}: {e}", s.name()));
            let direct = schedule_cost(&g, &r, &out.schedule);
            assert!(
                (out.stats.cost - direct).abs() < 1e-9,
                "{}: stats.cost {} != {}",
                s.name(),
                out.stats.cost,
                direct
            );
        }
    }

    #[test]
    fn exact_supports_matches_solver() {
        let (g, r) = small_world();
        assert!(!Exact.supports(&Instance::new(&g, &r)));
        assert!(optimal_schedule(&g, &r).is_none());

        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(0, 2);
        let tiny = b.build();
        let tr = Rates::uniform(3, 1.0, 5.0);
        let inst = Instance::new(&tiny, &tr);
        assert!(Exact.supports(&inst));
        let out = Exact.schedule(&inst);
        assert!(out.stats.iterations > 0, "assignments evaluated");
        validate_bounded_staleness(&tiny, &out.schedule).unwrap();
    }

    #[test]
    fn thread_budget_preserves_every_schedule() {
        // The --threads knob must be pure wall-time: every parallel
        // optimizer returns the identical schedule under any budget.
        let (g, r) = small_world();
        let inst = Instance::new(&g, &r);
        for name in ["chitchat", "chitchat-stream", "parallelnosy"] {
            let base = by_name(name).unwrap().schedule(&inst);
            for threads in [1usize, 2, 5] {
                let out = by_name_with_threads(name, threads).unwrap().schedule(&inst);
                assert_eq!(
                    out.stats.cost, base.stats.cost,
                    "{name} at {threads} threads diverged"
                );
            }
        }
    }

    #[test]
    fn baselines_report_zero_algorithm_stats() {
        let (g, r) = small_world();
        let inst = Instance::new(&g, &r);
        let out = Hybrid.schedule(&inst);
        assert_eq!(out.stats.oracle_calls, 0);
        assert_eq!(out.stats.iterations, 0);
        assert_eq!(out.stats.hubs_applied, 0);
        assert!(out.stats.cost > 0.0);
    }

    #[test]
    #[should_panic(expected = "rates cover")]
    fn instance_rejects_uncovered_rates() {
        let g = erdos_renyi(10, 20, 1);
        let r = Rates::uniform(3, 1.0, 1.0);
        let _ = Instance::new(&g, &r);
    }
}
