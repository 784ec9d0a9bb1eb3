//! The load harness: drives an online runtime with an interleaved
//! share/query/follow/unfollow workload and reports throughput plus
//! latency percentiles.
//!
//! Two arrival disciplines:
//!
//! * **Closed-loop** — every client issues its next operation the moment
//!   the previous one completes. Measures peak sustainable throughput
//!   (the paper's §4.3 methodology).
//! * **Open-loop** — operations arrive on a Poisson process at a fixed
//!   aggregate rate, independent of completions. Latency is measured from
//!   the *scheduled* arrival to completion, so queueing delay under
//!   saturation is charged honestly (no coordinated omission).

use std::time::{Duration, Instant};

use piggyback_core::schedule::Schedule;
use piggyback_core::scheduler::Scheduler;
use piggyback_graph::CsrGraph;
use piggyback_obs::LatencyHistogram;
use piggyback_workload::{Op, OpTrace, Rates};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::ServeConfig;
use crate::ops::ServeReport;
use crate::runtime::ServeRuntime;

/// Arrival discipline of the generated load.
#[derive(Clone, Copy, Debug)]
pub enum Arrival {
    /// Back-to-back: next operation starts when the previous returns.
    Closed,
    /// Poisson arrivals at this aggregate rate, split across clients.
    Open {
        /// Target aggregate operations per second.
        ops_per_sec: f64,
    },
}

/// Load-generation configuration.
#[derive(Clone, Debug)]
pub struct HarnessConfig {
    /// Concurrent client threads.
    pub clients: usize,
    /// Wall-clock run length.
    pub duration: Duration,
    /// Fraction of operations that are follows/unfollows.
    pub churn_ratio: f64,
    /// Arrival discipline.
    pub arrival: Arrival,
    /// Trace seed (client `i` uses `seed + i`).
    pub seed: u64,
    /// Dump a live stats delta (instruments + shard counters + recent events)
    /// to stderr every interval. `None` (the default) disables the dumper
    /// thread entirely.
    pub stats_interval: Option<Duration>,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            clients: 4,
            duration: Duration::from_secs(1),
            churn_ratio: 0.02,
            arrival: Arrival::Closed,
            seed: 42,
            stats_interval: None,
        }
    }
}

/// Everything a harness run measured.
#[derive(Clone, Debug)]
pub struct HarnessReport {
    /// Operations completed (all classes).
    pub ops: u64,
    /// Share operations among them.
    pub shares: u64,
    /// Query operations among them.
    pub queries: u64,
    /// Follow operations issued (applied or rejected).
    pub follows: u64,
    /// Unfollow operations issued.
    pub unfollows: u64,
    /// Data-store messages sent.
    pub messages: u64,
    /// Wall-clock seconds the load ran.
    pub elapsed_secs: f64,
    /// Per-operation latency, merged across clients.
    pub latency: LatencyHistogram,
    /// The runtime's end-of-run report (churn, re-opts, validation).
    pub serve: ServeReport,
}

impl HarnessReport {
    /// Aggregate operations per second.
    pub fn throughput(&self) -> f64 {
        if self.elapsed_secs == 0.0 {
            0.0
        } else {
            self.ops as f64 / self.elapsed_secs
        }
    }

    /// Latency quantile in milliseconds.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        self.latency.quantile_ns(q) as f64 / 1e6
    }
}

/// Boots a runtime, drives it with `load`, shuts it down, and reports.
pub fn run_harness(
    graph: &CsrGraph,
    rates: &Rates,
    schedule: Schedule,
    reopt: Box<dyn Scheduler>,
    serve_config: ServeConfig,
    load: &HarnessConfig,
) -> HarnessReport {
    assert!(load.clients >= 1, "need at least one client");
    let runtime = ServeRuntime::start(graph.clone(), rates.clone(), schedule, reopt, serve_config);
    let start = Instant::now();
    let deadline = start + load.duration;
    // Every tally (counters + latency histogram) is thread-local and comes
    // back through the join handle — the load generators share no lock, so
    // recording a sample never serializes clients against each other.
    let mut total = ClientTally::default();
    std::thread::scope(|s| {
        if let Some(interval) = load.stats_interval {
            // Periodic observer: snapshot → delta → stderr. Borrows the
            // runtime immutably alongside the clients; exits at the
            // deadline like they do.
            let rt = &runtime;
            s.spawn(move || {
                let mut prev = rt.stats_snapshot();
                let mut next = start + interval;
                while next < deadline {
                    let now = Instant::now();
                    if now < next {
                        std::thread::sleep(next - now);
                    }
                    let snap = rt.stats_snapshot();
                    eprintln!(
                        "--- stats @ {:6.1}s (delta over {:.1}s) ---",
                        start.elapsed().as_secs_f64(),
                        interval.as_secs_f64()
                    );
                    eprint!(
                        "{}",
                        snap.delta_since(&prev).render(Some(interval.as_secs_f64()))
                    );
                    if let Some(m) = rt.metrics() {
                        for e in m.events().recent(5) {
                            eprintln!("  {e}");
                        }
                    }
                    prev = snap;
                    next += interval;
                }
            });
        }
        let handles: Vec<_> = (0..load.clients)
            .map(|i| {
                let mut client = runtime.client();
                let mut trace = OpTrace::new(rates, load.churn_ratio, load.seed + i as u64);
                let mut rng = StdRng::seed_from_u64(load.seed ^ (0xC0FFEE + i as u64));
                let arrival = load.arrival;
                let clients = load.clients;
                s.spawn(move || {
                    let mut tally = ClientTally::default();
                    match arrival {
                        Arrival::Closed => {
                            while Instant::now() < deadline {
                                let op = trace.next_op();
                                let t0 = Instant::now();
                                tally.count(op, client.apply_op(op));
                                tally.latency.record(t0.elapsed());
                            }
                        }
                        Arrival::Open { ops_per_sec } => {
                            let per_client = (ops_per_sec / clients as f64).max(1e-9);
                            let mut next = start;
                            loop {
                                // Exponential inter-arrival: Poisson process.
                                let u: f64 = rng.random_range(f64::EPSILON..1.0);
                                next += Duration::from_secs_f64(-u.ln() / per_client);
                                if next >= deadline {
                                    break;
                                }
                                let now = Instant::now();
                                if now < next {
                                    std::thread::sleep(next - now);
                                }
                                let op = trace.next_op();
                                tally.count(op, client.apply_op(op));
                                // Latency from the *scheduled* arrival: queueing
                                // under saturation is part of the number.
                                tally.latency.record(Instant::now() - next);
                            }
                        }
                    }
                    tally
                })
            })
            .collect();
        for h in handles {
            total.merge(&h.join().expect("load client panicked"));
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let serve = runtime.shutdown();
    HarnessReport {
        ops: total.ops,
        shares: total.shares,
        queries: total.queries,
        follows: total.follows,
        unfollows: total.unfollows,
        messages: total.messages,
        elapsed_secs: elapsed,
        latency: total.latency,
        serve,
    }
}

/// Per-client counters, merged after the run.
#[derive(Clone, Debug, Default)]
struct ClientTally {
    ops: u64,
    shares: u64,
    queries: u64,
    follows: u64,
    unfollows: u64,
    messages: u64,
    latency: LatencyHistogram,
}

impl ClientTally {
    fn count(&mut self, op: Op, messages: u64) {
        self.ops += 1;
        self.messages += messages;
        match op {
            Op::Share(_) => self.shares += 1,
            Op::Query(_) => self.queries += 1,
            Op::Follow(..) => self.follows += 1,
            Op::Unfollow(..) => self.unfollows += 1,
        }
    }

    fn merge(&mut self, other: &ClientTally) {
        self.ops += other.ops;
        self.shares += other.shares;
        self.queries += other.queries;
        self.follows += other.follows;
        self.unfollows += other.unfollows;
        self.messages += other.messages;
        self.latency.merge(&other.latency);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piggyback_core::scheduler::{Hybrid, Instance};
    use piggyback_graph::gen::{copying, CopyingConfig};

    fn world() -> (CsrGraph, Rates, Schedule) {
        let g = copying(CopyingConfig {
            nodes: 300,
            follows_per_node: 5,
            copy_prob: 0.7,
            seed: 2,
        });
        let r = Rates::log_degree(&g, 5.0);
        let s = Hybrid.schedule(&Instance::new(&g, &r)).schedule;
        (g, r, s)
    }

    #[test]
    fn closed_loop_sustains_interleaved_load() {
        let (g, r, s) = world();
        let report = run_harness(
            &g,
            &r,
            s,
            Box::new(Hybrid),
            ServeConfig {
                shards: 4,
                ..Default::default()
            },
            &HarnessConfig {
                clients: 2,
                duration: Duration::from_millis(250),
                churn_ratio: 0.05,
                arrival: Arrival::Closed,
                seed: 7,
                stats_interval: None,
            },
        );
        assert!(report.ops > 0, "no operations completed");
        assert_eq!(
            report.ops,
            report.shares + report.queries + report.follows + report.unfollows
        );
        assert!(report.follows > 0, "churn never sampled");
        assert_eq!(report.latency.count(), report.ops);
        assert!(report.quantile_ms(0.5) <= report.quantile_ms(0.99));
        assert!(report.serve.churn.zero_violations());
        assert!(report.throughput() > 0.0);
    }

    #[test]
    fn open_loop_respects_offered_rate() {
        let (g, r, s) = world();
        let report = run_harness(
            &g,
            &r,
            s,
            Box::new(Hybrid),
            ServeConfig {
                shards: 4,
                ..Default::default()
            },
            &HarnessConfig {
                clients: 2,
                duration: Duration::from_millis(500),
                churn_ratio: 0.0,
                arrival: Arrival::Open { ops_per_sec: 400.0 },
                seed: 11,
                stats_interval: None,
            },
        );
        // An uncontended in-process runtime easily sustains 400 op/s, so
        // completed ops track the offered load (within Poisson noise).
        let expected = 400.0 * 0.5;
        assert!(
            (report.ops as f64) > expected * 0.5 && (report.ops as f64) < expected * 1.5,
            "open-loop ops {} nowhere near offered {}",
            report.ops,
            expected
        );
        assert!(report.serve.churn.zero_violations());
    }
}
