//! The closed-loop load generator and the checks it makes while running.
//!
//! The callers of `ServeClient` are front-end threads that wait for the
//! reply, so the load is a closed loop: each client thread sends its next
//! operation when the previous one has returned. Operations come from
//! `OpTrace`, generated one slice ahead so the generator never runs inside
//! a timed region.

use std::collections::{HashMap, HashSet};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use piggyback_graph::{CsrGraph, NodeId};
use piggyback_serve::{ServeClient, ServeRuntime};
use piggyback_store::EventTuple;
use piggyback_workload::{Op, OpTrace, Rates};

use crate::stats::{median, per_slice_percentile, pooled_percentile, sample_count};
use crate::world::TOP_K;

/// Operations per client per slice. Percentiles are taken per slice; at
/// the thinnest mix (17% shares) a slice still holds ~3 400 samples of
/// either request type, 34 beyond its p99. A slice lasts 0.1 to 0.2 s,
/// shorter than the stalls a shared machine inflicts.
pub const SLICE_OPS: usize = 20_000;
/// Operations per client before the clock starts: views fill, buffers and
/// pools reach their steady size.
pub const WARMUP_OPS: usize = 100_000;
/// Every this-many-th query of a client has its result checked.
pub const CHECK_EVERY: u64 = 64;

/// The benchmark's own picture of who follows whom: the seeded graph plus
/// every follow and unfollow whose acknowledgement came back `true`.
///
/// `u -> v` in the graph means `v` subscribes to `u`, so the producers a
/// user follows are its in-neighbours.
pub struct EdgeModel<'g> {
    graph: &'g CsrGraph,
    /// Follows applied on top of the graph, by consumer.
    added: HashMap<NodeId, Vec<NodeId>>,
    /// Graph edges `(producer, consumer)` currently unfollowed.
    removed: HashSet<(NodeId, NodeId)>,
    /// Every producer a follow was ever *sent* for, by consumer. Views keep
    /// the events they hold when an edge goes away, and a follow can take
    /// effect before its acknowledgement is seen, so what a feed may
    /// legally contain is judged against this ever-growing set.
    ever: HashMap<NodeId, Vec<NodeId>>,
}

impl<'g> EdgeModel<'g> {
    pub fn new(graph: &'g CsrGraph) -> Self {
        EdgeModel {
            graph,
            added: HashMap::new(),
            removed: HashSet::new(),
            ever: HashMap::new(),
        }
    }

    /// Records that `follow(u, v)` is about to be sent.
    pub fn note_sent(&mut self, u: NodeId, v: NodeId) {
        let e = self.ever.entry(v).or_default();
        if !e.contains(&u) {
            e.push(u);
        }
    }

    /// Applies an acknowledged follow (`add`) or unfollow of `u -> v`.
    pub fn apply(&mut self, add: bool, u: NodeId, v: NodeId) {
        if add {
            if !self.removed.remove(&(u, v)) {
                self.added.entry(v).or_default().push(u);
            }
        } else if let Some(pos) = self
            .added
            .get(&v)
            .and_then(|a| a.iter().position(|&x| x == u))
        {
            self.added.get_mut(&v).expect("just found").swap_remove(pos);
        } else {
            self.removed.insert((u, v));
        }
    }

    /// The producers `v` follows right now.
    pub fn followees(&self, v: NodeId) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .graph
            .in_neighbors(v)
            .iter()
            .copied()
            .filter(|&u| !self.removed.contains(&(u, v)))
            .collect();
        if let Some(a) = self.added.get(&v) {
            out.extend_from_slice(a);
        }
        out
    }

    fn ever_followed(&self, producer: NodeId, consumer: NodeId) -> bool {
        (consumer as usize) < self.graph.node_count() && self.graph.has_edge(producer, consumer)
            || self
                .ever
                .get(&consumer)
                .is_some_and(|e| e.contains(&producer))
    }

    /// Whether an event by `producer` may appear in `v`'s feed: `v`'s own,
    /// a followee's, or — because a pull from a hub's view returns whatever
    /// was pushed there — a followee's followee's.
    fn may_appear(&self, producer: NodeId, v: NodeId) -> bool {
        if producer == v || self.ever_followed(producer, v) {
            return true;
        }
        let via = |w: &NodeId| self.ever_followed(producer, *w);
        self.graph.in_neighbors(v).iter().any(via)
            || self.ever.get(&v).is_some_and(|e| e.iter().any(via))
    }

    /// Checks one feed: at most `TOP_K` events, strictly newest first, no
    /// `(user, event_id)` twice, every producer one that may appear.
    pub fn check_feed(&self, v: NodeId, events: &[EventTuple]) -> Result<(), String> {
        if events.len() > TOP_K {
            return Err(format!("feed of {v} has {} events", events.len()));
        }
        for (i, e) in events.iter().enumerate() {
            if i > 0 && events[i - 1] <= *e {
                return Err(format!("feed of {v} is not strictly newest-first at {i}"));
            }
            if events[..i]
                .iter()
                .any(|p| (p.user, p.event_id) == (e.user, e.event_id))
            {
                return Err(format!(
                    "feed of {v} repeats event {} of {}",
                    e.event_id, e.user
                ));
            }
            if !self.may_appear(e.user, v) {
                return Err(format!("feed of {v} holds an event of stranger {}", e.user));
            }
        }
        Ok(())
    }
}

/// Counts of checked operations; a violation is a failed operation.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    pub fn record(&mut self, outcome: Result<(), String>) {
        if let Err(why) = outcome {
            self.fail(why);
        }
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// What one client thread measured.
#[derive(Default)]
struct ClientRun {
    /// Raw latency samples in nanoseconds, one inner `Vec` per slice.
    share: Vec<Vec<u32>>,
    query: Vec<Vec<u32>>,
    follow: Vec<Vec<u32>>,
    /// Operations per second of each slice.
    slice_rates: Vec<f64>,
    /// Store messages sent by shares and queries.
    messages: u64,
    /// Shares plus queries.
    requests: u64,
    tally: Tally,
    /// Time spent in `OpTrace::next_op`, and the operations it produced.
    gen_wall: Duration,
    gen_ops: u64,
}

fn ns(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// One client's operation stream and bookkeeping.
struct Driver<'a, 'g> {
    client: ServeClient,
    trace: OpTrace,
    model: &'a Mutex<EdgeModel<'g>>,
    queries_seen: u64,
    run: ClientRun,
}

impl Driver<'_, '_> {
    fn generate(&mut self, count: usize, ops: &mut Vec<Op>) {
        ops.clear();
        let t = Instant::now();
        ops.extend((0..count).map(|_| self.trace.next_op()));
        self.run.gen_wall += t.elapsed();
        self.run.gen_ops += count as u64;
    }

    /// Runs `ops` back to back. Latency is the wall of the `ServeClient`
    /// call alone; model upkeep and feed checks fall between the stamps.
    fn execute(&mut self, ops: &[Op], record: bool) -> Duration {
        let (mut share, mut query, mut follow) = (Vec::new(), Vec::new(), Vec::new());
        if record {
            share.reserve(ops.len());
            query.reserve(ops.len());
        }
        let start = Instant::now();
        let mut t0 = start;
        for &op in ops {
            match op {
                Op::Share(u) => {
                    let m = self.client.share(u);
                    let t1 = Instant::now();
                    if record {
                        share.push(ns(t1 - t0));
                        self.run.messages += m;
                    }
                    t0 = t1;
                }
                Op::Query(u) => {
                    let (events, m) = self.client.query(u);
                    let t1 = Instant::now();
                    if record {
                        query.push(ns(t1 - t0));
                        self.run.messages += m;
                    }
                    t0 = t1;
                    self.queries_seen += 1;
                    if self.queries_seen.is_multiple_of(CHECK_EVERY) {
                        let verdict = self
                            .model
                            .lock()
                            .expect("model lock")
                            .check_feed(u, &events);
                        self.run.tally.record(verdict);
                        t0 = Instant::now();
                    }
                }
                Op::Follow(u, v) | Op::Unfollow(u, v) => {
                    let add = matches!(op, Op::Follow(..));
                    if add {
                        self.model.lock().expect("model lock").note_sent(u, v);
                        t0 = Instant::now();
                    }
                    let applied = if add {
                        self.client.follow(u, v)
                    } else {
                        self.client.unfollow(u, v)
                    };
                    let t1 = Instant::now();
                    if record {
                        follow.push(ns(t1 - t0));
                    }
                    if applied {
                        self.model.lock().expect("model lock").apply(add, u, v);
                    }
                    t0 = Instant::now();
                }
            }
        }
        let wall = start.elapsed();
        if record {
            self.run.tally.attempted += ops.len() as u64;
            self.run.requests += (share.len() + query.len()) as u64;
            self.run
                .slice_rates
                .push(ops.len() as f64 / wall.as_secs_f64());
            self.run.share.push(share);
            self.run.query.push(query);
            self.run.follow.push(follow);
        }
        wall
    }
}

/// Load of one phase.
pub struct LoadPlan {
    pub clients: usize,
    /// Client 0's share of follow/unfollow operations.
    pub churn_ratio: f64,
    /// Untimed operations per client first.
    pub warmup_ops: usize,
    /// Each client runs slices until its timed slices add up to this.
    pub window: Duration,
    pub seed: u64,
}

/// Drives `plan.clients` closed-loop client threads against `runtime` and
/// combines what they measured. Clients start together behind a barrier;
/// each keeps its own op stream (seeded from `plan.seed` and its index).
pub fn run_load(
    runtime: &ServeRuntime,
    rates: &Rates,
    model: &Mutex<EdgeModel<'_>>,
    plan: &LoadPlan,
) -> LoadSummary {
    let barrier = Barrier::new(plan.clients);
    let runs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..plan.clients)
            .map(|c| {
                let churn = if c == 0 { plan.churn_ratio } else { 0.0 };
                let seed = plan.seed ^ (c as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let mut driver = Driver {
                    client: runtime.client(),
                    trace: OpTrace::new(rates, churn, seed),
                    model,
                    queries_seen: 0,
                    run: ClientRun::default(),
                };
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut ops = Vec::with_capacity(SLICE_OPS.max(plan.warmup_ops));
                    driver.generate(plan.warmup_ops, &mut ops);
                    driver.execute(&ops, false);
                    barrier.wait();
                    let mut timed = Duration::ZERO;
                    while timed < plan.window {
                        driver.generate(SLICE_OPS, &mut ops);
                        timed += driver.execute(&ops, true);
                    }
                    driver.run
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    summarize(runs)
}

/// One metric of a load phase: its value in every slice (all clients'
/// slices, client after client) and the one number reported for it.
#[derive(Clone, Debug, Default)]
pub struct Sliced {
    pub per_slice: Vec<f64>,
    /// The median slice; when some slice is too thin for the percentile,
    /// the percentile of all samples pooled. NaN without samples.
    pub value: f64,
}

impl Sliced {
    /// Percentile `q` of nanosecond samples kept per slice.
    fn percentile(slices: &mut [Vec<u32>], q: f64) -> Sliced {
        match per_slice_percentile(slices, q) {
            Some(per_slice) => Sliced {
                value: median(&per_slice).unwrap_or(f64::NAN),
                per_slice,
            },
            None => Sliced {
                per_slice: Vec::new(),
                value: pooled_percentile(slices, q).unwrap_or(f64::NAN),
            },
        }
    }
}

/// The end-to-end numbers of a load phase, clients combined.
pub struct LoadSummary {
    /// Sum over clients of each client's median slice rate.
    pub ops_per_s: f64,
    /// Every client's slice rates, client after client.
    pub slice_rates: Vec<f64>,
    pub msgs_per_op: f64,
    pub share_p50_ns: Sliced,
    pub share_p99_ns: Sliced,
    pub query_p50_ns: Sliced,
    pub query_p99_ns: Sliced,
    pub follow_p50_ns: Sliced,
    pub follow_p99_ns: Sliced,
    pub follow_p999_ns: f64,
    pub follow_max_ns: f64,
    pub share_samples: usize,
    pub query_samples: usize,
    pub follow_samples: usize,
    pub slices: usize,
    pub messages: u64,
    pub requests: u64,
    pub trace_ns_per_op: f64,
    pub tally: Tally,
}

/// Combines the clients of one phase. Slices of all clients form one pool
/// per operation type; each percentile is the median over that pool.
fn summarize(runs: Vec<ClientRun>) -> LoadSummary {
    let mut share = Vec::new();
    let mut query = Vec::new();
    let mut follow = Vec::new();
    let mut tally = Tally::default();
    let (mut ops_per_s, mut messages, mut requests) = (0.0, 0, 0);
    let (mut gen_wall, mut gen_ops) = (Duration::ZERO, 0);
    let mut slice_rates = Vec::new();
    for run in runs {
        ops_per_s += median(&run.slice_rates).unwrap_or(0.0);
        slice_rates.extend_from_slice(&run.slice_rates);
        messages += run.messages;
        requests += run.requests;
        gen_wall += run.gen_wall;
        gen_ops += run.gen_ops;
        tally.absorb(run.tally);
        share.extend(run.share);
        query.extend(run.query);
        follow.extend(run.follow);
    }
    let follow_max_ns = follow
        .iter()
        .flatten()
        .max()
        .map_or(f64::NAN, |&m| f64::from(m));
    LoadSummary {
        ops_per_s,
        slices: slice_rates.len(),
        slice_rates,
        msgs_per_op: messages as f64 / requests as f64,
        share_samples: sample_count(&share),
        query_samples: sample_count(&query),
        follow_samples: sample_count(&follow),
        share_p50_ns: Sliced::percentile(&mut share, 0.5),
        share_p99_ns: Sliced::percentile(&mut share, 0.99),
        query_p50_ns: Sliced::percentile(&mut query, 0.5),
        query_p99_ns: Sliced::percentile(&mut query, 0.99),
        follow_p50_ns: Sliced::percentile(&mut follow, 0.5),
        follow_p99_ns: Sliced::percentile(&mut follow, 0.99),
        follow_p999_ns: pooled_percentile(&follow, 0.999).unwrap_or(f64::NAN),
        follow_max_ns,
        messages,
        requests,
        trace_ns_per_op: gen_wall.as_nanos() as f64 / gen_ops.max(1) as f64,
        tally,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piggyback_graph::GraphBuilder;

    fn ev(user: NodeId, id: u64, ts: u64) -> EventTuple {
        EventTuple::new(user, id, ts)
    }

    /// 0 -> 1 -> 2: 1 follows 0, 2 follows 1.
    fn chain() -> CsrGraph {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.build()
    }

    #[test]
    fn model_tracks_acknowledged_churn() {
        let g = chain();
        let mut m = EdgeModel::new(&g);
        assert_eq!(m.followees(2), vec![1]);
        m.apply(true, 0, 2);
        assert_eq!(m.followees(2), vec![1, 0]);
        m.apply(false, 1, 2);
        assert_eq!(m.followees(2), vec![0]);
        m.apply(true, 1, 2);
        m.apply(false, 0, 2);
        assert_eq!(m.followees(2), vec![1]);
    }

    #[test]
    fn feed_check_accepts_own_followee_and_hub_events() {
        let g = chain();
        let m = EdgeModel::new(&g);
        // 2 sees its own event, followee 1's, and 0's through hub 1.
        let feed = [ev(2, 3, 30), ev(1, 2, 20), ev(0, 1, 10)];
        assert_eq!(m.check_feed(2, &feed), Ok(()));
    }

    #[test]
    fn feed_check_rejects_each_violation() {
        let g = chain();
        let mut m = EdgeModel::new(&g);
        let unordered = [ev(1, 1, 10), ev(1, 2, 20)];
        assert!(m.check_feed(2, &unordered).unwrap_err().contains("newest"));
        let repeated = [ev(1, 1, 20), ev(1, 1, 10)];
        assert!(m.check_feed(2, &repeated).unwrap_err().contains("repeats"));
        // 0 follows nobody, so 2's events are a stranger's there ...
        let strange = [ev(2, 1, 10)];
        assert!(m.check_feed(0, &strange).unwrap_err().contains("stranger"));
        // ... until a follow has been sent.
        m.note_sent(2, 0);
        assert_eq!(m.check_feed(0, &strange), Ok(()));
        let long: Vec<EventTuple> = (0..=TOP_K as u64).rev().map(|i| ev(1, i, i)).collect();
        assert!(m.check_feed(2, &long).unwrap_err().contains("events"));
    }
}
