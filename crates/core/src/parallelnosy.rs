//! PARALLELNOSY (§3.2, Algorithm 2): the scalable parallel heuristic.
//!
//! Each iteration examines, for every edge `w → y` not yet covered, the
//! single-sink hub-graph `G(X, w, y)` whose producers `X` are common
//! predecessors of `w` and `y` with piggybackable cross edges. Phases:
//!
//! 1. **Candidate selection** (parallel per edge): a hub-graph is a
//!    candidate if its saved cost exceeds its positive cost relative to the
//!    hybrid baseline.
//! 2. **Edge locking** (parallel per edge): conflicting candidates contend
//!    for the edges they would modify; the highest-gain candidate wins
//!    (ties broken by the lower hub-edge id, making runs deterministic).
//! 3. **Scheduling decision** (parallel per candidate): fully-locked
//!    candidates apply; partially-locked ones retry with only the producers
//!    whose two edges they locked, if that is still profitable.
//!
//! Iterations repeat until no candidate applies. Remaining unscheduled
//! edges are served with the hybrid policy, so the result is always
//! feasible and never worse than FEEDINGFRENZY under the cost model.
//!
//! The paper runs these phases as Hadoop MapReduce jobs. Here they are one
//! in-memory execution whose three phases are those jobs: phase 1 is the
//! per-edge map that emits candidates, phase 2 the per-edge reduce that
//! arbitrates lock requests, and phase 3 the per-hub reduce that makes the
//! scheduling decision.
//!
//! Phase 1 runs on the optimizers' one [`FanoutPool`]: workers are spawned
//! once per run and survive every iteration. The pool returns candidates
//! in edge order whichever worker built which chunk, so the candidate list
//! — and with it every lock decision and the whole `cost_history` — is
//! identical for any thread count and any chunking. Phases 2 and 3 are
//! cheap and stay on the coordinating thread.

use parking_lot::RwLock;
use piggyback_graph::{intersect_sorted, CsrGraph, EdgeId, NodeId, INVALID_EDGE};
use piggyback_workload::{EdgeCosts, Rates};

use crate::fanout::{FanoutPool, FanoutTelemetry};
use crate::schedule::Schedule;

/// Configuration for PARALLELNOSY.
#[derive(Clone, Copy, Debug)]
pub struct ParallelNosy {
    /// Iteration cap (the algorithm usually converges much earlier; the
    /// paper's curves flatten within ~10 iterations).
    pub max_iterations: usize,
    /// Upper bound `b` on cross edges per hub-graph (§3.2; 100 000 in the
    /// paper's Twitter runs). Bounds memory on very dense hubs.
    pub cross_cap: usize,
    /// Worker threads for the candidate-selection phase. `0` means one per
    /// available core. The schedule is identical for every value — threads
    /// only change wall time.
    pub threads: usize,
    /// Lock every hub-graph edge (the literal reading of §3.2) instead of
    /// only the edges a candidate mutates. Kept as an ablation knob: it
    /// produces the same final feasibility but serializes hubs that share
    /// already-paid legs, roughly doubling iterations to convergence.
    pub conservative_locks: bool,
}

impl Default for ParallelNosy {
    fn default() -> Self {
        ParallelNosy {
            max_iterations: 30,
            cross_cap: 100_000,
            threads: 0,
            conservative_locks: false,
        }
    }
}

/// Output of a PARALLELNOSY run.
#[derive(Clone, Debug)]
pub struct ParallelNosyResult {
    /// Final feasible schedule (unscheduled edges filled with hybrid).
    pub schedule: Schedule,
    /// Iterations executed before convergence (or the cap).
    pub iterations: usize,
    /// `cost_history[i]` = total predicted cost after `i` iterations, where
    /// unscheduled edges pay their hybrid cost. `cost_history[0]` is the
    /// FEEDINGFRENZY baseline cost — exactly the series of Figure 4.
    pub cost_history: Vec<f64>,
    /// Total hub-graphs applied across all iterations.
    pub hubs_applied: usize,
    /// Per-thread busy-time accounting for the candidate-selection fan-out.
    pub telemetry: FanoutTelemetry,
}

/// A candidate hub-graph `G(X, w, y)` for one edge `w → y`.
#[derive(Clone, Debug)]
struct Candidate {
    hub_edge: EdgeId,
    w: NodeId,
    y: NodeId,
    /// Producer legs: (x, edge x→w, edge x→y).
    xs: Vec<(NodeId, EdgeId, EdgeId)>,
    gain: f64,
}

impl Candidate {
    /// The hub-graph edges this candidate would *mutate*, in lock-request
    /// order: cross edges always (they move into `C`), the pull leg unless
    /// it is already in `L`, and each push leg unless it is already in `H`.
    ///
    /// Edges the candidate merely *relies on* (paid legs) need no lock:
    /// within an iteration the schedule only gains bits, a paid push can
    /// never be covered (covering requires `∉ H ∪ L`), so no concurrent
    /// decision can invalidate the zero-cost assumption. Locking them
    /// anyway — the conservative reading of §3.2 — only serializes hubs
    /// that share producers and slows convergence (see the `ablations`
    /// bench for the measured difference).
    fn lock_edges<'a>(
        &'a self,
        sched: &'a Schedule,
        conservative: bool,
    ) -> impl Iterator<Item = EdgeId> + 'a {
        let hub = (conservative || !sched.is_pull(self.hub_edge)).then_some(self.hub_edge);
        hub.into_iter()
            .chain(self.xs.iter().flat_map(move |&(_, xw, xy)| {
                let push = (conservative || !sched.is_push(xw)).then_some(xw);
                push.into_iter().chain(std::iter::once(xy))
            }))
    }
}

/// Positive cost of scheduling push leg `x → w` over edge `e` (§3.2's
/// `cX`). The hybrid cost comes from the precomputed per-edge cache.
#[inline]
fn push_leg_cost(rates: &Rates, costs: &EdgeCosts, sched: &Schedule, x: NodeId, e: EdgeId) -> f64 {
    if sched.is_push(e) {
        0.0
    } else if sched.is_pull(e) {
        rates.rp(x)
    } else {
        rates.rp(x) - costs.hybrid_cost(e)
    }
}

/// Positive cost of scheduling pull leg `w → y` over edge `e` (specular to
/// `cX`).
#[inline]
fn pull_leg_cost(rates: &Rates, costs: &EdgeCosts, sched: &Schedule, y: NodeId, e: EdgeId) -> f64 {
    if sched.is_pull(e) {
        0.0
    } else if sched.is_push(e) {
        rates.rc(y)
    } else {
        rates.rc(y) - costs.hybrid_cost(e)
    }
}

/// Phase 1 for a single edge `w → y`: build the hub-graph and return it if
/// profitable. `sched` is the frozen schedule of the iteration start.
fn build_candidate(
    g: &CsrGraph,
    rates: &Rates,
    costs: &EdgeCosts,
    sched: &Schedule,
    hub_edge: EdgeId,
    cross_cap: usize,
) -> Option<Candidate> {
    if sched.is_covered(hub_edge) {
        return None;
    }
    let (w, y) = g.edge_endpoints(hub_edge);
    // X = common predecessors of w and y, subject to Algorithm 2 line 2:
    //   x→w ∈ E \ C   and   x→y ∈ E \ (C ∪ H ∪ L).
    // Both in-neighbor slices are sorted by source: merge-intersect them,
    // recovering the leg edge ids from the slice positions.
    let mut xs: Vec<(NodeId, EdgeId, EdgeId)> = Vec::new();
    let mut saved = 0.0;
    let in_w = g.in_neighbors(w);
    intersect_sorted(in_w, g.in_neighbors(y), |iw, iy| {
        let x = in_w[iw];
        let xw_e = g.in_edge_id_at(w, iw);
        let xy_e = g.in_edge_id_at(y, iy);
        if x != y
            && !sched.is_covered(xw_e)
            && !sched.is_covered(xy_e)
            && !sched.is_push(xy_e)
            && !sched.is_pull(xy_e)
        {
            xs.push((x, xw_e, xy_e));
            saved += costs.hybrid_cost(xy_e);
            if xs.len() >= cross_cap {
                return false;
            }
        }
        true
    });
    if xs.is_empty() {
        return None;
    }
    let mut cost = pull_leg_cost(rates, costs, sched, y, hub_edge);
    for &(x, xw_e, _) in &xs {
        cost += push_leg_cost(rates, costs, sched, x, xw_e);
    }
    let gain = saved - cost;
    if gain > 1e-12 {
        Some(Candidate {
            hub_edge,
            w,
            y,
            xs,
            gain,
        })
    } else {
        None
    }
}

/// Lock table: per edge, the winning `(gain, hub_edge)` request. Higher
/// gain wins; ties go to the lower hub-edge id.
struct LockTable {
    gain: Vec<f64>,
    owner: Vec<EdgeId>,
}

impl LockTable {
    fn new(m: usize) -> Self {
        LockTable {
            gain: vec![f64::NEG_INFINITY; m],
            owner: vec![INVALID_EDGE; m],
        }
    }

    #[inline]
    fn request(&mut self, edge: EdgeId, gain: f64, hub: EdgeId) {
        let i = edge as usize;
        if gain > self.gain[i] || (gain == self.gain[i] && hub < self.owner[i]) {
            self.gain[i] = gain;
            self.owner[i] = hub;
        }
    }

    #[inline]
    fn granted_to(&self, edge: EdgeId, hub: EdgeId) -> bool {
        self.owner[edge as usize] == hub
    }
}

/// One scheduling decision produced by phase 3.
struct Decision {
    hub_edge: EdgeId,
    w: NodeId,
    /// Producer legs to apply: (edge x→w, edge x→y).
    legs: Vec<(EdgeId, EdgeId)>,
}

/// Phase 3 for one candidate: keep only fully-locked producers, re-check
/// profitability on the reduced hub-graph (Algorithm 2, lines 16–22).
fn decide(
    rates: &Rates,
    costs: &EdgeCosts,
    sched: &Schedule,
    cand: &Candidate,
    conservative: bool,
    granted: impl Fn(EdgeId) -> bool,
) -> Option<Decision> {
    // An edge the candidate does not mutate needs no lock (see
    // `Candidate::lock_edges`); treat it as implicitly granted — unless the
    // conservative ablation mode locked it anyway.
    let held = |e: EdgeId, needs_lock: bool| (!needs_lock && !conservative) || granted(e);
    if !held(cand.hub_edge, !sched.is_pull(cand.hub_edge)) {
        // Without the pull leg the hub cannot serve anything.
        return None;
    }
    let mut legs = Vec::with_capacity(cand.xs.len());
    let mut saved = 0.0;
    let mut cost = 0.0;
    for &(x, xw_e, xy_e) in &cand.xs {
        if held(xw_e, !sched.is_push(xw_e)) && granted(xy_e) {
            legs.push((xw_e, xy_e));
            saved += costs.hybrid_cost(xy_e);
            cost += push_leg_cost(rates, costs, sched, x, xw_e);
        }
    }
    if legs.is_empty() {
        return None;
    }
    cost += pull_leg_cost(rates, costs, sched, cand.y, cand.hub_edge);
    if saved - cost > 1e-12 {
        Some(Decision {
            hub_edge: cand.hub_edge,
            w: cand.w,
            legs,
        })
    } else {
        None
    }
}

/// Applies phase-3 decisions; returns the number of hub-graphs applied.
fn apply_decisions(sched: &mut Schedule, decisions: &[Decision]) -> usize {
    let mut applied = 0usize;
    for d in decisions {
        if !sched.is_pull(d.hub_edge) {
            sched.set_pull(d.hub_edge);
        }
        for &(xw_e, xy_e) in &d.legs {
            if !sched.is_push(xw_e) {
                sched.set_push(xw_e);
            }
            sched.set_covered(xy_e, d.w);
        }
        applied += 1;
    }
    applied
}

/// Cost of a (possibly partial) schedule where unscheduled edges pay the
/// hybrid cost — the series plotted in Figure 4.
pub fn partial_cost(g: &CsrGraph, rates: &Rates, sched: &Schedule) -> f64 {
    partial_cost_cached(g, rates, &EdgeCosts::hybrid(g, rates), sched)
}

/// [`partial_cost`] with the per-edge hybrid costs already built — what
/// the iteration loop calls once per iteration.
fn partial_cost_cached(g: &CsrGraph, rates: &Rates, costs: &EdgeCosts, sched: &Schedule) -> f64 {
    let mut cost = 0.0;
    for (e, u, v) in g.edges() {
        if sched.is_push(e) {
            cost += rates.rp(u);
        }
        if sched.is_pull(e) {
            cost += rates.rc(v);
        }
        if !sched.is_push(e) && !sched.is_pull(e) && !sched.is_covered(e) {
            cost += costs.hybrid_cost(e);
        }
    }
    cost
}

/// Fills every unscheduled edge with its hybrid (cheaper-side) assignment.
fn finalize(g: &CsrGraph, rates: &Rates, sched: &mut Schedule) {
    for (e, u, v) in g.edges() {
        if !sched.is_served(e) {
            if rates.rp(u) <= rates.rc(v) {
                sched.set_push(e);
            } else {
                sched.set_pull(e);
            }
        }
    }
}

impl ParallelNosy {
    /// Runs PARALLELNOSY: phase 1 fans out over the pool's workers, phases
    /// 2–3 and the apply run on the coordinator. Deterministic for any
    /// [`ParallelNosy::threads`] value.
    pub fn run(&self, g: &CsrGraph, rates: &Rates) -> ParallelNosyResult {
        let costs = EdgeCosts::hybrid(g, rates);
        let costs = &costs;
        let cross_cap = self.cross_cap;
        let sched_lock = RwLock::new(Schedule::for_graph(g));
        let sl = &sched_lock;
        // Each chunk re-reads the frozen schedule through the lock; the
        // coordinator writes only between fan-outs.
        let ((iterations, cost_history, hubs_applied), telemetry) = FanoutPool::scope(
            self.threads,
            || {
                move |edges: &[EdgeId]| {
                    let sched = sl.read();
                    edges
                        .iter()
                        .filter_map(|&e| build_candidate(g, rates, costs, &sched, e, cross_cap))
                        .collect()
                }
            },
            |pool| self.iterate(g, rates, costs, sl, pool),
        );

        ParallelNosyResult {
            schedule: sched_lock.into_inner(),
            iterations,
            cost_history,
            hubs_applied,
            telemetry,
        }
    }

    /// The iteration loop. Phase 1 maps every edge through `pool` against
    /// the schedule currently in `sched_lock` (no guard is held while it
    /// runs — each chunk takes its own read lock); phases 2–3 and the apply
    /// run under the coordinator's write lock. Returns
    /// `(iterations, cost_history, hubs_applied)`.
    fn iterate(
        &self,
        g: &CsrGraph,
        rates: &Rates,
        costs: &EdgeCosts,
        sched_lock: &RwLock<Schedule>,
        pool: &FanoutPool<EdgeId, Candidate>,
    ) -> (usize, Vec<f64>, usize) {
        let m = g.edge_count();
        let edges: Vec<EdgeId> = (0..m as EdgeId).collect();
        let mut history = vec![partial_cost_cached(g, rates, costs, &sched_lock.read())];
        let mut hubs_applied = 0usize;
        let mut iterations = 0usize;

        for _ in 0..self.max_iterations {
            // Phase 1: candidate selection, in edge order.
            let cands = pool.map(&edges);

            let applied = {
                let mut sched = sched_lock.write();

                // Phase 2: lock arbitration.
                let mut locks = LockTable::new(m);
                for c in &cands {
                    for e in c.lock_edges(&sched, self.conservative_locks) {
                        locks.request(e, c.gain, c.hub_edge);
                    }
                }

                // Phase 3: scheduling decisions.
                let decisions: Vec<Decision> = cands
                    .iter()
                    .filter_map(|c| {
                        decide(rates, costs, &sched, c, self.conservative_locks, |e| {
                            locks.granted_to(e, c.hub_edge)
                        })
                    })
                    .collect();

                apply_decisions(&mut sched, &decisions)
            };
            iterations += 1;
            hubs_applied += applied;
            history.push(partial_cost_cached(g, rates, costs, &sched_lock.read()));
            if applied == 0 {
                break;
            }
        }

        finalize(g, rates, &mut sched_lock.write());
        (iterations, history, hubs_applied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::hybrid_schedule;
    use crate::cost::{predicted_improvement, schedule_cost};
    use crate::validate::validate_bounded_staleness;
    use piggyback_graph::gen::{copying, erdos_renyi, CopyingConfig};
    use piggyback_graph::GraphBuilder;

    fn clustered(n: usize, seed: u64) -> CsrGraph {
        copying(CopyingConfig {
            nodes: n,
            follows_per_node: 6,
            copy_prob: 0.8,
            seed,
        })
    }

    #[test]
    fn produces_feasible_schedules() {
        let g = clustered(500, 1);
        let r = Rates::log_degree(&g, 5.0);
        let res = ParallelNosy::default().run(&g, &r);
        validate_bounded_staleness(&g, &res.schedule).unwrap();
        assert_eq!(res.schedule.unassigned_count(), 0);
    }

    #[test]
    fn never_worse_than_hybrid() {
        for seed in 0..3 {
            let g = erdos_renyi(150, 900, seed);
            let r = Rates::log_degree(&g, 5.0);
            let res = ParallelNosy::default().run(&g, &r);
            let ff = hybrid_schedule(&g, &r);
            let imp = predicted_improvement(&g, &r, &res.schedule, &ff);
            assert!(imp >= 1.0 - 1e-9, "seed {seed}: improvement {imp}");
        }
    }

    #[test]
    fn improves_on_clustered_graphs() {
        let g = clustered(800, 3);
        let r = Rates::log_degree(&g, 5.0);
        let res = ParallelNosy::default().run(&g, &r);
        let ff = hybrid_schedule(&g, &r);
        let imp = predicted_improvement(&g, &r, &res.schedule, &ff);
        assert!(imp > 1.1, "expected piggybacking gains, got {imp}");
        assert!(res.hubs_applied > 0);
    }

    #[test]
    fn cost_history_is_monotone_and_consistent() {
        let g = clustered(400, 7);
        let r = Rates::log_degree(&g, 5.0);
        let res = ParallelNosy::default().run(&g, &r);
        // History starts at the hybrid cost.
        let ff = hybrid_schedule(&g, &r);
        assert!((res.cost_history[0] - schedule_cost(&g, &r, &ff)).abs() < 1e-6);
        // Monotone non-increasing.
        for w in res.cost_history.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "cost went up: {w:?}");
        }
        // Final history entry equals the final schedule's cost.
        let last = *res.cost_history.last().unwrap();
        assert!((last - schedule_cost(&g, &r, &res.schedule)).abs() < 1e-6);
    }

    #[test]
    fn converges_before_a_generous_cap() {
        // Convergence (no candidate applies) takes tens of iterations on
        // clustered graphs — locks serialize hubs that share producers,
        // matching the long plateau of the paper's Figure 4.
        let g = clustered(300, 9);
        let r = Rates::log_degree(&g, 5.0);
        let pn = ParallelNosy {
            max_iterations: 500,
            ..ParallelNosy::default()
        };
        let res = pn.run(&g, &r);
        assert!(res.iterations < 500, "did not converge: {}", res.iterations);
        // The final iteration applied nothing (fixed point).
        let h = &res.cost_history;
        assert!((h[h.len() - 1] - h[h.len() - 2]).abs() < 1e-12);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let g = clustered(300, 13);
        let r = Rates::log_degree(&g, 5.0);
        let run = |threads| {
            ParallelNosy {
                threads,
                ..ParallelNosy::default()
            }
            .run(&g, &r)
            .cost_history
        };
        let h1 = run(1);
        assert_eq!(h1, run(4));
        assert_eq!(h1, run(8));
    }

    #[test]
    fn fig2_triangle_with_favorable_rates() {
        // rp(0) small, rc(2) small relative to the hybrid edge costs so the
        // hub wins: need rp(0) + rc(2) < c*(0→1)+c*(1→2)+c*(0→2).
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(0, 2);
        let g = b.build();
        let r = Rates::from_vecs(vec![1.0, 5.0, 5.0], vec![5.0, 5.0, 1.8]);
        // hybrid: min(1,5) + min(5,1.8) + min(1,1.8) = 1 + 1.8 + 1 = 3.8
        // hub via 1: push 0→1 (1.0) + pull 1→2 (1.8) = 2.8, covers all.
        let res = ParallelNosy::default().run(&g, &r);
        validate_bounded_staleness(&g, &res.schedule).unwrap();
        let c = schedule_cost(&g, &r, &res.schedule);
        assert!((c - 2.8).abs() < 1e-9, "expected hub schedule, cost {c}");
        let e02 = g.edge_id(0, 2);
        assert!(res.schedule.is_covered(e02));
        assert_eq!(res.schedule.hub_of(e02), 1);
    }

    #[test]
    fn conservative_locks_converge_slower_to_similar_quality() {
        let g = clustered(400, 19);
        let r = Rates::log_degree(&g, 5.0);
        let refined = ParallelNosy {
            max_iterations: 300,
            ..ParallelNosy::default()
        }
        .run(&g, &r);
        let conservative = ParallelNosy {
            max_iterations: 300,
            conservative_locks: true,
            ..ParallelNosy::default()
        }
        .run(&g, &r);
        validate_bounded_staleness(&g, &conservative.schedule).unwrap();
        assert!(
            conservative.iterations > refined.iterations,
            "expected extra serialization: {} vs {}",
            conservative.iterations,
            refined.iterations
        );
        // Final quality is in the same ballpark (both reach a local
        // minimum of the same neighborhood structure).
        let cr = schedule_cost(&g, &r, &refined.schedule);
        let cc = schedule_cost(&g, &r, &conservative.schedule);
        assert!((cc - cr).abs() / cr < 0.1, "quality diverged: {cr} vs {cc}");
    }

    #[test]
    fn cross_cap_bounds_hub_size() {
        let mut b = GraphBuilder::new();
        let (w, y) = (0u32, 1u32);
        b.add_edge(w, y);
        for x in 2..40u32 {
            b.add_edge(x, w);
            b.add_edge(x, y);
        }
        let g = b.build();
        let r = Rates::uniform(40, 1.0, 5.0);
        let costs = EdgeCosts::hybrid(&g, &r);
        let sched = Schedule::for_graph(&g);
        let cand = build_candidate(&g, &r, &costs, &sched, g.edge_id(w, y), 5).unwrap();
        assert_eq!(cand.xs.len(), 5);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        let r = Rates::uniform(0, 1.0, 1.0);
        let res = ParallelNosy::default().run(&g, &r);
        assert_eq!(res.schedule.edge_count(), 0);
    }

    #[test]
    fn read_heavy_workload_leaves_little_to_gain() {
        // As r/w → ∞, hybrid (≈ push-all) approaches optimal; PN's gain
        // must shrink towards 1 (Figure 9's right edge).
        let g = clustered(400, 17);
        let r5 = Rates::log_degree(&g, 5.0);
        let r100 = r5.with_read_write_ratio(100.0);
        let pn = ParallelNosy::default();
        let ff5 = hybrid_schedule(&g, &r5);
        let ff100 = hybrid_schedule(&g, &r100);
        let imp5 = predicted_improvement(&g, &r5, &pn.run(&g, &r5).schedule, &ff5);
        let imp100 = predicted_improvement(&g, &r100, &pn.run(&g, &r100).schedule, &ff100);
        assert!(
            imp100 < imp5,
            "gain should shrink with read-heavy workloads: {imp5} vs {imp100}"
        );
    }
}
