//! Streaming CHITCHAT: one-pass hub selection at a fraction of the batch
//! greedy's oracle work, built for continuous re-optimization and
//! paper-scale (2.2M–10M node) graphs.
//!
//! The batch greedy ([`crate::chitchat`]) interleaves hub and singleton
//! selections through a global priority queue, paying lazy re-validation
//! oracle calls until the true argmin surfaces at every step. This module
//! trades that per-step exactness for a single ordered sweep:
//!
//! 1. **Streaming priority.** Every hub's closed-form density lower bound
//!    (`seed_lower_bound`, PR 6's seeding bound) is computed in one CSR
//!    pass — `O(deg)` per hub, no peels. The bound is *permanently* valid
//!    for any hub whose legs are never paid (covering only shrinks `Z`,
//!    raising every candidate's cost-per-element, and a leg `x → w` is
//!    only ever paid by admitting hub `w` itself), which yields a sound
//!    static prune: a hub whose bound already meets the best hybrid cost
//!    of anything it could cover can never be admitted, now or later, and
//!    is dropped without a single oracle call. The survivors then get one
//!    peel each against the untouched cover — an embarrassingly parallel
//!    pre-pass — and are consumed in ascending order of their *actual*
//!    seed density, which (by the same monotonicity) is a lower bound too
//!    and tracks the batch greedy's pick order far more tightly.
//! 2. **Monotone admission threshold over marginal prices.** The peels run
//!    in the oracle's [`LegCost::Marginal`] mode:
//!    a leg still in `Z` will be served anyway (its hybrid cost is sunk),
//!    so it is priced at only its orientation surcharge. This is the key
//!    to one-pass quality — the batch greedy reaches cross-rich selections
//!    only after its interleaved singleton picks have paid the cheap legs
//!    one by one; marginal pricing makes the same selections visible
//!    immediately. A selection is admitted iff its (marginal) weight
//!    undercuts the summed hybrid cost of its cross edges — exactly the
//!    batch inequality with the sunk leg terms moved across — and the
//!    threshold is monotone: every admission removes elements from all
//!    later thresholds, so the sweep only gets stricter. Each admitted hub
//!    strictly beats serving its elements directly, so the final schedule
//!    never costs more than FEEDINGFRENZY's hybrid. Admitted hubs are
//!    immediately *drained*: their paid legs zero weights in their own
//!    hub-graph only, so re-running the oracle right away captures the
//!    batch greedy's repeated selections of a hot hub while the state is
//!    warm.
//! 3. **Bounded revisit buffer.** A rejected candidate can become
//!    admissible later — once its cheap elements are covered elsewhere,
//!    the surviving selection may clear the (now different) threshold. The
//!    near-misses (lowest weight-to-threshold ratio) are kept in a buffer
//!    of bounded capacity and re-evaluated in short refinement passes; a
//!    pass that admits nothing ends the run (the state is a fixed point).
//! 4. **Deterministic parallel evaluation.** Hubs are peeled in fixed-size
//!    batches against a frozen `Cover` through the same [`FanoutPool`] as
//!    the batch path, which returns them in batch order. A
//!    frozen result is only trusted if no admission since the freeze
//!    touched the hub's closed neighborhood (admissions mark `{w} ∪ X ∪
//!    Y`; every mutated edge has both endpoints marked, and a hub's oracle
//!    reads only edges with an endpoint in its own closed neighborhood) —
//!    otherwise the hub is re-peeled sequentially against the live state.
//!    Either way each hub sees exactly the state a fully sequential sweep
//!    would show it, so **any thread count produces the identical
//!    schedule, cost, and oracle-call count** (the batch size is a
//!    constant, not a function of the thread budget).
//!
//! Leftover uncovered edges take their hybrid assignment
//! ([`hybrid_fill`]), exactly like the batch greedy's singleton tail. The
//! result: one peel per surviving hub plus one per admission, instead of
//! the batch path's schedule of seed, re-validation, and strict-recompute
//! calls — pigbench's `opt_stream` and `opt_chitchat` workloads measure
//! both, and the differential suite
//! (`chitchat_stream_differential`) pins the cost within 5% of batch
//! CHITCHAT on the benchmark families.

use parking_lot::RwLock;
use piggyback_graph::{CsrGraph, NodeId};
use piggyback_workload::Rates;

use crate::baseline::hybrid_fill;
use crate::chitchat::{full_bitset, seed_lower_bound, Cover, HubPool, Shared};
use crate::cost::{assert_rates_cover, hybrid_edge_cost, LegCost};
use crate::densest::{densest, HubSelection, OrdF64, PeelScratch, UncoveredDegrees, Want};
use crate::fanout::{FanoutPool, FanoutTelemetry};
use crate::schedule::Schedule;
use crate::CROSS_CAP;

/// Hubs evaluated per frozen fan-out batch. A **constant** — deliberately
/// not a function of the thread count — so the dirty-recompute sequence,
/// and with it the oracle-call count, is bit-identical for every thread
/// budget.
const STREAM_BATCH: usize = 256;

/// Refinement passes over the revisit buffer after the main sweep. Each
/// pass re-peels only buffered near-misses; a pass that admits nothing
/// terminates the run early.
const REFINE_PASSES: usize = 2;

/// Capacity of the revisit buffer. Rejected candidates beyond it are
/// evicted worst-ratio-first (counted in
/// [`ChitChatStreamResult::revisit_evictions`]).
const REVISIT_CAP: usize = 1 << 16;

/// Configuration for the streaming CHITCHAT execution. Hub-graphs
/// materialize at most [`CROSS_CAP`] cross edges.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChitChatStream {
    /// Worker threads for the oracle fan-out. `0` means one per available
    /// core. The schedule is identical for every value — threads only
    /// change wall time.
    pub threads: usize,
}

/// Output of a streaming CHITCHAT run.
#[derive(Clone, Debug)]
pub struct ChitChatStreamResult {
    /// The computed request schedule (feasible: every edge served).
    pub schedule: Schedule,
    /// Hub selections admitted (drain re-selections included).
    pub hubs_admitted: usize,
    /// Edges served directly by the leftover hybrid sweep.
    pub singleton_selections: usize,
    /// Densest-subgraph oracle invocations.
    pub oracle_calls: usize,
    /// Passes executed: `1` main sweep plus completed refinement passes.
    pub passes: usize,
    /// Rejected candidates dropped because the revisit buffer was full.
    pub revisit_evictions: usize,
    /// Per-thread busy-time accounting for the oracle fan-out sections.
    pub telemetry: FanoutTelemetry,
}

impl ChitChatStream {
    /// Runs streaming CHITCHAT on `g` under the workload `rates` and
    /// returns a feasible schedule costing no more than the hybrid
    /// baseline.
    ///
    /// Deterministic for any [`ChitChatStream::threads`] value.
    pub fn run(&self, g: &CsrGraph, rates: &Rates) -> ChitChatStreamResult {
        assert_rates_cover(g, rates);
        let m = g.edge_count();
        let shared = Shared {
            g,
            rates,
            cover: RwLock::new(Cover {
                sched: Schedule::for_graph(g),
                z: full_bitset(m),
                z_in: full_bitset(m),
                zdeg: UncoveredDegrees::full(g),
            }),
        };
        let mut sweep = Sweep {
            scratch: PeelScratch::new(),
            touched: EpochSet::new(g.node_count()),
            oracle_calls: 0,
            hubs_admitted: 0,
            passes: 0,
            revisit_evictions: 0,
        };
        let sh = &shared;
        let ((), telemetry) = FanoutPool::scope(
            self.threads,
            || {
                let mut scratch = PeelScratch::new();
                move |hubs: &[NodeId]| {
                    let c = sh.cover.read();
                    hubs.iter()
                        .map(|&w| (w, marginal_peel(sh, &c, w, &mut scratch)))
                        .collect()
                }
            },
            |pool| self.drive(sh, pool, &mut sweep),
        );

        // Leftover sweep: every still-unserved edge (exactly `Z`) takes its
        // hybrid assignment, in CSR order — the batch greedy's singleton
        // tail without the per-step threshold bookkeeping. The cover is
        // done with, so `Z` is left as it is.
        let mut schedule = shared.cover.into_inner().sched;
        let singleton_selections = hybrid_fill(g, rates, &mut schedule);

        ChitChatStreamResult {
            schedule,
            hubs_admitted: sweep.hubs_admitted,
            singleton_selections,
            oracle_calls: sweep.oracle_calls,
            passes: sweep.passes,
            revisit_evictions: sweep.revisit_evictions,
            telemetry,
        }
    }

    /// The ordered sweep plus refinement passes. Coordinator-only except
    /// for the pooled frozen-state peels.
    fn drive(&self, sh: &Shared, pool: &HubPool, sweep: &mut Sweep) {
        let g = sh.g;
        if g.edge_count() == 0 {
            return;
        }
        // Streaming priority, stage 1: one CSR pass computes every hub's
        // closed-form bound; the statically hopeless (bound can never
        // undercut the best hybrid cost it could displace) are pruned
        // before any peel.
        let n = g.node_count();
        let mut survivors: Vec<NodeId> = Vec::new();
        for w in 0..n as NodeId {
            if let Some(b) = seed_lower_bound(g, sh.rates, w, CROSS_CAP) {
                if b < max_displaceable_cost(g, sh.rates, w) {
                    survivors.push(w);
                }
            }
        }
        // Stage 2: one peel per survivor against the untouched cover — an
        // embarrassingly parallel pre-pass (nothing is admitted, so every
        // frozen result is exact) — yields each hub's *actual* seed
        // density. Covering only raises densities, so this is itself a
        // valid lower bound for the rest of the run, and ordering the
        // sweep by it tracks the batch greedy's trajectory far closer than
        // the closed-form bound alone.
        let mut bound = vec![f64::INFINITY; n];
        let mut order: Vec<(OrdF64, NodeId)> = Vec::new();
        for batch in survivors.chunks(STREAM_BATCH.max(1)) {
            sweep.oracle_calls += batch.len();
            for (w, sel) in pool.map(batch) {
                if let Some(s) = sel {
                    let d = s.cost_per_element();
                    bound[w as usize] = d;
                    order.push((OrdF64(d), w));
                }
            }
        }
        order.sort_unstable();
        let mut list: Vec<NodeId> = order.into_iter().map(|(_, w)| w).collect();

        for _pass in 0..=REFINE_PASSES {
            if list.is_empty() {
                break;
            }
            sweep.passes += 1;
            let admitted_before = sweep.hubs_admitted;
            let mut rejected: Vec<(OrdF64, NodeId)> = Vec::new();
            self.run_pass(sh, pool, sweep, &list, &mut rejected);
            if sweep.hubs_admitted == admitted_before {
                // Fixed point: no admission means no state change, so the
                // next pass would reproduce every rejection verbatim.
                break;
            }
            // Bound the revisit buffer: keep the nearest misses (lowest
            // weight-to-threshold ratio), then restore streaming order.
            if rejected.len() > REVISIT_CAP {
                rejected.sort_unstable();
                sweep.revisit_evictions += rejected.len() - REVISIT_CAP;
                rejected.truncate(REVISIT_CAP);
            }
            list = rejected.into_iter().map(|(_, w)| w).collect();
            list.sort_unstable_by_key(|&w| (OrdF64(bound[w as usize]), w));
        }
    }

    /// One pass over `list`: batched frozen peels, sequential in-order
    /// admission with dirty re-peels, immediate draining of admitted hubs.
    fn run_pass(
        &self,
        sh: &Shared,
        pool: &HubPool,
        sweep: &mut Sweep,
        list: &[NodeId],
        rejected: &mut Vec<(OrdF64, NodeId)>,
    ) {
        for batch in list.chunks(STREAM_BATCH) {
            sweep.oracle_calls += batch.len();
            let results = pool.map(batch);
            sweep.touched.clear();
            for (w, frozen) in results {
                // The frozen peel is exact unless an admission since the
                // freeze touched `{w} ∪ N(w)`; then re-peel live.
                let mut sel = if sweep.touched.closed_neighborhood_clean(sh.g, w) {
                    frozen
                } else {
                    sweep.oracle_calls += 1;
                    oracle(sh, w, &mut sweep.scratch)
                };
                while let Some(s) = sel.take() {
                    let threshold = displaced_cost(sh.rates, &s);
                    if s.weight < threshold {
                        sh.apply_hub(&s);
                        sweep.hubs_admitted += 1;
                        sweep.touched.mark_selection(&s);
                        // Drain: the paid legs zero weights in this hub's
                        // graph only, so the next selection may be cheaper
                        // still — keep selecting while admissible.
                        sweep.oracle_calls += 1;
                        sel = oracle(sh, w, &mut sweep.scratch);
                    } else {
                        let ratio = if threshold > 0.0 {
                            s.weight / threshold
                        } else {
                            f64::INFINITY
                        };
                        rejected.push((OrdF64(ratio), w));
                    }
                }
            }
        }
    }
}

/// Coordinator-private sweep state.
struct Sweep {
    scratch: PeelScratch,
    touched: EpochSet,
    oracle_calls: usize,
    hubs_admitted: usize,
    passes: usize,
    revisit_evictions: usize,
}

/// One live oracle call for hub `w` (takes the cover read lock).
fn oracle(sh: &Shared, w: NodeId, scratch: &mut PeelScratch) -> Option<HubSelection> {
    marginal_peel(sh, &sh.cover.read(), w, scratch)
}

/// One marginal-price peel of hub `w` against cover state `c`.
fn marginal_peel(
    sh: &Shared,
    c: &Cover,
    w: NodeId,
    scratch: &mut PeelScratch,
) -> Option<HubSelection> {
    densest(
        sh.g,
        sh.rates,
        w,
        &c.sched,
        &c.z,
        &c.zdeg,
        CROSS_CAP,
        LegCost::Marginal,
        Want::Selection,
        scratch,
    )
}

/// The admission threshold for a marginal-price selection: the summed
/// hybrid cost of its cross edges — the only spend the selection actually
/// avoids. The legs' sunk hybrid cost is already netted out of
/// [`HubSelection::weight`] by the marginal oracle, so `weight <
/// displaced_cost` is the exact "strictly cheaper than serving directly"
/// test (equivalent to batch bookkeeping's `full weight < legs + cross`,
/// with the leg terms moved across the inequality).
fn displaced_cost(rates: &Rates, s: &HubSelection) -> f64 {
    s.cross
        .iter()
        .map(|&(_, x, y)| hybrid_edge_cost(rates, x, y))
        .sum()
}

/// Upper bound on the hybrid cost of any element hub `w` could ever cover:
/// legs `x → w` and cross edges `x → y` cost at most `max rp(x)`; legs
/// `w → y` at most `max min(rp(w), rc(y))`. A hub whose density bound
/// meets this can never clear the admission threshold — its selections
/// always average at least this much per element — so it is pruned before
/// any peel, and the prune is permanent (see module docs).
fn max_displaceable_cost(g: &CsrGraph, rates: &Rates, w: NodeId) -> f64 {
    let mut m = 0.0f64;
    for &x in g.in_neighbors(w) {
        m = m.max(rates.rp(x));
    }
    for &y in g.out_neighbors(w) {
        m = m.max(hybrid_edge_cost(rates, w, y));
    }
    m
}

/// Node set with O(1) clear: membership is "stamp equals current epoch".
/// Tracks the nodes touched by admissions since the current batch froze
/// the cover, so staleness checks cost one load per neighbor.
struct EpochSet {
    stamp: Vec<u32>,
    epoch: u32,
}

impl EpochSet {
    fn new(n: usize) -> Self {
        EpochSet {
            stamp: vec![0; n],
            epoch: 1,
        }
    }

    fn clear(&mut self) {
        self.epoch += 1;
    }

    fn insert(&mut self, w: NodeId) {
        self.stamp[w as usize] = self.epoch;
    }

    fn contains(&self, w: NodeId) -> bool {
        self.stamp[w as usize] == self.epoch
    }

    /// Marks everything an admitted selection mutated: the hub and every
    /// selected producer/consumer. Every covered or paid edge has both
    /// endpoints in this set.
    fn mark_selection(&mut self, s: &HubSelection) {
        self.insert(s.hub);
        for &(x, _) in &s.xs {
            self.insert(x);
        }
        for &(y, _) in &s.ys {
            self.insert(y);
        }
    }

    /// Whether no touched node lies in `{w} ∪ N_in(w) ∪ N_out(w)`. A hub's
    /// oracle reads only edges with an endpoint in its closed neighborhood,
    /// so a clean neighborhood proves the frozen peel still exact.
    fn closed_neighborhood_clean(&self, g: &CsrGraph, w: NodeId) -> bool {
        if self.contains(w) {
            return false;
        }
        for &x in g.in_neighbors(w) {
            if self.contains(x) {
                return false;
            }
        }
        for &y in g.out_neighbors(w) {
            if self.contains(y) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::hybrid_schedule;
    use crate::chitchat::ChitChat;
    use crate::cost::schedule_cost;
    use crate::validate::validate_bounded_staleness;
    use piggyback_graph::gen::{copying, erdos_renyi, CopyingConfig};
    use piggyback_graph::GraphBuilder;

    fn fig2() -> (CsrGraph, Rates) {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(0, 2);
        (
            b.build(),
            Rates::from_vecs(vec![1.0, 5.0, 5.0], vec![5.0, 5.0, 1.8]),
        )
    }

    #[test]
    fn fig2_takes_the_hub() {
        let (g, r) = fig2();
        let res = ChitChatStream::default().run(&g, &r);
        validate_bounded_staleness(&g, &res.schedule).unwrap();
        let c = schedule_cost(&g, &r, &res.schedule);
        assert!((c - 2.8).abs() < 1e-9, "expected hub schedule, cost {c}");
        assert!(res.schedule.is_covered(g.edge_id(0, 2)));
        assert!(res.hubs_admitted >= 1);
    }

    #[test]
    fn never_worse_than_hybrid() {
        for seed in 0..4 {
            let g = erdos_renyi(80, 400, seed);
            let r = Rates::log_degree(&g, 5.0);
            let res = ChitChatStream::default().run(&g, &r);
            validate_bounded_staleness(&g, &res.schedule).unwrap();
            let stream = schedule_cost(&g, &r, &res.schedule);
            let hybrid = schedule_cost(&g, &r, &hybrid_schedule(&g, &r));
            assert!(
                stream <= hybrid + 1e-9,
                "seed {seed}: stream {stream} above hybrid {hybrid}"
            );
        }
    }

    #[test]
    fn all_edges_end_up_served() {
        let g = erdos_renyi(80, 400, 11);
        let r = Rates::log_degree(&g, 5.0);
        let res = ChitChatStream::default().run(&g, &r);
        assert_eq!(res.schedule.unassigned_count(), 0);
        validate_bounded_staleness(&g, &res.schedule).unwrap();
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        let r = Rates::uniform(0, 1.0, 1.0);
        let res = ChitChatStream::default().run(&g, &r);
        assert_eq!(res.schedule.edge_count(), 0);
        assert_eq!(res.hubs_admitted, 0);
        assert_eq!(res.oracle_calls, 0);
    }

    #[test]
    #[should_panic(expected = "rates cover 29 users, graph has 30")]
    fn rejects_rates_one_user_short() {
        let g = erdos_renyi(30, 120, 4);
        let r = Rates::uniform(g.node_count() - 1, 1.0, 5.0);
        let _ = ChitChatStream::default().run(&g, &r);
    }

    #[test]
    fn identical_for_any_thread_count() {
        let g = copying(CopyingConfig {
            nodes: 400,
            follows_per_node: 6,
            copy_prob: 0.9,
            seed: 5,
        });
        let r = Rates::log_degree(&g, 5.0);
        let base = ChitChatStream { threads: 1 }.run(&g, &r);
        let base_cost = schedule_cost(&g, &r, &base.schedule);
        for threads in [2usize, 3, 8] {
            let res = ChitChatStream { threads }.run(&g, &r);
            assert_eq!(
                schedule_cost(&g, &r, &res.schedule),
                base_cost,
                "{threads} threads diverged on cost"
            );
            assert_eq!(res.oracle_calls, base.oracle_calls, "{threads} threads");
            assert_eq!(res.hubs_admitted, base.hubs_admitted, "{threads} threads");
            assert_eq!(
                res.singleton_selections, base.singleton_selections,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn tracks_batch_chitchat_on_clustered_graphs() {
        // The streaming sweep must land within 5% of the batch greedy on
        // the hub-friendly family (the bench-scale differential suite
        // extends this to flickr-10k/100k).
        let g = copying(CopyingConfig {
            nodes: 600,
            follows_per_node: 6,
            copy_prob: 0.9,
            seed: 7,
        });
        let r = Rates::log_degree(&g, 5.0);
        let stream = ChitChatStream::default().run(&g, &r);
        let batch = ChitChat::default().run(&g, &r);
        let cs = schedule_cost(&g, &r, &stream.schedule);
        let cb = schedule_cost(&g, &r, &batch.schedule);
        assert!(
            cs <= cb * 1.05,
            "stream {cs} more than 5% above batch {cb} ({}x)",
            cs / cb
        );
        assert!(
            stream.oracle_calls < batch.oracle_calls,
            "stream made more oracle calls ({} >= {})",
            stream.oracle_calls,
            batch.oracle_calls
        );
    }
}
