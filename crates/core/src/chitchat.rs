//! CHITCHAT (§3.1, Algorithm 1): greedy SETCOVER over hub-graphs and direct
//! edges, with the weighted densest-subgraph oracle selecting each hub's
//! best candidate.
//!
//! The ground set is the edge set `E`; candidates are (a) singleton direct
//! edges served at the hybrid cost `c*(e) = min(rp(u), rc(v))` and (b) for
//! each node `w`, the densest hub-graph centered on `w`. Greedy repeatedly
//! takes the candidate with minimum cost-per-uncovered-element; combined
//! with the factor-2 oracle this yields the paper's `O(ln n)` approximation
//! (Theorem 4).
//!
//! # Keeping the oracle outputs current
//!
//! Algorithm 1 recomputes the oracle for every hub-graph containing a
//! covered edge after each selection. We split that obligation by how a
//! selection can change a hub's best density:
//!
//! * **Covering edges (removing them from `Z`)** only *lowers* densities,
//!   so priority-queue entries become optimistic lower bounds on
//!   cost-per-element — safe to re-validate lazily at pop time
//!   (pop → recompute → accept if still the minimum, else re-insert).
//! * **Paying for a push `x → w` (or pull `w → y`)** zeroes `g(x)` (`g(y)`)
//!   *in the hub-graph of `w` only*, which can *raise* `w`'s density. Those
//!   hubs — exactly one per selection — get their queue entry refreshed:
//!   recomputed strictly in the reference execution, skipped or
//!   lower-bounded in the optimized one (see below).
//!
//! The result is the same greedy trajectory as eager recomputation at a
//! fraction of the oracle calls (the `ablations` bench quantifies it).
//!
//! # The scalable execution
//!
//! [`ChitChat::run`] is built for large graphs:
//!
//! * the priority queue is seeded with *closed-form lower bounds* instead
//!   of one oracle call per node: at seed time nothing is covered or paid,
//!   so `(min rp · |X| + min rc · |Y|) / (|X| + |Y| + min(b, Σ deg))` (and
//!   its one-sided corners) provably under-estimates every hub's best
//!   cost-per-element. The n up-front peels of the old seeding pass are
//!   paid lazily — only for hubs whose bound ever surfaces below the
//!   singleton threshold — and in parallel batches rather than one
//!   serial-equivalent sweep;
//! * lazy re-validation recomputes hubs in geometrically growing batches
//!   (1, 2, 4, … up to [`ORACLE_BATCH`]), mapped through the optimizers'
//!   one worker pool ([`crate::fanout::FanoutPool`]), spawned once per
//!   run: batches big enough to pay for dispatch fan out, the rest run
//!   inline, and each worker keeps its own [`PeelScratch`] arena warm
//!   across every batch of the run. Batch results carry a *verified*
//!   mark: within one selection the schedule is frozen, so a recomputed
//!   entry at the top of the queue is accepted without another oracle
//!   call. Workers read the frozen `(schedule, Z)` state through an
//!   `RwLock` the coordinator writes only between fan-outs;
//! * a singleton's strict recomputation is *skipped* when the weight
//!   zeroing is provably invisible — the paid leg just left `Z`, so the
//!   producer matters only through uncovered cross edges, whose absence a
//!   word-speed scan of the `Z` bitset proves — and otherwise *deferred*:
//!   the queued key drops to the provable bound `key − delta`, and the
//!   oracle call is paid lazily only if the hub ever surfaces. Together
//!   these tame the popular-hub tail: without them, every popular node is
//!   fully re-peeled once per incident singleton;
//! * all oracle calls go through the allocation-free
//!   [`densest_hub_graph_scratch`] bucket peel, and singleton costs come
//!   from a precomputed [`EdgeCosts`] array instead of per-probe rate
//!   lookups.
//!
//! Each selection accepts the argmin of `(exact cost-per-element, node id)`
//! over the live candidates: every queue entry whose optimistic key is at
//! or below the winning value is verified before the accept, so the result
//! does not depend on batch boundaries or thread count. **Any thread count
//! produces the identical schedule, cost, and oracle-call count** (the
//! `chitchat_parallel` integration test locks this in).
//!
//! A test-only `ChitChat::run_reference` preserves the pre-optimization
//! execution — serial, eager recomputation after every selection, exact
//! oracle seeding, allocating heap-peel oracle, per-probe singleton costs —
//! as the differential-testing oracle of this module's tests.
//! Both drive the same argmin greedy, but exact ties between equally-priced
//! candidates can resolve differently (the eager path's refreshed keys
//! carry last-ulp float noise that the skip-path's older bounds do not), so
//! their costs agree to tie-breaking noise (~1e-5 relative at scale)
//! rather than bit-for-bit.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use parking_lot::RwLock;
use piggyback_graph::fx::FxHashMap;
use piggyback_graph::{CsrGraph, EdgeId, NodeId};
use piggyback_workload::{EdgeCosts, Rates};

use crate::bitset::BitSet;
use crate::densest::{
    densest_hub_graph, densest_hub_graph_key_scratch, densest_hub_graph_scratch, HubSelection,
    OrdF64, PeelScratch, UncoveredDegrees,
};
use crate::fanout::{FanoutPool, FanoutTelemetry};
use crate::schedule::Schedule;

/// Largest lazy re-validation batch (and the growth cap): bounds how far a
/// selection can over-recompute past the sequential pop sequence while
/// still exposing enough independent oracle calls to parallelize.
pub const ORACLE_BATCH: usize = 64;

/// Cap on the uncovered-edge scan that proves a singleton's weight-zeroing
/// inert (cannot change the affected hub's candidate). Above the cap the
/// proof is not attempted and the hub is recomputed strictly; a failing
/// scan exits at its first counterexample, so only successful proofs pay
/// the full scan — and each success saves a whole oracle call.
const INERT_SCAN_CAP: u32 = 1024;

/// Configuration for the CHITCHAT algorithm.
#[derive(Clone, Copy, Debug)]
pub struct ChitChat {
    /// Upper bound on materialized cross edges per hub-graph (§3.2's `b`;
    /// the paper uses 100 000 on the Twitter graph).
    pub cross_cap: usize,
    /// Worker threads for the oracle fan-out (lazy re-validation batches).
    /// `0` means one per available core. The schedule is identical for
    /// every value — threads only change wall time.
    pub threads: usize,
}

impl Default for ChitChat {
    fn default() -> Self {
        ChitChat {
            cross_cap: 100_000,
            threads: 0,
        }
    }
}

/// Output of a CHITCHAT run.
#[derive(Clone, Debug)]
pub struct ChitChatResult {
    /// The computed request schedule (feasible: every edge served).
    pub schedule: Schedule,
    /// Number of hub-graph selections made.
    pub hub_selections: usize,
    /// Number of edges served directly (singleton selections).
    pub singleton_selections: usize,
    /// Number of densest-subgraph oracle invocations.
    pub oracle_calls: usize,
    /// Per-thread busy-time accounting for the oracle fan-out sections.
    pub telemetry: FanoutTelemetry,
}

/// The covering state workers read while the coordinator is fanned out:
/// schedule, uncovered set `Z` (both orientations) and per-node uncovered
/// degrees, always mutated together. Shared with the streaming execution
/// ([`crate::chitchat_stream`]), which drives the same covering invariants
/// through a different selection order.
pub(crate) struct Cover {
    pub(crate) sched: Schedule,
    pub(crate) z: BitSet,
    /// `Z` in reverse orientation: one bit per *in-slot* (see
    /// [`CsrGraph::in_slot_range`]), so a node's uncovered in-edges scan at
    /// word speed — the pull-side mirror of scanning `z` over
    /// [`CsrGraph::out_edge_id_range`].
    pub(crate) z_in: BitSet,
    /// Per-node uncovered-degree counts, kept in lockstep with `z` so the
    /// oracle can skip roles with nothing left to cover.
    pub(crate) zdeg: UncoveredDegrees,
}

impl Cover {
    /// Removes edge `e = u → v` from `Z`, keeping the degree counts and the
    /// reverse-orientation bitset in lockstep.
    pub(crate) fn uncover(&mut self, g: &CsrGraph, e: EdgeId, u: NodeId, v: NodeId) {
        if self.z.remove(e) {
            self.zdeg.remove_edge(u, v);
            let slot = g.in_slot(u, v).expect("edge has an in-slot");
            self.z_in.remove(slot);
        }
    }

    /// Whether paying the push `u → v` (zeroing `g(u)` in hub `v`'s graph)
    /// provably cannot change `v`'s candidate: `u`'s leg just left `Z`, so
    /// `u` matters only through uncovered cross edges `u → t` with
    /// `t ∈ Y(v)` — if none can exist, the zeroed weight is invisible to
    /// the peel and the strict recomputation is skipped bit-exactly.
    /// (`has_edge` over-approximates `t ∈ Y(v)`; a `false` only costs an
    /// oracle call.)
    fn push_zeroing_is_inert(&self, g: &CsrGraph, u: NodeId, v: NodeId) -> bool {
        let remaining = self.zdeg.out_deg(u);
        if remaining == 0 {
            return true;
        }
        if remaining > INERT_SCAN_CAP {
            return false;
        }
        let (lo, hi) = g.out_edge_id_range(u);
        for e in self.z.iter_range(lo, hi) {
            let t = g.edge_target(e);
            if t == v {
                continue;
            }
            let leg = g.edge_id(v, t);
            if leg != piggyback_graph::INVALID_EDGE && !self.sched.is_covered(leg) {
                return false;
            }
        }
        true
    }

    /// Specular check for a paid pull `u → v` (zeroing `g(v)` in hub `u`'s
    /// graph): `v` matters only through uncovered cross edges `x → v` with
    /// `x ∈ X(u)`.
    fn pull_zeroing_is_inert(&self, g: &CsrGraph, u: NodeId, v: NodeId) -> bool {
        let remaining = self.zdeg.in_deg(v);
        if remaining == 0 {
            return true;
        }
        if remaining > INERT_SCAN_CAP {
            return false;
        }
        let (lo, hi) = g.in_slot_range(v);
        for slot in self.z_in.iter_range(lo, hi) {
            let x = g.in_source_at_slot(slot);
            if x == u {
                continue;
            }
            let leg = g.edge_id(x, u);
            if leg != piggyback_graph::INVALID_EDGE && !self.sched.is_covered(leg) {
                return false;
            }
        }
        true
    }
}

/// Read-mostly run context: graph, rates and the lock-guarded [`Cover`].
/// This is everything the pool workers see; the coordinator takes the
/// write lock only between fan-outs, so reads never contend.
pub(crate) struct Shared<'a> {
    pub(crate) g: &'a CsrGraph,
    pub(crate) rates: &'a Rates,
    pub(crate) cross_cap: usize,
    pub(crate) cover: RwLock<Cover>,
}

impl Shared<'_> {
    /// Applies a hub-graph selection: pushes from all selected producers,
    /// pulls to all selected consumers, cross edges covered through the hub.
    pub(crate) fn apply_hub(&self, sel: &HubSelection) {
        let w = sel.hub;
        let mut c = self.cover.write();
        for &(x, e) in &sel.xs {
            c.sched.set_push(e);
            c.uncover(self.g, e, x, w);
        }
        for &(y, e) in &sel.ys {
            c.sched.set_pull(e);
            c.uncover(self.g, e, w, y);
        }
        for &e in &sel.cross {
            c.sched.set_covered(e, w);
            let (u, v) = self.g.edge_endpoints(e);
            c.uncover(self.g, e, u, v);
        }
    }
}

/// The pool both CHITCHAT executions peel hubs on: a batch of hubs in,
/// each hub's selection (keyed by hub) out, in batch order.
pub(crate) type HubPool<'w> = FanoutPool<'w, NodeId, (NodeId, Option<HubSelection>)>;

/// Coordinator-private search state: the priority queue and its
/// bookkeeping. Only the coordinating thread touches this.
struct Search {
    /// Valid-entry stamp per hub; heap entries with older stamps are dead.
    stamp: Vec<u32>,
    heap: BinaryHeap<Reverse<(OrdF64, NodeId, u32)>>,
    /// Key of each hub's live heap entry; `INFINITY` iff the hub has no
    /// live entry, which (invariant) happens exactly when the hub can have
    /// no countable edges — `Z` only shrinks, so such hubs are permanently
    /// out.
    current_key: Vec<f64>,
    /// Selection round in which each hub's heap key was last recomputed
    /// against the frozen state (`round` matches ⇒ the key is exact, not
    /// just a lower bound).
    verified: Vec<u32>,
    round: u32,
    /// Selections computed by the current round's verification batches, by
    /// hub; the accepted hub's selection is taken from here, so an accept
    /// costs no extra oracle call.
    cache: FxHashMap<NodeId, HubSelection>,
    scratch: PeelScratch,
    oracle_calls: usize,
    /// Use the allocating reference oracle instead of the scratch path
    /// (the two produce identical selections; see [`crate::densest`]).
    reference: bool,
}

/// Builds one pool worker: peels a batch of hubs against the frozen cover,
/// through the reference oracle or a private scratch arena.
fn hub_peeler<'a>(
    sh: &'a Shared<'a>,
    reference: bool,
) -> impl FnMut(&[NodeId]) -> Vec<(NodeId, Option<HubSelection>)> + Send + 'a {
    let mut scratch = PeelScratch::new();
    move |hubs: &[NodeId]| {
        let c = sh.cover.read();
        hubs.iter()
            .map(|&w| {
                let sel = if reference {
                    densest_hub_graph(sh.g, sh.rates, w, &c.sched, &c.z, sh.cross_cap)
                } else {
                    densest_hub_graph_scratch(
                        sh.g,
                        sh.rates,
                        w,
                        &c.sched,
                        &c.z,
                        &c.zdeg,
                        sh.cross_cap,
                        &mut scratch,
                    )
                };
                (w, sel)
            })
            .collect()
    }
}

impl Search {
    /// Key-only oracle call: just the cost-per-element, skipping output
    /// materialization on the scratch path. This is what all queue
    /// maintenance uses — the full selection is materialized once per
    /// accepted hub. (The reference path materializes and discards, which
    /// is exactly what the pre-optimization implementation did.)
    fn oracle_key(&mut self, sh: &Shared, w: NodeId) -> Option<f64> {
        let c = sh.cover.read();
        if self.reference {
            densest_hub_graph(sh.g, sh.rates, w, &c.sched, &c.z, sh.cross_cap)
                .map(|sel| sel.cost_per_element())
        } else {
            densest_hub_graph_key_scratch(
                sh.g,
                sh.rates,
                w,
                &c.sched,
                &c.z,
                &c.zdeg,
                sh.cross_cap,
                &mut self.scratch,
            )
        }
    }

    /// Deferred strict recompute: lowers hub `w`'s queued key to the
    /// provable bound `key − delta` instead of calling the oracle. Zeroing
    /// one weight `delta` lowers any subgraph's cost-per-element by at
    /// most `delta` (its weight drops by at most `delta`, it covers at
    /// least one edge, and `Z` only shrank), so the adjusted key is still
    /// a valid lower bound; lazy re-validation pays the oracle call only
    /// if `w` ever surfaces. Hubs far above the singleton threshold —
    /// exactly the popular ones whose recomputation is expensive — absorb
    /// many zeroings per eventual call.
    fn lower_bound_after_zeroing(&mut self, sh: &Shared, w: NodeId, delta: f64) {
        let ck = self.current_key[w as usize];
        if !ck.is_finite() {
            // No live entry means no countable edges (and a non-inert
            // zeroing implies there are some) — recompute defensively.
            self.strict_recompute(sh, w);
            return;
        }
        if delta <= 0.0 {
            return;
        }
        let key = (ck - delta).max(0.0);
        self.stamp[w as usize] += 1;
        self.current_key[w as usize] = key;
        self.heap
            .push(Reverse((OrdF64(key), w, self.stamp[w as usize])));
    }

    /// Recomputes hub `w` strictly, invalidating any queued entry.
    fn strict_recompute(&mut self, sh: &Shared, w: NodeId) {
        self.stamp[w as usize] += 1;
        self.oracle_calls += 1;
        match self.oracle_key(sh, w) {
            Some(key) => {
                self.current_key[w as usize] = key;
                self.heap
                    .push(Reverse((OrdF64(key), w, self.stamp[w as usize])));
            }
            None => self.current_key[w as usize] = f64::INFINITY,
        }
    }

    /// Finds the cheapest hub candidate strictly below `single_cpe`, or
    /// `None` when the best singleton wins this selection.
    ///
    /// The schedule is frozen for the duration of the call, so oracle
    /// recomputation is pure; batches of stale entries are recomputed
    /// together through the pool and marked *verified* for the round. A
    /// verified entry at the top of the heap is exact — its key is at or
    /// below every other key, and every unverified key is a lower bound —
    /// so it is the global minimum and can be accepted without further
    /// calls.
    ///
    /// The accepted hub is therefore the argmin of `(true cost-per-element,
    /// node id)` over all live candidates: every entry whose optimistic key
    /// is at or below the winning value gets verified before the accept, so
    /// the result does not depend on batch boundaries, thread count, or
    /// which oracle implementation produced the keys.
    fn select_hub(&mut self, pool: &HubPool, single_cpe: f64) -> Option<HubSelection> {
        self.round += 1;
        self.cache.clear();
        let mut batch: Vec<NodeId> = Vec::with_capacity(ORACLE_BATCH);
        let mut batch_cap = 1usize;
        loop {
            batch.clear();
            let mut accept: Option<NodeId> = None;
            while let Some(&Reverse((key, w, st))) = self.heap.peek() {
                if st != self.stamp[w as usize] {
                    self.heap.pop();
                    continue;
                }
                if key.0 >= single_cpe {
                    break;
                }
                if self.verified[w as usize] == self.round {
                    if batch.is_empty() {
                        self.heap.pop();
                        accept = Some(w);
                    }
                    // Either accepted, or recompute the collected stale
                    // entries first — one of them may beat this key.
                    break;
                }
                self.heap.pop();
                self.stamp[w as usize] += 1;
                batch.push(w);
                if batch.len() >= batch_cap {
                    break;
                }
            }
            if let Some(w) = accept {
                let sel = self.cache.remove(&w);
                debug_assert!(sel.is_some(), "verified hub {w} missing from cache");
                return sel;
            }
            if batch.is_empty() {
                return None;
            }
            self.oracle_calls += batch.len();
            for (w, sel) in pool.map(&batch) {
                let Some(sel) = sel else {
                    self.current_key[w as usize] = f64::INFINITY;
                    continue;
                };
                let key = sel.cost_per_element();
                self.verified[w as usize] = self.round;
                self.current_key[w as usize] = key;
                self.heap
                    .push(Reverse((OrdF64(key), w, self.stamp[w as usize])));
                self.cache.insert(w, sel);
            }
            batch_cap = (batch_cap * 2).min(ORACLE_BATCH);
        }
    }

    /// Seeds the priority queue. The reference execution performs the
    /// pre-optimization pass — one exact oracle call per node. The
    /// optimized path seeds *sound lower bounds* computed in closed form:
    /// at seed time no leg is paid and `Z` is full, so for any candidate
    /// subgraph with `s ≤ |X|` producers and `t ≤ |Y|` consumers,
    /// `weight ≥ s·min rp + t·min rc` and
    /// `elements ≤ s + t + min(cross_cap, Σ_x (deg(x)−1))`; the ratio is
    /// monotone in `s` and `t` for fixed cap, so its minimum over the box
    /// is attained at a corner. Each hub's exact key is then paid lazily
    /// (and in parallel) only if its bound ever surfaces below the
    /// singleton threshold — the up-front `n`-peel sweep disappears.
    fn seed(&mut self, sh: &Shared) {
        let n = sh.g.node_count();
        if self.reference {
            self.oracle_calls += n;
            for w in 0..n as NodeId {
                if let Some(key) = self.oracle_key(sh, w) {
                    self.current_key[w as usize] = key;
                    self.heap.push(Reverse((OrdF64(key), w, 0)));
                }
            }
            return;
        }
        for w in 0..n as NodeId {
            if let Some(key) = seed_lower_bound(sh.g, sh.rates, w, sh.cross_cap) {
                self.current_key[w as usize] = key;
                self.heap.push(Reverse((OrdF64(key), w, 0)));
            }
        }
    }
}

/// Closed-form lower bound on hub `w`'s best seed-time cost-per-element,
/// or `None` when `w` can never center a hub-graph (no neighbors — no
/// countable edges, now or ever). See [`Search::seed`] for the derivation.
///
/// The bound stays valid for any hub whose legs are never paid: covering
/// only shrinks `Z`, which can only raise every candidate's
/// cost-per-element. [`crate::chitchat_stream`] exploits exactly that to
/// order its one-pass scan and to prune hopeless hubs up front.
pub(crate) fn seed_lower_bound(
    g: &CsrGraph,
    rates: &Rates,
    w: NodeId,
    cross_cap: usize,
) -> Option<f64> {
    let xs = g.in_neighbors(w);
    let ys = g.out_neighbors(w);
    if xs.is_empty() && ys.is_empty() {
        return None;
    }
    let mut min_rp = f64::INFINITY;
    let mut cross_max = 0usize;
    for &x in xs {
        min_rp = min_rp.min(rates.rp(x));
        // Cross edges from x go to Y ∌ w, so the leg never counts twice.
        cross_max += g.out_degree(x).saturating_sub(1);
    }
    let mut min_rc = f64::INFINITY;
    for &y in ys {
        min_rc = min_rc.min(rates.rc(y));
    }
    let cap = cross_max.min(cross_cap) as f64;
    let (nx, ny) = (xs.len() as f64, ys.len() as f64);
    let mut bound = f64::INFINITY;
    if nx > 0.0 {
        bound = bound.min(min_rp * nx / (nx + cap));
    }
    if ny > 0.0 {
        bound = bound.min(min_rc * ny / (ny + cap));
    }
    if nx > 0.0 && ny > 0.0 {
        bound = bound.min((min_rp * nx + min_rc * ny) / (nx + ny + cap));
    }
    Some(bound.max(0.0))
}

/// All-ones bitset of the given capacity.
pub(crate) fn full_bitset(m: usize) -> BitSet {
    let mut b = BitSet::new(m);
    for k in 0..m as u32 {
        b.insert(k);
    }
    b
}

/// The greedy SETCOVER loop shared by both executions.
fn drive(
    sh: &Shared,
    search: &mut Search,
    pool: &HubPool,
    single_cost: &impl Fn(EdgeId) -> f64,
) -> (usize, usize) {
    search.seed(sh);

    // Singleton candidates, cheapest hybrid cost first.
    let m = sh.g.edge_count();
    let mut singles: Vec<EdgeId> = (0..m as EdgeId).collect();
    singles.sort_unstable_by_key(|&e| OrdF64(single_cost(e)));
    let mut single_ptr = 0usize;

    let mut hub_selections = 0usize;
    let mut singleton_selections = 0usize;

    loop {
        let single_cpe = {
            let c = sh.cover.read();
            if c.z.is_empty() {
                break;
            }
            while single_ptr < singles.len() && !c.z.contains(singles[single_ptr]) {
                single_ptr += 1;
            }
            if single_ptr < singles.len() {
                single_cost(singles[single_ptr])
            } else {
                f64::INFINITY
            }
        };

        match search.select_hub(pool, single_cpe) {
            Some(sel) => {
                sh.apply_hub(&sel);
                hub_selections += 1;
                // Paying the legs zeroed weights in this hub's graph
                // only — the single strict recomputation needed.
                search.strict_recompute(sh, sel.hub);
            }
            None => {
                let e = singles[single_ptr];
                let (u, v) = sh.g.edge_endpoints(e);
                let push = sh.rates.rp(u) <= sh.rates.rc(v);
                // The reference keeps the pre-optimization call pattern
                // (recompute unconditionally); the fast path first tries
                // to prove the zeroing invisible. When the proof fires,
                // later greedy steps see a still-valid lower bound instead
                // of a refreshed exact key — the selections stay
                // argmin-optimal, and only exact ties between
                // equally-priced candidates can resolve differently (see
                // `matches_reference_implementation`).
                let inert = {
                    let mut c = sh.cover.write();
                    c.uncover(sh.g, e, u, v);
                    if push {
                        c.sched.set_push(e);
                        !search.reference && c.push_zeroing_is_inert(sh.g, u, v)
                    } else {
                        c.sched.set_pull(e);
                        !search.reference && c.pull_zeroing_is_inert(sh.g, u, v)
                    }
                };
                singleton_selections += 1;
                // Paying the edge zeroed g(u) in v's hub-graph (push) or
                // g(v) in u's (pull).
                let (hub, delta) = if push {
                    (v, sh.rates.rp(u))
                } else {
                    (u, sh.rates.rc(v))
                };
                if search.reference {
                    search.strict_recompute(sh, hub);
                } else if !inert {
                    search.lower_bound_after_zeroing(sh, hub, delta);
                }
            }
        }
    }

    (hub_selections, singleton_selections)
}

impl ChitChat {
    fn fresh_state<'a>(
        &self,
        g: &'a CsrGraph,
        rates: &'a Rates,
        reference: bool,
    ) -> (Shared<'a>, Search) {
        assert!(
            rates.len() >= g.node_count(),
            "rates do not cover the graph"
        );
        let m = g.edge_count();
        let n = g.node_count();
        let shared = Shared {
            g,
            rates,
            cross_cap: self.cross_cap,
            cover: RwLock::new(Cover {
                sched: Schedule::for_graph(g),
                z: full_bitset(m),
                z_in: full_bitset(m),
                zdeg: UncoveredDegrees::full(g),
            }),
        };
        let search = Search {
            current_key: vec![f64::INFINITY; n],
            stamp: vec![0; n],
            heap: BinaryHeap::new(),
            verified: vec![u32::MAX; n],
            round: 0,
            cache: FxHashMap::default(),
            scratch: PeelScratch::new(),
            oracle_calls: 0,
            reference,
        };
        (shared, search)
    }

    /// Runs CHITCHAT on `g` under the workload `rates` and returns a
    /// feasible schedule.
    ///
    /// Deterministic for any [`ChitChat::threads`] value: the fan-out only
    /// divides pure oracle work, never the greedy's decision order.
    pub fn run(&self, g: &CsrGraph, rates: &Rates) -> ChitChatResult {
        // Singleton costs precomputed per edge: the set-cover loop pays one
        // array load per probe instead of an endpoint recovery plus two
        // rate lookups.
        let costs = EdgeCosts::hybrid(g, rates);
        self.run_impl(g, rates, false, |e| costs.hybrid_cost(e))
    }

    /// The pre-optimization execution: serial exact seeding and
    /// re-validation, allocating `BinaryHeap` oracle, per-probe singleton
    /// costs.
    ///
    /// Kept only as a differential-testing oracle — `run` drives the
    /// identical greedy, so the two must agree (up to float tie-breaking,
    /// see the module docs); this module's tests compare them on every
    /// graph family.
    #[cfg(test)]
    fn run_reference(&self, g: &CsrGraph, rates: &Rates) -> ChitChatResult {
        self.run_impl(g, rates, true, |e| {
            let (u, v) = g.edge_endpoints(e);
            crate::cost::hybrid_edge_cost(rates, u, v)
        })
    }

    fn run_impl(
        &self,
        g: &CsrGraph,
        rates: &Rates,
        reference: bool,
        single_cost: impl Fn(EdgeId) -> f64,
    ) -> ChitChatResult {
        let (shared, mut search) = self.fresh_state(g, rates, reference);
        // The reference execution stays serial: a one-worker pool runs
        // every batch on this thread.
        let threads = if reference { 1 } else { self.threads };
        let sh = &shared;
        let ((hub_selections, singleton_selections), telemetry) = FanoutPool::scope(
            threads,
            || hub_peeler(sh, reference),
            |pool| drive(sh, &mut search, pool, &single_cost),
        );

        ChitChatResult {
            schedule: shared.cover.into_inner().sched,
            hub_selections,
            singleton_selections,
            oracle_calls: search.oracle_calls,
            telemetry,
        }
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

    fn fig2() -> (CsrGraph, Rates) {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1); // Art -> Charlie
        b.add_edge(1, 2); // Charlie -> Billie
        b.add_edge(0, 2); // Art -> Billie
        (b.build(), Rates::uniform(3, 1.0, 5.0))
    }

    #[test]
    fn fig2_feasible_and_no_worse_than_hybrid() {
        let (g, r) = fig2();
        let res = ChitChat::default().run(&g, &r);
        validate_bounded_staleness(&g, &res.schedule).unwrap();
        let ff = hybrid_schedule(&g, &r);
        assert!(schedule_cost(&g, &r, &res.schedule) <= schedule_cost(&g, &r, &ff) + 1e-9);
    }

    #[test]
    fn fig2_with_favorable_rates_uses_the_hub() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(0, 2);
        let g = b.build();
        // Hub cost rp(0)+rc(2) = 2.8 < hybrid 3.8 (see parallelnosy tests).
        let r = Rates::from_vecs(vec![1.0, 5.0, 5.0], vec![5.0, 5.0, 1.8]);
        let res = ChitChat::default().run(&g, &r);
        validate_bounded_staleness(&g, &res.schedule).unwrap();
        let c = schedule_cost(&g, &r, &res.schedule);
        assert!((c - 2.8).abs() < 1e-9, "expected hub schedule, cost {c}");
        assert!(res.schedule.is_covered(g.edge_id(0, 2)));
    }

    #[test]
    fn dense_triangle_cluster_prefers_hub() {
        let mut b = GraphBuilder::new();
        let w = 0u32;
        let y = 1u32;
        b.add_edge(w, y);
        for x in 2..12u32 {
            b.add_edge(x, w);
            b.add_edge(x, y);
        }
        let g = b.build();
        let r = Rates::uniform(12, 1.0, 3.0);
        let res = ChitChat::default().run(&g, &r);
        validate_bounded_staleness(&g, &res.schedule).unwrap();
        let ff = hybrid_schedule(&g, &r);
        let imp = predicted_improvement(&g, &r, &res.schedule, &ff);
        assert!(imp > 1.3, "expected clear hub win, improvement = {imp}");
        assert!(res.hub_selections >= 1);
        let covered = res.schedule.covered_edges().count();
        assert!(covered >= 9, "covered only {covered} cross edges");
    }

    #[test]
    fn never_worse_than_hybrid_on_random_graphs() {
        for seed in 0..3 {
            let g = erdos_renyi(60, 240, seed);
            let r = Rates::log_degree(&g, 5.0);
            let res = ChitChat::default().run(&g, &r);
            validate_bounded_staleness(&g, &res.schedule).unwrap();
            let ff = hybrid_schedule(&g, &r);
            let imp = predicted_improvement(&g, &r, &res.schedule, &ff);
            assert!(imp >= 1.0 - 1e-9, "seed {seed}: improvement {imp} < 1");
        }
    }

    #[test]
    fn beats_hybrid_on_clustered_graphs() {
        let g = copying(CopyingConfig {
            nodes: 400,
            follows_per_node: 6,
            copy_prob: 0.9,
            seed: 5,
        });
        let r = Rates::log_degree(&g, 5.0);
        let res = ChitChat::default().run(&g, &r);
        validate_bounded_staleness(&g, &res.schedule).unwrap();
        let ff = hybrid_schedule(&g, &r);
        let imp = predicted_improvement(&g, &r, &res.schedule, &ff);
        assert!(imp > 1.05, "no gain on clustered graph: {imp}");
    }

    #[test]
    fn all_edges_end_up_served() {
        let g = erdos_renyi(80, 400, 11);
        let r = Rates::log_degree(&g, 5.0);
        let res = ChitChat::default().run(&g, &r);
        assert_eq!(res.schedule.unassigned_count(), 0);
        assert_eq!(
            res.hub_selections + res.singleton_selections > 0,
            g.edge_count() > 0
        );
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        let r = Rates::uniform(0, 1.0, 1.0);
        let res = ChitChat::default().run(&g, &r);
        assert_eq!(res.schedule.edge_count(), 0);
        assert_eq!(res.hub_selections, 0);
    }

    #[test]
    fn oracle_calls_stay_bounded() {
        // Lazy re-validation should keep oracle calls within a small factor
        // of n + selections, far below eager Algorithm 1 (which recomputes
        // every affected hub per step).
        let g = copying(CopyingConfig {
            nodes: 500,
            follows_per_node: 6,
            copy_prob: 0.9,
            seed: 6,
        });
        let r = Rates::log_degree(&g, 5.0);
        let res = ChitChat::default().run(&g, &r);
        let selections = res.hub_selections + res.singleton_selections;
        let bound = 2 * (g.node_count() + 2 * selections) + 16;
        assert!(
            res.oracle_calls <= bound,
            "oracle calls {} exceed bound {bound}",
            res.oracle_calls
        );
    }

    #[test]
    fn seed_bounds_are_sound() {
        // The closed-form seed bound must under-estimate the exact oracle
        // key for every hub — that is what keeps lazy re-validation
        // admissible (a bound above the truth could starve the true argmin).
        for (g, r) in [
            fig2(),
            {
                let g = erdos_renyi(100, 500, 3);
                let r = Rates::log_degree(&g, 5.0);
                (g, r)
            },
            {
                let g = copying(CopyingConfig {
                    nodes: 250,
                    follows_per_node: 5,
                    copy_prob: 0.9,
                    seed: 9,
                });
                let r = Rates::log_degree(&g, 5.0);
                (g, r)
            },
        ] {
            let cc = ChitChat::default();
            let (shared, mut search) = cc.fresh_state(&g, &r, false);
            for w in g.nodes() {
                let bound = seed_lower_bound(&g, &r, w, cc.cross_cap);
                let exact = search.oracle_key(&shared, w);
                match (bound, exact) {
                    (Some(b), Some(k)) => {
                        assert!(b <= k + 1e-9, "hub {w}: bound {b} above exact key {k}")
                    }
                    (None, Some(k)) => panic!("hub {w}: no bound but exact key {k}"),
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn matches_reference_implementation() {
        // The optimized path must reproduce the pre-optimization greedy:
        // same cost, same selection counts, on every graph family.
        let worlds: Vec<(CsrGraph, Rates)> = vec![
            fig2(),
            {
                let g = erdos_renyi(80, 400, 11);
                let r = Rates::log_degree(&g, 5.0);
                (g, r)
            },
            {
                let g = copying(CopyingConfig {
                    nodes: 300,
                    follows_per_node: 6,
                    copy_prob: 0.9,
                    seed: 6,
                });
                let r = Rates::log_degree(&g, 5.0);
                (g, r)
            },
        ];
        for (i, (g, r)) in worlds.iter().enumerate() {
            let fast = ChitChat::default().run(g, r);
            let reference = ChitChat::default().run_reference(g, r);
            let cf = schedule_cost(g, r, &fast.schedule);
            let cr = schedule_cost(g, r, &reference.schedule);
            // Both drive the same argmin greedy; the fast path's skipped
            // (provably inert) recomputations can leave exact ties between
            // equally-priced candidates to resolve by node id instead of
            // by refresh order, so costs agree to tie-breaking noise, not
            // bit-for-bit.
            assert!(
                (cf - cr).abs() <= 1e-2 * cr.max(1.0),
                "world {i}: fast cost {cf} vs reference cost {cr}"
            );
            // Bound seeding and the inert-skip only ever *save* calls.
            assert!(
                fast.oracle_calls <= reference.oracle_calls,
                "world {i}: fast made more oracle calls ({} > {})",
                fast.oracle_calls,
                reference.oracle_calls
            );
        }
    }
}
