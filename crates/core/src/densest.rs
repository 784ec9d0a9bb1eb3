//! Weighted densest-subgraph oracle (§3.1, Lemma 1).
//!
//! CHITCHAT's greedy SETCOVER step needs, for every hub node `w`, the
//! hub-graph `G(X, w, Y)` minimizing cost-per-covered-edge
//! `p(W) = g(W) / |E(W) ∩ Z|` — equivalently, maximizing the weighted
//! density `d_w(S) = |E(S) ∩ Z| / g(S)`.
//!
//! The paper adapts the greedy peeling of Asahiro et al. / Charikar: start
//! from the full hub-graph and repeatedly delete the vertex minimizing the
//! *weighted degree* `deg(u) / g(u)`, returning the densest intermediate
//! subgraph. Lemma 1 proves this is a factor-2 approximation;
//! [`peel_weighted`] is the peel the oracle runs, and the property tests
//! check that bound against brute force.
//!
//! Node weights follow Algorithm 1's bookkeeping: a producer `x` whose push
//! `x → w` was already paid by an earlier step has `g(x) = 0` (similarly for
//! consumers with paid pulls), so peeling treats it as infinitely attractive.
//!
//! # One oracle
//!
//! The oracle is CHITCHAT's hot path — it runs once or twice per greedy
//! selection and once per streaming admission — so it has one entry,
//! [`densest`], built for that:
//!
//! * all working memory lives in a reusable [`PeelScratch`] arena;
//! * producer/consumer roles come straight off the CSR neighbor slices,
//!   with zero-contribution roles skipped via maintained uncovered-degree
//!   counts ([`UncoveredDegrees`]);
//! * cross edges are enumerated by walking only the *uncovered* out-edges
//!   through the `Z` bitset (64 edge ids per word) and locating them in
//!   the consumer list adaptively (binary probe for sparse producers,
//!   linear merge for dense ones);
//! * the peel runs on per-bucket lazy min-heaps over log-quantized
//!   weighted degrees in O((E + V) log bucket + buckets).
//!
//! Once the arena is warm, staging and peeling allocate nothing. [`Want`]
//! says whether the caller needs the whole [`HubSelection`] or only its
//! priority; [`Want::Key`] leaves the role and cross lists empty, and an
//! empty `Vec` does not allocate. [`LegCost`] picks the pricing.
//!
//! The bucket queue quantizes scores only to *narrow where the minimum
//! lives*: within a bucket, entries order on the exact
//! `(weighted degree, vertex)` key, so the peel order is bit-for-bit the
//! one a single lazy binary heap over that key produces. The test-only
//! `textbook` module keeps that heap peel and an allocating oracle built
//! on it as models; this module's tests compare the two paths under both
//! pricings, including the `g(u) = 0` "already paid ⇒ infinitely
//! attractive" pinned-hub edge case.

use piggyback_graph::{CsrGraph, EdgeId, NodeId};
use piggyback_workload::Rates;

use crate::bitset::BitSet;
use crate::cost::{hybrid_edge_cost, LegCost, LegState};
use crate::schedule::Schedule;

/// Output of the generic weighted peeling.
#[derive(Clone, Debug)]
pub struct PeelResult {
    /// Whether each vertex is in the returned (densest) subgraph.
    pub alive: Vec<bool>,
    /// Density `|edges(S)| / weight(S)` of the returned subgraph
    /// (`f64::INFINITY` when the subgraph has edges but zero weight).
    pub density: f64,
}

/// Greedy weighted peeling (Charikar's algorithm with weighted degrees):
/// the bucket-queue peel the oracle runs, over a throwaway arena.
///
/// `edges` are undirected countable edges between vertex indices; `weights`
/// are the node costs `g(u) ≥ 0`; `pinned` vertices are never deleted (used
/// for the hub `w`, which has weight 0 and anchors the structure).
///
/// Returns the densest subgraph encountered across all peeling steps.
/// Hot paths hold a [`PeelScratch`] and call [`densest`] instead.
pub fn peel_weighted(
    n: usize,
    edges: &[(u32, u32)],
    weights: &[f64],
    pinned: &[bool],
) -> PeelResult {
    assert_eq!(weights.len(), n);
    assert_eq!(pinned.len(), n);
    debug_assert!(weights.iter().all(|w| w.is_finite() && *w >= 0.0));
    let mut s = PeelScratch::new();
    s.edges.extend_from_slice(edges);
    s.weights.extend_from_slice(weights);
    s.pinned.extend_from_slice(pinned);
    let density = s.peel(n);
    PeelResult {
        alive: s.peel_alive,
        density,
    }
}

/// Peel priority `deg(u) / g(u)`; infinite for zero-weight ("already paid")
/// vertices so they are deleted last.
#[inline]
fn peel_score(d: usize, w: f64) -> f64 {
    if w <= 0.0 {
        f64::INFINITY
    } else {
        d as f64 / w
    }
}

/// Density `|edges| / weight`, infinite when edges remain at zero weight.
#[inline]
fn density_of(e: usize, w: f64) -> f64 {
    if w <= 0.0 {
        if e > 0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        e as f64 / w
    }
}

/// Total-ordered f64 wrapper (no NaNs by construction).
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct OrdF64(pub f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("NaN in ordering")
    }
}

/// Hard cap on quantized positive-score buckets; per call the cap also
/// scales with the hub-graph size so cursor sweeps stay O(V).
const MAX_SCORE_BUCKETS: usize = 4096;

/// One bucket-queue entry: `(weighted-degree score, vertex)`, min-ordered
/// via `Reverse`. Entries are lazily deleted — an entry is stale iff its
/// vertex died or its stored score no longer matches the vertex's current
/// score (scores strictly decrease on every update, so the live entry
/// always sorts first).
type PeelEntry = std::cmp::Reverse<(OrdF64, u32)>;

/// Per-bucket lazy min-heap; `clear()` keeps the backing buffer, so a
/// warm arena allocates nothing.
type PeelBucket = std::collections::BinaryHeap<PeelEntry>;

/// Reusable working memory for the allocation-free oracle.
///
/// One arena serves any number of [`densest`] calls;
/// buffers are cleared (capacity retained) between calls, so a warm arena
/// makes the oracle allocation-free. Each worker thread owns its own arena.
#[derive(Clone, Debug, Default)]
pub struct PeelScratch {
    // --- hub-graph construction ---
    xs: Vec<(NodeId, EdgeId)>,
    ys: Vec<(NodeId, EdgeId)>,
    /// Sorted producer/consumer node ids (parallel to `xs` / `ys`), kept
    /// separate so cross-edge detection can merge-intersect CSR slices.
    xs_nodes: Vec<NodeId>,
    ys_nodes: Vec<NodeId>,
    weights: Vec<f64>,
    pinned: Vec<bool>,
    edges: Vec<(u32, u32)>,
    edge_ids: Vec<EdgeId>,
    /// Per-edge displaced value (marginal mode only; empty in absolute
    /// mode). When non-empty the peel keeps the max-*savings* snapshot —
    /// `Σ value(alive edges) − Σ weight(alive vertices)` — instead of the
    /// max-density one.
    edge_values: Vec<f64>,
    // --- peel state ---
    adj_off: Vec<u32>,
    adj_cursor: Vec<u32>,
    adj: Vec<(u32, u32)>, // (other vertex, edge index), CSR over hub vertices
    deg: Vec<u32>,
    alive: Vec<bool>,
    edge_alive: Vec<bool>,
    /// Per-bucket lazy min-heaps; only buckets whose epoch matches the
    /// current call hold valid entries, so nothing is cleared between
    /// calls.
    bucket_heaps: Vec<PeelBucket>,
    bucket_epoch: Vec<u64>,
    epoch: u64,
    removal_order: Vec<u32>,
    peel_alive: Vec<bool>,
    incident: Vec<bool>,
}

/// Clears and refills a scratch vector without releasing its capacity.
#[inline]
fn reset<T: Clone>(v: &mut Vec<T>, n: usize, fill: T) {
    v.clear();
    v.resize(n, fill);
}

impl PeelScratch {
    /// Fresh (cold) arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket-queue peel over the hub-graph currently staged in
    /// `self.edges` / `self.weights` / `self.pinned` (and, in marginal
    /// mode, `self.edge_values`). Fills `self.peel_alive` with the best
    /// snapshot — the densest one, or with edge values the one of largest
    /// savings — and returns the best density seen (meaningful only
    /// without edge values).
    ///
    /// The quantized buckets only narrow where the minimum lives; each
    /// bucket is a small lazy min-heap on the exact `(score, vertex)` key,
    /// so every tie — equal finite scores from repeated rates, the
    /// `g(u) = 0 ⇒ +∞` "already paid" class — resolves exactly as one
    /// global lazy heap on that key does, in O(log bucket) instead of one
    /// global O(log V) with large constants.
    fn peel(&mut self, n: usize) -> f64 {
        let m = self.edges.len();

        // CSR adjacency over countable edges (counting sort, reused).
        reset(&mut self.adj_off, n + 1, 0);
        for &(a, b) in &self.edges {
            self.adj_off[a as usize + 1] += 1;
            self.adj_off[b as usize + 1] += 1;
        }
        for i in 0..n {
            self.adj_off[i + 1] += self.adj_off[i];
        }
        reset(&mut self.adj, 2 * m, (0, 0));
        self.adj_cursor.clear();
        self.adj_cursor.extend_from_slice(&self.adj_off[..n]);
        for (idx, &(a, b)) in self.edges.iter().enumerate() {
            let sa = self.adj_cursor[a as usize];
            self.adj[sa as usize] = (b, idx as u32);
            self.adj_cursor[a as usize] += 1;
            let sb = self.adj_cursor[b as usize];
            self.adj[sb as usize] = (a, idx as u32);
            self.adj_cursor[b as usize] += 1;
        }

        reset(&mut self.deg, n, 0);
        for i in 0..n {
            self.deg[i] = self.adj_off[i + 1] - self.adj_off[i];
        }
        reset(&mut self.alive, n, true);
        reset(&mut self.edge_alive, m, true);

        // Quantization: positive scores map monotonically onto integer
        // buckets by reinterpreting the f64 bit pattern (sign 0 ⇒ integer
        // order = float order) truncated to `mantissa_bits` sub-octave
        // bits. Bucket 0 holds score 0, the top bucket holds +∞ (weight-0
        // vertices: "already paid ⇒ peeled last"). The clamp keeps the
        // mapping monotone, which is all correctness needs.
        let mut wmax = 0.0f64;
        let mut smax = 0.0f64;
        for v in 0..n {
            if self.pinned[v] || self.weights[v] <= 0.0 {
                continue;
            }
            wmax = wmax.max(self.weights[v]);
            if self.deg[v] > 0 {
                smax = smax.max(peel_score(self.deg[v] as usize, self.weights[v]));
            }
        }
        let budget = MAX_SCORE_BUCKETS.min((4 * n).max(16));
        let smin = if wmax > 0.0 { 1.0 / wmax } else { 0.0 };
        let (shift, base, span) = if smax > 0.0 {
            let raw_span = |shift: u32| {
                let lo = smin.to_bits() >> shift;
                let hi = smax.to_bits() >> shift;
                (lo, (hi - lo + 1) as usize)
            };
            // Octave buckets clamped to the budget as the fallback…
            let (lo0, span0) = raw_span(52);
            let mut pick = (52u32, lo0, span0.min(budget));
            // …refined by mantissa bits while the span allows.
            for mantissa_bits in (0..=6u32).rev() {
                let shift = 52 - mantissa_bits;
                let (lo, span) = raw_span(shift);
                if span <= budget {
                    pick = (shift, lo, span);
                    break;
                }
            }
            pick
        } else {
            (52, 0, 1)
        };
        let inf_bucket = span + 1;
        let nbuckets = span + 2;
        let bucket_index = |d: u32, w: f64| -> usize {
            if w <= 0.0 {
                inf_bucket
            } else if d == 0 {
                0
            } else {
                let raw = (d as f64 / w).to_bits() >> shift;
                (raw.saturating_sub(base).min(span as u64 - 1) + 1) as usize
            }
        };

        // Epoch-tag buckets instead of clearing them: a bucket whose epoch
        // is stale is logically empty.
        self.epoch += 1;
        if self.bucket_heaps.len() < nbuckets {
            self.bucket_heaps.resize_with(nbuckets, PeelBucket::new);
            self.bucket_epoch.resize(nbuckets, 0);
        }
        let touch =
            |heaps: &mut Vec<PeelBucket>, epochs: &mut Vec<u64>, epoch: u64, b: usize| -> usize {
                if epochs[b] != epoch {
                    epochs[b] = epoch;
                    heaps[b].clear();
                }
                b
            };

        let mut remaining = 0usize;
        let mut cur = nbuckets;
        for v in 0..n {
            if self.pinned[v] {
                continue;
            }
            remaining += 1;
            let s = peel_score(self.deg[v] as usize, self.weights[v]);
            let b = touch(
                &mut self.bucket_heaps,
                &mut self.bucket_epoch,
                self.epoch,
                bucket_index(self.deg[v], self.weights[v]),
            );
            self.bucket_heaps[b].push(std::cmp::Reverse((OrdF64(s), v as u32)));
            cur = cur.min(b);
        }

        let mut alive_edges = m;
        let mut alive_weight: f64 = self.weights.iter().sum();
        let mut best_density = density_of(alive_edges, alive_weight);
        self.removal_order.clear();
        let mut best_prefix = 0usize;
        // Marginal mode: judge snapshots by *net savings* (total displaced
        // value minus total marginal weight), not by density. The densest
        // core of a hot hub is a small fraction of its admissible
        // structure; returning the max-savings snapshot captures in one
        // peel what density-guided draining would re-peel layer by layer.
        let has_values = !self.edge_values.is_empty();
        debug_assert!(!has_values || self.edge_values.len() == m);
        let mut alive_value: f64 = if has_values {
            self.edge_values.iter().sum()
        } else {
            0.0
        };
        let mut best_score = alive_value - alive_weight;

        while remaining > 0 {
            // Live minimum: advance past logically empty buckets, then pop
            // until an entry matches its vertex's current (alive) score.
            let v = loop {
                while self.bucket_epoch[cur] != self.epoch || self.bucket_heaps[cur].is_empty() {
                    cur += 1;
                    debug_assert!(cur < nbuckets, "live vertices but empty queue");
                }
                let std::cmp::Reverse((OrdF64(s), v)) =
                    self.bucket_heaps[cur].pop().expect("nonempty bucket");
                let vu = v as usize;
                if self.alive[vu] && s == peel_score(self.deg[vu] as usize, self.weights[vu]) {
                    break vu;
                }
            };
            self.alive[v] = false;
            remaining -= 1;
            alive_weight -= self.weights[v];
            for ai in self.adj_off[v]..self.adj_off[v + 1] {
                let (other, eidx) = self.adj[ai as usize];
                let ei = eidx as usize;
                if !self.edge_alive[ei] {
                    continue;
                }
                self.edge_alive[ei] = false;
                alive_edges -= 1;
                if has_values {
                    alive_value -= self.edge_values[ei];
                }
                let o = other as usize;
                debug_assert!(self.alive[o], "alive edge with dead endpoint");
                self.deg[o] -= 1;
                // Zero-weight vertices stay at +∞ (their entry stays
                // live); positive weights get a strictly smaller score, so
                // push the new entry and let the old one go stale.
                if !self.pinned[o] && self.weights[o] > 0.0 {
                    let s = peel_score(self.deg[o] as usize, self.weights[o]);
                    let b = touch(
                        &mut self.bucket_heaps,
                        &mut self.bucket_epoch,
                        self.epoch,
                        bucket_index(self.deg[o], self.weights[o]),
                    );
                    self.bucket_heaps[b].push(std::cmp::Reverse((OrdF64(s), o as u32)));
                    cur = cur.min(b);
                }
            }
            self.removal_order.push(v as u32);
            if has_values {
                let s = alive_value - alive_weight;
                if s > best_score {
                    best_score = s;
                    best_prefix = self.removal_order.len();
                }
            } else {
                let d = density_of(alive_edges, alive_weight);
                if d > best_density {
                    best_density = d;
                    best_prefix = self.removal_order.len();
                }
            }
        }

        reset(&mut self.peel_alive, n, true);
        for &v in &self.removal_order[..best_prefix] {
            self.peel_alive[v as usize] = false;
        }
        best_density
    }
}

/// A hub-graph selection produced by the oracle: the densest `G(X, w, Y)`
/// centered on `w` with respect to the uncovered set `Z`.
#[derive(Clone, Debug)]
pub struct HubSelection {
    /// The hub node.
    pub hub: NodeId,
    /// Producers whose pushes the selection schedules, with their leg
    /// edge ids `x → w`.
    pub xs: Vec<(NodeId, EdgeId)>,
    /// Consumers whose pulls the selection schedules, with their leg
    /// edge ids `w → y`.
    pub ys: Vec<(NodeId, EdgeId)>,
    /// Uncovered *cross* edges the selection covers through the hub, as
    /// `(edge id, x, y)` for `x → y` (the covered legs are the
    /// `Z`-members among `xs` / `ys`).
    pub cross: Vec<(EdgeId, NodeId, NodeId)>,
    /// Total number of uncovered edges covered: `Z`-member legs plus all
    /// of `cross`.
    pub covered: usize,
    /// Total weight `g(S)` (cost of the new pushes and pulls).
    pub weight: f64,
    /// `covered / weight`; infinite when every leg is already paid.
    pub density: f64,
}

impl HubSelection {
    /// Greedy SETCOVER priority: cost per newly covered element.
    pub fn cost_per_element(&self) -> f64 {
        if self.covered == 0 {
            f64::INFINITY
        } else {
            self.weight / self.covered as f64
        }
    }
}

/// Per-node counts of uncovered (`Z`-member) out- and in-edges, maintained
/// by the caller alongside its `Z` bitset.
///
/// The oracle uses them to skip producers and consumers that cannot
/// contribute a single countable edge — a producer `x` with no uncovered
/// out-edge has neither its leg `x → w` nor any cross edge in `Z`, so it
/// would enter the peel with degree 0 and be pruned from the selection
/// anyway. Late in a CHITCHAT run most nodes reach zero, turning the
/// strict-recompute tail from `O(Σ_x deg(x))` per call into `O(deg(w))`.
#[derive(Clone, Debug)]
pub struct UncoveredDegrees {
    out: Vec<u32>,
    in_: Vec<u32>,
}

impl UncoveredDegrees {
    /// Counts for a full `Z` (every edge uncovered).
    pub fn full(g: &CsrGraph) -> Self {
        let n = g.node_count();
        UncoveredDegrees {
            out: (0..n).map(|u| g.out_degree(u as NodeId) as u32).collect(),
            in_: (0..n).map(|v| g.in_degree(v as NodeId) as u32).collect(),
        }
    }

    /// Records that edge `u → v` left `Z`.
    #[inline]
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) {
        self.out[u as usize] -= 1;
        self.in_[v as usize] -= 1;
    }

    /// Uncovered out-degree of `u`.
    #[inline]
    pub fn out_deg(&self, u: NodeId) -> u32 {
        self.out[u as usize]
    }

    /// Uncovered in-degree of `v`.
    #[inline]
    pub fn in_deg(&self, v: NodeId) -> u32 {
        self.in_[v as usize]
    }
}

/// What a [`densest`] call hands back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Want {
    /// Only the priority: `covered`, `weight` and `density` as the full
    /// selection reports them, with empty `xs`, `ys` and `cross`. This is
    /// what CHITCHAT's queue maintenance runs; a warm arena allocates
    /// nothing for it.
    Key,
    /// The whole selection, role and cross lists included.
    Selection,
}

/// The densest hub-graph centered on `w` under the current schedule and
/// uncovered set `z`, following Algorithm 1's oracle:
///
/// * `X` = in-neighbors of `w` whose leg `x → w` is not covered through a
///   hub, with weight `rp(x)` (0 if the push is already in `H`);
/// * `Y` = out-neighbors of `w` whose leg `w → y` is not covered, with
///   weight `rc(y)` (0 if the pull is already in `L`);
/// * countable edges = `Z`-members among legs and cross edges `x → y`;
///   at most `cross_cap` cross edges are materialized (§3.2's bound `b`).
///
/// Covered legs are excluded: pushing over an edge already covered
/// through another hub would undo that optimization (the same condition
/// as PARALLELNOSY's candidate selection). Roles with no uncovered
/// incident edge at all are skipped via `zdeg` (which must be consistent
/// with `z`): they would enter the peel with degree 0 and be pruned from
/// the selection anyway. A one-sided hub-graph (only pushes into `w`, or
/// only pulls out of it) is a degenerate but valid candidate, equivalent
/// to a bundle of direct edges.
///
/// `leg_cost` prices the legs (see [`LegCost`]); under
/// [`LegCost::Marginal`] the returned weight and density are marginal too.
/// Returns `None` when no candidate covers at least one uncovered edge.
/// All working memory comes from `scratch`.
#[allow(clippy::too_many_arguments)]
pub fn densest(
    g: &CsrGraph,
    rates: &Rates,
    w: NodeId,
    sched: &Schedule,
    z: &BitSet,
    zdeg: &UncoveredDegrees,
    cross_cap: usize,
    leg_cost: LegCost,
    want: Want,
    scratch: &mut PeelScratch,
) -> Option<HubSelection> {
    let hub_vertex = stage_and_peel(g, rates, w, sched, z, zdeg, cross_cap, leg_cost, scratch)?;
    materialize_selection(w, scratch, hub_vertex, want)
}

/// [`densest`] under [`LegCost::Absolute`] with the whole selection, in
/// the 8-argument form the benchmark's traced `core.densest.peel_us`
/// probe calls. It goes when that probe moves to [`densest`].
#[allow(clippy::too_many_arguments)]
pub fn densest_hub_graph_scratch(
    g: &CsrGraph,
    rates: &Rates,
    w: NodeId,
    sched: &Schedule,
    z: &BitSet,
    zdeg: &UncoveredDegrees,
    cross_cap: usize,
    scratch: &mut PeelScratch,
) -> Option<HubSelection> {
    densest(
        g,
        rates,
        w,
        sched,
        z,
        zdeg,
        cross_cap,
        LegCost::Absolute,
        Want::Selection,
        scratch,
    )
}

/// Front half of [`densest`]: stages hub `w`'s graph into `scratch` and
/// runs the bucket peel. Returns the pinned hub vertex's index, or `None`
/// when no countable edge exists.
#[allow(clippy::too_many_arguments)]
fn stage_and_peel(
    g: &CsrGraph,
    rates: &Rates,
    w: NodeId,
    sched: &Schedule,
    z: &BitSet,
    zdeg: &UncoveredDegrees,
    cross_cap: usize,
    leg_cost: LegCost,
    scratch: &mut PeelScratch,
) -> Option<u32> {
    let xs_all = g.in_neighbors(w);
    let ys_all = g.out_neighbors(w);
    if xs_all.is_empty() && ys_all.is_empty() {
        return None;
    }

    let PeelScratch {
        xs_nodes,
        ys_nodes,
        xs,
        ys,
        weights,
        pinned,
        edges,
        edge_ids,
        edge_values,
        ..
    } = scratch;

    xs_nodes.clear();
    xs.clear();
    for (idx, &x) in xs_all.iter().enumerate() {
        // No uncovered out-edge ⇒ neither the leg x→w nor any cross edge
        // can be countable; the peel would drop x as degree-0.
        if zdeg.out_deg(x) == 0 {
            continue;
        }
        let e = g.in_edge_id_at(w, idx);
        if !sched.is_covered(e) {
            xs_nodes.push(x);
            xs.push((x, e));
        }
    }
    ys_nodes.clear();
    ys.clear();
    for (idx, &y) in ys_all.iter().enumerate() {
        // Specular: the leg w→y and all crosses x→y are in-edges of y.
        if zdeg.in_deg(y) == 0 {
            continue;
        }
        let e = g.out_edge_id_at(w, idx);
        if !sched.is_covered(e) {
            ys_nodes.push(y);
            ys.push((y, e));
        }
    }
    if xs.is_empty() && ys.is_empty() {
        return None;
    }

    let nx = xs.len();
    let ny = ys.len();
    let n = nx + ny + 1;
    let hub_vertex = (nx + ny) as u32;

    weights.clear();
    // Legs here are uncovered, so an unpaid one out of `Z` was assigned
    // the other way.
    let state = |paid: bool, leg: EdgeId| LegState::new(paid, !z.contains(leg));
    for &(x, leg) in xs.iter() {
        weights.push(leg_cost.leg(rates, x, w, true, state(sched.is_push(leg), leg)));
    }
    for &(y, leg) in ys.iter() {
        weights.push(leg_cost.leg(rates, w, y, false, state(sched.is_pull(leg), leg)));
    }
    weights.push(0.0); // hub
    reset(pinned, n, false);
    pinned[hub_vertex as usize] = true;

    edges.clear();
    edge_ids.clear();
    edge_values.clear();
    // Marginal mode counts only cross edges as elements: legs are means,
    // not prizes — a leg's own service is cost-neutral by construction
    // (its sunk hybrid price is netted out of its weight), so letting legs
    // count would reward free-leg-only snapshots with no savings at all
    // (infinite density, zero cross). Absolute mode keeps Algorithm 1's
    // accounting, where covering a leg displaces a singleton selection.
    if leg_cost == LegCost::Absolute {
        for (i, &(_, leg)) in xs.iter().enumerate() {
            if z.contains(leg) {
                edges.push((i as u32, hub_vertex));
                edge_ids.push(leg);
            }
        }
        for (j, &(_, leg)) in ys.iter().enumerate() {
            if z.contains(leg) {
                edges.push(((nx + j) as u32, hub_vertex));
                edge_ids.push(leg);
            }
        }
    }
    // Cross edges: walk each producer's *uncovered* out-edges straight off
    // the `Z` bitset (64 edge ids per word — a node's out-edges are one
    // contiguous id block) and locate them in the sorted consumer list.
    // The enumeration order is identical to scanning the full neighbor
    // slice; covered edges simply never surface. Producers with few
    // uncovered edges probe the consumer list by binary search; the rest
    // merge linearly — without the split, a hub with thousands of
    // producers pays O(|X|·|Y|) pointer stepping per call.
    let mut cross_budget = cross_cap;
    'producers: for (i, &x) in xs_nodes.iter().enumerate() {
        if cross_budget == 0 {
            break;
        }
        let (lo, hi) = g.out_edge_id_range(x);
        if (zdeg.out_deg(x) as usize) * 16 < ny {
            for e in z.iter_range(lo, hi) {
                let t = g.edge_target(e);
                if let Ok(j) = ys_nodes.binary_search(&t) {
                    edges.push((i as u32, (nx + j) as u32));
                    edge_ids.push(e);
                    if leg_cost == LegCost::Marginal {
                        edge_values.push(hybrid_edge_cost(rates, x, t));
                    }
                    cross_budget -= 1;
                    if cross_budget == 0 {
                        break 'producers;
                    }
                }
            }
        } else {
            let mut j = 0usize;
            for e in z.iter_range(lo, hi) {
                let t = g.edge_target(e);
                while j < ny && ys_nodes[j] < t {
                    j += 1;
                }
                if j == ny {
                    break;
                }
                if ys_nodes[j] == t {
                    edges.push((i as u32, (nx + j) as u32));
                    edge_ids.push(e);
                    if leg_cost == LegCost::Marginal {
                        edge_values.push(hybrid_edge_cost(rates, x, t));
                    }
                    j += 1;
                    cross_budget -= 1;
                    if cross_budget == 0 {
                        break 'producers;
                    }
                }
            }
        }
    }
    if edges.is_empty() {
        return None;
    }
    scratch.peel(n);
    Some(hub_vertex)
}

/// Back half of [`densest`]: turns surviving peel vertices into a
/// [`HubSelection`], pruning roles with no alive countable edge (a vertex
/// with zero alive incident edges only adds weight; peeling usually
/// removes these, but weight-0 vertices can linger harmlessly). One
/// accumulation serves both [`Want`]s, so the key is bit-identical to the
/// full selection's [`HubSelection::cost_per_element`].
fn materialize_selection(
    w: NodeId,
    scratch: &mut PeelScratch,
    hub_vertex: u32,
    want: Want,
) -> Option<HubSelection> {
    let PeelScratch {
        xs,
        ys,
        weights,
        edges,
        edge_ids,
        peel_alive: alive,
        incident,
        ..
    } = scratch;
    let full = want == Want::Selection;
    let nx = xs.len();
    reset(incident, nx + ys.len() + 1, false);
    let mut covered = 0usize;
    let mut cross: Vec<(EdgeId, NodeId, NodeId)> = Vec::new();
    for (idx, &(a, b)) in edges.iter().enumerate() {
        if alive[a as usize] && alive[b as usize] {
            covered += 1;
            incident[a as usize] = true;
            incident[b as usize] = true;
            if full && a != hub_vertex && b != hub_vertex {
                // A cross edge joins producer `a` to consumer `b - nx`.
                cross.push((edge_ids[idx], xs[a as usize].0, ys[b as usize - nx].0));
            }
        }
    }
    if covered == 0 {
        return None;
    }
    let mut weight = 0.0f64;
    let mut xs_out: Vec<(NodeId, EdgeId)> = Vec::new();
    for (i, &role) in xs.iter().enumerate() {
        if alive[i] && incident[i] {
            if full {
                xs_out.push(role);
            }
            weight += weights[i];
        }
    }
    let mut ys_out: Vec<(NodeId, EdgeId)> = Vec::new();
    for (j, &role) in ys.iter().enumerate() {
        if alive[nx + j] && incident[nx + j] {
            if full {
                ys_out.push(role);
            }
            weight += weights[nx + j];
        }
    }
    let density = if weight <= 0.0 {
        f64::INFINITY
    } else {
        covered as f64 / weight
    };
    Some(HubSelection {
        hub: w,
        xs: xs_out,
        ys: ys_out,
        cross,
        covered,
        weight,
        density,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::textbook;
    use piggyback_graph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Brute-force weighted densest subgraph over all vertex subsets.
    fn brute_force(n: usize, edges: &[(u32, u32)], weights: &[f64]) -> f64 {
        let mut best = 0.0f64;
        for mask in 1u32..(1 << n) {
            let e = edges
                .iter()
                .filter(|&&(a, b)| mask & (1 << a) != 0 && mask & (1 << b) != 0)
                .count();
            let w: f64 = (0..n)
                .filter(|&v| mask & (1 << v) != 0)
                .map(|v| weights[v])
                .sum();
            let d = density_of(e, w);
            if d > best {
                best = d;
            }
        }
        best
    }

    type Peel = fn(usize, &[(u32, u32)], &[f64], &[bool]) -> PeelResult;

    /// The production peel and the textbook heap peel (density mode).
    fn both_peels() -> [Peel; 2] {
        [peel_weighted, |n, edges, weights, pinned| {
            textbook::peel_heap(n, edges, weights, pinned, &[])
        }]
    }

    /// The production bucket peel with per-edge values staged, as the
    /// marginal oracle runs it.
    fn peel_bucket_valued(
        n: usize,
        edges: &[(u32, u32)],
        weights: &[f64],
        pinned: &[bool],
        values: &[f64],
    ) -> PeelResult {
        let mut s = PeelScratch::new();
        s.edges.extend_from_slice(edges);
        s.weights.extend_from_slice(weights);
        s.pinned.extend_from_slice(pinned);
        s.edge_values.extend_from_slice(values);
        let density = s.peel(n);
        PeelResult {
            alive: s.peel_alive,
            density,
        }
    }

    #[test]
    fn peel_finds_exact_on_clique_plus_pendant() {
        // Triangle {0,1,2} (unit weights) plus an *expensive* pendant vertex
        // 3, so the triangle (3 edges / weight 3 = 1) strictly beats the
        // full graph (4 edges / weight 5 = 0.8).
        let edges = vec![(0, 1), (1, 2), (0, 2), (2, 3)];
        let weights = vec![1.0, 1.0, 1.0, 2.0];
        let pinned = vec![false; 4];
        for peel in both_peels() {
            let r = peel(4, &edges, &weights, &pinned);
            assert!((r.density - 1.0).abs() < 1e-12);
            assert_eq!(r.alive, vec![true, true, true, false]);
        }
    }

    #[test]
    fn weights_steer_the_peel() {
        // Same structure, but triangle vertices are expensive.
        let edges = vec![(0, 1), (1, 2), (0, 2)];
        let weights = vec![10.0, 10.0, 10.0];
        for peel in both_peels() {
            let r = peel(3, &edges, &weights, &[false; 3]);
            assert!((r.density - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn pinned_vertices_survive() {
        let edges = vec![(0, 1)];
        let weights = vec![0.0, 100.0];
        let pinned = vec![true, false];
        for peel in both_peels() {
            let r = peel(2, &edges, &weights, &pinned);
            assert!(r.alive[0], "pinned vertex was peeled");
        }
    }

    #[test]
    fn zero_weight_gives_infinite_density() {
        let edges = vec![(0, 1)];
        let weights = vec![0.0, 0.0];
        for peel in both_peels() {
            let r = peel(2, &edges, &weights, &[false; 2]);
            assert!(r.density.is_infinite());
        }
    }

    #[test]
    fn factor_two_bound_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..50 {
            let n = 2 + (trial % 7);
            let mut edges = Vec::new();
            for a in 0..n as u32 {
                for b in (a + 1)..n as u32 {
                    if rng.random_bool(0.5) {
                        edges.push((a, b));
                    }
                }
            }
            let weights: Vec<f64> = (0..n).map(|_| rng.random_range(0.1..4.0)).collect();
            let opt = brute_force(n, &edges, &weights);
            let got = peel_weighted(n, &edges, &weights, &vec![false; n]).density;
            let got_heap = textbook::peel_heap(n, &edges, &weights, &vec![false; n], &[]).density;
            assert_eq!(got, got_heap, "trial {trial}: implementations differ");
            if opt.is_infinite() {
                continue;
            }
            assert!(
                got * 2.0 + 1e-9 >= opt,
                "trial {trial}: peel {got} below half of optimum {opt}"
            );
        }
    }

    /// The bucket queue must reproduce the textbook heap peel bit-for-bit,
    /// including the pinned-hub edge case where `g(u) = 0` vertices
    /// ("already paid" legs) score +∞ and are peeled last, under both
    /// snapshot rules: max density (absolute pricing) and max savings
    /// (marginal pricing, where each edge carries a value).
    #[test]
    fn peel_orders_agree_with_reference() {
        let mut rng = StdRng::seed_from_u64(1234);
        for trial in 0..200 {
            let n = 2 + (trial % 12);
            let mut edges = Vec::new();
            for a in 0..n as u32 {
                for b in (a + 1)..n as u32 {
                    if rng.random_bool(0.4) {
                        edges.push((a, b));
                    }
                }
            }
            // A mix of zero weights (paid legs), tiny, huge, and equal
            // weights to exercise ties, the ∞ bucket, and wide score
            // ranges within one call.
            let weights: Vec<f64> = (0..n)
                .map(|_| match rng.random_range(0u32..5) {
                    0 => 0.0,
                    1 => rng.random_range(1e-6..1e-3),
                    2 => rng.random_range(0.5..2.0),
                    3 => 1.0,
                    _ => rng.random_range(1e3..1e6),
                })
                .collect();
            let mut pinned = vec![false; n];
            if n > 2 {
                pinned[rng.random_range(0..n)] = true;
            }
            let a = peel_weighted(n, &edges, &weights, &pinned);
            let b = textbook::peel_heap(n, &edges, &weights, &pinned, &[]);
            assert_eq!(
                a.alive, b.alive,
                "trial {trial}: snapshots differ (weights {weights:?})"
            );
            assert_eq!(a.density, b.density, "trial {trial}: densities differ");
            // Marginal pricing: the same peel order, judged by savings.
            let values: Vec<f64> = edges
                .iter()
                .map(|_| match rng.random_range(0u32..3) {
                    0 => rng.random_range(1e-3..1.0),
                    1 => 1.0,
                    _ => rng.random_range(1.0..1e3),
                })
                .collect();
            let a = peel_bucket_valued(n, &edges, &weights, &pinned, &values);
            let b = textbook::peel_heap(n, &edges, &weights, &pinned, &values);
            assert_eq!(
                a.alive, b.alive,
                "trial {trial}: savings snapshots differ (weights {weights:?}, values {values:?})"
            );
        }
    }

    #[test]
    fn zero_weight_nodes_outlast_positive_ones() {
        // Path 0-1-2-3 where 1 is "already paid": peeling must exhaust the
        // positive-weight vertices before touching vertex 1.
        let edges = vec![(0, 1), (1, 2), (2, 3)];
        let weights = vec![5.0, 0.0, 5.0, 5.0];
        let r = peel_weighted(4, &edges, &weights, &[false; 4]);
        // The densest snapshot keeps the zero-weight vertex (free edges).
        assert!(r.alive[1], "zero-weight vertex peeled too early");
        assert!(r.density.is_finite());
    }

    /// Figure 2's triangle: Art(0) → Charlie(1) → Billie(2), Art → Billie.
    /// Rates chosen so the full hub is the densest candidate: the hub costs
    /// rp(0) + rc(2) = 2.8 for 3 edges (density ≈ 1.07), beating the
    /// push-leg-only subgraph (1 edge / 1.0).
    fn fig2() -> (CsrGraph, Rates) {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(0, 2);
        let g = b.build();
        let r = Rates::from_vecs(vec![1.0, 5.0, 5.0], vec![5.0, 5.0, 1.8]);
        (g, r)
    }

    fn full_z(g: &CsrGraph) -> BitSet {
        let mut z = BitSet::new(g.edge_count());
        for (e, _, _) in g.edges() {
            z.insert(e);
        }
        z
    }

    /// Degree counts consistent with an arbitrary `z` (tests only; the
    /// algorithms maintain them incrementally).
    fn zdeg_from(g: &CsrGraph, z: &BitSet) -> UncoveredDegrees {
        let mut d = UncoveredDegrees::full(g);
        for (e, u, v) in g.edges() {
            if !z.contains(e) {
                d.remove_edge(u, v);
            }
        }
        d
    }

    /// Runs the production oracle and the textbook one under `leg_cost`
    /// and asserts they agree bit for bit.
    fn oracle_both(
        g: &CsrGraph,
        r: &Rates,
        w: NodeId,
        sched: &Schedule,
        z: &BitSet,
        cross_cap: usize,
        leg_cost: LegCost,
    ) -> Option<HubSelection> {
        let a = textbook::densest_hub_graph(g, r, w, sched, z, cross_cap, leg_cost);
        let mut scratch = PeelScratch::new();
        let zdeg = zdeg_from(g, z);
        let b = densest(
            g,
            r,
            w,
            sched,
            z,
            &zdeg,
            cross_cap,
            leg_cost,
            Want::Selection,
            &mut scratch,
        );
        match (&a, &b) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert_eq!(a.xs, b.xs, "hub {w}: xs differ");
                assert_eq!(a.ys, b.ys, "hub {w}: ys differ");
                assert_eq!(a.cross, b.cross, "hub {w}: cross differ");
                assert_eq!(a.covered, b.covered);
                assert_eq!(a.weight, b.weight);
                assert_eq!(a.density, b.density);
            }
            _ => panic!("hub {w}: one oracle found a selection, the other did not"),
        }
        b
    }

    /// [`oracle_both`] under Algorithm 1's absolute pricing.
    fn oracle_abs(
        g: &CsrGraph,
        r: &Rates,
        w: NodeId,
        sched: &Schedule,
        z: &BitSet,
        cross_cap: usize,
    ) -> Option<HubSelection> {
        oracle_both(g, r, w, sched, z, cross_cap, LegCost::Absolute)
    }

    /// Random mid-run state: some edges pushed, some pulled, some covered
    /// (each with probability `1 / spread`), all of those out of `Z`.
    fn mid_run(g: &CsrGraph, seed: u64, spread: u32) -> (Schedule, BitSet) {
        let mut sched = Schedule::for_graph(g);
        let mut z = full_z(g);
        let mut rng = StdRng::seed_from_u64(seed);
        for (e, _, _) in g.edges() {
            match rng.random_range(0u32..spread) {
                0 => {
                    sched.set_push(e);
                    z.remove(e);
                }
                1 => {
                    sched.set_pull(e);
                    z.remove(e);
                }
                2 => {
                    sched.set_covered(e, 0);
                    z.remove(e);
                }
                _ => {}
            }
        }
        (sched, z)
    }

    #[test]
    fn hub_oracle_finds_the_fig2_hub() {
        let (g, r) = fig2();
        let sched = Schedule::for_graph(&g);
        let z = full_z(&g);
        let sel = oracle_abs(&g, &r, 1, &sched, &z, usize::MAX).expect("hub expected");
        assert_eq!(sel.hub, 1);
        assert_eq!(sel.xs, vec![(0, g.edge_id(0, 1))]);
        assert_eq!(sel.ys, vec![(2, g.edge_id(1, 2))]);
        // Covers all three edges at cost rp(0) + rc(2) = 2.8.
        assert_eq!(sel.covered, 3);
        assert_eq!(sel.cross, vec![(g.edge_id(0, 2), 0, 2)]);
        assert!((sel.weight - 2.8).abs() < 1e-12);
        assert!((sel.density - 3.0 / 2.8).abs() < 1e-12);
        assert!((sel.cost_per_element() - 2.8 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn one_sided_hubs_degenerate_to_direct_bundles() {
        let (g, r) = fig2();
        let sched = Schedule::for_graph(&g);
        let z = full_z(&g);
        // Node 0 has no producers: its candidate is pull-only (covers its
        // out-legs directly), with no cross edges.
        let sel = oracle_abs(&g, &r, 0, &sched, &z, usize::MAX).unwrap();
        assert!(sel.xs.is_empty());
        assert!(!sel.ys.is_empty());
        // Node 2 has no consumers: push-only bundle.
        let sel = oracle_abs(&g, &r, 2, &sched, &z, usize::MAX).unwrap();
        assert!(sel.ys.is_empty());
        assert!(!sel.xs.is_empty());
        // An isolated node yields nothing.
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.reserve_nodes(3);
        let g2 = b.build();
        let r2 = Rates::uniform(3, 1.0, 1.0);
        let z2 = full_z(&g2);
        let s2 = Schedule::for_graph(&g2);
        assert!(oracle_abs(&g2, &r2, 2, &s2, &z2, usize::MAX).is_none());
    }

    #[test]
    fn paid_legs_have_zero_weight() {
        let (g, r) = fig2();
        let mut sched = Schedule::for_graph(&g);
        let mut z = full_z(&g);
        // Pretend an earlier step paid the push 0→1.
        let e01 = g.edge_id(0, 1);
        sched.set_push(e01);
        z.remove(e01);
        let sel = oracle_abs(&g, &r, 1, &sched, &z, usize::MAX).unwrap();
        // Remaining cost is only the pull rc(2) = 1.8 for 2 covered edges.
        assert_eq!(sel.covered, 2);
        assert!((sel.weight - 1.8).abs() < 1e-12);
    }

    #[test]
    fn covered_legs_excluded() {
        let (g, r) = fig2();
        let mut sched = Schedule::for_graph(&g);
        let mut z = full_z(&g);
        // Leg 0→1 covered via some other hub: 0 can no longer feed hub 1.
        let e01 = g.edge_id(0, 1);
        sched.set_covered(e01, 99);
        z.remove(e01);
        let sel = oracle_abs(&g, &r, 1, &sched, &z, usize::MAX);
        // Without x=0, hub 1 can still pull for consumer 2 (leg 1→2 in Z),
        // covering just that edge.
        let sel = sel.expect("pull-only hub still useful");
        assert!(sel.xs.is_empty());
        assert_eq!(sel.ys, vec![(2, g.edge_id(1, 2))]);
        assert_eq!(sel.covered, 1);
        assert!(sel.cross.is_empty());
    }

    #[test]
    fn cross_cap_limits_edges() {
        // Star hub with many producers and one consumer; cap cross edges.
        let mut b = GraphBuilder::new();
        let w = 0u32;
        let y = 1u32;
        b.add_edge(w, y);
        for x in 2..12u32 {
            b.add_edge(x, w);
            b.add_edge(x, y);
        }
        let g = b.build();
        let r = Rates::uniform(12, 1.0, 5.0);
        let sched = Schedule::for_graph(&g);
        let z = full_z(&g);
        let unlimited = oracle_abs(&g, &r, w, &sched, &z, usize::MAX).unwrap();
        let capped = oracle_abs(&g, &r, w, &sched, &z, 3).unwrap();
        assert!(unlimited.covered > capped.covered);
    }

    #[test]
    fn useless_roles_pruned() {
        // Producer 3 follows the hub but has no cross edges and its leg is
        // already covered ⇒ it must not appear in the selection.
        let (g, r) = fig2();
        let sched = Schedule::for_graph(&g);
        let z = full_z(&g);
        let sel = oracle_abs(&g, &r, 1, &sched, &z, usize::MAX).unwrap();
        for &(x, _) in &sel.xs {
            assert!(g.has_edge(x, 1));
        }
    }

    #[test]
    fn key_only_oracle_matches_full_oracle_bitwise() {
        use piggyback_graph::gen::erdos_renyi;
        let mut scratch = PeelScratch::new();
        for seed in 0..3u64 {
            let g = erdos_renyi(50, 260, seed);
            let r = Rates::log_degree(&g, 5.0);
            let (sched, z) = mid_run(&g, seed + 100, 8);
            let zdeg = zdeg_from(&g, &z);
            for leg_cost in [LegCost::Absolute, LegCost::Marginal] {
                for w in 0..g.node_count() as NodeId {
                    let mut call = |want| {
                        densest(
                            &g,
                            &r,
                            w,
                            &sched,
                            &z,
                            &zdeg,
                            50,
                            leg_cost,
                            want,
                            &mut scratch,
                        )
                    };
                    let full = call(Want::Selection);
                    let key = call(Want::Key);
                    let summary = |s: &Option<HubSelection>| {
                        s.as_ref()
                            .map(|s| (s.cost_per_element(), s.covered, s.weight, s.density))
                    };
                    assert_eq!(summary(&full), summary(&key), "{leg_cost:?} hub {w}");
                    if let Some(key) = key {
                        assert!(key.xs.is_empty() && key.ys.is_empty() && key.cross.is_empty());
                    }
                }
            }
        }
    }

    #[test]
    fn oracles_agree_on_random_graphs_mid_run() {
        // Agreement must hold in arbitrary mid-run states, not only on
        // fresh schedules: pay some legs, cover some edges, shrink Z.
        use piggyback_graph::gen::erdos_renyi;
        for seed in 0..3u64 {
            let g = erdos_renyi(40, 220, seed);
            let r = Rates::log_degree(&g, 5.0);
            let (sched, z) = mid_run(&g, seed, 10);
            for leg_cost in [LegCost::Absolute, LegCost::Marginal] {
                for w in 0..g.node_count() as NodeId {
                    oracle_both(&g, &r, w, &sched, &z, usize::MAX, leg_cost);
                    oracle_both(&g, &r, w, &sched, &z, 7, leg_cost);
                }
            }
        }
    }
}
