//! The throughput cost model of §2.1, and its multi-server pricing.
//!
//! ```text
//! c(H, L) = Σ_{u→v ∈ H} rp(u)  +  Σ_{u→v ∈ L} rc(v)
//! ```
//!
//! Predicted throughput is the inverse of cost (§4.2); the *predicted
//! improvement ratio* of algorithm A over a baseline B is
//! `t_A / t_B = c_B / c_A`.
//!
//! The flat model charges every scheduled message the same. On a real
//! cluster the quantity that matters is *messages between data stores*
//! (the paper's objective): Algorithm 3 sends one batched message per
//! distinct server a request touches, own view included (§4.3, Figures
//! 7–8), so views sharing a server share a message.
//! [`CostModel::with_topology`] prices a schedule that way against a
//! `user → server` map, and [`CostModel::batched`] is the one
//! multi-server number in the repository — what the store bills and what
//! measured messages per request agree with:
//!
//! ```text
//! batched = Σ_u rp(u) · |servers({u} ∪ h[u])|  +  rc(u) · |servers({u} ∪ l[u])|
//! ```
//!
//! # The hybrid rule
//!
//! This module is the one place FEEDINGFRENZY's rule is written: serve
//! `u → v` directly by push iff `rp(u) <= rc(v)` ([`hybrid_pushes`]), at
//! `c*(u → v) = min(rp(u), rc(v))` ([`hybrid_edge_cost`]); a hub leg's
//! price nets that out of a push or a pull ([`LegCost::leg`]). Callers
//! pass the endpoints their walk already holds.

use piggyback_graph::{CsrGraph, NodeId};
use piggyback_workload::Rates;

use crate::schedule::Schedule;

/// Panics unless `rates` cover every node of `g`: the optimizers and the
/// hybrid rule read both endpoints' rates of every edge.
pub(crate) fn assert_rates_cover(g: &CsrGraph, rates: &Rates) {
    assert!(
        rates.len() >= g.node_count(),
        "rates cover {} users, graph has {}",
        rates.len(),
        g.node_count()
    );
}

/// Whether the hybrid policy of Silberstein et al. serves edge `u → v` by
/// a push (else by a pull): `rp(u) <= rc(v)`, so ties go to push.
#[inline]
pub fn hybrid_pushes(rates: &Rates, u: NodeId, v: NodeId) -> bool {
    rates.rp(u) <= rates.rc(v)
}

/// Cost of serving edge `u → v` directly under the hybrid policy: the
/// cheaper of a push and a pull, `c*(u → v) = min(rp(u), rc(v))`.
#[inline]
pub fn hybrid_edge_cost(rates: &Rates, u: NodeId, v: NodeId) -> f64 {
    rates.rp(u).min(rates.rc(v))
}

/// Where a hub leg stands in the schedule being built.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LegState {
    /// Already assigned the orientation the hub needs: free.
    Paid,
    /// Assigned the other orientation: the hub needs a second assignment.
    Other,
    /// Not served yet: the hybrid rule would serve it if no hub does.
    Unassigned,
}

impl LegState {
    /// The state of a leg already assigned the orientation the hub needs
    /// (`paid`), else assigned the other way (`other`), else unassigned.
    #[inline]
    pub fn new(paid: bool, other: bool) -> Self {
        match (paid, other) {
            (true, _) => LegState::Paid,
            (false, true) => LegState::Other,
            (false, false) => LegState::Unassigned,
        }
    }
}

/// How a hub-graph leg is priced.
///
/// * [`LegCost::Absolute`] is Algorithm 1's bookkeeping: an unpaid leg
///   costs the full push/pull it schedules (`rp(x)` / `rc(y)`). This is
///   what the batch greedy compares against singleton candidates.
/// * [`LegCost::Marginal`] nets out the *sunk* hybrid cost: an unassigned
///   leg will be served one way or another — if not through this hub, then
///   by the hybrid tail at `min(rp, rc)` — so its true incremental price is
///   only the orientation surcharge `rp(x) − min(rp(x), rc(w))` (resp.
///   `rc(y) − min(rp(w), rc(y))`): §3.2's `cX`/`cY`. Legs already assigned
///   the *other* orientation keep their absolute price (their hybrid cost
///   is spent and the hub needs a second assignment), and paid legs stay
///   free.
///
/// The admission inequality is identical under both modes (the netted
/// hybrid terms move from one side to the other), but the peel *optimizes*
/// what it prices: marginal mode surfaces cross-rich subgraphs whose legs
/// are cheap-as-hybrid even when their absolute weight drowns the quotient
/// — exactly the selections the batch greedy only reaches after its
/// interleaved singleton picks have paid those legs one by one. Streaming
/// CHITCHAT and PARALLELNOSY run on marginal prices for that reason.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LegCost {
    /// Full push/pull price for unpaid legs (batch greedy bookkeeping).
    Absolute,
    /// Orientation surcharge only for unassigned legs.
    Marginal,
}

impl LegCost {
    /// Price of hub leg `u → v` the hub needs pushed by `u` (`push`, full
    /// price `rp(u)`) or pulled by `v` (full price `rc(v)`): 0 when paid,
    /// the full price when assigned the other way, and when unassigned the
    /// full price under [`LegCost::Absolute`], less [`hybrid_edge_cost`]
    /// under [`LegCost::Marginal`].
    #[inline]
    pub fn leg(self, rates: &Rates, u: NodeId, v: NodeId, push: bool, state: LegState) -> f64 {
        let full = || if push { rates.rp(u) } else { rates.rc(v) };
        match (state, self) {
            (LegState::Paid, _) => 0.0,
            (LegState::Unassigned, LegCost::Marginal) => full() - hybrid_edge_cost(rates, u, v),
            (LegState::Other, _) | (LegState::Unassigned, LegCost::Absolute) => full(),
        }
    }
}

/// Total cost `c(H, L)` of a schedule (§2.1).
///
/// Covered edges cost nothing — that is the whole point of piggybacking.
/// Unassigned edges also contribute nothing; callers who want a *feasible*
/// cost should validate the schedule first (see [`crate::validate`]).
pub fn schedule_cost(g: &CsrGraph, rates: &Rates, s: &Schedule) -> f64 {
    assert_eq!(
        g.edge_count(),
        s.edge_count(),
        "schedule sized for a different graph"
    );
    // Pushes, then pulls, each in edge-id order: that summation order fixes
    // the result's bits. The CSR walk yields each edge's endpoints.
    let mut cost = 0.0;
    for (e, u, _) in g.edges() {
        if s.is_push(e) {
            cost += rates.rp(u);
        }
    }
    for (e, _, v) in g.edges() {
        if s.is_pull(e) {
            cost += rates.rc(v);
        }
    }
    cost
}

/// Predicted throughput `t = 1 / c` (§4.2). Infinite for zero-cost
/// schedules (empty graphs).
pub fn predicted_throughput(g: &CsrGraph, rates: &Rates, s: &Schedule) -> f64 {
    let c = schedule_cost(g, rates, s);
    if c == 0.0 {
        f64::INFINITY
    } else {
        1.0 / c
    }
}

/// Predicted improvement ratio `t_A / t_B = c_B / c_A` of schedule `a` over
/// baseline `b`. Greater than 1 means `a` outperforms `b`.
pub fn predicted_improvement(g: &CsrGraph, rates: &Rates, a: &Schedule, b: &Schedule) -> f64 {
    let ca = schedule_cost(g, rates, a);
    let cb = schedule_cost(g, rates, b);
    if ca == 0.0 {
        if cb == 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        cb / ca
    }
}

/// Server-aware pricing: the §2.1 model refined by a cluster topology
/// (`user → server`), so a schedule is billed the messages the store
/// actually sends (see [`CostModel::batched`]).
#[derive(Clone, Copy, Debug)]
pub struct CostModel<'a> {
    shard_of: &'a [u32],
    servers: usize,
}

impl<'a> CostModel<'a> {
    /// A model over `servers` servers with the given `user → server` map
    /// (e.g. `Topology::assignment()` from the store crate).
    pub fn with_topology(shard_of: &'a [u32], servers: usize) -> Self {
        assert!(servers >= 1, "need at least one server");
        debug_assert!(shard_of.iter().all(|&s| (s as usize) < servers));
        CostModel { shard_of, servers }
    }

    /// Per-request pricing of `s` under §4.3's batching: a share from `u`
    /// costs one message per distinct server holding `{u} ∪ h[u]`, a query
    /// one per distinct server holding `{u} ∪ l[u]`. With one server every
    /// request is one message whatever the schedule; with one server per
    /// user it is the flat [`schedule_cost`] plus one own-view message per
    /// request — the two limits Figure 7 runs between. Views are priced at
    /// their primary server; replica slots are not billed. One pass over
    /// the CSR and the schedule's bitsets; nothing is compiled per user.
    ///
    /// # Panics
    ///
    /// Panics if the schedule is sized for a different graph or the
    /// topology does not cover every node.
    pub fn batched(&self, g: &CsrGraph, rates: &Rates, s: &Schedule) -> BatchedAccounting {
        assert_eq!(
            g.edge_count(),
            s.edge_count(),
            "schedule sized for a different graph"
        );
        assert!(
            self.shard_of.len() >= g.node_count(),
            "topology covers {} users, graph has {}",
            self.shard_of.len(),
            g.node_count()
        );
        let mut acct = BatchedAccounting {
            query_load: vec![0.0; self.servers],
            ..Default::default()
        };
        // `stamp[server]` is the ordinal of the last request that touched
        // it, so "already billed for this request" is one compare.
        let mut stamp = vec![0u64; self.servers];
        let mut request = 0u64;
        for u in g.nodes() {
            let (rp, rc) = (rates.rp(u), rates.rc(u));
            acct.requests += rp + rc;
            let pushed = g.out_edges(u).filter(|&(_, e)| s.is_push(e));
            let share = std::iter::once(u).chain(pushed.map(|(v, _)| v));
            request += 1;
            acct.update += rp * self.bill_distinct(&mut stamp, request, share, |_| {});
            let pulled = g.in_edges(u).filter(|&(_, e)| s.is_pull(e));
            let query = std::iter::once(u).chain(pulled.map(|(p, _)| p));
            request += 1;
            let load = &mut acct.query_load;
            acct.query += rc * self.bill_distinct(&mut stamp, request, query, |sv| load[sv] += rc);
        }
        acct
    }

    /// Calls `bill(server)` once per distinct server holding `views` and
    /// returns how many there were; `request` must be fresh per call.
    fn bill_distinct(
        &self,
        stamp: &mut [u64],
        request: u64,
        views: impl Iterator<Item = NodeId>,
        mut bill: impl FnMut(usize),
    ) -> f64 {
        let mut servers = 0.0;
        for view in views {
            let server = self.shard_of[view as usize] as usize;
            if stamp[server] != request {
                stamp[server] = request;
                bill(server);
                servers += 1.0;
            }
        }
        servers
    }
}

/// Per-request message accounting of a schedule under §4.3's batching
/// ([`CostModel::batched`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BatchedAccounting {
    /// Update-message rate: `Σ_u rp(u) · |servers({u} ∪ h[u])|`.
    pub update: f64,
    /// Query-message rate: `Σ_u rc(u) · |servers({u} ∪ l[u])|`.
    pub query: f64,
    /// Request rate `Σ_u rp(u) + rc(u)` — the cost on a single server,
    /// where every request is exactly one message.
    pub requests: f64,
    /// Query-message rate arriving at each server (sums to
    /// [`query`](BatchedAccounting::query)) — Figure 8's load metric.
    pub query_load: Vec<f64>,
}

impl BatchedAccounting {
    /// Total message rate (lower is better).
    pub fn total(&self) -> f64 {
        self.update + self.query
    }

    /// Predicted data-store messages per request (0 for an empty workload).
    pub fn msgs_per_request(&self) -> f64 {
        if self.requests == 0.0 {
            return 0.0;
        }
        self.total() / self.requests
    }

    /// Predicted throughput (inverse cost) normalized by the single-server
    /// optimum — the y-axis of Figure 7.
    pub fn normalized_throughput(&self) -> f64 {
        if self.total() == 0.0 {
            return 1.0;
        }
        self.requests / self.total()
    }

    /// `(mean, variance)` of each server's share of the total query-message
    /// rate — Figure 8.
    pub fn load_balance(&self) -> (f64, f64) {
        let total: f64 = self.query_load.iter().sum();
        if total == 0.0 {
            return (0.0, 0.0);
        }
        let share: Vec<f64> = self.query_load.iter().map(|l| l / total).collect();
        let mean = share.iter().sum::<f64>() / share.len() as f64;
        let var = share.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / share.len() as f64;
        (mean, var)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piggyback_graph::GraphBuilder;

    fn triangle() -> CsrGraph {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1); // e0
        b.add_edge(0, 2); // e1
        b.add_edge(1, 2); // e2
        b.build()
    }

    fn rates() -> Rates {
        Rates::from_vecs(vec![2.0, 3.0, 5.0], vec![7.0, 11.0, 13.0])
    }

    #[test]
    fn cost_sums_push_rp_and_pull_rc() {
        let g = triangle();
        let r = rates();
        let mut s = Schedule::for_graph(&g);
        s.set_push(0); // push 0->1 : rp(0) = 2
        s.set_pull(2); // pull 1->2 : rc(2) = 13
        s.set_covered(1, 1); // covered: free
        assert!((schedule_cost(&g, &r, &s) - 15.0).abs() < 1e-12);
    }

    #[test]
    fn push_and_pull_pays_both() {
        let g = triangle();
        let r = rates();
        let mut s = Schedule::for_graph(&g);
        s.set_push(0);
        s.set_pull(0); // rp(0) + rc(1) = 2 + 11
        assert!((schedule_cost(&g, &r, &s) - 13.0).abs() < 1e-12);
    }

    #[test]
    fn hybrid_cost_picks_min() {
        let r = rates();
        assert_eq!(hybrid_edge_cost(&r, 0, 1), 2.0); // min(rp0=2, rc1=11)
        assert_eq!(hybrid_edge_cost(&r, 2, 0), 5.0); // min(rp2=5, rc0=7)
    }

    #[test]
    fn hybrid_rule_sends_ties_to_push() {
        let r = Rates::from_vecs(vec![1.0, 4.0, 2.0], vec![2.0, 3.0, 1.0]);
        assert!(hybrid_pushes(&r, 0, 2)); // rp0 = 1 == rc2 = 1: tie, push
        assert!(hybrid_pushes(&r, 0, 1)); // rp0 = 1 < rc1 = 3
        assert!(!hybrid_pushes(&r, 1, 0)); // rp1 = 4 > rc0 = 2
        assert_eq!(hybrid_edge_cost(&r, 0, 2), 1.0);
        assert_eq!(hybrid_edge_cost(&r, 1, 0), 2.0);
    }

    /// The pricing table of a hub leg, for hub `w = 1` with producer
    /// `x = 0` and consumer `y = 2`: every state under both pricings.
    #[test]
    fn leg_prices_follow_the_table() {
        let r = Rates::from_vecs(vec![4.0, 3.0, 1.0], vec![1.0, 2.5, 5.0]);
        let (x, w, y) = (0, 1, 2);
        // §3.2: cX = rp(x) − min(rp(x), rc(w)) = 4 − min(4, 2.5) = 1.5 and
        // cY = rc(y) − min(rp(w), rc(y)) = 5 − min(3, 5) = 2 for unassigned
        // legs; a leg assigned the other way pays in full, a paid one 0.
        // Algorithm 1's weights g(x) = rp(x) = 4 and g(y) = rc(y) = 5, or 0
        // once paid, whatever else the leg carries.
        assert_eq!(LegState::new(true, true), LegState::Paid);
        assert_eq!(LegState::new(false, true), LegState::Other);
        assert_eq!(LegState::new(false, false), LegState::Unassigned);
        let table = [
            (LegCost::Absolute, LegState::Paid, 0.0, 0.0),
            (LegCost::Absolute, LegState::Other, 4.0, 5.0),
            (LegCost::Absolute, LegState::Unassigned, 4.0, 5.0),
            (LegCost::Marginal, LegState::Paid, 0.0, 0.0),
            (LegCost::Marginal, LegState::Other, 4.0, 5.0),
            (LegCost::Marginal, LegState::Unassigned, 1.5, 2.0),
        ];
        for (cost, state, push, pull) in table {
            assert_eq!(
                cost.leg(&r, x, w, true, state),
                push,
                "{cost:?} {state:?} push"
            );
            assert_eq!(
                cost.leg(&r, w, y, false, state),
                pull,
                "{cost:?} {state:?} pull"
            );
        }
    }

    #[test]
    fn hybrid_fill_serves_exactly_the_unserved_edges_by_the_rule() {
        use crate::baseline::hybrid_fill;
        use piggyback_graph::gen::erdos_renyi;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let g = erdos_renyi(120, 900, 11);
        // Small integer rates, so that rp(u) == rc(v) ties are common.
        let mut rng = StdRng::seed_from_u64(5);
        let n = g.node_count();
        let rp: Vec<f64> = (0..n).map(|_| rng.random_range(1..5) as f64).collect();
        let rc: Vec<f64> = (0..n).map(|_| rng.random_range(1..5) as f64).collect();
        let r = Rates::from_vecs(rp.clone(), rc.clone());
        let mut s = Schedule::for_graph(&g);
        for (e, _, _) in g.edges() {
            match rng.random_range(0u32..5) {
                0 => {
                    s.set_push(e);
                }
                1 => {
                    s.set_pull(e);
                }
                2 => {
                    s.set_covered(e, 0);
                }
                _ => {}
            }
        }
        let before = s.clone();
        let filled = hybrid_fill(&g, &r, &mut s);
        let (mut unserved, mut ties) = (0, 0);
        for (e, u, v) in g.edges() {
            if before.is_served(e) {
                assert_eq!(s.assignment(e), before.assignment(e), "edge {e} reassigned");
                continue;
            }
            unserved += 1;
            ties += usize::from(rp[u as usize] == rc[v as usize]);
            let push = rp[u as usize] <= rc[v as usize];
            assert_eq!(
                (s.is_push(e), s.is_pull(e)),
                (push, !push),
                "edge {u} -> {v}"
            );
        }
        assert_eq!(filled, unserved);
        assert!(ties > 0, "the sample must exercise the tie");
    }

    #[test]
    fn throughput_is_inverse_cost() {
        let g = triangle();
        let r = rates();
        let mut s = Schedule::for_graph(&g);
        s.set_push(0);
        assert!((predicted_throughput(&g, &r, &s) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn improvement_ratio() {
        let g = triangle();
        let r = rates();
        let mut cheap = Schedule::for_graph(&g);
        cheap.set_push(0); // cost 2
        let mut dear = Schedule::for_graph(&g);
        dear.set_pull(0); // cost 11
        let ratio = predicted_improvement(&g, &r, &cheap, &dear);
        assert!((ratio - 5.5).abs() < 1e-12);
    }

    #[test]
    fn empty_schedule_is_free() {
        let g = triangle();
        let r = rates();
        let s = Schedule::for_graph(&g);
        assert_eq!(schedule_cost(&g, &r, &s), 0.0);
        assert!(predicted_throughput(&g, &r, &s).is_infinite());
    }

    #[test]
    #[should_panic(expected = "different graph")]
    fn size_mismatch_panics() {
        let g = triangle();
        let r = rates();
        let s = Schedule::new(99);
        schedule_cost(&g, &r, &s);
    }

    #[test]
    fn batched_counts_distinct_servers_per_request() {
        let g = triangle();
        let r = rates();
        let mut s = Schedule::for_graph(&g);
        s.set_push(0); // 0 -> 1: user 0 shares to views {0, 1}
        s.set_pull(2); // 1 -> 2: user 2 queries views {2, 1}
        s.set_covered(1, 1);
        // Users 0 and 1 co-located; 2 alone.
        let shard_of = [0u32, 0, 1];
        let acct = CostModel::with_topology(&shard_of, 2).batched(&g, &r, &s);
        // Shares: every user touches one server (0's push stays home).
        assert!((acct.update - (2.0 + 3.0 + 5.0)).abs() < 1e-12);
        // Queries: users 0 and 1 read their own view; user 2 reads its own
        // server and view 1's.
        assert!((acct.query - (7.0 + 11.0 + 2.0 * 13.0)).abs() < 1e-12);
        assert_eq!(acct.query_load, vec![7.0 + 11.0 + 13.0, 13.0]);
        assert!((acct.requests - 41.0).abs() < 1e-12);
        assert!((acct.total() - 54.0).abs() < 1e-12);
        assert!((acct.msgs_per_request() - 54.0 / 41.0).abs() < 1e-12);
        assert!((acct.normalized_throughput() - 41.0 / 54.0).abs() < 1e-12);
        let (mean, var) = acct.load_balance();
        assert!((mean - 0.5).abs() < 1e-12);
        assert!((var - (31.0_f64 / 44.0 - 0.5).powi(2)).abs() < 1e-12);
    }
}
