//! The throughput cost model of §2.1, with optional server-aware
//! accounting.
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
//! (the paper's objective), and a message between two views on the same
//! server is free — batching folds it into a request that was being sent
//! anyway. [`CostModel::with_topology`] prices a schedule against a
//! `user → server` map, two ways:
//!
//! * [`CostModel::accounting`] — per *edge*: intra-server messages are
//!   discounted (free by default) and each server's ingress/egress rates
//!   are tallied. What the partitioners and the rebalance trigger optimize.
//! * [`CostModel::batched`] — per *request*: Algorithm 3 sends one batched
//!   message per distinct server a request touches, own view included
//!   (§4.3, Figures 7–8). What the store actually bills — the formula
//!   measured messages per request agree with.
//!
//! ```text
//! batched = Σ_u rp(u) · |servers({u} ∪ h[u])|  +  rc(u) · |servers({u} ∪ l[u])|
//! ```

use piggyback_graph::{CsrGraph, NodeId};
use piggyback_workload::Rates;

use crate::schedule::Schedule;
use crate::scheduler::ScheduleStats;

/// Cost of serving edge `u → v` directly under the hybrid policy of
/// Silberstein et al.: the cheaper of a push and a pull,
/// `c*(u → v) = min(rp(u), rc(v))`.
#[inline]
pub fn hybrid_edge_cost(rates: &Rates, u: NodeId, v: NodeId) -> f64 {
    rates.rp(u).min(rates.rc(v))
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
    let mut cost = 0.0;
    for e in s.push_edges() {
        let (u, _) = g.edge_endpoints(e);
        cost += rates.rp(u);
    }
    for e in s.pull_edges() {
        let (_, v) = g.edge_endpoints(e);
        cost += rates.rc(v);
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

/// Server-aware cost accounting: the flat §2.1 model refined by a cluster
/// topology (`user → server`), so intra-server messages can be discounted
/// and per-server traffic tallied.
///
/// A push edge `u → v` carries `rp(u)` messages from `u`'s server to
/// `v`'s; a pull edge carries `rc(v)` the same way (the queried view's
/// server replies toward the consumer's). Covered edges carry nothing —
/// their traffic rides the hub legs, which are push/pull edges themselves.
#[derive(Clone, Copy, Debug)]
pub struct CostModel<'a> {
    shard_of: &'a [u32],
    servers: usize,
    /// Price of an intra-server message relative to a cross-server one
    /// (0 = free, the batched-request default; 1 = the flat model).
    intra_factor: f64,
    /// Replica slots per view (1 = unreplicated). A push edge delivers to
    /// every replica slot of the consumer's view, so each push message is
    /// amplified `k`-fold; the `k − 1` extra copies are billed as
    /// cross-server traffic (replica slots never co-locate under
    /// domain-spread placement).
    replication: usize,
}

impl<'a> CostModel<'a> {
    /// A model over `servers` servers with the given `user → server` map
    /// (e.g. `Topology::assignment()` from the store crate). Intra-server
    /// messages are free; tune with
    /// [`intra_factor`](CostModel::with_intra_factor).
    pub fn with_topology(shard_of: &'a [u32], servers: usize) -> Self {
        assert!(servers >= 1, "need at least one server");
        debug_assert!(shard_of.iter().all(|&s| (s as usize) < servers));
        CostModel {
            shard_of,
            servers,
            intra_factor: 0.0,
            replication: 1,
        }
    }

    /// Sets the intra-server message price (must be in `[0, 1]`).
    pub fn with_intra_factor(mut self, intra_factor: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&intra_factor),
            "intra factor {intra_factor} outside [0, 1]"
        );
        self.intra_factor = intra_factor;
        self
    }

    /// Sets the replica slots per view (must be at least 1). With `k > 1`
    /// every push edge is billed `k` deliveries — one per replica slot —
    /// with the `k − 1` extra copies accounted as cross-server
    /// replica-amplified traffic. `k = 1` reproduces the unreplicated
    /// model exactly.
    pub fn with_replication(mut self, k: usize) -> Self {
        assert!(k >= 1, "replication factor must be at least 1");
        self.replication = k;
        self
    }

    /// Effective cost of `s` under this model:
    /// `cross + intra_factor · intra`.
    pub fn cost(&self, g: &CsrGraph, rates: &Rates, s: &Schedule) -> f64 {
        let acct = self.accounting(g, rates, s);
        acct.cross + self.intra_factor * acct.intra
    }

    /// Full per-server accounting of `s` under this model.
    ///
    /// # Panics
    ///
    /// Panics if the schedule is sized for a different graph or the
    /// topology does not cover every node.
    pub fn accounting(&self, g: &CsrGraph, rates: &Rates, s: &Schedule) -> TopologyAccounting {
        self.assert_covers(g, s);
        let mut acct = TopologyAccounting {
            ingress: vec![0.0; self.servers],
            egress: vec![0.0; self.servers],
            ..Default::default()
        };
        let shard_of = self.shard_of;
        let bill = |acct: &mut TopologyAccounting, u: NodeId, v: NodeId, rate: f64| {
            let (from, to) = (shard_of[u as usize] as usize, shard_of[v as usize] as usize);
            acct.egress[from] += rate;
            acct.ingress[to] += rate;
            if from == to {
                acct.intra += rate;
            } else {
                acct.cross += rate;
            }
        };
        for e in s.push_edges() {
            let (u, v) = g.edge_endpoints(e);
            bill(&mut acct, u, v, rates.rp(u));
            if self.replication > 1 {
                // The k − 1 extra replica deliveries. Replica slots never
                // share a server (or a failure domain) with the primary,
                // so the copies always cross; ingress is attributed to the
                // consumer's primary server, the ring aggregate.
                let extra = rates.rp(u) * (self.replication - 1) as f64;
                let (from, to) = (shard_of[u as usize] as usize, shard_of[v as usize] as usize);
                acct.egress[from] += extra;
                acct.ingress[to] += extra;
                acct.cross += extra;
                acct.replica += extra;
            }
        }
        for e in s.pull_edges() {
            let (u, v) = g.edge_endpoints(e);
            // A pull reads one replica — the query is answered by a single
            // slot — so replication never amplifies it. This asymmetry is
            // exactly what shifts the hybrid decision toward pull for
            // replicated consumers.
            bill(&mut acct, u, v, rates.rc(v));
        }
        acct.total = acct.intra + acct.cross;
        acct
    }

    /// Fills the topology-aware fields of a [`ScheduleStats`] (the flat
    /// fields are left untouched).
    pub fn annotate(&self, g: &CsrGraph, rates: &Rates, s: &Schedule, stats: &mut ScheduleStats) {
        let acct = self.accounting(g, rates, s);
        stats.intra_cost = acct.intra;
        stats.cross_cost = acct.cross;
        stats.replica_cost = acct.replica;
    }

    /// Per-request pricing of `s` under §4.3's batching: a share from `u`
    /// costs one message per distinct server holding `{u} ∪ h[u]`, a query
    /// one per distinct server holding `{u} ∪ l[u]`. With one server every
    /// request is one message whatever the schedule; with one server per
    /// user it is the flat [`schedule_cost`] plus one own-view message per
    /// request — the two limits Figure 7 runs between. One pass over the
    /// CSR and the schedule's bitsets; nothing is compiled per user.
    ///
    /// # Panics
    ///
    /// Panics if the schedule is sized for a different graph, the topology
    /// does not cover every node, or the model carries a replication
    /// factor: it knows primaries only, so it prices the unreplicated
    /// plane and refuses to silently ignore
    /// [`with_replication`](CostModel::with_replication).
    pub fn batched(&self, g: &CsrGraph, rates: &Rates, s: &Schedule) -> BatchedAccounting {
        self.assert_covers(g, s);
        assert_eq!(
            self.replication, 1,
            "batched pricing covers the unreplicated plane only"
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

    fn assert_covers(&self, g: &CsrGraph, s: &Schedule) {
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

/// Per-server message accounting of a schedule under a [`CostModel`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TopologyAccounting {
    /// Total message rate, `intra + cross`. Equals [`schedule_cost`] at
    /// replication 1; with replication it additionally carries the
    /// [`replica`](TopologyAccounting::replica)-amplified push copies.
    pub total: f64,
    /// Message rate between co-located views.
    pub intra: f64,
    /// Message rate crossing servers — the paper's "messages between data
    /// stores" with batching priced in. Includes the replica-amplified
    /// copies when the model carries a replication factor.
    pub cross: f64,
    /// Cross-server message rate added purely by replica fan-out (the
    /// `k − 1` extra deliveries of every push message); zero at
    /// replication 1. Always a subset of [`cross`](TopologyAccounting::cross).
    pub replica: f64,
    /// Message rate arriving at each server.
    pub ingress: Vec<f64>,
    /// Message rate leaving each server.
    pub egress: Vec<f64>,
}

impl TopologyAccounting {
    /// Fraction of the total message rate that crosses servers (0 for an
    /// empty schedule).
    pub fn cross_fraction(&self) -> f64 {
        if self.total == 0.0 {
            0.0
        } else {
            self.cross / self.total
        }
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
    fn topology_accounting_splits_the_flat_cost() {
        let g = triangle();
        let r = rates();
        let mut s = Schedule::for_graph(&g);
        s.set_push(0); // 0 -> 1, rp(0) = 2
        s.set_pull(2); // 1 -> 2, rc(2) = 13
        s.set_covered(1, 1); // covered: carries nothing
                             // Users 0 and 1 co-located; 2 alone.
        let shard_of = [0u32, 0, 1];
        let model = CostModel::with_topology(&shard_of, 2);
        let acct = model.accounting(&g, &r, &s);
        assert!((acct.intra - 2.0).abs() < 1e-12, "0 -> 1 stays home");
        assert!((acct.cross - 13.0).abs() < 1e-12, "1 -> 2 crosses");
        assert!((acct.total - schedule_cost(&g, &r, &s)).abs() < 1e-12);
        assert!((acct.cross_fraction() - 13.0 / 15.0).abs() < 1e-12);
        // Ingress/egress tallies: server 0 sends both messages, receives
        // the intra one; server 1 only receives.
        assert!((acct.egress[0] - 15.0).abs() < 1e-12);
        assert!((acct.egress[1] - 0.0).abs() < 1e-12);
        assert!((acct.ingress[0] - 2.0).abs() < 1e-12);
        assert!((acct.ingress[1] - 13.0).abs() < 1e-12);
        // Intra free by default; the flat model is intra_factor = 1.
        assert!((model.cost(&g, &r, &s) - 13.0).abs() < 1e-12);
        let flat = model.with_intra_factor(1.0).cost(&g, &r, &s);
        assert!((flat - 15.0).abs() < 1e-12);
    }

    #[test]
    fn single_server_topology_makes_everything_free() {
        let g = triangle();
        let r = rates();
        let mut s = Schedule::for_graph(&g);
        s.set_push(0);
        s.set_pull(1);
        s.set_pull(2);
        let shard_of = [0u32, 0, 0];
        let model = CostModel::with_topology(&shard_of, 1);
        let acct = model.accounting(&g, &r, &s);
        assert_eq!(acct.cross, 0.0);
        assert!((acct.intra - acct.total).abs() < 1e-12);
        assert_eq!(model.cost(&g, &r, &s), 0.0);
    }

    #[test]
    fn annotate_fills_schedule_stats() {
        let g = triangle();
        let r = rates();
        let mut s = Schedule::for_graph(&g);
        s.set_push(0);
        s.set_pull(2);
        let shard_of = [0u32, 0, 1];
        let mut stats = ScheduleStats {
            cost: 99.0,
            ..Default::default()
        };
        CostModel::with_topology(&shard_of, 2).annotate(&g, &r, &s, &mut stats);
        assert!((stats.intra_cost - 2.0).abs() < 1e-12);
        assert!((stats.cross_cost - 13.0).abs() < 1e-12);
        assert_eq!(stats.cost, 99.0, "flat fields untouched");
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn intra_factor_out_of_range_panics() {
        let shard_of = [0u32];
        let _ = CostModel::with_topology(&shard_of, 1).with_intra_factor(1.5);
    }

    #[test]
    fn replication_amplifies_push_but_not_pull() {
        let g = triangle();
        let r = rates();
        let mut s = Schedule::for_graph(&g);
        s.set_push(0); // 0 -> 1, rp(0) = 2
        s.set_pull(2); // 1 -> 2, rc(2) = 13
        s.set_covered(1, 1);
        let shard_of = [0u32, 0, 1];
        let base = CostModel::with_topology(&shard_of, 2).accounting(&g, &r, &s);
        let repl = CostModel::with_topology(&shard_of, 2)
            .with_replication(3)
            .accounting(&g, &r, &s);
        // The push message gains 2 extra replica copies (2 × rp(0) = 4),
        // all billed cross-server; the pull is answered by one slot and
        // stays untouched.
        assert!((repl.replica - 4.0).abs() < 1e-12);
        assert!((repl.cross - (base.cross + 4.0)).abs() < 1e-12);
        assert!((repl.intra - base.intra).abs() < 1e-12);
        assert!((repl.total - (base.total + 4.0)).abs() < 1e-12);
        assert!((repl.egress[0] - (base.egress[0] + 4.0)).abs() < 1e-12);
        // Replication 1 is the base model bit for bit.
        let one = CostModel::with_topology(&shard_of, 2)
            .with_replication(1)
            .accounting(&g, &r, &s);
        assert_eq!(one, base);
        assert_eq!(one.replica, 0.0);
        // annotate carries the split into the stats.
        let mut stats = ScheduleStats::default();
        CostModel::with_topology(&shard_of, 2)
            .with_replication(3)
            .annotate(&g, &r, &s, &mut stats);
        assert!((stats.replica_cost - 4.0).abs() < 1e-12);
        assert!((stats.cross_cost - stats.replica_cost - base.cross).abs() < 1e-12);
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

    #[test]
    #[should_panic(expected = "unreplicated plane only")]
    fn batched_refuses_a_replicated_model() {
        let g = triangle();
        let s = Schedule::for_graph(&g);
        let shard_of = [0u32, 0, 1];
        let _ = CostModel::with_topology(&shard_of, 2)
            .with_replication(2)
            .batched(&g, &rates(), &s);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_replication_panics() {
        let shard_of = [0u32];
        let _ = CostModel::with_topology(&shard_of, 1).with_replication(0);
    }
}
