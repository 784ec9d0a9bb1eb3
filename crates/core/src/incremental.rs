//! Incremental schedule maintenance under graph updates (§3.3).
//!
//! The optimizers treat the social graph as static. When the graph changes,
//! re-running them for every new follow would be absurd; instead:
//!
//! * an **added** edge is served directly with the cheaper of push and pull
//!   (the hybrid rule);
//! * a **removed** edge that was a hub leg orphans the cross edges riding
//!   it: if a pull `w → y` disappears, every edge `x → y` covered through
//!   hub `w` is re-served directly, and symmetrically for a removed push
//!   `x → w` and its covered edges `x → y`.
//!
//! The schedule is the one record of the cover: it stores each covered
//! edge's hub, so a removed pull `w → y` finds its orphans by walking
//! `y`'s in-edges for hub `w`, and a removed push `x → w` by walking `x`'s
//! out-edges for hub `w`. Both walks run in ascending edge id.
//!
//! Schedule quality degrades slowly (Figure 5), so a full re-optimization
//! only pays off after a large batch of updates — the experiment harness
//! measures exactly that trade-off.
//!
//! [`IncrementalScheduler`] is the one record of the churned graph: the
//! optimized CSR base, one tombstone bit per base edge id, the base
//! schedule, and the edges added since, each listed once on the side that
//! serves it. [`IncrementalScheduler::freeze_graph`] materializes the live
//! graph as a fresh CSR snapshot when a full re-optimization is due.

use std::convert::Infallible;

use piggyback_graph::fx::FxHashMap;
use piggyback_graph::{CsrGraph, EdgeId, NodeId};
use piggyback_workload::Rates;

use crate::bitset::BitSet;
use crate::cost::{hybrid_edge_cost, hybrid_pushes, schedule_cost};
use crate::schedule::Schedule;
use crate::validate::{first_violation, StalenessViolation};

/// Which users' serving sets an edge mutation touched.
///
/// Online consumers (the `piggyback-serve` runtime) keep per-user push/pull
/// sets compiled for the serving hot path; after a churn operation only the
/// listed users need their sets recompiled. Each list names a user at most
/// once.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChurnEffect {
    /// Whether the mutation was applied (false: edge already there/missing,
    /// a self-loop, or a user outside the rate model).
    pub applied: bool,
    /// Users whose push set (`h[u]` of Algorithm 3) changed.
    pub push_changed: Vec<NodeId>,
    /// Users whose pull set (`l[v]` of Algorithm 3) changed.
    pub pull_changed: Vec<NodeId>,
    /// Edges that switched to *direct* serving at hybrid cost because of
    /// this mutation: the added edge itself, or — for a removed hub leg —
    /// every orphaned piggybacked edge that had to be re-served. Lets
    /// topology-aware consumers price the degradation each churn op put
    /// on the wire (e.g. the serve runtime's rebalance trigger).
    pub reserved_direct: Vec<(NodeId, NodeId)>,
}

/// A schedule kept consistent across edge insertions and deletions.
///
/// Holds the frozen base graph and schedule (produced by any optimizer),
/// one tombstone bit per base edge removed since, and the edges added
/// since — always served directly, so each is listed once, under the user
/// whose set serves it: a push under its producer, a pull under its
/// consumer. The base schedule also records the cover: a covered edge's
/// hub is its `hub_of`, and nothing else indexes it. Maintains the running
/// cost so the harness can plot degradation without O(m) recomputation per
/// update.
#[derive(Clone, Debug)]
pub struct IncrementalScheduler {
    base: CsrGraph,
    /// Base edges removed since the snapshot, by edge id. A removed edge is
    /// also unassigned in `schedule`.
    removed: BitSet,
    rates: Rates,
    schedule: Schedule,
    /// Added edges the hybrid rule pushes: producer -> consumers.
    pushes: FxHashMap<NodeId, Vec<NodeId>>,
    /// Added edges the hybrid rule pulls: consumer -> producers.
    pulls: FxHashMap<NodeId, Vec<NodeId>>,
    /// The base's node count, grown by the ids of added edges; never
    /// shrinks, so a freeze keeps every user it ever saw.
    node_count: usize,
    cost: f64,
    /// Cost of the optimized snapshot this scheduler started from.
    base_cost: f64,
}

impl IncrementalScheduler {
    /// Wraps an optimized `(graph, schedule)` pair for incremental updates.
    ///
    /// The schedule should be feasible for `graph`; rates must cover every
    /// node that will ever appear (edges to users outside them are not
    /// applied).
    pub fn new(graph: CsrGraph, rates: Rates, schedule: Schedule) -> Self {
        assert_eq!(graph.edge_count(), schedule.edge_count());
        let cost = schedule_cost(&graph, &rates, &schedule);
        IncrementalScheduler {
            removed: BitSet::new(graph.edge_count()),
            node_count: graph.node_count(),
            base: graph,
            rates,
            schedule,
            pushes: FxHashMap::default(),
            pulls: FxHashMap::default(),
            cost,
            base_cost: cost,
        }
    }

    /// Current total cost under the §2.1 model.
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// Cost of the optimized snapshot this scheduler started from.
    pub fn base_cost(&self) -> f64 {
        self.base_cost
    }

    /// How much the running cost has degraded (or improved, if negative)
    /// relative to the optimized snapshot: `cost() - base_cost()`.
    ///
    /// Callers use this to decide when a full re-optimization pays off —
    /// schedule quality decays slowly under churn (Figure 5), so the delta
    /// crossing a fraction of the base cost is the natural trigger.
    pub fn overlay_cost_delta(&self) -> f64 {
        self.cost - self.base_cost
    }

    /// The optimized snapshot this scheduler started from.
    pub fn base_graph(&self) -> &CsrGraph {
        &self.base
    }

    /// The rates the scheduler prices operations with.
    pub fn rates(&self) -> &Rates {
        &self.rates
    }

    /// The base-graph schedule (added edges are tracked separately).
    pub fn base_schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Number of edges added since the optimized snapshot and still live
    /// (re-added base edges not included).
    pub fn added_count(&self) -> usize {
        self.pushes
            .values()
            .chain(self.pulls.values())
            .map(Vec::len)
            .sum()
    }

    /// Whether the hybrid rule serves `u → v` by push (else by pull), or
    /// `None` if the rate model does not cover both users.
    fn hybrid_push(&self, u: NodeId, v: NodeId) -> Option<bool> {
        let n = self.rates.len();
        ((u as usize) < n && (v as usize) < n).then(|| hybrid_pushes(&self.rates, u, v))
    }

    /// Adds the follow `u → v`, serving it directly with the cheaper of
    /// push and pull, and reports which users' serving sets changed. Not
    /// applied if the edge already exists, is a self-loop, or names a user
    /// outside the rate model.
    pub fn add_edge_detailed(&mut self, u: NodeId, v: NodeId) -> ChurnEffect {
        let mut effect = ChurnEffect::default();
        let Some(push) = self.hybrid_push(u, v).filter(|_| u != v) else {
            return effect;
        };
        // A re-added base edge clears its tombstone and gets its bit back in
        // the base schedule; brand-new edges join the overlay. Either way:
        // hybrid assignment.
        match self.base_edge_id(u, v) {
            Some(e) => {
                if !self.removed.remove(e) {
                    return effect;
                }
                self.serve_direct(e, u, v);
            }
            None => {
                let (list, x) = if push {
                    (self.pushes.entry(u).or_default(), v)
                } else {
                    (self.pulls.entry(v).or_default(), u)
                };
                if list.contains(&x) {
                    return effect;
                }
                list.push(x);
                self.node_count = self.node_count.max(u.max(v) as usize + 1);
                self.cost += hybrid_edge_cost(&self.rates, u, v);
            }
        }
        effect.applied = true;
        if push {
            effect.push_changed.push(u);
        } else {
            effect.pull_changed.push(v);
        }
        effect.reserved_direct.push((u, v));
        effect
    }

    /// Serves base edge `f` (= `x → y`) directly by the hybrid rule and
    /// charges `min(rp(x), rc(y))`; returns whether it is pushed.
    fn serve_direct(&mut self, f: EdgeId, x: NodeId, y: NodeId) -> bool {
        self.schedule.unassign(f);
        let push = hybrid_pushes(&self.rates, x, y);
        if push {
            self.schedule.set_push(f);
        } else {
            self.schedule.set_pull(f);
        }
        self.cost += hybrid_edge_cost(&self.rates, x, y);
        push
    }

    /// Removes the follow `u → v`, re-serving any cross edges that were
    /// piggybacking on it, and reports which users' serving sets changed —
    /// including users whose piggybacked edges were orphaned by the removal
    /// and re-served directly. Not applied if the edge does not exist.
    pub fn remove_edge_detailed(&mut self, u: NodeId, v: NodeId) -> ChurnEffect {
        let mut effect = ChurnEffect::default();
        let Some(e) = self.base_edge_id(u, v) else {
            // Added edges are direct: drop them and refund the hybrid cost.
            let Some(push) = self.hybrid_push(u, v) else {
                return effect;
            };
            let (list, x) = if push {
                (self.pushes.get_mut(&u), v)
            } else {
                (self.pulls.get_mut(&v), u)
            };
            let Some(list) = list else {
                return effect;
            };
            let Some(pos) = list.iter().position(|&y| y == x) else {
                return effect;
            };
            list.swap_remove(pos);
            effect.applied = true;
            self.cost -= if push {
                effect.push_changed.push(u);
                self.rates.rp(u)
            } else {
                effect.pull_changed.push(v);
                self.rates.rc(v)
            };
            return effect;
        };
        if !self.removed.insert(e) {
            return effect;
        }
        effect.applied = true;
        let (push, pull) = (self.schedule.is_push(e), self.schedule.is_pull(e));
        self.schedule.unassign(e);
        // Refund what the edge itself was paying.
        if push {
            self.cost -= self.rates.rp(u);
            effect.push_changed.push(u);
        }
        if pull {
            self.cost -= self.rates.rc(v);
            effect.pull_changed.push(v);
        }
        // Orphaned piggybackers, each re-served directly. A removed pull
        // w → y strands the covered edges x → y through hub w = u; those
        // re-served by pull land in `v`'s set, already listed.
        if pull {
            for (x, f) in self.covered_via(u, self.base.in_edges(v)) {
                if self.serve_direct(f, x, v) {
                    effect.push_changed.push(x);
                }
                effect.reserved_direct.push((x, v));
            }
        }
        // A removed push x → w strands the covered edges x → y through hub
        // w = v; those re-served by push land in `u`'s set, already listed.
        if push {
            for (y, f) in self.covered_via(v, self.base.out_edges(u)) {
                if !self.serve_direct(f, u, y) {
                    effect.pull_changed.push(y);
                }
                effect.reserved_direct.push((u, y));
            }
        }
        effect
    }

    /// The `(other endpoint, edge)` pairs among `legs` that the schedule
    /// covers through hub `w`. A removed edge is unassigned, so it is never
    /// among them.
    fn covered_via(
        &self,
        w: NodeId,
        legs: impl Iterator<Item = (NodeId, EdgeId)>,
    ) -> Vec<(NodeId, EdgeId)> {
        legs.filter(|&(_, f)| self.schedule.is_covered(f) && self.schedule.hub_of(f) == w)
            .collect()
    }

    /// The current push set `h[u]` of Algorithm 3 over the live graph:
    /// every `v` whose view must be updated when `u` shares — the live base
    /// edges the schedule pushes, then the added edges pushed by `u`.
    pub fn push_targets(&self, u: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        if (u as usize) < self.base.node_count() {
            out.extend(
                self.base
                    .out_edges(u)
                    .filter(|&(_, e)| !self.removed.contains(e) && self.schedule.is_push(e))
                    .map(|(v, _)| v),
            );
        }
        out.extend(self.pushes.get(&u).into_iter().flatten());
        out
    }

    /// The current pull set `l[v]` of Algorithm 3 over the live graph:
    /// every `u` whose view must be queried when `v` reads its stream — the
    /// live base edges the schedule pulls, then the added edges `v` pulls.
    pub fn pull_sources(&self, v: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        if (v as usize) < self.base.node_count() {
            out.extend(
                self.base
                    .in_edges(v)
                    .filter(|&(_, e)| !self.removed.contains(e) && self.schedule.is_pull(e))
                    .map(|(u, _)| u),
            );
        }
        out.extend(self.pulls.get(&v).into_iter().flatten());
        out
    }

    /// Whether the live edge `u → v` is served *directly* — `v` in `u`'s
    /// push set or `u` in `v`'s pull set — without materializing either
    /// set. This is the allocation-free membership probe behind the churn
    /// manager's live staleness check: every edge a mutation reserves for
    /// direct serving ([`ChurnEffect::reserved_direct`]) must satisfy it
    /// the moment the mutation returns.
    pub fn serves_edge_directly(&self, u: NodeId, v: NodeId) -> bool {
        match self.base_edge_id(u, v) {
            Some(e) => {
                !self.removed.contains(e) && (self.schedule.is_push(e) || self.schedule.is_pull(e))
            }
            None => match self.hybrid_push(u, v) {
                Some(true) => self.pushes.get(&u).is_some_and(|vs| vs.contains(&v)),
                Some(false) => self.pulls.get(&v).is_some_and(|us| us.contains(&u)),
                None => false,
            },
        }
    }

    /// Base-graph edge id of `(u, v)`, if `(u, v)` is a base edge (live or
    /// removed).
    fn base_edge_id(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        if (u as usize) < self.base.node_count() {
            let e = self.base.edge_id(u, v);
            if e != piggyback_graph::INVALID_EDGE {
                return Some(e);
            }
        }
        None
    }

    /// Recomputes the cost from scratch (O(m); for tests and audits).
    pub fn recompute_cost(&self) -> f64 {
        let mut c = schedule_cost(&self.base, &self.rates, &self.schedule);
        for (&u, vs) in &self.pushes {
            c += self.rates.rp(u) * vs.len() as f64;
        }
        for (&v, us) in &self.pulls {
            c += self.rates.rc(v) * us.len() as f64;
        }
        c
    }

    /// Checks bounded staleness over the *current* (live) graph: every
    /// existing edge must be pushed, pulled, or covered by a hub whose legs
    /// still exist and are still scheduled push/pull. A removed base edge is
    /// unassigned, so a leg the schedule still pushes or pulls is live.
    /// Added edges are direct by construction: listing one under its
    /// serving side is what serves it.
    pub fn validate(&self) -> Result<(), StalenessViolation> {
        first_violation(&self.base, &self.schedule, |e| !self.removed.contains(e))
    }

    /// Freezes the live graph into a new snapshot for re-optimization,
    /// replaying the live base edges and then the added ones once per pass
    /// of [`CsrGraph::from_replayed`]: no edge buffer, no global sort. The
    /// node count is [`IncrementalScheduler`]'s, so users whose added edges
    /// were all removed again stay in the snapshot.
    pub fn freeze_graph(&self) -> CsrGraph {
        let Ok(g) = CsrGraph::from_replayed(self.node_count, |_, sink| {
            for (e, u, v) in self.base.edges() {
                if !self.removed.contains(e) {
                    sink.emit(u, v);
                }
            }
            for (&u, vs) in &self.pushes {
                vs.iter().for_each(|&v| sink.emit(u, v));
            }
            for (&v, us) in &self.pulls {
                us.iter().for_each(|&u| sink.emit(u, v));
            }
            Ok::<(), Infallible>(())
        });
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::hybrid_schedule;
    use crate::parallelnosy::ParallelNosy;
    use piggyback_graph::gen::{copying, CopyingConfig};
    use piggyback_graph::GraphBuilder;

    /// Triangle where the hub schedule is strictly cheaper.
    fn hub_world() -> (CsrGraph, Rates) {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(0, 2);
        b.reserve_nodes(5);
        (
            b.build(),
            Rates::from_vecs(vec![1.0, 5.0, 5.0, 1.0, 1.0], vec![5.0, 5.0, 1.8, 5.0, 5.0]),
        )
    }

    fn optimized(g: &CsrGraph, r: &Rates) -> Schedule {
        ParallelNosy::default().run(g, r).schedule
    }

    #[test]
    fn add_edge_charges_hybrid_cost() {
        let (g, r) = hub_world();
        let s = optimized(&g, &r);
        let mut inc = IncrementalScheduler::new(g, r, s);
        let before = inc.cost();
        assert!(inc.add_edge_detailed(3, 4).applied);
        assert!((inc.cost() - before - 1.0).abs() < 1e-9); // min(rp3=1, rc4=5)
        assert!((inc.recompute_cost() - inc.cost()).abs() < 1e-9);
        inc.validate().unwrap();
    }

    #[test]
    fn duplicate_add_rejected() {
        let (g, r) = hub_world();
        let s = optimized(&g, &r);
        let mut inc = IncrementalScheduler::new(g, r, s);
        assert!(!inc.add_edge_detailed(0, 1).applied);
    }

    #[test]
    fn removing_pull_leg_reserves_covered_edges() {
        let (g, r) = hub_world();
        let s = optimized(&g, &r);
        let e02 = g.edge_id(0, 2);
        assert!(s.is_covered(e02), "precondition: 0->2 rides hub 1");
        let mut inc = IncrementalScheduler::new(g.clone(), r.clone(), s);
        // Remove the pull leg 1->2; 0->2 must become direct.
        assert!(inc.remove_edge_detailed(1, 2).applied);
        inc.validate().unwrap();
        assert!(
            inc.base_schedule().is_push(e02) || inc.base_schedule().is_pull(e02),
            "orphaned edge not re-served"
        );
        assert!((inc.recompute_cost() - inc.cost()).abs() < 1e-9);
    }

    #[test]
    fn removing_push_leg_reserves_covered_edges() {
        let (g, r) = hub_world();
        let s = optimized(&g, &r);
        let e02 = g.edge_id(0, 2);
        let mut inc = IncrementalScheduler::new(g.clone(), r.clone(), s);
        assert!(inc.remove_edge_detailed(0, 1).applied);
        inc.validate().unwrap();
        assert!(inc.base_schedule().is_push(e02) || inc.base_schedule().is_pull(e02));
        assert!((inc.recompute_cost() - inc.cost()).abs() < 1e-9);
    }

    #[test]
    fn effects_report_edges_switched_to_direct_serving() {
        let (g, r) = hub_world();
        let s = optimized(&g, &r);
        let mut inc = IncrementalScheduler::new(g, r, s);
        // An added follow is itself served directly.
        let effect = inc.add_edge_detailed(3, 4);
        assert_eq!(effect.reserved_direct, vec![(3, 4)]);
        // Removing the pull leg 1 -> 2 orphans the covered edge 0 -> 2,
        // which is re-served directly; the removed edge itself is not
        // "switched to direct" (it is gone).
        let effect = inc.remove_edge_detailed(1, 2);
        assert_eq!(effect.reserved_direct, vec![(0, 2)]);
        // Removing a direct edge re-serves nothing.
        let effect = inc.remove_edge_detailed(3, 4);
        assert!(effect.reserved_direct.is_empty());
        inc.validate().unwrap();
    }

    /// Whether a list names each user at most once.
    fn distinct(users: &[NodeId]) -> bool {
        let mut sorted = users.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        sorted.len() == users.len()
    }

    #[test]
    fn removing_a_busy_hubs_legs_reserves_exactly_its_orphans() {
        // Hub 0: producers 1..=5 push into it, consumers 6..=10 pull from
        // it, and all 25 cross edges ride it. Hub 11 carries 1 -> 12 and
        // 13 -> 6, so producer 1's out-edges and consumer 6's in-edges
        // also hold edges covered through another hub.
        let (hub, other) = (0, 11);
        let (producers, consumers) = (1..=5, 6..=10);
        let mut b = GraphBuilder::new();
        for x in producers.clone() {
            b.add_edge(x, hub);
            for y in consumers.clone() {
                b.add_edge(x, y);
            }
        }
        for y in consumers.clone() {
            b.add_edge(hub, y);
        }
        for (u, v) in [
            (1, other),
            (other, 12),
            (1, 12),
            (13, other),
            (other, 6),
            (13, 6),
        ] {
            b.add_edge(u, v);
        }
        let g = b.build();
        let mut s = Schedule::for_graph(&g);
        for (u, v) in [(1, other), (13, other)] {
            s.set_push(g.edge_id(u, v));
        }
        for (u, v) in [(other, 12), (other, 6)] {
            s.set_pull(g.edge_id(u, v));
        }
        s.set_covered(g.edge_id(1, 12), other);
        s.set_covered(g.edge_id(13, 6), other);
        for x in producers.clone() {
            s.set_push(g.edge_id(x, hub));
            for y in consumers.clone() {
                s.set_covered(g.edge_id(x, y), hub);
            }
        }
        for y in consumers.clone() {
            s.set_pull(g.edge_id(hub, y));
        }
        // Dyadic rates keep every sum exact. Orphans go both ways on each
        // leg: 1 -> 7 and 3..=5 -> 6 are pulled, the rest pushed.
        let rp = [
            2.0, 0.5, 1.0, 4.0, 8.0, 16.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
        ];
        let rc = [
            1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 0.25, 2.0, 4.0, 32.0, 1.0, 1.0, 1.0,
        ];
        let r = Rates::from_vecs(rp.to_vec(), rc.to_vec());
        let mut inc = IncrementalScheduler::new(g.clone(), r.clone(), s);
        inc.validate().unwrap();
        for (u, v) in [(1, hub), (hub, 6)] {
            // The model: every edge covered through `hub` that rides the
            // removed leg, re-served by the hybrid rule.
            let s = inc.base_schedule();
            let orphans: Vec<(NodeId, NodeId)> = g
                .edges()
                .filter(|&(f, x, y)| s.is_covered(f) && s.hub_of(f) == hub && (x == u || y == v))
                .map(|(_, x, y)| (x, y))
                .collect();
            assert!(orphans.len() >= 4, "{u} -> {v} carries {orphans:?}");
            let effect = inc.remove_edge_detailed(u, v);
            assert!(effect.applied);
            assert_eq!(effect.reserved_direct, orphans, "{u} -> {v}");
            let pushed = |&&(x, y): &&(NodeId, NodeId)| r.rp(x) <= r.rc(y);
            let mut push: Vec<NodeId> = orphans.iter().filter(pushed).map(|&(x, _)| x).collect();
            let mut pull: Vec<NodeId> = orphans
                .iter()
                .filter(|o| !pushed(o))
                .map(|&(_, y)| y)
                .collect();
            if u == hub {
                pull.push(v);
            } else {
                push.push(u);
            }
            for want in [&mut push, &mut pull] {
                want.sort_unstable();
                want.dedup();
            }
            assert!(distinct(&effect.push_changed), "{:?}", effect.push_changed);
            assert!(distinct(&effect.pull_changed), "{:?}", effect.pull_changed);
            let (mut got_push, mut got_pull) = (effect.push_changed, effect.pull_changed);
            got_push.sort_unstable();
            got_pull.sort_unstable();
            assert_eq!((got_push, got_pull), (push, pull), "{u} -> {v}");
            assert_eq!(inc.cost(), inc.recompute_cost());
            inc.validate().unwrap();
        }
        // Hub 11's covers rode neither removed leg.
        let s = inc.base_schedule();
        assert_eq!(s.hub_of(g.edge_id(1, 12)), other);
        assert_eq!(s.hub_of(g.edge_id(13, 6)), other);
        assert_eq!(s.covered_edges().count(), 2 + 4 * 4);
    }

    #[test]
    fn serves_edge_directly_matches_materialized_sets() {
        let (g, r) = hub_world();
        let s = optimized(&g, &r);
        let mut inc = IncrementalScheduler::new(g.clone(), r, s);
        inc.add_edge_detailed(3, 4); // overlay edge, direct by construction
        inc.remove_edge_detailed(1, 2); // orphans 0 -> 2, re-served directly
        let n = g.node_count() as NodeId;
        for u in 0..n {
            let push = inc.push_targets(u);
            for v in 0..n {
                let expected = push.contains(&v) || inc.pull_sources(v).contains(&u);
                assert_eq!(
                    inc.serves_edge_directly(u, v),
                    expected,
                    "probe disagrees with materialized sets on {u} -> {v}"
                );
            }
        }
        // The covered edge 0 -> 2 became direct when its pull leg vanished.
        assert!(inc.serves_edge_directly(0, 2));
        assert!(inc.serves_edge_directly(3, 4));
    }

    #[test]
    fn removing_covered_edge_is_free() {
        let (g, r) = hub_world();
        let s = optimized(&g, &r);
        let mut inc = IncrementalScheduler::new(g, r, s);
        let before = inc.cost();
        assert!(inc.remove_edge_detailed(0, 2).applied);
        assert!((inc.cost() - before).abs() < 1e-9);
        inc.validate().unwrap();
    }

    #[test]
    fn add_remove_roundtrip_restores_cost() {
        let (g, r) = hub_world();
        let s = optimized(&g, &r);
        let mut inc = IncrementalScheduler::new(g, r, s);
        let before = inc.cost();
        inc.add_edge_detailed(3, 4);
        inc.remove_edge_detailed(3, 4);
        assert!((inc.cost() - before).abs() < 1e-9);
        assert!((inc.recompute_cost() - inc.cost()).abs() < 1e-9);
    }

    #[test]
    fn random_churn_keeps_cost_consistent_and_valid() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let g = copying(CopyingConfig {
            nodes: 200,
            follows_per_node: 5,
            copy_prob: 0.7,
            seed: 21,
        });
        let r = Rates::log_degree(&g, 5.0);
        let s = optimized(&g, &r);
        let n = g.node_count();
        let mut inc = IncrementalScheduler::new(g.clone(), r, s);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..500 {
            let u = rng.random_range(0..n) as NodeId;
            let v = rng.random_range(0..n) as NodeId;
            if u == v {
                continue;
            }
            if rng.random_bool(0.6) {
                inc.add_edge_detailed(u, v);
            } else {
                inc.remove_edge_detailed(u, v);
            }
        }
        inc.validate().unwrap();
        assert!(
            (inc.recompute_cost() - inc.cost()).abs() < 1e-6,
            "running cost drifted: {} vs {}",
            inc.cost(),
            inc.recompute_cost()
        );
    }

    #[test]
    fn overlay_cost_delta_matches_recomputed_cost() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let g = copying(CopyingConfig {
            nodes: 150,
            follows_per_node: 4,
            copy_prob: 0.7,
            seed: 11,
        });
        let r = Rates::log_degree(&g, 5.0);
        let s = optimized(&g, &r);
        let base_cost = schedule_cost(&g, &r, &s);
        let mut inc = IncrementalScheduler::new(g, r, s);
        assert_eq!(inc.base_cost(), base_cost);
        assert_eq!(inc.overlay_cost_delta(), 0.0);
        let n = 150;
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..400 {
            let u = rng.random_range(0..n) as NodeId;
            let v = rng.random_range(0..n) as NodeId;
            if u == v {
                continue;
            }
            if rng.random_bool(0.5) {
                inc.add_edge_detailed(u, v);
            } else {
                inc.remove_edge_detailed(u, v);
            }
            // The delta is always the running cost relative to the frozen
            // base cost, and the running cost matches a from-scratch
            // recomputation.
            assert!((inc.overlay_cost_delta() - (inc.cost() - base_cost)).abs() < 1e-9);
        }
        assert!(
            (inc.overlay_cost_delta() - (inc.recompute_cost() - base_cost)).abs() < 1e-6,
            "delta {} vs recomputed {}",
            inc.overlay_cost_delta(),
            inc.recompute_cost() - base_cost
        );
    }

    #[test]
    fn churn_effects_report_exactly_the_changed_serving_sets() {
        use piggyback_graph::fx::FxHashMap;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let g = copying(CopyingConfig {
            nodes: 120,
            follows_per_node: 5,
            copy_prob: 0.8,
            seed: 3,
        });
        let n = g.node_count();
        let r = Rates::log_degree(&g, 5.0);
        let s = optimized(&g, &r);
        let mut inc = IncrementalScheduler::new(g, r, s);
        // Shadow copies of every user's serving sets, patched only at the
        // users each ChurnEffect names; they must stay equal to the real
        // sets throughout.
        let mut pushes: FxHashMap<NodeId, Vec<NodeId>> = FxHashMap::default();
        let mut pulls: FxHashMap<NodeId, Vec<NodeId>> = FxHashMap::default();
        for u in 0..n as NodeId {
            pushes.insert(u, inc.push_targets(u));
            pulls.insert(u, inc.pull_sources(u));
        }
        let mut rng = StdRng::seed_from_u64(29);
        for _ in 0..600 {
            let u = rng.random_range(0..n) as NodeId;
            let v = rng.random_range(0..n) as NodeId;
            if u == v {
                continue;
            }
            let effect = if rng.random_bool(0.55) {
                inc.add_edge_detailed(u, v)
            } else {
                inc.remove_edge_detailed(u, v)
            };
            if !effect.applied {
                assert!(effect.push_changed.is_empty() && effect.pull_changed.is_empty());
                continue;
            }
            for &x in &effect.push_changed {
                pushes.insert(x, inc.push_targets(x));
            }
            for &x in &effect.pull_changed {
                pulls.insert(x, inc.pull_sources(x));
            }
        }
        for u in 0..n as NodeId {
            let (mut a, mut b) = (pushes[&u].clone(), inc.push_targets(u));
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "push set of {u} drifted from reported effects");
            let (mut a, mut b) = (pulls[&u].clone(), inc.pull_sources(u));
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "pull set of {u} drifted from reported effects");
        }
    }

    #[test]
    fn degradation_is_bounded_by_hybrid() {
        // After any churn, incremental cost never exceeds serving every
        // current edge with the hybrid policy... only guaranteed for the
        // *added* part; assert the weaker, meaningful property: incremental
        // cost <= hybrid cost of the full current graph + base-schedule
        // cost surplus. Here: just check re-optimization helps or matches.
        let g = copying(CopyingConfig {
            nodes: 300,
            follows_per_node: 5,
            copy_prob: 0.8,
            seed: 8,
        });
        let r = Rates::log_degree(&g, 5.0);
        let s = optimized(&g, &r);
        let mut inc = IncrementalScheduler::new(g, r.clone(), s);
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..300 {
            let u = rng.random_range(0..300) as NodeId;
            let v = rng.random_range(0..300) as NodeId;
            if u != v {
                inc.add_edge_detailed(u, v);
            }
        }
        let frozen = inc.freeze_graph();
        let reopt = ParallelNosy::default().run(&frozen, &r);
        let reopt_cost = schedule_cost(&frozen, &r, &reopt.schedule);
        assert!(
            reopt_cost <= inc.cost() + 1e-9,
            "re-optimization should not be worse: {} vs {}",
            reopt_cost,
            inc.cost()
        );
        // And the incremental schedule is never worse than all-hybrid.
        let ff = hybrid_schedule(&frozen, &r);
        let ff_cost = schedule_cost(&frozen, &r, &ff);
        assert!(inc.cost() <= ff_cost + 1e-9);
    }
}
