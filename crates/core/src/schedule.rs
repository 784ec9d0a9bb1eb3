//! Request schedules: the `(H, L)` pair of Definition 3, plus the covered
//! set `C` and per-edge hub bookkeeping used by the algorithms.

use piggyback_graph::{CsrGraph, EdgeId, NodeId};

use crate::bitset::BitSet;

/// Sentinel for "no hub recorded".
pub const NO_HUB: NodeId = u32::MAX;

/// How a single social edge `u → v` is served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeAssignment {
    /// `u → v ∈ H`: every event of `u` is pushed into `v`'s view.
    Push,
    /// `u → v ∈ L`: every stream request of `v` queries `u`'s view.
    Pull,
    /// The edge is both pushed and pulled (can arise when a hub selection
    /// adds a push on an edge that an earlier step scheduled as a pull).
    PushAndPull,
    /// Served by social piggybacking through the recorded hub `w`
    /// (Definition 4: `u → w ∈ H` and `w → v ∈ L`).
    Covered(NodeId),
    /// Not yet served — a schedule under construction.
    Unassigned,
}

/// A request schedule over the edges of one [`CsrGraph`].
///
/// Membership is tracked by edge id in three bitsets (push set `H`, pull set
/// `L`, covered set `C`) plus the hub node for every covered edge. The type
/// does not hold a graph reference; all methods take edge ids produced by
/// the graph the schedule was sized for.
#[derive(Clone, Debug)]
pub struct Schedule {
    h: BitSet,
    l: BitSet,
    c: BitSet,
    /// Hub per covered edge; allocated lazily on the first cover so that
    /// schedules that never cover anything (push-all, pull-all, hybrid,
    /// and every intermediate PARALLELNOSY iterate) cost 3 bits instead of
    /// 4 bytes + 3 bits per edge.
    cover_hub: Vec<NodeId>,
}

impl Schedule {
    /// Empty (all-unassigned) schedule for a graph with `edge_count` edges.
    pub fn new(edge_count: usize) -> Self {
        Schedule {
            h: BitSet::new(edge_count),
            l: BitSet::new(edge_count),
            c: BitSet::new(edge_count),
            cover_hub: Vec::new(),
        }
    }

    /// Empty schedule sized for `g`.
    pub fn for_graph(g: &CsrGraph) -> Self {
        Self::new(g.edge_count())
    }

    /// Number of edges the schedule covers.
    pub fn edge_count(&self) -> usize {
        self.h.capacity()
    }

    /// Whether `e ∈ H`.
    #[inline]
    pub fn is_push(&self, e: EdgeId) -> bool {
        self.h.contains(e)
    }

    /// Whether `e ∈ L`.
    #[inline]
    pub fn is_pull(&self, e: EdgeId) -> bool {
        self.l.contains(e)
    }

    /// Whether `e` is covered through a hub.
    #[inline]
    pub fn is_covered(&self, e: EdgeId) -> bool {
        self.c.contains(e)
    }

    /// Whether `e` is served by any of the three admissible mechanisms.
    #[inline]
    pub fn is_served(&self, e: EdgeId) -> bool {
        self.h.contains(e) || self.l.contains(e) || self.c.contains(e)
    }

    /// The hub recorded for covered edge `e`, or [`NO_HUB`].
    #[inline]
    pub fn hub_of(&self, e: EdgeId) -> NodeId {
        self.cover_hub.get(e as usize).copied().unwrap_or(NO_HUB)
    }

    /// Adds `e` to the push set. Returns `true` if newly added.
    ///
    /// # Panics
    ///
    /// Panics if `e` is covered: `C` must stay disjoint from `H ∪ L`
    /// (a covered edge that also pays a push would be wasted throughput).
    pub fn set_push(&mut self, e: EdgeId) -> bool {
        assert!(
            !self.c.contains(e),
            "edge {e} is covered; uncover it before scheduling a push"
        );
        self.h.insert(e)
    }

    /// Adds `e` to the pull set. Returns `true` if newly added.
    ///
    /// # Panics
    ///
    /// Panics if `e` is covered (see [`Schedule::set_push`]).
    pub fn set_pull(&mut self, e: EdgeId) -> bool {
        assert!(
            !self.c.contains(e),
            "edge {e} is covered; uncover it before scheduling a pull"
        );
        self.l.insert(e)
    }

    /// Marks `e` as covered through hub `w`. Returns `true` if newly covered.
    ///
    /// # Panics
    ///
    /// Panics if `e` is already in `H` or `L` — covering a directly-served
    /// edge would be useless (§3.2 candidate-selection conditions).
    pub fn set_covered(&mut self, e: EdgeId, hub: NodeId) -> bool {
        assert!(
            !self.h.contains(e) && !self.l.contains(e),
            "edge {e} is already served directly; refusing to cover it"
        );
        let newly = self.c.insert(e);
        if self.cover_hub.is_empty() {
            self.cover_hub = vec![NO_HUB; self.edge_count()];
        }
        self.cover_hub[e as usize] = hub;
        newly
    }

    /// Removes `e` from all sets (push, pull, covered), forgetting its hub.
    pub fn unassign(&mut self, e: EdgeId) {
        self.h.remove(e);
        self.l.remove(e);
        self.c.remove(e);
        if let Some(slot) = self.cover_hub.get_mut(e as usize) {
            *slot = NO_HUB;
        }
    }

    /// The assignment of edge `e`.
    pub fn assignment(&self, e: EdgeId) -> EdgeAssignment {
        match (self.h.contains(e), self.l.contains(e), self.c.contains(e)) {
            (true, true, _) => EdgeAssignment::PushAndPull,
            (true, false, _) => EdgeAssignment::Push,
            (false, true, _) => EdgeAssignment::Pull,
            (false, false, true) => EdgeAssignment::Covered(self.hub_of(e)),
            (false, false, false) => EdgeAssignment::Unassigned,
        }
    }

    /// Edge ids in the push set `H`, ascending.
    pub fn push_edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.h.iter()
    }

    /// Edge ids in the pull set `L`, ascending.
    pub fn pull_edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.l.iter()
    }

    /// Edge ids covered through hubs, ascending.
    pub fn covered_edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.c.iter()
    }

    /// `(|H|, |L|, |C|)`.
    pub fn set_sizes(&self) -> (usize, usize, usize) {
        (self.h.len(), self.l.len(), self.c.len())
    }

    /// Number of unserved edges.
    pub fn unassigned_count(&self) -> usize {
        let mut served = 0usize;
        // H ∪ L ∪ C; H/L may overlap, C is disjoint from both.
        let mut seen = BitSet::new(self.edge_count());
        for e in self.h.iter().chain(self.l.iter()).chain(self.c.iter()) {
            if seen.insert(e) {
                served += 1;
            }
        }
        self.edge_count() - served
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piggyback_graph::GraphBuilder;

    fn triangle() -> CsrGraph {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1); // e0: x -> w
        b.add_edge(0, 2); // e1: x -> y (cross)
        b.add_edge(1, 2); // e2: w -> y
        b.build()
    }

    #[test]
    fn assignments_roundtrip() {
        let g = triangle();
        let mut s = Schedule::for_graph(&g);
        assert_eq!(s.assignment(0), EdgeAssignment::Unassigned);
        s.set_push(0);
        s.set_pull(2);
        s.set_covered(1, 1);
        assert_eq!(s.assignment(0), EdgeAssignment::Push);
        assert_eq!(s.assignment(2), EdgeAssignment::Pull);
        assert_eq!(s.assignment(1), EdgeAssignment::Covered(1));
        assert_eq!(s.set_sizes(), (1, 1, 1));
        assert_eq!(s.unassigned_count(), 0);
    }

    #[test]
    fn push_and_pull_same_edge() {
        let g = triangle();
        let mut s = Schedule::for_graph(&g);
        s.set_pull(0);
        s.set_push(0);
        assert_eq!(s.assignment(0), EdgeAssignment::PushAndPull);
        assert_eq!(s.unassigned_count(), 2);
    }

    #[test]
    #[should_panic(expected = "already served directly")]
    fn covering_a_pushed_edge_panics() {
        let g = triangle();
        let mut s = Schedule::for_graph(&g);
        s.set_push(1);
        s.set_covered(1, 1);
    }

    #[test]
    #[should_panic(expected = "is covered")]
    fn pushing_a_covered_edge_panics() {
        let g = triangle();
        let mut s = Schedule::for_graph(&g);
        s.set_covered(1, 1);
        s.set_push(1);
    }

    #[test]
    fn unassign_clears_everything() {
        let g = triangle();
        let mut s = Schedule::for_graph(&g);
        s.set_covered(1, 1);
        s.unassign(1);
        assert_eq!(s.assignment(1), EdgeAssignment::Unassigned);
        assert_eq!(s.hub_of(1), NO_HUB);
        s.set_push(1); // no longer panics
    }

    #[test]
    fn hub_array_is_lazy() {
        let g = triangle();
        let mut s = Schedule::for_graph(&g);
        // No covers yet: every edge reports NO_HUB without an allocation.
        assert_eq!(s.hub_of(0), NO_HUB);
        s.set_push(0);
        s.unassign(0); // must not require the hub array either
        s.set_covered(1, 1);
        assert_eq!(s.hub_of(1), 1);
        assert_eq!(s.hub_of(2), NO_HUB);
    }

    #[test]
    fn iterators_ascend() {
        let g = triangle();
        let mut s = Schedule::for_graph(&g);
        s.set_push(2);
        s.set_push(0);
        assert_eq!(s.push_edges().collect::<Vec<_>>(), vec![0, 2]);
    }
}
