//! Mutation overlay over an immutable [`CsrGraph`].
//!
//! The scheduling algorithms optimize a *static* snapshot; §3.3 of the paper
//! handles graph churn by serving newly added edges directly and patching
//! the schedule when edges disappear, re-optimizing only occasionally.
//! [`DynamicGraph`] supports exactly that pattern: cheap edge addition and
//! removal on top of a frozen CSR base, plus [`DynamicGraph::freeze`] to
//! materialize a new CSR snapshot when a full re-optimization is due.

use std::convert::Infallible;

use crate::csr::{CsrGraph, NodeId};
use crate::fx::{FxHashMap, FxHashSet};

/// A digraph that starts from a CSR snapshot and accumulates edge
/// insertions and deletions.
#[derive(Clone, Debug)]
pub struct DynamicGraph {
    base: CsrGraph,
    /// Edges added since the snapshot, by source. Sorted, deduplicated lazily
    /// on read is not worth it at these sizes; kept unsorted, deduped on add.
    added_out: FxHashMap<NodeId, Vec<NodeId>>,
    /// Reverse index of `added_out`.
    added_in: FxHashMap<NodeId, Vec<NodeId>>,
    /// Base edges removed since the snapshot.
    removed: FxHashSet<(NodeId, NodeId)>,
    added_count: usize,
    /// Node count including nodes introduced by added edges.
    node_count: usize,
}

impl DynamicGraph {
    /// Wraps a CSR snapshot with an empty overlay.
    pub fn new(base: CsrGraph) -> Self {
        let node_count = base.node_count();
        DynamicGraph {
            base,
            added_out: FxHashMap::default(),
            added_in: FxHashMap::default(),
            removed: FxHashSet::default(),
            added_count: 0,
            node_count,
        }
    }

    /// The frozen snapshot this overlay started from.
    pub fn base(&self) -> &CsrGraph {
        &self.base
    }

    /// Current number of nodes (snapshot nodes plus nodes introduced by
    /// added edges).
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Current number of edges.
    pub fn edge_count(&self) -> usize {
        self.base.edge_count() + self.added_count - self.removed.len()
    }

    /// Number of edges added since the snapshot.
    pub fn added_count(&self) -> usize {
        self.added_count
    }

    /// Number of base edges removed since the snapshot.
    pub fn removed_count(&self) -> usize {
        self.removed.len()
    }

    /// Whether `(u, v)` is an edge of the base snapshot (false for node ids
    /// the snapshot never had).
    fn base_has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let n = self.base.node_count();
        (u as usize) < n && (v as usize) < n && self.base.has_edge(u, v)
    }

    /// Whether edge `u → v` currently exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if self.removed.contains(&(u, v)) {
            return false;
        }
        if self.base_has_edge(u, v) {
            return true;
        }
        self.added_out.get(&u).is_some_and(|vs| vs.contains(&v))
    }

    /// Adds `u → v`. Returns `true` if the edge was not already present.
    /// Self-loops are rejected (returns `false`).
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return false;
        }
        // Re-adding a removed base edge just clears the tombstone.
        if self.base_has_edge(u, v) {
            return self.removed.remove(&(u, v));
        }
        let out = self.added_out.entry(u).or_default();
        if out.contains(&v) {
            return false;
        }
        out.push(v);
        self.added_in.entry(v).or_default().push(u);
        self.added_count += 1;
        self.node_count = self.node_count.max(u.max(v) as usize + 1);
        true
    }

    /// Removes `u → v`. Returns `true` if the edge existed.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if self.base_has_edge(u, v) {
            return self.removed.insert((u, v));
        }
        let Some(out) = self.added_out.get_mut(&u) else {
            return false;
        };
        let Some(pos) = out.iter().position(|&x| x == v) else {
            return false;
        };
        out.swap_remove(pos);
        let inn = self
            .added_in
            .get_mut(&v)
            .expect("reverse index out of sync");
        let rpos = inn
            .iter()
            .position(|&x| x == u)
            .expect("reverse index out of sync");
        inn.swap_remove(rpos);
        self.added_count -= 1;
        true
    }

    /// Out-neighbors of `u`, including overlay edges, excluding removed ones.
    pub fn out_neighbors(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let base = if (u as usize) < self.base.node_count() {
            self.base.out_neighbors(u)
        } else {
            &[]
        };
        base.iter()
            .copied()
            .filter(move |&v| !self.removed.contains(&(u, v)))
            .chain(self.added_out.get(&u).into_iter().flatten().copied())
    }

    /// In-neighbors of `v`, including overlay edges, excluding removed ones.
    pub fn in_neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let base = if (v as usize) < self.base.node_count() {
            self.base.in_neighbors(v)
        } else {
            &[]
        };
        base.iter()
            .copied()
            .filter(move |&u| !self.removed.contains(&(u, v)))
            .chain(self.added_in.get(&v).into_iter().flatten().copied())
    }

    /// All current edges (order unspecified).
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.base
            .edges()
            .map(|(_, u, v)| (u, v))
            .filter(move |e| !self.removed.contains(e))
            .chain(
                self.added_out
                    .iter()
                    .flat_map(|(&u, vs)| vs.iter().map(move |&v| (u, v))),
            )
    }

    /// Edges added since the snapshot (order unspecified).
    pub fn added_edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.added_out
            .iter()
            .flat_map(|(&u, vs)| vs.iter().map(move |&v| (u, v)))
    }

    /// Base edges removed since the snapshot.
    pub fn removed_edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.removed.iter().copied()
    }

    /// Materializes the current state into a fresh [`CsrGraph`] snapshot,
    /// replaying [`DynamicGraph::edges`] once per pass of
    /// [`CsrGraph::from_replayed`]: no edge buffer, no global sort.
    pub fn freeze(&self) -> CsrGraph {
        let Ok(g) = CsrGraph::from_replayed(self.node_count, |_, sink| {
            for (u, v) in self.edges() {
                sink.emit(u, v);
            }
            Ok::<(), Infallible>(())
        });
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> CsrGraph {
        vec![(0, 1), (1, 2), (0, 2)].into_iter().collect()
    }

    #[test]
    fn add_new_edge() {
        let mut d = DynamicGraph::new(base());
        assert!(d.add_edge(2, 0));
        assert!(!d.add_edge(2, 0));
        assert_eq!(d.edge_count(), 4);
        assert!(d.has_edge(2, 0));
        assert_eq!(d.out_neighbors(2).collect::<Vec<_>>(), vec![0]);
        assert_eq!(d.in_neighbors(0).collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn remove_base_edge() {
        let mut d = DynamicGraph::new(base());
        assert!(d.remove_edge(0, 1));
        assert!(!d.remove_edge(0, 1));
        assert!(!d.has_edge(0, 1));
        assert_eq!(d.edge_count(), 2);
        assert!(!d.out_neighbors(0).any(|v| v == 1));
        assert!(!d.in_neighbors(1).any(|u| u == 0));
    }

    #[test]
    fn readd_removed_base_edge() {
        let mut d = DynamicGraph::new(base());
        d.remove_edge(0, 1);
        assert!(d.add_edge(0, 1));
        assert!(d.has_edge(0, 1));
        assert_eq!(d.edge_count(), 3);
    }

    #[test]
    fn remove_overlay_edge() {
        let mut d = DynamicGraph::new(base());
        d.add_edge(2, 0);
        assert!(d.remove_edge(2, 0));
        assert!(!d.has_edge(2, 0));
        assert_eq!(d.edge_count(), 3);
        assert_eq!(d.in_neighbors(0).count(), 0);
    }

    #[test]
    fn new_nodes_extend_count() {
        let mut d = DynamicGraph::new(base());
        assert_eq!(d.node_count(), 3);
        d.add_edge(0, 9);
        assert_eq!(d.node_count(), 10);
        assert_eq!(d.out_neighbors(9).count(), 0);
        assert_eq!(d.in_neighbors(9).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn self_loops_rejected() {
        let mut d = DynamicGraph::new(base());
        assert!(!d.add_edge(1, 1));
        assert_eq!(d.edge_count(), 3);
    }

    #[test]
    fn freeze_roundtrip() {
        let mut d = DynamicGraph::new(base());
        d.remove_edge(0, 2);
        d.add_edge(2, 3);
        let g = d.freeze();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3);
        assert!(g.has_edge(2, 3));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn edges_iterator_matches_count() {
        let mut d = DynamicGraph::new(base());
        d.add_edge(2, 0);
        d.remove_edge(1, 2);
        assert_eq!(d.edges().count(), d.edge_count());
    }
}
