//! Compressed-sparse-row digraph with forward and reverse adjacency.
//!
//! The representation targets the access patterns of the scheduling
//! algorithms in `piggyback-core`:
//!
//! * enumerate out-neighbors of a node (building hub-graphs `G(X, w, Y)`),
//! * enumerate in-neighbors of a node (finding common predecessors),
//! * map an arbitrary `(u, v)` pair to a dense [`EdgeId`] in O(log deg(u)),
//! * iterate all edges with their ids.
//!
//! Edge ids index the forward adjacency array, so per-edge algorithm state
//! (push/pull/covered bits, costs, locks) lives in flat arrays.

/// Identifier of a node (user). Dense in `0..node_count`.
pub type NodeId = u32;

/// Identifier of an edge. Dense in `0..edge_count`; equals the position of
/// the edge in the forward adjacency array (grouped by source, sorted by
/// destination within a group).
pub type EdgeId = u32;

/// Sentinel returned by lookups for non-existent edges.
pub const INVALID_EDGE: EdgeId = u32::MAX;

/// Immutable CSR digraph. Construct via [`CsrGraph::from_replayed`] (the
/// two-pass kernel) or [`crate::GraphBuilder`], which replays its buffer
/// through it.
///
/// An edge `u → v` means *v subscribes to u* (u produces, v consumes).
///
/// Offsets are stored as `u32`, which is valid because edge ids are `u32`:
/// at 10M nodes the five adjacency arrays cost `8n + 12m` bytes instead of
/// the `24n + 12m` a `usize`-offset layout would need.
#[derive(Clone, Debug)]
pub struct CsrGraph {
    /// `out_offsets[u]..out_offsets[u+1]` indexes `out_targets` / edge ids.
    out_offsets: Vec<u32>,
    /// Destination of each edge, grouped by source, sorted within a group.
    out_targets: Vec<NodeId>,
    /// `in_offsets[v]..in_offsets[v+1]` indexes `in_sources`.
    in_offsets: Vec<u32>,
    /// Source of each in-edge, grouped by destination, sorted within a group.
    in_sources: Vec<NodeId>,
    /// Forward edge id of each reverse-adjacency slot.
    in_edge_ids: Vec<EdgeId>,
}

impl CsrGraph {
    /// Builds the reverse adjacency for an already-frozen forward CSR.
    ///
    /// `out_offsets` must be a prefix-sum array of length `n + 1` with
    /// `out_offsets[n] == out_targets.len()`, and every group must be
    /// sorted, duplicate-free and self-loop-free (the two-pass kernel of
    /// [`CsrGraph::from_replayed`], its only caller, guarantees this).
    pub(crate) fn from_out_adjacency(out_offsets: Vec<u32>, out_targets: Vec<NodeId>) -> Self {
        let n = out_offsets.len() - 1;
        let m = out_targets.len();
        debug_assert_eq!(out_offsets[n] as usize, m);

        // Reverse adjacency: counting sort by destination. Because sources
        // are visited in ascending order and the sort is stable, each
        // in_sources group comes out sorted by source already.
        let mut in_offsets = vec![0u32; n + 1];
        for &v in &out_targets {
            in_offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut cursor = in_offsets.clone();
        let mut in_sources = vec![0 as NodeId; m];
        let mut in_edge_ids = vec![0 as EdgeId; m];
        for u in 0..n {
            let (lo, hi) = (out_offsets[u] as usize, out_offsets[u + 1] as usize);
            for (eid, &v) in (lo..).zip(&out_targets[lo..hi]) {
                let slot = cursor[v as usize] as usize;
                in_sources[slot] = u as NodeId;
                in_edge_ids[slot] = eid as EdgeId;
                cursor[v as usize] += 1;
            }
        }
        CsrGraph {
            out_offsets,
            out_targets,
            in_offsets,
            in_sources,
            in_edge_ids,
        }
    }

    /// Number of nodes (users).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.out_offsets.len() - 1
    }

    /// Number of directed edges (subscriptions).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.out_targets.len()
    }

    /// Iterator over all node ids.
    #[inline]
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.node_count() as NodeId
    }

    /// Out-neighbors of `u`: the consumers subscribed to `u`, ascending.
    #[inline]
    pub fn out_neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.out_targets
            [self.out_offsets[u as usize] as usize..self.out_offsets[u as usize + 1] as usize]
    }

    /// In-neighbors of `v`: the producers `v` subscribes to, ascending.
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.in_sources
            [self.in_offsets[v as usize] as usize..self.in_offsets[v as usize + 1] as usize]
    }

    /// Out-degree of `u` (number of consumers).
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        (self.out_offsets[u as usize + 1] - self.out_offsets[u as usize]) as usize
    }

    /// In-degree of `v` (number of producers it follows).
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        (self.in_offsets[v as usize + 1] - self.in_offsets[v as usize]) as usize
    }

    /// Edge ids of the out-edges of `u`, parallel to [`Self::out_neighbors`].
    #[inline]
    pub fn out_edge_ids(&self, u: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        self.out_offsets[u as usize]..self.out_offsets[u as usize + 1]
    }

    /// `(in-neighbor, edge id)` pairs for the in-edges of `v`.
    #[inline]
    pub fn in_edges(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        let range = self.in_offsets[v as usize] as usize..self.in_offsets[v as usize + 1] as usize;
        range.map(move |i| (self.in_sources[i], self.in_edge_ids[i]))
    }

    /// `(out-neighbor, edge id)` pairs for the out-edges of `u`.
    #[inline]
    pub fn out_edges(&self, u: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        let range = self.out_offsets[u as usize]..self.out_offsets[u as usize + 1];
        range.map(move |i| (self.out_targets[i as usize], i))
    }

    /// Edge id of the `idx`-th out-edge of `u` (position in the sorted
    /// out-neighbor slice). O(1); pairs with [`Self::out_neighbors`] so
    /// intersection loops over neighbor slices can recover edge ids without
    /// binary searches.
    #[inline]
    pub fn out_edge_id_at(&self, u: NodeId, idx: usize) -> EdgeId {
        debug_assert!(idx < self.out_degree(u));
        self.out_offsets[u as usize] + idx as EdgeId
    }

    /// Forward edge id of the `idx`-th in-edge of `v` (position in the
    /// sorted in-neighbor slice). O(1); pairs with [`Self::in_neighbors`].
    #[inline]
    pub fn in_edge_id_at(&self, v: NodeId, idx: usize) -> EdgeId {
        debug_assert!(idx < self.in_degree(v));
        self.in_edge_ids[self.in_offsets[v as usize] as usize + idx]
    }

    /// Half-open range of edge ids owned by `u`'s out-adjacency. Edge ids
    /// index the forward array, so `u`'s out-edges are exactly
    /// `range.0..range.1` — the key to iterating a node's edges through a
    /// per-edge bitset at word speed.
    #[inline]
    pub fn out_edge_id_range(&self, u: NodeId) -> (EdgeId, EdgeId) {
        (
            self.out_offsets[u as usize],
            self.out_offsets[u as usize + 1],
        )
    }

    /// Half-open range of *in-slot* indices owned by `v`'s in-adjacency
    /// (positions into the reverse arrays, dense in `0..edge_count`).
    /// The reverse-orientation analogue of [`Self::out_edge_id_range`]:
    /// per-in-edge state in a bitset keyed by slot scans at word speed.
    #[inline]
    pub fn in_slot_range(&self, v: NodeId) -> (u32, u32) {
        (self.in_offsets[v as usize], self.in_offsets[v as usize + 1])
    }

    /// Source node of the in-edge stored at `slot` (see
    /// [`Self::in_slot_range`]).
    #[inline]
    pub fn in_source_at_slot(&self, slot: u32) -> NodeId {
        self.in_sources[slot as usize]
    }

    /// In-slot of edge `u → v`, or `None` if absent. O(log in_degree(v)).
    #[inline]
    pub fn in_slot(&self, u: NodeId, v: NodeId) -> Option<u32> {
        let base = self.in_offsets[v as usize];
        self.in_neighbors(v)
            .binary_search(&u)
            .ok()
            .map(|pos| base + pos as u32)
    }

    /// Destination of edge `e`. O(1) (forward-array load).
    #[inline]
    pub fn edge_target(&self, e: EdgeId) -> NodeId {
        self.out_targets[e as usize]
    }

    /// Looks up the id of edge `u → v`, or [`INVALID_EDGE`] if absent.
    ///
    /// O(log out_degree(u)) via binary search of the sorted neighbor slice.
    #[inline]
    pub fn edge_id(&self, u: NodeId, v: NodeId) -> EdgeId {
        let base = self.out_offsets[u as usize];
        match self.out_neighbors(u).binary_search(&v) {
            Ok(pos) => base + pos as EdgeId,
            Err(_) => INVALID_EDGE,
        }
    }

    /// Whether edge `u → v` exists.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_id(u, v) != INVALID_EDGE
    }

    /// Source and destination of edge `e`.
    ///
    /// O(log n): the source is recovered by binary-searching the offset
    /// array. Hot loops should iterate [`Self::edges`] instead.
    pub fn edge_endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        let idx = e as usize;
        debug_assert!(idx < self.edge_count());
        // partition_point returns the first u with out_offsets[u] > idx, so
        // the source is that minus one.
        let u = self.out_offsets.partition_point(|&off| off as usize <= idx) - 1;
        (u as NodeId, self.out_targets[idx])
    }

    /// Iterates all edges as `(edge id, src, dst)` in edge-id order.
    pub fn edges(&self) -> EdgeIter<'_> {
        EdgeIter {
            graph: self,
            src: 0,
            idx: 0,
        }
    }

    /// Sum of degrees per node pair; `true` if `u` and `v` are reciprocal
    /// (both `u → v` and `v → u` exist).
    #[inline]
    pub fn is_reciprocal(&self, u: NodeId, v: NodeId) -> bool {
        self.has_edge(u, v) && self.has_edge(v, u)
    }

    /// Memory footprint of the adjacency arrays in bytes (diagnostics).
    pub fn memory_bytes(&self) -> usize {
        self.out_offsets.len() * std::mem::size_of::<u32>()
            + self.in_offsets.len() * std::mem::size_of::<u32>()
            + self.out_targets.len() * std::mem::size_of::<NodeId>()
            + self.in_sources.len() * std::mem::size_of::<NodeId>()
            + self.in_edge_ids.len() * std::mem::size_of::<EdgeId>()
    }
}

/// Merge-intersects two ascending slices, invoking `f(i, j)` for every
/// common value (where `a[i] == b[j]`), in ascending value order.
///
/// `f` returns whether to continue; returning `false` stops the scan (used
/// by callers with a budget, e.g. §3.2's cross-edge cap `b`). O(|a| + |b|),
/// allocation-free — the shared inner loop of hub-graph construction
/// (neighbor lists are CSR slices, so indices convert to edge ids via
/// [`CsrGraph::out_edge_id_at`] / [`CsrGraph::in_edge_id_at`]).
pub fn intersect_sorted(a: &[NodeId], b: &[NodeId], mut f: impl FnMut(usize, usize) -> bool) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                if !f(i, j) {
                    return;
                }
                i += 1;
                j += 1;
            }
        }
    }
}

/// Iterator over `(edge id, src, dst)` triples; see [`CsrGraph::edges`].
pub struct EdgeIter<'a> {
    graph: &'a CsrGraph,
    src: usize,
    idx: usize,
}

impl Iterator for EdgeIter<'_> {
    type Item = (EdgeId, NodeId, NodeId);

    fn next(&mut self) -> Option<Self::Item> {
        if self.idx >= self.graph.edge_count() {
            return None;
        }
        // Advance src until idx falls inside its out-range.
        while (self.graph.out_offsets[self.src + 1] as usize) <= self.idx {
            self.src += 1;
        }
        let item = (
            self.idx as EdgeId,
            self.src as NodeId,
            self.graph.out_targets[self.idx],
        );
        self.idx += 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.graph.edge_count() - self.idx;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for EdgeIter<'_> {}

#[cfg(test)]
mod tests {
    use crate::GraphBuilder;

    use super::*;

    fn diamond() -> CsrGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3, 0 -> 3
        let mut b = GraphBuilder::new();
        for &(u, v) in &[(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)] {
            b.add_edge(u, v);
        }
        b.build()
    }

    #[test]
    fn counts() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 5);
    }

    #[test]
    fn out_neighbors_sorted() {
        let g = diamond();
        assert_eq!(g.out_neighbors(0), &[1, 2, 3]);
        assert_eq!(g.out_neighbors(1), &[3]);
        assert_eq!(g.out_neighbors(3), &[] as &[NodeId]);
    }

    #[test]
    fn in_neighbors_sorted() {
        let g = diamond();
        assert_eq!(g.in_neighbors(3), &[0, 1, 2]);
        assert_eq!(g.in_neighbors(0), &[] as &[NodeId]);
    }

    #[test]
    fn degrees() {
        let g = diamond();
        assert_eq!(g.out_degree(0), 3);
        assert_eq!(g.in_degree(3), 3);
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.out_degree(3), 0);
    }

    #[test]
    fn edge_id_lookup_roundtrip() {
        let g = diamond();
        for (e, u, v) in g.edges() {
            assert_eq!(g.edge_id(u, v), e);
            assert_eq!(g.edge_endpoints(e), (u, v));
        }
        assert_eq!(g.edge_id(3, 0), INVALID_EDGE);
        assert_eq!(g.edge_id(1, 2), INVALID_EDGE);
    }

    #[test]
    fn edge_iter_is_dense_and_ordered() {
        let g = diamond();
        let ids: Vec<EdgeId> = g.edges().map(|(e, _, _)| e).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert_eq!(g.edges().len(), 5);
    }

    #[test]
    fn in_edges_carry_forward_ids() {
        let g = diamond();
        for v in g.nodes() {
            for (u, e) in g.in_edges(v) {
                assert_eq!(g.edge_endpoints(e), (u, v));
            }
        }
    }

    #[test]
    fn reciprocity() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        b.add_edge(1, 2);
        let g = b.build();
        assert!(g.is_reciprocal(0, 1));
        assert!(!g.is_reciprocal(1, 2));
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn isolated_nodes_allowed() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 5); // nodes 1..5 have no edges
        let g = b.build();
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.in_degree(3), 0);
    }

    #[test]
    fn memory_accounting_positive() {
        let g = diamond();
        assert!(g.memory_bytes() > 0);
    }

    #[test]
    fn edge_id_at_matches_iterators() {
        let g = diamond();
        for u in g.nodes() {
            for (idx, (t, e)) in g.out_edges(u).enumerate() {
                assert_eq!(g.out_edge_id_at(u, idx), e);
                assert_eq!(g.out_neighbors(u)[idx], t);
            }
        }
        for v in g.nodes() {
            for (idx, (s, e)) in g.in_edges(v).enumerate() {
                assert_eq!(g.in_edge_id_at(v, idx), e);
                assert_eq!(g.in_neighbors(v)[idx], s);
            }
        }
    }

    #[test]
    fn intersect_sorted_finds_common_values() {
        let a = [1u32, 3, 5, 7, 9];
        let b = [2u32, 3, 4, 7, 10];
        let mut hits = Vec::new();
        intersect_sorted(&a, &b, |i, j| {
            assert_eq!(a[i], b[j]);
            hits.push(a[i]);
            true
        });
        assert_eq!(hits, vec![3, 7]);
    }

    #[test]
    fn intersect_sorted_early_stop() {
        let a = [1u32, 2, 3, 4];
        let b = [1u32, 2, 3, 4];
        let mut count = 0;
        intersect_sorted(&a, &b, |_, _| {
            count += 1;
            count < 2
        });
        assert_eq!(count, 2);
        intersect_sorted(&a, &[], |_, _| panic!("no common values"));
    }
}
