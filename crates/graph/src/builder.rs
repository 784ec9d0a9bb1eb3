//! The one way to build a [`CsrGraph`]: a two-pass counting-sort kernel.
//!
//! Every graph — [`GraphBuilder::build`], the edge-list loaders, the
//! generators and the churn freeze (`IncrementalScheduler::freeze_graph`
//! in `piggyback-core`) — comes out of
//! [`CsrGraph::from_replayed`], which asks its source for the same edge
//! sequence twice. Pass one ([`Pass::Count`]) counts out-degrees; pass two
//! ([`Pass::Fill`]) writes each target straight into its final CSR slot;
//! then every source's slots are sorted, deduplicated and stripped of
//! self-loops. The kernel's transient memory is one `u32` per node plus one
//! `NodeId` per raw edge, with no global sort. A replayed source (a file
//! opened twice, a generator, a frozen graph) keeps no edge list either;
//! [`GraphBuilder`] is the exception, since it buffers its input to replay
//! it.
//!
//! Placement runs on the calling thread, one edge at a time as it is
//! emitted.

use std::convert::Infallible;

use crate::csr::{CsrGraph, NodeId};

/// Which pass of [`CsrGraph::from_replayed`] a source is feeding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pass {
    /// Pass one: the out-degree census.
    Count,
    /// Pass two: slot placement. The source must emit the same edges as in
    /// pass one; a per-source edge count that differs panics instead of
    /// corrupting the graph.
    Fill,
}

/// Where a replayed source emits its edges (see [`CsrGraph::from_replayed`]).
#[derive(Debug)]
pub struct EdgeSink {
    pass: Pass,
    /// Pass one: raw out-degree per source (duplicates and self-loops
    /// included). Pass two: next free slot per source. Its length is the
    /// node count.
    cursor: Vec<u32>,
    /// Prefix sums of the raw out-degrees, length `n + 1` (pass two).
    offsets: Vec<u32>,
    targets: Vec<NodeId>,
    /// Raw edges counted in pass one.
    edges: usize,
}

impl EdgeSink {
    /// Emits edge `u → v` (v subscribes to u). Duplicates and self-loops
    /// are tolerated: they are merged and dropped when the graph freezes.
    #[inline]
    pub fn emit(&mut self, u: NodeId, v: NodeId) {
        match self.pass {
            Pass::Count => self.count(u, v),
            Pass::Fill => self.place(u, v),
        }
    }

    /// Counts one edge into the degree census, growing it to the larger id
    /// — after checking that id, so no id-sized allocation can run away.
    #[inline]
    fn count(&mut self, u: NodeId, v: NodeId) {
        let hi = u.max(v);
        if hi as usize >= self.cursor.len() {
            assert!(
                hi < NodeId::MAX,
                "node id {hi} is above the largest legal id {}",
                NodeId::MAX - 1
            );
            self.cursor.resize(hi as usize + 1, 0);
        }
        self.cursor[u as usize] += 1;
        self.edges += 1;
    }

    /// Writes `v` into the next free slot of `u`, which the census must
    /// have counted.
    #[inline]
    fn place(&mut self, u: NodeId, v: NodeId) {
        let ui = u as usize;
        assert!(
            ui < self.cursor.len() && self.cursor[ui] < self.offsets[ui + 1],
            "fill pass does not match count pass at edge {u} -> {v}",
        );
        self.targets[self.cursor[ui] as usize] = v;
        self.cursor[ui] += 1;
    }

    /// Turns the census into prefix sums and slot cursors, ready for pass
    /// two.
    fn start_fill(&mut self) {
        assert!(
            self.edges < u32::MAX as usize,
            "edge count overflows u32 edge ids"
        );
        self.pass = Pass::Fill;
        self.offsets = Vec::with_capacity(self.cursor.len() + 1);
        self.offsets.push(0);
        let mut sum = 0u32;
        for c in &mut self.cursor {
            let start = sum;
            sum += *c;
            *c = start;
            self.offsets.push(sum);
        }
        self.targets = vec![0 as NodeId; self.edges];
    }

    /// Sorts each source's slots, merges duplicates, drops self-loops and
    /// freezes into a CSR graph.
    fn finish(mut self) -> CsrGraph {
        let n = self.cursor.len();
        for u in 0..n {
            assert_eq!(
                self.cursor[u],
                self.offsets[u + 1],
                "fill pass is missing edges of node {u}"
            );
        }
        let mut write = 0u32;
        let mut out_offsets = vec![0u32; n + 1];
        for u in 0..n {
            let (lo, hi) = (self.offsets[u] as usize, self.offsets[u + 1] as usize);
            if !self.targets[lo..hi].is_sorted() {
                self.targets[lo..hi].sort_unstable();
            }
            // In-place compaction: `write` never passes `lo`, so unread
            // input is never clobbered.
            let mut prev = None;
            for i in lo..hi {
                let v = self.targets[i];
                if v == u as NodeId || prev == Some(v) {
                    continue;
                }
                prev = Some(v);
                self.targets[write as usize] = v;
                write += 1;
            }
            out_offsets[u + 1] = write;
        }
        self.targets.truncate(write as usize);
        self.targets.shrink_to_fit();
        CsrGraph::from_out_adjacency(out_offsets, self.targets)
    }
}

impl CsrGraph {
    /// Builds a graph from a source that can replay its edge list: a file
    /// opened twice, a seeded generator, an in-memory graph.
    ///
    /// `source` is called exactly twice, once per [`Pass`], and must emit
    /// the same edges into the [`EdgeSink`] both times; a source whose
    /// per-source edge counts change between the passes panics. An error
    /// the source returns stops the build and is returned as is.
    ///
    /// The graph has `max(nodes, max id + 1)` nodes; unreferenced ids are
    /// isolated. Duplicate edges are merged and self-loops dropped. The
    /// largest legal id is `u32::MAX - 1` (panics above it).
    ///
    /// ```
    /// use piggyback_graph::CsrGraph;
    ///
    /// let Ok(g) = CsrGraph::from_replayed(4, |_pass, sink| {
    ///     for (u, v) in [(0, 1), (1, 2), (0, 1), (2, 2)] {
    ///         sink.emit(u, v);
    ///     }
    ///     Ok::<(), std::convert::Infallible>(())
    /// });
    /// assert_eq!((g.node_count(), g.edge_count()), (4, 2));
    /// ```
    pub fn from_replayed<E>(
        nodes: usize,
        mut source: impl FnMut(Pass, &mut EdgeSink) -> Result<(), E>,
    ) -> Result<CsrGraph, E> {
        assert!(
            nodes <= NodeId::MAX as usize,
            "{nodes} nodes exceed the largest legal id {}",
            NodeId::MAX - 1
        );
        let mut sink = EdgeSink {
            pass: Pass::Count,
            cursor: vec![0; nodes],
            offsets: Vec::new(),
            targets: Vec::new(),
            edges: 0,
        };
        source(Pass::Count, &mut sink)?;
        sink.start_fill();
        source(Pass::Fill, &mut sink)?;
        Ok(sink.finish())
    }
}

/// Accumulates directed edges and produces an immutable [`CsrGraph`]: for
/// sources that cannot be replayed, or are simplest written as a loop.
///
/// The builder tolerates duplicate edges and self-loops in its input:
/// duplicates are merged and self-loops dropped at [`GraphBuilder::build`]
/// time. Self-loops are meaningless in the dissemination model because a
/// user's own view always receives their events implicitly (§2.1: "users
/// always access their own view").
///
/// Node count is `max node id + 1`; ids need not be contiguous in the input,
/// unreferenced ids simply become isolated nodes.
#[derive(Default, Clone, Debug)]
pub struct GraphBuilder {
    edges: Vec<(NodeId, NodeId)>,
    nodes: usize,
}

impl GraphBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder with capacity for `m` edges.
    pub fn with_capacity(m: usize) -> Self {
        GraphBuilder {
            edges: Vec::with_capacity(m),
            nodes: 0,
        }
    }

    /// Adds directed edge `u → v` (v subscribes to u).
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        self.edges.push((u, v));
    }

    /// Adds both `u → v` and `v → u` (a symmetric friendship).
    pub fn add_reciprocal(&mut self, u: NodeId, v: NodeId) {
        self.add_edge(u, v);
        self.add_edge(v, u);
    }

    /// Ensures the graph has at least `n` nodes even if some are isolated.
    pub fn reserve_nodes(&mut self, n: usize) {
        self.nodes = self.nodes.max(n);
    }

    /// Number of edges added so far (before dedup).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Replays the buffered edges through [`CsrGraph::from_replayed`],
    /// which merges duplicates and strips self-loops.
    pub fn build(self) -> CsrGraph {
        let Ok(g) = CsrGraph::from_replayed(self.nodes, |_, sink| {
            for &(u, v) in &self.edges {
                sink.emit(u, v);
            }
            Ok::<(), Infallible>(())
        });
        g
    }
}

/// Builds a graph directly from an iterator of edges.
impl FromIterator<(NodeId, NodeId)> for CsrGraph {
    fn from_iter<I: IntoIterator<Item = (NodeId, NodeId)>>(iter: I) -> Self {
        let mut b = GraphBuilder::new();
        for (u, v) in iter {
            b.add_edge(u, v);
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::EdgeId;

    #[test]
    fn dedups_and_drops_self_loops() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        b.add_edge(1, 1);
        b.add_edge(2, 0);
        let g = b.build();
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(1, 1));
    }

    #[test]
    fn reciprocal_adds_two_edges() {
        let mut b = GraphBuilder::new();
        b.add_reciprocal(3, 7);
        let g = b.build();
        assert_eq!(g.edge_count(), 2);
        assert!(g.is_reciprocal(3, 7));
    }

    #[test]
    fn reserve_nodes_creates_isolated() {
        let mut b = GraphBuilder::new();
        b.reserve_nodes(10);
        b.add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.node_count(), 10);
    }

    #[test]
    fn from_iterator() {
        let g: CsrGraph = vec![(0, 1), (1, 2)].into_iter().collect();
        assert_eq!(g.edge_count(), 2);
    }

    /// The sort-based reference every build must reproduce: collect, sort,
    /// dedup and drop self-loops, then derive the node count, the forward
    /// edges with their ids and each node's in-edges (ascending by source).
    struct Oracle {
        nodes: usize,
        edges: Vec<(EdgeId, NodeId, NodeId)>,
        in_edges: Vec<Vec<(NodeId, EdgeId)>>,
    }

    impl Oracle {
        fn new(edges: &[(NodeId, NodeId)], reserve: usize) -> Oracle {
            let mut sorted = edges.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            sorted.retain(|&(u, v)| u != v);
            let nodes = edges
                .iter()
                .map(|&(u, v)| u.max(v) as usize + 1)
                .max()
                .unwrap_or(0)
                .max(reserve);
            let edges: Vec<_> = (0..).zip(sorted).map(|(e, (u, v))| (e, u, v)).collect();
            let mut in_edges = vec![Vec::new(); nodes];
            for &(e, u, v) in &edges {
                in_edges[v as usize].push((u, e));
            }
            Oracle {
                nodes,
                edges,
                in_edges,
            }
        }

        fn check(&self, g: &CsrGraph, what: &str) {
            assert_eq!(g.node_count(), self.nodes, "{what}: node count");
            assert!(g.edges().eq(self.edges.iter().copied()), "{what}: edges");
            for v in g.nodes() {
                let want = self.in_edges[v as usize].iter().copied();
                assert!(g.in_edges(v).eq(want), "{what}: in-edges of {v}");
            }
        }
    }

    /// Deterministic pseudo-random edge list with duplicates, self-loops,
    /// hub skew, and out-of-order sources — everything the kernel must
    /// normalize.
    fn messy_edges(m: usize, n: NodeId, seed: u64) -> Vec<(NodeId, NodeId)> {
        let mut x = seed | 1;
        let mut next = |hi: NodeId| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % hi as u64) as NodeId
        };
        (0..m)
            .map(|_| {
                // A third of the edges share one hot source: a long,
                // unsorted slot run with many duplicates.
                let u = if next(3) == 0 { 7 % n } else { next(n) };
                (u, next(n))
            })
            .collect()
    }

    /// Builds `edges` through [`CsrGraph::from_replayed`], one emit per
    /// edge in each pass.
    fn replayed(edges: &[(NodeId, NodeId)], reserve: usize) -> CsrGraph {
        let Ok(g) = CsrGraph::from_replayed(reserve, |_, sink| {
            edges.iter().for_each(|&(u, v)| sink.emit(u, v));
            Ok::<(), Infallible>(())
        });
        g
    }

    #[test]
    fn builder_matches_sort_oracle() {
        // Unsorted input with duplicates and a self-loop.
        let small = [(3, 1), (0, 1), (0, 1), (2, 2), (1, 0), (0, 3), (0, 2)];
        let messy = messy_edges(30_000, 700, 5);
        for (edges, reserve) in [
            (&small[..], 0),
            (&small[..], 10),
            (&[][..], 0),
            (&[][..], 6),
            (&messy[..], 0),
        ] {
            let mut b = GraphBuilder::with_capacity(edges.len());
            b.reserve_nodes(reserve);
            for &(u, v) in edges {
                b.add_edge(u, v);
            }
            let what = format!("{} edges, {reserve} reserved", edges.len());
            Oracle::new(edges, reserve).check(&b.build(), &what);
        }
    }

    #[test]
    fn from_replayed_matches_sort_oracle() {
        for (m, n, seed) in [(100usize, 9, 3u64), (60_000, 500, 1), (50_000, 40_000, 2)] {
            let edges = messy_edges(m, n, seed);
            // Reserved isolated nodes past every id.
            for reserve in [0, n as usize + 5] {
                let what = format!("m={m} reserve={reserve}");
                Oracle::new(&edges, reserve).check(&replayed(&edges, reserve), &what);
            }
        }
        Oracle::new(&[], 0).check(&replayed(&[], 0), "empty");
        Oracle::new(&[], 3).check(&replayed(&[], 3), "isolated only");
    }

    #[test]
    fn source_error_stops_the_build() {
        let mut passes = Vec::new();
        let got = CsrGraph::from_replayed(0, |pass, sink| {
            passes.push(pass);
            sink.emit(0, 1);
            Err("bad line")
        });
        assert_eq!(got.err(), Some("bad line"));
        assert_eq!(passes, [Pass::Count], "no fill pass after an error");
    }

    #[test]
    #[should_panic(expected = "largest legal id")]
    fn node_id_u32_max_panics_before_allocating() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(NodeId::MAX, 0);
        b.build();
    }

    #[test]
    #[should_panic(expected = "does not match count pass at edge 5 -> 0")]
    fn fill_pass_unknown_source_panics() {
        let _ = CsrGraph::from_replayed(0, |pass, sink| {
            sink.emit(0, 1);
            if pass == Pass::Fill {
                sink.emit(5, 0); // a source past the census
            }
            Ok::<(), Infallible>(())
        });
    }

    #[test]
    #[should_panic(expected = "does not match count pass")]
    fn streaming_pass_mismatch_panics() {
        let _ = CsrGraph::from_replayed(0, |pass, sink| {
            sink.emit(0, 1);
            if pass == Pass::Fill {
                sink.emit(0, 2); // one more edge than counted
            }
            Ok::<(), Infallible>(())
        });
    }

    #[test]
    #[should_panic(expected = "missing edges of node 0")]
    fn fill_pass_missing_edges_panics() {
        let _ = CsrGraph::from_replayed(0, |pass, sink| {
            if pass == Pass::Count {
                sink.emit(0, 1); // counted, never placed
            }
            sink.emit(1, 0);
            Ok::<(), Infallible>(())
        });
    }
}
