//! Directed social-graph substrate for the social-piggybacking system.
//!
//! The crate provides:
//!
//! * [`CsrGraph`] — an immutable, cache-friendly compressed-sparse-row
//!   digraph with both forward (out-neighbor) and reverse (in-neighbor)
//!   adjacency and stable, dense *edge ids*. Edge ids are the index of the
//!   edge in the forward adjacency array, which lets downstream crates store
//!   per-edge state in flat arrays and bitsets instead of hash maps.
//! * [`CsrGraph::from_replayed`] — the one way to build a graph: a two-pass
//!   counting-sort kernel over a source that can replay its edges (a file
//!   opened twice, a seeded generator, a graph being frozen). It merges
//!   duplicates and drops self-loops; [`GraphBuilder`] buffers an unordered
//!   edge list and replays it through the same kernel.
//! * [`gen`] — synthetic social-graph generators (Erdős–Rényi, copying
//!   model, planted partition and the `flickr_like` / `twitter_like`
//!   presets used by the evaluation harness).
//! * [`sample`] — random-walk and breadth-first subgraph sampling (§4.4).
//! * [`stats`] — degree distributions, reciprocity, clustering coefficient.
//! * [`io`] — a plain-text edge-list format for persisting graphs.
//! * [`fx`] — a small Fx-style hasher for integer-keyed maps on hot paths.
//!
//! In the paper's orientation an edge `u → v` means *v subscribes to the
//! events of u*: `u` is the producer and `v` the consumer. All crates in the
//! workspace follow that convention.
//!
//! # Example
//!
//! ```
//! use piggyback_graph::{GraphBuilder, CsrGraph};
//!
//! // Art -> Charlie -> Billie plus Art -> Billie: the triangle of Figure 2.
//! let mut b = GraphBuilder::new();
//! let (art, charlie, billie) = (0, 1, 2);
//! b.add_edge(art, charlie);
//! b.add_edge(charlie, billie);
//! b.add_edge(art, billie);
//! let g: CsrGraph = b.build();
//!
//! assert_eq!(g.node_count(), 3);
//! assert_eq!(g.edge_count(), 3);
//! assert_eq!(g.out_neighbors(art), &[charlie, billie]);
//! assert_eq!(g.in_neighbors(billie), &[art, charlie]);
//! ```

pub mod builder;
pub mod csr;
pub mod fx;
pub mod gen;
pub mod io;
pub mod sample;
pub mod stats;

pub use builder::{EdgeSink, GraphBuilder, Pass};
pub use csr::{intersect_sorted, CsrGraph, EdgeId, NodeId, INVALID_EDGE};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readme_triangle() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(0, 2);
        let g = b.build();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
    }
}
