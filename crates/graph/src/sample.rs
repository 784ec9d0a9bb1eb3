//! Subgraph sampling (§4.4): random-walk and breadth-first.
//!
//! CHITCHAT is centralized and does not scale to full crawls, so the paper
//! compares it against PARALLELNOSY on samples of about 5M edges, obtained
//! with two samplers whose biases matter for the results: breadth-first
//! sampling preserves the degrees of the first-visited (hub) nodes and shows
//! larger piggybacking gains, while random-walk sampling preserves
//! degree-conditioned clustering but prunes hub edges, shrinking the gains.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

use crate::csr::{CsrGraph, NodeId};
use crate::fx::{FxHashMap, FxHashSet};
use crate::GraphBuilder;

/// A sampled subgraph with node ids re-labeled to `0..n`.
#[derive(Clone, Debug)]
pub struct SampledGraph {
    /// The sampled subgraph.
    pub graph: CsrGraph,
    /// `original_ids[new_id] = old_id` in the source graph.
    pub original_ids: Vec<NodeId>,
}

/// Internal: collect the induced subgraph over `keep` (insertion order
/// defines the new labels).
fn induced(g: &CsrGraph, keep: &[NodeId]) -> SampledGraph {
    let mut relabel: FxHashMap<NodeId, NodeId> = FxHashMap::default();
    relabel.reserve(keep.len());
    for (new, &old) in keep.iter().enumerate() {
        relabel.insert(old, new as NodeId);
    }
    let mut b = GraphBuilder::new();
    b.reserve_nodes(keep.len());
    for (&old, &new) in relabel.iter() {
        for &v in g.out_neighbors(old) {
            if let Some(&nv) = relabel.get(&v) {
                b.add_edge(new, nv);
            }
        }
    }
    SampledGraph {
        graph: b.build(),
        original_ids: keep.to_vec(),
    }
}

/// Random-walk sampling: walk the undirected projection from a random start,
/// restarting at a fresh random node with probability 0.15 per step (and
/// whenever stuck), until the set of visited nodes induces at least
/// `target_edges` edges or the whole graph is visited.
pub fn random_walk_sample(g: &CsrGraph, target_edges: usize, seed: u64) -> SampledGraph {
    let n = g.node_count();
    if n == 0 {
        return induced(g, &[]);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut visited: FxHashSet<NodeId> = FxHashSet::default();
    let mut order: Vec<NodeId> = Vec::new();
    let mut induced_edges = 0usize;
    let mut cur = rng.random_range(0..n) as NodeId;

    let visit = |node: NodeId,
                 visited: &mut FxHashSet<NodeId>,
                 order: &mut Vec<NodeId>,
                 induced_edges: &mut usize| {
        if visited.insert(node) {
            order.push(node);
            // Count edges this node adds to the induced subgraph.
            *induced_edges += g
                .out_neighbors(node)
                .iter()
                .filter(|v| visited.contains(v))
                .count();
            *induced_edges += g
                .in_neighbors(node)
                .iter()
                .filter(|u| visited.contains(u) && **u != node)
                .count();
        }
    };

    visit(cur, &mut visited, &mut order, &mut induced_edges);
    while induced_edges < target_edges && visited.len() < n {
        let restart = rng.random_bool(0.15);
        let deg = g.out_degree(cur) + g.in_degree(cur);
        if restart || deg == 0 {
            cur = rng.random_range(0..n) as NodeId;
        } else {
            let pick = rng.random_range(0..deg);
            cur = if pick < g.out_degree(cur) {
                g.out_neighbors(cur)[pick]
            } else {
                g.in_neighbors(cur)[pick - g.out_degree(cur)]
            };
        }
        visit(cur, &mut visited, &mut order, &mut induced_edges);
    }
    induced(g, &order)
}

/// Breadth-first sampling: BFS over the undirected projection from a random
/// start (restarting from a fresh random node if the frontier empties),
/// until the visited set induces at least `target_edges` edges or the whole
/// graph is visited.
///
/// The first-visited nodes keep their full neighborhoods, so high-degree
/// hubs survive with their degrees intact — the property §4.4 credits for
/// BFS samples showing larger piggybacking gains.
pub fn bfs_sample(g: &CsrGraph, target_edges: usize, seed: u64) -> SampledGraph {
    let n = g.node_count();
    if n == 0 {
        return induced(g, &[]);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut visited: FxHashSet<NodeId> = FxHashSet::default();
    let mut order: Vec<NodeId> = Vec::new();
    let mut induced_edges = 0usize;
    let mut queue: VecDeque<NodeId> = VecDeque::new();

    let enqueue = |node: NodeId,
                   visited: &mut FxHashSet<NodeId>,
                   order: &mut Vec<NodeId>,
                   queue: &mut VecDeque<NodeId>,
                   induced_edges: &mut usize| {
        if visited.insert(node) {
            order.push(node);
            queue.push_back(node);
            *induced_edges += g
                .out_neighbors(node)
                .iter()
                .filter(|v| visited.contains(v))
                .count();
            *induced_edges += g
                .in_neighbors(node)
                .iter()
                .filter(|u| visited.contains(u) && **u != node)
                .count();
        }
    };

    let start = rng.random_range(0..n) as NodeId;
    enqueue(
        start,
        &mut visited,
        &mut order,
        &mut queue,
        &mut induced_edges,
    );
    while induced_edges < target_edges && visited.len() < n {
        let Some(w) = queue.pop_front() else {
            let fresh = rng.random_range(0..n) as NodeId;
            enqueue(
                fresh,
                &mut visited,
                &mut order,
                &mut queue,
                &mut induced_edges,
            );
            continue;
        };
        for &v in g.out_neighbors(w).iter().chain(g.in_neighbors(w)) {
            if induced_edges >= target_edges {
                break;
            }
            enqueue(v, &mut visited, &mut order, &mut queue, &mut induced_edges);
        }
    }
    induced(g, &order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{copying, CopyingConfig};

    fn source() -> CsrGraph {
        copying(CopyingConfig {
            nodes: 2000,
            follows_per_node: 6,
            copy_prob: 0.6,
            seed: 42,
        })
    }

    #[test]
    fn rw_sample_reaches_target() {
        let g = source();
        let s = random_walk_sample(&g, 1500, 1);
        assert!(s.graph.edge_count() >= 1500);
        assert!(s.graph.node_count() <= g.node_count());
    }

    #[test]
    fn bfs_sample_reaches_target() {
        let g = source();
        let s = bfs_sample(&g, 1500, 1);
        assert!(s.graph.edge_count() >= 1500);
    }

    #[test]
    fn samples_are_induced_subgraphs() {
        let g = source();
        for s in [random_walk_sample(&g, 800, 3), bfs_sample(&g, 800, 3)] {
            for (_, nu, nv) in s.graph.edges() {
                let (ou, ov) = (s.original_ids[nu as usize], s.original_ids[nv as usize]);
                assert!(g.has_edge(ou, ov), "sampled edge not in source");
            }
        }
    }

    #[test]
    fn original_ids_unique() {
        let g = source();
        let s = bfs_sample(&g, 500, 9);
        let mut ids = s.original_ids.clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), s.original_ids.len());
    }

    #[test]
    fn target_larger_than_graph_returns_everything() {
        let g = source();
        let s = bfs_sample(&g, usize::MAX, 5);
        assert_eq!(s.graph.node_count(), g.node_count());
        assert_eq!(s.graph.edge_count(), g.edge_count());
    }

    #[test]
    fn deterministic_by_seed() {
        let g = source();
        let a = random_walk_sample(&g, 1000, 7);
        let b = random_walk_sample(&g, 1000, 7);
        assert_eq!(a.original_ids, b.original_ids);
    }

    #[test]
    fn empty_graph_sample() {
        let g = GraphBuilder::new().build();
        let s = random_walk_sample(&g, 10, 0);
        assert_eq!(s.graph.node_count(), 0);
    }

    use crate::GraphBuilder;
}
