//! Randomized property tests of the graph substrate's structural
//! invariants.
//!
//! Formerly `proptest`-based; the offline build vendors only a seeded RNG,
//! so each property now runs over a fixed number of deterministic random
//! cases (same invariants, reproducible failures by seed).

use piggyback_graph::fx::FxHashSet;
use piggyback_graph::io::{read_edge_list, write_edge_list};
use piggyback_graph::sample::{bfs_sample, random_walk_sample};
use piggyback_graph::{CsrGraph, GraphBuilder, INVALID_EDGE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 64;

/// Random edge list over up to `max_n` nodes (self-loops and duplicates
/// included on purpose — the builder must handle them).
fn arb_edges(rng: &mut StdRng, max_n: u32, max_edges: usize) -> Vec<(u32, u32)> {
    let count = rng.random_range(0..max_edges);
    (0..count)
        .map(|_| (rng.random_range(0..max_n), rng.random_range(0..max_n)))
        .collect()
}

fn build(edges: &[(u32, u32)]) -> CsrGraph {
    let mut b = GraphBuilder::new();
    for &(u, v) in edges {
        b.add_edge(u, v);
    }
    b.build()
}

#[test]
fn csr_matches_reference_set() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let edges = arb_edges(&mut rng, 40, 200);
        let g = build(&edges);
        let reference: FxHashSet<(u32, u32)> =
            edges.iter().copied().filter(|(u, v)| u != v).collect();
        assert_eq!(g.edge_count(), reference.len(), "seed {seed}");
        for &(u, v) in &reference {
            assert!(g.has_edge(u, v), "seed {seed}: missing {u}->{v}");
        }
        for (_, u, v) in g.edges() {
            assert!(reference.contains(&(u, v)), "seed {seed}: extra {u}->{v}");
        }
    }
}

#[test]
fn degree_sums_equal_edge_count() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let g = build(&arb_edges(&mut rng, 30, 200));
        let out_sum: usize = g.nodes().map(|u| g.out_degree(u)).sum();
        let in_sum: usize = g.nodes().map(|u| g.in_degree(u)).sum();
        assert_eq!(out_sum, g.edge_count(), "seed {seed}");
        assert_eq!(in_sum, g.edge_count(), "seed {seed}");
    }
}

#[test]
fn forward_and_reverse_adjacency_agree() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(200 + seed);
        let g = build(&arb_edges(&mut rng, 30, 200));
        for v in g.nodes() {
            for &u in g.in_neighbors(v) {
                assert!(g.out_neighbors(u).contains(&v), "seed {seed}");
            }
        }
        for u in g.nodes() {
            for &v in g.out_neighbors(u) {
                assert!(g.in_neighbors(v).contains(&u), "seed {seed}");
            }
        }
    }
}

#[test]
fn edge_ids_are_a_bijection() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(300 + seed);
        let g = build(&arb_edges(&mut rng, 30, 200));
        let mut seen = FxHashSet::default();
        for (e, u, v) in g.edges() {
            assert_eq!(g.edge_id(u, v), e, "seed {seed}");
            assert_eq!(g.edge_endpoints(e), (u, v), "seed {seed}");
            assert!(seen.insert(e), "seed {seed}: duplicate edge id {e}");
        }
        assert_eq!(seen.len(), g.edge_count(), "seed {seed}");
    }
}

#[test]
fn missing_edges_report_invalid() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(400 + seed);
        let g = build(&arb_edges(&mut rng, 20, 120));
        let (u, v) = (rng.random_range(0..20u32), rng.random_range(0..20u32));
        if (u as usize) < g.node_count() && (v as usize) < g.node_count() {
            let id = g.edge_id(u, v);
            assert_eq!(id != INVALID_EDGE, g.has_edge(u, v), "seed {seed}");
        }
    }
}

#[test]
fn io_roundtrip() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(500 + seed);
        let g = build(&arb_edges(&mut rng, 40, 200));
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let h = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(
            g.edges().collect::<Vec<_>>(),
            h.edges().collect::<Vec<_>>(),
            "seed {seed}"
        );
    }
}

#[test]
fn samples_are_induced_subgraphs() {
    for seed in 0..CASES / 2 {
        let mut rng = StdRng::seed_from_u64(700 + seed);
        let g = build(&arb_edges(&mut rng, 40, 200));
        if g.node_count() == 0 {
            continue;
        }
        let target = rng.random_range(1..100usize);
        for s in [
            random_walk_sample(&g, target, seed),
            bfs_sample(&g, target, seed),
        ] {
            // Relabeled ids map back to original edges.
            for (_, nu, nv) in s.graph.edges() {
                let (ou, ov) = (s.original_ids[nu as usize], s.original_ids[nv as usize]);
                assert!(g.has_edge(ou, ov), "seed {seed}");
            }
            // Induced: every source edge between sampled nodes is present.
            for (i, &ou) in s.original_ids.iter().enumerate() {
                for (j, &ov) in s.original_ids.iter().enumerate() {
                    if g.has_edge(ou, ov) {
                        assert!(
                            s.graph.has_edge(i as u32, j as u32),
                            "seed {seed}: induced edge missing"
                        );
                    }
                }
            }
        }
    }
}
