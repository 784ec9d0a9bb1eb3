//! Reciprocity post-pass: turn a fraction of edges into mutual follows.

use std::convert::Infallible;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::CsrGraph;

/// Returns a copy of `g` where, for every edge `u → v` whose reverse is
/// absent, the reverse edge `v → u` is added with probability `p`.
///
/// Real networks differ sharply here — friendship graphs like Flickr are
/// largely mutual while interest graphs like Twitter are mostly one-way —
/// and reciprocity affects how often a hub's producer is also its consumer,
/// which the densest-subgraph oracle handles via role splitting.
pub fn add_reciprocity(g: &CsrGraph, p: f64, seed: u64) -> CsrGraph {
    assert!((0.0..=1.0).contains(&p), "p must be a probability, got {p}");
    // Both passes replay the same seeded coin flips.
    let Ok(r) = CsrGraph::from_replayed(g.node_count(), |_, sink| {
        let mut rng = StdRng::seed_from_u64(seed);
        for (_, u, v) in g.edges() {
            sink.emit(u, v);
            if !g.has_edge(v, u) && rng.random_bool(p) {
                sink.emit(v, u);
            }
        }
        Ok::<(), Infallible>(())
    });
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::erdos_renyi;
    use crate::stats;

    #[test]
    fn zero_probability_is_identity() {
        let g = erdos_renyi(50, 200, 1);
        let r = add_reciprocity(&g, 0.0, 2);
        assert_eq!(g.edges().collect::<Vec<_>>(), r.edges().collect::<Vec<_>>());
    }

    #[test]
    fn full_probability_makes_symmetric() {
        let g = erdos_renyi(50, 200, 1);
        let r = add_reciprocity(&g, 1.0, 2);
        for (_, u, v) in r.edges() {
            assert!(r.has_edge(v, u), "edge {v}->{u} missing");
        }
        assert!((stats::reciprocity(&r) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn raises_measured_reciprocity() {
        let g = erdos_renyi(200, 2000, 3);
        let before = stats::reciprocity(&g);
        let r = add_reciprocity(&g, 0.5, 4);
        let after = stats::reciprocity(&r);
        assert!(after > before + 0.2, "before={before} after={after}");
    }
}
