//! Copying model: power-law degrees *and* high clustering.

use std::convert::Infallible;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::csr::NodeId;
use crate::CsrGraph;

/// Parameters for the [`copying`] generator.
#[derive(Clone, Copy, Debug)]
pub struct CopyingConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Subscriptions created by each arriving node.
    pub follows_per_node: usize,
    /// Probability that a subscription copies one of the prototype's
    /// producers instead of picking a uniformly random node. Higher values
    /// give more triangles (higher clustering).
    pub copy_prob: f64,
    /// RNG seed.
    pub seed: u64,
}

/// Generates a digraph with the copying model of Kleinberg et al.
///
/// Each arriving node `v` picks a random *prototype* `p` among existing
/// nodes. For each of its `follows_per_node` subscriptions, with probability
/// `copy_prob` it copies a random producer of `p` (subscribes to someone `p`
/// subscribes to), otherwise it subscribes to a uniformly random node.
/// Copying creates the `(x → w, x → y, w → y)` triangles social
/// piggybacking feeds on, and also yields a heavy-tailed follower
/// distribution, making this the primary model behind the
/// `flickr_like`/`twitter_like` presets.
pub fn copying(cfg: CopyingConfig) -> CsrGraph {
    let CopyingConfig {
        nodes: n,
        follows_per_node: k,
        copy_prob,
        seed,
    } = cfg;
    assert!(k >= 1, "each node must follow at least one producer");
    assert!(
        (0.0..=1.0).contains(&copy_prob),
        "copy_prob must be a probability, got {copy_prob}"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    // producers[v] = list of nodes v subscribes to (v's in-neighbors).
    let mut producers: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for v in 1..n {
        let p = rng.random_range(0..v); // prototype
        let picks = k.min(v);
        let mut chosen: Vec<NodeId> = Vec::with_capacity(picks);
        let mut attempts = 0usize;
        while chosen.len() < picks && attempts < 50 * picks {
            attempts += 1;
            let candidate = if rng.random_bool(copy_prob) && !producers[p].is_empty() {
                producers[p][rng.random_range(0..producers[p].len())]
            } else {
                rng.random_range(0..v) as NodeId
            };
            if candidate != v as NodeId && !chosen.contains(&candidate) {
                chosen.push(candidate);
            }
        }
        producers[v] = chosen;
    }
    // The producer lists *are* the graph (in-adjacency), so both passes
    // replay them: no `Vec<(u, v)>` edge buffer, no sort.
    let Ok(g) = CsrGraph::from_replayed(n, |_, sink| {
        for (v, ps) in producers.iter().enumerate() {
            for &u in ps {
                sink.emit(u, v as NodeId);
            }
        }
        Ok::<(), Infallible>(())
    });
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    fn cfg(n: usize, k: usize, cp: f64, seed: u64) -> CopyingConfig {
        CopyingConfig {
            nodes: n,
            follows_per_node: k,
            copy_prob: cp,
            seed,
        }
    }

    #[test]
    fn sizes_close_to_nk() {
        let g = copying(cfg(500, 4, 0.5, 1));
        assert_eq!(g.node_count(), 500);
        // Early nodes can't reach k follows; everything else should.
        assert!(g.edge_count() > 480 * 4);
        assert!(g.edge_count() <= 500 * 4);
    }

    #[test]
    fn deterministic() {
        let a = copying(cfg(300, 3, 0.6, 77));
        let b = copying(cfg(300, 3, 0.6, 77));
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
    }

    #[test]
    fn copying_raises_clustering() {
        let lo = copying(cfg(1500, 5, 0.0, 3));
        let hi = copying(cfg(1500, 5, 0.9, 3));
        let c_lo = stats::sampled_clustering_coefficient(&lo, 400, 3);
        let c_hi = stats::sampled_clustering_coefficient(&hi, 400, 3);
        assert!(
            c_hi > c_lo * 1.5 + 0.001,
            "clustering did not rise with copy_prob: lo={c_lo} hi={c_hi}"
        );
    }

    #[test]
    fn no_self_loops_or_duplicates() {
        let g = copying(cfg(400, 3, 0.7, 5));
        assert!(g.edges().all(|(_, u, v)| u != v));
        // CSR construction dedups; verify neighbor lists strictly ascend.
        for u in g.nodes() {
            let ns = g.out_neighbors(u);
            assert!(ns.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_copy_prob_panics() {
        copying(cfg(10, 2, 1.5, 0));
    }
}
