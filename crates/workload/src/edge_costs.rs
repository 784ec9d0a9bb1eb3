//! Precomputed per-edge hybrid costs.
//!
//! The hybrid (FEEDINGFRENZY) cost of serving an edge directly is
//! `c*(u → v) = min(rp(u), rc(v))`. Both CHITCHAT's set-cover inner loop
//! and PARALLELNOSY's candidate selection consult it once per edge per
//! step; recomputing it means two rate lookups, a `min`, and — when the
//! caller starts from an [`EdgeId`] — an O(log n) endpoint recovery.
//!
//! [`EdgeCosts`] evaluates the formula once per edge up front and serves
//! every later query as a single flat-array load indexed by the dense CSR
//! edge id.

use piggyback_graph::{CsrGraph, EdgeId};

use crate::Rates;

/// Flat per-edge cache of the hybrid serving cost `min(rp(u), rc(v))`,
/// indexed by [`EdgeId`].
#[derive(Clone, Debug)]
pub struct EdgeCosts {
    costs: Vec<f64>,
}

impl EdgeCosts {
    /// Precomputes the hybrid cost of every edge of `g` under `rates`.
    ///
    /// # Panics
    ///
    /// Panics if the rates do not cover every node of the graph.
    pub fn hybrid(g: &CsrGraph, rates: &Rates) -> Self {
        assert!(
            rates.len() >= g.node_count(),
            "rates cover {} users, graph has {}",
            rates.len(),
            g.node_count()
        );
        let mut costs = Vec::with_capacity(g.edge_count());
        for (_, u, v) in g.edges() {
            costs.push(rates.rp(u).min(rates.rc(v)));
        }
        EdgeCosts { costs }
    }

    /// Hybrid cost of edge `e`: `min(rp(u), rc(v))`.
    #[inline]
    pub fn hybrid_cost(&self, e: EdgeId) -> f64 {
        self.costs[e as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piggyback_graph::gen::erdos_renyi;
    use piggyback_graph::GraphBuilder;

    #[test]
    fn matches_direct_formula_on_every_edge() {
        let g = erdos_renyi(80, 400, 7);
        let r = Rates::log_degree(&g, 5.0);
        let costs = EdgeCosts::hybrid(&g, &r);
        for (e, u, v) in g.edges() {
            let direct = r.rp(u).min(r.rc(v));
            assert_eq!(
                costs.hybrid_cost(e),
                direct,
                "edge {e} ({u} -> {v}): cached {} != direct {direct}",
                costs.hybrid_cost(e)
            );
        }
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        let r = Rates::uniform(0, 1.0, 1.0);
        let _ = EdgeCosts::hybrid(&g, &r);
    }

    #[test]
    #[should_panic(expected = "rates cover")]
    fn uncovered_rates_rejected() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 9);
        let g = b.build();
        let r = Rates::uniform(3, 1.0, 1.0);
        let _ = EdgeCosts::hybrid(&g, &r);
    }
}
