//! Schedule introspection: where does the cost go, and who are the hubs?
//!
//! Operators deploying a piggybacking schedule want to know which users'
//! views became hubs (they concentrate traffic and matter for placement and
//! capacity), how much each mechanism contributes to the bill, and how the
//! hub workload is distributed. This module computes those reports; the
//! `piggyback analyze` CLI subcommand and the examples print them.

use piggyback_graph::{CsrGraph, NodeId};
use piggyback_workload::Rates;

use crate::cost::hybrid_edge_cost;
use crate::schedule::Schedule;

/// Cost decomposition of a schedule.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CostBreakdown {
    /// Cost paid by push edges (`Σ rp` over `H`).
    pub push_cost: f64,
    /// Cost paid by pull edges (`Σ rc` over `L`).
    pub pull_cost: f64,
    /// Cost the covered edges would have paid under the hybrid policy —
    /// the money piggybacking saves.
    pub covered_hybrid_cost: f64,
}

impl CostBreakdown {
    /// Total cost actually paid.
    pub fn total(&self) -> f64 {
        self.push_cost + self.pull_cost
    }
}

/// Splits a schedule's cost into its mechanisms.
pub fn cost_breakdown(g: &CsrGraph, rates: &Rates, s: &Schedule) -> CostBreakdown {
    let mut b = CostBreakdown::default();
    for e in s.push_edges() {
        let (u, _) = g.edge_endpoints(e);
        b.push_cost += rates.rp(u);
    }
    for e in s.pull_edges() {
        let (_, v) = g.edge_endpoints(e);
        b.pull_cost += rates.rc(v);
    }
    for e in s.covered_edges() {
        let (u, v) = g.edge_endpoints(e);
        b.covered_hybrid_cost += hybrid_edge_cost(rates, u, v);
    }
    b
}

/// One hub's role in a schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HubReport {
    /// The hub node.
    pub hub: NodeId,
    /// Edges piggybacked through this hub.
    pub edges_covered: usize,
    /// Producers pushing into the hub's view (its in-edges in `H`).
    pub pushes_in: usize,
    /// Consumers pulling the hub's view (its out-edges in `L`).
    pub pulls_out: usize,
}

/// Per-hub coverage statistics, sorted by descending `edges_covered`.
pub fn hub_report(g: &CsrGraph, s: &Schedule) -> Vec<HubReport> {
    let n = g.node_count();
    let mut covered = vec![0usize; n];
    for e in s.covered_edges() {
        let hub = s.hub_of(e);
        if (hub as usize) < n {
            covered[hub as usize] += 1;
        }
    }
    let mut out: Vec<HubReport> = (0..n as NodeId)
        .filter(|&w| covered[w as usize] > 0)
        .map(|w| HubReport {
            hub: w,
            edges_covered: covered[w as usize],
            pushes_in: g.in_edges(w).filter(|&(_, e)| s.is_push(e)).count(),
            pulls_out: g.out_edges(w).filter(|&(_, e)| s.is_pull(e)).count(),
        })
        .collect();
    out.sort_unstable_by(|a, b| {
        b.edges_covered
            .cmp(&a.edges_covered)
            .then_with(|| a.hub.cmp(&b.hub))
    });
    out
}

/// Amplification factors of a schedule: average fan-out per share and
/// fan-in per query, weighted by the request rates — the per-request view
/// counts Algorithm 3's batching operates on.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Amplification {
    /// Rate-weighted mean views written per share (excluding own view).
    pub views_per_share: f64,
    /// Rate-weighted mean views read per query (excluding own view).
    pub views_per_query: f64,
}

/// Computes rate-weighted request amplification.
pub fn amplification(g: &CsrGraph, rates: &Rates, s: &Schedule) -> Amplification {
    let mut share_num = 0.0;
    let mut share_den = 0.0;
    let mut query_num = 0.0;
    let mut query_den = 0.0;
    for u in g.nodes() {
        let pushes = g.out_edges(u).filter(|&(_, e)| s.is_push(e)).count();
        share_num += rates.rp(u) * pushes as f64;
        share_den += rates.rp(u);
        let pulls = g.in_edges(u).filter(|&(_, e)| s.is_pull(e)).count();
        query_num += rates.rc(u) * pulls as f64;
        query_den += rates.rc(u);
    }
    Amplification {
        views_per_share: if share_den > 0.0 {
            share_num / share_den
        } else {
            0.0
        },
        views_per_query: if query_den > 0.0 {
            query_num / query_den
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{hybrid_schedule, push_all_schedule};
    use crate::cost::schedule_cost;
    use crate::parallelnosy::ParallelNosy;
    use piggyback_graph::gen::{copying, CopyingConfig};
    use piggyback_graph::GraphBuilder;

    fn world() -> (CsrGraph, Rates) {
        let g = copying(CopyingConfig {
            nodes: 300,
            follows_per_node: 6,
            copy_prob: 0.9,
            seed: 4,
        });
        let r = Rates::log_degree(&g, 5.0);
        (g, r)
    }

    #[test]
    fn breakdown_sums_to_schedule_cost() {
        let (g, r) = world();
        let s = ParallelNosy::default().run(&g, &r).schedule;
        let b = cost_breakdown(&g, &r, &s);
        assert!((b.total() - schedule_cost(&g, &r, &s)).abs() < 1e-9);
        assert!(b.covered_hybrid_cost > 0.0, "expected piggybacking savings");
    }

    #[test]
    fn push_all_breakdown_has_no_pulls() {
        let (g, r) = world();
        let b = cost_breakdown(&g, &r, &push_all_schedule(&g));
        assert_eq!(b.pull_cost, 0.0);
        assert_eq!(b.covered_hybrid_cost, 0.0);
        assert!(b.push_cost > 0.0);
    }

    #[test]
    fn hub_report_counts_match_covered_edges() {
        let (g, r) = world();
        let s = ParallelNosy::default().run(&g, &r).schedule;
        let hubs = hub_report(&g, &s);
        let total: usize = hubs.iter().map(|h| h.edges_covered).sum();
        assert_eq!(total, s.covered_edges().count());
        // Sorted descending.
        assert!(hubs
            .windows(2)
            .all(|w| w[0].edges_covered >= w[1].edges_covered));
        // Every hub actually has push-in and pull-out legs.
        for h in &hubs {
            assert!(h.pushes_in > 0, "hub {} has no inbound pushes", h.hub);
            assert!(h.pulls_out > 0, "hub {} has no outbound pulls", h.hub);
        }
    }

    #[test]
    fn hub_report_on_fig2() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(0, 2);
        let g = b.build();
        let mut s = Schedule::for_graph(&g);
        s.set_push(g.edge_id(0, 1));
        s.set_pull(g.edge_id(1, 2));
        s.set_covered(g.edge_id(0, 2), 1);
        let hubs = hub_report(&g, &s);
        assert_eq!(
            hubs,
            vec![HubReport {
                hub: 1,
                edges_covered: 1,
                pushes_in: 1,
                pulls_out: 1
            }]
        );
    }

    #[test]
    fn amplification_shrinks_with_piggybacking() {
        let (g, r) = world();
        let ff = hybrid_schedule(&g, &r);
        let pn = ParallelNosy::default().run(&g, &r).schedule;
        let a_ff = amplification(&g, &r, &ff);
        let a_pn = amplification(&g, &r, &pn);
        // Combined per-request view traffic must drop (that's the point).
        let traffic = |a: &Amplification| a.views_per_share + 5.0 * a.views_per_query;
        assert!(
            traffic(&a_pn) < traffic(&a_ff),
            "piggybacking should reduce view traffic: {a_pn:?} vs {a_ff:?}"
        );
    }

    #[test]
    fn empty_schedule_amplification_is_zero() {
        let (g, r) = world();
        let s = Schedule::for_graph(&g);
        let a = amplification(&g, &r, &s);
        assert_eq!(a.views_per_share, 0.0);
        assert_eq!(a.views_per_query, 0.0);
    }
}
