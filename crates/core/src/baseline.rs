//! Baseline request schedules: push-all, pull-all, and the hybrid
//! FEEDINGFRENZY policy of Silberstein et al. (the paper's comparison
//! baseline, "FF").

use piggyback_graph::CsrGraph;
use piggyback_workload::Rates;

use crate::cost::{assert_rates_cover, hybrid_pushes};
use crate::schedule::Schedule;

/// Push-all (§1): every edge is a push; each producer fans its events out to
/// all follower views at share time. Optimal for read-dominated workloads.
pub fn push_all_schedule(g: &CsrGraph) -> Schedule {
    let mut s = Schedule::for_graph(g);
    for (e, _, _) in g.edges() {
        s.set_push(e);
    }
    s
}

/// Pull-all (§1): every edge is a pull; each consumer queries all its
/// producers' views at read time. Optimal for write-dominated workloads.
pub fn pull_all_schedule(g: &CsrGraph) -> Schedule {
    let mut s = Schedule::for_graph(g);
    for (e, _, _) in g.edges() {
        s.set_pull(e);
    }
    s
}

/// The hybrid schedule of Silberstein et al. \[11\]: per edge `u → v`, pick
/// the cheaper of push (`rp(u)`) and pull (`rc(v)`); ties go to push.
///
/// This is the strongest previously-published policy and the baseline for
/// every figure in the paper's evaluation.
pub fn hybrid_schedule(g: &CsrGraph, rates: &Rates) -> Schedule {
    let mut s = Schedule::for_graph(g);
    hybrid_fill(g, rates, &mut s);
    s
}

/// Serves every edge the partial schedule `s` of `g` leaves unserved
/// directly, by the hybrid rule ([`hybrid_pushes`]), in edge-id order, and
/// returns how many it assigned: the tail of every optimizer that leaves
/// edges to the hybrid rule. Panics if the rates do not cover `g`.
pub fn hybrid_fill(g: &CsrGraph, rates: &Rates, s: &mut Schedule) -> usize {
    assert_rates_cover(g, rates);
    let mut filled = 0;
    for (e, u, v) in g.edges() {
        if s.is_served(e) {
            continue;
        }
        if hybrid_pushes(rates, u, v) {
            s.set_push(e);
        } else {
            s.set_pull(e);
        }
        filled += 1;
    }
    filled
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::schedule_cost;
    use crate::validate::validate_bounded_staleness;
    use piggyback_graph::gen::erdos_renyi;
    use piggyback_graph::GraphBuilder;

    #[test]
    fn push_all_costs_sum_of_rp_fanouts() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(1, 2);
        let g = b.build();
        let r = Rates::from_vecs(vec![1.0, 10.0, 0.0], vec![100.0; 3]);
        let s = push_all_schedule(&g);
        // rp(0)*2 + rp(1)*1
        assert!((schedule_cost(&g, &r, &s) - 12.0).abs() < 1e-12);
    }

    #[test]
    fn pull_all_costs_sum_of_rc_fanins() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 2);
        b.add_edge(1, 2);
        let g = b.build();
        let r = Rates::from_vecs(vec![100.0; 3], vec![0.0, 0.0, 3.0]);
        let s = pull_all_schedule(&g);
        assert!((schedule_cost(&g, &r, &s) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn hybrid_never_worse_than_either_extreme() {
        let g = erdos_renyi(100, 800, 3);
        let r = Rates::log_degree(&g, 5.0);
        let ch = schedule_cost(&g, &r, &hybrid_schedule(&g, &r));
        let cpush = schedule_cost(&g, &r, &push_all_schedule(&g));
        let cpull = schedule_cost(&g, &r, &pull_all_schedule(&g));
        assert!(ch <= cpush + 1e-9);
        assert!(ch <= cpull + 1e-9);
    }

    #[test]
    fn hybrid_picks_the_cheap_side() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        let g = b.build();
        // rp(0)=1 < rc(1)=5 → push. rp(1)=9 > rc(0)=2 → pull.
        let r = Rates::from_vecs(vec![1.0, 9.0], vec![2.0, 5.0]);
        let s = hybrid_schedule(&g, &r);
        let e01 = g.edge_id(0, 1);
        let e10 = g.edge_id(1, 0);
        assert!(s.is_push(e01) && !s.is_pull(e01));
        assert!(s.is_pull(e10) && !s.is_push(e10));
    }

    #[test]
    fn all_baselines_satisfy_bounded_staleness() {
        let g = erdos_renyi(60, 300, 5);
        let r = Rates::log_degree(&g, 5.0);
        for s in [
            push_all_schedule(&g),
            pull_all_schedule(&g),
            hybrid_schedule(&g, &r),
        ] {
            validate_bounded_staleness(&g, &s).expect("baseline must be feasible");
        }
    }

    #[test]
    fn read_dominated_workload_prefers_push_all() {
        let g = erdos_renyi(80, 500, 7);
        // Consumption dominates: every edge satisfies rp <= rc.
        let r = Rates::log_degree(&g, 1000.0);
        let hybrid = hybrid_schedule(&g, &r);
        let push = push_all_schedule(&g);
        let d = schedule_cost(&g, &r, &hybrid) - schedule_cost(&g, &r, &push);
        assert!(d.abs() < 1e-6, "hybrid should coincide with push-all");
    }
}
