//! Coverage tests for the `Scheduler` registry: every registered algorithm
//! must produce a feasible schedule through the uniform trait API, and the
//! piggybacking algorithms must never lose to the hybrid baseline under
//! the §2.1 cost model.

use social_piggybacking::prelude::*;

fn world() -> (CsrGraph, Rates) {
    let g = gen::flickr_like(800, 17);
    let r = Rates::log_degree(&g, 5.0);
    (g, r)
}

#[test]
fn every_registered_scheduler_produces_a_feasible_schedule() {
    let (g, r) = world();
    let inst = Instance::new(&g, &r);
    let registry = scheduler::registry();
    let mut ran = Vec::new();
    for s in &registry {
        if !s.supports(&inst) {
            // Only the exact solver may bow out, and this instance is far
            // beyond its enumeration bound.
            assert_eq!(s.name(), "exact", "{} refused a normal instance", s.name());
            continue;
        }
        let out = s.schedule(&inst);
        validate_bounded_staleness(&g, &out.schedule)
            .unwrap_or_else(|e| panic!("{}: infeasible schedule: {e}", s.name()));
        assert!(
            out.stats.cost > 0.0,
            "{}: zero cost on a real graph",
            s.name()
        );
        ran.push(s.name());
    }
    let all_but_exact: Vec<&str> = registry
        .iter()
        .map(|s| s.name())
        .filter(|&name| name != "exact")
        .collect();
    assert_eq!(ran, all_but_exact, "every entry but exact runs");
}

#[test]
fn piggybacking_schedulers_never_lose_to_hybrid() {
    let (g, r) = world();
    let inst = Instance::new(&g, &r);
    let ff = scheduler::by_name("hybrid").unwrap().schedule(&inst);
    for name in ["chitchat", "chitchat-stream", "parallelnosy"] {
        let s = scheduler::by_name(name).unwrap();
        let out = s.schedule(&inst);
        let imp = predicted_improvement(&g, &r, &out.schedule, &ff.schedule);
        assert!(imp >= 1.0, "{name}: improvement {imp} < 1 vs hybrid");
    }
}

#[test]
fn clustered_graphs_yield_real_gains_through_the_trait() {
    // The headline claim, via the uniform API only: on a clustered graph
    // the piggybacking algorithms clearly beat the baseline.
    let (g, r) = world();
    let inst = Instance::new(&g, &r);
    let ff_cost = scheduler::by_name("ff").unwrap().schedule(&inst).stats.cost;
    for name in ["chitchat", "parallelnosy"] {
        let out = scheduler::by_name(name).unwrap().schedule(&inst);
        let imp = ff_cost / out.stats.cost;
        assert!(imp > 1.3, "{name}: expected clear gains, got {imp:.3}x");
    }
}

#[test]
fn stats_are_populated_per_algorithm_family() {
    let (g, r) = world();
    let inst = Instance::new(&g, &r);
    let cc = scheduler::by_name("chitchat").unwrap().schedule(&inst);
    assert!(cc.stats.oracle_calls > 0, "chitchat reports oracle calls");
    let pn = scheduler::by_name("parallelnosy").unwrap().schedule(&inst);
    assert!(pn.stats.iterations > 0, "parallelnosy reports iterations");
    assert!(pn.stats.hubs_applied > 0, "parallelnosy reports hubs");
    for out in [&cc, &pn] {
        assert!(out.stats.wall_time.as_nanos() > 0, "wall time recorded");
    }
}
