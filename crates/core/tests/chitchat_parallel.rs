//! CHITCHAT's parallel oracle fan-out must be invisible in the output:
//! any worker-thread count produces the identical schedule, cost, and
//! oracle-call count (the fan-out only divides pure oracle work between
//! scoped threads; every merge is keyed by node id).

use piggyback_core::chitchat::ChitChat;
use piggyback_core::cost::schedule_cost;
use piggyback_graph::gen;
use piggyback_graph::EdgeId;
use piggyback_workload::Rates;

fn assert_identical(
    g: &piggyback_graph::CsrGraph,
    r: &Rates,
    base: &piggyback_core::chitchat::ChitChatResult,
    threads: usize,
) {
    let res = ChitChat {
        threads,
        ..Default::default()
    }
    .run(g, r);
    assert_eq!(
        res.oracle_calls, base.oracle_calls,
        "threads={threads}: oracle-call count diverged"
    );
    assert_eq!(res.hub_selections, base.hub_selections, "threads={threads}");
    assert_eq!(
        res.singleton_selections, base.singleton_selections,
        "threads={threads}"
    );
    assert_eq!(
        schedule_cost(g, r, &res.schedule),
        schedule_cost(g, r, &base.schedule),
        "threads={threads}: cost diverged"
    );
    for e in 0..g.edge_count() as EdgeId {
        assert_eq!(
            base.schedule.assignment(e),
            res.schedule.assignment(e),
            "threads={threads}: edge {e} assigned differently"
        );
    }
}

/// The headline determinism check: a seeded 10k-node graph, large enough
/// that the parallel seeding work-queue and batched re-validation paths
/// all engage (`n ≥ 2 × SEED_CHUNK`, batches past the fan-out threshold).
#[test]
fn identical_schedules_across_thread_counts_on_seeded_10k_graph() {
    let g = gen::erdos_renyi(10_000, 30_000, 42);
    let r = Rates::log_degree(&g, 5.0);
    let base = ChitChat {
        threads: 1,
        ..Default::default()
    }
    .run(&g, &r);
    for threads in [0usize, 2, 8] {
        assert_identical(&g, &r, &base, threads);
    }
}

/// Clustered graphs drive the hub-heavy paths (large verification batches,
/// strict recomputations after hub selections) much harder than the
/// uniform random graph above.
#[test]
fn identical_schedules_across_thread_counts_on_clustered_graph() {
    let g = gen::flickr_like(1500, 7);
    let r = Rates::log_degree(&g, 5.0);
    let base = ChitChat {
        threads: 1,
        ..Default::default()
    }
    .run(&g, &r);
    for threads in [0usize, 2, 3, 8] {
        assert_identical(&g, &r, &base, threads);
    }
}
