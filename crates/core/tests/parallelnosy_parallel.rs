//! PARALLELNOSY's pooled candidate fan-out must be invisible in the
//! output: any worker-thread count produces the identical iteration
//! trajectory (`cost_history`, element for element — these are `f64`
//! equalities, not tolerances) and the identical per-edge assignment.
//! Chunks may land on different workers in any order; reassembly in
//! ascending chunk index restores the exact edge-ascending candidate list
//! the serial path builds, so every lock-arbitration and scheduling
//! decision is reproduced bit-for-bit.

use piggyback_core::parallelnosy::{ParallelNosy, ParallelNosyResult};
use piggyback_graph::gen;
use piggyback_graph::EdgeId;
use piggyback_workload::Rates;

fn run_with(g: &piggyback_graph::CsrGraph, r: &Rates, threads: usize) -> ParallelNosyResult {
    ParallelNosy {
        threads,
        ..Default::default()
    }
    .run(g, r)
}

fn assert_identical(
    g: &piggyback_graph::CsrGraph,
    r: &Rates,
    base: &ParallelNosyResult,
    threads: usize,
) {
    let res = run_with(g, r, threads);
    assert_eq!(
        res.cost_history, base.cost_history,
        "threads={threads}: iteration trajectory diverged"
    );
    assert_eq!(res.iterations, base.iterations, "threads={threads}");
    assert_eq!(res.hubs_applied, base.hubs_applied, "threads={threads}");
    for e in 0..g.edge_count() as EdgeId {
        assert_eq!(
            base.schedule.assignment(e),
            res.schedule.assignment(e),
            "threads={threads}: edge {e} assigned differently"
        );
    }
}

/// Uniform random graph: many small, conflicting candidates — the lock
/// arbitration (where a mis-ordered candidate list would first show up)
/// gets exercised hard.
#[test]
fn identical_schedules_across_thread_counts_on_random_graph() {
    let g = gen::erdos_renyi(2_000, 10_000, 42);
    let r = Rates::log_degree(&g, 5.0);
    let base = run_with(&g, &r, 1);
    for threads in [0usize, 2, 8] {
        assert_identical(&g, &r, &base, threads);
    }
}

/// Clustered graph: large hub-graphs spanning many chunks, multi-iteration
/// convergence — the trajectory equality checks every intermediate
/// schedule, not just the final one.
#[test]
fn identical_schedules_across_thread_counts_on_clustered_graph() {
    let g = gen::flickr_like(1_500, 7);
    let r = Rates::log_degree(&g, 5.0);
    let base = run_with(&g, &r, 1);
    for threads in [0usize, 2, 3, 8] {
        assert_identical(&g, &r, &base, threads);
    }
}
