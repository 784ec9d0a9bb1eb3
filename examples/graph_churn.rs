//! Living with a changing social graph: incremental schedule maintenance
//! (§3.3) and deciding when to re-optimize.
//!
//! New follows are served directly; unfollows re-serve any edges that were
//! piggybacking on them. The schedule stays feasible throughout, its
//! quality degrades slowly, and a periodic re-optimization recovers it.
//!
//! ```text
//! cargo run --release --example graph_churn
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use social_piggybacking::prelude::*;

fn main() {
    let graph = gen::flickr_like(2_000, 11);
    let rates = Rates::log_degree(&graph, 5.0);
    let n = graph.node_count();

    // Optimize once...
    let pn: &dyn Scheduler = &ParallelNosy::default();
    let schedule = pn.schedule(&Instance::new(&graph, &rates)).schedule;
    let mut inc = IncrementalScheduler::new(graph.clone(), rates.clone(), schedule);
    let optimized_cost = inc.cost();
    println!("optimized cost: {optimized_cost:.1}");

    // ... then churn: bursts of follows and unfollows.
    let mut rng = StdRng::seed_from_u64(3);
    let mut frozen = graph;
    for burst in 1..=5 {
        for _ in 0..2_000 {
            let u = rng.random_range(0..n) as u32;
            let v = rng.random_range(0..n) as u32;
            if u == v {
                continue;
            }
            if rng.random_bool(0.7) {
                inc.add_edge_detailed(u, v);
            } else {
                inc.remove_edge_detailed(u, v);
            }
        }
        inc.validate()
            .expect("incremental schedule must stay feasible");
        frozen = inc.freeze_graph();
        println!(
            "after burst {burst}: cost {:.1} ({} edges, {} added since snapshot)",
            inc.cost(),
            frozen.edge_count(),
            inc.added_count()
        );
    }

    // Degradation check: compare against re-optimizing from scratch.
    let frozen_inst = Instance::new(&frozen, &rates);
    let reopt_cost = pn.schedule(&frozen_inst).stats.cost;
    let ff_cost = Hybrid.schedule(&frozen_inst).stats.cost;
    println!(
        "\ncurrent graph: incremental {:.1} | re-optimized {:.1} | hybrid {:.1}",
        inc.cost(),
        reopt_cost,
        ff_cost
    );
    println!(
        "incremental kept {:.0}% of the re-optimized advantage over hybrid",
        100.0 * (ff_cost - inc.cost()) / (ff_cost - reopt_cost)
    );
    println!("rule of thumb from the paper: re-optimize after ~1/3 of the graph has churned");
}
