//! Figure 5: incremental vs static PARALLELNOSY when batches of new edges
//! arrive.
//!
//! Protocol (matching §4.2 "Incremental updates"): optimize *half* of the
//! Flickr-like graph's edges with PARALLELNOSY, then add back `k` of the
//! held-out edges and compare two policies on the grown graph —
//!
//! * **incremental**: the §3.3 rule (new edges served directly, hybrid);
//! * **static**: re-run PARALLELNOSY from scratch on the grown graph.
//!
//! Both are reported as predicted improvement over FEEDINGFRENZY on the
//! grown graph. Paper shape: incremental degrades slowly as the batch
//! grows; static stays flat; even batches of a third of the graph keep the
//! incremental policy close.
//!
//! ```text
//! cargo run --release -p piggyback-bench --bin fig5 -- [nodes]
//! ```

use piggyback_bench::{
    flickr_dataset, nodes_from_args, print_dataset_banner, print_header, print_row,
};
use piggyback_core::incremental::IncrementalScheduler;
use piggyback_core::parallelnosy::ParallelNosy;
use piggyback_core::scheduler::{Hybrid, Instance, Scheduler};
use piggyback_graph::GraphBuilder;
use rand::rngs::StdRng;
use rand::{seq::SliceRandom, SeedableRng};

fn main() {
    let nodes = nodes_from_args();
    let d = flickr_dataset(nodes, 42);
    print_dataset_banner(&d);
    println!("# Figure 5: improvement over FF after adding k edges: incremental vs re-optimized");

    // Split edges: half into the base graph, half held out for batches.
    let mut rng = StdRng::seed_from_u64(7);
    let mut all_edges: Vec<(u32, u32)> = d.graph.edges().map(|(_, u, v)| (u, v)).collect();
    all_edges.shuffle(&mut rng);
    let half = all_edges.len() / 2;
    let (base_edges, held_out) = all_edges.split_at(half);

    let mut b = GraphBuilder::with_capacity(half);
    b.reserve_nodes(d.graph.node_count());
    for &(u, v) in base_edges {
        b.add_edge(u, v);
    }
    let base = b.build();

    let pn: &dyn Scheduler = &ParallelNosy {
        max_iterations: 20,
        ..ParallelNosy::default()
    };
    let base_schedule = pn.schedule(&Instance::new(&base, &d.rates)).schedule;

    print_header(&[
        "batch_size",
        "incremental_improvement",
        "static_improvement",
    ]);
    // Log-spaced batch sizes up to the full held-out half.
    let mut batch_sizes = vec![];
    let mut k = 100usize;
    while k < held_out.len() {
        batch_sizes.push(k);
        k *= 4;
    }
    batch_sizes.push(held_out.len());

    for &k in &batch_sizes {
        // Incremental: serve the k new edges directly.
        let mut inc =
            IncrementalScheduler::new(base.clone(), d.rates.clone(), base_schedule.clone());
        for &(u, v) in &held_out[..k] {
            inc.add_edge_detailed(u, v);
        }
        let grown = inc.freeze_graph();
        let grown_inst = Instance::new(&grown, &d.rates);
        let ff_cost = Hybrid.schedule(&grown_inst).stats.cost;
        let inc_improvement = ff_cost / inc.cost();

        // Static: re-optimize the grown graph from scratch.
        let static_improvement = ff_cost / pn.schedule(&grown_inst).stats.cost;

        print_row(&[
            k.to_string(),
            format!("{inc_improvement:.4}"),
            format!("{static_improvement:.4}"),
        ]);
    }
}
