//! Figure 7: placement-aware *predicted* throughput (normalized by the
//! one-server optimum) as servers grow from 1 to 10 000.
//!
//! Paper shape: FF is slightly ahead below ≈200 servers (co-location makes
//! piggybacking's extra hub hops occasionally wasteful), PN wins beyond the
//! crossover, and the ratio converges to the placement-free Figure 4 value
//! as co-location probability vanishes.
//!
//! ```text
//! cargo run --release -p piggyback-bench --bin fig7 -- [nodes]
//! ```

use piggyback_bench::{
    flickr_dataset, nodes_from_args, print_dataset_banner, print_header, print_row,
};
use piggyback_core::cost::CostModel;
use piggyback_core::parallelnosy::ParallelNosy;
use piggyback_core::scheduler::{Hybrid, Instance, Scheduler};
use piggyback_store::topology::Topology;

fn main() {
    let nodes = nodes_from_args();
    let d = flickr_dataset(nodes, 42);
    print_dataset_banner(&d);
    println!("# Figure 7: normalized predicted throughput vs number of servers (with placement)");

    let inst = Instance::new(&d.graph, &d.rates);
    let schedulers: [&dyn Scheduler; 2] = [
        &ParallelNosy {
            max_iterations: 20,
            ..ParallelNosy::default()
        },
        &Hybrid,
    ];
    let [pn, ff] = schedulers.map(|s| s.schedule(&inst).schedule);

    print_header(&[
        "servers",
        "pn_norm_throughput",
        "ff_norm_throughput",
        "predicted_improvement_ratio",
    ]);
    // Average over placement seeds: random partitioning makes single-seed
    // small-system curves irregular (the paper notes the same).
    let seeds = [1u64, 2, 3];
    for servers in [1usize, 3, 10, 30, 100, 200, 300, 1000, 3000, 10000] {
        let (mut tp, mut tf) = (0.0, 0.0);
        for &s in &seeds {
            let p = Topology::hash(d.graph.node_count(), servers, s);
            let model = CostModel::with_topology(p.assignment(), servers);
            tp += model
                .batched(&d.graph, &d.rates, &pn)
                .normalized_throughput();
            tf += model
                .batched(&d.graph, &d.rates, &ff)
                .normalized_throughput();
        }
        tp /= seeds.len() as f64;
        tf /= seeds.len() as f64;
        print_row(&[
            servers.to_string(),
            format!("{tp:.4}"),
            format!("{tf:.4}"),
            format!("{:.3}", tp / tf),
        ]);
    }
}
