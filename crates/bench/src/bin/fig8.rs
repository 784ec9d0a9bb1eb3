//! Figure 8: load balancing — normalized query rate per server (mean and
//! variance) for PARALLELNOSY vs FEEDINGFRENZY schedules.
//!
//! Paper shape: both schedules balance well; average per-server load falls
//! as servers grow (log–log straight line), with small variance bars.
//!
//! ```text
//! cargo run --release -p piggyback-bench --bin fig8 -- [nodes]
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
    println!("# Figure 8: normalized query load per server (mean, variance)");

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
        "pn_mean_load",
        "pn_load_variance",
        "ff_mean_load",
        "ff_load_variance",
    ]);
    for servers in [1usize, 10, 100, 1000, 10000] {
        let p = Topology::hash(d.graph.node_count(), servers, 5);
        let model = CostModel::with_topology(p.assignment(), servers);
        let (pn_mean, pn_var) = model.batched(&d.graph, &d.rates, &pn).load_balance();
        let (ff_mean, ff_var) = model.batched(&d.graph, &d.rates, &ff).load_balance();
        print_row(&[
            servers.to_string(),
            format!("{pn_mean:.6}"),
            format!("{pn_var:.3e}"),
            format!("{ff_mean:.6}"),
            format!("{ff_var:.3e}"),
        ]);
    }
}
