//! Figure 6: *actual* per-client throughput of the store prototype as the
//! number of data-store servers grows, PARALLELNOSY vs FEEDINGFRENZY.
//!
//! Paper shape: absolute per-client throughput falls with more servers
//! (each request touches more distinct servers); the PN/FF ratio is ≈1 (FF
//! sometimes slightly ahead) in small systems and grows past a crossover
//! around 200 servers, reaching ≈1.2 at 500 and ≈1.35 at 1000.
//!
//! Runs the serving runtime: closed-loop client threads replaying a
//! rate-faithful trace through `run_harness`, each running its batches
//! inline on the shards, one message per touched server in the 24-byte
//! wire encoding. Wall-clock requests/second, pooled over trials (random
//! placement makes single runs irregular — §4.3 notes the same).
//!
//! ```text
//! cargo run --release -p piggyback-bench --bin fig6 -- [nodes]
//! ```

use std::time::Duration;

use piggyback_bench::{
    flickr_dataset, nodes_from_args, print_dataset_banner, print_header, print_row, Dataset,
};
use piggyback_core::parallelnosy::ParallelNosy;
use piggyback_core::schedule::Schedule;
use piggyback_core::scheduler::{Hybrid, Instance, Scheduler};
use piggyback_serve::{run_harness, HarnessConfig, ServeConfig};

const TRIALS: u64 = 3;
const CLIENTS: usize = 4;
/// Closed-loop run length per trial; the sweep's 42 trials make a run
/// ≈ 17 s of load at any graph size.
const TRIAL_LENGTH: Duration = Duration::from_millis(400);

/// `(requests/s per client, messages/request)` of `sched` on `servers`
/// hash-placed servers, pooled over [`TRIALS`] placements: a trial the
/// host's scheduler starves completes few requests, and weighs that little.
fn measure(d: &Dataset, sched: &Schedule, servers: usize) -> (f64, f64) {
    let (mut ops, mut messages, mut secs) = (0u64, 0u64, 0.0);
    for trial in 0..TRIALS {
        let report = run_harness(
            &d.graph,
            &d.rates,
            sched.clone(),
            Box::new(Hybrid),
            ServeConfig {
                shards: servers,
                placement_seed: trial,
                // A static schedule, as the paper's prototype replays.
                reopt_threshold: f64::INFINITY,
                ..Default::default()
            },
            &HarnessConfig {
                clients: CLIENTS,
                duration: TRIAL_LENGTH,
                churn_ratio: 0.0,
                seed: 17 + trial,
                ..Default::default()
            },
        );
        ops += report.ops;
        messages += report.messages;
        secs += report.elapsed_secs;
    }
    (
        ops as f64 / secs / CLIENTS as f64,
        messages as f64 / ops as f64,
    )
}

fn main() {
    let nodes = nodes_from_args();
    let d = flickr_dataset(nodes, 42);
    print_dataset_banner(&d);
    println!("# Figure 6: actual per-client throughput (req/s) vs number of servers");

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
        "pn_req_per_sec",
        "ff_req_per_sec",
        "actual_improvement_ratio",
        "pn_msgs_per_req",
        "ff_msgs_per_req",
    ]);
    for servers in [1usize, 4, 16, 64, 200, 500, 1000] {
        let (pn_rps, pn_msgs) = measure(&d, &pn, servers);
        let (ff_rps, ff_msgs) = measure(&d, &ff, servers);
        print_row(&[
            servers.to_string(),
            format!("{pn_rps:.0}"),
            format!("{ff_rps:.0}"),
            format!("{:.3}", pn_rps / ff_rps),
            format!("{pn_msgs:.3}"),
            format!("{ff_msgs:.3}"),
        ]);
    }
}
