//! Capacity planning: how many data-store servers does a feed workload
//! need, and when does schedule choice start to matter?
//!
//! Uses the placement-aware cost model (§4.3, Figure 7): with few servers,
//! batching makes schedules interchangeable; past a crossover, social
//! piggybacking serves the same workload with markedly fewer messages —
//! i.e., fewer servers for the same traffic.
//!
//! ```text
//! cargo run --release --example capacity_planning
//! ```

use social_piggybacking::prelude::*;

fn main() {
    let graph = gen::twitter_like(3_000, 7);
    let rates = Rates::log_degree(&graph, 5.0);
    println!(
        "workload: {} users, {} subscriptions, read/write ratio {:.1}",
        graph.node_count(),
        graph.edge_count(),
        rates.read_write_ratio()
    );

    let inst = Instance::new(&graph, &rates);
    let schedulers: [&dyn Scheduler; 2] = [&Hybrid, &ParallelNosy::default()];
    let [ff, pn] = schedulers.map(|s| s.schedule(&inst).schedule);
    // Batched (one message per touched server) pricing of a schedule on
    // `servers` hash-placed servers.
    let priced = |schedule: &Schedule, servers: usize| {
        let placement = Topology::hash(graph.node_count(), servers, 1);
        CostModel::with_topology(placement.assignment(), servers).batched(&graph, &rates, schedule)
    };

    println!("\nservers  hybrid msg-rate  piggyback msg-rate  savings");
    let mut crossover: Option<usize> = None;
    for servers in [1usize, 8, 32, 128, 512, 2048, 8192] {
        let a = priced(&ff, servers).total();
        let b = priced(&pn, servers).total();
        if b < a && crossover.is_none() {
            crossover = Some(servers);
        }
        println!(
            "{servers:>7}  {a:>15.0}  {b:>18.0}  {:>6.1}%",
            100.0 * (1.0 - b / a)
        );
    }
    match crossover {
        Some(s) => println!(
            "\npiggybacking starts paying off somewhere at or below {s} servers; \
             beyond it, the same fleet sustains up to {:.0}% more requests",
            100.0 * (priced(&ff, 8192).total() / priced(&pn, 8192).total() - 1.0)
        ),
        None => println!("\nthis workload never crosses over — stay on hybrid"),
    }

    // Load balance check before signing off the plan (Figure 8).
    let (mean, var) = priced(&pn, 512).load_balance();
    println!(
        "load balance @512 servers: mean share {:.4}, σ {:.5}",
        mean,
        var.sqrt()
    );
}
