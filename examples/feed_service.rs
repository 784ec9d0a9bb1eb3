//! A miniature event-stream ("news feed") service: the serving runtime end
//! to end — Algorithm 3 of §4.3 over a sharded store — with a piggybacking
//! schedule.
//!
//! The social graph is a celebrity cluster: a group of artists, a curator
//! who follows all of them, and fans who follow the curator *and* the
//! artists. The curator's view is a natural hub: artists push into it once,
//! every fan pulls it once, and all artist→fan edges ride along for free.
//!
//! Demonstrates: booting the sharded store, sharing events, assembling
//! feeds, and comparing data-store message counts between schedules — the
//! quantity that determines real throughput once the store saturates.
//!
//! ```text
//! cargo run --release --example feed_service
//! ```

use social_piggybacking::prelude::*;

const ARTISTS: u32 = 10;
const CURATOR: u32 = ARTISTS; // node 10
const FANS: std::ops::Range<u32> = 11..41;

fn main() {
    let mut b = GraphBuilder::new();
    for artist in 0..ARTISTS {
        b.add_edge(artist, CURATOR); // curator follows every artist
        for fan in FANS {
            b.add_edge(artist, fan); // fans follow every artist...
        }
    }
    for fan in FANS {
        b.add_edge(CURATOR, fan); // ...and the curator
    }
    let graph = b.build();
    // Everyone produces at rate 1 and reads their feed at rate 3.
    let rates = Rates::uniform(graph.node_count(), 1.0, 3.0);

    let inst = Instance::new(&graph, &rates);
    let schedule = ParallelNosy::default().schedule(&inst).schedule;
    validate_bounded_staleness(&graph, &schedule).expect("feasible");
    let covered = schedule.covered_edges().count();
    println!(
        "schedule: {covered} of {} edges piggybacked through hubs",
        graph.edge_count()
    );
    assert!(covered > 0, "the curator hub should be exploited");

    // A 4-server store running that schedule, each request's batches run
    // inline on the calling thread (the embedded deployment).
    let boot = |schedule: &Schedule, shards: usize| {
        ServeRuntime::start(
            graph.clone(),
            rates.clone(),
            schedule.clone(),
            Box::new(Hybrid),
            ServeConfig {
                shards,
                ..Default::default()
            },
        )
    };
    let runtime = boot(&schedule, 4);
    let mut client = runtime.client();

    // Three artists share events; the curator shares one too.
    for artist in [0, 1, 2, CURATOR] {
        client.share(artist);
    }

    // A fan assembles their feed: artist events must arrive even though
    // most artist→fan edges are never pushed or pulled directly.
    let billie = 11;
    let (feed, messages) = client.query(billie);
    println!("fan {billie}'s feed ({messages} store messages):");
    for e in feed.iter() {
        println!(
            "  event {} from user {} at t={}",
            e.event_id, e.user, e.timestamp
        );
    }
    assert!(
        feed.iter().filter(|e| e.user < ARTISTS).count() >= 3,
        "fan must see the artists' events"
    );
    drop(client);
    assert!(runtime.shutdown().churn.zero_violations());

    // Message accounting: replay one trace under both schedules.
    let ff = Hybrid.schedule(&inst).schedule;
    let replay = |schedule: &Schedule| -> u64 {
        let runtime = boot(schedule, 64);
        let mut client = runtime.client();
        let messages = OpTrace::new(&rates, 0.0, 7)
            .take(50_000)
            .map(|op| client.apply_op(op))
            .sum();
        drop(client);
        runtime.shutdown();
        messages
    };
    let (pn_msgs, ff_msgs) = (replay(&schedule), replay(&ff));
    println!(
        "50k requests on 64 servers: piggybacking {:.3} msgs/req vs hybrid {:.3} msgs/req",
        pn_msgs as f64 / 50_000.0,
        ff_msgs as f64 / 50_000.0
    );
    println!(
        "=> {:.1}% fewer data-store messages",
        100.0 * (1.0 - pn_msgs as f64 / ff_msgs as f64)
    );
}
