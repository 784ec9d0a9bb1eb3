//! The protocol's two transports, differentially: one seeded share/query
//! stream through a [`ShardClient`] over [`Transport::Workers`] and over
//! [`Transport::Direct`] must return the same feeds and bill the same
//! messages, at replication 1 and 2. Queries span several shards of full
//! views, so the caller-runs floor fires: Direct ships fewer tuples for
//! the very same feeds, and every other shard counter agrees. The serving
//! runtime runs caller-runs only, so this is the one check on the worker
//! path the benchmark's hop probe times.

use std::sync::Arc;

use crossbeam::channel::unbounded;
use parking_lot::Mutex;
use piggyback_graph::NodeId;
use piggyback_store::server::{ShardStats, StoreServer};
use piggyback_store::topology::Topology;
use piggyback_store::worker::{worker_loop, Transport};
use piggyback_store::{BufferPool, EventTuple, ShardClient};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const USERS: usize = 240;
const SHARDS: usize = 4;
/// Per-view trim capacity: small, so the views fill and stay full.
const CAPACITY: usize = 16;
const K: usize = 10;

enum Step {
    Share(EventTuple, Vec<NodeId>),
    Query(Vec<NodeId>),
}

/// Five shares to one query, each over a sorted set of 4–15 views.
fn stream(seed: u64) -> Vec<Step> {
    let mut rng = StdRng::seed_from_u64(seed);
    (1..=3000u64)
        .map(|i| {
            let n = rng.random_range(4..16);
            let mut views: Vec<NodeId> = (0..n)
                .map(|_| rng.random_range(0..USERS as NodeId))
                .collect();
            let producer = views[0];
            views.sort_unstable();
            views.dedup();
            if rng.random_range(0..6) < 5 {
                Step::Share(EventTuple::new(producer, i, i), views)
            } else {
                Step::Query(views)
            }
        })
        .collect()
}

struct Run {
    feeds: Vec<Vec<EventTuple>>,
    messages: u64,
    stats: ShardStats,
}

fn shards() -> Arc<Vec<Mutex<StoreServer>>> {
    Arc::new(
        (0..SHARDS)
            .map(|_| Mutex::new(StoreServer::new(CAPACITY)))
            .collect(),
    )
}

/// Plays `steps` through `client`: every feed a query returned, and the
/// messages billed.
fn drive(
    client: &mut ShardClient,
    topology: &Topology,
    steps: &[Step],
) -> (Vec<Vec<EventTuple>>, u64) {
    let (mut feeds, mut messages) = (Vec::new(), 0);
    let mut out = Vec::new();
    for step in steps {
        messages += match step {
            Step::Share(event, views) => client.update(topology, views, event.to_wire()),
            Step::Query(views) => {
                let sent = client.query(topology, views, K, &mut out);
                feeds.push(out.clone());
                sent
            }
        };
    }
    (feeds, messages)
}

fn totals(shards: &[Mutex<StoreServer>]) -> ShardStats {
    let mut total = ShardStats::default();
    for shard in shards {
        total.merge(&shard.lock().stats());
    }
    total
}

fn over_direct(topology: &Topology, steps: &[Step]) -> Run {
    let shards = shards();
    let transport = Transport::Direct(Arc::clone(&shards));
    let mut client = ShardClient::new(transport, Arc::new(BufferPool::new()));
    let (feeds, messages) = drive(&mut client, topology, steps);
    Run {
        feeds,
        messages,
        stats: totals(&shards),
    }
}

/// Two workers; the client's senders are the only ones, so dropping it
/// ends the workers before the scope joins them.
fn over_workers(topology: &Topology, steps: &[Step]) -> Run {
    let shards = shards();
    let pool = Arc::new(BufferPool::new());
    let (feeds, messages) = std::thread::scope(|s| {
        let senders = (0..2)
            .map(|_| {
                let (tx, rx) = unbounded();
                let (shards, pool) = (&shards, &pool);
                s.spawn(move || worker_loop(shards, pool, &rx));
                tx
            })
            .collect();
        let transport = Transport::Workers(Arc::new(senders));
        let mut client = ShardClient::new(transport, Arc::clone(&pool));
        drive(&mut client, topology, steps)
    });
    Run {
        feeds,
        messages,
        stats: totals(&shards),
    }
}

#[test]
fn workers_and_direct_serve_the_same_feeds_and_bills() {
    let steps = stream(7);
    for replication in [1, 2] {
        let topology = Topology::hash(USERS, SHARDS, 3).with_replication(replication);
        let (workers, direct) = (
            over_workers(&topology, &steps),
            over_direct(&topology, &steps),
        );
        let full = direct.feeds.iter().filter(|f| f.len() == K).count();
        assert!(
            full * 10 > direct.feeds.len() * 9,
            "replication {replication}: only {full} of {} feeds full",
            direct.feeds.len()
        );
        assert!(
            workers.feeds == direct.feeds,
            "replication {replication}: feeds diverged"
        );
        assert_eq!(
            workers.messages, direct.messages,
            "replication {replication}: bills diverged"
        );
        assert_eq!(workers.stats.batches, direct.messages);
        // Both ship through the same `serve_batch`: only the floor may
        // change what a shard returns, and only downward.
        let (shipped_by_workers, shipped_direct) =
            (workers.stats.events_returned, direct.stats.events_returned);
        assert!(
            shipped_direct < shipped_by_workers,
            "replication {replication}: the floor never fired: \
             Direct shipped {shipped_direct}, Workers {shipped_by_workers}"
        );
        let others = |s: ShardStats| ShardStats {
            events_returned: 0,
            ..s
        };
        assert_eq!(
            others(workers.stats),
            others(direct.stats),
            "replication {replication}"
        );
    }
}
