//! The full prototype: Algorithm 3's application servers driving a set of
//! data-store shards.
//!
//! On an update from `u`, the client (application server) looks up the push
//! set `h[u]`, adds `u`'s own view, groups the views by data-store server
//! and sends **one batched update per server**. On a query from `u` it does
//! the same with the pull set `l[u]`, merges the per-server replies and
//! keeps the `k` latest events (§4.3).
//!
//! Two execution modes:
//!
//! * [`Cluster::simulate`] — single-threaded, deterministic; counts the
//!   messages each request generates (the quantity that drives the paper's
//!   throughput trends) while exercising the real views.
//! * [`Cluster::run_concurrent`] — real threads: shard workers behind
//!   channels and client threads issuing requests back-to-back over the
//!   coalesced [`ShardClient`] plane (pooled reply channels and buffers),
//!   returning wall-clock requests/second, the paper's *actual
//!   throughput*.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::{unbounded, Sender};
use parking_lot::Mutex;
use piggyback_core::schedule::Schedule;
use piggyback_graph::{CsrGraph, NodeId};
use piggyback_obs::LatencyHistogram;
use piggyback_workload::{Rates, RequestKind, RequestTrace};

use crate::merge::sort_merge;
use crate::server::{QueryScratch, StoreServer};
use crate::topology::Topology;
use crate::tuple::EventTuple;
use crate::worker::{worker_loop, BufferPool, ShardClient, ShardRequest, Transport};

/// Prototype configuration.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Number of (logical) data-store servers.
    pub servers: usize,
    /// Events returned per event-stream query (the paper uses 10).
    pub top_k: usize,
    /// Per-view trim capacity (0 = unbounded).
    pub view_capacity: usize,
    /// Placement seed (hash-random data partitioning).
    pub placement_seed: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            servers: 8,
            top_k: 10,
            view_capacity: 128,
            placement_seed: 0,
        }
    }
}

/// Statistics from a simulated (single-threaded) run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimStats {
    /// Requests processed.
    pub requests: u64,
    /// Updates among them.
    pub updates: u64,
    /// Queries among them.
    pub queries: u64,
    /// Data-store messages sent (batched: one per touched server).
    pub messages: u64,
}

impl SimStats {
    /// Average messages per request — inverse proportional to achievable
    /// throughput when the data store is the bottleneck.
    pub fn messages_per_request(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.messages as f64 / self.requests as f64
        }
    }
}

/// Statistics from a concurrent (threaded) run.
#[derive(Clone, Debug)]
pub struct ActualStats {
    /// Total requests completed across all clients.
    pub requests: u64,
    /// Wall-clock seconds elapsed.
    pub elapsed_secs: f64,
    /// Data-store messages sent.
    pub messages: u64,
    /// Per-request latency distribution, merged across clients.
    pub latency: LatencyHistogram,
}

impl ActualStats {
    /// Aggregate requests per second.
    pub fn requests_per_sec(&self) -> f64 {
        if self.elapsed_secs == 0.0 {
            0.0
        } else {
            self.requests as f64 / self.elapsed_secs
        }
    }
}

/// The prototype cluster: per-user push/pull sets compiled from a schedule,
/// a topology, and the shard array.
pub struct Cluster {
    /// `h[u]` of Algorithm 3 (excluding `u` itself).
    push_sets: Vec<Vec<NodeId>>,
    /// `l[u]` of Algorithm 3 (excluding `u` itself).
    pull_sets: Vec<Vec<NodeId>>,
    topology: Topology,
    config: ClusterConfig,
    shards: Vec<StoreServer>,
    clock: AtomicU64,
    /// Query merge scratch for the single-threaded mode.
    scratch: QueryScratch,
}

impl Cluster {
    /// Builds a cluster for `g` under `schedule` with the paper's baseline
    /// hash topology (`config.placement_seed`).
    pub fn new(g: &CsrGraph, schedule: &Schedule, config: ClusterConfig) -> Self {
        let topology = Topology::hash(g.node_count(), config.servers, config.placement_seed);
        Cluster::with_topology(g, schedule, config, topology)
    }

    /// Builds a cluster with an explicit [`Topology`] (any
    /// [`Partitioner`](crate::topology::Partitioner) output).
    pub fn with_topology(
        g: &CsrGraph,
        schedule: &Schedule,
        config: ClusterConfig,
        topology: Topology,
    ) -> Self {
        assert_eq!(g.edge_count(), schedule.edge_count());
        assert!(
            topology.users() >= g.node_count(),
            "topology covers {} users, graph has {}",
            topology.users(),
            g.node_count()
        );
        assert_eq!(
            topology.servers(),
            config.servers,
            "topology server count disagrees with the config"
        );
        let n = g.node_count();
        let mut push_sets = Vec::with_capacity(n);
        let mut pull_sets = Vec::with_capacity(n);
        for u in 0..n as NodeId {
            push_sets.push(schedule.push_set_of(g, u));
            pull_sets.push(schedule.pull_set_of(g, u));
        }
        let shards = (0..config.servers)
            .map(|_| StoreServer::new(config.view_capacity))
            .collect();
        Cluster {
            push_sets,
            pull_sets,
            topology,
            config,
            shards,
            clock: AtomicU64::new(1),
            scratch: QueryScratch::new(),
        }
    }

    /// Number of users.
    pub fn users(&self) -> usize {
        self.push_sets.len()
    }

    /// The topology in use.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Handles one share request from `u` (Algorithm 3 lines 1–7):
    /// insert into `u`'s own view plus every view in `h[u]`.
    /// Returns the number of data-store messages sent.
    pub fn share(&mut self, u: NodeId, event_id: u64) -> u64 {
        let ts = self.clock.fetch_add(1, Ordering::Relaxed);
        let event = EventTuple::new(u, event_id, ts);
        let mut targets = self.push_sets[u as usize].clone();
        targets.push(u);
        // Split borrows: shards mutated inside the closure.
        let (topology, shards) = (&self.topology, &mut self.shards);
        let mut messages = 0u64;
        topology.group_by_server(&targets, |server, views| {
            shards[server].update(views, event);
            messages += 1;
        });
        messages
    }

    /// Handles one event-stream query from `u` (Algorithm 3 lines 8–16):
    /// query `u`'s own view plus every view in `l[u]`, merge, keep `top_k`.
    /// Returns `(events, messages)`.
    pub fn query(&mut self, u: NodeId) -> (Vec<EventTuple>, u64) {
        let mut targets = self.pull_sets[u as usize].clone();
        targets.push(u);
        let k = self.config.top_k;
        let (topology, shards, scratch) = (&self.topology, &mut self.shards, &mut self.scratch);
        let mut merged: Vec<EventTuple> = Vec::with_capacity(k.saturating_mul(2).min(1024));
        let mut messages = 0u64;
        topology.group_by_server(&targets, |server, views| {
            // filter(n, r[u]) of Algorithm 3: merge and keep the k latest.
            merged.extend_from_slice(shards[server].query_with(views, k, scratch));
            messages += 1;
        });
        sort_merge(&mut merged, k);
        (merged, messages)
    }

    /// Replays `count` requests from `trace` single-threadedly, counting
    /// messages. Deterministic for a fixed trace seed.
    pub fn simulate(&mut self, trace: &mut RequestTrace, count: usize) -> SimStats {
        let mut stats = SimStats::default();
        let mut next_event = 0u64;
        for _ in 0..count {
            match trace.next_request() {
                RequestKind::Share(u) => {
                    next_event += 1;
                    stats.messages += self.share(u, next_event);
                    stats.updates += 1;
                }
                RequestKind::Query(u) => {
                    let (_, msgs) = self.query(u);
                    stats.messages += msgs;
                    stats.queries += 1;
                }
            }
            stats.requests += 1;
        }
        stats
    }

    /// Runs `clients` client threads, each issuing `requests_per_client`
    /// requests back-to-back against shard worker threads, and measures
    /// wall-clock throughput.
    ///
    /// Shards are sharded across `workers` OS threads (shard `s` is owned by
    /// worker `s % workers`), so thousands of logical servers multiplex onto
    /// a bounded thread pool — how the experiments scale to the paper's
    /// 1000-server sweeps on one machine. Clients speak the coalesced
    /// [`ShardClient`] plane, and every per-client tally (messages +
    /// latency histogram) is thread-local, returned through the join
    /// handle and merged once at the end — no shared lock on the hot path.
    pub fn run_concurrent(
        self,
        g: &CsrGraph,
        rates: &Rates,
        clients: usize,
        requests_per_client: usize,
        workers: usize,
        seed: u64,
    ) -> (ActualStats, Cluster) {
        assert!(clients >= 1 && workers >= 1);
        let _ = g;
        let Cluster {
            push_sets,
            pull_sets,
            topology,
            config,
            shards,
            clock,
            scratch: _,
        } = self;
        let topology = Arc::new(topology);
        let push_sets = Arc::new(push_sets);
        let pull_sets = Arc::new(pull_sets);
        let shared = Arc::new(SharedCluster {
            shards: shards.into_iter().map(Mutex::new).collect(),
            clock,
        });
        let pool = Arc::new(BufferPool::new());

        // Worker channels: one per worker thread; shard s -> worker s % W.
        let mut senders: Vec<Sender<ShardRequest>> = Vec::with_capacity(workers);
        let mut receivers = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = unbounded::<ShardRequest>();
            senders.push(tx);
            receivers.push(rx);
        }
        let senders = Arc::new(senders);

        let start = Instant::now();
        let (total_messages, latency) = crossbeam::scope(|s| {
            // Shard workers: the shared wire-format worker loop (see
            // [`crate::worker`]).
            for rx in receivers {
                let shared = Arc::clone(&shared);
                let pool = Arc::clone(&pool);
                s.spawn(move |_| worker_loop(&shared.shards, &pool, &rx));
            }
            // Clients, each returning its thread-local tally on join.
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let push_sets = Arc::clone(&push_sets);
                    let pull_sets = Arc::clone(&pull_sets);
                    let topology = Arc::clone(&topology);
                    let shared = Arc::clone(&shared);
                    let mut shard_client = ShardClient::new(
                        Transport::Workers(Arc::clone(&senders)),
                        Arc::clone(&pool),
                    );
                    let mut trace = RequestTrace::new(rates, seed.wrapping_add(c as u64));
                    s.spawn(move |_| {
                        let mut event_id = (c as u64) << 40;
                        let mut msgs = 0u64;
                        let mut hist = LatencyHistogram::new();
                        let mut targets: Vec<NodeId> = Vec::new();
                        let mut merged: Vec<EventTuple> = Vec::new();
                        for _ in 0..requests_per_client {
                            let req_start = Instant::now();
                            match trace.next_request() {
                                RequestKind::Share(u) => {
                                    event_id += 1;
                                    let ts = shared.clock.fetch_add(1, Ordering::Relaxed);
                                    let event = EventTuple::new(u, event_id, ts);
                                    targets.clear();
                                    targets.extend_from_slice(&push_sets[u as usize]);
                                    targets.push(u);
                                    msgs +=
                                        shard_client.update(&topology, &targets, event.to_wire());
                                }
                                RequestKind::Query(u) => {
                                    targets.clear();
                                    targets.extend_from_slice(&pull_sets[u as usize]);
                                    targets.push(u);
                                    msgs += shard_client.query(
                                        &topology,
                                        &targets,
                                        config.top_k,
                                        &mut merged,
                                    );
                                }
                            }
                            hist.record(req_start.elapsed());
                        }
                        (msgs, hist)
                    })
                })
                .collect();
            let mut total = 0u64;
            let mut latency = LatencyHistogram::new();
            for h in handles {
                let (msgs, hist) = h.join().expect("client thread panicked");
                total += msgs;
                latency.merge(&hist);
            }
            // Dropping our sender clones when clients finish closes workers.
            drop(senders);
            (total, latency)
        })
        .expect("cluster thread panicked");
        let elapsed = start.elapsed().as_secs_f64();

        let shared = Arc::try_unwrap(shared).ok().expect("shards still shared");
        let cluster = Cluster {
            push_sets: Arc::try_unwrap(push_sets).expect("push sets shared"),
            pull_sets: Arc::try_unwrap(pull_sets).expect("pull sets shared"),
            topology: Arc::try_unwrap(topology).expect("topology shared"),
            config,
            shards: shared.shards.into_iter().map(Mutex::into_inner).collect(),
            clock: shared.clock,
            scratch: QueryScratch::new(),
        };
        (
            ActualStats {
                requests: (clients * requests_per_client) as u64,
                elapsed_secs: elapsed,
                messages: total_messages,
                latency,
            },
            cluster,
        )
    }

    /// Read-only access to a shard (tests/diagnostics).
    pub fn shard(&self, s: usize) -> &StoreServer {
        &self.shards[s]
    }
}

struct SharedCluster {
    shards: Vec<Mutex<StoreServer>>,
    clock: AtomicU64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use piggyback_core::baseline::hybrid_schedule;
    use piggyback_core::parallelnosy::ParallelNosy;
    use piggyback_graph::gen::{copying, CopyingConfig};
    use piggyback_graph::GraphBuilder;

    fn fig2_world() -> (CsrGraph, Rates, Schedule) {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(0, 2);
        let g = b.build();
        let r = Rates::from_vecs(vec![1.0, 5.0, 5.0], vec![5.0, 5.0, 1.8]);
        let s = ParallelNosy::default().run(&g, &r).schedule;
        (g, r, s)
    }

    #[test]
    fn piggybacked_event_reaches_consumer() {
        let (g, _r, s) = fig2_world();
        // Covered edge 0->2 through hub 1: Art's event must reach Billie.
        assert!(s.is_covered(g.edge_id(0, 2)));
        let mut c = Cluster::new(&g, &s, ClusterConfig::default());
        c.share(0, 1); // Art shares event 1
        let (events, _) = c.query(2); // Billie queries
        assert!(
            events.iter().any(|e| e.user == 0 && e.event_id == 1),
            "piggybacked event missing: {events:?}"
        );
    }

    #[test]
    fn own_events_always_visible() {
        let (g, _r, s) = fig2_world();
        let mut c = Cluster::new(&g, &s, ClusterConfig::default());
        c.share(2, 7);
        let (events, _) = c.query(2);
        assert!(events.iter().any(|e| e.user == 2 && e.event_id == 7));
    }

    #[test]
    fn all_edges_deliver_under_any_feasible_schedule() {
        let g = copying(CopyingConfig {
            nodes: 120,
            follows_per_node: 5,
            copy_prob: 0.7,
            seed: 2,
        });
        let r = Rates::log_degree(&g, 5.0);
        for sched in [
            hybrid_schedule(&g, &r),
            ParallelNosy::default().run(&g, &r).schedule,
        ] {
            // Unfiltered configuration: delivery must be complete, so turn
            // off the top-k window and view trimming (hub views aggregate
            // many producers and would otherwise age events out).
            let mut c = Cluster::new(
                &g,
                &sched,
                ClusterConfig {
                    servers: 7,
                    top_k: usize::MAX,
                    view_capacity: 0,
                    ..Default::default()
                },
            );
            for u in g.nodes() {
                c.share(u, u as u64 + 1);
            }
            for v in g.nodes().take(30) {
                let (events, _) = c.query(v);
                let have: std::collections::HashSet<u32> = events.iter().map(|e| e.user).collect();
                for &p in g.in_neighbors(v) {
                    assert!(
                        have.contains(&p),
                        "consumer {v} missing producer {p}'s event"
                    );
                }
            }
        }
    }

    #[test]
    fn piggybacking_reduces_messages() {
        let g = copying(CopyingConfig {
            nodes: 400,
            follows_per_node: 6,
            copy_prob: 0.8,
            seed: 4,
        });
        let r = Rates::log_degree(&g, 5.0);
        let ff = hybrid_schedule(&g, &r);
        let pn = ParallelNosy::default().run(&g, &r).schedule;
        let cfg = ClusterConfig {
            servers: 200,
            ..Default::default()
        };
        let mut trace_a = RequestTrace::new(&r, 99);
        let mut trace_b = RequestTrace::new(&r, 99);
        let ff_stats = Cluster::new(&g, &ff, cfg).simulate(&mut trace_a, 20_000);
        let pn_stats = Cluster::new(&g, &pn, cfg).simulate(&mut trace_b, 20_000);
        assert!(
            pn_stats.messages < ff_stats.messages,
            "PN {} vs FF {} messages",
            pn_stats.messages,
            ff_stats.messages
        );
    }

    #[test]
    fn few_servers_blunt_the_advantage() {
        // With one server everything is one message per request for both
        // schedules — piggybacking cannot help (left edge of Figure 6).
        let (g, r, s) = fig2_world();
        let cfg = ClusterConfig {
            servers: 1,
            ..Default::default()
        };
        let ff = hybrid_schedule(&g, &r);
        let mut t1 = RequestTrace::new(&r, 5);
        let mut t2 = RequestTrace::new(&r, 5);
        let a = Cluster::new(&g, &s, cfg).simulate(&mut t1, 2000);
        let b = Cluster::new(&g, &ff, cfg).simulate(&mut t2, 2000);
        assert_eq!(a.messages, a.requests);
        assert_eq!(b.messages, b.requests);
    }

    #[test]
    fn concurrent_run_completes_and_counts() {
        let (g, r, s) = fig2_world();
        let c = Cluster::new(
            &g,
            &s,
            ClusterConfig {
                servers: 4,
                ..Default::default()
            },
        );
        let (stats, cluster) = c.run_concurrent(&g, &r, 3, 200, 2, 11);
        assert_eq!(stats.requests, 600);
        assert!(stats.requests_per_sec() > 0.0);
        assert!(stats.messages >= stats.requests);
        // Latency histogram captured every request.
        assert_eq!(stats.latency.count(), 600);
        assert!(stats.latency.quantile_ns(0.5) <= stats.latency.quantile_ns(0.99));
        // The shards really processed work.
        let processed: u64 = (0..4)
            .map(|i| {
                let (u, q) = cluster.shard(i).request_counts();
                u + q
            })
            .sum();
        assert_eq!(processed, stats.messages);
    }

    #[test]
    fn simulate_is_deterministic() {
        let (g, r, s) = fig2_world();
        let cfg = ClusterConfig::default();
        let mut t1 = RequestTrace::new(&r, 3);
        let mut t2 = RequestTrace::new(&r, 3);
        let a = Cluster::new(&g, &s, cfg).simulate(&mut t1, 1000);
        let b = Cluster::new(&g, &s, cfg).simulate(&mut t2, 1000);
        assert_eq!(a, b);
    }
}
