//! The online serving runtime: shard workers, serving clients, and the
//! churn manager.
//!
//! Thread layout:
//!
//! * **Shard workers** (`config.workers` threads) own the
//!   [`StoreServer`] shards behind channels, speaking the wire-format
//!   [`worker`](piggyback_store::worker) protocol. Under
//!   [`RpcMode::Direct`] no workers are spawned at all: clients (and the
//!   churn manager's migrations) execute the same coalesced batches inline
//!   against the shard mutexes — identical protocol and message
//!   accounting, no scheduler round trip.
//! * **Clients** ([`ServeClient`]) execute `Share`/`Query` against the
//!   current [`ServingSchedule`] snapshot (one [`EpochReader::current`]
//!   per operation) and forward `Follow`/`Unfollow` to the churn manager.
//! * **The churn manager** (one thread) owns the
//!   [`IncrementalScheduler`]: it applies graph mutations (§3.3 —
//!   new edges served directly with the hybrid rule, orphaned piggybacked
//!   edges re-served), publishes a new epoch per mutation, and fires a
//!   **background full re-optimization** when the accumulated cost
//!   degradation crosses the configured threshold. While the optimizer
//!   runs on its own thread, churn keeps flowing; the mutations are
//!   replayed onto the fresh schedule before it is swapped in atomically.
//!   It also owns the cluster [`Topology`]: churn that lands cross-server
//!   traffic accumulates toward [`ServeConfig::rebalance_threshold`], and
//!   crossing it triggers a **live rebalance** — the configured
//!   [`Partitioner`](piggyback_store::topology::Partitioner) recomputes
//!   the partition map, moved views are migrated shard-to-shard over the
//!   wire protocol, and the new topology is published through the same
//!   epoch swap the schedule uses, so no request ever mixes two maps.
//!   With heartbeats on, the same thread *calls* the failover controller
//!   (the private `failover` module) once per heartbeat interval, between
//!   churn messages. The controller owns the shard lifecycle — one record
//!   per shard (probe in flight, `Serving`/`FailedOver`/`CatchingUp`), the
//!   failure-free topology rejoins converge back to, and every decision
//!   about probing, failover, rejoin and anti-entropy; the manager lends
//!   it the shard I/O handle and the report it counts into.
//!
//! The control plane reads time from one [`Clock`], built here
//! (monotonic) and handed to the detector, the injector, the controller,
//! the manager and the event ring. The fault matrix assembles the same
//! runtime on a manual clock, spawns no churn thread, and calls the
//! manager's handlers itself.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use piggyback_core::incremental::{ChurnEffect, IncrementalScheduler};
use piggyback_core::schedule::Schedule;
use piggyback_core::scheduler::{Instance, Scheduler};
use piggyback_graph::{CsrGraph, NodeId};
use piggyback_obs::{set_ambient_events, Clock, EventKind, Snapshot};
use piggyback_store::fault::FaultInjector;
use piggyback_store::health::HealthTracker;
use piggyback_store::server::{ShardStats, StoreServer};
use piggyback_store::topology::{PartitionRequest, PartitionStrategy, Topology};
use piggyback_store::worker::{worker_loop, BufferPool, ShardClient, ShardRequest, Transport};
use piggyback_store::EventTuple;
use piggyback_workload::{Op, Rates};

use crate::config::{ReoptMode, RpcMode, ServeConfig};
use crate::epoch::{CompiledSets, EpochHandle, EpochReader, ServingSchedule};
use crate::failover::{reachable, FailoverController, ShardIo, DOWN_MISSES, SUSPECT_MISSES};
use crate::metrics::{OpRecorder, ServeMetrics};
use crate::ops::{ChurnMsg, ChurnReport, ReoptResult, ServeReport};

/// Bound on the shard-worker and churn channels (back-pressure depth).
const QUEUE_DEPTH: usize = 1024;

/// The long-running serving system.
///
/// Construct with [`ServeRuntime::start`], obtain any number of
/// [`ServeClient`]s, and finish with [`ServeRuntime::shutdown`] (after the
/// clients are dropped) to collect the end-of-run report.
pub struct ServeRuntime {
    handle: Arc<EpochHandle>,
    senders: Arc<Vec<Sender<ShardRequest>>>,
    transport: Transport,
    pool: Arc<BufferPool>,
    churn_tx: Sender<ChurnMsg>,
    clock: Arc<AtomicU64>,
    top_k: usize,
    shards_n: usize,
    replication: usize,
    metrics: Option<Arc<ServeMetrics>>,
    /// Shared failure detector (present when replication or heartbeats
    /// are configured).
    health: Option<Arc<HealthTracker>>,
    /// Fault injector (present when a fault plan is configured).
    faults: Option<Arc<FaultInjector>>,
    client_counter: AtomicU64,
    worker_handles: Vec<JoinHandle<()>>,
    churn_handle: Option<JoinHandle<()>>,
}

impl ServeRuntime {
    /// Boots the runtime for an optimized `(graph, rates, schedule)`
    /// triple. `reopt` is the optimizer the churn manager re-runs in the
    /// background when schedule quality degrades past
    /// [`ServeConfig::reopt_threshold`].
    ///
    /// # Panics
    ///
    /// Panics if the schedule does not match the graph or the rates do not
    /// cover every node.
    pub fn start(
        graph: CsrGraph,
        rates: Rates,
        schedule: Schedule,
        reopt: Box<dyn Scheduler>,
        config: ServeConfig,
    ) -> Self {
        let (mut runtime, manager) =
            Self::assemble(graph, rates, schedule, reopt, config, Clock::monotonic());
        runtime.churn_handle = Some(std::thread::spawn(move || {
            manager.run(config.heartbeat_interval)
        }));
        runtime
    }

    /// Everything [`ServeRuntime::start`] builds, on `clock`, with the
    /// churn manager handed back instead of moved onto its thread.
    fn assemble(
        graph: CsrGraph,
        rates: Rates,
        schedule: Schedule,
        reopt: Box<dyn Scheduler>,
        config: ServeConfig,
        clock: Clock,
    ) -> (Self, ChurnManager) {
        assert!(config.shards >= 1 && config.workers >= 1, "need threads");
        assert_eq!(graph.edge_count(), schedule.edge_count());
        assert!(
            rates.len() >= graph.node_count(),
            "rates cover {} users, graph has {}",
            rates.len(),
            graph.node_count()
        );
        // Failure domains (racks/zones): a non-trivial map makes every
        // partitioner spread replica slots so no two copies of a view
        // share a domain — the placement that survives correlated kills.
        let domains =
            (config.domains > 0).then(|| Topology::block_domains(config.shards, config.domains));
        let topology = Arc::new(
            config
                .partition
                .partitioner()
                .partition(&PartitionRequest {
                    graph: &graph,
                    rates: &rates,
                    schedule: Some(&schedule),
                    servers: config.shards,
                    seed: config.placement_seed,
                    domains: domains.as_deref(),
                })
                .with_replication(config.replication.max(1)),
        );
        let replication = topology.replication();
        let handle = Arc::new(EpochHandle::new(ServingSchedule::compile(
            &graph,
            &schedule,
            Arc::clone(&topology),
            0,
        )));
        let shards: Arc<Vec<Mutex<StoreServer>>> = Arc::new(
            (0..config.shards)
                .map(|_| Mutex::new(StoreServer::new(config.view_capacity)))
                .collect(),
        );
        let pool = Arc::new(BufferPool::new());
        let mut senders = Vec::new();
        let mut worker_handles = Vec::new();
        if config.rpc != RpcMode::Direct {
            for _ in 0..config.workers {
                let (tx, rx) = bounded::<ShardRequest>(QUEUE_DEPTH);
                let shards = Arc::clone(&shards);
                let pool = Arc::clone(&pool);
                worker_handles.push(std::thread::spawn(move || worker_loop(&shards, &pool, &rx)));
                senders.push(tx);
            }
        }
        let (churn_tx, churn_rx) = bounded::<ChurnMsg>(QUEUE_DEPTH);
        let senders = Arc::new(senders);
        let transport = if config.rpc == RpcMode::Direct {
            Transport::Direct(Arc::clone(&shards))
        } else {
            Transport::Workers(Arc::clone(&senders))
        };
        let metrics = config
            .metrics
            .then(|| Arc::new(ServeMetrics::new(clock.clone())));
        let faults = config
            .faults
            .map(|plan| Arc::new(FaultInjector::new(plan, config.shards, clock.clone())));
        // The detector exists whenever replicas or heartbeats are in play;
        // the staleness budget is how far a Suspect replica may legally
        // lag and still serve reads.
        let health = (replication > 1 || !config.heartbeat_interval.is_zero()).then(|| {
            Arc::new(HealthTracker::new(
                config.shards,
                SUSPECT_MISSES,
                DOWN_MISSES,
                config.staleness_budget,
                clock.clone(),
            ))
        });
        // A push edge to a k-replicated consumer fans out to k replica
        // slots, so the churn manager prices every push/pull decision —
        // incremental hybrid choices and background re-optimizations
        // alike — with k-amplified producer rates (the §2.1 cost model
        // with replication folded in). k = 1 returns the rates untouched,
        // which is what keeps the replication-1 plane bit-identical.
        let sched_rates = rates.push_amplified(replication);
        // The failover controller runs whenever there are heartbeats to
        // poll and a detector to feed.
        let failover = health
            .clone()
            .filter(|_| !config.heartbeat_interval.is_zero())
            .map(|health| {
                FailoverController::new(
                    Arc::clone(&handle),
                    health,
                    faults.clone(),
                    metrics.clone(),
                    config.heartbeat_interval,
                    clock.clone(),
                )
            });
        let manager = ChurnManager {
            inc: IncrementalScheduler::new(graph, sched_rates.clone(), schedule),
            rates: sched_rates,
            handle: Arc::clone(&handle),
            scheduler: Arc::from(reopt),
            threshold: config.reopt_threshold,
            reopt_mode: config.reopt_mode,
            reopt_budget_frac: config.reopt_budget_frac.clamp(0.01, 1.0),
            reopt_dirty: false,
            reopt_next_at_ns: 0,
            partition: config.partition,
            rebalance_threshold: config.rebalance_threshold,
            placement_seed: config.placement_seed,
            io: ShardIo::new(transport.clone(), Arc::clone(&pool)),
            rx: churn_rx,
            self_tx: churn_tx.clone(),
            metrics: metrics.clone(),
            reopt_in_flight: false,
            reopt_unsupported: false,
            reopt_started_ns: 0,
            replay_log: Vec::new(),
            report: ChurnReport::default(),
            cross_churned: 0.0,
            failover,
            clock,
        };
        let runtime = ServeRuntime {
            handle,
            senders,
            transport,
            pool,
            churn_tx,
            clock: Arc::new(AtomicU64::new(1)),
            top_k: config.top_k,
            shards_n: config.shards,
            replication,
            metrics,
            health,
            faults,
            client_counter: AtomicU64::new(0),
            worker_handles,
            churn_handle: None,
        };
        (runtime, manager)
    }

    /// A new front-end client with its own event-id namespace.
    pub fn client(&self) -> ServeClient {
        let id = self.client_counter.fetch_add(1, Ordering::Relaxed);
        ServeClient {
            epoch: self.handle.reader(),
            shard: ShardClient::new(self.transport.clone(), Arc::clone(&self.pool))
                .with_resilience(self.health.clone(), self.faults.clone()),
            churn_tx: self.churn_tx.clone(),
            clock: Arc::clone(&self.clock),
            top_k: self.top_k,
            obs: self.metrics.as_deref().map(ServeMetrics::recorder),
            next_event: id << 40,
            targets: Vec::new(),
            merged: Vec::new(),
        }
    }

    /// The runtime's metrics bundle, when enabled.
    pub fn metrics(&self) -> Option<&Arc<ServeMetrics>> {
        self.metrics.as_ref()
    }

    /// Scrapes every shard's operation counters **over the wire**: one
    /// [`ShardRequest::Stats`] per shard through the same transport data
    /// ops use, pipelined (all requests in flight before the first reply
    /// is awaited). Works identically under the worker pool and the
    /// caller-runs transport: the scrape goes through the single
    /// `handle_request` and every counted batch through the single
    /// `serve_batch`, which is what guarantees the differential test's
    /// counter identity.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        let mut io = ShardIo::new(self.transport.clone(), Arc::clone(&self.pool));
        // An unreachable shard (killed or partitioned) cannot answer
        // the scrape any more than another request; it reports as zeros
        // rather than hanging the snapshot.
        let pending: Vec<Option<_>> = (0..self.shards_n)
            .map(|shard| {
                reachable(self.faults.as_deref(), shard)
                    .then(|| io.request(|done| ShardRequest::Stats { shard, done }))
            })
            .collect();
        pending
            .into_iter()
            .map(|rx| match rx {
                Some(rx) => {
                    let mut reply = rx.recv().expect("worker dropped stats reply");
                    ShardStats::decode(&mut reply).expect("malformed stats reply")
                }
                None => ShardStats::default(),
            })
            .collect()
    }

    /// The shared failure detector, when the runtime carries one.
    pub fn health(&self) -> Option<&Arc<HealthTracker>> {
        self.health.as_ref()
    }

    /// The fault injector, when a fault plan is configured.
    pub fn faults(&self) -> Option<&Arc<FaultInjector>> {
        self.faults.as_ref()
    }

    /// Fault control: kills `shard` (it refuses every request from now
    /// on). Returns `false` when no fault plan is configured — a runtime
    /// without an injector has no kill switches. Detection and failover
    /// proceed through the normal heartbeat path.
    pub fn kill_shard(&self, shard: usize) -> bool {
        match &self.faults {
            Some(f) => f.kill(shard),
            None => false,
        }
    }

    /// Fault control: restarts a killed `shard` as a fresh, **empty**
    /// process — its views died with the process (`ResetViews` over the
    /// wire), then the kill is lifted so it answers connections again.
    /// The failover controller notices the recovered heartbeat, re-admits
    /// the shard to the write path, and streams its views back through
    /// budgeted anti-entropy before reads resume
    /// ([`ShardHealth::CatchingUp`](piggyback_store::health::ShardHealth)).
    /// Returns `false` when no fault plan is configured or the shard was
    /// not killed.
    pub fn restart_shard(&self, shard: usize) -> bool {
        let Some(f) = &self.faults else {
            return false;
        };
        if !f.is_killed(shard) {
            return false;
        }
        // Reset *before* revive: the replacement process must be visibly
        // empty from its first answered request.
        ShardIo::new(self.transport.clone(), Arc::clone(&self.pool))
            .request(|done| ShardRequest::ResetViews { shard, done })
            .recv()
            .expect("worker dropped reset reply");
        f.revive(shard)
    }

    /// One point-in-time capture of everything observable: the registry's
    /// instruments (when metrics are on), the per-shard wire scrape folded
    /// into `store.*` counters, and queue/pool occupancy gauges. Safe to
    /// call while serving; periodic dumps diff successive snapshots with
    /// [`Snapshot::delta_since`].
    pub fn stats_snapshot(&self) -> Snapshot {
        let mut snap = match &self.metrics {
            Some(m) => m.snapshot(),
            None => Snapshot::new(),
        };
        let mut total = ShardStats::default();
        for s in self.shard_stats() {
            total.merge(&s);
        }
        snap.set_counter("store.updates", total.updates);
        snap.set_counter("store.queries", total.queries);
        snap.set_counter("store.events_inserted", total.events_inserted);
        snap.set_counter("store.events_returned", total.events_returned);
        snap.set_counter("store.batches", total.batches);
        snap.set_counter("store.batch_ops", total.batch_ops);
        snap.set_counter("store.views_extracted", total.views_extracted);
        snap.set_counter("store.views_installed", total.views_installed);
        snap.set_gauge("store.avg_batch_ops", total.avg_batch_ops());
        let depth: usize = self.senders.iter().map(Sender::len).sum();
        snap.set_gauge("store.queue_depth", depth as f64);
        let (bufs, vecs) = self.pool.pooled_counts();
        snap.set_gauge("store.pool_bufs", bufs as f64);
        snap.set_gauge("store.pool_vecs", vecs as f64);
        snap
    }

    /// Epoch of the currently published schedule snapshot.
    pub fn epoch(&self) -> u64 {
        self.handle.epoch()
    }

    /// The currently published schedule snapshot (diagnostics/tests).
    pub fn snapshot(&self) -> Arc<ServingSchedule> {
        self.handle.load()
    }

    /// Stops the churn manager (waiting for any in-flight re-optimization
    /// to land), validates bounded staleness on the final dynamic graph,
    /// and tears the worker pool down.
    ///
    /// Clients should be dropped first; a client that outlives shutdown
    /// keeps its shard channels alive (its operations still complete) but
    /// churn operations are rejected.
    pub fn shutdown(mut self) -> ServeReport {
        let (tx, rx) = bounded(1);
        self.churn_tx
            .send(ChurnMsg::Shutdown { done: tx })
            .expect("churn manager gone before shutdown");
        let churn = rx.recv().expect("churn manager dropped its report");
        // Final capture while the workers can still answer the wire scrape.
        let metrics = self.metrics.is_some().then(|| self.stats_snapshot());
        if let Some(h) = self.churn_handle.take() {
            h.join().expect("churn manager panicked");
        }
        drop(self.churn_tx);
        // Workers exit once every request sender is gone. The runtime's own
        // transport holds one clone of the sender Arc (the churn manager's
        // died with its thread above) — release it, or the unwrap below
        // could never succeed and a panicked worker would go unjoined.
        self.transport = Transport::Workers(Arc::new(Vec::new()));
        // If a client still holds the sender Arc, leave the workers
        // serving; they die with it.
        if let Ok(senders) = Arc::try_unwrap(self.senders) {
            drop(senders);
            for h in self.worker_handles.drain(..) {
                h.join().expect("shard worker panicked");
            }
        }
        ServeReport {
            churn,
            final_epoch: self.handle.epoch(),
            metrics,
            replication: self.replication,
            max_replica_lag_ms: self
                .health
                .as_ref()
                .map_or(0.0, |h| h.max_readable_lag().as_secs_f64() * 1e3),
        }
    }
}

/// A front-end handle issuing operations against the runtime.
///
/// Every operation revalidates its cached schedule snapshot exactly once
/// ([`EpochReader::current`]) and uses it end-to-end, so a concurrent
/// epoch swap can never split one request across two schedules; an idle
/// client keeps the snapshot it last used alive until its next operation.
/// The client owns every per-operation buffer (targets, merge output, the
/// [`ShardClient`]'s grouping/reply scratch), so a warmed-up client sends
/// shares from recycled buffers and assembles streams with one allocation,
/// the returned snapshot.
pub struct ServeClient {
    epoch: EpochReader,
    shard: ShardClient,
    churn_tx: Sender<ChurnMsg>,
    clock: Arc<AtomicU64>,
    top_k: usize,
    /// Per-client instrument handles (`None` when metrics are off; the
    /// metrics-off hot path then pays no `Instant::now` either).
    obs: Option<OpRecorder>,
    next_event: u64,
    /// Reused target-view buffer (push/pull set plus self).
    targets: Vec<NodeId>,
    /// Reused merge output buffer.
    merged: Vec<EventTuple>,
}

impl ServeClient {
    /// Shares a new event from `u`: one batched update per touched server
    /// (Algorithm 3 lines 1–7). Returns the number of store messages sent.
    /// Users outside the topology (no rates, no home shard) are rejected
    /// with zero messages, mirroring the churn path's rejection.
    pub fn share(&mut self, u: NodeId) -> u64 {
        if self.obs.is_none() {
            return self.share_inner(u);
        }
        let t0 = Instant::now();
        let messages = self.share_inner(u);
        if let Some(rec) = &self.obs {
            rec.share(t0.elapsed(), messages);
        }
        messages
    }

    fn share_inner(&mut self, u: NodeId) -> u64 {
        let snap = self.epoch.current();
        if u as usize >= snap.topology().users() {
            return 0;
        }
        self.next_event += 1;
        let ts = self.clock.fetch_add(1, Ordering::Relaxed);
        let event = EventTuple::new(u, self.next_event, ts);
        snap.collect_push_targets(u, &mut self.targets);
        self.shard
            .update(snap.topology(), &self.targets, event.to_wire())
    }

    /// Assembles `u`'s event stream (Algorithm 3 lines 8–16): one batched
    /// query per touched server, k-way merged. Returns `(events, messages)`.
    pub fn query(&mut self, u: NodeId) -> (Arc<[EventTuple]>, u64) {
        if self.obs.is_none() {
            return self.query_inner(u);
        }
        let t0 = Instant::now();
        let out = self.query_inner(u);
        if let Some(rec) = &self.obs {
            rec.query(t0.elapsed(), out.1);
        }
        out
    }

    fn query_inner(&mut self, u: NodeId) -> (Arc<[EventTuple]>, u64) {
        let snap = self.epoch.current();
        if u as usize >= snap.topology().users() {
            return (Arc::from(&[][..]), 0);
        }
        snap.collect_pull_sources(u, &mut self.targets);
        let messages =
            self.shard
                .query(snap.topology(), &self.targets, self.top_k, &mut self.merged);
        (Arc::from(&self.merged[..]), messages)
    }

    /// `v` starts following `u`. Blocks until the churn manager has
    /// applied the edge and published the new epoch; `false` if the edge
    /// already existed (or the runtime is shutting down).
    pub fn follow(&self, u: NodeId, v: NodeId) -> bool {
        self.churn(true, u, v)
    }

    /// `v` stops following `u`. `false` if the edge did not exist.
    pub fn unfollow(&self, u: NodeId, v: NodeId) -> bool {
        self.churn(false, u, v)
    }

    fn churn(&self, add: bool, u: NodeId, v: NodeId) -> bool {
        if self.obs.is_none() {
            return self.churn_inner(add, u, v);
        }
        let t0 = Instant::now();
        let applied = self.churn_inner(add, u, v);
        if let Some(rec) = &self.obs {
            // Latency covers the full round trip (queue + apply + publish);
            // the follow/unfollow counters count *applied* mutations only,
            // matching the churn report.
            if applied {
                rec.churn(t0.elapsed(), add);
            }
        }
        applied
    }

    fn churn_inner(&self, add: bool, u: NodeId, v: NodeId) -> bool {
        let (done, ack) = bounded(1);
        let msg = if add {
            ChurnMsg::Follow { u, v, done }
        } else {
            ChurnMsg::Unfollow { u, v, done }
        };
        if self.churn_tx.send(msg).is_err() {
            return false;
        }
        ack.recv().unwrap_or(false)
    }

    /// Executes one trace operation, returning the store messages it sent.
    pub fn apply_op(&mut self, op: Op) -> u64 {
        match op {
            Op::Share(u) => self.share(u),
            Op::Query(u) => self.query(u).1,
            Op::Follow(u, v) => {
                self.follow(u, v);
                0
            }
            Op::Unfollow(u, v) => {
                self.unfollow(u, v);
                0
            }
        }
    }
}

/// The single-writer churn manager (one thread; owns the incremental
/// scheduler, publishes every epoch).
struct ChurnManager {
    inc: IncrementalScheduler,
    rates: Rates,
    handle: Arc<EpochHandle>,
    scheduler: Arc<dyn Scheduler>,
    threshold: f64,
    /// Threshold-triggered or continuous re-optimization.
    reopt_mode: ReoptMode,
    /// Continuous mode's amortized wall-time budget fraction.
    reopt_budget_frac: f64,
    /// Whether churn has mutated the graph since the last re-optimization
    /// was fired — continuous mode has nothing to gain from re-optimizing
    /// an instance identical to the one the optimizer just saw.
    reopt_dirty: bool,
    /// Continuous mode's budget gate: the earliest clock reading at which
    /// the next re-optimization may fire (pushed out after each run so
    /// the optimizer occupies at most `reopt_budget_frac` of wall time).
    reopt_next_at_ns: u64,
    /// Partitioner the live rebalance re-runs.
    partition: PartitionStrategy,
    /// Rebalance once churn's cross-server cost exceeds this fraction of
    /// the optimized base cost (infinite = disabled).
    rebalance_threshold: f64,
    placement_seed: u64,
    /// The shards, for view migration (lent to the failover controller
    /// each tick).
    io: ShardIo,
    rx: Receiver<ChurnMsg>,
    self_tx: Sender<ChurnMsg>,
    /// Shared instrument bundle (`None` when metrics are off).
    metrics: Option<Arc<ServeMetrics>>,
    reopt_in_flight: bool,
    /// Set once the optimizer declines the instance (`supports() == false`)
    /// so the freeze-and-check is not repeated on every later churn op.
    reopt_unsupported: bool,
    /// Clock reading when the in-flight re-optimization was fired (for
    /// the [`EventKind::ReoptEnd`] wall time).
    reopt_started_ns: u64,
    /// Mutations applied while a re-optimization is in flight; replayed
    /// onto the fresh schedule before it is swapped in.
    replay_log: Vec<(bool, NodeId, NodeId)>,
    /// The end-of-run report, counted in place as things happen
    /// (`staleness_violation` holds the first *live* violation until
    /// [`ChurnManager::final_report`] backs it with the post-run sweep).
    report: ChurnReport,
    /// Cross-server message rate added by churn since the last rebalance.
    cross_churned: f64,
    /// The shard lifecycle (`None` = heartbeats off or no detector).
    failover: Option<FailoverController>,
    /// The only time source this thread reads.
    clock: Clock,
}

/// Churn overrides above this count are compacted into a fresh compiled
/// base (one O(n + m) recompile) instead of growing — it bounds both the
/// per-publish override-map clone and the snapshot's memory overhead on
/// long runs where re-optimization never fires.
const OVERRIDE_COMPACT_LIMIT: usize = 1024;

impl ChurnManager {
    fn run(mut self, tick: Duration) {
        if self.failover.is_none() {
            while let Ok(msg) = self.rx.recv() {
                if self.handle_msg(msg) {
                    return;
                }
            }
            return;
        }
        // Failure-detection mode: the churn thread wakes every heartbeat
        // interval even while churn is idle. Under a busy churn stream the
        // deadline check after each message keeps the cadence honest.
        let mut next_tick_ns = self.clock.after(tick);
        loop {
            let wait = Duration::from_nanos(next_tick_ns.saturating_sub(self.clock.now_ns()));
            match self.rx.recv_timeout(wait) {
                Ok(msg) => {
                    if self.handle_msg(msg) {
                        return;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }
            if self.clock.now_ns() >= next_tick_ns {
                self.tick();
                next_tick_ns = self.clock.after(tick);
            }
        }
    }

    /// One heartbeat round of the shard lifecycle.
    fn tick(&mut self) {
        if let Some(failover) = &mut self.failover {
            failover.tick(&mut self.io, &mut self.report);
        }
    }

    /// Dispatches one message; `true` means shutdown completed.
    fn handle_msg(&mut self, msg: ChurnMsg) -> bool {
        match msg {
            ChurnMsg::Follow { u, v, done } => {
                let _ = done.send(self.apply(true, u, v));
                false
            }
            ChurnMsg::Unfollow { u, v, done } => {
                let _ = done.send(self.apply(false, u, v));
                false
            }
            ChurnMsg::ReoptDone(result) => {
                self.install_reopt(*result);
                false
            }
            ChurnMsg::Shutdown { done } => {
                // Let an in-flight re-optimization land so its thread
                // is not abandoned mid-swap; further churn is rejected.
                while self.reopt_in_flight {
                    match self.rx.recv() {
                        Ok(ChurnMsg::ReoptDone(result)) => {
                            self.install_reopt(*result);
                        }
                        Ok(ChurnMsg::Follow { done, .. }) | Ok(ChurnMsg::Unfollow { done, .. }) => {
                            let _ = done.send(false);
                        }
                        Ok(ChurnMsg::Shutdown { .. }) | Err(_) => break,
                    }
                }
                let _ = done.send(self.final_report());
                true
            }
        }
    }

    /// Applies one mutation, publishes the next epoch, and checks the
    /// re-optimization trigger. Returns whether the edge actually changed.
    fn apply(&mut self, add: bool, u: NodeId, v: NodeId) -> bool {
        let n = self.rates.len() as u64;
        if u as u64 >= n || v as u64 >= n {
            // Users outside the rate model cannot be priced; reject.
            self.report.churn_rejected += 1;
            return false;
        }
        let effect = if add {
            self.inc.add_edge_detailed(u, v)
        } else {
            self.inc.remove_edge_detailed(u, v)
        };
        if !effect.applied {
            self.report.churn_rejected += 1;
            return false;
        }
        if add {
            self.report.follows_applied += 1;
        } else {
            self.report.unfollows_applied += 1;
        }
        if self.reopt_in_flight {
            self.replay_log.push((add, u, v));
        }
        self.reopt_dirty = true;
        // Live bounded-staleness check: every edge this mutation reserved
        // for direct serving must be in the serving sets *now* — the same
        // invariant the post-run validation sweeps, caught at the moment it
        // would break. `serves_edge_directly` is an allocation-free probe.
        for &(x, y) in &effect.reserved_direct {
            if !self.inc.serves_edge_directly(x, y) {
                self.report.live_staleness_violations += 1;
                if let Some(m) = &self.metrics {
                    m.staleness_violations.inc();
                }
                if self.report.staleness_violation.is_none() {
                    self.report.staleness_violation = Some(format!(
                        "live: edge {x} -> {y} reserved direct but absent from serving sets \
                         after {} mutation ({u} -> {v})",
                        if add { "follow" } else { "unfollow" },
                    ));
                }
            }
        }
        // Every edge this mutation switched to direct serving — the added
        // follow itself, or the piggybacked edges an unfollow orphaned —
        // adds its hybrid cost to the wire when its endpoints live on
        // different servers. That is the degradation a rebalance can win
        // back; skip the accounting entirely when rebalancing can never
        // fire (disabled, or the stateless hash strategy).
        if self.rebalance_threshold.is_finite()
            && self.partition != PartitionStrategy::Hash
            && !effect.reserved_direct.is_empty()
        {
            let snap = self.handle.load();
            let t = snap.topology();
            for &(x, y) in &effect.reserved_direct {
                if t.server_of(x) != t.server_of(y) {
                    self.cross_churned += self.rates.rp(x).min(self.rates.rc(y));
                }
            }
        }
        if let Some(m) = &self.metrics {
            m.cost_delta.set(self.inc.overlay_cost_delta());
            m.cross_cost.set(self.cross_churned);
        }
        self.publish(&effect);
        self.maybe_rebalance();
        self.maybe_reopt();
        true
    }

    /// Fires a live rebalance when churn has pushed enough message rate
    /// across servers: re-partition with the configured strategy, migrate
    /// the moved views shard-to-shard, publish the new topology.
    fn maybe_rebalance(&mut self) {
        // Hash placement is a pure function of (users, servers, seed):
        // re-partitioning reproduces the current map, so a rebalance could
        // never move anything — don't bother (apply() skips the
        // accumulator for the same reason).
        if !self.rebalance_threshold.is_finite() || self.partition == PartitionStrategy::Hash {
            return;
        }
        let base = self.inc.base_cost();
        if base <= 0.0 || self.cross_churned <= self.rebalance_threshold * base {
            return;
        }
        self.rebalance();
    }

    /// Recomputes the topology and re-homes every moved view.
    ///
    /// The migration speaks the shard wire protocol (extract at the old
    /// home, merge-install at the new one), pipelined — every extract is
    /// in flight before the first reply is awaited, and installs stream
    /// out as payloads arrive — and completes *before* the new topology
    /// is published, so a query after the swap finds the view already at
    /// its new home. In-flight requests keep routing through the snapshot
    /// they loaded — the epoch swap guarantees no request mixes the two
    /// maps.
    ///
    /// Consistency is the store's memcached model (§4.3: views are
    /// caches; re-placement implies cache misses): an update that races
    /// the migration — routed via an old snapshot after its view was
    /// extracted or after the swap — can land at the old home and stay
    /// invisible to later queries, exactly as a resized memcached pool
    /// drops moved keys. Bounded staleness of the *schedule* is
    /// unaffected (validated post-run); quiescent-traffic migration is
    /// lossless (`tests/rebalance.rs`).
    ///
    /// Deliberately synchronous on the churn thread (unlike the
    /// backgrounded re-optimization): the single writer is what makes
    /// migrate-then-swap race-free, at the price of stalling churn — not
    /// serving — for the repartition + migration (seconds at 100k users;
    /// `BENCH_placement.json` wall times). Size `rebalance_threshold` so
    /// this stays rare.
    fn rebalance(&mut self) {
        let started_ns = self.clock.now_ns();
        let snap = self.handle.load();
        let old = Arc::clone(snap.topology());
        // Re-partition the *current* graph under the schedule actually
        // serving it (base assignments + direct overlay edges), so the new
        // map reflects the traffic churn created — not the boot snapshot.
        let (frozen, serving) = self.inc.freeze_with_schedule();
        let new = self
            .partition
            .partitioner()
            .partition(&PartitionRequest {
                graph: &frozen,
                rates: &self.rates,
                schedule: Some(&serving),
                servers: old.servers(),
                seed: self.placement_seed,
                domains: (!old.domains().is_empty()).then(|| old.domains()),
            })
            .with_replication(old.replication());
        let moved = old.moved_users(&new);
        if moved.is_empty() {
            // The partitioner reproduced the current map (always true for
            // deterministic hash with a fixed seed): nothing to migrate,
            // and publishing an identical topology would be a wasted epoch
            // swap. Reset the trigger and keep the epoch.
            self.cross_churned = 0.0;
            return;
        }
        let jobs: Vec<(NodeId, usize)> = moved.iter().map(|&u| (u, old.server_of(u))).collect();
        self.io
            .copy_views(&jobs, true, |i, to| to.push(new.server_of(jobs[i].0)));
        self.report.users_migrated += moved.len() as u64;
        self.report.rebalances += 1;
        self.cross_churned = 0.0;
        let new = Arc::new(new);
        if let Some(failover) = &mut self.failover {
            failover.set_desired(Arc::clone(&new));
        }
        self.handle.swap(snap.with_topology(new));
        if let Some(m) = &self.metrics {
            m.events().record(EventKind::Rebalance {
                moved: moved.len(),
                wall_ms: self.clock.since(started_ns).as_secs_f64() * 1e3,
            });
        }
    }

    /// Publishes a new epoch overriding exactly the users the mutation
    /// touched. Single writer: load-modify-swap is race-free. Once the
    /// override map would exceed [`OVERRIDE_COMPACT_LIMIT`], the sets are
    /// compacted into a fresh base instead, keeping per-publish cost
    /// bounded on runs where re-optimization never fires.
    fn publish(&self, effect: &ChurnEffect) {
        let snap = self.handle.load();
        if snap.override_count() >= OVERRIDE_COMPACT_LIMIT {
            self.publish_full_base();
            return;
        }
        let push_updates: Vec<(NodeId, Vec<NodeId>)> = effect
            .push_changed
            .iter()
            .map(|&x| (x, self.inc.push_targets(x)))
            .collect();
        let pull_updates: Vec<(NodeId, Vec<NodeId>)> = effect
            .pull_changed
            .iter()
            .map(|&x| (x, self.inc.pull_sources(x)))
            .collect();
        self.handle
            .swap(snap.with_updates(push_updates, pull_updates));
        if let Some(m) = &self.metrics {
            let now = self.handle.load();
            m.events().record(EventKind::EpochSwap {
                epoch: now.epoch(),
                overrides: now.override_count(),
            });
        }
    }

    /// Publishes a freshly compiled base (no overrides) reflecting the
    /// incremental scheduler's current serving sets; O(n + m). The
    /// topology is carried over unchanged.
    fn publish_full_base(&self) {
        let n = self.rates.len();
        let mut sets = CompiledSets {
            push: Vec::with_capacity(n),
            pull: Vec::with_capacity(n),
        };
        for x in 0..n as NodeId {
            sets.push.push(self.inc.push_targets(x));
            sets.pull.push(self.inc.pull_sources(x));
        }
        let snap = self.handle.load();
        let epoch = snap.epoch() + 1;
        self.handle.swap(ServingSchedule::from_sets(
            sets,
            Arc::clone(snap.topology()),
            epoch,
        ));
        if let Some(m) = &self.metrics {
            m.events().record(EventKind::EpochSwap {
                epoch,
                overrides: 0,
            });
        }
    }

    /// Fires a background re-optimization when none is already running and
    /// the mode's trigger is met: threshold mode waits for degradation to
    /// cross the configured fraction of the base cost; continuous mode
    /// fires whenever the graph is dirty and the amortized budget allows.
    fn maybe_reopt(&mut self) {
        if self.reopt_in_flight || self.reopt_unsupported {
            return;
        }
        match self.reopt_mode {
            ReoptMode::Threshold => {
                if !self.threshold.is_finite() {
                    return;
                }
                let base = self.inc.base_cost();
                if base <= 0.0 || self.inc.overlay_cost_delta() <= self.threshold * base {
                    return;
                }
            }
            ReoptMode::Continuous => {
                if !self.reopt_dirty || self.clock.now_ns() < self.reopt_next_at_ns {
                    return;
                }
            }
        }
        let frozen = self.inc.freeze_graph();
        let rates = self.rates.clone();
        if !self.scheduler.supports(&Instance::new(&frozen, &rates)) {
            // An optimizer that declines this instance will decline every
            // grown version of it too; never pay the freeze again.
            self.reopt_unsupported = true;
            return;
        }
        let scheduler = Arc::clone(&self.scheduler);
        let tx = self.self_tx.clone();
        self.reopt_in_flight = true;
        // The frozen snapshot captures everything applied so far; churn
        // arriving while the optimizer runs re-dirties the flag.
        self.reopt_dirty = false;
        self.reopt_started_ns = self.clock.now_ns();
        let events = self.metrics.as_ref().map(|m| {
            m.events().record(EventKind::ReoptStart {
                cost_before: self.inc.cost(),
                trigger_delta: self.inc.overlay_cost_delta(),
            });
            m.events().clone()
        });
        std::thread::spawn(move || {
            // Install the event ring as this thread's ambient log so the
            // optimizer's fan-out pool records its batch dispatches into
            // the runtime's trace.
            let _guard = events.as_ref().map(set_ambient_events);
            let out = scheduler.schedule(&Instance::new(&frozen, &rates));
            // The manager may have shut down meanwhile; that drop is fine.
            let _ = tx.send(ChurnMsg::ReoptDone(Box::new(ReoptResult {
                graph: frozen,
                schedule: out.schedule,
                stats: out.stats,
            })));
        });
    }

    /// Swaps a finished re-optimization in: replay the churn that arrived
    /// while it ran, recompile the serving sets, publish a fresh base.
    fn install_reopt(&mut self, result: ReoptResult) {
        let ReoptResult {
            graph,
            schedule,
            stats,
        } = result;
        let mut fresh = IncrementalScheduler::new(graph, self.rates.clone(), schedule);
        for (add, u, v) in self.replay_log.drain(..) {
            if add {
                fresh.add_edge(u, v);
            } else {
                fresh.remove_edge(u, v);
            }
        }
        self.inc = fresh;
        self.reopt_in_flight = false;
        self.report.reopts += 1;
        let elapsed = self.clock.since(self.reopt_started_ns);
        // Amortized budget: a run of W may occupy at most `frac` of wall
        // time, so the next fires no sooner than W * (1 - frac) / frac
        // from now (frac = 1 re-fires immediately).
        let cooloff = elapsed.mul_f64((1.0 - self.reopt_budget_frac) / self.reopt_budget_frac);
        self.reopt_next_at_ns = self.clock.after(cooloff);
        if let Some(m) = &self.metrics {
            m.reopt_stream_passes.add(stats.iterations as u64);
            m.reopt_budget_spent_ms.add(elapsed.as_millis() as u64);
            m.reopt_hubs_admitted.add(stats.hubs_applied as u64);
            m.reopt_hubs_evicted.add(stats.hubs_evicted as u64);
            m.events().record(EventKind::ReoptEnd {
                cost_after: self.inc.cost(),
                wall_ms: elapsed.as_secs_f64() * 1e3,
                installed: true,
            });
        }
        // The fresh schedule re-piggybacks the direct-served churn edges,
        // so the cross-server degradation the accumulator priced is gone;
        // a rebalance justified by it would migrate for nothing.
        self.cross_churned = 0.0;
        self.publish_full_base();
    }

    fn final_report(&self) -> ChurnReport {
        let mut report = self.report.clone();
        report.cross_cost_churned = self.cross_churned;
        report.base_cost = self.inc.base_cost();
        report.final_cost = self.inc.cost();
        // The live per-mutation check fires first; the post-run sweep over
        // the whole dynamic graph backs it up.
        if report.staleness_violation.is_none() {
            report.staleness_violation = self.inc.validate().err().map(|e| e.to_string());
        }
        report
    }
}

#[cfg(test)]
mod fault_matrix;

#[cfg(test)]
mod tests {
    use super::*;
    use piggyback_core::parallelnosy::ParallelNosy;
    use piggyback_core::scheduler::Hybrid;
    use piggyback_graph::GraphBuilder;

    fn fig2_world() -> (CsrGraph, Rates, Schedule) {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(0, 2);
        let g = b.build();
        let r = Rates::from_vecs(vec![1.0, 5.0, 5.0], vec![5.0, 5.0, 1.8]);
        let s = ParallelNosy::default()
            .schedule(&Instance::new(&g, &r))
            .schedule;
        (g, r, s)
    }

    fn boot(cfg: ServeConfig) -> ServeRuntime {
        let (g, r, s) = fig2_world();
        ServeRuntime::start(g, r, s, Box::new(Hybrid), cfg)
    }

    #[test]
    fn piggybacked_event_flows_online() {
        let rt = boot(ServeConfig {
            shards: 4,
            workers: 2,
            ..Default::default()
        });
        let mut c = rt.client();
        // Covered edge 0 → 2 through hub 1: Art's share reaches Billie.
        c.share(0);
        let (events, msgs) = c.query(2);
        assert!(msgs >= 1);
        assert!(
            events.iter().any(|e| e.user == 0),
            "piggybacked event missing: {events:?}"
        );
        drop(c);
        let report = rt.shutdown();
        assert!(report.churn.zero_violations());
        assert_eq!(report.final_epoch, 0, "no churn, no swaps");
    }

    #[test]
    fn follow_takes_effect_for_future_shares() {
        let rt = boot(ServeConfig {
            shards: 2,
            workers: 1,
            ..Default::default()
        });
        let mut c = rt.client();
        // No edge 2 → 0 yet: Billie's shares do not reach Art.
        c.share(2);
        let (events, _) = c.query(0);
        assert!(!events.iter().any(|e| e.user == 2));
        assert!(c.follow(2, 0), "new edge must apply");
        assert!(!c.follow(2, 0), "duplicate follow rejected");
        assert!(rt.epoch() >= 1, "churn publishes a new epoch");
        c.share(2);
        let (events, _) = c.query(0);
        assert!(
            events.iter().any(|e| e.user == 2),
            "followed producer's event missing: {events:?}"
        );
        // Unfollow: later shares stop flowing (old events may remain).
        assert!(c.unfollow(2, 0));
        let before = c.query(0).0;
        c.share(2);
        let (after, _) = c.query(0);
        assert_eq!(before, after, "no new event may arrive after unfollow");
        drop(c);
        let report = rt.shutdown();
        assert_eq!(report.churn.follows_applied, 1);
        assert_eq!(report.churn.unfollows_applied, 1);
        assert_eq!(report.churn.churn_rejected, 1);
        assert!(report.churn.zero_violations());
    }

    /// The contract [`follow_takes_effect_for_future_shares`] checks for
    /// one client, across two: once `a`'s follow has been acknowledged and
    /// `b` has been told so, `b`'s next requests serve under it — although
    /// `b` has a snapshot cached from before.
    #[test]
    fn acknowledged_follow_is_visible_to_other_clients() {
        for rpc in [RpcMode::Batched, RpcMode::Direct] {
            let rt = boot(ServeConfig {
                shards: 2,
                workers: 1,
                rpc,
                ..Default::default()
            });
            let a = rt.client();
            let mut b = rt.client();
            let (warm_tx, warm_rx) = bounded::<()>(0);
            let (told_tx, told_rx) = bounded::<()>(0);
            std::thread::scope(|s| {
                s.spawn(move || {
                    // No edge 2 → 0 yet; serving now caches epoch 0 in `b`.
                    b.share(2);
                    assert!(!b.query(0).0.iter().any(|e| e.user == 2));
                    warm_tx.send(()).unwrap();
                    told_rx.recv().unwrap();
                    // Whether the new edge is pushed (the share must reach
                    // Art's view) or pulled (the query must read Billie's),
                    // `b` only gets this right under the new epoch.
                    b.share(2);
                    let (events, _) = b.query(0);
                    assert!(
                        events.iter().any(|e| e.user == 2),
                        "{rpc:?}: acknowledged follow not visible to b: {events:?}"
                    );
                });
                warm_rx.recv().unwrap();
                assert!(a.follow(2, 0), "new edge must apply");
                told_tx.send(()).unwrap();
            });
            drop(a);
            assert!(rt.shutdown().churn.zero_violations());
        }
    }

    #[test]
    fn sustained_churn_compacts_overrides() {
        use piggyback_graph::gen::{copying, CopyingConfig};
        let g = copying(CopyingConfig {
            nodes: 100,
            follows_per_node: 4,
            copy_prob: 0.6,
            seed: 1,
        });
        let r = Rates::log_degree(&g, 5.0);
        let s = ParallelNosy::default()
            .schedule(&Instance::new(&g, &r))
            .schedule;
        let rt = ServeRuntime::start(
            g.clone(),
            r,
            s,
            Box::new(Hybrid),
            ServeConfig {
                shards: 2,
                workers: 1,
                // Re-optimization never fires: compaction alone must bound
                // the override map.
                reopt_threshold: f64::INFINITY,
                ..Default::default()
            },
        );
        let mut c = rt.client();
        // 50 × 40 distinct pairs; only pre-existing graph edges reject, so
        // well over OVERRIDE_COMPACT_LIMIT mutations apply.
        let mut applied = 0u64;
        for u in 0..50u32 {
            for v in 50..90u32 {
                if c.follow(u, v) {
                    applied += 1;
                }
            }
        }
        assert!(
            applied > OVERRIDE_COMPACT_LIMIT as u64,
            "storm too small: {applied}"
        );
        assert!(
            rt.snapshot().override_count() <= OVERRIDE_COMPACT_LIMIT,
            "override map must stay bounded: {}",
            rt.snapshot().override_count()
        );
        // Serving still works after compactions.
        c.share(0);
        let _ = c.query(1);
        drop(c);
        let report = rt.shutdown();
        assert!(report.churn.zero_violations());
        assert_eq!(report.churn.reopts, 0);
    }

    #[test]
    fn out_of_model_users_are_rejected() {
        let rt = boot(ServeConfig::default());
        let mut c = rt.client();
        assert!(!c.follow(0, 99), "user 99 has no rates");
        // Share/query for users outside the topology are no-ops, not
        // panics (the flat user → shard map has no home for them).
        assert_eq!(c.share(99), 0);
        let (events, msgs) = c.query(99);
        assert!(events.is_empty());
        assert_eq!(msgs, 0);
        drop(c);
        let report = rt.shutdown();
        assert_eq!(report.churn.churn_rejected, 1);
    }

    #[test]
    fn metrics_capture_spans_serve_and_store() {
        let rt = boot(ServeConfig {
            shards: 2,
            workers: 1,
            ..Default::default()
        });
        let mut c = rt.client();
        c.share(0);
        let _ = c.query(2);
        assert!(c.follow(2, 0));
        let snap = rt.stats_snapshot();
        assert_eq!(snap.counter("serve.ops.shares"), 1);
        assert_eq!(snap.counter("serve.ops.queries"), 1);
        assert_eq!(snap.counter("serve.ops.follows"), 1);
        assert_eq!(snap.histogram("serve.latency.share").unwrap().count(), 1);
        assert!(snap.counter("store.updates") >= 1, "share hit the store");
        assert!(snap.counter("store.queries") >= 1, "query hit the store");
        assert!(snap.counter("store.events_inserted") >= 1);
        // The follow published an epoch; the event ring saw the swap.
        let events = rt.metrics().unwrap().events().recent(16);
        assert!(
            events
                .iter()
                .any(|e| matches!(e.kind, EventKind::EpochSwap { epoch: 1, .. })),
            "missing epoch-swap event: {events:?}"
        );
        drop(c);
        let report = rt.shutdown();
        let fin = report.metrics.expect("metrics are on by default");
        assert_eq!(fin.counter("serve.ops.shares"), 1);
        assert_eq!(fin.counter("serve.ops.follows"), 1);
        assert_eq!(report.churn.live_staleness_violations, 0);
        assert_eq!(fin.counter("churn.staleness_violations"), 0);
    }

    #[test]
    fn metrics_off_serves_and_reports_none() {
        let rt = boot(ServeConfig {
            shards: 2,
            workers: 1,
            metrics: false,
            ..Default::default()
        });
        assert!(rt.metrics().is_none());
        let mut c = rt.client();
        c.share(0);
        let (events, _) = c.query(2);
        assert!(events.iter().any(|e| e.user == 0));
        // Even with metrics off the wire scrape works (the shard counters
        // are part of the store, not the registry).
        let snap = rt.stats_snapshot();
        assert!(snap.counter("store.updates") >= 1);
        assert!(snap.get("serve.ops.shares").is_none(), "no registry");
        drop(c);
        let report = rt.shutdown();
        assert!(report.metrics.is_none());
        assert!(report.churn.zero_violations());
    }
}
