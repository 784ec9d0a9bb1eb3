//! The online serving runtime: the shards, serving clients, and the
//! control plane they drive.
//!
//! * **The shards** are [`StoreServer`]s behind one mutex each. No thread
//!   owns them: a client runs each operation's coalesced batches inline
//!   on its own thread ([`Transport::Direct`], one batch per touched
//!   shard, in the wire format), and the control plane serves its one-off
//!   requests the same way.
//! * **Clients** ([`ServeClient`]) execute `Share`/`Query` against the
//!   current [`ServingSchedule`] snapshot (one [`EpochReader::current`]
//!   per operation) and run `Follow`/`Unfollow` themselves, on their own
//!   thread, through the control plane.
//! * **The control plane** is one `ChurnManager` behind one lock, shared
//!   by the runtime and every client. Its entry points (`churn`, `land`,
//!   `tick`, `final_report`) lend its shard I/O handle to four records,
//!   each written only by its own handlers:
//!   - `ChurnApplier` ([`ops`](crate::ops)): applies each mutation (§3.3)
//!     to the [`IncrementalScheduler`], checks bounded staleness live, and
//!     publishes an epoch rewriting only the users the mutation touched;
//!   - `ReoptInstaller` (`ops`): past [`ServeConfig::reopt_threshold`] (or
//!     continuously, under a budget) it *returns* a `ReoptJob`, which the
//!     follow that fired it spawns on a thread of its own. The job runs
//!     the optimizer, the fresh scheduler and its compiled sets unlocked,
//!     then lands its result under the lock, and the install replays the
//!     churn logged meanwhile;
//!   - `Rebalancer` (the private `failover` module): past
//!     [`ServeConfig::rebalance_threshold`] it re-partitions and moves
//!     views by the rule failover uses;
//!   - `FailoverController` (same module): the shard lifecycle, ticked
//!     once per heartbeat by a ticker thread. With heartbeats off, and no
//!     job out, the runtime runs no thread of its own.
//!
//!   Every epoch goes out through one publish, so no request ever mixes
//!   two schedules or two maps, and every control-plane event is recorded
//!   once, where the [`ChurnReport`] folds it. The control plane reads
//!   time from one [`Clock`]; the fault matrix assembles the same runtime
//!   on a manual clock, spawns no thread, calls the same entry points a
//!   client does, and runs each `ReoptJob` inline.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam::channel::{bounded, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use piggyback_core::incremental::IncrementalScheduler;
use piggyback_core::schedule::Schedule;
use piggyback_core::scheduler::Scheduler;
use piggyback_graph::{CsrGraph, NodeId};
use piggyback_obs::{Clock, Snapshot};
use piggyback_store::fault::FaultInjector;
use piggyback_store::health::HealthTracker;
use piggyback_store::server::{ShardStats, StoreServer};
use piggyback_store::topology::{PartitionRequest, Topology};
use piggyback_store::worker::{BufferPool, ShardClient, ShardRequest, Transport};
use piggyback_store::EventTuple;
use piggyback_workload::{Op, Rates};

use crate::config::ServeConfig;
use crate::epoch::{EpochHandle, EpochReader, ServingSchedule};
use crate::failover::{
    reachable, FailoverController, Publisher, Rebalancer, ShardIo, DOWN_MISSES, SUSPECT_MISSES,
};
use crate::metrics::{OpRecorder, ServeMetrics};
use crate::ops::{ChurnApplier, ChurnReport, ReoptInstaller, ReoptJob, ReoptResult, ServeReport};

/// The long-running serving system.
///
/// Construct with [`ServeRuntime::start`], obtain any number of
/// [`ServeClient`]s, and finish with [`ServeRuntime::shutdown`] to collect
/// the end-of-run report.
pub struct ServeRuntime {
    handle: Arc<EpochHandle>,
    shards: Arc<Vec<Mutex<StoreServer>>>,
    /// Handed to every [`ShardClient`], which takes one and, running its
    /// batches inline, never draws from it.
    pool: Arc<BufferPool>,
    /// The control plane, shared with every client.
    control: Arc<Mutex<ChurnManager>>,
    clock: Arc<AtomicU64>,
    top_k: usize,
    metrics: Option<Arc<ServeMetrics>>,
    /// Shared failure detector (present when replication or heartbeats
    /// are configured).
    health: Option<Arc<HealthTracker>>,
    /// Fault injector (present when a fault plan is configured).
    faults: Option<Arc<FaultInjector>>,
    client_counter: AtomicU64,
    /// The heartbeat ticker's stop channel and thread (`None`: no
    /// failover controller to tick).
    ticker: Option<(Sender<()>, JoinHandle<()>)>,
}

impl ServeRuntime {
    /// Boots the runtime for an optimized `(graph, rates, schedule)`
    /// triple. `reopt` is the optimizer the control plane re-runs in the
    /// background when schedule quality degrades past
    /// [`ServeConfig::reopt_threshold`].
    ///
    /// # Panics
    ///
    /// Panics if the schedule does not match the graph, the rates do not
    /// cover every node, or [`ServeConfig::reopt_budget_frac`] is NaN.
    pub fn start(
        graph: CsrGraph,
        rates: Rates,
        schedule: Schedule,
        reopt: Box<dyn Scheduler>,
        config: ServeConfig,
    ) -> Self {
        let mut runtime = Self::assemble(graph, rates, schedule, reopt, config, Clock::monotonic());
        if runtime.control.lock().failover.is_some() {
            let (stop, stopped) = bounded::<()>(0);
            let control = Arc::clone(&runtime.control);
            let interval = config.heartbeat_interval;
            let ticker = std::thread::spawn(move || {
                while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(interval) {
                    control.lock().tick();
                }
            });
            runtime.ticker = Some((stop, ticker));
        }
        runtime
    }

    /// Everything [`ServeRuntime::start`] builds, on `clock`, without the
    /// heartbeat ticker.
    fn assemble(
        graph: CsrGraph,
        rates: Rates,
        schedule: Schedule,
        reopt: Box<dyn Scheduler>,
        config: ServeConfig,
        clock: Clock,
    ) -> Self {
        assert!(config.shards >= 1, "need a shard");
        // `ReoptInstaller` clamps the fraction, which passes NaN through
        // to a `Duration::mul_f64` that panics inside the first install.
        assert!(
            !config.reopt_budget_frac.is_nan(),
            "reopt_budget_frac is NaN"
        );
        assert_eq!(graph.edge_count(), schedule.edge_count());
        assert!(
            rates.len() >= graph.node_count(),
            "rates cover {} users, graph has {}",
            rates.len(),
            graph.node_count()
        );
        // Failure domains (racks/zones): every partitioner then spreads a
        // view's replica slots across domains, surviving correlated kills.
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
        let metrics = config
            .metrics
            .then(|| Arc::new(ServeMetrics::new(clock.clone())));
        let faults = config
            .faults
            .map(|plan| Arc::new(FaultInjector::new(plan, config.shards, clock.clone())));
        // The detector, whenever replicas or heartbeats are in play; the
        // staleness budget bounds how far a readable Suspect replica lags.
        let health = (replication > 1 || !config.heartbeat_interval.is_zero()).then(|| {
            Arc::new(HealthTracker::new(
                config.shards,
                SUSPECT_MISSES,
                DOWN_MISSES,
                config.staleness_budget,
                clock.clone(),
            ))
        });
        let publisher = Publisher {
            handle: Arc::clone(&handle),
            metrics: metrics.clone(),
            folded: Arc::default(),
        };
        // The failover controller: heartbeats to poll, a detector to feed.
        let failover = health
            .clone()
            .filter(|_| !config.heartbeat_interval.is_zero())
            .map(|h| FailoverController::new(publisher.clone(), h, faults.clone(), &clock));
        // A push to a k-replicated consumer fans out to k slots, so every
        // push/pull decision of the control plane is priced with k-amplified
        // producer rates (§2.1 with replication); k = 1 is the identity.
        let inc = IncrementalScheduler::new(graph, rates.push_amplified(replication), schedule);
        let manager = ChurnManager {
            applier: ChurnApplier::new(inc, publisher.clone()),
            reopt: ReoptInstaller::new(Arc::from(reopt), &config, clock.clone(), publisher.clone()),
            rebalancer: Rebalancer::new(&config, publisher.clone(), clock),
            failover,
            io: ShardIo::new(Arc::clone(&shards)),
            publisher,
            closing: false,
            job: None,
        };
        ServeRuntime {
            handle,
            shards,
            pool: Arc::new(BufferPool::new()),
            control: Arc::new(Mutex::new(manager)),
            clock: Arc::new(AtomicU64::new(1)),
            top_k: config.top_k,
            metrics,
            health,
            faults,
            client_counter: AtomicU64::new(0),
            ticker: None,
        }
    }

    /// A new front-end client with its own event-id namespace.
    pub fn client(&self) -> ServeClient {
        let id = self.client_counter.fetch_add(1, Ordering::Relaxed);
        ServeClient {
            epoch: self.handle.reader(),
            shard: ShardClient::new(
                Transport::Direct(Arc::clone(&self.shards)),
                Arc::clone(&self.pool),
            )
            .with_resilience(self.health.clone(), self.faults.clone()),
            control: Arc::clone(&self.control),
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
    /// [`ShardRequest::Stats`] per shard, answered in the wire format data
    /// ops use. Unreachable: zeros.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        let mut io = ShardIo::new(Arc::clone(&self.shards));
        (0..self.handle.load().topology().servers())
            .map(|shard| {
                if !reachable(self.faults.as_deref(), shard) {
                    return ShardStats::default();
                }
                let mut reply = io.request(|done| ShardRequest::Stats { shard, done });
                ShardStats::decode(&mut reply).expect("malformed stats reply")
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
    /// on); detection and failover take the heartbeat path. `false` when
    /// no fault plan is configured.
    pub fn kill_shard(&self, shard: usize) -> bool {
        self.faults.as_ref().is_some_and(|f| f.kill(shard))
    }

    /// Fault control: restarts a killed `shard` as a fresh, **empty**
    /// process (`ResetViews` over the wire, then the kill is lifted); the
    /// failover controller rejoins it. `false` when no fault plan is
    /// configured or the shard was not killed.
    pub fn restart_shard(&self, shard: usize) -> bool {
        let Some(f) = self.faults.as_ref().filter(|f| f.is_killed(shard)) else {
            return false;
        };
        // Reset *before* revive: the replacement process must be visibly
        // empty from its first answered request.
        ShardIo::new(Arc::clone(&self.shards))
            .request(|done| ShardRequest::ResetViews { shard, done });
        f.revive(shard)
    }

    /// One point-in-time capture of everything observable: the registry's
    /// instruments and the wire scrape as `store.*` counters. Safe while
    /// serving; diff two with [`Snapshot::delta_since`].
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

    /// Stops the control plane: closes it to churn, waits for an in-flight
    /// re-optimization to land and stops the heartbeat ticker; then
    /// validates bounded staleness on the final dynamic graph. A client
    /// that outlives shutdown still shares and queries, but its churn is
    /// rejected.
    pub fn shutdown(mut self) -> ServeReport {
        let job = self.control.lock().close();
        if let Some(job) = job {
            job.join().expect("re-optimization job panicked");
        }
        if let Some((stop, ticker)) = self.ticker.take() {
            drop(stop);
            ticker.join().expect("heartbeat ticker panicked");
        }
        let churn = self.control.lock().final_report();
        let metrics = self.metrics.is_some().then(|| self.stats_snapshot());
        ServeReport {
            churn,
            final_epoch: self.handle.epoch(),
            metrics,
            replication: self.handle.load().topology().replication(),
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
/// epoch swap can never split one request across two schedules. The client
/// owns every per-operation buffer (targets, merge output, the
/// [`ShardClient`]'s scratch), so a warmed-up client allocates only the
/// streams it returns.
pub struct ServeClient {
    epoch: EpochReader,
    shard: ShardClient,
    control: Arc<Mutex<ChurnManager>>,
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
    /// query per touched server, merged into a top-k. Returns `(events,
    /// messages)`.
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

    /// `v` starts following `u`. Runs on the calling thread, under the
    /// control plane's lock: returns once the edge is applied and the new
    /// epoch published; `false` if the edge already existed (or the
    /// runtime is shutting down).
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
            // Latency covers the whole call (lock wait + apply + publish);
            // the follow/unfollow counters count *applied* mutations only,
            // matching the churn report.
            if applied {
                rec.churn(t0.elapsed(), add);
            }
        }
        applied
    }

    fn churn_inner(&self, add: bool, u: NodeId, v: NodeId) -> bool {
        let mut control = self.control.lock();
        let (applied, job) = control.churn(add, u, v);
        if let Some(job) = job {
            // A job fires only once the last one has landed, so its thread
            // is done but for returning.
            if let Some(landed) = control.job.take() {
                landed.join().expect("re-optimization job panicked");
            }
            // Spawned under the lock, so shutdown finds the handle to join.
            let landing = Arc::clone(&self.control);
            control.job = Some(std::thread::spawn(move || {
                let result = job();
                landing.lock().land(result);
            }));
        }
        applied
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

/// The control plane (see the module docs): one per runtime, behind the
/// lock every client shares.
struct ChurnManager {
    applier: ChurnApplier,
    reopt: ReoptInstaller,
    rebalancer: Rebalancer,
    /// The shard lifecycle (`None` = heartbeats off or no detector).
    failover: Option<FailoverController>,
    io: ShardIo,
    /// The records' publisher, holding the events folded so far.
    publisher: Publisher,
    /// Set by shutdown: churn is rejected from then on.
    closing: bool,
    /// The thread of the last re-optimization job fired.
    job: Option<JoinHandle<()>>,
}

impl ChurnManager {
    /// One follow (`add`) or unfollow of `u → v` through its records'
    /// handlers: whether the edge changed, and the re-optimization job it
    /// fired, for the caller to run.
    fn churn(&mut self, add: bool, u: NodeId, v: NodeId) -> (bool, Option<ReoptJob>) {
        if self.closing {
            self.applier.churn_rejected += 1;
            return (false, None);
        }
        let Some(effect) = self.applier.apply(add, u, v) else {
            return (false, None);
        };
        let inc = self.applier.inc();
        let failover = self.failover.as_mut();
        self.rebalancer
            .upon_churn(&effect, inc, &mut self.io, failover);
        (true, self.reopt.upon_churn(add, u, v, inc))
    }

    /// Installs a finished re-optimization job's result.
    fn land(&mut self, result: ReoptResult) {
        let (fresh, sets) = self.reopt.install(result);
        self.rebalancer.rearm();
        self.applier.rebase(fresh, sets);
    }

    /// One heartbeat round of the shard lifecycle.
    fn tick(&mut self) {
        if let Some(failover) = &mut self.failover {
            failover.tick(&mut self.io);
        }
    }

    /// Closes the control plane to churn; hands back the thread of the
    /// last job fired, for shutdown to join.
    fn close(&mut self) -> Option<JoinHandle<()>> {
        self.closing = true;
        self.job.take()
    }

    /// The report so far, each figure read from its one source (the
    /// post-run staleness sweep is [`ChurnManager::final_report`]'s).
    fn report(&self) -> ChurnReport {
        let a = &self.applier;
        ChurnReport {
            follows_applied: a.follows_applied,
            unfollows_applied: a.unfollows_applied,
            churn_rejected: a.churn_rejected,
            cross_cost_churned: self.rebalancer.cross_churned,
            base_cost: a.inc().base_cost(),
            final_cost: a.inc().cost(),
            live_staleness_violations: a.live_staleness_violations,
            views_lost: self.io.lost.len() as u64,
            staleness_violation: a.live_violation.clone(),
            ..self.publisher.folded.lock().clone()
        }
    }

    /// The final report, swept for staleness; once no job is out.
    fn final_report(&self) -> ChurnReport {
        assert!(!self.reopt.in_flight(), "a re-optimization job is out");
        ChurnReport {
            staleness_violation: self.applier.validate(),
            ..self.report()
        }
    }
}

#[cfg(test)]
mod fault_matrix;

#[cfg(test)]
mod tests {
    use super::*;
    use piggyback_core::parallelnosy::ParallelNosy;
    use piggyback_core::scheduler::Hybrid;
    use piggyback_core::scheduler::Instance;
    use piggyback_graph::GraphBuilder;
    use piggyback_obs::EventKind;

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
        let rt = boot(ServeConfig {
            shards: 2,
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
                    "acknowledged follow not visible to b: {events:?}"
                );
            });
            warm_rx.recv().unwrap();
            assert!(a.follow(2, 0), "new edge must apply");
            told_tx.send(()).unwrap();
        });
        drop(a);
        assert!(rt.shutdown().churn.zero_violations());
    }

    /// `ReoptInstaller` clamps the budget fraction, and a clamp passes NaN
    /// through to the first install's `Duration::mul_f64`, which panics on
    /// the job thread; boot refuses the value instead.
    #[test]
    #[should_panic(expected = "reopt_budget_frac")]
    fn nan_reopt_budget_is_rejected_at_start() {
        boot(ServeConfig {
            reopt_budget_frac: f64::NAN,
            ..Default::default()
        });
    }

    #[test]
    fn churn_storm_publishes_exactly_the_incremental_sets() {
        use piggyback_graph::gen::{copying, CopyingConfig};
        let g = copying(CopyingConfig {
            nodes: 600,
            follows_per_node: 4,
            copy_prob: 0.6,
            seed: 1,
        });
        let r = Rates::log_degree(&g, 5.0);
        let s = ParallelNosy::default()
            .schedule(&Instance::new(&g, &r))
            .schedule;
        let rt = ServeRuntime::assemble(
            g,
            r,
            s,
            Box::new(Hybrid),
            ServeConfig {
                shards: 2,
                // Re-optimization never fires: every epoch is a churn publish.
                reopt_threshold: f64::INFINITY,
                ..Default::default()
            },
            Clock::manual(),
        );
        // Follows across chunk boundaries, then unfollows of the same pairs,
        // which also removes the pre-existing edges among them (the follows
        // of those rejected).
        let mut applied = 0u64;
        for add in [true, false] {
            for u in (0..600u32).step_by(11) {
                for v in (250..600u32).step_by(13).filter(|&v| v != u) {
                    let (changed, job) = rt.control.lock().churn(add, u, v);
                    assert!(job.is_none());
                    applied += u64::from(changed);
                }
            }
        }
        assert!(applied > 1024, "storm too small: {applied}");
        assert_eq!(rt.epoch(), applied, "one publish per applied mutation");
        let control = rt.control.lock();
        let (snap, inc) = (rt.snapshot(), control.applier.inc());
        for x in 0..600 {
            assert_eq!(snap.push_targets(x), inc.push_targets(x), "push set of {x}");
            assert_eq!(snap.pull_sources(x), inc.pull_sources(x), "pull set of {x}");
        }
        let report = control.report();
        assert_eq!((report.reopts, report.live_staleness_violations), (0, 0));
        assert!(inc.validate().is_ok());
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
    fn wire_scrape_equals_the_shards_own_counters() {
        let rt = boot(ServeConfig {
            shards: 4,
            ..Default::default()
        });
        let mut c = rt.client();
        for u in 0..3 {
            c.share(u);
            let _ = c.query(u);
        }
        let own: Vec<ShardStats> = rt.shards.iter().map(|s| s.lock().stats()).collect();
        assert!(own.iter().any(|s| s.updates > 0 && s.events_returned > 0));
        assert_eq!(rt.shard_stats(), own);
        drop(c);
        assert!(rt.shutdown().churn.zero_violations());
    }

    #[test]
    fn metrics_off_serves_and_reports_none() {
        let rt = boot(ServeConfig {
            shards: 2,
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
