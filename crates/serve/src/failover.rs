//! Topology transitions, the one publish, the failover controller and the
//! rebalancer.
//!
//! A failover, a rejoin and a rebalance each repair a map around the dead
//! set — the current one, `desired`, the partitioner's — move views onto it
//! by one rule ([`move_views`]), then publish it through
//! [`Publisher::publish`], the one way any epoch goes out. A rejoined shard
//! streams its backlog [`CATCHUP_BATCH`] per tick after the publish; a
//! rebalance then drops each moved view from the slots that left its
//! replica set. The shard lifecycle, one record per shard, is advanced by
//! [`FailoverController::tick`] and by the views a transition queues;
//! every instant is read from the injected [`Clock`], and every transition
//! is recorded once, through [`Publisher::event`], which also folds it into
//! the run's [`ChurnReport`]. Every shard request the control plane makes
//! — a probe, a view copy, a drop — is served inline on the thread that
//! holds the control lock ([`ShardIo`]):
//!
//! ```text
//!            DOWN_MISSES silent windows            heartbeat answered
//!  Serving ────────────────────────────▶ FailedOver ─────────────────▶ CatchingUp(backlog)
//!   ▲        fail_over: repair current,      ▲    begin_rejoin: repair     │    │
//!   │        move owed views, publish        │    `desired`, publish       │    │
//!   │                                        └──── Down again (backlog dropped) │
//!   │          (unreachable short of `Down`: the backlog waits for the link)    │
//!   └─────── backlog drained and silence within the staleness budget (readmit) ─┘
//!
//!  any transition: Serving ──▶ CatchingUp for a shard owed a view it cannot
//!  be sent; rebalance, in any phase: `desired` := the partitioner's map
//! ```

use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{bounded, Sender};
use parking_lot::Mutex;
use piggyback_core::incremental::{ChurnEffect, IncrementalScheduler};
use piggyback_graph::fx::FxHashSet;
use piggyback_graph::NodeId;
use piggyback_obs::{Clock, EventKind};
use piggyback_store::fault::FaultInjector;
use piggyback_store::health::{HealthTracker, ShardHealth};
use piggyback_store::server::{QueryScratch, StoreServer};
use piggyback_store::topology::{PartitionRequest, PartitionStrategy, Topology};
use piggyback_store::worker::{handle_request, BatchOp, BufferPool, ShardBatch, ShardRequest};

use crate::config::ServeConfig;
use crate::epoch::{EpochHandle, ServingSchedule};
use crate::metrics::ServeMetrics;
use crate::ops::ChurnReport;

/// Consecutive heartbeat misses before a shard turns `Suspect`.
pub(crate) const SUSPECT_MISSES: u32 = 2;
/// Consecutive misses before `Down` — the failover trigger.
pub(crate) const DOWN_MISSES: u32 = 4;
/// Views streamed to each catching-up shard per tick, so a catch-up flood
/// cannot starve foreground operations.
const CATCHUP_BATCH: usize = 512;

/// Whether `shard` can be talked to: neither killed (connection refused)
/// nor partitioned (the request or the reply is lost; no answer comes).
pub(crate) fn reachable(faults: Option<&FaultInjector>, shard: usize) -> bool {
    !faults.is_some_and(|f| f.is_killed(shard) || f.partition_of(shard).is_some())
}

/// The one way an epoch goes out and the one way a control-plane event is
/// recorded (single writer: whoever holds the control plane's lock).
#[derive(Clone)]
pub(crate) struct Publisher {
    pub(crate) handle: Arc<EpochHandle>,
    pub(crate) metrics: Option<Arc<ServeMetrics>>,
    /// Every event recorded so far, folded ([`ChurnReport::fold`]).
    pub(crate) folded: Arc<Mutex<ChurnReport>>,
}

impl Publisher {
    pub(crate) fn load(&self) -> Arc<ServingSchedule> {
        self.handle.load()
    }

    /// Records `kind`: folds it into the report, metrics on or off, and
    /// keeps it in the event ring when they are on.
    pub(crate) fn event(&self, kind: EventKind) {
        self.folded.lock().fold(&kind);
        let Some(m) = &self.metrics else { return };
        if matches!(kind, EventKind::Failover { .. }) {
            m.failover_count.inc();
        }
        m.events().record(kind);
    }

    /// Swaps `next` in and stamps its [`EventKind::EpochSwap`].
    pub(crate) fn publish(&self, next: ServingSchedule) {
        let (epoch, users_changed) = (next.epoch(), next.users_changed());
        self.handle.swap(next);
        self.event(EventKind::EpochSwap {
            epoch,
            users_changed,
        });
    }
}

/// A view a topology change must fill, and the slots that owe it.
type Owed = (NodeId, Vec<usize>);

/// What one shard can do in a view move.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Standing {
    /// Failed over, `Down` or killed: repairs route around it; owed nothing.
    Dead,
    /// Restarted empty by a rejoin: owed every slot it has in the new map.
    Empty,
    /// Catching up, or unreachable: keeps its old slots (its backlog or
    /// store covers them), queues new ones; serves no read, donates nothing.
    Behind,
    /// Reachable and caught up — a read target: holds every view it is a
    /// slot of (each publish keeps that so), donates, is filled first.
    Holds,
}

/// Every shard's [`Standing`], sampled when a move is planned.
struct Fleet(Vec<Standing>);

impl Fleet {
    /// No lifecycle to consult (heartbeats off): every shard holds.
    fn all_holding(shards: usize) -> Fleet {
        Fleet(vec![Standing::Holds; shards])
    }

    /// The set every repair routes around.
    fn dead(&self) -> Vec<bool> {
        self.0.iter().map(|&s| s == Standing::Dead).collect()
    }

    fn holds(&self, shard: usize) -> bool {
        self.0[shard] == Standing::Holds
    }

    /// The one rule views move by: a view is owed by each slot of `to` on a
    /// shard not dead that does not keep it — a holder or a shard behind
    /// keeps its slots of `from`. Listed when owed, or when no donor is left.
    fn transition(&self, from: &Topology, to: &Topology) -> Vec<Owed> {
        use Standing::*;
        (0..to.users() as NodeId)
            .filter_map(|u| {
                let keeps = |r| {
                    matches!(self.0[r], Behind | Holds) && from.replica_slots(u).any(|o| o == r)
                };
                let owed: Vec<usize> = to
                    .replica_slots(u)
                    .filter(|&r| self.0[r] != Dead && !keeps(r))
                    .collect();
                let listed = !owed.is_empty() || self.donor(from, to, u, &owed).is_none();
                listed.then_some((u, owed))
            })
            .collect()
    }

    /// The one donor rule: the first holding slot of `view` under `to`,
    /// then under `from`, that is not itself owed the view. (`to` first: a
    /// rebalance may since have dropped the view from its old homes.)
    fn donor(&self, from: &Topology, to: &Topology, view: NodeId, owed: &[usize]) -> Option<usize> {
        to.replica_slots(view)
            .chain(from.replica_slots(view))
            .find(|&r| self.holds(r) && !owed.contains(&r))
    }
}

/// Moves views from `from` to `to` ahead of the caller's publish of `to`:
/// owed slots on holding shards are copied now, every other is queued on
/// its shard's backlog, which keeps that shard off the read path until it
/// drains — no publish puts a view on a readable slot that lacks it.
/// Returns the installs made.
fn move_views(
    fleet: &Fleet,
    (from, to): (&Arc<Topology>, &Topology),
    io: &mut ShardIo,
    controller: Option<&mut FailoverController>,
) -> usize {
    let mut queued = Vec::new();
    let now: Vec<Owed> = fleet
        .transition(from, to)
        .into_iter()
        .map(|(view, slots)| {
            let (now, later): (Vec<usize>, _) = slots.into_iter().partition(|&r| fleet.holds(r));
            queued.extend(later.into_iter().map(|r| (r, view)));
            (view, now)
        })
        .collect();
    let copied = io.copy_views(fleet, (from, to), &now);
    // Without a controller every shard holds, and nothing is queued.
    if let Some(controller) = controller {
        for (shard, view) in queued {
            let backlog = controller.backlog(shard, from);
            backlog.pending.push(view);
            backlog.behind += 1;
        }
    }
    copied
}

/// The control plane's handle on the shards: one-shot requests and view
/// copies, each served inline through the store's [`handle_request`].
pub(crate) struct ShardIo {
    shards: Arc<Vec<Mutex<StoreServer>>>,
    /// Where a whole-view read draws its reply buffer.
    pool: BufferPool,
    scratch: QueryScratch,
    /// Views a copy found no donor for: the report's `views_lost`.
    pub(crate) lost: FxHashSet<NodeId>,
}

impl ShardIo {
    pub(crate) fn new(shards: Arc<Vec<Mutex<StoreServer>>>) -> Self {
        ShardIo {
            shards,
            pool: BufferPool::new(),
            scratch: QueryScratch::new(),
            lost: FxHashSet::default(),
        }
    }

    /// Serves one control-plane request and returns its reply. Callers
    /// gate on [`reachable`] first.
    pub(crate) fn request<R>(&mut self, make: impl FnOnce(Sender<R>) -> ShardRequest) -> R {
        let (done, reply) = bounded(1);
        handle_request(&self.shards, &self.pool, &mut self.scratch, make(done));
        reply
            .recv()
            .expect("an inline request replies before it returns")
    }

    /// Fills `owed` from one [`Fleet::donor`] per view (a whole-view query;
    /// it keeps serving). Skips a view never materialized, counts one with
    /// no donor lost. Returns the installs made.
    fn copy_views(
        &mut self,
        fleet: &Fleet,
        (from, to): (&Topology, &Topology),
        owed: &[Owed],
    ) -> usize {
        let mut installs = 0;
        for (view, slots) in owed {
            let Some(shard) = fleet.donor(from, to, *view, slots) else {
                self.lost.insert(*view);
                continue;
            };
            if slots.is_empty() {
                continue;
            }
            let payload = self
                .request(|reply| {
                    ShardRequest::Batch(ShardBatch {
                        shard,
                        views: vec![*view],
                        op: BatchOp::Query {
                            k: usize::MAX,
                            floor: None,
                        },
                        reply,
                    })
                })
                .freeze();
            if payload.is_empty() {
                continue;
            }
            for &shard in slots {
                let (view, payload) = (*view, payload.clone());
                self.request(|done| ShardRequest::InstallView {
                    shard,
                    view,
                    payload,
                    done,
                });
            }
            installs += slots.len();
        }
        installs
    }
}

/// Where one shard is in its lifecycle.
#[derive(Default)]
enum Phase {
    /// In the serving topology; silence counts as heartbeat misses.
    #[default]
    Serving,
    /// Routed around; the first answered heartbeat starts a rejoin.
    FailedOver,
    /// Back on the write path, streaming its views back before reads.
    CatchingUp(Backlog),
}

/// Anti-entropy state of one shard off the read path: rejoined, or owed
/// views while unreachable.
struct Backlog {
    /// Views still owed (drained from the tail, [`CATCHUP_BATCH`] a tick).
    pending: Vec<NodeId>,
    /// The map it was opened against; donors are sought there too.
    from: Arc<Topology>,
    /// Views ever queued (for the rejoin and readmit events).
    behind: usize,
    /// Clock reading when the backlog opened (phase-timing anchor).
    since_ns: u64,
}

/// One shard's record.
#[derive(Default)]
struct ShardCtl {
    /// Whether the probe the last tick sent was answered; this tick
    /// credits it.
    answered: bool,
    phase: Phase,
}

/// See the module docs.
pub(crate) struct FailoverController {
    publisher: Publisher,
    /// Shared failure detector; this controller is its prober.
    health: Arc<HealthTracker>,
    faults: Option<Arc<FaultInjector>>,
    clock: Clock,
    /// The failure-free topology the cluster converges back to as shards
    /// rejoin. Rebalances set it; failovers never do.
    desired: Arc<Topology>,
    shards: Vec<ShardCtl>,
}

impl FailoverController {
    /// A controller over `health`'s shards, all `Serving`, converging on
    /// the published topology; `tick` expects a call every heartbeat.
    pub(crate) fn new(
        publisher: Publisher,
        health: Arc<HealthTracker>,
        faults: Option<Arc<FaultInjector>>,
        clock: &Clock,
    ) -> Self {
        FailoverController {
            desired: Arc::clone(publisher.load().topology()),
            shards: (0..health.shards()).map(|_| ShardCtl::default()).collect(),
            publisher,
            health,
            faults,
            clock: clock.clone(),
        }
    }

    /// Upon a rebalance: the partitioner's map is the failure-free baseline.
    fn set_desired(&mut self, topology: Arc<Topology>) {
        self.desired = topology;
    }

    /// What each shard can do in a view move right now.
    fn fleet(&self) -> Fleet {
        let standing = |s: usize| match self.shards[s].phase {
            _ if self.is_dead(s) => Standing::Dead,
            Phase::Serving if self.reachable(s) => Standing::Holds,
            _ => Standing::Behind,
        };
        Fleet((0..self.shards.len()).map(standing).collect())
    }

    /// `s`'s backlog; opened against `from` if `s` was serving, which
    /// turns it `CatchingUp` — off the read path until the backlog drains.
    fn backlog(&mut self, s: usize, from: &Arc<Topology>) -> &mut Backlog {
        if matches!(self.shards[s].phase, Phase::Serving) {
            self.health.mark_catching_up(s);
            self.shards[s].phase = Phase::CatchingUp(Backlog {
                pending: Vec::new(),
                from: Arc::clone(from),
                behind: 0,
                since_ns: self.clock.now_ns(),
            });
        }
        match &mut self.shards[s].phase {
            Phase::CatchingUp(backlog) => backlog,
            _ => unreachable!("views are queued only on a shard not dead"),
        }
    }

    /// One heartbeat round: poll every probe, fail over what the detector
    /// declared `Down`, stream one anti-entropy batch per catching-up shard.
    pub(crate) fn tick(&mut self, io: &mut ShardIo) {
        for s in 0..self.shards.len() {
            self.poll(s, io);
        }
        if let Some(m) = &self.publisher.metrics {
            m.health_suspect.set(self.health.not_up() as f64);
            m.replica_lag
                .set(self.health.max_live_silence().as_secs_f64() * 1e3);
        }
        let down: Vec<usize> = (0..self.shards.len())
            .filter(|&s| !self.failed_over(s) && self.health.state(s) == ShardHealth::Down)
            .collect();
        if !down.is_empty() {
            self.fail_over(&down, io);
            // Amnesty: every reachable serving shard restarts detection
            // from a fresh probe, so one death never cascades. Not for an
            // unreachable shard (its misses need no wire) nor a catching-up
            // one (only readmit promotes).
            for s in 0..self.shards.len() {
                if matches!(self.shards[s].phase, Phase::Serving) && self.reachable(s) {
                    self.health.record_ok(s);
                    self.shards[s].answered = false;
                }
            }
        }
        self.catch_up(io);
    }

    fn reachable(&self, s: usize) -> bool {
        reachable(self.faults.as_deref(), s)
    }

    fn failed_over(&self, s: usize) -> bool {
        matches!(self.shards[s].phase, Phase::FailedOver)
    }

    /// Whether a repair must route around `s`: failed over, `Down`, or
    /// killed (the verdict is ticks away) — not catching up: writes flow.
    fn is_dead(&self, s: usize) -> bool {
        let killed = self.faults.as_ref().is_some_and(|f| f.is_killed(s));
        self.failed_over(s) || self.health.state(s) == ShardHealth::Down || killed
    }

    /// How long ago the first evidence of `s`'s death appeared: the kill
    /// instant or its first missed heartbeat, whichever is older.
    fn evidence_age(&self, s: usize) -> Option<Duration> {
        let killed = self.faults.as_ref().and_then(|f| f.killed_since(s));
        self.health.first_miss_elapsed(s).max(killed)
    }

    /// Credits the probe the last tick sent `s`, then sends the next. A
    /// probe is served inline, so a reachable shard always answers it; an
    /// unreachable one misses once per tick, dying in [`DOWN_MISSES`]
    /// ticks. A failed-over shard is probed for *rejoin*.
    fn poll(&mut self, s: usize, io: &mut ShardIo) {
        let answered = std::mem::take(&mut self.shards[s].answered);
        if !self.reachable(s) {
            return self.note_miss(s);
        }
        if answered && self.failed_over(s) {
            return self.begin_rejoin(s, io);
        }
        if answered {
            self.health.record_ok(s);
        }
        io.request(|done| ShardRequest::Heartbeat { shard: s, done });
        self.shards[s].answered = true;
    }

    /// Records a heartbeat miss, logging the state transition if any —
    /// unless `s` is failed over: its silence means nothing.
    fn note_miss(&self, s: usize) {
        if self.failed_over(s) {
            return;
        }
        let miss = self.health.record_miss(s);
        if miss.transitioned {
            self.publisher.event(EventKind::HeartbeatMiss {
                shard: s,
                misses: miss.misses,
            });
        }
    }

    /// Routes around the shards in `down`: one repair of the current map,
    /// one move, one publish (with replication 1, only marks them).
    fn fail_over(&mut self, down: &[usize], io: &mut ShardIo) {
        let started_ns = self.clock.now_ns();
        let mut detected = Vec::with_capacity(down.len());
        for &s in down {
            // (A shard that died again mid-catch-up drops its backlog.)
            self.shards[s].phase = Phase::FailedOver;
            // Detection phase: first evidence of death to this verdict.
            detected.push(self.evidence_age(s).unwrap_or_default());
        }
        let snap = self.publisher.load();
        let old = Arc::clone(snap.topology());
        if old.replication() < 2 {
            return;
        }
        let fleet = self.fleet();
        let repair = old.repaired(&fleet.dead());
        // Move *before* publish: a re-pointed primary exposes new slots.
        let copy_started_ns = self.clock.now_ns();
        let maps = (&old, &repair.topology);
        let copied = move_views(&fleet, maps, io, Some(self));
        let copy_ms = self.clock.since(copy_started_ns).as_secs_f64() * 1e3;
        self.publisher
            .publish(snap.with_topology(Arc::new(repair.topology)));
        let homed_on = |s| {
            repair
                .moved
                .iter()
                .filter(|&&u| old.server_of(u) == s)
                .count()
        };
        for (&s, detected) in down.iter().zip(detected) {
            self.publisher.event(EventKind::Failover {
                shard: s,
                moved: homed_on(s),
                detected_ms: detected.as_secs_f64() * 1e3,
                wall_ms: self.clock.since(started_ns).as_secs_f64() * 1e3,
            });
        }
        self.publisher.event(EventKind::CatchUp {
            views: copied,
            wall_ms: copy_ms,
        });
    }

    /// A failed-over shard answered a heartbeat: the restarted, empty
    /// process rejoins the **write** path at once (the repaired `desired`
    /// map restores its slots), the **read** path once its backlog drains.
    fn begin_rejoin(&mut self, s: usize, io: &mut ShardIo) {
        let snap = self.publisher.load();
        let from = Arc::clone(snap.topology());
        // Alive — not routed around — but empty, so off the read path.
        self.shards[s].phase = Phase::Serving;
        self.backlog(s, &from);
        self.health.record_ok(s);
        let mut fleet = self.fleet();
        fleet.0[s] = Standing::Empty;
        let to = self.desired.repaired(&fleet.dead()).topology;
        move_views(&fleet, (&from, &to), io, Some(self));
        self.publisher.publish(snap.with_topology(Arc::new(to)));
        let views_behind = self.backlog(s, &from).behind;
        self.publisher.event(EventKind::Rejoin {
            shard: s,
            views_behind,
        });
    }

    /// Streams one [`CATCHUP_BATCH`] of each catching-up shard's backlog;
    /// readmits a shard to reads once drained **and** its heartbeat silence
    /// fits the Theorem-1 staleness budget.
    fn catch_up(&mut self, io: &mut ShardIo) {
        let fleet = self.fleet();
        let published = Arc::clone(self.publisher.load().topology());
        for s in 0..self.shards.len() {
            // Unreachable: the backlog waits for the heal, or for
            // `fail_over` to drop it — never `Serving` with views owed.
            if !self.reachable(s) {
                continue;
            }
            let Phase::CatchingUp(backlog) = &mut self.shards[s].phase else {
                continue;
            };
            let n = backlog.pending.len().min(CATCHUP_BATCH);
            let at = backlog.pending.len() - n;
            let batch: Vec<Owed> = backlog.pending.drain(at..).map(|v| (v, vec![s])).collect();
            let remaining = backlog.pending.len();
            let (from, behind, since_ns) =
                (Arc::clone(&backlog.from), backlog.behind, backlog.since_ns);
            if n > 0 {
                io.copy_views(&fleet, (&from, &published), &batch);
                self.publisher.event(EventKind::CatchUpBatch {
                    shard: s,
                    views: n,
                    remaining,
                });
            }
            // Drained, its worst view lag is its heartbeat silence (writes
            // reach it whenever it is reachable); zero budget = no gate.
            let budget = self.health.laxity();
            if remaining > 0 || (!budget.is_zero() && self.health.silence(s) > budget) {
                continue;
            }
            self.shards[s].phase = Phase::Serving;
            if self.health.readmit(s) {
                self.publisher.event(EventKind::Readmit {
                    shard: s,
                    views: behind,
                    wall_ms: self.clock.since(since_ns).as_secs_f64() * 1e3,
                });
            }
        }
    }
}

/// Live rebalancing: the cross-server rate churn adds accumulates, and
/// crossing the threshold re-partitions the live graph.
pub(crate) struct Rebalancer {
    partition: PartitionStrategy,
    /// Fraction of the optimized base cost that fires it (infinite: never).
    threshold: f64,
    seed: u64,
    /// Cross-server rate churn added since the last rebalance or install.
    pub(crate) cross_churned: f64,
    publisher: Publisher,
    clock: Clock,
}

impl Rebalancer {
    pub(crate) fn new(config: &ServeConfig, publisher: Publisher, clock: Clock) -> Self {
        Rebalancer {
            partition: config.partition,
            threshold: config.rebalance_threshold,
            seed: config.placement_seed,
            cross_churned: 0.0,
            publisher,
            clock,
        }
    }

    /// Forgets the accumulated rate: after a rebalance, and once an install
    /// re-piggybacks the churn edges it priced.
    pub(crate) fn rearm(&mut self) {
        self.cross_churned = 0.0;
    }

    /// Upon applied churn: each edge it switched to direct serving adds its
    /// hybrid cost when its endpoints sit on different servers; past the
    /// threshold, the live graph is re-partitioned, the map repaired around
    /// the dead set, and views moved → published → dropped (hash placement
    /// could never move a view, so it skips all this).
    ///
    /// The old copies outlive the publish, so a query in flight under the
    /// old map still finds them; an update routed through the old snapshot
    /// after the copy can land only at slots the drop clears — §4.3's
    /// caches. Synchronous on the single writer: race-free, at the price of
    /// stalling churn (not serving) for the repartition and the copy.
    pub(crate) fn upon_churn(
        &mut self,
        effect: &ChurnEffect,
        inc: &IncrementalScheduler,
        io: &mut ShardIo,
        mut failover: Option<&mut FailoverController>,
    ) {
        if !self.threshold.is_finite() || self.partition == PartitionStrategy::Hash {
            return;
        }
        let snap = self.publisher.load();
        let (old, rates) = (Arc::clone(snap.topology()), inc.rates());
        for &(x, y) in &effect.reserved_direct {
            if old.server_of(x) != old.server_of(y) {
                self.cross_churned += rates.rp(x).min(rates.rc(y));
            }
        }
        if let Some(m) = &self.publisher.metrics {
            m.cross_cost.set(self.cross_churned);
        }
        let base = inc.base_cost();
        if base <= 0.0 || self.cross_churned <= self.threshold * base {
            return;
        }
        self.rearm();
        let started_ns = self.clock.now_ns();
        let graph = inc.freeze_graph();
        let desired = self
            .partition
            .partitioner()
            .partition(&PartitionRequest {
                graph: &graph,
                rates: inc.rates(),
                schedule: None,
                servers: old.servers(),
                seed: self.seed,
                domains: (!old.domains().is_empty()).then(|| old.domains()),
            })
            .with_replication(old.replication());
        let fleet = failover.as_deref().map_or_else(
            || Fleet::all_holding(old.servers()),
            FailoverController::fleet,
        );
        let new = Arc::new(desired.repaired(&fleet.dead()).topology);
        if let Some(f) = failover.as_deref_mut() {
            f.set_desired(Arc::new(desired));
        }
        let moved = old.moved_users(&new);
        if moved.is_empty() {
            return; // the partitioner reproduced the serving map
        }
        move_views(&fleet, (&old, &new), io, failover);
        self.publisher.publish(snap.with_topology(Arc::clone(&new)));
        // Drop each moved view from the holding slots that left its replica
        // set — once a holding slot of the new set has it, so an old copy
        // stays a donor until then. A stray copy no map points at is inert.
        let drops = moved
            .iter()
            .filter(|&&u| new.replica_slots(u).any(|r| fleet.holds(r)))
            .flat_map(|&u| old.replica_slots(u).map(move |r| (u, r)))
            .filter(|&(u, r)| fleet.holds(r) && !new.replica_slots(u).any(|n| n == r));
        for (view, shard) in drops {
            io.request(|done| ShardRequest::ExtractView { shard, view, done });
        }
        self.publisher.event(EventKind::Rebalance {
            moved: moved.len(),
            wall_ms: self.clock.since(started_ns).as_secs_f64() * 1e3,
        });
    }
}
