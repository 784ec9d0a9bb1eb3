//! The failover controller: the shard lifecycle — probing, failover,
//! rejoin, anti-entropy — as one state record per shard, advanced only by
//! [`FailoverController::tick`].
//!
//! The churn thread — the single writer, which is what makes
//! migrate-then-swap race-free — calls `tick` at the heartbeat cadence; the
//! fault matrix (`runtime/fault_matrix.rs`) calls it by hand, on a clock it
//! advances itself — every instant here is read from the injected
//! [`Clock`]. A tick polls every shard's heartbeat, routes around every
//! shard just declared `Down` (one repair, one copy, one publish, however
//! many died), and streams one budgeted anti-entropy batch to every
//! rejoined shard:
//!
//! ```text
//!            DOWN_MISSES silent windows            heartbeat answered
//!  Serving ────────────────────────────▶ FailedOver ─────────────────▶ CatchingUp(backlog)
//!   ▲        fail_over: repair current,      ▲    begin_rejoin: repair     │    │
//!   │        copy exposed slots, publish     │    `desired`, publish       │    │
//!   │                                        └──── Down again (backlog dropped) │
//!   │          (unreachable short of `Down`: the backlog waits for the link)    │
//!   └─────── backlog drained and silence within the staleness budget (readmit) ─┘
//! ```
//!
//! Every decision has one site: whether a shard can be talked to
//! ([`reachable`] — [`Transport::request_async`] is not fault-aware, so a
//! control-plane caller that skipped the gate would talk straight through a
//! kill or a partition), whether a repair must route around it
//! (`is_dead`), how a topology is repaired ([`Topology::repaired`]) and how
//! views move between shards ([`ShardIo::copy_views`], rebalances too).

use std::sync::Arc;
use std::time::Duration;

use bytes::{Bytes, BytesMut};
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use piggyback_graph::NodeId;
use piggyback_obs::{Clock, EventKind};
use piggyback_store::fault::FaultInjector;
use piggyback_store::health::{HealthTracker, ShardHealth};
use piggyback_store::server::QueryScratch;
use piggyback_store::topology::Topology;
use piggyback_store::worker::{BatchOp, BufferPool, ShardBatch, ShardRequest, Transport};

use crate::epoch::EpochHandle;
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

/// The control plane's handle on the shards: one-shot requests and view
/// copies, over whichever transport the runtime serves with.
pub(crate) struct ShardIo {
    transport: Transport,
    pool: Arc<BufferPool>,
    /// Scratch for requests the caller-runs transport executes inline.
    scratch: QueryScratch,
}

/// A donor read in flight (the two requests answer in different types).
enum DonorRead {
    Taken(Receiver<Bytes>),
    Queried(Receiver<BytesMut>),
}

impl ShardIo {
    pub(crate) fn new(transport: Transport, pool: Arc<BufferPool>) -> Self {
        ShardIo {
            transport,
            pool,
            scratch: QueryScratch::new(),
        }
    }

    /// Sends one control-plane request without waiting; the receiver
    /// yields the reply. Callers gate on [`reachable`] first.
    pub(crate) fn request<R>(
        &mut self,
        make: impl FnOnce(Sender<R>) -> ShardRequest,
    ) -> Receiver<R> {
        self.transport
            .request_async(&self.pool, &mut self.scratch, make)
    }

    /// Copies views shard to shard, pipelined: every donor read of `jobs`
    /// (`(view, donor)` pairs) is in flight before the first reply is
    /// awaited, installs stream out as payloads arrive, and every install
    /// is acked on return. `targets(i, out)` names the shards job `i`
    /// installs to; a view the donor never materialized is skipped. With
    /// `take` the donor gives the view up (`ExtractView`: a rebalance);
    /// without, it answers a whole-view query batch and keeps serving, so
    /// concurrent queries never see a gap. Returns the installs made.
    pub(crate) fn copy_views(
        &mut self,
        jobs: &[(NodeId, usize)],
        take: bool,
        mut targets: impl FnMut(usize, &mut Vec<usize>),
    ) -> usize {
        let reads: Vec<DonorRead> = jobs
            .iter()
            .map(|&(view, shard)| {
                if take {
                    DonorRead::Taken(self.request(|done| ShardRequest::ExtractView {
                        shard,
                        view,
                        done,
                    }))
                } else {
                    DonorRead::Queried(self.request(|reply| {
                        ShardRequest::Batch(ShardBatch {
                            shard,
                            views: vec![view],
                            op: BatchOp::Query { k: usize::MAX },
                            reply,
                        })
                    }))
                }
            })
            .collect();
        let mut installs = Vec::new();
        let mut to = Vec::new();
        for (i, read) in reads.into_iter().enumerate() {
            let payload = match read {
                DonorRead::Taken(rx) => rx.recv().expect("worker dropped extract reply"),
                DonorRead::Queried(rx) => rx.recv().expect("worker dropped read reply").freeze(),
            };
            if payload.is_empty() {
                continue;
            }
            to.clear();
            targets(i, &mut to);
            for &shard in &to {
                let (view, payload) = (jobs[i].0, payload.clone());
                installs.push(self.request(|done| ShardRequest::InstallView {
                    shard,
                    view,
                    payload,
                    done,
                }));
            }
        }
        for rx in &installs {
            rx.recv().expect("worker dropped install reply");
        }
        installs.len()
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

/// Anti-entropy state of one rejoined shard.
struct Backlog {
    /// Views still owed, each with the replica slots to install to
    /// (drained from the tail, [`CATCHUP_BATCH`] per tick).
    pending: Vec<(NodeId, Vec<usize>)>,
    /// Backlog size at rejoin (for the readmit event).
    behind: usize,
    /// Clock reading when the rejoin was detected (phase-timing anchor).
    since_ns: u64,
}

/// One shard's record.
#[derive(Default)]
struct ShardCtl {
    /// The one heartbeat in flight and the clock reading at which its
    /// grace window opened.
    probe: Option<(Receiver<Bytes>, u64)>,
    phase: Phase,
}

/// See the module docs.
pub(crate) struct FailoverController {
    handle: Arc<EpochHandle>,
    /// Shared failure detector; this controller is its prober.
    health: Arc<HealthTracker>,
    faults: Option<Arc<FaultInjector>>,
    metrics: Option<Arc<ServeMetrics>>,
    heartbeat: Duration,
    clock: Clock,
    /// The failure-free topology the cluster converges back to as shards
    /// rejoin. Rebalances update it; failovers never do.
    desired: Arc<Topology>,
    shards: Vec<ShardCtl>,
}

impl FailoverController {
    /// A controller over `health`'s shards, all `Serving`, converging on
    /// the currently published topology; [`FailoverController::tick`]
    /// expects to be called every `heartbeat`.
    pub(crate) fn new(
        handle: Arc<EpochHandle>,
        health: Arc<HealthTracker>,
        faults: Option<Arc<FaultInjector>>,
        metrics: Option<Arc<ServeMetrics>>,
        heartbeat: Duration,
        clock: Clock,
    ) -> Self {
        FailoverController {
            desired: Arc::clone(handle.load().topology()),
            shards: (0..health.shards()).map(|_| ShardCtl::default()).collect(),
            handle,
            health,
            faults,
            metrics,
            heartbeat,
            clock,
        }
    }

    /// A rebalance published `topology`: the new failure-free baseline.
    pub(crate) fn set_desired(&mut self, topology: Arc<Topology>) {
        self.desired = topology;
    }

    /// One heartbeat round: poll every probe, fail over what the detector
    /// declared `Down`, stream one anti-entropy batch per rejoined shard.
    pub(crate) fn tick(&mut self, io: &mut ShardIo, report: &mut ChurnReport) {
        for s in 0..self.shards.len() {
            self.poll(s, io, report);
        }
        if let Some(m) = &self.metrics {
            m.health_suspect.set(self.health.not_up() as f64);
            m.replica_lag
                .set(self.health.max_live_silence().as_secs_f64() * 1e3);
        }
        let down: Vec<usize> = (0..self.shards.len())
            .filter(|&s| !self.failed_over(s) && self.health.state(s) == ShardHealth::Down)
            .collect();
        if !down.is_empty() {
            self.fail_over(&down, io, report);
            // Amnesty: heartbeat probes queued behind the copy, so every
            // live shard now looks silent; restart detection from a clean
            // slate, or one real death cascades through the fleet. Not for
            // an unreachable shard (its misses accrue without wire traffic)
            // nor a catching-up one (only the readmit may promote it).
            for s in 0..self.shards.len() {
                if matches!(self.shards[s].phase, Phase::Serving) && self.reachable(s) {
                    self.health.record_ok(s);
                    self.shards[s].probe = None;
                }
            }
        }
        self.catch_up(io, report);
    }

    fn reachable(&self, s: usize) -> bool {
        reachable(self.faults.as_deref(), s)
    }

    fn failed_over(&self, s: usize) -> bool {
        matches!(self.shards[s].phase, Phase::FailedOver)
    }

    /// Whether a repair must route around `s`: failed over, declared
    /// `Down`, or killed outright (the verdict is a matter of ticks). A
    /// catching-up shard is alive — writes must flow to it.
    fn is_dead(&self, s: usize) -> bool {
        let killed = self.faults.as_ref().is_some_and(|f| f.is_killed(s));
        self.failed_over(s) || self.health.state(s) == ShardHealth::Down || killed
    }

    fn dead_set(&self) -> Vec<bool> {
        (0..self.shards.len()).map(|s| self.is_dead(s)).collect()
    }

    /// How long ago the first evidence of `s`'s death appeared: the kill
    /// instant or its first missed heartbeat, whichever is older.
    fn evidence_age(&self, s: usize) -> Option<Duration> {
        let killed = self.faults.as_ref().and_then(|f| f.killed_since(s));
        self.health.first_miss_elapsed(s).max(killed)
    }

    /// Polls `s`'s heartbeat. Probing is **asynchronous**: one probe in
    /// flight per shard, polled with a zero-wait receive, so a slow data
    /// plane never stretches the tick. Heartbeats share the data-plane
    /// queues and may wait behind a deep backlog, so a shard in service
    /// misses only when a generous grace window passes unanswered, and the
    /// window re-arms after each miss. An unreachable shard is not probed
    /// over the wire and misses once per tick: a real death is confirmed
    /// in [`DOWN_MISSES`] ticks whatever the window. A failed-over shard is
    /// probed for *rejoin*: silence means nothing.
    fn poll(&mut self, s: usize, io: &mut ShardIo, report: &mut ChurnReport) {
        let probe = self.shards[s].probe.take();
        if !self.reachable(s) {
            return self.note_miss(s);
        }
        if let Some((rx, since_ns)) = probe {
            match rx.recv_timeout(Duration::ZERO) {
                Ok(_) if self.failed_over(s) => return self.begin_rejoin(s, report),
                Ok(_) => self.health.record_ok(s),
                Err(RecvTimeoutError::Timeout) => {
                    let grace = (self.heartbeat * 2).max(Duration::from_millis(100));
                    let missed = self.clock.since(since_ns) >= grace;
                    if missed {
                        self.note_miss(s);
                    }
                    // Keep the same probe — a late reply still proves
                    // liveness — and re-arm the window after a miss.
                    let since_ns = if missed {
                        self.clock.now_ns()
                    } else {
                        since_ns
                    };
                    self.shards[s].probe = Some((rx, since_ns));
                    return;
                }
                // Worker gone (teardown in progress).
                Err(RecvTimeoutError::Disconnected) => return self.note_miss(s),
            }
        }
        let rx = io.request(|done| ShardRequest::Heartbeat { shard: s, done });
        self.shards[s].probe = Some((rx, self.clock.now_ns()));
    }

    /// Records a heartbeat miss, logging the state transition if any —
    /// unless `s` is failed over: its silence means nothing.
    fn note_miss(&self, s: usize) {
        if self.failed_over(s) {
            return;
        }
        let miss = self.health.record_miss(s);
        if miss.transitioned {
            self.event(EventKind::HeartbeatMiss {
                shard: s,
                misses: miss.misses,
            });
        }
    }

    fn event(&self, kind: EventKind) {
        if let Some(m) = &self.metrics {
            m.events().record(kind);
        }
    }

    /// Routes around the shards in `down`: one repair of the current
    /// topology, one copy, one publish. With replication 1 there is
    /// nowhere to go and the shards are only marked.
    fn fail_over(&mut self, down: &[usize], io: &mut ShardIo, report: &mut ChurnReport) {
        let started_ns = self.clock.now_ns();
        for &s in down {
            // (A shard that died again mid-catch-up drops its backlog.)
            self.shards[s].phase = Phase::FailedOver;
            // Detection phase: first evidence of death to this verdict.
            let detected = self.evidence_age(s).unwrap_or_default();
            report.detection_ms += detected.as_secs_f64() * 1e3;
        }
        let snap = self.handle.load();
        let old = Arc::clone(snap.topology());
        if old.replication() < 2 {
            return;
        }
        let dead = self.dead_set();
        let repair = old.repaired(&dead);
        let (new, moved) = (repair.topology, repair.moved);
        // Every replica gone too: data loss, and the count is the
        // measurement. Users an earlier repair gave up on are still homed
        // on their dead shard; count this round's only.
        let this_round = |u: &&NodeId| down.contains(&old.server_of(**u));
        report.views_lost += repair.lost.iter().filter(this_round).count() as u64;
        // Copy *before* publish: re-pointing a primary exposes replica
        // slots that never received the view's writes.
        let copy_started_ns = self.clock.now_ns();
        let jobs: Vec<(NodeId, usize)> = moved.iter().map(|&u| (u, new.server_of(u))).collect();
        let copied = io.copy_views(&jobs, false, |i, to| {
            let u = jobs[i].0;
            let exposed = |&r: &usize| !dead[r] && !old.replica_slots(u).any(|o| o == r);
            to.extend(new.replica_slots(u).filter(exposed));
        });
        let copy_ms = self.clock.since(copy_started_ns).as_secs_f64() * 1e3;
        self.handle.swap(snap.with_topology(Arc::new(new)));
        report.failovers += down.len() as u64;
        report.users_failed_over += moved.len() as u64;
        for &s in down {
            // Failover phase: verdict to publish. Unavailability opened
            // earlier, at the first evidence of death.
            let wall = self.clock.since(started_ns);
            report.failover_ms += wall.as_secs_f64() * 1e3;
            report.failover_unavailable_ms +=
                self.evidence_age(s).unwrap_or(wall).as_secs_f64() * 1e3;
            if let Some(m) = &self.metrics {
                m.failover_count.inc();
            }
            self.event(EventKind::Failover {
                shard: s,
                moved: moved.iter().filter(|&&u| old.server_of(u) == s).count(),
                wall_ms: wall.as_secs_f64() * 1e3,
            });
        }
        self.event(EventKind::CatchUp {
            views: copied,
            wall_ms: copy_ms,
        });
    }

    /// A failed-over shard answered a heartbeat: the restarted (empty)
    /// process is back. It rejoins the **write** path at once — the
    /// repaired `desired` topology restores its replica slots — but stays
    /// off the **read** path ([`ShardHealth::CatchingUp`] is not readable)
    /// until anti-entropy has streamed its backlog to parity.
    fn begin_rejoin(&mut self, s: usize, report: &mut ChurnReport) {
        let since_ns = self.clock.now_ns();
        // Alive from here on: the repair below must not route around it.
        self.shards[s].phase = Phase::Serving;
        self.health.mark_catching_up(s);
        report.rejoins += 1;
        // Rebuild from the failure-free map: shards still dead keep their
        // repair, the rejoined shard gets its desired views back.
        let snap = self.handle.load();
        let old = snap.topology();
        let new = self.desired.repaired(&self.dead_set()).topology;
        // The backlog: every view with a replica slot on the rejoined
        // shard (its copy died with the process, or missed writes behind a
        // partition), plus any slot the repaired ring newly exposes. The
        // donor is resolved when the entry's batch streams.
        let mut pending = Vec::new();
        for u in 0..new.users() as NodeId {
            let owed = |&r: &usize| r == s || !old.replica_slots(u).any(|o| o == r);
            let targets: Vec<usize> = new.replica_slots(u).filter(owed).collect();
            if !targets.is_empty() {
                pending.push((u, targets));
            }
        }
        let behind = pending.len();
        self.handle.swap(snap.with_topology(Arc::new(new)));
        self.shards[s].phase = Phase::CatchingUp(Backlog {
            pending,
            behind,
            since_ns,
        });
        self.event(EventKind::Rejoin {
            shard: s,
            views_behind: behind,
        });
    }

    /// Streams one [`CATCHUP_BATCH`] of every catching-up shard's backlog
    /// and readmits a shard to the read path once its backlog has drained
    /// **and** its heartbeat silence fits the Theorem-1 staleness budget.
    fn catch_up(&mut self, io: &mut ShardIo, report: &mut ChurnReport) {
        for s in 0..self.shards.len() {
            // Unreachable mid-catch-up: the backlog waits. Either the link
            // heals and streaming resumes here, or detection declares the
            // shard `Down`, `fail_over` drops the backlog and the next
            // rejoin rebuilds it — never `Serving` with views still owed.
            if !self.reachable(s) {
                continue;
            }
            let Phase::CatchingUp(backlog) = &mut self.shards[s].phase else {
                continue;
            };
            let n = backlog.pending.len().min(CATCHUP_BATCH);
            let batch = backlog.pending.split_off(backlog.pending.len() - n);
            let remaining = backlog.pending.len();
            let (behind, since_ns) = (backlog.behind, backlog.since_ns);
            if n > 0 {
                let snap = self.handle.load();
                let mut jobs = Vec::with_capacity(n);
                let mut owed = Vec::with_capacity(n);
                for (u, targets) in &batch {
                    // A donor holds a slot that is not itself owed the
                    // view, can be talked to, and is not routed around.
                    let donates =
                        |r: &usize| !targets.contains(r) && self.reachable(*r) && !self.is_dead(*r);
                    match snap.topology().replica_slots(*u).find(donates) {
                        Some(donor) => {
                            jobs.push((*u, donor));
                            owed.push(targets);
                        }
                        // No live copy: readmitted without this view.
                        None => report.views_lost += 1,
                    }
                }
                io.copy_views(&jobs, false, |i, to| to.extend_from_slice(owed[i]));
                self.event(EventKind::CatchUpBatch {
                    shard: s,
                    views: n,
                    remaining,
                });
            }
            // Drained, with writes live since the rejoin epoch, the
            // shard's worst view lag is its heartbeat silence: readmit once
            // that fits the staleness budget (zero = no extra gate).
            let budget = self.health.laxity();
            if remaining > 0 || (!budget.is_zero() && self.health.silence(s) > budget) {
                continue;
            }
            self.shards[s].phase = Phase::Serving;
            let wall_ms = self.clock.since(since_ns).as_secs_f64() * 1e3;
            report.catchup_ms += wall_ms;
            if self.health.readmit(s) {
                report.readmits += 1;
                report.readmit_ms += wall_ms;
                self.event(EventKind::Readmit {
                    shard: s,
                    views: behind,
                    wall_ms,
                });
            }
        }
    }
}
