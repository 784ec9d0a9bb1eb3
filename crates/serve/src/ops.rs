//! The control plane's two schedule records — `ChurnApplier` (apply, live
//! staleness check, publish) and `ReoptInstaller` (trigger, replay log,
//! install) — and end-of-run reports.

use std::sync::Arc;

use piggyback_core::incremental::{ChurnEffect, IncrementalScheduler};
use piggyback_core::scheduler::{Instance, ScheduleOutcome, ScheduleStats, Scheduler};
use piggyback_graph::{CsrGraph, NodeId};
use piggyback_obs::{set_ambient_events, Clock, EventKind};
use piggyback_workload::Rates;

use crate::config::{ReoptMode, ServeConfig};
use crate::epoch::ChunkedSets;
use crate::failover::Publisher;

/// A finished re-optimization, everything O(n + m) of it built on the
/// job's thread: the fresh scheduler on the frozen graph, its serving sets,
/// and the optimizer's run statistics.
pub(crate) struct ReoptResult {
    pub(crate) inc: IncrementalScheduler,
    pub(crate) sets: ChunkedSets,
    pub(crate) stats: ScheduleStats,
}

/// A fired re-optimization: [`reoptimize`] on its frozen instance, run on a
/// thread of its own in production and inline by the fault matrix; its
/// result is installed through the control plane's `land`.
pub(crate) type ReoptJob = Box<dyn FnOnce() -> ReoptResult + Send>;

/// The job's body: the optimizer, then the fresh scheduler and its sets
/// compiled straight from the optimized pair, so the install only replays
/// the churn logged meanwhile.
fn reoptimize(scheduler: &dyn Scheduler, graph: CsrGraph, rates: Rates) -> ReoptResult {
    let ScheduleOutcome { schedule, stats } = scheduler.schedule(&Instance::new(&graph, &rates));
    let sets = ChunkedSets::compile(&graph, &schedule);
    ReoptResult {
        inc: IncrementalScheduler::new(graph, rates, schedule),
        sets,
        stats,
    }
}

/// Applies churn to the incremental scheduler (§3.3: new edges served
/// directly, orphaned piggybacked edges re-served) and publishes it.
pub(crate) struct ChurnApplier {
    inc: IncrementalScheduler,
    publisher: Publisher,
    pub(crate) follows_applied: u64,
    pub(crate) unfollows_applied: u64,
    pub(crate) churn_rejected: u64,
    pub(crate) live_staleness_violations: u64,
    /// The first violation the live check found.
    pub(crate) live_violation: Option<String>,
}

impl ChurnApplier {
    pub(crate) fn new(inc: IncrementalScheduler, publisher: Publisher) -> Self {
        ChurnApplier {
            inc,
            publisher,
            follows_applied: 0,
            unfollows_applied: 0,
            churn_rejected: 0,
            live_staleness_violations: 0,
            live_violation: None,
        }
    }

    pub(crate) fn inc(&self) -> &IncrementalScheduler {
        &self.inc
    }

    /// Upon churn: applies and publishes it. `None` when the edge did not
    /// change, or a user is outside the rate model and cannot be priced.
    pub(crate) fn apply(&mut self, add: bool, u: NodeId, v: NodeId) -> Option<ChurnEffect> {
        let effect = if add {
            self.inc.add_edge_detailed(u, v)
        } else {
            self.inc.remove_edge_detailed(u, v)
        };
        if !effect.applied {
            self.churn_rejected += 1;
            return None;
        }
        if add {
            self.follows_applied += 1;
        } else {
            self.unfollows_applied += 1;
        }
        // Live bounded-staleness check: every edge this mutation reserved
        // for direct serving must be in the serving sets *now* — the
        // post-run sweep's invariant, caught the moment it would break.
        for &(x, y) in &effect.reserved_direct {
            if !self.inc.serves_edge_directly(x, y) {
                self.live_staleness_violations += 1;
                if let Some(m) = &self.publisher.metrics {
                    m.staleness_violations.inc();
                }
                self.live_violation.get_or_insert_with(|| {
                    format!(
                        "live: edge {x} -> {y} reserved direct but absent from serving sets \
                         after {} mutation ({u} -> {v})",
                        if add { "follow" } else { "unfollow" },
                    )
                });
            }
        }
        if let Some(m) = &self.publisher.metrics {
            m.cost_delta.set(self.inc.overlay_cost_delta());
        }
        self.publish(&effect);
        Some(effect)
    }

    /// Publishes an epoch rewriting exactly the users the mutation touched.
    fn publish(&self, effect: &ChurnEffect) {
        let snap = self.publisher.load();
        let push = effect
            .push_changed
            .iter()
            .map(|&x| (x, self.inc.push_targets(x)));
        let pull = effect
            .pull_changed
            .iter()
            .map(|&x| (x, self.inc.pull_sources(x)));
        self.publisher.publish(snap.with_updates(push, pull));
    }

    /// Upon an install: serve from `fresh`, whose sets are `sets`, from now
    /// on, under the current topology.
    pub(crate) fn rebase(&mut self, fresh: IncrementalScheduler, sets: ChunkedSets) {
        self.inc = fresh;
        self.publisher
            .publish(self.publisher.load().with_sets(sets));
    }

    /// The first bounded-staleness violation: the live check's, else the
    /// post-run sweep's over the whole schedule.
    pub(crate) fn validate(&self) -> Option<String> {
        let swept = || self.inc.validate().err().map(|e| e.to_string());
        self.live_violation.clone().or_else(swept)
    }
}

/// Background full re-optimization. While a job is out churn keeps
/// flowing; it is logged and replayed onto the fresh schedule at install.
pub(crate) struct ReoptInstaller {
    /// `None` once the optimizer declined the instance: it would decline
    /// every grown version of it too, so the freeze is never paid again.
    scheduler: Option<Arc<dyn Scheduler>>,
    mode: ReoptMode,
    /// Threshold mode's trigger, a fraction of the base cost.
    threshold: f64,
    /// Continuous mode's amortized wall-time budget fraction.
    budget_frac: f64,
    /// Continuous mode's budget gate: the next job fires no sooner.
    next_at_ns: u64,
    /// Clock reading when the job out was fired (`None`: none is out).
    fired_at_ns: Option<u64>,
    /// Mutations applied since the job out was fired.
    replay_log: Vec<(bool, NodeId, NodeId)>,
    clock: Clock,
    publisher: Publisher,
}

impl ReoptInstaller {
    pub(crate) fn new(
        scheduler: Arc<dyn Scheduler>,
        config: &ServeConfig,
        clock: Clock,
        publisher: Publisher,
    ) -> Self {
        ReoptInstaller {
            scheduler: Some(scheduler),
            mode: config.reopt_mode,
            threshold: config.reopt_threshold,
            budget_frac: config.reopt_budget_frac.clamp(0.01, 1.0),
            next_at_ns: 0,
            fired_at_ns: None,
            replay_log: Vec::new(),
            clock,
            publisher,
        }
    }

    pub(crate) fn in_flight(&self) -> bool {
        self.fired_at_ns.is_some()
    }

    /// Upon applied churn: logs it while a job is out, else fires one once
    /// degradation crosses the threshold (threshold mode) or the amortized
    /// budget allows (continuous mode: the graph just changed).
    pub(crate) fn upon_churn(
        &mut self,
        add: bool,
        u: NodeId,
        v: NodeId,
        inc: &IncrementalScheduler,
    ) -> Option<ReoptJob> {
        if self.in_flight() {
            self.replay_log.push((add, u, v));
            return None;
        }
        let due = match self.mode {
            ReoptMode::Threshold => {
                let base = inc.base_cost();
                base > 0.0 && inc.overlay_cost_delta() > self.threshold * base
            }
            ReoptMode::Continuous => self.clock.now_ns() >= self.next_at_ns,
        };
        let scheduler = Arc::clone(self.scheduler.as_ref().filter(|_| due)?);
        // Still under the control plane's lock: moving the freeze out of it
        // needs a CSR base the incremental scheduler shares.
        let graph = inc.freeze_graph();
        let rates = inc.rates().clone();
        if !scheduler.supports(&Instance::new(&graph, &rates)) {
            self.scheduler = None;
            return None;
        }
        self.fired_at_ns = Some(self.clock.now_ns());
        self.publisher.event(EventKind::ReoptStart {
            cost_before: inc.cost(),
            trigger_delta: inc.overlay_cost_delta(),
        });
        let events = self.publisher.metrics.as_ref().map(|m| m.events().clone());
        Some(Box::new(move || {
            // The event ring is the running thread's ambient log, so the
            // optimizer's fan-out pool records its dispatches into it.
            let _guard = events.as_ref().map(set_ambient_events);
            reoptimize(&*scheduler, graph, rates)
        }))
    }

    /// Upon a landed job: the fresh scheduler — the job's, with the churn
    /// logged since the fire replayed onto it — and its sets, the job's
    /// with only the users that replay touched recompiled.
    pub(crate) fn install(&mut self, result: ReoptResult) -> (IncrementalScheduler, ChunkedSets) {
        let ReoptResult {
            inc: mut fresh,
            sets,
            stats,
        } = result;
        let (mut push, mut pull) = (Vec::new(), Vec::new());
        for (add, u, v) in self.replay_log.drain(..) {
            let effect = if add {
                fresh.add_edge_detailed(u, v)
            } else {
                fresh.remove_edge_detailed(u, v)
            };
            push.extend(effect.push_changed);
            pull.extend(effect.pull_changed);
        }
        for touched in [&mut push, &mut pull] {
            touched.sort_unstable();
            touched.dedup();
        }
        let (sets, _) = sets.with_updates(
            push.into_iter().map(|x| (x, fresh.push_targets(x))),
            pull.into_iter().map(|x| (x, fresh.pull_sources(x))),
        );
        let fired_at_ns = self
            .fired_at_ns
            .take()
            .expect("a result answers a fired job");
        let elapsed = self.clock.since(fired_at_ns);
        // Amortized budget: a run of W may occupy at most `frac` of wall
        // time, so the next fires no sooner than W * (1 - frac) / frac
        // from now (frac = 1 re-fires immediately).
        let cooloff = elapsed.mul_f64((1.0 - self.budget_frac) / self.budget_frac);
        self.next_at_ns = self.clock.after(cooloff);
        if let Some(m) = &self.publisher.metrics {
            m.reopt_stream_passes.add(stats.iterations as u64);
            m.reopt_budget_spent_ms.add(elapsed.as_millis() as u64);
            m.reopt_hubs_admitted.add(stats.hubs_applied as u64);
            m.reopt_hubs_evicted.add(stats.hubs_evicted as u64);
        }
        self.publisher.event(EventKind::ReoptEnd {
            cost_after: fresh.cost(),
            wall_ms: elapsed.as_secs_f64() * 1e3,
        });
        (fresh, sets)
    }
}

/// What the control plane did over the runtime's lifetime. The figures of
/// the failure lifecycle, rebalances and re-optimizations are folded from
/// the control-plane events as they are recorded, metrics on or off.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChurnReport {
    /// Follows applied (excluding duplicates of existing edges).
    pub follows_applied: u64,
    /// Unfollows applied (excluding misses).
    pub unfollows_applied: u64,
    /// Churn operations that were no-ops (duplicate follow / missing edge)
    /// or arrived once shutdown had begun.
    pub churn_rejected: u64,
    /// Background full re-optimizations installed (`ReoptEnd` events).
    pub reopts: u64,
    /// Live topology rebalances published (`Rebalance` events).
    pub rebalances: u64,
    /// User views re-homed to a different shard across all rebalances.
    pub users_migrated: u64,
    /// The rebalance trigger's accumulator: cross-server message rate
    /// added by churn since the last rebalance or re-optimization.
    pub cross_cost_churned: f64,
    /// Optimized base cost of the *latest* snapshot.
    pub base_cost: f64,
    /// Running incremental cost at shutdown.
    pub final_cost: f64,
    /// Bounded-staleness violations caught *live*: an edge an applied
    /// mutation switched to direct serving missing from the serving sets
    /// (also the `churn.staleness_violations` counter).
    pub live_staleness_violations: u64,
    /// Failovers executed (`Failover` events): dead primaries re-pointed at
    /// surviving replicas.
    pub failovers: u64,
    /// Users homed on a shard when it failed over, and re-homed by it.
    pub users_failed_over: u64,
    /// Views a topology change found no live, caught-up copy of — data
    /// loss, each view counted once. Zero under domain-spread placement
    /// when at most one failure domain dies.
    pub views_lost: u64,
    /// Dead shards that answered heartbeats again and began catching up.
    pub rejoins: u64,
    /// Shards promoted back to read targets after a catch-up.
    pub readmits: u64,
    /// Detection phase, summed over failovers: first missed heartbeat (or
    /// kill) to `Down`. Plus `failover_ms`, the unavailability closed.
    pub detection_ms: f64,
    /// Failover phase: `Down` to the repaired topology's publish.
    pub failover_ms: f64,
    /// Readmit phase: the backlog opening (at a rejoin, or on an
    /// unreachable shard owed views) to the shard serving reads again —
    /// anti-entropy plus the staleness-budget gate.
    pub readmit_ms: f64,
    /// First bounded-staleness violation found — live (per-mutation check)
    /// or by the post-run validation, whichever fired first. `None` is the
    /// paper's invariant: every current edge is served by push, pull, or
    /// an intact hub pair.
    pub staleness_violation: Option<String>,
}

impl ChurnReport {
    /// Whether the post-run validation found the schedule fully feasible.
    pub fn zero_violations(&self) -> bool {
        self.staleness_violation.is_none()
    }

    /// Adds one recorded control-plane event to the figures it carries.
    pub(crate) fn fold(&mut self, kind: &EventKind) {
        match *kind {
            EventKind::Failover {
                moved,
                detected_ms,
                wall_ms,
                ..
            } => {
                self.failovers += 1;
                self.users_failed_over += moved as u64;
                self.detection_ms += detected_ms;
                self.failover_ms += wall_ms;
            }
            EventKind::Rejoin { .. } => self.rejoins += 1,
            EventKind::Readmit { wall_ms, .. } => {
                self.readmits += 1;
                self.readmit_ms += wall_ms;
            }
            EventKind::Rebalance { moved, .. } => {
                self.rebalances += 1;
                self.users_migrated += moved as u64;
            }
            EventKind::ReoptEnd { .. } => self.reopts += 1,
            _ => {}
        }
    }
}

/// Full end-of-run report from [`ServeRuntime::shutdown`].
///
/// [`ServeRuntime::shutdown`]: crate::runtime::ServeRuntime::shutdown
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// The control plane's accounting — churn, re-optimization, rebalance,
    /// the failure lifecycle — and the post-run staleness validation.
    pub churn: ChurnReport,
    /// Epoch of the final published schedule snapshot (number of swaps).
    pub final_epoch: u64,
    /// Final metrics capture (registry + per-shard scrape + queue/pool
    /// gauges), taken just before teardown. `None` when the runtime ran
    /// with [`ServeConfig::metrics`](crate::ServeConfig) off.
    pub metrics: Option<piggyback_obs::Snapshot>,
    /// Replica slots per view the run served with (1 = no replication).
    pub replication: usize,
    /// High-water heartbeat silence among replicas that actually served
    /// reads — the worst legal staleness any answer could have carried.
    pub max_replica_lag_ms: f64,
}
