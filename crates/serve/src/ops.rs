//! Front-end operation messages and end-of-run reports.
//!
//! The runtime accepts the full [`piggyback_workload::Op`] alphabet:
//! `Share`/`Query` flow straight to the shard workers through the serving
//! snapshot, while `Follow`/`Unfollow` are routed over a bounded channel to
//! the churn manager, which owns the incremental scheduler.

use crossbeam::channel::Sender;
use piggyback_core::schedule::Schedule;
use piggyback_core::scheduler::ScheduleStats;
use piggyback_graph::{CsrGraph, NodeId};

/// Messages consumed by the churn manager thread.
pub(crate) enum ChurnMsg {
    /// Edge `u → v` appears (`v` starts following `u`).
    Follow {
        u: NodeId,
        v: NodeId,
        /// Acked with whether the edge was newly applied.
        done: Sender<bool>,
    },
    /// Edge `u → v` disappears.
    Unfollow {
        u: NodeId,
        v: NodeId,
        done: Sender<bool>,
    },
    /// A background full re-optimization finished. Boxed: the payload is a
    /// whole graph + schedule, far larger than the churn variants that
    /// dominate the channel.
    ReoptDone(Box<ReoptResult>),
    /// Finish outstanding work, validate, and report.
    Shutdown { done: Sender<ChurnReport> },
}

/// Payload of a finished background re-optimization.
pub(crate) struct ReoptResult {
    /// The frozen graph snapshot the optimizer ran on.
    pub graph: CsrGraph,
    /// The fresh schedule for that snapshot.
    pub schedule: Schedule,
    /// The optimizer's run statistics, folded into the `reopt.*`
    /// instruments when the result is installed.
    pub stats: ScheduleStats,
}

/// What the churn manager did over the runtime's lifetime.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChurnReport {
    /// Follows applied (excluding duplicates of existing edges).
    pub follows_applied: u64,
    /// Unfollows applied (excluding misses).
    pub unfollows_applied: u64,
    /// Churn operations that were no-ops (duplicate follow / missing edge).
    pub churn_rejected: u64,
    /// Background full re-optimizations completed and swapped in.
    pub reopts: u64,
    /// Live topology rebalances (re-partition + view migration) published.
    pub rebalances: u64,
    /// User views re-homed to a different shard across all rebalances.
    pub users_migrated: u64,
    /// Cross-server message rate added by churn since the last rebalance
    /// (the rebalance trigger's accumulator, reported for observability).
    pub cross_cost_churned: f64,
    /// Optimized base cost of the *latest* snapshot.
    pub base_cost: f64,
    /// Running incremental cost at shutdown.
    pub final_cost: f64,
    /// Bounded-staleness violations caught *live* by the churn manager:
    /// after every applied mutation, each edge the mutation switched to
    /// direct serving must already be in the serving sets. Also exported
    /// as the `churn.staleness_violations` counter while running.
    pub live_staleness_violations: u64,
    /// Failovers executed: dead primaries re-pointed at surviving
    /// replicas through an epoch swap.
    pub failovers: u64,
    /// Users whose primary moved across all failovers.
    pub users_failed_over: u64,
    /// Total unavailability the failovers closed: per dead shard, the
    /// wall time from its first missed heartbeat (or kill) to the new
    /// topology epoch being published.
    pub failover_unavailable_ms: f64,
    /// Views for which **no** surviving replica slot existed at failover
    /// time — data loss. Zero under domain-spread placement when at most
    /// one failure domain dies; the domain-blind control run measures
    /// how many views a correlated kill actually destroys without it.
    pub views_lost: u64,
    /// Dead shards that rejoined (answered heartbeats again) and entered
    /// anti-entropy catch-up.
    pub rejoins: u64,
    /// Rejoined shards promoted back to read targets after catch-up.
    pub readmits: u64,
    /// Detection phase across failovers: first missed heartbeat (or
    /// kill) to the `Down` verdict that triggered failover.
    pub detection_ms: f64,
    /// Failover phase: `Down` verdict to the repaired topology epoch
    /// being published.
    pub failover_ms: f64,
    /// Catch-up phase across rejoins: rejoin detection to the last
    /// anti-entropy batch landing.
    pub catchup_ms: f64,
    /// Readmit phase across rejoins: rejoin detection to the shard being
    /// promoted back to a read target (catch-up plus the final
    /// staleness-budget check).
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
}

/// Full end-of-run report from [`ServeRuntime::shutdown`].
///
/// [`ServeRuntime::shutdown`]: crate::runtime::ServeRuntime::shutdown
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Churn-manager accounting — churn, re-optimization, rebalance and
    /// the failure lifecycle (failovers, rejoins, phase timings) — and the
    /// post-run staleness validation.
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
