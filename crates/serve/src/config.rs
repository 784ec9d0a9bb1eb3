//! Runtime configuration.

use piggyback_store::fault::FaultPlan;
use piggyback_store::topology::PartitionStrategy;
use std::time::Duration;

/// The shard-RPC plane the serving clients speak: only caller-runs is
/// left. Ignored by the runtime; kept only because the benchmark
/// (`benchmark/src/world.rs`) still names it; delete it together with
/// that use.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RpcMode {
    /// The coalesced plane executed caller-side
    /// ([`Transport::Direct`](piggyback_store::worker::Transport)): one
    /// batch per touched shard per operation, run inline on the issuing
    /// thread. Its query batches run in sequence, so each carries the
    /// running k-th newest as a floor and a shard ships only tuples that
    /// can still enter the feed.
    #[default]
    Direct,
}

/// When the churn manager re-runs the full optimizer in the background.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReoptMode {
    /// Fire once incremental cost degradation exceeds
    /// [`ServeConfig::reopt_threshold`] — the lazy mode: cheap while churn
    /// is light, but the schedule rides the full degradation ramp before
    /// every re-optimization lands.
    #[default]
    Threshold,
    /// Re-optimize continuously: fire again as soon as the previous run
    /// lands and the amortized budget allows, regardless of degradation.
    /// Built for cheap re-optimizers (`chitchat-stream`) whose one-pass
    /// sweep makes "always re-optimizing" affordable; the schedule then
    /// hugs the freshly-optimized cost instead of sawtoothing up to the
    /// threshold. Budgeted by [`ServeConfig::reopt_budget_frac`].
    Continuous,
}

/// Configuration of the online serving runtime.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Number of (logical) data-store servers.
    pub shards: usize,
    /// Ignored: the runtime spawns no shard worker. Kept only because the
    /// benchmark (`benchmark/src/world.rs`) still names it; delete it
    /// together with that use.
    pub workers: usize,
    /// Events returned per event-stream query (the paper uses 10).
    pub top_k: usize,
    /// Per-view trim capacity (0 = unbounded).
    pub view_capacity: usize,
    /// Placement seed (partitioner determinism / hash placement).
    pub placement_seed: u64,
    /// How user views are partitioned onto the shards at boot and on every
    /// live rebalance.
    pub partition: PartitionStrategy,
    /// Theorem 1's staleness bound as a runtime knob: how long a replica
    /// may have been silent on heartbeats and still serve reads (a
    /// `Suspect` replica inside the budget is readable; a rejoined shard
    /// is readmitted only once its silence fits it). Zero = a `Suspect`
    /// replica is never read and readmission has no extra gate.
    pub staleness_budget: Duration,
    /// Fire a background full re-optimization once the incremental
    /// schedule's cost degradation exceeds this fraction of the optimized
    /// base cost (`f64::INFINITY` disables re-optimization). Only
    /// consulted in [`ReoptMode::Threshold`].
    pub reopt_threshold: f64,
    /// Threshold-triggered or continuous re-optimization (see
    /// [`ReoptMode`]).
    pub reopt_mode: ReoptMode,
    /// Amortized wall-time budget of [`ReoptMode::Continuous`]: the
    /// fraction of churn-manager wall time the background optimizer may
    /// occupy. After a re-optimization that ran `W` ms, the next fires no
    /// sooner than `W * (1 - frac) / frac` ms later, so a frac of `0.5`
    /// keeps the optimizer at most half-busy while staying continuous.
    pub reopt_budget_frac: f64,
    /// Re-partition and live-migrate views once the cross-server message
    /// rate added by churn exceeds this fraction of the optimized base
    /// cost (`f64::INFINITY` disables rebalancing).
    pub rebalance_threshold: f64,
    /// Ignored (see [`RpcMode`]): every client runs its batches inline.
    pub rpc: RpcMode,
    /// Whether the runtime carries live metrics + event tracing
    /// ([`ServeMetrics`](crate::metrics::ServeMetrics)). On by default —
    /// the instruments are cheap enough to leave on (CI gates the serving
    /// overhead at ≤ 5%); `false` exists for that overhead measurement.
    pub metrics: bool,
    /// Replica slots per view (1 = primary only, the pre-replication
    /// plane byte for byte). Must not exceed the number of distinct
    /// failure domains (the topology rejects co-locating replicas).
    pub replication: usize,
    /// Failure domains (racks/zones) the shards are spread over, as a
    /// contiguous-block map (see
    /// [`Topology::block_domains`](piggyback_store::topology::Topology)).
    /// `0` = trivial: every shard its own domain, the pre-domain slot
    /// formula bit for bit. With a non-trivial count, replica slots are
    /// domain-spread so a whole-domain kill can never destroy every copy
    /// of a view.
    pub domains: usize,
    /// Heartbeat cadence of the failure detector, ticked by the runtime's
    /// ticker thread (ZERO = detection off and no ticker; a dead shard is
    /// then only noticed at the send seam). Each tick credits the probe
    /// the last one sent and sends the next; a shard is `Suspect` after 2
    /// silent ticks and `Down` — the failover trigger — after 4.
    pub heartbeat_interval: Duration,
    /// Fault injection on the transport (`None` = faultless).
    pub faults: Option<FaultPlan>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 8,
            workers: 4,
            top_k: 10,
            view_capacity: 128,
            placement_seed: 0,
            partition: PartitionStrategy::Hash,
            staleness_budget: Duration::ZERO,
            reopt_threshold: 0.2,
            reopt_mode: ReoptMode::Threshold,
            reopt_budget_frac: 0.5,
            rebalance_threshold: f64::INFINITY,
            rpc: RpcMode::Direct,
            metrics: true,
            replication: 1,
            domains: 0,
            heartbeat_interval: Duration::ZERO,
            faults: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ServeConfig::default();
        assert!(c.shards >= 1 && c.top_k >= 1);
        assert!(c.reopt_threshold > 0.0);
        // Re-optimization defaults to the paper's lazy trigger; continuous
        // mode is the opt-in for cheap re-optimizers.
        assert_eq!(c.reopt_mode, ReoptMode::Threshold);
        assert!(c.reopt_budget_frac > 0.0 && c.reopt_budget_frac <= 1.0);
        assert_eq!(c.staleness_budget, Duration::ZERO);
        // Defaults preserve the paper's baseline behavior: hash placement,
        // no live rebalancing.
        assert_eq!(c.partition, PartitionStrategy::Hash);
        assert!(c.rebalance_threshold.is_infinite());
        assert!(c.metrics);
        // Resilience is strictly opt-in: replication 1, no heartbeats, no
        // faults, trivial domains means the pre-replication data plane,
        // unchanged.
        assert_eq!(c.replication, 1);
        assert_eq!(c.domains, 0, "trivial failure domains by default");
        assert_eq!(c.heartbeat_interval, Duration::ZERO);
        assert!(c.faults.is_none());
    }
}
