//! The serving runtime's instrument bundle.
//!
//! One [`ServeMetrics`] per runtime: a [`Registry`] holding the
//! front-end's per-operation latency histograms and counters plus the
//! churn manager's gauges, and an [`EventLog`] recording the control-plane
//! transitions (epoch swaps, re-optimizations, rebalances, failovers,
//! fan-out dispatches). Everything here is designed to stay on in
//! production serving: the hot path touches only lock-free instruments
//! through pre-resolved handles — no name lookup, no registry lock.
//!
//! Clients do not record through the shared handles directly: each
//! [`ServeClient`](crate::runtime::ServeClient) draws an `OpRecorder` —
//! cloned counter handles, each clone writing its own cache-line stripe,
//! and shared latency histograms that stripe themselves by recording
//! thread — so concurrent clients rarely contend on an instrument line.

use std::time::Duration;

use piggyback_obs::{Clock, ConcurrentHistogram, Counter, EventLog, Gauge, Registry, Snapshot};
use std::sync::Arc;

/// How many control-plane events the runtime retains. Epoch swaps dominate
/// under churn; 256 keeps the last few seconds of a busy run.
const EVENT_CAPACITY: usize = 256;

/// Instrument bundle owned by one [`ServeRuntime`](crate::ServeRuntime).
#[derive(Debug)]
pub struct ServeMetrics {
    registry: Registry,
    events: EventLog,
    share_latency: Arc<ConcurrentHistogram>,
    query_latency: Arc<ConcurrentHistogram>,
    churn_latency: Arc<ConcurrentHistogram>,
    shares: Counter,
    queries: Counter,
    follows: Counter,
    unfollows: Counter,
    messages: Counter,
    /// Live bounded-staleness violations found by the churn manager's
    /// per-mutation check (each applied mutation's direct-served edges
    /// must be in the serving sets *immediately*).
    pub(crate) staleness_violations: Counter,
    /// Current incremental cost degradation vs the optimized base
    /// (`IncrementalScheduler::overlay_cost_delta`).
    pub(crate) cost_delta: Gauge,
    /// Cross-server message rate accumulated toward the rebalance trigger.
    pub(crate) cross_cost: Gauge,
    /// Largest current heartbeat silence among shards still considered
    /// readable — how far behind a legally-served replica could be.
    pub(crate) replica_lag: Gauge,
    /// Shards currently not `Up` in the failure detector.
    pub(crate) health_suspect: Gauge,
    /// Failovers executed, bumped where each `Failover` event is recorded
    /// (the live twin of the report's `failovers`).
    pub(crate) failover_count: Counter,
    /// Optimizer passes spent by background re-optimizations (streaming
    /// schedulers report their sweep count; batch schedulers their
    /// iteration count).
    pub(crate) reopt_stream_passes: Counter,
    /// Wall-clock milliseconds spent inside background re-optimizations —
    /// the numerator of the continuous mode's amortized budget.
    pub(crate) reopt_budget_spent_ms: Counter,
    /// Hubs admitted across background re-optimizations.
    pub(crate) reopt_hubs_admitted: Counter,
    /// Hubs evicted (streaming revisit-buffer evictions / batch prunes)
    /// across background re-optimizations.
    pub(crate) reopt_hubs_evicted: Counter,
}

impl ServeMetrics {
    /// Fresh registry + event ring (stamped from `clock`) with every
    /// serving instrument pre-registered (the instrument catalog in the
    /// README's "Observability" section is generated from these names).
    pub fn new(clock: Clock) -> Self {
        let registry = Registry::new();
        ServeMetrics {
            share_latency: registry.histogram("serve.latency.share"),
            query_latency: registry.histogram("serve.latency.query"),
            churn_latency: registry.histogram("serve.latency.churn"),
            shares: registry.counter("serve.ops.shares"),
            queries: registry.counter("serve.ops.queries"),
            follows: registry.counter("serve.ops.follows"),
            unfollows: registry.counter("serve.ops.unfollows"),
            messages: registry.counter("serve.store_messages"),
            staleness_violations: registry.counter("churn.staleness_violations"),
            cost_delta: registry.gauge("churn.cost_delta"),
            cross_cost: registry.gauge("churn.cross_cost"),
            replica_lag: registry.gauge("replica.lag"),
            health_suspect: registry.gauge("health.suspect"),
            failover_count: registry.counter("failover.count"),
            reopt_stream_passes: registry.counter("reopt.stream_passes"),
            reopt_budget_spent_ms: registry.counter("reopt.budget_spent_ms"),
            reopt_hubs_admitted: registry.counter("reopt.hubs_admitted"),
            reopt_hubs_evicted: registry.counter("reopt.hubs_evicted"),
            events: EventLog::new(EVENT_CAPACITY, clock),
            registry,
        }
    }

    /// The instrument registry (for snapshots and ad-hoc registration).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The control-plane event ring.
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// Point-in-time capture of every registered instrument. The runtime's
    /// [`stats_snapshot`](crate::ServeRuntime::stats_snapshot) folds the
    /// shard scrape and queue/pool gauges on top of this.
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// Per-client recording handles: counter clones land on fresh stripes.
    pub(crate) fn recorder(&self) -> OpRecorder {
        OpRecorder {
            share_latency: Arc::clone(&self.share_latency),
            query_latency: Arc::clone(&self.query_latency),
            churn_latency: Arc::clone(&self.churn_latency),
            shares: self.shares.clone(),
            queries: self.queries.clone(),
            follows: self.follows.clone(),
            unfollows: self.unfollows.clone(),
            messages: self.messages.clone(),
        }
    }
}

/// One client's instrument handles (hot path: every record is a relaxed
/// atomic op on a stripe this client, or its thread, rarely shares).
pub(crate) struct OpRecorder {
    share_latency: Arc<ConcurrentHistogram>,
    query_latency: Arc<ConcurrentHistogram>,
    churn_latency: Arc<ConcurrentHistogram>,
    shares: Counter,
    queries: Counter,
    follows: Counter,
    unfollows: Counter,
    messages: Counter,
}

impl OpRecorder {
    pub(crate) fn share(&self, elapsed: Duration, messages: u64) {
        self.share_latency.record(elapsed);
        self.shares.inc();
        self.messages.add(messages);
    }

    pub(crate) fn query(&self, elapsed: Duration, messages: u64) {
        self.query_latency.record(elapsed);
        self.queries.inc();
        self.messages.add(messages);
    }

    pub(crate) fn churn(&self, elapsed: Duration, add: bool) {
        self.churn_latency.record(elapsed);
        if add {
            self.follows.inc();
        } else {
            self.unfollows.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_feeds_the_shared_registry() {
        let m = ServeMetrics::new(Clock::monotonic());
        let a = m.recorder();
        let b = m.recorder();
        a.share(Duration::from_micros(10), 3);
        b.share(Duration::from_micros(20), 2);
        a.query(Duration::from_micros(5), 4);
        b.churn(Duration::from_micros(50), true);
        b.churn(Duration::from_micros(60), false);
        let snap = m.snapshot();
        assert_eq!(snap.counter("serve.ops.shares"), 2);
        assert_eq!(snap.counter("serve.ops.queries"), 1);
        assert_eq!(snap.counter("serve.ops.follows"), 1);
        assert_eq!(snap.counter("serve.ops.unfollows"), 1);
        assert_eq!(snap.counter("serve.store_messages"), 9);
        assert_eq!(snap.histogram("serve.latency.share").unwrap().count(), 2);
        assert_eq!(snap.histogram("serve.latency.churn").unwrap().count(), 2);
    }

    #[test]
    fn catalog_is_registered_up_front() {
        let m = ServeMetrics::new(Clock::monotonic());
        let snap = m.snapshot();
        for name in [
            "serve.latency.share",
            "serve.latency.query",
            "serve.latency.churn",
            "serve.ops.shares",
            "serve.ops.queries",
            "serve.ops.follows",
            "serve.ops.unfollows",
            "serve.store_messages",
            "churn.staleness_violations",
            "churn.cost_delta",
            "churn.cross_cost",
            "replica.lag",
            "health.suspect",
            "failover.count",
            "reopt.stream_passes",
            "reopt.budget_spent_ms",
            "reopt.hubs_admitted",
            "reopt.hubs_evicted",
        ] {
            assert!(snap.get(name).is_some(), "missing instrument {name}");
        }
        assert_eq!(m.events().capacity(), EVENT_CAPACITY);
    }
}
