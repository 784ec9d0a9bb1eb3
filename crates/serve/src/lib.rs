//! # piggyback-serve — the online feed-serving runtime
//!
//! The paper's prototype (§4.3) replays a fixed trace against a *static*
//! schedule. A production system serves live traffic: follows arrive
//! mid-flight, rates drift, and the schedule must be maintained online
//! (§3.3) without stopping the serving path. This crate composes the
//! existing layers into exactly that system:
//!
//! * [`ops`] — the front end: an interleaved stream of `Share`, `Query`,
//!   `Follow` and `Unfollow` operations (the [`piggyback_workload::Op`]
//!   alphabet) entering via bounded channels.
//! * [`epoch`] — the epoch-swapped schedule handle: per-user push/pull
//!   sets compiled from a [`Schedule`](piggyback_core::schedule::Schedule),
//!   published as immutable snapshots that each client caches and
//!   revalidates per request with one atomic load of a publish counter.
//!   A request uses exactly one snapshot end-to-end, so concurrent swaps
//!   can never show it a mix of two schedules.
//! * [`runtime`] — the sharded serving core ([`piggyback_store`] shards
//!   behind one mutex each; a client runs one batched message per touched
//!   server inline, on its own thread) plus the control plane, run under
//!   one lock by the client that churns:
//!   `Follow`/`Unfollow` flow through
//!   [`IncrementalScheduler`](piggyback_core::incremental::IncrementalScheduler),
//!   each mutation publishes a fresh epoch, and when the accumulated
//!   overlay cost degradation crosses a configurable threshold a full
//!   re-optimization runs on a background thread through any registered
//!   [`Scheduler`](piggyback_core::scheduler::Scheduler), swapping the
//!   fresh schedule in atomically.
//! * [`harness`] — the load harness: closed-loop and open-loop (fixed
//!   arrival rate) generators reporting throughput plus p50/p95/p99
//!   latency via the [`piggyback_obs::LatencyHistogram`].
//! * [`metrics`] — the runtime's live instrument bundle
//!   ([`piggyback_obs`]): per-operation latency histograms and counters,
//!   churn gauges, and the control-plane event ring. On by default
//!   ([`ServeConfig::metrics`]); scraped over the wire via
//!   [`ServeRuntime::stats_snapshot`] or dumped periodically by the
//!   harness (`stats_interval`).
//! * Fault tolerance — with [`ServeConfig::replication`] ≥ 2 writes fan
//!   out to every replica slot, reads route to the healthiest replica, and
//!   a heartbeat failure detector ([`piggyback_store::health`]) classifies
//!   shards Up/Suspect/Down. A ticker thread *calls* the failover
//!   controller (the private `failover` module) at the heartbeat cadence:
//!   it owns the shard lifecycle — probing, routing around dead primaries
//!   through the same epoch-swap machinery after a non-destructive
//!   catch-up copy, rejoin and budgeted anti-entropy — one state record
//!   per shard. Every instant the control plane reads comes from one
//!   [`piggyback_obs::Clock`], so every control-plane entry point runs by
//!   hand on a manual clock in the crate's fault matrix
//!   (`src/runtime/fault_matrix.rs`): one table of seeded scenario rows
//!   driving the store's fault injector ([`piggyback_store::fault`]).

pub mod config;
pub mod epoch;
mod failover;
pub mod harness;
pub mod metrics;
pub mod ops;
pub mod runtime;

pub use config::{ReoptMode, RpcMode, ServeConfig};
pub use epoch::{EpochHandle, EpochReader, ServingSchedule};
pub use harness::{run_harness, Arrival, HarnessConfig, HarnessReport};
pub use metrics::ServeMetrics;
pub use ops::{ChurnReport, ServeReport};
pub use runtime::{ServeClient, ServeRuntime};
