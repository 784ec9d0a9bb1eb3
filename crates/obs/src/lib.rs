//! `piggyback-obs`: live metrics and event tracing for the piggybacking
//! runtime.
//!
//! The paper's §4.3 claim — "latency per request is very low unless the
//! system becomes saturated" — is only checkable on a *running* system if
//! the system can report its own latency distribution, queue depths, and
//! cache behaviour while serving. This crate provides that layer, in two
//! halves:
//!
//! - **Instruments** ([`Counter`], [`Gauge`], [`ConcurrentHistogram`]):
//!   lock-free, clonable handles cheap enough to leave on in release
//!   serving paths. Registered by name in a [`Registry`], scraped as a
//!   point-in-time [`Snapshot`] with delta/merge semantics so periodic
//!   dumps can report rates, not just lifetime totals.
//! - **Events** ([`EventLog`]): a bounded ring of structured control-plane
//!   transitions (epoch swaps, background re-optimizations, rebalances,
//!   failovers, fan-out dispatches) that would otherwise vanish between
//!   a run's start and its final report.
//!
//! Both the ring and every control-plane component above this crate read
//! time from one injected [`Clock`]: the monotonic clock in production, a
//! hand-advanced one in tests.
//!
//! The sequential [`LatencyHistogram`] lives here too (moved from
//! `piggyback-store`, which re-exports it for compatibility), so harness-
//! side and server-side percentiles share one bucketing scheme and merge
//! freely.

pub mod clock;
pub mod events;
pub mod histogram;
pub mod instruments;
pub mod registry;
pub mod telemetry;

pub use clock::Clock;
pub use events::{ambient_events, set_ambient_events, AmbientGuard, Event, EventKind, EventLog};
pub use histogram::{ConcurrentHistogram, LatencyHistogram, MAX_SAMPLE_NS};
pub use instruments::{Counter, Gauge};
pub use registry::{Instrument, MetricValue, Registry, Snapshot};
pub use telemetry::FanoutTelemetry;
