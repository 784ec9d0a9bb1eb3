//! # social-piggybacking
//!
//! A Rust implementation of **"Piggybacking on Social Networks"**
//! (Gionis, Junqueira, Leroy, Serafini, Weber — PVLDB 6(6), 2013).
//!
//! Social networking systems assemble per-user event streams from
//! materialized views held in back-end data stores. This library computes
//! *request schedules* — per-edge push/pull assignments — that minimize the
//! rate of view queries and updates, including schedules that exploit
//! **social piggybacking**: serving the edge `u → v` through a common
//! contact `w` (`u` pushes to `w`'s view, `v` pulls from it), which a
//! clustered social graph offers in abundance.
//!
//! The facade re-exports the workspace crates:
//!
//! * [`graph`] — CSR social-graph substrate, generators, sampling, stats.
//! * [`workload`] — production/consumption-rate models and request traces.
//! * [`core`] — schedules, the cost model, the FEEDINGFRENZY baseline, the
//!   CHITCHAT approximation algorithm, the PARALLELNOSY heuristic, and
//!   incremental maintenance.
//! * [`store`] — the memcached-style prototype store: views, shards, the
//!   cluster topology and its partitioners, the shard-worker protocol.
//! * [`serve`] — the online feed-serving runtime: live follow/unfollow
//!   churn through the §3.3 incremental maintenance path, epoch-swapped
//!   schedules, background re-optimization, replicated shards with
//!   failover, and a latency-percentile load harness.
//!
//! # Quickstart
//!
//! Every optimizer implements the [`Scheduler`](core::scheduler::Scheduler)
//! trait, so comparing algorithms is a loop over the registry:
//!
//! ```
//! use social_piggybacking::prelude::*;
//!
//! // A small clustered social graph and a log-degree workload (§4.1).
//! let graph = gen::flickr_like(500, 42);
//! let rates = Rates::log_degree(&graph, 5.0);
//! let inst = Instance::new(&graph, &rates);
//!
//! // The state-of-the-art baseline (Silberstein et al.) ...
//! let ff = Hybrid.schedule(&inst);
//! // ... and a piggybacking schedule, through the same trait.
//! let pn = ParallelNosy::default().schedule(&inst);
//!
//! let improvement = predicted_improvement(&graph, &rates, &pn.schedule, &ff.schedule);
//! assert!(improvement >= 1.0); // piggybacking never loses under the cost model
//!
//! // Or run everything that handles this instance:
//! for s in &scheduler::registry() {
//!     if s.supports(&inst) {
//!         let out = s.schedule(&inst);
//!         assert!(validate_bounded_staleness(&graph, &out.schedule).is_ok());
//!     }
//! }
//! ```

pub use piggyback_core as core;
pub use piggyback_graph as graph;
pub use piggyback_serve as serve;
pub use piggyback_store as store;
pub use piggyback_workload as workload;

/// Convenient glob-import surface for examples and applications.
pub mod prelude {
    pub use piggyback_core::active::ActiveSchedule;
    pub use piggyback_core::baseline::{hybrid_schedule, pull_all_schedule, push_all_schedule};
    pub use piggyback_core::chitchat::{ChitChat, ChitChatResult};
    pub use piggyback_core::cost::{
        predicted_improvement, predicted_throughput, schedule_cost, CostModel,
    };
    pub use piggyback_core::incremental::IncrementalScheduler;
    pub use piggyback_core::optimal::optimal_schedule;
    pub use piggyback_core::parallelnosy::{ParallelNosy, ParallelNosyResult};
    pub use piggyback_core::schedule::{EdgeAssignment, Schedule};
    pub use piggyback_core::schedule_io::{load_schedule, save_schedule};
    pub use piggyback_core::scheduler::{
        self, Exact, Hybrid, Instance, PullAll, PushAll, ScheduleOutcome, ScheduleStats, Scheduler,
    };
    pub use piggyback_core::staleness::{check_semantic_staleness, random_actions};
    pub use piggyback_core::validate::validate_bounded_staleness;
    pub use piggyback_graph::{gen, sample, stats, CsrGraph, DynamicGraph, GraphBuilder};
    pub use piggyback_obs::LatencyHistogram;
    pub use piggyback_serve::{
        run_harness, Arrival, HarnessConfig, HarnessReport, ServeClient, ServeConfig, ServeRuntime,
    };
    pub use piggyback_store::topology::{
        PartitionRequest, PartitionStrategy, Partitioner, Topology,
    };
    pub use piggyback_workload::{Op, OpTrace, Rates, RequestKind, RequestTrace};
}
