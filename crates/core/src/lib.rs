//! Social piggybacking: request-schedule optimization for event-stream
//! dissemination (Gionis et al., *Piggybacking on Social Networks*,
//! PVLDB 6(6), 2013).
//!
//! Given a social graph and per-user production/consumption rates, the crate
//! computes request schedules `(H, L)` — which edges are served by pushes,
//! which by pulls, and which ride for free through common-contact *hubs* —
//! minimizing the total data-store request rate while guaranteeing bounded
//! staleness (Theorem 1).
//!
//! * [`schedule`] — the `(H, L, C)` schedule representation.
//! * [`cost`] — the §2.1 cost model, predicted throughput and improvement.
//! * [`baseline`] — push-all, pull-all and hybrid FEEDINGFRENZY schedules.
//! * [`validate`] — bounded-staleness feasibility checking.
//! * [`densest`] — the weighted densest-subgraph oracle (Lemma 1).
//! * [`chitchat`] — the `O(ln n)`-approximate CHITCHAT algorithm (§3.1).
//! * [`chitchat_stream`] — the one-pass streaming CHITCHAT: near-batch
//!   quality at a fraction of the oracle work, cheap enough to re-run
//!   continuously at serve time.
//! * [`parallelnosy`] — the scalable PARALLELNOSY heuristic (§3.2); its
//!   three phases are the paper's MapReduce jobs.
//! * [`fanout`] — the worker pool every parallel optimizer above fans its
//!   pure work out on: the one place optimizer work meets threads.
//! * [`incremental`] — schedule maintenance under graph updates (§3.3).
//! * [`active`] — active stores with propagation sets and the Theorem 3
//!   passive-simulation equivalence (§2.2).
//! * [`staleness`] — a discrete-time delivery simulator checking Definition
//!   2's bounded staleness *semantically*, including the Theorem 1
//!   necessity counterexamples.
//! * [`scheduler`] — the unified [`Scheduler`] trait
//!   and name-keyed registry every optimizer above implements, so benches,
//!   examples and the CLI drive all algorithms through one API.

pub mod active;
pub mod analysis;
pub mod baseline;
pub mod bitset;
pub mod chitchat;
pub mod chitchat_stream;
pub mod cost;
pub mod densest;
pub mod fanout;
pub mod incremental;
pub mod optimal;
pub mod parallelnosy;
pub mod schedule;
pub mod schedule_io;
pub mod scheduler;
pub mod staleness;
#[cfg(test)]
mod textbook;
pub mod validate;

/// Upper bound `b` on the cross edges materialized per hub-graph (§3.2;
/// the paper uses 100 000 on the Twitter graph). Bounds memory on very
/// dense hubs; CHITCHAT, its streaming execution and PARALLELNOSY all run
/// with it.
pub const CROSS_CAP: usize = 100_000;

pub use baseline::{hybrid_schedule, pull_all_schedule, push_all_schedule};
pub use chitchat::{ChitChat, ChitChatResult};
pub use chitchat_stream::{ChitChatStream, ChitChatStreamResult};
pub use cost::{predicted_improvement, predicted_throughput, schedule_cost};
pub use incremental::IncrementalScheduler;
pub use parallelnosy::{ParallelNosy, ParallelNosyResult};
pub use schedule::{EdgeAssignment, Schedule};
pub use scheduler::{Instance, ScheduleOutcome, ScheduleStats, Scheduler};
pub use validate::{coverage_report, validate_bounded_staleness};
