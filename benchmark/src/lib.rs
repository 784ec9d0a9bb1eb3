//! `pigbench` — one benchmark for the feed server and the optimizer.
//!
//! See `benchmark/README.md` for the workloads, the metrics and how they
//! are meant to move together.

pub mod agree;
pub mod checks;
pub mod json;
pub mod load;
pub mod report;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod traced;
pub mod world;
