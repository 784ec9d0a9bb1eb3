//! Workload models for social event-stream systems.
//!
//! The DISSEMINATION problem takes, besides the social graph, a *workload*:
//! per-user production rates `rp(u)` (how often `u` shares events) and
//! consumption rates `rc(u)` (how often `u` requests its event stream).
//!
//! The paper had no access to real rate data either; §4.1 synthesizes rates
//! from the observation of Huberman et al. that users with many followers
//! produce more and users following many others consume more, setting rates
//! proportional to the logarithm of the respective degrees, with a reference
//! average consumption/production ratio of 5 (Silberstein et al.). The
//! [`Rates::log_degree`] constructor reproduces exactly that model;
//! [`RequestTrace`] turns rates into a concrete request sequence for the
//! store prototype.
//!
//! This crate holds the two rate columns only. What is derived from them
//! per edge — the hybrid rule's `min(rp(u), rc(v))` and the hub-leg
//! prices — is computed by `piggyback_core::cost` from both endpoints'
//! rates wherever a walk holds the endpoints, not stored per edge.

pub mod rates;
pub mod trace;

pub use rates::Rates;
pub use trace::{Op, OpTrace, RequestKind, RequestTrace, TimedRequest};
