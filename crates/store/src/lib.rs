//! Social-networking store prototype (§4.3 of the paper).
//!
//! The paper measures *actual* throughput on a prototype whose application
//! logic (their Algorithm 3) runs against memcached: user views hold
//! 24-byte `(user id, event id, timestamp)` tuples, updates insert into the
//! push-set views, queries fan out to the pull-set views with one batched
//! request per data-store server and return the 10 latest events.
//!
//! We do not have their cluster; this crate rebuilds the data-store side
//! of the prototype in-process. Algorithm 3's application servers are
//! `piggyback-serve`'s `ServeClient`, and the batched cost those requests
//! are predicted by is `piggyback_core::cost::CostModel::batched`:
//!
//! * [`mod@tuple`] — the 24-byte event tuple and its wire encoding.
//! * [`view`] — a materialized per-user view with trimming and top-k reads.
//! * [`topology`] — the unified cluster topology: the `user → shard` map
//!   every layer routes through, plus the partitioner registry,
//!   [`PartitionStrategy`] (hash baseline, streaming LDG).
//! * [`server`] — a data-store shard: batched update/query with server-side
//!   filtering (the "thin layer on top of memcached") and view migration.
//!   Queries look each view up once and run a bounded k-way tournament
//!   merge over its newest events, copied into a reusable [`QueryScratch`]
//!   arena.
//! * [`merge`] — the top-k reply merge: the allocation-free incremental
//!   [`ReplyMerger`] the clients fold per-shard wire replies into; its
//!   running k-th newest is the floor a caller-runs query sends to its
//!   next shard.
//! * [`worker`] — the wire-format shard protocol of client operations.
//!   Updates and queries are coalesced batches served by
//!   [`worker::serve_batch`]. The online serve runtime runs them
//!   caller-runs only: borrowed slices and client-owned buffers
//!   ([`ShardClient`] over [`worker::Transport::Direct`]). The worker
//!   plane — [`worker::ShardBatch`] messages with pooled view lists and
//!   reply buffers ([`BufferPool`]) and one reply channel per client —
//!   serves no runtime; the benchmark times one hop through it. The
//!   control plane (probes, view moves, stats, restarts) crosses no wire:
//!   it calls [`server::StoreServer`]'s methods under the shard lock.
//! * [`health`] — per-shard failure detection (`Up/Suspect/Down` from
//!   heartbeat outcomes) with the Theorem-1 staleness budget reused as
//!   the legal replica-lag window for read routing.
//! * [`fault`] — deterministic chaos injection at the transport send seam
//!   (kill / drop / duplicate / delay).

pub mod fault;
pub mod health;
pub mod merge;
pub mod server;
#[cfg(test)]
mod textbook;
pub mod topology;
pub mod tuple;
pub mod view;
pub mod worker;

pub use fault::{FaultDecision, FaultInjector, FaultPlan, PartitionDir};
pub use health::{HealthTracker, ShardHealth};
pub use merge::ReplyMerger;
pub use server::QueryScratch;
pub use topology::{
    GroupScratch, HashPartitioner, LdgPartitioner, PartitionRequest, PartitionStrategy,
    Partitioner, Topology,
};
pub use tuple::EventTuple;
pub use view::View;
pub use worker::{BufferPool, ShardClient};
