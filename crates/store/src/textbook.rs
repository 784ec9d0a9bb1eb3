//! The textbook model of a shard query, for differential tests: gather
//! every event of every listed view, sort newest first, drop duplicates,
//! keep `k`. Production code never calls it; the tests of [`crate::server`],
//! [`crate::merge`] and [`crate::worker`] compare the tournament merge,
//! the reply merger and the batched client against it.

use piggyback_graph::NodeId;

use crate::server::StoreServer;
use crate::tuple::EventTuple;

/// The `k` newest distinct tuples of `tuples`, newest first.
pub(crate) fn newest_k(mut tuples: Vec<EventTuple>, k: usize) -> Vec<EventTuple> {
    tuples.sort_unstable_by(|a, b| b.cmp(a));
    tuples.dedup();
    tuples.truncate(k);
    tuples
}

/// What `StoreServer::query(views, k)` must answer, read through the
/// public view accessors (so the server's counters are left alone).
pub(crate) fn query(server: &StoreServer, views: &[NodeId], k: usize) -> Vec<EventTuple> {
    let all = views
        .iter()
        .filter_map(|&v| server.view(v))
        .flat_map(|view| view.iter_newest())
        .collect();
    newest_k(all, k)
}
