//! Epoch-swapped serving schedules.
//!
//! The hot serving path cannot take a lock around schedule lookups while a
//! churn manager mutates the schedule underneath it. Instead, the schedule
//! is *compiled* into immutable per-user push/pull sets ([`ServingSchedule`])
//! and published through an [`EpochHandle`]. Each serving client holds an
//! [`EpochReader`]: its own `Arc` of the snapshot it last used plus the
//! publish count that snapshot belongs to. Starting a request is one
//! atomic load of the handle's publish counter — a cache line nobody
//! writes between publishes — and only a changed count sends the reader to
//! the lock to fetch the new snapshot. The request then uses that one
//! snapshot throughout, so it sees exactly one epoch end-to-end:
//! concurrent swaps can never show it a mix of the old and new schedule.
//! Two consequences of readers caching: an idle client keeps the snapshot
//! it last used alive until its next request, and the last reader to move
//! on — not the publisher — may be the one that frees a retired snapshot.
//!
//! Churn publishes cheap *overrides* on top of the compiled base — only
//! the users whose serving sets a follow/unfollow touched — while a full
//! re-optimization replaces the base wholesale and clears the overrides.
//! Overrides are layered to keep the per-publish copy small: a tiny
//! `delta` map (the last few publishes) is deep-cloned per epoch, while
//! the flattened older overrides ride behind an `Arc` and cost a refcount
//! bump; once the delta outgrows `DELTA_LIMIT` it is folded into a new
//! flattened layer, amortizing the large copy over many publishes.
//!
//! The snapshot also carries the cluster [`Topology`]: a live rebalance
//! publishes a new topology through the same swap, so a request can never
//! route one batch with the old `user → shard` map and the next with the
//! new one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use piggyback_core::schedule::Schedule;
use piggyback_graph::fx::FxHashMap;
use piggyback_graph::{CsrGraph, NodeId};
use piggyback_store::topology::Topology;

/// Fully compiled per-user serving sets (`h[u]` and `l[u]` of Algorithm 3).
#[derive(Clone, Debug, Default)]
pub struct CompiledSets {
    /// `push[u]`: views to update when `u` shares (excluding `u` itself).
    pub push: Vec<Vec<NodeId>>,
    /// `pull[v]`: views to query when `v` reads its stream (excluding `v`).
    pub pull: Vec<Vec<NodeId>>,
}

/// Per-user churn override: a recompiled set for one user, shadowing the
/// compiled base. `None` means "base is still current" for that side.
#[derive(Clone, Debug, Default)]
pub struct UserOverride {
    push: Option<Vec<NodeId>>,
    pull: Option<Vec<NodeId>>,
}

impl UserOverride {
    /// Folds `other` over `self` side-by-side (newer wins where set).
    fn absorb(&mut self, other: UserOverride) {
        if other.push.is_some() {
            self.push = other.push;
        }
        if other.pull.is_some() {
            self.pull = other.pull;
        }
    }
}

/// Delta entries folded into the shared flattened layer once exceeded.
/// Bounds the per-publish deep copy: a publish clones at most this many
/// override entries, and the flattened layer is copied once per
/// `DELTA_LIMIT` publishes instead of on every one.
const DELTA_LIMIT: usize = 32;

/// One immutable epoch of the serving schedule.
#[derive(Clone, Debug)]
pub struct ServingSchedule {
    epoch: u64,
    base: Arc<CompiledSets>,
    /// Flattened older overrides; shared across epochs (Arc bump).
    merged: Arc<FxHashMap<NodeId, UserOverride>>,
    /// Overrides from the most recent publishes; deep-cloned per epoch,
    /// kept under `DELTA_LIMIT` entries. Shadows `merged` per side.
    delta: FxHashMap<NodeId, UserOverride>,
    topology: Arc<Topology>,
}

impl ServingSchedule {
    /// Compiles per-user serving sets from an optimized `(graph, schedule)`
    /// pair; O(n + m).
    pub fn compile(g: &CsrGraph, s: &Schedule, topology: Arc<Topology>, epoch: u64) -> Self {
        assert_eq!(g.edge_count(), s.edge_count());
        let n = g.node_count();
        assert!(
            topology.users() >= n,
            "topology covers {} users, graph has {n}",
            topology.users()
        );
        let mut sets = CompiledSets {
            push: Vec::with_capacity(n),
            pull: Vec::with_capacity(n),
        };
        for u in 0..n as NodeId {
            sets.push.push(s.push_set_of(g, u));
            sets.pull.push(s.pull_set_of(g, u));
        }
        ServingSchedule {
            epoch,
            base: Arc::new(sets),
            merged: Arc::new(FxHashMap::default()),
            delta: FxHashMap::default(),
            topology,
        }
    }

    /// Builds an epoch directly from compiled sets (re-optimization path
    /// and tests).
    pub fn from_sets(sets: CompiledSets, topology: Arc<Topology>, epoch: u64) -> Self {
        ServingSchedule {
            epoch,
            base: Arc::new(sets),
            merged: Arc::new(FxHashMap::default()),
            delta: FxHashMap::default(),
            topology,
        }
    }

    /// The cluster topology this epoch serves under. Requests route every
    /// batch of their lifetime through this one map.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topology
    }

    /// The next epoch: identical serving sets, new topology — published by
    /// the churn manager after a live rebalance has migrated the moved
    /// views.
    pub fn with_topology(&self, topology: Arc<Topology>) -> Self {
        ServingSchedule {
            epoch: self.epoch + 1,
            base: Arc::clone(&self.base),
            merged: Arc::clone(&self.merged),
            delta: self.delta.clone(),
            topology,
        }
    }

    /// The epoch number (strictly increasing across publishes).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of users the base compilation covers.
    pub fn users(&self) -> usize {
        self.base.push.len()
    }

    /// Number of active churn override entries (counting a user once per
    /// layer it appears in — an upper bound used by the compaction
    /// trigger).
    pub fn override_count(&self) -> usize {
        self.merged.len() + self.delta.len()
    }

    /// The views to update when `u` shares an event (not counting `u`).
    pub fn push_targets(&self, u: NodeId) -> &[NodeId] {
        if let Some(p) = self.delta.get(&u).and_then(|o| o.push.as_deref()) {
            return p;
        }
        if let Some(p) = self.merged.get(&u).and_then(|o| o.push.as_deref()) {
            return p;
        }
        self.base.push.get(u as usize).map_or(&[], Vec::as_slice)
    }

    /// The views to query when `v` reads its stream (not counting `v`).
    pub fn pull_sources(&self, v: NodeId) -> &[NodeId] {
        if let Some(p) = self.delta.get(&v).and_then(|o| o.pull.as_deref()) {
            return p;
        }
        if let Some(p) = self.merged.get(&v).and_then(|o| o.pull.as_deref()) {
            return p;
        }
        self.base.pull.get(v as usize).map_or(&[], Vec::as_slice)
    }

    /// Fills `out` with the update targets of one share from `u`: the push
    /// set plus `u`'s own view. The hot path's scratch-buffer counterpart
    /// of [`push_targets`](ServingSchedule::push_targets) — no per-request
    /// `Vec` once the caller's buffer is warm.
    pub fn collect_push_targets(&self, u: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend_from_slice(self.push_targets(u));
        out.push(u);
    }

    /// Fills `out` with the query targets of one stream read from `v`: the
    /// pull set plus `v`'s own view.
    pub fn collect_pull_sources(&self, v: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend_from_slice(self.pull_sources(v));
        out.push(v);
    }

    /// The next epoch: same base, with the given users' sets replaced.
    /// The churn manager (single writer) builds this and swaps it in.
    /// Cost per publish: a deep clone of the (≤ `DELTA_LIMIT`-entry)
    /// delta plus an Arc bump of the flattened layer; the flatten itself
    /// runs once per `DELTA_LIMIT` publishes.
    pub fn with_updates(
        &self,
        push_updates: impl IntoIterator<Item = (NodeId, Vec<NodeId>)>,
        pull_updates: impl IntoIterator<Item = (NodeId, Vec<NodeId>)>,
    ) -> Self {
        let mut merged = Arc::clone(&self.merged);
        let mut delta = self.delta.clone();
        for (u, set) in push_updates {
            delta.entry(u).or_default().push = Some(set);
        }
        for (v, set) in pull_updates {
            delta.entry(v).or_default().pull = Some(set);
        }
        if delta.len() > DELTA_LIMIT {
            let mut flat = (*merged).clone();
            for (u, o) in delta.drain() {
                flat.entry(u).or_default().absorb(o);
            }
            merged = Arc::new(flat);
        }
        ServingSchedule {
            epoch: self.epoch + 1,
            base: Arc::clone(&self.base),
            merged,
            delta,
            topology: Arc::clone(&self.topology),
        }
    }
}

/// The swap point between the serving path and the churn manager.
///
/// Serving clients follow it through an [`EpochReader`]
/// ([`reader`](EpochHandle::reader)); the control plane and diagnostics
/// take one-off snapshots with [`load`](EpochHandle::load); the single
/// writer (the churn manager) calls [`swap`](EpochHandle::swap). The write
/// lock is held only for the pointer exchange and the count bump.
#[derive(Debug)]
pub struct EpochHandle {
    slot: RwLock<Arc<ServingSchedule>>,
    /// Publishes so far. Written only under `slot`'s write lock, so the
    /// pair (count, snapshot) read under the read lock is consistent.
    swaps: AtomicU64,
}

impl EpochHandle {
    /// Wraps an initial schedule snapshot.
    pub fn new(initial: ServingSchedule) -> Self {
        EpochHandle {
            slot: RwLock::new(Arc::new(initial)),
            swaps: AtomicU64::new(0),
        }
    }

    /// The current snapshot, through the lock. A request that loads must
    /// do so exactly once and use the returned snapshot for its entire
    /// lifetime.
    pub fn load(&self) -> Arc<ServingSchedule> {
        Arc::clone(&self.slot.read())
    }

    /// Publishes `next`, returning the previous snapshot.
    pub fn swap(&self, next: ServingSchedule) -> Arc<ServingSchedule> {
        let next = Arc::new(next);
        let mut slot = self.slot.write();
        // Release pairs with the Acquire load in `EpochReader::current`.
        self.swaps.fetch_add(1, Ordering::Release);
        std::mem::replace(&mut *slot, next)
    }

    /// Epoch of the current snapshot.
    pub fn epoch(&self) -> u64 {
        self.slot.read().epoch()
    }

    /// A cached view of this handle for one serving client.
    pub fn reader(self: &Arc<Self>) -> EpochReader {
        let slot = self.slot.read();
        EpochReader {
            seen: self.swaps.load(Ordering::Relaxed),
            snapshot: Arc::clone(&slot),
            handle: Arc::clone(self),
        }
    }
}

/// One client's cached snapshot of an [`EpochHandle`], revalidated per
/// request by the handle's publish count instead of re-fetched through the
/// lock.
///
/// Visibility contract: a request that starts after a publish was
/// *acknowledged* to anyone sees it. The publisher bumps the count before
/// it acknowledges, and whatever carries the acknowledgement to the
/// requesting thread (the churn ack channel, a message between clients)
/// orders the bump before the request's load. A publish still in flight
/// may or may not be seen — as with the lock.
#[derive(Debug)]
pub struct EpochReader {
    handle: Arc<EpochHandle>,
    snapshot: Arc<ServingSchedule>,
    /// The publish count `snapshot` was current at.
    seen: u64,
}

impl EpochReader {
    /// The current snapshot. Requests must call this exactly once and use
    /// the returned snapshot for their entire lifetime.
    #[inline]
    pub fn current(&mut self) -> &Arc<ServingSchedule> {
        if self.handle.swaps.load(Ordering::Acquire) != self.seen {
            let slot = self.handle.slot.read();
            self.seen = self.handle.swaps.load(Ordering::Relaxed);
            self.snapshot = Arc::clone(&slot);
        }
        &self.snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piggyback_core::baseline::hybrid_schedule;
    use piggyback_graph::gen::{copying, CopyingConfig};
    use piggyback_workload::Rates;

    #[test]
    fn compile_matches_schedule_sets() {
        let g = copying(CopyingConfig {
            nodes: 80,
            follows_per_node: 4,
            copy_prob: 0.6,
            seed: 5,
        });
        let r = Rates::log_degree(&g, 5.0);
        let s = hybrid_schedule(&g, &r);
        let topology = Arc::new(Topology::hash(g.node_count(), 4, 1));
        let compiled = ServingSchedule::compile(&g, &s, Arc::clone(&topology), 7);
        assert_eq!(compiled.topology().servers(), 4);
        assert_eq!(compiled.epoch(), 7);
        assert_eq!(compiled.users(), g.node_count());
        for u in 0..g.node_count() as NodeId {
            assert_eq!(compiled.push_targets(u), s.push_set_of(&g, u).as_slice());
            assert_eq!(compiled.pull_sources(u), s.pull_set_of(&g, u).as_slice());
        }
    }

    #[test]
    fn collect_targets_append_self_and_reuse_the_buffer() {
        let sets = CompiledSets {
            push: vec![vec![1, 2], vec![]],
            pull: vec![vec![], vec![0]],
        };
        let s = ServingSchedule::from_sets(sets, Arc::new(Topology::single_server(2)), 0);
        let mut buf = vec![9, 9, 9];
        s.collect_push_targets(0, &mut buf);
        assert_eq!(buf, vec![1, 2, 0]);
        s.collect_pull_sources(1, &mut buf);
        assert_eq!(buf, vec![0, 1]);
    }

    #[test]
    fn unknown_users_have_empty_sets() {
        let compiled = ServingSchedule::from_sets(
            CompiledSets::default(),
            Arc::new(Topology::single_server(0)),
            0,
        );
        assert!(compiled.push_targets(42).is_empty());
        assert!(compiled.pull_sources(42).is_empty());
    }

    #[test]
    fn overrides_shadow_base_and_bump_epoch() {
        let sets = CompiledSets {
            push: vec![vec![1], vec![2]],
            pull: vec![vec![], vec![0]],
        };
        let s0 = ServingSchedule::from_sets(sets, Arc::new(Topology::single_server(2)), 0);
        let s1 = s0.with_updates([(0, vec![1, 3])], [(1, vec![0, 3])]);
        assert_eq!(s1.epoch(), 1);
        assert_eq!(s1.push_targets(0), &[1, 3]);
        assert_eq!(s1.pull_sources(1), &[0, 3]);
        // Untouched users still read the shared base.
        assert_eq!(s1.push_targets(1), &[2]);
        // The old epoch is unchanged (immutability).
        assert_eq!(s0.push_targets(0), &[1]);
        assert_eq!(s0.epoch(), 0);
    }

    #[test]
    fn overrides_survive_delta_flattening() {
        // Push enough single-user publishes through one chain of epochs to
        // trigger several delta → merged flattens; every override must
        // stay visible and the newest one must win.
        let n = 200usize;
        let sets = CompiledSets {
            push: vec![vec![]; n],
            pull: vec![vec![]; n],
        };
        let mut s = ServingSchedule::from_sets(sets, Arc::new(Topology::single_server(n)), 0);
        for u in 0..n as NodeId {
            s = s.with_updates([(u, vec![u + 1])], [(u, vec![u + 2])]);
        }
        // Overwrite a user that has certainly been flattened by now.
        s = s.with_updates([(0, vec![77])], []);
        assert_eq!(s.epoch(), n as u64 + 1);
        assert_eq!(s.push_targets(0), &[77], "newest layer must win");
        assert_eq!(s.pull_sources(0), &[2], "older side must survive");
        for u in 1..n as NodeId {
            assert_eq!(s.push_targets(u), &[u + 1]);
            assert_eq!(s.pull_sources(u), &[u + 2]);
        }
    }

    #[test]
    fn handle_swap_returns_previous() {
        let t = Arc::new(Topology::single_server(0));
        let h = EpochHandle::new(ServingSchedule::from_sets(
            CompiledSets::default(),
            Arc::clone(&t),
            0,
        ));
        assert_eq!(h.epoch(), 0);
        let prev = h.swap(ServingSchedule::from_sets(CompiledSets::default(), t, 1));
        assert_eq!(prev.epoch(), 0);
        assert_eq!(h.load().epoch(), 1);
    }

    #[test]
    fn reader_revalidates_for_free_and_follows_swaps() {
        let t = Arc::new(Topology::single_server(0));
        let empty =
            |epoch| ServingSchedule::from_sets(CompiledSets::default(), Arc::clone(&t), epoch);
        let h = Arc::new(EpochHandle::new(empty(0)));
        let mut r = h.reader();
        let first = Arc::clone(r.current());
        let holders = Arc::strong_count(&first); // the slot, the reader, `first`
        for _ in 0..100 {
            assert!(Arc::ptr_eq(r.current(), &first), "no swap, same snapshot");
        }
        assert_eq!(
            Arc::strong_count(&first),
            holders,
            "revalidation must not touch the snapshot's reference count"
        );
        drop(h.swap(empty(1)));
        assert_eq!(r.current().epoch(), 1, "the next request sees the publish");
        // The reader, not `swap`'s caller, let go of the retired snapshot
        // last: only this test's own clone is left.
        assert_eq!(Arc::strong_count(&first), 1);
        // A reader created after the swap starts at the current epoch.
        assert_eq!(h.reader().current().epoch(), 1);
    }

    #[test]
    fn with_topology_republishes_sets_under_a_new_map() {
        let sets = CompiledSets {
            push: vec![vec![1], vec![0]],
            pull: vec![vec![1], vec![0]],
        };
        let old = Arc::new(Topology::hash(2, 4, 0));
        let s0 = ServingSchedule::from_sets(sets, Arc::clone(&old), 0)
            .with_updates([(0, vec![1, 9])], []);
        let new = Arc::new(Topology::hash(2, 4, 99));
        let s1 = s0.with_topology(Arc::clone(&new));
        assert_eq!(s1.epoch(), s0.epoch() + 1);
        // Serving sets (base and overrides) survive the topology swap.
        assert_eq!(s1.push_targets(0), s0.push_targets(0));
        assert_eq!(s1.pull_sources(1), s0.pull_sources(1));
        assert!(Arc::ptr_eq(s1.topology(), &new));
        // The old epoch still routes through the old map (immutability).
        assert!(Arc::ptr_eq(s0.topology(), &old));
    }
}
