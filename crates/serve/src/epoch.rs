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
//! Each side (push, pull) is a copy-on-write array of chunks, each holding
//! 256 consecutive users' sets as one flat offsets-then-ids array. A lookup
//! is one chunk index and two offsets. A churn publish
//! ([`ServingSchedule::with_updates`]) copies the touched side's chunk
//! pointers, rebuilds only the chunks holding a changed user, and shares
//! everything else — the untouched side whole — with its parent epoch, so
//! it costs the users it changes, never the schedule's size. A whole base
//! is compiled only at boot and on the re-optimization job's thread.
//!
//! The snapshot also carries the cluster [`Topology`]: a live rebalance
//! publishes a new topology through the same swap, so a request can never
//! route one batch with the old `user → shard` map and the next with the
//! new one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use piggyback_core::schedule::Schedule;
use piggyback_graph::{CsrGraph, NodeId};
use piggyback_store::topology::Topology;

/// Per-user serving sets in plain form (`h[u]` and `l[u]` of Algorithm 3):
/// the input of [`ServingSchedule::from_sets`].
#[derive(Clone, Debug, Default)]
pub struct CompiledSets {
    /// `push[u]`: views to update when `u` shares (excluding `u` itself).
    pub push: Vec<Vec<NodeId>>,
    /// `pull[v]`: views to query when `v` reads its stream (excluding `v`).
    pub pull: Vec<Vec<NodeId>>,
}

/// Users per chunk: the unit a churn publish rebuilds.
const CHUNK_USERS: usize = 256;

/// Offsets at the head of every chunk: user `i`'s set is
/// `chunk[chunk[i]..chunk[i + 1]]`.
const HEAD: usize = CHUNK_USERS + 1;

/// [`CHUNK_USERS`] consecutive users' sets: [`HEAD`] offsets (positions in
/// the same array), then the sets, concatenated.
type Chunk = Arc<[NodeId]>;

/// One side (push or pull): user `u`'s set lives in chunk
/// `u / CHUNK_USERS`; users past the last chunk have empty sets.
type Side = Arc<[Chunk]>;

/// The `i`-th user's set in `chunk`.
#[inline]
fn set_in(chunk: &[NodeId], i: usize) -> &[NodeId] {
    &chunk[chunk[i] as usize..chunk[i + 1] as usize]
}

/// User `u`'s set in `side`.
#[inline]
fn set_of(side: &[Chunk], u: NodeId) -> &[NodeId] {
    let u = u as usize;
    side.get(u / CHUNK_USERS)
        .map_or(&[], |chunk| set_in(chunk, u % CHUNK_USERS))
}

/// A position in a chunk, as stored in its head.
fn offset(len: usize) -> NodeId {
    NodeId::try_from(len).expect("chunk exceeds u32 offsets")
}

/// A side covering `users`; `fill(u, buf)` appends user `u`'s set.
fn side(users: usize, mut fill: impl FnMut(NodeId, &mut Vec<NodeId>)) -> Side {
    let mut buf = Vec::new();
    (0..users.div_ceil(CHUNK_USERS))
        .map(|c| {
            buf.clear();
            buf.resize(HEAD, HEAD as NodeId);
            for i in 0..CHUNK_USERS {
                let u = c * CHUNK_USERS + i;
                if u < users {
                    fill(u as NodeId, &mut buf);
                }
                buf[i + 1] = offset(buf.len());
            }
            Arc::from(&buf[..])
        })
        .collect()
}

/// A chunk of empty sets: what a side reads past its end.
const EMPTY: [NodeId; HEAD] = [HEAD as NodeId; HEAD];

/// `old` with `updates` — `(index in the chunk, set)`, ascending, one per
/// user — written in. The sets between two updates move as one copy, their
/// offsets shifted by the size change so far.
fn patch(old: &[NodeId], updates: &[(usize, &[NodeId])]) -> Chunk {
    let added: usize = updates.iter().map(|(_, set)| set.len()).sum();
    let mut buf = Vec::with_capacity(old.len() + added);
    buf.extend_from_slice(&old[..HEAD]);
    let keep = |buf: &mut Vec<NodeId>, from: usize, to: usize, shift: NodeId| {
        buf.extend_from_slice(&old[old[from] as usize..old[to] as usize]);
        for j in from + 1..=to {
            buf[j] = old[j].wrapping_add(shift);
        }
    };
    let (mut from, mut shift) = (0, 0);
    for &(i, set) in updates {
        keep(&mut buf, from, i, shift);
        buf.extend_from_slice(set);
        let end = offset(buf.len());
        buf[i + 1] = end;
        (from, shift) = (i + 1, end.wrapping_sub(old[i + 1]));
    }
    keep(&mut buf, from, CHUNK_USERS, shift);
    Arc::from(buf)
}

/// `side` with `updates` applied, the last update of a user winning:
/// every chunk without an updated user is shared, not copied.
fn rewrite(side: &Side, mut updates: Vec<(NodeId, Vec<NodeId>)>) -> Side {
    let Some(last) = updates.iter().map(|&(u, _)| u).max() else {
        return Arc::clone(side);
    };
    // Stable, so a user's updates stay in arrival order.
    updates.sort_by_key(|&(u, _)| u);
    let mut pending = updates.iter().peekable();
    let mut in_chunk: Vec<(usize, &[NodeId])> = Vec::new();
    (0..side.len().max(last as usize / CHUNK_USERS + 1))
        .map(|c| {
            in_chunk.clear();
            while let Some((u, set)) = pending.next_if(|(u, _)| *u as usize / CHUNK_USERS == c) {
                let i = *u as usize % CHUNK_USERS;
                match in_chunk.last_mut() {
                    Some(update) if update.0 == i => update.1 = set,
                    _ => in_chunk.push((i, set)),
                }
            }
            match side.get(c) {
                Some(old) if in_chunk.is_empty() => Arc::clone(old),
                old => patch(old.map_or(&EMPTY[..], |o| &o[..]), &in_chunk),
            }
        })
        .collect()
}

/// Both sides of one epoch's serving sets.
#[derive(Clone, Debug, Default)]
pub(crate) struct ChunkedSets {
    /// Users the sets cover (lookups past it read empty sets).
    users: usize,
    push: Side,
    pull: Side,
}

impl ChunkedSets {
    /// The sets of an optimized `(graph, schedule)` pair; O(n + m), no
    /// per-user allocation.
    pub(crate) fn compile(g: &CsrGraph, s: &Schedule) -> Self {
        assert_eq!(g.edge_count(), s.edge_count());
        let n = g.node_count();
        ChunkedSets {
            users: n,
            push: side(n, |u, out| {
                out.extend(
                    g.out_edges(u)
                        .filter(|&(_, e)| s.is_push(e))
                        .map(|(v, _)| v),
                )
            }),
            pull: side(n, |v, out| {
                out.extend(g.in_edges(v).filter(|&(_, e)| s.is_pull(e)).map(|(u, _)| u))
            }),
        }
    }

    /// These sets with the given users' sets replaced (a user listed twice
    /// on one side keeps its last set), and how many distinct users changed.
    pub(crate) fn with_updates(
        &self,
        push_updates: impl IntoIterator<Item = (NodeId, Vec<NodeId>)>,
        pull_updates: impl IntoIterator<Item = (NodeId, Vec<NodeId>)>,
    ) -> (Self, usize) {
        let push: Vec<_> = push_updates.into_iter().collect();
        let pull: Vec<_> = pull_updates.into_iter().collect();
        let mut changed: Vec<NodeId> = push.iter().chain(&pull).map(|&(u, _)| u).collect();
        changed.sort_unstable();
        changed.dedup();
        let users = changed
            .last()
            .map_or(self.users, |&u| self.users.max(u as usize + 1));
        let sets = ChunkedSets {
            users,
            push: rewrite(&self.push, push),
            pull: rewrite(&self.pull, pull),
        };
        (sets, changed.len())
    }
}

/// One immutable epoch of the serving schedule.
#[derive(Clone, Debug)]
pub struct ServingSchedule {
    epoch: u64,
    sets: ChunkedSets,
    /// Users whose sets this epoch rewrote relative to the one before it.
    users_changed: usize,
    topology: Arc<Topology>,
}

impl ServingSchedule {
    /// Compiles per-user serving sets from an optimized `(graph, schedule)`
    /// pair; O(n + m).
    pub fn compile(g: &CsrGraph, s: &Schedule, topology: Arc<Topology>, epoch: u64) -> Self {
        let n = g.node_count();
        assert!(
            topology.users() >= n,
            "topology covers {} users, graph has {n}",
            topology.users()
        );
        Self::with_base(ChunkedSets::compile(g, s), topology, epoch)
    }

    /// Builds an epoch directly from plain sets (tests and the benchmark).
    pub fn from_sets(sets: CompiledSets, topology: Arc<Topology>, epoch: u64) -> Self {
        let (push, pull) = ((0..).zip(sets.push), (0..).zip(sets.pull));
        let (sets, _) = ChunkedSets::default().with_updates(push, pull);
        Self::with_base(sets, topology, epoch)
    }

    fn with_base(sets: ChunkedSets, topology: Arc<Topology>, epoch: u64) -> Self {
        ServingSchedule {
            epoch,
            users_changed: sets.users,
            sets,
            topology,
        }
    }

    /// The next epoch: `sets` (a re-optimization's, compiled off the churn
    /// thread) under this epoch's topology.
    pub(crate) fn with_sets(&self, sets: ChunkedSets) -> Self {
        Self::with_base(sets, Arc::clone(&self.topology), self.epoch + 1)
    }

    /// The cluster topology this epoch serves under. Requests route every
    /// batch of their lifetime through this one map.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topology
    }

    /// The next epoch: identical serving sets (both sides shared), new
    /// topology — published by the churn manager after a live rebalance
    /// has migrated the moved views.
    pub fn with_topology(&self, topology: Arc<Topology>) -> Self {
        ServingSchedule {
            epoch: self.epoch + 1,
            sets: self.sets.clone(),
            users_changed: 0,
            topology,
        }
    }

    /// The epoch number (strictly increasing across publishes).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of users the serving sets cover.
    pub fn users(&self) -> usize {
        self.sets.users
    }

    /// Users whose sets this epoch rewrote relative to the one before it:
    /// every covered user for a whole base, the changed ones for a churn
    /// publish, none for a topology change.
    pub fn users_changed(&self) -> usize {
        self.users_changed
    }

    /// Always 0: churn publishes no longer layer overrides over a base.
    /// Kept only because the benchmark's replica (`benchmark/src/trace.rs`)
    /// still calls it; delete it together with that call.
    pub fn override_count(&self) -> usize {
        0
    }

    /// The views to update when `u` shares an event (not counting `u`).
    #[inline]
    pub fn push_targets(&self, u: NodeId) -> &[NodeId] {
        set_of(&self.sets.push, u)
    }

    /// The views to query when `v` reads its stream (not counting `v`).
    #[inline]
    pub fn pull_sources(&self, v: NodeId) -> &[NodeId] {
        set_of(&self.sets.pull, v)
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

    /// The next epoch: the given users' sets replaced (the last update of
    /// a user listed twice on one side wins; users past the covered range
    /// extend it). The churn manager (single writer) builds this and swaps
    /// it in. Cost: one pointer copy per chunk of each side updated, plus
    /// a rebuild of each chunk holding an updated user.
    pub fn with_updates(
        &self,
        push_updates: impl IntoIterator<Item = (NodeId, Vec<NodeId>)>,
        pull_updates: impl IntoIterator<Item = (NodeId, Vec<NodeId>)>,
    ) -> Self {
        let (sets, users_changed) = self.sets.with_updates(push_updates, pull_updates);
        ServingSchedule {
            epoch: self.epoch + 1,
            sets,
            users_changed,
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
/// it acknowledges: a follow publishes on its caller's thread, under the
/// control plane's lock, and returns after the bump — the lock's release
/// orders the bump before the next holder's acquire. Whatever carries the
/// acknowledgement on to the requesting thread (program order on the
/// caller's own thread, a message between clients) orders the bump before
/// the request's load. A publish still in flight may or may not be seen —
/// as with the lock.
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn compile_matches_schedule_sets() {
        // More than two chunks, the last one partial.
        let g = copying(CopyingConfig {
            nodes: 600,
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
        assert_eq!(compiled.users_changed(), g.node_count());
        for u in 0..g.node_count() as NodeId {
            let push: Vec<NodeId> = g
                .out_edges(u)
                .filter(|&(_, e)| s.is_push(e))
                .map(|(v, _)| v)
                .collect();
            let pull: Vec<NodeId> = g
                .in_edges(u)
                .filter(|&(_, e)| s.is_pull(e))
                .map(|(p, _)| p)
                .collect();
            assert_eq!(compiled.push_targets(u), push.as_slice());
            assert_eq!(compiled.pull_sources(u), pull.as_slice());
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
    fn updates_replace_sets_and_bump_epoch() {
        let sets = CompiledSets {
            push: vec![vec![1], vec![2]],
            pull: vec![vec![], vec![0]],
        };
        let s0 = ServingSchedule::from_sets(sets, Arc::new(Topology::single_server(2)), 0);
        let s1 = s0.with_updates([(0, vec![1, 3])], [(1, vec![0, 3])]);
        assert_eq!(s1.epoch(), 1);
        assert_eq!(s1.users_changed(), 2);
        assert_eq!(s1.push_targets(0), &[1, 3]);
        assert_eq!(s1.pull_sources(1), &[0, 3]);
        assert_eq!(s1.push_targets(1), &[2]);
        // The old epoch is unchanged (immutability).
        assert_eq!(s0.push_targets(0), &[1]);
        assert_eq!(s0.epoch(), 0);
    }

    /// A random user: mostly around the chunk boundaries and past the
    /// compiled range, where the copy-on-write bookkeeping can go wrong.
    fn pick(rng: &mut StdRng, compiled: usize) -> NodeId {
        let edges = [0, 255, 256, 257, 511, 512, compiled - 1, compiled];
        match rng.random_range(0..4) {
            0 => edges[rng.random_range(0..edges.len())] as NodeId,
            1 => rng.random_range(compiled..compiled + 2 * CHUNK_USERS) as NodeId,
            _ => rng.random_range(0..compiled) as NodeId,
        }
    }

    fn random_set(rng: &mut StdRng) -> Vec<NodeId> {
        (0..rng.random_range(0..5))
            .map(|_| rng.random_range(0..10_000))
            .collect()
    }

    fn assert_matches(s: &ServingSchedule, model: &[Vec<Vec<NodeId>>; 2], upto: usize) {
        for u in 0..upto {
            let (push, pull) = (model[0].get(u), model[1].get(u));
            let id = u as NodeId;
            assert_eq!(
                s.push_targets(id),
                push.map_or(&[][..], Vec::as_slice),
                "push of {u}"
            );
            assert_eq!(
                s.pull_sources(id),
                pull.map_or(&[][..], Vec::as_slice),
                "pull of {u}"
            );
        }
    }

    #[test]
    fn random_updates_match_a_plain_model() {
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let compiled = 600;
            let mut model: [Vec<Vec<NodeId>>; 2] =
                std::array::from_fn(|_| (0..compiled).map(|_| random_set(&mut rng)).collect());
            let sets = CompiledSets {
                push: model[0].clone(),
                pull: model[1].clone(),
            };
            let boot = ServingSchedule::from_sets(sets, Arc::new(Topology::single_server(0)), 0);
            let (boot_model, mut s) = (model.clone(), boot.clone());
            let upto = compiled + 3 * CHUNK_USERS;
            for _ in 0..60 {
                let mut batch: [Vec<(NodeId, Vec<NodeId>)>; 2] = Default::default();
                for side in &mut batch {
                    for _ in 0..rng.random_range(0..6) {
                        side.push((pick(&mut rng, compiled), random_set(&mut rng)));
                    }
                    // A user repeated within one batch: the last set wins.
                    if let Some(&(u, _)) = side.first().filter(|_| rng.random_bool(0.3)) {
                        side.push((u, random_set(&mut rng)));
                    }
                }
                let mut changed: Vec<NodeId> = batch.iter().flatten().map(|&(u, _)| u).collect();
                changed.sort_unstable();
                changed.dedup();
                for (side, updates) in model.iter_mut().zip(&batch) {
                    for (u, set) in updates {
                        let u = *u as usize;
                        if side.len() <= u {
                            side.resize(u + 1, Vec::new());
                        }
                        side[u] = set.clone();
                    }
                }
                let [push, pull] = batch;
                let next = s.with_updates(push, pull);
                assert_eq!(next.epoch(), s.epoch() + 1);
                assert_eq!(next.users_changed(), changed.len());
                let covered = model[0].len().max(model[1].len());
                assert_eq!(next.users(), covered);
                assert_matches(&next, &model, upto);
                s = next;
            }
            // Every publish left its parents untouched.
            assert_matches(&boot, &boot_model, upto);
            // A topology change shares both sides whole.
            let moved = s.with_topology(Arc::new(Topology::single_server(0)));
            assert!(Arc::ptr_eq(&moved.sets.push, &s.sets.push));
            assert!(Arc::ptr_eq(&moved.sets.pull, &s.sets.pull));
            assert_eq!(moved.users_changed(), 0);
            assert_matches(&moved, &model, upto);
        }
    }

    #[test]
    fn a_one_user_publish_shares_every_other_chunk() {
        let n = 8 * CHUNK_USERS;
        let sets = CompiledSets {
            push: (0..n as NodeId).map(|u| vec![u]).collect(),
            pull: (0..n as NodeId).map(|u| vec![u]).collect(),
        };
        let s0 = ServingSchedule::from_sets(sets, Arc::new(Topology::single_server(n)), 0);
        let s1 = s0.with_updates([(300, vec![1, 2, 3])], []);
        assert_eq!(s1.users_changed(), 1);
        assert!(
            Arc::ptr_eq(&s1.sets.pull, &s0.sets.pull),
            "pull side shared"
        );
        for (c, (new, old)) in s1.sets.push.iter().zip(s0.sets.push.iter()).enumerate() {
            assert_eq!(Arc::ptr_eq(new, old), c != 300 / CHUNK_USERS, "chunk {c}");
        }
        assert_eq!(s1.push_targets(300), &[1, 2, 3]);
        assert_eq!(s1.push_targets(299), &[299]);
        assert_eq!(s1.push_targets(301), &[301]);
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
        // Serving sets survive the topology swap.
        assert_eq!(s1.push_targets(0), s0.push_targets(0));
        assert_eq!(s1.pull_sources(1), s0.pull_sources(1));
        assert!(Arc::ptr_eq(s1.topology(), &new));
        // The old epoch still routes through the old map (immutability).
        assert!(Arc::ptr_eq(s0.topology(), &old));
    }
}
