//! A data-store shard: user views plus the thin server-side layer that
//! aggregates and filters query batches (§4.3).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use piggyback_graph::fx::FxHasher;
use piggyback_graph::NodeId;

use crate::tuple::EventTuple;
use crate::view::View;

/// Per-shard operation counters, kept as plain integers under the shard's
/// existing lock (both transports serve every batch through the same
/// `serve_batch`, so the counts are identical whether the shard runs on
/// a worker thread or caller-runs (`Transport::Direct`), except
/// `events_returned`, which the caller-runs floor can lower). The query
/// and batch counters count client operations only: the control plane
/// reads and moves views through [`StoreServer::view`],
/// [`StoreServer::merge_view`] and [`StoreServer::remove_view`], which
/// bump only the migration counters. Read with [`StoreServer::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Update requests applied.
    pub updates: u64,
    /// Query requests answered.
    pub queries: u64,
    /// View insertions performed by updates (one event × its views).
    pub events_inserted: u64,
    /// Event tuples shipped by queries: what the server-side filter kept
    /// above the query's floor. The caller-runs plane sends a floor once
    /// it holds `k` tuples, so for the same queries this may be lower
    /// there than on the worker plane, whose batches carry none.
    pub events_returned: u64,
    /// Coalesced `ShardBatch` messages received.
    pub batches: u64,
    /// View targets carried inside those batches (batch-size numerator).
    pub batch_ops: u64,
    /// Views extracted for migration (donor side).
    pub views_extracted: u64,
    /// Views installed by migration (recipient side).
    pub views_installed: u64,
}

impl ShardStats {
    /// Element-wise sum (folding per-shard scrapes into a cluster total).
    pub fn merge(&mut self, other: &ShardStats) {
        self.updates += other.updates;
        self.queries += other.queries;
        self.events_inserted += other.events_inserted;
        self.events_returned += other.events_returned;
        self.batches += other.batches;
        self.batch_ops += other.batch_ops;
        self.views_extracted += other.views_extracted;
        self.views_installed += other.views_installed;
    }

    /// Mean operations per coalesced batch (0 with no batches).
    pub fn avg_batch_ops(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batch_ops as f64 / self.batches as f64
        }
    }
}

/// Reusable per-worker scratch for [`StoreServer::query_newer`].
///
/// Holds the tournament heap, the per-view cursors, the candidates they
/// index and the output buffer. All four retain their capacity across
/// requests, so a warmed-up worker serves queries with **zero heap
/// allocation** (asserted by `tests/query_alloc.rs`).
#[derive(Debug, Default)]
pub struct QueryScratch {
    /// Max-heap of `(head tuple, cursor index)` — the tuple orders first,
    /// so pops are globally newest first and ties break deterministically.
    heap: std::collections::BinaryHeap<(EventTuple, u32)>,
    cursors: Vec<Cursor>,
    /// Each listed view's newest events above the floor, newest first, one
    /// run per cursor: the merge reads these instead of looking the view
    /// up again.
    candidates: Vec<EventTuple>,
    out: Vec<EventTuple>,
}

/// One view's merge cursor over its run of `QueryScratch::candidates`.
#[derive(Clone, Copy, Debug)]
struct Cursor {
    /// Next candidate index to emit.
    next: u32,
    /// One past the run's last candidate.
    end: u32,
}

impl QueryScratch {
    /// Empty scratch.
    pub fn new() -> Self {
        QueryScratch::default()
    }

    /// `(heap, cursors, candidates, out)` capacities — lets tests assert
    /// steady-state reuse.
    pub fn capacities(&self) -> (usize, usize, usize, usize) {
        (
            self.heap.capacity(),
            self.cursors.capacity(),
            self.candidates.capacity(),
            self.out.capacity(),
        )
    }
}

/// The view map's hasher: Fx's multiply, with the product rotated so its
/// well-mixed high bits land in the low bits a hash table takes its bucket
/// index from. Plain [`FxHasher`] would not do here: hash placement puts a
/// user on the shard its Fx hash picks, and with a power-of-two server
/// count that depends only on the user id's low bits, so every view on one
/// shard would share the low bits of its key and fall into one probe chain.
#[derive(Default)]
struct ViewHasher(FxHasher);

impl Hasher for ViewHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0.finish().rotate_left(26)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0.write(bytes);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.0.write_u32(n);
    }
}

type ViewBuildHasher = BuildHasherDefault<ViewHasher>;

/// One data-store server holding a subset of user views.
///
/// Requests arrive batched: an update carries one event plus every view on
/// this server it must be inserted into; a query carries the set of views to
/// read and returns at most `k` events filtered *server-side* across those
/// views (one reply message regardless of how many views were touched).
///
/// Queries have one path, [`query_newer`](StoreServer::query_newer);
/// [`query_with`](StoreServer::query_with) and
/// [`query`](StoreServer::query) are its no-floor forms. The tests compare
/// it with the materialize–sort–truncate model built on
/// [`view`](StoreServer::view) and [`View::iter_newest`]: gather every
/// listed view's events, sort newest first, drop duplicates, keep `k`.
#[derive(Clone, Debug)]
pub struct StoreServer {
    views: HashMap<NodeId, View, ViewBuildHasher>,
    view_capacity: usize,
    stats: ShardStats,
}

impl StoreServer {
    /// Empty server whose views are trimmed to `view_capacity` events
    /// (0 = unbounded).
    pub fn new(view_capacity: usize) -> Self {
        StoreServer {
            views: HashMap::default(),
            view_capacity,
            stats: ShardStats::default(),
        }
    }

    /// Applies a batched update: inserts `event` into every listed view.
    pub fn update(&mut self, views: &[NodeId], event: EventTuple) {
        for &v in views {
            self.views
                .entry(v)
                .or_insert_with(|| View::with_capacity(self.view_capacity))
                .insert(event);
        }
        self.stats.updates += 1;
        self.stats.events_inserted += views.len() as u64;
    }

    /// Answers a batched query: the `k` most recent events across the
    /// listed views, newest first (the server-side filter). Same as
    /// [`query_newer`](StoreServer::query_newer) with no floor.
    pub fn query_with<'s>(
        &mut self,
        views: &[NodeId],
        k: usize,
        scratch: &'s mut QueryScratch,
    ) -> &'s [EventTuple] {
        self.query_newer(views, k, None, scratch)
    }

    /// The `k` most recent distinct events across the listed views that
    /// are strictly newer than `floor` (every event with no floor), newest
    /// first. The caller-runs client passes the running k-th newest of
    /// the replies it already holds, so this shard ships only tuples that
    /// can still enter the feed.
    ///
    /// A bounded k-way tournament merge: each listed view is looked up
    /// once and copies its newest events above the floor, at most `k`,
    /// into a run of `scratch`'s candidates; a small max-heap of one head
    /// per run then pops the global newest until `k` distinct events are
    /// emitted. For `f` views that is O(f·k) copying plus O((k + f) log f)
    /// merging instead of copying and fully sorting every candidate. A view
    /// whose newest event is not above the floor opens no run, and a lone
    /// run is the answer as it stands (a view holds distinct events). All
    /// state lives in `scratch`; a warmed-up caller allocates nothing.
    pub fn query_newer<'s>(
        &mut self,
        views: &[NodeId],
        k: usize,
        floor: Option<EventTuple>,
        scratch: &'s mut QueryScratch,
    ) -> &'s [EventTuple] {
        self.stats.queries += 1;
        scratch.out.clear();
        scratch.heap.clear();
        scratch.cursors.clear();
        scratch.candidates.clear();
        let above = |t: &EventTuple| floor.is_none_or(|f| *t > f);
        for v in views {
            let Some(view) = self.views.get(v) else {
                continue;
            };
            let start = scratch.candidates.len() as u32;
            scratch
                .candidates
                .extend(view.iter_newest().take(k).take_while(above));
            let end = scratch.candidates.len() as u32;
            if end > start {
                scratch.cursors.push(Cursor { next: start, end });
            }
        }
        if scratch.cursors.len() <= 1 {
            self.stats.events_returned += scratch.candidates.len() as u64;
            return &scratch.candidates;
        }
        for (i, cur) in scratch.cursors.iter_mut().enumerate() {
            scratch
                .heap
                .push((scratch.candidates[cur.next as usize], i as u32));
            cur.next += 1;
        }
        while let Some((t, i)) = scratch.heap.pop() {
            if scratch.out.last() != Some(&t) {
                if scratch.out.len() == k {
                    break;
                }
                scratch.out.push(t);
            }
            let cur = &mut scratch.cursors[i as usize];
            if cur.next < cur.end {
                scratch
                    .heap
                    .push((scratch.candidates[cur.next as usize], i));
                cur.next += 1;
            }
        }
        self.stats.events_returned += scratch.out.len() as u64;
        &scratch.out
    }

    /// [`query_with`](StoreServer::query_with) into a fresh `Vec`
    /// (tests and single-shot callers; allocates a scratch per call).
    pub fn query(&mut self, views: &[NodeId], k: usize) -> Vec<EventTuple> {
        let mut scratch = QueryScratch::new();
        self.query_with(views, k, &mut scratch).to_vec()
    }

    /// Drops every materialized view — the "process restarted empty"
    /// half of a shard rejoin. Operation counters survive: the harness
    /// aggregates them run-wide and a restart must not make totals
    /// regress.
    pub fn reset_views(&mut self) {
        self.views.clear();
    }

    /// Point-in-time copy of every per-shard counter.
    pub fn stats(&self) -> ShardStats {
        self.stats
    }

    /// Mutable counter access for the batch layer (batch accounting
    /// happens where a batch is decoded, in `worker::serve_batch`).
    pub(crate) fn stats_mut(&mut self) -> &mut ShardStats {
        &mut self.stats
    }

    /// Read-only access to a view (tests/diagnostics).
    pub fn view(&self, user: NodeId) -> Option<&View> {
        self.views.get(&user)
    }

    /// Removes `user`'s view and returns it — the donor side of a live
    /// migration to a new topology.
    pub fn remove_view(&mut self, user: NodeId) -> Option<View> {
        let removed = self.views.remove(&user);
        if removed.is_some() {
            self.stats.views_extracted += 1;
        }
        removed
    }

    /// Merges `events` into `user`'s view (creating it if absent) — the
    /// recipient side of a live migration. Insertion keeps recency order
    /// and drops recent duplicates, so events that already landed at the
    /// new home survive alongside the migrated ones.
    pub fn merge_view(&mut self, user: NodeId, events: &[EventTuple]) {
        let view = self
            .views
            .entry(user)
            .or_insert_with(|| View::with_capacity(self.view_capacity));
        for &e in events {
            view.insert(e);
        }
        self.stats.views_installed += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::textbook;

    fn ev(user: u32, id: u64, ts: u64) -> EventTuple {
        EventTuple::new(user, id, ts)
    }

    #[test]
    fn update_then_query() {
        let mut s = StoreServer::new(0);
        s.update(&[1, 2], ev(9, 1, 100));
        let r = s.query(&[1], 10);
        assert_eq!(r, vec![ev(9, 1, 100)]);
        let r = s.query(&[2], 10);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn query_filters_top_k_across_views() {
        let mut s = StoreServer::new(0);
        for i in 0..20 {
            s.update(&[1], ev(5, i, i));
            s.update(&[2], ev(6, i, 100 + i));
        }
        let r = s.query(&[1, 2], 10);
        assert_eq!(r.len(), 10);
        // All from view 2 (newer timestamps), newest first.
        assert!(r.iter().all(|e| e.user == 6));
        assert!(r.windows(2).all(|w| w[0].timestamp > w[1].timestamp));
    }

    #[test]
    fn duplicate_events_across_views_deduped() {
        let mut s = StoreServer::new(0);
        s.update(&[1, 2], ev(9, 7, 50));
        let r = s.query(&[1, 2], 10);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn zero_k_returns_nothing() {
        let mut s = StoreServer::new(0);
        s.update(&[1, 2], ev(9, 7, 50));
        let r = s.query(&[1, 2], 0);
        assert!(r.is_empty());
        // The query is still counted.
        assert_eq!((s.stats().updates, s.stats().queries), (1, 1));
    }

    #[test]
    fn duplicates_interleaved_across_many_views_deduped() {
        let mut s = StoreServer::new(0);
        // The same three events land in four views each; distinct events in
        // between make the duplicates non-adjacent before the merge.
        for i in 0..3u64 {
            s.update(&[1, 2, 3, 4], ev(9, i, 10 + i));
            s.update(&[2], ev(8, 100 + i, 20 + i));
        }
        let r = s.query(&[1, 2, 3, 4], 100);
        assert_eq!(r.len(), 6, "expected 6 distinct events: {r:?}");
        // Every survivor is unique.
        let mut seen = std::collections::HashSet::new();
        assert!(r.iter().all(|e| seen.insert((e.user, e.event_id))));
        // And newest first.
        assert!(r.windows(2).all(|w| w[0] > w[1]));
    }

    #[test]
    fn missing_views_are_empty() {
        let mut s = StoreServer::new(0);
        assert!(s.query(&[42], 10).is_empty());
    }

    #[test]
    fn capacity_propagates_to_views() {
        let mut s = StoreServer::new(3);
        for i in 0..10 {
            s.update(&[1], ev(2, i, i));
        }
        assert_eq!(s.view(1).unwrap().len(), 3);
    }

    #[test]
    fn query_matches_reference_on_a_mixed_workload() {
        let mut s = StoreServer::new(4);
        for i in 0..40u64 {
            let e = ev((i % 5) as u32, i, (i * 7) % 50);
            let views: Vec<NodeId> = (0..(i % 4 + 1) as u32).collect();
            s.update(&views, e);
        }
        for k in [0, 1, 3, 10, 100] {
            let model = textbook::query(&s, &[0, 1, 2, 3], k);
            assert_eq!(s.query(&[0, 1, 2, 3], k), model, "k = {k}");
        }
    }

    #[test]
    fn scratch_is_reused_across_queries() {
        let mut s = StoreServer::new(0);
        for i in 0..50 {
            s.update(&[1, 2, 3], ev(1, i, i));
        }
        let mut scratch = QueryScratch::new();
        s.query_with(&[1, 2, 3], 10, &mut scratch);
        let caps = scratch.capacities();
        for _ in 0..100 {
            let r = s.query_with(&[1, 2, 3], 10, &mut scratch);
            assert_eq!(r.len(), 10);
        }
        assert_eq!(scratch.capacities(), caps, "scratch must not reallocate");
    }

    #[test]
    fn view_map_hash_spreads_one_hash_placed_shard() {
        use crate::topology::Topology;
        use std::hash::BuildHasher;

        let topology = Topology::hash(50_000, 256, 42);
        let shard = topology.server_of(0);
        let users: Vec<NodeId> = (0..50_000)
            .filter(|&u| topology.server_of(u) == shard)
            .collect();
        let low_bits = |build: &dyn Fn(NodeId) -> u64| {
            let mut seen: Vec<u64> = users.iter().map(|&u| build(u) & 0xff).collect();
            seen.sort_unstable();
            seen.dedup();
            seen.len()
        };
        // Plain Fx, which placed these users, gives them all one bucket.
        let fx = BuildHasherDefault::<FxHasher>::default();
        assert_eq!(low_bits(&|u| fx.hash_one(u)), 1);
        let views = ViewBuildHasher::default();
        let distinct = low_bits(&|u| views.hash_one(u));
        assert!(
            distinct >= 128,
            "{} users on shard {shard} span only {distinct} low-byte buckets",
            users.len()
        );
    }

    #[test]
    fn remove_then_merge_preserves_events_and_dedups() {
        let mut a = StoreServer::new(0);
        let mut b = StoreServer::new(0);
        a.update(&[1], ev(7, 1, 10));
        a.update(&[1], ev(7, 2, 20));
        b.update(&[1], ev(8, 9, 30)); // already at the destination
        b.update(&[1], ev(7, 2, 20)); // duplicate of a migrated event
        let view = a.remove_view(1).expect("view existed");
        assert!(a.view(1).is_none());
        b.merge_view(1, &view.to_vec_newest());
        let merged = b.query(&[1], 10);
        assert_eq!(merged, vec![ev(8, 9, 30), ev(7, 2, 20), ev(7, 1, 10)]);
        assert!(a.remove_view(42).is_none());
    }

    #[test]
    fn merge_view_respects_capacity() {
        let mut s = StoreServer::new(2);
        let events: Vec<EventTuple> = (0..5).map(|i| ev(1, i, i)).collect();
        s.merge_view(9, &events);
        assert_eq!(s.view(9).unwrap().len(), 2);
    }

    #[test]
    fn counters() {
        let mut s = StoreServer::new(0);
        s.update(&[1], ev(1, 1, 1));
        s.query(&[1], 10);
        s.query(&[1], 10);
        assert_eq!((s.stats().updates, s.stats().queries), (1, 2));
    }

    #[test]
    fn shard_stats_track_fanin_and_fanout() {
        let mut s = StoreServer::new(0);
        s.update(&[1, 2, 3], ev(9, 1, 100));
        s.update(&[1], ev(9, 2, 200));
        let r = s.query(&[1, 2], 10);
        let st = s.stats();
        assert_eq!(st.updates, 2);
        assert_eq!(st.events_inserted, 4, "3 views + 1 view");
        assert_eq!(st.queries, 1);
        assert_eq!(st.events_returned, r.len() as u64);
    }

    #[test]
    fn shard_stats_track_migration_sides() {
        let mut a = StoreServer::new(0);
        let mut b = StoreServer::new(0);
        a.update(&[1], ev(7, 1, 10));
        let view = a.remove_view(1).unwrap();
        a.remove_view(42); // miss: not counted
        b.merge_view(1, &view.to_vec_newest());
        assert_eq!(a.stats().views_extracted, 1);
        assert_eq!(b.stats().views_installed, 1);
    }

    #[test]
    fn shard_stats_merge_and_average() {
        let mut st = ShardStats {
            updates: 1,
            queries: 2,
            events_inserted: 3,
            events_returned: 4,
            batches: 5,
            batch_ops: 6,
            views_extracted: 7,
            views_installed: 8,
        };
        let other = ShardStats {
            updates: 10,
            ..Default::default()
        };
        st.merge(&other);
        assert_eq!(st.updates, 11);
        assert!((ShardStats::default().avg_batch_ops() - 0.0).abs() < 1e-12);
        assert!((st.avg_batch_ops() - 6.0 / 5.0).abs() < 1e-12);
    }
}
