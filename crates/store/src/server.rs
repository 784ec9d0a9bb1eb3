//! A data-store shard: user views plus the thin server-side layer that
//! aggregates and filters query batches (§4.3).

use bytes::{Buf, BufMut, BytesMut};
use piggyback_graph::fx::FxHashMap;
use piggyback_graph::NodeId;

use crate::merge::sort_merge;
use crate::tuple::EventTuple;
use crate::view::View;

/// Per-shard operation counters, kept as plain integers under the shard's
/// existing lock (both transports serve every batch through the same
/// `serve_batch`, so the counts are identical whether the shard runs on
/// a worker thread or caller-runs (`Transport::Direct`), except
/// `events_returned`, which the caller-runs floor can lower). Scraped
/// over the wire via `ShardRequest::Stats`.
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

/// Wire size of an encoded [`ShardStats`] (8 × u64, little-endian).
pub const SHARD_STATS_BYTES: usize = 64;

impl ShardStats {
    /// Encodes as fixed-width little-endian u64s.
    pub fn encode(&self, buf: &mut BytesMut) {
        buf.reserve(SHARD_STATS_BYTES);
        for v in [
            self.updates,
            self.queries,
            self.events_inserted,
            self.events_returned,
            self.batches,
            self.batch_ops,
            self.views_extracted,
            self.views_installed,
        ] {
            buf.put_u64_le(v);
        }
    }

    /// Decodes; `None` when fewer than [`SHARD_STATS_BYTES`] remain.
    pub fn decode(buf: &mut impl Buf) -> Option<Self> {
        if buf.remaining() < SHARD_STATS_BYTES {
            return None;
        }
        Some(ShardStats {
            updates: buf.get_u64_le(),
            queries: buf.get_u64_le(),
            events_inserted: buf.get_u64_le(),
            events_returned: buf.get_u64_le(),
            batches: buf.get_u64_le(),
            batch_ops: buf.get_u64_le(),
            views_extracted: buf.get_u64_le(),
            views_installed: buf.get_u64_le(),
        })
    }

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
/// Holds the tournament heap, the per-view cursors and the output buffer.
/// All three retain their capacity across requests, so a warmed-up worker
/// serves queries with **zero heap allocation** (asserted by
/// `tests/query_alloc.rs`).
#[derive(Debug, Default)]
pub struct QueryScratch {
    /// Max-heap of `(head tuple, cursor index)` — the tuple orders first,
    /// so pops are globally newest first and ties break deterministically.
    heap: std::collections::BinaryHeap<(EventTuple, u32)>,
    cursors: Vec<Cursor>,
    out: Vec<EventTuple>,
}

/// One view's merge cursor: position is a logical newest-first index, so
/// advancing never touches the ring's internals.
#[derive(Clone, Copy, Debug)]
struct Cursor {
    view: NodeId,
    /// Next newest-first index to emit.
    next: u32,
    /// One past the last index this view contributes (`min(len, k)`).
    limit: u32,
}

impl QueryScratch {
    /// Empty scratch.
    pub fn new() -> Self {
        QueryScratch::default()
    }

    /// `(heap, cursors, out)` capacities — lets tests assert steady-state
    /// reuse.
    pub fn capacities(&self) -> (usize, usize, usize) {
        (
            self.heap.capacity(),
            self.cursors.capacity(),
            self.out.capacity(),
        )
    }
}

/// One data-store server holding a subset of user views.
///
/// Requests arrive batched: an update carries one event plus every view on
/// this server it must be inserted into; a query carries the set of views to
/// read and returns at most `k` events filtered *server-side* across those
/// views (one reply message regardless of how many views were touched).
#[derive(Clone, Debug)]
pub struct StoreServer {
    views: FxHashMap<NodeId, View>,
    view_capacity: usize,
    stats: ShardStats,
}

impl StoreServer {
    /// Empty server whose views are trimmed to `view_capacity` events
    /// (0 = unbounded).
    pub fn new(view_capacity: usize) -> Self {
        StoreServer {
            views: FxHashMap::default(),
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
    /// A bounded k-way tournament merge over the views' ring buffers: each
    /// listed view contributes at most `min(k, len)` events through a
    /// cursor, and a small max-heap of one head per view pops the global
    /// newest until `k` distinct events are emitted — O((k + f) log f) for
    /// `f` views instead of copying and fully sorting every candidate. A
    /// view whose newest event is not above the floor opens no cursor, and
    /// a cursor stops at its first such event, so the merge ends early.
    /// All state lives in `scratch`; a warmed-up caller allocates nothing.
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
        if k == 0 {
            return &scratch.out;
        }
        let above = |t: EventTuple| floor.is_none_or(|f| t > f);
        for &v in views {
            let Some(view) = self.views.get(&v).filter(|view| !view.is_empty()) else {
                continue;
            };
            let head = view.nth_newest(0);
            if above(head) {
                let idx = scratch.cursors.len() as u32;
                scratch.cursors.push(Cursor {
                    view: v,
                    next: 1,
                    limit: view.len().min(k) as u32,
                });
                scratch.heap.push((head, idx));
            }
        }
        while let Some((t, i)) = scratch.heap.pop() {
            if scratch.out.last() != Some(&t) {
                if scratch.out.len() == k {
                    break;
                }
                scratch.out.push(t);
            }
            let cur = &mut scratch.cursors[i as usize];
            if cur.next < cur.limit {
                let next = self.views[&cur.view].nth_newest(cur.next as usize);
                cur.next += 1;
                if above(next) {
                    scratch.heap.push((next, i));
                }
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

    /// The pre-ring-buffer query path: copy every candidate, full-sort,
    /// dedup, truncate. Kept only as the differential-testing oracle for
    /// [`query_with`](StoreServer::query_with) (`tests/query_differential.rs`
    /// and the worker round-trip test); no production or benchmark code
    /// calls it.
    pub fn query_reference(&mut self, views: &[NodeId], k: usize) -> Vec<EventTuple> {
        self.stats.queries += 1;
        if k == 0 {
            return Vec::new();
        }
        let mut out: Vec<EventTuple> = Vec::new();
        for &v in views {
            if let Some(view) = self.views.get(&v) {
                out.extend(view.iter_newest().take(k));
            }
        }
        sort_merge(&mut out, k);
        self.stats.events_returned += out.len() as u64;
        out
    }

    /// Number of views materialized on this server.
    pub fn view_count(&self) -> usize {
        self.views.len()
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

    /// Mutable counter access for the request-handling layer (batch and
    /// migration accounting happens where those requests are decoded).
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
        let mut a = StoreServer::new(4);
        let mut b = StoreServer::new(4);
        for i in 0..40u64 {
            let e = ev((i % 5) as u32, i, (i * 7) % 50);
            let views: Vec<NodeId> = (0..(i % 4 + 1) as u32).collect();
            a.update(&views, e);
            b.update(&views, e);
        }
        for k in [0, 1, 3, 10, 100] {
            assert_eq!(
                a.query(&[0, 1, 2, 3], k),
                b.query_reference(&[0, 1, 2, 3], k),
                "k = {k}"
            );
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
    fn shard_stats_wire_roundtrip_and_merge() {
        let mut st = ShardStats {
            updates: 1,
            queries: 2,
            events_inserted: 3,
            events_returned: 4,
            batches: 5,
            batch_ops: 6,
            views_extracted: 7,
            views_installed: u64::MAX,
        };
        let mut buf = BytesMut::new();
        st.encode(&mut buf);
        assert_eq!(buf.len(), SHARD_STATS_BYTES);
        let wire = buf.freeze();
        assert_eq!(ShardStats::decode(&mut wire.clone()), Some(st));

        let mut short = wire.slice(0..10);
        assert_eq!(ShardStats::decode(&mut short), None);

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
