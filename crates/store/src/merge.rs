//! Shared top-k merge logic for query replies.
//!
//! Two implementations of the same contract — newest first, exact
//! duplicates removed, truncated to `k`:
//!
//! * [`sort_merge`] — the straightforward sort + dedup + truncate over a
//!   flat buffer. This is the *reference* path: no request runs it; it is
//!   what `StoreServer::query_reference` and the differential tests
//!   compare the k-way merges against.
//! * [`ReplyMerger`] — a bounded k-way tournament merge over per-shard
//!   wire replies. Each reply is already sorted newest first (the
//!   server-side filter emits merged order), so the client only needs a
//!   small heap of one head per reply: O(k log r) tuple decodes instead
//!   of decoding and sorting every tuple of every reply. The heap and its
//!   buffers live in the merger and are reused across requests — zero
//!   steady-state allocation.

use bytes::BytesMut;

use crate::tuple::EventTuple;

/// Sorts `tuples` newest first, removes exact duplicates, keeps `k`.
pub fn sort_merge(tuples: &mut Vec<EventTuple>, k: usize) {
    tuples.sort_unstable_by(|a, b| b.cmp(a));
    tuples.dedup();
    tuples.truncate(k);
}

/// Reusable k-way merger over per-shard reply buffers.
#[derive(Debug, Default)]
pub struct ReplyMerger {
    /// Max-heap of `(head tuple, reply index)`; the tuple orders first, so
    /// the pop order is globally newest first and deterministic.
    heap: std::collections::BinaryHeap<(EventTuple, u32)>,
}

impl ReplyMerger {
    /// Empty merger.
    pub fn new() -> Self {
        ReplyMerger::default()
    }

    /// Merges the `k` newest distinct tuples across `replies` into `out`
    /// (cleared first). Every reply buffer must be sorted newest first, as
    /// produced by the store's server-side filter; buffers are consumed
    /// (their read cursors advance).
    pub fn merge_into(&mut self, replies: &mut [BytesMut], k: usize, out: &mut Vec<EventTuple>) {
        out.clear();
        self.heap.clear();
        if k == 0 {
            return;
        }
        for (i, reply) in replies.iter_mut().enumerate() {
            if let Some(t) = EventTuple::decode(reply) {
                self.heap.push((t, i as u32));
            }
        }
        while let Some((t, i)) = self.heap.pop() {
            if out.last() != Some(&t) {
                if out.len() == k {
                    break;
                }
                out.push(t);
            }
            if let Some(next) = EventTuple::decode(&mut replies[i as usize]) {
                debug_assert!(next <= t, "reply {i} not sorted newest first");
                self.heap.push((next, i));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn ev(user: u32, id: u64, ts: u64) -> EventTuple {
        EventTuple::new(user, id, ts)
    }

    fn encode(tuples: &[EventTuple]) -> BytesMut {
        let mut b = BytesMut::new();
        for t in tuples {
            t.encode(&mut b);
        }
        b
    }

    #[test]
    fn sort_merge_orders_dedups_truncates() {
        let mut v = vec![ev(1, 1, 10), ev(2, 2, 30), ev(1, 1, 10), ev(3, 3, 20)];
        sort_merge(&mut v, 2);
        assert_eq!(v, vec![ev(2, 2, 30), ev(3, 3, 20)]);
    }

    #[test]
    fn kway_matches_sort_merge() {
        let a = [ev(1, 1, 50), ev(2, 2, 30), ev(3, 3, 10)];
        let b = [ev(4, 4, 40), ev(2, 2, 30), ev(5, 5, 20)];
        let c = [ev(6, 6, 45)];
        let mut flat: Vec<EventTuple> = a.iter().chain(&b).chain(&c).copied().collect();
        sort_merge(&mut flat, 4);
        let mut replies = vec![encode(&a), encode(&b), encode(&c)];
        let mut merger = ReplyMerger::new();
        let mut out = Vec::new();
        merger.merge_into(&mut replies, 4, &mut out);
        assert_eq!(out, flat);
    }

    #[test]
    fn kway_handles_empty_and_k_zero() {
        let mut merger = ReplyMerger::new();
        let mut out = vec![ev(9, 9, 9)];
        merger.merge_into(&mut [], 5, &mut out);
        assert!(out.is_empty());
        let mut replies = vec![encode(&[ev(1, 1, 1)])];
        merger.merge_into(&mut replies, 0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn kway_reuses_buffers_without_growth() {
        let a = [ev(1, 1, 50), ev(2, 2, 30)];
        let b = [ev(3, 3, 40)];
        let mut merger = ReplyMerger::new();
        let mut out = Vec::with_capacity(8);
        let mut replies = vec![encode(&a), encode(&b)];
        merger.merge_into(&mut replies, 8, &mut out);
        let heap_cap = merger.heap.capacity();
        let out_cap = out.capacity();
        for _ in 0..100 {
            let mut replies = vec![encode(&a), encode(&b)];
            merger.merge_into(&mut replies, 8, &mut out);
        }
        assert_eq!(merger.heap.capacity(), heap_cap);
        assert_eq!(out.capacity(), out_cap);
        assert_eq!(out.len(), 3);
    }
}
