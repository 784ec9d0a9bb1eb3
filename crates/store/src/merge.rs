//! The top-k reply merge: newest first, exact duplicates removed,
//! truncated to `k`.
//!
//! [`ReplyMerger`] is an incremental top-k over per-shard wire replies.
//! Each reply is already sorted newest first (the server-side filter emits
//! merged order), so [`absorb`](ReplyMerger::absorb) folds it into the
//! running top-k with one two-way merge that decodes at most `k` tuples of
//! it. Once `k` tuples are held, [`floor`](ReplyMerger::floor) is the
//! running k-th newest: a tuple not strictly newer can no longer enter the
//! result, so the caller-runs client sends it to the next shard and the
//! shard ships only what can still count. The buffers live in the merger
//! and are reused across requests — zero steady-state allocation.
//!
//! The tests compare it with the materialize–sort–truncate model: sort
//! the union of the replies newest first, drop duplicates, keep `k`.

use bytes::{Buf, BytesMut};

use crate::tuple::EventTuple;

/// Reusable incremental top-k merger over per-shard reply buffers.
#[derive(Debug, Default)]
pub struct ReplyMerger {
    /// The running top-k: newest first, distinct, at most `k` long.
    held: Vec<EventTuple>,
    /// Output of the next two-way merge; swapped with `held` after it.
    spare: Vec<EventTuple>,
}

impl ReplyMerger {
    /// Empty merger.
    pub fn new() -> Self {
        ReplyMerger::default()
    }

    /// Drops the running top-k: the next [`absorb`](Self::absorb) starts a
    /// new merge.
    pub fn clear(&mut self) {
        self.held.clear();
    }

    /// Merges one newest-first wire reply into the running top-k, keeping
    /// the `k` newest distinct tuples. Decoding stops as soon as `k` are
    /// placed, so the tail of a long reply is never read; the buffer's
    /// read cursor advances past what was decoded.
    pub fn absorb(&mut self, reply: &mut impl Buf, k: usize) {
        let mut next = EventTuple::decode(reply);
        if next.is_none() {
            return; // an empty reply changes nothing
        }
        let (held, out) = (&self.held, &mut self.spare);
        out.clear();
        let mut i = 0;
        while out.len() < k {
            let t = match next {
                Some(r) if held.get(i).is_none_or(|&h| r > h) => {
                    next = EventTuple::decode(reply);
                    debug_assert!(next.is_none_or(|n| n <= r), "reply not newest first");
                    r
                }
                _ if i < held.len() => {
                    i += 1;
                    held[i - 1]
                }
                _ => break,
            };
            if out.last() != Some(&t) {
                out.push(t);
            }
        }
        std::mem::swap(&mut self.held, &mut self.spare);
    }

    /// The running k-th newest tuple once `k` are held (`None` before, and
    /// for `k = 0`). Every tuple of a later reply that is not strictly
    /// newer than it would be cut or deduplicated away.
    pub fn floor(&self, k: usize) -> Option<EventTuple> {
        k.checked_sub(1).and_then(|i| self.held.get(i)).copied()
    }

    /// The running top-k, newest first.
    pub fn merged(&self) -> &[EventTuple] {
        &self.held
    }

    /// Merges the `k` newest distinct tuples across `replies` into `out`
    /// (cleared first): absorbs each reply in turn, then emits. Every
    /// reply buffer must be sorted newest first, as produced by the
    /// store's server-side filter; buffers are consumed (their read
    /// cursors advance).
    pub fn merge_into(&mut self, replies: &mut [BytesMut], k: usize, out: &mut Vec<EventTuple>) {
        self.clear();
        for reply in replies.iter_mut() {
            self.absorb(reply, k);
        }
        out.clear();
        out.extend_from_slice(&self.held);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::textbook::newest_k;
    use bytes::BytesMut;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
        let v = vec![ev(1, 1, 10), ev(2, 2, 30), ev(1, 1, 10), ev(3, 3, 20)];
        assert_eq!(newest_k(v, 2), vec![ev(2, 2, 30), ev(3, 3, 20)]);
    }

    #[test]
    fn merge_into_matches_sort_merge() {
        let a = [ev(1, 1, 50), ev(2, 2, 30), ev(3, 3, 10)];
        let b = [ev(4, 4, 40), ev(2, 2, 30), ev(5, 5, 20)];
        let c = [ev(6, 6, 45)];
        let flat = newest_k(a.iter().chain(&b).chain(&c).copied().collect(), 4);
        let mut replies = vec![encode(&a), encode(&b), encode(&c)];
        let mut merger = ReplyMerger::new();
        let mut out = Vec::new();
        merger.merge_into(&mut replies, 4, &mut out);
        assert_eq!(out, flat);
    }

    #[test]
    fn merge_handles_empty_and_k_zero() {
        let mut merger = ReplyMerger::new();
        let mut out = vec![ev(9, 9, 9)];
        merger.merge_into(&mut [], 5, &mut out);
        assert!(out.is_empty());
        let mut replies = vec![encode(&[ev(1, 1, 1)])];
        merger.merge_into(&mut replies, 0, &mut out);
        assert!(out.is_empty());
        assert_eq!(merger.floor(0), None);
    }

    #[test]
    fn merge_reuses_buffers_without_growth() {
        let a = [ev(1, 1, 50), ev(2, 2, 30)];
        let b = [ev(3, 3, 40)];
        let mut merger = ReplyMerger::new();
        let mut out = Vec::with_capacity(8);
        let mut replies = vec![encode(&a), encode(&b)];
        merger.merge_into(&mut replies, 8, &mut out);
        let caps = (merger.held.capacity(), merger.spare.capacity());
        let out_cap = out.capacity();
        for _ in 0..100 {
            let mut replies = vec![encode(&a), encode(&b)];
            merger.merge_into(&mut replies, 8, &mut out);
        }
        assert_eq!((merger.held.capacity(), merger.spare.capacity()), caps);
        assert_eq!(out.capacity(), out_cap);
        assert_eq!(out.len(), 3);
    }

    /// A random newest-first reply: distinct tuples from small id and
    /// time spaces, so replies share tuples and timestamps tie.
    fn random_reply(rng: &mut StdRng) -> Vec<EventTuple> {
        let n = rng.random_range(0..12usize);
        let r: Vec<EventTuple> = (0..n)
            .map(|_| {
                let user = rng.random_range(0..4u32);
                ev(user, u64::from(user), rng.random_range(0..30u64))
            })
            .collect();
        newest_k(r, usize::MAX)
    }

    #[test]
    fn absorbing_in_any_order_equals_sort_merge_of_the_union() {
        for seed in 0..300u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut replies: Vec<Vec<EventTuple>> = (0..rng.random_range(0..6))
                .map(|_| random_reply(&mut rng))
                .collect();
            let k = rng.random_range(0..15usize);
            let expect = newest_k(replies.iter().flatten().copied().collect(), k);
            for _ in 0..3 {
                // Fisher-Yates: absorption order must not matter.
                for i in (1..replies.len()).rev() {
                    replies.swap(i, rng.random_range(0..=i));
                }
                let mut merger = ReplyMerger::new();
                let mut seen = Vec::new();
                for reply in &replies {
                    merger.absorb(&mut encode(reply), k);
                    seen.extend_from_slice(reply);
                    let running = newest_k(seen.clone(), k);
                    assert_eq!(merger.merged(), &running[..], "seed {seed}, k {k}");
                    let kth = if k > 0 && running.len() == k {
                        Some(running[k - 1])
                    } else {
                        None
                    };
                    assert_eq!(merger.floor(k), kth, "seed {seed}, k {k}");
                }
                assert_eq!(merger.merged(), &expect[..], "seed {seed}, k {k}");
                let mut wire: Vec<BytesMut> = replies.iter().map(|r| encode(r)).collect();
                let mut out = Vec::new();
                merger.merge_into(&mut wire, k, &mut out);
                assert_eq!(out, expect, "merge_into, seed {seed}, k {k}");
            }
        }
    }

    #[test]
    fn tuples_at_or_below_the_floor_change_nothing() {
        let mut merger = ReplyMerger::new();
        merger.absorb(&mut encode(&[ev(1, 1, 50), ev(2, 2, 40), ev(3, 3, 30)]), 3);
        let floor = merger.floor(3).expect("three tuples held");
        assert_eq!(floor, ev(3, 3, 30));
        let before = merger.merged().to_vec();
        // The floor itself (a duplicate) and anything older cannot enter.
        merger.absorb(&mut encode(&[floor, ev(4, 4, 20)]), 3);
        assert_eq!(merger.merged(), &before[..]);
    }
}
