//! Materialized per-user views.
//!
//! A view is the set of event references a user's stream can be assembled
//! from (Definition 1). The prototype keeps views bounded: when a view
//! exceeds its capacity the oldest events are trimmed away ("we added a
//! thin layer ... to trim views when they contain too many events").
//!
//! Storage is a power-of-two **ring buffer** of 20-byte slots ordered
//! oldest → newest from the head. The dominant insert — a fresh event
//! carrying the newest timestamp — is one comparison with the tail and a
//! single write after it, and trimming a full view is a head-pointer bump;
//! neither searches nor shifts memory. Out-of-order arrivals (piggybacked
//! redeliveries, migration merges) binary-search their slot and shift the
//! shorter side of the ring, bounded by the view capacity. An empty view
//! is 48 bytes.
//!
//! Duplicate suppression is **positional and exact**. A tuple newer than
//! the tail cannot be a redelivery of anything held; any other insert
//! binary-searches its position anyway, and in a sorted ring a
//! bit-identical tuple can only sit *at* that position, so one comparison
//! there drops a redelivery for as long as the original is retained —
//! however old. That covers every redelivery the system produces: chaos
//! duplicates, k-way replicated writes, catch-up installs and migration
//! merges all re-send the same wire bytes. A trimmed event cannot come
//! back either: it is older than everything in a full view, which rejects
//! it. What is *not* suppressed is a re-stamped `(producer, event id)` —
//! the same key under a different timestamp is a different tuple and is
//! stored as one. No in-repo path emits one (an event is stamped once,
//! when it is shared). The semantics are deterministic and are
//! property-tested against a reference model in `tests/view_properties.rs`.

use crate::tuple::EventTuple;

/// One ring slot: an [`EventTuple`] without its four bytes of alignment
/// padding (20 bytes instead of 24).
#[derive(Clone, Copy, Debug)]
#[repr(C, packed(4))]
struct Slot {
    timestamp: u64,
    event_id: u64,
    user: u32,
}

impl From<EventTuple> for Slot {
    #[inline]
    fn from(t: EventTuple) -> Self {
        Slot {
            timestamp: t.timestamp,
            event_id: t.event_id,
            user: t.user,
        }
    }
}

impl From<Slot> for EventTuple {
    #[inline]
    fn from(s: Slot) -> Self {
        EventTuple::new(s.user, s.event_id, s.timestamp)
    }
}

/// A bounded, recency-ordered materialized view (ring buffer).
#[derive(Clone, Debug, Default)]
pub struct View {
    /// Physical ring storage; length is zero or a power of two. Events are
    /// logically ascending by [`EventTuple`] order from `head`.
    buf: Vec<Slot>,
    /// Physical index of the oldest event.
    head: usize,
    /// Live events in the ring.
    len: usize,
    /// Maximum events retained (0 = unbounded).
    capacity: usize,
}

impl View {
    /// Unbounded view.
    pub fn new() -> Self {
        View::default()
    }

    /// View trimmed to at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        View {
            capacity,
            ..View::default()
        }
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view holds no events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The trim capacity (0 = unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    #[inline]
    fn mask(&self) -> usize {
        self.buf.len() - 1
    }

    /// Physical index of logical position `i` (0 = oldest).
    #[inline]
    fn phys(&self, i: usize) -> usize {
        (self.head + i) & self.mask()
    }

    /// The event at logical position `i` (0 = oldest).
    #[inline]
    fn at(&self, i: usize) -> EventTuple {
        self.buf[self.phys(i)].into()
    }

    /// The `j`-th newest event (0 = newest). O(1).
    ///
    /// # Panics
    ///
    /// Panics if `j >= len()`.
    #[inline]
    pub fn nth_newest(&self, j: usize) -> EventTuple {
        debug_assert!(j < self.len);
        self.at(self.len - 1 - j)
    }

    /// Iterates events newest first.
    pub fn iter_newest(&self) -> impl Iterator<Item = EventTuple> + '_ {
        (0..self.len).map(|j| self.nth_newest(j))
    }

    /// Collects all events into a `Vec`, newest first (tests/migration).
    pub fn to_vec_newest(&self) -> Vec<EventTuple> {
        self.iter_newest().collect()
    }

    /// Grows the physical ring to `target` slots (next power of two),
    /// re-linearizing so the oldest event lands at index 0.
    fn grow(&mut self, target: usize) {
        let new_size = target.next_power_of_two().max(8);
        let mut next = Vec::with_capacity(new_size);
        for i in 0..self.len {
            next.push(self.buf[self.phys(i)]);
        }
        next.resize(new_size, EventTuple::new(0, 0, 0).into());
        self.buf = next;
        self.head = 0;
    }

    /// Inserts an event reference, keeping recency order and trimming to
    /// capacity. An event newer than the newest held is written at the
    /// tail after one comparison; any other binary-searches its slot.
    /// Redelivery of a tuple the view still holds is a no-op, however long
    /// ago the original arrived (see the module docs).
    pub fn insert(&mut self, t: EventTuple) {
        // Logical position among ascending events: everything before `pos`
        // is older than `t`, so a bit-identical tuple can only sit at `pos`.
        let pos = if self.len > 0 && self.at(self.len - 1) >= t {
            self.partition_point(&t)
        } else {
            self.len
        };
        if pos < self.len && self.at(pos) == t {
            return; // idempotent redelivery
        }
        if self.capacity > 0 && self.len == self.capacity {
            if pos == 0 {
                // Older than everything in a full view: it would be the
                // first event trimmed — never admit it.
                return;
            }
            // Trim the oldest via a head bump, then insert one slot lower.
            self.head = self.phys(1);
            self.len -= 1;
            self.insert_at(pos - 1, t);
        } else {
            if self.len == self.buf.len() {
                self.grow(self.len + 1);
            }
            self.insert_at(pos, t);
        }
    }

    /// Number of live events strictly older than `t` (binary search over
    /// the logical order).
    fn partition_point(&self, t: &EventTuple) -> usize {
        let (mut lo, mut hi) = (0, self.len);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.at(mid) < *t {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Inserts `t` at logical position `pos`, shifting the shorter side of
    /// the ring. `pos == len` (the newest-timestamp fast path) writes one
    /// slot and moves nothing.
    fn insert_at(&mut self, pos: usize, t: EventTuple) {
        debug_assert!(self.len < self.buf.len());
        let mask = self.mask();
        if pos >= self.len / 2 {
            // Shift (pos..len) one slot toward the tail.
            let mut i = self.len;
            while i > pos {
                let dst = (self.head + i) & mask;
                let src = (self.head + i - 1) & mask;
                self.buf[dst] = self.buf[src];
                i -= 1;
            }
        } else {
            // Shift (0..pos) one slot toward the head.
            self.head = (self.head + mask) & mask; // head - 1 mod size
            for i in 0..pos {
                let dst = (self.head + i) & mask;
                let src = (self.head + i + 1) & mask;
                self.buf[dst] = self.buf[src];
            }
        }
        let slot = (self.head + pos) & mask;
        self.buf[slot] = t.into();
        self.len += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(user: u32, id: u64, ts: u64) -> EventTuple {
        EventTuple::new(user, id, ts)
    }

    fn timestamps(v: &View) -> Vec<u64> {
        v.iter_newest().map(|e| e.timestamp).collect()
    }

    #[test]
    fn keeps_recency_order() {
        let mut v = View::new();
        v.insert(t(1, 1, 10));
        v.insert(t(2, 1, 30));
        v.insert(t(3, 1, 20));
        assert_eq!(timestamps(&v), vec![30, 20, 10]);
    }

    #[test]
    fn trims_to_capacity() {
        let mut v = View::with_capacity(3);
        for i in 0..10 {
            v.insert(t(1, i, i));
        }
        assert_eq!(v.len(), 3);
        // The newest three survive.
        assert_eq!(timestamps(&v), vec![9, 8, 7]);
    }

    #[test]
    fn nth_newest_indexes_from_the_top() {
        let mut v = View::new();
        for i in 0..5 {
            v.insert(t(1, i, i));
        }
        assert_eq!(v.nth_newest(0).timestamp, 4);
        assert_eq!(v.nth_newest(4).timestamp, 0);
        assert_eq!(v.iter_newest().count(), 5);
    }

    #[test]
    fn duplicate_insert_ignored() {
        let mut v = View::new();
        v.insert(t(1, 7, 10));
        v.insert(t(1, 7, 10));
        assert_eq!(v.len(), 1);
        // The same key under a different timestamp is a different tuple,
        // not a redelivery (module docs): it is stored as a distinct
        // event, and is itself idempotent from then on.
        v.insert(t(1, 7, 99));
        v.insert(t(1, 7, 99));
        assert_eq!(timestamps(&v), vec![99, 10]);
    }

    #[test]
    fn unbounded_view_grows() {
        let mut v = View::new();
        for i in 0..1000 {
            v.insert(t(1, i, i));
        }
        assert_eq!(v.len(), 1000);
    }

    #[test]
    fn out_of_order_inserts_land_sorted() {
        let mut v = View::new();
        // Alternate ends plus middles to exercise both shift directions
        // across wraps.
        for ts in [50u64, 10, 90, 30, 70, 20, 80, 40, 60, 5, 95, 55] {
            v.insert(t(1, ts, ts));
        }
        let got = timestamps(&v);
        let mut want = got.clone();
        want.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(got, want);
        assert_eq!(v.len(), 12);
    }

    #[test]
    fn full_view_rejects_events_older_than_everything() {
        let mut v = View::with_capacity(4);
        for i in 10..14 {
            v.insert(t(1, i, i));
        }
        v.insert(t(1, 1, 1)); // older than the whole window
        assert_eq!(timestamps(&v), vec![13, 12, 11, 10]);
        // A middle insert still lands and evicts the oldest.
        v.insert(t(2, 100, 12)); // tie on ts 12, distinct producer
        assert_eq!(v.len(), 4);
        assert!(!timestamps(&v).contains(&10));
    }

    #[test]
    fn wrapped_ring_stays_sorted_under_churn() {
        let mut v = View::with_capacity(8);
        for i in 0..100u64 {
            v.insert(t(1, i, i * 2));
            // Interleave a slightly older event so the middle path runs
            // while the ring is wrapped.
            if i > 3 {
                v.insert(t(2, i, i * 2 - 3));
            }
        }
        let got = timestamps(&v);
        let mut want = got.clone();
        want.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(got, want);
        assert_eq!(v.len(), 8);
    }

    #[test]
    fn redelivery_is_dropped_however_old() {
        let mut v = View::new();
        v.insert(t(1, 1, 1));
        for i in 2..200u64 {
            v.insert(t(1, i, i));
        }
        // 198 distinct events later the exact redelivery is still
        // recognized: the test is positional, not a window of recent keys.
        v.insert(t(1, 1, 1));
        assert_eq!(v.len(), 199);
    }

    #[test]
    fn view_and_slot_are_compact() {
        assert_eq!(std::mem::size_of::<Slot>(), 20);
        assert!(std::mem::size_of::<View>() <= 56);
    }

    #[test]
    fn slot_round_trips_extreme_values() {
        let max = EventTuple {
            user: u32::MAX,
            event_id: u64::MAX,
            timestamp: u64::MAX,
        };
        assert_eq!(EventTuple::from(Slot::from(max)), max);
        let mut v = View::new();
        v.insert(max);
        v.insert(t(0, 0, 0));
        assert_eq!(v.to_vec_newest(), vec![max, t(0, 0, 0)]);
    }
}
