//! The 24-byte event tuple of the prototype (§4.3: "Updates insert events
//! as (user id, event id, timestamp) tuples into user views ... The tuple
//! size is 24 bytes").

use bytes::{Buf, BufMut, BytesMut};
use piggyback_graph::NodeId;

/// Wire size of an encoded tuple.
pub const TUPLE_BYTES: usize = 24;

/// One event reference stored in a view.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventTuple {
    /// Logical timestamp (monotonic per cluster). Ordered first so the
    /// derived `Ord` sorts by recency.
    pub timestamp: u64,
    /// Producer of the event.
    pub user: NodeId,
    /// Event identifier, unique per producer.
    pub event_id: u64,
}

impl EventTuple {
    /// Creates a tuple.
    pub fn new(user: NodeId, event_id: u64, timestamp: u64) -> Self {
        EventTuple {
            timestamp,
            user,
            event_id,
        }
    }

    /// Encodes into the 24-byte wire format (u64 user, u64 event id,
    /// u64 timestamp, little-endian — user widened to match the paper's
    /// tuple size).
    pub fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.user as u64);
        buf.put_u64_le(self.event_id);
        buf.put_u64_le(self.timestamp);
    }

    /// Encodes into a stack array — the allocation-free wire form the
    /// batched update plane ships (same layout as [`encode`](Self::encode)).
    pub fn to_wire(&self) -> [u8; TUPLE_BYTES] {
        let mut out = [0u8; TUPLE_BYTES];
        out[0..8].copy_from_slice(&(self.user as u64).to_le_bytes());
        out[8..16].copy_from_slice(&self.event_id.to_le_bytes());
        out[16..24].copy_from_slice(&self.timestamp.to_le_bytes());
        out
    }

    /// Encodes a run of tuples into `buf` (the batched reply format: a
    /// plain concatenation of 24-byte records).
    pub fn encode_all(tuples: &[EventTuple], buf: &mut BytesMut) {
        buf.reserve(tuples.len() * TUPLE_BYTES);
        for t in tuples {
            t.encode(buf);
        }
    }

    /// Decodes a tuple; returns `None` if fewer than 24 bytes remain.
    pub fn decode(buf: &mut impl Buf) -> Option<Self> {
        if buf.remaining() < TUPLE_BYTES {
            return None;
        }
        let user = buf.get_u64_le() as NodeId;
        let event_id = buf.get_u64_le();
        let timestamp = buf.get_u64_le();
        Some(EventTuple {
            timestamp,
            user,
            event_id,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    /// `t` encoded into a fresh buffer.
    fn encoded(t: &EventTuple) -> Bytes {
        let mut b = BytesMut::new();
        t.encode(&mut b);
        b.freeze()
    }

    #[test]
    fn wire_size_is_24_bytes() {
        let t = EventTuple::new(7, 42, 1000);
        assert_eq!(encoded(&t).len(), TUPLE_BYTES);
    }

    #[test]
    fn roundtrip() {
        let t = EventTuple::new(123, u64::MAX, 55);
        let mut bytes = encoded(&t);
        assert_eq!(EventTuple::decode(&mut bytes), Some(t));
    }

    #[test]
    fn wire_array_matches_heap_encoding() {
        let t = EventTuple::new(77, 42, 9000);
        let wire = t.to_wire();
        assert_eq!(&wire[..], &encoded(&t)[..]);
        let mut cursor: &[u8] = &wire;
        assert_eq!(EventTuple::decode(&mut cursor), Some(t));
    }

    #[test]
    fn decode_short_buffer_fails() {
        let t = EventTuple::new(1, 2, 3);
        let mut short = encoded(&t).slice(0..10);
        assert_eq!(EventTuple::decode(&mut short), None);
    }

    #[test]
    fn ordering_is_by_recency_first() {
        let old = EventTuple::new(9, 1, 10);
        let new = EventTuple::new(1, 1, 20);
        assert!(new > old);
    }

    #[test]
    fn stream_of_tuples() {
        let mut buf = BytesMut::new();
        for i in 0..5 {
            EventTuple::new(i, i as u64, i as u64 * 10).encode(&mut buf);
        }
        let mut bytes = buf.freeze();
        let mut n = 0;
        while let Some(t) = EventTuple::decode(&mut bytes) {
            assert_eq!(t.user as u64, t.event_id);
            n += 1;
        }
        assert_eq!(n, 5);
    }
}
