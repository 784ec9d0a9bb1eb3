//! Lock-free scalar instruments: a stripe-sharded [`Counter`] and an
//! atomic f64 [`Gauge`].
//!
//! Both are clonable *handles* over shared storage: registering an
//! instrument once in a [`Registry`](crate::Registry) and cloning the
//! handle into each worker thread is the intended pattern. Counter clones
//! rotate across cache-line-padded stripes, so concurrent writers from
//! different handles rarely contend on the same line — `add` is one
//! relaxed `fetch_add` with no read-modify cycle shared across threads.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Write stripes per counter and per concurrent histogram. Eight covers
/// the worker counts the serving runtime uses while keeping `get()` (a sum
/// over stripes) trivially cheap.
pub(crate) const STRIPES: usize = 8;

/// One cache line of counter storage; the padding keeps neighbouring
/// stripes from false-sharing under concurrent `fetch_add`.
#[repr(align(64))]
#[derive(Debug, Default)]
struct Stripe(AtomicU64);

/// Round-robin seed so each cloned handle lands on a fresh stripe.
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

fn next_slot() -> usize {
    NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % STRIPES
}

/// Monotone event counter. Cloning produces a handle writing to a
/// different stripe of the same logical counter; `get()` sums all stripes.
#[derive(Debug)]
pub struct Counter {
    stripes: Arc<[Stripe; STRIPES]>,
    slot: usize,
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for Counter {
    fn clone(&self) -> Self {
        Counter {
            stripes: Arc::clone(&self.stripes),
            slot: next_slot(),
        }
    }
}

impl Counter {
    /// Fresh counter at zero.
    pub fn new() -> Self {
        Counter {
            stripes: Arc::new(std::array::from_fn(|_| Stripe::default())),
            slot: next_slot(),
        }
    }

    /// Adds `n` to this handle's stripe.
    #[inline]
    pub fn add(&self, n: u64) {
        self.stripes[self.slot].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total across all stripes (point-in-time under writers).
    pub fn get(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// Last-write-wins f64 gauge stored as atomic bits.
#[derive(Clone, Debug)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

impl Gauge {
    /// Fresh gauge at zero.
    pub fn new() -> Self {
        Gauge {
            bits: Arc::new(AtomicU64::new(0f64.to_bits())),
        }
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Adds `v` (compare-and-swap loop; gauges are read-mostly so this is
    /// off the hot path).
    pub fn add(&self, v: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_across_clones_and_threads() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = c.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        h.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 40_000);
    }

    #[test]
    fn counter_add_and_get() {
        let c = Counter::new();
        c.add(5);
        c.clone().add(7);
        assert_eq!(c.get(), 12);
    }

    #[test]
    fn gauge_set_get_add() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(3.5);
        assert_eq!(g.get(), 3.5);
        g.set(2.0);
        assert_eq!(g.get(), 2.0, "the last write wins");
        g.set(9.25);
        g.add(0.75);
        assert_eq!(g.get(), 10.0);
    }
}
