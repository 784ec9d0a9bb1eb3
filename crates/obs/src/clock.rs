//! The one time source of the control plane.
//!
//! Failure detection, fault injection, the failover controller, the churn
//! manager and the event ring all read time through one [`Clock`] handle
//! handed to them at construction. Production hands out
//! [`Clock::monotonic`]; a test hands out [`Clock::manual`] and moves time
//! itself, so a lifecycle that takes seconds of heartbeats runs in
//! microseconds and repeats to the nanosecond.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A clonable handle on a time source; clones share it.
#[derive(Clone, Debug)]
pub struct Clock(Source);

#[derive(Clone, Debug)]
enum Source {
    /// Real time, as nanoseconds since the handle was created.
    Monotonic(Instant),
    /// Nanoseconds that only [`Clock::advance`] moves.
    Manual(Arc<AtomicU64>),
}

impl Clock {
    /// The process's monotonic clock, reading zero now.
    pub fn monotonic() -> Self {
        Clock(Source::Monotonic(Instant::now()))
    }

    /// A clock at zero that stands still until advanced.
    pub fn manual() -> Self {
        Clock(Source::Manual(Arc::default()))
    }

    /// Nanoseconds since the clock's zero.
    pub fn now_ns(&self) -> u64 {
        match &self.0 {
            Source::Monotonic(origin) => saturating_ns(origin.elapsed()),
            Source::Manual(ns) => ns.load(Ordering::Relaxed),
        }
    }

    /// Time since `earlier_ns`, an earlier reading of this clock.
    pub fn since(&self, earlier_ns: u64) -> Duration {
        Duration::from_nanos(self.now_ns().saturating_sub(earlier_ns))
    }

    /// The reading `d` from now (a deadline to compare [`Clock::now_ns`]
    /// against).
    pub fn after(&self, d: Duration) -> u64 {
        self.now_ns().saturating_add(saturating_ns(d))
    }

    /// Lets `d` pass: blocks the thread on the monotonic clock, advances
    /// the manual one.
    pub fn sleep(&self, d: Duration) {
        match &self.0 {
            Source::Monotonic(_) => std::thread::sleep(d),
            Source::Manual(_) => self.advance(d),
        }
    }

    /// Moves a manual clock forward by `d`.
    ///
    /// # Panics
    ///
    /// Panics on the monotonic clock: real time cannot be pushed.
    pub fn advance(&self, d: Duration) {
        match &self.0 {
            Source::Monotonic(_) => panic!("only a manual clock can be advanced"),
            Source::Manual(ns) => {
                ns.fetch_add(saturating_ns(d), Ordering::Relaxed);
            }
        }
    }
}

fn saturating_ns(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_time_moves_only_when_told_and_clones_share_it() {
        let clock = Clock::manual();
        let other = clock.clone();
        assert_eq!(clock.now_ns(), 0);
        clock.advance(Duration::from_millis(5));
        other.sleep(Duration::from_nanos(1));
        assert_eq!(clock.now_ns(), 5_000_001);
        assert_eq!(other.since(1), Duration::from_nanos(5_000_000));
        assert_eq!(clock.since(u64::MAX), Duration::ZERO, "never negative");
        assert_eq!(clock.after(Duration::from_nanos(9)), 5_000_010);
    }

    #[test]
    fn monotonic_time_never_goes_backwards() {
        let clock = Clock::monotonic();
        let a = clock.now_ns();
        assert!(clock.now_ns() >= a);
        assert!(clock.since(a) < Duration::from_secs(60));
    }

    #[test]
    #[should_panic(expected = "manual clock")]
    fn real_time_cannot_be_advanced() {
        Clock::monotonic().advance(Duration::from_nanos(1));
    }
}
