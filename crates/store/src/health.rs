//! Per-shard failure detection: `Up → Suspect → Down` driven by
//! heartbeat outcomes, with a staleness-legal lag window for reads.
//!
//! The failover controller (in `piggyback-serve`) probes every reachable
//! shard on a fixed cadence (it takes and releases the shard's lock) and
//! feeds the outcome here; an unreachable shard counts a miss. Consecutive misses walk the state
//! machine forward (a phi-accrual detector collapsed to integer
//! thresholds, which is all a fixed-cadence prober can resolve); one
//! success snaps the shard back to `Up`.
//!
//! **Reads and the Theorem-1 laxity.** A replica is a *legal* read target
//! while its lag stays inside the feed's staleness budget (Theorem 1
//! bounds staleness by the schedule's pull period; a feed already allowed
//! to be that old may equally be served by a replica at most that far
//! behind). We measure
//! lag as *silence*: time since the shard last answered a heartbeat. An
//! `Up` shard is always readable; a `Suspect` shard stays readable while
//! its silence is within the laxity; a `Down` shard never is, until
//! failover's catch-up path restores it ([`StoreServer::merge_view`](crate::server::StoreServer::merge_view)
//! of every view it is owed).
//!
//! **Rejoin.** A restarted shard that answers heartbeats again does not
//! snap straight back to `Up`: the controller moves it `Down →
//! CatchingUp` ([`HealthTracker::mark_catching_up`]) while anti-entropy
//! streams its views back, and only [`HealthTracker::readmit`] promotes
//! it to `Up` once its maximum view lag fits the staleness budget (as for
//! a shard owed views while unreachable). While `CatchingUp`, heartbeat
//! successes refresh liveness but never promote the state.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::time::Duration;

use piggyback_obs::Clock;

/// Liveness verdict for one shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardHealth {
    /// Answering heartbeats.
    Up,
    /// Missed a few heartbeats; still a legal read target within laxity.
    Suspect,
    /// Missed enough consecutive heartbeats to be declared dead.
    Down,
    /// Rejoined, or owed views it could not be sent: catching up via
    /// anti-entropy. Receives replicated writes, serves no reads.
    CatchingUp,
}

const UP: u8 = 0;
const SUSPECT: u8 = 1;
const DOWN: u8 = 2;
const CATCHING_UP: u8 = 3;

/// Outcome of recording one heartbeat miss.
#[derive(Clone, Copy, Debug)]
pub struct MissOutcome {
    /// State after the miss.
    pub state: ShardHealth,
    /// Consecutive misses so far.
    pub misses: u32,
    /// Whether this miss moved the state machine (Up→Suspect or
    /// Suspect→Down) — the interesting moments for event logs.
    pub transitioned: bool,
}

struct ShardSlot {
    state: AtomicU8,
    misses: AtomicU32,
    /// Clock reading at the last successful heartbeat (0 = "fresh at
    /// boot": an empty shard lags nothing).
    last_ok_ns: AtomicU64,
    /// Clock reading at the first miss of the current bad streak
    /// (0 = none) — the start of the unavailability window.
    first_miss_ns: AtomicU64,
}

/// Lock-free per-shard health registry shared between the prober (writes)
/// and every read-routing client (reads).
pub struct HealthTracker {
    clock: Clock,
    laxity: Duration,
    suspect_after: u32,
    down_after: u32,
    shards: Vec<ShardSlot>,
    /// High-water of silence observed at routing time on shards we still
    /// considered readable — the honest "how stale could an answer have
    /// been" number for reports.
    max_readable_lag_ns: AtomicU64,
}

impl HealthTracker {
    /// Tracker over `shards` shards. `suspect_after`/`down_after` are
    /// consecutive-miss thresholds; `laxity` is the staleness budget a
    /// `Suspect` replica may lag and still serve reads; every instant is
    /// read from `clock`.
    pub fn new(
        shards: usize,
        suspect_after: u32,
        down_after: u32,
        laxity: Duration,
        clock: Clock,
    ) -> Self {
        assert!(suspect_after >= 1 && down_after >= suspect_after);
        HealthTracker {
            clock,
            laxity,
            suspect_after,
            down_after,
            shards: (0..shards)
                .map(|_| ShardSlot {
                    state: AtomicU8::new(UP),
                    misses: AtomicU32::new(0),
                    last_ok_ns: AtomicU64::new(0),
                    first_miss_ns: AtomicU64::new(0),
                })
                .collect(),
            max_readable_lag_ns: AtomicU64::new(0),
        }
    }

    /// Number of shards tracked.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The staleness budget used as the legal lag window.
    pub fn laxity(&self) -> Duration {
        self.laxity
    }

    /// Records a successful heartbeat: shard snaps back to `Up` — unless
    /// it is `CatchingUp`, where the success refreshes liveness (last-ok,
    /// miss streak) but never promotes; only [`HealthTracker::readmit`]
    /// does, once anti-entropy has it within the staleness budget.
    pub fn record_ok(&self, shard: usize) {
        let s = &self.shards[shard];
        s.last_ok_ns.store(self.clock.now_ns(), Ordering::Relaxed);
        s.misses.store(0, Ordering::Relaxed);
        s.first_miss_ns.store(0, Ordering::Relaxed);
        if s.state.load(Ordering::Relaxed) != CATCHING_UP {
            s.state.store(UP, Ordering::Relaxed);
        }
    }

    /// Records a missed heartbeat and advances the state machine. A
    /// `CatchingUp` shard that goes silent again only transitions once it
    /// crosses the `Down` threshold (it was never readable, so `Suspect`
    /// would be a promotion).
    pub fn record_miss(&self, shard: usize) -> MissOutcome {
        let s = &self.shards[shard];
        let misses = s.misses.fetch_add(1, Ordering::Relaxed) + 1;
        if misses == 1 {
            s.first_miss_ns
                .store(self.clock.now_ns().max(1), Ordering::Relaxed);
        }
        let prev = s.state.load(Ordering::Relaxed);
        let next = if misses >= self.down_after {
            DOWN
        } else if prev == CATCHING_UP {
            CATCHING_UP
        } else if misses >= self.suspect_after {
            SUSPECT
        } else {
            UP
        };
        s.state.store(next, Ordering::Relaxed);
        MissOutcome {
            state: decode(next),
            misses,
            transitioned: prev != next,
        }
    }

    /// Moves a shard — rejoined, or owed views it could not be sent — to
    /// `CatchingUp`: written to, never read until [`HealthTracker::readmit`].
    /// Liveness is left as recorded: a miss streak still ends in `Down`.
    pub fn mark_catching_up(&self, shard: usize) {
        self.shards[shard]
            .state
            .store(CATCHING_UP, Ordering::Relaxed);
    }

    /// Promotes a `CatchingUp` shard back to `Up` once anti-entropy has
    /// restored it within the staleness budget. Returns whether the shard
    /// was actually catching up (a no-op otherwise keeps the state
    /// machine honest under races with a re-death). Its silence is left
    /// as measured: a readmit is a verdict, not a heartbeat.
    pub fn readmit(&self, shard: usize) -> bool {
        self.shards[shard]
            .state
            .compare_exchange(CATCHING_UP, UP, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
    }

    /// Declares a shard dead without waiting for misses to accrue (used
    /// when the transport reports connection-refused outright).
    pub fn mark_down(&self, shard: usize) {
        let s = &self.shards[shard];
        s.misses.fetch_max(self.down_after, Ordering::Relaxed);
        if s.first_miss_ns.load(Ordering::Relaxed) == 0 {
            s.first_miss_ns
                .store(self.clock.now_ns().max(1), Ordering::Relaxed);
        }
        s.state.store(DOWN, Ordering::Relaxed);
    }

    /// Current state of `shard`.
    pub fn state(&self, shard: usize) -> ShardHealth {
        decode(self.shards[shard].state.load(Ordering::Relaxed))
    }

    /// Time since `shard` last answered a heartbeat (since boot if never).
    pub fn silence(&self, shard: usize) -> Duration {
        self.clock
            .since(self.shards[shard].last_ok_ns.load(Ordering::Relaxed))
    }

    /// Whether `shard` is a legal read target right now: `Up` always,
    /// `Suspect` while its silence stays inside the laxity, `Down` never.
    pub fn is_readable(&self, shard: usize) -> bool {
        match self.state(shard) {
            ShardHealth::Up => true,
            ShardHealth::Suspect => self.silence(shard) <= self.laxity,
            ShardHealth::Down | ShardHealth::CatchingUp => false,
        }
    }

    /// Call when routing a read to `shard`: folds its current silence
    /// into the run's high-water readable-lag figure.
    pub fn note_read(&self, shard: usize) {
        let lag = self.silence(shard).as_nanos().min(u128::from(u64::MAX)) as u64;
        self.max_readable_lag_ns.fetch_max(lag, Ordering::Relaxed);
    }

    /// High-water lag among shards that actually served reads.
    pub fn max_readable_lag(&self) -> Duration {
        Duration::from_nanos(self.max_readable_lag_ns.load(Ordering::Relaxed))
    }

    /// Shards currently not `Up` (the `health.suspect` gauge).
    pub fn not_up(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| s.state.load(Ordering::Relaxed) != UP)
            .count()
    }

    /// Largest current silence among shards still considered readable —
    /// the live `replica.lag` gauge.
    pub fn max_live_silence(&self) -> Duration {
        (0..self.shards.len())
            .filter(|&s| self.is_readable(s))
            .map(|s| self.silence(s))
            .max()
            .unwrap_or(Duration::ZERO)
    }

    /// How long the current bad streak has lasted, if one is in progress
    /// — the unavailability window failover closes.
    pub fn first_miss_elapsed(&self, shard: usize) -> Option<Duration> {
        let at = self.shards[shard].first_miss_ns.load(Ordering::Relaxed);
        (at != 0).then(|| self.clock.since(at))
    }
}

fn decode(raw: u8) -> ShardHealth {
    match raw {
        UP => ShardHealth::Up,
        SUSPECT => ShardHealth::Suspect,
        CATCHING_UP => ShardHealth::CatchingUp,
        _ => ShardHealth::Down,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracker on a hand-advanced clock.
    fn tracker(shards: usize, suspect: u32, down: u32, laxity: Duration) -> (HealthTracker, Clock) {
        let clock = Clock::manual();
        let h = HealthTracker::new(shards, suspect, down, laxity, clock.clone());
        (h, clock)
    }

    #[test]
    fn misses_walk_up_suspect_down_and_ok_resets() {
        let (h, _) = tracker(2, 2, 4, Duration::from_millis(50));
        assert_eq!(h.state(0), ShardHealth::Up);

        let m1 = h.record_miss(0);
        assert_eq!(
            (m1.state, m1.misses, m1.transitioned),
            (ShardHealth::Up, 1, false)
        );
        let m2 = h.record_miss(0);
        assert_eq!((m2.state, m2.transitioned), (ShardHealth::Suspect, true));
        let m3 = h.record_miss(0);
        assert!(!m3.transitioned, "Suspect -> Suspect is not a transition");
        let m4 = h.record_miss(0);
        assert_eq!(
            (m4.state, m4.misses, m4.transitioned),
            (ShardHealth::Down, 4, true)
        );
        assert!(h.first_miss_elapsed(0).is_some());
        assert_eq!(h.not_up(), 1);

        h.record_ok(0);
        assert_eq!(h.state(0), ShardHealth::Up);
        assert!(h.first_miss_elapsed(0).is_none());
        assert_eq!(h.not_up(), 0);
    }

    #[test]
    fn suspect_is_readable_up_to_the_laxity_exactly_down_never() {
        let laxity = Duration::from_millis(50);
        let (h, clock) = tracker(2, 1, 3, laxity);
        h.record_ok(0);
        h.record_miss(0);
        assert_eq!(h.state(0), ShardHealth::Suspect);
        assert!(h.is_readable(0), "no silence yet: a legal read target");
        clock.advance(laxity);
        assert_eq!(h.silence(0), laxity);
        assert!(h.is_readable(0), "silence == laxity is still inside it");
        clock.advance(Duration::from_nanos(1));
        assert!(!h.is_readable(0), "one nanosecond past the laxity is not");
        assert!(h.is_readable(1), "an Up shard is readable however silent");

        let (tight, clock) = tracker(1, 1, 3, Duration::ZERO);
        tight.record_miss(0);
        assert!(tight.is_readable(0), "zero silence fits zero laxity");
        clock.advance(Duration::from_nanos(1));
        assert!(!tight.is_readable(0), "zero laxity excludes any silence");

        h.mark_down(0);
        assert_eq!(h.state(0), ShardHealth::Down);
        assert!(!h.is_readable(0));
    }

    #[test]
    fn readable_lag_high_water_tracks_note_read_exactly() {
        let (h, clock) = tracker(1, 2, 4, Duration::from_secs(1));
        assert_eq!(h.max_readable_lag(), Duration::ZERO);
        clock.advance(Duration::from_millis(2));
        h.note_read(0);
        assert_eq!(h.max_readable_lag(), Duration::from_millis(2));
        h.record_ok(0);
        clock.advance(Duration::from_millis(1));
        h.note_read(0);
        assert_eq!(
            h.max_readable_lag(),
            Duration::from_millis(2),
            "high-water never regresses"
        );
        clock.advance(Duration::from_millis(2));
        h.note_read(0);
        assert_eq!(h.max_readable_lag(), Duration::from_millis(3));
        assert_eq!(h.max_live_silence(), Duration::from_millis(3));
    }

    #[test]
    fn bad_streak_is_timed_from_its_first_miss() {
        let (h, clock) = tracker(1, 2, 4, Duration::ZERO);
        clock.advance(Duration::from_millis(7));
        h.record_miss(0);
        clock.advance(Duration::from_millis(5));
        h.record_miss(0);
        assert_eq!(h.first_miss_elapsed(0), Some(Duration::from_millis(5)));
        h.mark_down(0);
        assert_eq!(
            h.first_miss_elapsed(0),
            Some(Duration::from_millis(5)),
            "a refused send does not restart the streak"
        );
    }

    #[test]
    fn catching_up_is_not_promoted_by_heartbeat_successes() {
        // Regression for the post-failover amnesty: a rejoining shard
        // answers heartbeats, but record_ok (which the prober's amnesty
        // reset also calls) must NOT mark it healthy — only an explicit
        // readmit after anti-entropy may.
        let (h, clock) = tracker(2, 2, 4, Duration::from_millis(50));
        for _ in 0..4 {
            h.record_miss(0);
        }
        assert_eq!(h.state(0), ShardHealth::Down);
        h.mark_catching_up(0);
        assert_eq!(h.state(0), ShardHealth::CatchingUp);
        assert!(!h.is_readable(0), "catching up serves no reads");

        h.record_ok(0);
        assert_eq!(
            h.state(0),
            ShardHealth::CatchingUp,
            "heartbeat success must not promote a catching-up shard"
        );
        assert!(
            h.first_miss_elapsed(0).is_none(),
            "liveness still refreshes"
        );
        assert_eq!(h.not_up(), 1, "catching up still counts as not-up");

        // A single silent tick keeps it CatchingUp (never Suspect, which
        // would make it readable within laxity); a full streak kills it.
        let m = h.record_miss(0);
        assert_eq!(m.state, ShardHealth::CatchingUp);
        assert!(!m.transitioned);
        for _ in 0..3 {
            h.record_miss(0);
        }
        assert_eq!(h.state(0), ShardHealth::Down, "re-death during catch-up");
        assert!(!h.readmit(0), "readmit of a dead shard is a no-op");
        assert_eq!(h.state(0), ShardHealth::Down);

        // The happy path: catch up, then readmit promotes to Up.
        h.mark_catching_up(0);
        clock.advance(Duration::from_millis(3));
        assert!(h.readmit(0));
        assert_eq!(h.silence(0), Duration::from_millis(3), "no heartbeat");
        assert_eq!(h.state(0), ShardHealth::Up);
        assert!(h.is_readable(0));
        assert_eq!(h.not_up(), 0);
    }

    #[test]
    fn mark_down_is_immediate() {
        let (h, _) = tracker(3, 2, 4, Duration::from_millis(10));
        h.mark_down(1);
        assert_eq!(h.state(1), ShardHealth::Down);
        assert_eq!(h.not_up(), 1);
        assert!(h.first_miss_elapsed(1).is_some());
        // max_live_silence skips the dead shard but still covers live ones.
        let _ = h.max_live_silence();
    }
}
