//! Bounded structured event ring for control-plane transitions.
//!
//! Data-plane behaviour is visible through the instruments; what used to
//! vanish entirely is the *control plane*: when an epoch swap published,
//! when churn crossed the re-optimization threshold, how long the
//! background re-optimization ran and what it bought, when views migrated.
//! [`EventLog`] records those as timestamped [`Event`]s in a fixed-size
//! ring — old entries are evicted, a lifetime counter keeps the totals
//! honest — so a periodic dump or a post-run report can show the last N
//! transitions without unbounded memory.
//!
//! The [`ambient_events`] thread-local lets deep layers (the fan-out pool
//! inside a scheduler run) pick up the serving runtime's log without
//! threading a handle through every `Scheduler` signature: the caller that
//! *owns* the log installs it for the duration of a scope.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::clock::Clock;

/// What happened (one control-plane transition).
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// A new schedule epoch became visible to clients.
    EpochSwap {
        /// The epoch now being served.
        epoch: u64,
        /// Users whose serving sets the publish rewrote.
        users_changed: usize,
    },
    /// Background re-optimization kicked off.
    ReoptStart {
        /// Schedule cost at trigger time (base + churn overlay).
        cost_before: f64,
        /// Accumulated churn cost-delta that crossed the threshold.
        trigger_delta: f64,
    },
    /// Background re-optimization finished and its schedule was installed.
    ReoptEnd {
        /// Cost of the installed schedule, with the churn logged while the
        /// optimizer ran replayed onto it.
        cost_after: f64,
        /// Clock time from the trigger to the install.
        wall_ms: f64,
    },
    /// Topology rebalance migrated views between shards.
    Rebalance {
        /// Users whose views moved.
        moved: usize,
        /// Wall time of the migration.
        wall_ms: f64,
    },
    /// One fan-out pool batch dispatch (oracle fan-out inside a scheduler).
    FanoutBatch {
        /// Jobs in the batch.
        jobs: usize,
        /// Worker-busy nanoseconds the batch consumed.
        busy_ns: u64,
        /// Wall nanoseconds of the section.
        wall_ns: u64,
    },
    /// A shard's heartbeat state machine advanced (Up→Suspect or
    /// Suspect→Down); steady-state misses inside a state are not logged.
    HeartbeatMiss {
        /// The silent shard.
        shard: usize,
        /// Consecutive misses so far.
        misses: u32,
    },
    /// The failover controller re-pointed a dead primary at surviving
    /// replicas and published the new topology epoch.
    Failover {
        /// The shard declared dead.
        shard: usize,
        /// Users homed on it whose primary moved.
        moved: usize,
        /// Detection phase: first evidence of death (its first missed
        /// heartbeat, or the kill) to the `Down` verdict.
        detected_ms: f64,
        /// Failover phase: the verdict to the repaired topology's publish.
        wall_ms: f64,
    },
    /// Anti-entropy finished copying views onto newly exposed replica
    /// slots after a failover.
    CatchUp {
        /// Views installed.
        views: usize,
        /// Wall time of the copy.
        wall_ms: f64,
    },
    /// A previously dead shard answered a heartbeat again: the controller
    /// moved it `Down → CatchingUp` and queued anti-entropy.
    Rejoin {
        /// The rejoining shard.
        shard: usize,
        /// Views it must stream back before readmission.
        views_behind: usize,
    },
    /// One budgeted anti-entropy batch streamed views onto a rejoining
    /// shard (rate-limited so catch-up never starves foreground ops).
    CatchUpBatch {
        /// The catching-up shard.
        shard: usize,
        /// Views installed by this batch.
        views: usize,
        /// Views still pending after it.
        remaining: usize,
    },
    /// A rejoined shard finished anti-entropy within the staleness budget
    /// and was promoted back to a read target.
    Readmit {
        /// The readmitted shard.
        shard: usize,
        /// Views restored over the whole catch-up.
        views: usize,
        /// Readmit phase: the backlog opening (at the rejoin, or when an
        /// unreachable shard was first owed views) to the readmission.
        wall_ms: f64,
    },
}

impl std::fmt::Display for EventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EventKind::EpochSwap {
                epoch,
                users_changed,
            } => {
                write!(f, "epoch-swap epoch={epoch} users_changed={users_changed}")
            }
            EventKind::ReoptStart {
                cost_before,
                trigger_delta,
            } => write!(
                f,
                "reopt-start cost={cost_before:.0} trigger-delta={trigger_delta:.0}"
            ),
            EventKind::ReoptEnd {
                cost_after,
                wall_ms,
            } => write!(f, "reopt-end cost={cost_after:.0} wall={wall_ms:.1}ms"),
            EventKind::Rebalance { moved, wall_ms } => {
                write!(f, "rebalance moved={moved} wall={wall_ms:.1}ms")
            }
            EventKind::FanoutBatch {
                jobs,
                busy_ns,
                wall_ns,
            } => write!(
                f,
                "fanout-batch jobs={jobs} busy={busy_ns}ns wall={wall_ns}ns"
            ),
            EventKind::HeartbeatMiss { shard, misses } => {
                write!(f, "heartbeat-miss shard={shard} misses={misses}")
            }
            EventKind::Failover {
                shard,
                moved,
                detected_ms,
                wall_ms,
            } => write!(
                f,
                "failover shard={shard} moved={moved} detected={detected_ms:.1}ms \
                 wall={wall_ms:.1}ms"
            ),
            EventKind::CatchUp { views, wall_ms } => {
                write!(f, "catch-up views={views} wall={wall_ms:.1}ms")
            }
            EventKind::Rejoin {
                shard,
                views_behind,
            } => write!(f, "rejoin shard={shard} views-behind={views_behind}"),
            EventKind::CatchUpBatch {
                shard,
                views,
                remaining,
            } => write!(
                f,
                "catch-up-batch shard={shard} views={views} remaining={remaining}"
            ),
            EventKind::Readmit {
                shard,
                views,
                wall_ms,
            } => write!(f, "readmit shard={shard} views={views} wall={wall_ms:.1}ms"),
        }
    }
}

/// One recorded transition.
#[derive(Clone, Debug)]
pub struct Event {
    /// Monotone sequence number (never reset by eviction).
    pub seq: u64,
    /// When, on the log's [`Clock`].
    pub at: Duration,
    /// The transition.
    pub kind: EventKind,
}

impl std::fmt::Display for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{:>9.3}s #{}] {}",
            self.at.as_secs_f64(),
            self.seq,
            self.kind
        )
    }
}

struct Ring {
    events: VecDeque<Event>,
    next_seq: u64,
}

struct Shared {
    ring: Mutex<Ring>,
    clock: Clock,
    capacity: usize,
}

/// Clonable handle to a bounded event ring.
#[derive(Clone)]
pub struct EventLog {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for EventLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLog")
            .field("capacity", &self.shared.capacity)
            .field("recorded", &self.total_recorded())
            .finish()
    }
}

impl EventLog {
    /// Ring holding at most `capacity` events (oldest evicted first),
    /// each stamped from `clock`.
    pub fn new(capacity: usize, clock: Clock) -> Self {
        EventLog {
            shared: Arc::new(Shared {
                ring: Mutex::new(Ring {
                    events: VecDeque::with_capacity(capacity.max(1)),
                    next_seq: 0,
                }),
                clock,
                capacity: capacity.max(1),
            }),
        }
    }

    /// Records one transition, evicting the oldest entry at capacity.
    pub fn record(&self, kind: EventKind) {
        let at = Duration::from_nanos(self.shared.clock.now_ns());
        let mut ring = self.shared.ring.lock().unwrap();
        let seq = ring.next_seq;
        ring.next_seq += 1;
        if ring.events.len() == self.shared.capacity {
            ring.events.pop_front();
        }
        ring.events.push_back(Event { seq, at, kind });
    }

    /// The most recent `n` events, oldest first.
    pub fn recent(&self, n: usize) -> Vec<Event> {
        let ring = self.shared.ring.lock().unwrap();
        let skip = ring.events.len().saturating_sub(n);
        ring.events.iter().skip(skip).cloned().collect()
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.shared.ring.lock().unwrap().events.len()
    }

    /// True when nothing has been recorded yet (or everything evicted —
    /// impossible, eviction only happens on insert).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Lifetime number of events recorded, including evicted ones.
    pub fn total_recorded(&self) -> u64 {
        self.shared.ring.lock().unwrap().next_seq
    }
}

thread_local! {
    static AMBIENT: RefCell<Option<EventLog>> = const { RefCell::new(None) };
}

/// Restores the previous ambient log when dropped.
pub struct AmbientGuard {
    prev: Option<EventLog>,
}

impl Drop for AmbientGuard {
    fn drop(&mut self) {
        AMBIENT.with(|slot| *slot.borrow_mut() = self.prev.take());
    }
}

/// Installs `log` as this thread's ambient event log for the guard's
/// lifetime. Deep layers (e.g. the fan-out pool) call [`ambient_events`]
/// at construction to attach without any API plumbing.
pub fn set_ambient_events(log: &EventLog) -> AmbientGuard {
    let prev = AMBIENT.with(|slot| slot.borrow_mut().replace(log.clone()));
    AmbientGuard { prev }
}

/// The ambient event log installed on this thread, if any.
pub fn ambient_events() -> Option<EventLog> {
    AMBIENT.with(|slot| slot.borrow().clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_keeps_totals() {
        let clock = Clock::manual();
        let log = EventLog::new(3, clock.clone());
        for i in 0..5u64 {
            log.record(EventKind::EpochSwap {
                epoch: i,
                users_changed: 1,
            });
            clock.advance(Duration::from_millis(1));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.total_recorded(), 5);
        let recent = log.recent(10);
        assert_eq!(recent.len(), 3);
        assert_eq!(recent[0].seq, 2, "oldest surviving event is #2");
        assert_eq!(recent[2].seq, 4);
        assert_eq!(
            recent[0].at,
            Duration::from_millis(2),
            "stamped from the clock"
        );
        assert_eq!(
            recent[2].to_string(),
            "[    0.004s #4] epoch-swap epoch=4 users_changed=1"
        );
    }

    #[test]
    fn recent_returns_tail() {
        let log = EventLog::new(8, Clock::monotonic());
        for i in 0..4u64 {
            log.record(EventKind::EpochSwap {
                epoch: i,
                users_changed: 1,
            });
        }
        let last2 = log.recent(2);
        assert_eq!(last2.len(), 2);
        assert_eq!(last2[0].seq, 2);
    }

    #[test]
    fn display_is_greppable() {
        let log = EventLog::new(4, Clock::monotonic());
        log.record(EventKind::Rebalance {
            moved: 12,
            wall_ms: 3.5,
        });
        let line = log.recent(1)[0].to_string();
        assert!(line.contains("rebalance moved=12"), "{line}");
    }

    #[test]
    fn ambient_scoping_restores_previous() {
        assert!(ambient_events().is_none());
        let outer = EventLog::new(4, Clock::monotonic());
        {
            let _g1 = set_ambient_events(&outer);
            assert!(ambient_events().is_some());
            let inner = EventLog::new(4, Clock::monotonic());
            {
                let _g2 = set_ambient_events(&inner);
                ambient_events().unwrap().record(EventKind::Rebalance {
                    moved: 1,
                    wall_ms: 0.0,
                });
            }
            assert_eq!(inner.len(), 1);
            assert_eq!(outer.len(), 0);
            assert!(ambient_events().is_some(), "outer restored");
        }
        assert!(ambient_events().is_none());
    }

    #[test]
    fn concurrent_recording_is_safe() {
        let log = EventLog::new(64, Clock::monotonic());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let l = log.clone();
                s.spawn(move || {
                    for i in 0..100 {
                        l.record(EventKind::FanoutBatch {
                            jobs: i,
                            busy_ns: 1,
                            wall_ns: 1,
                        });
                    }
                });
            }
        });
        assert_eq!(log.total_recorded(), 400);
        assert_eq!(log.len(), 64);
    }
}
