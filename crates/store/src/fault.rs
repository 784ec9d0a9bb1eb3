//! Deterministic fault injection on the shard transport — the fault
//! matrix's hand on the wire.
//!
//! A [`FaultInjector`] sits at the batch send seam (see
//! [`ShardClient`](crate::worker::ShardClient)) and perturbs delivery the
//! way a real network and a real dead machine would:
//!
//! * **Kill** — a killed shard refuses every request at the send point
//!   (the connection-refused model): no message is delivered, no reply
//!   arrives, and the refusal is visible to the health tracker
//!   immediately. A kill lasts until an explicit
//!   [`FaultInjector::revive`] — the "restart the process" lever, which
//!   feeds the rejoin/anti-entropy lifecycle.
//! * **Partition** — a sticky *one-directional* link failure on one
//!   shard: `Inbound` silently drops every request toward the shard
//!   (state never mutates, no reply arrives); `Outbound` delivers the
//!   request (state mutates) but loses the reply. Either direction
//!   starves the heartbeat prober, so the detector walks the shard
//!   `Suspect → Down` without any process dying — the asymmetric gray
//!   failure the fault matrix sweeps.
//! * **Drop** — an update batch is lost on the wire after the transport
//!   acked it (fire-and-forget write semantics): the sender proceeds, the
//!   payload never reaches the shard. Queries are never dropped — a
//!   fabricated empty reply would corrupt results rather than model loss.
//! * **Duplicate** — the same batch is delivered twice back-to-back
//!   (redelivery), exercising the view's duplicate test: the second
//!   copy is bit-identical, so its application is a no-op.
//! * **Delay** — the batch is held for a fixed interval before delivery.
//!
//! Decisions are a pure function of `(seed, decision counter)` via a
//! splitmix64 draw, so a run with a fixed seed perturbs the same *n*-th
//! message every time regardless of thread interleaving.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::time::Duration;

use piggyback_obs::Clock;

/// Probabilities (in per-mille) and parameters of the injected faults.
/// Kills are not part of the plan — they are explicit
/// [`FaultInjector::kill`] calls.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultPlan {
    /// Determinism seed for the per-message draws.
    pub seed: u64,
    /// Per-mille of update batches lost on the wire (post-ack).
    pub drop_update_per_mille: u32,
    /// Per-mille of batches delivered twice back-to-back.
    pub duplicate_per_mille: u32,
    /// Per-mille of batches held for [`FaultPlan::delay`] before delivery.
    pub delay_per_mille: u32,
    /// Hold time of a delayed batch.
    pub delay: Duration,
}

/// What to do with one outgoing batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultDecision {
    /// Deliver normally.
    Deliver,
    /// Lose the update on the wire (writes only).
    DropUpdate,
    /// Deliver twice back-to-back.
    Duplicate,
    /// Hold the sender for [`FaultPlan::delay`], then deliver.
    Delay,
}

/// Direction of a one-directional partition on a shard's link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionDir {
    /// Requests toward the shard are lost; its state never mutates.
    Inbound,
    /// Requests arrive and mutate state, but replies are lost.
    Outbound,
}

/// Shared fault state: the plan plus per-shard kill switches and
/// observability counters. One per runtime, consulted by every client at
/// the send point and by the failover controller.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    killed: Vec<AtomicBool>,
    /// Clock reading at kill time (0 = alive) — the honest start of the
    /// unavailability window.
    killed_at_ns: Vec<AtomicU64>,
    /// Per-shard one-directional partition: 0 = none, 1 = inbound
    /// requests lost, 2 = outbound replies lost. Sticky until
    /// [`FaultInjector::heal_partition`].
    partitioned: Vec<AtomicU8>,
    clock: Clock,
    counter: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    delayed: AtomicU64,
    refused: AtomicU64,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl FaultInjector {
    /// Injector over `shards` shards executing `plan`; kills are stamped
    /// from, and delays pass on, `clock`.
    pub fn new(plan: FaultPlan, shards: usize, clock: Clock) -> Self {
        FaultInjector {
            plan,
            killed: (0..shards).map(|_| AtomicBool::new(false)).collect(),
            killed_at_ns: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            partitioned: (0..shards).map(|_| AtomicU8::new(0)).collect(),
            clock,
            counter: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
            delayed: AtomicU64::new(0),
            refused: AtomicU64::new(0),
        }
    }

    /// Kills `shard` (until [`FaultInjector::revive`]). Returns whether
    /// this call was the one that killed it.
    pub fn kill(&self, shard: usize) -> bool {
        let first = !self.killed[shard].swap(true, Ordering::Relaxed);
        if first {
            self.killed_at_ns[shard].store(self.clock.now_ns().max(1), Ordering::Relaxed);
        }
        first
    }

    /// Restarts a killed shard's process: it accepts connections again
    /// (with whatever state the restart left it — the serve runtime
    /// clears its views to model a fresh process). Returns whether the
    /// shard was actually dead.
    pub fn revive(&self, shard: usize) -> bool {
        let was_dead = self.killed[shard].swap(false, Ordering::Relaxed);
        if was_dead {
            self.killed_at_ns[shard].store(0, Ordering::Relaxed);
        }
        was_dead
    }

    /// Installs a sticky one-directional partition on `shard`'s link.
    pub fn partition(&self, shard: usize, dir: PartitionDir) {
        let raw = match dir {
            PartitionDir::Inbound => 1,
            PartitionDir::Outbound => 2,
        };
        self.partitioned[shard].store(raw, Ordering::Relaxed);
    }

    /// Heals any partition on `shard`'s link.
    pub fn heal_partition(&self, shard: usize) {
        self.partitioned[shard].store(0, Ordering::Relaxed);
    }

    /// The partition currently affecting `shard`, if any.
    #[inline]
    pub fn partition_of(&self, shard: usize) -> Option<PartitionDir> {
        match self.partitioned[shard].load(Ordering::Relaxed) {
            1 => Some(PartitionDir::Inbound),
            2 => Some(PartitionDir::Outbound),
            _ => None,
        }
    }

    /// Whether `shard` refuses requests.
    #[inline]
    pub fn is_killed(&self, shard: usize) -> bool {
        self.killed[shard].load(Ordering::Relaxed)
    }

    /// How long `shard` has been dead, if it is.
    pub fn killed_since(&self, shard: usize) -> Option<Duration> {
        let at = self.killed_at_ns[shard].load(Ordering::Relaxed);
        (at != 0).then(|| self.clock.since(at))
    }

    /// Deterministic per-message draw. `write` batches are eligible for
    /// drops; reads only for duplicate/delay.
    pub fn decide(&self, write: bool) -> FaultDecision {
        let p = &self.plan;
        if p.drop_update_per_mille == 0 && p.duplicate_per_mille == 0 && p.delay_per_mille == 0 {
            return FaultDecision::Deliver;
        }
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        let draw = (splitmix64(p.seed ^ n) % 1000) as u32;
        let mut edge = p.drop_update_per_mille;
        if write && draw < edge {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return FaultDecision::DropUpdate;
        }
        edge = p.drop_update_per_mille + p.duplicate_per_mille;
        if draw < edge {
            self.duplicated.fetch_add(1, Ordering::Relaxed);
            return FaultDecision::Duplicate;
        }
        if draw < edge + p.delay_per_mille {
            self.delayed.fetch_add(1, Ordering::Relaxed);
            return FaultDecision::Delay;
        }
        FaultDecision::Deliver
    }

    /// Holds the calling sender for [`FaultPlan::delay`] — what a
    /// [`FaultDecision::Delay`] costs.
    pub fn delay(&self) {
        self.clock.sleep(self.plan.delay);
    }

    /// Records one refused (killed-shard) send.
    pub fn note_refused(&self) {
        self.refused.fetch_add(1, Ordering::Relaxed);
    }

    /// `(dropped, duplicated, delayed, refused)` since construction.
    pub fn counts(&self) -> (u64, u64, u64, u64) {
        (
            self.dropped.load(Ordering::Relaxed),
            self.duplicated.load(Ordering::Relaxed),
            self.delayed.load(Ordering::Relaxed),
            self.refused.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_is_sticky_and_timed() {
        let clock = Clock::manual();
        let f = FaultInjector::new(FaultPlan::default(), 4, clock.clone());
        clock.advance(Duration::from_millis(3));
        assert!(!f.is_killed(2));
        assert!(f.kill(2), "first kill reports the transition");
        clock.advance(Duration::from_millis(20));
        assert!(!f.kill(2), "second kill is a no-op");
        assert!(f.is_killed(2));
        assert!((0..4).filter(|&s| s != 2).all(|s| !f.is_killed(s)));
        assert_eq!(f.killed_since(2), Some(Duration::from_millis(20)));
        assert!(f.killed_since(0).is_none());
    }

    #[test]
    fn a_delay_passes_on_the_injected_clock() {
        let plan = FaultPlan {
            delay_per_mille: 1000,
            delay: Duration::from_millis(1),
            ..FaultPlan::default()
        };
        let clock = Clock::manual();
        let f = FaultInjector::new(plan, 1, clock.clone());
        assert_eq!(f.decide(false), FaultDecision::Delay);
        f.delay();
        assert_eq!(clock.now_ns(), 1_000_000, "no wall time spent");
    }

    #[test]
    fn revive_clears_the_kill() {
        let f = FaultInjector::new(FaultPlan::default(), 4, Clock::monotonic());
        assert!(!f.revive(1), "reviving a live shard is a no-op");
        f.kill(1);
        assert!(f.revive(1));
        assert!(!f.is_killed(1));
        assert!(f.killed_since(1).is_none());
        assert!((0..4).all(|s| !f.is_killed(s)));
        assert!(f.kill(1), "a revived shard can die again");
    }

    #[test]
    fn partitions_are_sticky_directional_and_healable() {
        let f = FaultInjector::new(FaultPlan::default(), 3, Clock::monotonic());
        assert_eq!(f.partition_of(0), None);
        f.partition(0, PartitionDir::Inbound);
        f.partition(2, PartitionDir::Outbound);
        assert_eq!(f.partition_of(0), Some(PartitionDir::Inbound));
        assert_eq!(f.partition_of(1), None);
        assert_eq!(f.partition_of(2), Some(PartitionDir::Outbound));
        assert!(!f.is_killed(0), "a partitioned shard is not dead");
        f.heal_partition(0);
        assert_eq!(f.partition_of(0), None);
        assert_eq!(f.partition_of(2), Some(PartitionDir::Outbound));
    }

    #[test]
    fn zero_plan_always_delivers() {
        let f = FaultInjector::new(FaultPlan::default(), 1, Clock::monotonic());
        for _ in 0..100 {
            assert_eq!(f.decide(true), FaultDecision::Deliver);
        }
        assert_eq!(f.counts(), (0, 0, 0, 0));
    }

    #[test]
    fn decisions_are_seed_deterministic_and_roughly_proportional() {
        let plan = FaultPlan {
            seed: 7,
            drop_update_per_mille: 100,
            duplicate_per_mille: 100,
            delay_per_mille: 0,
            delay: Duration::ZERO,
        };
        let run = || {
            let f = FaultInjector::new(plan, 1, Clock::monotonic());
            (0..2000).map(|_| f.decide(true)).collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run(), "same seed, same decision stream");
        let drops = a
            .iter()
            .filter(|d| **d == FaultDecision::DropUpdate)
            .count();
        let dups = a.iter().filter(|d| **d == FaultDecision::Duplicate).count();
        assert!((100..300).contains(&drops), "~10% drops, got {drops}/2000");
        assert!((100..300).contains(&dups), "~10% dups, got {dups}/2000");
    }

    #[test]
    fn reads_are_never_dropped() {
        let plan = FaultPlan {
            seed: 3,
            drop_update_per_mille: 1000,
            ..FaultPlan::default()
        };
        let f = FaultInjector::new(plan, 1, Clock::monotonic());
        for _ in 0..100 {
            assert_ne!(f.decide(false), FaultDecision::DropUpdate);
        }
    }
}
