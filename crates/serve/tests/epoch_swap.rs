//! Epoch-swap consistency: a request that loaded a schedule snapshot sees
//! that schedule *in full* — never a mix of old and new — no matter how
//! many swaps land while the request is in flight.
//!
//! The serving snapshots encode their epoch in every user's serving sets,
//! so any torn read would be detected as a set whose contents disagree
//! with the snapshot's epoch tag.

use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::bounded;
use piggyback_graph::NodeId;
use piggyback_serve::epoch::{CompiledSets, EpochHandle, EpochReader, ServingSchedule};
use piggyback_store::topology::Topology;

const USERS: usize = 64;

/// A schedule whose every set spells out its epoch: user `u` pushes to
/// `[epoch, u]` and pulls from `[epoch, u, u]`.
fn tagged(epoch: u64) -> ServingSchedule {
    let tag = epoch as NodeId;
    let sets = CompiledSets {
        push: (0..USERS as NodeId).map(|u| vec![tag, u]).collect(),
        pull: (0..USERS as NodeId).map(|u| vec![tag, u, u]).collect(),
    };
    // Each epoch also carries its own topology, seeded by the epoch
    // number: a torn read of the topology would route through a map that
    // disagrees with the snapshot's serving sets.
    ServingSchedule::from_sets(sets, Arc::new(Topology::hash(USERS, 4, epoch)), epoch)
}

/// Asserts that every set of `snap` matches its own epoch tag — the "no
/// mix" invariant a request relies on.
fn assert_uniform(snap: &ServingSchedule) {
    let tag = snap.epoch() as NodeId;
    let expect = Topology::hash(USERS, 4, snap.epoch());
    for u in 0..USERS as NodeId {
        assert_eq!(snap.push_targets(u), &[tag, u], "torn push set at {u}");
        assert_eq!(snap.pull_sources(u), &[tag, u, u], "torn pull set at {u}");
        assert_eq!(
            snap.topology().server_of(u),
            expect.server_of(u),
            "topology from a different epoch at {u}"
        );
    }
}

/// Channel-barrier proof: the exact interleaving "request loads → swap
/// lands → request keeps reading" yields the *old* schedule in full, and
/// the next load yields the *new* schedule in full.
#[test]
fn request_spanning_a_swap_sees_one_schedule_in_full() {
    let handle = Arc::new(EpochHandle::new(tagged(0)));
    let (loaded_tx, loaded_rx) = bounded::<()>(0);
    let (swapped_tx, swapped_rx) = bounded::<()>(0);
    let reader = {
        let handle = Arc::clone(&handle);
        std::thread::spawn(move || {
            // The request begins: one load, held across the swap.
            let snap = handle.load();
            assert_eq!(snap.epoch(), 0);
            loaded_tx.send(()).unwrap(); // barrier: swap may proceed
            swapped_rx.recv().unwrap(); // barrier: swap has landed
                                        // The in-flight request still sees epoch 0, fully intact.
            assert_uniform(&snap);
            assert_eq!(snap.epoch(), 0);
            // A fresh load — the next request — is fully epoch 1.
            let next = handle.load();
            assert_eq!(next.epoch(), 1);
            assert_uniform(&next);
        })
    };
    loaded_rx.recv().unwrap();
    let prev = handle.swap(tagged(1));
    assert_eq!(prev.epoch(), 0);
    swapped_tx.send(()).unwrap();
    reader.join().unwrap();
}

/// Stress the handle: readers hammer load-and-verify while a writer swaps
/// thousands of epochs — half of them through the lock
/// ([`EpochHandle::load`]), half through a cached [`EpochReader`], the way
/// serving clients do. Every observed snapshot must be internally uniform,
/// and epochs must never run backwards for any single reader.
#[test]
fn concurrent_swaps_never_tear_or_reorder() {
    let handle = Arc::new(EpochHandle::new(tagged(0)));
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    std::thread::scope(|s| {
        let mut readers = Vec::new();
        for i in 0..4 {
            let handle = Arc::clone(&handle);
            let stop = Arc::clone(&stop);
            readers.push(s.spawn(move || {
                let mut cached: Option<EpochReader> = (i % 2 == 1).then(|| handle.reader());
                let mut last = 0u64;
                let mut distinct = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let snap = match &mut cached {
                        Some(reader) => Arc::clone(reader.current()),
                        None => handle.load(),
                    };
                    assert_uniform(&snap);
                    assert!(
                        snap.epoch() >= last,
                        "epoch ran backwards: {} after {}",
                        snap.epoch(),
                        last
                    );
                    if snap.epoch() != last {
                        distinct += 1;
                    }
                    last = snap.epoch();
                }
                distinct
            }));
        }
        for e in 1..=2000u64 {
            handle.swap(tagged(e));
            if e % 500 == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let total: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
        assert!(total > 0, "readers never observed a swap landing");
    });
}

/// Churn publishes (a rewritten chunk per side, every other chunk shared
/// with the parent epoch) must also be atomic: a snapshot taken mid-stream
/// reflects a prefix of the update sequence, never a partially applied
/// update.
#[test]
fn churn_publishes_are_atomic() {
    // Base: every user pushes to [u]. Update k rewrites user (k % USERS)
    // to push [u, k] and pull [u, k] *in one publish*; observing one side
    // without the other is a torn update.
    let sets = CompiledSets {
        push: (0..USERS as NodeId).map(|u| vec![u]).collect(),
        pull: (0..USERS as NodeId).map(|u| vec![u]).collect(),
    };
    let handle = Arc::new(EpochHandle::new(ServingSchedule::from_sets(
        sets,
        Arc::new(Topology::single_server(USERS)),
        0,
    )));
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    std::thread::scope(|s| {
        for _ in 0..3 {
            let handle = Arc::clone(&handle);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let snap = handle.load();
                    for u in 0..USERS as NodeId {
                        let push = snap.push_targets(u).to_vec();
                        let pull = snap.pull_sources(u).to_vec();
                        assert_eq!(
                            push, pull,
                            "torn update for user {u}: one publish must update both sides"
                        );
                    }
                }
            });
        }
        for k in 1..=1000u32 {
            let u = (k as usize % USERS) as NodeId;
            let snap = handle.load();
            let next = snap.with_updates([(u, vec![u, k])], [(u, vec![u, k])]);
            handle.swap(next);
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });
}
