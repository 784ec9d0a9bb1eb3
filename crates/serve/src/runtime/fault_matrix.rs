//! The fault matrix: the one table where a failure scenario is described,
//! and the one driver that runs it.
//!
//! A [`Row`] is (cluster, churn jobs, fault plan, step script, expected
//! counts). The matrix assembles the real runtime
//! ([`ServeRuntime::assemble`]) over caller-runs shards on a manual
//! [`Clock`], spawns nothing, and plays the script on one thread: client
//! operations go through a real [`ServeClient`]; churn, heartbeat rounds
//! and installs lock the runtime's control plane and call the entry points
//! a client and the ticker call ([`ChurnManager::churn`],
//! [`ChurnManager::tick`], [`ChurnManager::land`]); a fired [`ReoptJob`]
//! runs inline when the script lands it, and time passes only when the
//! script (or a delayed batch) advances it. The row's seed picks the
//! victim shard, the operation stream, how many operations land between
//! two heartbeats and the injector's per-message draws, so `(row, seed)`
//! replays to the digit — report and event ring.
//!
//! After **every** operation, tick, fault and install the matrix re-checks
//! what must hold whatever the interleaving (see [`Rig::request`],
//! [`Rig::tick`], [`Rig::land`], [`Rig::check_published`]); a row's own
//! expectations sit in its script as [`Step::Check`]s and in its
//! [`Expect`].
//!
//! ```text
//! cargo test -p piggyback-serve fault_matrix -- --nocapture   # the table
//! FAULT_MATRIX=kill-rejoin:17 cargo test -p piggyback-serve fault_matrix -- --nocapture
//! ```
//!
//! The second form replays one `(row, seed)` — the pair a failure names —
//! and prints its report and event ring.

use std::time::Duration;

use piggyback_core::scheduler::{Hybrid, Instance};
use piggyback_graph::gen::{copying, CopyingConfig};
use piggyback_obs::{EventKind, EventLog};
use piggyback_store::fault::{FaultPlan, PartitionDir};
use piggyback_store::health::ShardHealth;
use piggyback_store::topology::PartitionStrategy;
use piggyback_workload::OpTrace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::*;

const HEARTBEAT: Duration = Duration::from_millis(5);
/// Theorem 1's Δ, unless a row is about the boundary itself.
const LAXITY: Duration = Duration::from_millis(50);
/// Seeds every row runs.
const SEEDS: u64 = 64;
/// Most client operations between two heartbeats of a [`Step::Storm`].
const STORM_OPS: u32 = 6;
/// Most operations a [`Step::Fire`] or [`Step::Rebalance`] may take.
const TRIGGER_OPS: u32 = 400;

/// Users, shards and failure domains of a row's cluster (replication 2).
#[derive(Clone, Copy)]
struct Cluster {
    users: usize,
    shards: usize,
    /// 0 = domain-blind: replica slots are ring neighbours.
    domains: usize,
}

/// Four racks of two: replica slots straddle racks.
const SPREAD: Cluster = Cluster {
    users: 240,
    shards: 8,
    domains: 4,
};
const BLIND: Cluster = Cluster {
    domains: 0,
    ..SPREAD
};
/// Two racks of two: a view's slots cover half the fleet.
const SMALL: Cluster = Cluster {
    users: 120,
    shards: 4,
    domains: 2,
};
/// Two shards, so each holds every one of 520 views: a rejoin owes more
/// than one anti-entropy batch and catch-up spans heartbeats.
const DEEP: Cluster = Cluster {
    users: 520,
    shards: 2,
    domains: 0,
};

/// Four shards, domain-blind, 1200 views: a rejoin owes more than one
/// anti-entropy batch, and every shard lacks a slot of the views homed on
/// two others, so a rebalance can owe it new slots (on [`DEEP`] each shard
/// holds every view).
const QUAD: Cluster = Cluster {
    users: 1200,
    shards: 4,
    domains: 0,
};

/// Placement and the two churn-triggered jobs of a row.
#[derive(Clone, Copy)]
struct Churn {
    placement: PartitionStrategy,
    rebalance_threshold: f64,
    reopt_threshold: f64,
}

/// Churn is applied and published, nothing more.
const APPLY: Churn = Churn {
    placement: PartitionStrategy::Hash,
    rebalance_threshold: f64::INFINITY,
    reopt_threshold: f64::INFINITY,
};
/// Any degradation fires a re-optimization.
const REOPT: Churn = Churn {
    reopt_threshold: 1e-9,
    ..APPLY
};
/// LDG placement; any cross-server churn fires a rebalance.
const REBALANCE: Churn = Churn {
    placement: PartitionStrategy::Ldg,
    rebalance_threshold: 1e-9,
    ..APPLY
};

const FAULTLESS: FaultPlan = FaultPlan {
    seed: 0,
    drop_update_per_mille: 0,
    duplicate_per_mille: 0,
    delay_per_mille: 0,
    delay: Duration::ZERO,
};
/// 5% of batches delivered twice: rides along with every kill row to keep
/// the idempotent write path exercised without making "no view lost"
/// unfalsifiable.
const DUPLICATES: FaultPlan = FaultPlan {
    duplicate_per_mille: 50,
    ..FAULTLESS
};

/// Which shards a fault step hits.
#[derive(Clone, Copy, Debug)]
enum Who {
    /// The seed's pick.
    Victim,
    /// The victim's ring successor — its replica partner when domain-blind.
    Next,
    /// Three along the ring: shares no view with the victim.
    Far,
    /// The first of four racks — whether or not placement knows of racks.
    Rack0,
    Shard(usize),
}

#[derive(Clone, Copy)]
enum Step {
    /// Seeded client operations; no time passes unless the plan delays one.
    Ops(u32),
    /// Heartbeat rounds (advance one heartbeat, tick) on a quiet system.
    Ticks(u32),
    /// Heartbeat rounds with `0..=STORM_OPS` seeded operations before each.
    Storm(u32),
    /// Seeded operations until a re-optimization job is out (none if one
    /// already is); it stays out, logging churn, until [`Step::Land`].
    Fire,
    /// Runs the job out to completion and delivers its result.
    Land,
    /// Seeded follows aimed at giving `who` new replica slots, until a
    /// rebalance publishes (see [`Rig::aimed_follows`]).
    Rebalance(Who),
    Kill(Who),
    /// The dead process comes back empty.
    Restart(Who),
    Partition(Who, PartitionDir),
    Heal(Who),
    /// What this row, at this point, must show.
    Check(fn(&mut Rig)),
}

enum Lost {
    Nothing,
    /// More than none: the loss is the measurement.
    Views,
}

/// What the run must have counted when the script ends: failovers, views
/// lost, rejoins, readmits.
struct Expect(u64, Lost, u64, u64);

struct Row {
    name: &'static str,
    /// The choke point the row is there to stress.
    stresses: &'static str,
    cluster: Cluster,
    churn: Churn,
    laxity: Duration,
    plan: FaultPlan,
    script: &'static [Step],
    expect: Expect,
}

use Step::*;
use Who::*;

const ROWS: &[Row] = &[
    Row {
        name: "kill",
        stresses: "detection, then one repair / copy / publish, under load",
        cluster: SPREAD,
        churn: APPLY,
        laxity: LAXITY,
        plan: DUPLICATES,
        script: &[Storm(3), Kill(Victim), Storm(DOWN_MISSES + 3), Ops(40)],
        expect: Expect(1, Lost::Nothing, 0, 0),
    },
    Row {
        name: "kill-domain-spread",
        stresses: "a whole rack dies at once: spread replicas lose nothing",
        cluster: SPREAD,
        churn: APPLY,
        laxity: LAXITY,
        plan: DUPLICATES,
        script: &[
            Storm(3),
            Kill(Rack0),
            Ticks(DOWN_MISSES - 1),
            Check(suspects_are_not_failed_over),
            Ticks(1),
            Check(the_rack_fell_in_one_publish_after_down_misses_heartbeats),
            Storm(3),
            Kill(Shard(4)),
            Storm(DOWN_MISSES + 2),
        ],
        expect: Expect(3, Lost::Nothing, 0, 0),
    },
    Row {
        name: "kill-domain-blind",
        stresses: "the control: ring-neighbour replicas die together",
        cluster: BLIND,
        churn: APPLY,
        laxity: LAXITY,
        plan: DUPLICATES,
        script: &[
            Storm(3),
            Kill(Rack0),
            Ticks(DOWN_MISSES),
            Check(the_rack_fell_in_one_publish_after_down_misses_heartbeats),
            Storm(3),
            Kill(Shard(4)),
            Storm(DOWN_MISSES + 2),
            Check(lost_exactly_the_views_whose_slots_were_the_rack),
        ],
        expect: Expect(3, Lost::Views, 0, 0),
    },
    Row {
        name: "kill-rejoin",
        stresses: "empty restart: rejoin, anti-entropy, readmit, back to boot",
        cluster: SPREAD,
        churn: APPLY,
        laxity: LAXITY,
        plan: DUPLICATES,
        script: &[
            Storm(3),
            Kill(Victim),
            Storm(DOWN_MISSES + 2),
            Restart(Victim),
            Ticks(1),
            Check(the_probe_is_only_just_out),
            Storm(4),
            Check(converged_back_to_boot_with_every_view_in_place),
            Ops(40),
        ],
        expect: Expect(1, Lost::Nothing, 1, 1),
    },
    Row {
        name: "sustained-delay",
        stresses: "slow is not dead: 15% of batches held 1 ms, nobody fails over",
        cluster: SPREAD,
        churn: APPLY,
        laxity: LAXITY,
        plan: FaultPlan {
            delay_per_mille: 150,
            delay: Duration::from_millis(1),
            ..FAULTLESS
        },
        script: &[
            Ops(150),
            Storm(20),
            Check(every_delay_passed_on_the_virtual_clock),
        ],
        expect: Expect(0, Lost::Nothing, 0, 0),
    },
    Row {
        name: "sustained-drop",
        stresses: "3% of replica writes vanish: no staleness escape, no failover",
        cluster: SPREAD,
        churn: APPLY,
        laxity: LAXITY,
        plan: FaultPlan {
            drop_update_per_mille: 30,
            ..FAULTLESS
        },
        script: &[Ops(150), Storm(20), Check(updates_were_dropped)],
        expect: Expect(0, Lost::Nothing, 0, 0),
    },
    Row {
        name: "partial-partition",
        stresses: "a live shard nobody can reach: failed over, healed, readmitted",
        cluster: SPREAD,
        churn: APPLY,
        laxity: LAXITY,
        plan: FAULTLESS,
        script: &[
            Storm(3),
            Partition(Victim, PartitionDir::Inbound),
            Storm(DOWN_MISSES + 2),
            Heal(Victim),
            Storm(5),
            Check(converged_back_to_boot_with_every_view_in_place),
        ],
        expect: Expect(1, Lost::Nothing, 1, 1),
    },
    Row {
        name: "suspect-read-at-laxity",
        stresses: "a Suspect replica is read at silence = Δ, refused at Δ + 1 ns",
        cluster: BLIND,
        churn: APPLY,
        laxity: Duration::from_millis(12),
        plan: FAULTLESS,
        script: &[
            Ticks(2),
            Partition(Victim, PartitionDir::Outbound),
            Ticks(SUSPECT_MISSES),
            Check(a_suspect_is_read_up_to_the_laxity_and_not_past_it),
            Heal(Victim),
            Ticks(2),
            Check(everyone_is_up),
        ],
        expect: Expect(0, Lost::Nothing, 0, 0),
    },
    Row {
        name: "readmit-waits-for-laxity",
        stresses: "a drained rejoin stays off reads until its silence fits Δ",
        cluster: DEEP,
        churn: APPLY,
        laxity: Duration::from_millis(12),
        plan: FAULTLESS,
        script: &[
            Ticks(2),
            Kill(Victim),
            Ticks(DOWN_MISSES),
            Restart(Victim),
            Ticks(2),
            Check(the_backlog_is_still_owed),
            // Replies lost for one heartbeat short of `Down`: the backlog
            // waits, then drains on the first tick after the heal — with
            // four heartbeats of silence on the books.
            Partition(Victim, PartitionDir::Outbound),
            Ticks(DOWN_MISSES - 1),
            Heal(Victim),
            Ticks(1),
            Check(drained_but_held_back_by_its_silence),
            Ticks(1),
            Check(readmitted_five_heartbeats_after_the_rejoin),
        ],
        expect: Expect(1, Lost::Nothing, 1, 1),
    },
    Row {
        name: "partition-heals-mid-catch-up",
        stresses: "an interrupted catch-up resumes: no shard left Serving with views owed",
        cluster: DEEP,
        churn: APPLY,
        laxity: LAXITY,
        plan: DUPLICATES,
        script: &[
            Storm(2),
            Kill(Victim),
            Storm(DOWN_MISSES + 2),
            Restart(Victim),
            Ticks(2),
            Check(the_backlog_is_still_owed),
            Partition(Victim, PartitionDir::Inbound),
            Storm(2),
            Heal(Victim),
            Storm(4),
            Check(converged_back_to_boot_with_every_view_in_place),
        ],
        expect: Expect(1, Lost::Nothing, 1, 1),
    },
    Row {
        name: "rejoin-without-donor",
        stresses: "the old copy dies before the backlog streams: the failover's copy donates",
        cluster: BLIND,
        churn: APPLY,
        laxity: LAXITY,
        plan: FAULTLESS,
        script: &[
            Ticks(2),
            Kill(Victim),
            Ticks(DOWN_MISSES),
            Restart(Victim),
            Kill(Next),
            Ticks(2),
            Check(readmitted_holding_every_boot_view),
            Ticks(DOWN_MISSES),
        ],
        expect: Expect(2, Lost::Nothing, 1, 1),
    },
    Row {
        name: "no-amnesty-for-the-partitioned",
        stresses: "a failover's clean slate must not pardon a shard nobody can reach",
        cluster: BLIND,
        churn: APPLY,
        laxity: LAXITY,
        plan: FAULTLESS,
        // The victim falls on tick 4 and every reachable shard is pardoned;
        // `Far` went silent on tick 3 and must fall on tick 6, where the
        // script ends, not on tick 8.
        script: &[
            Ticks(2),
            Kill(Victim),
            Ticks(2),
            Partition(Far, PartitionDir::Inbound),
            Ticks(DOWN_MISSES),
        ],
        expect: Expect(2, Lost::Nothing, 0, 0),
    },
    Row {
        name: "reopt-across-failover",
        stresses: "a re-optimization fired before a kill installs after the failover, on its map",
        cluster: SPREAD,
        churn: REOPT,
        laxity: LAXITY,
        plan: DUPLICATES,
        script: &[
            Storm(3),
            Fire,
            Kill(Victim),
            Storm(DOWN_MISSES + 2),
            Land,
            Check(the_install_kept_the_failover_map),
            Ops(40),
        ],
        expect: Expect(1, Lost::Nothing, 0, 0),
    },
    Row {
        name: "churn-replayed-across-install",
        stresses: "churn applied while the optimizer runs is replayed onto its schedule",
        cluster: SPREAD,
        churn: REOPT,
        laxity: LAXITY,
        plan: FAULTLESS,
        script: &[Fire, Ops(150), Check(churn_awaits_replay), Land, Storm(3)],
        expect: Expect(0, Lost::Nothing, 0, 0),
    },
    Row {
        name: "rebalance-during-catch-up",
        stresses: "a rebalance owes a catching-up shard only new slots; its backlog still drains",
        cluster: QUAD,
        churn: REBALANCE,
        laxity: LAXITY,
        plan: FAULTLESS,
        script: &[
            Kill(Victim),
            Ticks(DOWN_MISSES),
            Restart(Victim),
            Ticks(2),
            Check(the_backlog_is_still_owed),
            Rebalance(Victim),
            Check(the_backlog_is_still_owed),
            Check(only_its_backlog_reached_the_victim),
            Ticks(1),
            Check(every_view_in_place_and_every_survivor_up),
        ],
        expect: Expect(1, Lost::Nothing, 1, 1),
    },
    Row {
        name: "rebalance-while-suspect",
        stresses: "a killed shard, still only Suspect, neither donates to nor receives a rebalance",
        cluster: SPREAD,
        churn: REBALANCE,
        laxity: LAXITY,
        plan: FAULTLESS,
        script: &[
            Kill(Victim),
            Ticks(SUSPECT_MISSES),
            Rebalance(Victim),
            Check(the_victim_is_only_suspect),
            Check(nothing_is_homed_on_the_victim),
            Ticks(DOWN_MISSES - SUSPECT_MISSES),
            Check(nothing_is_homed_on_the_victim),
        ],
        expect: Expect(1, Lost::Nothing, 0, 0),
    },
    Row {
        name: "rebalance-after-failover",
        stresses: "a rebalance repairs the partitioner's map around a failed-over shard",
        cluster: SPREAD,
        churn: REBALANCE,
        laxity: LAXITY,
        plan: FAULTLESS,
        script: &[
            Kill(Victim),
            Ticks(DOWN_MISSES),
            Check(nothing_is_homed_on_the_victim),
            Rebalance(Victim),
            Check(nothing_is_homed_on_the_victim),
            Ticks(DOWN_MISSES),
            Check(nothing_is_homed_on_the_victim),
        ],
        expect: Expect(1, Lost::Nothing, 0, 0),
    },
    Row {
        name: "exposed-slot-partitioned",
        stresses: "a failover exposes a slot on a shard nobody can reach: queued, not skipped",
        cluster: BLIND,
        churn: APPLY,
        laxity: LAXITY,
        plan: FAULTLESS,
        // `Next`'s views re-home to next + 1, exposing their slot on next + 2
        // (`Far`), which went silent a heartbeat after the kill: `Suspect`
        // when the failover publishes, healed before it is `Down`.
        script: &[
            Kill(Next),
            Ticks(1),
            Partition(Far, PartitionDir::Inbound),
            Ticks(DOWN_MISSES - 1),
            Check(the_partitioned_shard_is_catching_up),
            Heal(Far),
            Ticks(1),
            Check(every_view_in_place_and_every_survivor_up),
        ],
        expect: Expect(1, Lost::Nothing, 0, 1),
    },
    Row {
        name: "rebalance-while-partitioned",
        stresses: "a rebalance gives views to a shard nobody can reach: queued, not skipped",
        cluster: SMALL,
        churn: REBALANCE,
        laxity: LAXITY,
        plan: FAULTLESS,
        script: &[
            Partition(Next, PartitionDir::Inbound),
            Rebalance(Next),
            Check(the_partitioned_shard_is_catching_up),
            Heal(Next),
            Ticks(1),
            Check(every_view_in_place_and_every_survivor_up),
        ],
        expect: Expect(0, Lost::Nothing, 0, 1),
    },
];

fn suspects_are_not_failed_over(rig: &mut Rig) {
    for s in rig.pick(Rack0) {
        assert_eq!(rig.health.state(s), ShardHealth::Suspect);
    }
    assert_eq!(rig.report().failovers, 0, "Suspect is not a verdict");
}

fn the_rack_fell_in_one_publish_after_down_misses_heartbeats(rig: &mut Rig) {
    let report = rig.report();
    assert_eq!(report.failovers, 2);
    assert_eq!(
        rig.published.0,
        rig.epoch_at_step[0] + 1,
        "one repair, one publish, however many died"
    );
    let each = (HEARTBEAT * DOWN_MISSES).as_secs_f64() * 1e3;
    assert_eq!(report.detection_ms, 2.0 * each);
    assert_eq!(report.detection_ms + report.failover_ms, 2.0 * each);
    // Every slot the repair exposed holds its view before the publish, and
    // only the views counted lost are still homed on the rack.
    let repaired = Arc::clone(&rig.published.1);
    for u in rig.boot.moved_users(&repaired) {
        for slot in repaired.replica_slots(u) {
            assert!(rig.holds(slot, u), "view {u} missing at exposed {slot}");
        }
    }
    let sizes = repaired.shard_sizes();
    let stranded: usize = rig.pick(Rack0).iter().map(|&s| sizes[s]).sum();
    assert_eq!(stranded as u64, report.views_lost);
}

fn lost_exactly_the_views_whose_slots_were_the_rack(rig: &mut Rig) {
    // Ring slots {0, 1}: the users homed on 0. Counted once, at the
    // failover that found them gone; the later kill of 4 recounts nothing.
    let both_dead = rig.boot.shard_sizes()[0] as u64;
    assert!(both_dead > 0);
    assert_eq!(rig.report().views_lost, both_dead);
}

fn the_probe_is_only_just_out(rig: &mut Rig) {
    assert_eq!(rig.report().rejoins, 0, "a rejoin needs an answer");
}

fn converged_back_to_boot_with_every_view_in_place(rig: &mut Rig) {
    assert_eq!(rig.published.1, rig.boot, "converged back to desired");
    every_view_in_place_and_every_survivor_up(rig);
}

/// Every shard not killed is `Up`.
fn everyone_is_up(rig: &mut Rig) {
    for s in (0..rig.shards.len()).filter(|&s| !rig.faults.is_killed(s)) {
        assert_eq!(rig.health.state(s), ShardHealth::Up, "shard {s}");
    }
}

fn every_delay_passed_on_the_virtual_clock(rig: &mut Rig) {
    let delayed = rig.faults.counts().2;
    assert!(delayed > 0, "the plan never fired");
    let expected = HEARTBEAT * rig.ticks + Duration::from_millis(1) * delayed as u32;
    assert_eq!(rig.clock.now_ns(), expected.as_nanos() as u64);
}

fn updates_were_dropped(rig: &mut Rig) {
    assert!(rig.faults.counts().0 > 0, "the plan never fired");
}

fn a_suspect_is_read_up_to_the_laxity_and_not_past_it(rig: &mut Rig) {
    let (v, next) = (rig.victim, rig.pick(Next)[0]);
    assert_eq!(rig.health.state(v), ShardHealth::Suspect);
    assert_eq!(rig.health.silence(v), HEARTBEAT * SUSPECT_MISSES);
    let homed = |u: &NodeId| rig.boot.server_of(*u) == v;
    let u = (0..rig.boot.users() as NodeId).find(homed).unwrap();
    rig.clock.advance(rig.laxity - rig.health.silence(v));
    let touched = rig.request(Op::Query(u));
    assert!(touched[v], "silence == Δ: a legal read target");
    assert_eq!(rig.health.max_readable_lag(), rig.laxity);
    rig.clock.advance(Duration::from_nanos(1));
    let touched = rig.request(Op::Query(u));
    assert!(!touched[v] && touched[next], "Δ + 1 ns: the next replica");
    assert_eq!(rig.health.max_readable_lag(), rig.laxity);
}

fn the_backlog_is_still_owed(rig: &mut Rig) {
    assert_eq!(rig.report().rejoins, 1);
    assert_eq!(rig.health.state(rig.victim), ShardHealth::CatchingUp);
    assert!(rig.ring().contains("catch-up-batch"), "one batch streamed");
    assert!(!rig.ring().contains("remaining=0"), "more than one owed");
}

fn only_its_backlog_reached_the_victim(rig: &mut Rig) {
    // Every view the victim keeps is on its backlog already: a transition
    // during the catch-up copies it nothing inline.
    let streamed: usize = rig
        .events
        .as_ref()
        .expect("metrics on")
        .recent(usize::MAX)
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::CatchUpBatch { shard, views, .. } if shard == rig.victim => Some(views),
            _ => None,
        })
        .sum();
    let installed = rig.shards[rig.victim].lock().stats().views_installed;
    assert_eq!(installed, streamed as u64, "installs beyond the backlog");
}

fn drained_but_held_back_by_its_silence(rig: &mut Rig) {
    assert!(rig.ring().contains("remaining=0"), "the backlog drained");
    assert_eq!(rig.health.state(rig.victim), ShardHealth::CatchingUp);
    assert_eq!(rig.health.silence(rig.victim), HEARTBEAT * DOWN_MISSES);
    assert_eq!(rig.report().readmits, 0);
}

fn readmitted_five_heartbeats_after_the_rejoin(rig: &mut Rig) {
    let report = rig.report();
    assert_eq!(report.readmits, 1);
    let took = (HEARTBEAT * (DOWN_MISSES + 1)).as_secs_f64() * 1e3;
    assert_eq!(report.readmit_ms, took);
    converged_back_to_boot_with_every_view_in_place(rig);
}

fn readmitted_holding_every_boot_view(rig: &mut Rig) {
    // Ring slots {victim, next}: the old copy of every view homed on the
    // victim sat on `next`, which died before the backlog streamed. The
    // failover had copied each to the slot it exposed, next + 1, which the
    // rejoin publish took out of the view's replica set: the donor is found
    // under the map the backlog was built against.
    let report = rig.report();
    assert_eq!((report.rejoins, report.readmits), (1, 1));
    for u in 0..rig.boot.users() as NodeId {
        if rig.boot.replica_slots(u).any(|r| r == rig.victim) {
            assert!(rig.holds(rig.victim, u), "view {u} missing at the victim");
        }
    }
}

fn the_install_kept_the_failover_map(rig: &mut Rig) {
    let report = rig.report();
    assert_eq!((report.failovers, report.reopts), (1, 1));
    nothing_is_homed_on_the_victim(rig);
}

fn churn_awaits_replay(rig: &mut Rig) {
    assert!(rig.job.is_some(), "the job is still out");
    assert!(!rig.replayed.is_empty(), "no churn landed while it ran");
}

fn nothing_is_homed_on_the_victim(rig: &mut Rig) {
    assert_eq!(rig.published.1.shard_sizes()[rig.victim], 0);
}

fn the_victim_is_only_suspect(rig: &mut Rig) {
    assert_eq!(rig.health.state(rig.victim), ShardHealth::Suspect);
    assert!(rig.report().rebalances > 0);
    assert_eq!(rig.report().failovers, 0, "Suspect is not a verdict");
}

fn the_partitioned_shard_is_catching_up(rig: &mut Rig) {
    let partitioned = (0..rig.shards.len()).filter(|&s| rig.faults.partition_of(s).is_some());
    for s in partitioned {
        assert_eq!(rig.health.state(s), ShardHealth::CatchingUp, "shard {s}");
    }
}

/// Every slot of every view holds it and every shard is `Up` — the killed
/// ones aside.
fn every_view_in_place_and_every_survivor_up(rig: &mut Rig) {
    let topology = Arc::clone(&rig.published.1);
    for u in 0..topology.users() as NodeId {
        for slot in topology
            .replica_slots(u)
            .filter(|&s| !rig.faults.is_killed(s))
        {
            assert!(rig.holds(slot, u), "view {u} missing at slot {slot}");
        }
    }
    everyone_is_up(rig);
}

/// A fault the driver injected and the verdict it expects for it.
struct Fault {
    partition: bool,
    /// The clock reading detection must be measured from: the kill
    /// instant, or a partitioned shard's first silent heartbeat.
    evidence_ns: Option<u64>,
    /// Heartbeat rounds since.
    ticks: u32,
    /// The injector's refused-send count when the fault went in: while it
    /// stands, only the prober can have found the death.
    refused: u64,
    failed_over: bool,
    /// A killed shard's store counters at the kill: nothing may reach it
    /// while it stays dead, a control-plane copy or drop included.
    store: Option<ShardStats>,
}

/// The assembled runtime, the hand that drives it, and the driver's own
/// model of what the report must say.
struct Rig {
    row: &'static str,
    seed: u64,
    /// Index into the row's script (for the failure banner).
    step: usize,
    rt: ServeRuntime,
    client: ServeClient,
    clock: Clock,
    health: Arc<HealthTracker>,
    faults: Arc<FaultInjector>,
    /// The event ring (`None`: the row runs with metrics off).
    events: Option<EventLog>,
    shards: Arc<Vec<Mutex<StoreServer>>>,
    boot: Arc<Topology>,
    trace: OpTrace,
    rng: StdRng,
    victim: usize,
    laxity: Duration,
    /// The plan drops no update: a write reaches every reachable slot.
    lossless: bool,
    faulted: Vec<Option<Fault>>,
    /// Clock reading at which each shard turned `CatchingUp` (its rejoin,
    /// or the publish that queued views on it), until its readmit.
    behind_since_ns: Vec<Option<u64>>,
    /// The last `(epoch, topology)` seen published.
    published: (u64, Arc<Topology>),
    /// The epoch published when the previous step began, and this one.
    epoch_at_step: [u64; 2],
    /// Heartbeat rounds played.
    ticks: u32,
    /// What `detection_ms` must read.
    detection_ms: f64,
    /// What `readmit_ms` must read.
    readmit_ms: f64,
    /// Readmit events seen.
    readmits: u64,
    /// The re-optimization job out, and the churn applied since it fired.
    job: Option<ReoptJob>,
    replayed: Vec<(bool, NodeId, NodeId)>,
}

/// One `(row, seed)` as the world saw it: the final report and the
/// rendered event ring.
type Outcome = (ChurnReport, String);

type World = (CsrGraph, Rates, Schedule);

fn world(users: usize) -> World {
    let graph = copying(CopyingConfig {
        nodes: users,
        follows_per_node: 4,
        copy_prob: 0.6,
        seed: 1,
    });
    let rates = Rates::log_degree(&graph, 5.0);
    let schedule = Hybrid.schedule(&Instance::new(&graph, &rates)).schedule;
    (graph, rates, schedule)
}

fn ms(ns: u64) -> f64 {
    Duration::from_nanos(ns).as_secs_f64() * 1e3
}

impl Drop for Rig {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "fault matrix: row `{}`, seed {}, step {} failed at virtual {:?}; replay with \
                 FAULT_MATRIX={}:{}\n{}",
                self.row,
                self.seed,
                self.step,
                Duration::from_nanos(self.clock.now_ns()),
                self.row,
                self.seed,
                self.ring(),
            );
        }
    }
}

impl Rig {
    /// Boots `row`'s cluster on a manual clock, writes one event to every
    /// view (so "a replica held the view" means something) and lets two
    /// heartbeats pass (so every shard has answered one). With `metrics`
    /// off there is no event ring, and the checks that read it are skipped.
    fn new(row: &Row, (graph, rates, schedule): &World, seed: u64, metrics: bool) -> Rig {
        let clock = Clock::manual();
        let Cluster {
            users,
            shards,
            domains,
        } = row.cluster;
        let rt = ServeRuntime::assemble(
            graph.clone(),
            rates.clone(),
            schedule.clone(),
            Box::new(Hybrid),
            ServeConfig {
                shards,
                replication: 2,
                domains,
                heartbeat_interval: HEARTBEAT,
                staleness_budget: row.laxity,
                partition: row.churn.placement,
                rebalance_threshold: row.churn.rebalance_threshold,
                reopt_threshold: row.churn.reopt_threshold,
                faults: Some(FaultPlan { seed, ..row.plan }),
                metrics,
                ..Default::default()
            },
            clock.clone(),
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFA17);
        let boot = Arc::clone(rt.snapshot().topology());
        let mut rig = Rig {
            row: row.name,
            seed,
            step: 0,
            client: rt.client(),
            health: Arc::clone(rt.health().expect("replicated")),
            faults: Arc::clone(rt.faults().expect("a plan is configured")),
            events: rt.metrics().map(|m| m.events().clone()),
            shards: Arc::clone(&rt.shards),
            trace: OpTrace::new(rates, 0.1, seed),
            victim: rng.random_range(0..shards),
            rng,
            laxity: row.laxity,
            lossless: row.plan.drop_update_per_mille == 0,
            faulted: (0..shards).map(|_| None).collect(),
            behind_since_ns: vec![None; shards],
            published: (0, Arc::clone(&boot)),
            epoch_at_step: [0; 2],
            ticks: 0,
            detection_ms: 0.0,
            readmit_ms: 0.0,
            readmits: 0,
            job: None,
            replayed: Vec::new(),
            boot,
            rt,
            clock,
        };
        let everyone: Vec<NodeId> = (0..users as NodeId).collect();
        let first = EventTuple::new(0, 0, 0).to_wire();
        rig.client.shard.update(&rig.boot, &everyone, first);
        rig.play(Ticks(2));
        rig
    }

    fn pick(&self, who: Who) -> Vec<usize> {
        let n = self.shards.len();
        match who {
            Victim => vec![self.victim],
            Next => vec![(self.victim + 1) % n],
            Far => vec![(self.victim + 3) % n],
            Rack0 => (0..n / 4).collect(),
            Shard(s) => vec![s],
        }
    }

    fn holds(&self, shard: usize, view: NodeId) -> bool {
        self.shards[shard].lock().view(view).is_some()
    }

    /// Can `s` be talked to (the controller's own gate)?
    fn reachable(&self, s: usize) -> bool {
        reachable(Some(&self.faults), s)
    }

    /// The control plane's report so far.
    fn report(&self) -> ChurnReport {
        self.rt.control.lock().report()
    }

    /// The event ring, rendered (empty with metrics off).
    fn ring(&self) -> String {
        let events = self.events.iter().flat_map(|ring| ring.recent(usize::MAX));
        let lines: Vec<String> = events.map(|e| e.to_string()).collect();
        lines.join("\n")
    }

    fn play(&mut self, step: Step) {
        self.epoch_at_step = [self.epoch_at_step[1], self.published.0];
        match step {
            Ops(n) => (0..n).for_each(|_| self.op()),
            Ticks(n) => (0..n).for_each(|_| self.tick()),
            Storm(n) => {
                for _ in 0..n {
                    for _ in 0..self.rng.random_range(0..=STORM_OPS) {
                        self.op();
                    }
                    self.tick();
                }
            }
            Fire => {
                for _ in 0..TRIGGER_OPS {
                    if self.job.is_some() {
                        return;
                    }
                    self.op();
                }
                panic!("no re-optimization fired in {TRIGGER_OPS} operations");
            }
            Land => self.land(),
            Rebalance(who) => self.aimed_follows(who),
            Kill(who) => self.fault(who, |rig, s| {
                assert!(rig.rt.kill_shard(s), "shard {s} was already dead");
                Some(false)
            }),
            Partition(who, dir) => self.fault(who, |rig, s| {
                rig.faults.partition(s, dir);
                Some(true)
            }),
            Restart(who) => self.fault(who, |rig, s| {
                assert!(rig.rt.restart_shard(s), "shard {s} was not dead");
                None
            }),
            Heal(who) => self.fault(who, |rig, s| {
                rig.faults.heal_partition(s);
                None
            }),
            Check(expectation) => expectation(self),
        }
    }

    /// Seeded follows until a rebalance publishes, each aimed so that the
    /// publish gives `who`'s shard new replica slots. The followee is homed
    /// (at boot) on the least-loaded primary whose replica set holds the
    /// shard; the follower is a later user holding no slot there. LDG
    /// streams users in id order and the follower is the first whose
    /// neighbors changed, so a map that differs moves the follower onto
    /// that primary, and the shard gains its slot.
    fn aimed_follows(&mut self, who: Who) {
        let target = self.pick(who)[0];
        let boot = Arc::clone(&self.boot);
        let users = boot.users() as NodeId;
        let has_slot = |u: NodeId| boot.replica_slots(u).any(|r| r == target);
        let sizes = boot.shard_sizes();
        let primary = (0..users)
            .filter(|&v| has_slot(v))
            .map(|v| boot.server_of(v))
            .min_by_key(|&p| (sizes[p], p))
            .expect("some view has a slot on every shard");
        let homed: Vec<NodeId> = (0..users)
            .filter(|&v| boot.server_of(v) == primary)
            .collect();
        let before = self.report().rebalances;
        for _ in 0..TRIGGER_OPS {
            if self.report().rebalances > before {
                return;
            }
            let v = homed[self.rng.random_range(0..homed.len())];
            let u = self.rng.random_range(0..users);
            if u > v && !has_slot(u) {
                self.churn(true, u, v);
            }
        }
        panic!("no rebalance in {TRIGGER_OPS} follows");
    }

    /// Injects or lifts a fault on `who`; `lever` says what now stands on
    /// the shard (`Some(partition?)`) or that it is clean again.
    fn fault(&mut self, who: Who, lever: impl Fn(&mut Rig, usize) -> Option<bool>) {
        for s in self.pick(who) {
            let stands = lever(self, s).map(|partition| Fault {
                partition,
                evidence_ns: (!partition).then(|| self.clock.now_ns()),
                ticks: 0,
                refused: self.faults.counts().3,
                failed_over: false,
                store: (!partition).then(|| self.shards[s].lock().stats()),
            });
            self.faulted[s] = stands;
        }
        self.check_published();
    }

    /// One seeded client operation.
    fn op(&mut self) {
        match self.trace.next_op() {
            op @ (Op::Share(_) | Op::Query(_)) => {
                self.request(op);
            }
            Op::Follow(u, v) => self.churn(true, u, v),
            Op::Unfollow(u, v) => self.churn(false, u, v),
        }
    }

    /// A follow or unfollow through the control plane's entry point, as a
    /// client runs it. A job it fires stays out until [`Step::Land`]; churn
    /// applied meanwhile is what the install must replay.
    fn churn(&mut self, add: bool, u: NodeId, v: NodeId) {
        let (applied, fired) = self.rt.control.lock().churn(add, u, v);
        match fired {
            Some(job) => {
                assert!(self.job.replace(job).is_none(), "one job out at a time");
            }
            None if applied && self.job.is_some() => self.replayed.push((add, u, v)),
            None => {}
        }
        self.check_published();
    }

    /// Runs the job out inline, lands its result, and holds the install
    /// to what it must be: the published sets are exactly an
    /// [`IncrementalScheduler`] replaying the churn logged since the fire
    /// onto the job's schedule.
    fn land(&mut self) {
        let result = self.job.take().expect("a job is out")();
        let mut expected = IncrementalScheduler::new(
            result.inc.graph().base().clone(),
            self.rt.control.lock().applier.inc().rates().clone(),
            result.inc.base_schedule().clone(),
        );
        for (add, u, v) in self.replayed.drain(..) {
            if add {
                expected.add_edge(u, v);
            } else {
                expected.remove_edge(u, v);
            }
        }
        let installs = self.report().reopts;
        self.rt.control.lock().land(result);
        assert_eq!(self.report().reopts, installs + 1);
        let snap = self.rt.snapshot();
        for x in 0..self.boot.users() as NodeId {
            assert_eq!(
                snap.push_targets(x),
                expected.push_targets(x),
                "push set of {x}"
            );
            assert_eq!(
                snap.pull_sources(x),
                expected.pull_sources(x),
                "pull set of {x}"
            );
        }
        self.check_published();
    }

    /// One share or query through the real client, and what must hold of
    /// the shards it touched (returned): it was grouped under the topology
    /// its epoch published — every touched shard is a replica slot, under
    /// that map, of a view the request names; no batch reached a killed or
    /// inbound-partitioned shard; a write reached every slot it could; and
    /// a read went to a slot that is `Down`, `CatchingUp` or `Suspect`
    /// past the laxity only for a view with no readable slot at all.
    fn request(&mut self, op: Op) -> Vec<bool> {
        let snap = self.rt.snapshot();
        let batches = |rig: &Rig| -> Vec<u64> {
            let of = |s: &Mutex<StoreServer>| s.lock().stats().batches;
            rig.shards.iter().map(of).collect()
        };
        let before = batches(self);
        let mut views = Vec::new();
        let write = match op {
            Op::Share(u) => {
                self.client.share(u);
                snap.collect_push_targets(u, &mut views);
                true
            }
            Op::Query(u) => {
                self.client.query(u);
                snap.collect_pull_sources(u, &mut views);
                false
            }
            _ => unreachable!("churn goes through the control plane"),
        };
        let after = batches(self);
        let touched: Vec<bool> = after.iter().zip(&before).map(|(a, b)| a > b).collect();
        let topology = snap.topology();
        let deaf = |s: usize| {
            self.faults.is_killed(s) || self.faults.partition_of(s) == Some(PartitionDir::Inbound)
        };
        let readable = |s: usize| !self.faults.is_killed(s) && self.health.is_readable(s);
        let mut is_slot = vec![false; touched.len()];
        for &u in &views {
            topology.replica_slots(u).for_each(|r| is_slot[r] = true);
        }
        for s in 0..touched.len() {
            if !touched[s] {
                let owed = write && self.lossless && is_slot[s] && !deaf(s);
                assert!(!owed, "{op:?} skipped slot {s} of {views:?}");
                continue;
            }
            assert!(!deaf(s), "{op:?} reached shard {s}, which hears nothing");
            assert!(
                is_slot[s],
                "{op:?} touched shard {s}: no slot of {views:?} under epoch {}",
                snap.epoch()
            );
            if !write && !readable(s) {
                let stranded = |u: &NodeId| {
                    topology.replica_slots(*u).any(|r| r == s)
                        && !topology.replica_slots(*u).any(readable)
                };
                assert!(
                    views.iter().any(stranded),
                    "{op:?} read unreadable shard {s} although a readable slot existed"
                );
            }
        }
        self.check_published();
        touched
    }

    /// One heartbeat round, and what must hold of it: a failover only of
    /// a shard the script faulted, once, within [`DOWN_MISSES`] rounds —
    /// in exactly that many when only the prober can have found it — and
    /// timed, like unavailability, from the first evidence to this very
    /// instant; a readmit only with the shard's silence inside Δ, timed
    /// from its rejoin; a view counted lost only if no reachable replica
    /// slot held it; report, ring and clock agreeing to the bit (the ring
    /// and clock checks need metrics on).
    fn tick(&mut self) {
        self.clock.advance(HEARTBEAT);
        self.ticks += 1;
        let now = self.clock.now_ns();
        for f in self.faulted.iter_mut().flatten() {
            f.ticks += 1;
            f.evidence_ns.get_or_insert(now);
        }
        let n = self.shards.len();
        let lost_before = self.report().views_lost;
        let could_reach: Vec<bool> = (0..n).map(|s| self.reachable(s)).collect();
        let seen = self.events.as_ref().map_or(0, EventLog::total_recorded);

        self.rt.control.lock().tick();

        if let Some(events) = self.events.clone() {
            let fresh = (events.total_recorded() - seen) as usize;
            for e in &events.recent(fresh) {
                assert_eq!(e.at, Duration::from_nanos(now), "stamped off-clock: {e}");
                match e.kind {
                    EventKind::Failover { shard, wall_ms, .. } => {
                        let f = self.faulted[shard].as_mut();
                        let f = f.unwrap_or_else(|| panic!("nobody faulted shard {shard}: {e}"));
                        assert!(!f.failed_over, "a dead shard fails over once: {e}");
                        f.failed_over = true;
                        assert!(f.ticks <= DOWN_MISSES, "{e} after {} rounds", f.ticks);
                        if f.partition || self.faults.counts().3 == f.refused {
                            assert_eq!(f.ticks, DOWN_MISSES, "the prober's verdict: {e}");
                        }
                        self.detection_ms += ms(now - f.evidence_ns.expect("set above"));
                        assert_eq!(wall_ms, 0.0, "a failover takes no virtual time");
                    }
                    EventKind::Rejoin { shard, .. } => self.behind_since_ns[shard] = Some(now),
                    EventKind::Readmit { shard, wall_ms, .. } => {
                        let since = self.behind_since_ns[shard].take();
                        let took = ms(now - since.expect("readmitted, never behind"));
                        assert_eq!(wall_ms, took, "{e}");
                        self.readmit_ms += took;
                        self.readmits += 1;
                        assert_eq!(self.health.state(shard), ShardHealth::Up);
                        let silence = self.health.silence(shard);
                        assert!(silence <= self.laxity, "{e}, {silence:?} silent");
                    }
                    _ => {}
                }
            }
            let report = self.report();
            assert_eq!(report.detection_ms, self.detection_ms);
            assert_eq!(report.failover_ms, 0.0);
            assert_eq!(report.readmit_ms, self.readmit_ms);
            assert_eq!(report.readmits, self.readmits);
        }

        let lost = self.report().views_lost - lost_before;
        if lost > 0 {
            let topology = Arc::clone(self.rt.snapshot().topology());
            let held = |u: &NodeId| {
                let holds = |s: usize| could_reach[s] && self.holds(s, *u);
                topology.replica_slots(*u).any(holds)
            };
            let unheld = (0..topology.users() as NodeId).filter(|u| !held(u)).count();
            assert!(
                lost <= unheld as u64,
                "{lost} lost, {unheld} without a copy"
            );
        }
        self.check_published();
    }

    /// An epoch names one topology, and epochs only grow; nothing has
    /// reached a killed shard's store; and a newly published topology has
    /// every view at every slot a read may go to — on a shard not killed,
    /// `Up` or `Suspect`, reachable or not — unless the view was counted
    /// lost.
    fn check_published(&mut self) {
        let now = self.clock.now_ns();
        for s in 0..self.shards.len() {
            if self.health.state(s) == ShardHealth::CatchingUp {
                self.behind_since_ns[s].get_or_insert(now);
            }
        }
        for (s, f) in self.faulted.iter().enumerate() {
            if let Some(store) = f.as_ref().and_then(|f| f.store) {
                assert_eq!(
                    self.shards[s].lock().stats(),
                    store,
                    "killed shard {s} was reached"
                );
            }
        }
        let snap = self.rt.snapshot();
        let (epoch, topology) = &self.published;
        assert!(snap.epoch() >= *epoch, "epoch went backwards");
        if snap.epoch() == *epoch {
            assert!(
                Arc::ptr_eq(snap.topology(), topology),
                "epoch {epoch} published two topologies"
            );
        }
        if !Arc::ptr_eq(snap.topology(), topology) {
            let caught_up = |s: usize| {
                let state = self.health.state(s);
                !self.faults.is_killed(s) && matches!(state, ShardHealth::Up | ShardHealth::Suspect)
            };
            let lost = self.rt.control.lock().io.lost.clone();
            for u in (0..snap.topology().users() as NodeId).filter(|u| !lost.contains(u)) {
                for s in snap.topology().replica_slots(u).filter(|&s| caught_up(s)) {
                    assert!(
                        self.holds(s, u),
                        "view {u} missing at slot {s} under epoch {}",
                        snap.epoch()
                    );
                }
            }
        }
        self.published = (snap.epoch(), Arc::clone(snap.topology()));
    }

    /// Shuts the control plane down the way [`ServeRuntime::shutdown`]
    /// does — a job still out lands first — and holds the final report
    /// against the row's expectations.
    fn finish(mut self, expect: &Expect) -> Outcome {
        let spawned = self.rt.control.lock().close();
        assert!(spawned.is_none(), "the matrix runs its jobs inline");
        if self.job.is_some() {
            let out = self.rt.control.lock().reopt.in_flight();
            assert!(out, "shutdown waits for the job out");
            self.land();
        }
        let report = self.rt.control.lock().final_report();
        assert!(
            report.zero_violations(),
            "bounded staleness violated: {:?}",
            report.staleness_violation
        );
        let Expect(failovers, lost, rejoins, readmits) = expect;
        assert_eq!(report.failovers, *failovers, "failovers");
        match lost {
            Lost::Nothing => assert_eq!(report.views_lost, 0, "views lost"),
            Lost::Views => assert!(report.views_lost > 0, "the control lost nothing"),
        }
        assert_eq!((report.rejoins, report.readmits), (*rejoins, *readmits));
        (report, self.ring())
    }
}

fn run(row: &Row, world: &World, seed: u64, metrics: bool) -> Outcome {
    let mut rig = Rig::new(row, world, seed, metrics);
    for (i, &step) in row.script.iter().enumerate() {
        rig.step = i;
        rig.play(step);
    }
    rig.finish(&row.expect)
}

/// One figure of a run's final report.
type Column = fn(&ChurnReport) -> f64;

/// The table's columns, after `row` and `seeds`.
const COLUMNS: [(&str, Column); 10] = [
    ("failovers", |r| r.failovers as f64),
    ("views_lost", |r| r.views_lost as f64),
    ("rejoins", |r| r.rejoins as f64),
    ("readmits", |r| r.readmits as f64),
    ("detect_ms", |r| r.detection_ms),
    ("failover_ms", |r| r.failover_ms),
    ("readmit_ms", |r| r.readmit_ms),
    ("reopts", |r| r.reopts as f64),
    ("rebalances", |r| r.rebalances as f64),
    ("users_migrated", |r| r.users_migrated as f64),
];

#[test]
fn fault_matrix() {
    if let Ok(only) = std::env::var("FAULT_MATRIX") {
        let (name, seed) = only.split_once(':').expect("FAULT_MATRIX=row:seed");
        let seed: u64 = seed.parse().expect("FAULT_MATRIX=row:seed");
        let row = ROWS.iter().find(|r| r.name == name);
        let row = row.unwrap_or_else(|| panic!("no row named {name:?}"));
        let (report, ring) = run(row, &world(row.cluster.users), seed, true);
        println!("{name} — {}\n{report:?}\n{ring}", row.stresses);
        return;
    }
    let started = std::time::Instant::now();
    print!("{:<31}{:>6}", "row", "seeds");
    let width = |name: &str| name.len().max(11) + 1;
    COLUMNS
        .iter()
        .for_each(|(name, _)| print!("{name:>w$}", w = width(name)));
    println!("   (milliseconds are virtual)");
    for row in ROWS {
        let world = world(row.cluster.users);
        let outcomes: Vec<Outcome> = (0..SEEDS)
            .map(|seed| run(row, &world, seed, true))
            .collect();
        let again = run(row, &world, 0, true);
        assert_eq!(
            again, outcomes[0],
            "`{}` seed 0 replays to the digit",
            row.name
        );
        print!("{:<31}{SEEDS:>6}", row.name);
        for (name, column) in COLUMNS {
            let values = outcomes.iter().map(|(report, _)| column(report));
            let (lo, hi) = values.fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(v), hi.max(v)));
            let cell = if lo < hi {
                format!("{lo}..{hi}")
            } else {
                lo.to_string()
            };
            print!("{cell:>w$}", w = width(name));
        }
        println!();
    }
    println!(
        "{} rows x {SEEDS} seeds in {:.2?}, no thread, no sleep",
        ROWS.len(),
        started.elapsed()
    );
}

/// The report is folded from the events as they are recorded, not read
/// back from the ring: a lifecycle row replays to the same report, field
/// for field, with metrics off.
#[test]
fn metrics_off_folds_the_same_report() {
    for name in ["kill-rejoin", "rebalance-after-failover"] {
        let row = ROWS.iter().find(|r| r.name == name).expect("a row");
        let world = world(row.cluster.users);
        let (on, _) = run(row, &world, 0, true);
        let (off, ring) = run(row, &world, 0, false);
        assert!(ring.is_empty(), "metrics off keeps no ring");
        assert_eq!(off, on, "`{name}` seed 0 with metrics off");
    }
}
