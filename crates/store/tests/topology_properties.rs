//! Property tests for the topology subsystem: conservation of the
//! batched (one message per touched server) bill, determinism of every partitioner, and failover's topology repair.
//!
//! Seeded-RNG style (no proptest in the offline build): each property is
//! exercised across a grid of graphs, schedules, server counts and seeds.

use piggyback_core::baseline::{hybrid_schedule, push_all_schedule};
use piggyback_core::cost::{schedule_cost, CostModel};
use piggyback_core::parallelnosy::ParallelNosy;
use piggyback_core::schedule::Schedule;
use piggyback_graph::gen::{copying, erdos_renyi, CopyingConfig};
use piggyback_graph::CsrGraph;
use piggyback_store::topology::{PartitionRequest, PartitionStrategy, Topology};
use piggyback_workload::Rates;

fn instances() -> Vec<(&'static str, CsrGraph, Rates)> {
    let mut out = Vec::new();
    for seed in [3u64, 17] {
        let g = copying(CopyingConfig {
            nodes: 250,
            follows_per_node: 5,
            copy_prob: 0.75,
            seed,
        });
        let r = Rates::log_degree(&g, 5.0);
        out.push(("copying", g, r));
        let g = erdos_renyi(200, 900, seed);
        let r = Rates::log_degree(&g, 2.0);
        out.push(("erdos-renyi", g, r));
    }
    out
}

fn schedules(g: &CsrGraph, r: &Rates) -> Vec<(&'static str, Schedule)> {
    vec![
        ("push-all", push_all_schedule(g)),
        ("hybrid", hybrid_schedule(g, r)),
        ("parallelnosy", ParallelNosy::default().run(g, r).schedule),
    ]
}

/// Conservation of the batched bill, for every partitioner, schedule and
/// server count: per-server query load reassembles the query rate; the
/// bill runs between one message per request and the flat §2.1 cost plus
/// one own-view message per request; one server bills exactly one message
/// per request.
#[test]
fn batched_bill_is_conserved_for_every_partitioner() {
    for (gname, g, r) in &instances() {
        for (sname, s) in &schedules(g, r) {
            let flat = schedule_cost(g, r, s);
            for servers in [1usize, 2, 7, 16, 64] {
                for p in PartitionStrategy::ALL {
                    let t = p.partitioner().partition(&PartitionRequest {
                        graph: g,
                        rates: r,
                        schedule: Some(s),
                        servers,
                        seed: 11,
                        domains: None,
                    });
                    let acct = CostModel::with_topology(t.assignment(), servers).batched(g, r, s);
                    let ctx = format!("{gname}/{sname}/{} @{servers} servers", p.name());
                    let load: f64 = acct.query_load.iter().sum();
                    assert!(
                        (load - acct.query).abs() < 1e-6,
                        "{ctx}: Σload {load} != query {}",
                        acct.query
                    );
                    let (total, requests) = (acct.total(), acct.requests);
                    assert!(
                        total >= requests - 1e-9 && total <= flat + requests + 1e-6,
                        "{ctx}: {total} outside [{requests}, {flat} + {requests}]"
                    );
                    if servers == 1 {
                        assert!(
                            (total - requests).abs() < 1e-9,
                            "{ctx}: one server bills {total} for {requests} requests"
                        );
                    }
                    assert!(acct.msgs_per_request() >= 1.0 - 1e-12, "{ctx}");
                }
            }
        }
    }
}

/// The batched (one message per touched server) cost runs between two
/// limits — Figure 7's: on one server every request is one message
/// whatever the schedule, with a server per user it is the flat §2.1 cost
/// plus one own-view message per request — and never falls on the way as
/// hash placement spreads over more servers.
#[test]
fn batched_cost_runs_between_the_one_server_and_flat_limits() {
    for (gname, g, r) in &instances() {
        let n = g.node_count();
        for (sname, s) in &schedules(g, r) {
            let ctx = format!("{gname}/{sname}");
            let one = Topology::single_server(n);
            let acct = CostModel::with_topology(one.assignment(), 1).batched(g, r, s);
            assert!(
                (acct.total() - acct.requests).abs() < 1e-9,
                "{ctx}: one server bills {} for {} requests",
                acct.total(),
                acct.requests
            );
            assert!((acct.normalized_throughput() - 1.0).abs() < 1e-12, "{ctx}");
            assert!((acct.msgs_per_request() - 1.0).abs() < 1e-12, "{ctx}");

            let own = Topology::from_assignment((0..n as u32).collect(), n);
            let acct = CostModel::with_topology(own.assignment(), n).batched(g, r, s);
            let flat = schedule_cost(g, r, s) + acct.requests;
            assert!(
                (acct.total() - flat).abs() < 1e-6,
                "{ctx}: a server per user bills {}, flat + own-view is {flat}",
                acct.total()
            );

            let mut last = acct.requests;
            for servers in [4usize, 32, 256, 100_000] {
                let t = Topology::hash(n, servers, 0);
                let total = CostModel::with_topology(t.assignment(), servers)
                    .batched(g, r, s)
                    .total();
                assert!(
                    total >= last - 1e-9 && total <= flat + 1e-6,
                    "{ctx} @{servers}: {total} outside [{last}, {flat}]"
                );
                last = total;
            }
        }
    }
}

/// Figure 8's load metric and Figure 7's crossover: per-server query load
/// reassembles the query cost, each server's mean share is `1/servers`,
/// hash placement balances it, and piggybacking is ahead of hybrid once
/// co-location has vanished.
#[test]
fn batched_query_load_is_conserved_and_piggybacking_wins_at_scale() {
    for (gname, g, r) in &instances() {
        let n = g.node_count();
        let schedules = schedules(g, r);
        for (sname, s) in &schedules {
            for servers in [1usize, 4, 32, 64] {
                let t = Topology::hash(n, servers, 1);
                let acct = CostModel::with_topology(t.assignment(), servers).batched(g, r, s);
                let ctx = format!("{gname}/{sname} @{servers} servers");
                let load: f64 = acct.query_load.iter().sum();
                assert!(
                    (load - acct.query).abs() < 1e-6,
                    "{ctx}: Σload {load} != query {}",
                    acct.query
                );
                let (mean, var) = acct.load_balance();
                assert!((mean - 1.0 / servers as f64).abs() < 1e-12, "{ctx}: {mean}");
                if servers == 32 {
                    assert!(var < 1e-3, "{ctx}: hash should balance well: {var}");
                }
            }
        }
        // One server ties every schedule at `requests` (above); here
        // co-location has vanished.
        let big = Topology::hash(n, 2000, 0);
        let total = |name: &str| {
            let (_, s) = schedules.iter().find(|(n, _)| *n == name).unwrap();
            CostModel::with_topology(big.assignment(), 2000)
                .batched(g, r, s)
                .total()
        };
        let (pn, ff) = (total("parallelnosy"), total("hybrid"));
        assert!(pn < ff, "{gname}: PN should win at scale: {pn} vs {ff}");
    }
}

/// Determinism: every partitioner is a pure function of its request — the
/// same seed reproduces the identical topology, call after call.
#[test]
fn every_partitioner_is_stable_under_a_fixed_seed() {
    for (gname, g, r) in &instances() {
        let s = hybrid_schedule(g, r);
        for seed in [0u64, 42, 9999] {
            let req = PartitionRequest {
                graph: g,
                rates: r,
                schedule: Some(&s),
                servers: 12,
                seed,
                domains: None,
            };
            for p in PartitionStrategy::ALL {
                let a = p.partitioner().partition(&req);
                let b = p.partitioner().partition(&req);
                assert_eq!(
                    a.assignment(),
                    b.assignment(),
                    "{gname}/{} not deterministic at seed {seed}",
                    p.name()
                );
                assert_eq!(a.servers(), 12);
                assert!(a.assignment().iter().all(|&sh| (sh as usize) < 12));
            }
        }
    }
}

/// No registered partitioner reads the schedule: dropping it from the
/// request leaves every placement unchanged.
#[test]
fn every_partitioner_ignores_the_schedule() {
    let (_, g, r) = &instances()[0];
    let s = ParallelNosy::default().run(g, r).schedule;
    let with = PartitionRequest {
        graph: g,
        rates: r,
        schedule: Some(&s),
        servers: 8,
        seed: 5,
        domains: None,
    };
    let without = PartitionRequest {
        schedule: None,
        ..with
    };
    for p in PartitionStrategy::ALL {
        let a = p.partitioner().partition(&with);
        let b = p.partitioner().partition(&without);
        assert_eq!(
            a.assignment(),
            b.assignment(),
            "{} must ignore the schedule",
            p.name()
        );
    }
}

/// The one graph-aware partitioner earns its place on the bill the store
/// charges: on every instance, schedule and multi-server count, LDG's
/// batched messages per request are below hash placement's.
#[test]
fn ldg_bills_fewer_messages_per_request_than_hash() {
    for (gname, g, r) in &instances() {
        for (sname, s) in &schedules(g, r) {
            for servers in [2usize, 7, 16, 64] {
                let bill = |p: PartitionStrategy| {
                    let t = p.partitioner().partition(&PartitionRequest {
                        graph: g,
                        rates: r,
                        schedule: Some(s),
                        servers,
                        seed: 11,
                        domains: None,
                    });
                    CostModel::with_topology(t.assignment(), servers)
                        .batched(g, r, s)
                        .msgs_per_request()
                };
                let (ldg, hash) = (bill(PartitionStrategy::Ldg), bill(PartitionStrategy::Hash));
                assert!(
                    ldg < hash,
                    "{gname}/{sname} @{servers} servers: LDG bills {ldg}, hash {hash}"
                );
            }
        }
    }
}

/// Migration bookkeeping: `moved_users` is symmetric in size, empty for
/// identical topologies, and covers exactly the disagreeing users.
#[test]
fn moved_users_matches_assignment_diff() {
    let a = Topology::hash(500, 16, 1);
    let b = Topology::hash(500, 16, 2);
    assert!(a.moved_users(&a).is_empty());
    let moved = a.moved_users(&b);
    assert_eq!(moved.len(), b.moved_users(&a).len());
    for u in 0..500u32 {
        let differs = a.server_of(u) != b.server_of(u);
        assert_eq!(moved.contains(&u), differs, "user {u}");
    }
}

/// Failover's repair, over every partitioner × replication 1–3 × trivial
/// and block domains × seeded dead sets: a user ends up homed on a dead
/// server only if it is reported lost, and it is lost exactly when every
/// one of its replica slots died; the users touched are exactly those
/// whose primary died; a re-homed user's slots stay domain-spread; and
/// the repair is the identity on a healthy fleet and idempotent on a
/// repaired one.
#[test]
fn repaired_routes_around_the_dead_set_or_reports_the_loss() {
    const SERVERS: usize = 12;
    for (gname, g, r) in &instances() {
        let s = hybrid_schedule(g, r);
        for p in PartitionStrategy::ALL {
            for domains in [None, Some(Topology::block_domains(SERVERS, 4))] {
                let placed = p.partitioner().partition(&PartitionRequest {
                    graph: g,
                    rates: r,
                    schedule: Some(&s),
                    servers: SERVERS,
                    seed: 11,
                    domains: domains.as_deref(),
                });
                for replication in 1..=3usize {
                    let t = placed.clone().with_replication(replication);
                    let ctx = format!(
                        "{gname}/{} x{replication} domains={}",
                        p.name(),
                        domains.is_some()
                    );
                    let healthy = t.repaired(&[false; SERVERS]);
                    assert_eq!(healthy.topology, t, "{ctx}: identity");
                    assert!(healthy.moved.is_empty(), "{ctx}");
                    for seed in 1..=6usize {
                        let dead: Vec<bool> = (0..SERVERS)
                            .map(|s| ((seed * 2_654_435_761 + s * s * 40_503) >> 7) % 5 < 2)
                            .collect();
                        let fixed = t.repaired(&dead);
                        for u in 0..t.users() as u32 {
                            let moved = fixed.moved.binary_search(&u).is_ok();
                            let lost = t.replica_slots(u).all(|r| dead[r]);
                            let home = fixed.topology.server_of(u);
                            assert!(
                                !dead[home] || lost,
                                "{ctx}/{seed}: {u} homed on dead {home}"
                            );
                            if lost {
                                assert_eq!(
                                    home,
                                    t.server_of(u),
                                    "{ctx}/{seed}: lost {u} left its dead primary"
                                );
                            }
                            assert_eq!(
                                moved,
                                dead[t.server_of(u)] && !lost,
                                "{ctx}/{seed}: {u} moved <=> its primary died, a slot lives"
                            );
                            if moved {
                                let mut in_domains: Vec<u32> = fixed
                                    .topology
                                    .replica_slots(u)
                                    .map(|r| fixed.topology.domain_of(r))
                                    .collect();
                                in_domains.sort_unstable();
                                in_domains.dedup();
                                assert_eq!(
                                    in_domains.len(),
                                    replication,
                                    "{ctx}/{seed}: {u}'s slots share a domain"
                                );
                            }
                        }
                        let again = fixed.topology.repaired(&dead);
                        assert!(again.moved.is_empty(), "{ctx}/{seed}: second repair moved");
                        assert_eq!(again.topology, fixed.topology, "{ctx}/{seed}");
                    }
                }
            }
        }
    }
}
