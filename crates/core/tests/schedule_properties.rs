//! Randomized property tests of schedule/algorithm invariants inside the
//! core crate (the facade crate has its own end-to-end property suite).
//!
//! Formerly `proptest`-based; the offline build vendors only a seeded RNG,
//! so each property now runs over a fixed number of deterministic random
//! cases (same invariants, reproducible failures by seed).

use piggyback_core::baseline::hybrid_schedule;
use piggyback_core::bitset::BitSet;
use piggyback_core::cost::schedule_cost;
use piggyback_core::optimal::optimal_schedule;
use piggyback_core::parallelnosy::{partial_cost, ParallelNosy};
use piggyback_core::schedule::{EdgeAssignment, Schedule};
use piggyback_core::staleness::{check_semantic_staleness, random_actions};
use piggyback_core::validate::validate_bounded_staleness;
use piggyback_graph::{CsrGraph, GraphBuilder};
use piggyback_workload::Rates;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 48;

/// Random digraph without self-loops: `(node_count, graph)`.
fn arb_graph(rng: &mut StdRng, max_n: usize, edges_per_node: usize) -> CsrGraph {
    let n = rng.random_range(2..max_n);
    let count = rng.random_range(0..n * edges_per_node);
    let mut b = GraphBuilder::new();
    b.reserve_nodes(n);
    for _ in 0..count {
        let u = rng.random_range(0..n as u32);
        let v = rng.random_range(0..n as u32);
        if u != v {
            b.add_edge(u, v);
        }
    }
    b.build()
}

#[test]
fn bitset_matches_reference() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bits = BitSet::new(256);
        let mut reference = std::collections::BTreeSet::new();
        for _ in 0..rng.random_range(0..400usize) {
            let insert = rng.random_bool(0.5);
            let key = rng.random_range(0..256u32);
            if insert {
                assert_eq!(bits.insert(key), reference.insert(key), "seed {seed}");
            } else {
                assert_eq!(bits.remove(key), reference.remove(&key), "seed {seed}");
            }
        }
        assert_eq!(bits.len(), reference.len(), "seed {seed}");
        assert_eq!(
            bits.iter().collect::<Vec<_>>(),
            reference.into_iter().collect::<Vec<_>>(),
            "seed {seed}"
        );
    }
}

#[test]
fn schedule_state_machine() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let g = arb_graph(&mut rng, 20, 3);
        if g.edge_count() == 0 {
            continue;
        }
        let m = g.edge_count();
        let mut s = Schedule::for_graph(&g);
        for _ in 0..rng.random_range(0..80usize) {
            let op: u8 = rng.random_range(0..3u32) as u8;
            let e = (rng.random_range(0..64usize) % m) as u32;
            match op {
                0 if !s.is_covered(e) => {
                    s.set_push(e);
                }
                1 if !s.is_covered(e) => {
                    s.set_pull(e);
                }
                2 if !s.is_push(e) && !s.is_pull(e) => {
                    s.set_covered(e, 0);
                }
                _ => {}
            }
            // Invariant: covered is disjoint from push/pull.
            assert!(
                !(s.is_covered(e) && (s.is_push(e) || s.is_pull(e))),
                "seed {seed}"
            );
            // Assignment is consistent with the bits.
            match s.assignment(e) {
                EdgeAssignment::Push => assert!(s.is_push(e) && !s.is_pull(e), "seed {seed}"),
                EdgeAssignment::Pull => assert!(s.is_pull(e) && !s.is_push(e), "seed {seed}"),
                EdgeAssignment::PushAndPull => assert!(s.is_push(e) && s.is_pull(e), "seed {seed}"),
                EdgeAssignment::Covered(_) => assert!(s.is_covered(e), "seed {seed}"),
                EdgeAssignment::Unassigned => assert!(!s.is_served(e), "seed {seed}"),
            }
        }
    }
}

#[test]
fn partial_cost_equals_full_cost_when_finalized() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(200 + seed);
        let g = arb_graph(&mut rng, 25, 3);
        let r = Rates::log_degree(&g, 5.0);
        let res = ParallelNosy::default().run(&g, &r);
        // After finalization nothing is unassigned, so partial == full.
        let full = schedule_cost(&g, &r, &res.schedule);
        let partial = partial_cost(&g, &r, &res.schedule);
        assert!((full - partial).abs() < 1e-9, "seed {seed}");
    }
}

#[test]
fn optimal_lower_bounds_heuristics_on_tiny_graphs() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(300 + seed);
        let g = arb_graph(&mut rng, 7, 3);
        let r = Rates::log_degree(&g, 5.0);
        let Some(opt) = optimal_schedule(&g, &r) else {
            continue;
        };
        validate_bounded_staleness(&g, &opt.schedule).unwrap();
        let ff = schedule_cost(&g, &r, &hybrid_schedule(&g, &r));
        let pn = schedule_cost(&g, &r, &ParallelNosy::default().run(&g, &r).schedule);
        assert!(opt.cost <= ff + 1e-9, "seed {seed}");
        assert!(opt.cost <= pn + 1e-9, "seed {seed}");
    }
}

#[test]
fn semantic_and_structural_feasibility_agree() {
    for seed in 0..CASES / 2 {
        let mut rng = StdRng::seed_from_u64(400 + seed);
        let g = arb_graph(&mut rng, 18, 3);
        let r = Rates::log_degree(&g, 5.0);
        // A schedule that passes the structural validator must pass the
        // semantic simulator on any action sequence.
        let sched = ParallelNosy::default().run(&g, &r).schedule;
        validate_bounded_staleness(&g, &sched).unwrap();
        let actions = random_actions(&g, 60, 60, 300, seed);
        assert!(
            check_semantic_staleness(&g, &sched, &actions, 5).is_ok(),
            "seed {seed}"
        );
    }
}

/// Random follows and unfollows on an [`IncrementalScheduler`] against a
/// plain edge-set model: each mutation is applied exactly when the model
/// says it changes the graph, the freeze is the model's edge set on the
/// grown node count, the schedule stays valid, and the serving sets list
/// exactly the live edges assigned to them. The churn re-adds removed base
/// edges, tries self-loops, follows users past the base's node count and
/// unfollows earlier follows, so some grown node count outlives the edges
/// that grew it; the test asserts that each of the four happened. Every
/// effect names each user at most once, and removing a live hub leg
/// re-serves exactly the edges the schedule covered through it on that leg,
/// which the churn must also do at least once.
#[test]
fn incremental_churn_matches_an_edge_set_model() {
    use piggyback_core::incremental::{ChurnEffect, IncrementalScheduler};
    use piggyback_graph::fx::FxHashSet;
    const USERS: u32 = 32;
    let (mut readds, mut self_loops, mut past_base, mut kept_nodes) = (0, 0, 0, 0);
    let mut hub_legs = 0;
    let distinct = |effect: &ChurnEffect| {
        [&effect.push_changed, &effect.pull_changed]
            .iter()
            .all(|users| {
                let mut sorted = users.to_vec();
                sorted.sort_unstable();
                sorted.dedup();
                sorted.len() == users.len()
            })
    };
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(600 + seed);
        let base = arb_graph(&mut rng, 25, 4);
        let rates = Rates::from_vecs(
            (0..USERS).map(|_| rng.random_range(0.5..5.0)).collect(),
            (0..USERS).map(|_| rng.random_range(0.5..5.0)).collect(),
        );
        let pn = ParallelNosy {
            threads: 1,
            ..ParallelNosy::default()
        };
        let sched = pn.run(&base, &rates).schedule;
        let base_edges: Vec<(u32, u32)> = base.edges().map(|(_, u, v)| (u, v)).collect();
        let mut inc = IncrementalScheduler::new(base.clone(), rates.clone(), sched);
        let mut model: FxHashSet<(u32, u32)> = base_edges.iter().copied().collect();
        let mut nodes = base.node_count();
        let mut follows: Vec<(u32, u32)> = Vec::new();
        for _ in 0..rng.random_range(0..160usize) {
            let unfollow = !follows.is_empty() && rng.random_bool(0.2);
            let (u, v) = if unfollow {
                follows[rng.random_range(0..follows.len())]
            } else if !base_edges.is_empty() && rng.random_bool(0.4) {
                base_edges[rng.random_range(0..base_edges.len())]
            } else {
                (rng.random_range(0..USERS), rng.random_range(0..USERS))
            };
            if !unfollow && rng.random_bool(0.5) {
                let expected = u != v && !model.contains(&(u, v));
                let effect = inc.add_edge_detailed(u, v);
                assert_eq!(effect.applied, expected, "seed {seed}: add {u} -> {v}");
                assert!(distinct(&effect), "seed {seed}: add {u} -> {v}: {effect:?}");
                self_loops += usize::from(u == v);
                if expected {
                    model.insert((u, v));
                    readds += usize::from(base_edges.contains(&(u, v)));
                    past_base += usize::from(u.max(v) as usize >= base.node_count());
                    nodes = nodes.max(u.max(v) as usize + 1);
                    follows.push((u, v));
                }
            } else {
                // The orphans: covered edges into `v` through hub `u` if
                // `u -> v` is pulled, out of `u` through hub `v` if pushed.
                let s = inc.base_schedule();
                let leg = base.edges().find(|&(_, x, y)| (x, y) == (u, v));
                let (push, pull) =
                    leg.map_or((false, false), |(e, _, _)| (s.is_push(e), s.is_pull(e)));
                let mut orphans: Vec<(u32, u32)> = base
                    .edges()
                    .filter(|&(f, x, y)| {
                        let w = s.hub_of(f);
                        s.is_covered(f)
                            && ((pull && (w, y) == (u, v)) || (push && (x, w) == (u, v)))
                    })
                    .map(|(_, x, y)| (x, y))
                    .collect();
                let expected = model.remove(&(u, v));
                let effect = inc.remove_edge_detailed(u, v);
                assert_eq!(effect.applied, expected, "seed {seed}: remove {u} -> {v}");
                assert!(
                    distinct(&effect),
                    "seed {seed}: remove {u} -> {v}: {effect:?}"
                );
                if !expected {
                    orphans.clear();
                }
                let mut reserved = effect.reserved_direct;
                reserved.sort_unstable();
                orphans.sort_unstable();
                assert_eq!(reserved, orphans, "seed {seed}: orphans of {u} -> {v}");
                hub_legs += usize::from(!orphans.is_empty());
            }
        }
        inc.validate().unwrap();
        let live_nodes = model.iter().map(|&(u, v)| u.max(v) as usize + 1).max();
        kept_nodes += usize::from(nodes > live_nodes.unwrap_or(0).max(base.node_count()));
        let frozen = inc.freeze_graph();
        assert_eq!(frozen.node_count(), nodes, "seed {seed}");
        let frozen_set: FxHashSet<(u32, u32)> = frozen.edges().map(|(_, u, v)| (u, v)).collect();
        assert_eq!(frozen_set, model, "seed {seed}");
        // A live edge is assigned to push or pull by the base schedule if
        // it is a base edge, else by the hybrid rule.
        let s = inc.base_schedule();
        let base_id = |u: u32, v: u32| {
            let e = ((u as usize) < base.node_count()).then(|| base.edge_id(u, v));
            e.filter(|&e| e != piggyback_graph::INVALID_EDGE)
        };
        let pushed = |u: u32, v: u32| match base_id(u, v) {
            Some(e) => s.is_push(e),
            None => rates.rp(u) <= rates.rc(v),
        };
        let pulled = |u: u32, v: u32| match base_id(u, v) {
            Some(e) => s.is_pull(e),
            None => rates.rp(u) > rates.rc(v),
        };
        for x in 0..USERS {
            let mut got = inc.push_targets(x);
            got.sort_unstable();
            let mut want: Vec<u32> = model
                .iter()
                .filter(|&&(u, v)| u == x && pushed(u, v))
                .map(|&(_, v)| v)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "seed {seed}: push set of {x}");
            let mut got = inc.pull_sources(x);
            got.sort_unstable();
            let mut want: Vec<u32> = model
                .iter()
                .filter(|&&(u, v)| v == x && pulled(u, v))
                .map(|&(u, _)| u)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "seed {seed}: pull set of {x}");
        }
        // Every live edge is pushed, pulled, or covered through a hub whose
        // legs are a live push and a live pull.
        for &(u, v) in &model {
            let covered = base_id(u, v).is_some_and(|e| {
                let w = s.hub_of(e);
                s.is_covered(e)
                    && model.contains(&(u, w))
                    && model.contains(&(w, v))
                    && pushed(u, w)
                    && pulled(w, v)
            });
            assert!(
                pushed(u, v) || pulled(u, v) || covered,
                "seed {seed}: {u} -> {v} unserved"
            );
        }
    }
    assert!(
        readds > 0 && self_loops > 0 && past_base > 0 && kept_nodes > 0 && hub_legs > 0,
        "churn must reach re-adds ({readds}), self-loops ({self_loops}), ids \
         past the base ({past_base}), grown node counts outliving their \
         edges ({kept_nodes}) and live hub legs carrying covers ({hub_legs})"
    );
}
