//! Textbook models of the optimizer's hot paths, for differential tests.
//!
//! Each model states what production code computes in the plainest form
//! that computes it: per-call allocation, one global heap, eager
//! recomputation, no arena, no pool. Production code never calls them;
//! the tests of [`crate::densest`] and [`crate::chitchat`] compare the
//! production paths against them.
//!
//! * [`peel_heap`] — Charikar's greedy weighted peel over one lazy
//!   `BinaryHeap` on the exact `(weighted degree, vertex)` key. The bucket
//!   peel must reproduce its snapshots bit for bit.
//! * [`densest_hub_graph`] — the allocating oracle on top of it, under
//!   either [`LegCost`]. Production's [`crate::densest::densest`] must
//!   return the identical selection.
//! * [`chitchat_eager`] — Algorithm 1 as the paper states it: one exact
//!   oracle call per node up front, then after every selection a strict
//!   recomputation of every hub whose hub-graph lost an uncovered edge or
//!   had a leg paid. Production's lazy re-validation must land on the same
//!   greedy (up to float tie-breaking) with no more oracle calls.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use piggyback_graph::{CsrGraph, EdgeId, NodeId};
use piggyback_workload::Rates;

use crate::bitset::BitSet;
use crate::cost::LegCost;
use crate::densest::{HubSelection, OrdF64, PeelResult};
use crate::schedule::Schedule;

/// Peel priority `deg(u) / g(u)`; infinite for zero-weight ("already
/// paid") vertices so they are deleted last.
fn score(d: usize, w: f64) -> f64 {
    if w <= 0.0 {
        f64::INFINITY
    } else {
        d as f64 / w
    }
}

/// Density `|edges| / weight`, infinite when edges remain at zero weight.
fn density(e: usize, w: f64) -> f64 {
    if w > 0.0 {
        e as f64 / w
    } else if e > 0 {
        f64::INFINITY
    } else {
        0.0
    }
}

/// Greedy weighted peeling over one lazy min-heap: repeatedly delete the
/// unpinned vertex of least `(deg / g, vertex)` and keep the best snapshot
/// seen, the full graph included.
///
/// With `values` empty the best snapshot is the densest one and
/// [`PeelResult::density`] is its density. With one value per edge it is
/// the one of largest savings, `Σ value(alive edges) − Σ g(alive
/// vertices)` (the marginal oracle's objective), and `density` is not
/// meaningful.
pub(crate) fn peel_heap(
    n: usize,
    edges: &[(u32, u32)],
    weights: &[f64],
    pinned: &[bool],
    values: &[f64],
) -> PeelResult {
    assert_eq!(weights.len(), n);
    assert_eq!(pinned.len(), n);
    assert!(values.is_empty() || values.len() == edges.len());
    let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    for (idx, &(a, b)) in edges.iter().enumerate() {
        adj[a as usize].push((b as usize, idx));
        adj[b as usize].push((a as usize, idx));
    }
    let mut deg: Vec<usize> = adj.iter().map(Vec::len).collect();
    let mut alive = vec![true; n];
    let mut edge_alive = vec![true; edges.len()];
    let mut alive_edges = edges.len();
    let mut alive_weight: f64 = weights.iter().sum();
    let mut alive_value: f64 = values.iter().sum();

    // Stale entries are skipped by stamp.
    let mut stamp = vec![0u32; n];
    let mut heap = BinaryHeap::new();
    for v in (0..n).filter(|&v| !pinned[v]) {
        heap.push(Reverse((OrdF64(score(deg[v], weights[v])), v, 0u32)));
    }

    let mut best_density = density(alive_edges, alive_weight);
    let mut best_savings = alive_value - alive_weight;
    let mut order: Vec<usize> = Vec::new();
    let mut best_prefix = 0;
    while let Some(Reverse((_, v, st))) = heap.pop() {
        if !alive[v] || st != stamp[v] {
            continue;
        }
        alive[v] = false;
        alive_weight -= weights[v];
        for &(o, ei) in &adj[v] {
            if !edge_alive[ei] {
                continue;
            }
            edge_alive[ei] = false;
            alive_edges -= 1;
            if !values.is_empty() {
                alive_value -= values[ei];
            }
            deg[o] -= 1;
            if !pinned[o] {
                stamp[o] += 1;
                heap.push(Reverse((OrdF64(score(deg[o], weights[o])), o, stamp[o])));
            }
        }
        order.push(v);
        if values.is_empty() {
            let d = density(alive_edges, alive_weight);
            if d > best_density {
                best_density = d;
                best_prefix = order.len();
            }
        } else if alive_value - alive_weight > best_savings {
            best_savings = alive_value - alive_weight;
            best_prefix = order.len();
        }
    }

    let mut alive = vec![true; n];
    for &v in &order[..best_prefix] {
        alive[v] = false;
    }
    PeelResult {
        alive,
        density: best_density,
    }
}

/// The densest hub-graph centered on `w`, built from scratch on every
/// call: producers `X` and consumers `Y` are the neighbors of `w` whose
/// leg is not covered through a hub and that still have an uncovered edge
/// on their side, priced by `leg_cost`; the countable edges are the legs
/// in `Z` (absolute pricing only) and up to `cross_cap` cross edges
/// `x → y` in `Z`, each worth its hybrid cost under marginal pricing.
pub(crate) fn densest_hub_graph(
    g: &CsrGraph,
    rates: &Rates,
    w: NodeId,
    sched: &Schedule,
    z: &BitSet,
    cross_cap: usize,
    leg_cost: LegCost,
) -> Option<HubSelection> {
    let xs: Vec<(NodeId, EdgeId)> = g
        .in_neighbors(w)
        .iter()
        .map(|&x| (x, g.edge_id(x, w)))
        .filter(|&(x, leg)| !sched.is_covered(leg) && g.out_edge_ids(x).any(|e| z.contains(e)))
        .collect();
    let ys: Vec<(NodeId, EdgeId)> = g
        .out_neighbors(w)
        .iter()
        .map(|&y| (y, g.edge_id(w, y)))
        .filter(|&(y, leg)| !sched.is_covered(leg) && g.in_edges(y).any(|(_, e)| z.contains(e)))
        .collect();
    if xs.is_empty() && ys.is_empty() {
        return None;
    }
    let (nx, ny) = (xs.len(), ys.len());
    let hub = (nx + ny) as u32;

    // An unpaid leg costs its full push (pull); marginal pricing nets out
    // the hybrid cost a leg still in `Z` would be served at anyway.
    let price = |paid: bool, full: f64, other: f64, leg: EdgeId| {
        if paid {
            0.0
        } else if leg_cost == LegCost::Marginal && z.contains(leg) {
            full - full.min(other)
        } else {
            full
        }
    };
    let mut weights: Vec<f64> = Vec::new();
    for &(x, leg) in &xs {
        weights.push(price(sched.is_push(leg), rates.rp(x), rates.rc(w), leg));
    }
    for &(y, leg) in &ys {
        weights.push(price(sched.is_pull(leg), rates.rc(y), rates.rp(w), leg));
    }
    weights.push(0.0);
    let mut pinned = vec![false; nx + ny + 1];
    pinned[hub as usize] = true;

    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut ids: Vec<EdgeId> = Vec::new();
    let mut values: Vec<f64> = Vec::new();
    if leg_cost == LegCost::Absolute {
        for (i, &(_, leg)) in xs.iter().chain(&ys).enumerate() {
            if z.contains(leg) {
                edges.push((i as u32, hub));
                ids.push(leg);
            }
        }
    }
    let mut budget = cross_cap;
    'producers: for (i, &(x, _)) in xs.iter().enumerate() {
        for (t, e) in g.out_edges(x) {
            let Ok(j) = ys.binary_search_by_key(&t, |&(y, _)| y) else {
                continue;
            };
            if !z.contains(e) {
                continue;
            }
            if budget == 0 {
                break 'producers;
            }
            budget -= 1;
            edges.push((i as u32, (nx + j) as u32));
            ids.push(e);
            if leg_cost == LegCost::Marginal {
                values.push(rates.rp(x).min(rates.rc(t)));
            }
        }
    }
    if edges.is_empty() {
        return None;
    }

    let alive = peel_heap(nx + ny + 1, &edges, &weights, &pinned, &values).alive;
    let live: Vec<usize> = (0..edges.len())
        .filter(|&k| alive[edges[k].0 as usize] && alive[edges[k].1 as usize])
        .collect();
    if live.is_empty() {
        return None;
    }
    let mut incident = vec![false; nx + ny + 1];
    for &k in &live {
        incident[edges[k].0 as usize] = true;
        incident[edges[k].1 as usize] = true;
    }
    let cross = live
        .iter()
        .filter(|&&k| edges[k].1 != hub)
        .map(|&k| {
            let (x, y) = g.edge_endpoints(ids[k]);
            (ids[k], x, y)
        })
        .collect();
    let kept = |i: usize| alive[i] && incident[i];
    let xs_out: Vec<_> = (0..nx).filter(|&i| kept(i)).map(|i| xs[i]).collect();
    let ys_out: Vec<_> = (0..ny).filter(|&j| kept(nx + j)).map(|j| ys[j]).collect();
    let weight = (0..nx + ny)
        .filter(|&i| kept(i))
        .fold(0.0f64, |acc, i| acc + weights[i]);
    Some(HubSelection {
        hub: w,
        xs: xs_out,
        ys: ys_out,
        cross,
        covered: live.len(),
        weight,
        density: if weight <= 0.0 {
            f64::INFINITY
        } else {
            live.len() as f64 / weight
        },
    })
}

/// Result of [`chitchat_eager`].
pub(crate) struct EagerRun {
    pub(crate) schedule: Schedule,
    pub(crate) oracle_calls: usize,
}

/// CHITCHAT (Algorithm 1) with eager recomputation, serial.
///
/// Every hub's best selection is kept exact at all times: seeded by one
/// oracle call per node, and after each selection recomputed for every hub
/// whose hub-graph lost an uncovered edge or had a leg paid. An edge
/// `u → v` belongs to the hub-graphs of `u` (as a pull leg), of `v` (as a
/// push leg) and of every common contact `w` with `u → w → v` (as a cross
/// edge). Each step takes the hub of least `(cost per element, node id)`
/// when it is strictly below the cheapest uncovered singleton, priced per
/// probe at the hybrid cost; otherwise it serves that singleton directly.
pub(crate) fn chitchat_eager(g: &CsrGraph, rates: &Rates, cross_cap: usize) -> EagerRun {
    let (n, m) = (g.node_count(), g.edge_count());
    let mut sched = Schedule::for_graph(g);
    let mut z = BitSet::new(m);
    for e in 0..m as EdgeId {
        z.insert(e);
    }
    let mut oracle_calls = 0;
    let mut oracle = |w: NodeId, sched: &Schedule, z: &BitSet| {
        oracle_calls += 1;
        densest_hub_graph(g, rates, w, sched, z, cross_cap, LegCost::Absolute)
    };
    let mut best: Vec<Option<HubSelection>> =
        (0..n as NodeId).map(|w| oracle(w, &sched, &z)).collect();

    let single_cost = |e: EdgeId| {
        let (u, v) = g.edge_endpoints(e);
        rates.rp(u).min(rates.rc(v))
    };
    let mut singles: Vec<EdgeId> = (0..m as EdgeId).collect();
    singles.sort_unstable_by_key(|&e| OrdF64(single_cost(e)));
    let mut next_single = 0;

    while !z.is_empty() {
        while !z.contains(singles[next_single]) {
            next_single += 1;
        }
        let single = singles[next_single];
        let hub = best
            .iter()
            .enumerate()
            .filter_map(|(w, s)| s.as_ref().map(|s| (OrdF64(s.cost_per_element()), w)))
            .min()
            .filter(|&(key, _)| key.0 < single_cost(single));

        let mut left_z: Vec<EdgeId> = Vec::new();
        let mut dirty: Vec<NodeId> = Vec::new();
        match hub {
            Some((_, w)) => {
                let sel = best[w].take().expect("the argmin hub has a selection");
                for &(_, e) in &sel.xs {
                    sched.set_push(e);
                    left_z.push(e);
                }
                for &(_, e) in &sel.ys {
                    sched.set_pull(e);
                    left_z.push(e);
                }
                for &(e, _, _) in &sel.cross {
                    sched.set_covered(e, sel.hub);
                    left_z.push(e);
                }
                // Its own legs were paid.
                dirty.push(sel.hub);
            }
            None => {
                let (u, v) = g.edge_endpoints(single);
                if rates.rp(u) <= rates.rc(v) {
                    sched.set_push(single);
                } else {
                    sched.set_pull(single);
                }
                left_z.push(single);
            }
        }
        for e in left_z {
            if !z.remove(e) {
                continue;
            }
            let (u, v) = g.edge_endpoints(e);
            dirty.extend([u, v]);
            dirty.extend(g.out_neighbors(u).iter().filter(|&&w| g.has_edge(w, v)));
        }
        dirty.sort_unstable();
        dirty.dedup();
        for w in dirty {
            best[w as usize] = oracle(w, &sched, &z);
        }
    }
    EagerRun {
        schedule: sched,
        oracle_calls,
    }
}
