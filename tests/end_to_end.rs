//! Cross-crate integration tests: graph → workload → scheduling → store,
//! exercising the public facade the way an application would.

use social_piggybacking::core::validate::coverage_report;
use social_piggybacking::prelude::*;

fn world(nodes: usize, seed: u64) -> (CsrGraph, Rates) {
    let g = gen::flickr_like(nodes, seed);
    let r = Rates::log_degree(&g, 5.0);
    (g, r)
}

/// The serving runtime for a static `schedule` on hash-placed shards
/// (placement seed 0 unless `config` says otherwise).
fn serve(g: &CsrGraph, r: &Rates, schedule: &Schedule, config: ServeConfig) -> ServeRuntime {
    ServeRuntime::start(
        g.clone(),
        r.clone(),
        schedule.clone(),
        Box::new(Hybrid),
        config,
    )
}

/// Store messages billed for the first `n` requests of the seed-17 trace
/// under `schedule` on `servers` servers.
fn replay(g: &CsrGraph, r: &Rates, schedule: &Schedule, servers: usize, n: usize) -> u64 {
    let rt = serve(
        g,
        r,
        schedule,
        ServeConfig {
            shards: servers,
            ..Default::default()
        },
    );
    let mut client = rt.client();
    let messages = OpTrace::new(r, 0.0, 17)
        .take(n)
        .map(|op| client.apply_op(op))
        .sum();
    drop(client);
    assert!(rt.shutdown().churn.zero_violations());
    messages
}

#[test]
fn full_pipeline_produces_feasible_improving_schedule() {
    let (g, r) = world(1500, 3);
    let ff = hybrid_schedule(&g, &r);
    let pn = ParallelNosy::default().run(&g, &r);
    validate_bounded_staleness(&g, &pn.schedule).unwrap();
    let imp = predicted_improvement(&g, &r, &pn.schedule, &ff);
    assert!(
        imp > 1.3,
        "piggybacking should clearly beat hybrid on a clustered graph: {imp}"
    );
    let report = coverage_report(&g, &pn.schedule);
    assert_eq!(report.unserved, 0);
    assert!(report.covered > 0, "no edges piggybacked");
}

#[test]
fn schedule_drives_store_and_events_flow() {
    let (g, r) = world(600, 9);
    for schedule in [
        hybrid_schedule(&g, &r),
        ParallelNosy::default().run(&g, &r).schedule,
    ] {
        // Delivery-semantics check: disable the top-k filter and view
        // trimming so no event can be legitimately aged out (hub views
        // aggregate many producers, so even a small-fan-in consumer's
        // events can fall outside a top-10 window).
        let rt = serve(
            &g,
            &r,
            &schedule,
            ServeConfig {
                shards: 16,
                top_k: usize::MAX,
                view_capacity: 0,
                ..Default::default()
            },
        );
        let mut client = rt.client();
        // Every user shares once, then every consumer must see its own
        // event and all its producers'.
        for u in g.nodes() {
            client.share(u);
        }
        for v in g.nodes() {
            let (events, _) = client.query(v);
            for &p in std::iter::once(&v).chain(g.in_neighbors(v)) {
                assert!(
                    events.iter().any(|e| e.user == p),
                    "user {v} missing event from {p}"
                );
            }
        }
        drop(client);
        assert!(rt.shutdown().churn.zero_violations());
    }
}

#[test]
fn batching_bills_one_message_per_touched_server() {
    let (g, r) = world(400, 4);
    let ff = hybrid_schedule(&g, &r);
    let pn = ParallelNosy::default().run(&g, &r).schedule;
    // One server: every request is exactly one message whatever the
    // schedule — piggybacking cannot help (left edge of Figure 6).
    assert_eq!(replay(&g, &r, &ff, 1, 2_000), 2_000);
    assert_eq!(replay(&g, &r, &pn, 1, 2_000), 2_000);
    // Many servers: co-location vanishes and piggybacking sends fewer.
    let (pn_msgs, ff_msgs) = (
        replay(&g, &r, &pn, 200, 20_000),
        replay(&g, &r, &ff, 200, 20_000),
    );
    assert!(pn_msgs < ff_msgs, "PN {pn_msgs} vs FF {ff_msgs} messages");
    // A replay is a function of the trace seed.
    assert_eq!(replay(&g, &r, &pn, 200, 20_000), pn_msgs);
}

#[test]
fn chitchat_and_parallelnosy_both_beat_hybrid_on_samples() {
    let (g, _r) = world(1200, 5);
    let sampled = sample::bfs_sample(&g, g.edge_count() / 4, 2);
    let sr = Rates::log_degree(&sampled.graph, 5.0);
    let ff = hybrid_schedule(&sampled.graph, &sr);
    let cc = ChitChat::default().run(&sampled.graph, &sr);
    let pn = ParallelNosy::default().run(&sampled.graph, &sr);
    validate_bounded_staleness(&sampled.graph, &cc.schedule).unwrap();
    validate_bounded_staleness(&sampled.graph, &pn.schedule).unwrap();
    let imp_cc = predicted_improvement(&sampled.graph, &sr, &cc.schedule, &ff);
    let imp_pn = predicted_improvement(&sampled.graph, &sr, &pn.schedule, &ff);
    assert!(imp_cc >= 1.0 && imp_pn >= 1.0);
    assert!(imp_cc > 1.2, "chitchat gain too small: {imp_cc}");
}

#[test]
fn incremental_updates_preserve_feasibility_and_bound() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let (g, r) = world(800, 7);
    let pn = ParallelNosy::default().run(&g, &r).schedule;
    let n = g.node_count();
    let mut inc = IncrementalScheduler::new(g, r.clone(), pn);
    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..2000 {
        let u = rng.random_range(0..n) as u32;
        let v = rng.random_range(0..n) as u32;
        if u == v {
            continue;
        }
        if rng.random_bool(0.65) {
            inc.add_edge_detailed(u, v);
        } else {
            inc.remove_edge_detailed(u, v);
        }
    }
    inc.validate().unwrap();
    // Incremental schedule never exceeds all-hybrid on the current graph.
    let frozen = inc.freeze_graph();
    let ff = hybrid_schedule(&frozen, &r);
    assert!(inc.cost() <= schedule_cost(&frozen, &r, &ff) + 1e-6);
}

#[test]
fn timed_trace_respects_bounded_staleness_semantically() {
    use social_piggybacking::core::staleness::{check_semantic_staleness, Action};
    let (g, r) = world(400, 31);
    let sched = ParallelNosy::default().run(&g, &r).schedule;
    // Build a timed workload and feed it to the delivery simulator.
    let mut trace = RequestTrace::new(&r, 8);
    let actions: Vec<Action> = trace
        .timed(3_000, 7)
        .into_iter()
        .map(|tr| match tr.request {
            RequestKind::Share(u) => Action::Post {
                user: u,
                time: tr.time,
            },
            RequestKind::Query(u) => Action::Query {
                user: u,
                time: tr.time,
            },
        })
        .collect();
    check_semantic_staleness(&g, &sched, &actions, 3)
        .expect("schedule must satisfy bounded staleness on a realistic trace");
}

#[test]
fn placement_model_matches_simulated_messages() {
    // The analytic batched cost must agree with the message counts the
    // store bills (law of large numbers over a long trace).
    let (g, r) = world(400, 21);
    let pn = ParallelNosy::default().run(&g, &r).schedule;
    let servers = 32;
    let placement = Topology::hash(g.node_count(), servers, 0);
    let analytic = CostModel::with_topology(placement.assignment(), servers)
        .batched(&g, &r, &pn)
        .msgs_per_request();
    let served = replay(&g, &r, &pn, servers, 60_000) as f64 / 60_000.0;
    let rel_err = (served - analytic).abs() / analytic;
    assert!(
        rel_err < 0.03,
        "analytic {analytic:.3} vs served {served:.3}"
    );
}
