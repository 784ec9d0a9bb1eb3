//! One untraced run of one workload: the end-to-end metrics.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::checks::{
    check_schedule, predicted_msgs_per_op, probe_delivery, probe_users, PROBE_USERS,
};
use crate::json::Json;
use crate::load::{run_load, EdgeModel, LoadPlan, WARMUP_OPS};
use crate::report::{peak_rss_mb, Metrics, RunOutput};
use crate::spec::Spec;
use crate::stats::median;
use crate::world::{boot, nproc, timed_schedule, World, GRAPH_SEED};

/// Complete set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// The measured and the predicted messages per request must agree within
/// this share where the load has no churn. (Churn moves the serving sets
/// during the run, so the final snapshot no longer predicts all of it.)
pub const RESIDUAL_LIMIT: f64 = 0.02;

fn rounded(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v.round())).collect())
}

/// Runs `spec` once. `seconds` is the load window of each client.
pub fn run_untraced(spec: &Spec, seed: u64, seconds: u64) -> RunOutput {
    // Set-up, several times over, in two halves because the server needs
    // the schedule: the world (the builds are identical; the last is kept),
    // then, once scheduled, the server.
    let mut world_walls = Vec::with_capacity(SETUP_REPS);
    let mut world = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        world = Some(World::build(spec));
        world_walls.push(t.elapsed());
    }
    let world = world.expect("SETUP_REPS >= 1");
    let (outcome, schedule_wall) = timed_schedule(&world, spec.scheduler);
    let mut tally = check_schedule(&world, &outcome);

    let mut setup_walls = Vec::with_capacity(SETUP_REPS);
    let mut runtime = None;
    for world_wall in world_walls {
        let (rt, boot_wall) = boot(&world, &outcome.schedule, spec.reopt, seed);
        setup_walls.push((world_wall + boot_wall).as_secs_f64());
        if let Some(previous) = runtime.replace(rt) {
            previous.shutdown();
        }
    }
    let runtime = runtime.expect("SETUP_REPS >= 1");

    let window = Duration::from_secs(seconds);
    let model = Mutex::new(EdgeModel::new(&world.graph));
    let plan = LoadPlan {
        clients: spec.clients.min(nproc()),
        churn_ratio: spec.churn_ratio,
        warmup_ops: WARMUP_OPS,
        window,
        seed,
    };
    let epoch_before = runtime.epoch();
    let load = run_load(&runtime, &world.rates, &model, &plan);
    let predicted = predicted_msgs_per_op(&runtime.snapshot(), &world.rates);
    let epochs = runtime.epoch() - epoch_before;

    // Quiesced: the clients are gone, nothing is in flight.
    let model = model.into_inner().expect("model lock");
    let probes = probe_delivery(
        &runtime,
        &model,
        &probe_users(world.graph.node_count(), seed, PROBE_USERS),
    );
    let report = runtime.shutdown();

    let residual = load.msgs_per_op - predicted;
    tally.absorb(load.tally.clone());
    tally.absorb(probes.clone());
    tally.attempted += 2;
    if let Some(v) = &report.churn.staleness_violation {
        tally.fail(format!("server reports a staleness violation: {v}"));
    }
    if spec.churn_ratio == 0.0 && (residual / predicted).abs() > RESIDUAL_LIMIT {
        tally.fail(format!(
            "measured {} msgs/op but the cost model predicts {predicted}",
            load.msgs_per_op
        ));
    }

    let mut metrics = Metrics::default();
    metrics.set("setup_s", median(&setup_walls).expect("reps"));
    metrics.set("ops_per_s", load.ops_per_s);
    metrics.set("msgs_per_op", load.msgs_per_op);
    metrics.set("share_p50_us", load.share_p50_ns.value / 1e3);
    metrics.set("query_p50_us", load.query_p50_ns.value / 1e3);
    metrics.set("peak_rss_mb", peak_rss_mb());
    metrics.set("cost_ratio", outcome.stats.cost / world.hybrid_cost);

    let detail = Json::obj([
        (
            "graph",
            Json::str(format!(
                "{}({}, {GRAPH_SEED})",
                spec.family.name(),
                spec.nodes
            )),
        ),
        ("nodes", Json::from(world.graph.node_count())),
        ("edges", Json::from(world.graph.edge_count())),
        ("clients", Json::from(plan.clients)),
        ("setup_reps", Json::from(SETUP_REPS)),
        (
            "setup_walls_s",
            Json::Arr(setup_walls.iter().map(|&w| Json::Num(w)).collect()),
        ),
        ("schedule_s", Json::from(schedule_wall.as_secs_f64())),
        ("warmup_ops_per_client", Json::from(WARMUP_OPS)),
        ("window_s", Json::from(window.as_secs_f64())),
        ("slices", Json::from(load.slices)),
        ("timed_ops", Json::from(load.tally.attempted)),
        ("requests", Json::from(load.requests)),
        ("messages", Json::from(load.messages)),
        ("share_samples", Json::from(load.share_samples)),
        ("query_samples", Json::from(load.query_samples)),
        ("follow_samples", Json::from(load.follow_samples)),
        (
            "feeds_checked",
            Json::from(load.requests / crate::load::CHECK_EVERY),
        ),
        ("delivery_probes", Json::from(probes.attempted)),
        ("predicted_msgs_per_op", Json::from(predicted)),
        ("msgs_residual", Json::from(residual)),
        ("epochs_published", Json::from(epochs)),
        ("follows_applied", Json::from(report.churn.follows_applied)),
        (
            "unfollows_applied",
            Json::from(report.churn.unfollows_applied),
        ),
        ("reopts", Json::from(report.churn.reopts)),
        ("schedule_cost", Json::from(outcome.stats.cost)),
        ("hybrid_cost", Json::from(world.hybrid_cost)),
        ("share_p99_us", Json::from(load.share_p99_ns.value / 1e3)),
        ("query_p99_us", Json::from(load.query_p99_ns.value / 1e3)),
        ("slice_ops_per_s", rounded(&load.slice_rates)),
        ("slice_share_p50_ns", rounded(&load.share_p50_ns.per_slice)),
        ("slice_share_p99_ns", rounded(&load.share_p99_ns.per_slice)),
        ("slice_query_p50_ns", rounded(&load.query_p50_ns.per_slice)),
        ("slice_query_p99_ns", rounded(&load.query_p99_ns.per_slice)),
    ]);
    RunOutput {
        metrics,
        tally,
        detail,
    }
}
