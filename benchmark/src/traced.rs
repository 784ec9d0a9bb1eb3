//! One traced run of one workload: the per-layer metrics.
//!
//! End-to-end numbers come from the untraced run. This run goes through
//! the same pipeline once, with a span around each of the benchmark's
//! calls into a layer, then replays one client's stream through the real
//! client and through the [`Replica`](crate::trace::Replica) to split a
//! request's time among the layers under it.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crossbeam::channel::bounded;
use piggyback_core::bitset::BitSet;
use piggyback_core::densest::{densest_hub_graph_scratch, PeelScratch, UncoveredDegrees};
use piggyback_core::incremental::IncrementalScheduler;
use piggyback_core::schedule::Schedule;
use piggyback_core::scheduler::ScheduleStats;
use piggyback_core::validate::validate_bounded_staleness;
use piggyback_graph::NodeId;
use piggyback_serve::ServingSchedule;
use piggyback_store::server::StoreServer;
use piggyback_store::topology::{PartitionRequest, PartitionStrategy};
use piggyback_store::worker::{worker_loop, ShardRequest, Transport};
use piggyback_store::{BufferPool, EventTuple, ShardClient};
use piggyback_workload::{Op, OpTrace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::checks::{check_schedule, predicted_msgs_per_op, probe_delivery, probe_users};
use crate::json::Json;
use crate::load::{run_load, EdgeModel, LoadPlan};
use crate::report::{Metrics, RunOutput, OUT_DIR};
use crate::spec::{Spec, TRACE_CHURN};
use crate::stats::percentile;
use crate::trace::{replay_real, Layer, Recorder, Replica, NO_OP};
use crate::world::{boot, serve_config, timed_schedule, World, GRAPH_SEED, SHARDS, TOP_K};

/// Operations replayed before the traced ones, so views and buffers are
/// in use when spans start.
pub const TRACE_WARMUP_OPS: usize = 50_000;
/// Operations replayed with spans; as many again, in alternating chunks,
/// go without, to price the spans themselves.
pub const TRACE_OPS: usize = 50_000;
/// Spans of this many leading operations go to the `.trace.jsonl` file
/// (every span counts toward the metrics).
pub const TRACE_DUMP_OPS: u32 = 5_000;
/// Requests timed over each transport for `store.worker.hop_p50_us`.
pub const HOP_REQUESTS: usize = 10_000;
/// Hubs peeled for `core.densest.peel_us`.
pub const PEEL_HUBS: usize = 1_000;
/// Size of the instance all three optimizers run on for their own
/// counters, whatever optimizer the workload itself is scheduled by.
pub const PROBE_NODES: usize = 4_000;
/// Users probed for delivery; fewer than in the untraced run, which is
/// the run that vouches for correctness.
const TRACE_PROBE_USERS: usize = 100;

fn busy_frac(stats: &ScheduleStats) -> f64 {
    if stats.fanout_capacity_ms > 0.0 {
        stats.fanout_busy_ms / stats.fanout_capacity_ms
    } else {
        0.0
    }
}

/// Median latency of the first `HOP_REQUESTS` shares and queries of `ops`
/// over the worker pool (one worker thread) minus the same over
/// `Transport::Direct`, each on its own fresh shard array: what the thread
/// hop costs. End-to-end metrics run `Direct`, so nothing there moves with
/// this; it is the baseline for a later change to the worker plane.
fn hop_p50_us(snapshot: &ServingSchedule, ops: &[Op], view_capacity: usize) -> f64 {
    let array = || {
        Arc::new(
            (0..SHARDS)
                .map(|_| parking_lot::Mutex::new(StoreServer::new(view_capacity)))
                .collect::<Vec<_>>(),
        )
    };
    let pool = Arc::new(BufferPool::new());
    let pooled_shards = array();
    let (tx, rx) = bounded::<ShardRequest>(1024);
    let senders = Arc::new(vec![tx]);
    let requests = || {
        ops.iter()
            .filter(|op| !op.is_churn())
            .take(HOP_REQUESTS)
            .copied()
    };
    let drive = |client: &mut ShardClient| -> f64 {
        let (mut targets, mut merged, mut clock) = (Vec::new(), Vec::new(), 1);
        let mut samples: Vec<u32> = requests()
            .map(|op| {
                let t = Instant::now();
                match op {
                    Op::Share(u) => {
                        snapshot.collect_push_targets(u, &mut targets);
                        let event = EventTuple::new(u, clock, clock);
                        clock += 1;
                        client.update(snapshot.topology(), &targets, event.to_wire());
                    }
                    Op::Query(u) => {
                        snapshot.collect_pull_sources(u, &mut targets);
                        client.query(snapshot.topology(), &targets, TOP_K, &mut merged);
                    }
                    Op::Follow(..) | Op::Unfollow(..) => unreachable!("churn is filtered out"),
                }
                u32::try_from(t.elapsed().as_nanos()).unwrap_or(u32::MAX)
            })
            .collect();
        samples.sort_unstable();
        f64::from(percentile(&samples, 0.5).unwrap_or(0)) / 1e3
    };
    let direct = drive(&mut ShardClient::new(
        Transport::Direct(array()),
        Arc::clone(&pool),
    ));
    let pooled = std::thread::scope(|scope| {
        scope.spawn(|| worker_loop(&pooled_shards, &pool, &rx));
        let mut client = ShardClient::new(Transport::Workers(senders), Arc::clone(&pool));
        // The worker leaves its loop when the last sender is gone, which
        // is when this client, the only holder, is dropped.
        drive(&mut client)
    });
    pooled - direct
}

/// Mean wall of the densest-subgraph oracle on `PEEL_HUBS` seeded hubs of
/// the workload's graph with nothing covered yet: the peel at its largest.
fn peel_hubs(world: &World, seed: u64, rec: &mut Recorder) {
    let g = &world.graph;
    let mut z = BitSet::new(g.edge_count());
    for e in 0..g.edge_count() as u32 {
        z.insert(e);
    }
    let zdeg = UncoveredDegrees::full(g);
    let empty = Schedule::for_graph(g);
    let mut scratch = PeelScratch::new();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x70_65_65_6c);
    for _ in 0..PEEL_HUBS {
        let w = rng.random_range(0..g.node_count()) as NodeId;
        // CHITCHAT's default bound on materialized cross edges.
        let cross_cap = 100_000;
        rec.time(Layer::DensestPeel, || {
            std::hint::black_box(densest_hub_graph_scratch(
                g,
                &world.rates,
                w,
                &empty,
                &z,
                &zdeg,
                cross_cap,
                &mut scratch,
            ))
        });
    }
}

/// Runs `spec` once with spans. `seconds` sets the two load phases (one
/// client, then two) at an eighth each; the replays are fixed work.
pub fn run_traced(spec: &Spec, seed: u64, seconds: u64) -> RunOutput {
    let mut rec = Recorder::default();
    let mut m = Metrics::default();

    // The pipeline, one span per step.
    let build_start = Instant::now();
    let world = World::build(spec);
    rec.span(
        NO_OP,
        Layer::GraphGen,
        build_start,
        build_start + world.gen_wall,
    );
    let (outcome, schedule_wall) = rec.time(Layer::BootSchedule, || {
        timed_schedule(&world, spec.scheduler)
    });
    let mut tally = check_schedule(&world, &outcome);
    let schedule = &outcome.schedule;
    let validated = rec.time(Layer::Validate, || {
        validate_bounded_staleness(&world.graph, schedule)
    });
    assert!(validated.is_ok() || tally.failed > 0);

    let config = serve_config(spec.reopt, seed);
    let topology = rec.time(Layer::Partition, || {
        PartitionStrategy::Hash
            .partitioner()
            .partition(&PartitionRequest {
                graph: &world.graph,
                rates: &world.rates,
                schedule: Some(schedule),
                servers: SHARDS,
                seed: config.placement_seed,
                domains: None,
            })
    });
    let compiled = rec.time(Layer::EpochCompile, || {
        ServingSchedule::compile(&world.graph, schedule, Arc::new(topology), 0)
    });

    // The workload's own server: load with one client, then with two.
    let boot_start = Instant::now();
    let (runtime, start_wall) = boot(&world, schedule, spec.reopt, seed);
    rec.span(
        NO_OP,
        Layer::RuntimeStart,
        boot_start,
        boot_start + start_wall,
    );
    let model = Mutex::new(EdgeModel::new(&world.graph));
    let epoch_before = runtime.epoch();
    // A load phase lasting `seconds / share` per client.
    let phase = |clients: usize, churn_ratio: f64, warmup_ops: usize, share: u32, seed: u64| {
        let plan = LoadPlan {
            clients,
            churn_ratio,
            warmup_ops,
            window: Duration::from_secs(seconds) / share,
            seed,
        };
        run_load(&runtime, &world.rates, &model, &plan)
    };
    let one = phase(1, spec.churn_ratio, TRACE_WARMUP_OPS, 8, seed);
    let two = phase(2, spec.churn_ratio, TRACE_WARMUP_OPS, 8, seed ^ 0x32_63);
    let predicted = predicted_msgs_per_op(&runtime.snapshot(), &world.rates);
    // Acknowledgement latencies: from the load phases where those have
    // churn, otherwise from a one-client phase of their own.
    let follow_load =
        (spec.churn_ratio == 0.0).then(|| phase(1, TRACE_CHURN, 0, 10, seed ^ 0x66_6f_6c_6c_6f_77));
    let epochs = runtime.epoch() - epoch_before;
    let measured = (one.messages + two.messages) as f64 / (one.requests + two.requests) as f64;
    let model = model.into_inner().expect("model lock");
    let users = probe_users(world.graph.node_count(), seed, TRACE_PROBE_USERS);
    tally.absorb(probe_delivery(&runtime, &model, &users));
    let report = rec.time(Layer::RuntimeShutdown, || runtime.shutdown());
    tally.absorb(one.tally.clone());
    tally.absorb(two.tally.clone());
    if let Some(f) = &follow_load {
        tally.absorb(f.tally.clone());
    }
    tally.attempted += 1;
    if let Some(v) = &report.churn.staleness_violation {
        tally.fail(format!("server reports a staleness violation: {v}"));
    }

    // The replay: a fresh server with re-optimization off, so the replica
    // (which has no optimizer) sees the serving sets the server sees.
    // Churn in the replay is the follow phase's on every workload, so the
    // control-plane spans exist, and mean the same, everywhere.
    let mut stream = OpTrace::new(&world.rates, TRACE_CHURN, seed ^ 0x74_72_61_63_65);
    let ops = stream.sample(TRACE_WARMUP_OPS + 2 * TRACE_OPS);
    let body = &ops[TRACE_WARMUP_OPS..];
    let (replay_runtime, _) = boot(&world, schedule, None, seed);
    let mut client = replay_runtime.client();
    let (mut echoes, _) = replay_real(&mut client, &ops[..TRACE_WARMUP_OPS], None);
    let (body_echoes, walls) = replay_real(&mut client, body, Some(&mut rec));
    echoes.extend(body_echoes);
    drop(client);
    tally.attempted += 1;
    if let Some(v) = replay_runtime.shutdown().churn.staleness_violation {
        tally.fail(format!("replay server reports a staleness violation: {v}"));
    }

    let inc = IncrementalScheduler::new(world.graph.clone(), world.rates.clone(), schedule.clone());
    let mut replica = Replica::new(compiled, inc, config.view_capacity);
    replica.replay_client(&ops, &echoes, TRACE_WARMUP_OPS, &mut rec);
    let query_batch_views = replica.replay_pieces(&ops, &echoes, TRACE_WARMUP_OPS, &mut rec);
    replica.replay_views(&ops, TRACE_WARMUP_OPS, &mut rec);
    let hop = hop_p50_us(&replica.snapshot(), body, config.view_capacity);
    tally.absorb(std::mem::take(&mut replica.tally));
    let counts = replica.counts;
    drop(replica);

    // Optimizer internals on their own.
    peel_hubs(&world, seed, &mut rec);
    let probe_world = World::build(&Spec {
        nodes: PROBE_NODES,
        ..*spec
    });
    let mut probe = |name| {
        rec.time(Layer::ProbeSchedule, || {
            timed_schedule(&probe_world, name).0
        })
    };
    let chitchat = probe("chitchat").stats;
    let stream_stats = probe("chitchat-stream").stats;
    let nosy = probe("parallelnosy").stats;

    let totals = rec.totals();
    let total = |l: Layer| totals[l as usize];
    let ns = |l: Layer| total(l).ns as f64;
    let requests = (counts.shares + counts.queries) as f64;
    let (shares, queries) = (counts.shares as f64, counts.queries as f64);
    let worker_ns = ns(Layer::WorkerUpdate) + ns(Layer::WorkerQuery);
    let pieces_ns = ns(Layer::TopologyGroup)
        + ns(Layer::ServerUpdate)
        + ns(Layer::ServerQuery)
        + ns(Layer::ReplyMerge);
    let runtime_ns = ns(Layer::RuntimeShare) + ns(Layer::RuntimeQuery);
    let worker_self = (worker_ns - pieces_ns) / requests;
    let runtime_self = (runtime_ns - ns(Layer::EpochLookup) - worker_ns) / requests;
    // A negative self time means the replica did more work than the path it
    // mirrors, or that the host slowed between the passes. It is reported,
    // not counted as a failed operation: a timing must not decide `correct`.
    if worker_self < 0.0 || runtime_self < 0.0 {
        eprintln!(
            "pigbench: {}: negative self time (worker {worker_self} ns, runtime {runtime_self} ns)",
            spec.name
        );
    }
    let (pushes, pulls, covered) = schedule.set_sizes();
    // Tail latencies under the workload's own client count.
    let loaded = if spec.clients == 1 { &one } else { &two };
    let acks = follow_load.as_ref().unwrap_or(loaded);

    m.set("graph.gen_s", world.gen_wall.as_secs_f64());
    m.set(
        "workload.trace_ns_per_op",
        (one.trace_ns_per_op + two.trace_ns_per_op) / 2.0,
    );
    m.set("core.boot_schedule_s", schedule_wall.as_secs_f64());
    m.set("core.cost.predicted_msgs_per_op", predicted);
    m.set("core.cost.msgs_residual", measured - predicted);
    m.set(
        "core.incremental.add_edge_us",
        total(Layer::IncrementalAdd).mean_ns() / 1e3,
    );
    m.set(
        "core.incremental.remove_edge_us",
        total(Layer::IncrementalRemove).mean_ns() / 1e3,
    );
    m.set("store.topology.partition_s", ns(Layer::Partition) / 1e9);
    m.set(
        "store.topology.group_ns",
        ns(Layer::TopologyGroup) / requests,
    );
    m.set(
        "store.topology.servers_per_share",
        counts.share_messages as f64 / shares,
    );
    m.set(
        "store.topology.servers_per_query",
        counts.query_messages as f64 / queries,
    );
    m.set("serve.epoch.compile_s", ns(Layer::EpochCompile) / 1e9);
    m.set("serve.epoch.lookup_ns", ns(Layer::EpochLookup) / requests);
    m.set("serve.epoch.push_fanout", counts.push_views as f64 / shares);
    m.set(
        "serve.epoch.pull_fanout",
        counts.pull_views as f64 / queries,
    );
    m.set(
        "serve.epoch.publish_us",
        total(Layer::EpochPublish).mean_ns() / 1e3,
    );
    m.set("serve.epoch.epochs", epochs as f64);
    m.set(
        "store.view.insert_ns",
        ns(Layer::ViewInsert) / counts.inserts as f64,
    );
    m.set(
        "store.server.update_ns",
        total(Layer::ServerUpdate).mean_ns(),
    );
    m.set("store.server.query_ns", total(Layer::ServerQuery).mean_ns());
    m.set(
        "store.server.views_per_query_batch",
        query_batch_views as f64 / total(Layer::ServerQuery).spans as f64,
    );
    m.set(
        "store.merge.reply_merge_ns",
        ns(Layer::ReplyMerge) / queries,
    );
    m.set(
        "store.merge.replies_per_query",
        counts.query_messages as f64 / queries,
    );
    m.set("store.worker.update_ns", ns(Layer::WorkerUpdate) / shares);
    m.set("store.worker.query_ns", ns(Layer::WorkerQuery) / queries);
    m.set("store.worker.self_ns", worker_self);
    m.set("store.worker.hop_p50_us", hop);
    m.set("serve.runtime.start_s", start_wall.as_secs_f64());
    m.set("serve.runtime.shutdown_s", ns(Layer::RuntimeShutdown) / 1e9);
    m.set(
        "serve.runtime.share_ns",
        total(Layer::RuntimeShare).mean_ns(),
    );
    m.set(
        "serve.runtime.query_ns",
        total(Layer::RuntimeQuery).mean_ns(),
    );
    m.set("serve.runtime.self_ns", runtime_self);
    m.set("serve.runtime.scale_2c", two.ops_per_s / one.ops_per_s);
    m.set(
        "serve.runtime.share_p99_us",
        loaded.share_p99_ns.value / 1e3,
    );
    m.set(
        "serve.runtime.query_p99_us",
        loaded.query_p99_ns.value / 1e3,
    );
    m.set("serve.churn.ack_p50_us", acks.follow_p50_ns.value / 1e3);
    m.set("serve.churn.ack_p99_us", acks.follow_p99_ns.value / 1e3);
    m.set("serve.churn.ack_p999_us", acks.follow_p999_ns / 1e3);
    m.set("serve.churn.ack_max_ms", acks.follow_max_ns / 1e6);
    m.set(
        "serve.churn.applied",
        (report.churn.follows_applied + report.churn.unfollows_applied) as f64,
    );
    m.set("serve.churn.reopts", report.churn.reopts as f64);
    m.set(
        "serve.churn.cost_drift",
        report.churn.final_cost / report.churn.base_cost - 1.0,
    );
    m.set("core.chitchat.oracle_calls", chitchat.oracle_calls as f64);
    m.set("core.chitchat.hubs_applied", chitchat.hubs_applied as f64);
    m.set("core.chitchat.fanout_busy_frac", busy_frac(&chitchat));
    m.set(
        "core.chitchat_stream.oracle_calls",
        stream_stats.oracle_calls as f64,
    );
    m.set(
        "core.chitchat_stream.hubs_evicted",
        stream_stats.hubs_evicted as f64,
    );
    m.set(
        "core.chitchat_stream.cost_vs_chitchat",
        stream_stats.cost / chitchat.cost,
    );
    m.set(
        "core.densest.peel_us",
        total(Layer::DensestPeel).mean_ns() / 1e3,
    );
    m.set("core.parallelnosy.iterations", nosy.iterations as f64);
    m.set("core.parallelnosy.fanout_busy_frac", busy_frac(&nosy));
    m.set("core.validate.wall_ms", ns(Layer::Validate) / 1e6);
    m.set("core.schedule.push_edges", pushes as f64);
    m.set("core.schedule.pull_edges", pulls as f64);
    m.set("core.schedule.covered_edges", covered as f64);
    m.set(
        "trace.overhead_frac",
        1.0 - walls.untraced.as_secs_f64() / walls.traced.as_secs_f64(),
    );

    let trace_file = Path::new(OUT_DIR).join(format!("{}.trace.jsonl", spec.name));
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|_| rec.write_jsonl(&trace_file, body, TRACE_DUMP_OPS))
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", trace_file.display()));

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
        ("trace_warmup_ops", Json::from(TRACE_WARMUP_OPS)),
        ("trace_ops", Json::from(TRACE_OPS)),
        ("traced_shares", Json::from(counts.shares)),
        ("traced_queries", Json::from(counts.queries)),
        (
            "traced_follows",
            Json::from(total(Layer::IncrementalAdd).spans),
        ),
        (
            "traced_unfollows",
            Json::from(total(Layer::IncrementalRemove).spans),
        ),
        ("spans", Json::from(rec.len())),
        ("spans_file", Json::str(trace_file.display().to_string())),
        ("spans_file_ops", Json::from(u64::from(TRACE_DUMP_OPS))),
        ("measured_msgs_per_op", Json::from(measured)),
        ("ops_per_s_1_client", Json::from(one.ops_per_s)),
        ("ops_per_s_2_clients", Json::from(two.ops_per_s)),
        ("ack_samples", Json::from(acks.follow_samples)),
        (
            "traced_ops_per_s",
            Json::from(TRACE_OPS as f64 / walls.traced.as_secs_f64()),
        ),
        (
            "untraced_ops_per_s",
            Json::from(TRACE_OPS as f64 / walls.untraced.as_secs_f64()),
        ),
        ("probe_nodes", Json::from(PROBE_NODES)),
    ]);
    RunOutput {
        metrics: m,
        tally,
        detail,
    }
}
