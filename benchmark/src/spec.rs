//! The benchmark's fixed tables: workloads and metric names.
//!
//! `BENCHMARK.json` at the repository root repeats the names, units and
//! directions listed here (a unit test compares the two), so a result
//! line, the manifest and the README can never drift apart.

use piggyback_serve::ReoptMode;

/// Which synthetic graph family a workload runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// `gen::flickr_like`: sparser, ~70% reciprocity.
    Flickr,
    /// `gen::twitter_like`: denser, heavy hubs, ~20% reciprocity.
    Twitter,
}

impl Family {
    pub fn name(self) -> &'static str {
        match self {
            Family::Flickr => "flickr_like",
            Family::Twitter => "twitter_like",
        }
    }
}

/// One workload: a world (graph family, size, read/write mix), the
/// optimizer that schedules it, and the load the feed server then takes.
///
/// Every workload runs the same pipeline — build the world, schedule it,
/// boot the server on that schedule, drive a closed-loop share/query/follow
/// mix — so every workload reports every metric. The workloads differ in
/// the graph, the mix and the optimizer whose schedule is served.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub family: Family,
    pub nodes: usize,
    /// Mean consumption rate over mean production rate
    /// (`Rates::log_degree`'s read/write ratio; the paper's §4.1 uses 5).
    pub read_write: f64,
    /// Registry name of the optimizer; its output (`cost_ratio`) is the
    /// server's boot schedule.
    pub scheduler: &'static str,
    /// Closed-loop client threads (capped at the machine's cores).
    pub clients: usize,
    /// Share of client 0's operations that are follows/unfollows during
    /// the load window. Only client 0 issues churn, so the benchmark's edge
    /// model has one writer.
    pub churn_ratio: f64,
    /// `None` = background re-optimization off; `Some(mode)` runs
    /// `chitchat-stream` (1 thread) in the background under that mode.
    pub reopt: Option<ReoptMode>,
}

/// Churn share of the traced run's control-plane measurements — the replay
/// and, on workloads whose load window has no churn, a one-client phase
/// after the load — so that the control-plane metrics exist, and mean the
/// same, on every workload: 5% follows and unfollows among the requests.
pub const TRACE_CHURN: f64 = 0.05;

pub const WORKLOADS: [Spec; 6] = [
    Spec {
        name: "feed_read",
        why: "83% queries on a push-heavy schedule: queries are cheap, time sits in share fan-out (push targets, grouping, StoreServer::update, View::insert)",
        family: Family::Flickr,
        nodes: 50_000,
        read_write: 5.0,
        scheduler: "chitchat-stream",
        clients: 2,
        churn_ratio: 0.0,
        reopt: None,
    },
    Spec {
        name: "feed_write",
        why: "83% shares flip the schedule to pull-heavy: shares are cheap, queries carry the fan-out, the k-way merge and ReplyMerger",
        family: Family::Flickr,
        nodes: 50_000,
        read_write: 0.2,
        scheduler: "chitchat-stream",
        clients: 2,
        churn_ratio: 0.0,
        reopt: None,
    },
    Spec {
        name: "feed_churn",
        why: "5% follows/unfollows with continuous re-optimization: ChurnManager, IncrementalScheduler, epoch publishes and override lookups under load",
        family: Family::Flickr,
        nodes: 50_000,
        read_write: 5.0,
        scheduler: "chitchat-stream",
        clients: 1,
        churn_ratio: 0.05,
        reopt: Some(ReoptMode::Continuous),
    },
    Spec {
        name: "opt_chitchat",
        why: "batch CHITCHAT (lazy re-validation, densest-subgraph oracle, fan-out pool) sets cost_ratio and peak RSS; its hub-rich schedule is then served on a cache-resident graph",
        family: Family::Flickr,
        nodes: 10_000,
        read_write: 5.0,
        scheduler: "chitchat",
        clients: 2,
        churn_ratio: 0.0,
        reopt: None,
    },
    Spec {
        name: "opt_stream",
        why: "one-pass chitchat-stream on the low-reciprocity heavy-hub family (5 msgs/request): no global argmin queue, so queue or re-validation changes must read no change",
        family: Family::Twitter,
        nodes: 50_000,
        read_write: 5.0,
        scheduler: "chitchat-stream",
        clients: 2,
        churn_ratio: 0.0,
        reopt: None,
    },
    Spec {
        name: "opt_nosy",
        why: "PARALLELNOSY on the same twitter graph: no oracle at all, iteration and fan-out bound; control for oracle and peel changes, and a third kind of schedule to serve",
        family: Family::Twitter,
        nodes: 50_000,
        read_write: 5.0,
        scheduler: "parallelnosy",
        clients: 2,
        churn_ratio: 0.0,
        reopt: None,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A metric's manifest entry.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
    }
}

/// What a user of the system sees. Bounds live in `BENCHMARK.json`.
pub const END_TO_END: [MetricDef; 7] = [
    lower("setup_s", "s"),
    higher("ops_per_s", "1/s"),
    lower("msgs_per_op", "msgs"),
    lower("share_p50_us", "us"),
    lower("query_p50_us", "us"),
    lower("peak_rss_mb", "MB"),
    lower("cost_ratio", "ratio"),
];

/// Per-layer metrics of the traced run; layers are the repo's modules.
/// Direction is the direction an optimisation of that layer would move it.
pub const PER_LAYER: [MetricDef; 56] = [
    lower("graph.gen_s", "s"),
    lower("workload.trace_ns_per_op", "ns"),
    lower("core.boot_schedule_s", "s"),
    lower("core.cost.predicted_msgs_per_op", "msgs"),
    lower("core.cost.msgs_residual", "msgs"),
    lower("core.incremental.add_edge_us", "us"),
    lower("core.incremental.remove_edge_us", "us"),
    lower("store.topology.partition_s", "s"),
    lower("store.topology.group_ns", "ns/op"),
    lower("store.topology.servers_per_share", "count"),
    lower("store.topology.servers_per_query", "count"),
    lower("serve.epoch.compile_s", "s"),
    lower("serve.epoch.lookup_ns", "ns/op"),
    lower("serve.epoch.push_fanout", "views/op"),
    lower("serve.epoch.pull_fanout", "views/op"),
    lower("serve.epoch.publish_us", "us"),
    lower("serve.epoch.epochs", "count"),
    lower("store.view.insert_ns", "ns/insert"),
    lower("store.server.update_ns", "ns/batch"),
    lower("store.server.query_ns", "ns/batch"),
    lower("store.server.views_per_query_batch", "count"),
    lower("store.merge.reply_merge_ns", "ns/query"),
    lower("store.merge.replies_per_query", "count"),
    lower("store.worker.update_ns", "ns/op"),
    lower("store.worker.query_ns", "ns/op"),
    lower("store.worker.self_ns", "ns/op"),
    lower("store.worker.hop_p50_us", "us"),
    lower("serve.runtime.start_s", "s"),
    lower("serve.runtime.shutdown_s", "s"),
    lower("serve.runtime.share_ns", "ns/op"),
    lower("serve.runtime.query_ns", "ns/op"),
    lower("serve.runtime.self_ns", "ns/op"),
    lower("serve.runtime.share_p99_us", "us"),
    lower("serve.runtime.query_p99_us", "us"),
    higher("serve.runtime.scale_2c", "ratio"),
    lower("serve.churn.ack_p50_us", "us"),
    lower("serve.churn.ack_p99_us", "us"),
    lower("serve.churn.ack_p999_us", "us"),
    lower("serve.churn.ack_max_ms", "ms"),
    higher("serve.churn.applied", "count"),
    higher("serve.churn.reopts", "count"),
    lower("serve.churn.cost_drift", "ratio"),
    lower("core.chitchat.oracle_calls", "count"),
    higher("core.chitchat.hubs_applied", "count"),
    higher("core.chitchat.fanout_busy_frac", "ratio"),
    lower("core.chitchat_stream.oracle_calls", "count"),
    lower("core.chitchat_stream.hubs_evicted", "count"),
    lower("core.chitchat_stream.cost_vs_chitchat", "ratio"),
    lower("core.densest.peel_us", "us/call"),
    lower("core.parallelnosy.iterations", "count"),
    higher("core.parallelnosy.fanout_busy_frac", "ratio"),
    lower("core.validate.wall_ms", "ms"),
    lower("core.schedule.push_edges", "count"),
    lower("core.schedule.pull_edges", "count"),
    higher("core.schedule.covered_edges", "count"),
    lower("trace.overhead_frac", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn check_table(manifest: &Json, key: &str, table: &[MetricDef]) {
        let listed = manifest.get(key).and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), table.len(), "{key} length");
        for (entry, def) in listed.iter().zip(table) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(def.name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(def.unit));
            let better = if def.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(better),
                "{}",
                def.name
            );
        }
    }

    /// `BENCHMARK.json` must list exactly these workloads and metrics.
    #[test]
    fn manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = manifest.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), WORKLOADS.len());
        for (entry, spec) in listed.iter().zip(&WORKLOADS) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(spec.name));
            assert_eq!(entry.get("why").and_then(Json::as_str), Some(spec.why));
            assert!(spec.why.len() <= 200, "{} why too long", spec.name);
        }
        check_table(&manifest, "end_to_end", &END_TO_END);
        check_table(&manifest, "per_layer", &PER_LAYER);
        for entry in manifest.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let bound = entry.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        names.extend(WORKLOADS.iter().map(|w| w.name));
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
