//! Fixed-seed differential suite for streaming CHITCHAT.
//!
//! Two properties, stated over seeded generator graphs so every CI run
//! sees the same instances:
//!
//! 1. **Quality**: the one-pass streaming sweep must land within 5% of
//!    batch CHITCHAT's schedule cost (`stream ≤ 1.05 × batch`) — the
//!    bound the 2.2M/10M benchmark rows are gated on, pinned here at
//!    sizes a test can afford.
//! 2. **Determinism**: the streaming schedule is identical for any
//!    worker-thread count — threads only change wall time, never the
//!    result (chunked frozen evaluation + deterministic reassembly).
//!
//! The flickr-10k and flickr-100k differentials mirror the benchmark
//! configuration exactly (`Rates::log_degree(g, 5.0)` on `flickr_like`
//! seed-42 graphs) but cost release-build minutes, so they are
//! `#[ignore]`d; CI's release lane runs them with `--ignored`.

use piggyback_core::chitchat::ChitChat;
use piggyback_core::chitchat_stream::ChitChatStream;
use piggyback_core::cost::schedule_cost;
use piggyback_graph::gen;
use piggyback_graph::{CsrGraph, EdgeId};
use piggyback_workload::Rates;

/// The benchmark's quality gate, as a ratio.
const QUALITY_BOUND: f64 = 1.05;

fn world(nodes: usize) -> (CsrGraph, Rates) {
    let g = gen::flickr_like(nodes, 42);
    let r = Rates::log_degree(&g, 5.0);
    (g, r)
}

fn assert_stream_tracks_batch(nodes: usize) {
    let (g, r) = world(nodes);
    let stream = ChitChatStream::default().run(&g, &r);
    let batch = ChitChat::default().run(&g, &r);
    let sc = schedule_cost(&g, &r, &stream.schedule);
    let bc = schedule_cost(&g, &r, &batch.schedule);
    assert!(
        sc <= bc * QUALITY_BOUND,
        "flickr-{nodes}: streaming cost {sc:.1} exceeds {QUALITY_BOUND} x batch {bc:.1} \
         (ratio {:.4})",
        sc / bc
    );
}

#[test]
fn stream_within_five_percent_of_batch_on_flickr_2k() {
    assert_stream_tracks_batch(2_000);
}

/// The benchmark's flickr-10k differential, verbatim. Minutes in a debug
/// build; run with `cargo test --release -- --ignored`.
#[test]
#[ignore = "release-build differential (~1 min); CI runs it with --ignored"]
fn stream_within_five_percent_of_batch_on_flickr_10k() {
    assert_stream_tracks_batch(10_000);
}

/// The 100k differential backing the README's streaming-quality claim.
#[test]
#[ignore = "release-build differential (tens of minutes); run manually with --ignored"]
fn stream_within_five_percent_of_batch_on_flickr_100k() {
    assert_stream_tracks_batch(100_000);
}

#[test]
fn identical_streaming_schedules_for_any_thread_count() {
    let (g, r) = world(3_000);
    let base = ChitChatStream {
        threads: 1,
        ..Default::default()
    }
    .run(&g, &r);
    for threads in [0usize, 2, 3, 8] {
        let res = ChitChatStream {
            threads,
            ..Default::default()
        }
        .run(&g, &r);
        assert_eq!(
            res.hubs_admitted, base.hubs_admitted,
            "threads={threads}: hub admissions diverged"
        );
        assert_eq!(res.passes, base.passes, "threads={threads}");
        assert_eq!(
            schedule_cost(&g, &r, &res.schedule),
            schedule_cost(&g, &r, &base.schedule),
            "threads={threads}: cost diverged"
        );
        for e in 0..g.edge_count() as EdgeId {
            assert_eq!(
                base.schedule.assignment(e),
                res.schedule.assignment(e),
                "threads={threads}: edge {e} assigned differently"
            );
        }
    }
}
