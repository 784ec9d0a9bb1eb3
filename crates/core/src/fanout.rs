//! Persistent worker pool for oracle fan-outs.
//!
//! The pre-optimization schedulers spawned a fresh set of scoped threads
//! for *every* parallel batch. For CHITCHAT that meant one `thread::spawn`
//! round-trip per lazy re-validation batch — thousands per run, each batch
//! only tens of oracle calls — and the spawn/join overhead alone was enough
//! to flatten the thread-scaling curve (8 threads no faster than 1 at
//! 100k nodes). [`FanoutPool`] fixes the shape: workers
//! are spawned **once** per run inside the caller's `crossbeam::scope`,
//! park on an MPMC job channel, and chunks of work are stolen off the
//! shared receiver as workers free up. Dispatching a batch costs two
//! channel operations per chunk instead of a thread spawn.
//!
//! Determinism contract: the pool runs *pure* jobs (the caller freezes all
//! shared state for the duration of [`FanoutPool::run`]) and returns their
//! results; callers key results by job index or payload, never by arrival
//! order. Chunk sizes may depend on the thread count — results are
//! reassembled deterministically — but anything the algorithm *counts*
//! (oracle calls, candidate order) must not.
//!
//! The pool also keeps the per-thread busy-time telemetry the benchmark
//! rows report, now on the shared `piggyback-obs` instruments: each worker
//! accumulates wall time spent *inside* jobs into an [`obs::Counter`], and
//! [`FanoutTelemetry`] (re-exported from `piggyback-obs`) relates it to
//! the capacity (section wall time × workers) of every parallel section.
//! A busy fraction near 1.0 means the fan-out kept all workers fed; flat
//! scaling with a high busy fraction points at the serial remainder
//! instead (Amdahl), and a low fraction points at dispatch/imbalance —
//! diagnosable straight from the committed JSON.
//!
//! When an ambient [`EventLog`](piggyback_obs::EventLog) is installed on
//! the constructing thread ([`piggyback_obs::set_ambient_events`]), every
//! recorded batch dispatch also lands in the event ring — this is how a
//! background re-optimization inside the serving runtime traces its
//! oracle fan-outs without any `Scheduler`-trait plumbing.

use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::{unbounded, Receiver, Sender};
use crossbeam::Scope;
use piggyback_obs as obs;
use piggyback_obs::EventKind;

pub use piggyback_obs::FanoutTelemetry;

/// A fixed set of scoped workers draining jobs from a shared channel.
///
/// `J` is one chunk of work, `R` its result. Workers are built by a
/// factory closure so each can own private scratch arenas (allocation
/// reuse across every batch of the run — the other half of the spawn-per-
/// batch fix).
pub struct FanoutPool<J, R> {
    jobs: Sender<J>,
    results: Receiver<R>,
    busy_ns: obs::Counter,
    events: Option<obs::EventLog>,
    workers: usize,
}

impl<J, R> FanoutPool<J, R> {
    /// Spawns `workers` threads on `scope`. `make_worker(i)` builds worker
    /// `i`'s job closure (owning its scratch state); the closure must be
    /// pure with respect to everything the coordinator mutates between
    /// [`FanoutPool::run`] calls.
    pub fn new<'scope, 'env, W, MkW>(
        scope: &Scope<'scope, 'env>,
        workers: usize,
        make_worker: MkW,
    ) -> Self
    where
        J: Send + 'scope,
        R: Send + 'scope,
        W: FnMut(J) -> R + Send + 'scope,
        MkW: Fn(usize) -> W,
    {
        assert!(workers >= 1, "pool needs at least one worker");
        let (jobs, job_rx) = unbounded::<J>();
        let (result_tx, results) = unbounded::<R>();
        let job_rx = Arc::new(job_rx);
        let busy_ns = obs::Counter::new();
        for i in 0..workers {
            let rx = Arc::clone(&job_rx);
            let tx = result_tx.clone();
            // Each worker clones onto its own counter stripe — the same
            // contention-free accumulation the bespoke atomic gave, minus
            // the bespoke atomic.
            let busy = busy_ns.clone();
            let mut work = make_worker(i);
            scope.spawn(move |_| {
                // `recv` errs once the pool (the only job sender) is
                // dropped — the workers' shutdown signal.
                while let Ok(job) = rx.recv() {
                    let start = Instant::now();
                    let out = work(job);
                    busy.add(start.elapsed().as_nanos() as u64);
                    if tx.send(out).is_err() {
                        break;
                    }
                }
            });
        }
        FanoutPool {
            jobs,
            results,
            busy_ns,
            events: obs::ambient_events(),
            workers,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Total nanoseconds workers have spent inside jobs so far.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns.get()
    }

    /// Dispatches a batch of jobs and collects exactly as many results,
    /// in arrival (non-deterministic) order. Blocks until all complete.
    pub fn run(&self, batch: impl IntoIterator<Item = J>) -> Vec<R> {
        let mut sent = 0usize;
        for job in batch {
            self.jobs.send(job).expect("fan-out worker exited early");
            sent += 1;
        }
        (0..sent)
            .map(|_| self.results.recv().expect("fan-out worker panicked"))
            .collect()
    }

    /// Like [`FanoutPool::run`], recording the section into `telemetry`
    /// (and into the ambient event ring, when one was installed at pool
    /// construction).
    pub fn run_recorded(
        &self,
        batch: impl IntoIterator<Item = J>,
        telemetry: &mut FanoutTelemetry,
    ) -> Vec<R> {
        let busy_before = self.busy_ns();
        let start = Instant::now();
        let out = self.run(batch);
        let busy = self.busy_ns() - busy_before;
        let wall = start.elapsed().as_nanos() as u64;
        telemetry.record_parallel(busy, wall, self.workers);
        if let Some(events) = &self.events {
            events.record(EventKind::FanoutBatch {
                jobs: out.len(),
                busy_ns: busy,
                wall_ns: wall,
            });
        }
        out
    }
}

/// Splits `len` items into chunks sized for `workers` threads: enough
/// chunks that work-stealing evens out imbalance (about four per worker),
/// never empty.
pub fn chunk_len(len: usize, workers: usize) -> usize {
    len.div_ceil(4 * workers.max(1)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_runs_all_jobs_with_scratch_reuse() {
        let results: Vec<u64> = crossbeam::scope(|s| {
            let pool: FanoutPool<u64, u64> = FanoutPool::new(s, 3, |_| {
                let mut calls = 0u64; // per-worker scratch
                move |x: u64| {
                    calls += 1;
                    x * 2 + calls.min(1) - 1
                }
            });
            let mut out = pool.run(0..100u64);
            out.sort_unstable();
            out
        })
        .unwrap();
        assert_eq!(results, (0..100u64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn pool_multiple_batches_and_telemetry() {
        crossbeam::scope(|s| {
            let pool: FanoutPool<u32, u32> = FanoutPool::new(s, 2, |_| |x: u32| x + 1);
            let mut tel = FanoutTelemetry::default();
            for round in 0..5u32 {
                let got = pool.run_recorded((0..10).map(|i| round * 10 + i), &mut tel);
                assert_eq!(got.len(), 10);
            }
            assert!(tel.capacity_ns > 0);
            assert!(tel.busy_fraction() <= 1.0);
        })
        .unwrap();
    }

    #[test]
    fn empty_batch_is_fine() {
        crossbeam::scope(|s| {
            let pool: FanoutPool<u32, u32> = FanoutPool::new(s, 2, |_| |x: u32| x);
            assert!(pool.run(std::iter::empty()).is_empty());
        })
        .unwrap();
    }

    #[test]
    fn chunking_never_empty_and_covers() {
        assert_eq!(chunk_len(0, 8), 1);
        assert_eq!(chunk_len(1, 8), 1);
        assert!(chunk_len(64, 8) >= 2);
        assert!(chunk_len(1000, 1) >= 250);
    }

    #[test]
    fn telemetry_fraction_defaults_to_one() {
        assert_eq!(FanoutTelemetry::default().busy_fraction(), 1.0);
    }

    /// Differential guard for the obs migration: the pool's telemetry
    /// arithmetic must match the pre-PR accumulation (busy summed, wall ×
    /// workers capacity) when fed the identical section sequence.
    #[test]
    fn telemetry_matches_pre_migration_accumulation() {
        // (busy_ns, wall_ns, workers) sections as the pre-PR code consumed
        // them; the mirror below is the old field arithmetic verbatim.
        let sections = [
            (300u64, 120u64, 4usize),
            (0, 50, 2),
            (1u64 << 40, 1u64 << 41, 3),
            (7, 7, 1),
        ];
        let mut migrated = FanoutTelemetry::default();
        let (mut old_busy, mut old_capacity) = (0u64, 0u64);
        for &(busy, wall, workers) in &sections {
            migrated.record_parallel(busy, wall, workers);
            old_busy += busy;
            old_capacity += wall.saturating_mul(workers as u64);
        }
        migrated.record_inline(42);
        old_busy += 42;
        old_capacity += 42;
        assert_eq!(migrated.busy_ns, old_busy);
        assert_eq!(migrated.capacity_ns, old_capacity);
    }

    #[test]
    fn ambient_event_log_traces_batches() {
        let log = piggyback_obs::EventLog::new(16, piggyback_obs::Clock::monotonic());
        crossbeam::scope(|s| {
            let _guard = piggyback_obs::set_ambient_events(&log);
            let pool: FanoutPool<u32, u32> = FanoutPool::new(s, 2, |_| |x: u32| x + 1);
            let mut tel = FanoutTelemetry::default();
            pool.run_recorded(0..8u32, &mut tel);
            pool.run_recorded(0..3u32, &mut tel);
        })
        .unwrap();
        assert_eq!(log.total_recorded(), 2);
        let jobs: Vec<usize> = log
            .recent(2)
            .iter()
            .map(|e| match e.kind {
                EventKind::FanoutBatch { jobs, .. } => jobs,
                _ => panic!("unexpected event {e}"),
            })
            .collect();
        assert_eq!(jobs, vec![8, 3]);
    }

    #[test]
    fn no_ambient_log_means_no_tracing() {
        crossbeam::scope(|s| {
            let pool: FanoutPool<u32, u32> = FanoutPool::new(s, 1, |_| |x: u32| x);
            let mut tel = FanoutTelemetry::default();
            pool.run_recorded(0..4u32, &mut tel);
            assert!(pool.events.is_none());
        })
        .unwrap();
    }
}
