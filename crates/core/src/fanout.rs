//! The optimizers' one parallel execution: a persistent worker pool with
//! an ordered map over batches.
//!
//! CHITCHAT, streaming CHITCHAT and PARALLELNOSY each fan pure work out
//! over a run: oracle peels against a frozen cover, or candidate hub-graphs
//! against a frozen schedule. [`FanoutPool::scope`] is the only place that
//! work meets threads. It resolves the thread budget (`0` = one per core),
//! opens the `crossbeam::scope`, spawns the workers **once** per run, and
//! hands the optimizer's driver a pool whose [`FanoutPool::map`] runs one
//! batch at a time:
//!
//! * a batch of at least `PAR_THRESHOLD` (4) jobs is cut into chunks (about
//!   four per worker, so work-stealing evens out imbalance), sent over an
//!   MPMC channel, and reassembled by chunk index;
//! * a smaller batch, and every batch of a one-worker pool, runs inline on
//!   the calling thread. A one-worker pool spawns no thread at all.
//!
//! Workers are built by a factory closure, so each (the caller's inline one
//! included) owns private scratch arenas reused across every batch of the
//! run. Dispatching a batch costs two channel operations per chunk instead
//! of a thread spawn.
//!
//! Determinism contract: the pool runs *pure* jobs (the caller freezes all
//! shared state for the duration of [`FanoutPool::map`]) and returns their
//! results in batch order, whichever worker ran which chunk. Chunk sizes
//! depend on the thread count; anything the algorithm *counts* (oracle
//! calls, candidate order) must not.
//!
//! The pool also keeps the busy-time telemetry the benchmark rows report:
//! each worker accumulates wall time spent *inside* jobs into an
//! [`obs::Counter`], and [`FanoutTelemetry`] (re-exported from
//! `piggyback-obs`) relates it to the capacity (section wall time ×
//! workers) of every sent batch; an inline batch counts as fully busy. A
//! busy fraction near 1.0 means the fan-out kept all workers fed; flat
//! scaling with a high busy fraction points at the serial remainder
//! instead (Amdahl), and a low fraction points at dispatch/imbalance.
//!
//! When an ambient [`EventLog`](piggyback_obs::EventLog) is installed on
//! the thread that opens the pool ([`piggyback_obs::set_ambient_events`]),
//! every sent batch also lands in the event ring as a `FanoutBatch`; inline
//! batches do not. This is how a background re-optimization inside the
//! serving runtime traces its oracle fan-outs without any
//! `Scheduler`-trait plumbing.

use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::{unbounded, Receiver, Sender};
use piggyback_obs as obs;
use piggyback_obs::EventKind;

pub use piggyback_obs::FanoutTelemetry;

/// Smallest batch worth sending to the workers; smaller batches run inline
/// on the calling thread. With persistent workers a dispatch costs two
/// channel operations per chunk, so the bar is low.
const PAR_THRESHOLD: usize = 4;

/// One job's worth of work: maps a chunk of a batch to its results.
type Worker<'w, J, R> = Box<dyn FnMut(&[J]) -> Vec<R> + 'w>;

/// A fixed set of scoped workers plus the caller's own inline worker.
///
/// `J` is one item of a batch, `R` one result; a worker maps a chunk of
/// items to the chunk's results. Open one with [`FanoutPool::scope`].
pub struct FanoutPool<'w, J, R> {
    workers: usize,
    /// The caller's worker: runs every batch that is not sent.
    inline: RefCell<Worker<'w, J, R>>,
    /// Channels to the spawned workers; `None` for a one-worker pool.
    remote: Option<Remote<J, R>>,
    busy_ns: obs::Counter,
    events: Option<obs::EventLog>,
    telemetry: Cell<FanoutTelemetry>,
}

/// Chunks go out tagged with their index and come back tagged the same
/// way, so reassembly does not depend on arrival order.
struct Remote<J, R> {
    jobs: Sender<(usize, Vec<J>)>,
    results: Receiver<(usize, Vec<R>)>,
}

impl<'w, J, R> FanoutPool<'w, J, R>
where
    J: Clone + Send + 'w,
    R: Send + 'w,
{
    /// Opens a pool of `threads` workers (`0` = one per available core)
    /// for the duration of `body`, and returns `body`'s result with the
    /// telemetry of every batch it mapped.
    ///
    /// `make_worker()` builds one worker (owning its scratch state): one
    /// for the calling thread, plus one per spawned thread when there is
    /// more than one worker. Workers must be pure with respect to
    /// everything `body` mutates between [`FanoutPool::map`] calls.
    pub fn scope<W, T>(
        threads: usize,
        make_worker: impl Fn() -> W,
        body: impl FnOnce(&FanoutPool<'w, J, R>) -> T,
    ) -> (T, FanoutTelemetry)
    where
        W: FnMut(&[J]) -> Vec<R> + Send + 'w,
    {
        let workers = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };
        crossbeam::scope(|s| {
            let busy_ns = obs::Counter::new();
            let remote = (workers > 1).then(|| {
                let (jobs, job_rx) = unbounded::<(usize, Vec<J>)>();
                let (result_tx, results) = unbounded::<(usize, Vec<R>)>();
                let job_rx = Arc::new(job_rx);
                for _ in 0..workers {
                    let rx = Arc::clone(&job_rx);
                    let tx = result_tx.clone();
                    // Each worker clones onto its own counter stripe.
                    let busy = busy_ns.clone();
                    let mut work = make_worker();
                    s.spawn(move |_| {
                        // `recv` errs once the pool (the only job sender) is
                        // dropped — the workers' shutdown signal.
                        while let Ok((idx, chunk)) = rx.recv() {
                            let start = Instant::now();
                            let out = work(&chunk);
                            busy.add(start.elapsed().as_nanos() as u64);
                            if tx.send((idx, out)).is_err() {
                                break;
                            }
                        }
                    });
                }
                Remote { jobs, results }
            });
            let pool = FanoutPool {
                workers,
                inline: RefCell::new(Box::new(make_worker())),
                remote,
                busy_ns,
                events: obs::ambient_events(),
                telemetry: Cell::new(FanoutTelemetry::default()),
            };
            let out = body(&pool);
            (out, pool.telemetry.get())
        })
        .expect("fan-out worker panicked")
    }

    /// Maps `batch` through the workers and returns the results in batch
    /// order: each chunk's results, concatenated in chunk order. A worker
    /// that returns one result per item therefore yields results aligned
    /// with `batch`; one that filters yields the survivors in batch order.
    ///
    /// Sends the batch when it has at least `PAR_THRESHOLD` items and
    /// the pool has spawned workers, recording a parallel section (and a
    /// `FanoutBatch` event, when an ambient log was installed); otherwise
    /// runs it on the calling thread and records an inline section.
    pub fn map(&self, batch: &[J]) -> Vec<R> {
        let mut telemetry = self.telemetry.get();
        let start = Instant::now();
        let out = match &self.remote {
            Some(remote) if batch.len() >= PAR_THRESHOLD => {
                let busy_before = self.busy_ns.get();
                let chunk = chunk_len(batch.len(), self.workers);
                let mut sent = 0usize;
                for (idx, part) in batch.chunks(chunk).enumerate() {
                    remote
                        .jobs
                        .send((idx, part.to_vec()))
                        .expect("fan-out worker exited early");
                    sent += 1;
                }
                let mut parts: Vec<(usize, Vec<R>)> = (0..sent)
                    .map(|_| remote.results.recv().expect("fan-out worker panicked"))
                    .collect();
                parts.sort_unstable_by_key(|&(idx, _)| idx);
                let out = parts.into_iter().flat_map(|(_, r)| r).collect();
                let busy = self.busy_ns.get() - busy_before;
                let wall = start.elapsed().as_nanos() as u64;
                telemetry.record_parallel(busy, wall, self.workers);
                if let Some(events) = &self.events {
                    events.record(EventKind::FanoutBatch {
                        jobs: sent,
                        busy_ns: busy,
                        wall_ns: wall,
                    });
                }
                out
            }
            _ => {
                let out = (self.inline.borrow_mut())(batch);
                telemetry.record_inline(start.elapsed().as_nanos() as u64);
                out
            }
        };
        self.telemetry.set(telemetry);
        out
    }
}

/// Splits `len` items into chunks sized for `workers` threads: enough
/// chunks that work-stealing evens out imbalance (about four per worker),
/// never empty.
fn chunk_len(len: usize, workers: usize) -> usize {
    len.div_ceil(4 * workers.max(1)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::{self, ThreadId};

    /// A worker that tags each item with the thread that ran it.
    fn tagging_worker() -> impl FnMut(&[u32]) -> Vec<(u32, ThreadId)> + Send {
        |xs: &[u32]| xs.iter().map(|&x| (x, thread::current().id())).collect()
    }

    #[test]
    fn one_worker_runs_inline_in_order_and_logs_no_batch() {
        let log = obs::EventLog::new(16, obs::Clock::monotonic());
        let _guard = obs::set_ambient_events(&log);
        let batch: Vec<u32> = (0..100).collect();
        let (out, tel) = FanoutPool::scope(1, tagging_worker, |pool| {
            assert_eq!(pool.workers, 1);
            pool.map(&batch)
        });
        let caller = thread::current().id();
        assert!(
            out.iter().all(|&(_, id)| id == caller),
            "a job left the caller"
        );
        assert_eq!(out.iter().map(|&(x, _)| x).collect::<Vec<_>>(), batch);
        assert!(tel.capacity_ns > 0, "an inline batch records telemetry");
        assert_eq!(tel.busy_ns, tel.capacity_ns, "inline counts as fully busy");
        assert_eq!(
            log.total_recorded(),
            0,
            "an inline batch logs no FanoutBatch"
        );
    }

    #[test]
    fn sent_batches_come_back_in_order_and_are_logged() {
        let log = obs::EventLog::new(16, obs::Clock::monotonic());
        let _guard = obs::set_ambient_events(&log);
        let caller = thread::current().id();
        let (_, tel) = FanoutPool::scope(3, tagging_worker, |pool| {
            for len in [100u32, 9, 3] {
                let batch: Vec<u32> = (0..len).collect();
                let out = pool.map(&batch);
                assert_eq!(out.iter().map(|&(x, _)| x).collect::<Vec<_>>(), batch);
                let inline = out.iter().all(|&(_, id)| id == caller);
                // Below the threshold the caller runs the batch itself.
                assert_eq!(inline, batch.len() < PAR_THRESHOLD, "len {len}");
            }
        });
        assert!(tel.busy_fraction() <= 1.0);
        let jobs: Vec<usize> = log
            .recent(8)
            .iter()
            .map(|e| match e.kind {
                EventKind::FanoutBatch { jobs, .. } => jobs,
                _ => panic!("unexpected event {e}"),
            })
            .collect();
        // Two sent batches, chunked about four per worker.
        assert_eq!(jobs, vec![chunk_count(100, 3), chunk_count(9, 3)]);
    }

    fn chunk_count(len: usize, workers: usize) -> usize {
        len.div_ceil(chunk_len(len, workers))
    }

    #[test]
    fn filtering_workers_keep_batch_order() {
        let batch: Vec<u32> = (0..1000).collect();
        let (out, _) = FanoutPool::scope(
            4,
            || |xs: &[u32]| xs.iter().copied().filter(|x| x % 7 == 0).collect(),
            |pool| pool.map(&batch),
        );
        assert_eq!(
            out,
            batch
                .iter()
                .copied()
                .filter(|x| x % 7 == 0)
                .collect::<Vec<u32>>()
        );
    }

    #[test]
    fn empty_batch_is_fine() {
        let (out, _) = FanoutPool::scope(2, || |xs: &[u32]| xs.to_vec(), |pool| pool.map(&[]));
        assert!(out.is_empty());
    }

    #[test]
    fn zero_threads_means_one_per_core() {
        let cores = thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let (workers, _) = FanoutPool::scope(0, || |xs: &[u32]| xs.to_vec(), |pool| pool.workers);
        assert_eq!(workers, cores);
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
    fn no_ambient_log_means_no_tracing() {
        FanoutPool::scope(
            2,
            || |xs: &[u32]| xs.to_vec(),
            |pool| {
                pool.map(&[1, 2, 3, 4, 5]);
                assert!(pool.events.is_none());
            },
        );
    }
}
