//! Busy/capacity accounting for parallel fan-out sections.
//!
//! Moved here from `piggyback-core::fanout` (which re-exports it): the
//! struct is pure arithmetic over two counters and belongs with the other
//! instruments, next to the [`Counter`](crate::Counter) the optimizers'
//! worker pool accumulates busy time into.

/// Busy-time accounting across the parallel and inline fan-out sections of
/// one scheduler run.
#[derive(Clone, Copy, Debug, Default)]
pub struct FanoutTelemetry {
    /// Nanoseconds workers (or the coordinator, for inline sections) spent
    /// executing jobs.
    pub busy_ns: u64,
    /// Nanoseconds of capacity: section wall time × workers participating
    /// in that section (1 for inline sections).
    pub capacity_ns: u64,
}

impl FanoutTelemetry {
    /// Fraction of the fan-out capacity spent doing work, in `[0, 1]`.
    /// `1.0` when no fan-out sections ran at all.
    pub fn busy_fraction(&self) -> f64 {
        if self.capacity_ns == 0 {
            1.0
        } else {
            (self.busy_ns as f64 / self.capacity_ns as f64).min(1.0)
        }
    }

    /// Records a parallel section: `busy_ns` summed across workers,
    /// section wall time, worker count.
    pub fn record_parallel(&mut self, busy_ns: u64, wall_ns: u64, workers: usize) {
        self.busy_ns += busy_ns;
        self.capacity_ns += wall_ns.saturating_mul(workers as u64);
    }

    /// Records an inline section (coordinator did the work itself).
    pub fn record_inline(&mut self, wall_ns: u64) {
        self.busy_ns += wall_ns;
        self.capacity_ns += wall_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_defaults_to_one() {
        assert_eq!(FanoutTelemetry::default().busy_fraction(), 1.0);
    }

    #[test]
    fn parallel_and_inline_accumulate() {
        let mut t = FanoutTelemetry::default();
        t.record_parallel(300, 100, 4);
        assert_eq!(t.busy_ns, 300);
        assert_eq!(t.capacity_ns, 400);
        t.record_inline(50);
        assert_eq!(t.busy_ns, 350);
        assert_eq!(t.capacity_ns, 450);
        assert!((t.busy_fraction() - 350.0 / 450.0).abs() < 1e-12);
    }
}
