//! Named instrument registration and point-in-time snapshots.
//!
//! A [`Registry`] hands out clonable instrument handles keyed by name
//! (register-or-attach: asking twice for the same name yields handles over
//! the same storage). [`Registry::snapshot`] captures every registered
//! instrument into a [`Snapshot`] — a plain value that supports
//! delta-since (for rate windows in periodic dumps), merge (for folding
//! per-shard scrapes into one view), and text/JSON rendering.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::histogram::{ConcurrentHistogram, LatencyHistogram};
use crate::instruments::{Counter, Gauge};

/// A registered instrument (the registry's stored form).
#[derive(Clone, Debug)]
pub enum Instrument {
    /// Monotone counter.
    Counter(Counter),
    /// Last-write-wins f64 gauge.
    Gauge(Gauge),
    /// Concurrent latency histogram.
    Histogram(Arc<ConcurrentHistogram>),
}

/// Clonable handle to a named instrument table.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    inner: Arc<Mutex<BTreeMap<String, Instrument>>>,
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a counter handle for `name`, registering it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.inner.lock().unwrap();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Counter(Counter::new()))
        {
            Instrument::Counter(c) => c.clone(),
            other => panic!("instrument {name:?} already registered as {other:?}"),
        }
    }

    /// Returns a gauge handle for `name`, registering it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.inner.lock().unwrap();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Gauge(Gauge::new()))
        {
            Instrument::Gauge(g) => g.clone(),
            other => panic!("instrument {name:?} already registered as {other:?}"),
        }
    }

    /// Returns a histogram handle for `name`, registering it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument kind.
    pub fn histogram(&self, name: &str) -> Arc<ConcurrentHistogram> {
        let mut map = self.inner.lock().unwrap();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Histogram(Arc::new(ConcurrentHistogram::new())))
        {
            Instrument::Histogram(h) => Arc::clone(h),
            other => panic!("instrument {name:?} already registered as {other:?}"),
        }
    }

    /// Captures every registered instrument's current value.
    pub fn snapshot(&self) -> Snapshot {
        let map = self.inner.lock().unwrap();
        let entries = map
            .iter()
            .map(|(name, inst)| {
                let value = match inst {
                    Instrument::Counter(c) => MetricValue::Counter(c.get()),
                    Instrument::Gauge(g) => MetricValue::Gauge(g.get()),
                    Instrument::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                (name.clone(), value)
            })
            .collect();
        Snapshot { entries }
    }
}

/// One instrument's captured value.
///
/// The histogram variant is ~1 KiB (a full bucket array) while the scalar
/// variants are 8 bytes; that imbalance is fine here because these values
/// live only inside a [`Snapshot`]'s map — long-lived point-in-time
/// captures, a handful per snapshot — and boxing would cost a pointer
/// chase on every histogram read for no measurable saving.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Counter total at capture time.
    Counter(u64),
    /// Gauge value at capture time.
    Gauge(f64),
    /// Histogram contents at capture time.
    Histogram(LatencyHistogram),
}

/// Point-in-time capture of a registry (plus any values folded in by
/// scrape code, e.g. per-shard wire counters).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    entries: BTreeMap<String, MetricValue>,
}

impl Snapshot {
    /// Empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries were captured.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Raw entry lookup.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries.get(name)
    }

    /// Iterates entries in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Counter value by name; 0 when absent or not a counter.
    pub fn counter(&self, name: &str) -> u64 {
        match self.entries.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Gauge value by name; 0.0 when absent or not a gauge.
    pub fn gauge(&self, name: &str) -> f64 {
        match self.entries.get(name) {
            Some(MetricValue::Gauge(v)) => *v,
            _ => 0.0,
        }
    }

    /// Histogram by name, when present.
    pub fn histogram(&self, name: &str) -> Option<&LatencyHistogram> {
        match self.entries.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Inserts (or overwrites) a counter entry — the hook for scrape code
    /// folding non-registry sources (per-shard wire stats) into a snapshot.
    pub fn set_counter(&mut self, name: &str, v: u64) {
        self.entries
            .insert(name.to_string(), MetricValue::Counter(v));
    }

    /// Inserts (or overwrites) a gauge entry.
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        self.entries.insert(name.to_string(), MetricValue::Gauge(v));
    }

    /// What changed since `earlier` (same instrument set assumed):
    /// counters subtract saturating at zero, histograms subtract
    /// bucket-wise, gauges keep their current value (a gauge *is* its
    /// point-in-time reading). Entries absent from `earlier` pass through.
    pub fn delta_since(&self, earlier: &Snapshot) -> Snapshot {
        let entries = self
            .entries
            .iter()
            .map(|(name, now)| {
                let value = match (now, earlier.entries.get(name)) {
                    (MetricValue::Counter(n), Some(MetricValue::Counter(e))) => {
                        MetricValue::Counter(n.saturating_sub(*e))
                    }
                    (MetricValue::Histogram(n), Some(MetricValue::Histogram(e))) => {
                        MetricValue::Histogram(n.delta_since(e))
                    }
                    (now, _) => now.clone(),
                };
                (name.clone(), value)
            })
            .collect();
        Snapshot { entries }
    }

    /// Folds `other` into `self`: counters add, gauges take the max,
    /// histograms merge; entries unique to `other` are copied in. Used to
    /// combine per-shard scrapes into one cluster view.
    pub fn merge(&mut self, other: &Snapshot) {
        for (name, theirs) in &other.entries {
            match (self.entries.get_mut(name), theirs) {
                (Some(MetricValue::Counter(a)), MetricValue::Counter(b)) => *a += b,
                (Some(MetricValue::Gauge(a)), MetricValue::Gauge(b)) => *a = a.max(*b),
                (Some(MetricValue::Histogram(a)), MetricValue::Histogram(b)) => a.merge(b),
                (Some(_), _) | (None, _) => {
                    self.entries.insert(name.clone(), theirs.clone());
                }
            }
        }
    }

    /// Multi-line text rendering (the `--stats-interval` dump format).
    /// With `elapsed_secs`, counters also show a per-second rate.
    pub fn render(&self, elapsed_secs: Option<f64>) -> String {
        let mut out = String::new();
        for (name, value) in &self.entries {
            match value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("{name:<40} {v}"));
                    if let Some(secs) = elapsed_secs {
                        if secs > 0.0 {
                            out.push_str(&format!("  ({:.0}/s)", *v as f64 / secs));
                        }
                    }
                    out.push('\n');
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("{name:<40} {v:.3}\n"));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(
                        "{name:<40} n={} p50={} p95={} p99={} max={}\n",
                        h.count(),
                        fmt_ns(h.quantile_ns(0.50)),
                        fmt_ns(h.quantile_ns(0.95)),
                        fmt_ns(h.quantile_ns(0.99)),
                        fmt_ns(h.max_ns()),
                    ));
                }
            }
        }
        out
    }

    /// JSON object rendering (hand-rolled; the workspace has no serde).
    /// Histograms become `{count, p50_ns, p95_ns, p99_ns, max_ns}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{name}\": "));
            match value {
                MetricValue::Counter(v) => out.push_str(&v.to_string()),
                MetricValue::Gauge(v) => {
                    let v = if v.is_finite() { *v } else { 0.0 };
                    out.push_str(&format!("{v:.4}"));
                }
                MetricValue::Histogram(h) => out.push_str(&format!(
                    "{{\"count\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}}}",
                    h.count(),
                    h.quantile_ns(0.50),
                    h.quantile_ns(0.95),
                    h.quantile_ns(0.99),
                    h.max_ns(),
                )),
            }
        }
        out.push('}');
        out
    }
}

/// Human-scale nanosecond formatting for text dumps.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_or_attach_shares_storage() {
        let reg = Registry::new();
        let a = reg.counter("ops");
        let b = reg.counter("ops");
        a.add(3);
        b.add(4);
        assert_eq!(reg.snapshot().counter("ops"), 7);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn snapshot_captures_all_kinds() {
        let reg = Registry::new();
        reg.counter("c").add(2);
        reg.gauge("g").set(1.5);
        reg.histogram("h").record_ns(500);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("c"), 2);
        assert_eq!(snap.gauge("g"), 1.5);
        assert_eq!(snap.histogram("h").unwrap().count(), 1);
        assert_eq!(snap.len(), 3);
    }

    #[test]
    fn delta_subtracts_counters_keeps_gauges() {
        let reg = Registry::new();
        let c = reg.counter("c");
        let g = reg.gauge("g");
        c.add(10);
        g.set(5.0);
        let early = reg.snapshot();
        c.add(7);
        g.set(2.0);
        let d = reg.snapshot().delta_since(&early);
        assert_eq!(d.counter("c"), 7);
        assert_eq!(d.gauge("g"), 2.0);
    }

    #[test]
    fn merge_adds_counters_maxes_gauges() {
        let mut a = Snapshot::new();
        a.set_counter("c", 5);
        a.set_gauge("g", 1.0);
        let mut b = Snapshot::new();
        b.set_counter("c", 3);
        b.set_gauge("g", 4.0);
        b.set_counter("only_b", 9);
        a.merge(&b);
        assert_eq!(a.counter("c"), 8);
        assert_eq!(a.gauge("g"), 4.0);
        assert_eq!(a.counter("only_b"), 9);
    }

    #[test]
    fn render_and_json_include_all_entries() {
        let reg = Registry::new();
        reg.counter("ops").add(42);
        reg.gauge("depth").set(2.0);
        reg.histogram("lat").record_ns(1_500);
        let snap = reg.snapshot();
        let text = snap.render(Some(2.0));
        assert!(text.contains("ops"), "{text}");
        assert!(text.contains("(21/s)"), "{text}");
        let json = snap.to_json();
        assert!(json.contains("\"ops\": 42"), "{json}");
        assert!(json.contains("\"p99_ns\""), "{json}");
    }
}
