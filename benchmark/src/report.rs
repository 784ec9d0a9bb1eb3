//! Result lines, output files and provenance.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::Json;
use crate::load::Tally;
use crate::spec::MetricDef;
use crate::world::nproc;

/// Where output files go, relative to the working directory (the
/// repository root, or the driver's checkout of it).
pub const OUT_DIR: &str = "benchmark/out";

/// Metric values of one run, by name.
#[derive(Clone, Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(self.get(name).is_none(), "{name} set twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// `{"name": {"value": v, "unit": u}, ...}` in `table` order.
    ///
    /// # Panics
    ///
    /// Panics if a metric of `table` was not measured or is not finite:
    /// the manifest promises every metric on every workload.
    pub fn to_json(&self, table: &[MetricDef]) -> Json {
        Json::obj(table.iter().map(|def| {
            let value = self
                .get(def.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", def.name));
            assert!(value.is_finite(), "metric {} is {value}", def.name);
            (
                def.name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(def.unit))]),
            )
        }))
    }
}

/// What a run hands back to `main`.
pub struct RunOutput {
    pub metrics: Metrics,
    pub tally: Tally,
    /// Counts and intermediate values for the output file.
    pub detail: Json,
}

/// The one JSON object a run prints as its last line.
pub fn result_line(out: &RunOutput, table: &[MetricDef]) -> Json {
    Json::obj([
        ("correct", Json::from(out.tally.failed == 0)),
        ("attempted", Json::from(out.tally.attempted)),
        ("failed", Json::from(out.tally.failed)),
        ("metrics", out.metrics.to_json(table)),
    ])
}

/// The value of metric `name` in a result line (as [`result_line`] makes).
pub fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where and how these numbers were taken.
pub fn provenance(seed: u64, seconds: u64) -> Json {
    let unknown = || "unknown".to_string();
    let sha = command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown);
    let dirty = command_line("git", &["status", "--porcelain"]).map(|s| !s.is_empty());
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map_or_else(|_| unknown(), |h| h.trim().to_string());
    Json::obj([
        ("git_sha", Json::Str(sha)),
        ("git_dirty", dirty.map_or(Json::Null, Json::Bool)),
        ("nproc", Json::from(nproc())),
        ("hostname", Json::Str(host)),
        (
            "rustc",
            Json::Str(command_line("rustc", &["-V"]).unwrap_or_else(unknown)),
        ),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug (numbers are not comparable)"
            } else {
                "release: opt-level=3 debug=false lto=false codegen-units=16 panic=unwind"
            }),
        ),
        ("seed", Json::from(seed)),
        ("seconds", Json::from(seconds)),
    ])
}

/// Writes `value` to `OUT_DIR/name`, creating the directory.
pub fn write_out(name: &str, value: &Json) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(OUT_DIR)?;
    let path = Path::new(OUT_DIR).join(name);
    std::fs::write(&path, format!("{value}\n"))?;
    Ok(path)
}
