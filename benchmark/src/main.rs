//! `pigbench` command line.
//!
//! ```text
//! pigbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload; the last line of stdout is the result
//! pigbench run [--seed <n>] [--seconds <s>] [--reps <n>] [--trace] [--out <file>]
//!     every workload, each run in its own child process; with --reps the
//!     medians of n runs with consecutive seeds
//! pigbench agree <a.json> <b.json>
//!     compare two `run` outputs against the bounds in BENCHMARK.json
//! ```

use std::process::{Command, ExitCode, Stdio};

use pigbench::agree::compare;
use pigbench::json::Json;
use pigbench::report::{metric_value, provenance, result_line, write_out};
use pigbench::run::run_untraced;
use pigbench::spec::{workload, MetricDef, Spec, END_TO_END, PER_LAYER, WORKLOADS};
use pigbench::stats::median;
use pigbench::traced::run_traced;

const USAGE: &str = "usage:
  pigbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
  pigbench run [--seed <n>] [--seconds <s>] [--reps <n>] [--trace] [--out <file>]
  pigbench agree <a.json> <b.json>";

/// The manifest's `run_seconds`; `run` uses it unless told otherwise.
const DEFAULT_SECONDS: u64 = 8;
const DEFAULT_SEED: u64 = 42;

/// Value of `--flag <value>` in `args`.
fn flag<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(v.as_str()))
            .ok_or_else(|| format!("{name} needs a value")),
    }
}

fn number(args: &[String], name: &str) -> Result<Option<u64>, String> {
    flag(args, name)?
        .map(|v| {
            v.parse()
                .map_err(|_| format!("{name} takes a whole number, not `{v}`"))
        })
        .transpose()
}

fn table(trace: bool) -> &'static [MetricDef] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// One run of one workload, in this process.
fn single(args: &[String]) -> Result<ExitCode, String> {
    let name = flag(args, "--workload")?.ok_or("--workload is required")?;
    let spec = workload(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("no workload `{name}`; there are {}", known.join(", "))
    })?;
    let seed = number(args, "--seed")?.ok_or("--seed is required")?;
    let seconds = number(args, "--seconds")?.ok_or("--seconds is required")?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be between 1 and 60".into());
    }
    let trace = match flag(args, "--trace")?.ok_or("--trace is required")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    let out = if trace {
        run_traced(spec, seed, seconds)
    } else {
        run_untraced(spec, seed, seconds)
    };
    let line = result_line(&out, table(trace));
    let file = Json::obj([
        ("workload", Json::str(spec.name)),
        ("trace", Json::from(trace)),
        ("provenance", provenance(seed, seconds)),
        ("result", line.clone()),
        ("detail", out.detail),
        (
            "first_failure",
            out.tally
                .first_failure
                .clone()
                .map_or(Json::Null, Json::Str),
        ),
    ]);
    let suffix = if trace { ".trace" } else { "" };
    write_out(&format!("{}{suffix}.json", spec.name), &file)
        .map_err(|e| format!("cannot write the output file: {e}"))?;
    if let Some(why) = &out.tally.first_failure {
        eprintln!("pigbench: {}: first failed check: {why}", spec.name);
    }
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

/// One child process running one workload once; its result line, parsed.
fn child_run(spec: &Spec, seed: u64, seconds: u64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let child = Command::new(exe)
        .args(["--workload", spec.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {} run: {e}", spec.name))?;
    if !child.status.success() {
        return Err(format!("the {} run ended with {}", spec.name, child.status));
    }
    let stdout = String::from_utf8_lossy(&child.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    Json::parse(line).map_err(|e| format!("{}: unreadable result line: {e}", spec.name))
}

/// Every workload, each run in a child process so that peak RSS, the
/// allocator's state and the page cache of one cannot leak into the next.
/// With `--reps n` every workload runs `n` times, with seeds `seed`,
/// `seed + 1`, …, and the set holds each metric's median and the summed
/// counts: one run is at the mercy of the minute it ran in.
fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let seed = number(args, "--seed")?.unwrap_or(DEFAULT_SEED);
    let seconds = number(args, "--seconds")?.unwrap_or(DEFAULT_SECONDS);
    let reps = number(args, "--reps")?.unwrap_or(1).max(1);
    let trace = args.iter().any(|a| a == "--trace");
    let mut results = Vec::new();
    let mut all_correct = true;
    for spec in &WORKLOADS {
        let runs = (0..reps)
            .map(|rep| child_run(spec, seed + rep, seconds, trace))
            .collect::<Result<Vec<Json>, String>>()?;
        let count = |key: &str| -> f64 {
            runs.iter()
                .filter_map(|r| r.get(key).and_then(Json::as_f64))
                .sum()
        };
        let correct = runs
            .iter()
            .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true));
        all_correct &= correct;
        println!(
            "{} (seed {seed}, {reps} run(s)): {} of {} checked operations failed",
            spec.name,
            count("failed"),
            count("attempted"),
        );
        let mut metrics = Vec::new();
        for def in table(trace) {
            let values = runs
                .iter()
                .map(|r| {
                    metric_value(r, def.name)
                        .ok_or_else(|| format!("{}: no {} in a result", spec.name, def.name))
                })
                .collect::<Result<Vec<f64>, String>>()?;
            let value = median(&values).expect("reps >= 1");
            println!("  {:<40} {value:>16.4} {}", def.name, def.unit);
            metrics.push((
                def.name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(def.unit))]),
            ));
        }
        results.push((
            spec.name,
            Json::obj([
                ("correct", Json::from(correct)),
                ("attempted", Json::Num(count("attempted"))),
                ("failed", Json::Num(count("failed"))),
                ("metrics", Json::obj(metrics)),
            ]),
        ));
    }
    let set = Json::obj([
        ("provenance", provenance(seed, seconds)),
        ("trace", Json::from(trace)),
        ("reps", Json::from(reps)),
        ("workloads", Json::obj(results)),
    ]);
    let default_name = format!("run-seed{seed}{}.json", if trace { "-trace" } else { "" });
    let path = match flag(args, "--out")? {
        Some(path) => {
            std::fs::write(path, format!("{set}\n")).map_err(|e| format!("{path}: {e}"))?;
            path.into()
        }
        None => write_out(&default_name, &set).map_err(|e| format!("{default_name}: {e}"))?,
    };
    println!("results written to {}", path.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("pigbench: at least one check failed");
        ExitCode::FAILURE
    })
}

fn agree(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("agree takes two result files".into());
    };
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (rows, complaints) = compare(&load("BENCHMARK.json")?, &load(a)?, &load(b)?)?;
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "a", "b", "change", "bound"
    );
    for r in &rows {
        println!(
            "{:<14} {:<16} {:>14.4} {:>14.4} {:>+8.2}% {:>6.1}%{}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.change * 100.0,
            r.bound * 100.0,
            if r.breach() { "  BREACH" } else { "" }
        );
    }
    for c in &complaints {
        println!("{c}");
    }
    let breaches = rows.iter().filter(|r| r.breach()).count();
    println!(
        "{} comparisons, {breaches} beyond their bound, {} other complaints",
        rows.len(),
        complaints.len()
    );
    Ok(if breaches == 0 && complaints.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("agree") => agree(&args[1..]),
        Some(first) if first.starts_with("--") => single(&args),
        _ => Err("nothing to do".into()),
    };
    outcome.unwrap_or_else(|why| {
        eprintln!("pigbench: {why}\n{USAGE}");
        ExitCode::from(2)
    })
}
