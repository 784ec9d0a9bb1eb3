//! `agree`: do two result sets of the same commit tell the same story?
//!
//! A metric's bound in `BENCHMARK.json` is how much worse it may get
//! before a change counts as a regression; two passes over one commit
//! must therefore agree within it, or the bound cannot be policed.

use crate::json::Json;
use crate::report::metric_value;

/// One `(workload, metric)` comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// `(b - a) / a`.
    pub change: f64,
    pub bound: f64,
}

impl Row {
    pub fn breach(&self) -> bool {
        self.change.is_nan() || self.change.abs() > self.bound
    }
}

/// Compares every end-to-end metric of every workload the two result sets
/// (as written by `pigbench run`) share, against the manifest's bounds.
/// Returns the rows and the complaints that are not about a metric value:
/// a missing workload or metric, a changed share of failed operations.
pub fn compare(manifest: &Json, a: &Json, b: &Json) -> Result<(Vec<Row>, Vec<String>), String> {
    let bounds = manifest
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("manifest has no end_to_end list")?;
    let workloads = |set: &Json| {
        set.get("workloads")
            .and_then(Json::as_obj)
            .map(<[_]>::to_vec)
            .ok_or("result set has no workloads object")
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut rows = Vec::new();
    let mut complaints = Vec::new();
    for (name, ra) in &wa {
        let Some((_, rb)) = wb.iter().find(|(n, _)| n == name) else {
            complaints.push(format!("{name}: missing from the second set"));
            continue;
        };
        let failed_share = |r: &Json| {
            let count = |k| r.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
            count("failed") / count("attempted")
        };
        let (fa, fb) = (failed_share(ra), failed_share(rb));
        if fa != fb {
            complaints.push(format!("{name}: failed share changed from {fa} to {fb}"));
        }
        for entry in bounds {
            let metric = entry
                .get("name")
                .and_then(Json::as_str)
                .ok_or("bound without a name")?;
            let bound = entry
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("bound without a value")?;
            match (metric_value(ra, metric), metric_value(rb, metric)) {
                (Some(va), Some(vb)) => rows.push(Row {
                    workload: name.clone(),
                    metric: metric.to_string(),
                    a: va,
                    b: vb,
                    change: (vb - va) / va,
                    bound,
                }),
                _ => complaints.push(format!("{name}: {metric} missing from a set")),
            }
        }
    }
    for (name, _) in &wb {
        if !wa.iter().any(|(n, _)| n == name) {
            complaints.push(format!("{name}: missing from the first set"));
        }
    }
    Ok((rows, complaints))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Json {
        Json::parse(
            r#"{"end_to_end": [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
                               {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#,
        )
        .unwrap()
    }

    fn set(ops: f64, setup: f64, failed: u64) -> Json {
        Json::parse(&format!(
            r#"{{"workloads": {{"w": {{"correct": true, "attempted": 100, "failed": {failed},
                "metrics": {{"ops_per_s": {{"value": {ops}, "unit": "1/s"}},
                             "setup_s": {{"value": {setup}, "unit": "s"}}}}}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn within_bounds_agrees() {
        let (rows, complaints) =
            compare(&manifest(), &set(100.0, 1.0, 0), &set(95.0, 1.2, 0)).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| !r.breach()), "{rows:?}");
        assert!(complaints.is_empty());
    }

    #[test]
    fn breach_in_either_direction_is_flagged() {
        for ops in [85.0, 115.0] {
            let (rows, _) = compare(&manifest(), &set(100.0, 1.0, 0), &set(ops, 1.0, 0)).unwrap();
            let breaches: Vec<&Row> = rows.iter().filter(|r| r.breach()).collect();
            assert_eq!(breaches.len(), 1);
            assert_eq!(breaches[0].metric, "ops_per_s");
        }
    }

    #[test]
    fn changed_failed_share_and_missing_parts_are_complaints() {
        let (_, complaints) =
            compare(&manifest(), &set(100.0, 1.0, 0), &set(100.0, 1.0, 3)).unwrap();
        assert_eq!(complaints.len(), 1);
        assert!(complaints[0].contains("failed share"));
        let empty = Json::parse(r#"{"workloads": {}}"#).unwrap();
        let (rows, complaints) = compare(&manifest(), &set(100.0, 1.0, 0), &empty).unwrap();
        assert!(rows.is_empty());
        assert_eq!(complaints.len(), 1);
        assert!(compare(&manifest(), &Json::Null, &empty).is_err());
    }
}
