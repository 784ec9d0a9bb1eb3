//! Exact order statistics over raw latency samples.
//!
//! Every reported percentile is computed by sorting raw `u32` nanosecond
//! samples; nothing here buckets. The timed phase is cut into slices of
//! equal operation count and the *median slice* is reported, so a stall
//! caused by a noisy neighbour costs one slice, not the run.

/// Samples that must lie beyond a percentile for it to be computed per
/// slice; below that the slices are pooled.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[u32], q: f64) -> Option<u32> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] beyond percentile `q`.
pub fn supports(n: usize, q: f64) -> bool {
    n as f64 * (1.0 - q) >= MIN_BEYOND as f64
}

/// Median of the values (mean of the two middle ones for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Percentile `q` of every non-empty slice, in nanoseconds — or `None` if
/// some non-empty slice does not [`supports`] it (or all are empty), in
/// which case the caller pools. Sorts the slices in place.
pub fn per_slice_percentile(slices: &mut [Vec<u32>], q: f64) -> Option<Vec<f64>> {
    let mut out = Vec::with_capacity(slices.len());
    for s in slices.iter_mut().filter(|s| !s.is_empty()) {
        if !supports(s.len(), q) {
            return None;
        }
        s.sort_unstable();
        out.push(f64::from(percentile(s, q)?));
    }
    (!out.is_empty()).then_some(out)
}

/// Percentile `q` of all slices' samples together. `None` without samples.
pub fn pooled_percentile(slices: &[Vec<u32>], q: f64) -> Option<f64> {
    let mut pooled: Vec<u32> = slices.iter().flatten().copied().collect();
    pooled.sort_unstable();
    percentile(&pooled, q).map(f64::from)
}

/// Total number of samples across slices.
pub fn sample_count(slices: &[Vec<u32>]) -> usize {
    slices.iter().map(Vec::len).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_known_vectors() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), Some(50));
        assert_eq!(percentile(&v, 0.99), Some(99));
        assert_eq!(percentile(&v, 0.999), Some(100));
        assert_eq!(percentile(&v, 1.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[10, 20, 30, 40], 0.5), Some(20));
        assert_eq!(percentile(&[10, 20, 30, 40], 0.75), Some(30));
        assert_eq!(percentile(&[10, 20, 30, 40], 0.76), Some(40));
    }

    #[test]
    fn percentile_empty_and_single() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7], 0.5), Some(7));
        assert_eq!(percentile(&[7], 0.99), Some(7));
    }

    #[test]
    fn median_known_vectors() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn supports_needs_ten_beyond() {
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(supports(10_000, 0.999));
        assert!(!supports(9_999, 0.999));
    }

    #[test]
    fn per_slice_ignores_a_stalled_slice_at_the_median() {
        // Three slices of 20 samples; one is stalled (x100). The median of
        // the per-slice p50s does not see the stall.
        let calm: Vec<u32> = (1..=20).rev().collect();
        let stalled: Vec<u32> = calm.iter().map(|x| x * 100).collect();
        let mut slices = vec![calm.clone(), stalled, calm];
        let per_slice = per_slice_percentile(&mut slices, 0.5).unwrap();
        assert_eq!(per_slice, vec![10.0, 1000.0, 10.0]);
        assert_eq!(median(&per_slice), Some(10.0));
    }

    #[test]
    fn thin_slices_pool() {
        // p99 needs 1000 samples per slice; these have 4, so the caller
        // pools: 8 samples, rank ceil(0.99 * 8) = 8 -> the maximum.
        let mut slices = vec![vec![4, 1, 3, 2], vec![8, 5, 7, 6]];
        assert_eq!(per_slice_percentile(&mut slices, 0.99), None);
        assert_eq!(pooled_percentile(&slices, 0.99), Some(8.0));
        assert_eq!(pooled_percentile(&slices, 0.5), Some(4.0));
        assert_eq!(sample_count(&slices), 8);
    }

    #[test]
    fn empty_slices_are_skipped_and_no_samples_is_none() {
        let mut none: Vec<Vec<u32>> = vec![Vec::new(), Vec::new()];
        assert_eq!(per_slice_percentile(&mut none, 0.5), None);
        assert_eq!(pooled_percentile(&none, 0.5), None);
        let mut one = vec![Vec::new(), (1..=40).collect()];
        assert_eq!(per_slice_percentile(&mut one, 0.5), Some(vec![20.0]));
        let single = vec![Vec::new(), vec![42]];
        assert_eq!(pooled_percentile(&single, 0.5), Some(42.0));
        assert_eq!(pooled_percentile(&single, 0.99), Some(42.0));
    }
}
