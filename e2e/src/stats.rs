//! Order statistics for latency samples.
//!
//! A percentile is only reported when at least [`TAIL_MIN`] samples lie
//! beyond it: with fewer, the figure is one or two slow requests and does
//! not repeat from run to run.

/// Samples that must lie beyond a percentile for it to be reported.
pub const TAIL_MIN: usize = 10;

/// Median of `values` (mean of the two middle values for an even count).
/// Returns 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank index of percentile `pct` (0–100) in a sorted sample of `n`.
fn rank(n: usize, pct: f64) -> usize {
    ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank percentile of an ascending `sorted` sample.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), pct)]
}

/// The tail of a latency sample: the highest percentile not above `cap`
/// that has [`TAIL_MIN`] samples beyond it, as `(percentile, value)`.
///
/// A sample too small for any percentile above its median (fewer than
/// `2 * TAIL_MIN + 1` values, which only batch jobs produce) reports its
/// maximum as percentile 100: the slowest job is what a Mode B user
/// waits for.
pub fn tail(values: &[f64], cap: f64) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 2 * TAIL_MIN {
        return (100.0, v[n - 1]);
    }
    let idx = rank(n, cap).min(n - 1 - TAIL_MIN);
    ((idx + 1) as f64 / n as f64 * 100.0, v[idx])
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = ramp(200);
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(percentile(&v, 100.0), 200.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn tail_is_p95_once_ten_samples_lie_beyond_it() {
        // 200 samples: p95 is the 190th, exactly ten beyond.
        let (pct, value) = tail(&ramp(200), 95.0);
        assert_eq!((pct, value), (95.0, 190.0));
        // More samples never raise it above the cap.
        let (pct, value) = tail(&ramp(1000), 95.0);
        assert_eq!((pct, value), (95.0, 950.0));
    }

    #[test]
    fn tail_drops_to_the_highest_supported_percentile() {
        // 160 samples: the 150th has ten beyond it -> p93.75.
        let (pct, value) = tail(&ramp(160), 95.0);
        assert_eq!(value, 150.0);
        assert!((pct - 93.75).abs() < 1e-9);
        // 199 samples: one short of supporting p95.
        let (_, value) = tail(&ramp(199), 95.0);
        assert_eq!(value, 189.0);
    }

    #[test]
    fn tail_of_a_small_sample_is_its_maximum() {
        assert_eq!(tail(&ramp(15), 95.0), (100.0, 15.0));
        assert_eq!(tail(&ramp(20), 95.0), (100.0, 20.0));
        // 21 samples: the 11th (the median) is the first supported rank.
        assert_eq!(tail(&ramp(21), 95.0).1, 11.0);
        assert_eq!(tail(&[], 95.0), (0.0, 0.0));
    }
}
