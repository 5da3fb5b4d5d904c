//! Order statistics over latency samples and over the daemons' own
//! power-of-two histograms.

use ace_core::metrics::HistogramSnapshot;

/// The `q`-quantile of ascending `sorted` samples, interpolated linearly
/// between closest ranks (0 for no samples).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// A percentile is only reported when at least this many samples lie
/// beyond it; with fewer, one outlier decides the figure.
pub const MIN_BEYOND: usize = 10;

/// p99 of ascending samples, or `None` when fewer than [`MIN_BEYOND`]
/// samples lie beyond it.
pub fn p99(sorted: &[f64]) -> Option<f64> {
    let beyond = (sorted.len() as f64 * 0.01).floor() as usize;
    (beyond >= MIN_BEYOND).then(|| quantile(sorted, 0.99))
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Histogram activity between two snapshots of the same histogram.
pub fn hist_delta(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    HistogramSnapshot {
        buckets: std::array::from_fn(|i| after.buckets[i].saturating_sub(before.buckets[i])),
        count: after.count.saturating_sub(before.count),
        sum_us: after.sum_us.saturating_sub(before.sum_us),
        // The window's own maximum is not recoverable; the all-time one
        // only caps interpolation inside the top bucket.
        max_us: after.max_us,
    }
}

/// Sum of histograms (the same series across several daemons).
pub fn hist_merge(into: &mut HistogramSnapshot, other: &HistogramSnapshot) {
    for (a, b) in into.buckets.iter_mut().zip(other.buckets.iter()) {
        *a += b;
    }
    into.count += other.count;
    into.sum_us += other.sum_us;
    into.max_us = into.max_us.max(other.max_us);
}

/// An empty histogram snapshot.
pub fn hist_empty() -> HistogramSnapshot {
    HistogramSnapshot {
        buckets: [0; ace_core::metrics::HISTOGRAM_BUCKETS],
        count: 0,
        sum_us: 0,
        max_us: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_core::metrics::Histogram;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let sorted: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(p99(&sorted), None, "999 samples leave 9 beyond p99");
        let sorted: Vec<f64> = (0..1000).map(f64::from).collect();
        let v = p99(&sorted).expect("1000 samples leave 10 beyond p99");
        assert!((v - 989.01).abs() < 1e-9, "{v}");
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }

    #[test]
    fn histogram_delta_keeps_only_the_window() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.record_us(1000);
        }
        let before = h.snapshot();
        for _ in 0..100 {
            h.record_us(3);
        }
        let window = hist_delta(&h.snapshot(), &before);
        assert_eq!(window.count, 100);
        assert!(window.quantile(0.5) < 4.0, "{}", window.quantile(0.5));
        let mut merged = hist_empty();
        hist_merge(&mut merged, &window);
        hist_merge(&mut merged, &before);
        assert_eq!(merged.count, 200);
    }
}
