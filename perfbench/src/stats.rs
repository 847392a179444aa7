//! Order statistics over the samples a run collects.

/// The quantile the in-process timings of a run report: the fastest
/// twentieth of its samples. The host has slow phases that last from
/// seconds to minutes; a low quantile reads the program in the run's
/// fastest moments, where the median reads how much of the run the slow
/// phases covered.
pub const LOW_Q: f64 = 0.05;

/// The `q`-quantile of `xs`, interpolated linearly between the order
/// statistics (position `q * (n - 1)`), as NumPy's default does.
///
/// # Panics
/// Panics on an empty slice: every metric is a statistic over at least
/// one sample, so an empty one is a bug in the caller.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    match v.get(lo + 1) {
        Some(hi) if frac > 0.0 => v[lo] + frac * (hi - v[lo]),
        _ => v[lo],
    }
}

/// The median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The run's timing statistic: the [`LOW_Q`] quantile of `xs`.
pub fn low(xs: &[f64]) -> f64 {
    quantile(xs, LOW_Q)
}

/// The percentiles a tail may be reported at, highest last. It stops at
/// p95: further out, one run's tail reads the host's hiccups rather than
/// the program.
const TAIL_LADDER: &[f64] = &[50.0, 75.0, 90.0, 95.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_BEYOND: usize = 10;

/// The tail of `xs`: the highest percentile of [`TAIL_LADDER`] with at
/// least [`TAIL_BEYOND`] samples beyond it, as `(percentile, value)`.
/// With fewer than `2 * TAIL_BEYOND` samples no percentile qualifies and
/// the median is returned, labelled 50.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "tail of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let mut best = (50.0, median(xs));
    for &p in TAIL_LADDER {
        // Nearest-rank percentile: the smallest value with at least p% of
        // the samples at or below it.
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
        if n - rank >= TAIL_BEYOND {
            best = (p, v[rank - 1]);
        }
    }
    best
}

/// The geometric mean of `xs` (1 for no samples, the neutral ratio).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let xs: Vec<f64> = (0..=10).rev().map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.0), 0.0);
        assert_eq!(quantile(&xs, 1.0), 10.0);
        assert!((quantile(&xs, 0.1) - 1.0).abs() < 1e-12);
        assert!((quantile(&[1.0, 3.0], 0.1) - 1.2).abs() < 1e-12);
        assert_eq!(low(&[7.0]), 7.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 leaves exactly 10 samples above it; p95 would leave 5.
        assert_eq!(tail(&xs), (90.0, 90.0));
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs), (95.0, 950.0));
        // Too few samples for any tail: the median stands in.
        assert_eq!(tail(&[1.0, 2.0, 3.0]), (50.0, 2.0));
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
    }
}
