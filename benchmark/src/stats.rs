//! Order statistics for the ledger: medians, quartiles as Python's
//! `statistics.quantiles(values, n=4)` computes them (the method the
//! acceptance driver uses), and the "highest percentile the sample
//! supports" rule from the choosing-metrics guide.

/// Ascending copy of `xs` (total order; the benchmark never produces NaN).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs`; 0 when empty (a metric whose layer did not run).
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Linear-interpolated percentile `p` in [0, 1] of `xs`; 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `(q1, q2, q3)` by the exclusive method of Python's
/// `statistics.quantiles(xs, n=4)`. One sample is its own quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        _ => {
            let q = |i: usize| {
                // Python: j = i*(n+1)//4 clamped to [1, n-1], delta = i*(n+1) - j*4.
                let m = n + 1;
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (q(1), q(2), q(3))
        }
    }
}

/// Interquartile range as a share of the median (the acceptance
/// driver's spread); 0 for a zero median.
pub fn iqr_frac(xs: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(xs);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The highest of p50/p75/p90/p95/p99 that still has at least ten
/// samples beyond it, with the percentile chosen: `(p, value)`.
/// Fewer than twenty samples support only the median.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    // Whole percents, so that 100 samples support p90 exactly.
    let pct = [99, 95, 90, 75]
        .into_iter()
        .find(|pct| xs.len() * (100 - pct) >= 1000)
        .unwrap_or(50);
    let p = pct as f64 / 100.0;
    (p, percentile(xs, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), 90.0);
        assert_eq!(percentile(&xs, 0.0), 0.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.5), 1.5);
    }

    /// Values checked against CPython 3.11 `statistics.quantiles(xs, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), (1.0, 3.0, 5.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn iqr_frac_is_spread_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(iqr_frac(&xs), 1.0);
        assert_eq!(iqr_frac(&[2.0; 5]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let n = |k: usize| -> Vec<f64> { (0..k).map(|i| i as f64).collect() };
        assert_eq!(tail(&n(19)).0, 0.5);
        assert_eq!(tail(&n(40)).0, 0.75);
        assert_eq!(tail(&n(100)).0, 0.90);
        assert_eq!(tail(&n(200)).0, 0.95);
        assert_eq!(tail(&n(1000)).0, 0.99);
        // 100 samples 0..99: p90 interpolates to 89.1.
        assert!((tail(&n(100)).1 - 89.1).abs() < 1e-9);
    }
}
