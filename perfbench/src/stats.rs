//! Order statistics used by every workload.

/// Median (mean of the two middle values for an even count); 0 for none.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method).
/// Needs at least two values.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let m = ld + 1;
    // CPython's integer formulation, including its extrapolation for
    // very small samples.
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median (0 when undefined).
pub fn relative_iqr(xs: &[f64]) -> f64 {
    let m = median(xs);
    if xs.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / m.abs()
}

/// The highest whole percentile `p ≤ 99` that leaves at least ten of `n`
/// samples strictly beyond its nearest-rank value, or `None` when `n` is
/// too small for any (`n ≤ 10`).
pub fn tail_percentile(n: usize) -> Option<u32> {
    (1..=99u32)
        .rev()
        .find(|&p| n.saturating_sub(nearest_rank(n, p)) >= 10)
}

/// 1-based nearest-rank index of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: u32) -> usize {
    (p as usize * n).div_ceil(100).max(1)
}

/// A latency tail: the percentile [`tail_percentile`] picks, its value,
/// and the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: u32,
    pub value: f64,
    pub samples: usize,
}

/// The tail of `xs` by the ten-beyond rule. With ten or fewer samples no
/// percentile qualifies and the maximum is reported as percentile 100.
pub fn tail(xs: &[f64]) -> Tail {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match tail_percentile(v.len()) {
        Some(p) => Tail {
            percentile: p,
            value: v[nearest_rank(v.len(), p) - 1],
            samples: v.len(),
        },
        None => Tail {
            percentile: 100,
            value: v.last().copied().unwrap_or(0.0),
            samples: v.len(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(11), Some(9));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(999), Some(98));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(5000), Some(99), "capped at p99");
        for n in 11..3000 {
            let p = tail_percentile(n).expect("n > 10 always has a tail");
            assert!(n - nearest_rank(n, p) >= 10, "n={n} p={p}");
            if p < 99 {
                assert!(
                    n - nearest_rank(n, p + 1) < 10,
                    "p={p} not highest at n={n}"
                );
            }
        }
    }

    #[test]
    fn tail_reports_value_and_sample_count() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.percentile, t.value, t.samples), (99, 990.0, 1000));
        let few = tail(&[5.0, 1.0, 3.0]);
        assert_eq!((few.percentile, few.value, few.samples), (100, 5.0, 3));
    }
}
