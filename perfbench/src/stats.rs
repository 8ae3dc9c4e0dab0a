//! Order statistics shared by every workload.

/// Median of `values` (the mean of the two middles for an even count, as
/// Python's `statistics.median`). Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A tail percentile chosen by the ten-beyond rule (see [`tail`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (at most the one asked for).
    pub pct: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub count: usize,
}

/// The `want`th nearest-rank percentile of `sorted` (ascending) when at
/// least ten samples lie beyond it; otherwise the highest percentile that
/// still has ten samples beyond it. A tail read off fewer than ten samples
/// is one outlier, not a percentile, so with fewer than 11 samples there is
/// no tail and the result is `None`.
pub fn tail(sorted: &[f64], want: f64) -> Option<Tail> {
    let n = sorted.len();
    if n < 11 {
        return None;
    }
    let want_idx = ((want / 100.0) * n as f64).ceil() as usize;
    let idx = want_idx.clamp(1, n).saturating_sub(1).min(n - 11);
    Some(Tail {
        pct: 100.0 * (idx + 1) as f64 / n as f64,
        value: sorted[idx],
        count: n,
    })
}

/// Sorts a copy ascending.
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
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p99_is_reported_once_ten_samples_lie_beyond_it() {
        let t = tail(&ramp(1000), 99.0).unwrap();
        assert_eq!(t.pct, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.count, 1000);
        // exactly ten samples beyond the reported one
        assert_eq!(1000 - t.value as usize, 10);
    }

    #[test]
    fn short_samples_fall_back_to_the_highest_percentile_with_ten_beyond() {
        let t = tail(&ramp(200), 99.0).unwrap();
        assert_eq!(t.pct, 95.0);
        assert_eq!(t.value, 190.0);
        assert_eq!(t.count, 200);
        let t = tail(&ramp(11), 99.0).unwrap();
        assert_eq!(t.value, 1.0, "eleven samples leave only the minimum");
        assert!(tail(&ramp(10), 99.0).is_none());
    }

    #[test]
    fn an_asked_percentile_below_the_limit_is_kept() {
        let t = tail(&ramp(1000), 50.0).unwrap();
        assert_eq!(t.pct, 50.0);
        assert_eq!(t.value, 500.0);
    }
}
