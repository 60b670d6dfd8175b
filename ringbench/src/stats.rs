//! Estimators: the median and quartiles every reported value is made of,
//! and sample percentiles for latency distributions.

/// Median and quartiles of per-round values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// Values summarised (valid rounds).
    pub n: usize,
}

impl Summary {
    /// Summarises `values`; `None` when there are none (a phase that
    /// never ran the operation), so callers print `n/a` instead of
    /// inventing a number.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Some(Summary {
            median: quantile(&v, 0.5),
            q1: quantile(&v, 0.25),
            q3: quantile(&v, 0.75),
            n: v.len(),
        })
    }

    /// Interquartile range as a share of the median.
    pub fn rel_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The `q` quantile of ascending `sorted`, by the same rule as Python's
/// `statistics.quantiles` (exclusive method: position `q·(n+1)`, linear
/// interpolation, clamped to the ends) so spreads computed here and by
/// the acceptance script agree.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "quantile of an empty sample");
    let pos = q * (n as f64 + 1.0);
    let lo = (pos.floor() as usize).clamp(1, n);
    let hi = (lo + 1).min(n);
    let frac = (pos - lo as f64).clamp(0.0, 1.0);
    sorted[lo - 1] + (sorted[hi - 1] - sorted[lo - 1]) * frac
}

/// Nearest-rank percentile of ascending latency samples; `None` when
/// empty.
pub fn percentile(sorted_ns: &[u32], p: f64) -> Option<f64> {
    if sorted_ns.is_empty() {
        return None;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * p).round() as usize;
    Some(f64::from(sorted_ns[idx]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7], n=4) == [2.0, 4.0, 6.0]
        let s = Summary::of(&[7.0, 1.0, 4.0, 2.0, 6.0, 3.0, 5.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 4.0, 6.0, 7));
        // statistics.quantiles([10, 20, 40, 80], n=4) == [12.5, 30.0, 70.0]
        let s = Summary::of(&[10.0, 20.0, 40.0, 80.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (12.5, 30.0, 70.0));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn one_value_is_its_own_quartiles_and_none_is_none() {
        let s = Summary::of(&[5.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (5.0, 5.0, 5.0, 1));
        assert_eq!(s.rel_iqr(), 0.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn median_ignores_a_minority_of_disturbed_rounds() {
        let s = Summary::of(&[100.0, 101.0, 99.0, 100.5, 40.0, 35.0, 100.2]).unwrap();
        assert!((s.median - 100.0).abs() < 1.0, "median {}", s.median);
    }

    #[test]
    fn percentile_is_nearest_rank_and_empty_is_none() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), Some(51.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&[], 0.5), None);
    }
}
