//! HDR-style latency histograms: log-linear buckets with bounded
//! relative error, built for tail percentiles (p99, p999) where the
//! sort-and-index estimator of [`crate::measure::summarize`] needs
//! every sample kept around.
//!
//! The layout is the classic high-dynamic-range one: time is split into
//! power-of-two segments, each segment into [`SUB_BUCKETS`] linear
//! sub-buckets, so any recorded value lands in a bucket whose width is
//! at most `1/SUB_BUCKETS` of its magnitude (≤ ~3% relative error with
//! 32 sub-buckets). Recording is O(1) and the whole histogram is a few
//! KiB regardless of sample count — it can sit inside a benchmark's hot
//! loop without perturbing what it measures.

use std::time::Duration;

/// Linear sub-buckets per power-of-two segment: bounds relative
/// quantization error by `1/32` ≈ 3%.
const SUB_BUCKETS: usize = 32;
/// Power-of-two segments above the linear range: with nanosecond
/// resolution, segment 38 tops out above 4 minutes — more than any
/// sane latency sample.
const SEGMENTS: usize = 39;

/// A log-linear histogram of durations with nanosecond resolution.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    max_ns: u64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            counts: vec![0; SEGMENTS * SUB_BUCKETS],
            total: 0,
            max_ns: 0,
        }
    }

    /// Bucket index of a nanosecond value.
    ///
    /// Segment 0 covers `0..SUB_BUCKETS` ns linearly; every later
    /// segment `s` covers `SUB_BUCKETS << (s-1) .. SUB_BUCKETS << s`
    /// in `SUB_BUCKETS` equal sub-buckets, so the leading bit picks the
    /// segment and the next 5 bits the sub-bucket.
    fn index(ns: u64) -> usize {
        if ns < SUB_BUCKETS as u64 {
            return ns as usize;
        }
        let p = 63 - ns.leading_zeros() as usize; // >= 5 here.
        let seg = (p - (SUB_BUCKETS.trailing_zeros() as usize - 1)).min(SEGMENTS - 1);
        let sub = ((ns >> (seg - 1)) as usize)
            .saturating_sub(SUB_BUCKETS)
            .min(SUB_BUCKETS - 1);
        seg * SUB_BUCKETS + sub
    }

    /// Representative (midpoint) nanosecond value of a bucket.
    fn value_of(index: usize) -> u64 {
        let (seg, sub) = (index / SUB_BUCKETS, index % SUB_BUCKETS);
        if seg == 0 {
            sub as u64
        } else {
            let base = (SUB_BUCKETS + sub) as u64;
            // Midpoint of the bucket's [base << (seg-1), (base+1) << (seg-1)) span.
            (base << (seg - 1)) + (1u64 << (seg - 1)) / 2
        }
    }

    /// Records one sample.
    pub fn record(&mut self, sample: Duration) {
        let ns = sample.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.counts[LatencyHistogram::index(ns)] += 1;
        self.total += 1;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded samples.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The value at quantile `q` in `[0, 1]`: the bucket midpoint at
    /// which the cumulative count first reaches `ceil(q * total)`
    /// (exact max for `q = 1`). An empty histogram has every quantile
    /// at zero: a run that recorded nothing reports a zero-sample
    /// summary instead of taking the reporter down.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Duration {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if q >= 1.0 {
            return Duration::from_nanos(self.max_ns);
        }
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Duration::from_nanos(LatencyHistogram::value_of(i).min(self.max_ns));
            }
        }
        Duration::from_nanos(self.max_ns)
    }

    /// The standard tail summary: p50 / p99 / p999 in microseconds.
    pub fn tail_summary(&self) -> TailSummary {
        let us = |q: f64| self.quantile(q).as_secs_f64() * 1e6;
        TailSummary {
            p50_us: us(0.50),
            p99_us: us(0.99),
            p999_us: us(0.999),
            samples: self.total,
        }
    }
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram::new()
    }
}

/// p50/p99/p999 of one histogram, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct TailSummary {
    /// Median latency.
    pub p50_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// 99.9th percentile.
    pub p999_us: f64,
    /// Number of recorded samples.
    pub samples: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_uniform_ramp() {
        let mut h = LatencyHistogram::new();
        for us in 1..=10_000u64 {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.len(), 10_000);
        let rel = |q: f64, expect_us: f64| {
            let got = h.quantile(q).as_secs_f64() * 1e6;
            (got - expect_us).abs() / expect_us
        };
        assert!(
            rel(0.50, 5_000.0) < 0.04,
            "p50 off by {}",
            rel(0.5, 5_000.0)
        );
        assert!(
            rel(0.99, 9_900.0) < 0.04,
            "p99 off by {}",
            rel(0.99, 9_900.0)
        );
        assert!(rel(0.999, 9_990.0) < 0.04);
        // Exact max at q = 1.
        assert_eq!(h.quantile(1.0), Duration::from_micros(10_000));
    }

    #[test]
    fn tail_is_seen_by_p999_but_not_p50() {
        // 999 fast samples and 10 slow outliers: the median must stay
        // fast, p999 must land in the outlier range.
        let mut h = LatencyHistogram::new();
        for _ in 0..990 {
            h.record(Duration::from_micros(100));
        }
        for _ in 0..10 {
            h.record(Duration::from_millis(50));
        }
        let t = h.tail_summary();
        assert!(t.p50_us < 150.0, "p50 {}", t.p50_us);
        assert!(t.p999_us > 40_000.0, "p999 {}", t.p999_us);
        assert_eq!(t.samples, 1000);
    }

    #[test]
    fn relative_error_is_bounded() {
        // Round-tripping any value through its bucket midpoint stays
        // within the design's ~3% plus half a bucket.
        for ns in [1u64, 31, 32, 33, 1_000, 12_345, 1_000_000, 987_654_321] {
            let idx = LatencyHistogram::index(ns);
            let mid = LatencyHistogram::value_of(idx);
            let err = (mid as f64 - ns as f64).abs() / ns as f64;
            assert!(err <= 0.05, "ns {ns} -> mid {mid} (err {err})");
        }
    }

    #[test]
    fn wide_range_single_histogram() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_nanos(5));
        h.record(Duration::from_secs(120));
        assert_eq!(h.len(), 2);
        assert!(h.quantile(1.0) >= Duration::from_secs(119));
        assert!(h.quantile(0.01) <= Duration::from_micros(1));
    }

    #[test]
    fn empty_histogram_reports_a_zero_sample_summary() {
        let h = LatencyHistogram::new();
        for q in [0.0, 0.5, 0.999, 1.0] {
            assert_eq!(h.quantile(q), Duration::ZERO);
        }
        assert_eq!(
            h.tail_summary(),
            TailSummary {
                p50_us: 0.0,
                p99_us: 0.0,
                p999_us: 0.0,
                samples: 0,
            }
        );
    }
}
