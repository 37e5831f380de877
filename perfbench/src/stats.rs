//! Order statistics and open-loop scheduling for the harness.
//!
//! Every timing the benchmark prints is a median or a percentile of
//! measured samples; nothing here smooths, models or extrapolates.

use std::time::{Duration, Instant};

/// Sorts a copy of `samples` ascending (NaN-free by construction: every
/// sample is a measured duration or count).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of an ascending slice.
fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples`; `0.0` for an empty sample so
/// a metric that had nothing to measure prints as zero rather than panics.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    quantile_sorted(&sorted(samples), q)
}

/// The median of `samples` (0 for an empty sample).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// First quartile, median, third quartile.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let v = sorted(samples);
    (
        quantile_sorted(&v, 0.25),
        quantile_sorted(&v, 0.5),
        quantile_sorted(&v, 0.75),
    )
}

/// Percentiles the harness may report, ascending.
const LADDER: [f64; 6] = [0.5, 0.9, 0.95, 0.99, 0.999, 0.9999];

/// The highest percentile of [`LADDER`] with at least ten samples beyond
/// it: with `n` samples, `p` qualifies when `n·(1−p) ≥ 10`. Fifteen samples
/// support nothing above the median; 1 000 support p99; 10 000 p99.9.
pub fn highest_supported_percentile(n: usize) -> f64 {
    let mut best = LADDER[0];
    for &p in &LADDER {
        // `n·(1−p)` in integers (p has at most four decimals) so p99 of
        // exactly 1 000 samples is not lost to floating-point rounding.
        let beyond = n as u128 * (10_000 - (p * 10_000.0).round() as u128) / 10_000;
        if beyond >= 10 {
            best = p;
        }
    }
    best
}

/// A tail percentile as the harness reports it: the requested percentile
/// when the sample supports it, otherwise the highest one it does support.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (≤ the one requested).
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Sample count behind it.
    pub samples: usize,
}

/// `wanted` (e.g. 0.99) clamped to what `samples` supports.
pub fn tail(samples: &[f64], wanted: f64) -> Tail {
    let percentile = wanted.min(highest_supported_percentile(samples.len()));
    Tail {
        percentile,
        value: quantile(samples, percentile),
        samples: samples.len(),
    }
}

/// Open-loop send schedule: operation `i` is *due* at `start + i / rate`,
/// whether or not the system kept up. Latency is timed from the due time,
/// so a stall charges every operation it delayed, and the generator's own
/// lateness is accounted separately.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    start: Instant,
    nanos_per_op: f64,
}

impl Schedule {
    /// A schedule of `rate` operations per second starting at `start`.
    pub fn new(start: Instant, rate: f64) -> Self {
        assert!(rate > 0.0, "open-loop rate must be positive");
        Self {
            start,
            nanos_per_op: 1e9 / rate,
        }
    }

    /// When operation `i` is due.
    pub fn due(&self, i: u64) -> Instant {
        self.start + Duration::from_nanos((i as f64 * self.nanos_per_op) as u64)
    }

    /// How many operations are due at `now` (operation 0 is due at start).
    pub fn due_count(&self, now: Instant) -> u64 {
        let elapsed = now.saturating_duration_since(self.start).as_nanos() as f64;
        (elapsed / self.nanos_per_op) as u64 + 1
    }

    /// How late operation `i` is when sent at `sent` (zero when early).
    pub fn lateness(&self, i: u64, sent: Instant) -> Duration {
        sent.saturating_duration_since(self.due(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let (q1, q2, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((q1, q2, q3), (2.0, 3.0, 4.0));
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn fifteen_samples_support_only_the_median() {
        assert_eq!(highest_supported_percentile(15), 0.5);
        let samples: Vec<f64> = (1..=15).map(f64::from).collect();
        let t = tail(&samples, 0.99);
        assert_eq!(t.percentile, 0.5);
        assert_eq!(t.value, 8.0);
        assert_eq!(t.samples, 15);
    }

    #[test]
    fn ten_thousand_samples_support_p999() {
        assert_eq!(highest_supported_percentile(99), 0.5);
        assert_eq!(highest_supported_percentile(100), 0.9);
        assert_eq!(highest_supported_percentile(200), 0.95);
        assert_eq!(highest_supported_percentile(999), 0.95);
        assert_eq!(highest_supported_percentile(1_000), 0.99);
        assert_eq!(highest_supported_percentile(10_000), 0.999);
        let samples: Vec<f64> = (0..10_000).map(f64::from).collect();
        // Asking for p99 gets p99 (supported), not the higher p99.9.
        let t = tail(&samples, 0.99);
        assert_eq!(t.percentile, 0.99);
        assert!((t.value - 9_899.01).abs() < 1e-6);
        let t = tail(&samples, 0.9999);
        assert_eq!(t.percentile, 0.999);
    }

    #[test]
    fn schedule_times_operations_from_their_due_time() {
        let start = Instant::now();
        let s = Schedule::new(start, 1_000.0);
        assert_eq!(s.due(0), start);
        assert_eq!(s.due(1_000), start + Duration::from_secs(1));
        assert_eq!(s.due_count(start), 1);
        assert_eq!(s.due_count(start + Duration::from_millis(10)), 11);
        // Sent 3 ms after its due time: 3 ms late; sent early: not late.
        let sent = s.due(5) + Duration::from_millis(3);
        assert_eq!(s.lateness(5, sent), Duration::from_millis(3));
        assert_eq!(s.lateness(500, start), Duration::ZERO);
    }
}
