//! The arithmetic behind every reported number: percentile picks, open-loop
//! latency from due times, and the run-to-run spread `repeat` prints.

use std::time::Duration;

/// A percentile is reported only with this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// The percentiles a timing may be reported at, lowest first.
const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// How many of `n` samples lie strictly beyond the nearest-rank pick of
/// percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps 99.9 % of 10 000 at 9 990 where the product reads
    // 9990.000000000002.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// The highest percentile of the ladder that `n` samples support with
/// [`MIN_BEYOND`] samples beyond it; `None` below 20 samples.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rfind(|p| n > 0 && samples_beyond(n, *p) >= MIN_BEYOND)
}

/// Sorted samples with nearest-rank percentile picks.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Self { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile; 0 on no samples, so that an empty phase
    /// reads as a failure of the non-zero rule and not as a crash.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted[rank(self.sorted.len(), p) - 1]
    }

    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// The whole distribution on one line, for choosing which percentile a
    /// workload can be held to.
    pub fn percentiles(&self) -> String {
        let picks: Vec<String> = [25.0, 50.0, 75.0, 90.0, 95.0, 99.0]
            .iter()
            .map(|p| format!("p{p}={:.4}", self.percentile(*p)))
            .collect();
        format!("{} mean={:.4}", picks.join(" "), self.mean())
    }

    /// One line for the log: count, median and the highest percentile the
    /// count supports.
    pub fn describe(&self, what: &str, unit: &str) -> String {
        match highest_supported(self.len()) {
            Some(p) => format!(
                "{what}: n={} p50={:.4} {unit} p{p}={:.4} {unit} ({} beyond)",
                self.len(),
                self.median(),
                self.percentile(p),
                samples_beyond(self.len(), p)
            ),
            None => format!(
                "{what}: n={} p50={:.4} {unit} (too few samples for a tail)",
                self.len(),
                self.median()
            ),
        }
    }
}

/// Open-loop latency of one request: how late it was sent after it was due,
/// plus the time the server took from submission to completion. A stall
/// that delays the generator is charged to every request it delayed.
pub fn open_loop_latency(due: Duration, sent: Duration, service: Duration) -> Duration {
    sent.saturating_sub(due) + service
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), which is what the acceptance rule for
/// this benchmark is written in.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let pick = |i: usize| {
        // Cut point i of 4 over n samples, exclusive method.
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (pick(1), pick(3))
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let median = median_of(values);
    if median == 0.0 {
        return 0.0;
    }
    (q3 - q1) / median.abs()
}

/// The median as Python's `statistics.median` gives it (mean of the two
/// middle values on an even count).
pub fn median_of(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Samples {
        Samples::new((1..=n).map(|i| i as f64).collect())
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = one_to(100);
        assert_eq!(s.percentile(50.0), 50.0);
        assert_eq!(s.percentile(99.0), 99.0);
        assert_eq!(s.percentile(100.0), 100.0);
        let s = one_to(7);
        assert_eq!(s.median(), 4.0);
        assert_eq!(s.percentile(90.0), 7.0);
        assert_eq!(Samples::new(vec![]).percentile(99.0), 0.0);
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        // 1000 samples leave exactly 10 beyond p99, 999 leave 9.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(highest_supported(999), Some(95.0));
        // p90 needs 100 samples, p50 needs 20.
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(99), Some(75.0));
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(0), None);
        assert_eq!(highest_supported(10_000), Some(99.9));
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let ms = Duration::from_millis;
        // Sent on time: the service time alone.
        assert_eq!(open_loop_latency(ms(100), ms(100), ms(3)), ms(3));
        // A generator stalled for 40 ms: the request waited 40 ms before the
        // server ever saw it, and that wait is part of its latency.
        assert_eq!(open_loop_latency(ms(100), ms(140), ms(3)), ms(43));
        // Sent early (never happens, but must not underflow).
        assert_eq!(open_loop_latency(ms(100), ms(99), ms(3)), ms(3));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median_of(&v), 5.5);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }
}
