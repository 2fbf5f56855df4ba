//! Serve-side accounting: a fixed log-bucket latency histogram safe for
//! concurrent recording, and the [`ServeStats`] snapshot the handle hands
//! out.
//!
//! The histogram is HDR-style: each power of two is cut into
//! `2^SUB_BITS` sub-buckets, so recording is two shifts and one relaxed
//! atomic increment, memory is one fixed array (no allocation, ever), and
//! quantile estimates carry at most `1/2^SUB_BITS` (≈12.5%) relative
//! error — plenty for p50/p95/p99 tail tracking under load.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use mvdesign::warehouse::ResultCacheStats;

/// Sub-bucket resolution: each power-of-two range splits into `2^SUB_BITS`
/// buckets.
const SUB_BITS: usize = 3;
const SUB: usize = 1 << SUB_BITS;
/// Enough buckets for the full `u64` nanosecond range.
const BUCKETS: usize = (64 - SUB_BITS) * SUB + SUB;

/// A concurrent fixed-size log-bucket histogram of nanosecond latencies.
#[derive(Debug)]
pub(crate) struct Histogram {
    buckets: Vec<AtomicU64>,
    max_ns: AtomicU64,
}

/// The bucket a nanosecond value lands in. Monotone in `n`: values below
/// `2^SUB_BITS` map to themselves, larger values to
/// (power-of-two group, top `SUB_BITS` mantissa bits).
fn bucket_index(n: u64) -> usize {
    let n = n.max(1);
    let msb = 63 - n.leading_zeros() as usize;
    if msb <= SUB_BITS {
        n as usize
    } else {
        let shift = msb - SUB_BITS;
        let sub = ((n >> shift) as usize) & (SUB - 1);
        shift * SUB + SUB + sub
    }
}

/// The inclusive upper bound of a bucket — the value quantiles report.
fn bucket_upper(index: usize) -> u64 {
    if index < 2 * SUB {
        index as u64
    } else {
        let shift = index / SUB - 1;
        let sub = (index % SUB) as u128;
        // u128 so the top bucket's bound saturates instead of overflowing.
        let upper = ((SUB as u128 + sub + 1) << shift) - 1;
        upper.min(u64::MAX as u128) as u64
    }
}

impl Histogram {
    pub(crate) fn new() -> Self {
        Self {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Records one latency observation (relaxed; counters are summed only
    /// at reporting time).
    pub(crate) fn record(&self, nanos: u64) {
        self.buckets[bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        self.max_ns.fetch_max(nanos, Ordering::Relaxed);
    }

    /// A point-in-time summary with approximate quantiles.
    pub(crate) fn summary(&self) -> LatencySummary {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = counts.iter().sum();
        let quantile = |q: f64| -> f64 {
            if count == 0 {
                return 0.0;
            }
            let target = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (i, c) in counts.iter().enumerate() {
                seen += c;
                if seen >= target {
                    return bucket_upper(i) as f64 / 1e3;
                }
            }
            bucket_upper(BUCKETS - 1) as f64 / 1e3
        };
        LatencySummary {
            count,
            p50_us: quantile(0.50),
            p95_us: quantile(0.95),
            p99_us: quantile(0.99),
            max_us: self.max_ns.load(Ordering::Relaxed) as f64 / 1e3,
        }
    }
}

/// Quantiles of the request latencies served so far (queue wait included —
/// latency is measured from submission to completion).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Requests recorded.
    pub count: u64,
    /// Median latency in microseconds (log-bucket upper bound, ≤12.5% high).
    pub p50_us: f64,
    /// 95th-percentile latency in microseconds.
    pub p95_us: f64,
    /// 99th-percentile latency in microseconds.
    pub p99_us: f64,
    /// Largest latency observed, exact, in microseconds.
    pub max_us: f64,
}

/// A point-in-time picture of what the serving layer has done.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeStats {
    /// Queries answered (successfully or not).
    pub queries: u64,
    /// Append operations applied by the writer.
    pub appends: u64,
    /// Refresh passes run by the writer.
    pub refreshes: u64,
    /// Snapshots published (one per applied write; the current snapshot's
    /// version equals this count).
    pub snapshots_published: u64,
    /// Queries answered from a snapshot with at least one stale view —
    /// answers that predate some appended rows (the paper's
    /// once-per-period staleness, observed at serve time).
    pub stale_answers: u64,
    /// Largest number of appended-but-unfolded base rows any answer was
    /// served over (staleness-at-answer high-water mark).
    pub max_staleness_rows: u64,
    /// Query latency quantiles (submission → completion).
    pub latency: LatencySummary,
    /// The warehouse's result cache: how many of `queries` were answered
    /// without running their plan.
    pub result_cache: ResultCacheStats,
}

impl fmt::Display for ServeStats {
    /// The text export: one `name value` line per counter, the result
    /// cache's counters, then the latency summary.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "queries {}", self.queries)?;
        writeln!(f, "appends {}", self.appends)?;
        writeln!(f, "refreshes {}", self.refreshes)?;
        writeln!(f, "snapshots_published {}", self.snapshots_published)?;
        writeln!(f, "stale_answers {}", self.stale_answers)?;
        writeln!(f, "max_staleness_rows {}", self.max_staleness_rows)?;
        writeln!(f, "{}", self.result_cache)?;
        let l = &self.latency;
        write!(
            f,
            "latency_us count {} p50 {:.1} p95 {:.1} p99 {:.1} max {:.1}",
            l.count, l.p50_us, l.p95_us, l.p99_us, l.max_us
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut values: Vec<u64> = (0u32..64)
            .flat_map(|shift| {
                let base = 1u64 << shift;
                [
                    base,
                    base.saturating_add(base / 16),
                    base.saturating_add(base / 2),
                ]
            })
            .chain(0..=256)
            .collect();
        values.sort_unstable();
        values.dedup();
        let mut last = 0usize;
        for n in values {
            let i = bucket_index(n);
            assert!(i >= last, "bucket index regressed at {n}");
            assert!(i < BUCKETS);
            last = i;
        }
    }

    #[test]
    fn bucket_upper_bounds_cover_their_bucket() {
        for n in (0..20_000u64).chain([1 << 20, 1 << 33, u64::MAX]) {
            let i = bucket_index(n);
            let upper = bucket_upper(i);
            assert!(
                upper >= n.max(1) || i == BUCKETS - 1,
                "{n} above its bound {upper}"
            );
            // The bound is tight: at most one sub-bucket's width above.
            if n >= SUB as u64 {
                assert!(upper as f64 <= n as f64 * (1.0 + 1.0 / SUB as f64) + 1.0);
            }
        }
    }

    #[test]
    fn quantiles_of_a_known_distribution() {
        let h = Histogram::new();
        for us in 1..=1000u64 {
            h.record(us * 1_000);
        }
        let s = h.summary();
        assert_eq!(s.count, 1000);
        // Log-bucket estimates sit within 12.5% above the exact value.
        assert!((500.0..=563.0).contains(&s.p50_us), "p50 {}", s.p50_us);
        assert!((950.0..=1070.0).contains(&s.p95_us), "p95 {}", s.p95_us);
        assert!((990.0..=1120.0).contains(&s.p99_us), "p99 {}", s.p99_us);
        assert_eq!(s.max_us, 1000.0);
    }

    #[test]
    fn text_export_has_one_line_per_counter_and_the_latency_summary() {
        let stats = ServeStats {
            queries: 7,
            appends: 2,
            refreshes: 1,
            snapshots_published: 3,
            stale_answers: 4,
            max_staleness_rows: 5,
            latency: Histogram::new().summary(),
            result_cache: ResultCacheStats {
                hits: 6,
                misses: 1,
                ..ResultCacheStats::default()
            },
        };
        let text = stats.to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6 + 7 + 1, "{text}");
        assert_eq!(lines[0], "queries 7");
        assert_eq!(lines[6], "result_cache.hits 6");
        assert_eq!(lines[7], "result_cache.misses 1");
        assert!(
            lines[13].starts_with("latency_us count 0 p50 0.0"),
            "{text}"
        );
    }

    #[test]
    fn empty_histogram_summarizes_to_zero() {
        let s = Histogram::new().summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.p99_us, 0.0);
        assert_eq!(s.max_us, 0.0);
    }
}
