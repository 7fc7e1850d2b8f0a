//! Order statistics for the benchmark's reports.
//!
//! Samples are `(value, weight)` pairs: every command a closed loop
//! redeems in one pass shares one latency, so a batch is one pair whose
//! weight is its command count.

/// A tail percentile read from a sample set: the percentile that the
/// sample could support, its value, and how many samples it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (≤ the one asked for).
    pub pct: f64,
    /// Its value, in the samples' unit.
    pub value: f64,
    /// Number of samples (total weight).
    pub samples: u64,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES_BEYOND: u64 = 10;

/// Total weight of `samples`.
pub fn count(samples: &[(f64, u64)]) -> u64 {
    samples.iter().map(|&(_, w)| w).sum()
}

/// Sort samples by value.
pub fn sort(samples: &mut [(f64, u64)]) {
    samples.sort_by(|a, b| a.0.total_cmp(&b.0));
}

/// Nearest-rank percentile `pct` (0..=100) of value-sorted weighted
/// `sorted`. Panics on an empty or zero-weight sample.
pub fn percentile(sorted: &[(f64, u64)], pct: f64) -> f64 {
    let n = count(sorted);
    assert!(n > 0, "percentile of an empty sample");
    let rank = (((pct / 100.0) * n as f64).ceil() as u64).clamp(1, n);
    let mut seen = 0;
    for &(v, w) in sorted {
        seen += w;
        if seen >= rank {
            return v;
        }
    }
    sorted[sorted.len() - 1].0
}

/// The highest percentile at or below `wanted` that still has at least
/// [`TAIL_SAMPLES_BEYOND`] samples ranked above it, floored at the
/// median. `None` on an empty sample.
pub fn tail(sorted: &[(f64, u64)], wanted: f64) -> Option<Tail> {
    let n = count(sorted);
    if n == 0 {
        return None;
    }
    let rank = |pct: f64| (((pct / 100.0) * n as f64).ceil() as u64).clamp(1, n);
    let mut pct = wanted;
    if n - rank(pct) < TAIL_SAMPLES_BEYOND {
        // The highest rank with ten samples beyond it is n - 10; express
        // it as a percentile rounded down to 0.1 so it cannot round up.
        let supported = 100.0 * n.saturating_sub(TAIL_SAMPLES_BEYOND) as f64 / n as f64;
        pct = ((supported * 10.0).floor() / 10.0).max(50.0);
    }
    Some(Tail { pct, value: percentile(sorted, pct), samples: n })
}

/// Median of unsorted `values` (mean of the middle pair for even
/// lengths). Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}
