//! Order statistics over raw samples.
//!
//! Tail percentiles follow one rule: a reported percentile must have at
//! least [`MIN_BEYOND`] samples beyond it, so p99 needs 1000 samples.
//! With fewer, [`tail`] reports the highest percentile the sample
//! supports instead, and says which one it was.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank quantile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it. `NaN` when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of quantile `q` among `n` samples. The epsilon
/// keeps `q = k / n` at rank `k` despite rounding in `q * n`.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Median (nearest rank) of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// A copy of `samples` in ascending order.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// A tail percentile together with the quantile it was taken at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The quantile actually reported (`want`, or lower when the sample
    /// is too small for `want`).
    pub q: f64,
    /// The sample at that quantile.
    pub value: f64,
}

/// The `want` quantile of an ascending slice when at least
/// [`MIN_BEYOND`] samples lie beyond its rank; otherwise the highest
/// quantile that satisfies the rule (the minimum when none does).
pub fn tail(sorted: &[f64], want: f64) -> Tail {
    let n = sorted.len();
    if n == 0 {
        return Tail {
            q: want,
            value: f64::NAN,
        };
    }
    let r = rank(n, want).min(n.saturating_sub(MIN_BEYOND)).max(1);
    Tail {
        q: r as f64 / n as f64,
        value: sorted[r - 1],
    }
}

/// Samples strictly beyond the nearest rank of quantile `q`.
pub fn beyond(n: usize, q: f64) -> usize {
    n.saturating_sub(rank(n, q))
}
