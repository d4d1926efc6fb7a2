//! The arithmetic every reported number goes through (tested in
//! `tests/arithmetic.rs`).

/// Exact nearest-rank percentile of a sorted sample: the smallest element
/// with at least `q` of the sample at or below it. No buckets, no
/// interpolation — the result is one of the measured values.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a latency sample in place and take one exact percentile, in µs.
pub fn percentile_us(sample: &mut [u64], q: f64) -> f64 {
    sample.sort_unstable();
    percentile(sample, q) as f64 / 1000.0
}

/// Linearly interpolated quantile (the "inclusive" method: `q = 0` is the
/// minimum, `q = 1` the maximum), for the handful of per-round values a
/// run produces.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `(Q3 − Q1) ÷ median` with the quartiles of Python's
/// `statistics.quantiles(values, n=4)` (its default, "exclusive" method):
/// the run-to-run spread exactly as the acceptance check computes it.
pub fn spread_across_runs(values: &[f64]) -> f64 {
    assert!(values.len() >= 2, "spread needs two runs");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let quartile = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / median(&v)
}

/// Which direction of a metric is good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// The quiet quartile of a per-round metric: the quartile on the *good*
/// side of the median (25th percentile of a latency, 75th of a
/// throughput). Interference on a shared box only ever makes a round
/// slower, so the good-side quartile sits in the undisturbed rounds and
/// repeats better than the median, while still needing a quarter of the
/// rounds to agree — unlike the minimum.
pub fn quiet_quartile(per_round: &[f64], better: Better) -> f64 {
    match better {
        Better::Lower => quantile(per_round, 0.25),
        Better::Higher => quantile(per_round, 0.75),
    }
}

/// `(p75 - p25) / p50` of the measured round times: the noise gauge.
pub fn round_spread(round_s: &[f64]) -> f64 {
    (quantile(round_s, 0.75) - quantile(round_s, 0.25)) / median(round_s)
}

/// Median round time of the last third of the rounds over the first
/// third, minus one: the stationarity gauge. Positive means the system
/// slowed down while it was measured.
pub fn drift_share(round_s: &[f64]) -> f64 {
    let k = (round_s.len() / 3).max(1);
    median(&round_s[round_s.len() - k..]) / median(&round_s[..k]) - 1.0
}
