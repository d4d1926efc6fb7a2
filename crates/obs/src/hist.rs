//! Log-bucketed histograms with power-of-two sub-bucketing.
//!
//! The classic HdrHistogram layout: values `0..32` get exact unit buckets;
//! beyond that, each power-of-two range is subdivided into 32 sub-buckets,
//! so any recorded value lands in a bucket whose width is at most 1/32 of
//! the value. Quantiles read from bucket upper bounds are therefore
//! accurate to ~3.1% relative error, while recording is a single atomic
//! increment into a flat array — safe from any thread, never locking.

use std::sync::atomic::{AtomicU64, Ordering};

/// log2 of the sub-bucket count per power-of-two range.
const SUB_BITS: u32 = 5;
/// Sub-buckets per power-of-two range (and the exact-bucket cutoff).
const SUB: u64 = 1 << SUB_BITS;
/// Bucket for `u64::MAX`: exponent 63, final sub-bucket.
const N_BUCKETS: usize = (((63 - SUB_BITS + 1) << SUB_BITS) + (SUB as u32 - 1)) as usize + 1;

/// Index of the bucket holding `v`.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    (((exp - SUB_BITS + 1) << SUB_BITS) as u64 + ((v >> (exp - SUB_BITS)) - SUB)) as usize
}

/// Largest value mapping to bucket `i` (the bucket's representative).
fn bucket_upper(i: usize) -> u64 {
    if i < SUB as usize {
        return i as u64;
    }
    let block = (i >> SUB_BITS) as u32; // 1-based power-of-two block
    let offset = (i as u64) & (SUB - 1);
    let width_bits = block - 1;
    ((SUB + offset) << width_bits) + ((1u64 << width_bits) - 1)
}

/// A concurrent, mergeable, log-bucketed histogram of `u64` values.
///
/// Roughly 15 kB of atomics; create one per tracked quantity and record
/// from any thread without coordination.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            buckets: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Zero every bucket and statistic.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    /// A point-in-time copy, for quantile queries and merging.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An owned copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl HistogramSnapshot {
    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`: an upper bound for the
    /// rank-`⌈q·count⌉` recorded value, within one sub-bucket's width
    /// (≤ ~3.1% relative) of it. Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(i).clamp(self.min(), self.max);
            }
        }
        self.max
    }

    /// Merge another snapshot into this one. `merge(a, b)` answers
    /// quantile queries exactly as a histogram that recorded both value
    /// streams would (buckets add; no information is lost beyond the
    /// bucketing both sides already share).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..SUB {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), SUB);
        for v in 0..SUB {
            let q = (v + 1) as f64 / SUB as f64;
            assert_eq!(s.quantile(q), v);
        }
    }

    #[test]
    fn bucket_index_and_upper_are_consistent() {
        // Every value maps into a bucket whose upper bound is >= the value
        // and within 1/32 relative error of it; bucket uppers increase.
        let mut prev_upper = None;
        for shift in 0..60 {
            for base in [1u64, 3, 17, 31] {
                let v = base << shift;
                let i = bucket_index(v);
                let u = bucket_upper(i);
                assert!(u >= v, "upper {u} < value {v}");
                assert!(u - v <= v / SUB + 1, "upper {u} too far above {v}");
                assert_eq!(
                    bucket_index(u),
                    i,
                    "upper bound must live in its own bucket"
                );
                let _ = prev_upper.replace(u);
            }
        }
        assert_eq!(bucket_index(u64::MAX), N_BUCKETS - 1);
        assert_eq!(bucket_upper(N_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn quantiles_bound_rank_error() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v * 7);
        }
        let s = h.snapshot();
        for q in [0.1f64, 0.5, 0.9, 0.99, 1.0] {
            let exact = ((q * 10_000.0).ceil() as u64) * 7;
            let est = s.quantile(q);
            assert!(est >= exact, "q={q}: {est} < exact {exact}");
            assert!(
                est - exact <= exact / SUB + 1,
                "q={q}: {est} too far from {exact}"
            );
        }
    }

    #[test]
    fn empty_and_reset() {
        let h = Histogram::new();
        assert_eq!(h.snapshot().quantile(0.5), 0);
        assert_eq!(h.snapshot().min(), 0);
        h.record(42);
        h.reset();
        let s = h.snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.max(), 0);
    }

    #[test]
    fn merge_matches_concat() {
        let a = Histogram::new();
        let b = Histogram::new();
        let both = Histogram::new();
        for v in 0..1000u64 {
            let x = (v * v) % 77_777;
            if v % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
            both.record(x);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, both.snapshot());
    }
}
