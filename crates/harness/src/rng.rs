//! A small deterministic PRNG so the experiment harness (and the root
//! crate's randomized tests) need no external `rand` dependency — the
//! tier-1 build must succeed offline with an empty cargo registry.
//!
//! The API deliberately mirrors the subset of `rand` the repository uses
//! (`gen_range` over `Range`/`RangeInclusive`, a `Distribution` trait), so
//! call sites read the same as they would against the real crate.

use std::ops::{Range, RangeInclusive};

/// Uniform random source. Implemented by [`XorShift64`]; generators only
/// need to provide `next_u64`.
pub trait Rng {
    fn next_u64(&mut self) -> u64;

    /// Uniform `u8`.
    fn gen_u8(&mut self) -> u8
    where
        Self: Sized,
    {
        (self.next_u64() >> 56) as u8
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    fn gen_f64(&mut self) -> f64
    where
        Self: Sized,
    {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform value from a half-open or inclusive range.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }
}

/// Range types `gen_range` accepts, mirroring `rand::distributions::uniform`.
pub trait SampleRange<T> {
    fn sample_from<R: Rng>(self, rng: &mut R) -> T;
}

/// Unbiased-enough uniform draw in `[0, span)` via 128-bit multiply-shift.
fn below<R: Rng>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    ((rng.next_u64() as u128 * span as u128) >> 64) as u64
}

macro_rules! impl_sample_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: Rng>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + below(rng, span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: Rng>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + below(rng, span + 1) as i128) as $t
            }
        }
    )*};
}

impl_sample_int!(usize, u64, u32, i64, i32);

impl SampleRange<f64> for Range<f64> {
    fn sample_from<R: Rng>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range");
        let v = self.start + rng.gen_f64() * (self.end - self.start);
        // Guard against landing exactly on `end` through rounding.
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

/// A sampling distribution over `T`, mirroring `rand::distributions::Distribution`.
pub trait Distribution<T> {
    fn sample<R: Rng>(&self, rng: &mut R) -> T;
}

/// xorshift64* — 64 bits of state, passes SmallCrush; plenty for workload
/// generation and property tests. Seeded through SplitMix64 so that
/// consecutive small seeds give uncorrelated streams.
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        XorShift64 { state: z | 1 }
    }
}

impl Rng for XorShift64 {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Deterministically derive the seed for worker `stream` from a base
/// seed: one SplitMix64 finalization over `base + (stream+1)·φ64`. Each
/// worker thread of a multi-threaded run seeds its own [`XorShift64`]
/// from `derive_seed(scenario_seed, worker_index)`, so runs are
/// reproducible regardless of thread scheduling, and consecutive stream
/// indexes give uncorrelated generators.
pub fn derive_seed(base: u64, stream: u64) -> u64 {
    let mut z = base.wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Zipf-distributed ranks in `1..=n` with exponent `s > 0`, sampled by
/// rejection-inversion (Hörmann & Derflinger, "Rejection-inversion to
/// generate variates from monotone discrete distributions", 1996 — the
/// same scheme as Apache Commons' `RejectionInversionZipfSampler`).
///
/// ## Accuracy bound
///
/// Unlike the previous implementation (a precomputed, renormalized CDF
/// whose per-rank probabilities carried O(n·ε) accumulated float error
/// and O(n) setup cost), rejection-inversion samples the *exact* Zipf
/// distribution: the envelope is inverted analytically and wrong
/// candidates are rejected, so the only deviation from the true
/// probability mass function is f64 rounding in `exp`/`ln` — relative
/// per-rank error is a few ULPs (< 1e-12), independent of `n`.
/// Construction is O(1) and each sample draws ~1.1 uniforms on average.
///
/// Valid for any `s > 0` including `s = 1` (the `expm1`/`ln_1p` helpers
/// keep `H` and its inverse stable as `1 - s → 0`).
#[derive(Debug, Clone)]
pub struct Zipf {
    n: f64,
    s: f64,
    /// `H(1.5) - h(1)`: the left edge of the envelope's support.
    h_x1: f64,
    /// `H(n + 0.5)`: the right edge of the envelope's support.
    h_n: f64,
    /// Acceptance shortcut: candidates within this distance of the
    /// inverted point are accepted without evaluating `H`.
    accept_cut: f64,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1, "zipf needs at least one rank");
        assert!(s > 0.0 && s.is_finite(), "zipf exponent must be positive");
        let nf = n as f64;
        let h_x1 = h_integral(1.5, s) - 1.0;
        let h_n = h_integral(nf + 0.5, s);
        let accept_cut = if n >= 2 {
            2.0 - h_integral_inverse(h_integral(2.5, s) - h(2.0, s), s)
        } else {
            // n == 1: every sample is rank 1; the cut is irrelevant.
            1.0
        };
        Zipf {
            n: nf,
            s,
            h_x1,
            h_n,
            accept_cut,
        }
    }

    /// Draw one rank in `1..=n`.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        loop {
            // u uniform in (h_x1, h_n]: gen_f64() ∈ [0,1) maps 0 → h_n.
            let u = self.h_n + rng.gen_f64() * (self.h_x1 - self.h_n);
            let x = h_integral_inverse(u, self.s);
            let k = x.round().clamp(1.0, self.n);
            // Accept k when it is close enough to x that the envelope
            // cannot overshoot, or when u lands under h(k) directly.
            if k - x <= self.accept_cut || u >= h_integral(k + 0.5, self.s) - h(k, self.s) {
                return k as usize;
            }
        }
    }
}

/// `H(x) = ∫ x^-s dx = (x^(1-s) - 1) / (1 - s)`, stable for `s ≈ 1`
/// (where it degenerates to `ln x`).
fn h_integral(x: f64, s: f64) -> f64 {
    let log_x = x.ln();
    helper1((1.0 - s) * log_x) * log_x
}

/// `h(x) = x^-s`.
fn h(x: f64, s: f64) -> f64 {
    (-s * x.ln()).exp()
}

/// Inverse of [`h_integral`]: `H⁻¹(y) = (1 + y(1-s))^(1/(1-s))`.
fn h_integral_inverse(y: f64, s: f64) -> f64 {
    let mut t = y * (1.0 - s);
    if t < -1.0 {
        // Numerical round-off can push t below the pole; clamp so the
        // result stays within the distribution's support.
        t = -1.0;
    }
    (helper2(t) * y).exp()
}

/// `(e^x - 1) / x`, stable near 0.
fn helper1(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.exp_m1() / x
    } else {
        1.0 + x * 0.5 * (1.0 + x / 3.0 * (1.0 + x * 0.25))
    }
}

/// `ln(1 + x) / x`, stable near 0.
fn helper2(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.ln_1p() / x
    } else {
        1.0 - x * 0.5 * (1.0 - 2.0 * x / 3.0 * (1.0 - 0.75 * x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_a_seed() {
        let mut a = XorShift64::seed_from_u64(7);
        let mut b = XorShift64::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = XorShift64::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = XorShift64::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = r.gen_range(3..17usize);
            assert!((3..17).contains(&v));
            let v = r.gen_range(0..=5usize);
            assert!(v <= 5);
            let f = r.gen_range(0.25..0.75f64);
            assert!((0.25..0.75).contains(&f));
            let n = r.gen_range(-10..10i64);
            assert!((-10..10).contains(&n));
        }
    }

    #[test]
    fn derived_seeds_are_distinct_and_stable() {
        let a = derive_seed(42, 0);
        assert_eq!(a, derive_seed(42, 0), "derivation is deterministic");
        let mut seen = std::collections::BTreeSet::new();
        for stream in 0..64 {
            assert!(seen.insert(derive_seed(42, stream)), "stream collision");
        }
        assert_ne!(derive_seed(42, 0), derive_seed(43, 0));
        // Streams must be uncorrelated, not just distinct: the generators
        // they seed should diverge immediately.
        let mut r0 = XorShift64::seed_from_u64(derive_seed(7, 0));
        let mut r1 = XorShift64::seed_from_u64(derive_seed(7, 1));
        assert_ne!(r0.next_u64(), r1.next_u64());
    }

    /// Exact Zipf pmf: `p(k) = k^-s / Σ_{j=1..n} j^-s`.
    fn zipf_pmf(n: usize, s: f64, k: usize) -> f64 {
        let total: f64 = (1..=n).map(|j| (j as f64).powf(-s)).sum();
        (k as f64).powf(-s) / total
    }

    #[test]
    fn zipf_matches_exact_pmf_across_exponents() {
        // Covers s < 1, the s = 1 special case, and s > 1. With 200k
        // samples the binomial standard error of p(1) is well under 1%
        // relative, so a 5% tolerance is a real distribution check.
        const N: usize = 1000;
        const SAMPLES: usize = 200_000;
        for (seed, s) in [(11u64, 0.9f64), (12, 1.0), (13, 1.2)] {
            let z = Zipf::new(N, s);
            let mut r = XorShift64::seed_from_u64(seed);
            let mut counts = vec![0u64; N + 1];
            for _ in 0..SAMPLES {
                let k = z.sample(&mut r);
                assert!((1..=N).contains(&k), "rank {k} out of range");
                counts[k] += 1;
            }
            for k in [1usize, 2, 5, 10] {
                let expected = zipf_pmf(N, s, k) * SAMPLES as f64;
                let got = counts[k] as f64;
                assert!(
                    (got - expected).abs() / expected < 0.05,
                    "s={s} rank {k}: got {got}, expected {expected:.0}"
                );
            }
        }
    }

    #[test]
    fn zipf_degenerate_and_deterministic() {
        let z = Zipf::new(1, 1.1);
        let mut r = XorShift64::seed_from_u64(5);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut r), 1);
        }
        let z = Zipf::new(500, 1.1);
        let mut a = XorShift64::seed_from_u64(9);
        let mut b = XorShift64::seed_from_u64(9);
        for _ in 0..1000 {
            assert_eq!(z.sample(&mut a), z.sample(&mut b));
        }
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let mut r = XorShift64::seed_from_u64(2);
        let z = Zipf::new(1000, 1.1);
        let samples: Vec<usize> = (0..5000).map(|_| z.sample(&mut r)).collect();
        let low = samples.iter().filter(|&&s| s <= 10).count();
        let high = samples.iter().filter(|&&s| s > 500).count();
        assert!(low > high * 2, "low {low} vs high {high}");
        assert!(samples.iter().all(|&s| (1..=1000).contains(&s)));
    }

    #[test]
    fn roughly_uniform() {
        let mut r = XorShift64::seed_from_u64(99);
        let mut counts = [0usize; 8];
        for _ in 0..80_000 {
            counts[r.gen_range(0..8usize)] += 1;
        }
        for &c in &counts {
            assert!(
                (9_000..11_000).contains(&c),
                "bucket count {c} far from 10k"
            );
        }
    }
}
