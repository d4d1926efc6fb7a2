//! Property tests for the `rl_obs` log-bucketed histogram, driven by the
//! harness's deterministic RNG: randomized value streams across the
//! full dynamic range, checked against exact order statistics.

use rl_harness::rng::{Rng, XorShift64};
use rl_obs::{Histogram, HistogramSnapshot};

/// Sub-buckets per power-of-two range in the histogram layout; the
/// documented relative error of a quantile estimate is one part in this.
const SUB: u64 = 32;

/// A log-uniform sample: uniform exponent, then uniform within the range,
/// so every power-of-two block of the histogram gets exercised.
fn log_uniform(rng: &mut XorShift64, max_bits: u32) -> u64 {
    let bits = rng.gen_range(0..=max_bits);
    if bits == 0 {
        return rng.gen_range(0u64..2);
    }
    rng.gen_range((1u64 << (bits - 1))..(1u64 << bits))
}

/// The exact rank the histogram's `quantile` documents: the
/// `⌈q·count⌉`-th smallest recorded value (1-indexed, clamped).
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[test]
fn quantile_rank_error_is_bounded_on_random_streams() {
    let mut rng = XorShift64::seed_from_u64(0x0b5e_aab1e);
    for round in 0..20 {
        let n = rng.gen_range(1usize..4000);
        let max_bits = rng.gen_range(1u32..48);
        let h = Histogram::new();
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            let v = log_uniform(&mut rng, max_bits);
            h.record(v);
            values.push(v);
        }
        values.sort_unstable();
        let s = h.snapshot();
        assert_eq!(s.count() as usize, n);
        assert_eq!(s.min(), values[0]);
        assert_eq!(s.max(), *values.last().unwrap());

        for _ in 0..50 {
            let q = rng.gen_range(0.0f64..1.0);
            let exact = exact_quantile(&values, q);
            let est = s.quantile(q);
            // The estimate is an upper bound on the exact order statistic,
            // within one sub-bucket's width (≤ 1/32 relative, +1 for the
            // integer bucket edge).
            assert!(
                est >= exact,
                "round {round}: q={q}: estimate {est} below exact {exact}"
            );
            assert!(
                est - exact <= exact / SUB + 1,
                "round {round}: q={q}: estimate {est} too far above exact {exact} (n={n})"
            );
        }
    }
}

#[test]
fn merge_is_equivalent_to_recording_the_concatenated_stream() {
    let mut rng = XorShift64::seed_from_u64(0xc0a1e5ce);
    for round in 0..10 {
        let a = Histogram::new();
        let b = Histogram::new();
        let concat = Histogram::new();
        let n = rng.gen_range(0usize..3000);
        let max_bits = rng.gen_range(1u32..60);
        for _ in 0..n {
            let v = log_uniform(&mut rng, max_bits);
            // Random, uneven split between the two shards.
            if rng.gen_range(0u64..10) < 3 {
                a.record(v);
            } else {
                b.record(v);
            }
            concat.record(v);
        }

        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        let expected = concat.snapshot();
        // Snapshot equality is bucket-for-bucket, so every quantile and
        // statistic agrees with a histogram that saw the whole stream.
        assert_eq!(merged, expected, "round {round} (n={n})");
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(
                merged.quantile(q),
                expected.quantile(q),
                "round {round} q={q}"
            );
        }
    }
}

#[test]
fn merge_order_does_not_matter() {
    let mut rng = XorShift64::seed_from_u64(7);
    let shards: Vec<Histogram> = (0..4).map(|_| Histogram::new()).collect();
    for _ in 0..2000 {
        let v = log_uniform(&mut rng, 40);
        shards[rng.gen_range(0usize..4)].record(v);
    }
    let snaps: Vec<HistogramSnapshot> = shards.iter().map(|h| h.snapshot()).collect();

    let mut forward = snaps[0].clone();
    for s in &snaps[1..] {
        forward.merge(s);
    }
    let mut backward = snaps[3].clone();
    for s in snaps[..3].iter().rev() {
        backward.merge(s);
    }
    assert_eq!(forward, backward);
}
