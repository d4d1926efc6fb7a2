//! The arithmetic every reported number goes through, and the generators
//! every input comes from.

use std::collections::BTreeSet;

use rl_benchmark::json::Json;
use rl_benchmark::rng::{class_deck, Rng, Scatter, Zipf};
use rl_benchmark::stats::{
    drift_share, median, percentile, quantile, quiet_quartile, round_spread, spread_across_runs,
    Better,
};

#[test]
fn percentile_is_exact_nearest_rank() {
    let s: Vec<u64> = (1..=100).collect();
    assert_eq!(percentile(&s, 0.5), 50);
    assert_eq!(percentile(&s, 0.95), 95);
    assert_eq!(percentile(&s, 0.99), 99);
    assert_eq!(percentile(&s, 1.0), 100);
    assert_eq!(percentile(&s, 0.0), 1);
    assert_eq!(percentile(&[7], 0.95), 7);
    assert_eq!(percentile(&[1, 2, 3], 0.5), 2);
    assert_eq!(percentile(&[1, 2, 3, 4], 0.5), 2);
    // The result is always one of the samples, never an interpolation.
    assert_eq!(percentile(&[10, 1_000], 0.95), 1_000);
}

#[test]
fn interpolated_quantiles() {
    let v = [4.0, 1.0, 3.0, 2.0];
    assert_eq!(quantile(&v, 0.0), 1.0);
    assert_eq!(quantile(&v, 1.0), 4.0);
    assert_eq!(median(&v), 2.5);
    assert_eq!(quantile(&v, 0.25), 1.75);
}

#[test]
fn quiet_quartile_takes_the_good_side() {
    // Eleven quiet rounds and one disturbed one.
    let mut lat = vec![10.0; 11];
    lat.push(30.0);
    assert_eq!(quiet_quartile(&lat, Better::Lower), 10.0);
    let thr: Vec<f64> = lat.iter().map(|l| 1000.0 / l).collect();
    assert_eq!(quiet_quartile(&thr, Better::Higher), 100.0);
    let ramp: Vec<f64> = (1..=9).map(f64::from).collect();
    assert_eq!(quiet_quartile(&ramp, Better::Lower), 3.0);
    assert_eq!(quiet_quartile(&ramp, Better::Higher), 7.0);
}

#[test]
fn noise_and_stationarity_gauges() {
    let flat = [2.0; 12];
    assert_eq!(round_spread(&flat), 0.0);
    assert_eq!(drift_share(&flat), 0.0);
    let slowing: Vec<f64> = (0..12).map(|i| 1.0 + 0.1 * f64::from(i)).collect();
    // Last third (1.8..2.1, median 1.95) over first third (1.0..1.3, 1.15).
    assert!((drift_share(&slowing) - (1.95 / 1.15 - 1.0)).abs() < 1e-12);
    assert!(round_spread(&slowing) > 0.3);
    assert_eq!(drift_share(&[1.0, 2.0]), 1.0);
}

#[test]
fn spread_matches_python_statistics_quantiles() {
    // (q[2] - q[0]) / median of statistics.quantiles(values, n=4).
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert!((spread_across_runs(&ten) - 1.0).abs() < 1e-12);
    let six = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6];
    assert!((spread_across_runs(&six) - 1.383_928_571_428_571_6).abs() < 1e-12);
    assert!((spread_across_runs(&[1.0, 2.0]) - 1.0).abs() < 1e-12);
}

#[test]
fn same_seed_same_stream_and_streams_do_not_overlap() {
    let draw = |seed, stream| {
        let mut r = Rng::derive(seed, stream);
        (0..2_000).map(|_| r.next_u64()).collect::<Vec<u64>>()
    };
    assert_eq!(draw(7, 3), draw(7, 3));
    // Neighbouring streams and seeds must not be one sequence a few draws
    // apart (the failure of `seed + stream · constant` seeding).
    let mut seen = BTreeSet::new();
    let mut total = 0;
    for seed in 1..=4 {
        for stream in 0..8 {
            for v in draw(seed, stream) {
                seen.insert(v);
                total += 1;
            }
        }
    }
    assert_eq!(seen.len(), total);
}

#[test]
fn zipf_is_skewed_and_in_range() {
    let z = Zipf::new(1000, 0.99);
    let mut rng = Rng::new(1);
    let mut top10 = 0;
    for _ in 0..20_000 {
        let r = z.sample(&mut rng);
        assert!(r < 1000);
        if r < 10 {
            top10 += 1;
        }
    }
    // H(10) / H(1000) at s = 0.99 is about 0.39.
    assert!((6_500..9_500).contains(&top10), "{top10}");
}

#[test]
fn scatter_is_a_bijection() {
    let mut rng = Rng::new(9);
    for n in [1usize, 2, 7, 100, 2000] {
        let sc = Scatter::new(n, &mut rng);
        let ids: BTreeSet<u64> = (0..n).map(|rank| sc.id(rank)).collect();
        assert_eq!(ids.len(), n);
        assert!(ids.iter().all(|&id| id < n as u64));
    }
}

#[test]
fn class_deck_has_exact_proportions() {
    let mix = [50, 20, 10, 0, 0, 0, 0, 20];
    let deck = class_deck(&mix, 1_000, &mut Rng::new(3));
    assert_eq!(deck.len(), 1_000);
    for (class, &w) in mix.iter().enumerate() {
        let n = deck.iter().filter(|&&c| c as usize == class).count();
        assert_eq!(n, w as usize * 10, "class {class}");
    }
    // A length the weights do not divide: the remainder goes to classes
    // that have weight, never to a disabled one.
    let odd = class_deck(&mix, 1_003, &mut Rng::new(3));
    assert_eq!(odd.len(), 1_003);
    assert!(odd.iter().all(|&c| mix[c as usize] > 0));
    // Shuffled, not sorted.
    assert!(deck.windows(2).any(|w| w[0] > w[1]));
}

#[test]
fn json_round_trips() {
    let doc = Json::obj()
        .with("name", "a \"quoted\"\nline")
        .with("n", 1.25)
        .with("big", 12_345_678_901_234u64)
        .with("flag", true)
        .with(
            "items",
            vec![Json::Num(1.0), Json::Null, Json::obj().with("k", "v")],
        );
    assert_eq!(Json::parse(&doc.to_line()).unwrap(), doc);
    assert_eq!(Json::parse(&doc.to_pretty()).unwrap(), doc);
    assert!(!doc.to_line().contains('\n'));
    assert!(Json::parse("[1, 2] x").is_err());
    assert!(Json::parse("[1 2]").is_err());
    // Every digit that was measured survives.
    let v = 1_234.567_891_234_5;
    assert_eq!(
        Json::parse(&Json::Num(v).to_line()).unwrap().as_f64(),
        Some(v)
    );
}
