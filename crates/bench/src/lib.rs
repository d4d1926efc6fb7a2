//! Shared workload generators and helpers for the experiment harness.
//!
//! Each table/figure of the paper has a dedicated binary under `src/bin`
//! (see DESIGN.md §3 for the experiment index).

pub mod json;
pub mod rng;

use crate::rng::{Distribution, Rng, XorShift64};

pub use crate::rng::{derive_seed, Zipf};

use record_layer::expr::KeyExpression;
use record_layer::metadata::{Index, RecordMetaData, RecordMetaDataBuilder};
use rl_message::{DescriptorPool, FieldDescriptor, FieldType, MessageDescriptor};

/// Deterministic RNG for reproducible experiments.
pub fn rng(seed: u64) -> XorShift64 {
    XorShift64::seed_from_u64(seed)
}

/// A log-normal sampler via Box–Muller (avoids extra dependencies).
pub struct LogNormal {
    pub mu: f64,
    pub sigma: f64,
}

impl Distribution<f64> for LogNormal {
    fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (self.mu + self.sigma * z).exp()
    }
}

/// A synthetic vocabulary with word lengths matched to the paper's Table 2
/// corpus statistics (mean token length ≈ 7.8 characters).
pub fn vocabulary(rng: &mut XorShift64, size: usize) -> Vec<String> {
    const SYLLABLES: &[&str] = &[
        "wha", "le", "ish", "ma", "el", "sea", "har", "poon", "ship", "cap", "tain", "oce", "an",
        "deep", "wave", "sail", "mast", "crew", "hunt", "tide",
    ];
    (0..size)
        .map(|i| {
            let syllables = 2 + (rng.gen_range(0..3));
            let mut w = String::new();
            for _ in 0..syllables {
                w.push_str(SYLLABLES[rng.gen_range(0..SYLLABLES.len())]);
            }
            // Suffix with the index so every vocabulary entry is distinct.
            w.push_str(&format!("{i:x}"));
            w
        })
        .collect()
}

/// Generate a document of roughly `target_bytes` with Zipfian token
/// frequencies over `vocab`.
pub fn document(
    rng: &mut XorShift64,
    vocab: &[String],
    zipf: &Zipf,
    target_bytes: usize,
) -> String {
    let mut doc = String::with_capacity(target_bytes + 16);
    while doc.len() < target_bytes {
        let word = &vocab[zipf.sample(rng) - 1];
        doc.push_str(word);
        doc.push(' ');
    }
    doc
}

/// The descriptor pool used by most experiments: a CloudKit-ish record
/// with an id, a couple of indexed scalars, and a text body.
pub fn experiment_pool() -> DescriptorPool {
    let mut pool = DescriptorPool::new();
    pool.add_message(
        MessageDescriptor::new(
            "Item",
            vec![
                FieldDescriptor::optional("id", 1, FieldType::Int64),
                FieldDescriptor::optional("group", 2, FieldType::String),
                FieldDescriptor::optional("score", 3, FieldType::Int64),
                FieldDescriptor::optional("body", 4, FieldType::String),
                FieldDescriptor::optional("payload", 5, FieldType::Bytes),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    pool
}

/// Metadata with a configurable number of VALUE indexes (for the index
/// maintenance cost sweeps).
pub fn metadata_with_value_indexes(n: usize) -> RecordMetaData {
    let mut pool = DescriptorPool::new();
    let mut fields = vec![FieldDescriptor::optional("id", 1, FieldType::Int64)];
    for i in 0..n.max(1) {
        fields.push(FieldDescriptor::optional(
            format!("f{i}"),
            2 + i as u32,
            FieldType::Int64,
        ));
    }
    pool.add_message(MessageDescriptor::new("Item", fields).unwrap())
        .unwrap();
    let mut builder =
        RecordMetaDataBuilder::new(pool).record_type("Item", KeyExpression::field("id"));
    for i in 0..n {
        builder = builder.index(
            "Item",
            Index::value(format!("by_f{i}"), KeyExpression::field(format!("f{i}"))),
        );
    }
    builder.build().unwrap()
}

/// Metadata for the Item record with group/score/body indexes.
pub fn item_metadata(with_text: bool, with_rank: bool) -> RecordMetaData {
    let mut builder = RecordMetaDataBuilder::new(experiment_pool())
        .record_type("Item", KeyExpression::field("id"))
        .index(
            "Item",
            Index::value("by_group", KeyExpression::field("group")),
        )
        .index(
            "Item",
            Index::value(
                "by_group_score",
                KeyExpression::concat_fields("group", "score"),
            ),
        )
        .index(
            "Item",
            Index::sum(
                "score_sum",
                KeyExpression::field("group"),
                KeyExpression::field("score"),
            ),
        )
        .index("Item", Index::count("item_count", KeyExpression::Empty));
    if with_text {
        builder = builder.index(
            "Item",
            Index::text("body_text", KeyExpression::field("body")),
        );
    }
    if with_rank {
        builder = builder.index(
            "Item",
            Index::rank("score_rank", KeyExpression::field("score")),
        );
    }
    builder.build().unwrap()
}

/// Simple fixed-bucket log2 histogram.
#[derive(Debug, Clone)]
pub struct Log2Histogram {
    pub buckets: Vec<u64>,
}

impl Log2Histogram {
    pub fn new(max_pow: usize) -> Self {
        Log2Histogram {
            buckets: vec![0; max_pow + 1],
        }
    }

    pub fn add(&mut self, value: u64) {
        let b = (64 - value.max(1).leading_zeros() as usize).min(self.buckets.len() - 1);
        self.buckets[b] += 1;
    }

    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }
}

/// Percentile of a sorted slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lognormal_is_positive_and_heavy_tailed() {
        let mut r = rng(1);
        let dist = LogNormal {
            mu: 5.5,
            sigma: 2.0,
        };
        let samples: Vec<f64> = (0..5000).map(|_| dist.sample(&mut r)).collect();
        assert!(samples.iter().all(|&s| s > 0.0));
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[sorted.len() / 2];
        assert!(
            mean > 2.0 * median,
            "heavy tail: mean {mean} vs median {median}"
        );
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let mut r = rng(2);
        let z = Zipf::new(1000, 1.1);
        let samples: Vec<usize> = (0..5000).map(|_| z.sample(&mut r)).collect();
        let low = samples.iter().filter(|&&s| s <= 10).count();
        let high = samples.iter().filter(|&&s| s > 500).count();
        assert!(low > high * 2, "low {low} vs high {high}");
        assert!(samples.iter().all(|&s| (1..=1000).contains(&s)));
    }

    #[test]
    fn documents_hit_target_size() {
        let mut r = rng(3);
        let vocab = vocabulary(&mut r, 500);
        let zipf = Zipf::new(500, 1.05);
        let doc = document(&mut r, &vocab, &zipf, 5000);
        assert!(doc.len() >= 5000 && doc.len() < 5200);
    }

    #[test]
    fn histogram_buckets() {
        let mut h = Log2Histogram::new(12);
        h.add(1);
        h.add(1024);
        h.add(u64::MAX); // clamps to last bucket
        assert_eq!(h.total(), 3);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[11], 1); // 1024 has 11 significant bits
        assert_eq!(h.buckets[12], 1); // clamped
    }

    #[test]
    fn metadata_builders_are_valid() {
        let md = metadata_with_value_indexes(5);
        assert_eq!(md.indexes().count(), 5);
        let md = item_metadata(true, true);
        assert!(md.index("body_text").is_ok());
        assert!(md.index("score_rank").is_ok());
    }
}
