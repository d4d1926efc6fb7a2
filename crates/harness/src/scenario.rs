//! The declarative scenario model: everything a workload run needs,
//! expressed as plain data so presets are definitions rather than
//! programs.

use crate::json::Json;
use crate::sampler::{OpKind, OpMix};
use record_layer::expr::KeyExpression;
use record_layer::metadata::{Index, RecordMetaData, RecordMetaDataBuilder};
use rl_message::{DescriptorPool, FieldDescriptor, FieldType, MessageDescriptor};

/// Distribution of the opaque `payload` field's size per record.
#[derive(Debug, Clone)]
pub enum SizeDist {
    /// Every record carries exactly this many payload bytes.
    Fixed(usize),
    /// Heavy-tailed log-normal (the paper's Figure 1 store-size shape),
    /// clamped to `[min, max]`.
    LogNormal {
        mu: f64,
        sigma: f64,
        min: usize,
        max: usize,
    },
}

impl SizeDist {
    fn json(&self) -> Json {
        match self {
            SizeDist::Fixed(bytes) => Json::obj().with("kind", "fixed").with("bytes", *bytes),
            SizeDist::LogNormal {
                mu,
                sigma,
                min,
                max,
            } => Json::obj()
                .with("kind", "log_normal")
                .with("mu", *mu)
                .with("sigma", *sigma)
                .with("min", *min)
                .with("max", *max),
        }
    }
}

/// Which index families the scenario's metadata declares. Every family
/// maps to real index maintenance work on the write path and to the
/// query shapes that need it on the read path.
#[derive(Debug, Clone, Copy)]
pub struct IndexMix {
    /// VALUE indexes: `by_group`, `by_score`, and the compound
    /// `by_group_score` (required by every query-shape op).
    pub value: bool,
    /// RANK index `score_rank` (skip list; required by [`OpKind::Rank`]).
    pub rank: bool,
    /// Atomic aggregates: `score_sum` (SUM by group) and `item_count`.
    pub atomic: bool,
    /// Per-record VERSION index + versionstamped record versions.
    pub version: bool,
    /// TEXT index `body_text` over the document body (bunched map).
    pub text: bool,
}

/// Extra per-run measurements a preset can request, reported under the
/// `extras` key (absent measurements are emitted as `{}` so the schema
/// stays identical across engines for a given scenario).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Extra {
    /// Per-tenant primary-record byte sizes (Figure 1's two panels:
    /// most stores are small, most bytes live in large stores).
    StoreSizes,
    /// TEXT index size and bunching statistics (Table 2).
    TextStats,
}

/// A complete workload description. Presets construct these; the CLI
/// can override the knobs that change scale (ops, threads, records).
#[derive(Debug, Clone)]
pub struct Scenario {
    pub name: String,
    pub description: String,
    /// Independent record stores, each under its own subspace.
    pub tenants: usize,
    pub records_per_tenant: usize,
    /// Distinct `group` values per tenant (`id % groups`).
    pub groups: i64,
    /// Score modulus: `score = id % score_mod`.
    pub score_mod: i64,
    pub payload: SizeDist,
    /// Bytes of Zipfian text per record body (0 = short fixed body).
    pub body_bytes: usize,
    pub indexes: IndexMix,
    pub ops: OpMix,
    /// Zipfian exponent for record/tenant selection skew.
    pub zipf_s: f64,
    /// Pin worker `i` to tenant `i % tenants` instead of sampling the
    /// tenant Zipfian per op. Disjoint tenants occupy disjoint key
    /// prefixes, so partitioned workers commit through disjoint
    /// conflict shards — the scaling half of `concurrency_scaling`.
    pub partition_tenants: bool,
    /// Modeled client round-trip per completed op, in µs (YCSB think
    /// time). `0` = closed loop at full speed. The concurrency sweeps
    /// use this to measure *overlap*: with an RTT between ops, adding
    /// worker threads raises throughput only as far as the simulator
    /// lets their in-flight ops proceed concurrently, so a reintroduced
    /// global serialization point shows up as a flat sweep. Think time
    /// is excluded from the reported op latency percentiles.
    pub think_time_us: u64,
    pub threads: usize,
    /// Closed-loop op budget shared by all workers.
    pub total_ops: u64,
    pub seed: u64,
    pub extras: Vec<Extra>,
}

impl Scenario {
    /// Check internal consistency; every registered preset must pass.
    pub fn validate(&self) -> Result<(), String> {
        if self.tenants == 0 {
            return Err("tenants must be >= 1".into());
        }
        if self.records_per_tenant == 0 {
            return Err("records_per_tenant must be >= 1".into());
        }
        if self.groups <= 0 || self.score_mod <= 0 {
            return Err("groups and score_mod must be >= 1".into());
        }
        if self.threads == 0 {
            return Err("threads must be >= 1".into());
        }
        if self.total_ops == 0 {
            return Err("total_ops must be >= 1".into());
        }
        if self.zipf_s.is_nan() || self.zipf_s <= 0.0 {
            return Err("zipf_s must be > 0".into());
        }
        if self.ops.total() == 0 {
            return Err("op mix has no weight".into());
        }
        if self.ops.weight(OpKind::Rank) > 0 && !self.indexes.rank {
            return Err("rank ops require the rank index".into());
        }
        if !self.indexes.value && self.ops.query_weight() > 0 {
            return Err("query-shape ops require the value indexes".into());
        }
        if self.extras.contains(&Extra::TextStats) && !self.indexes.text {
            return Err("the text_stats extra requires the text index".into());
        }
        if self.indexes.text && self.body_bytes == 0 {
            return Err("the text index needs body_bytes > 0".into());
        }
        match self.payload {
            SizeDist::Fixed(_) => {}
            SizeDist::LogNormal {
                min, max, sigma, ..
            } => {
                if min > max || sigma.is_nan() || sigma <= 0.0 {
                    return Err("log-normal payload needs min <= max, sigma > 0".into());
                }
            }
        }
        Ok(())
    }

    /// Build the record metadata the scenario's index mix declares.
    /// All scenarios share the `Item` schema of `experiment_pool`.
    pub fn metadata(&self) -> RecordMetaData {
        let mut builder = RecordMetaDataBuilder::new(experiment_pool())
            .record_type("Item", KeyExpression::field("id"))
            .store_record_versions(self.indexes.version);
        if self.indexes.value {
            builder = builder
                .index(
                    "Item",
                    Index::value("by_group", KeyExpression::field("group")),
                )
                .index(
                    "Item",
                    Index::value("by_score", KeyExpression::field("score")),
                )
                .index(
                    "Item",
                    Index::value(
                        "by_group_score",
                        KeyExpression::concat_fields("group", "score"),
                    ),
                );
        }
        if self.indexes.atomic {
            builder = builder
                .index(
                    "Item",
                    Index::sum(
                        "score_sum",
                        KeyExpression::field("group"),
                        KeyExpression::field("score"),
                    ),
                )
                .index("Item", Index::count("item_count", KeyExpression::Empty));
        }
        if self.indexes.rank {
            builder = builder.index(
                "Item",
                Index::rank("score_rank", KeyExpression::field("score")),
            );
        }
        if self.indexes.version {
            builder = builder.index(
                "Item",
                Index::version("by_version", KeyExpression::field("id")),
            );
        }
        if self.indexes.text {
            builder = builder.index(
                "Item",
                Index::text("body_text", KeyExpression::field("body")),
            );
        }
        builder.build().expect("scenario metadata must build")
    }

    /// The scenario as it went into the run, embedded in the report so
    /// a JSON file is self-describing (and `--compare` can refuse to
    /// diff different scenarios).
    pub fn json(&self) -> Json {
        Json::obj()
            .with("name", self.name.as_str())
            .with("description", self.description.as_str())
            .with("tenants", self.tenants)
            .with("records_per_tenant", self.records_per_tenant)
            .with("groups", self.groups)
            .with("score_mod", self.score_mod)
            .with("payload", self.payload.json())
            .with("body_bytes", self.body_bytes)
            .with(
                "indexes",
                Json::obj()
                    .with("value", self.indexes.value)
                    .with("rank", self.indexes.rank)
                    .with("atomic", self.indexes.atomic)
                    .with("version", self.indexes.version)
                    .with("text", self.indexes.text),
            )
            .with("ops", self.ops.json())
            .with("zipf_s", self.zipf_s)
            .with("partition_tenants", self.partition_tenants)
            .with("think_time_us", self.think_time_us)
            .with("threads", self.threads)
            .with("total_ops", self.total_ops)
            .with("seed", self.seed)
            .with(
                "extras",
                self.extras
                    .iter()
                    .map(|e| {
                        Json::from(match e {
                            Extra::StoreSizes => "store_sizes",
                            Extra::TextStats => "text_stats",
                        })
                    })
                    .collect::<Vec<Json>>(),
            )
    }
}

/// The descriptor pool every scenario uses: a CloudKit-ish record with
/// an id, a couple of indexed scalars, a text body and an opaque payload.
fn experiment_pool() -> DescriptorPool {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Scenario {
        Scenario {
            name: "t".into(),
            description: String::new(),
            tenants: 1,
            records_per_tenant: 10,
            groups: 2,
            score_mod: 10,
            payload: SizeDist::Fixed(16),
            body_bytes: 0,
            indexes: IndexMix {
                value: true,
                rank: false,
                atomic: false,
                version: false,
                text: false,
            },
            ops: OpMix {
                point_get: 1,
                ..OpMix::none()
            },
            zipf_s: 1.0,
            partition_tenants: false,
            think_time_us: 0,
            threads: 1,
            total_ops: 10,
            seed: 1,
            extras: vec![],
        }
    }

    #[test]
    fn validation_catches_inconsistencies() {
        assert!(base().validate().is_ok());

        let mut s = base();
        s.ops = OpMix {
            rank: 1,
            ..OpMix::none()
        };
        assert!(s.validate().is_err(), "rank ops without rank index");

        let mut s = base();
        s.extras = vec![Extra::TextStats];
        assert!(s.validate().is_err(), "text stats without text index");

        let mut s = base();
        s.ops = OpMix::none();
        assert!(s.validate().is_err(), "empty op mix");

        let mut s = base();
        s.zipf_s = 0.0;
        assert!(s.validate().is_err(), "zero zipf exponent");
    }

    #[test]
    fn metadata_tracks_the_index_mix() {
        let mut s = base();
        s.indexes = IndexMix {
            value: true,
            rank: true,
            atomic: true,
            version: true,
            text: true,
        };
        s.body_bytes = 100;
        let md = s.metadata();
        for idx in [
            "by_group",
            "by_score",
            "by_group_score",
            "score_sum",
            "item_count",
            "score_rank",
            "by_version",
            "body_text",
        ] {
            assert!(md.index(idx).is_ok(), "missing {idx}");
        }

        let lean = base().metadata();
        assert!(lean.index("score_rank").is_err());
        assert!(lean.index("body_text").is_err());
    }
}
