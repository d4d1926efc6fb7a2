//! The named scenario registry.
//!
//! The paper's figure/table workloads used to be standalone bench bins
//! (`fig1_store_sizes`, `fig5_rank_index`, `table1_concurrency`,
//! `table2_text_bunching`); they are now thin declarative presets over
//! the shared driver, so every one of them reports the same schema and
//! can be compared run-over-run with `--compare`.

use crate::sampler::OpMix;
use crate::scenario::{Extra, IndexMix, Scenario, SizeDist};

/// Every registered preset, in listing order. `mixed_default` first:
/// it is the headline scenario CI and `--compare` baselines use.
pub fn all() -> Vec<Scenario> {
    vec![
        mixed_default(),
        fig1_store_sizes(),
        fig5_rank_index(),
        table1_concurrency(),
        table2_text_bunching(),
        concurrency_scaling(),
        concurrency_contended(),
    ]
}

/// Look up a preset by name.
pub fn by_name(name: &str) -> Option<Scenario> {
    all().into_iter().find(|s| s.name == name)
}

/// The default mixed workload: every query shape enabled against a
/// store with the full index mix, moderate write share, Zipfian skew.
pub fn mixed_default() -> Scenario {
    Scenario {
        name: "mixed_default".into(),
        description: "all query shapes + writes over the full index mix, zipfian skew".into(),
        tenants: 4,
        records_per_tenant: 2000,
        groups: 20,
        score_mod: 100,
        payload: SizeDist::Fixed(100),
        body_bytes: 0,
        indexes: IndexMix {
            value: true,
            rank: true,
            atomic: true,
            version: true,
            text: false,
        },
        ops: OpMix {
            point_get: 30,
            range_scan: 15,
            covering_scan: 10,
            intersection: 5,
            union: 5,
            in_query: 5,
            rank: 5,
            insert: 10,
            update: 15,
        },
        zipf_s: 1.1,
        partition_tenants: false,
        think_time_us: 0,
        threads: 4,
        total_ops: 20_000,
        seed: 42,
        extras: vec![],
    }
}

/// Figure 1: record store size distribution. Many small tenants with
/// heavy-tailed log-normal payloads; the `store_sizes` extra reports
/// the two panels (fraction of stores vs fraction of bytes by size).
pub fn fig1_store_sizes() -> Scenario {
    Scenario {
        name: "fig1_store_sizes".into(),
        description: "heavy-tailed per-tenant store sizes (paper Figure 1)".into(),
        tenants: 64,
        records_per_tenant: 24,
        groups: 4,
        score_mod: 100,
        payload: SizeDist::LogNormal {
            mu: 5.2,
            sigma: 2.0,
            min: 16,
            max: 32_768,
        },
        body_bytes: 0,
        indexes: IndexMix {
            value: true,
            rank: false,
            atomic: false,
            version: false,
            text: false,
        },
        ops: OpMix {
            point_get: 40,
            range_scan: 20,
            insert: 30,
            update: 10,
            ..OpMix::none()
        },
        zipf_s: 1.05,
        partition_tenants: false,
        think_time_us: 0,
        threads: 2,
        total_ops: 4_000,
        seed: 42,
        extras: vec![Extra::StoreSizes],
    }
}

/// Figure 5: the RANK index. Rank-heavy reads against one leaderboard
/// store with score updates churning the skip list.
pub fn fig5_rank_index() -> Scenario {
    Scenario {
        name: "fig5_rank_index".into(),
        description: "leaderboard rank lookups vs score churn (paper Figure 5)".into(),
        tenants: 1,
        records_per_tenant: 6400,
        groups: 8,
        score_mod: 640_000,
        payload: SizeDist::Fixed(32),
        body_bytes: 0,
        indexes: IndexMix {
            value: true,
            rank: true,
            atomic: false,
            version: false,
            text: false,
        },
        ops: OpMix {
            rank: 60,
            point_get: 15,
            range_scan: 5,
            update: 20,
            ..OpMix::none()
        },
        zipf_s: 1.1,
        partition_tenants: false,
        think_time_us: 0,
        threads: 2,
        total_ops: 8_000,
        seed: 5,
        extras: vec![],
    }
}

/// Table 1's concurrency row: many writers hammering a small hot set in
/// one store. The record-level OCC conflict rate is the headline number
/// (the zone-CAS baseline would serialize every one of these).
pub fn table1_concurrency() -> Scenario {
    Scenario {
        name: "table1_concurrency".into(),
        description: "hot-set writers, record-level OCC conflict rate (paper Table 1)".into(),
        tenants: 1,
        records_per_tenant: 512,
        groups: 8,
        score_mod: 100,
        payload: SizeDist::Fixed(64),
        body_bytes: 0,
        indexes: IndexMix {
            value: true,
            rank: false,
            atomic: true,
            version: true,
            text: false,
        },
        ops: OpMix {
            update: 70,
            insert: 10,
            point_get: 20,
            ..OpMix::none()
        },
        zipf_s: 1.3,
        partition_tenants: false,
        think_time_us: 250,
        threads: 8,
        total_ops: 8_000,
        seed: 1,
        extras: vec![],
    }
}

/// The scaling half of the parallel-simulator bench: each worker is
/// pinned to its own tenant, and tenants occupy disjoint key prefixes,
/// so commits validate and apply through disjoint conflict shards.
/// Read-leaning so snapshot reads (which share the store lock) dominate;
/// the write share commits through the exclusive store lock under the
/// shared budget.
pub fn concurrency_scaling() -> Scenario {
    Scenario {
        name: "concurrency_scaling".into(),
        description: "disjoint-tenant workers through disjoint conflict shards (scaling)".into(),
        tenants: 8,
        records_per_tenant: 1000,
        groups: 8,
        score_mod: 100,
        payload: SizeDist::Fixed(64),
        body_bytes: 0,
        indexes: IndexMix {
            value: true,
            rank: false,
            atomic: false,
            version: true,
            text: false,
        },
        ops: OpMix {
            point_get: 55,
            range_scan: 15,
            covering_scan: 10,
            update: 15,
            insert: 5,
            ..OpMix::none()
        },
        zipf_s: 1.1,
        partition_tenants: true,
        think_time_us: 250,
        threads: 8,
        total_ops: 16_000,
        seed: 11,
        extras: vec![],
    }
}

/// The contended counterpart of [`concurrency_scaling`]: identical op
/// mix and budget, but every worker hammers the same single tenant with
/// hot-set skew, so commits collide in the same conflict shards and the
/// sweep shows where sharding stops helping (conflict rate climbs with
/// threads instead of throughput).
pub fn concurrency_contended() -> Scenario {
    Scenario {
        name: "concurrency_contended".into(),
        description: "one hot tenant shared by all workers (contended counterpart)".into(),
        tenants: 1,
        records_per_tenant: 1000,
        groups: 8,
        score_mod: 100,
        payload: SizeDist::Fixed(64),
        body_bytes: 0,
        indexes: IndexMix {
            value: true,
            rank: false,
            atomic: false,
            version: true,
            text: false,
        },
        ops: OpMix {
            point_get: 55,
            range_scan: 15,
            covering_scan: 10,
            update: 15,
            insert: 5,
            ..OpMix::none()
        },
        zipf_s: 1.3,
        partition_tenants: false,
        think_time_us: 250,
        threads: 8,
        total_ops: 16_000,
        seed: 11,
        extras: vec![],
    }
}

/// Table 2: the TEXT index bunched map. Zipfian documents, text index
/// maintained transactionally; the `text_stats` extra reports index
/// keys, bytes, and average bunch fill.
pub fn table2_text_bunching() -> Scenario {
    Scenario {
        name: "table2_text_bunching".into(),
        description: "text-indexed documents, bunched-map size stats (paper Table 2)".into(),
        tenants: 1,
        records_per_tenant: 233,
        groups: 8,
        score_mod: 100,
        payload: SizeDist::Fixed(16),
        body_bytes: 2_000,
        indexes: IndexMix {
            value: true,
            rank: false,
            atomic: false,
            version: false,
            text: true,
        },
        ops: OpMix {
            point_get: 40,
            range_scan: 10,
            insert: 25,
            update: 25,
            ..OpMix::none()
        },
        zipf_s: 0.9,
        partition_tenants: false,
        think_time_us: 0,
        threads: 2,
        total_ops: 2_000,
        seed: 7,
        extras: vec![Extra::TextStats],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_preset_validates_and_builds_metadata() {
        let presets = all();
        assert!(presets.len() >= 5);
        let mut names: Vec<&str> = presets.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(names, dedup, "preset names must be unique");
        for preset in &presets {
            preset
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", preset.name));
            let md = preset.metadata();
            assert!(md.record_type("Item").is_ok(), "{}", preset.name);
            assert!(
                !preset.description.is_empty(),
                "{} needs a description",
                preset.name
            );
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("mixed_default").is_some());
        assert!(by_name("fig5_rank_index").is_some());
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn reimplemented_bins_are_registered() {
        for name in [
            "fig1_store_sizes",
            "fig5_rank_index",
            "table1_concurrency",
            "table2_text_bunching",
        ] {
            assert!(by_name(name).is_some(), "missing preset {name}");
        }
    }

    #[test]
    fn concurrency_pair_differs_only_in_contention() {
        let scaling = by_name("concurrency_scaling").unwrap();
        let contended = by_name("concurrency_contended").unwrap();
        assert!(scaling.partition_tenants);
        assert!(scaling.tenants >= scaling.threads);
        assert!(!contended.partition_tenants);
        assert_eq!(contended.tenants, 1);
        // Same op mix and budget: the sweep isolates contention, not load.
        assert_eq!(
            scaling.ops.json().to_pretty(),
            contended.ops.json().to_pretty()
        );
        assert_eq!(scaling.total_ops, contended.total_ops);
    }
}
