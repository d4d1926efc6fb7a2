//! The benchmark's constants: the four workloads and the names and units
//! of every metric. `BENCHMARK.json` at the root of the repository lists
//! the same names; a self-test keeps the two in step.

use crate::items::ItemSpec;
use crate::stats::Better;
use crate::tenants::TenantSpec;
use crate::workload::Engine;

pub enum Workload {
    Items(ItemSpec),
    Tenants(TenantSpec),
}

/// How many rounds a workload runs. A run is a fixed op stream, never a
/// fixed duration: a faster build measures the same rounds in less time.
#[derive(Debug, Clone, Copy)]
pub struct Rounds {
    /// Discarded rounds before anything is measured. They cover the MVCC
    /// window (5 000 ops), several compaction intervals (256 commits), on
    /// the paged engine the first WAL checkpoints, and on the memory
    /// engine the 15 000 to 25 000 ops it takes the maps and the
    /// allocator to wear in (rounds before that run 4 to 6 % faster).
    pub warmup: usize,
    /// Measured rounds of a run of [`REFERENCE_SECONDS`]: sized so that
    /// they take that long on the reference box. `--seconds` scales the
    /// count in proportion.
    pub measured: usize,
}

/// The `--seconds` at which a run measures [`Rounds::measured`] rounds.
pub const REFERENCE_SECONDS: f64 = 10.0;

impl Workload {
    pub fn clients(&self) -> usize {
        match self {
            Workload::Items(_) => 1,
            Workload::Tenants(_) => crate::tenants::CLIENTS,
        }
    }

    pub fn rounds(&self) -> Rounds {
        match self {
            Workload::Items(spec) => spec.rounds,
            Workload::Tenants(spec) => spec.rounds,
        }
    }
}

pub const WORKLOADS: [&str; 4] = [
    "record_mix_mem",
    "record_mix_paged",
    "cloudkit_tenants_fit",
    "query_shapes_mem",
];

/// The record mix both `record_mix_*` workloads run: 50 point gets, 20
/// index queries, 10 covering scans, 20 updates.
const RECORD_MIX: [u32; 8] = [50, 20, 10, 0, 0, 0, 0, 20];
const RECORD_MIX_ITEMS: usize = 6_000;

/// Look a workload up by name. `smoke` shrinks population and round so
/// the whole suite runs in seconds (for the self-tests, not for numbers).
pub fn workload(name: &str, smoke: bool) -> Option<Workload> {
    let scale = |n: usize| if smoke { n / 10 } else { n };
    Some(match name {
        "record_mix_mem" => Workload::Items(ItemSpec {
            name: "record_mix_mem",
            engine: Engine::Memory,
            stores: 1,
            records_per_store: scale(RECORD_MIX_ITEMS),
            rank_index: false,
            mix: RECORD_MIX,
            ops_per_round: scale(5_000),
            rounds: Rounds {
                warmup: 6,
                measured: 29,
            },
        }),
        // The same population and op stream as `record_mix_mem`. The pool
        // is 1 MiB (256 pages of 4 KiB) against a page file of roughly
        // 9 MiB: the larger-than-cache case.
        "record_mix_paged" => Workload::Items(ItemSpec {
            name: "record_mix_paged",
            engine: Engine::Paged { pool_pages: 256 },
            stores: 1,
            records_per_store: scale(RECORD_MIX_ITEMS),
            rank_index: false,
            mix: RECORD_MIX,
            ops_per_round: scale(1_000),
            rounds: Rounds {
                warmup: 8,
                measured: 23,
            },
        }),
        // The pool (32 768 pages = 128 MiB) holds the whole page file, so
        // after warm-up every page request is a hit.
        "cloudkit_tenants_fit" => Workload::Tenants(TenantSpec {
            name: "cloudkit_tenants_fit",
            pool_pages: 32_768,
            users: scale(400),
            records_per_zone: 8,
            mix: [35, 20, 10, 25, 10],
            ops_per_round: scale(1_200),
            rounds: Rounds {
                warmup: 7,
                measured: 28,
            },
        }),
        "query_shapes_mem" => Workload::Items(ItemSpec {
            name: "query_shapes_mem",
            engine: Engine::Memory,
            stores: 4,
            records_per_store: scale(2_000),
            rank_index: true,
            mix: [20, 15, 10, 15, 15, 3, 7, 15],
            ops_per_round: scale(1_000),
            rounds: Rounds {
                warmup: 24,
                measured: 24,
            },
        }),
        _ => return None,
    })
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees. The same names on every workload.
pub const END_TO_END: [MetricDef; 11] = [
    lower("setup_s", "s"),
    higher("throughput_ops_s", "1/s"),
    lower("get_p50_us", "us"),
    lower("get_p95_us", "us"),
    lower("query_p50_us", "us"),
    lower("query_p95_us", "us"),
    lower("write_p50_us", "us"),
    lower("write_p95_us", "us"),
    lower("kv_write_bytes_per_user_byte", "B/B"),
    lower("stored_bytes_per_user_byte", "B/B"),
    lower("peak_rss_mb", "MB"),
];

/// Single layers; the prefix is the crate. A metric that does not apply
/// to a workload (page counters on the memory engine, `cloudkit.*` on the
/// item workloads) reads 0 there.
pub const PER_LAYER: [MetricDef; 48] = [
    lower("message.encode_us_per_record", "us"),
    lower("message.decode_us_per_record", "us"),
    lower("message.encoded_bytes_per_user_byte", "B/B"),
    lower("core.open_store_p50_us", "us"),
    lower("core.plan_p50_us", "us"),
    lower("core.execute_p50_us", "us"),
    lower("core.load_record_p50_us", "us"),
    lower("core.save_record_p50_us", "us"),
    lower("core.keys_read_per_row", "count"),
    lower("core.keys_written_per_save", "count"),
    lower("core.covering_scan_p50_us", "us"),
    lower("core.union_p50_us", "us"),
    lower("core.intersection_p50_us", "us"),
    lower("core.in_query_p50_us", "us"),
    lower("core.rank_p50_us", "us"),
    lower("core.in_query_keys_read_per_row", "count"),
    lower("fdb.begin_p50_us", "us"),
    lower("fdb.commit_p50_us", "us"),
    lower("fdb.commit_p99_us", "us"),
    lower("fdb.get_obs_p50_us", "us"),
    lower("fdb.get_range_obs_p50_us", "us"),
    lower("fdb.conflict_retry_share", "ratio"),
    lower("fdb.keys_read_per_op", "count"),
    lower("fdb.kv_bytes_written_per_op", "B"),
    higher("storage.page_hit_rate", "ratio"),
    lower("storage.pages_touched_per_read", "count"),
    lower("storage.page_misses_per_op", "count"),
    lower("storage.page_evictions_per_op", "count"),
    lower("storage.wal_appends_per_commit", "count"),
    lower("storage.page_flushes_per_commit", "count"),
    lower("storage.device_write_bytes_per_kv_byte", "B/B"),
    lower("storage.write_syscalls_per_commit", "count"),
    lower("storage.wal_append_obs_p50_us", "us"),
    lower("storage.page_read_obs_p50_us", "us"),
    lower("storage.page_flush_obs_p50_us", "us"),
    lower("storage.probe_get_p50_us", "us"),
    lower("storage.probe_range50_p50_us", "us"),
    lower("storage.probe_commit_p50_us", "us"),
    lower("storage.file_bytes_per_live_kv_byte", "B/B"),
    lower("cloudkit.save_p50_us", "us"),
    lower("cloudkit.load_p50_us", "us"),
    lower("cloudkit.sync_p50_us", "us"),
    lower("cloudkit.zone_count_p50_us", "us"),
    lower("cloudkit.sync_keys_read_per_change", "count"),
    lower("obs.tracing_overhead_share", "ratio"),
    lower("bench.unattributed_share", "ratio"),
    lower("bench.round_spread", "ratio"),
    lower("bench.drift_share", "ratio"),
];
