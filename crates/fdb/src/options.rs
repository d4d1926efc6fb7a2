//! What a [`Database`](crate::Database) is opened with: FoundationDB's
//! documented limits, the storage engine choice, and the tunables of the
//! MVCC window and compaction.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use rl_storage::{EvictionPolicy, MemoryEngine, PagedEngine, SharedIoCounters, StorageEngine};

/// FoundationDB's documented key size limit (10 kB).
pub const KEY_SIZE_LIMIT: usize = 10_000;
/// FoundationDB's documented value size limit (100 kB).
pub const VALUE_SIZE_LIMIT: usize = 100_000;
/// FoundationDB's documented transaction size limit (10 MB).
pub const TRANSACTION_SIZE_LIMIT: usize = 10_000_000;
/// The 5-second transaction time limit, in (logical) milliseconds.
pub const TRANSACTION_TIME_LIMIT_MS: u64 = 5_000;
/// FoundationDB advances ~1,000,000 versions per second of wall time.
pub const VERSIONS_PER_MS: u64 = 1_000;

/// Which storage engine backs the simulated cluster.
#[derive(Debug, Clone, Default)]
pub enum EngineKind {
    /// The original ordered in-memory multi-version map.
    #[default]
    InMemory,
    /// Disk-backed engine: buffer pool + copy-on-write B-tree + WAL.
    Paged(PagedConfig),
}

impl EngineKind {
    /// Parse an engine spec string — the same grammar as the `RL_ENGINE`
    /// environment variable: exactly `memory` or `paged` (an ephemeral
    /// temp directory). Anything else is an error that names the grammar,
    /// so a typo never selects another engine.
    pub fn from_spec(spec: &str) -> std::result::Result<EngineKind, String> {
        match spec {
            "memory" => Ok(EngineKind::InMemory),
            "paged" => Ok(EngineKind::Paged(PagedConfig::ephemeral())),
            _ => Err(format!(
                "unknown engine spec {spec:?}: want memory or paged"
            )),
        }
    }

    /// Short engine family name: `memory` or `paged`.
    pub fn kind_name(&self) -> &'static str {
        match self {
            EngineKind::InMemory => "memory",
            EngineKind::Paged(_) => "paged",
        }
    }
}

/// Configuration for the disk-backed engine.
#[derive(Debug, Clone)]
pub struct PagedConfig {
    /// Directory holding the page file and WAL (created if missing).
    pub path: PathBuf,
    /// The buffer pool's budget in 4 KiB pages (minimum 4): its images
    /// may cost up to `pool_pages × 4 KiB` of memory, each charged its own
    /// size, so a pool of part-full pages holds more images than this.
    pub pool_pages: usize,
    /// Ignored: the pool always evicts with SIEVE. Kept so that callers
    /// naming it still compile (see [`EvictionPolicy`]).
    pub eviction: EvictionPolicy,
    /// Delete `path` when the database is dropped. Set for the ephemeral
    /// engines `RL_ENGINE=paged` conjures under the OS temp directory;
    /// leave unset to keep a database across processes.
    pub remove_dir_on_drop: bool,
}

impl PagedConfig {
    /// An ephemeral on-disk engine under the OS temp directory, removed
    /// when the database is dropped. Each call gets a distinct directory.
    pub fn ephemeral() -> PagedConfig {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        PagedConfig {
            path: std::env::temp_dir().join(format!("rl-paged-{}-{n}", std::process::id())),
            pool_pages: 256,
            eviction: EvictionPolicy::Sieve,
            remove_dir_on_drop: true,
        }
    }
}

/// Tunable limits; defaults match FoundationDB's production limits.
#[derive(Debug, Clone)]
pub struct DatabaseOptions {
    pub transaction_size_limit: usize,
    pub transaction_time_limit_ms: u64,
    /// How many versions of history the resolvers keep for conflict
    /// checking, and the storage keeps for MVCC reads (5 logical seconds).
    pub mvcc_window_versions: u64,
    /// Compact shadowed MVCC versions every N commits: how often a commit
    /// has the engine drain its log of overwritten and cleared
    /// keys up to the MVCC horizon. A pass visits those keys only — its
    /// cost follows the writes of the last N commits, not the size of the
    /// store — so a smaller N spreads the same work over more, shorter
    /// passes and a larger one lets a key overwritten twice in between be
    /// visited once.
    pub compaction_interval: u64,
    /// Storage engine. The default honours the `RL_ENGINE` environment
    /// variable (`memory` or `paged`; `paged` uses an ephemeral temp
    /// directory), so the whole test suite can be re-run against the disk
    /// engine without code changes.
    pub engine: EngineKind,
}

impl Default for DatabaseOptions {
    fn default() -> Self {
        DatabaseOptions {
            transaction_size_limit: TRANSACTION_SIZE_LIMIT,
            transaction_time_limit_ms: TRANSACTION_TIME_LIMIT_MS,
            mvcc_window_versions: 5_000 * VERSIONS_PER_MS,
            compaction_interval: 256,
            engine: engine_from_env(),
        }
    }
}

/// Resolve `RL_ENGINE` into an engine selection (default: in-memory).
/// Panics on a value [`EngineKind::from_spec`] rejects: a test run asked
/// for one engine must not silently run on another.
fn engine_from_env() -> EngineKind {
    match std::env::var("RL_ENGINE") {
        Ok(value) => EngineKind::from_spec(&value).unwrap_or_else(|e| panic!("RL_ENGINE: {e}")),
        Err(_) => EngineKind::InMemory,
    }
}

/// Instantiate the engine an [`EngineKind`] describes, reporting I/O into
/// `io`. Returns the directory to delete on drop, when ephemeral.
pub(crate) fn build_engine(
    kind: &EngineKind,
    io: SharedIoCounters,
) -> (Box<dyn StorageEngine>, Option<PathBuf>) {
    match kind {
        EngineKind::InMemory => (Box::new(MemoryEngine::new()), None),
        EngineKind::Paged(cfg) => {
            let engine = PagedEngine::open(&cfg.path, cfg.pool_pages, cfg.eviction, io)
                .unwrap_or_else(|e| panic!("open paged engine at {}: {e}", cfg.path.display()));
            let cleanup = cfg.remove_dir_on_drop.then(|| cfg.path.clone());
            (Box::new(engine), cleanup)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_specs_parse_exactly() {
        let parse = |spec: &str| EngineKind::from_spec(spec).map(|k| k.kind_name());
        assert_eq!(parse("memory"), Ok("memory"));
        assert_eq!(parse("paged"), Ok("paged"));
        for bad in ["paged:sieve", "paged:lru", "paged:", "Paged", "disk", ""] {
            let err = EngineKind::from_spec(bad).unwrap_err();
            assert!(err.contains("want memory or paged"), "{bad:?}: {err}");
        }
    }
}
