//! The database: commit pipeline, conflict detection, MVCC window
//! management, logical clock, and read-version caching.
//!
//! ## Parallel commit pipeline
//!
//! The original simulator funnelled every read and commit through one
//! `Arc<Mutex<Inner>>`. That global lock is now torn into four pieces,
//! each with its own [`LockRank`]:
//!
//! * **Conflict shards** (`shards`, [`LockRank::ConflictShard`]) — the
//!   recent-writes window is sharded by key range ([`CONFLICT_SHARDS`]
//!   shards, keyed on the first two key bytes). A committing transaction
//!   locks only the shards its conflict ranges touch, in ascending shard
//!   order, so commits over disjoint key spaces validate and apply in
//!   parallel.
//! * **Group-commit batcher** (`batcher`, [`LockRank::CommitBatch`]) —
//!   concurrent committers that passed validation enqueue their write
//!   sets; one becomes the *leader*, merges them into one batch sorted by
//!   key, and applies it with a single version allocation, a single engine
//!   call and (on the paged engine) a single WAL frame. Followers park on
//!   a condvar and collect their receipts.
//! * **Version core** (`core`, [`LockRank::VersionCore`]) — version
//!   allocation and compaction bookkeeping; a short critical section only
//!   the batch leader enters.
//! * **Store** (`store`, [`LockRank::DatabaseStore`]) — the storage
//!   engine behind an `RwLock`. Every engine read takes `&self`, so MVCC
//!   snapshot reads run under the shared lock, concurrently with each
//!   other, on either engine; a batch leader applies under the exclusive
//!   lock.
//!
//! `last_commit_version` and `oldest_version` are additionally published
//! as atomics (after the store apply, so a GRV can never hand out a
//! version the store has not materialized), making `getReadVersion`
//! entirely lock-free. The metadata version ([`crate::state_cache`]) is
//! published the same way, before `last_commit_version`, by the batch that
//! carries a write of its key.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};

use rl_storage::SharedIoCounters;

use crate::error::{Error, Result};
use crate::metrics::{Metrics, SharedMetrics};
use crate::state_cache::StateCache;
use crate::sync::{
    lock_ranked, lock_ranked_indexed, read_ranked, write_ranked, LockRank, RankedReadGuard,
};
use crate::transaction::Transaction;
use crate::write_set::{self, Tally, WriteSet};
use rl_storage::{EvictionPolicy, MemoryEngine, PagedEngine, StorageEngine};

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
/// Number of recent-writes conflict-index shards. Keys map to shards by
/// their first two bytes, so transactions over disjoint key prefixes
/// (e.g. different tenants) commit in parallel.
pub const CONFLICT_SHARDS: usize = 16;

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
    /// Buffer pool capacity in 4 kB pages (minimum 4).
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
    /// Compact shadowed MVCC versions every N commits: how often the
    /// batch leader has the engine drain its log of overwritten and cleared
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
fn build_engine(
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

// ------------------------------------------------------- shard mapping

/// The first two key bytes as a big-endian u16 (shorter keys are
/// zero-padded). Adjacent keys share prefixes, so a contiguous key range
/// resolves to a contiguous prefix interval.
fn prefix_value(key: &[u8]) -> u16 {
    let hi = key.first().copied().unwrap_or(0) as u16;
    let lo = key.get(1).copied().unwrap_or(0) as u16;
    (hi << 8) | lo
}

/// Which conflict shard a two-byte prefix belongs to.
fn shard_of_prefix(prefix: u16) -> usize {
    prefix as usize % CONFLICT_SHARDS
}

/// Bitmask (bit *i* = shard *i*) of the shards a half-open key range
/// `[begin, end)` can touch. Conservative: every key in the range maps to
/// a shard in the mask (extra shards only cost lock acquisitions, never
/// correctness). A range spanning `>= CONFLICT_SHARDS` prefixes covers
/// every shard.
fn range_shard_mask(begin: &[u8], end: &[u8]) -> u16 {
    let lo = prefix_value(begin);
    // Keys below `end` carry `end`'s own prefix whenever `end` has bytes
    // past the prefix. They also do when `end` is of the form [b, 0x00]
    // — exactly what `key_after` yields for the one-byte key [b], which
    // is in-range and zero-pads to `end`'s own prefix. Only a one-byte
    // `end`, or [b, c] with c != 0, lets the interval stop one short.
    let ends_prefix_unreachable = end.len() == 1 || (end.len() == 2 && end[1] != 0);
    let hi = if ends_prefix_unreachable {
        prefix_value(end).saturating_sub(1)
    } else {
        prefix_value(end)
    }
    .max(lo);
    if (hi - lo) as usize >= CONFLICT_SHARDS - 1 {
        return ALL_SHARDS;
    }
    let mut mask = 0u16;
    for p in lo..=hi {
        mask |= 1 << shard_of_prefix(p);
    }
    mask
}

/// Union of [`range_shard_mask`] over a conflict-range set.
fn conflict_shard_mask(ranges: &[(Vec<u8>, Vec<u8>)]) -> u16 {
    ranges
        .iter()
        .fold(0, |mask, (begin, end)| mask | range_shard_mask(begin, end))
}

/// Every conflict shard.
const ALL_SHARDS: u16 = u16::MAX >> (16 - CONFLICT_SHARDS);

/// The shards a commit locks: those its conflict ranges can touch — or all
/// of them when it writes the metadata-version key. Transactions that rely
/// on cached state check the metadata version under whatever shards they
/// hold (see [`Database::commit_internal`]) instead of reading the key, so
/// only the rare writer pays for the exclusion and every other commit's
/// mask stays what its own keys make it.
fn commit_shard_mask(
    read_conflicts: &[(Vec<u8>, Vec<u8>)],
    write_conflicts: &[(Vec<u8>, Vec<u8>)],
    writes_metadata_version: bool,
) -> u16 {
    if writes_metadata_version {
        ALL_SHARDS
    } else {
        conflict_shard_mask(read_conflicts) | conflict_shard_mask(write_conflicts)
    }
}

// --------------------------------------------------------- shared state

/// One entry in the conflict-detection window: the write conflict ranges of
/// a committed transaction, recorded under its commit version.
#[derive(Debug)]
struct CommittedWrites {
    version: u64,
    ranges: Vec<(Vec<u8>, Vec<u8>)>,
}

/// One shard of the recent-writes conflict index. Entries are ordered by
/// version (insertion happens under the shard lock, and versions allocate
/// monotonically while the inserting committer still holds the lock).
#[derive(Debug, Default)]
struct ConflictShard {
    window: VecDeque<CommittedWrites>,
}

/// The storage engine plus its cleanup obligation, behind the store
/// `RwLock`.
#[derive(Debug)]
struct Store {
    engine: Box<dyn StorageEngine>,
    /// Directory to delete once the engine has shut down (ephemeral paged
    /// engines only).
    cleanup_dir: Option<PathBuf>,
}

impl Drop for Store {
    fn drop(&mut self) {
        if let Some(dir) = self.cleanup_dir.take() {
            // Shut the engine down first so its final checkpoint lands
            // before the directory disappears.
            self.engine = Box::new(MemoryEngine::new());
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Version allocation + compaction bookkeeping: the short critical
/// section only a batch leader enters.
#[derive(Debug, Default)]
struct VersionCore {
    last_commit_version: u64,
    commits_since_compaction: u64,
}

/// A committer's enqueued work: its write set, handed over by move, and
/// whether it writes [`crate::METADATA_VERSION_KEY`]. The leader moves the
/// keys and values out of it into the engine.
struct PendingCommit {
    ticket: u64,
    writes: WriteSet,
    writes_metadata_version: bool,
}

/// What a batch member gets back from the leader.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CommitReceipt {
    pub(crate) version: u64,
    pub(crate) batch_order: u16,
    pub(crate) keys_written: u64,
    pub(crate) bytes_written: u64,
}

#[derive(Default)]
struct BatchState {
    queue: Vec<PendingCommit>,
    /// A leader is currently applying a batch; newcomers queue behind it.
    leader_active: bool,
    next_ticket: u64,
    /// Receipts published by the last leader, keyed by ticket.
    results: Vec<(u64, Result<CommitReceipt>)>,
}

/// Group-commit rendezvous: queue + condvar the followers park on.
#[derive(Default)]
struct CommitBatcher {
    state: Mutex<BatchState>,
    done: Condvar,
}

/// Handle to a simulated FoundationDB cluster. Clone freely; all clones
/// share state. Safe to use from multiple threads: snapshot reads run
/// under a shared store lock, and commits over disjoint key shards
/// validate and apply in parallel, batched through a group-commit leader.
#[derive(Clone)]
pub struct Database {
    /// Recent-writes conflict index, sharded by key prefix.
    shards: Arc<[Mutex<ConflictShard>; CONFLICT_SHARDS]>,
    /// Version allocation + compaction counters.
    core: Arc<Mutex<VersionCore>>,
    /// The storage engine (shared reads / exclusive commits).
    store: Arc<RwLock<Store>>,
    /// Group-commit batcher.
    batcher: Arc<CommitBatcher>,
    /// Latest commit version the store has materialized (lock-free GRV).
    last_commit: Arc<AtomicU64>,
    /// Read versions below this fail with `transaction_too_old`.
    oldest: Arc<AtomicU64>,
    /// The metadata version and the soft state it validates.
    state_cache: Arc<StateCache>,
    options: Arc<DatabaseOptions>,
    clock_ms: Arc<AtomicU64>,
    metrics: SharedMetrics,
    grv_calls: Arc<AtomicU64>,
    /// Test-only: make the next batch leader panic inside
    /// [`Self::lead_batch`], exercising the abdication-on-unwind path.
    #[cfg(test)]
    panic_next_batch: Arc<std::sync::atomic::AtomicBool>,
}

impl Database {
    /// A fresh, empty database with production-default limits.
    pub fn new() -> Self {
        Database::with_options(DatabaseOptions::default())
    }

    pub fn with_options(options: DatabaseOptions) -> Self {
        let metrics = Metrics::new_shared();
        let (engine, cleanup_dir) = build_engine(&options.engine, metrics.io_counters().clone());
        // A paged directory may already hold data: start at its highest
        // stored version, so the first read sees it and the first commit
        // lands above it. Zero for a new or in-memory engine.
        let stored_version = engine.newest_version();
        Database {
            shards: Arc::new(std::array::from_fn(
                |_| Mutex::new(ConflictShard::default()),
            )),
            core: Arc::new(Mutex::new(VersionCore {
                last_commit_version: stored_version,
                ..VersionCore::default()
            })),
            store: Arc::new(RwLock::new(Store {
                engine,
                cleanup_dir,
            })),
            batcher: Arc::new(CommitBatcher::default()),
            last_commit: Arc::new(AtomicU64::new(stored_version)),
            oldest: Arc::new(AtomicU64::new(0)),
            state_cache: Arc::new(StateCache::new(stored_version)),
            options: Arc::new(options),
            clock_ms: Arc::new(AtomicU64::new(0)),
            metrics,
            grv_calls: Arc::new(AtomicU64::new(0)),
            #[cfg(test)]
            panic_next_batch: Arc::new(std::sync::atomic::AtomicBool::new(false)),
        }
    }

    /// Short description of the storage engine backing this database.
    pub fn engine_description(&self) -> String {
        read_ranked(&self.store, LockRank::DatabaseStore)
            .engine
            .describe()
    }

    pub fn options(&self) -> &DatabaseOptions {
        &self.options
    }

    /// The sum of every dropped transaction's trace, beside the engine's
    /// I/O counters (see [`Metrics`]).
    pub fn metrics(&self) -> &SharedMetrics {
        &self.metrics
    }

    /// Number of `getReadVersion` round-trips issued so far. The paper's
    /// read-version caching (§4) exists to avoid these.
    pub fn grv_call_count(&self) -> u64 {
        self.grv_calls.load(Ordering::Relaxed)
    }

    // ------------------------------------------------------- logical clock

    /// Current logical time in milliseconds. Time passes only when
    /// [`advance_clock`](Self::advance_clock) is called, keeping the
    /// simulation deterministic.
    pub fn clock_ms(&self) -> u64 {
        self.clock_ms.load(Ordering::Relaxed)
    }

    /// Advance logical time; commit versions track the clock so that the
    /// MVCC window expires old read versions as real FDB would.
    pub fn advance_clock(&self, ms: u64) {
        self.clock_ms.fetch_add(ms, Ordering::Relaxed);
    }

    // ------------------------------------------------------- transactions

    /// Perform a `getReadVersion` (GRV): the latest commit version.
    /// Lock-free — the version is published atomically after each batch
    /// lands in the store.
    pub fn get_read_version(&self) -> u64 {
        let _t = rl_obs::Timer::start("grv");
        self.grv_calls.fetch_add(1, Ordering::Relaxed);
        self.last_commit.load(Ordering::Acquire)
    }

    /// Begin a transaction at the latest read version.
    pub fn create_transaction(&self) -> Transaction {
        let rv = self.get_read_version();
        Transaction::new(self.clone(), rv, self.clock_ms())
    }

    /// Begin a transaction at a caller-supplied read version (used by the
    /// Record Layer's read-version cache). Fails with `FutureVersion` if the
    /// version has not been committed yet, or `TransactionTooOld` if it has
    /// fallen out of the MVCC window.
    pub fn create_transaction_at(&self, read_version: u64) -> Result<Transaction> {
        if read_version > self.last_commit.load(Ordering::Acquire) {
            return Err(Error::FutureVersion);
        }
        if read_version < self.oldest.load(Ordering::Acquire) {
            return Err(Error::TransactionTooOld);
        }
        Ok(Transaction::new(
            self.clone(),
            read_version,
            self.clock_ms(),
        ))
    }

    /// Retry loop, like the bindings' `Database::run`: runs `f` in a fresh
    /// transaction, commits, and retries on retryable errors (conflicts,
    /// transaction-too-old), up to `max_retries`.
    pub fn run<T>(&self, mut f: impl FnMut(&Transaction) -> Result<T>) -> Result<T> {
        const MAX_RETRIES: usize = 64;
        let mut last_err = Error::NotCommitted;
        for _ in 0..MAX_RETRIES {
            let tx = self.create_transaction();
            match f(&tx).and_then(|out| tx.commit().map(|()| out)) {
                Ok(out) => return Ok(out),
                Err(e) if e.is_retryable() => last_err = e,
                Err(e) => return Err(e),
            }
        }
        Err(last_err)
    }

    pub(crate) fn state_cache(&self) -> &StateCache {
        &self.state_cache
    }

    // -------------------------------------------------------- storage access
    // (crate-internal: used by Transaction for snapshot reads)

    /// The shared store lock for a read at `read_version`, which must still
    /// be inside the MVCC window.
    fn store_for_read(&self, read_version: u64) -> Result<RankedReadGuard<'_, Store>> {
        let waiting = rl_obs::Timer::start("store_lock_wait_read");
        let store = read_ranked(&self.store, LockRank::DatabaseStore);
        drop(waiting);
        // `oldest` only advances under the exclusive store lock, so this
        // check stays valid for the lifetime of the shared guard.
        if read_version < self.oldest.load(Ordering::Acquire) {
            return Err(Error::TransactionTooOld);
        }
        Ok(store)
    }

    pub(crate) fn storage_get(&self, key: &[u8], read_version: u64) -> Result<Option<Vec<u8>>> {
        let store = self.store_for_read(read_version)?;
        Ok(store.engine.get(key, read_version))
    }

    /// Up to `limit` rows of `[begin, end)` visible at `read_version`, in
    /// scan direction. The engine stops at the limit, so the store lock is
    /// held for a bounded read, not for the whole range.
    pub(crate) fn storage_range(
        &self,
        begin: &[u8],
        end: &[u8],
        read_version: u64,
        reverse: bool,
        limit: usize,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let store = self.store_for_read(read_version)?;
        Ok(store.engine.scan(begin, end, read_version, reverse, limit))
    }

    // --------------------------------------------------------------- commit

    /// Validate a transaction's read conflict ranges against the window of
    /// recently committed writes, then apply its write set at a fresh
    /// commit version — FDB's resolver + proxy pipeline. Validation holds
    /// only the conflict shards the transaction touches (ascending order),
    /// so disjoint commits proceed in parallel; application goes through
    /// the group-commit batcher, which charges one version allocation and
    /// one engine batch-seal per *batch* of concurrent committers.
    /// Returns the commit version, the order within its batch, and the
    /// keys/bytes written, which the transaction counts in its trace. The
    /// write set is taken from `writes` once validation has passed: a
    /// commit refused before that keeps its writes.
    ///
    /// `relied_on_metadata_version`: the transaction used state from the
    /// [`StateCache`] in place of reads. It conflicts with any write of the
    /// metadata-version key after its read version, without that key being
    /// in its conflict set (one key in every read set would put one shard
    /// into every commit's mask): a commit with `writes_metadata_version`
    /// holds *every* shard until the new version is published, so whichever
    /// shards this commit holds, the check below runs either before that
    /// writer took them — and this commit is ordered before it — or after
    /// it published.
    pub(crate) fn commit_internal(
        &self,
        read_version: u64,
        read_conflicts: &[(Vec<u8>, Vec<u8>)],
        write_conflicts: &[(Vec<u8>, Vec<u8>)],
        writes: &mut WriteSet,
        relied_on_metadata_version: bool,
        writes_metadata_version: bool,
    ) -> Result<CommitReceipt> {
        if read_version < self.oldest.load(Ordering::Acquire) {
            return Err(Error::TransactionTooOld);
        }

        // Lock the conflict shards this transaction's ranges can touch,
        // in ascending shard order (the ConflictShard indexed band).
        let mask = commit_shard_mask(read_conflicts, write_conflicts, writes_metadata_version);
        let mut held = Vec::with_capacity(mask.count_ones() as usize);
        let acquiring = rl_obs::Timer::start("shard_acquire");
        for idx in 0..CONFLICT_SHARDS {
            if mask & (1 << idx) != 0 {
                held.push((
                    idx,
                    lock_ranked_indexed(&self.shards[idx], LockRank::ConflictShard, idx),
                ));
            }
        }
        drop(acquiring);

        // Re-check expiry now that we hold our shards: `oldest` may have
        // advanced past our read version while we were acquiring.
        if read_version < self.oldest.load(Ordering::Acquire) {
            return Err(Error::TransactionTooOld);
        }

        if relied_on_metadata_version && self.state_cache.metadata_version() > read_version {
            return Err(Error::NotCommitted);
        }

        // Conflict detection: any committed write range newer than our read
        // version that intersects any of our read ranges aborts us. Each
        // shard's window is ordered by version, so scan newest-first and
        // stop at our read version.
        for (_, shard) in &held {
            for committed in shard.window.iter().rev() {
                if committed.version <= read_version {
                    break;
                }
                for (wa, wb) in &committed.ranges {
                    for (ra, rb) in read_conflicts {
                        if ranges_intersect(ra, rb, wa, wb) {
                            return Err(Error::NotCommitted);
                        }
                    }
                }
            }
        }

        // Apply through the group-commit batcher. We still hold our shard
        // locks, so no conflicting transaction can validate against a
        // window that does not yet contain our writes — and every member
        // of one batch is pairwise shard-disjoint by construction, which
        // is what makes a shared commit version sound.
        let receipt = self.batched_apply(std::mem::take(writes), writes_metadata_version)?;

        // Record our write conflict ranges for future validations, in
        // every shard the write set touches (duplicated per shard so each
        // shard's window is self-contained).
        if !write_conflicts.is_empty() {
            let write_mask = conflict_shard_mask(write_conflicts);
            let horizon = self.oldest.load(Ordering::Acquire);
            for (idx, shard) in &mut held {
                if write_mask & (1 << *idx) == 0 {
                    continue;
                }
                while shard.window.front().is_some_and(|c| c.version < horizon) {
                    shard.window.pop_front();
                }
                shard.window.push_back(CommittedWrites {
                    version: receipt.version,
                    ranges: write_conflicts.to_vec(),
                });
            }
        }
        Ok(receipt)
    }

    /// Group commit: enqueue this committer's write set; whoever finds
    /// no leader active drains the queue and leads the batch, everyone
    /// else parks until the leader publishes their receipt. Callers hold
    /// their conflict-shard locks throughout, which the leader never
    /// takes — the rank order ConflictShard < CommitBatch < VersionCore <
    /// DatabaseStore keeps the whole rendezvous deadlock-free.
    fn batched_apply(
        &self,
        writes: WriteSet,
        writes_metadata_version: bool,
    ) -> Result<CommitReceipt> {
        // From joining the queue to leading a batch or holding a receipt.
        let queued = rl_obs::Timer::start("batch_queue_wait");
        let mut st = lock_ranked(&self.batcher.state, LockRank::CommitBatch);
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.queue.push(PendingCommit {
            ticket,
            writes,
            writes_metadata_version,
        });
        loop {
            if let Some(pos) = st.results.iter().position(|(t, _)| *t == ticket) {
                return st.results.swap_remove(pos).1;
            }
            if !st.leader_active {
                st.leader_active = true;
                let batch = std::mem::take(&mut st.queue);
                drop(st);
                drop(queued);
                return self.lead_and_publish(ticket, batch);
            }
            st.wait_on(&self.batcher.done);
        }
    }

    /// Leader path: apply the batch, then publish everyone's receipts and
    /// hand leadership off. (Separate from [`Self::batched_apply`] so the
    /// batcher lock is provably released before the leader re-acquires
    /// it.)
    ///
    /// If the leader panics mid-batch (say a storage-engine bug while it
    /// holds the store write lock), leadership is still handed back on
    /// unwind and every parked follower gets a `CommitUnknownResult`
    /// receipt — otherwise `leader_active` would stay set forever and
    /// every later committer would park on the condvar indefinitely,
    /// defeating the poison recovery `sync` promises.
    fn lead_and_publish(&self, ticket: u64, batch: Vec<PendingCommit>) -> Result<CommitReceipt> {
        /// Clears `leader_active` and fails the followers' commits if the
        /// leader unwinds before publishing; disarmed on the normal path.
        struct AbdicateOnUnwind<'a> {
            batcher: &'a CommitBatcher,
            follower_tickets: Vec<u64>,
            armed: bool,
        }
        impl Drop for AbdicateOnUnwind<'_> {
            fn drop(&mut self) {
                if !self.armed {
                    return;
                }
                let mut st = lock_ranked(&self.batcher.state, LockRank::CommitBatch);
                st.leader_active = false;
                for &t in &self.follower_tickets {
                    st.results.push((t, Err(Error::CommitUnknownResult)));
                }
                drop(st);
                self.batcher.done.notify_all();
            }
        }
        // The leader's own caller observes the panic directly; publishing
        // a receipt for it would leave an orphan in `results` forever.
        let mut guard = AbdicateOnUnwind {
            batcher: &self.batcher,
            follower_tickets: batch
                .iter()
                .map(|p| p.ticket)
                .filter(|t| *t != ticket)
                .collect(),
            armed: true,
        };
        let mut results = self.lead_batch(batch);
        let own = results
            .iter()
            .position(|(t, _)| *t == ticket)
            .expect("leader's own commit in batch");
        let own = results.swap_remove(own).1;
        guard.armed = false;
        let mut st = lock_ranked(&self.batcher.state, LockRank::CommitBatch);
        st.leader_active = false;
        st.results.append(&mut results);
        drop(st);
        self.batcher.done.notify_all();
        own
    }

    /// Apply a batch: one version allocation, every member's write set at
    /// that version (distinguished by batch order) merged into one sorted
    /// engine batch, one engine batch seal — i.e. one WAL frame on the
    /// paged engine — then publish the version. Runs without the batcher
    /// lock; takes VersionCore then DatabaseStore.
    fn lead_batch(&self, batch: Vec<PendingCommit>) -> Vec<(u64, Result<CommitReceipt>)> {
        // Assign the batch's commit version: strictly increasing, and at
        // least the clock-implied version so versions track logical time.
        let mut core = lock_ranked(&self.core, LockRank::VersionCore);
        let clock_version = self.clock_ms() * VERSIONS_PER_MS;
        let version = (core.last_commit_version + 1).max(clock_version);
        core.last_commit_version = version;
        core.commits_since_compaction += batch.len() as u64;
        let compact_now = core.commits_since_compaction >= self.options.compaction_interval;
        if compact_now {
            core.commits_since_compaction = 0;
        }
        drop(core);

        let horizon = version.saturating_sub(self.options.mvcc_window_versions);
        let bumps_metadata_version = batch.iter().any(|p| p.writes_metadata_version);
        let waiting = rl_obs::Timer::start("store_lock_wait_leader");
        let mut store = write_ranked(&self.store, LockRank::DatabaseStore);
        drop(waiting);
        // Injected while the store write lock is held — the worst spot a
        // real storage-engine bug could fire.
        #[cfg(test)]
        if self.panic_next_batch.swap(false, Ordering::AcqRel) {
            panic!("injected leader failure");
        }
        record_count("batch_size", batch.len());
        let applying = rl_obs::Timer::start("batch_apply");
        let tallies: Vec<Tally> = batch.iter().map(|_| Tally::default()).collect();
        let mut members = Vec::with_capacity(batch.len());
        let mut orders = Vec::with_capacity(batch.len());
        for (order, pending) in batch.into_iter().enumerate() {
            let order = order as u16;
            // Surface operand errors before any member's writes reach the
            // store: with a shared batch version, a half-applied member
            // would otherwise become visible when its batchmates publish.
            let valid = pending.writes.validate();
            if valid.is_ok() {
                members.push((order, pending.writes));
            }
            orders.push((pending.ticket, valid.map(|()| order)));
        }
        let sorted = write_set::sorted_batch(members, version, &tallies);
        store.engine.apply_sorted(version, sorted);
        drop(applying);

        // Seal the batch: a crash-safe engine persists everything above
        // atomically (one WAL frame); a crash before this point loses the
        // whole batch.
        {
            let _t = rl_obs::Timer::start("batch_seal");
            store.engine.commit_batch();
        }

        // Publish only now, so a GRV can never hand out a version the
        // store has not fully materialized — and the metadata version
        // first, so a read version that includes this batch never comes
        // with a metadata version that does not.
        if bumps_metadata_version {
            self.state_cache.publish(version);
        }
        self.last_commit.store(version, Ordering::Release);
        self.oldest.fetch_max(horizon, Ordering::AcqRel);
        if compact_now {
            let _t = rl_obs::Timer::start("compact");
            let oldest = self.oldest.load(Ordering::Acquire);
            record_count("compact_keys", store.engine.compact(oldest));
        }
        let receipt = |order: u16| {
            let tally = &tallies[order as usize];
            CommitReceipt {
                version,
                batch_order: order,
                keys_written: tally.keys.get(),
                bytes_written: tally.bytes.get(),
            }
        };
        orders
            .into_iter()
            .map(|(ticket, order)| (ticket, order.map(receipt)))
            .collect()
    }

    /// Diagnostic: number of live keys at the latest version.
    pub fn live_key_count(&self) -> usize {
        let version = self.last_commit.load(Ordering::Acquire);
        read_ranked(&self.store, LockRank::DatabaseStore)
            .engine
            .live_key_count(version)
    }

    /// Diagnostic: latest commit version without counting as a GRV call.
    pub fn last_commit_version(&self) -> u64 {
        self.last_commit.load(Ordering::Acquire)
    }

    /// Diagnostic: commit version of the last write of
    /// [`METADATA_VERSION_KEY`](crate::METADATA_VERSION_KEY) (on a handle
    /// opened over existing data, the newest version stored at that time).
    pub fn metadata_version(&self) -> u64 {
        self.state_cache.metadata_version()
    }
}

impl Default for Database {
    fn default() -> Self {
        Database::new()
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("engine", &self.engine_description())
            .field(
                "last_commit_version",
                &self.last_commit.load(Ordering::Relaxed),
            )
            .field("oldest_version", &self.oldest.load(Ordering::Relaxed))
            .finish()
    }
}

/// Record a count (not a duration) under `op` in the global recorder;
/// nothing when observability is off.
fn record_count(op: &'static str, count: usize) {
    if rl_obs::enabled() {
        rl_obs::Recorder::global().record(op, count as u64);
    }
}

/// Half-open interval intersection.
fn ranges_intersect(a1: &[u8], a2: &[u8], b1: &[u8], b2: &[u8]) -> bool {
    a1 < b2 && b1 < a2
}

/// Client-side read-version cache (§4: "Read version caching optimizes
/// getReadVersion further by completely avoiding communication with
/// FoundationDB if a read version was recently fetched").
///
/// Doubles as a GRV *batcher*: the cache lock is held across the
/// staleness check and the refresh, so when N threads hit a stale cache
/// at once, exactly one performs the `getReadVersion` and the rest reuse
/// its result.
#[derive(Default)]
pub struct ReadVersionCache {
    state: Mutex<Option<(u64, u64)>>, // (version, fetched_at_ticks)
    /// Monotonic tick source for staleness. `None` uses the database's
    /// logical clock; tests inject a counter to pin staleness decisions
    /// independent of the database under test.
    ticks: Option<Arc<dyn Fn() -> u64 + Send + Sync>>,
}

impl std::fmt::Debug for ReadVersionCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadVersionCache")
            .field("state", &self.state)
            .field("has_tick_source", &self.ticks.is_some())
            .finish()
    }
}

impl ReadVersionCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// A cache whose staleness clock is the given monotonic tick source
    /// instead of the database's logical clock. Ticks are in the same
    /// unit as `max_staleness_ms`.
    pub fn with_tick_source(ticks: impl Fn() -> u64 + Send + Sync + 'static) -> Self {
        ReadVersionCache {
            state: Mutex::new(None),
            ticks: Some(Arc::new(ticks)),
        }
    }

    fn now_ticks(&self, db: &Database) -> u64 {
        match &self.ticks {
            Some(ticks) => ticks(),
            None => db.clock_ms(),
        }
    }

    /// Begin a transaction, reusing a cached read version when it is no
    /// older than `max_staleness_ms` and at least `min_version` (the last
    /// version previously observed by this client, so the client never goes
    /// backwards in time). A stale cache triggers exactly one GRV even
    /// under concurrency (the refresh happens under the cache lock; GRV
    /// itself is lock-free, so nothing nests under this lock).
    pub fn create_transaction(
        &self,
        db: &Database,
        max_staleness_ms: u64,
        min_version: u64,
    ) -> Result<Transaction> {
        let now = self.now_ticks(db);
        let version = {
            let mut st = lock_ranked(&self.state, LockRank::ReadVersionCache);
            match *st {
                Some((version, fetched_at))
                    if now.saturating_sub(fetched_at) <= max_staleness_ms
                        && version >= min_version =>
                {
                    version
                }
                _ => {
                    let version = db.get_read_version();
                    *st = Some((version, now));
                    version
                }
            }
        };
        db.create_transaction_at(version)
    }

    /// Record a version observed via some other channel (e.g. a commit),
    /// refreshing the cache for free.
    pub fn observe(&self, db: &Database, version: u64) {
        let now = self.now_ticks(db);
        let mut st = lock_ranked(&self.state, LockRank::ReadVersionCache);
        if st.is_none_or(|(v, _)| version >= v) {
            *st = Some((version, now));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::MutationType;
    use crate::range::RangeOptions;
    use crate::write_set::KeyOp;

    /// A batch member that buffers `writes` in order.
    fn pending(ticket: u64, writes: Vec<(String, KeyOp)>) -> PendingCommit {
        let mut set = WriteSet::default();
        for (key, op) in writes {
            set.push(key.as_bytes(), op);
        }
        PendingCommit {
            ticket,
            writes: set,
            writes_metadata_version: false,
        }
    }

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

    #[test]
    fn basic_set_get_across_transactions() {
        let db = Database::new();
        let tx = db.create_transaction();
        tx.set(b"k", b"v");
        tx.commit().unwrap();
        let tx = db.create_transaction();
        assert_eq!(tx.get(b"k").unwrap(), Some(b"v".to_vec()));
    }

    #[test]
    fn snapshot_isolation_between_transactions() {
        let db = Database::new();
        let t1 = db.create_transaction();
        // Concurrent commit after t1's read version.
        let t2 = db.create_transaction();
        t2.set(b"k", b"v2");
        t2.commit().unwrap();
        // t1 still reads its snapshot (empty).
        assert_eq!(t1.get(b"k").unwrap(), None);
    }

    #[test]
    fn write_write_no_conflict_without_read() {
        // Blind writes never conflict: only read-write conflicts abort.
        let db = Database::new();
        let t1 = db.create_transaction();
        let t2 = db.create_transaction();
        t1.set(b"k", b"1");
        t2.set(b"k", b"2");
        t1.commit().unwrap();
        t2.commit().unwrap();
        let tx = db.create_transaction();
        assert_eq!(tx.get(b"k").unwrap(), Some(b"2".to_vec()));
    }

    #[test]
    fn read_write_conflict_aborts() {
        let db = Database::new();
        let t1 = db.create_transaction();
        let t2 = db.create_transaction();
        // t1 reads k, t2 writes k and commits first.
        assert_eq!(t1.get(b"k").unwrap(), None);
        t2.set(b"k", b"v");
        t2.commit().unwrap();
        t1.set(b"other", b"x");
        assert_eq!(t1.commit(), Err(Error::NotCommitted));
    }

    #[test]
    fn snapshot_read_does_not_conflict() {
        let db = Database::new();
        let t1 = db.create_transaction();
        let t2 = db.create_transaction();
        assert_eq!(t1.get_snapshot(b"k").unwrap(), None);
        t2.set(b"k", b"v");
        t2.commit().unwrap();
        t1.set(b"other", b"x");
        t1.commit().unwrap(); // no conflict: the read was at snapshot level
    }

    #[test]
    fn atomic_adds_do_not_conflict() {
        let db = Database::new();
        let t1 = db.create_transaction();
        let t2 = db.create_transaction();
        t1.mutate(MutationType::Add, b"ctr", &1u64.to_le_bytes())
            .unwrap();
        t2.mutate(MutationType::Add, b"ctr", &1u64.to_le_bytes())
            .unwrap();
        t1.commit().unwrap();
        t2.commit().unwrap(); // would abort if ADD created a read conflict
        let tx = db.create_transaction();
        let v = tx.get(b"ctr").unwrap().unwrap();
        assert_eq!(u64::from_le_bytes(v.try_into().unwrap()), 2);
    }

    #[test]
    fn read_modify_write_conflicts_where_atomic_would_not() {
        // The contrast that motivates atomic-mutation indexes (§7).
        let db = Database::new();
        let t1 = db.create_transaction();
        let t2 = db.create_transaction();
        let read = |t: &Transaction| {
            t.get(b"ctr")
                .unwrap()
                .map_or(0u64, |v| u64::from_le_bytes(v.try_into().unwrap()))
        };
        let v1 = read(&t1);
        let v2 = read(&t2);
        t1.set(b"ctr", &(v1 + 1).to_le_bytes());
        t2.set(b"ctr", &(v2 + 1).to_le_bytes());
        t1.commit().unwrap();
        assert_eq!(t2.commit(), Err(Error::NotCommitted));
    }

    #[test]
    fn range_conflict_detected() {
        let db = Database::new();
        let t1 = db.create_transaction();
        let t2 = db.create_transaction();
        let _ = t1.get_range(b"a", b"z", RangeOptions::default()).unwrap();
        t2.set(b"m", b"v");
        t2.commit().unwrap();
        t1.set(b"zz", b"x");
        assert_eq!(t1.commit(), Err(Error::NotCommitted));
    }

    #[test]
    fn commit_conflict_only_with_newer_writes() {
        let db = Database::new();
        // Commit a write, then start a transaction that reads it: no
        // conflict because the write predates the read version.
        let t = db.create_transaction();
        t.set(b"k", b"v");
        t.commit().unwrap();
        let t1 = db.create_transaction();
        assert_eq!(t1.get(b"k").unwrap(), Some(b"v".to_vec()));
        t1.set(b"k2", b"v2");
        t1.commit().unwrap();
    }

    #[test]
    fn versionstamped_key_gets_commit_version() {
        let db = Database::new();
        let tx = db.create_transaction();
        // key = prefix + 10-byte placeholder, offset suffix = 7.
        let mut key = b"prefix-".to_vec();
        key.extend_from_slice(&[0xFF; 10]);
        key.extend_from_slice(&7u32.to_le_bytes());
        tx.mutate(MutationType::SetVersionstampedKey, &key, b"val")
            .unwrap();
        tx.commit().unwrap();
        let version = tx.committed_version().unwrap();

        let tx = db.create_transaction();
        let kvs = tx
            .get_range(b"prefix-", b"prefix.", RangeOptions::default())
            .unwrap();
        assert_eq!(kvs.len(), 1);
        let stamped = &kvs[0].key[7..15];
        assert_eq!(u64::from_be_bytes(stamped.try_into().unwrap()), version);
        assert_eq!(kvs[0].value, b"val");
    }

    #[test]
    fn versionstamped_value_gets_commit_version() {
        let db = Database::new();
        let tx = db.create_transaction();
        let mut param = vec![0xFF; 10];
        param.extend_from_slice(b"-suffix");
        param.extend_from_slice(&0u32.to_le_bytes());
        tx.mutate(MutationType::SetVersionstampedValue, b"k", &param)
            .unwrap();
        tx.commit().unwrap();
        let version = tx.committed_version().unwrap();

        let tx = db.create_transaction();
        let v = tx.get(b"k").unwrap().unwrap();
        assert_eq!(u64::from_be_bytes(v[0..8].try_into().unwrap()), version);
        assert_eq!(&v[10..], b"-suffix");
    }

    #[test]
    fn commit_versions_strictly_increase() {
        let db = Database::new();
        let mut last = 0;
        for i in 0..10u32 {
            let tx = db.create_transaction();
            tx.set(format!("k{i}").as_bytes(), b"v");
            tx.commit().unwrap();
            let v = tx.committed_version().unwrap();
            assert!(v > last);
            last = v;
        }
    }

    #[test]
    fn clock_drives_versions_and_expiry() {
        let opts = DatabaseOptions {
            mvcc_window_versions: 5_000 * VERSIONS_PER_MS,
            ..DatabaseOptions::default()
        };
        let db = Database::with_options(opts);

        let t_old = db.create_transaction();
        db.advance_clock(10_000); // 10 logical seconds pass
        let tx = db.create_transaction();
        tx.set(b"k", b"v");
        tx.commit().unwrap();
        // The old transaction's read version predates the window now.
        assert_eq!(t_old.get(b"k"), Err(Error::TransactionTooOld));
    }

    #[test]
    fn transaction_time_limit_enforced() {
        let db = Database::new();
        let tx = db.create_transaction();
        tx.set(b"k", b"v");
        db.advance_clock(6_000);
        assert_eq!(tx.commit(), Err(Error::TransactionTooOld));
    }

    #[test]
    fn transaction_size_limit_enforced() {
        let opts = DatabaseOptions {
            transaction_size_limit: 1_000,
            ..DatabaseOptions::default()
        };
        let db = Database::with_options(opts);
        let tx = db.create_transaction();
        for i in 0..20u32 {
            tx.set(format!("key-{i}").as_bytes(), &[0u8; 64]);
        }
        assert!(matches!(
            tx.commit(),
            Err(Error::TransactionTooLarge { .. })
        ));
    }

    #[test]
    fn run_retries_conflicts() {
        let db = Database::new();
        let attempts = std::cell::Cell::new(0);
        db.run(|tx| {
            attempts.set(attempts.get() + 1);
            let _ = tx.get(b"contended")?;
            if attempts.get() == 1 {
                // Simulate an interleaved writer on the first attempt.
                let other = db.create_transaction();
                other.set(b"contended", b"x");
                other.commit().unwrap();
            }
            tx.set(b"contended", b"mine");
            Ok(())
        })
        .unwrap();
        assert_eq!(attempts.get(), 2);
    }

    #[test]
    fn read_version_cache_avoids_grv() {
        let db = Database::new();
        let tx = db.create_transaction();
        tx.set(b"k", b"v");
        tx.commit().unwrap();

        let cache = ReadVersionCache::new();
        let before = db.grv_call_count();
        let t1 = cache.create_transaction(&db, 1_000, 0).unwrap();
        let t2 = cache.create_transaction(&db, 1_000, 0).unwrap();
        assert_eq!(db.grv_call_count(), before + 1); // second reused cache
        assert_eq!(t1.read_version(), t2.read_version());

        // Stale cache refreshes after the staleness bound.
        db.advance_clock(2_000);
        let _t3 = cache.create_transaction(&db, 1_000, 0).unwrap();
        assert_eq!(db.grv_call_count(), before + 2);
    }

    #[test]
    fn read_version_cache_respects_min_version() {
        let db = Database::new();
        let cache = ReadVersionCache::new();
        let _ = cache.create_transaction(&db, 10_000, 0).unwrap();
        // Commit something; a client that observed that commit insists on
        // reading at least that version.
        let tx = db.create_transaction();
        tx.set(b"k", b"v");
        tx.commit().unwrap();
        let min = tx.committed_version().unwrap();
        let t = cache.create_transaction(&db, 10_000, min).unwrap();
        assert!(t.read_version() >= min);
        assert_eq!(t.get(b"k").unwrap(), Some(b"v".to_vec()));
    }

    #[test]
    fn read_version_cache_staleness_with_injected_ticks() {
        let db = Database::new();
        let tx = db.create_transaction();
        tx.set(b"k", b"v");
        tx.commit().unwrap();

        // Staleness runs on the injected counter: the database clock
        // never moves in this test.
        let ticks = Arc::new(AtomicU64::new(0));
        let t2 = ticks.clone();
        let cache = ReadVersionCache::with_tick_source(move || t2.load(Ordering::Relaxed));

        let before = db.grv_call_count();
        let _ = cache.create_transaction(&db, 100, 0).unwrap();
        ticks.store(100, Ordering::Relaxed); // exactly at the bound: fresh
        let _ = cache.create_transaction(&db, 100, 0).unwrap();
        assert_eq!(db.grv_call_count(), before + 1);
        ticks.store(101, Ordering::Relaxed); // one past: stale
        let _ = cache.create_transaction(&db, 100, 0).unwrap();
        assert_eq!(db.grv_call_count(), before + 2);
    }

    #[test]
    fn read_version_cache_coalesces_concurrent_refreshes() {
        let db = Database::new();
        let tx = db.create_transaction();
        tx.set(b"k", b"v");
        tx.commit().unwrap();

        let cache = Arc::new(ReadVersionCache::new());
        // Warm, then make stale.
        let _ = cache.create_transaction(&db, 1_000, 0).unwrap();
        db.advance_clock(5_000);

        let before = db.grv_call_count();
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let db = db.clone();
                let cache = cache.clone();
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    cache.create_transaction(&db, 1_000, 0).unwrap();
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // The refresh happened under the cache lock: one GRV, seven reuses.
        assert_eq!(db.grv_call_count(), before + 1);
    }

    #[test]
    fn shard_masks_cover_their_ranges() {
        // A point write conflict spans one shard.
        let key = b"t3/k42".to_vec();
        let end = crate::key_after(&key);
        assert_eq!(range_shard_mask(&key, &end).count_ones(), 1);
        // A range within one two-byte prefix stays on one shard.
        assert_eq!(range_shard_mask(b"t3/a", b"t3/z").count_ones(), 1);
        // A wide range covers every shard.
        assert_eq!(
            range_shard_mask(b"a", b"z"),
            u16::MAX >> (16 - CONFLICT_SHARDS)
        );
        // An end key that equals the two-byte prefix excludes that prefix.
        assert_eq!(
            range_shard_mask(b"t3", b"t4"),
            1 << shard_of_prefix(prefix_value(b"t3"))
        );
        // Membership: any key inside a range maps into the range's mask.
        let (begin, end) = (b"ab".to_vec(), b"ae/tail".to_vec());
        let mask = range_shard_mask(&begin, &end);
        for key in [&b"ab"[..], b"abz", b"ac", b"ad/x", b"ae", b"ae/taik"] {
            assert!(
                mask & (1 << shard_of_prefix(prefix_value(key))) != 0,
                "key {key:?} escapes mask {mask:#018b}"
            );
        }
        // Regression: an end of the form [b, 0x00] — key_after of the
        // one-byte key [b] — still admits [b] itself, whose zero-padded
        // prefix equals end's own. Its shard must stay in the mask even
        // when the range is narrow enough to dodge the full-mask
        // fallback: [b"a\xf5", b"b\x00") contains b"b".
        let end = crate::key_after(b"b");
        let mask = range_shard_mask(b"a\xf5", &end);
        assert!(
            mask & (1 << shard_of_prefix(prefix_value(b"b"))) != 0,
            "one-byte key b\"b\" escapes mask {mask:#018b} for range [a\\xf5, b\\x00)"
        );
    }

    #[test]
    fn disjoint_tenant_commits_use_disjoint_shards() {
        // Tenant prefixes "t0/".."t7/" land on eight distinct shards, the
        // layout the concurrency_scaling bench relies on.
        let mut shards = std::collections::HashSet::new();
        for t in 0..8 {
            let key = format!("t{t}/row");
            let end = crate::key_after(key.as_bytes());
            let mask = range_shard_mask(key.as_bytes(), &end);
            assert_eq!(mask.count_ones(), 1);
            shards.insert(mask);
        }
        assert_eq!(shards.len(), 8);
    }

    #[test]
    fn cached_state_commits_keep_disjoint_shards_and_share_a_batch() {
        let db = Database::new();
        let seed = db.create_transaction();
        seed.cache_state(b"t0/", Arc::new(0u8));
        seed.cache_state(b"t1/", Arc::new(1u8));
        // Two tenants' transactions answer their opens from the cache and
        // write under their own prefixes.
        let txs: Vec<Transaction> = (0..2u8)
            .map(|t| {
                let tx = db.create_transaction();
                let prefix = format!("t{t}/");
                assert_eq!(
                    tx.cached_state::<u8>(prefix.as_bytes()).as_deref(),
                    Some(&t)
                );
                tx.set(format!("t{t}/row").as_bytes(), b"v");
                tx
            })
            .collect();
        // Relying on the metadata version adds no shard: each mask is the
        // one shard of the tenant's own keys, and the two are disjoint.
        let masks: Vec<u16> = (0..2)
            .map(|t| {
                let key = format!("t{t}/row").into_bytes();
                let writes = vec![(key.clone(), crate::key_after(&key))];
                commit_shard_mask(&[], &writes, false)
            })
            .collect();
        assert_eq!(masks[0].count_ones(), 1);
        assert_eq!(masks[1].count_ones(), 1);
        assert_eq!(masks[0] & masks[1], 0);
        // Only a write of the key excludes everyone.
        assert_eq!(commit_shard_mask(&[], &[], true), ALL_SHARDS);
        // Shard-disjoint commits may meet in one batch: one version.
        let batch = (0..2)
            .map(|t| {
                pending(
                    t,
                    vec![(format!("t{t}/batched"), KeyOp::Set(b"v".to_vec()))],
                )
            })
            .collect();
        let receipts: Vec<_> = db
            .lead_batch(batch)
            .into_iter()
            .map(|(_, r)| r.unwrap())
            .collect();
        assert_eq!(receipts[0].version, receipts[1].version);
        assert_eq!(db.metadata_version(), 0, "no member wrote the key");
        for tx in &txs {
            tx.commit().unwrap();
        }
    }

    #[test]
    fn a_batch_that_writes_the_metadata_key_publishes_its_version_first() {
        let db = Database::new();
        let tx = db.create_transaction();
        tx.bump_metadata_version().unwrap();
        tx.commit().unwrap();
        let version = tx.committed_version().unwrap();
        assert_eq!(db.metadata_version(), version);
        assert_eq!(db.last_commit_version(), version);
        // The stored value is the writer's versionstamp, as in FDB.
        let stored = db
            .create_transaction()
            .get_snapshot(crate::METADATA_VERSION_KEY)
            .unwrap()
            .unwrap();
        assert_eq!(stored, tx.versionstamp().unwrap());
        // Any other write of the key counts too.
        let tx = db.create_transaction();
        tx.clear_range(b"\xff", b"\xff\xff");
        tx.commit().unwrap();
        assert_eq!(db.metadata_version(), tx.committed_version().unwrap());
    }

    #[test]
    fn group_commit_shares_version_and_orders_members() {
        let db = Database::new();
        let batch = (0..3)
            .map(|i| pending(i, vec![(format!("b{i}"), KeyOp::Set(b"v".to_vec()))]))
            .collect();
        let results = db.lead_batch(batch);
        assert_eq!(results.len(), 3);
        let receipts: Vec<_> = results.into_iter().map(|(_, r)| r.unwrap()).collect();
        // One version allocation for the whole batch...
        assert!(receipts.iter().all(|r| r.version == receipts[0].version));
        // ...members distinguished by batch order...
        let orders: Vec<_> = receipts.iter().map(|r| r.batch_order).collect();
        assert_eq!(orders, vec![0, 1, 2]);
        // ...and every member's writes visible at that version.
        let tx = db.create_transaction();
        for i in 0..3 {
            assert_eq!(
                tx.get(format!("b{i}").as_bytes()).unwrap(),
                Some(b"v".to_vec())
            );
        }
    }

    #[test]
    fn leader_panic_hands_leadership_back() {
        let db = Database::new();
        // A leader that dies mid-batch (while holding the store write
        // lock) must abdicate on unwind; otherwise `leader_active` stays
        // set and every later committer parks on the condvar forever.
        db.panic_next_batch
            .store(true, std::sync::atomic::Ordering::Release);
        let worker = {
            let db = db.clone();
            std::thread::spawn(move || {
                let tx = db.create_transaction();
                tx.set(b"doomed", b"v");
                tx.commit()
            })
        };
        assert!(
            worker.join().is_err(),
            "injected leader failure should unwind the committing thread"
        );
        // The cluster keeps accepting commits afterwards.
        let tx = db.create_transaction();
        tx.set(b"survivor", b"v");
        tx.commit().unwrap();
        let tx = db.create_transaction();
        assert_eq!(tx.get(b"survivor").unwrap(), Some(b"v".to_vec()));
    }

    #[test]
    fn leader_unwind_fails_followers_instead_of_hanging_them() {
        // Drive the guard directly: a batch of three where the leader
        // (ticket 1) panics must publish `CommitUnknownResult` receipts
        // for the two followers and clear `leader_active`.
        let db = Database::new();
        db.panic_next_batch
            .store(true, std::sync::atomic::Ordering::Release);
        {
            let mut st = lock_ranked(&db.batcher.state, LockRank::CommitBatch);
            st.leader_active = true;
            st.next_ticket = 3;
        }
        let batch: Vec<PendingCommit> = (0..3)
            .map(|i| pending(i, vec![(format!("f{i}"), KeyOp::Set(b"v".to_vec()))]))
            .collect();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            db.lead_and_publish(1, batch)
        }));
        assert!(unwound.is_err(), "injected panic should reach the caller");
        let st = lock_ranked(&db.batcher.state, LockRank::CommitBatch);
        assert!(!st.leader_active, "leadership must be handed back");
        let mut failed: Vec<u64> = st
            .results
            .iter()
            .map(|(t, r)| {
                assert!(
                    matches!(r, Err(Error::CommitUnknownResult)),
                    "follower {t} should see commit_unknown_result, got {r:?}"
                );
                *t
            })
            .collect();
        failed.sort_unstable();
        // Followers 0 and 2 get receipts; the leader's own caller sees
        // the panic directly, so no orphan receipt for ticket 1.
        assert_eq!(failed, vec![0, 2]);
    }

    #[test]
    fn group_commit_batch_pays_one_wal_frame() {
        let db = Database::with_options(DatabaseOptions {
            engine: EngineKind::Paged(PagedConfig::ephemeral()),
            ..DatabaseOptions::default()
        });
        let before = db.metrics().io_counters().snapshot().log_appends;
        let batch = (0..4)
            .map(|i| pending(i, vec![(format!("w{i}"), KeyOp::Set(vec![0u8; 32]))]))
            .collect();
        for (_, r) in db.lead_batch(batch) {
            r.unwrap();
        }
        let after = db.metrics().io_counters().snapshot().log_appends;
        assert_eq!(after - before, 1, "4 batched commits, one WAL frame");
    }

    #[test]
    fn batch_member_with_bad_operand_fails_without_partial_writes() {
        let db = Database::new();
        let batch = vec![
            pending(0, vec![("good".into(), KeyOp::Set(b"v".to_vec()))]),
            pending(
                1,
                vec![
                    ("bad-first".into(), KeyOp::Set(b"v".to_vec())),
                    // ADD operand too wide
                    (
                        "bad".into(),
                        KeyOp::Atomic(MutationType::Add, vec![0u8; 17]),
                    ),
                ],
            ),
        ];
        let results = db.lead_batch(batch);
        assert!(results[0].1.is_ok());
        assert!(results[1].1.is_err());
        let tx = db.create_transaction();
        assert_eq!(tx.get(b"good").unwrap(), Some(b"v".to_vec()));
        // The failed member left nothing behind — not even the Set that
        // preceded its bad atomic.
        assert_eq!(tx.get(b"bad-first").unwrap(), None);
    }

    #[test]
    fn concurrent_commits_from_threads() {
        let db = Database::new();
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for j in 0..50 {
                        db.run(|tx| {
                            tx.mutate(MutationType::Add, b"ctr", &1u64.to_le_bytes())?;
                            tx.set(format!("t{i}-{j}").as_bytes(), b"v");
                            Ok(())
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let tx = db.create_transaction();
        let v = tx.get(b"ctr").unwrap().unwrap();
        assert_eq!(u64::from_le_bytes(v.try_into().unwrap()), 400);
    }

    #[test]
    fn concurrent_disjoint_tenants_commit_without_conflicts() {
        let db = Database::new();
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for j in 0..50 {
                        let tx = db.create_transaction();
                        let key = format!("t{t}/row{j}");
                        let _ = tx.get(key.as_bytes()).unwrap();
                        tx.set(key.as_bytes(), b"v");
                        // Disjoint tenants never touch a shared shard, so
                        // a conflict abort here would be a sharding bug.
                        tx.commit().unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let tx = db.create_transaction();
        for t in 0..8 {
            let begin = format!("t{t}/");
            let end = format!("t{t}0");
            let kvs = tx
                .get_range(begin.as_bytes(), end.as_bytes(), RangeOptions::default())
                .unwrap();
            assert_eq!(kvs.len(), 50);
        }
    }
}
