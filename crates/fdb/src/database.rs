//! The database: the wiring of the commit pipeline, the MVCC window and
//! the logical clock around one storage engine.
//!
//! ## Parallel commit pipeline
//!
//! The original simulator funnelled every read and commit through one
//! `Arc<Mutex<Inner>>`. That global lock is now torn into three pieces,
//! each with its own [`LockRank`]:
//!
//! * **Conflict shards** (`shards`, [`LockRank::ConflictShard`]) — the
//!   recent-writes window is sharded by key range (`CONFLICT_SHARDS`
//!   shards, keyed on the first two key bytes; `conflict.rs`). A
//!   committing transaction locks only the shards its conflict ranges
//!   touch, in ascending shard order, so commits over disjoint key spaces
//!   validate and apply in parallel.
//! * **Group-commit batcher** (`batcher`, [`LockRank::CommitBatch`]) —
//!   concurrent committers that passed validation enqueue their write
//!   sets; one becomes the *leader*, merges them into one batch sorted by
//!   key, and applies it with a single version allocation, a single engine
//!   call and (on the paged engine) a single WAL frame. Followers park on
//!   a condvar and collect their receipts (`batcher.rs`).
//! * **Store** (`store`, [`LockRank::DatabaseStore`]) — the storage
//!   engine behind an `RwLock`, with the version allocation and
//!   compaction bookkeeping only a batch leader touches. Every engine read
//!   takes `&self`, so MVCC snapshot reads run under the shared lock,
//!   concurrently with each other, on either engine; a batch leader
//!   allocates its version and applies under the exclusive lock.
//!
//! `last_commit_version` and `oldest_version` are additionally published
//! as atomics (after the store apply, so a GRV can never hand out a
//! version the store has not materialized), making `getReadVersion`
//! entirely lock-free. The metadata version ([`crate::state_cache`]) is
//! published the same way, before `last_commit_version`, by the batch that
//! carries a write of its key.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use crate::batcher::{BatchResults, CommitBatcher, CommitReceipt, PendingCommit};
use crate::conflict::{commit_shard_mask, ConflictShard, WriteConflicts, CONFLICT_SHARDS};
use crate::error::{Error, Result};
use crate::metrics::{Metrics, SharedMetrics};
use crate::options::{build_engine, DatabaseOptions, VERSIONS_PER_MS};
use crate::state_cache::StateCache;
use crate::sync::{lock_ranked_indexed, read_ranked, write_ranked, LockRank, RankedReadGuard};
use crate::transaction::Transaction;
use crate::write_set::{self, Tally, WriteSet};
use rl_storage::{MemoryEngine, StorageEngine, Visitor};

/// The storage engine, the version counters only a batch leader touches,
/// and the engine's cleanup obligation, behind the store `RwLock`.
#[derive(Debug)]
struct Store {
    engine: Box<dyn StorageEngine>,
    /// The newest commit version allocated to a batch.
    last_commit_version: u64,
    /// Commits applied since the last compaction pass.
    commits_since_compaction: u64,
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

/// Handle to a simulated FoundationDB cluster. Clone freely; all clones
/// share state. Safe to use from multiple threads: snapshot reads run
/// under a shared store lock, and commits over disjoint key shards
/// validate and apply in parallel, batched through a group-commit leader.
#[derive(Clone)]
pub struct Database {
    /// Recent-writes conflict index, sharded by key prefix.
    shards: Arc<[Mutex<ConflictShard>; CONFLICT_SHARDS]>,
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
            store: Arc::new(RwLock::new(Store {
                engine,
                last_commit_version: stored_version,
                commits_since_compaction: 0,
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

    /// Lend the rows of `[begin, end)` visible at `read_version` to
    /// `visitor`, in scan direction, until it stops: one engine
    /// [`visit`](rl_storage::StorageEngine::visit) under the shared store
    /// lock. The caller's visitor stops after a bounded number of rows, so
    /// the lock is held for a bounded read, not for the whole range; it
    /// must not call back into the database.
    pub(crate) fn storage_range(
        &self,
        begin: &[u8],
        end: &[u8],
        read_version: u64,
        reverse: bool,
        visitor: &mut Visitor<'_>,
    ) -> Result<()> {
        let store = self.store_for_read(read_version)?;
        store
            .engine
            .visit(begin, end, read_version, reverse, visitor);
        Ok(())
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
        write_conflicts: WriteConflicts,
        writes: &mut WriteSet,
        relied_on_metadata_version: bool,
        writes_metadata_version: bool,
    ) -> Result<CommitReceipt> {
        if read_version < self.oldest.load(Ordering::Acquire) {
            return Err(Error::TransactionTooOld);
        }

        // Lock the conflict shards this transaction's ranges can touch,
        // in ascending shard order (the ConflictShard indexed band).
        let mask = commit_shard_mask(
            read_conflicts,
            write_conflicts.ranges(),
            writes_metadata_version,
        ) | write_conflicts.key_shard_mask();
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
        // version that intersects any of our read ranges aborts us.
        if held
            .iter()
            .any(|(_, shard)| shard.conflicts_with(read_version, read_conflicts))
        {
            return Err(Error::NotCommitted);
        }

        // Apply through the group-commit batcher. We still hold our shard
        // locks, so no conflicting transaction can validate against a
        // window that does not yet contain our writes — and every member
        // of one batch is pairwise shard-disjoint by construction, which
        // is what makes a shared commit version sound.
        let writes = std::mem::take(writes);
        let lead = |batch| self.lead_batch(batch);
        let receipt = self.batcher.submit(writes, writes_metadata_version, lead)?;

        // Record our write conflicts for future validations, in every shard
        // they touch: each shard's window holds the one shared copy.
        let write_mask = write_conflicts.shard_mask();
        let horizon = self.oldest.load(Ordering::Acquire);
        for (idx, shard) in &mut held {
            if write_mask & (1 << *idx) != 0 {
                shard.record(receipt.version, horizon, write_conflicts.clone());
            }
        }
        Ok(receipt)
    }

    /// Apply a batch: one version allocation, every member's write set at
    /// that version (distinguished by batch order) merged into one sorted
    /// engine batch, one engine batch seal — i.e. one WAL frame on the
    /// paged engine — then publish the version. Runs as the batch leader,
    /// without the batcher lock; takes DatabaseStore exclusive.
    fn lead_batch(&self, batch: Vec<PendingCommit>) -> BatchResults {
        let waiting = rl_obs::Timer::start("store_lock_wait_leader");
        let mut store = write_ranked(&self.store, LockRank::DatabaseStore);
        drop(waiting);
        // Assign the batch's commit version: strictly increasing, and at
        // least the clock-implied version so versions track logical time.
        let clock_version = self.clock_ms() * VERSIONS_PER_MS;
        let version = (store.last_commit_version + 1).max(clock_version);
        store.last_commit_version = version;
        store.commits_since_compaction += batch.len() as u64;
        let compact_now = store.commits_since_compaction >= self.options.compaction_interval;
        if compact_now {
            store.commits_since_compaction = 0;
        }
        let horizon = version.saturating_sub(self.options.mvcc_window_versions);
        let bumps_metadata_version = batch.iter().any(|p| p.writes_metadata_version);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::MutationType;
    use crate::batcher::pending;
    use crate::conflict::ALL_SHARDS;
    use crate::options::{EngineKind, PagedConfig};
    use crate::range::RangeOptions;
    use crate::write_set::KeyOp;

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

    /// No global lock serialises commits on disjoint shards: with tenant
    /// `t0/`'s shard held, as if its commit were parked inside
    /// `commit_internal`, a commit of `t1/row` on another thread finishes.
    #[test]
    fn a_commit_parked_on_one_shard_does_not_block_a_disjoint_one() {
        let db = Database::new();
        let mask =
            |key: &[u8]| commit_shard_mask(&[], &[(key.to_vec(), crate::key_after(key))], false);
        let (parked, other) = (mask(b"t0/row"), mask(b"t1/row"));
        assert_eq!((parked.count_ones(), parked & other), (1, 0));
        let idx = parked.trailing_zeros() as usize;
        let held = lock_ranked_indexed(&db.shards[idx], LockRank::ConflictShard, idx);
        let (done, finished) = std::sync::mpsc::channel();
        let committer = {
            let db = db.clone();
            std::thread::spawn(move || {
                let tx = db.create_transaction();
                tx.set(b"t1/row", b"v");
                done.send(tx.commit()).unwrap();
            })
        };
        let outcome = finished.recv_timeout(std::time::Duration::from_secs(10));
        drop(held);
        committer.join().unwrap();
        assert_eq!(
            outcome,
            Ok(Ok(())),
            "the commit waited on a shard it does not touch"
        );
    }

    /// A commit that writes a key on each of two shards conflicts with a
    /// later-validating reader of either key, whichever shard it holds.
    #[test]
    fn a_commit_over_two_shards_conflicts_with_a_reader_of_either_key() {
        let db = Database::new();
        let shard = |key: &[u8]| WriteConflicts::new([key], Vec::new()).key_shard_mask();
        assert_eq!(shard(b"t0/a") & shard(b"t1/b"), 0);
        let readers: Vec<_> = [&b"t0/a"[..], b"t1/b"]
            .into_iter()
            .map(|key| {
                let tx = db.create_transaction();
                assert_eq!(tx.get(key).unwrap(), None);
                tx.set(key, b"reader");
                tx
            })
            .collect();
        let writer = db.create_transaction();
        writer.set(b"t0/a", b"writer");
        writer.set(b"t1/b", b"writer");
        writer.commit().unwrap();
        for reader in readers {
            assert_eq!(reader.commit(), Err(Error::NotCommitted));
        }
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
