//! The database: the wiring of the commit pipeline, the MVCC window and
//! the logical clock around one storage engine.
//!
//! ## Parallel commit pipeline
//!
//! The original simulator funnelled every read and commit through one
//! `Arc<Mutex<Inner>>`. That global lock is now torn into two pieces,
//! each with its own [`LockRank`]:
//!
//! * **Conflict shards** (`shards`, [`LockRank::ConflictShard`]) — the
//!   recent-writes window is sharded by key range (`CONFLICT_SHARDS`
//!   shards, keyed on the first two key bytes; `conflict.rs`). A
//!   committing transaction locks only the shards its conflict ranges
//!   touch, in ascending shard order, so commits over disjoint key spaces
//!   validate in parallel.
//! * **Commit writer** (`writer`, [`LockRank::CommitWriter`]) — the
//!   version allocation and compaction bookkeeping only a commit touches.
//!   Validated commits apply one at a time under it.
//! * **Store** (`store`, [`LockRank::DatabaseStore`]) — the storage
//!   engine behind an `RwLock`. Every engine read takes `&self`, so MVCC
//!   snapshot reads run under the shared lock, concurrently with each
//!   other, on either engine. A validated commit allocates its version,
//!   then stages its write set as one sorted engine batch and seals it —
//!   on the paged engine, the batch resolved against the write buffer and
//!   the tree, no tree walk, and one WAL frame — under the *shared* lock
//!   too, while reads go on. It takes the exclusive lock only to publish:
//!   on the paged engine, to put the writes into the write buffer. When the
//!   buffer asks for a flush, the committing thread flushes it after the
//!   publish, a slice at a time: each slice one B-tree walk staged under
//!   the shared lock and installed under the exclusive one.
//!
//! There is no group commit. In FoundationDB it pays for itself by
//! amortising the transaction log's fsync across a batch; this engine
//! never calls `fsync`, and concurrent committers measured a batch of one
//! nearly always.
//!
//! `last_commit_version` and `oldest_version` are additionally published
//! as atomics (after the store publish, so a GRV can never hand out a
//! version the store has not materialized), and so is the version a
//! commit is staging, making `getReadVersion` lock-free always. A read
//! version tracks the logical
//! clock the way FoundationDB's advance without writes: it is the
//! clock-implied version minus one when no commit is newer, so idle time
//! never expires a transaction opened after it (see
//! [`Database::get_read_version`]). The metadata version
//! ([`crate::state_cache`]) is published the same way, before
//! `last_commit_version`, by the commit that writes its key.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use crate::conflict::{
    commit_shard_mask, ConflictSet, ConflictShard, ReadConflicts, CONFLICT_SHARDS,
};
use crate::error::{Error, Result};
use crate::metrics::{Metrics, SharedMetrics};
use crate::options::{build_engine, DatabaseOptions, VERSIONS_PER_MS};
use crate::state_cache::StateCache;
use crate::sync::{
    lock_ranked, lock_ranked_indexed, read_ranked, write_ranked, LockRank, RankedReadGuard,
};
use crate::transaction::Transaction;
use crate::write_set::{self, Tally, WriteSet};
use rl_storage::{MemoryEngine, Staged, StorageEngine, Visitor};

/// The version counters only a commit touches, behind the commit-writer
/// lock.
#[derive(Debug)]
struct Writer {
    /// The newest commit version allocated.
    last_commit_version: u64,
    /// Commits applied since the last compaction pass.
    commits_since_compaction: u64,
}

/// The storage engine and its cleanup obligation, behind the store
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

/// Handle to a simulated FoundationDB cluster. Clone freely; all clones
/// share state. Safe to use from multiple threads: snapshot reads run
/// under a shared store lock, and commits over disjoint key shards
/// validate in parallel.
#[derive(Clone)]
pub struct Database {
    /// Recent-writes conflict index, sharded by key prefix.
    shards: Arc<[Mutex<ConflictShard>; CONFLICT_SHARDS]>,
    /// Serialises commits' version allocation, staging and publishing.
    writer: Arc<Mutex<Writer>>,
    /// The storage engine (shared for reads and a commit's staging,
    /// exclusive for its publish).
    store: Arc<RwLock<Store>>,
    /// Latest commit version the store has materialized (lock-free GRV).
    last_commit: Arc<AtomicU64>,
    /// Odd while a commit applies: from before it reads the clock until it
    /// has published its version (see [`Database::newest_readable`]).
    applies: Arc<AtomicU64>,
    /// The version the applying commit stages, once allocated; 0 before
    /// that and once the commit is over. Read while `applies` is odd.
    staging: Arc<AtomicU64>,
    /// Read versions below this fail with `transaction_too_old`.
    oldest: Arc<AtomicU64>,
    /// The metadata version and the soft state it validates.
    state_cache: Arc<StateCache>,
    options: Arc<DatabaseOptions>,
    clock_ms: Arc<AtomicU64>,
    metrics: SharedMetrics,
    /// Test-only: make the next commit panic inside [`Self::apply`], under
    /// the exclusive store lock, after its seal.
    #[cfg(test)]
    panic_next_commit: Arc<std::sync::atomic::AtomicBool>,
    /// Test-only: hold the next commit at a point of [`Self::apply`]: it
    /// sends a version, then waits for the release.
    #[cfg(test)]
    pause_next_commit: Arc<Mutex<Option<(tests::PauseAt, tests::Pause)>>>,
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
            writer: Arc::new(Mutex::new(Writer {
                last_commit_version: stored_version,
                commits_since_compaction: 0,
            })),
            store: Arc::new(RwLock::new(Store {
                engine,
                cleanup_dir,
            })),
            last_commit: Arc::new(AtomicU64::new(stored_version)),
            applies: Arc::new(AtomicU64::new(0)),
            staging: Arc::new(AtomicU64::new(0)),
            oldest: Arc::new(AtomicU64::new(0)),
            state_cache: Arc::new(StateCache::new(stored_version)),
            options: Arc::new(options),
            clock_ms: Arc::new(AtomicU64::new(0)),
            metrics,
            #[cfg(test)]
            panic_next_commit: Arc::new(std::sync::atomic::AtomicBool::new(false)),
            #[cfg(test)]
            pause_next_commit: Arc::new(Mutex::new(None)),
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
        self.clock_ms.fetch_add(ms, Ordering::SeqCst);
    }

    // ------------------------------------------------------- transactions

    /// Perform a `getReadVersion` (GRV): the latest commit version, or
    /// the clock-implied version minus one if that is newer. A commit takes
    /// at least the clock-implied version, so no later commit lands at or
    /// below a read version handed out; and after idle logical time a new
    /// read version is near the clock, so the next commit's MVCC horizon
    /// does not expire it. Lock-free, and never waits for a commit.
    pub fn get_read_version(&self) -> u64 {
        let _t = rl_obs::Timer::start(rl_obs::Op::Grv);
        self.newest_readable()
    }

    /// The newest version a read may take now: every commit at or below
    /// it has been published, and every later one lands above it.
    ///
    /// A commit reads the clock after `applies` turns odd, stores its
    /// version in `staging`, and publishes it and resets `staging` to 0
    /// before `applies` turns even. With no commit applying, the
    /// clock-implied version minus one is safe: the next commit reads the
    /// clock later and lands at or above it. While commit version `V` is
    /// being staged, nothing at or above `V` is: the answer is capped at
    /// `V - 1`, and every commit below `V` has been published. The atomics
    /// are read again if `applies` changed meanwhile, i.e. a commit
    /// boundary passed, and while `staging` is at or below the version
    /// last published: the applying commit has not stored its version yet,
    /// or has published it and is about to turn `applies` even. Either is
    /// a few instructions of the committer's, and answering without its
    /// version could go below an earlier answer near the clock. No lock is
    /// taken.
    fn newest_readable(&self) -> u64 {
        loop {
            let applies = self.applies.load(Ordering::SeqCst);
            let clock = self.clock_ms.load(Ordering::SeqCst) * VERSIONS_PER_MS;
            let committed = self.last_commit.load(Ordering::SeqCst);
            let mut bound = clock.saturating_sub(1);
            if !applies.is_multiple_of(2) {
                let staging = self.staging.load(Ordering::SeqCst);
                if staging <= committed {
                    std::thread::yield_now();
                    continue;
                }
                bound = bound.min(staging - 1);
            }
            if self.applies.load(Ordering::SeqCst) == applies {
                return committed.max(bound);
            }
        }
    }

    /// Begin a transaction at the latest read version.
    pub fn create_transaction(&self) -> Transaction {
        let rv = self.get_read_version();
        Transaction::new(self.clone(), rv, self.clock_ms())
    }

    /// Begin a transaction at a caller-supplied read version (used by the
    /// Record Layer's read-version cache). Fails with `FutureVersion` if the
    /// version is above what a GRV would return now, or `TransactionTooOld`
    /// if it has fallen out of the MVCC window.
    pub fn create_transaction_at(&self, read_version: u64) -> Result<Transaction> {
        if read_version > self.newest_readable() {
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
    /// be inside the MVCC window. A commit stages under the shared lock too,
    /// so a read waits only for a publish: on the paged engine, installing
    /// the pages a walk built, never the walk itself.
    fn store_for_read(&self, read_version: u64) -> Result<RankedReadGuard<'_, Store>> {
        let waiting = rl_obs::Timer::start(rl_obs::Op::StoreLockWaitRead);
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
    /// so disjoint commits validate in parallel; [`Self::apply`] then
    /// stages and publishes. Returns the commit version and the
    /// keys/bytes written, which the transaction counts in its trace. The
    /// write set is taken from `writes` once validation, its operands'
    /// included, has passed: a commit refused before that keeps its writes.
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
        read_conflicts: &ReadConflicts,
        write_conflicts: ConflictSet,
        writes: &mut WriteSet,
        relied_on_metadata_version: bool,
        writes_metadata_version: bool,
    ) -> Result<CommitReceipt> {
        if read_version < self.oldest.load(Ordering::Acquire) {
            return Err(Error::TransactionTooOld);
        }

        // Lock the conflict shards this transaction's ranges can touch,
        // in ascending shard order (the ConflictShard indexed band).
        let mask = commit_shard_mask(read_conflicts, &write_conflicts, writes_metadata_version);
        let mut held = Vec::with_capacity(mask.count_ones() as usize);
        let acquiring = rl_obs::Timer::start(rl_obs::Op::ShardAcquire);
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

        // Surface an operand error before any write reaches the engine, so
        // a failed commit leaves nothing behind. Then apply while we still
        // hold our shard locks, so no conflicting transaction can validate
        // against a window that does not yet contain our writes.
        writes.validate()?;
        let receipt = self.apply(std::mem::take(writes), writes_metadata_version);

        // Record our write conflicts for future validations, in every shard
        // they touch: each shard's window holds the one shared copy.
        let write_mask = write_conflicts.shard_mask();
        let write_conflicts = Arc::new(write_conflicts);
        let horizon = self.oldest.load(Ordering::Acquire);
        for (idx, shard) in &mut held {
            if write_mask & (1 << *idx) != 0 {
                shard.record(receipt.version, horizon, Arc::clone(&write_conflicts));
            }
        }
        Ok(receipt)
    }

    /// Apply one commit's validated write set, one commit at a time under
    /// the commit-writer lock: one version allocation, one sorted engine
    /// batch staged and sealed — on the paged engine no tree walk and one
    /// WAL frame — under the shared store lock while reads go on, then the
    /// exclusive store lock only to publish it (on the paged engine, into
    /// the write buffer) and the version, and advance `oldest`. A commit
    /// that unwinds between its seal and its publish is discarded (see
    /// [`Unpublished`]), and its version is never published. A due
    /// compaction runs after it the same way, a bounded slice per publish,
    /// and so does a flush of the write buffer when the engine asks for one
    /// (see [`Self::flush`]): a compaction pass flushes first.
    fn apply(&self, writes: WriteSet, writes_metadata_version: bool) -> CommitReceipt {
        let mut writer = lock_ranked(&self.writer, LockRank::CommitWriter);
        // Assign the commit version: strictly increasing, and at least the
        // clock-implied version so versions track logical time. `applies`
        // turns odd before the clock is read and even once the version is
        // published, or the commit unwinds (see `newest_readable`).
        let applying = Applying::start(&self.applies, &self.staging);
        #[cfg(test)]
        self.pause_at(tests::PauseAt::Version, writer.last_commit_version);
        let clock_version = self.clock_ms.load(Ordering::SeqCst) * VERSIONS_PER_MS;
        let version = (writer.last_commit_version + 1).max(clock_version);
        applying.stage(version);
        writer.last_commit_version = version;
        writer.commits_since_compaction += 1;
        let compact_now = writer.commits_since_compaction >= self.options.compaction_interval;
        if compact_now {
            writer.commits_since_compaction = 0;
        }
        let horizon = version.saturating_sub(self.options.mvcc_window_versions);

        let tally = Tally::default();
        let staged = {
            let store = read_ranked(&self.store, LockRank::DatabaseStore);
            let timer = rl_obs::Timer::start(rl_obs::Op::BatchApply);
            let sorted = write_set::sorted_batch(writes, version, &tally);
            let mut staged = store.engine.stage(version, sorted);
            drop(timer);
            #[cfg(test)]
            self.pause_at(tests::PauseAt::Stage, version);
            // Seal the commit: a crash-safe engine persists it atomically
            // (one WAL frame); a crash before this point loses it.
            let _t = rl_obs::Timer::start(rl_obs::Op::BatchSeal);
            store.engine.seal(&mut staged);
            staged
        };

        let waiting = rl_obs::Timer::start(rl_obs::Op::StoreLockWaitLeader);
        let mut store = write_ranked(&self.store, LockRank::DatabaseStore);
        drop(waiting);
        let unpublished = Unpublished {
            engine: &mut *store.engine,
            staged: Some(staged),
        };
        // Injected while the store write lock is held, after the seal — the
        // worst spot a real storage-engine bug could fire.
        #[cfg(test)]
        if self.panic_next_commit.swap(false, Ordering::AcqRel) {
            panic!("injected commit failure");
        }
        unpublished.publish();
        let flush_now = store.engine.flush_due();
        // Publish only now, so a GRV can never hand out a version the
        // store has not fully materialized — and the metadata version
        // first, so a read version that includes this commit never comes
        // with a metadata version that does not.
        if writes_metadata_version {
            self.state_cache.publish(version);
        }
        self.last_commit.store(version, Ordering::SeqCst);
        drop(applying);
        self.oldest.fetch_max(horizon, Ordering::AcqRel);
        drop(store);
        if compact_now {
            self.compact();
        } else if flush_now {
            self.flush();
        }
        CommitReceipt {
            version,
            keys_written: tally.keys.get(),
            bytes_written: tally.bytes.get(),
        }
    }

    /// One compaction pass at `oldest`, run by the commit that holds the
    /// commit-writer lock: each slice staged under the shared store lock
    /// and published under the exclusive one. On the paged engine the pass
    /// flushes the write buffer first, since it prunes the tree.
    fn compact(&self) {
        let _t = rl_obs::Timer::start(rl_obs::Op::Compact);
        let oldest = self.oldest.load(Ordering::Acquire);
        let keys = self.publish_slices(|engine| engine.stage_compaction(oldest));
        rl_obs::record(rl_obs::Op::CompactKeys, keys as u64);
    }

    /// Flush the paged engine's write buffer, run by the commit that holds
    /// the commit-writer lock and made it due: each slice — one B-tree walk
    /// over the buffer's next keys — staged under the shared store lock and
    /// published under the exclusive one, until the buffer is empty. A
    /// checkpoint that waited for the empty buffer runs at the last
    /// publish.
    fn flush(&self) {
        let _t = rl_obs::Timer::start(rl_obs::Op::BufferFlush);
        self.publish_slices(|engine| engine.stage_flush());
    }

    /// Stage slices with `stage` under the shared store lock, reads going
    /// on beside it, and publish each under the exclusive one, until
    /// `stage` has none left. Returns the keys the slices visited.
    fn publish_slices(
        &self,
        stage: impl Fn(&dyn StorageEngine) -> Option<Staged<'static>>,
    ) -> usize {
        let mut keys = 0;
        loop {
            let slice = stage(&*read_ranked(&self.store, LockRank::DatabaseStore).engine);
            let Some(slice) = slice else {
                return keys;
            };
            keys += slice.keys();
            write_ranked(&self.store, LockRank::DatabaseStore)
                .engine
                .publish(slice);
        }
    }

    /// Test-only: if a pause is armed at `at`, report `version` and wait
    /// for the release (or for the test to drop its end).
    #[cfg(test)]
    fn pause_at(&self, at: tests::PauseAt, version: u64) {
        let mut armed = crate::sync::lock(&self.pause_next_commit);
        if armed.as_ref().is_some_and(|(point, _)| *point == at) {
            let (_, (reached, release)) = armed.take().unwrap();
            drop(armed);
            reached.send(version).unwrap();
            let _ = release.recv();
        }
    }

    /// Diagnostic: number of live keys at the latest version.
    pub fn live_key_count(&self) -> usize {
        let version = self.last_commit.load(Ordering::Acquire);
        read_ranked(&self.store, LockRank::DatabaseStore)
            .engine
            .live_key_count(version)
    }

    /// Diagnostic: latest commit version, read without a GRV.
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

/// A commit from before its version allocation to its publish: `applies`
/// is odd while one lives, and `staging` holds its version once
/// [`stage`](Applying::stage) stored it. Dropped, also when the commit
/// unwinds, it resets `staging` to 0 and turns `applies` even.
struct Applying<'a> {
    applies: &'a AtomicU64,
    staging: &'a AtomicU64,
}

impl<'a> Applying<'a> {
    fn start(applies: &'a AtomicU64, staging: &'a AtomicU64) -> Applying<'a> {
        applies.fetch_add(1, Ordering::SeqCst);
        Applying { applies, staging }
    }

    fn stage(&self, version: u64) {
        self.staging.store(version, Ordering::SeqCst);
    }
}

impl Drop for Applying<'_> {
    fn drop(&mut self) {
        self.staging.store(0, Ordering::SeqCst);
        self.applies.fetch_add(1, Ordering::SeqCst);
    }
}

/// A sealed commit under the exclusive store lock, until it is published.
/// Dropped unpublished — the commit unwound before its publish — it has the
/// engine [`discard`](StorageEngine::discard) it: the sealed frame is cut
/// off and the stage's pages freed, so neither the live database nor a
/// reopen holds a commit whose client saw it fail. A failure inside the
/// publish itself is the engine's, and leaves the engine as it failed.
struct Unpublished<'e, 'b> {
    engine: &'e mut dyn StorageEngine,
    staged: Option<Staged<'b>>,
}

impl Unpublished<'_, '_> {
    fn publish(mut self) {
        if let Some(staged) = self.staged.take() {
            self.engine.publish(staged);
        }
    }
}

impl Drop for Unpublished<'_, '_> {
    fn drop(&mut self) {
        if let Some(staged) = self.staged.take() {
            self.engine.discard(staged);
        }
    }
}

/// What a commit gets back from [`Database::apply`].
pub(crate) struct CommitReceipt {
    pub(crate) version: u64,
    pub(crate) keys_written: u64,
    pub(crate) bytes_written: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::MutationType;
    use crate::conflict::ALL_SHARDS;
    use crate::range::RangeOptions;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Where a paused commit sends its version, and where it waits.
    pub(super) type Pause = (mpsc::Sender<u64>, mpsc::Receiver<()>);

    /// Where in [`Database::apply`] a commit pauses.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) enum PauseAt {
        /// After `applies` turned odd, before the version is allocated; it
        /// sends the last version allocated.
        Version,
        /// After the stage, under the shared store lock; it sends its
        /// version.
        Stage,
    }

    fn pause_next_commit(db: &Database, at: PauseAt) -> (mpsc::Receiver<u64>, mpsc::Sender<()>) {
        let (reached, at_pause) = mpsc::channel();
        let (release, released) = mpsc::channel();
        *crate::sync::lock(&db.pause_next_commit) = Some((at, (reached, released)));
        (at_pause, release)
    }

    /// A commit held after its stage, under the shared store lock, blocks
    /// no read: a get, a range read and a GRV complete, none sees the
    /// staged writes, and the GRV stays below the staged version until the
    /// publish, after which it reaches it. On either engine (`RL_ENGINE`).
    #[test]
    fn reads_and_grvs_complete_while_a_commit_is_staged() {
        let db = Database::new();
        let tx = db.create_transaction();
        for i in 0..200u32 {
            tx.set(format!("row{i:03}").as_bytes(), b"old");
        }
        tx.commit().unwrap();
        let (at_stage, release) = pause_next_commit(&db, PauseAt::Stage);
        let committer = {
            let db = db.clone();
            std::thread::spawn(move || {
                let tx = db.create_transaction();
                tx.set(b"row100", b"new");
                tx.set(b"row100a", b"inserted");
                tx.clear(b"row150");
                tx.commit().map(|()| tx.committed_version().unwrap())
            })
        };
        let version = at_stage.recv_timeout(Duration::from_secs(10)).unwrap();
        let (done, finished) = mpsc::channel();
        let reader = {
            let db = db.clone();
            std::thread::spawn(move || {
                let read_version = db.get_read_version();
                let tx = db.create_transaction_at(read_version).unwrap();
                let got = tx.get(b"row100").unwrap();
                let rows = tx
                    .get_range(b"row", b"rox", RangeOptions::default())
                    .unwrap();
                done.send((read_version, got, rows.len())).unwrap();
            })
        };
        let outcome = finished.recv_timeout(Duration::from_secs(10));
        release.send(()).unwrap();
        let (read_version, got, rows) = outcome.expect("a read waited for a staged commit");
        reader.join().unwrap();
        assert!(
            read_version < version,
            "GRV {read_version} >= staged {version}"
        );
        assert_eq!(got.as_deref(), Some(&b"old"[..]));
        assert_eq!(rows, 200, "the staged insert and clear are not visible");
        assert_eq!(committer.join().unwrap(), Ok(version));
        assert!(db.get_read_version() >= version);
        let tx = db.create_transaction();
        assert_eq!(tx.get(b"row100").unwrap().as_deref(), Some(&b"new"[..]));
        let rows = tx.get_range(b"row", b"rox", RangeOptions::default());
        assert_eq!(rows.unwrap().len(), 200);
    }

    /// A GRV taken while a commit has turned `applies` odd and not yet
    /// stored its version waits for that version instead of answering
    /// without it: after idle time an earlier GRV answered near the clock,
    /// above the last commit, and read versions never go back, so a
    /// transaction can still start at that earlier one.
    #[test]
    fn read_versions_never_go_back_while_a_commit_allocates_its_version() {
        let db = Database::new();
        let tx = db.create_transaction();
        tx.set(b"k", b"v");
        tx.commit().unwrap();
        db.advance_clock(10_000);
        let earlier = db.get_read_version();
        assert!(earlier > db.last_commit_version());
        let (at_version, release) = pause_next_commit(&db, PauseAt::Version);
        let committer = {
            let db = db.clone();
            std::thread::spawn(move || {
                let tx = db.create_transaction();
                tx.set(b"k", b"w");
                tx.commit().map(|()| tx.committed_version().unwrap())
            })
        };
        at_version.recv_timeout(Duration::from_secs(10)).unwrap();
        let (done, finished) = mpsc::channel();
        let reader = {
            let db = db.clone();
            std::thread::spawn(move || {
                let read_version = db.get_read_version();
                let at_earlier = db.create_transaction_at(earlier).map(|_| ());
                done.send((read_version, at_earlier)).unwrap();
            })
        };
        // Give the reader time to answer inside the window, as it would if
        // it answered without the version, before the commit goes on.
        let inside = finished.recv_timeout(Duration::from_millis(100));
        release.send(()).unwrap();
        let (read_version, at_earlier) = inside
            .or_else(|_| finished.recv_timeout(Duration::from_secs(10)))
            .unwrap();
        reader.join().unwrap();
        assert!(
            read_version >= earlier,
            "GRV went back from {earlier} to {read_version}"
        );
        assert_eq!(at_earlier, Ok(()));
        let version = committer.join().unwrap().unwrap();
        assert!(version > earlier);
        assert!(db.get_read_version() >= version);
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

    /// After idle logical time, a transaction opened 0 ms before the next
    /// commit still reads: its read version follows the clock, so that
    /// commit's MVCC horizon stays below it.
    #[test]
    fn a_read_version_follows_the_clock_through_idle_time() {
        let db = Database::new();
        let start_ms = db.clock_ms();
        let tx = db.create_transaction();
        tx.set(b"k", b"v");
        tx.commit().unwrap();
        db.advance_clock(10_000);
        let a = db.create_transaction();
        assert_eq!(a.read_version(), (start_ms + 10_000) * VERSIONS_PER_MS - 1);
        let b = db.create_transaction();
        b.set(b"k", b"w");
        b.commit().unwrap();
        assert!(b.committed_version().unwrap() > a.read_version());
        assert_eq!(a.get(b"k"), Ok(Some(b"v".to_vec())));
        // The clock-implied version counts as committed.
        assert!(db.create_transaction_at(a.read_version()).is_ok());
        assert_eq!(
            db.create_transaction_at(b.committed_version().unwrap() + 1)
                .err(),
            Some(Error::FutureVersion)
        );
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
    fn cached_state_commits_keep_disjoint_shards() {
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
                let mut writes = ConflictSet::default();
                writes.push_point(format!("t{t}/row").as_bytes());
                commit_shard_mask(&ConflictSet::default(), &writes, false)
            })
            .collect();
        assert_eq!(masks[0].count_ones(), 1);
        assert_eq!(masks[1].count_ones(), 1);
        assert_eq!(masks[0] & masks[1], 0);
        // Only a write of the key excludes everyone.
        let none = ConflictSet::default();
        assert_eq!(
            commit_shard_mask(&ReadConflicts::default(), &none, true),
            ALL_SHARDS
        );
        for tx in &txs {
            tx.commit().unwrap();
        }
        assert_eq!(db.metadata_version(), 0, "no commit wrote the key");
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

    /// A commit that dies while it holds the store write lock, after its
    /// seal, poisons the lock; the next commit recovers it and goes through.
    /// The dead commit is discarded: the live database does not show it,
    /// and neither does a reopen of the files as a process stopped now
    /// would leave them, whose WAL replay holds the next commit only. On
    /// the paged engine, whose seal writes a WAL frame.
    #[test]
    fn commit_panic_under_store_lock_keeps_accepting_commits() {
        let dir = std::env::temp_dir().join(format!("rl-commit-panic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let paged = |name: &str| DatabaseOptions {
            engine: crate::options::EngineKind::Paged(crate::options::PagedConfig {
                path: dir.join(name),
                pool_pages: 16,
                eviction: rl_storage::EvictionPolicy::Sieve,
                remove_dir_on_drop: true,
            }),
            ..DatabaseOptions::default()
        };
        let db = Database::with_options(paged("live"));
        db.panic_next_commit
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
            "injected commit failure should unwind the committing thread"
        );
        let tx = db.create_transaction();
        tx.set(b"survivor", b"v");
        tx.commit().unwrap();
        let tx = db.create_transaction();
        assert_eq!(tx.get(b"survivor").unwrap(), Some(b"v".to_vec()));
        assert_eq!(tx.get(b"doomed").unwrap(), None);

        std::fs::create_dir_all(dir.join("copy")).unwrap();
        for file in ["pages.db", "wal.log"] {
            std::fs::copy(dir.join("live").join(file), dir.join("copy").join(file)).unwrap();
        }
        let reopened = Database::with_options(paged("copy"));
        let tx = reopened.create_transaction();
        assert_eq!(tx.get(b"survivor").unwrap(), Some(b"v".to_vec()));
        assert_eq!(tx.get(b"doomed").unwrap(), None, "a reopen replayed it");
        drop((tx, reopened, db));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn commit_with_bad_operand_fails_without_partial_writes() {
        let db = Database::new();
        let before = db.last_commit_version();
        let tx = db.create_transaction();
        tx.set(b"bad-first", b"v");
        // ADD operand too wide
        tx.mutate(MutationType::Add, b"bad", &[0u8; 17]).unwrap();
        assert!(matches!(tx.commit(), Err(Error::InvalidMutation(_))));
        // Nothing reached the engine — not even the Set that preceded the
        // bad atomic — and no version was spent on it.
        assert_eq!(db.last_commit_version(), before);
        let tx = db.create_transaction();
        assert_eq!(tx.get(b"bad-first").unwrap(), None);
        assert_eq!(tx.get(b"bad").unwrap(), None);
    }

    #[test]
    fn concurrent_disjoint_commits_get_distinct_versions() {
        let db = Database::new();
        let start = Arc::new(std::sync::Barrier::new(2));
        let threads: Vec<_> = (0..2)
            .map(|t| {
                let (db, start) = (db.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    (0..50)
                        .map(|j| {
                            let tx = db.create_transaction();
                            tx.set(format!("t{t}/row{j}").as_bytes(), b"v");
                            tx.commit().unwrap();
                            tx.versionstamp().unwrap()
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut versions: Vec<u64> = Vec::new();
        for thread in threads {
            for stamp in thread.join().unwrap() {
                assert_eq!(stamp[8..], [0, 0], "batch-order bytes");
                versions.push(u64::from_be_bytes(stamp[..8].try_into().unwrap()));
            }
        }
        versions.sort_unstable();
        versions.dedup();
        assert_eq!(versions.len(), 100, "every commit has its own version");
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
        let mask = |key: &[u8]| {
            let mut writes = ConflictSet::default();
            writes.push_point(key);
            commit_shard_mask(&ConflictSet::default(), &writes, false)
        };
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
        let shard = |key: &[u8]| {
            let mut writes = ConflictSet::<0>::default();
            writes.push_point(key);
            writes.shard_mask()
        };
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
