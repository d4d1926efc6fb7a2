//! The [`StorageEngine`] trait: the MVCC storage contract the simulator's
//! commit pipeline and read paths are written against.
//!
//! The contract is versioned writes sealed in batches, and two reads at a
//! read version: a point [`get`](StorageEngine::get) and one ordered
//! [`visit`](StorageEngine::visit) of a key range, in either direction,
//! that lends each visible row to a visitor until the visitor stops it.
//! Everything ordered the layers above need — range reads, key
//! selectors, "last key below", "n-th key after" — is a `visit` with a
//! direction and a visitor that stops, so a read costs what it returns
//! and copies only what its caller keeps. [`scan`](StorageEngine::scan)
//! and [`range`](StorageEngine::range) are copying adapters over it.
//! The write side has the same shape, split in two. A commit hands the
//! engine one [`Batch`]: every key it writes once, already folded, in key
//! order. [`stage`] prepares it beside the published state and returns it
//! as a [`Staged`]; [`seal`] makes a staged batch durable; [`publish`]
//! makes it what reads see. Staging and sealing take `&self`, so the
//! database runs them under the shared side of its store lock while
//! snapshot reads go on; publishing takes `&mut self`, a short section
//! under the exclusive side. A commit costs a map insert per key it
//! writes and, on the paged engine, one WAL frame: the paged engine's
//! stage resolves the batch against its write buffer and its tree — an
//! `Update` reads the value it folds, a range clear the live keys it
//! tombstones — and walks no tree, and its publish puts the writes into
//! the buffer. Its tree is written in batches: once the buffer holds
//! enough, [`flush_due`] says so, and [`stage_flush`] stages the next
//! bounded slice of it as one walk of the tree that appends every
//! buffered version of each key to the key's chain at once, each leaf it
//! touches rewritten once. The memory engine's stage carries the batch,
//! and its publish is the map update. [`stage_compaction`] stages a
//! bounded slice of MVCC compaction the same way — on the paged engine
//! after the buffer's slices, since compaction prunes the tree: work
//! proportional to the keys written since the last pass — both engines log
//! which keys those are (the crate's `garbage` module) — and none for the
//! keys stored. Every write goes through this one path: [`commit`] runs it
//! for one batch, the memory engine's [`write`] commits a batch of one, and
//! the paged engine's [`commit_batch`] logs what its `write`s gathered as
//! one WAL frame and applies it as the replay at open does. What a read
//! changes inside an engine (the paged engine's buffer pool) the engine
//! locks itself.
//!
//! [`stage`]: StorageEngine::stage
//! [`seal`]: StorageEngine::seal
//! [`publish`]: StorageEngine::publish
//! [`stage_compaction`]: StorageEngine::stage_compaction
//! [`flush_due`]: StorageEngine::flush_due
//! [`stage_flush`]: StorageEngine::stage_flush
//! [`write`]: StorageEngine::write
//! [`commit_batch`]: StorageEngine::commit_batch

use std::ops::ControlFlow;

/// The buffer-pool eviction policy, kept so that callers naming it still
/// compile: SIEVE is the only one, and nothing branches on it. ROADMAP
/// direction 8's benchmark-only change deletes it, along with
/// `PagedConfig::eviction` and [`PagedEngine::open`]'s policy argument.
///
/// [`PagedEngine::open`]: crate::PagedEngine::open
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// SIEVE (NSDI '24): FIFO order with a lazily moving hand that spares
    /// visited pages.
    #[default]
    Sieve,
}

/// What [`StorageEngine::visit`] lends each visible row to, as borrowed
/// key and value slices: [`ControlFlow::Break`] stops the read.
pub type Visitor<'a> = dyn FnMut(&[u8], &[u8]) -> ControlFlow<()> + 'a;

/// What a [`Mutation::Update`] applies, once: from the value visible at
/// the batch's version to the value written.
pub type Fold<'a> = dyn FnOnce(Option<&[u8]>) -> Option<Vec<u8>> + 'a;

/// What a [`Batch`] does at one key.
pub enum Mutation<'a> {
    /// Write this value (`None`: a tombstone).
    Write(Option<Vec<u8>>),
    /// Read-modify-write: called once with the value visible at the batch's
    /// version, and what it returns is written, as `Write` would write it.
    Update(Box<Fold<'a>>),
    /// Tombstone every key from this one up to this end, exclusive, whose
    /// newest entry is a live value, except the keys the batch's other
    /// mutations name: those it writes itself.
    ClearRange(Vec<u8>),
}

/// The argument of [`StorageEngine::stage`]: ascending by key, no key
/// named by two `Write`/`Update` items, and a `ClearRange` ahead of an item
/// at its own first key. Range clears may overlap each other.
pub type Batch<'a> = Vec<(Vec<u8>, Mutation<'a>)>;

/// A write staged beside an engine's published state: a batch from
/// [`StorageEngine::stage`] or a compaction slice from
/// [`StorageEngine::stage_compaction`], which reads do not see until
/// [`StorageEngine::publish`] installs it. It must be published, or
/// dropped by [`StorageEngine::discard`], before the engine stages or
/// publishes anything else: each engine counts its publishes, and
/// publishing a `Staged` made before another publish panics.
#[derive(Debug)]
pub struct Staged<'a> {
    /// The engine's publish count when this was staged.
    pub(crate) generation: u64,
    /// The keys a compaction slice visits; 0 for a batch.
    pub(crate) keys: usize,
    pub(crate) work: Work<'a>,
}

/// What each engine stages.
pub(crate) enum Work<'a> {
    /// The memory engine's batch, applied at publish.
    Batch(u64, Batch<'a>),
    /// The memory engine's compaction slice: its horizon and keys.
    Compaction(u64, crate::garbage::Slice),
    /// The paged engine's pages, log frame and garbage-log entries.
    Paged(crate::paged::StagedPages),
}

impl std::fmt::Debug for Work<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Work::Batch(version, batch) => write!(f, "Batch(v{version}, {} items)", batch.len()),
            Work::Compaction(oldest, slice) => write!(f, "Compaction(v{oldest}, {slice:?})"),
            Work::Paged(pages) => pages.fmt(f),
        }
    }
}

impl Staged<'_> {
    /// The keys a compaction slice visits (0 for a batch).
    pub fn keys(&self) -> usize {
        self.keys
    }
}

/// Panic unless `staged` was made at the engine's current publish count
/// `generation`; then count this publish.
pub(crate) fn check_generation(generation: &mut u64, staged: &Staged<'_>) {
    assert_eq!(
        staged.generation, *generation,
        "a Staged was published after the engine published something else"
    );
    *generation += 1;
}

/// Ordered multi-version key-value storage, as required by the simulator.
///
/// Versions must be applied in nondecreasing order (the commit pipeline
/// guarantees this); reads at `read_version` observe, for each key, the
/// newest write with version `<= read_version`.
pub trait StorageEngine: Send + Sync + std::fmt::Debug {
    /// Stage one sorted batch at `version` beside the published state;
    /// reads see none of it until [`publish`](Self::publish). A write at a
    /// version a key's chain already holds replaces that entry; a later one
    /// is appended. An `Update` is called once, with the value visible at
    /// `version`: here on the paged engine, at publish on the memory
    /// engine.
    ///
    /// Cost contract: no tree walk and no page written. On the paged engine
    /// a `Write` costs nothing here; an `Update` reads the key's value from
    /// the write buffer, or, when the buffer holds no version of the key,
    /// with one descent of the tree (a [`get`](Self::get)); a range clear
    /// reads the buffer's and the tree's keys in its range (one seek, then
    /// leaf to leaf). A batch whose writes alone reach the buffer's flush
    /// size (a bulk load) is the exception: it is staged as one flush walk
    /// of the buffer and the batch together, one seek per leaf they touch,
    /// as [`stage_flush`](Self::stage_flush) describes. In memory, nothing
    /// until publish, and then one map lookup per key.
    fn stage<'a>(&self, version: u64, batch: Batch<'a>) -> Staged<'a>;

    /// Make a staged batch durable before it is published: on the paged
    /// engine one WAL frame, after which a crash replays the batch, and
    /// which [`discard`](Self::discard) cuts off again. The paged engine
    /// publishes a batch only sealed. The memory engine does nothing.
    fn seal(&self, _staged: &mut Staged<'_>) {}

    /// Stage a slice of MVCC compaction at `oldest_version`, or `None` when
    /// no logged write at or below it is left to visit. Published, the
    /// slice drops the versions of its keys that no read version `>=
    /// oldest_version` sees, and the keys that are lone tombstones at or
    /// below it; when the slices run out, no chain holds an entry shadowed
    /// at `oldest_version` and no key is such a tombstone.
    ///
    /// Cost contract: a slice visits the next keys of the garbage log whose
    /// write at or below `oldest_version` shadowed an older entry or was a
    /// tombstone and that no earlier slice has visited for it — at most 64
    /// on the paged engine, every one on the memory engine — in
    /// key order, as one sorted batch: one seek per leaf holding such keys,
    /// and one read of a sibling per leaf the slice leaves under a quarter
    /// page, which it merges into that sibling when the two fit (the paged
    /// engine). Work is proportional to the keys written, none to the keys
    /// stored; nothing walks the whole tree. On the paged engine a pass
    /// flushes the write buffer first: while the buffer holds keys, this
    /// stages a slice of its flush, as [`stage_flush`](Self::stage_flush)
    /// does, which visits no garbage-log key and counts 0 of them.
    fn stage_compaction(&self, oldest_version: u64) -> Option<Staged<'static>>;

    /// Whether the write buffer asks to be flushed: the paged engine's
    /// buffer passed its flush size, or a checkpoint is due, which runs
    /// only on an empty buffer. The database asks after each publish and
    /// then flushes it with [`stage_flush`](Self::stage_flush). The memory
    /// engine has no buffer.
    fn flush_due(&self) -> bool {
        false
    }

    /// Stage the next slice of a due flush of the write buffer, or `None`
    /// when none is due. Published, the slice appends every buffered
    /// version of its keys to their chains in the tree and drops those keys
    /// from the buffer; the last slice leaves the buffer empty and logs the
    /// garbage the flush left.
    ///
    /// Cost contract: one walk of the tree over the buffer's next keys in
    /// key order — on the paged engine until the slice holds about 16 pages
    /// of its own, so that it holds a bounded number beside the published
    /// tree — one seek per leaf they lie in, each leaf rewritten once and
    /// each ancestor at most once, however many versions of a key the
    /// buffer holds.
    fn stage_flush(&self) -> Option<Staged<'static>> {
        None
    }

    /// Make `staged` what reads see. On the paged engine: put a batch's
    /// writes into the write buffer, or install the images a walk built,
    /// free the pages the new tree no longer reaches, set the root, drop the
    /// keys a flush slice flushed from the buffer and log its garbage — and,
    /// for a sealed batch or a flush that leaves the buffer empty,
    /// checkpoint if one is due and the buffer is empty. No tree walk, no
    /// page encoding.
    fn publish(&mut self, staged: Staged<'_>);

    /// Drop `staged` unpublished, as if it had never been staged: on the
    /// paged engine the WAL is cut back to where its seal began, so a
    /// reopen does not replay it, and the pages the stage took are freed.
    /// The memory engine only drops it. Like a publish, it must come before
    /// the engine stages or publishes anything else.
    fn discard(&mut self, staged: Staged<'_>) {
        drop(staged);
    }

    /// Record a write (set, or clear via `None`) at `version`. The writes
    /// made since the last [`commit_batch`](Self::commit_batch) become
    /// visible no later than the next one; a crash-safe engine makes them
    /// durable there, atomically, in one WAL frame, and a crash before it
    /// loses them. Provided: a [`commit`] of a batch of one, visible at
    /// once (the memory engine). The paged engine only gathers the write.
    fn write(&mut self, key: Vec<u8>, value: Option<Vec<u8>>, version: u64) {
        commit(self, version, vec![(key, Mutation::Write(value))]);
    }

    /// Make the writes since the last `commit_batch` visible and, on a
    /// crash-safe engine, durable in one WAL frame (see
    /// [`write`](Self::write)). The paged engine then flushes its write
    /// buffer into its tree and checkpoints if one is due. The database
    /// commits with [`seal`](Self::seal) instead and never calls it.
    fn commit_batch(&mut self) {}

    /// Read the value of `key` visible at `read_version`.
    ///
    /// Cost contract: one seek to the key. On the paged engine that is a
    /// lookup in the write buffer, which answers when it holds a version of
    /// the key at or below `read_version`; else one page per tree level,
    /// and O(log entries) key compares per page once the page's image has
    /// been walked: the first walk of an image parses it whole and caches
    /// its entry offsets, and later walks binary-search them.
    fn get(&self, key: &[u8], read_version: u64) -> Option<Vec<u8>>;

    /// Lend every row of `[begin, end)` visible at `read_version` to
    /// `visitor`, ascending from `begin`, or with `reverse` descending from
    /// `end`, until the range ends or the visitor returns
    /// [`ControlFlow::Break`]. This is the engine's one ordered read.
    ///
    /// Cost contract: one seek to the starting bound (on the paged engine
    /// the descent of a [`get`](Self::get), and a seek of the write
    /// buffer, whose keys it merges with the tree's), then each visible row
    /// lent once as a borrowed key and value, with nothing copied: work
    /// proportional to the rows lent plus the rows stepped over because
    /// they are invisible at `read_version` (tombstones, versions newer
    /// than the read version). The read never touches the part of the
    /// range beyond the row at which the visitor stopped — on the paged
    /// engine bar the tree's next row, which a merge compares a buffered
    /// row with — and on the paged engine no leaf past the range's end: it
    /// stops at the first ancestor separator that the end does not exceed. The visitor runs while the
    /// caller holds the database's shared store lock, so it must not call
    /// back into the database.
    fn visit(
        &self,
        begin: &[u8],
        end: &[u8],
        read_version: u64,
        reverse: bool,
        visitor: &mut Visitor<'_>,
    );

    /// The first `limit` rows of [`visit`](Self::visit), each copied once.
    /// A copying adapter for tests and diagnostics; pass `usize::MAX` for
    /// the whole range.
    fn scan(
        &self,
        begin: &[u8],
        end: &[u8],
        read_version: u64,
        reverse: bool,
        limit: usize,
    ) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut rows = Vec::new();
        if limit > 0 {
            self.visit(begin, end, read_version, reverse, &mut |key, value| {
                rows.push((key.to_vec(), value.to_vec()));
                if rows.len() < limit {
                    ControlFlow::Continue(())
                } else {
                    ControlFlow::Break(())
                }
            });
        }
        rows
    }

    /// Every row in `[begin, end)` visible at `read_version`, copied: an
    /// unbounded [`scan`](Self::scan). It stays only because the
    /// benchmark's storage probes (`benchmark/src/probes.rs`) call it.
    fn range(
        &self,
        begin: &[u8],
        end: &[u8],
        read_version: u64,
        reverse: bool,
    ) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.scan(begin, end, read_version, reverse, usize::MAX)
    }

    /// The highest version written to this engine or found stored when it
    /// was opened (0 when empty). A database opened over existing data
    /// starts its commit version here, so it reads what is stored and
    /// commits above it.
    fn newest_version(&self) -> u64;

    /// Number of live keys at `read_version` (test/diagnostic helper).
    fn live_key_count(&self, read_version: u64) -> usize;

    /// Total number of (key, version) entries retained (diagnostic).
    fn total_version_entries(&self) -> usize;

    /// Short human-readable engine description for diagnostics.
    fn describe(&self) -> String;
}

/// Commit one sorted batch at `version` as the database does, on one
/// thread: [`stage`](StorageEngine::stage), [`seal`](StorageEngine::seal),
/// [`publish`](StorageEngine::publish), then the flush it made due, slice
/// by slice.
pub fn commit<E: StorageEngine + ?Sized>(engine: &mut E, version: u64, batch: Batch<'_>) {
    let mut staged = engine.stage(version, batch);
    engine.seal(&mut staged);
    engine.publish(staged);
    while let Some(slice) = engine.stage_flush() {
        engine.publish(slice);
    }
}

/// Compaction at `oldest` to the end, slice by slice, as the database runs
/// it on one thread; returns the keys the slices visited.
#[cfg(test)]
pub(crate) fn compact(engine: &mut dyn StorageEngine, oldest: u64) -> usize {
    let mut keys = 0;
    while let Some(slice) = engine.stage_compaction(oldest) {
        keys += slice.keys();
        engine.publish(slice);
    }
    keys
}
