//! The [`StorageEngine`] trait: the MVCC storage contract the simulator's
//! commit pipeline and read paths are written against.
//!
//! The contract is versioned writes sealed in batches, and two reads at a
//! read version: a point [`get`](StorageEngine::get) and one bounded
//! [`scan`](StorageEngine::scan) of a key range, in either direction,
//! that stops after `limit` visible rows. Everything ordered the layers
//! above need — range reads, key selectors, "last key below", "n-th key
//! after" — is a `scan` with a direction and a limit, so a read costs
//! what it returns. The write side has the same shape. A commit hands the
//! engine one [`Batch`]: every key it writes once, already folded, in key
//! order, through [`apply_sorted`]. A batch costs one seek per leaf it
//! touches, not one per key: the paged engine walks the tree once from the
//! batch's first key to its last and rewrites each leaf it changes once.
//! [`write`], [`update`] and [`clear_range`] are its one-item cases.
//! [`compact`] does work proportional to the keys written since the last
//! pass — both engines log which keys those are (the crate's `garbage`
//! module) — and none for the keys stored. Writes take `&mut self` and
//! reads `&self`, so the database runs snapshot reads under the shared
//! side of its store lock, concurrently with each other, and a commit
//! under the exclusive side. What a read changes inside an engine (the
//! paged engine's buffer pool) the engine locks itself.
//!
//! [`apply_sorted`]: StorageEngine::apply_sorted
//! [`write`]: StorageEngine::write
//! [`update`]: StorageEngine::update
//! [`clear_range`]: StorageEngine::clear_range
//! [`compact`]: StorageEngine::compact

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

/// What [`StorageEngine::update`] applies: from the value visible at the
/// write's version to the value written (`None`: a tombstone).
pub type Update<'a> = dyn FnMut(Option<&[u8]>) -> Option<Vec<u8>> + 'a;

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

/// The argument of [`StorageEngine::apply_sorted`]: ascending by key, no
/// key named by two `Write`/`Update` items, and a `ClearRange` ahead of an
/// item at its own first key. Range clears may overlap each other.
pub type Batch<'a> = Vec<(Vec<u8>, Mutation<'a>)>;

/// Ordered multi-version key-value storage, as required by the simulator.
///
/// Versions must be applied in nondecreasing order (the commit pipeline
/// guarantees this); reads at `read_version` observe, for each key, the
/// newest write with version `<= read_version`.
pub trait StorageEngine: Send + Sync + std::fmt::Debug {
    /// Apply one sorted batch at `version`. A write at a version a key's
    /// chain already holds replaces that entry; a later one is appended.
    ///
    /// Cost contract: one seek per leaf the batch touches, not per key. On
    /// the paged engine the walk descends to the first key's leaf, puts
    /// every mutation below that leaf's upper separator into one new image
    /// (split as many ways as it needs), climbs only as far as the next
    /// key needs, and rewrites each ancestor at most once: a page above a
    /// leaf is rewritten only when the id of a page below it changed (the
    /// first write down a path after a checkpoint) or a split reaches it.
    /// A range clear also reads each leaf in its range. In memory, one map
    /// lookup per key.
    fn apply_sorted(&mut self, version: u64, batch: Batch<'_>);

    /// Record a write (set, or clear via `None`) at `version`: a batch of
    /// one, so one root-to-leaf descent on the paged engine.
    fn write(&mut self, key: Vec<u8>, value: Option<Vec<u8>>, version: u64) {
        self.apply_sorted(version, vec![(key, Mutation::Write(value))]);
    }

    /// Read-modify-write: `f` is called once with the value of `key`
    /// visible at `version` (which includes an entry written at `version`
    /// itself), and what it returns is written at `version` exactly as
    /// [`write`](Self::write) would — `None` a tombstone, an entry already
    /// at `version` replaced. A batch of one: the value is read where the
    /// write's seek ends, never by a `get` first.
    fn update(&mut self, key: Vec<u8>, version: u64, f: &mut Update<'_>) {
        let update = Mutation::Update(Box::new(|visible: Option<&[u8]>| f(visible)));
        self.apply_sorted(version, vec![(key, update)]);
    }

    /// Clear every key in `[begin, end)` at `version` by writing tombstones:
    /// a batch of one range clear.
    fn clear_range(&mut self, begin: &[u8], end: &[u8], version: u64) {
        let clear = Mutation::ClearRange(end.to_vec());
        self.apply_sorted(version, vec![(begin.to_vec(), clear)]);
    }

    /// Mark the end of a committed batch. A crash-safe engine makes every
    /// write since the previous `commit_batch` durable atomically; the
    /// in-memory engine ignores it.
    fn commit_batch(&mut self) {}

    /// Read the value of `key` visible at `read_version`.
    ///
    /// Cost contract: one seek to the key. On the paged engine that is one
    /// page per tree level, and O(log entries) key compares per page once
    /// the page's image has been walked: the first walk of an image parses
    /// it whole and caches its entry offsets, and later walks
    /// binary-search them.
    fn get(&self, key: &[u8], read_version: u64) -> Option<Vec<u8>>;

    /// The first `limit` keys in `[begin, end)` visible at `read_version`,
    /// ascending from `begin`, or with `reverse` descending from `end`.
    ///
    /// Cost contract: one seek to the starting bound (on the paged engine
    /// the descent of a [`get`](Self::get)), then work
    /// proportional to the rows returned plus the rows stepped over
    /// because they are invisible at `read_version` (tombstones, versions
    /// newer than the read version). The scan never touches the part of
    /// the range beyond the `limit`-th visible row, and on the paged
    /// engine no leaf past the range's end: it stops at the first
    /// ancestor separator that the end does not exceed. Pass `usize::MAX`
    /// for the whole range.
    fn scan(
        &self,
        begin: &[u8],
        end: &[u8],
        read_version: u64,
        reverse: bool,
        limit: usize,
    ) -> Vec<(Vec<u8>, Vec<u8>)>;

    /// Every key in `[begin, end)` visible at `read_version`: an unbounded
    /// [`scan`](Self::scan).
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

    /// Drop versions that are no longer visible to any read version
    /// `>= oldest_version`, and entries that are entirely dead: when it
    /// returns, no chain holds an entry shadowed at `oldest_version` and no
    /// key is a lone tombstone at or below it. Returns the number of keys
    /// visited.
    ///
    /// Cost contract: it visits each distinct key whose write at or below
    /// `oldest_version` shadowed an older entry or was a tombstone and that
    /// no earlier pass has visited for it, in key order, as one sorted
    /// batch: one seek per leaf holding such keys. Work is proportional to
    /// the keys written, none to the keys stored; nothing walks the whole
    /// tree.
    fn compact(&mut self, oldest_version: u64) -> usize;

    /// Force all buffered state to disk (checkpoint). No-op in memory.
    fn flush(&mut self) {}

    /// Number of live keys at `read_version` (test/diagnostic helper).
    fn live_key_count(&self, read_version: u64) -> usize;

    /// Total number of (key, version) entries retained (diagnostic).
    fn total_version_entries(&self) -> usize;

    /// Short human-readable engine description for diagnostics.
    fn describe(&self) -> String;
}
