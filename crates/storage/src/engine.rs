//! The [`StorageEngine`] trait: the MVCC storage contract the simulator's
//! commit pipeline and read paths are written against.
//!
//! The contract is versioned writes sealed in batches, and two reads at a
//! read version: a point [`get`](StorageEngine::get) and one bounded
//! [`scan`](StorageEngine::scan) of a key range, in either direction,
//! that stops after `limit` visible rows. Everything ordered the layers
//! above need — range reads, key selectors, "last key below", "n-th key
//! after" — is a `scan` with a direction and a limit, so a read costs
//! what it returns. The write side has the same shape: [`write`] and the
//! read-modify-write [`update`] are one seek each, and [`compact`] does
//! work proportional to the keys written since the last pass — both engines
//! log which keys those are (the crate's `garbage` module) — and none for
//! the keys stored. Writes take `&mut self` and reads `&self`, so the
//! database runs snapshot reads under the shared side of its store lock,
//! concurrently with each other, and a commit under the exclusive side.
//! What a read changes inside an engine (the paged engine's buffer pool)
//! the engine locks itself.
//!
//! [`write`]: StorageEngine::write
//! [`update`]: StorageEngine::update
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

/// Ordered multi-version key-value storage, as required by the simulator.
///
/// Versions must be applied in nondecreasing order (the commit pipeline
/// guarantees this); reads at `read_version` observe, for each key, the
/// newest write with version `<= read_version`.
pub trait StorageEngine: Send + Sync + std::fmt::Debug {
    /// Record a write (set, or clear via `None`) at `version`.
    ///
    /// Cost contract: one seek to the key. On the paged engine that is one
    /// root-to-leaf descent and the leaf rewritten; a page above it is
    /// rewritten only when the id of the page below it changed (the first
    /// write down a path after a checkpoint) or a split reaches it. The
    /// descent makes O(log entries) key compares per level once a page's
    /// image has been walked (see [`get`](Self::get)).
    fn write(&mut self, key: Vec<u8>, value: Option<Vec<u8>>, version: u64);

    /// Read-modify-write: `f` is called once with the value of `key`
    /// visible at `version` (which includes an entry written at `version`
    /// itself), and what it returns is written at `version` exactly as
    /// [`write`](Self::write) would — `None` a tombstone, an entry already
    /// at `version` replaced.
    ///
    /// Cost contract: the one seek of a `write`; the value is read where
    /// that seek ends (on the paged engine the same root-to-leaf descent,
    /// in memory one map lookup), never by a `get` first.
    fn update(&mut self, key: Vec<u8>, version: u64, f: &mut Update<'_>);

    /// Clear every key in `[begin, end)` at `version` by writing tombstones.
    fn clear_range(&mut self, begin: &[u8], end: &[u8], version: u64);

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
    /// Cost contract: one seek per distinct key whose write at or below
    /// `oldest_version` shadowed an older entry or was a tombstone and that
    /// no earlier pass has visited for it, in key order. Work is
    /// proportional to the keys written, none to the keys stored; nothing
    /// walks the tree.
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
