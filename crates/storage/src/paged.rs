//! The disk-backed engine: buffer pool + CoW B-tree + write-ahead log, with
//! a write buffer in front of the tree.
//!
//! ## Write path
//!
//! A commit batch arrives as one [`StorageEngine::stage`] call: each key
//! once, already folded, in key order. The stage resolves it to point
//! writes against the write buffer and the tree, and walks no tree: a
//! `Write` is taken as it is, an `Update` folds the value visible at the
//! batch's version (the buffer's, else the tree's, read with one descent),
//! and a range clear becomes a tombstone for each live key in its range,
//! buffered or stored, that the batch does not name. Its range clears are
//! encoded for the WAL first, and each point write after them;
//! [`StorageEngine::seal`] appends them as one checksummed frame, one
//! `log_appends` tick per commit. [`StorageEngine::publish`] then puts the
//! writes into the buffer; it publishes a batch only sealed. A
//! [`StorageEngine::write`] only gathers its op, encoded for the WAL, and
//! [`StorageEngine::commit_batch`] appends what was gathered as one frame
//! and applies it as the replay at open applies a frame.
//!
//! The tree is written by flushes. Once the buffer holds `FLUSH_BYTES`
//! (64 KiB) of keys and values, [`StorageEngine::flush_due`] says so, and
//! [`StorageEngine::stage_flush`] stages its first keys, up to about
//! `FLUSH_SLICE_PAGES` pages' worth, as one walk of the tree
//! (`btree::apply`, in `btree/walk.rs`): one descent to the first key's
//! leaf, every key below that leaf's upper separator spliced into one new
//! image with all its buffered versions appended to its chain at once, then
//! up only as far as the next key needs, each ancestor rewritten at most
//! once. The walk runs against an overlay of the buffer pool
//! (`overlay.rs`), which keeps what it writes and frees to itself, so the
//! slice is staged beside the published tree; its publish installs what
//! the overlay kept, frees what it freed, sets the root and drops exactly
//! the flushed keys from the buffer. A flush runs slice by slice until the
//! buffer is empty. A batch whose writes reach `WALK_BYTES`, half a page (a
//! bulk load), skips the buffer: it is staged as the same walk with the
//! batch as its source, each key's buffered versions appended ahead of its
//! write, and its publish drops those keys from the buffer. Compaction
//! prunes the keys its garbage log holds, sorted, through the same walk, a
//! slice of them per stage, after flushing the buffer. The tree pages a
//! walk dirtied stay in the buffer pool (or get evicted to disk) without
//! any ordering constraint, because the on-disk meta root still points at
//! the last checkpoint's tree — shadow paging guarantees eviction can never
//! damage it.
//!
//! ## Write buffer
//!
//! The buffer (`buffer.rs`) is the memory engine's versioned map. It holds
//! every write published since the last flush, and these hold:
//!
//! * a key's buffered versions are all newer than its versions in the tree
//!   — or, at most, one of them is as new as the tree's newest and replaces
//!   it when flushed. Versions arrive nondecreasing, and a flush moves all
//!   of a key's buffered versions into the tree at once;
//! * a read takes a key's newest buffered version at or below its read
//!   version when there is one, and the tree's newest at or below it
//!   otherwise;
//! * the WAL holds every buffered write that was sealed, so a crash loses
//!   no sealed write still in the buffer: the reopen replays it;
//! * a checkpoint, which truncates the WAL, runs only on an empty buffer.
//!   A due checkpoint makes a flush due instead, and runs at its end.
//!
//! A flush finds, for each write it appends, whether the write shadowed an
//! older entry or was a tombstone, and logs those for compaction in
//! version order once the buffer is empty; compaction, which runs on the
//! tree, flushes the buffer first.
//!
//! ## Concurrency
//!
//! Reads and stages take `&self` and publishes `&mut self`, so reads run
//! beside a stage and never beside a publish. The buffer changes only at a
//! publish. The invariant that makes a walk safe beside readers: **until
//! publish, nothing the published tree reaches changes.** A stage rewrites
//! no page the published tree reaches and replaces no frame of one: a page
//! fresh since the last checkpoint, which a write rewrites under its own
//! id, gets its new image kept in the overlay until publish installs it. It
//! frees no such page and makes none reusable: its frees are noted, and
//! publish frees them. What it does do is its own: it allocates pages no
//! published page points to, writes them into the pool, and may rewrite,
//! evict and free them there. The pool itself is locked for each page a
//! read or a stage looks up, never across a descent, and the published root
//! is kept beside it, so a descent takes the pool lock once per page it
//! reads. So a reader of the published root sees that tree whole, whatever
//! a stage does meanwhile — the shadowing B-tree's own property (Rodeh,
//! "B-trees, Shadowing, and Clones", TOS 2008). The exclusive section,
//! publish, does no tree walk, no page encoding and no compaction walk: it
//! installs, frees, sets the root, updates the buffer, and checkpoints
//! when one is due. `tests/staged_commit_oracle.rs` checks the invariant
//! against a memory engine with readers running beside every stage.
//!
//! A [`Staged`] must be published, or discarded, before the engine stages
//! or publishes anything else, since what it kept assumes the tree, the
//! buffer and the checkpoint it was staged against; the engine counts
//! publishes and checkpoints, and refuses one that was not.
//! [`StorageEngine::discard`] cuts a sealed stage's frame off the WAL again
//! and frees the pages its overlay took, which nothing published points
//! to.
//!
//! ## Checkpoints
//!
//! A checkpoint flushes the dirty pages, writes a meta slot naming the live
//! root, frees the pages the last checkpoint's tree held that the live one
//! replaced (the pool's superseded pages), and truncates the WAL. It comes
//! due at a commit once either holds: the WAL passed 1 MiB, which bounds
//! what a reopen replays; or the WAL's bytes and the superseded pages
//! together reach the live tree's size — its pages, counted as at least
//! 64 so that a tree of a few pages is not checkpointed on every commit.
//! The second bounds what the file holds beside the live tree to about one
//! more copy of it. It waits for an empty buffer.
//!
//! ## Recovery
//!
//! Open loads the newest valid meta slot (tree root + WAL offset), walks
//! the checkpointed tree once — which rebuilds the free list, every page
//! the tree does not reach — then replays committed WAL frames from that
//! offset, truncating any torn tail, and flushes what they buffered. A
//! batch that never got its commit frame vanishes entirely, which is
//! exactly the transaction-atomicity contract the database expects.
//!
//! The simulator equates "crash" with "process stopped", so no fsync is
//! issued; the *ordering* points (checkpoint = flush pages, then meta,
//! then reuse old pages / truncate log) are where barriers would go in a
//! real deployment.

use std::borrow::Cow;
use std::cell::Cell;
use std::io;
use std::mem::take;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Mutex, PoisonError};

use crate::btree::{self, chain_entries, chain_visible_at, Cursor, Edit};
use crate::buffer::{Found, WriteBuffer};
use crate::engine::{check_generation, Batch, EvictionPolicy, Mutation, Staged, StorageEngine};
use crate::engine::{Visitor, Work};
use crate::garbage::{GarbageLog, Keys, Slice};
use crate::memory::{names, Chain, VersionedValue};
use crate::overlay::{Buffers, Overlay, Shadow};
use crate::page::{PageId, PAGE_SIZE};
use crate::pool::{BufferPool, Shared};
use crate::wait::lock;
use crate::wal::{decode_batch, put_clear_range, put_write, Wal, WalOp};
use crate::SharedIoCounters;

/// Checkpoint (and truncate the WAL) once it grows past this size: the
/// bound on what a reopen replays.
const WAL_CHECKPOINT_BYTES: u64 = 1 << 20;
/// A checkpoint is also due once the WAL and the superseded pages together
/// reach the live tree's size, counted as at least this many pages, so
/// that a tree of a few pages is not checkpointed on every commit.
const CHECKPOINT_FLOOR_PAGES: usize = 64;
/// The most keys one compaction slice visits. They lie in about as many
/// leaves, and until the slice's publish each leaf it rewrites is held
/// twice, the published image and the staged one, so a slice is kept
/// small: on the benchmark's `cloudkit_tenants_fit`, slices of 512 raised
/// peak resident memory 5 % over a pass that rewrote leaves in place, and
/// slices of 64 raised it 1.6 %.
const COMPACTION_SLICE_KEYS: usize = 64;
/// A flush comes due once the buffer holds this many bytes of keys and
/// values. With the flushes compaction passes start, under 1 % of the
/// benchmark's paged commits carry one: 0.95 % on `record_mix_paged` and
/// 0.85 % on `cloudkit_tenants_fit`. A smaller buffer flushes more often
/// and dedups less.
const FLUSH_BYTES: usize = 64 << 10;
/// About the most pages one flush slice writes: a slice takes the buffer's
/// keys in order until its walk holds this many pages of its own — pages it
/// allocated and new images of published pages — and then the keys of the
/// leaf it is in. Until the slice's publish each page it rewrote is held
/// twice, the published image and the staged one, so a slice is kept about
/// as small as a compaction slice; on the benchmark's paged workloads one
/// takes 50–90 keys.
const FLUSH_SLICE_PAGES: usize = 16;
/// A batch whose writes reach half a page skips the buffer and is staged
/// as a flush walk of its own keys. Such a batch is a bulk load, whose keys
/// no later commit writes again soon: buffered, it costs a map insert per
/// key and the same walk later. On the benchmark's `cloudkit_tenants_fit`,
/// whose set-up loads 400 transactions of about 4.4 KiB each, buffering
/// them raised `setup_s` 15–60 %.
const WALK_BYTES: usize = PAGE_SIZE / 2;

/// A batch resolved to point writes: each key and its value (`None`: a
/// tombstone).
type Writes = Vec<(Vec<u8>, Option<Vec<u8>>)>;

/// Disk-backed MVCC storage engine.
#[derive(Debug)]
pub struct PagedEngine {
    /// Locked by the `&self` paths for one page at a time: reads, which
    /// change it too (a hit marks its frame visited, a miss loads a frame
    /// and may evict one), and a stage's overlay. The `&mut self` paths
    /// reach it with [`exclusive`] and take no lock.
    pool: Mutex<BufferPool>,
    /// The published tree's root, the pool's, copied here under `&mut
    /// self` whenever it changes: reads and stages descend from it without
    /// the pool lock.
    root: PageId,
    /// The pool's budget in pages.
    capacity: usize,
    /// Locked by [`StorageEngine::seal`], the one `&self` path that appends.
    wal: Mutex<Wal>,
    /// The ops `write` gathered for the next `commit_batch`, encoded for
    /// the WAL: nothing reads them until it logs and applies them.
    gathered: Vec<u8>,
    /// The writes published since the last flush.
    buffer: WriteBuffer,
    /// A flush is under way or due: set when the buffer reaches
    /// [`FLUSH_BYTES`] or a checkpoint waits for it, cleared when it is
    /// empty.
    flushing: bool,
    /// What the flush under way found for the garbage log, logged once the
    /// buffer is empty.
    found: Found,
    /// Keys whose chains hold something compaction can drop.
    garbage: GarbageLog,
    /// The highest version written, or stored at open.
    newest: u64,
    /// Publishes and checkpoints so far: a [`Staged`] made before one of
    /// them is refused.
    generation: u64,
    /// The buffers the last publish emptied, which the next stage fills.
    spare: Mutex<Spare>,
    /// The pass under way: the keys it visits, sorted, and how many of
    /// them its slices have visited.
    compacting: Compacting,
    counters: SharedIoCounters,
    pool_pages: usize,
    dir: PathBuf,
}

/// The buffers of a stage: its overlay's, its WAL ops', its writes' and
/// its garbage-log entries'.
#[derive(Debug, Default)]
struct Spare {
    pages: Buffers,
    log: Vec<u8>,
    writes: Writes,
    found: Found,
}

/// A compaction pass, a slice at a time: at its first slice it takes every
/// key the garbage log holds at or below its horizon off the log.
#[derive(Debug, Default)]
struct Compacting {
    oldest: u64,
    keys: Keys,
    visited: usize,
}

/// A compaction slice: the log entries its pass takes, at its first
/// slice, and the keys its pass has visited once it is published.
#[derive(Debug)]
struct CompactionSlice {
    taken: Option<Slice>,
    oldest: u64,
    visited: usize,
}

/// What the paged engine stages: a batch's writes for the buffer, or the
/// pages a walk built, and what the engine logs at publish.
#[derive(Debug)]
pub(crate) struct StagedPages {
    /// A walk's overlay; `None` for a batch the buffer takes.
    shadow: Option<Shadow>,
    /// A batch's version; for a flush or compaction slice, the engine's
    /// newest.
    version: u64,
    /// A batch's writes, which publish puts into the buffer — or, for a
    /// batch a walk wrote, whose keys it drops from the buffer.
    writes: Writes,
    /// The batch's WAL ops, until sealed.
    log: Vec<u8>,
    /// Once sealed, the WAL's length before the batch's frame.
    sealed_at: Option<u64>,
    /// The buffer's first keys that the walk wrote to the tree.
    flushed: usize,
    /// What the walk found for the garbage log.
    found: Found,
    /// A compaction slice's, boxed: a batch, staged far more often, does
    /// not carry its room.
    slice: Option<Box<CompactionSlice>>,
}

/// What a flush walk appends to one key's chain: its buffered versions,
/// then a walked batch's write, if any, which replaces a buffered version
/// at its own version.
#[derive(Clone, Copy)]
struct Source<'s> {
    buffered: &'s [VersionedValue],
    written: Option<(u64, Option<&'s [u8]>)>,
}

impl<'s> Source<'s> {
    fn entries(self) -> impl Iterator<Item = (u64, Option<&'s [u8]>)> + Clone {
        let replaced = self.written.map(|(version, _)| version);
        let buffered = self
            .buffered
            .iter()
            .filter(move |v| Some(v.version) != replaced);
        let buffered = buffered.map(|v| (v.version, v.value.as_deref()));
        buffered.chain(self.written)
    }

    /// The version of a buffered tombstone the batch's write replaces.
    fn replaced_tombstone(self) -> Option<u64> {
        let (version, _) = self.written?;
        let last = self.buffered.last()?;
        (last.version == version && last.value.is_none()).then_some(version)
    }
}

impl PagedEngine {
    /// Open (or create) an engine rooted at directory `dir`, holding
    /// `pages.db` and `wal.log`. Replays any committed WAL tail past the
    /// last checkpoint before returning. The pool's images cost at most
    /// `pool_pages` (at least 4) pages' worth of bytes, each charged its
    /// own size, so it holds more images than that when pages are part
    /// full. The pool evicts with SIEVE; `_policy` is ignored (see
    /// [`EvictionPolicy`]).
    pub fn open(
        dir: &Path,
        pool_pages: usize,
        _policy: EvictionPolicy,
        counters: SharedIoCounters,
    ) -> io::Result<PagedEngine> {
        std::fs::create_dir_all(dir)?;
        let pool = BufferPool::open(&dir.join("pages.db"), pool_pages, counters.clone())?;
        let wal = Wal::open(&dir.join("wal.log"))?;
        let mut engine = PagedEngine {
            root: pool.root(),
            capacity: pool.capacity(),
            pool: Mutex::new(pool),
            wal: Mutex::new(wal),
            gathered: Vec::new(),
            buffer: WriteBuffer::default(),
            flushing: false,
            found: Found::default(),
            garbage: GarbageLog::default(),
            newest: 0,
            generation: 0,
            spare: Mutex::default(),
            compacting: Compacting::default(),
            counters,
            pool_pages,
            dir: dir.to_path_buf(),
        };
        engine.recover()?;
        Ok(engine)
    }

    /// Load what the checkpoint tree holds that the engine keeps in memory
    /// — the newest version, a garbage-log entry for every chain entry a
    /// later compaction has to reach, so nothing written before this open
    /// is stranded, and the free list: every page the tree does not reach —
    /// then replay the WAL tail through the write path, which logs its own,
    /// and flush it. The one pass over the tree the engine ever makes.
    fn recover(&mut self) -> io::Result<()> {
        // (version, key) of each entry that shadows an older one or is a
        // tombstone; keys packed into one buffer.
        let (mut keys, mut found) = (Vec::new(), Vec::new());
        let pool = exclusive(&mut self.pool);
        let reached = btree::visit_tree(pool, |key, chain| {
            let at = keys.len();
            for (i, entry) in chain_entries(chain)?.enumerate() {
                let entry = entry?;
                self.newest = self.newest.max(entry.version);
                if i > 0 || entry.value.is_none() {
                    if keys.len() == at {
                        keys.extend_from_slice(key);
                    }
                    found.push((entry.version, at..keys.len()));
                }
            }
            Ok(())
        })?;
        pool.free_unreached(&reached);
        found.sort_by_key(|(version, _)| *version);
        for (version, key) in found {
            self.garbage.push(&keys[key], version);
        }

        let wal = exclusive(&mut self.wal);
        let lsn = exclusive(&mut self.pool).checkpoint_lsn();
        let batches = wal.replay_from(lsn)?;
        if batches.is_empty() {
            return Ok(());
        }
        self.replay(batches.into_iter().flatten())?;
        // Fold the replayed tail into a fresh checkpoint so the next open
        // starts clean.
        self.drain()?;
        let lsn = exclusive(&mut self.wal).len();
        exclusive(&mut self.pool).checkpoint(lsn)
    }

    /// Apply logged ops one by one, as recovery and `commit_batch` both
    /// do: a `commit_batch`'s come in any order and at several versions.
    /// Each is staged unlogged and published, as a commit is, and a flush
    /// it makes due runs at once.
    fn replay(&mut self, ops: impl IntoIterator<Item = WalOp>) -> io::Result<()> {
        for op in ops {
            let (version, item) = match op {
                WalOp::Write {
                    key,
                    value,
                    version,
                } => (version, (key, Mutation::Write(value))),
                WalOp::ClearRange {
                    begin,
                    end,
                    version,
                } => (version, (begin, Mutation::ClearRange(end))),
            };
            let staged = self.stage_batch(version, vec![item], false)?;
            self.install(staged)?;
            if self.flushing {
                self.drain()?;
            }
        }
        Ok(())
    }

    /// Tear down without running the destructor's checkpoint — the on-disk
    /// state is left exactly as a process kill would leave it. The writes
    /// gathered since the last `commit_batch` are lost, as they should be,
    /// and so is the write buffer, whose writes the WAL holds. The
    /// underlying file handles are deliberately leaked; the OS reclaims
    /// them.
    pub fn simulate_crash(self) {
        std::mem::forget(self);
    }

    /// Structural self-check of the tree; returns the number of keys in
    /// it. Keys only in the write buffer are not counted.
    pub fn check_consistency(&mut self) -> io::Result<usize> {
        btree::check_consistency(exclusive(&mut self.pool))
    }

    /// Keys the write buffer holds (diagnostic).
    pub fn buffered_keys(&self) -> usize {
        self.buffer.len()
    }

    /// How many versions of `key` the write buffer holds, and how many the
    /// tree does (diagnostic).
    pub fn versions_of(&self, key: &[u8]) -> (usize, usize) {
        let buffered = self
            .buffer
            .get(key)
            .map_or(0, |chain| chain.versions().len());
        let mut stored = 0;
        self.merged(key, Some(&[key, &[0]].concat()), false, |_, chain, _| {
            if let Some(chain) = chain {
                stored = chain_entries(chain)?.count();
            }
            Ok(ControlFlow::Break(()))
        })
        .expect(IO_MSG);
        (buffered, stored)
    }

    /// The published tree, read through the pool one page at a time.
    fn shared(&self) -> Shared<'_> {
        Shared {
            pool: &self.pool,
            root: self.root,
        }
    }

    /// The value of `key` visible at `version`: the buffer's newest version
    /// at or below it, else the tree's.
    fn visible(&self, key: &[u8], version: u64) -> io::Result<Option<Cow<'_, [u8]>>> {
        match self.buffer.get(key).and_then(|chain| chain.at(version)) {
            Some(value) => Ok(value.map(Cow::Borrowed)),
            None => Ok(btree::get(&mut self.shared(), key, version)?.map(Cow::Owned)),
        }
    }

    /// Stage a sorted batch at `version`: resolve it to point writes
    /// against the buffer and the tree, for the buffer to take at publish —
    /// or, when they reach [`WALK_BYTES`], as one flush walk with them as
    /// its source, each key's buffered versions appended before its write,
    /// and those keys dropped from the buffer at publish. Unless the WAL itself is being replayed
    /// (`log` false), its range clears are encoded for the WAL first and
    /// then each point write: a replay that clears a range before it
    /// writes the keys the batch named inside it writes them at the same
    /// version, and ends where the batch did.
    fn stage_batch(&self, version: u64, batch: Batch<'_>, log: bool) -> io::Result<StagedPages> {
        let (mut ops, mut writes, found) = self.take_spare();
        for (begin, mutation) in batch.iter().filter(|_| log) {
            if let Mutation::ClearRange(end) = mutation {
                put_clear_range(&mut ops, begin, end, version);
            }
        }
        let mut batch = batch;
        let mut items = &mut batch[..];
        while let Some(((key, mutation), rest)) = take(&mut items).split_first_mut() {
            items = rest;
            let value = match mutation {
                Mutation::Write(value) => take(value),
                Mutation::Update(f) => {
                    // Its stand-in is zero-sized, so boxing it allocates nothing.
                    let f = std::mem::replace(f, Box::new(|_| None));
                    f(self.visible(key, version)?.as_deref())
                }
                Mutation::ClearRange(end) => {
                    self.tombstones(key, end, items, &mut writes)?;
                    continue;
                }
            };
            if log {
                put_write(&mut ops, key, value.as_deref(), version);
            }
            writes.push((take(key), value));
        }
        let bytes: usize = writes
            .iter()
            .map(|(key, value)| key.len() + value.as_ref().map_or(0, Vec::len))
            .sum();
        let mut staged = StagedPages {
            shadow: None,
            version,
            writes,
            log: ops,
            sealed_at: None,
            flushed: 0,
            found,
            slice: None,
        };
        if bytes >= WALK_BYTES {
            let writes = &mut staged.writes;
            writes.sort_by(|(a, _), (b, _)| a.cmp(b));
            writes.dedup_by(|(a, _), (b, _)| a == b);
            let steps = writes.iter().map(|(key, value)| {
                let buffered = self.buffer.get(key).map_or(&[][..], Chain::versions);
                let written = Some((version, value.as_deref()));
                (key.as_slice(), Source { buffered, written })
            });
            let (shadow, _) = self.walk(steps, usize::MAX, &mut staged.found)?;
            staged.shadow = Some(shadow);
        }
        Ok(staged)
    }

    /// Tombstones, in `writes`, for the keys of `[begin, end)` whose newest
    /// entry — buffered, else stored — is a live value and that `rest`, the
    /// rest of the batch, does not name: those it writes itself. So the
    /// range clear of the memory engine.
    fn tombstones(
        &self,
        begin: &[u8],
        end: &[u8],
        rest: &[(Vec<u8>, Mutation<'_>)],
        writes: &mut Writes,
    ) -> io::Result<()> {
        self.merged(begin, Some(end), false, |key, stored, buffered| {
            let live = match (buffered, stored) {
                (Some(chain), _) => chain.newest_is_live(),
                (None, Some(chain)) => chain_entries(chain)?
                    .last()
                    .transpose()?
                    .is_some_and(|newest| newest.value.is_some()),
                (None, None) => false,
            };
            if live && !names(rest, key) {
                writes.push((key.to_vec(), None));
            }
            Ok(ControlFlow::Continue(()))
        })
    }

    /// A stage's buffers for its WAL ops, its writes and its garbage-log
    /// entries, from the spare.
    fn take_spare(&self) -> (Vec<u8>, Writes, Found) {
        let mut spare = lock(&self.spare);
        let Spare {
            log, writes, found, ..
        } = &mut *spare;
        (take(log), take(writes), take(found))
    }

    /// The flush walk: append each step's versions to its key's chain in
    /// one walk of the tree, against an overlay of the published pool, and
    /// note in `found` each appended entry that shadows an older one or is
    /// a tombstone. It takes no further step once the overlay holds `pages`
    /// pages. Returns the steps it took.
    fn walk<'s>(
        &self,
        steps: impl Iterator<Item = (&'s [u8], Source<'s>)>,
        pages: usize,
        found: &mut Found,
    ) -> io::Result<(Shadow, usize)> {
        let kept = take(&mut lock(&self.spare).pages);
        let held = Cell::new(0);
        let mut overlay = Overlay::new(&self.pool, self.root, self.capacity, kept, &held);
        let steps = steps.take_while(|_| held.get() < pages);
        let mut taken = 0;
        btree::apply(&mut overlay, steps, |key, source, stored| {
            taken += 1;
            if let Some(version) = source.replaced_tombstone() {
                found.push(key, version);
            }
            let old = stored.unwrap_or_default();
            let chain = btree::chain_appended(old, source.entries(), |version, value, shadows| {
                if shadows || value.is_none() {
                    found.push(key, version);
                }
            })?;
            Ok(Edit::Put(chain))
        })?;
        Ok((overlay.finish(), taken))
    }

    /// Stage the next slice of a flush: the buffer's first keys, in one
    /// walk that stops taking them at about [`FLUSH_SLICE_PAGES`] pages.
    /// `None` when the buffer is empty.
    fn stage_flush_slice(&self) -> io::Result<Option<StagedPages>> {
        if self.buffer.is_empty() {
            return Ok(None);
        }
        let steps = self.buffer.iter().map(|(key, chain)| {
            let buffered = chain.versions();
            (
                key,
                Source {
                    buffered,
                    written: None,
                },
            )
        });
        let (log, writes, mut found) = self.take_spare();
        let (shadow, flushed) = self.walk(steps, FLUSH_SLICE_PAGES, &mut found)?;
        Ok(Some(StagedPages {
            shadow: Some(shadow),
            version: self.newest,
            writes,
            log,
            sealed_at: None,
            flushed,
            found,
            slice: None,
        }))
    }

    /// Stage the next slice of compaction: the next
    /// [`COMPACTION_SLICE_KEYS`] keys of the pass under way, or of a new
    /// pass at `oldest_version` — every key the garbage log holds at or
    /// below it, sorted and without repeats — pruned in one walk, one
    /// descent per leaf they lie in. Returns the keys it visits. Compaction
    /// is deliberately not logged — replaying a WAL without it yields the
    /// same visible state for every read version still in the MVCC window.
    fn stage_slice(&self, oldest_version: u64) -> io::Result<Option<(usize, StagedPages)>> {
        let pass = &self.compacting;
        let taken = match pass.visited < pass.keys.len() {
            true => None,
            false => match self.garbage.peek(oldest_version) {
                None => return Ok(None),
                taken => taken,
            },
        };
        let (keys, oldest, from) = match &taken {
            Some(slice) => (&slice.keys, oldest_version, 0),
            None => (&pass.keys, pass.oldest, pass.visited),
        };
        let to = keys.len().min(from + COMPACTION_SLICE_KEYS);
        let Spare {
            pages,
            log,
            writes,
            found,
        } = take(&mut *lock(&self.spare));
        let held = Cell::new(0);
        let mut overlay = Overlay::new(&self.pool, self.root, self.capacity, pages, &held);
        btree::prune_sorted(&mut overlay, keys.range(from..to), oldest)?;
        let slice = CompactionSlice {
            taken,
            oldest,
            visited: to,
        };
        Ok(Some((
            to - from,
            StagedPages {
                shadow: Some(overlay.finish()),
                version: self.newest,
                writes,
                log,
                sealed_at: None,
                flushed: 0,
                found,
                slice: Some(Box::new(slice)),
            },
        )))
    }

    /// Publish what was staged: install a walk's pages, put a batch's
    /// writes into the buffer or drop the keys a flush wrote from it, and
    /// log its garbage. Returns whether it ended a flush: it emptied the
    /// buffer.
    fn install(&mut self, staged: StagedPages) -> io::Result<bool> {
        let StagedPages {
            shadow,
            version,
            mut writes,
            mut log,
            sealed_at: _,
            flushed,
            mut found,
            slice,
        } = staged;
        let mut spare = take(exclusive(&mut self.spare));
        let walked = shadow.is_some();
        if let Some(shadow) = shadow {
            let pool = exclusive(&mut self.pool);
            spare.pages = shadow.install(pool)?;
            self.root = pool.root();
        }
        debug_assert!(version >= self.newest, "versions must not decrease");
        self.newest = self.newest.max(version);
        for (key, value) in writes.drain(..) {
            if walked {
                self.buffer.remove(&key);
            } else if self.buffer.put(&key, version, value.as_deref()) {
                self.found.push(&key, version);
            }
        }
        self.buffer.drop_first(flushed);
        self.found.append(&mut found);
        let drained = flushed > 0 && self.buffer.is_empty();
        if self.buffer.is_empty() {
            self.found.log(&mut self.garbage);
            self.flushing = false;
        } else if self.buffer.bytes() >= FLUSH_BYTES {
            self.flushing = true;
        }
        if drained {
            self.counters.buffer_flushes.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(slice) = slice {
            if let Some(taken) = slice.taken {
                let keys = self.garbage.consume(taken);
                self.compacting = Compacting {
                    oldest: slice.oldest,
                    keys,
                    visited: 0,
                };
            }
            self.compacting.visited = slice.visited;
            if slice.visited == self.compacting.keys.len() {
                self.compacting = Compacting::default();
            }
        }
        log.clear();
        (spare.log, spare.writes, spare.found) = (log, writes, found);
        *exclusive(&mut self.spare) = spare;
        Ok(drained)
    }

    /// Undo a stage that will not be published: cut its sealed frame off
    /// the WAL, free the pages its overlay took, and keep its buffers for
    /// the next stage.
    fn undo(&mut self, staged: StagedPages) -> io::Result<()> {
        let StagedPages {
            shadow,
            mut writes,
            mut log,
            sealed_at,
            mut found,
            ..
        } = staged;
        if let Some(len) = sealed_at {
            exclusive(&mut self.wal).truncate(len)?;
        }
        let spare = exclusive(&mut self.spare);
        if let Some(shadow) = shadow {
            spare.pages = shadow.discard(exclusive(&mut self.pool));
        }
        writes.clear();
        log.clear();
        found.clear();
        (spare.log, spare.writes, spare.found) = (log, writes, found);
        Ok(())
    }

    /// Flush the whole buffer into the tree, slice by slice.
    fn drain(&mut self) -> io::Result<()> {
        while let Some(slice) = self.stage_flush_slice()? {
            self.generation += 1;
            self.install(slice)?;
        }
        Ok(())
    }

    /// Log what `write` gathered as one WAL frame and apply it as the
    /// replay at open does, flush the buffer, then checkpoint if one is
    /// due.
    fn try_commit_batch(&mut self) -> io::Result<()> {
        let gathered = take(&mut self.gathered);
        exclusive(&mut self.wal).append(&gathered, &self.counters)?;
        let ops =
            decode_batch(&gathered).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        self.replay(ops)?;
        self.drain()?;
        self.checkpoint_if_due()
    }

    /// Checkpoint if one is due (see the module's *Checkpoints*) and the
    /// buffer is empty; if it is not, make its flush due.
    fn checkpoint_if_due(&mut self) -> io::Result<()> {
        let len = exclusive(&mut self.wal).len();
        let pool = exclusive(&mut self.pool);
        let page = PAGE_SIZE as u64;
        let extra = len + pool.superseded_pages() as u64 * page;
        let live = pool.live_pages().max(CHECKPOINT_FLOOR_PAGES) as u64 * page;
        if len <= WAL_CHECKPOINT_BYTES && extra < live {
            return Ok(());
        }
        match self.buffer.is_empty() {
            true => self.try_checkpoint(),
            false => {
                self.flushing = true;
                Ok(())
            }
        }
    }

    /// Flush the write buffer into the tree, then checkpoint: the files
    /// then hold the tree and an empty log. Gathered writes stay gathered.
    pub fn flush(&mut self) -> io::Result<()> {
        self.drain()?;
        self.try_checkpoint()
    }

    /// Checkpoint the tree and truncate the superseded WAL.
    fn try_checkpoint(&mut self) -> io::Result<()> {
        self.generation += 1;
        let wal = exclusive(&mut self.wal);
        let pool = exclusive(&mut self.pool);
        pool.checkpoint(wal.len())?;
        if !wal.is_empty() {
            // Order matters: truncate first, then record lsn=0. A crash in
            // between leaves meta pointing past the (empty) log, which
            // recovery treats as "nothing to replay".
            wal.truncate(0)?;
            pool.checkpoint(0)?;
        }
        Ok(())
    }

    /// Walk the tree's and the buffer's keys of `[begin, end)` together —
    /// `end` `None`: to the last key — ascending from `begin`, or with
    /// `reverse` descending from `end`, which must then be given, and hand
    /// `f` each key with its stored chain and its buffered versions, either
    /// of which may be missing, until `f` breaks. One descent to the
    /// starting bound, then leaf to leaf in walk direction; the tree's next
    /// key is read before the buffered keys ahead of it are handed out.
    fn merged(
        &self,
        begin: &[u8],
        end: Option<&[u8]>,
        reverse: bool,
        mut f: impl FnMut(&[u8], Option<&[u8]>, Option<&Chain>) -> io::Result<ControlFlow<()>>,
    ) -> io::Result<()> {
        let pool = &mut self.shared();
        let mut cursor = match (reverse, end) {
            (true, Some(end)) => Cursor::seek(pool, end, Some(begin), false)?,
            (true, None) => unreachable!("a reverse read starts from its end"),
            (false, end) => Cursor::seek(pool, begin, end, true)?,
        };
        let mut buffered = self.buffer.range(begin, end, reverse).peekable();
        let ahead = |a: &[u8], b: &[u8]| if reverse { a > b } else { a < b };
        while let Some((key, chain)) = cursor.next(pool)? {
            while let Some((earlier, versions)) = buffered.next_if(|(k, _)| ahead(k, key)) {
                if f(earlier, None, Some(versions))?.is_break() {
                    return Ok(());
                }
            }
            let versions = buffered.next_if(|(k, _)| *k == key).map(|(_, v)| v);
            if f(key, Some(chain), versions)?.is_break() {
                return Ok(());
            }
        }
        for (key, versions) in buffered {
            if f(key, None, Some(versions))?.is_break() {
                break;
            }
        }
        Ok(())
    }

    /// Lend each `(key, visible value)` of the range to the visitor, the
    /// buffer's newest version at or below `read_version` before the
    /// tree's, until the range ends or the visitor stops.
    fn try_visit(
        &self,
        begin: &[u8],
        end: &[u8],
        read_version: u64,
        reverse: bool,
        visitor: &mut Visitor<'_>,
    ) -> io::Result<()> {
        self.merged(begin, Some(end), reverse, |key, stored, buffered| {
            let value = match (buffered.and_then(|v| v.at(read_version)), stored) {
                (Some(value), _) => value,
                (None, Some(chain)) => chain_visible_at(chain, read_version)?,
                (None, None) => None,
            };
            Ok(match value {
                Some(value) => visitor(key, value),
                None => ControlFlow::Continue(()),
            })
        })
    }
}

/// A mutex of the engine's through `&mut self`: no reader can hold the
/// lock, so none is taken. A poisoned lock is recovered, as
/// [`lock`] recovers it.
fn exclusive<T>(mutex: &mut Mutex<T>) -> &mut T {
    mutex.get_mut().unwrap_or_else(PoisonError::into_inner)
}

const FOREIGN: &str = "a memory engine's stage handed to the paged engine";

impl Drop for PagedEngine {
    /// A clean close flushes. Gathered writes are lost, as in a crash.
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

const IO_MSG: &str = "paged storage engine I/O error";

impl StorageEngine for PagedEngine {
    fn stage<'a>(&self, version: u64, batch: Batch<'a>) -> Staged<'a> {
        let pages = self.stage_batch(version, batch, true).expect(IO_MSG);
        Staged {
            generation: self.generation,
            keys: 0,
            work: Work::Paged(pages),
        }
    }

    /// One WAL frame for the staged batch.
    fn seal(&self, staged: &mut Staged<'_>) {
        let Work::Paged(pages) = &mut staged.work else {
            panic!("{FOREIGN}");
        };
        let mut wal = lock(&self.wal);
        pages.sealed_at = Some(wal.len());
        wal.append(&pages.log, &self.counters).expect(IO_MSG);
        pages.log.clear();
    }

    fn flush_due(&self) -> bool {
        self.flushing
    }

    fn stage_flush(&self) -> Option<Staged<'static>> {
        if !self.flushing {
            return None;
        }
        let pages = self.stage_flush_slice().expect(IO_MSG)?;
        Some(Staged {
            generation: self.generation,
            keys: 0,
            work: Work::Paged(pages),
        })
    }

    fn stage_compaction(&self, oldest_version: u64) -> Option<Staged<'static>> {
        let (keys, pages) = match self.stage_flush_slice().expect(IO_MSG) {
            Some(flush) => (0, flush),
            None => self.stage_slice(oldest_version).expect(IO_MSG)?,
        };
        Some(Staged {
            generation: self.generation,
            keys,
            work: Work::Paged(pages),
        })
    }

    fn publish(&mut self, staged: Staged<'_>) {
        check_generation(&mut self.generation, &staged);
        let Work::Paged(pages) = staged.work else {
            panic!("{FOREIGN}");
        };
        debug_assert!(pages.log.is_empty(), "a batch published before its seal");
        let sealed = pages.sealed_at.is_some();
        let drained = self.install(pages).expect(IO_MSG);
        if sealed || drained {
            self.checkpoint_if_due().expect(IO_MSG);
        }
    }

    fn discard(&mut self, staged: Staged<'_>) {
        debug_assert_eq!(staged.generation, self.generation, "a stale Staged");
        let Work::Paged(pages) = staged.work else {
            panic!("{FOREIGN}");
        };
        self.undo(pages).expect(IO_MSG);
    }

    /// Gather the write, encoded for the WAL, for the next
    /// [`commit_batch`](StorageEngine::commit_batch); nothing else.
    fn write(&mut self, key: Vec<u8>, value: Option<Vec<u8>>, version: u64) {
        put_write(&mut self.gathered, &key, value.as_deref(), version);
    }

    fn commit_batch(&mut self) {
        self.try_commit_batch().expect(IO_MSG);
    }

    fn get(&self, key: &[u8], read_version: u64) -> Option<Vec<u8>> {
        let value = self.visible(key, read_version).expect(IO_MSG);
        value.map(Cow::into_owned)
    }

    fn visit(
        &self,
        begin: &[u8],
        end: &[u8],
        read_version: u64,
        reverse: bool,
        visitor: &mut Visitor<'_>,
    ) {
        self.try_visit(begin, end, read_version, reverse, visitor)
            .expect(IO_MSG)
    }

    fn newest_version(&self) -> u64 {
        self.newest
    }

    fn live_key_count(&self, read_version: u64) -> usize {
        let mut live = 0;
        self.merged(b"", None, false, |_, stored, buffered| {
            let visible = match (buffered.and_then(|v| v.at(read_version)), stored) {
                (Some(value), _) => value.is_some(),
                (None, Some(chain)) => chain_visible_at(chain, read_version)?.is_some(),
                (None, None) => false,
            };
            live += usize::from(visible);
            Ok(ControlFlow::Continue(()))
        })
        .expect(IO_MSG);
        live
    }

    fn total_version_entries(&self) -> usize {
        let mut entries = 0;
        self.merged(b"", None, false, |_, stored, buffered| {
            let buffered = buffered.map_or(&[][..], Chain::versions);
            let mut newest = None;
            for entry in stored.map(chain_entries).transpose()?.into_iter().flatten() {
                (entries, newest) = (entries + 1, Some(entry?.version));
            }
            // A buffered version as new as the stored newest replaces it.
            let replaces = buffered.first().is_some_and(|v| Some(v.version) == newest);
            entries += buffered.len() - usize::from(replaces);
            Ok(ControlFlow::Continue(()))
        })
        .expect(IO_MSG);
        entries
    }

    fn describe(&self) -> String {
        let (images, charged, file_pages) = {
            let pool = lock(&self.pool);
            (pool.resident(), pool.charged(), pool.page_count())
        };
        format!(
            "paged(dir={}, pool_pages={}, pool_images={images}, \
             pool_charged_bytes={charged}, file_pages={file_pages}, wal_bytes={})",
            self.dir.display(),
            self.pool_pages,
            lock(&self.wal).len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::compact;
    use crate::IoCounters;

    fn dir(name: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("rl-storage-paged-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn open(d: &Path, pages: usize) -> PagedEngine {
        PagedEngine::open(d, pages, EvictionPolicy::Sieve, IoCounters::new_shared()).unwrap()
    }

    /// Stage, seal and publish `batch` at `version`, as the database
    /// commits: into the write buffer, flushed by nobody.
    fn commit(e: &mut PagedEngine, version: u64, batch: Batch<'_>) {
        let mut staged = e.stage(version, batch);
        e.seal(&mut staged);
        e.publish(staged);
    }

    fn put(key: &[u8], value: &[u8]) -> (Vec<u8>, Mutation<'static>) {
        (key.to_vec(), Mutation::Write(Some(value.to_vec())))
    }

    /// A `get` takes the pool lock once per page it reads and no more: the
    /// root it descends from is the engine's, read without the lock, and
    /// so is the write buffer, which answers for a key it holds without a
    /// page.
    #[test]
    fn a_get_locks_the_pool_once_per_page_it_reads() {
        let d = dir("locks");
        let counters = IoCounters::new_shared();
        let mut e = PagedEngine::open(&d, 64, EvictionPolicy::Sieve, counters.clone()).unwrap();
        let key = |i: u32| format!("k{i:05}").into_bytes();
        for i in 0..10_000u32 {
            e.write(key(i), Some(vec![b'v'; 16]), 10);
        }
        e.commit_batch();
        commit(&mut e, 20, vec![put(&key(77), b"buffered")]);
        assert_eq!(e.buffered_keys(), 1);
        for i in (0..10_000u32).step_by(97).chain([77]) {
            let (locks, before) = (crate::wait::LOCKS.get(), counters.snapshot());
            assert!(e.get(&key(i), 30).is_some());
            let io = counters.snapshot().delta(&before);
            let pages = io.page_hits + io.page_misses;
            assert_eq!(crate::wait::LOCKS.get() - locks, pages, "key {i}");
            assert_eq!(pages == 0, i == 77, "key {i}: {pages} pages");
        }
        drop(e);
        std::fs::remove_dir_all(&d).unwrap();
    }

    /// Commits sealed into the WAL but still in the write buffer survive a
    /// crash: the reopen replays their frames, every version of a key
    /// written on each of them included. A write gathered for a
    /// `commit_batch` that never came vanishes, as the benchmark's crash
    /// probe requires, and so does a bulk batch staged without a seal,
    /// though its stage walked it into a tree beside the published one,
    /// the buffered versions of its keys along.
    #[test]
    fn sealed_buffered_commits_survive_a_crash_and_unsealed_writes_vanish() {
        let d = dir("buffered-crash");
        let key = |v: u64| format!("k{v:02}").into_bytes();
        let staged = {
            let mut e = open(&d, 32);
            for v in 1..=20u64 {
                let hot = put(b"hot", &v.to_le_bytes());
                commit(&mut e, v, vec![hot, put(&key(v), b"sealed")]);
            }
            assert_eq!(e.buffered_keys(), 21, "nothing was flushed");
            e.write(b"unsealed".to_vec(), Some(b"x".to_vec()), 21);
            assert_eq!(e.get(b"unsealed", 21), None, "gathered, not applied");
            let bulk = (0..40u32).map(|i| {
                let key = format!("u{i:04}").into_bytes();
                (key, Mutation::Write(Some(vec![1; 200])))
            });
            let mut bulk: Batch<'_> = bulk.collect();
            bulk.insert(0, put(b"hot", b"bulk"));
            assert!(bulk.len() * 200 >= WALK_BYTES);
            let (frames, pages) = (lock(&e.wal).len(), lock(&e.pool).page_count());
            let staged = e.stage(22, bulk);
            let Work::Paged(walk) = &staged.work else {
                unreachable!("a paged stage")
            };
            assert!(walk.shadow.is_some(), "the bulk batch was walked");
            assert!(lock(&e.pool).page_count() > pages, "into pages of its own");
            assert_eq!(lock(&e.wal).len(), frames, "and logged nothing");
            assert_eq!(e.versions_of(b"hot"), (20, 0), "the published state");
            assert_eq!(e.get(b"u0007", 22), None);
            e.simulate_crash();
            staged
        };
        drop(staged);
        let mut e = open(&d, 32);
        for v in 1..=20u64 {
            assert_eq!(e.get(&key(v), 30), Some(b"sealed".to_vec()), "commit {v}");
            assert_eq!(
                e.get(b"hot", v),
                Some(v.to_le_bytes().to_vec()),
                "hot at {v}"
            );
        }
        assert_eq!(e.get(b"hot", 30), Some(20u64.to_le_bytes().to_vec()));
        assert_eq!(e.get(b"unsealed", 30), None);
        assert_eq!(e.get(b"u0007", 30), None);
        assert_eq!(e.check_consistency().unwrap(), 21);
        drop(e);
        std::fs::remove_dir_all(&d).unwrap();
    }

    /// A due checkpoint waits for the write buffer. The sealed commit that
    /// makes one due leaves the WAL whole and makes a flush due instead, so
    /// until the flush a crash replays every buffered commit; the flush's
    /// last slice checkpoints and empties the log, and after that the
    /// reopen finds the commits in the tree.
    #[test]
    fn a_due_checkpoint_flushes_first_and_never_truncates_a_buffered_frame() {
        let key = |v: u64| format!("k{v:04}").into_bytes();
        for flush in [false, true] {
            let d = dir(if flush { "due-flushed" } else { "due-buffered" });
            let commits = {
                let mut e = open(&d, 64);
                // The log passes 1 MiB: a checkpoint is due.
                let mut v = 0;
                while exclusive(&mut e.wal).len() <= WAL_CHECKPOINT_BYTES {
                    v += 1;
                    commit(&mut e, v, vec![put(&key(v), &[v as u8; 1000])]);
                }
                assert!(e.flush_due());
                assert_eq!(e.buffered_keys() as u64, v, "nothing was flushed");
                assert!(
                    exclusive(&mut e.wal).len() > WAL_CHECKPOINT_BYTES,
                    "the log was kept"
                );
                if flush {
                    while let Some(slice) = e.stage_flush() {
                        e.publish(slice);
                    }
                    assert_eq!(e.buffered_keys(), 0);
                    assert!(!e.flush_due());
                    assert!(exclusive(&mut e.wal).is_empty(), "the flush checkpointed");
                }
                e.simulate_crash();
                v
            };
            let mut e = open(&d, 64);
            assert_eq!(e.check_consistency().unwrap() as u64, commits);
            for v in 1..=commits {
                assert_eq!(e.get(&key(v), commits), Some(vec![v as u8; 1000]), "{v}");
            }
            drop(e);
            std::fs::remove_dir_all(&d).unwrap();
        }
    }

    /// A commit whose `Update`s all fold values the write buffer holds
    /// reads no page: its stage, seal and publish leave the pool's hits
    /// and misses as they were. The first fold of a key reads it from the
    /// tree.
    #[test]
    fn a_commit_whose_folds_hit_the_buffer_reads_no_page() {
        let d = dir("folds");
        let counters = IoCounters::new_shared();
        let mut e = PagedEngine::open(&d, 64, EvictionPolicy::Sieve, counters.clone()).unwrap();
        let key = |i: u32| format!("k{i:05}").into_bytes();
        for i in 0..2_000u32 {
            e.write(key(i), Some(0u64.to_le_bytes().to_vec()), 10);
        }
        e.commit_batch();
        let add = |i: u32| {
            let fold = |v: Option<&[u8]>| {
                let n = u64::from_le_bytes(v.unwrap().try_into().unwrap());
                Some((n + 1).to_le_bytes().to_vec())
            };
            (key(i), Mutation::Update(Box::new(fold)))
        };
        let pages = |e: &mut PagedEngine, version, batch| {
            let before = counters.snapshot();
            commit(e, version, batch);
            let io = counters.snapshot().delta(&before);
            io.page_hits + io.page_misses
        };
        assert!(
            pages(&mut e, 20, vec![add(5), add(1_500)]) >= 4,
            "two tree reads"
        );
        assert_eq!(pages(&mut e, 21, vec![add(5), add(1_500)]), 0);
        assert_eq!(e.get(&key(5), 21), Some(2u64.to_le_bytes().to_vec()));
        assert_eq!(e.get(&key(1_500), 20), Some(1u64.to_le_bytes().to_vec()));
        drop(e);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn basic_mvcc_semantics() {
        let d = dir("basic");
        let mut e = open(&d, 32);
        e.write(b"a".to_vec(), Some(b"1".to_vec()), 10);
        e.write(b"b".to_vec(), Some(b"2".to_vec()), 20);
        e.commit_batch();
        assert_eq!(e.get(b"a", 15), Some(b"1".to_vec()));
        assert_eq!(e.get(b"b", 15), None);
        assert_eq!(e.get(b"b", 25), Some(b"2".to_vec()));
        let clear = (b"a".to_vec(), Mutation::ClearRange(b"b".to_vec()));
        commit(&mut e, 30, vec![clear]);
        assert_eq!(e.get(b"a", 35), None);
        assert_eq!(e.get(b"a", 25), Some(b"1".to_vec()));
        let r = e.range(b"", b"\xff", 35, false);
        assert_eq!(r, vec![(b"b".to_vec(), b"2".to_vec())]);
        std::fs::remove_dir_all(&d).unwrap();
    }

    /// A sealed stage dropped by `discard` leaves nothing behind: its
    /// frame is cut off the WAL, so a crash does not replay it, while the
    /// frame of the commit sealed before it stays; and its pages are freed,
    /// so staging the same batch again takes no more of the file.
    #[test]
    fn a_discarded_stage_leaves_no_frame_and_no_pages() {
        let d = dir("discard");
        let rewrite = |version: u8| -> Batch<'static> {
            (0..300u32)
                .map(|i| {
                    let key = format!("k{i:04}").into_bytes();
                    (key, Mutation::Write(Some(vec![version; 200])))
                })
                .collect()
        };
        {
            let mut e = open(&d, 16);
            commit(&mut e, 10, rewrite(10));
            e.flush().unwrap();
            commit(&mut e, 20, vec![put(b"pending", b"kept")]);
            let mut staged = e.stage(30, rewrite(30));
            e.seal(&mut staged);
            let grown = lock(&e.pool).page_count();
            e.discard(staged);
            assert_eq!(e.get(b"k0007", 40), Some(vec![10; 200]));
            let mut staged = e.stage(31, rewrite(31));
            e.seal(&mut staged);
            e.publish(staged);
            assert!(
                lock(&e.pool).page_count() <= grown,
                "the discarded pages were not reused"
            );
            e.simulate_crash();
        }
        let mut e = open(&d, 16);
        assert_eq!(e.check_consistency().unwrap(), 301);
        assert_eq!(e.get(b"pending", 40), Some(b"kept".to_vec()));
        assert_eq!(e.get(b"k0007", 30), Some(vec![10; 200]));
        assert_eq!(e.get(b"k0007", 31), Some(vec![31; 200]));
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn data_survives_clean_reopen() {
        let d = dir("reopen");
        {
            let mut e = open(&d, 32);
            for i in 0..200u32 {
                e.write(
                    format!("k{i:04}").into_bytes(),
                    Some(format!("v{i}").into_bytes()),
                    10,
                );
            }
            e.commit_batch();
        } // Drop checkpoints.
        let mut e = open(&d, 32);
        assert_eq!(e.check_consistency().unwrap(), 200);
        assert_eq!(e.get(b"k0123", 15), Some(b"v123".to_vec()));
        assert_eq!(e.live_key_count(15), 200);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn crash_preserves_committed_batches_only() {
        let d = dir("crash");
        {
            let mut e = open(&d, 32);
            e.write(b"committed".to_vec(), Some(b"yes".to_vec()), 10);
            e.commit_batch();
            e.write(b"uncommitted".to_vec(), Some(b"no".to_vec()), 20);
            // No commit_batch: the op is only gathered, and its frame
            // never lands.
            e.simulate_crash();
        }
        let mut e = open(&d, 32);
        assert_eq!(e.get(b"committed", 30), Some(b"yes".to_vec()));
        assert_eq!(e.get(b"uncommitted", 30), None);
        e.check_consistency().unwrap();
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn one_commit_batch_seals_many_transactions_in_one_frame() {
        // The commit_batch contract: several transactions' writes (here,
        // at distinct versions) gathered between commit_batch calls land as
        // exactly one WAL frame — one log_appends tick for the batch — and
        // none is visible before it.
        let d = dir("groupcommit");
        let counters = IoCounters::new_shared();
        let mut e = PagedEngine::open(&d, 32, EvictionPolicy::Sieve, counters.clone()).unwrap();
        let before = counters.snapshot().log_appends;
        for t in 0..4u64 {
            for k in 0..8u32 {
                e.write(
                    format!("txn{t}-k{k}").into_bytes(),
                    Some(b"v".to_vec()),
                    10 + t,
                );
            }
        }
        assert_eq!(e.live_key_count(100), 0);
        e.commit_batch();
        assert_eq!(counters.snapshot().log_appends - before, 1);
        // And the whole batch is atomic across a crash+reopen.
        e.simulate_crash();
        let e = open(&d, 32);
        assert_eq!(e.live_key_count(100), 32);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn limit_one_scan_touches_one_root_to_leaf_path() {
        // The cost contract of `scan`: a `limit 1` read is one descent
        // plus at most one hop to the neighbouring leaf, however long the
        // range it was asked about. The hop reads that leaf alone: the
        // cursor keeps the images of the internal nodes it came down
        // through (depth + 1 pages; depth + 2 while it read its parent
        // again).
        let d = dir("limit1");
        let counters = IoCounters::new_shared();
        let mut e = PagedEngine::open(&d, 4096, EvictionPolicy::Sieve, counters.clone()).unwrap();
        let key = |i: u32| format!("k{i:05}").into_bytes();
        for i in 0..10_000u32 {
            e.write(key(i), Some(vec![b'v'; 16]), 10);
        }
        e.commit_batch();
        let mut touched = |f: &mut dyn FnMut(&mut PagedEngine)| {
            let before = counters.snapshot();
            f(&mut e);
            let io = counters.snapshot().delta(&before);
            io.page_hits + io.page_misses
        };
        // A point get reads exactly one page per tree level.
        let depth = touched(&mut |e| assert!(e.get(&key(5_000), 20).is_some()));
        assert!(depth >= 2, "10 000 keys need more than one leaf");
        for i in (0..10_000u32).step_by(37) {
            let forward = touched(&mut |e| {
                let rows = e.scan(&key(i), b"\xff", 20, false, 1);
                assert_eq!(rows[0].0, key(i));
            });
            // Begin just past a key: when that key ends its leaf the
            // cursor hops to the next one.
            let hop = touched(&mut |e| {
                let mut begin = key(i);
                begin.push(0);
                assert_eq!(e.scan(&begin, b"\xff", 20, false, 1).len(), 1);
            });
            let reverse = touched(&mut |e| {
                let rows = e.scan(b"", &key(i + 1), 20, true, 1);
                assert_eq!(rows[0].0, key(i));
            });
            for (what, pages) in [("forward", forward), ("hop", hop), ("reverse", reverse)] {
                assert!(
                    pages <= depth + 1,
                    "{what} limit-1 scan at key {i} touched {pages} pages (depth {depth})"
                );
            }
        }
        // Whereas the whole range costs every leaf.
        let all = touched(&mut |e| assert_eq!(e.range(b"", b"\xff", 20, false).len(), 10_000));
        assert!(all > 10 * depth);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn a_range_that_ends_with_its_leaf_stops_there() {
        // A separator in an ancestor bounds every key beyond it, so a scan
        // whose range ends at or before the next leaf's separator never
        // reads that leaf: one descent, depth pages, in either direction.
        // Every key's subspace `[k, k\xff)` is read, as a record fetch
        // reads it, and at each leaf boundary the ranges that end and that
        // start exactly at its separator: the shortest prefix of the
        // leaf's first key above the key before it, as a split stores it.
        let d = dir("leafend");
        let counters = IoCounters::new_shared();
        let mut e = PagedEngine::open(&d, 4096, EvictionPolicy::Sieve, counters.clone()).unwrap();
        let key = |i: u32| format!("k{i:05}").into_bytes();
        for i in 0..10_000u32 {
            e.write(key(i), Some(vec![b'v'; 16]), 10);
        }
        e.commit_batch();
        let touched = |begin: &[u8], end: &[u8], reverse, limit| {
            let before = counters.snapshot();
            let rows = e.scan(begin, end, 20, reverse, limit).len();
            let io = counters.snapshot().delta(&before);
            (rows, io.page_hits + io.page_misses)
        };
        let (_, depth) = touched(&key(5_000), &key(5_001), false, 1);
        assert!(depth >= 2, "10 000 keys need more than one leaf");
        let mut boundaries = 0;
        for i in 1..9_999u32 {
            let (this, next) = (key(i), key(i + 1));
            let subspace = |k: &[u8]| [k, b"\xff"].concat();
            for reverse in [false, true] {
                let read = touched(&this, &subspace(&this), reverse, usize::MAX);
                assert_eq!(read, (1, depth), "key {i}, reverse {reverse}");
            }
            // Key `i` ends its leaf when the row after it is a hop away.
            if touched(&this, b"\xff", false, 2).1 == depth {
                continue;
            }
            boundaries += 1;
            let shared = this.iter().zip(&next).take_while(|(a, b)| a == b).count();
            let sep = &next[..=shared];
            let read = touched(&this, sep, false, usize::MAX);
            assert_eq!(read, (1, depth), "key {i}");
            let read = touched(sep, &subspace(&next), true, usize::MAX);
            assert_eq!(read, (1, depth), "key {}", i + 1);
        }
        assert!(boundaries > 10, "{boundaries} leaf boundaries");
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn a_clean_close_leaves_an_empty_log() {
        // Dropping the engine checkpoints and then truncates the log, as a
        // flush does: the reopened directory replays nothing.
        let d = dir("cleanclose");
        let key = |i: u32| format!("k{i:04}").into_bytes();
        {
            let mut e = open(&d, 32);
            for i in 0..500u32 {
                e.write(key(i), Some(vec![i as u8; 40]), 10 + u64::from(i / 50));
                if i % 50 == 49 {
                    e.commit_batch();
                }
            }
            assert!(
                !exclusive(&mut e.wal).is_empty(),
                "the log holds the batches"
            );
        }
        assert_eq!(std::fs::metadata(d.join("wal.log")).unwrap().len(), 0);
        let mut e = open(&d, 32);
        assert_eq!(e.check_consistency().unwrap(), 500);
        for i in 0..500u32 {
            assert_eq!(e.get(&key(i), 100), Some(vec![i as u8; 40]), "key {i}");
        }
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn overwrite_is_one_descent_and_leaves_untouched_ancestors_alone() {
        // The cost contract of a flush, seen through a commit: the commit
        // itself goes to the write buffer, and a flush of it is one
        // root-to-leaf descent, where a page above the leaf is rewritten
        // only when the page id below it changed. The keys are loaded as
        // the replay at open loads a frame, which logs nothing, so no
        // checkpoint comes due; the flushes here are the engine's own,
        // which checkpoint nothing.
        let d = dir("overwrite");
        let counters = IoCounters::new_shared();
        let mut e = PagedEngine::open(&d, 4096, EvictionPolicy::Sieve, counters.clone()).unwrap();
        let key = |i: u32| format!("k{i:05}").into_bytes();
        let load = (0..10_000u32).map(|i| WalOp::Write {
            key: key(i),
            value: Some(vec![b'v'; 16]),
            version: 10,
        });
        e.replay(load).unwrap();
        e.drain().unwrap();
        let touched = |e: &mut PagedEngine, f: &dyn Fn(&mut PagedEngine)| {
            let before = counters.snapshot();
            f(e);
            let io = counters.snapshot().delta(&before);
            io.page_hits + io.page_misses
        };
        let overwrite = |version: u64| {
            move |e: &mut PagedEngine| {
                commit(e, version, vec![put(&key(5_000), &[b'w'; 16])]);
                e.drain().unwrap();
            }
        };
        let shape = |e: &mut PagedEngine| {
            let pool = exclusive(&mut e.pool);
            (pool.root(), pool.page_count())
        };
        let depth = touched(&mut e, &|e| assert!(e.get(&key(5_000), 20).is_some()));
        assert!(depth >= 2, "10 000 keys need more than one leaf");

        // Every page is fresh (no checkpoint yet): the leaf is rewritten
        // under its own id and nothing above it is touched.
        let (root, pages) = shape(&mut e);
        assert_eq!(touched(&mut e, &overwrite(20)), depth);
        assert_eq!(shape(&mut e), (root, pages));

        // After a checkpoint the first overwrite copies the path, patching
        // one child pointer per level in the bytes read on the way down...
        e.flush().unwrap();
        assert_eq!(touched(&mut e, &overwrite(30)), depth);
        assert_ne!(
            shape(&mut e).0,
            root,
            "the checkpointed root is never rewritten"
        );
        // ...and the second finds the path fresh: no page allocated, no
        // ancestor rewritten, exactly one descent.
        let (root, pages) = shape(&mut e);
        assert_eq!(touched(&mut e, &overwrite(40)), depth);
        assert_eq!(shape(&mut e), (root, pages));
        assert_eq!(
            touched(&mut e, &|e| assert!(e.get(&key(5_000), 50).is_some())),
            depth
        );
        assert_eq!(e.get(&key(5_000), 35), Some(vec![b'w'; 16]));
        assert_eq!(e.check_consistency().unwrap(), 10_000);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn wal_growth_triggers_checkpoint_truncation() {
        let d = dir("walgrow");
        let mut e = open(&d, 32);
        let big = vec![0x42u8; 64 * 1024];
        for i in 0..20u32 {
            e.write(
                format!("k{i}").into_bytes(),
                Some(big.clone()),
                10 + u64::from(i),
            );
            e.commit_batch();
        }
        assert!(
            exclusive(&mut e.wal).len() < WAL_CHECKPOINT_BYTES,
            "WAL should have been truncated by a size-triggered checkpoint"
        );
        assert_eq!(e.get(b"k19", 100), Some(big));
        std::fs::remove_dir_all(&d).unwrap();
    }

    /// Every free page survives a checkpoint and a reopen, however many
    /// there are: more than a meta slot could list (1 013 ids), the count
    /// a file kept before the engine rebuilt its free list at open. 600
    /// values of two overflow pages each are written, deleted and compacted
    /// away; after the reopen that many pages are allocated again and the
    /// file does not grow.
    #[test]
    fn free_list_survives_checkpoint() {
        let d = dir("freelist");
        let key = |i: u32| format!("k{i:04}").into_bytes();
        let (pages, free) = {
            let mut e = open(&d, 64);
            for i in 0..600 {
                e.write(key(i), Some(vec![0x5A; 6_000]), 10);
            }
            e.commit_batch();
            e.flush().unwrap();
            for i in 0..600 {
                e.write(key(i), None, 20);
            }
            e.commit_batch();
            assert_eq!(compact(&mut e, 20), 600);
            e.flush().unwrap();
            let pool = exclusive(&mut e.pool);
            let pages = pool.page_count();
            (pages, pages as usize - 2 - pool.live_pages())
        };
        assert!(free > 1_013, "{free} free pages");
        let mut e = open(&d, 64);
        assert_eq!(e.check_consistency().unwrap(), 0);
        let pool = exclusive(&mut e.pool);
        for _ in 0..free {
            pool.allocate(vec![0xEE; 16]).unwrap();
        }
        assert_eq!(pool.page_count(), pages, "every free page was reused");
        drop(e);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn compact_prunes_on_disk_chains() {
        let d = dir("compact");
        let mut e = open(&d, 32);
        e.write(b"dead".to_vec(), Some(b"x".to_vec()), 10);
        e.write(b"k".to_vec(), Some(vec![1]), 10);
        e.write(b"dead".to_vec(), None, 20);
        for v in 2..=10u64 {
            e.write(b"k".to_vec(), Some(vec![v as u8]), v * 10);
        }
        e.commit_batch();
        assert_eq!(e.total_version_entries(), 12);
        compact(&mut e, 95);
        assert_eq!(
            e.total_version_entries(),
            2,
            "versions 90,100 survive; dead key gone"
        );
        assert_eq!(e.get(b"k", 95), Some(vec![9]));
        assert_eq!(e.get(b"k", 200), Some(vec![10]));
        assert_eq!(e.get(b"dead", 200), None);
        e.check_consistency().unwrap();
        std::fs::remove_dir_all(&d).unwrap();
    }

    /// Reads take `&self`, so threads share one engine; its pool lock is
    /// all that stands between them. Four threads read disjoint quarters
    /// of the key space through a 16-frame pool, so each one's misses
    /// evict the pages the others just loaded. Every value is checked
    /// against a model, and a point get still costs exactly one page per
    /// level: no read sees a torn frame or charges a page twice.
    ///
    /// The contended branch of the pool lock is reached: on a 2-vCPU box a
    /// copy of this test that counted acquisitions saw the first
    /// `try_lock` fail for 17 356 of its 33 337 (release build; 27 260 in
    /// a debug build, 6 of which went on to park).
    #[test]
    fn concurrent_reads_share_one_engine() {
        use std::collections::BTreeMap;
        use std::sync::Arc;

        const THREADS: u32 = 4;
        const SPAN: u32 = 20_000; // even keys stored, odd ones absent
        let d = dir("concurrent");
        let counters = IoCounters::new_shared();
        let mut e = PagedEngine::open(&d, 16, EvictionPolicy::Sieve, counters.clone()).unwrap();
        let key = |i: u32| format!("k{i:05}").into_bytes();
        let mut model = BTreeMap::new();
        for i in (0..SPAN).step_by(2) {
            e.write(key(i), Some(format!("v{i}").into_bytes()), 10);
            model.insert(key(i), format!("v{i}").into_bytes());
        }
        // A second version of every third key, which reads at 25 see.
        for i in (0..SPAN).step_by(6) {
            e.write(key(i), Some(format!("w{i}").into_bytes()), 20);
            model.insert(key(i), format!("w{i}").into_bytes());
        }
        e.commit_batch();
        let e = Arc::new(e);
        let pages = || {
            let io = counters.snapshot();
            io.page_hits + io.page_misses
        };

        let before = pages();
        assert!(e.get(&key(SPAN / 2), 25).is_some());
        let depth = pages() - before;
        assert!(depth >= 2, "10 000 keys need more than one leaf");

        let quarter = |t: u32| t * SPAN / THREADS..(t + 1) * SPAN / THREADS;
        let before = pages();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (e, model) = (&e, &model);
                s.spawn(move || {
                    for i in quarter(t) {
                        assert_eq!(e.get(&key(i), 25).as_ref(), model.get(&key(i)), "get {i}");
                    }
                });
            }
        });
        assert_eq!(pages() - before, u64::from(SPAN) * depth);

        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (e, model) = (&e, &model);
                s.spawn(move || {
                    for i in quarter(t).step_by(3) {
                        let next = model.range(key(i)..).next();
                        let rows = e.scan(&key(i), b"\xff", 25, false, 1);
                        assert_eq!(rows.first().map(|(k, v)| (k, v)), next, "at {i}");
                        let prev = model.range(..key(i)).next_back();
                        let rows = e.scan(b"", &key(i), 25, true, 1);
                        assert_eq!(rows.first().map(|(k, v)| (k, v)), prev, "below {i}");
                    }
                });
            }
        });
        assert!(counters.snapshot().page_evictions > 0);
        drop(e);
        std::fs::remove_dir_all(&d).unwrap();
    }
}
