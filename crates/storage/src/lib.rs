//! # rl-storage — pluggable storage engines for the FDB simulator
//!
//! The simulator's MVCC heart was a `BTreeMap<Vec<u8>, Vec<VersionedValue>>`
//! living inside `rl_fdb`; correct, but memory-bound and blind to I/O. This
//! crate extracts that API into a [`StorageEngine`] trait and provides two
//! implementations:
//!
//! * [`MemoryEngine`] — the original ordered in-memory map, retained as the
//!   test oracle and the default engine.
//! * [`PagedEngine`] — a disk-backed engine: a fixed-size-page file with
//!   checksummed headers and a free list ([`mod@file`]), a buffer pool that
//!   evicts with SIEVE ([`pool`]), a copy-on-write B-tree keyed on raw
//!   bytes whose leaf entries hold the per-key version chain ([`btree`]),
//!   and an append-only write-ahead log segment that makes committed
//!   batches crash-recoverable ([`wal`]).
//!
//! Both engines keep a log of the keys whose write shadowed an older
//! version or was a tombstone (`garbage`), so MVCC compaction visits the
//! keys written since the last pass instead of scanning what is stored.
//!
//! Every read takes `&self`, so readers share an engine. The paged
//! engine's reads still change its buffer pool, which it keeps behind a
//! lock of its own, waited for as [`wait`] describes.
//!
//! ## Crash-consistency model
//!
//! The paged engine uses *shadow paging*: pages referenced by the last
//! checkpoint are never rewritten in place. A page modified after a
//! checkpoint is copied to a freshly allocated page (its parent chain is
//! rewritten the same way, up to the root), so the on-disk checkpoint tree
//! stays intact no matter when the process dies. Committed write batches
//! are appended to the WAL *before* any tree page can reach disk; recovery
//! is therefore "load the checkpoint tree, replay the WAL tail". Within a
//! batch the WAL frame is written atomically (single framed append with a
//! checksum), so a torn tail never exposes half a commit.
//!
//! The engine never calls `fsync`: the simulator equates "crash" with
//! "process stopped", as exercised by the crash-recovery tests. A real
//! deployment would sync the WAL at each commit frame and the page file at
//! each checkpoint; the ordering points are already correct.
//!
//! ## Diagnostics
//!
//! All I/O-level counters (buffer-pool hits/misses/evictions, dirty-page
//! flushes, WAL appends) accumulate in a shared [`IoCounters`] handed in at
//! construction, which `rl_fdb`'s `MetricsSnapshot` surfaces alongside the
//! key-level counters.

pub mod btree;
pub mod engine;
pub mod file;
mod garbage;
pub mod memory;
pub mod page;
pub mod paged;
pub mod pool;
mod replacer;
pub mod wait;
pub mod wal;

pub use engine::{Batch, EvictionPolicy, Mutation, StorageEngine};
pub use memory::MemoryEngine;
pub use paged::PagedEngine;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Monotonic I/O counters shared between a paged engine and whoever wants
/// to observe it (the simulator's metrics block). The in-memory engine
/// leaves them at zero.
#[derive(Debug, Default)]
pub struct IoCounters {
    /// Page requests satisfied from the buffer pool.
    pub page_hits: AtomicU64,
    /// Page requests that had to read the page file.
    pub page_misses: AtomicU64,
    /// Frames evicted to make room for another page.
    pub page_evictions: AtomicU64,
    /// Dirty pages written back to the page file (evictions + checkpoints).
    pub page_flushes: AtomicU64,
    /// Committed batch frames appended to the write-ahead log.
    pub log_appends: AtomicU64,
}

/// Shared handle to an [`IoCounters`] block.
pub type SharedIoCounters = Arc<IoCounters>;

impl IoCounters {
    pub fn new_shared() -> SharedIoCounters {
        Arc::new(IoCounters::default())
    }

    /// Snapshot all counters.
    pub fn snapshot(&self) -> IoStats {
        IoStats {
            page_hits: self.page_hits.load(Ordering::Relaxed),
            page_misses: self.page_misses.load(Ordering::Relaxed),
            page_evictions: self.page_evictions.load(Ordering::Relaxed),
            page_flushes: self.page_flushes.load(Ordering::Relaxed),
            log_appends: self.log_appends.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of the I/O counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoStats {
    pub page_hits: u64,
    pub page_misses: u64,
    pub page_evictions: u64,
    pub page_flushes: u64,
    pub log_appends: u64,
}

impl IoStats {
    /// Difference between two snapshots (self - earlier). Saturating, so
    /// snapshots passed in the wrong order give zeros instead of a
    /// debug-build underflow panic.
    pub fn delta(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            page_hits: self.page_hits.saturating_sub(earlier.page_hits),
            page_misses: self.page_misses.saturating_sub(earlier.page_misses),
            page_evictions: self.page_evictions.saturating_sub(earlier.page_evictions),
            page_flushes: self.page_flushes.saturating_sub(earlier.page_flushes),
            log_appends: self.log_appends.saturating_sub(earlier.log_appends),
        }
    }
}
