//! Key-level instrumentation counters.
//!
//! Section 8.2 of the paper reports the median number of FoundationDB keys
//! read and written while executing common CloudKit operations (e.g. a
//! query reads ≈38.3 keys of which ≈6.2 are overhead). These counters let
//! the workload harness reproduce that table: every transaction tallies
//! its key reads/writes, and the database aggregates totals.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rl_storage::SharedIoCounters;

/// Monotonic counters describing database traffic at the key level.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Individual keys returned by point and range reads.
    pub keys_read: AtomicU64,
    /// Bytes of keys+values returned by reads.
    pub bytes_read: AtomicU64,
    /// Keys written (sets + atomic mutations) by committed transactions.
    pub keys_written: AtomicU64,
    /// Bytes of keys+values written by committed transactions.
    pub bytes_written: AtomicU64,
    /// Range clears issued: counted when a transaction buffers one, so a
    /// clear whose transaction never commits is counted too.
    pub range_clears: AtomicU64,
    /// Point/range read operations issued.
    pub read_ops: AtomicU64,
    /// Commit attempts.
    pub commits_attempted: AtomicU64,
    /// Commits that succeeded.
    pub commits_succeeded: AtomicU64,
    /// Commits rejected with a conflict (error 1020).
    pub conflicts: AtomicU64,
    /// Record fetches: reads that load record payloads from a record
    /// store's record subspace (covering index scans perform zero).
    pub record_fetches: AtomicU64,
    /// Storage-engine I/O counters (buffer-pool traffic, WAL appends).
    /// Shared with the engine; stays at zero for the in-memory engine.
    pub io: SharedIoCounters,
}

/// Shared handle to a metrics block.
pub type SharedMetrics = Arc<Metrics>;

impl Metrics {
    pub fn new_shared() -> SharedMetrics {
        Arc::new(Metrics::default())
    }

    /// The I/O counter block a storage engine should report into.
    pub fn io_counters(&self) -> &SharedIoCounters {
        &self.io
    }

    pub fn add_keys_read(&self, n: u64, bytes: u64) {
        self.keys_read.fetch_add(n, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
    }

    pub fn add_read_op(&self) {
        self.read_ops.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_keys_written(&self, n: u64, bytes: u64) {
        self.keys_written.fetch_add(n, Ordering::Relaxed);
        self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
    }

    pub fn add_range_clear(&self) {
        self.range_clears.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one record fetch (a read of record payload keys). Incremented
    /// by the record layer, not by the key-value substrate itself.
    pub fn add_record_fetch(&self) {
        self.record_fetches.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_commit(&self, succeeded: bool, conflicted: bool) {
        self.commits_attempted.fetch_add(1, Ordering::Relaxed);
        if succeeded {
            self.commits_succeeded.fetch_add(1, Ordering::Relaxed);
        }
        if conflicted {
            self.conflicts.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Snapshot all counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            keys_read: self.keys_read.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            keys_written: self.keys_written.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            range_clears: self.range_clears.load(Ordering::Relaxed),
            read_ops: self.read_ops.load(Ordering::Relaxed),
            commits_attempted: self.commits_attempted.load(Ordering::Relaxed),
            commits_succeeded: self.commits_succeeded.load(Ordering::Relaxed),
            conflicts: self.conflicts.load(Ordering::Relaxed),
            record_fetches: self.record_fetches.load(Ordering::Relaxed),
            page_hits: self.io.page_hits.load(Ordering::Relaxed),
            page_misses: self.io.page_misses.load(Ordering::Relaxed),
            page_evictions: self.io.page_evictions.load(Ordering::Relaxed),
            page_flushes: self.io.page_flushes.load(Ordering::Relaxed),
            log_appends: self.io.log_appends.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    pub keys_read: u64,
    pub bytes_read: u64,
    pub keys_written: u64,
    pub bytes_written: u64,
    pub range_clears: u64,
    pub read_ops: u64,
    pub commits_attempted: u64,
    pub commits_succeeded: u64,
    pub conflicts: u64,
    pub record_fetches: u64,
    /// Buffer-pool requests served from memory (paged engine only).
    pub page_hits: u64,
    /// Buffer-pool requests that read the page file.
    pub page_misses: u64,
    /// Frames evicted to make room for another page.
    pub page_evictions: u64,
    /// Dirty pages written back (evictions + checkpoints).
    pub page_flushes: u64,
    /// Committed batch frames appended to the write-ahead log.
    pub log_appends: u64,
}

impl MetricsSnapshot {
    /// Difference between two snapshots (self - earlier). Saturating, so
    /// snapshots passed in the wrong order give zeros instead of a
    /// debug-build underflow panic.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            keys_read: self.keys_read.saturating_sub(earlier.keys_read),
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            keys_written: self.keys_written.saturating_sub(earlier.keys_written),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
            range_clears: self.range_clears.saturating_sub(earlier.range_clears),
            read_ops: self.read_ops.saturating_sub(earlier.read_ops),
            commits_attempted: self
                .commits_attempted
                .saturating_sub(earlier.commits_attempted),
            commits_succeeded: self
                .commits_succeeded
                .saturating_sub(earlier.commits_succeeded),
            conflicts: self.conflicts.saturating_sub(earlier.conflicts),
            record_fetches: self.record_fetches.saturating_sub(earlier.record_fetches),
            page_hits: self.page_hits.saturating_sub(earlier.page_hits),
            page_misses: self.page_misses.saturating_sub(earlier.page_misses),
            page_evictions: self.page_evictions.saturating_sub(earlier.page_evictions),
            page_flushes: self.page_flushes.saturating_sub(earlier.page_flushes),
            log_appends: self.log_appends.saturating_sub(earlier.log_appends),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new_shared();
        m.add_keys_read(3, 100);
        m.add_keys_written(2, 50);
        m.record_commit(true, false);
        m.record_commit(false, true);
        let s = m.snapshot();
        assert_eq!(s.keys_read, 3);
        assert_eq!(s.bytes_read, 100);
        assert_eq!(s.keys_written, 2);
        assert_eq!(s.commits_attempted, 2);
        assert_eq!(s.commits_succeeded, 1);
        assert_eq!(s.conflicts, 1);
    }

    #[test]
    fn snapshot_delta() {
        let m = Metrics::new_shared();
        m.add_keys_read(5, 10);
        let a = m.snapshot();
        m.add_keys_read(7, 20);
        let b = m.snapshot();
        let d = b.delta(&a);
        assert_eq!(d.keys_read, 7);
        assert_eq!(d.bytes_read, 20);
    }
}
