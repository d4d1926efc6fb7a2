//! Key-level instrumentation counters.
//!
//! Section 8.2 of the paper reports the median number of FoundationDB keys
//! read and written while executing common CloudKit operations (e.g. a
//! query reads ≈38.3 keys of which ≈6.2 are overhead). These counters let
//! the workload harness reproduce that table. Each count is taken once, in
//! the [`TxnTrace`] of the transaction that read or wrote; the database's
//! [`Metrics`] block is the field-wise sum of the traces of every
//! transaction that has been dropped.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rl_storage::SharedIoCounters;

use crate::transaction::TxnTrace;

/// Monotonic counters describing database traffic at the key level: one
/// per [`TxnTrace`] field, holding that field's sum over every transaction
/// of this database that has been dropped, beside the storage engine's I/O
/// counters.
///
/// A transaction's counts arrive when it is dropped, all at once, so a
/// snapshot taken while a transaction is alive leaves that transaction
/// out. Take the trace ([`Transaction::trace`](crate::Transaction::trace))
/// for a question about one live transaction. The I/O counters are the
/// engine's and move as it works.
#[derive(Debug, Default)]
pub struct Metrics {
    keys_read: AtomicU64,
    bytes_read: AtomicU64,
    keys_written: AtomicU64,
    bytes_written: AtomicU64,
    range_clears: AtomicU64,
    read_ops: AtomicU64,
    commits_attempted: AtomicU64,
    commits_succeeded: AtomicU64,
    conflicts: AtomicU64,
    record_fetches: AtomicU64,
    /// Storage-engine I/O counters (buffer-pool traffic, WAL appends).
    /// Shared with the engine; stays at zero for the in-memory engine.
    io: SharedIoCounters,
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

    /// Add a dropped transaction's trace, field by field.
    pub(crate) fn fold(&self, trace: &TxnTrace) {
        let add = |counter: &AtomicU64, n: u64| counter.fetch_add(n, Ordering::Relaxed);
        add(&self.keys_read, trace.keys_read);
        add(&self.bytes_read, trace.bytes_read);
        add(&self.keys_written, trace.keys_written);
        add(&self.bytes_written, trace.bytes_written);
        add(&self.range_clears, trace.range_clears);
        add(&self.read_ops, trace.read_ops);
        add(&self.commits_attempted, trace.commits_attempted);
        add(&self.commits_succeeded, trace.commits_succeeded);
        add(&self.conflicts, trace.conflicts);
        add(&self.record_fetches, trace.record_fetches);
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
            pages_written: self.io.pages_written.load(Ordering::Relaxed),
            leaf_rewrites: self.io.leaf_rewrites.load(Ordering::Relaxed),
            buffer_flushes: self.io.buffer_flushes.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of the counters. The first ten fields are sums of
/// the [`TxnTrace`] fields of the same name, which document them.
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
    /// Page images a B-tree walk wrote into the pool (paged engine only).
    pub pages_written: u64,
    /// The leaf images among `pages_written`.
    pub leaf_rewrites: u64,
    /// Flushes of the paged engine's write buffer into its tree.
    pub buffer_flushes: u64,
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
            pages_written: self.pages_written.saturating_sub(earlier.pages_written),
            leaf_rewrites: self.leaf_rewrites.saturating_sub(earlier.leaf_rewrites),
            buffer_flushes: self.buffer_flushes.saturating_sub(earlier.buffer_flushes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Database, Error};

    #[test]
    fn counters_accumulate() {
        let db = Database::new();
        let (winner, loser) = (db.create_transaction(), db.create_transaction());
        loser.set(b"b", b"1");
        assert_eq!(loser.get(b"b").unwrap(), Some(b"1".to_vec()));
        assert_eq!(loser.get(b"a").unwrap(), None);
        winner.set(b"a", b"12");
        winner.commit().unwrap();
        assert_eq!(loser.commit(), Err(Error::NotCommitted));
        let alive = db.metrics().snapshot();
        assert_eq!(
            (alive.read_ops, alive.commits_attempted),
            (0, 0),
            "counted at drop"
        );
        drop((winner, loser));

        let s = db.metrics().snapshot();
        assert_eq!((s.keys_read, s.bytes_read, s.read_ops), (1, 2, 2));
        assert_eq!((s.keys_written, s.bytes_written), (1, 3));
        assert_eq!(s.commits_attempted, 2);
        assert_eq!(s.commits_succeeded, 1);
        assert_eq!(s.conflicts, 1);
    }

    #[test]
    fn snapshot_delta() {
        let a = MetricsSnapshot {
            keys_read: 5,
            bytes_read: 10,
            ..MetricsSnapshot::default()
        };
        let b = MetricsSnapshot {
            keys_read: 12,
            bytes_read: 30,
            ..MetricsSnapshot::default()
        };
        let d = b.delta(&a);
        assert_eq!(d.keys_read, 7);
        assert_eq!(d.bytes_read, 20);
        assert_eq!(a.delta(&b), MetricsSnapshot::default(), "saturates");
    }
}
