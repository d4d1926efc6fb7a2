//! Simulator-level integration tests: MVCC window expiry, compaction,
//! metrics accounting, and interleaved-transaction
//! serializability checks.

use rl_fdb::atomic::MutationType;
use rl_fdb::options::{DatabaseOptions, VERSIONS_PER_MS};
use rl_fdb::transaction::TxnTrace;
use rl_fdb::{Database, EngineKind, Error, PagedConfig, RangeOptions, Transaction};

#[test]
fn mvcc_history_compacts_but_recent_readers_still_work() {
    let opts = DatabaseOptions {
        compaction_interval: 8,
        mvcc_window_versions: 1_000 * VERSIONS_PER_MS,
        ..DatabaseOptions::default()
    };
    let db = Database::with_options(opts);

    for round in 0..100u32 {
        let tx = db.create_transaction();
        tx.set(b"hot", format!("v{round}").as_bytes());
        tx.commit().unwrap();
        db.advance_clock(50);
    }
    // Latest value visible; long-expired read versions rejected.
    let tx = db.create_transaction();
    assert_eq!(tx.get(b"hot").unwrap(), Some(b"v99".to_vec()));
    assert!(matches!(
        db.create_transaction_at(1),
        Err(Error::TransactionTooOld)
    ));
    // Future versions rejected too.
    assert!(matches!(
        db.create_transaction_at(u64::MAX),
        Err(Error::FutureVersion)
    ));
}

/// The database's key-level counters are the field-wise sum of the traces
/// of the transactions dropped since the base snapshot: a transaction's
/// counts arrive when it drops, whatever became of it.
#[test]
fn metrics_account_reads_writes_and_conflicts() {
    let db = Database::with_options(DatabaseOptions {
        transaction_size_limit: 1_000,
        ..DatabaseOptions::default()
    });
    let m = db.metrics();
    let base = m.snapshot();
    let mut traces: Vec<TxnTrace> = Vec::new();
    let mut finish = |tx: Transaction| traces.push(tx.trace());

    let tx = db.create_transaction();
    tx.set(b"a", b"1");
    tx.set(b"b", b"2");
    tx.commit().unwrap();
    finish(tx);
    let after_write = m.snapshot().delta(&base);
    assert_eq!(after_write.keys_written, 2);
    assert_eq!(after_write.commits_succeeded, 1);

    // A reader dropped without committing.
    let tx = db.create_transaction();
    let _ = tx.get_range(b"a", b"z", RangeOptions::default()).unwrap();
    finish(tx);
    let after_read = m.snapshot().delta(&base);
    assert_eq!(after_read.keys_read, 2);

    let tx = db.create_transaction();
    tx.clear_range(b"x", b"y");
    tx.commit().unwrap();
    finish(tx);

    let tx = db.create_transaction();
    tx.set(b"big", &[7; 2_000]);
    assert!(matches!(
        tx.commit(),
        Err(Error::TransactionTooLarge { .. })
    ));
    finish(tx);

    // Manufacture a conflict, then retry the conflicted work.
    let t1 = db.create_transaction();
    let _ = t1.get(b"a").unwrap();
    let t2 = db.create_transaction();
    t2.set(b"a", b"x");
    t2.commit().unwrap();
    finish(t2);
    t1.set(b"c", b"y");
    assert_eq!(t1.commit(), Err(Error::NotCommitted));
    finish(t1);
    let after_conflict = m.snapshot().delta(&base);
    assert_eq!(after_conflict.conflicts, 1);
    let retry = db.create_transaction();
    assert_eq!(retry.get(b"a").unwrap(), Some(b"x".to_vec()));
    retry.set(b"c", b"y");
    retry.commit().unwrap();
    finish(retry);

    let delta = m.snapshot().delta(&base);
    let sum = |field: fn(&TxnTrace) -> u64| traces.iter().map(field).sum::<u64>();
    assert_eq!(delta.keys_read, sum(|t| t.keys_read));
    assert_eq!(delta.bytes_read, sum(|t| t.bytes_read));
    assert_eq!(delta.keys_written, sum(|t| t.keys_written));
    assert_eq!(delta.bytes_written, sum(|t| t.bytes_written));
    assert_eq!(delta.range_clears, sum(|t| t.range_clears));
    assert_eq!(delta.read_ops, sum(|t| t.read_ops));
    assert_eq!(delta.commits_attempted, sum(|t| t.commits_attempted));
    assert_eq!(delta.commits_succeeded, sum(|t| t.commits_succeeded));
    assert_eq!(delta.conflicts, sum(|t| t.conflicts));
    assert_eq!(delta.record_fetches, sum(|t| t.record_fetches));
    // Every input above was counted: 6 attempts, of which the oversized
    // commit failed and one conflicted.
    assert_eq!(
        (
            delta.range_clears,
            delta.commits_attempted,
            delta.commits_succeeded
        ),
        (1, 6, 4)
    );
    assert_eq!((delta.keys_read, delta.read_ops), (4, 3));
}

#[test]
fn serializability_of_interleaved_swaps() {
    // Classic write-skew-free check: two transactions each read both keys
    // and swap them; under strict serializability only one may commit.
    let db = Database::new();
    let tx = db.create_transaction();
    tx.set(b"x", b"1");
    tx.set(b"y", b"2");
    tx.commit().unwrap();

    let t1 = db.create_transaction();
    let t2 = db.create_transaction();
    let x1 = t1.get(b"x").unwrap().unwrap();
    let y1 = t1.get(b"y").unwrap().unwrap();
    let x2 = t2.get(b"x").unwrap().unwrap();
    let y2 = t2.get(b"y").unwrap().unwrap();
    t1.set(b"x", &y1);
    t1.set(b"y", &x1);
    t2.set(b"x", &y2);
    t2.set(b"y", &x2);
    assert!(t1.commit().is_ok());
    assert!(t2.commit().is_err(), "second swap must conflict");

    let tx = db.create_transaction();
    assert_eq!(tx.get(b"x").unwrap(), Some(b"2".to_vec()));
    assert_eq!(tx.get(b"y").unwrap(), Some(b"1".to_vec()));
}

#[test]
fn atomic_ops_interleave_with_sets_in_program_order() {
    let db = Database::new();
    let tx = db.create_transaction();
    tx.mutate(MutationType::Add, b"k", &5u64.to_le_bytes())
        .unwrap();
    tx.set(b"k", &100u64.to_le_bytes());
    tx.mutate(MutationType::Add, b"k", &1u64.to_le_bytes())
        .unwrap();
    tx.commit().unwrap();
    let tx = db.create_transaction();
    let v = tx.get(b"k").unwrap().unwrap();
    assert_eq!(u64::from_le_bytes(v.try_into().unwrap()), 101);
}

#[test]
fn clear_range_vs_concurrent_write_conflicts() {
    let db = Database::new();
    let tx = db.create_transaction();
    tx.set(b"p1", b"v");
    tx.set(b"p2", b"v");
    tx.commit().unwrap();

    // Reader scans the range; a clear-range commits behind it.
    let t1 = db.create_transaction();
    let _ = t1.get_range(b"p", b"q", RangeOptions::default()).unwrap();
    let t2 = db.create_transaction();
    t2.clear_range(b"p", b"q");
    t2.commit().unwrap();
    t1.set(b"other", b"x");
    assert!(matches!(t1.commit(), Err(Error::NotCommitted)));
}

#[test]
fn snapshot_range_plus_manual_conflict_key() {
    // The §10.1 pattern: snapshot-read a range, conflict only on the
    // distinguished key you depend on.
    let db = Database::new();
    let tx = db.create_transaction();
    tx.set(b"s1", b"v");
    tx.set(b"s2", b"v");
    tx.commit().unwrap();

    let t1 = db.create_transaction();
    let _ = t1
        .get_range_snapshot(b"s", b"t", RangeOptions::default())
        .unwrap();
    t1.add_read_conflict_key(b"s1");
    // Concurrent write to the *other* key: no conflict.
    let t2 = db.create_transaction();
    t2.set(b"s2", b"changed");
    t2.commit().unwrap();
    t1.set(b"out", b"1");
    t1.commit().unwrap();

    // But a write to the distinguished key does conflict.
    let t3 = db.create_transaction();
    let _ = t3
        .get_range_snapshot(b"s", b"t", RangeOptions::default())
        .unwrap();
    t3.add_read_conflict_key(b"s1");
    let t4 = db.create_transaction();
    t4.set(b"s1", b"changed");
    t4.commit().unwrap();
    t3.set(b"out2", b"1");
    assert!(matches!(t3.commit(), Err(Error::NotCommitted)));
}

#[test]
fn read_only_transactions_always_commit() {
    let db = Database::new();
    let t1 = db.create_transaction();
    let _ = t1.get(b"anything").unwrap();
    // A conflicting write lands...
    let t2 = db.create_transaction();
    t2.set(b"anything", b"v");
    t2.commit().unwrap();
    // ...but a read-only transaction already saw a consistent snapshot.
    t1.commit().unwrap();
}

/// A limited read observes only up to its last returned key: a concurrent
/// write inside that portion conflicts, one past it does not.
#[test]
fn limited_read_conflicts_only_inside_the_observed_portion() {
    let db = Database::new();
    let tx = db.create_transaction();
    for k in [b"a", b"b", b"c", b"d", b"e"] {
        tx.set(k, b"v");
    }
    tx.commit().unwrap();

    // (reverse, a key the read observed, a key beyond what it returned)
    for (reverse, observed, beyond) in [(false, b"a1", b"c1"), (true, b"d1", b"b1")] {
        for (concurrent_write, expect_conflict) in [(observed, true), (beyond, false)] {
            let reader = db.create_transaction();
            let rows = reader
                .get_range(b"a", b"z", RangeOptions::new().limit(2).reverse(reverse))
                .unwrap();
            assert_eq!(rows.len(), 2);
            reader.set(b"zz", b"x"); // outside the range read

            let writer = db.create_transaction();
            writer.set(concurrent_write, b"new");
            writer.commit().unwrap();

            assert_eq!(
                matches!(reader.commit(), Err(Error::NotCommitted)),
                expect_conflict,
                "reverse={reverse}, concurrent write to {concurrent_write:?}"
            );
        }
    }
}

/// A database opened over an existing paged directory starts at the
/// highest stored version: it reads what was committed (no marker commit
/// needed) and its next commit lands above it.
#[test]
fn reopened_paged_database_reads_what_was_committed() {
    let path = std::env::temp_dir().join(format!("rl-fdb-reopen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    let open = || {
        Database::with_options(DatabaseOptions {
            engine: EngineKind::Paged(PagedConfig {
                path: path.clone(),
                remove_dir_on_drop: false,
                ..PagedConfig::ephemeral()
            }),
            ..DatabaseOptions::default()
        })
    };

    let db = open();
    db.advance_clock(7); // versions well above 1
    let tx = db.create_transaction();
    tx.set(b"k1", b"v1");
    tx.set(b"k2", b"v2");
    tx.commit().unwrap();
    let committed = db.last_commit_version();
    drop(tx);
    drop(db);

    let db = open();
    assert_eq!(db.last_commit_version(), committed);
    let tx = db.create_transaction();
    assert_eq!(tx.get(b"k1").unwrap(), Some(b"v1".to_vec()));
    assert_eq!(
        tx.get_range(b"", b"\xff", RangeOptions::default())
            .unwrap()
            .len(),
        2
    );
    tx.set(b"k1", b"v1b");
    tx.commit().unwrap();
    assert!(tx.committed_version().unwrap() > committed);
    assert_eq!(
        db.create_transaction().get(b"k1").unwrap(),
        Some(b"v1b".to_vec())
    );
    drop(tx);
    drop(db);
    std::fs::remove_dir_all(&path).unwrap();
}
