//! Integration: the paged engine's I/O counters surface through
//! [`rl_fdb::metrics::MetricsSnapshot`] after a committed workload —
//! `page_hits`/`page_misses`/`log_appends` must be live and mutually
//! consistent, not dead struct fields.
//!
//! The engine is requested explicitly (not via `RL_ENGINE`) so the test
//! exercises the disk-backed path regardless of how the suite is run.

use rl_fdb::{Database, DatabaseOptions, EngineKind, PagedConfig};

fn paged_db() -> Database {
    // A deliberately tiny pool (a budget of 8 × 4 KiB) so a ~200 kB
    // workload cannot stay resident: reads after the write phase must miss
    // and evict.
    let mut cfg = PagedConfig::ephemeral();
    cfg.pool_pages = 8;
    Database::with_options(DatabaseOptions {
        engine: EngineKind::Paged(cfg),
        ..DatabaseOptions::default()
    })
}

#[test]
fn paged_engine_reports_io_metrics() {
    let db = paged_db();
    let before = db.metrics().snapshot();

    // A write-then-read workload big enough to touch many pages: 40
    // committed batches of 25 keys with 200-byte values (~200 kB total,
    // several times the 4 kB page size).
    let batches = 40u64;
    for b in 0..batches {
        let tx = db.create_transaction();
        for i in 0..25u64 {
            let key = format!("paged-metrics/{b:04}/{i:04}");
            tx.set(key.as_bytes(), &[b as u8; 200]);
        }
        tx.commit().unwrap();
    }
    for b in 0..batches {
        let tx = db.create_transaction();
        for i in 0..25u64 {
            let key = format!("paged-metrics/{b:04}/{i:04}");
            let got = tx.get(key.as_bytes()).unwrap();
            assert_eq!(got.as_deref(), Some(&[b as u8; 200][..]));
        }
        tx.commit().unwrap();
    }

    let delta = db.metrics().snapshot().delta(&before);

    // Commit pipeline counters.
    assert_eq!(delta.commits_succeeded, 2 * batches);
    assert_eq!(delta.keys_written, 25 * batches);

    // Buffer pool counters: the workload must have touched the pool, and
    // every page ever read from disk was a recorded miss.
    assert!(
        delta.page_hits + delta.page_misses > 0,
        "buffer pool saw no traffic: {delta:?}"
    );
    assert!(
        delta.page_misses > 0,
        "a cold pool must miss at least once: {delta:?}"
    );

    // WAL counters: each committed writing batch appends at least one
    // frame, so appends must be at least the number of writing commits.
    assert!(
        delta.log_appends >= batches,
        "expected >= {batches} WAL appends, got {}",
        delta.log_appends
    );

    // The workload outgrows the budget, so the pool evicts, and writes
    // dirty pages back; flushes also accrue at checkpoints. Evictions are
    // never counted without pool traffic.
    assert!(
        delta.page_evictions > 0 && delta.page_flushes > 0,
        "a workload larger than the pool must evict and write back: {delta:?}"
    );
    assert!(
        delta.page_hits + delta.page_misses >= delta.page_evictions,
        "evictions without matching pool traffic: {delta:?}"
    );
}

#[test]
fn in_memory_engine_reports_zero_io_metrics() {
    let db = Database::with_options(DatabaseOptions {
        engine: EngineKind::InMemory,
        ..DatabaseOptions::default()
    });
    let tx = db.create_transaction();
    tx.set(b"mem/a", b"1");
    tx.commit().unwrap();
    drop(tx);

    let snap = db.metrics().snapshot();
    assert_eq!(snap.page_hits, 0);
    assert_eq!(snap.page_misses, 0);
    assert_eq!(snap.log_appends, 0);
    assert_eq!(snap.commits_succeeded, 1);
}

/// The cost contract of `StorageEngine::stage`, seen from a commit: a
/// commit goes to the paged engine's write buffer and walks no tree, so a
/// plain `set` touches no page, and an atomic ADD touches only what reading
/// the value it folds takes — on a warm tree of three or more levels one
/// page per level, a `get`'s descent, and none once the buffer holds the
/// key.
#[test]
fn an_atomic_add_reads_one_descent_and_a_set_none() {
    use rl_fdb::atomic::MutationType;
    let mut cfg = PagedConfig::ephemeral();
    cfg.pool_pages = 4096; // the whole tree stays resident
    let db = Database::with_options(DatabaseOptions {
        engine: EngineKind::Paged(cfg),
        ..DatabaseOptions::default()
    });
    // Long keys keep the fan-out low enough for a third level.
    let key = |i: u32| format!("{i:0>120}").into_bytes();
    for batch in 0..40u32 {
        let tx = db.create_transaction();
        for i in batch * 500..(batch + 1) * 500 {
            tx.set(&key(i), &1u64.to_le_bytes());
        }
        tx.commit().unwrap();
    }
    let touched = |f: &dyn Fn(&rl_fdb::Transaction)| {
        let before = db.metrics().snapshot();
        let tx = db.create_transaction();
        f(&tx);
        tx.commit().unwrap();
        let io = db.metrics().snapshot().delta(&before);
        assert_eq!(io.page_misses, 0, "warm");
        io.page_hits
    };
    let depth = touched(&|tx| assert!(tx.get(&key(10_000)).unwrap().is_some()));
    assert!(
        depth >= 3,
        "20 000 long keys make a tree {depth} levels deep"
    );
    let set = touched(&|tx| tx.set(&key(10_001), &2u64.to_le_bytes()));
    let add = || {
        touched(&|tx| {
            tx.mutate(MutationType::Add, &key(10_002), &5u64.to_le_bytes())
                .unwrap()
        })
    };
    assert_eq!((set, add(), add()), (0, depth, 0));
    let tx = db.create_transaction();
    assert_eq!(
        tx.get(&key(10_002)).unwrap(),
        Some(11u64.to_le_bytes().to_vec())
    );
    // On a key that does not exist yet, and twice in one transaction: the
    // commit folds both into the key's one write, so one descent.
    let fresh = touched(&|tx| {
        tx.mutate(MutationType::Add, b"counter", &5u64.to_le_bytes())
            .unwrap();
        tx.mutate(MutationType::Add, b"counter", &5u64.to_le_bytes())
            .unwrap();
    });
    assert_eq!(fresh, depth);
    assert_eq!(
        db.create_transaction().get(b"counter").unwrap(),
        Some(10u64.to_le_bytes().to_vec())
    );
}
