//! End-to-end observability: per-plan-node spans join against the plan
//! tree (`node_paths`), and per-transaction spans attribute key traffic
//! and commit outcomes to individual transactions.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

use record_layer::expr::KeyExpression;
use record_layer::metadata::{Index, RecordMetaData, RecordMetaDataBuilder};
use record_layer::plan::RecordQueryPlanner;
use record_layer::query::{Comparison, QueryComponent, RecordQuery};
use record_layer::store::RecordStore;
use rl_fdb::{Database, Subspace};
use rl_message::{DescriptorPool, FieldDescriptor, FieldType, MessageDescriptor};
use rl_obs::Op;

/// The span ring and enabled flag are process-global; tests in this
/// binary that drain the ring must not interleave.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    rl_fdb::sync::lock(&LOCK)
}

fn metadata() -> RecordMetaData {
    let mut pool = DescriptorPool::new();
    pool.add_message(
        MessageDescriptor::new(
            "Item",
            vec![
                FieldDescriptor::optional("id", 1, FieldType::Int64),
                FieldDescriptor::optional("color", 2, FieldType::String),
                FieldDescriptor::optional("size", 3, FieldType::Int64),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    RecordMetaDataBuilder::new(pool)
        .record_type("Item", KeyExpression::field("id"))
        .index(
            "Item",
            Index::value("by_color", KeyExpression::field("color")),
        )
        .index(
            "Item",
            Index::value("by_size", KeyExpression::field("size")),
        )
        .build()
        .unwrap()
}

fn seed(db: &Database, md: &RecordMetaData, sub: &Subspace) {
    let colors = ["red", "green", "blue"];
    record_layer::run(db, |tx| {
        let store = RecordStore::open_or_create(tx, sub, md)?;
        for i in 0..60i64 {
            let mut item = store.new_record("Item")?;
            item.set("id", i).unwrap();
            item.set("color", colors[(i % 3) as usize]).unwrap();
            item.set("size", i % 10).unwrap();
            store.save_record(item)?;
        }
        Ok(())
    })
    .unwrap();
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// `explain()` (the static plan tree) joins against the dynamic span
/// stream: every node path in `node_paths()` has a `plan_node` span
/// carrying the *actual* rows and key reads that node produced.
#[test]
fn plan_node_spans_join_against_explain() {
    let _guard = obs_lock();
    rl_obs::set_enabled(true);
    let _ = rl_obs::drain_spans();

    let db = Database::new();
    let md = metadata();
    // A subspace unique to this test: spans are filtered by its prefix.
    let sub = Subspace::from_bytes(b"obs-join".to_vec());
    seed(&db, &md, &sub);

    let planner = RecordQueryPlanner::new(&md);
    let query = RecordQuery::new()
        .record_type("Item")
        .filter(QueryComponent::or(vec![
            QueryComponent::field("color", Comparison::Equals("red".into())),
            QueryComponent::field("size", Comparison::Equals(0i64.into())),
        ]));
    let plan = planner.plan(&query).unwrap();
    assert!(plan.describe().starts_with("Union("), "{}", plan.describe());

    let rows = record_layer::run(&db, |tx| {
        let store = RecordStore::open_or_create(tx, &sub, &md)?;
        Ok(plan.execute_all(&store)?.len())
    })
    .unwrap();
    // red: ids ≡ 0 mod 3 (20); size 0: ids ≡ 0 mod 10 (6); overlap 2.
    assert_eq!(rows, 24);

    rl_obs::set_enabled(false);

    // Join: span tag is "<subspace hex>:<node path>"; collect this plan's
    // spans by path and walk the static tree.
    let prefix = format!("{}:", hex(sub.prefix()));
    let by_path: HashMap<String, rl_obs::Span> = rl_obs::drain_spans()
        .into_iter()
        .filter(|s| s.op == "plan_node" && s.tag.starts_with(&prefix))
        .map(|s| (s.tag[prefix.len()..].to_string(), s))
        .collect();

    let paths = plan.node_paths();
    let labels: Vec<&str> = paths.iter().map(|(_, l)| l.as_str()).collect();
    assert_eq!(
        labels,
        ["Union", "IndexScan(by_color)", "IndexScan(by_size)"]
    );
    for (path, label) in &paths {
        assert!(
            by_path.contains_key(path),
            "no span for node {path} ({label}); got {:?}",
            by_path.keys().collect::<Vec<_>>()
        );
    }

    // Actual per-node row counts: the union deduplicates, its children
    // emit their full branches.
    assert_eq!(by_path["0"].counter("rows"), Some(24));
    assert_eq!(by_path["0.0"].counter("rows"), Some(20));
    assert_eq!(by_path["0.1"].counter("rows"), Some(6));

    // Key accounting is inclusive (flamegraph-style): each fetching index
    // scan reads at least one key per row, and the union's reads cover
    // both children.
    let union_reads = by_path["0"].counter("keys_read").unwrap();
    let color_reads = by_path["0.0"].counter("keys_read").unwrap();
    let size_reads = by_path["0.1"].counter("keys_read").unwrap();
    assert!(color_reads >= 20, "color branch read {color_reads} keys");
    assert!(size_reads >= 6, "size branch read {size_reads} keys");
    assert!(
        union_reads >= color_reads.max(size_reads),
        "union reads {union_reads} must cover its children ({color_reads}, {size_reads})"
    );
}

/// The merge's children are raw entry streams below `execute_inner`: they
/// still answer for their node paths, with the entries they pulled and the
/// keys their own batches read.
#[test]
fn intersection_children_emit_plan_node_spans() {
    let _guard = obs_lock();
    rl_obs::set_enabled(true);
    let _ = rl_obs::drain_spans();

    let db = Database::new();
    let md = metadata();
    let sub = Subspace::from_bytes(b"obs-merge".to_vec());
    seed(&db, &md, &sub);

    let query = RecordQuery::new()
        .record_type("Item")
        .filter(QueryComponent::and(vec![
            QueryComponent::field("color", Comparison::Equals("red".into())),
            QueryComponent::field("size", Comparison::Equals(0i64.into())),
        ]));
    let plan = RecordQueryPlanner::new(&md).plan(&query).unwrap();
    assert_eq!(
        plan.describe(),
        "Intersection(IndexScan(by_color), IndexScan(by_size))"
    );
    let rows = record_layer::run(&db, |tx| {
        let store = RecordStore::open_or_create(tx, &sub, &md)?;
        Ok(plan.execute_all(&store)?.len())
    })
    .unwrap();
    // red ∩ size 0: ids ≡ 0 mod 30.
    assert_eq!(rows, 2);

    rl_obs::set_enabled(false);

    let prefix = format!("{}:", hex(sub.prefix()));
    let by_path: HashMap<String, rl_obs::Span> = rl_obs::drain_spans()
        .into_iter()
        .filter(|s| s.op == "plan_node" && s.tag.starts_with(&prefix))
        .map(|s| (s.tag[prefix.len()..].to_string(), s))
        .collect();
    let paths = plan.node_paths();
    assert_eq!(paths.len(), 3);
    for (path, label) in &paths {
        assert!(
            by_path.contains_key(path),
            "no span for node {path} ({label})"
        );
    }
    assert_eq!(by_path["0"].counter("rows"), Some(2));
    // The merge pulls a child only to catch up with the other: red's
    // entries up to 51, the first past size 0's last (50), and all 6 of
    // size 0, which then runs dry and ends the stream.
    assert_eq!(by_path["0.0"].counter("rows"), Some(18));
    assert_eq!(by_path["0.1"].counter("rows"), Some(6));
    // A child's reads are the batches it read itself (red's one batch
    // held all 20 entries); the intersection's cover both children, the
    // two index states and the two fetched records.
    let color_reads = by_path["0.0"].counter("keys_read").unwrap();
    let size_reads = by_path["0.1"].counter("keys_read").unwrap();
    assert_eq!((color_reads, size_reads), (20, 6));
    let all_reads = by_path["0"].counter("keys_read").unwrap();
    assert!(
        all_reads >= color_reads + size_reads + 2 + 2,
        "intersection reads {all_reads} must cover its children and its fetches"
    );
}

/// Per-transaction spans attribute reads, writes, and the commit outcome
/// to the transaction that produced them.
#[test]
fn transaction_spans_attribute_traffic_and_outcome() {
    let _guard = obs_lock();
    rl_obs::set_enabled(true);
    let _ = rl_obs::drain_spans();

    let db = Database::new();

    // A committed writer with a tag.
    let tx = db.create_transaction();
    tx.set_tag("obs-writer");
    for i in 0..5u8 {
        tx.set(&[b'k', i], &[i; 10]);
    }
    tx.commit().unwrap();

    // A reader over the committed keys.
    let tx = db.create_transaction();
    tx.set_tag("obs-reader");
    for i in 0..5u8 {
        assert!(tx.get(&[b'k', i]).unwrap().is_some());
    }
    tx.commit().unwrap();

    // A conflict: both transactions start before either commits, read the
    // same key, and write it.
    let t1 = db.create_transaction();
    let t2 = db.create_transaction();
    t1.set_tag("obs-loser");
    let _ = t1.get(b"contended").unwrap();
    let _ = t2.get(b"contended").unwrap();
    t2.set(b"contended", b"first");
    t2.commit().unwrap();
    t1.set(b"contended", b"second");
    let err = t1.commit().unwrap_err();
    assert!(matches!(err, rl_fdb::error::Error::NotCommitted));

    rl_obs::set_enabled(false);

    let spans: HashMap<String, rl_obs::Span> = rl_obs::drain_spans()
        .into_iter()
        .filter(|s| s.op == "txn" && s.tag.starts_with("obs-"))
        .map(|s| (s.tag.clone(), s))
        .collect();

    let writer = &spans["obs-writer"];
    assert_eq!(writer.counter("committed"), Some(1));
    assert_eq!(writer.counter("keys_written"), Some(5));
    assert_eq!(writer.counter("bytes_written"), Some(5 * (2 + 10)));
    assert_eq!(writer.counter("keys_read"), Some(0));

    let reader = &spans["obs-reader"];
    assert_eq!(reader.counter("committed"), Some(1));
    assert_eq!(reader.counter("keys_read"), Some(5));
    assert_eq!(reader.counter("read_ops"), Some(5));
    assert_eq!(reader.counter("keys_written"), Some(0));

    let loser = &spans["obs-loser"];
    assert_eq!(loser.counter("conflict"), Some(1));
    assert_eq!(loser.counter("committed"), None);
}

/// Every stage of the commit path and each store-lock wait has its own
/// histogram, so where a commit's or a read's time went can be read off
/// the recorder: shard acquisition, the store lock (a snapshot read's
/// shared wait and a commit's exclusive wait apart), apply, seal,
/// compaction.
#[test]
fn commit_path_stages_are_timed() {
    use rl_fdb::{DatabaseOptions, EngineKind, PagedConfig};
    let _guard = obs_lock();
    let recorder = rl_obs::Recorder::global();
    const STAGES: [Op; 6] = [
        Op::ShardAcquire,
        Op::StoreLockWaitLeader,
        Op::BatchApply,
        Op::BatchSeal,
        Op::Compact,
        Op::StoreLockWaitRead,
    ];
    let counts = || STAGES.map(|op| recorder.histogram(op).count());

    // Every read waits for the shared store lock, on either engine;
    // compacting after every commit makes each commit visit every stage.
    let db = Database::with_options(DatabaseOptions {
        engine: EngineKind::Paged(PagedConfig::ephemeral()),
        compaction_interval: 1,
        ..DatabaseOptions::default()
    });
    let commit_and_read = || {
        let tx = db.create_transaction();
        tx.set(b"timed", b"v");
        tx.commit().unwrap();
        assert!(db.create_transaction().get(b"timed").unwrap().is_some());
    };

    rl_obs::set_enabled(false);
    let before = counts();
    commit_and_read();
    assert_eq!(counts(), before, "gate off: nothing is timed");

    rl_obs::set_enabled(true);
    for _ in 0..3 {
        commit_and_read();
    }
    rl_obs::set_enabled(false);
    let _ = rl_obs::drain_spans();
    for (op, (now, was)) in STAGES.iter().zip(counts().into_iter().zip(before)) {
        assert_eq!(now - was, 3, "{op:?}: one sample per commit (or read)");
    }
}

/// Beside the stage timers, a compaction pass records how many keys it
/// visited — a count, in the same recorder, behind the same gate.
#[test]
fn compaction_passes_record_their_sizes() {
    use rl_fdb::DatabaseOptions;
    let _guard = obs_lock();
    let passes = || {
        rl_obs::Recorder::global()
            .histogram(Op::CompactKeys)
            .snapshot()
    };
    let db = Database::with_options(DatabaseOptions {
        compaction_interval: 4,
        ..DatabaseOptions::default()
    });
    let commit = |keys: u32| {
        let tx = db.create_transaction();
        for k in 0..keys {
            tx.set(format!("sized/{k}").as_bytes(), b"v");
        }
        tx.commit().unwrap();
        db.advance_clock(10_000); // past the MVCC window: all of it is due
    };

    rl_obs::set_enabled(false);
    let before = passes();
    for _ in 0..4 {
        commit(3);
    }
    let idle = passes();
    assert_eq!(
        idle.count(),
        before.count(),
        "gate off: nothing is recorded"
    );

    rl_obs::set_enabled(true);
    for _ in 0..8 {
        commit(3);
    }
    rl_obs::set_enabled(false);
    let _ = rl_obs::drain_spans();
    let after = passes();
    // Eight commits; every fourth ran a pass over the three keys
    // overwritten since the one before.
    assert_eq!(after.count() - idle.count(), 2);
    assert_eq!(after.sum() - idle.sum(), 2 * 3);
}

/// A paged flush records the byte length of each chain it rewrites, so a
/// key written on every commit shows as a long `chain_bytes` max: the
/// write buffer holds a version per commit, and the flush appends them all
/// to the key's chain in the one rewrite it records. The compaction pass
/// of the 31st commit flushes them, and the key is rewritten once, not
/// once per commit.
#[test]
fn rewritten_chain_lengths_are_recorded() {
    use rl_fdb::{DatabaseOptions, EngineKind, PagedConfig};
    let _guard = obs_lock();
    let chains = || {
        rl_obs::Recorder::global()
            .histogram(Op::ChainBytes)
            .snapshot()
    };
    let db = Database::with_options(DatabaseOptions {
        engine: EngineKind::Paged(PagedConfig::ephemeral()),
        compaction_interval: 31,
        ..DatabaseOptions::default()
    });
    let write = || {
        let tx = db.create_transaction();
        tx.set(b"hot", &[7u8; 200]);
        tx.commit().unwrap();
    };

    rl_obs::set_enabled(false);
    let before = chains();
    write();
    assert_eq!(
        chains().count(),
        before.count(),
        "gate off: nothing is recorded"
    );

    rl_obs::set_enabled(true);
    for _ in 0..30 {
        write();
    }
    rl_obs::set_enabled(false);
    let _ = rl_obs::drain_spans();
    let after = chains();
    assert_eq!(after.count() - before.count(), 1, "one sample per flush");
    // 31 retained versions of a 200-byte value.
    assert!(
        after.max() > before.max(),
        "{} -> {}",
        before.max(),
        after.max()
    );
    assert!(after.max() >= 31 * 200, "max {}", after.max());
}

/// Disabled, the layer stays quiet: no spans accumulate and draining is
/// empty (ROADMAP aim 4, "the gate off costing nothing", depends on this
/// path being a single relaxed load).
#[test]
fn disabled_mode_emits_nothing() {
    let _guard = obs_lock();
    rl_obs::set_enabled(false);
    let _ = rl_obs::drain_spans();

    let db = Database::new();
    let md = metadata();
    let sub = Subspace::from_bytes(b"obs-off".to_vec());
    seed(&db, &md, &sub);

    let planner = RecordQueryPlanner::new(&md);
    let query = RecordQuery::new()
        .record_type("Item")
        .filter(QueryComponent::field(
            "color",
            Comparison::Equals("red".into()),
        ));
    let plan = planner.plan(&query).unwrap();
    let rows = record_layer::run(&db, |tx| {
        let store = RecordStore::open_or_create(tx, &sub, &md)?;
        Ok(plan.execute_all(&store)?.len())
    })
    .unwrap();
    assert_eq!(rows, 20);
    assert!(rl_obs::drain_spans().is_empty());
}
