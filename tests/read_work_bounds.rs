//! Work bounds for limited reads, asserted on counters that repeat exactly
//! for a given program (`TxnTrace::keys_read` / `read_ops`): what a limited
//! read costs must follow what it returns, not the length of the range it
//! was pointed at. (The page-level bound for the paged engine lives with
//! its unit tests: `limit_one_scan_touches_one_root_to_leaf_path`.)

use record_layer::cursor::{Continuation, CursorResult, ExecuteProperties, NoNextReason};
use record_layer::expr::KeyExpression;
use record_layer::metadata::{Index, RecordMetaData, RecordMetaDataBuilder};
use record_layer::plan::{BoxedCursorExt, RecordQueryPlan, ScanBounds};
use record_layer::query::{Comparison, QueryComponent};
use record_layer::store::{RecordStore, TupleRange};
use rl_fdb::tuple::Tuple;
use rl_fdb::{Database, Subspace, Transaction};
use rl_message::{DescriptorPool, FieldDescriptor, FieldType, MessageDescriptor};

const GROUP_SIZE: i64 = 300;
const RECORDS: i64 = 2_000;

/// `Item(id, group, score)`, one key per record (no version split), a
/// VALUE index on `group` and a RANK index on `score`.
fn metadata() -> RecordMetaData {
    let mut pool = DescriptorPool::new();
    pool.add_message(
        MessageDescriptor::new(
            "Item",
            vec![
                FieldDescriptor::optional("id", 1, FieldType::Int64),
                FieldDescriptor::optional("group", 2, FieldType::Int64),
                FieldDescriptor::optional("score", 3, FieldType::Int64),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    RecordMetaDataBuilder::new(pool)
        .record_type("Item", KeyExpression::field("id"))
        .index(
            "Item",
            Index::value("by_group", KeyExpression::field("group")),
        )
        .index(
            "Item",
            Index::rank("by_score", KeyExpression::field("score")),
        )
        .store_record_versions(false)
        .build()
        .unwrap()
}

/// 2 000 items: group `id / 300`, score a permutation of the ids.
fn seed(db: &Database, md: &RecordMetaData) -> Subspace {
    let sub = Subspace::from_bytes(b"wb".to_vec());
    for chunk in (0..RECORDS).collect::<Vec<_>>().chunks(250) {
        record_layer::run(db, |tx| {
            let store = RecordStore::open_or_create(tx, &sub, md)?;
            for &id in chunk {
                let mut item = store.new_record("Item")?;
                item.set("id", id).unwrap();
                item.set("group", id / GROUP_SIZE).unwrap();
                item.set("score", (id * 7_919) % RECORDS).unwrap();
                store.save_record(item)?;
            }
            Ok(())
        })
        .unwrap();
    }
    sub
}

fn keys_read_by(tx: &Transaction, f: impl FnOnce()) -> u64 {
    let before = tx.trace().keys_read;
    f();
    tx.trace().keys_read - before
}

fn group_scan(group: i64) -> RecordQueryPlan {
    RecordQueryPlan::IndexScan {
        index_name: "by_group".into(),
        bounds: ScanBounds::Range(TupleRange::prefix(Tuple::new().push(group))),
        reverse: false,
        record_types: None,
        residual: None,
    }
}

fn id_of(r: &record_layer::store::StoredRecord) -> i64 {
    r.primary_key.get(0).unwrap().as_int().unwrap()
}

#[test]
fn entry_at_rank_reads_a_logarithmic_number_of_keys() {
    let db = Database::new();
    let md = metadata();
    let sub = seed(&db, &md);
    let tx = db.create_transaction();
    let store = RecordStore::open_or_create(&tx, &sub, &md).unwrap();
    // A step of the skip-list walk reads two keys (a finger's count, then
    // the next finger by a `limit 1` range read); with fan-out 8 a level
    // takes 4 steps on average, and four of the six levels are populated.
    // The levels are sampled by hash, so single walks vary: bound the mean
    // tightly and every walk well below a scan of the 2 000 entries.
    let ranks: Vec<i64> = (0..RECORDS).step_by(25).collect();
    let mut total = 0;
    for &rank in &ranks {
        let keys = keys_read_by(&tx, || {
            let entry = store.entry_at_rank("by_score", rank).unwrap().unwrap();
            assert_eq!(entry.get(0).unwrap().as_int(), Some(rank));
        });
        assert!(keys <= 200, "select({rank}) read {keys} keys of {RECORDS}");
        total += keys;
    }
    let mean = total / ranks.len() as u64;
    assert!(mean <= 64, "select read {mean} keys on average");
}

#[test]
fn limited_index_scan_reads_what_it_returns_and_resumes_anywhere() {
    let db = Database::new();
    let md = metadata();
    let sub = seed(&db, &md);
    let tx = db.create_transaction();
    let store = RecordStore::open_or_create(&tx, &sub, &md).unwrap();
    let plan = group_scan(2);

    // 50 of the group's 300 rows: 50 index entries + 50 one-key records,
    // after the index's state key (the plan checks it is readable).
    let keys = keys_read_by(&tx, || {
        let props = ExecuteProperties::new().with_return_limit(50);
        let (rows, reason, _) = plan
            .execute(&store, &Continuation::Start, &props)
            .unwrap()
            .collect_remaining_boxed()
            .unwrap();
        assert_eq!(rows.len(), 50);
        assert_eq!(reason, NoNextReason::ReturnLimitReached);
    });
    assert_eq!(keys, 1 + 50 + 50);

    // The whole group, with the continuation after every row…
    let mut cursor = plan
        .execute(&store, &Continuation::Start, &ExecuteProperties::new())
        .unwrap();
    let mut all = Vec::new();
    while let CursorResult::Next {
        value,
        continuation,
    } = cursor.next().unwrap()
    {
        all.push((id_of(&value), continuation));
    }
    assert_eq!(all.len() as i64, GROUP_SIZE);
    // …and a limited scan resumed at each of them continues exactly there,
    // again reading only what it returns.
    for (pos, (_, continuation)) in all.iter().enumerate() {
        let want: Vec<i64> = all[pos + 1..].iter().take(7).map(|(id, _)| *id).collect();
        let keys = keys_read_by(&tx, || {
            let props = ExecuteProperties::new().with_return_limit(7);
            let (rows, _, _) = plan
                .execute(&store, continuation, &props)
                .unwrap()
                .collect_remaining_boxed()
                .unwrap();
            assert_eq!(rows.iter().map(id_of).collect::<Vec<_>>(), want);
        });
        assert_eq!(keys, 1 + 2 * want.len() as u64, "resumed after row {pos}");
    }
}

#[test]
fn filtered_full_scan_batches_grow_geometrically_up_to_256() {
    let db = Database::new();
    let md = metadata();
    let sub = seed(&db, &md);
    let tx = db.create_transaction();
    let store = RecordStore::open_or_create(&tx, &sub, &md).unwrap();
    // One record in eight passes the residual, so 50 rows need ~400 keys.
    let plan = RecordQueryPlan::FullScan {
        record_types: None,
        residual: Some(QueryComponent::field(
            "score",
            Comparison::LessThan((RECORDS / 8).into()),
        )),
        reverse: false,
    };
    let props = ExecuteProperties::new().with_return_limit(50);
    let mut cursor = plan.execute(&store, &Continuation::Start, &props).unwrap();
    // Each range read the cursor issues is one `read_ops` tick, and the
    // rows it returned are the `keys_read` it added.
    let mut batches: Vec<u64> = Vec::new();
    let mut rows = 0;
    loop {
        let before = tx.trace();
        let step = cursor.next().unwrap();
        let after = tx.trace();
        match after.read_ops - before.read_ops {
            0 => {}
            1 => batches.push(after.keys_read - before.keys_read),
            n => panic!("{n} range reads for one row"),
        }
        match step {
            CursorResult::Next { .. } => rows += 1,
            CursorResult::NoNext { reason, .. } => {
                assert_eq!(reason, NoNextReason::ReturnLimitReached);
                break;
            }
        }
    }
    assert_eq!(rows, 50);
    // First batch: the limit plus the record scan's one key of lookahead.
    assert_eq!(batches[0], 51);
    assert!(batches.len() >= 4, "batches: {batches:?}");
    for pair in batches.windows(2) {
        assert_eq!(pair[1], (pair[0] * 2).min(256), "batches: {batches:?}");
    }
}
