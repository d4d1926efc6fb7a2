//! Work bounds for limited reads, asserted on counters that repeat exactly
//! for a given program (`TxnTrace::keys_read` / `read_ops`): what a limited
//! read costs must follow what it returns, not the length of the range it
//! was pointed at. (The page-level bound for the paged engine lives with
//! its unit tests: `limit_one_scan_touches_one_root_to_leaf_path`.)

use record_layer::cursor::{Continuation, CursorResult, ExecuteProperties, NoNextReason};
use record_layer::expr::KeyExpression;
use record_layer::metadata::{Index, RecordMetaData, RecordMetaDataBuilder};
use record_layer::plan::{BoxedCursorExt, RecordQueryPlan, RecordQueryPlanner, ScanBounds};
use record_layer::query::{Comparison, QueryComponent, RecordQuery};
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

/// An open reads what the state cache cannot vouch for: the first open of
/// a store through a database handle is one `get` (the header) and one
/// range read (the recorded index states), the next reads nothing — and
/// neither do the readability checks and the index maintenance after it.
#[test]
fn second_open_of_a_store_reads_nothing() {
    let db = Database::new();
    // One VALUE index: its maintenance reads nothing of its own.
    let md = RecordMetaDataBuilder::new(metadata().pool().clone())
        .record_type("Item", KeyExpression::field("id"))
        .index(
            "Item",
            Index::value("by_group", KeyExpression::field("group")),
        )
        .store_record_versions(false)
        .build()
        .unwrap();
    let sub = Subspace::from_bytes(b"wb".to_vec());
    // Created in its own transaction; creating caches nothing.
    record_layer::run(&db, |tx| {
        RecordStore::open_or_create(tx, &sub, &md).map(drop)
    })
    .unwrap();

    let tx = db.create_transaction();
    RecordStore::open_or_create(&tx, &sub, &md).unwrap();
    let first = tx.trace();
    assert_eq!((first.read_ops, first.keys_read), (2, 1 + 1));

    let tx = db.create_transaction();
    let store = RecordStore::open_or_create(&tx, &sub, &md).unwrap();
    store.require_readable("by_group").unwrap();
    assert_eq!(tx.trace().read_ops, 0);
    // A save reads the record it replaces (here none) and nothing else.
    let mut item = store.new_record("Item").unwrap();
    item.set("id", 1i64).unwrap();
    item.set("group", 0i64).unwrap();
    store.save_record(item).unwrap();
    let saved = tx.trace();
    assert_eq!((saved.read_ops, saved.keys_read), (1, 0));
    tx.commit().unwrap();
}

#[test]
fn entry_at_rank_reads_a_logarithmic_number_of_keys() {
    let db = Database::new();
    let md = metadata();
    let sub = seed(&db, &md);
    let tx = db.create_transaction();
    let store = RecordStore::open_or_create(&tx, &sub, &md).unwrap();
    // A step of the skip-list walk reads one key: the `limit 1` range read
    // that finds the next finger returns its count too. A descent reads the
    // finger's count on the level below. With fan-out 8 a level takes 4
    // steps on average, and four of the six levels are populated. The
    // levels are sampled by hash, so single walks vary: bound the mean
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
    assert!(mean <= 30, "select read {mean} keys on average");
}

/// A score change moves one RANK entry. The skip-list walk stops at the
/// first level where one finger covers both ends of the move, and level 0
/// is the only copy of the entry. Counted over 50 items a transaction each,
/// the save's reads (`keys_read`) and the commit's writes (`keys_written`:
/// the record, then the RANK keys; `by_group` does not change):
///
/// | move | keys read mean / max | keys written mean / max |
/// |---|---|---|
/// | +3 | 5.4 / 14 (before: 18.7 / 27) | 3.0 / 10 (before: 13.1 / 14) |
/// | +700 | 11.4 / 34 (before: 19.0 / 41) | 8.6 / 12 (before: 13.1 / 15) |
///
/// "Before" is a full erase, then a full insert, beside a second copy of
/// every entry outside the skip list.
#[test]
fn score_change_reads_and_writes_what_moved() {
    let db = Database::new();
    let md = metadata();
    let sub = seed(&db, &md);
    for (delta, mean_read, max_read, mean_written, max_written) in
        [(3i64, 7, 20, 4, 12), (700, 14, 40, 10, 14)]
    {
        let (mut read, mut written, mut n) = (0, 0, 0);
        for id in (0..RECORDS).step_by(40) {
            let tx = db.create_transaction();
            let store = RecordStore::open_or_create(&tx, &sub, &md).unwrap();
            let old = store.load_record(&Tuple::from((id,))).unwrap().unwrap();
            let score = old.message.get("score").unwrap().as_i64().unwrap();
            let mut item = store.new_record("Item").unwrap();
            item.set("id", id).unwrap();
            item.set("group", id / GROUP_SIZE).unwrap();
            item.set("score", score + delta).unwrap();
            let keys = keys_read_by(&tx, || {
                store.save_record(item).unwrap();
            });
            drop(store);
            tx.commit().unwrap();
            let keys_written = tx.trace().keys_written;
            assert!(keys <= max_read, "+{delta} on {id} read {keys} keys");
            assert!(
                keys_written <= max_written,
                "+{delta} on {id} wrote {keys_written} keys"
            );
            (read, written, n) = (read + keys, written + keys_written, n + 1);
        }
        assert!(
            read / n <= mean_read,
            "+{delta} read {} keys on average",
            read / n
        );
        assert!(
            written / n <= mean_written,
            "+{delta} wrote {} keys on average",
            written / n
        );
    }
}

#[test]
fn limited_index_scan_reads_what_it_returns_and_resumes_anywhere() {
    let db = Database::new();
    let md = metadata();
    let sub = seed(&db, &md);
    let tx = db.create_transaction();
    let store = RecordStore::open_or_create(&tx, &sub, &md).unwrap();
    let plan = group_scan(2);

    // 50 of the group's 300 rows: 50 index entries + 50 one-key records
    // (that the index is readable is in the state the open holds).
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
    assert_eq!(keys, 50 + 50);

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
        assert_eq!(keys, 2 * want.len() as u64, "resumed after row {pos}");
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

/// Keys read and rows returned by `plan` under a 50-row return limit.
fn limited_read(tx: &Transaction, store: &RecordStore<'_>, plan: &RecordQueryPlan) -> (u64, usize) {
    let mut rows = 0;
    let keys = keys_read_by(tx, || {
        let props = ExecuteProperties::new().with_return_limit(50);
        let (got, reason, _) = plan
            .execute(store, &Continuation::Start, &props)
            .unwrap()
            .collect_remaining_boxed()
            .unwrap();
        assert_eq!(reason, NoNextReason::ReturnLimitReached);
        rows = got.len();
    });
    (keys, rows)
}

/// An `IN` and an OR cost what they return: each child's first batch is
/// its share of the limit, duplicates never reach the fetch. (The groups
/// here are disjoint id ranges, the merge's worst case: every row comes
/// from one child, which needs a second batch.)
#[test]
fn limited_in_and_union_read_what_they_return() {
    let db = Database::new();
    let md = metadata();
    let sub = seed(&db, &md);
    let tx = db.create_transaction();
    let store = RecordStore::open_or_create(&tx, &sub, &md).unwrap();
    let planner = RecordQueryPlanner::new(&md);

    let in_query = RecordQuery::new()
        .record_type("Item")
        .filter(QueryComponent::field(
            "group",
            Comparison::In(vec![1i64.into(), 2i64.into(), 3i64.into()]),
        ));
    let plan = planner.plan(&in_query).unwrap();
    assert_eq!(
        plan.describe(),
        "Union(IndexScan(by_group), IndexScan(by_group), IndexScan(by_group))"
    );
    // 18 entries a child and 36 more of the first, and 50 one-key records.
    let (keys, rows) = limited_read(&tx, &store, &plan);
    assert_eq!(rows, 50);
    assert_eq!(keys, 3 * 18 + 36 + 50);
    assert!(keys as f64 / rows as f64 <= 3.5);

    let plan = RecordQueryPlan::Union {
        children: vec![group_scan(1), group_scan(2)],
    };
    let (keys, rows) = limited_read(&tx, &store, &plan);
    assert_eq!(rows, 50);
    assert_eq!(keys, 2 * 26 + 52 + 50);
    assert!(keys as f64 / rows as f64 <= 3.3);
}

/// Two branches holding the same keys: every entry is read, every record
/// fetched once.
#[test]
fn union_of_identical_branches_fetches_each_record_once() {
    let db = Database::new();
    let md = metadata();
    let sub = seed(&db, &md);
    let tx = db.create_transaction();
    let store = RecordStore::open_or_create(&tx, &sub, &md).unwrap();
    let plan = RecordQueryPlan::Union {
        children: vec![group_scan(2), group_scan(2)],
    };
    let keys = keys_read_by(&tx, || {
        let rows = plan.execute_all(&store).unwrap();
        assert_eq!(rows.len() as i64, GROUP_SIZE);
    });
    // 300 entries twice, 300 one-key records once (two sequential
    // branches read 2 × (300 + 300)).
    assert_eq!(keys, 2 * 300 + 300);
}

/// An ordered union's continuation is its children's positions: it does
/// not grow with the rows returned.
#[test]
fn ordered_union_continuation_does_not_grow_with_rows() {
    let db = Database::new();
    let md = metadata();
    let sub = seed(&db, &md);
    let tx = db.create_transaction();
    let store = RecordStore::open_or_create(&tx, &sub, &md).unwrap();
    let plan = RecordQueryPlan::Union {
        children: (0..4).map(group_scan).collect(),
    };
    let mut cursor = plan
        .execute(&store, &Continuation::Start, &ExecuteProperties::new())
        .unwrap();
    let mut lengths = Vec::new();
    while let CursorResult::Next { continuation, .. } = cursor.next().unwrap() {
        lengths.push(continuation.to_bytes().len());
    }
    assert_eq!(lengths.len() as i64, 4 * GROUP_SIZE);
    let (at_10, at_1000) = (lengths[9], lengths[999]);
    assert!(
        at_1000.abs_diff(at_10) <= 16,
        "continuation is {at_10} bytes after row 10, {at_1000} after row 1000"
    );
    assert!(lengths.iter().all(|&len| len <= at_10 + 16), "{lengths:?}");
}

/// Branches that filter for themselves, under a scan limit shorter than
/// the run of entries the residual rejects: paging still ends, in about
/// `entries / limit` pages, with the one match. A union runs such branches
/// one after another; an intersection merges them, and a child stopped
/// while skipping resumes where it stopped.
#[test]
fn filtered_branches_page_across_a_rejected_run() {
    let db = Database::new();
    let md = metadata();
    let sub = seed(&db, &md);
    // One match, 150 entries into group 1: `score` has no VALUE index.
    let id = GROUP_SIZE + 150;
    let score = QueryComponent::field("score", Comparison::Equals(((id * 7_919) % RECORDS).into()));
    let query = RecordQuery::new()
        .record_type("Item")
        .filter(QueryComponent::and(vec![
            QueryComponent::field("group", Comparison::In(vec![1i64.into(), 2i64.into()])),
            score.clone(),
        ]));
    let union = RecordQueryPlanner::new(&md).plan(&query).unwrap();
    assert_eq!(
        union.describe(),
        "Union(Filter(IndexScan(by_group)), Filter(IndexScan(by_group)))"
    );
    let mut filtered = group_scan(1);
    if let RecordQueryPlan::IndexScan { residual, .. } = &mut filtered {
        *residual = Some(score);
    }
    let intersection = RecordQueryPlan::Intersection {
        children: vec![filtered, group_scan(1)],
    };
    for plan in [union, intersection] {
        let props = ExecuteProperties::new().with_scan_limit(4);
        let (mut ids, mut continuation) = (Vec::new(), Continuation::Start);
        for pages in 1.. {
            assert!(pages <= 2 * GROUP_SIZE, "no progress at {continuation:?}");
            let tx = db.create_transaction();
            let store = RecordStore::open_or_create(&tx, &sub, &md).unwrap();
            let (rows, reason, next) = plan
                .execute(&store, &continuation, &props)
                .unwrap()
                .collect_remaining_boxed()
                .unwrap();
            ids.extend(rows.iter().map(id_of));
            if reason == NoNextReason::SourceExhausted {
                break;
            }
            assert_eq!(reason, NoNextReason::ScanLimitReached);
            continuation = next;
        }
        assert_eq!(ids, [id], "{}", plan.describe());
    }
}

/// The §8.2 split of a query's reads: a fetching index scan reads one
/// entry and one record per row, all of it payload, and a covering scan of
/// the same filter returns the same rows from the entries alone.
#[test]
fn covering_scan_reads_only_its_index_entries() {
    let db = Database::new();
    let md = metadata();
    let sub = seed(&db, &md);
    let tx = db.create_transaction();
    let store = RecordStore::open_or_create(&tx, &sub, &md).unwrap();
    let planner = RecordQueryPlanner::new(&md);
    let query = RecordQuery::new()
        .record_type("Item")
        .filter(QueryComponent::field(
            "group",
            Comparison::Equals(2i64.into()),
        ));

    let fetching = planner.plan(&query).unwrap();
    assert_eq!(fetching.describe(), "IndexScan(by_group)");
    let mut fetched = Vec::new();
    let keys = keys_read_by(&tx, || {
        fetched = fetching.execute_all(&store).unwrap();
    });
    assert_eq!(fetched.len() as i64, GROUP_SIZE);
    assert_eq!(keys, 300 + 300);

    let covering = planner
        .plan(&query.require_fields(&["id", "group"]))
        .unwrap();
    assert_eq!(covering.describe(), "Covering(IndexScan(by_group))");
    let mut covered = Vec::new();
    let keys = keys_read_by(&tx, || {
        covered = covering.execute_all(&store).unwrap();
    });
    assert_eq!(keys, 300);
    assert_eq!(
        covered.iter().map(id_of).collect::<Vec<_>>(),
        fetched.iter().map(id_of).collect::<Vec<_>>()
    );
}

/// The §8.2 split of a save's writes: a new record writes its one payload
/// key, and each VALUE index adds its entry and an ADD to its entry count,
/// beside the store's record count — four index keys for two indexes.
#[test]
fn save_writes_one_entry_and_one_count_per_index() {
    let db = Database::new();
    let md = RecordMetaDataBuilder::new(metadata().pool().clone())
        .record_type("Item", KeyExpression::field("id"))
        .index(
            "Item",
            Index::value("by_group", KeyExpression::field("group")),
        )
        .index(
            "Item",
            Index::value("by_score_value", KeyExpression::field("score")),
        )
        .store_record_versions(false)
        .build()
        .unwrap();
    let sub = Subspace::from_bytes(b"wb".to_vec());
    record_layer::run(&db, |tx| {
        RecordStore::open_or_create(tx, &sub, &md).map(drop)
    })
    .unwrap();

    for id in 0..8i64 {
        let tx = db.create_transaction();
        let store = RecordStore::open_or_create(&tx, &sub, &md).unwrap();
        let mut item = store.new_record("Item").unwrap();
        item.set("id", id).unwrap();
        item.set("group", id % 3).unwrap();
        item.set("score", id * 10).unwrap();
        store.save_record(item).unwrap();
        tx.commit().unwrap();
        assert_eq!(tx.trace().keys_written, 1 + 2 * 2 + 1, "save of {id}");
    }
}
