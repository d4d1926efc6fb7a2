//! Allocation budget of the fetch path: heap allocations per fetched
//! record, counted by a `#[global_allocator]` that tallies per thread. A
//! count, not a time: it repeats exactly on one build (memory engine, one
//! thread, fixed population), so a change to `load_record`, the record
//! assembler, the tuple reader, `Transaction::visit_range` or the
//! cursors that moves it shows up here before any benchmark run.
//!
//! The shape is the benchmark's `Item` (`benchmark/src/items.rs`): int
//! primary key, a string group, an int score, 100 payload bytes, record
//! versions on, the VALUE / SUM / COUNT / VERSION index mix.
//!
//! Counts: this file run before and after the read path began lending
//! its rows (`StorageEngine::visit` → `Transaction::visit_range` → the
//! record assembler) instead of copying them, and after a fetch began
//! allocating only what it returns (*owned*): read conflicts kept in one
//! arena, `visit_range` borrowing its bounds, a load's two bounds built in
//! one buffer, an index entry's key moved into its row's continuation
//! instead of copied, and no type-name copy per record. Last, after the
//! envelope's escaped NULs began to be undone inside the payload's buffer
//! and the read-conflict arena to take a first block eight conflicts
//! large (*in place*). Last, after a fetched record began to keep its
//! payload's buffer and decode a field only when it is read, an open to
//! take the store's layout from the cached state, and a transaction's
//! first read conflicts to lie inline (*lazy*). Debug and release builds
//! count the same.
//!
//! | path                                          | copied | lent  | owned | in place | lazy  | budget |
//! |-----------------------------------------------|--------|-------|-------|----------|-------|--------|
//! | `open_or_create` of a cached store, per call  |  7.00  |  7.00 |  7.00 |   7.00   |  1.00 | 1      |
//! | `load_record`, per call                       | 17.43  |  9.43 |  6.48 |   6.06   |  4.03 | 4.5    |
//! | fetching `IndexScan`, per row of 50           | 19.08  | 11.06 |  7.94 |   7.54   |  5.44 | 6      |
//! | the same, each row's fields then all read     |   —    |   —   |   —   |   7.54   |  7.42 | 7.54   |
//! | `CoveringIndexScan`, per row of 50            |  8.64  |  8.60 |  6.46 |   6.46   |  6.46 | 7      |
//! | residual-filtered `FullScan`, per record read | 11.72  | 11.71 | 10.65 |  10.26   |  8.29 | 9      |
//! | ordered 2-branch `Union`, per row of 50       | 21.54  | 13.46 | 11.24 |  10.88   |  8.78 | 9.5    |
//! | 3-value `IN`, per row of 50                   | 22.98  | 14.86 | 12.54 |  12.18   | 10.08 | 11     |
//! | `Intersection`, per key read                  |  3.57  |  2.54 |  2.17 |   2.12   |  1.85 | 2.5    |
//!
//! The budgets are the current counts plus less than one allocation, but
//! for the row read in full, whose budget is what a row cost when every
//! record was decoded at the fetch: reading a record in full must cost no
//! more than that did. An open's one is the cell its handles share the
//! state through. The store's subspace and its five regions are packed
//! once per store, into the state the database's state cache shares, and
//! the default serializer is no object (7 before: the subspace, four
//! regions, the serializer's `Arc` and the cell).
//!
//! Of the 4.03 per `load_record`, one is the buffer that holds both bounds
//! of the read, with the primary key packed straight into it, and one the
//! buffer the payload chunk is copied into, where the `(type, wire)`
//! envelope is then undone, escaped NULs included, and which the record
//! keeps. The other 2 are the record: its primary key and its field table
//! (a `WireMessage`, made by one walk over the tags once the read has
//! returned, so never under the engine's locks). No field is decoded: a
//! field is decoded when it is read. Read in full through
//! `message.get`, an `Item` adds its string and bytes values (2), which
//! the record then keeps; the decode at the fetch allocated those two and
//! a block of fields (3). The read itself adds nothing per row: it lends
//! its rows, borrows its bounds and copies the range it conflicts on into
//! the transaction's read-conflict arena, whose first 192 bytes lie in the
//! transaction itself, and past them one buffer that grows geometrically
//! (the 0.03 left). The type name is not copied: a record's type is its
//! message descriptor's name.
//!
//! A fetching scan row is a load of a primary key the index entry already
//! holds packed (so no packing), plus the entry's key, copied once by the
//! batched index read and then moved into the row's continuation, plus
//! the row's share of the batch and the cursor stack. A covering row is
//! the entry's key, its decoded columns and primary key, and the
//! synthesized message's field block and string value. A merged union row
//! adds its share of the other children's entries and the composite
//! continuation (k positions and the buffer they are packed into).

use std::collections::BTreeSet;

use record_layer::cursor::{Continuation, ExecuteProperties};
use record_layer::expr::KeyExpression;
use record_layer::plan::{BoxedCursorExt, RecordQueryPlan, RecordQueryPlanner, ScanBounds};
use record_layer::query::{Comparison, QueryComponent, RecordQuery};
use record_layer::store::{RecordStore, TupleRange};
use rl_fdb::tuple::Tuple;
use rl_fdb::{Database, DatabaseOptions, EngineKind, Subspace};

mod items;

use items::{allocations_in, item_metadata, per, populate, GROUPS, RECORDS};
use rl_message::FieldSource;

const ROWS: usize = 50;

/// `group = g ∧ score ≥ 0 order by score`: an ordered `by_group_score`
/// scan, the benchmark's `index_query`.
fn top_scores_query() -> RecordQuery {
    RecordQuery::new()
        .record_type("Item")
        .filter(QueryComponent::and(vec![
            QueryComponent::field("group", Comparison::Equals("g3".into())),
            QueryComponent::field("score", Comparison::GreaterThanOrEquals(0i64.into())),
        ]))
        .sort(KeyExpression::field("score"), false)
}

/// Execute `plan` for at most `ROWS` rows; allocations and rows returned.
fn drain(store: &RecordStore<'_>, plan: &RecordQueryPlan) -> (usize, u64) {
    allocations_in(|| {
        let props = ExecuteProperties::new().with_return_limit(ROWS);
        let mut cursor = plan.execute(store, &Continuation::Start, &props).unwrap();
        cursor.collect_remaining_boxed().unwrap().0.len()
    })
}

#[test]
fn fetch_path_stays_within_its_allocation_budget() {
    let db = Database::with_options(DatabaseOptions {
        engine: EngineKind::InMemory,
        ..DatabaseOptions::default()
    });
    let md = item_metadata();
    let sub = Subspace::from_tuple(&Tuple::new().push(1i64).push("it"));
    populate(&db, &md, &sub);

    let tx = db.create_transaction();
    let store = RecordStore::open_or_create(&tx, &sub, &md).unwrap();

    // Opens of a store the state cache knows (every op of the benchmark
    // begins with one).
    let (_, n) = allocations_in(|| {
        for _ in 0..100 {
            RecordStore::open_or_create(&tx, &sub, &md).unwrap();
        }
    });
    let open = per(n, 100);

    // Point fetches: version split + one payload chunk per record.
    let keys: Vec<Tuple> = (0..200)
        .map(|i| Tuple::new().push(i * 7 % RECORDS))
        .collect();
    let (found, n) = allocations_in(|| {
        keys.iter()
            .filter(|pk| store.load_record(pk).unwrap().is_some())
            .count()
    });
    assert_eq!(found, keys.len());
    let load_record = per(n, keys.len());

    let planner = RecordQueryPlanner::new(&md);
    let fetching = planner.plan(&top_scores_query()).unwrap();
    assert!(
        matches!(&fetching, RecordQueryPlan::IndexScan { index_name, .. } if index_name == "by_group_score"),
        "{fetching:?}"
    );
    let (rows, n) = drain(&store, &fetching);
    assert_eq!(rows, ROWS);
    let index_scan = per(n, rows);

    // The same rows, each record then read field by field, every field
    // through the view the benchmark reads (`message.get`).
    let (read, n) = allocations_in(|| {
        let props = ExecuteProperties::new().with_return_limit(ROWS);
        let mut cursor = fetching
            .execute(&store, &Continuation::Start, &props)
            .unwrap();
        let rows = cursor.collect_remaining_boxed().unwrap().0;
        rows.iter()
            .map(|row| {
                let fields = row.descriptor().fields();
                let read = fields.iter().filter(|f| row.message.get(&f.name).is_some());
                (read.count() == fields.len()) as usize
            })
            .sum::<usize>()
    });
    assert_eq!(read, ROWS, "every field of every row reads");
    let read_in_full = per(n, read);

    let covering = planner
        .plan(&top_scores_query().require_fields(&["id", "group", "score"]))
        .unwrap();
    assert!(
        matches!(covering, RecordQueryPlan::CoveringIndexScan { .. }),
        "{covering:?}"
    );
    let (rows, n) = drain(&store, &covering);
    assert_eq!(rows, ROWS);
    let covering_scan = per(n, rows);

    // One record in twenty passes the residual, so fifty rows scan a
    // thousand records: the count is per record assembled.
    let full = RecordQueryPlan::FullScan {
        record_types: Some(BTreeSet::from(["Item".to_string()])),
        residual: Some(QueryComponent::field(
            "group",
            Comparison::Equals("g3".into()),
        )),
        reverse: false,
    };
    let (rows, n) = drain(&store, &full);
    assert_eq!(rows, ROWS);
    let full_scan = per(n, rows * GROUPS as usize);

    // `group = g3 ∨ group = g4` and `group IN (g3, g4, g5)`: the k-way
    // merge over `by_group` entry streams, the benchmark's `union` and
    // `in_query`.
    let group_is = |g: &str| QueryComponent::field("group", Comparison::Equals(g.into()));
    let by_filter = |filter| {
        let query = RecordQuery::new().record_type("Item").filter(filter);
        planner.plan(&query).unwrap()
    };
    let union = by_filter(QueryComponent::or(vec![group_is("g3"), group_is("g4")]));
    let (rows, n) = drain(&store, &union);
    assert_eq!(rows, ROWS);
    let union_row = per(n, rows);
    let in_list = Comparison::In(vec!["g3".into(), "g4".into(), "g5".into()]);
    let (rows, n) = drain(&store, &by_filter(QueryComponent::field("group", in_list)));
    assert_eq!(rows, ROWS);
    let in_row = per(n, rows);

    // `group = g3 ∧ score = 11` as the merge-join the benchmark builds:
    // most of its work is entries skipped, so the count is per key read.
    let equality_scan =
        |index: &str, value: rl_fdb::tuple::TupleElement| RecordQueryPlan::IndexScan {
            index_name: index.into(),
            bounds: ScanBounds::Range(TupleRange::prefix(Tuple::new().push(value))),
            reverse: false,
            record_types: Some(BTreeSet::from(["Item".to_string()])),
            residual: None,
        };
    let intersection = RecordQueryPlan::Intersection {
        children: vec![
            equality_scan("by_group", "g3".into()),
            equality_scan("by_score", 11i64.into()),
        ],
    };
    let keys_before = tx.trace().keys_read;
    let (rows, n) = drain(&store, &intersection);
    assert!(rows > 0);
    let intersection_key = per(n, (tx.trace().keys_read - keys_before) as usize);

    println!(
        "allocations: open {open:.2}, load_record {load_record:.2}, index scan row {index_scan:.2}, \
         read in full {read_in_full:.2}, covering scan row {covering_scan:.2}, \
         full scan record {full_scan:.2}, union row {union_row:.2}, IN row {in_row:.2}, \
         intersection key {intersection_key:.2}"
    );
    assert!(open <= 1.0, "open_or_create: {open:.1} > 1");
    assert!(load_record <= 4.5, "load_record: {load_record:.2} > 4.5");
    assert!(index_scan <= 6.0, "IndexScan row: {index_scan:.2} > 6");
    assert!(
        read_in_full <= 7.54,
        "IndexScan row read in full: {read_in_full:.2} > 7.54"
    );
    assert!(
        covering_scan <= 7.0,
        "CoveringIndexScan row: {covering_scan:.1} > 7"
    );
    assert!(full_scan <= 9.0, "FullScan record: {full_scan:.2} > 9");
    assert!(union_row <= 9.5, "ordered Union row: {union_row:.2} > 9.5");
    assert!(in_row <= 11.0, "IN row: {in_row:.2} > 11");
    assert!(
        intersection_key <= 2.5,
        "Intersection key read: {intersection_key:.2} > 2.5"
    );
}
