//! Allocation budget of the fetch path: heap allocations per fetched
//! record, counted by a `#[global_allocator]` that tallies per thread. A
//! count, not a time: it repeats exactly on one build (memory engine, one
//! thread, fixed population), so a change to `load_record`, the record
//! assembler, the tuple reader, `Transaction::get_range` or the cursors
//! that moves it shows up here before any benchmark run.
//!
//! The shape is the benchmark's `Item` (`benchmark/src/items.rs`): int
//! primary key, a string group, an int score, 100 payload bytes, record
//! versions on, the VALUE / SUM / COUNT / VERSION index mix.
//!
//! Baseline: this file run on the parent of the change that introduced a
//! row, and on that change: PR 19 (which made the fetch path decode in
//! place) for the four after the first, PR 20 (one primary-key merge for
//! intersections and ordered unions, `IN` planned as a union) for the last
//! three, PR 21 (store state from the state cache, one process-wide
//! default `IndexRegistry`) for the first. Debug and release builds count
//! the same.
//!
//! | path                                          | parent | now   | budget |
//! |-----------------------------------------------|--------|-------|--------|
//! | `open_or_create` of a cached store, per call  | 24.05  |  7.00 | 8      |
//! | `load_record`, per call                       | 50.03  | 17.43 | 25     |
//! | fetching `IndexScan`, per row of 50           | 58.26  | 19.08 | 32     |
//! | `CoveringIndexScan`, per row of 50            | 14.30  |  8.64 | 14.3   |
//! | residual-filtered `FullScan`, per record read | 40.00  | 11.72 | 40     |
//! | ordered 2-branch `Union`, per row of 50       | 57.68  | 21.54 | 28     |
//! | 3-value `IN`, per row of 50                   | 84.58  | 22.98 | 30     |
//! | `Intersection`, per key read                  |  7.32  |  3.57 | 5      |
//!
//! The budgets are what those paths are held to, except the fourth and
//! fifth, which say only that those paths may not get worse than the
//! parent was. An open's 7 are the store's subspace and its four fixed
//! children, the default serializer's `Arc`, and the cell its handles
//! share the state through; the parent's 24 were the first six of those,
//! the header `get`, and a fresh registry with its ten maintainers.
//! PR 21 moved the scan rows by what it removed from them — the read of
//! each scanned index's state key — and `load_record` by 0.03 only through
//! where the transaction's conflict list happens to double. Of the
//! 17.4 per `load_record`, 8 are `Transaction::get_range` (two rows' keys
//! and values, the two row arrays, the conflict range), 3 are the packed
//! key and the bounds, and 6 are the record: primary key, type name, the
//! unescaped wire bytes, and the message's field map, string and bytes.
//! A merged union row adds to a fetching scan's its share of the other
//! children's entries and the composite continuation (k positions and the
//! buffer they are packed into); the parent's union re-encoded its `seen`
//! set per row and its `IN` was a filtered full scan.

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
         covering scan row {covering_scan:.2}, full scan record {full_scan:.2}, \
         union row {union_row:.2}, IN row {in_row:.2}, intersection key {intersection_key:.2}"
    );
    assert!(open <= 8.0, "open_or_create: {open:.1} > 8");
    assert!(load_record <= 25.0, "load_record: {load_record:.1} > 25");
    assert!(index_scan <= 32.0, "IndexScan row: {index_scan:.1} > 32");
    assert!(
        covering_scan <= 14.3,
        "CoveringIndexScan row: {covering_scan:.1} > 14.3 (parent)"
    );
    assert!(
        full_scan <= 40.0,
        "FullScan record: {full_scan:.1} > 40 (parent)"
    );
    assert!(union_row <= 28.0, "ordered Union row: {union_row:.1} > 28");
    assert!(in_row <= 30.0, "IN row: {in_row:.1} > 30");
    assert!(
        intersection_key <= 5.0,
        "Intersection key read: {intersection_key:.1} > 5"
    );
}
