//! Planner behaviour across the stack: cost-based index selection, covering
//! scans, unions, streaming intersections, sort rules, text scans, and
//! continuation-resumable plan execution.

use record_layer::cursor::{Continuation, CursorResult, ExecuteProperties, NoNextReason};
use record_layer::expr::KeyExpression;
use record_layer::metadata::{Index, RecordMetaData, RecordMetaDataBuilder};
use record_layer::plan::{BoxedCursorExt, RecordQueryPlan, RecordQueryPlanner};
use record_layer::query::{Comparison, QueryComponent, RecordQuery, TextComparison};
use record_layer::store::RecordStore;
use rl_fdb::{Database, Subspace};
use rl_message::{DescriptorPool, FieldDescriptor, FieldType, MessageDescriptor, Value};

fn metadata() -> RecordMetaData {
    let mut pool = DescriptorPool::new();
    pool.add_message(
        MessageDescriptor::new(
            "Item",
            vec![
                FieldDescriptor::optional("id", 1, FieldType::Int64),
                FieldDescriptor::optional("color", 2, FieldType::String),
                FieldDescriptor::optional("size", 3, FieldType::Int64),
                FieldDescriptor::optional("name", 4, FieldType::String),
                FieldDescriptor::optional("body", 5, FieldType::String),
                FieldDescriptor::repeated("tags", 6, FieldType::String),
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
        .index(
            "Item",
            Index::value(
                "by_color_size",
                KeyExpression::concat_fields("color", "size"),
            ),
        )
        .index(
            "Item",
            Index::value("by_name", KeyExpression::field("name")),
        )
        .index(
            "Item",
            Index::value("by_tag", KeyExpression::field_fanout("tags")),
        )
        .index("Item", Index::text("by_body", KeyExpression::field("body")))
        .build()
        .unwrap()
}

fn seed(db: &Database, md: &RecordMetaData) -> Subspace {
    let sub = Subspace::from_bytes(b"plan".to_vec());
    record_layer::run(db, |tx| {
        let store = RecordStore::open_or_create(tx, &sub, md)?;
        let colors = ["red", "green", "blue"];
        for i in 0..60i64 {
            let mut item = store.new_record("Item")?;
            item.set("id", i).unwrap();
            item.set("color", colors[(i % 3) as usize]).unwrap();
            item.set("size", i % 10).unwrap();
            item.set("name", format!("item-{i:03}")).unwrap();
            item.set("body", format!("body text number {i} with shared words"))
                .unwrap();
            item.push("tags", format!("tag{}", i % 5)).unwrap();
            if i % 2 == 0 {
                item.push("tags", "even".to_string()).unwrap();
            }
            store.save_record(item)?;
        }
        Ok(())
    })
    .unwrap();
    sub
}

fn run_plan(
    db: &Database,
    md: &RecordMetaData,
    sub: &Subspace,
    plan: &RecordQueryPlan,
) -> Vec<i64> {
    record_layer::run(db, |tx| {
        let store = RecordStore::open_or_create(tx, sub, md)?;
        let records = plan.execute_all(&store)?;
        Ok(records
            .iter()
            .map(|r| r.primary_key.get(0).unwrap().as_int().unwrap())
            .collect())
    })
    .unwrap()
}

#[test]
fn compound_index_consumes_equality_plus_range() {
    let db = Database::new();
    let md = metadata();
    let sub = seed(&db, &md);
    let planner = RecordQueryPlanner::new(&md);
    let query = RecordQuery::new()
        .record_type("Item")
        .filter(QueryComponent::and(vec![
            QueryComponent::field("color", Comparison::Equals("red".into())),
            QueryComponent::field("size", Comparison::GreaterThanOrEquals(5i64.into())),
        ]));
    let plan = planner.plan(&query).unwrap();
    assert_eq!(plan.describe(), "IndexScan(by_color_size)");
    let ids = run_plan(&db, &md, &sub, &plan);
    assert!(!ids.is_empty());
    // Verify against brute force.
    record_layer::run(&db, |tx| {
        let store = RecordStore::open_or_create(tx, &sub, &md)?;
        for id in &ids {
            let rec = store
                .load_record(&rl_fdb::tuple::Tuple::from((*id,)))?
                .unwrap();
            assert_eq!(
                rec.message.get("color").and_then(Value::as_str),
                Some("red")
            );
            assert!(rec.message.get("size").and_then(Value::as_i64).unwrap() >= 5);
        }
        Ok(())
    })
    .unwrap();
    assert_eq!(ids.len(), 60 / 3 / 2);
}

#[test]
fn residual_filter_applies_unconsumed_predicates() {
    let db = Database::new();
    let md = metadata();
    let sub = seed(&db, &md);
    let planner = RecordQueryPlanner::new(&md);
    // name has an index but the StartsWith goes to by_name; the size
    // predicate has no combined index with name → residual.
    let query = RecordQuery::new()
        .record_type("Item")
        .filter(QueryComponent::and(vec![
            QueryComponent::field("name", Comparison::StartsWith("item-00".into())),
            QueryComponent::field("size", Comparison::LessThan(5i64.into())),
        ]));
    let plan = planner.plan(&query).unwrap();
    assert!(plan.describe().contains("IndexScan"), "{}", plan.describe());
    let ids = run_plan(&db, &md, &sub, &plan);
    assert_eq!(ids, vec![0, 1, 2, 3, 4]);
}

#[test]
fn or_plans_as_union_without_duplicates() {
    let db = Database::new();
    let md = metadata();
    let sub = seed(&db, &md);
    let planner = RecordQueryPlanner::new(&md);
    let query = RecordQuery::new()
        .record_type("Item")
        .filter(QueryComponent::or(vec![
            QueryComponent::field("color", Comparison::Equals("red".into())),
            QueryComponent::field("size", Comparison::Equals(0i64.into())),
        ]));
    let plan = planner.plan(&query).unwrap();
    assert!(plan.describe().starts_with("Union("), "{}", plan.describe());
    let mut ids = run_plan(&db, &md, &sub, &plan);
    let n = ids.len();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), n, "union must deduplicate overlapping branches");
    // red items: ids ≡ 0 mod 3 (20); size 0: ids ≡ 0 mod 10 (6); overlap ids ≡ 0 mod 30 (2).
    assert_eq!(n, 20 + 6 - 2);
}

#[test]
fn and_on_two_single_column_indexes_plans_intersection() {
    let db = Database::new();
    let md = metadata();
    let sub = seed(&db, &md);
    let planner = RecordQueryPlanner::new(&md);
    // tags and name both have single-column indexes, but no compound one.
    let query = RecordQuery::new()
        .record_type("Item")
        .filter(QueryComponent::and(vec![
            QueryComponent::one_of_them("tags", Comparison::Equals("even".into())),
            QueryComponent::field("name", Comparison::Equals("item-004".into())),
        ]));
    let plan = planner.plan(&query).unwrap();
    assert!(
        plan.describe().starts_with("Intersection("),
        "{}",
        plan.describe()
    );
    let ids = run_plan(&db, &md, &sub, &plan);
    assert_eq!(ids, vec![4]);
}

#[test]
fn sort_served_by_index_or_rejected() {
    let db = Database::new();
    let md = metadata();
    let _sub = seed(&db, &md);
    let planner = RecordQueryPlanner::new(&md);

    // Sort by color: by_color provides the order.
    let query = RecordQuery::new()
        .record_type("Item")
        .sort(KeyExpression::field("color"), false);
    let plan = planner.plan(&query).unwrap();
    assert!(
        plan.describe().contains("IndexScan(by_color"),
        "{}",
        plan.describe()
    );

    // Sort by primary key: full scan is pk-ordered.
    let query = RecordQuery::new()
        .record_type("Item")
        .sort(KeyExpression::field("id"), false);
    let plan = planner.plan(&query).unwrap();
    assert!(plan.describe().contains("FullScan"), "{}", plan.describe());

    // Sort by body (no index order): rejected, never sorted in memory.
    let query = RecordQuery::new()
        .record_type("Item")
        .sort(KeyExpression::field("body"), false);
    assert!(matches!(
        planner.plan(&query),
        Err(record_layer::Error::UnsupportedSort(_))
    ));
}

#[test]
fn reverse_sort_scans_index_backwards() {
    let db = Database::new();
    let md = metadata();
    let sub = seed(&db, &md);
    let planner = RecordQueryPlanner::new(&md);
    let query = RecordQuery::new()
        .record_type("Item")
        .filter(QueryComponent::field(
            "color",
            Comparison::Equals("red".into()),
        ))
        .sort(KeyExpression::concat_fields("color", "size"), true);
    let plan = planner.plan(&query).unwrap();
    assert!(plan.describe().contains("reverse"), "{}", plan.describe());
    let ids = run_plan(&db, &md, &sub, &plan);
    record_layer::run(&db, |tx| {
        let store = RecordStore::open_or_create(tx, &sub, &md)?;
        let sizes: Vec<i64> = ids
            .iter()
            .map(|id| {
                store
                    .load_record(&rl_fdb::tuple::Tuple::from((*id,)))
                    .unwrap()
                    .unwrap()
                    .message
                    .get("size")
                    .and_then(Value::as_i64)
                    .unwrap()
            })
            .collect();
        assert!(
            sizes.windows(2).all(|w| w[0] >= w[1]),
            "descending sizes: {sizes:?}"
        );
        Ok(())
    })
    .unwrap();
}

#[test]
fn text_predicate_plans_text_scan() {
    let db = Database::new();
    let md = metadata();
    let sub = seed(&db, &md);
    let planner = RecordQueryPlanner::new(&md);
    let query = RecordQuery::new()
        .record_type("Item")
        .filter(QueryComponent::field(
            "body",
            Comparison::Text(TextComparison::ContainsAll(vec![
                "number".into(),
                "7".into(),
            ])),
        ));
    let plan = planner.plan(&query).unwrap();
    assert_eq!(plan.describe(), "TextScan(by_body)");
    let ids = run_plan(&db, &md, &sub, &plan);
    assert_eq!(ids, vec![7]);
}

#[test]
fn plan_execution_resumes_from_continuation() {
    let db = Database::new();
    let md = metadata();
    let sub = seed(&db, &md);
    let planner = RecordQueryPlanner::new(&md);
    let query = RecordQuery::new()
        .record_type("Item")
        .filter(QueryComponent::field(
            "color",
            Comparison::Equals("green".into()),
        ));
    let plan = planner.plan(&query).unwrap();

    // First page of 5, then resume in a fresh transaction.
    let (first_ids, continuation) = record_layer::run(&db, |tx| {
        let store = RecordStore::open_or_create(tx, &sub, &md)?;
        let mut cursor = plan.execute(
            &store,
            &Continuation::Start,
            &ExecuteProperties::new().with_return_limit(5),
        )?;
        let (recs, _, cont) = cursor.collect_remaining_boxed()?;
        Ok((
            recs.iter()
                .map(|r| r.primary_key.get(0).unwrap().as_int().unwrap())
                .collect::<Vec<_>>(),
            cont,
        ))
    })
    .unwrap();
    assert_eq!(first_ids.len(), 5);

    let rest_ids = record_layer::run(&db, |tx| {
        let store = RecordStore::open_or_create(tx, &sub, &md)?;
        let mut cursor = plan.execute(&store, &continuation, &ExecuteProperties::new())?;
        let (recs, _, _) = cursor.collect_remaining_boxed()?;
        Ok(recs
            .iter()
            .map(|r| r.primary_key.get(0).unwrap().as_int().unwrap())
            .collect::<Vec<_>>())
    })
    .unwrap();
    assert_eq!(first_ids.len() + rest_ids.len(), 20);
    for id in &first_ids {
        assert!(!rest_ids.contains(id), "resumed page must not repeat {id}");
    }
}

/// Regression for the pre-cost-model heuristic (`children.len() * 2`):
/// with equality conjuncts on color, size, and name, the old planner
/// scored a 3-way intersection (6) above the compound by_color_size scan
/// (4) and buffered three whole index branches. The cost model knows the
/// compound index's equality prefix narrows the scan far more than the
/// union of three broad single-column scans, and picks the compound scan
/// with the name predicate as residual.
#[test]
fn cost_model_prefers_compound_index_over_intersection() {
    let db = Database::new();
    let md = metadata();
    let sub = seed(&db, &md);
    let query = RecordQuery::new()
        .record_type("Item")
        .filter(QueryComponent::and(vec![
            QueryComponent::field("color", Comparison::Equals("red".into())),
            QueryComponent::field("size", Comparison::Equals(6i64.into())),
            QueryComponent::field("name", Comparison::Equals("item-006".into())),
        ]));

    // Without statistics (default cardinalities) …
    let planner = RecordQueryPlanner::new(&md);
    let plan = planner.plan(&query).unwrap();
    assert_eq!(plan.describe(), "Filter(IndexScan(by_color_size))");

    // … and with live statistics read from the store.
    let plan_with_stats = record_layer::run(&db, |tx| {
        let store = RecordStore::open_or_create(tx, &sub, &md)?;
        let planner = RecordQueryPlanner::new(&md).with_statistics(&store);
        planner.plan(&query)
    })
    .unwrap();
    assert_eq!(
        plan_with_stats.describe(),
        "Filter(IndexScan(by_color_size))"
    );

    let ids = run_plan(&db, &md, &sub, &plan);
    assert_eq!(ids, vec![6]);
}

/// Conflicting or redundant bounds on one column: the scan keeps the first
/// sargable bound per slot and re-checks the rest as residual. (A later
/// bound used to silently replace an earlier *consumed* one, returning
/// rows that failed the dropped predicate.)
#[test]
fn redundant_range_conjuncts_stay_in_residual() {
    let db = Database::new();
    let md = metadata();
    let sub = seed(&db, &md);
    let planner = RecordQueryPlanner::new(&md);

    // size > 8 first, then the looser size > 5: the loose bound must not
    // widen the scan without being re-checked.
    let query = RecordQuery::new()
        .record_type("Item")
        .filter(QueryComponent::and(vec![
            QueryComponent::field("size", Comparison::GreaterThan(8i64.into())),
            QueryComponent::field("size", Comparison::GreaterThan(5i64.into())),
        ]));
    let plan = planner.plan(&query).unwrap();
    let ids = run_plan(&db, &md, &sub, &plan);
    assert_eq!(ids, vec![9, 19, 29, 39, 49, 59], "only size == 9 matches");

    // A string prefix mixed with a range on the same column: one becomes
    // the bounds, the other stays residual.
    let query = RecordQuery::new()
        .record_type("Item")
        .filter(QueryComponent::and(vec![
            QueryComponent::field("name", Comparison::StartsWith("item-0".into())),
            QueryComponent::field(
                "name",
                Comparison::GreaterThanOrEquals("item-03".to_string().into()),
            ),
        ]));
    let plan = planner.plan(&query).unwrap();
    let ids = run_plan(&db, &md, &sub, &plan);
    assert_eq!(ids, (30..60).collect::<Vec<i64>>());
}

/// The store's write path maintains per-index entry counts and a record
/// count with atomic ADD mutations; the planner reads them as statistics.
#[test]
fn persistent_statistics_track_writes() {
    let db = Database::new();
    let md = metadata();
    let sub = seed(&db, &md);
    record_layer::run(&db, |tx| {
        let store = RecordStore::open_or_create(tx, &sub, &md)?;
        assert_eq!(store.record_count_estimate()?, Some(60));
        assert_eq!(store.index_entry_count("by_color")?, Some(60));
        // by_tag fans out: one entry per tag (60 base + 30 "even").
        assert_eq!(store.index_entry_count("by_tag")?, Some(90));
        Ok(())
    })
    .unwrap();
    record_layer::run(&db, |tx| {
        let store = RecordStore::open_or_create(tx, &sub, &md)?;
        store.delete_record(&rl_fdb::tuple::Tuple::from((0i64,)))?;
        Ok(())
    })
    .unwrap();
    record_layer::run(&db, |tx| {
        let store = RecordStore::open_or_create(tx, &sub, &md)?;
        assert_eq!(store.record_count_estimate()?, Some(59));
        assert_eq!(store.index_entry_count("by_color")?, Some(59));
        // Record 0 carried "tag0" and "even".
        assert_eq!(store.index_entry_count("by_tag")?, Some(88));
        Ok(())
    })
    .unwrap();
}

/// A query whose required fields are covered by the index key plus the
/// primary key executes with zero record-subspace reads.
#[test]
fn covering_scan_performs_zero_record_fetches() {
    let db = Database::new();
    let md = metadata();
    let sub = seed(&db, &md);
    let planner = RecordQueryPlanner::new(&md);

    let covered_query = RecordQuery::new()
        .record_type("Item")
        .filter(QueryComponent::field(
            "color",
            Comparison::Equals("red".into()),
        ))
        .require_fields(&["id", "color"]);
    let covering = planner.plan(&covered_query).unwrap();
    assert_eq!(covering.describe(), "Covering(IndexScan(by_color))");

    let before = db.metrics().snapshot();
    let records = record_layer::run(&db, |tx| {
        let store = RecordStore::open_or_create(tx, &sub, &md)?;
        covering.execute_all(&store)
    })
    .unwrap();
    let delta = db.metrics().snapshot().delta(&before);
    assert_eq!(
        delta.record_fetches, 0,
        "covering scan must not read the record subspace"
    );
    assert_eq!(records.len(), 20);
    for rec in &records {
        assert_eq!(
            rec.message.get("color").and_then(Value::as_str),
            Some("red")
        );
        let id = rec.message.get("id").and_then(Value::as_i64).unwrap();
        assert_eq!(id % 3, 0, "red items have id % 3 == 0");
        assert_eq!(rec.primary_key.get(0).unwrap().as_int(), Some(id));
    }

    // The same filter without a projection fetches every record.
    let fetching_query = RecordQuery::new()
        .record_type("Item")
        .filter(QueryComponent::field(
            "color",
            Comparison::Equals("red".into()),
        ));
    let fetching = planner.plan(&fetching_query).unwrap();
    assert_eq!(fetching.describe(), "IndexScan(by_color)");
    // The transaction's own trace counts every fetch, with observability
    // off too, and hands the count to the database when it drops.
    rl_obs::set_enabled(false);
    let before = db.metrics().snapshot();
    let tx = db.create_transaction();
    let store = RecordStore::open_or_create(&tx, &sub, &md).unwrap();
    let fetched = fetching.execute_all(&store).unwrap();
    let fetches = tx.trace().record_fetches;
    drop(store);
    drop(tx);
    let delta = db.metrics().snapshot().delta(&before);
    assert_eq!(fetched.len(), 20);
    assert!(fetches >= 20, "index fetch reads every record");
    assert_eq!(fetches, delta.record_fetches);
}

/// Step a plan one record at a time capturing each continuation, then
/// re-execute from every one of them and check the tail completes the
/// exact one-shot result — no duplicated and no dropped primary keys.
fn assert_resumable_everywhere(
    db: &Database,
    md: &RecordMetaData,
    sub: &Subspace,
    plan: &RecordQueryPlan,
) {
    let stepped: Vec<(i64, Continuation)> = record_layer::run(db, |tx| {
        let store = RecordStore::open_or_create(tx, sub, md)?;
        let mut cursor = plan.execute(&store, &Continuation::Start, &ExecuteProperties::new())?;
        let mut out = Vec::new();
        while let CursorResult::Next {
            value,
            continuation,
        } = cursor.next()?
        {
            out.push((
                value.primary_key.get(0).unwrap().as_int().unwrap(),
                continuation,
            ));
        }
        Ok(out)
    })
    .unwrap();
    let full: Vec<i64> = stepped.iter().map(|(id, _)| *id).collect();
    assert!(!full.is_empty());

    for (k, (_, cont)) in stepped.iter().enumerate() {
        let rest = record_layer::run(db, |tx| {
            let store = RecordStore::open_or_create(tx, sub, md)?;
            let mut cursor = plan.execute(&store, cont, &ExecuteProperties::new())?;
            let (recs, _, _) = cursor.collect_remaining_boxed()?;
            Ok(recs
                .iter()
                .map(|r| r.primary_key.get(0).unwrap().as_int().unwrap())
                .collect::<Vec<i64>>())
        })
        .unwrap();
        let mut combined = full[..=k].to_vec();
        combined.extend(&rest);
        assert_eq!(
            combined, full,
            "resume after row {k} must complete the stream exactly"
        );
    }
}

#[test]
fn union_resumes_at_every_intermediate_continuation() {
    let db = Database::new();
    let md = metadata();
    let sub = seed(&db, &md);
    let planner = RecordQueryPlanner::new(&md);
    let plan = planner
        .plan(
            &RecordQuery::new()
                .record_type("Item")
                .filter(QueryComponent::or(vec![
                    QueryComponent::field("color", Comparison::Equals("red".into())),
                    QueryComponent::field("size", Comparison::Equals(0i64.into())),
                ])),
        )
        .unwrap();
    assert!(plan.describe().starts_with("Union("), "{}", plan.describe());
    assert_resumable_everywhere(&db, &md, &sub, &plan);
}

#[test]
fn intersection_resumes_at_every_intermediate_continuation() {
    let db = Database::new();
    let md = metadata();
    let sub = seed(&db, &md);
    let planner = RecordQueryPlanner::new(&md);
    let plan = planner
        .plan(
            &RecordQuery::new()
                .record_type("Item")
                .filter(QueryComponent::and(vec![
                    QueryComponent::one_of_them("tags", Comparison::Equals("even".into())),
                    QueryComponent::field("color", Comparison::Equals("red".into())),
                ])),
        )
        .unwrap();
    assert!(
        plan.describe().starts_with("Intersection("),
        "{}",
        plan.describe()
    );
    // red (id % 3 == 0) ∩ even (id % 2 == 0) = id % 6 == 0 → 10 ids.
    assert_resumable_everywhere(&db, &md, &sub, &plan);
}

/// The paper's resumability contract: a scan limit interrupting an
/// intersection produces a continuation, not an error (the old buffered
/// execution returned `Error::Unplannable` here), and resuming page by
/// page reproduces the one-shot result exactly.
#[test]
fn intersection_interrupted_by_scan_limit_resumes_and_completes() {
    let db = Database::new();
    let md = metadata();
    let sub = seed(&db, &md);
    let planner = RecordQueryPlanner::new(&md);
    let plan = planner
        .plan(
            &RecordQuery::new()
                .record_type("Item")
                .filter(QueryComponent::and(vec![
                    QueryComponent::one_of_them("tags", Comparison::Equals("even".into())),
                    QueryComponent::field("color", Comparison::Equals("red".into())),
                ])),
        )
        .unwrap();
    let one_shot = run_plan(&db, &md, &sub, &plan);
    // The set intersection: red (id % 3 == 0) ∩ even (id % 2 == 0).
    assert_eq!(one_shot, (0..60).step_by(6).collect::<Vec<i64>>());

    let mut paged: Vec<i64> = Vec::new();
    let mut continuation = Continuation::Start;
    let mut limited_pages = 0usize;
    loop {
        let (ids, reason, cont) = record_layer::run(&db, |tx| {
            let store = RecordStore::open_or_create(tx, &sub, &md)?;
            let mut cursor = plan.execute(
                &store,
                &continuation,
                &ExecuteProperties::new().with_scan_limit(7),
            )?;
            let (recs, reason, cont) = cursor.collect_remaining_boxed()?;
            Ok((
                recs.iter()
                    .map(|r| r.primary_key.get(0).unwrap().as_int().unwrap())
                    .collect::<Vec<i64>>(),
                reason,
                cont,
            ))
        })
        .unwrap();
        paged.extend(ids);
        match reason {
            NoNextReason::SourceExhausted => break,
            NoNextReason::ScanLimitReached => {
                limited_pages += 1;
                continuation = cont;
            }
            other => panic!("unexpected stop reason {other:?}"),
        }
        assert!(limited_pages < 1000, "no forward progress across pages");
    }
    assert!(limited_pages > 0, "scan limit never fired; weak test");
    assert_eq!(paged, one_shot);
}

/// explain() renders the plan tree annotated with estimated costs, and a
/// statistics-backed model produces different (actual-cardinality) numbers.
#[test]
fn explain_annotates_costs_from_statistics() {
    let db = Database::new();
    let md = metadata();
    let sub = seed(&db, &md);
    let planner = RecordQueryPlanner::new(&md);
    let plan = planner
        .plan(
            &RecordQuery::new()
                .record_type("Item")
                .filter(QueryComponent::and(vec![
                    QueryComponent::one_of_them("tags", Comparison::Equals("even".into())),
                    QueryComponent::field("name", Comparison::Equals("item-004".into())),
                ])),
        )
        .unwrap();
    let default_explain = plan.explain();
    assert!(
        default_explain.starts_with("Intersection [rows~"),
        "{default_explain}"
    );
    assert!(default_explain.contains("IndexScan("), "{default_explain}");

    let stats_explain = record_layer::run(&db, |tx| {
        let store = RecordStore::open_or_create(tx, &sub, &md)?;
        Ok(plan.explain_with(&record_layer::plan::CostModel::with_statistics(&store)))
    })
    .unwrap();
    assert_ne!(
        default_explain, stats_explain,
        "statistics must change the estimates"
    );
    // describe() survives unchanged for terse assertions.
    assert!(plan.describe().starts_with("Intersection("));
}

#[test]
fn union_continuation_does_not_duplicate_across_pages() {
    let db = Database::new();
    let md = metadata();
    let sub = seed(&db, &md);
    let planner = RecordQueryPlanner::new(&md);
    let query = RecordQuery::new()
        .record_type("Item")
        .filter(QueryComponent::or(vec![
            QueryComponent::field("color", Comparison::Equals("red".into())),
            QueryComponent::field("size", Comparison::Equals(0i64.into())),
        ]));
    let plan = planner.plan(&query).unwrap();

    let mut all_ids: Vec<i64> = Vec::new();
    let mut continuation = Continuation::Start;
    loop {
        let (ids, cont, done) = record_layer::run(&db, |tx| {
            let store = RecordStore::open_or_create(tx, &sub, &md)?;
            let mut cursor = plan.execute(
                &store,
                &continuation,
                &ExecuteProperties::new().with_return_limit(4),
            )?;
            let (recs, reason, cont) = cursor.collect_remaining_boxed()?;
            Ok((
                recs.iter()
                    .map(|r| r.primary_key.get(0).unwrap().as_int().unwrap())
                    .collect::<Vec<_>>(),
                cont,
                reason == record_layer::cursor::NoNextReason::SourceExhausted,
            ))
        })
        .unwrap();
        all_ids.extend(ids);
        if done {
            break;
        }
        continuation = cont;
    }
    let n = all_ids.len();
    all_ids.sort_unstable();
    all_ids.dedup();
    assert_eq!(all_ids.len(), n, "paged union produced duplicates");
    assert_eq!(n, 24);
}

/// Plan `filter` over `Item`, execute it in one transaction, and return
/// the plan's shape, the ids in the order returned, and the keys read.
fn plan_and_count(
    db: &Database,
    md: &RecordMetaData,
    sub: &Subspace,
    filter: QueryComponent,
) -> (String, Vec<i64>, u64) {
    let query = RecordQuery::new().record_type("Item").filter(filter);
    let plan = RecordQueryPlanner::new(md).plan(&query).unwrap();
    let tx = db.create_transaction();
    let store = RecordStore::open_or_create(&tx, sub, md).unwrap();
    let before = tx.trace().keys_read;
    let ids = plan
        .execute_all(&store)
        .unwrap()
        .iter()
        .map(|r| r.primary_key.get(0).unwrap().as_int().unwrap())
        .collect();
    (plan.describe(), ids, tx.trace().keys_read - before)
}

fn eq(field: &str, value: impl Into<rl_fdb::tuple::TupleElement>) -> QueryComponent {
    QueryComponent::field(field, Comparison::Equals(value.into()))
}

fn sorted(mut ids: Vec<i64>) -> Vec<i64> {
    ids.sort_unstable();
    ids
}

/// An OR inside an OR is the same union, not a reason to scan everything.
#[test]
fn nested_or_flattens_into_one_union() {
    let db = Database::new();
    let md = metadata();
    let sub = seed(&db, &md);
    let filter = QueryComponent::or(vec![
        eq("color", "red"),
        QueryComponent::or(vec![eq("size", 0i64), eq("size", 1i64)]),
    ]);
    let (shape, ids, keys) = plan_and_count(&db, &md, &sub, filter);
    assert_eq!(
        shape,
        "Union(IndexScan(by_color), IndexScan(by_size), IndexScan(by_size))"
    );
    // red: 20; sizes 0 and 1: 6 each, two of each red already.
    let want: Vec<i64> = (0..60).filter(|i| i % 3 == 0 || i % 10 <= 1).collect();
    assert_eq!(want.len(), 28);
    assert_eq!(sorted(ids), want);
    // 3 index states + 32 entries + 28 two-key records; the full scan it
    // used to be read all 120 record keys.
    assert!(keys <= 95, "{keys} keys read");
}

/// A branch named twice is one scan: its entries are read and its records
/// fetched once.
#[test]
fn repeated_or_branch_is_scanned_once() {
    let db = Database::new();
    let md = metadata();
    let sub = seed(&db, &md);
    let filter = QueryComponent::or(vec![eq("color", "red"), eq("color", "red")]);
    let (shape, ids, keys) = plan_and_count(&db, &md, &sub, filter);
    assert_eq!(shape, "IndexScan(by_color)");
    assert_eq!(ids, (0..60).step_by(3).collect::<Vec<i64>>());
    assert!(keys <= 80, "{keys} keys read for 20 rows");
}

/// No branch at all matches nothing, and costs nothing to find out.
#[test]
fn empty_in_and_empty_or_read_nothing() {
    let db = Database::new();
    let md = metadata();
    let sub = seed(&db, &md);
    for filter in [
        QueryComponent::field("color", Comparison::In(Vec::new())),
        QueryComponent::or(Vec::new()),
        QueryComponent::and(vec![
            QueryComponent::field("color", Comparison::In(Vec::new())),
            eq("size", 3i64),
        ]),
    ] {
        let (shape, ids, keys) = plan_and_count(&db, &md, &sub, filter);
        assert_eq!(shape, "Union()");
        assert!(ids.is_empty());
        assert_eq!(keys, 0);
    }
}

/// `IN` is a union of equality scans over its distinct values — scalar and
/// fan-out fields alike, alone or beside an equality on another column —
/// when the cost model puts that below the alternative.
#[test]
fn in_plans_as_union_of_equality_scans_by_cost() {
    let db = Database::new();
    let md = metadata();
    let sub = seed(&db, &md);
    let in_list = |values: &[&str]| Comparison::In(values.iter().map(|&v| v.into()).collect());

    let filter = QueryComponent::field("color", in_list(&["red", "blue", "red", "mauve"]));
    let (shape, ids, keys) = plan_and_count(&db, &md, &sub, filter);
    assert_eq!(
        shape,
        "Union(IndexScan(by_color), IndexScan(by_color), IndexScan(by_color))"
    );
    let want: Vec<i64> = (0..60).filter(|i| i % 3 != 1).collect();
    // The merge returns primary-key order.
    assert_eq!(ids, want);
    // 3 index states + 40 entries + 40 two-key records (the filtered full
    // scan read 120 keys whatever the list).
    assert!(keys <= 123, "{keys} keys read for 40 rows");

    let filter = QueryComponent::one_of_them("tags", in_list(&["tag1", "even"]));
    let (shape, ids, _) = plan_and_count(&db, &md, &sub, filter);
    assert_eq!(shape, "Union(IndexScan(by_tag), IndexScan(by_tag))");
    let want: Vec<i64> = (0..60).filter(|i| i % 5 == 1 || i % 2 == 0).collect();
    assert_eq!(ids, want);

    let filter = QueryComponent::and(vec![
        QueryComponent::field("color", in_list(&["red", "green"])),
        eq("size", 4i64),
    ]);
    let (shape, ids, keys) = plan_and_count(&db, &md, &sub, filter);
    assert_eq!(
        shape,
        "Union(IndexScan(by_color_size), IndexScan(by_color_size))"
    );
    let want: Vec<i64> = (0..60).filter(|i| i % 3 != 2 && i % 10 == 4).collect();
    assert_eq!(ids, want);
    assert!(keys <= 2 + 3 * want.len() as u64, "{keys} keys read");

    // One value is one scan.
    let (shape, ids, _) = plan_and_count(
        &db,
        &md,
        &sub,
        QueryComponent::field("color", in_list(&["green"])),
    );
    assert_eq!(shape, "IndexScan(by_color)");
    assert_eq!(ids.len(), 20);

    // Ten equality scans are costed above one pass over the records.
    let all_sizes = Comparison::In((0..10i64).map(Into::into).collect());
    let (shape, ids, _) = plan_and_count(&db, &md, &sub, QueryComponent::field("size", all_sizes));
    assert_eq!(shape, "Filter(FullScan)");
    assert_eq!(ids.len(), 60);

    // Repeats of a value are no branches, and lists too long to win are
    // turned down long before their product (2.7e10 branches) is planned.
    let repeats = in_list(&["red", "blue"].repeat(5_000));
    let (shape, ids, _) = plan_and_count(&db, &md, &sub, QueryComponent::field("color", repeats));
    assert_eq!(shape, "Union(IndexScan(by_color), IndexScan(by_color))");
    assert_eq!(ids.len(), 40);
    let long = |field| {
        QueryComponent::field(
            field,
            Comparison::In((0..3_000i64).map(Into::into).collect()),
        )
    };
    let filter = QueryComponent::and(vec![long("size"), long("id"), long("size")]);
    let (shape, ids, _) = plan_and_count(&db, &md, &sub, filter);
    assert_eq!(shape, "Filter(FullScan)");
    assert_eq!(ids.len(), 60);
}

/// A VALUE index on `score` filtered to active items (sparse, §6), over
/// ten items of which the even five are active.
fn seed_sparse(db: &Database) -> (RecordMetaData, Subspace) {
    let mut pool = DescriptorPool::new();
    pool.add_message(
        MessageDescriptor::new(
            "Item",
            vec![
                FieldDescriptor::optional("id", 1, FieldType::Int64),
                FieldDescriptor::optional("score", 2, FieldType::Int64),
                FieldDescriptor::optional("active", 3, FieldType::Bool),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    let md = RecordMetaDataBuilder::new(pool)
        .record_type("Item", KeyExpression::field("id"))
        .index(
            "Item",
            Index::value("active_by_score", KeyExpression::field("score"))
                .with_filter(eq("active", true)),
        )
        .build()
        .unwrap();
    let sub = Subspace::from_bytes(b"sparse".to_vec());
    record_layer::run(db, |tx| {
        let store = RecordStore::open_or_create(tx, &sub, &md)?;
        for i in 0..10i64 {
            let mut item = store.new_record("Item")?;
            item.set("id", i).unwrap();
            item.set("score", i * 10).unwrap();
            item.set("active", i % 2 == 0).unwrap();
            store.save_record(item)?;
        }
        Ok(())
    })
    .unwrap();
    (md, sub)
}

/// A filtered index has no entry for a record its filter rejects, so it
/// cannot answer a query that does not imply the filter.
#[test]
fn filtered_index_is_not_used_when_the_query_does_not_imply_its_filter() {
    let db = Database::new();
    let (md, sub) = seed_sparse(&db);
    let any_score = || QueryComponent::field("score", Comparison::GreaterThanOrEquals(0i64.into()));
    let (shape, ids, _) = plan_and_count(&db, &md, &sub, any_score());
    assert_eq!(shape, "Filter(FullScan)");
    assert_eq!(ids, (0..10).collect::<Vec<i64>>());

    // An OR is planned branch by branch: the branch without the filter
    // may not use the index even though the other branch does.
    let active_high = QueryComponent::and(vec![
        QueryComponent::field("score", Comparison::GreaterThanOrEquals(50i64.into())),
        eq("active", true),
    ]);
    let filter = QueryComponent::or(vec![any_score(), active_high]);
    let (shape, ids, _) = plan_and_count(&db, &md, &sub, filter);
    assert_eq!(shape, "Filter(FullScan)");
    assert_eq!(ids, (0..10).collect::<Vec<i64>>());
}

/// A query whose top-level conjuncts include the index's filter still uses
/// the index, and gets exactly the records the filter admits.
#[test]
fn filtered_index_serves_a_query_that_includes_its_filter() {
    let db = Database::new();
    let (md, sub) = seed_sparse(&db);
    let filter = QueryComponent::and(vec![
        QueryComponent::field("score", Comparison::GreaterThanOrEquals(0i64.into())),
        eq("active", true),
    ]);
    let (shape, ids, _) = plan_and_count(&db, &md, &sub, filter);
    assert!(shape.contains("IndexScan(active_by_score)"), "{shape}");
    assert_eq!(ids, vec![0, 2, 4, 6, 8]);
}
