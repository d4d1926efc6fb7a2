//! The paging contract every plan keeps (§3.1, §8.2): executed page by
//! page, each page in its own transaction and resumed from the last
//! page's continuation, a plan returns what it returns in one shot.
//!
//! [`assert_pages_correctly`] is the driver; it takes any
//! [`RecordQueryPlan`] and its progress floor and pages it under return,
//! scan and byte limits. For every limit it asserts that:
//!
//! 1. each page returns a row or a continuation no earlier page ended on
//!    (a position seen twice is a page that made no progress);
//! 2. the pages concatenate to the one-shot answer;
//! 3. with one insert and one delete between the first two pages, no row
//!    outside those two is repeated or lost;
//!
//! and that each case occurs: the limit really stops a page, and the
//! mutation really lands between two pages.

use std::collections::BTreeSet;

use record_layer::cursor::{Continuation, ExecuteProperties, NoNextReason};
use record_layer::error::Error;
use record_layer::expr::KeyExpression;
use record_layer::metadata::{Index, RecordMetaData, RecordMetaDataBuilder};
use record_layer::plan::{BoxedCursorExt, RecordQueryPlan, RecordQueryPlanner};
use record_layer::query::{Comparison, QueryComponent, RecordQuery, TextComparison};
use record_layer::store::RecordStore;
use rl_fdb::tuple::Tuple;
use rl_fdb::{Database, Subspace};
use rl_message::{DescriptorPool, FieldDescriptor, FieldType, MessageDescriptor};

const DOCS: i64 = 60;
const COLORS: [&str; 3] = ["red", "green", "blue"];
/// An upper bound on the bytes of any one key-value row of the fixture.
const ROW_BYTES: usize = 128;
/// The primary key of the record inserted between pages: below every
/// seeded id, so it lands behind a cursor that has already started.
const INSERTED: i64 = -1;

fn metadata() -> RecordMetaData {
    let mut pool = DescriptorPool::new();
    pool.add_message(
        MessageDescriptor::new(
            "Doc",
            vec![
                FieldDescriptor::optional("id", 1, FieldType::Int64),
                FieldDescriptor::optional("color", 2, FieldType::String),
                FieldDescriptor::optional("size", 3, FieldType::Int64),
                FieldDescriptor::optional("score", 4, FieldType::Int64),
                FieldDescriptor::optional("body", 5, FieldType::String),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    RecordMetaDataBuilder::new(pool)
        .record_type("Doc", KeyExpression::field("id"))
        .index(
            "Doc",
            Index::value("by_color", KeyExpression::field("color")),
        )
        .index("Doc", Index::value("by_size", KeyExpression::field("size")))
        .index("Doc", Index::text("by_body", KeyExpression::field("body")))
        .build()
        .unwrap()
}

fn save_doc(store: &RecordStore<'_>, id: i64, color: &str, size: i64, score: i64, animal: &str) {
    let mut doc = store.new_record("Doc").unwrap();
    doc.set("id", id).unwrap();
    doc.set("color", color).unwrap();
    doc.set("size", size).unwrap();
    doc.set("score", score).unwrap();
    doc.set("body", format!("a {animal} numbered {id}"))
        .unwrap();
    store.save_record(doc).unwrap();
}

struct Fixture {
    db: Database,
    md: RecordMetaData,
    sub: Subspace,
}

impl Fixture {
    fn new() -> Fixture {
        let fx = Fixture {
            db: Database::new(),
            md: metadata(),
            sub: Subspace::from_bytes(b"paging".to_vec()),
        };
        fx.with_store(|store| {
            for id in 0..DOCS {
                let animal = if id % 2 == 0 { "whale" } else { "fish" };
                save_doc(store, id, COLORS[(id % 3) as usize], id % 4, id % 7, animal);
            }
        });
        fx
    }

    /// Run `f` against the store in one committed transaction.
    fn with_store<T>(&self, mut f: impl FnMut(&RecordStore<'_>) -> T) -> T {
        record_layer::run(&self.db, |tx| {
            Ok(f(&RecordStore::open_or_create(tx, &self.sub, &self.md)?))
        })
        .unwrap()
    }

    fn plan(&self, filter: QueryComponent, covered: &[&str]) -> RecordQueryPlan {
        let query = RecordQuery::new()
            .record_type("Doc")
            .filter(filter)
            .require_fields(covered);
        RecordQueryPlanner::new(&self.md).plan(&query).unwrap()
    }

    /// One page: the ids it returned, why it stopped, and where.
    fn page(
        &self,
        plan: &RecordQueryPlan,
        from: &Continuation,
        props: &ExecuteProperties,
    ) -> (Vec<i64>, NoNextReason, Continuation) {
        self.with_store(|store| {
            let (records, reason, continuation) = plan
                .execute(store, from, props)
                .unwrap()
                .collect_remaining_boxed()
                .unwrap();
            let ids = records
                .iter()
                .map(|r| r.primary_key.get(0).unwrap().as_int().unwrap())
                .collect();
            (ids, reason, continuation)
        })
    }
}

#[derive(Debug, Clone, Copy)]
enum Limit {
    Return(usize),
    Scan(usize),
    Bytes(usize),
}

impl Limit {
    fn props(self) -> ExecuteProperties {
        let props = ExecuteProperties::new();
        match self {
            Limit::Return(n) => props.with_return_limit(n),
            Limit::Scan(n) => props.with_scan_limit(n),
            Limit::Bytes(n) => props.with_byte_limit(n),
        }
    }

    fn reason(self) -> NoNextReason {
        match self {
            Limit::Return(_) => NoNextReason::ReturnLimitReached,
            Limit::Scan(_) => NoNextReason::ScanLimitReached,
            Limit::Bytes(_) => NoNextReason::ByteLimitReached,
        }
    }
}

/// Page `plan` to the end under `limit`, calling `between` once after the
/// first page. Returns every page's ids and how many pages the limit
/// stopped.
fn page_through(
    fx: &Fixture,
    plan: &RecordQueryPlan,
    limit: Limit,
    mut between: impl FnMut(),
) -> (Vec<Vec<i64>>, usize) {
    let props = limit.props();
    let mut pages = Vec::new();
    let mut limited = 0;
    let mut ended_on = BTreeSet::new();
    let mut from = Continuation::Start;
    loop {
        let (ids, reason, continuation) = fx.page(plan, &from, &props);
        let label = format!("{} under {limit:?}, page {}", plan.describe(), pages.len());
        let advanced = ended_on.insert(continuation.to_bytes());
        assert!(
            !ids.is_empty() || advanced,
            "{label}: no row and no progress ({continuation:?})"
        );
        pages.push(ids);
        if reason == NoNextReason::SourceExhausted {
            assert!(
                continuation.is_end(),
                "{label}: exhausted at {continuation:?}"
            );
            return (pages, limited);
        }
        assert_eq!(reason, limit.reason(), "{label}");
        limited += 1;
        if pages.len() == 1 {
            between();
        }
        from = continuation;
    }
}

fn without(ids: impl IntoIterator<Item = i64>, mutated: &[i64]) -> Vec<i64> {
    let mut kept: Vec<i64> = ids.into_iter().filter(|id| !mutated.contains(id)).collect();
    kept.sort_unstable();
    kept
}

/// The paging contract for one plan. `floor` is the scan budget, in rows,
/// under which the plan cannot make progress from one page to the next:
/// one for a single stream of index entries or primary keys, two for a
/// merge of two such streams (each page re-reads one head per child), and
/// three for a record scan (a record's version and payload keys, and it
/// ends only at the next record's first key).
fn assert_pages_correctly(fx: &Fixture, plan: &RecordQueryPlan, floor: usize) {
    let one_shot = fx
        .page(plan, &Continuation::Start, &ExecuteProperties::new())
        .0;
    assert!(
        one_shot.len() > 3,
        "{}: too few rows to page",
        plan.describe()
    );
    let byte_floor = (floor - 1) * ROW_BYTES + 1;
    let limits = [
        Limit::Return(1),
        Limit::Return(2),
        Limit::Return(3),
        Limit::Scan(floor),
        Limit::Scan(floor + 3),
        Limit::Bytes(byte_floor),
        Limit::Bytes(byte_floor + 16),
    ];
    for limit in limits {
        let label = format!("{} under {limit:?}", plan.describe());

        let (pages, limited) = page_through(fx, plan, limit, || {});
        assert!(limited > 0, "{label}: the limit never stopped a page");
        assert_eq!(
            pages.concat(),
            one_shot,
            "{label}: pages differ from one shot"
        );

        // Insert a matching record behind the cursor and delete the last
        // row of the answer, then put both back.
        let deleted = *one_shot.last().unwrap();
        let key = Tuple::new().push(deleted);
        let mut saved = None;
        let (pages, limited) = page_through(fx, plan, limit, || {
            fx.with_store(|store| {
                save_doc(store, INSERTED, "red", 0, 6, "whale");
                saved = store.load_record(&key).unwrap();
                assert!(store.delete_record(&key).unwrap());
            })
        });
        assert!(limited > 0, "{label}: no page followed the mutation");
        let mutated = [INSERTED, deleted];
        assert_eq!(
            without(pages.concat(), &mutated),
            without(one_shot.iter().copied(), &mutated),
            "{label}: a row outside {mutated:?} was repeated or lost"
        );
        fx.with_store(|store| {
            store.delete_record(&Tuple::new().push(INSERTED)).unwrap();
            store
                .save_record(saved.clone().unwrap().message.into_message().unwrap())
                .unwrap();
        });
        assert_eq!(
            fx.page(plan, &Continuation::Start, &ExecuteProperties::new())
                .0,
            one_shot,
            "{label}: the fixture was not restored"
        );
    }
}

fn eq(field: &str, value: impl Into<rl_fdb::tuple::TupleElement>) -> QueryComponent {
    QueryComponent::field(field, Comparison::Equals(value.into()))
}

fn at_least(field: &str, value: i64) -> QueryComponent {
    QueryComponent::field(field, Comparison::GreaterThanOrEquals(value.into()))
}

fn whale() -> QueryComponent {
    QueryComponent::field(
        "body",
        Comparison::Text(TextComparison::ContainsAny(vec!["whale".into()])),
    )
}

#[test]
fn full_scan_with_residual_pages() {
    let fx = Fixture::new();
    let plan = fx.plan(at_least("score", 4), &[]);
    assert!(
        matches!(
            &plan,
            RecordQueryPlan::FullScan {
                residual: Some(_),
                ..
            }
        ),
        "{plan:?}"
    );
    assert_pages_correctly(&fx, &plan, 3);
}

#[test]
fn index_scan_with_residual_pages() {
    let fx = Fixture::new();
    let plan = fx.plan(
        QueryComponent::and(vec![eq("color", "red"), at_least("score", 3)]),
        &[],
    );
    assert!(
        matches!(
            &plan,
            RecordQueryPlan::IndexScan {
                residual: Some(_),
                ..
            }
        ),
        "{plan:?}"
    );
    assert_pages_correctly(&fx, &plan, 1);
}

#[test]
fn covering_index_scan_pages() {
    let fx = Fixture::new();
    let plan = fx.plan(eq("color", "red"), &["id", "color"]);
    assert_eq!(plan.describe(), "Covering(IndexScan(by_color))");
    assert_pages_correctly(&fx, &plan, 1);
}

#[test]
fn text_scan_pages() {
    let fx = Fixture::new();
    let plan = fx.plan(whale(), &[]);
    assert!(
        matches!(&plan, RecordQueryPlan::TextScan { residual: None, .. }),
        "{plan:?}"
    );
    assert_pages_correctly(&fx, &plan, 1);
    // A position is a packed primary key; anything else is refused.
    let refused = fx.with_store(|store| {
        let from = Continuation::At(vec![0x02]);
        plan.execute(store, &from, &ExecuteProperties::new()).err()
    });
    assert!(
        matches!(refused, Some(Error::InvalidContinuation(_))),
        "{refused:?}"
    );
}

#[test]
fn text_scan_with_residual_pages() {
    let fx = Fixture::new();
    let plan = fx.plan(
        QueryComponent::and(vec![whale(), at_least("score", 2)]),
        &[],
    );
    assert!(
        matches!(
            &plan,
            RecordQueryPlan::TextScan {
                residual: Some(_),
                ..
            }
        ),
        "{plan:?}"
    );
    assert_pages_correctly(&fx, &plan, 1);
}

#[test]
fn unordered_union_pages() {
    let fx = Fixture::new();
    // A range scan is not in primary-key order, so the branches run one
    // after another instead of through the merge.
    let plan = fx.plan(
        QueryComponent::or(vec![at_least("size", 3), eq("color", "red")]),
        &[],
    );
    assert_eq!(
        plan.describe(),
        "Union(IndexScan(by_size), IndexScan(by_color))"
    );
    assert_pages_correctly(&fx, &plan, 1);
}

#[test]
fn intersection_pages() {
    let fx = Fixture::new();
    let plan = fx.plan(
        QueryComponent::and(vec![eq("color", "red"), eq("size", 0)]),
        &[],
    );
    assert_eq!(
        plan.describe(),
        "Intersection(IndexScan(by_color), IndexScan(by_size))"
    );
    assert_pages_correctly(&fx, &plan, 2);
}
