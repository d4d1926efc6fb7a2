//! The `Item` workloads: one client over record stores of fixed-shape
//! items, on either engine. `record_mix_mem` and `record_mix_paged` are
//! the same population and op stream on the two engines;
//! `query_shapes_mem` spreads the full index mix over four stores and
//! leans on the planner and the cursors.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::clock::now;

use record_layer::cursor::{Continuation, ExecuteProperties};
use record_layer::expr::KeyExpression;
use record_layer::metadata::{Index, RecordMetaData, RecordMetaDataBuilder};
use record_layer::plan::{BoxedCursorExt, RecordQueryPlan, RecordQueryPlanner, ScanBounds};
use record_layer::query::{Comparison, QueryComponent, RecordQuery};
use record_layer::store::{RecordStore, StoredRecord, TupleRange};
use rl_fdb::tuple::{Tuple, TupleElement};
use rl_fdb::{Database, Subspace, Transaction};
use rl_message::{DescriptorPool, DynamicMessage, FieldDescriptor, FieldType, MessageDescriptor};

use crate::rng::{class_deck, Rng, Scatter, Zipf};
use crate::spec::Rounds;
use crate::trace::Tracer;
use crate::workload::{
    data_dir, open_database, reopen_database, report_failed_op, run_txn, timed_op, Designated,
    Engine, Env, MessageSample, Round,
};

pub const CLASSES: [&str; 8] = [
    "point_get",
    "index_query",
    "covering_scan",
    "union",
    "intersection",
    "in_query",
    "rank",
    "update",
];
pub const POINT_GET: usize = 0;
pub const INDEX_QUERY: usize = 1;
pub const COVERING_SCAN: usize = 2;
pub const UNION: usize = 3;
pub const INTERSECTION: usize = 4;
pub const IN_QUERY: usize = 5;
pub const RANK: usize = 6;
pub const UPDATE: usize = 7;

pub const GROUPS: u32 = 20;
pub const SCORES: u32 = 100;
pub const PAYLOAD_BYTES: usize = 100;
/// Row cap of every query-shaped op.
pub const SCAN_LIMIT: usize = 50;
pub const ZIPF_S: f64 = 0.99;
/// Of every four updates, three pick a Zipf-hot id and one a uniform one.
const HOT_UPDATES_OF_4: u64 = 3;

#[derive(Debug, Clone)]
pub struct ItemSpec {
    pub name: &'static str,
    pub engine: Engine,
    pub stores: usize,
    pub records_per_store: usize,
    /// Adds the RANK index (and the `rank` op needs it).
    pub rank_index: bool,
    /// Weight per class, in [`CLASSES`] order.
    pub mix: [u32; 8],
    pub ops_per_round: usize,
    pub rounds: Rounds,
}

/// One generated operation. Plain data, so two streams can be compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ItemOp {
    pub class: u8,
    pub store: u16,
    /// Record id; for `rank`, the rank asked for.
    pub id: u32,
    pub group: u8,
    /// Score to match (`intersection`) or to write (`update`).
    pub score: u8,
}

/// The seeded op stream: round `r` of seed `s` is always the same ops.
#[derive(Debug, Clone)]
pub struct ItemGen {
    spec: ItemSpec,
    seed: u64,
    zipf: Zipf,
    scatter: Vec<Scatter>,
}

impl ItemGen {
    pub fn new(spec: &ItemSpec, seed: u64) -> ItemGen {
        let mut rng = Rng::derive(seed, 0);
        ItemGen {
            spec: spec.clone(),
            seed,
            zipf: Zipf::new(spec.records_per_store, ZIPF_S),
            scatter: (0..spec.stores)
                .map(|_| Scatter::new(spec.records_per_store, &mut rng))
                .collect(),
        }
    }

    pub fn round(&self, round: u64) -> Vec<ItemOp> {
        let mut rng = Rng::derive(self.seed, 1 + round);
        let n = self.spec.records_per_store as u64;
        class_deck(&self.spec.mix, self.spec.ops_per_round, &mut rng)
            .into_iter()
            .map(|class| {
                let class = class as usize;
                let store = rng.below(self.spec.stores as u64) as usize;
                let hot = self.scatter[store].id(self.zipf.sample(&mut rng)) as u32;
                let uniform = rng.below(n) as u32;
                let id = match class {
                    RANK => uniform,
                    UPDATE if rng.below(4) >= HOT_UPDATES_OF_4 => uniform,
                    _ => hot,
                };
                ItemOp {
                    class: class as u8,
                    store: store as u16,
                    id,
                    group: rng.below(u64::from(GROUPS)) as u8,
                    score: rng.below(u64::from(SCORES)) as u8,
                }
            })
            .collect()
    }
}

fn item_pool() -> DescriptorPool {
    let mut pool = DescriptorPool::new();
    pool.add_message(
        MessageDescriptor::new(
            "Item",
            vec![
                FieldDescriptor::optional("id", 1, FieldType::Int64),
                FieldDescriptor::optional("group", 2, FieldType::String),
                FieldDescriptor::optional("score", 3, FieldType::Int64),
                FieldDescriptor::optional("payload", 5, FieldType::Bytes),
            ],
        )
        .expect("item descriptor"),
    )
    .expect("item descriptor registers");
    pool
}

/// VALUE ×3, SUM + COUNT, VERSION (with stored record versions), and
/// optionally RANK: the harness's `mixed_default` index mix.
pub fn item_metadata(rank_index: bool) -> RecordMetaData {
    let mut b = RecordMetaDataBuilder::new(item_pool())
        .record_type("Item", KeyExpression::field("id"))
        .store_record_versions(true)
        .index(
            "Item",
            Index::value("by_group", KeyExpression::field("group")),
        )
        .index(
            "Item",
            Index::value("by_score", KeyExpression::field("score")),
        )
        .index(
            "Item",
            Index::value(
                "by_group_score",
                KeyExpression::concat_fields("group", "score"),
            ),
        )
        .index(
            "Item",
            Index::sum(
                "score_sum",
                KeyExpression::field("group"),
                KeyExpression::field("score"),
            ),
        )
        .index("Item", Index::count("item_count", KeyExpression::Empty))
        .index(
            "Item",
            Index::version("by_version", KeyExpression::field("id")),
        );
    if rank_index {
        b = b.index(
            "Item",
            Index::rank("score_rank", KeyExpression::field("score")),
        );
    }
    b.build().expect("item metadata builds")
}

fn group_of(id: u32) -> u32 {
    id % GROUPS
}

fn group_name(g: u32) -> String {
    format!("g{g}")
}

/// A record's payload is a function of its id and how often it was
/// rewritten, so the model can check a get byte for byte without keeping
/// the bytes.
fn payload(id: u32, rev: u32) -> Vec<u8> {
    (0..PAYLOAD_BYTES as u32)
        .map(|i| (id.wrapping_mul(131) ^ rev.wrapping_mul(31)).wrapping_add(i * 7) as u8)
        .collect()
}

/// Bytes of field values the client hands to `set()` for one item.
fn user_bytes(id: u32) -> u64 {
    (8 + group_name(group_of(id)).len() + 8 + PAYLOAD_BYTES) as u64
}

fn build_item(store: &RecordStore<'_>, id: u32, score: u8, rev: u32) -> DynamicMessage {
    let mut m = store.new_record("Item").expect("Item type");
    m.set("id", i64::from(id)).expect("id");
    m.set("group", group_name(group_of(id))).expect("group");
    m.set("score", i64::from(score)).expect("score");
    m.set("payload", payload(id, rev)).expect("payload");
    m
}

/// What one store must contain.
#[derive(Debug, Clone)]
struct StoreModel {
    score: Vec<u8>,
    rev: Vec<u32>,
    /// Per group, `(score, id)`: the `by_group_score` index order.
    by_group: Vec<BTreeSet<(u8, u32)>>,
    /// `(score, id)` over the whole store: the RANK index order.
    all: BTreeSet<(u8, u32)>,
}

impl StoreModel {
    fn set_score(&mut self, id: u32, score: u8) {
        let old = (self.score[id as usize], id);
        self.by_group[group_of(id) as usize].remove(&old);
        self.all.remove(&old);
        self.score[id as usize] = score;
        self.by_group[group_of(id) as usize].insert((score, id));
        self.all.insert((score, id));
    }
}

pub struct ItemEnv {
    spec: ItemSpec,
    db: Database,
    dir: Option<PathBuf>,
    md: RecordMetaData,
    subspaces: Vec<Subspace>,
    model: Vec<StoreModel>,
    gen: ItemGen,
    tracer: Tracer,
    setup_ns: u64,
}

impl ItemEnv {
    /// Load the population and build every index (indexes are maintained
    /// by the saves). `nth` numbers the set-ups of one run.
    pub fn setup(spec: &ItemSpec, seed: u64, out_dir: &Path, nth: usize, epoch: Instant) -> Self {
        let dir =
            matches!(spec.engine, Engine::Paged { .. }).then(|| data_dir(out_dir, spec.name, nth));
        let db = open_database(spec.engine, dir.as_deref().unwrap_or(Path::new("")));
        let md = item_metadata(spec.rank_index);
        // A distinct small integer first: `[0x15, s+1]` puts each store in
        // its own two-byte conflict-shard prefix.
        let subspaces: Vec<Subspace> = (0..spec.stores)
            .map(|s| Subspace::from_tuple(&Tuple::new().push((s + 1) as i64).push("it")))
            .collect();
        let mut rng = Rng::derive(seed, u64::MAX);
        let n = spec.records_per_store as u32;
        let mut model = Vec::with_capacity(spec.stores);
        let mut setup_ns = 0;
        for sub in &subspaces {
            let score: Vec<u8> = (0..n).map(|_| rng.below(u64::from(SCORES)) as u8).collect();
            // Loaded in a shuffled order: ids arriving in key order would
            // leave maps, pages and the allocator in a packed layout that
            // the first tens of thousands of updates then wear away, and
            // the run would measure that decay.
            let mut ids: Vec<u32> = (0..n).collect();
            rng.shuffle(&mut ids);
            let t0 = now();
            for chunk in ids.chunks(100) {
                record_layer::run(&db, |tx| {
                    let store = RecordStore::open_or_create(tx, sub, &md)?;
                    for &id in chunk {
                        store.save_record(build_item(&store, id, score[id as usize], 0))?;
                    }
                    Ok(())
                })
                .expect("population load");
            }
            setup_ns += t0.elapsed().as_nanos() as u64;
            let mut by_group = vec![BTreeSet::new(); GROUPS as usize];
            let mut all = BTreeSet::new();
            for id in 0..n {
                by_group[group_of(id) as usize].insert((score[id as usize], id));
                all.insert((score[id as usize], id));
            }
            model.push(StoreModel {
                score,
                rev: vec![0; n as usize],
                by_group,
                all,
            });
        }
        ItemEnv {
            spec: spec.clone(),
            db,
            dir,
            md,
            subspaces,
            model,
            gen: ItemGen::new(spec, seed),
            tracer: Tracer::new(epoch, 0),
            setup_ns,
        }
    }

    fn exec(&mut self, op: &ItemOp, round: &mut Round) {
        let class = op.class as usize;
        let ItemEnv {
            db,
            dir,
            md,
            subspaces,
            model,
            tracer,
            ..
        } = self;
        let sub = &subspaces[op.store as usize];
        let model = &mut model[op.store as usize];
        let mut retries = 0;
        round.attempted += 1;
        let ok = match class {
            POINT_GET => {
                let pk = Tuple::new().push(i64::from(op.id));
                let (got, ns) = timed_op(db, tracer, CLASSES[class], |tr| {
                    run_txn(db, tr, false, &mut retries, |tx, tr| {
                        let store = open_store(tx, tr, sub, md)?;
                        let s = tr.begin("core.load_record");
                        let rec = store.load_record(&pk);
                        tr.end(s);
                        rec
                    })
                });
                got.is_some_and(|(rec, trace)| {
                    round.record(class, ns, 1, &trace);
                    rec.is_some_and(|r| {
                        item_matches(
                            &r,
                            op.id,
                            model.score[op.id as usize],
                            model.rev[op.id as usize],
                        )
                    })
                })
            }
            INDEX_QUERY | COVERING_SCAN | UNION | IN_QUERY => {
                let g = u32::from(op.group);
                let groups: Vec<u32> = match class {
                    INDEX_QUERY | COVERING_SCAN => vec![g],
                    UNION => vec![g, (g + 1) % GROUPS],
                    _ => vec![g, (g + 1) % GROUPS, (g + 2) % GROUPS],
                };
                let query = match class {
                    INDEX_QUERY => top_scores_query(g),
                    COVERING_SCAN => top_scores_query(g).require_fields(&["id", "group", "score"]),
                    UNION => groups_query(&groups, false),
                    _ => groups_query(&groups, true),
                };
                let (got, ns) = timed_op(db, tracer, CLASSES[class], |tr| {
                    run_txn(db, tr, false, &mut retries, |tx, tr| {
                        let store = open_store(tx, tr, sub, md)?;
                        let s = tr.begin("core.plan");
                        let plan = RecordQueryPlanner::new(md).plan(&query);
                        tr.end(s);
                        execute(&store, tr, &plan?)
                    })
                });
                got.is_some_and(|(rows, trace)| {
                    round.record(class, ns, rows.len() as u64, &trace);
                    let matching: usize = groups
                        .iter()
                        .map(|&g| model.by_group[g as usize].len())
                        .sum();
                    let sorted = match class {
                        // Ordered by score: the scores must be exactly the
                        // group's lowest, in order (which of several
                        // equal-scored records makes the cut is not
                        // specified).
                        INDEX_QUERY | COVERING_SCAN => rows
                            .iter()
                            .map(|r| model.score[record_id(r) as usize])
                            .eq(model.by_group[g as usize]
                                .iter()
                                .take(SCAN_LIMIT)
                                .map(|&(score, _)| score)),
                        // A union promises no order.
                        _ => true,
                    };
                    sorted
                        && rows_are(&rows, matching, |r| {
                            let id = record_id(r);
                            groups.contains(&group_of(id))
                                && r.message.get("score").and_then(|v| v.as_i64())
                                    == Some(i64::from(model.score[id as usize]))
                        })
                })
            }
            INTERSECTION => {
                // Built directly: the cost-based planner would rightly
                // collapse this into one `by_group_score` scan, and the
                // workload wants the streaming merge-join executor.
                let g = u32::from(op.group);
                let plan = RecordQueryPlan::Intersection {
                    children: vec![
                        equality_scan("by_group", group_name(g).as_str().into()),
                        equality_scan("by_score", i64::from(op.score).into()),
                    ],
                };
                let (got, ns) = timed_op(db, tracer, CLASSES[class], |tr| {
                    run_txn(db, tr, false, &mut retries, |tx, tr| {
                        let store = open_store(tx, tr, sub, md)?;
                        execute(&store, tr, &plan)
                    })
                });
                got.is_some_and(|(rows, trace)| {
                    round.record(class, ns, rows.len() as u64, &trace);
                    let matching = model.by_group[g as usize]
                        .range((op.score, 0)..=(op.score, u32::MAX))
                        .count();
                    rows_are(&rows, matching, |r| {
                        let id = record_id(r);
                        group_of(id) == g && model.score[id as usize] == op.score
                    })
                })
            }
            RANK => {
                let (got, ns) = timed_op(db, tracer, CLASSES[class], |tr| {
                    run_txn(db, tr, false, &mut retries, |tx, tr| {
                        let store = open_store(tx, tr, sub, md)?;
                        let s = tr.begin("core.rank");
                        let entry = store.entry_at_rank("score_rank", i64::from(op.id));
                        tr.end(s);
                        entry
                    })
                });
                got.is_some_and(|(entry, trace)| {
                    round.record(class, ns, 1, &trace);
                    let want = model.all.iter().nth(op.id as usize).map(|&(score, id)| {
                        Tuple::new().push(i64::from(score)).push(i64::from(id))
                    });
                    entry == want
                })
            }
            UPDATE => {
                let rev = model.rev[op.id as usize] + 1;
                let (got, ns) = timed_op(db, tracer, CLASSES[class], |tr| {
                    run_txn(db, tr, true, &mut retries, |tx, tr| {
                        let store = open_store(tx, tr, sub, md)?;
                        let item = build_item(&store, op.id, op.score, rev);
                        let s = tr.begin("core.save_record");
                        let saved = store.save_record(item);
                        tr.end(s);
                        saved.map(|_| ())
                    })
                });
                got.is_some_and(|((), trace)| {
                    round.record(class, ns, 1, &trace);
                    round.user_bytes_saved += user_bytes(op.id);
                    round.sample_files(dir.as_deref());
                    model.set_score(op.id, op.score);
                    model.rev[op.id as usize] = rev;
                    true
                })
            }
            _ => unreachable!("class index out of range"),
        };
        round.retries += retries;
        if !ok {
            round.failed += 1;
            report_failed_op(self.spec.name, op);
        }
    }

    fn store_for<'a>(&'a self, tx: &'a Transaction, s: usize) -> RecordStore<'a> {
        RecordStore::open_or_create(tx, &self.subspaces[s], &self.md).expect("store opens")
    }
}

fn open_store<'a>(
    tx: &'a Transaction,
    tr: &mut Tracer,
    sub: &Subspace,
    md: &'a RecordMetaData,
) -> record_layer::Result<RecordStore<'a>> {
    let s = tr.begin("core.open_store");
    let store = RecordStore::open_or_create(tx, sub, md);
    tr.end(s);
    store
}

/// Execute a plan and drain it, up to [`SCAN_LIMIT`] rows.
fn execute(
    store: &RecordStore<'_>,
    tr: &mut Tracer,
    plan: &RecordQueryPlan,
) -> record_layer::Result<Vec<StoredRecord>> {
    let s = tr.begin("core.execute");
    let props = ExecuteProperties::new().with_return_limit(SCAN_LIMIT);
    let rows = plan
        .execute(store, &Continuation::Start, &props)
        .and_then(|mut cursor| cursor.collect_remaining_boxed())
        .map(|(rows, _, _)| rows);
    tr.end(s);
    rows
}

fn record_id(r: &StoredRecord) -> u32 {
    r.primary_key
        .get(0)
        .and_then(TupleElement::as_int)
        .expect("item primary key is an integer") as u32
}

fn item_matches(r: &StoredRecord, id: u32, score: u8, rev: u32) -> bool {
    let m = &r.message;
    record_id(r) == id
        && m.get("score").and_then(|v| v.as_i64()) == Some(i64::from(score))
        && m.get("group").and_then(|v| v.as_str()) == Some(group_name(group_of(id)).as_str())
        && m.get("payload").and_then(|v| v.as_bytes()) == Some(payload(id, rev).as_slice())
}

/// `group = g ∧ score ≥ 0 order by score`: with the row cap, a group's
/// lowest scores. The sort makes the answer a property of the data and
/// not of whichever index a planner picks.
fn top_scores_query(g: u32) -> RecordQuery {
    RecordQuery::new()
        .record_type("Item")
        .filter(QueryComponent::and(vec![
            QueryComponent::field("group", Comparison::Equals(group_name(g).into())),
            QueryComponent::field("score", Comparison::GreaterThanOrEquals(0i64.into())),
        ]))
        .sort(KeyExpression::field("score"), false)
}

/// `rows` are distinct, all satisfy `matches`, and are as many as the
/// row cap allows of the `matching` records there are.
fn rows_are(
    rows: &[StoredRecord],
    matching: usize,
    matches: impl Fn(&StoredRecord) -> bool,
) -> bool {
    let distinct: BTreeSet<u32> = rows.iter().map(record_id).collect();
    distinct.len() == rows.len()
        && rows.len() == matching.min(SCAN_LIMIT)
        && rows.iter().all(matches)
}

/// `group = a ∨ group = b …`, or the same as one `IN` predicate.
fn groups_query(groups: &[u32], as_in: bool) -> RecordQuery {
    let filter = if as_in {
        QueryComponent::field(
            "group",
            Comparison::In(groups.iter().map(|&g| group_name(g).into()).collect()),
        )
    } else {
        QueryComponent::or(
            groups
                .iter()
                .map(|&g| QueryComponent::field("group", Comparison::Equals(group_name(g).into())))
                .collect(),
        )
    };
    RecordQuery::new().record_type("Item").filter(filter)
}

fn equality_scan(index: &str, value: TupleElement) -> RecordQueryPlan {
    RecordQueryPlan::IndexScan {
        index_name: index.to_string(),
        bounds: ScanBounds::Range(TupleRange::prefix(Tuple::new().push(value))),
        reverse: false,
        record_types: Some(["Item".to_string()].into_iter().collect()),
        residual: None,
    }
}

impl Env for ItemEnv {
    fn db(&self) -> &Database {
        &self.db
    }

    fn engine(&self) -> Engine {
        self.spec.engine
    }

    fn classes(&self) -> &'static [&'static str] {
        &CLASSES
    }

    fn designated(&self) -> Designated {
        Designated {
            get: POINT_GET,
            query: INDEX_QUERY,
            write: UPDATE,
        }
    }

    fn ops_per_round(&self) -> usize {
        self.spec.ops_per_round
    }

    fn clients(&self) -> usize {
        1
    }

    fn run_round(&mut self, round: u64, traced: bool) -> Round {
        let ops = self.gen.round(round);
        let mut out = Round::new(CLASSES.len());
        self.tracer.set_on(traced);
        for op in &ops {
            self.exec(op, &mut out);
        }
        out.spans = self.tracer.take_spans();
        out
    }

    fn set_handicap(&mut self, class: &'static str, ns: u64) {
        self.tracer.set_handicap(class, ns);
    }

    fn setup_ns(&self) -> u64 {
        self.setup_ns
    }

    fn population(&self) -> (u64, u64) {
        let tx = self.db.create_transaction();
        let in_db: i64 = (0..self.spec.stores)
            .map(|s| {
                self.store_for(&tx, s)
                    .evaluate_aggregate("item_count", &Tuple::new())
                    .expect("item_count evaluates")
                    .as_long()
                    .unwrap_or(0)
            })
            .sum();
        let in_model: usize = self.model.iter().map(|m| m.score.len()).sum();
        (in_db as u64, in_model as u64)
    }

    fn live_user_bytes(&self) -> u64 {
        self.model
            .iter()
            .flat_map(|m| 0..m.score.len() as u32)
            .map(user_bytes)
            .sum()
    }

    fn verify_sample(&self, n: usize) -> u64 {
        let per_store = self.spec.records_per_store;
        let step = (self.spec.stores * per_store).div_ceil(n).max(1);
        let mut bad = 0;
        for s in 0..self.spec.stores {
            for chunk in (0..per_store).step_by(step).collect::<Vec<_>>().chunks(200) {
                let tx = self.db.create_transaction();
                let store = self.store_for(&tx, s);
                for &id in chunk {
                    let m = &self.model[s];
                    let ok = store
                        .load_record(&Tuple::new().push(id as i64))
                        .ok()
                        .flatten()
                        .is_some_and(|r| item_matches(&r, id as u32, m.score[id], m.rev[id]));
                    bad += u64::from(!ok);
                }
            }
        }
        bad
    }

    fn reopen(&mut self) {
        if let Some(dir) = &self.dir {
            // The old handle must be gone (final checkpoint, files closed)
            // before the directory is opened again.
            let clock_ms = self.db.clock_ms();
            self.db = open_database(Engine::Memory, Path::new(""));
            self.db = reopen_database(self.spec.engine, dir, clock_ms);
        }
    }

    fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    fn message_sample(&self, n: usize) -> MessageSample {
        let tx = self.db.create_transaction();
        let store = self.store_for(&tx, 0);
        let per_store = self.spec.records_per_store as u32;
        let messages: Vec<DynamicMessage> = (0..n as u32)
            .map(|i| {
                let id = i % per_store;
                build_item(&store, id, self.model[0].score[id as usize], i / per_store)
            })
            .collect();
        MessageSample {
            user_bytes: (0..n as u32).map(|i| user_bytes(i % per_store)).sum(),
            messages,
            pool: self.md.pool().clone(),
        }
    }

    fn open_store_probe(&self, n: usize) -> Vec<u64> {
        (0..n)
            .map(|i| {
                let tx = self.db.create_transaction();
                let t0 = now();
                let store = self.store_for(&tx, i % self.spec.stores);
                let ns = t0.elapsed().as_nanos() as u64;
                drop(store);
                ns
            })
            .collect()
    }
}
