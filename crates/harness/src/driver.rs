//! The multi-threaded closed-loop driver.
//!
//! Workers share a global op budget (a fetch-add ticket counter), draw
//! operation classes from the scenario's weighted mix, and run each op
//! in its own manual transaction so commit conflicts are observed
//! directly (`NotCommitted`) instead of being hidden inside the retry
//! loop. Every worker's RNG stream is derived deterministically from
//! the scenario seed ([`crate::rng::derive_seed`]), so a run with the
//! same scenario and thread count issues the same multiset of
//! operations regardless of interleaving.
//!
//! After every operation the driver joins the transaction's trace
//! ([`rl_fdb::transaction::TxnTrace`], kept by every transaction) and
//! attributes its key traffic to payload (result rows, record writes)
//! vs overhead (store headers, index maintenance, skip-list levels).

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

use crate::rng::{derive_seed, Distribution, Rng, XorShift64, Zipf};
use crate::sampler::OpKind;
use crate::scenario::{Extra, Scenario, SizeDist};
use record_layer::cursor::{Continuation, ExecuteProperties};
use record_layer::metadata::RecordMetaData;
use record_layer::plan::{BoxedCursorExt, RecordQueryPlan, RecordQueryPlanner, ScanBounds};
use record_layer::query::{Comparison, QueryComponent, RecordQuery};
use record_layer::store::{RecordStore, TupleRange};
use rl_fdb::metrics::MetricsSnapshot;
use rl_fdb::tuple::Tuple;
use rl_fdb::{Database, DatabaseOptions, EngineKind, Subspace, Transaction};
use rl_obs::Histogram;

/// Retries per operation before it counts as an error.
const MAX_ATTEMPTS: u32 = 8;
/// Row cap for scan-shaped ops, so one op's cost is bounded.
const SCAN_LIMIT: usize = 50;

/// Aggregated outcome of one operation class across all workers.
pub struct ClassResult {
    pub kind: OpKind,
    pub ops: u64,
    pub attempts: u64,
    pub conflicts: u64,
    pub errors: u64,
    pub rows: u64,
    pub keys_read: u64,
    pub keys_read_payload: u64,
    pub keys_written: u64,
    pub keys_written_payload: u64,
    pub latency_us: rl_obs::HistogramSnapshot,
}

/// Figure-1-style store size distribution over tenants.
pub struct StoreSizes {
    pub stores: usize,
    pub total_bytes: u64,
    pub median_bytes: u64,
    pub under_1k_fraction: f64,
    pub bytes_in_top_decile_fraction: f64,
}

/// Table-2-style TEXT index statistics (tenant 0).
pub struct TextStats {
    pub index_keys: usize,
    pub index_bytes: usize,
    pub average_bunch_size: f64,
}

/// Everything a run produced; [`crate::report`] turns this into JSON.
pub struct RunResult {
    pub scenario: Scenario,
    pub engine_kind: String,
    pub engine_description: String,
    pub elapsed_s: f64,
    pub classes: Vec<ClassResult>,
    /// The database's counters over the timed phase (seeding excluded).
    pub work: MetricsSnapshot,
    /// Canonical value-free query shape per query class
    /// ([`RecordQuery::shape`]).
    pub shapes: Vec<(&'static str, String)>,
    pub store_sizes: Option<StoreSizes>,
    pub text_stats: Option<TextStats>,
}

struct ClassStats {
    latency_us: Histogram,
    ops: AtomicU64,
    attempts: AtomicU64,
    conflicts: AtomicU64,
    errors: AtomicU64,
    rows: AtomicU64,
    keys_read: AtomicU64,
    keys_read_payload: AtomicU64,
    keys_written: AtomicU64,
    keys_written_payload: AtomicU64,
}

impl ClassStats {
    fn new() -> ClassStats {
        ClassStats {
            latency_us: Histogram::new(),
            ops: AtomicU64::new(0),
            attempts: AtomicU64::new(0),
            conflicts: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            rows: AtomicU64::new(0),
            keys_read: AtomicU64::new(0),
            keys_read_payload: AtomicU64::new(0),
            keys_written: AtomicU64::new(0),
            keys_written_payload: AtomicU64::new(0),
        }
    }
}

/// What one successful operation did, for trace attribution.
struct OpOutcome {
    rows: u64,
    read_payload: u64,
    write_payload: u64,
}

/// Per-run constants shared by every worker.
struct WorkloadCtx<'a> {
    scenario: &'a Scenario,
    md: &'a RecordMetaData,
    subspaces: &'a [Subspace],
    /// Keys one fetched record costs (record data + optional version).
    record_keys: u64,
    next_insert_id: AtomicI64,
}

/// Run a scenario against the given engine and collect the results.
/// Deterministic op streams; wall-clock latency and throughput are, of
/// course, machine-dependent.
pub fn run_scenario(scenario: &Scenario, engine: EngineKind) -> RunResult {
    run_scenario_keeping_database(scenario, engine).0
}

/// [`run_scenario`], also handing back the database as the run left it,
/// for a caller that inspects the end state (the cross-engine oracle
/// compares the two engines' visible keys and values).
#[expect(clippy::disallowed_methods, reason = "times the run on the wall clock")]
pub fn run_scenario_keeping_database(
    scenario: &Scenario,
    engine: EngineKind,
) -> (RunResult, Database) {
    scenario.validate().expect("invalid scenario");
    rl_obs::set_enabled(true);

    let db = Database::with_options(DatabaseOptions {
        engine: engine.clone(),
        ..DatabaseOptions::default()
    });
    let md = scenario.metadata();
    // Lead each tenant's subspace with a distinct small integer: it
    // encodes as `[0x15, t+1]`, so tenants occupy distinct two-byte key
    // prefixes and therefore distinct MVCC conflict shards. A shared
    // leading string (the old `("wl", t)` shape) would funnel every
    // tenant through one shard and serialize disjoint commits.
    let subspaces: Vec<Subspace> = (0..scenario.tenants)
        .map(|t| Subspace::from_tuple(&Tuple::new().push((t + 1) as i64).push("wl")))
        .collect();

    seed_population(&db, &md, scenario, &subspaces);

    // Sanity-check the covering shape once, before workers rely on it.
    if scenario.ops.weight(OpKind::CoveringScan) > 0 {
        let planner = RecordQueryPlanner::new(&md);
        let plan = planner.plan(&covering_query(0)).unwrap();
        assert!(
            plan.describe().starts_with("Covering("),
            "expected a covering plan, got {}",
            plan.describe()
        );
    }

    let ctx = WorkloadCtx {
        scenario,
        md: &md,
        subspaces: &subspaces,
        record_keys: if scenario.indexes.version { 2 } else { 1 },
        next_insert_id: AtomicI64::new(scenario.records_per_tenant as i64),
    };
    let stats: Vec<ClassStats> = OpKind::ALL.iter().map(|_| ClassStats::new()).collect();
    let ticket = AtomicU64::new(0);

    let work_before = db.metrics().snapshot();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for worker in 0..scenario.threads {
            let db = &db;
            let ctx = &ctx;
            let stats = &stats;
            let ticket = &ticket;
            scope.spawn(move || {
                let mut rng =
                    XorShift64::seed_from_u64(derive_seed(ctx.scenario.seed, worker as u64));
                worker_loop(db, ctx, stats, ticket, worker, &mut rng);
            });
        }
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let work = db.metrics().snapshot().delta(&work_before);

    let classes = scenario
        .ops
        .enabled()
        .into_iter()
        .map(|kind| {
            let s = &stats[class_index(kind)];
            ClassResult {
                kind,
                ops: s.ops.load(Ordering::Relaxed),
                attempts: s.attempts.load(Ordering::Relaxed),
                conflicts: s.conflicts.load(Ordering::Relaxed),
                errors: s.errors.load(Ordering::Relaxed),
                rows: s.rows.load(Ordering::Relaxed),
                keys_read: s.keys_read.load(Ordering::Relaxed),
                keys_read_payload: s.keys_read_payload.load(Ordering::Relaxed),
                keys_written: s.keys_written.load(Ordering::Relaxed),
                keys_written_payload: s.keys_written_payload.load(Ordering::Relaxed),
                latency_us: s.latency_us.snapshot(),
            }
        })
        .collect();

    let store_sizes = scenario
        .extras
        .contains(&Extra::StoreSizes)
        .then(|| measure_store_sizes(&db, &subspaces));
    let text_stats = scenario
        .extras
        .contains(&Extra::TextStats)
        .then(|| measure_text_stats(&db, &md, &subspaces[0]));

    let result = RunResult {
        scenario: scenario.clone(),
        engine_kind: engine.kind_name().to_string(),
        engine_description: db.engine_description(),
        elapsed_s,
        classes,
        work,
        shapes: query_shapes(scenario),
        store_sizes,
        text_stats,
    };
    (result, db)
}

fn class_index(kind: OpKind) -> usize {
    OpKind::ALL.iter().position(|&k| k == kind).unwrap()
}

// --------------------------------------------------------------- seeding

fn seed_population(db: &Database, md: &RecordMetaData, sc: &Scenario, subs: &[Subspace]) {
    let mut rng = XorShift64::seed_from_u64(derive_seed(sc.seed, u64::MAX));
    let text = TextGen::new(sc, &mut rng);
    for sub in subs {
        let ids: Vec<i64> = (0..sc.records_per_tenant as i64).collect();
        for chunk in ids.chunks(100) {
            record_layer::run(db, |tx| {
                let store = RecordStore::open_or_create(tx, sub, md)?;
                for &id in chunk {
                    save_item(&store, sc, &text, &mut rng.clone(), id, id % sc.score_mod)?;
                    // Advance the shared stream once per record so sizes
                    // differ; the clone above keeps the borrow simple.
                    rng.next_u64();
                }
                Ok(())
            })
            .unwrap();
        }
    }
}

/// Zipfian document generator for text-indexed scenarios.
struct TextGen {
    vocab: Vec<String>,
    zipf: Option<Zipf>,
}

impl TextGen {
    fn new(sc: &Scenario, rng: &mut XorShift64) -> TextGen {
        if sc.body_bytes == 0 {
            return TextGen {
                vocab: Vec::new(),
                zipf: None,
            };
        }
        let vocab = vocabulary(rng, 4000);
        let zipf = Zipf::new(vocab.len(), 0.9);
        TextGen {
            vocab,
            zipf: Some(zipf),
        }
    }

    fn body(&self, sc: &Scenario, rng: &mut XorShift64, id: i64) -> String {
        match &self.zipf {
            Some(zipf) => document(rng, &self.vocab, zipf, sc.body_bytes),
            None => format!("body {id}"),
        }
    }
}

/// A synthetic vocabulary with word lengths matched to the paper's Table 2
/// corpus statistics (mean token length ≈ 7.8 characters).
fn vocabulary(rng: &mut XorShift64, size: usize) -> Vec<String> {
    const SYLLABLES: &[&str] = &[
        "wha", "le", "ish", "ma", "el", "sea", "har", "poon", "ship", "cap", "tain", "oce", "an",
        "deep", "wave", "sail", "mast", "crew", "hunt", "tide",
    ];
    (0..size)
        .map(|i| {
            let syllables = 2 + (rng.gen_range(0..3));
            let mut w = String::new();
            for _ in 0..syllables {
                w.push_str(SYLLABLES[rng.gen_range(0..SYLLABLES.len())]);
            }
            // Suffix with the index so every vocabulary entry is distinct.
            w.push_str(&format!("{i:x}"));
            w
        })
        .collect()
}

/// Generate a document of roughly `target_bytes` with Zipfian token
/// frequencies over `vocab`.
fn document(rng: &mut XorShift64, vocab: &[String], zipf: &Zipf, target_bytes: usize) -> String {
    let mut doc = String::with_capacity(target_bytes + 16);
    while doc.len() < target_bytes {
        let word = &vocab[zipf.sample(rng) - 1];
        doc.push_str(word);
        doc.push(' ');
    }
    doc
}

/// A log-normal sampler via Box–Muller (avoids extra dependencies).
struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl Distribution<f64> for LogNormal {
    fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (self.mu + self.sigma * z).exp()
    }
}

fn payload_bytes(sc: &Scenario, rng: &mut XorShift64) -> Vec<u8> {
    let size = match sc.payload {
        SizeDist::Fixed(bytes) => bytes,
        SizeDist::LogNormal {
            mu,
            sigma,
            min,
            max,
        } => {
            let dist = LogNormal { mu, sigma };
            (dist.sample(rng) as usize).clamp(min, max)
        }
    };
    let mut bytes = vec![0u8; size];
    for (i, b) in bytes.iter_mut().enumerate() {
        *b = (i as u8).wrapping_mul(31).wrapping_add(7);
    }
    bytes
}

fn save_item(
    store: &RecordStore<'_>,
    sc: &Scenario,
    text: &TextGen,
    rng: &mut XorShift64,
    id: i64,
    score: i64,
) -> record_layer::error::Result<()> {
    let mut item = store.new_record("Item")?;
    item.set("id", id).unwrap();
    item.set("group", format!("g{}", id.rem_euclid(sc.groups)))
        .unwrap();
    item.set("score", score).unwrap();
    item.set("body", text.body(sc, rng, id)).unwrap();
    item.set("payload", payload_bytes(sc, rng)).unwrap();
    store.save_record(item)?;
    Ok(())
}

// --------------------------------------------------------------- workers

#[expect(clippy::disallowed_methods, reason = "times ops, sleeps think time")]
fn worker_loop(
    db: &Database,
    ctx: &WorkloadCtx<'_>,
    stats: &[ClassStats],
    ticket: &AtomicU64,
    worker: usize,
    rng: &mut XorShift64,
) {
    let sc = ctx.scenario;
    let record_zipf = Zipf::new(sc.records_per_tenant, sc.zipf_s);
    let pinned_tenant = sc.partition_tenants.then(|| worker % sc.tenants);
    let tenant_zipf =
        (sc.tenants > 1 && pinned_tenant.is_none()).then(|| Zipf::new(sc.tenants, sc.zipf_s));
    let text = TextGen::new(
        sc,
        &mut XorShift64::seed_from_u64(derive_seed(sc.seed, u64::MAX)),
    );

    while ticket.fetch_add(1, Ordering::Relaxed) < sc.total_ops {
        let op = sc.ops.sample(rng);
        let tenant = match pinned_tenant {
            Some(t) => t,
            None => match &tenant_zipf {
                Some(z) => z.sample(rng) - 1,
                None => 0,
            },
        };
        let s = &stats[class_index(op)];
        let start = Instant::now();
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            s.attempts.fetch_add(1, Ordering::Relaxed);
            let tx = db.create_transaction();
            tx.set_tag(op.name());
            let outcome = run_op(&tx, ctx, &text, op, tenant, &record_zipf, rng);
            match outcome {
                Ok(out) => {
                    if op.is_write() {
                        match tx.commit() {
                            Ok(()) => {}
                            Err(e) => {
                                if matches!(e, rl_fdb::Error::NotCommitted) {
                                    s.conflicts.fetch_add(1, Ordering::Relaxed);
                                }
                                if record_layer::Error::Fdb(e).is_retryable()
                                    && attempt < MAX_ATTEMPTS
                                {
                                    continue;
                                }
                                s.errors.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                        }
                    }
                    join_trace(s, &tx, &out);
                    s.ops.fetch_add(1, Ordering::Relaxed);
                    s.rows.fetch_add(out.rows, Ordering::Relaxed);
                    s.latency_us
                        .record(start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
                    break;
                }
                Err(e) if e.is_retryable() && attempt < MAX_ATTEMPTS => {
                    if matches!(e, record_layer::Error::Fdb(rl_fdb::Error::NotCommitted)) {
                        s.conflicts.fetch_add(1, Ordering::Relaxed);
                    }
                    continue;
                }
                Err(_) => {
                    s.errors.fetch_add(1, Ordering::Relaxed);
                    break;
                }
            }
        }
        // Modeled client RTT (YCSB think time), outside the measured op
        // latency: workers overlap these waits, so the sweep's
        // throughput tracks how much in-flight concurrency the
        // simulator actually admits.
        if sc.think_time_us > 0 {
            std::thread::sleep(std::time::Duration::from_micros(sc.think_time_us));
        }
    }
}

fn join_trace(s: &ClassStats, tx: &Transaction, out: &OpOutcome) {
    let t = tx.trace();
    s.keys_read.fetch_add(t.keys_read, Ordering::Relaxed);
    s.keys_read_payload
        .fetch_add(out.read_payload.min(t.keys_read), Ordering::Relaxed);
    s.keys_written.fetch_add(t.keys_written, Ordering::Relaxed);
    s.keys_written_payload
        .fetch_add(out.write_payload.min(t.keys_written), Ordering::Relaxed);
}

fn run_op(
    tx: &Transaction,
    ctx: &WorkloadCtx<'_>,
    text: &TextGen,
    op: OpKind,
    tenant: usize,
    record_zipf: &Zipf,
    rng: &mut XorShift64,
) -> record_layer::error::Result<OpOutcome> {
    let sc = ctx.scenario;
    let store = RecordStore::open_or_create(tx, &ctx.subspaces[tenant], ctx.md)?;
    let hot_id = (record_zipf.sample(rng) - 1) as i64;
    let group = |g: i64| format!("g{}", g.rem_euclid(sc.groups));
    let rk = ctx.record_keys;

    match op {
        OpKind::PointGet => {
            let found = store.load_record(&Tuple::new().push(hot_id))?.is_some();
            let rows = u64::from(found);
            Ok(OpOutcome {
                rows,
                read_payload: rows * rk,
                write_payload: 0,
            })
        }
        OpKind::RangeScan => {
            let rows = execute_query(&store, ctx.md, &range_query(hot_id.rem_euclid(sc.groups)))?;
            Ok(OpOutcome {
                rows,
                read_payload: rows * (1 + rk),
                write_payload: 0,
            })
        }
        OpKind::CoveringScan => {
            let rows = execute_query(
                &store,
                ctx.md,
                &covering_query(hot_id.rem_euclid(sc.groups)),
            )?;
            Ok(OpOutcome {
                rows,
                read_payload: rows,
                write_payload: 0,
            })
        }
        OpKind::Intersection => {
            // Direct IR: the cost-based planner would rightly collapse
            // this into one by_group_score scan; the workload wants the
            // streaming merge-join executor.
            let score = rng.gen_range(0..sc.score_mod.max(1) as usize) as i64;
            let g = group(score);
            let types: std::collections::BTreeSet<String> =
                ["Item".to_string()].into_iter().collect();
            let eq_child =
                |index_name: &str, value: rl_fdb::tuple::TupleElement| RecordQueryPlan::IndexScan {
                    index_name: index_name.to_string(),
                    bounds: ScanBounds::Range(TupleRange::prefix(Tuple::new().push(value))),
                    reverse: false,
                    record_types: Some(types.clone()),
                    residual: None,
                };
            let plan = RecordQueryPlan::Intersection {
                children: vec![
                    eq_child("by_group", g.as_str().into()),
                    eq_child("by_score", score.into()),
                ],
            };
            let rows = execute_plan(&store, &plan)?;
            Ok(OpOutcome {
                rows,
                read_payload: rows * (2 + rk),
                write_payload: 0,
            })
        }
        OpKind::Union => {
            let g1 = hot_id.rem_euclid(sc.groups);
            let g2 = (g1 + 1).rem_euclid(sc.groups);
            let rows = execute_query(&store, ctx.md, &union_query(g1, g2))?;
            Ok(OpOutcome {
                rows,
                read_payload: rows * (1 + rk),
                write_payload: 0,
            })
        }
        OpKind::InQuery => {
            let g1 = hot_id.rem_euclid(sc.groups);
            let rows = execute_query(&store, ctx.md, &in_query(g1, sc.groups))?;
            // Residual scan: only the matching rows are payload — the
            // point of this class is watching the overhead column until
            // an IN-join plan exists.
            Ok(OpOutcome {
                rows,
                read_payload: rows * rk,
                write_payload: 0,
            })
        }
        OpKind::Rank => {
            let k = (record_zipf.sample(rng) - 1) as i64;
            let found = store.entry_at_rank("score_rank", k)?.is_some();
            let rows = u64::from(found);
            Ok(OpOutcome {
                rows,
                read_payload: rows,
                write_payload: 0,
            })
        }
        OpKind::Insert => {
            let id = ctx.next_insert_id.fetch_add(1, Ordering::Relaxed);
            save_item(&store, sc, text, rng, id, id % sc.score_mod)?;
            Ok(OpOutcome {
                rows: 1,
                read_payload: 0,
                write_payload: rk,
            })
        }
        OpKind::Update => {
            let score = rng.gen_range(0..sc.score_mod.max(1) as usize) as i64;
            save_item(&store, sc, text, rng, hot_id, score)?;
            Ok(OpOutcome {
                rows: 1,
                read_payload: rk,
                write_payload: rk,
            })
        }
    }
}

fn execute_query(
    store: &RecordStore<'_>,
    md: &RecordMetaData,
    query: &RecordQuery,
) -> record_layer::error::Result<u64> {
    let planner = RecordQueryPlanner::new(md);
    let plan = planner.plan(query)?;
    execute_plan(store, &plan)
}

fn execute_plan(
    store: &RecordStore<'_>,
    plan: &RecordQueryPlan,
) -> record_layer::error::Result<u64> {
    let props = ExecuteProperties::new().with_return_limit(SCAN_LIMIT);
    let mut cursor = plan.execute(store, &Continuation::Start, &props)?;
    let (records, _, _) = cursor.collect_remaining_boxed()?;
    Ok(records.len() as u64)
}

// ---------------------------------------------------------- query corpus

fn range_query(g: i64) -> RecordQuery {
    RecordQuery::new()
        .record_type("Item")
        .filter(QueryComponent::and(vec![
            QueryComponent::field("group", Comparison::Equals(format!("g{g}").into())),
            QueryComponent::field("score", Comparison::GreaterThanOrEquals(0i64.into())),
        ]))
}

fn covering_query(g: i64) -> RecordQuery {
    range_query(g).require_fields(&["id", "group", "score"])
}

fn union_query(g1: i64, g2: i64) -> RecordQuery {
    RecordQuery::new()
        .record_type("Item")
        .filter(QueryComponent::or(vec![
            QueryComponent::field("group", Comparison::Equals(format!("g{g1}").into())),
            QueryComponent::field("group", Comparison::Equals(format!("g{g2}").into())),
        ]))
}

fn in_query(g1: i64, groups: i64) -> RecordQuery {
    let picks: Vec<rl_fdb::tuple::TupleElement> = (0..3)
        .map(|i| format!("g{}", (g1 + i).rem_euclid(groups)).into())
        .collect();
    RecordQuery::new()
        .record_type("Item")
        .filter(QueryComponent::field("group", Comparison::In(picks)))
}

/// The conceptual query each enabled query-shape class runs, exported
/// as canonical value-free shape strings (`RecordQuery::shape`).
fn query_shapes(sc: &Scenario) -> Vec<(&'static str, String)> {
    let mut shapes = Vec::new();
    for kind in sc.ops.enabled() {
        let query = match kind {
            OpKind::RangeScan => range_query(0),
            OpKind::CoveringScan => covering_query(0),
            OpKind::Intersection => {
                RecordQuery::new()
                    .record_type("Item")
                    .filter(QueryComponent::and(vec![
                        QueryComponent::field("group", Comparison::Equals("g0".into())),
                        QueryComponent::field("score", Comparison::Equals(0i64.into())),
                    ]))
            }
            OpKind::Union => union_query(0, 1),
            OpKind::InQuery => in_query(0, sc.groups),
            _ => continue,
        };
        shapes.push((kind.name(), query.shape()));
    }
    shapes
}

// ---------------------------------------------------------------- extras

fn measure_store_sizes(db: &Database, subs: &[Subspace]) -> StoreSizes {
    let mut sizes: Vec<u64> = subs
        .iter()
        .map(|sub| {
            let records_sub = sub.child(1i64);
            let (begin, end) = records_sub.range_inclusive();
            record_layer::run(db, |tx| {
                Ok(tx
                    .get_range(&begin, &end, rl_fdb::RangeOptions::default())
                    .map_err(record_layer::Error::Fdb)?
                    .iter()
                    .map(|kv| (kv.key.len() + kv.value.len()) as u64)
                    .sum())
            })
            .unwrap()
        })
        .collect();
    sizes.sort_unstable();
    let total: u64 = sizes.iter().sum();
    let under_1k = sizes.iter().filter(|&&s| s < 1024).count();
    let cutoff = sizes[sizes.len() * 9 / 10];
    let top_decile: u64 = sizes.iter().filter(|&&s| s >= cutoff).sum();
    StoreSizes {
        stores: sizes.len(),
        total_bytes: total,
        median_bytes: sizes[sizes.len() / 2],
        under_1k_fraction: under_1k as f64 / sizes.len() as f64,
        bytes_in_top_decile_fraction: if total > 0 {
            top_decile as f64 / total as f64
        } else {
            0.0
        },
    }
}

fn measure_text_stats(db: &Database, md: &RecordMetaData, sub: &Subspace) -> TextStats {
    record_layer::run(db, |tx| {
        let store = RecordStore::open_or_create(tx, sub, md)?;
        let stats = store.text_index_stats("body_text")?;
        Ok(TextStats {
            index_keys: stats.index_keys,
            index_bytes: stats.total_bytes(),
            average_bunch_size: stats.average_bunch_size(),
        })
    })
    .unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lognormal_is_positive_and_heavy_tailed() {
        let mut r = XorShift64::seed_from_u64(1);
        let dist = LogNormal {
            mu: 5.5,
            sigma: 2.0,
        };
        let samples: Vec<f64> = (0..5000).map(|_| dist.sample(&mut r)).collect();
        assert!(samples.iter().all(|&s| s > 0.0));
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[sorted.len() / 2];
        assert!(
            mean > 2.0 * median,
            "heavy tail: mean {mean} vs median {median}"
        );
    }

    #[test]
    fn documents_hit_target_size() {
        let mut r = XorShift64::seed_from_u64(3);
        let vocab = vocabulary(&mut r, 500);
        let zipf = Zipf::new(500, 1.05);
        let doc = document(&mut r, &vocab, &zipf, 5000);
        assert!(doc.len() >= 5000 && doc.len() < 5200);
    }
}
