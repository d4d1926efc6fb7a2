//! One run of one workload: set-up, warm-up, measured rounds, traced
//! rounds, checks, metrics.
//!
//! A run is a fixed, seeded op stream cut into rounds of a constant
//! number of ops, and a fixed number of rounds per workload
//! ([`crate::spec::Rounds`]). Every timing metric is computed per round,
//! divided by how slow the yardstick ran around that round
//! ([`crate::yardstick`]), and reported as the quiet quartile across
//! rounds ([`crate::stats`]).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::clock::now;

use rl_fdb::metrics::MetricsSnapshot;

use crate::items::ItemEnv;
use crate::json::Json;
use crate::probes::{self, DeviceIo};
use crate::spec::{self, Workload, END_TO_END, PER_LAYER, REFERENCE_SECONDS};
use crate::stats::{self, percentile_us, quiet_quartile, Better};
use crate::tenants::TenantEnv;
use crate::trace::{roots_with_child_time, Span};
use crate::workload::{append_spans, live_kv, Designated, Engine, Env, Round};
use crate::yardstick::Yardsticks;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest measured rounds of an untraced run, however small `--seconds`.
const MIN_ROUNDS: usize = 10;
/// A traced run measures this share of an untraced run's rounds with
/// tracing off (the base of `obs.tracing_overhead_share` and of the
/// counter deltas) and as many again with tracing on.
const TRACED_RUN_SHARE: f64 = 0.4;
/// A phase that has taken this many times `--seconds` stops early, so a
/// run on a badly disturbed box stays inside the driver's time limit.
const HARD_STOP: f64 = 4.0;
/// Operations whose raw spans go to `<workload>.trace.jsonl`.
const RAW_TRACE_OPS: usize = 2_000;
/// Model records read back through the record layer after the rounds.
const VERIFY_RECORDS: usize = 1_000;

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    /// Scales the number of measured rounds: at [`REFERENCE_SECONDS`] a
    /// run measures the workload's [`crate::spec::Rounds::measured`].
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out_dir: PathBuf,
    /// Measure exactly this many rounds, whatever `seconds` (the
    /// self-tests).
    pub rounds: Option<usize>,
    /// Make every op of this class spin for this many ns (the self-test
    /// of the measurement itself).
    pub handicap: Option<(&'static str, u64)>,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

#[derive(Debug)]
pub struct RunOutput {
    /// Population, read-back, durability and oracle checks all passed.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// What failed, in words.
    pub problems: Vec<String>,
    /// Everything the run measured, for `out/<workload>.json`.
    pub detail: Json,
}

impl RunOutput {
    /// The contract's result line.
    pub fn result_line(&self) -> String {
        let mut metrics = Json::obj();
        for m in &self.metrics {
            metrics.set(
                m.name,
                Json::obj().with("value", m.value).with("unit", m.unit),
            );
        }
        Json::obj()
            .with("correct", self.correct)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics)
            .to_line()
    }
}

fn make_env(wl: &Workload, seed: u64, out_dir: &Path, nth: usize, epoch: Instant) -> Box<dyn Env> {
    match wl {
        Workload::Items(spec) => Box::new(ItemEnv::setup(spec, seed, out_dir, nth, epoch)),
        Workload::Tenants(spec) => Box::new(TenantEnv::setup(spec, seed, out_dir, nth, epoch)),
    }
}

fn drop_env(env: Box<dyn Env>) {
    let dir = env.dir().map(Path::to_path_buf);
    drop(env);
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Rounds of one phase, and what the database counted meanwhile.
struct Phase {
    rounds: Vec<Round>,
    /// What the yardstick read in the bursts before the first round and
    /// after each.
    slowdown: f64,
    counters: MetricsSnapshot,
    device: DeviceIo,
}

impl Phase {
    fn ops(&self) -> u64 {
        self.rounds.iter().map(|r| r.attempted).sum()
    }

    fn failed(&self) -> u64 {
        self.rounds.iter().map(|r| r.failed).sum()
    }

    /// What to divide the phase's wall-clock times by: the yardstick's
    /// reading, or 1 for the wall-clock times themselves.
    fn divisor(&self, normalised: bool) -> f64 {
        if normalised {
            self.slowdown
        } else {
            1.0
        }
    }

    /// Seconds per round.
    fn round_s(&self, normalised: bool) -> Vec<f64> {
        let d = self.divisor(normalised);
        self.rounds.iter().map(|r| r.seconds() / d).collect()
    }

    fn throughput(&self, normalised: bool) -> Vec<f64> {
        let d = self.divisor(normalised);
        self.rounds
            .iter()
            .map(|r| r.attempted as f64 * d / r.seconds())
            .collect()
    }

    /// Per round in which the class ran, its `(p50 µs, p95 µs)`.
    fn class_percentiles(&self, class: usize, normalised: bool) -> Vec<(f64, f64)> {
        let d = self.divisor(normalised);
        self.rounds
            .iter()
            .filter_map(|r| r.summary[class])
            .map(|(_, p50, p95)| (p50 / d, p95 / d))
            .collect()
    }

    fn class_samples(&self, class: usize) -> usize {
        self.rounds
            .iter()
            .filter_map(|r| r.summary[class])
            .map(|s| s.0)
            .sum()
    }

    fn class_sum(&self, field: impl Fn(&Round) -> &Vec<u64>, class: usize) -> u64 {
        self.rounds.iter().map(|r| field(r)[class]).sum()
    }

    /// The timing metrics of the three designated classes and the
    /// throughput, each the quiet quartile across rounds.
    fn timing_values(&self, designated: Designated, normalised: bool) -> Vec<(&'static str, f64)> {
        let mut out = vec![(
            "throughput_ops_s",
            quiet_quartile(&self.throughput(normalised), Better::Higher),
        )];
        for (p50, p95, class) in [
            ("get_p50_us", "get_p95_us", designated.get),
            ("query_p50_us", "query_p95_us", designated.query),
            ("write_p50_us", "write_p95_us", designated.write),
        ] {
            let per_round = self.class_percentiles(class, normalised);
            let p50s: Vec<f64> = per_round.iter().map(|p| p.0).collect();
            let p95s: Vec<f64> = per_round.iter().map(|p| p.1).collect();
            out.push((p50, quiet_quartile(&p50s, Better::Lower)));
            out.push((p95, quiet_quartile(&p95s, Better::Lower)));
        }
        out
    }
}

/// Run `n` rounds from round number `first` on, a yardstick burst
/// between every two; stop early after `stop_after_s` seconds.
fn run_phase(
    env: &mut dyn Env,
    yards: &mut Yardsticks,
    first: u64,
    traced: bool,
    n: usize,
    stop_after_s: Option<f64>,
) -> Phase {
    let before = env.db().metrics().snapshot();
    let device_before = DeviceIo::read();
    let clients = env.clients();
    let mut rounds = Vec::with_capacity(n);
    yards.burst(clients);
    let t0 = now();
    while rounds.len() < n {
        let mut round = env.run_round(first + rounds.len() as u64, traced);
        round.summarize();
        rounds.push(round);
        yards.burst(clients);
        if stop_after_s.is_some_and(|s| t0.elapsed().as_secs_f64() >= s) {
            break;
        }
    }
    Phase {
        rounds,
        slowdown: yards.take_slowdown(),
        counters: env.db().metrics().snapshot().delta(&before),
        device: DeviceIo::read().since(&device_before),
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn run(cfg: &RunConfig) -> Result<RunOutput, String> {
    let wl = spec::workload(&cfg.workload, cfg.smoke)
        .ok_or_else(|| format!("unknown workload '{}'", cfg.workload))?;
    let epoch = now();
    rl_obs::set_enabled(false);
    let mut problems = Vec::new();
    let mut yards = Yardsticks::new(wl.clients());

    // ---------------------------------------------------------- set-up
    // One thread loads the population, so one yardstick reads the box.
    let setups = if cfg.trace || cfg.smoke { 1 } else { SETUPS };
    let mut setup_s = Vec::new();
    let mut raw_setup_s = Vec::new();
    let mut env: Option<Box<dyn Env>> = None;
    for nth in 0..setups {
        if let Some(old) = env.take() {
            drop_env(old);
        }
        let (made, slowdown) = bracketed(&mut yards, || {
            make_env(&wl, cfg.seed, &cfg.out_dir, nth, epoch)
        });
        raw_setup_s.push(made.setup_ns() as f64 / 1e9);
        setup_s.push(made.setup_ns() as f64 / 1e9 / slowdown);
        env = Some(made);
    }
    let mut env = env.expect("at least one set-up");
    if let Some((class, ns)) = cfg.handicap {
        env.set_handicap(class, ns);
    }
    let designated = env.designated();
    let classes = env.classes();
    let (population_before, _) = env.population();

    // --------------------------------------------------------- warm-up
    let planned = wl.rounds();
    let warm_rounds = if cfg.smoke { 1 } else { planned.warmup };
    let warmup = run_phase(env.as_mut(), &mut yards, 0, false, warm_rounds, None);
    let mut attempted = warmup.ops();
    let mut failed = warmup.failed();

    // -------------------------------------------------- measured rounds
    let full_run = cfg.rounds.unwrap_or_else(|| {
        ((planned.measured as f64 * cfg.seconds / REFERENCE_SECONDS).round() as usize)
            .max(MIN_ROUNDS)
    });
    let measured_rounds = if cfg.trace && cfg.rounds.is_none() {
        (full_run as f64 * TRACED_RUN_SHARE).ceil() as usize
    } else {
        full_run
    };
    // Self-tests count on every round they asked for.
    let stop_after_s = cfg.rounds.is_none().then_some(HARD_STOP * cfg.seconds);
    let measured = run_phase(
        env.as_mut(),
        &mut yards,
        warm_rounds as u64,
        false,
        measured_rounds,
        stop_after_s,
    );
    attempted += measured.ops();
    failed += measured.failed();
    let round_s = measured.round_s(true);
    let raw_round_s = measured.round_s(false);
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut detail = Json::obj()
        .with("workload", cfg.workload.as_str())
        .with("seed", cfg.seed)
        .with("trace", cfg.trace)
        .with("clients", env.clients())
        .with("ops_per_round", env.ops_per_round())
        .with("warmup_rounds", warm_rounds)
        .with("measured_rounds", measured.rounds.len())
        .with(
            "available_parallelism",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        )
        .with("setup_s_each", setup_s.as_slice())
        .with("raw_setup_s_each", raw_setup_s.as_slice())
        .with("round_s", round_s.as_slice())
        .with("raw_round_s", raw_round_s.as_slice())
        .with("yardstick_slowdown", measured.slowdown);

    // Per class: quiet quartile and median across rounds, sample count.
    let mut class_json = Json::obj();
    for (c, name) in classes.iter().enumerate() {
        let per_round = measured.class_percentiles(c, true);
        if per_round.is_empty() {
            continue;
        }
        let p50s: Vec<f64> = per_round.iter().map(|p| p.0).collect();
        let p95s: Vec<f64> = per_round.iter().map(|p| p.1).collect();
        class_json.set(
            name,
            Json::obj()
                .with("samples", measured.class_samples(c))
                .with("p50_us", quiet_quartile(&p50s, Better::Lower))
                .with("p50_us_median_of_rounds", stats::median(&p50s))
                .with("p95_us", quiet_quartile(&p95s, Better::Lower))
                .with("p95_us_median_of_rounds", stats::median(&p95s))
                .with("p50_us_by_round", p50s.as_slice()),
        );
    }
    detail.set("classes", class_json);

    values.insert("setup_s", stats::median(&setup_s));
    values.extend(measured.timing_values(designated, true));
    // The same metrics from the wall-clock times, for `check_repeat`,
    // which shows what the yardstick did to the run-to-run spread.
    let mut wall_clock = Json::obj().with("setup_s", stats::median(&raw_setup_s));
    for (name, value) in measured.timing_values(designated, false) {
        wall_clock.set(name, value);
    }
    detail.set("wall_clock_values", wall_clock);
    detail.set(
        "throughput_ops_s_median_of_rounds",
        stats::median(&measured.throughput(true)),
    );
    let user_bytes_saved: u64 = measured.rounds.iter().map(|r| r.user_bytes_saved).sum();
    values.insert(
        "kv_write_bytes_per_user_byte",
        ratio(
            measured.counters.bytes_written as f64,
            user_bytes_saved as f64,
        ),
    );
    // The noise gauge reads the box (wall-clock times), the stationarity
    // gauge the program (normalised times).
    values.insert("bench.round_spread", stats::round_spread(&raw_round_s));
    values.insert("bench.drift_share", stats::drift_share(&round_s));

    // ---------------------------------------------------- traced rounds
    let mut spans: Vec<Span> = Vec::new();
    let mut traced_phase = None;
    if cfg.trace {
        rl_obs::Recorder::global().reset();
        rl_obs::set_enabled(true);
        let mut traced = run_phase(
            env.as_mut(),
            &mut yards,
            (warm_rounds + measured.rounds.len()) as u64,
            true,
            cfg.rounds.map_or(measured_rounds, |n| (n / 3).max(1)),
            stop_after_s,
        );
        rl_obs::set_enabled(false);
        attempted += traced.ops();
        failed += traced.failed();
        for r in &mut traced.rounds {
            append_spans(&mut spans, std::mem::take(&mut r.spans));
        }
        values.insert(
            "obs.tracing_overhead_share",
            1.0 - ratio(
                quiet_quartile(&traced.throughput(true), Better::Higher),
                values["throughput_ops_s"],
            ),
        );
        detail.set("traced_rounds", traced.rounds.len());
        traced_phase = Some(traced);
    }

    // ----------------------------------------------------------- checks
    let (population_db, population_model) = env.population();
    if population_db != population_model || population_db != population_before {
        problems.push(format!(
            "population changed: {population_before} before, {population_db} in the database, \
             {population_model} in the model"
        ));
    }
    let user_bytes_live = env.live_user_bytes();
    let kvs = live_kv(env.db());
    let live_kv_bytes: usize = kvs.iter().map(|(k, v)| k.len() + v.len()).sum();
    let stored_bytes = match env.engine() {
        Engine::Memory => live_kv_bytes as f64,
        // The WAL swings between empty and its 1 MiB checkpoint
        // threshold: what the store needs on disk is the peak.
        Engine::Paged { .. } => measured
            .rounds
            .iter()
            .map(|r| r.peak_file_bytes)
            .max()
            .unwrap_or(0) as f64,
    };
    values.insert(
        "stored_bytes_per_user_byte",
        ratio(stored_bytes, user_bytes_live as f64),
    );
    env.reopen();
    let unreadable = env.verify_sample(VERIFY_RECORDS);
    if unreadable > 0 {
        problems.push(format!(
            "{unreadable} model records missing or different when read back"
        ));
    }
    detail.set("population", population_db);
    detail.set("live_user_bytes", user_bytes_live);
    detail.set("live_kv_bytes", live_kv_bytes);
    detail.set("stored_bytes", stored_bytes);
    detail.set(
        "peak_file_bytes_by_round",
        measured
            .rounds
            .iter()
            .map(|r| r.peak_file_bytes as f64)
            .collect::<Vec<f64>>()
            .as_slice(),
    );

    // ------------------------------------------------- per-layer metrics
    if let Some(traced) = &traced_phase {
        let ops = measured.ops() as f64;
        let d = &measured.counters;
        let commits = d.commits_succeeded as f64;
        values.insert(
            "fdb.conflict_retry_share",
            ratio(d.conflicts as f64, d.commits_attempted as f64),
        );
        values.insert("fdb.keys_read_per_op", ratio(d.keys_read as f64, ops));
        values.insert(
            "fdb.kv_bytes_written_per_op",
            ratio(d.bytes_written as f64, ops),
        );
        if matches!(env.engine(), Engine::Paged { .. }) {
            let touched = (d.page_hits + d.page_misses) as f64;
            values.insert("storage.page_hit_rate", ratio(d.page_hits as f64, touched));
            values.insert(
                "storage.pages_touched_per_read",
                ratio(touched, d.read_ops as f64),
            );
            values.insert(
                "storage.page_misses_per_op",
                ratio(d.page_misses as f64, ops),
            );
            values.insert(
                "storage.page_evictions_per_op",
                ratio(d.page_evictions as f64, ops),
            );
            values.insert(
                "storage.wal_appends_per_commit",
                ratio(d.log_appends as f64, commits),
            );
            values.insert(
                "storage.page_flushes_per_commit",
                ratio(d.page_flushes as f64, commits),
            );
            values.insert(
                "storage.device_write_bytes_per_kv_byte",
                ratio(measured.device.wchar as f64, d.bytes_written as f64),
            );
            values.insert(
                "storage.write_syscalls_per_commit",
                ratio(measured.device.syscw as f64, commits),
            );
            values.insert(
                "storage.file_bytes_per_live_kv_byte",
                ratio(stored_bytes, live_kv_bytes as f64),
            );
        }

        // Spans, by name. Their times are divided by what the yardstick
        // read around the traced rounds they were taken in.
        let traced_slowdown = traced.divisor(true);
        detail.set("traced_slowdown", traced_slowdown);
        let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for s in &spans {
            by_name.entry(s.name).or_default().push(s.dur_ns());
        }
        let mut span_p = |name: &str, q: f64| {
            by_name
                .get_mut(name)
                .map_or(0.0, |d| percentile_us(d, q) / traced_slowdown)
        };
        let query_class = classes[designated.query];
        for (metric, span) in [
            ("core.load_record_p50_us", "core.load_record"),
            ("core.save_record_p50_us", "core.save_record"),
            ("core.covering_scan_p50_us", "covering_scan"),
            ("core.union_p50_us", "union"),
            ("core.intersection_p50_us", "intersection"),
            ("core.in_query_p50_us", "in_query"),
            ("core.rank_p50_us", "rank"),
            ("fdb.begin_p50_us", "fdb.begin"),
            ("fdb.commit_p50_us", "fdb.commit"),
            ("cloudkit.save_p50_us", "cloudkit.save"),
            ("cloudkit.load_p50_us", "cloudkit.load"),
            ("cloudkit.sync_p50_us", "cloudkit.sync"),
            ("cloudkit.zone_count_p50_us", "cloudkit.zone_count"),
        ] {
            values.insert(metric, span_p(span, 0.5));
        }
        values.insert("fdb.commit_p99_us", span_p("fdb.commit", 0.99));
        // Planning and execution of the designated query class only: one
        // shape, one mode.
        let child_of_query = |child: &str| {
            let mut d: Vec<u64> = spans
                .iter()
                .filter(|s| s.name == child && root_name(&spans, s) == query_class)
                .map(Span::dur_ns)
                .collect();
            if d.is_empty() {
                0.0
            } else {
                percentile_us(&mut d, 0.5) / traced_slowdown
            }
        };
        values.insert("core.plan_p50_us", child_of_query("core.plan"));
        values.insert("core.execute_p50_us", child_of_query("core.execute"));

        // Unattributed share: the worst of the three designated classes.
        let roots = roots_with_child_time(&spans);
        let mut unattributed = Json::obj();
        let mut worst: f64 = 0.0;
        for class in [designated.get, designated.query, designated.write] {
            let (total, covered) = roots
                .iter()
                .filter(|(s, _)| s.name == classes[class])
                .fold((0u64, 0u64), |(t, c), (s, child)| {
                    (t + s.dur_ns(), c + child.min(&s.dur_ns()))
                });
            let share = 1.0 - ratio(covered as f64, total as f64);
            unattributed.set(classes[class], share);
            worst = worst.max(share);
        }
        values.insert("bench.unattributed_share", worst);
        detail.set("unattributed_share_by_class", unattributed);

        // Key counts per class, from each transaction's own trace.
        let sum = |f: fn(&Round) -> &Vec<u64>, c: usize| traced.class_sum(f, c) as f64;
        let q = designated.query;
        values.insert(
            "core.keys_read_per_row",
            ratio(sum(|r| &r.keys_read, q), sum(|r| &r.rows, q)),
        );
        let w = designated.write;
        values.insert(
            "core.keys_written_per_save",
            ratio(sum(|r| &r.keys_written, w), sum(|r| &r.rows, w)),
        );
        if let Some(c) = classes.iter().position(|n| *n == "in_query") {
            values.insert(
                "core.in_query_keys_read_per_row",
                ratio(sum(|r| &r.keys_read, c), sum(|r| &r.rows, c)),
            );
        }
        if let Some(c) = classes.iter().position(|n| *n == "sync") {
            values.insert(
                "cloudkit.sync_keys_read_per_change",
                ratio(sum(|r| &r.keys_read, c), sum(|r| &r.rows, c)),
            );
        }

        // The program's own recorder, gate on.
        let recorded = rl_obs::Recorder::global().snapshot();
        for (metric, op) in [
            ("fdb.get_obs_p50_us", "get"),
            ("fdb.get_range_obs_p50_us", "get_range"),
            ("storage.wal_append_obs_p50_us", "wal_append"),
            ("storage.page_read_obs_p50_us", "page_read"),
            ("storage.page_flush_obs_p50_us", "page_flush"),
        ] {
            let p50 = recorded
                .get(op)
                .filter(|h| h.count() > 0)
                .map_or(0.0, |h| h.quantile(0.5) as f64 / traced_slowdown);
            values.insert(metric, p50);
        }

        // Probes below the op mix, each between two yardstick bursts.
        let yard = &mut yards;
        let (mut opens, slowdown) = bracketed(yard, || env.open_store_probe(2_000));
        values.insert(
            "core.open_store_p50_us",
            percentile_us(&mut opens, 0.5) / slowdown,
        );
        let sample = env.message_sample(if cfg.smoke { 500 } else { 10_000 });
        let (m, slowdown) = bracketed(yard, || probes::message_probe(&sample));
        values.insert(
            "message.encode_us_per_record",
            m.encode_us_per_record / slowdown,
        );
        values.insert(
            "message.decode_us_per_record",
            m.decode_us_per_record / slowdown,
        );
        values.insert(
            "message.encoded_bytes_per_user_byte",
            m.encoded_bytes_per_user_byte,
        );
        let probe_dir =
            cfg.out_dir
                .join("data")
                .join(format!("{}-{}-probe", cfg.workload, std::process::id()));
        let (p, slowdown) = bracketed(yard, || {
            probes::storage_probe(env.engine(), &probe_dir, &kvs, cfg.seed)
        });
        values.insert("storage.probe_get_p50_us", p.get_p50_us / slowdown);
        values.insert("storage.probe_range50_p50_us", p.range50_p50_us / slowdown);
        values.insert("storage.probe_commit_p50_us", p.commit_p50_us / slowdown);
        if p.lost_after_crash > 0 {
            problems.push(format!(
                "{} acknowledged batches unreadable after crash and reopen",
                p.lost_after_crash
            ));
        }
        write_raw_trace(&cfg.out_dir, &cfg.workload, &spans)?;
    }
    values.insert("peak_rss_mb", probes::peak_rss_mb());
    drop_env(env);

    // ----------------------------------------------------------- report
    if failed > 0 {
        problems.push(format!("{failed} of {attempted} ops failed"));
    }
    let wanted: &[spec::MetricDef] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<Metric> = wanted
        .iter()
        .map(|m| Metric {
            name: m.name,
            unit: m.unit,
            value: values.get(m.name).copied().unwrap_or(0.0),
        })
        .collect();
    let mut all = Json::obj();
    for (name, value) in &values {
        all.set(name, *value);
    }
    detail.set("values", all);
    detail.set("attempted", attempted);
    detail.set("failed", failed);
    detail.set(
        "retries_in_measured_rounds",
        measured.rounds.iter().map(|r| r.retries).sum::<u64>(),
    );
    detail.set(
        "problems",
        problems
            .iter()
            .map(|p| p.as_str().into())
            .collect::<Vec<Json>>(),
    );
    Ok(RunOutput {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        problems,
        detail,
    })
}

/// Run something single-threaded (a set-up, a probe) between two
/// yardstick bursts; returns its result and the slowdown to divide its
/// times by.
fn bracketed<T>(yards: &mut Yardsticks, work: impl FnOnce() -> T) -> (T, f64) {
    yards.burst(1);
    let out = work();
    yards.burst(1);
    (out, yards.take_slowdown())
}

fn root_name(spans: &[Span], s: &Span) -> &'static str {
    let mut cur = s;
    while cur.parent != crate::trace::NO_PARENT {
        cur = &spans[cur.parent as usize];
    }
    cur.name
}

/// One JSON object per span of the first [`RAW_TRACE_OPS`] operations.
fn write_raw_trace(out_dir: &Path, workload: &str, spans: &[Span]) -> Result<(), String> {
    let mut ops_seen = 0;
    let mut last_op = u64::MAX;
    let mut text = String::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent == crate::trace::NO_PARENT && s.op != last_op {
            ops_seen += 1;
            last_op = s.op;
            if ops_seen > RAW_TRACE_OPS {
                break;
            }
        }
        let line = Json::obj()
            .with("span", i)
            .with("op", s.op)
            .with("name", s.name)
            .with(
                "parent",
                if s.parent == crate::trace::NO_PARENT {
                    Json::Null
                } else {
                    Json::Num(f64::from(s.parent))
                },
            )
            .with("start_ns", s.start_ns)
            .with("end_ns", s.end_ns);
        text.push_str(&line.to_line());
        text.push('\n');
    }
    std::fs::create_dir_all(out_dir).map_err(|e| e.to_string())?;
    std::fs::write(out_dir.join(format!("{workload}.trace.jsonl")), text).map_err(|e| e.to_string())
}
