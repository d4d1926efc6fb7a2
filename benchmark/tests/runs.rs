//! Whole runs at smoke scale: the op stream and the counters repeat
//! exactly, the population holds, a slowdown put into one op class shows
//! on that class alone, and the metric names are the ones
//! `BENCHMARK.json` declares.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use rl_benchmark::driver::{run, RunConfig, RunOutput};
use rl_benchmark::items::ItemGen;
use rl_benchmark::json::Json;
use rl_benchmark::spec::{workload, MetricDef, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use rl_benchmark::stats::Better;
use rl_benchmark::tenants::TenantGen;

/// Runs toggle the process-wide `rl_obs` gate and share the clock the
/// timings come from: one at a time.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn smoke_run(name: &str, seed: u64, trace: bool, rounds: usize, tag: &str) -> RunOutput {
    handicapped_run(name, seed, trace, rounds, tag, None)
}

fn handicapped_run(
    name: &str,
    seed: u64,
    trace: bool,
    rounds: usize,
    tag: &str,
    handicap: Option<(&'static str, u64)>,
) -> RunOutput {
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{tag}"));
    let out = run(&RunConfig {
        workload: name.to_string(),
        seed,
        seconds: 1.0,
        trace,
        smoke: true,
        out_dir: out_dir.clone(),
        rounds: Some(rounds),
        handicap,
    })
    .expect("run completes");
    let _ = std::fs::remove_dir_all(out_dir);
    out
}

fn value(out: &RunOutput, name: &str) -> f64 {
    out.detail
        .get("values")
        .and_then(|v| v.get(name))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{name} not measured"))
}

#[test]
fn same_seed_same_op_multiset() {
    for name in WORKLOADS {
        let rounds = |seed: u64| -> Vec<String> {
            let mut ops: Vec<String> = match workload(name, false).expect("known workload") {
                Workload::Items(spec) => {
                    let gen = ItemGen::new(&spec, seed);
                    (0..3)
                        .flat_map(|r| gen.round(r))
                        .map(|op| format!("{op:?}"))
                        .collect()
                }
                Workload::Tenants(spec) => (0..2)
                    .flat_map(|client| {
                        let gen = TenantGen::new(&spec, seed, client);
                        (0..3).flat_map(move |r| gen.round(r))
                    })
                    .map(|op| format!("{op:?}"))
                    .collect(),
            };
            ops.sort();
            ops
        };
        assert_eq!(rounds(5), rounds(5), "{name}");
        assert_ne!(rounds(5), rounds(6), "{name}");
        // Rounds of one seed differ from each other, too.
        let distinct: BTreeSet<String> = rounds(5).into_iter().collect();
        assert!(distinct.len() > rounds(5).len() / 4, "{name}");
    }
}

#[test]
fn same_seed_same_counters_on_one_client_workloads() {
    let _guard = one_at_a_time();
    for name in ["record_mix_mem", "record_mix_paged", "query_shapes_mem"] {
        let a = smoke_run(name, 11, false, 3, "det-a");
        let b = smoke_run(name, 11, false, 3, "det-b");
        for metric in ["kv_write_bytes_per_user_byte", "stored_bytes_per_user_byte"] {
            assert_eq!(value(&a, metric), value(&b, metric), "{name} {metric}");
            assert!(value(&a, metric) > 0.0, "{name} {metric}");
        }
        let a = smoke_run(name, 11, true, 3, "det-a");
        let b = smoke_run(name, 11, true, 3, "det-b");
        for metric in [
            "core.keys_read_per_row",
            "core.keys_written_per_save",
            "fdb.keys_read_per_op",
        ] {
            assert_eq!(value(&a, metric), value(&b, metric), "{name} {metric}");
            assert!(value(&a, metric) > 0.0, "{name} {metric}");
        }
        assert_eq!(
            value(&a, "fdb.conflict_retry_share"),
            0.0,
            "{name}: one client never conflicts"
        );
    }
}

#[test]
fn population_is_constant_and_nothing_fails() {
    let _guard = one_at_a_time();
    for name in WORKLOADS {
        let out = smoke_run(name, 3, false, 3, "population");
        assert!(out.correct, "{name}: {:?}", out.problems);
        assert_eq!(out.failed, 0, "{name}");
        assert!(out.attempted > 0, "{name}");
        let detail = |k: &str| out.detail.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        assert!(detail("population") > 0.0, "{name}");
        assert_eq!(detail("measured_rounds"), 3.0, "{name}");
    }
}

/// The measurement measures what the program does and nothing else: a
/// 2 ms spin put into every `update` must show on `write_*` in full and
/// on the other classes not at all, and the yardstick must scale every
/// class of a run alike. (A yardstick interleaved with the ops, as this
/// benchmark first had, cannot promise that: how warm a slice runs
/// depends on how long the op before it was.)
#[test]
fn a_slowdown_shows_on_its_own_class_only() {
    let _guard = one_at_a_time();
    const SPIN_US: f64 = 2_000.0;
    let wall_clock = |out: &RunOutput, name: &str| -> f64 {
        out.detail
            .get("wall_clock_values")
            .and_then(|v| v.get(name))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{name} not measured"))
    };
    for name in ["record_mix_mem", "query_shapes_mem"] {
        let plain = handicapped_run(name, 9, false, 6, "spin-a", None);
        let slowed = handicapped_run(
            name,
            9,
            false,
            6,
            "spin-b",
            Some(("update", (SPIN_US * 1e3) as u64)),
        );
        let added = |metric: &str| wall_clock(&slowed, metric) - wall_clock(&plain, metric);
        for metric in ["write_p50_us", "write_p95_us"] {
            let d = added(metric);
            assert!(
                (0.8 * SPIN_US..1.3 * SPIN_US).contains(&d),
                "{name} {metric} moved by {d} µs"
            );
        }
        // A tenth of the spin is far above what two runs of the same
        // code differ by at this scale, and far below the spin.
        for metric in ["get_p50_us", "query_p50_us"] {
            let d = added(metric);
            assert!(d.abs() < 0.1 * SPIN_US, "{name} {metric} moved by {d} µs");
        }
        // The yardstick never runs beside the ops, so the normalised
        // values are the wall-clock ones times one factor per run.
        let factor = |out: &RunOutput, m: &str| value(out, m) / wall_clock(out, m);
        for out in [&plain, &slowed] {
            let f = factor(out, "get_p50_us");
            for metric in ["query_p50_us", "write_p50_us", "write_p95_us"] {
                assert!(
                    (factor(out, metric) / f - 1.0).abs() < 1e-9,
                    "{name} {metric}"
                );
            }
        }
    }
}

#[test]
fn bypass_predictions_hold() {
    let _guard = one_at_a_time();
    let mem = smoke_run("record_mix_mem", 4, true, 3, "bypass");
    let paged = smoke_run("record_mix_paged", 4, true, 3, "bypass");
    for counter in [
        "storage.page_hit_rate",
        "storage.pages_touched_per_read",
        "storage.wal_appends_per_commit",
        "storage.device_write_bytes_per_kv_byte",
        "storage.file_bytes_per_live_kv_byte",
    ] {
        let reported = |out: &RunOutput| {
            out.metrics
                .iter()
                .find(|m| m.name == counter)
                .map(|m| m.value)
        };
        assert_eq!(reported(&mem), Some(0.0), "{counter} on the memory engine");
        assert!(reported(&paged).is_some_and(|v| v > 0.0), "{counter}");
    }
    assert_eq!(value(&paged, "storage.wal_appends_per_commit"), 1.0);
    assert!(paged.correct, "{:?}", paged.problems);
}

#[test]
fn smoke_emits_exactly_the_declared_metrics() {
    let _guard = one_at_a_time();
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the root of the repository");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let declared = |key: &str| -> Vec<(String, String, String)> {
        doc.get(key)
            .expect(key)
            .as_arr()
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    };
    let in_spec = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
        defs.iter()
            .map(|m| {
                let better = match m.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                (m.name.to_string(), m.unit.to_string(), better.to_string())
            })
            .collect()
    };
    assert_eq!(in_spec(&END_TO_END), declared("end_to_end"));
    assert_eq!(in_spec(&PER_LAYER), declared("per_layer"));
    let names_and_units = |key: &str| -> Vec<(String, String)> {
        declared(key).into_iter().map(|(n, u, _)| (n, u)).collect()
    };
    let names: Vec<String> = doc
        .get("workloads")
        .expect("workloads")
        .as_arr()
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(names, WORKLOADS);

    let t0 = Instant::now();
    for name in WORKLOADS {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let out = smoke_run(name, 1, trace, 1, "names");
            let emitted: Vec<(String, String)> = out
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(emitted, names_and_units(key), "{name} trace={trace}");
            assert!(out.correct, "{name}: {:?}", out.problems);

            // The result line: exactly the contract's keys, every value a
            // finite number, end-to-end metrics never zero.
            let line = Json::parse(&out.result_line()).expect("result line parses");
            let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            for (metric, v) in line.get("metrics").expect("metrics").fields() {
                let value = v.get("value").and_then(Json::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{name} {metric}");
                if !trace {
                    assert!(value.is_some_and(|v| v > 0.0), "{name} {metric} is zero");
                }
            }
        }
    }
    assert!(t0.elapsed().as_secs() < 20, "smoke took {:?}", t0.elapsed());
}
