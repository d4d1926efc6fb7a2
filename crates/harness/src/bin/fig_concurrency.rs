//! `fig_concurrency` — the parallel-simulator scaling bench.
//!
//! Sweeps the concurrency presets (`concurrency_scaling`,
//! `concurrency_contended`, and the paper's `table1_concurrency` hot-set
//! row) across a thread ladder on each storage engine, and emits one
//! `BENCH_concurrency.json` with per-run throughput, latency
//! percentiles, and conflict rates plus a per-(workload, engine)
//! speedup summary.
//!
//! The headline number is `scaling.concurrency_scaling.memory.speedup`:
//! disjoint-tenant workers commit through disjoint conflict shards, so
//! throughput at 8 threads should be a multiple of 1-thread throughput
//! now that the simulator no longer serializes on one global mutex. The
//! contended sweep is the control: one hot tenant shared by all
//! workers, where extra threads mostly buy conflicts, not throughput.
//!
//! ```text
//! fig_concurrency [--threads=1,2,4,8] [--engines=memory,paged]
//!                 [--workloads=a,b,...] [--ops=N] [--out=PATH]
//! ```

use rl_fdb::EngineKind;
use rl_harness::json::Json;
use rl_harness::{presets, run_scenario};
use rl_obs::HistogramSnapshot;

/// Bumped when the report layout changes incompatibly.
const SCHEMA_VERSION: u64 = 1;

const DEFAULT_WORKLOADS: [&str; 3] = [
    "concurrency_scaling",
    "concurrency_contended",
    "table1_concurrency",
];

fn usage() -> ! {
    eprintln!(
        "usage: fig_concurrency [--threads=1,2,4,8] [--engines=memory,paged]\n                       [--workloads=name,...] [--ops=N] [--out=PATH]"
    );
    std::process::exit(1);
}

/// One sweep cell, aggregated over every op class in the run.
struct Cell {
    workload: String,
    engine: String,
    threads: usize,
    think_time_us: u64,
    ops: u64,
    attempts: u64,
    conflicts: u64,
    errors: u64,
    elapsed_s: f64,
    throughput_ops_s: f64,
    latency_us: HistogramSnapshot,
}

fn run_cell(name: &str, engine: &EngineKind, threads: usize, ops: Option<u64>) -> Cell {
    let mut scenario = presets::by_name(name).unwrap_or_else(|| {
        eprintln!("unknown workload {name:?}");
        std::process::exit(1);
    });
    scenario.threads = threads;
    if let Some(n) = ops {
        scenario.total_ops = n;
    }
    scenario.validate().expect("sweep scenario must validate");

    let result = run_scenario(&scenario, engine.clone());
    let ops: u64 = result.classes.iter().map(|c| c.ops).sum();
    let mut latency_us = rl_obs::Histogram::new().snapshot();
    for c in &result.classes {
        latency_us.merge(&c.latency_us);
    }
    Cell {
        workload: name.to_string(),
        engine: result.engine_kind,
        threads,
        think_time_us: scenario.think_time_us,
        ops,
        attempts: result.classes.iter().map(|c| c.attempts).sum(),
        conflicts: result.classes.iter().map(|c| c.conflicts).sum(),
        errors: result.classes.iter().map(|c| c.errors).sum(),
        elapsed_s: result.elapsed_s,
        throughput_ops_s: if result.elapsed_s > 0.0 {
            ops as f64 / result.elapsed_s
        } else {
            0.0
        },
        latency_us,
    }
}

fn round1(v: f64) -> f64 {
    (v * 10.0).round() / 10.0
}

fn round4(v: f64) -> f64 {
    (v * 10_000.0).round() / 10_000.0
}

fn cell_json(c: &Cell) -> Json {
    Json::obj()
        .with("workload", c.workload.as_str())
        .with("engine", c.engine.as_str())
        .with("threads", c.threads)
        .with("think_time_us", c.think_time_us)
        .with("ops", c.ops)
        .with("attempts", c.attempts)
        .with("conflicts", c.conflicts)
        .with("errors", c.errors)
        .with(
            "conflict_rate",
            round4(if c.attempts > 0 {
                c.conflicts as f64 / c.attempts as f64
            } else {
                0.0
            }),
        )
        .with("elapsed_s", round4(c.elapsed_s))
        .with("throughput_ops_s", round1(c.throughput_ops_s))
        .with("p50_us", c.latency_us.quantile(0.50))
        .with("p95_us", c.latency_us.quantile(0.95))
        .with("p99_us", c.latency_us.quantile(0.99))
}

fn main() {
    let mut threads: Vec<usize> = vec![1, 2, 4, 8];
    let mut engine_specs: Vec<String> = vec!["memory".into(), "paged".into()];
    let mut workloads: Vec<String> = DEFAULT_WORKLOADS.iter().map(|s| s.to_string()).collect();
    let mut ops: Option<u64> = None;
    let mut out_path = "BENCH_concurrency.json".to_string();

    for arg in std::env::args().skip(1) {
        if let Some(v) = arg.strip_prefix("--threads=") {
            threads = v
                .split(',')
                .map(|t| t.parse().unwrap_or_else(|_| usage()))
                .collect();
        } else if let Some(v) = arg.strip_prefix("--engines=") {
            engine_specs = v.split(',').map(str::to_string).collect();
        } else if let Some(v) = arg.strip_prefix("--workloads=") {
            workloads = v.split(',').map(str::to_string).collect();
        } else if let Some(v) = arg.strip_prefix("--ops=") {
            ops = Some(v.parse().unwrap_or_else(|_| usage()));
        } else if let Some(v) = arg.strip_prefix("--out=") {
            out_path = v.to_string();
        } else {
            eprintln!("unknown argument: {arg}");
            usage();
        }
    }
    if threads.is_empty() || engine_specs.is_empty() || workloads.is_empty() {
        usage();
    }

    let engines: Vec<EngineKind> = engine_specs
        .iter()
        .map(|s| {
            EngineKind::from_spec(s).unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(1);
            })
        })
        .collect();

    println!(
        "{:<22} {:<8} {:>7} {:>12} {:>9} {:>9} {:>9} {:>10}",
        "workload", "engine", "threads", "ops/s", "p50_us", "p95_us", "p99_us", "conflict%"
    );
    let mut cells: Vec<Cell> = Vec::new();
    for name in &workloads {
        for engine in &engines {
            for &t in &threads {
                let cell = run_cell(name, engine, t, ops);
                println!(
                    "{:<22} {:<8} {:>7} {:>12.1} {:>9} {:>9} {:>9} {:>9.2}%",
                    cell.workload,
                    cell.engine,
                    cell.threads,
                    cell.throughput_ops_s,
                    cell.latency_us.quantile(0.50),
                    cell.latency_us.quantile(0.95),
                    cell.latency_us.quantile(0.99),
                    if cell.attempts > 0 {
                        cell.conflicts as f64 / cell.attempts as f64 * 100.0
                    } else {
                        0.0
                    },
                );
                cells.push(cell);
            }
        }
    }

    // Per-(workload, engine) speedup: slowest ladder rung vs fastest.
    let mut scaling = Json::obj();
    for name in &workloads {
        let mut per_engine = Json::obj();
        for engine in &engines {
            let kind = engine.kind_name();
            let group: Vec<&Cell> = cells
                .iter()
                .filter(|c| &c.workload == name && c.engine == kind)
                .collect();
            let lo = group.iter().min_by_key(|c| c.threads).unwrap();
            let hi = group.iter().max_by_key(|c| c.threads).unwrap();
            let speedup = if lo.throughput_ops_s > 0.0 {
                hi.throughput_ops_s / lo.throughput_ops_s
            } else {
                0.0
            };
            per_engine.set(
                kind,
                Json::obj()
                    .with("threads_lo", lo.threads)
                    .with("threads_hi", hi.threads)
                    .with("throughput_lo_ops_s", round1(lo.throughput_ops_s))
                    .with("throughput_hi_ops_s", round1(hi.throughput_ops_s))
                    .with("speedup", round4(speedup)),
            );
            println!(
                "scaling {name} on {kind}: {:.1} -> {:.1} ops/s ({}t -> {}t) = {:.2}x",
                lo.throughput_ops_s, hi.throughput_ops_s, lo.threads, hi.threads, speedup
            );
        }
        scaling.set(name, per_engine);
    }

    let doc = Json::obj()
        .with("schema_version", SCHEMA_VERSION)
        .with(
            "threads",
            threads
                .iter()
                .map(|&t| Json::from(t))
                .collect::<Vec<Json>>(),
        )
        .with("runs", cells.iter().map(cell_json).collect::<Vec<Json>>())
        .with("scaling", scaling);
    std::fs::write(&out_path, doc.to_pretty()).unwrap_or_else(|e| {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    });
    println!("wrote {out_path}");
}
