//! `check_repeat`: does the benchmark agree with itself?
//!
//! Runs the suite `k` times as two interleaved sets A and B of the same
//! binary (every run with another seed, each workload in its own child
//! process), and compares the sets' medians metric by metric against the
//! bounds fixed in `BENCHMARK.json`. Two sets of runs of the same code
//! that disagree by more than a bound mean the bound could not tell a
//! regression from noise.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use crate::json::Json;
use crate::spec::WORKLOADS;
use crate::stats::{median, spread_across_runs};

/// Largest median `bench.drift_share` a workload may show. Two workloads
/// have a drift that is the program's and that no warm-up ends
/// (`cloudkit_tenants_fit`: the page file grows at constant population;
/// `query_shapes_mem`: every class slows by 5 to 15 % over 70 000 ops while
/// the stored bytes stay the same), 2 to 6 % over their measured rounds.
/// The gate is for the benchmark itself losing its steady state, as the
/// first attempt did (34 % over a run).
const MAX_DRIFT: f64 = 0.10;

struct Bound {
    name: String,
    unit: String,
    bound: f64,
}

fn bounds(benchmark_json: &Path) -> Result<(Vec<Bound>, f64), String> {
    let text = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
    let doc = Json::parse(&text)?;
    let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
    let bounds = doc
        .get("end_to_end")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            Some(Bound {
                name: field(m, "name")?,
                unit: field(m, "unit")?,
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<Bound>>>()
        .ok_or("BENCHMARK.json: malformed end_to_end entry")?;
    let seconds = doc
        .get("run_seconds")
        .and_then(Json::as_f64)
        .ok_or("BENCHMARK.json: no run_seconds")?;
    Ok((bounds, seconds))
}

struct RunResult {
    metrics: BTreeMap<String, f64>,
    /// The timing metrics again, from wall-clock times: what they would
    /// have been without the yardstick.
    wall_clock: BTreeMap<String, f64>,
    failed: f64,
    correct: bool,
    drift: f64,
}

fn run_child(workload: &str, seed: u64, seconds: f64, out_dir: &Path) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .arg("--out")
        .arg(out_dir)
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} seed {seed}: no result line"))?;
    let result = Json::parse(line)?;
    let metrics = result
        .get("metrics")
        .map(Json::fields)
        .unwrap_or_default()
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    let detail = std::fs::read_to_string(out_dir.join(format!("{workload}.json")))
        .map_err(|e| e.to_string())
        .and_then(|t| Json::parse(&t))?;
    let wall_clock = detail
        .get("wall_clock_values")
        .map(Json::fields)
        .unwrap_or_default()
        .iter()
        .filter_map(|(name, v)| Some((name.clone(), v.as_f64()?)))
        .collect();
    Ok(RunResult {
        metrics,
        wall_clock,
        failed: result.get("failed").and_then(Json::as_f64).unwrap_or(1.0),
        correct: result.get("correct") == Some(&Json::Bool(true)) && out.status.success(),
        drift: detail
            .get("values")
            .and_then(|v| v.get("bench.drift_share"))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN),
    })
}

/// Prints a markdown report on standard output; `Ok(true)` when every
/// gap is within its bound, no workload drifts and no op failed.
pub fn check_repeat(k: usize, benchmark_json: &Path, out_dir: &Path) -> Result<bool, String> {
    let (bounds, seconds) = bounds(benchmark_json)?;
    // sets[set][workload] = that set's runs.
    let mut sets: [BTreeMap<&str, Vec<RunResult>>; 2] = [BTreeMap::new(), BTreeMap::new()];
    for rep in 0..k {
        for (s, set) in sets.iter_mut().enumerate() {
            for w in WORKLOADS {
                let seed = (2 * rep + s + 1) as u64;
                eprintln!("run {}/{k} set {} {w} seed {seed}", rep + 1, ["A", "B"][s]);
                set.entry(w)
                    .or_default()
                    .push(run_child(w, seed, seconds, out_dir)?);
            }
        }
    }

    let mut ok = true;
    println!("# Repeatability of the benchmark against itself");
    println!();
    println!(
        "`benchmark/check_repeat.sh {k}`: {k} runs per set of {seconds} s each, sets A and B \
         interleaved, same binary, a different seed every run, {} hardware threads. \
         `gap` is |median B − median A| ÷ median A; `spread` is the interquartile range of all \
         {} runs ÷ their median (quartiles as Python's `statistics.quantiles`); `wall-clock \
         spread` is the same for the metric computed from the same runs' wall-clock times, \
         before the yardstick divides them.",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        2 * k
    );
    for w in WORKLOADS {
        let runs = |s: usize| sets[s][w].iter();
        let failed: f64 = runs(0).chain(runs(1)).map(|r| r.failed).sum();
        let all_correct = runs(0).chain(runs(1)).all(|r| r.correct);
        let drifts: Vec<f64> = runs(0).chain(runs(1)).map(|r| r.drift).collect();
        let drift = median(&drifts);
        println!();
        println!("## {w}");
        println!();
        println!(
            "failed ops: {failed}; checks passed: {all_correct}; median `bench.drift_share`: \
             {:.2} % (limit {:.0} %)",
            drift * 100.0,
            MAX_DRIFT * 100.0
        );
        println!();
        println!(
            "| metric | unit | median A | median B | gap | bound | spread | wall-clock spread | |"
        );
        println!("|---|---|---:|---:|---:|---:|---:|---:|---|");
        if failed > 0.0 || !all_correct || drift.abs() > MAX_DRIFT || drift.is_nan() {
            ok = false;
        }
        for b in &bounds {
            let values = |s: usize| -> Vec<f64> {
                runs(s)
                    .filter_map(|r| r.metrics.get(&b.name).copied())
                    .collect()
            };
            let (a, bb) = (values(0), values(1));
            if a.len() != k || bb.len() != k {
                return Err(format!("{w}: metric {} missing from a run", b.name));
            }
            let (ma, mb) = (median(&a), median(&bb));
            let gap = (mb - ma).abs() / ma;
            let all: Vec<f64> = a.iter().chain(&bb).copied().collect();
            let spread = spread_across_runs(&all);
            let wall_clock: Vec<f64> = runs(0)
                .chain(runs(1))
                .filter_map(|r| r.wall_clock.get(&b.name).copied())
                .collect();
            let wall_clock_spread = if wall_clock.len() == all.len() {
                format!("{:.2} %", spread_across_runs(&wall_clock) * 100.0)
            } else {
                String::new()
            };
            let within = gap <= b.bound;
            ok &= within;
            println!(
                "| `{}` | {} | {ma:.4} | {mb:.4} | {:.2} % | {:.0} % | {:.2} % | {} | {} |",
                b.name,
                b.unit,
                gap * 100.0,
                b.bound * 100.0,
                spread * 100.0,
                wall_clock_spread,
                if within { "" } else { "OVER" }
            );
        }
    }
    println!();
    println!("Result: {}", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}
