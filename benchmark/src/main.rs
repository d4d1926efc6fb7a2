//! `rl_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this process, prints every metric by name and
//! unit, and ends standard output with one JSON result line. Exits 1 when
//! an op failed or a check did not hold, 2 on a usage error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use rl_benchmark::driver::{run, RunConfig};
use rl_benchmark::repeat::check_repeat;
use rl_benchmark::spec::WORKLOADS;

fn usage() -> ExitCode {
    eprintln!(
        "usage: rl_benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
         [--smoke] [--out DIR]\n       rl_benchmark --check-repeat K [--out DIR]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut cfg = RunConfig {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from("benchmark/out"),
        rounds: None,
        handicap: None,
    };
    let mut check_repeat_runs = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        // Both `--key value` and `--key=value`.
        let (key, inline) = match arg.split_once('=') {
            Some((k, v)) => (k.to_string(), Some(v.to_string())),
            None => (arg, None),
        };
        let mut value = || inline.clone().or_else(|| args.next());
        let parsed = match key.as_str() {
            "--workload" => value().map(|v| cfg.workload = v),
            "--seed" => value().and_then(|v| v.parse().ok()).map(|v| cfg.seed = v),
            "--seconds" => value()
                .and_then(|v| v.parse().ok())
                .filter(|s: &f64| *s > 0.0)
                .map(|v| cfg.seconds = v),
            "--trace" => value()
                .filter(|v| v == "0" || v == "1")
                .map(|v| cfg.trace = v == "1"),
            "--out" => value().map(|v| cfg.out_dir = PathBuf::from(v)),
            "--smoke" => {
                cfg.smoke = true;
                Some(())
            }
            "--check-repeat" => value()
                .and_then(|v| v.parse().ok())
                .filter(|k: &usize| *k > 0)
                .map(|k| check_repeat_runs = Some(k)),
            _ => None,
        };
        if parsed.is_none() {
            eprintln!("bad argument: {key}");
            return usage();
        }
    }
    if let Some(k) = check_repeat_runs {
        return match check_repeat(k, Path::new("BENCHMARK.json"), &cfg.out_dir) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("check-repeat error: {e}");
                ExitCode::from(1)
            }
        };
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return usage();
    }

    let out = match run(&cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("benchmark error: {e}");
            return ExitCode::from(1);
        }
    };
    let suffix = if cfg.trace { ".layers" } else { "" };
    let path = cfg.out_dir.join(format!("{}{suffix}.json", cfg.workload));
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir)
        .and_then(|()| std::fs::write(&path, out.detail.to_pretty()))
    {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::from(1);
    }

    println!(
        "{} seed={} trace={} ops attempted={} failed={}",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.trace),
        out.attempted,
        out.failed
    );
    for m in &out.metrics {
        println!("  {:<42} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for p in &out.problems {
        eprintln!("FAILED CHECK: {p}");
    }
    println!("{}", out.result_line());
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
