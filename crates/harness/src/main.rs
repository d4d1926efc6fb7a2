//! `rl_harness` — run a named workload scenario, or compare two runs.
//!
//! ```text
//! rl_harness --list
//! rl_harness --scenario=mixed_default [--engine=paged] [--ops=N]
//!            [--threads=N] [--records=N] [--tenants=N] [--seed=N]
//!            [--out=PATH]
//! rl_harness --compare old.json new.json [--threshold=25]
//! ```
//!
//! Exit codes: 0 success, 1 usage or I/O error, 2 regressions found.

use rl_fdb::EngineKind;
use rl_harness::json::Json;
use rl_harness::{compare, presets, report, run_scenario};

fn usage() -> ! {
    eprintln!(
        "usage:\n  rl_harness --list\n  rl_harness --scenario=<name> [--engine=<memory|paged>]\n             [--ops=N] [--threads=N] [--records=N] [--tenants=N] [--seed=N] [--out=PATH]\n  rl_harness --compare <old.json> <new.json> [--threshold=<percent>]"
    );
    std::process::exit(1);
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("invalid value for {flag}: {value:?}");
        std::process::exit(1);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }

    let mut scenario_name: Option<String> = None;
    let mut engine_spec: Option<String> = None;
    let mut out_path = "BENCH_workload.json".to_string();
    let mut compare_files: Vec<String> = Vec::new();
    let mut threshold = compare::DEFAULT_THRESHOLD;
    let mut ops: Option<u64> = None;
    let mut threads: Option<usize> = None;
    let mut records: Option<usize> = None;
    let mut tenants: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut comparing = false;

    for arg in args.iter() {
        if let Some(value) = arg.strip_prefix("--scenario=") {
            scenario_name = Some(value.to_string());
        } else if let Some(value) = arg.strip_prefix("--engine=") {
            engine_spec = Some(value.to_string());
        } else if let Some(value) = arg.strip_prefix("--out=") {
            out_path = value.to_string();
        } else if let Some(value) = arg.strip_prefix("--threshold=") {
            threshold = parse::<f64>("--threshold", value) / 100.0;
        } else if let Some(value) = arg.strip_prefix("--ops=") {
            ops = Some(parse("--ops", value));
        } else if let Some(value) = arg.strip_prefix("--threads=") {
            threads = Some(parse("--threads", value));
        } else if let Some(value) = arg.strip_prefix("--records=") {
            records = Some(parse("--records", value));
        } else if let Some(value) = arg.strip_prefix("--tenants=") {
            tenants = Some(parse("--tenants", value));
        } else if let Some(value) = arg.strip_prefix("--seed=") {
            seed = Some(parse("--seed", value));
        } else if arg == "--list" {
            println!("{:<22} description", "scenario");
            for preset in presets::all() {
                println!("{:<22} {}", preset.name, preset.description);
            }
            return;
        } else if arg == "--compare" {
            comparing = true;
        } else if comparing && !arg.starts_with("--") {
            compare_files.push(arg.clone());
        } else {
            eprintln!("unknown argument: {arg}");
            usage();
        }
    }

    if comparing {
        if compare_files.len() != 2 {
            eprintln!("--compare needs exactly two files");
            usage();
        }
        let load = |path: &str| -> Json {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            });
            Json::parse(&text).unwrap_or_else(|e| {
                eprintln!("cannot parse {path}: {e}");
                std::process::exit(1);
            })
        };
        let old = load(&compare_files[0]);
        let new = load(&compare_files[1]);
        let cmp = compare::compare_reports(&old, &new, threshold).unwrap_or_else(|e| {
            eprintln!("compare failed: {e}");
            std::process::exit(1);
        });
        if compare::print_comparison(&cmp, threshold) {
            std::process::exit(2);
        }
        return;
    }

    let Some(name) = scenario_name else {
        usage();
    };
    let Some(mut scenario) = presets::by_name(&name) else {
        eprintln!("unknown scenario {name:?}; --list shows the registry");
        std::process::exit(1);
    };
    if let Some(n) = ops {
        scenario.total_ops = n;
    }
    if let Some(n) = threads {
        scenario.threads = n;
    }
    if let Some(n) = records {
        scenario.records_per_tenant = n;
    }
    if let Some(n) = tenants {
        scenario.tenants = n;
    }
    if let Some(n) = seed {
        scenario.seed = n;
    }
    if let Err(e) = scenario.validate() {
        eprintln!("invalid scenario after overrides: {e}");
        std::process::exit(1);
    }

    // Engine: explicit flag wins, otherwise honour RL_ENGINE like the
    // test suite does.
    let engine = match engine_spec.or_else(|| std::env::var("RL_ENGINE").ok()) {
        Some(spec) => EngineKind::from_spec(&spec).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(1);
        }),
        None => EngineKind::InMemory,
    };

    let result = run_scenario(&scenario, engine);
    report::print_table(&result);
    let json = report::to_json(&result);
    std::fs::write(&out_path, json.to_pretty()).unwrap_or_else(|e| {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    });
    println!("wrote {out_path}");
}
