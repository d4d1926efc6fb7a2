//! Integration smoke: run a tiny scenario on both storage engines,
//! check the emitted JSON round-trips, carries the required schema, and
//! is key-identical across engines; then exercise `--compare` logic on
//! the real reports (self-compare clean, doctored regression caught).

use rl_fdb::{EngineKind, PagedConfig};
use rl_harness::json::Json;
use rl_harness::{compare, presets, report, run_scenario};

fn tiny_scenario() -> rl_harness::Scenario {
    let mut s = presets::mixed_default();
    s.records_per_tenant = 200;
    s.tenants = 2;
    s.total_ops = 300;
    s.threads = 2;
    s
}

fn collect_keys(v: &Json, prefix: &str, out: &mut Vec<String>) {
    if let Some(entries) = v.as_object() {
        for (k, child) in entries {
            let path = if prefix.is_empty() {
                k.clone()
            } else {
                format!("{prefix}.{k}")
            };
            out.push(path.clone());
            collect_keys(child, &path, out);
        }
    }
}

#[test]
fn reports_are_schema_stable_across_engines() {
    let scenario = tiny_scenario();
    let mem = run_scenario(&scenario, EngineKind::InMemory);
    let paged = run_scenario(&scenario, EngineKind::Paged(PagedConfig::ephemeral()));

    let mem_json = report::to_json(&mem);
    let paged_json = report::to_json(&paged);

    // Round-trip: parse(to_pretty(v)) == v.
    let text = mem_json.to_pretty();
    assert_eq!(Json::parse(&text).unwrap(), mem_json);

    // Required top-level schema.
    for key in [
        "schema_version",
        "scenario",
        "engine",
        "totals",
        "op_classes",
        "query_shapes",
        "extras",
    ] {
        assert!(mem_json.get(key).is_some(), "missing {key}");
    }
    assert_eq!(
        mem_json.get_path("engine.kind").unwrap().as_str(),
        Some("memory")
    );
    assert_eq!(
        paged_json.get_path("engine.kind").unwrap().as_str(),
        Some("paged")
    );

    // >= 4 query-shape classes with integer latency percentiles,
    // throughput, and conflict rate.
    let classes = mem_json.get("op_classes").unwrap();
    let shape_classes: Vec<&str> = classes
        .keys()
        .into_iter()
        .filter(|k| {
            [
                "range_scan",
                "covering_scan",
                "intersection",
                "union",
                "in_query",
            ]
            .contains(k)
        })
        .collect();
    assert!(
        shape_classes.len() >= 4,
        "need >= 4 query shapes, got {shape_classes:?}"
    );
    for name in classes.keys() {
        let class = classes.get(name).unwrap();
        for metric in ["throughput_ops_s", "conflict_rate"] {
            assert!(class.get(metric).is_some(), "{name} missing {metric}");
        }
        for q in ["p50", "p95", "p99"] {
            let v = class
                .get_path(&format!("latency_us.{q}"))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{name} missing latency {q}"));
            assert_eq!(v.fract(), 0.0, "{name} {q} must be integral");
        }
    }

    // Both engines completed the whole op budget with no errors.
    for (label, j) in [("memory", &mem_json), ("paged", &paged_json)] {
        let ops = j.get_path("totals.ops").unwrap().as_f64().unwrap();
        let errors = j.get_path("totals.errors").unwrap().as_f64().unwrap();
        assert_eq!(ops, scenario.total_ops as f64, "{label} dropped ops");
        assert_eq!(errors, 0.0, "{label} had op errors");
    }

    // Identical recursive key sets across engines.
    let mut mem_keys = Vec::new();
    let mut paged_keys = Vec::new();
    collect_keys(&mem_json, "", &mut mem_keys);
    collect_keys(&paged_json, "", &mut paged_keys);
    assert_eq!(mem_keys, paged_keys, "schema differs across engines");

    // Self-compare is clean; a doctored throughput regression trips.
    let cmp = compare::compare_reports(&mem_json, &mem_json, 0.25).unwrap();
    assert!(!cmp.has_regressions());

    let mut doctored = mem_json.clone();
    let old_thr = mem_json
        .get_path("totals.throughput_ops_s")
        .unwrap()
        .as_f64()
        .unwrap();
    let mut totals = doctored.get("totals").unwrap().clone();
    totals.set("throughput_ops_s", old_thr * 0.25);
    doctored.set("totals", totals);
    let cmp = compare::compare_reports(&mem_json, &doctored, 0.25).unwrap();
    assert!(cmp.has_regressions(), "doctored regression not detected");
}

#[test]
fn extras_presets_produce_their_measurements() {
    // fig1: store-size distribution over many tenants.
    let mut fig1 = presets::fig1_store_sizes();
    fig1.tenants = 16;
    fig1.records_per_tenant = 8;
    fig1.total_ops = 100;
    fig1.threads = 2;
    let result = run_scenario(&fig1, EngineKind::InMemory);
    let sizes = result
        .store_sizes
        .as_ref()
        .expect("fig1 measures store sizes");
    assert_eq!(sizes.stores, 16);
    assert!(sizes.total_bytes > 0);
    assert!(sizes.bytes_in_top_decile_fraction > 0.0);
    let j = report::to_json(&result);
    assert!(j.get_path("extras.store_sizes.total_bytes").is_some());

    // table2: text index stats.
    let mut tab2 = presets::table2_text_bunching();
    tab2.records_per_tenant = 40;
    tab2.total_ops = 60;
    tab2.threads = 1;
    let result = run_scenario(&tab2, EngineKind::InMemory);
    let text = result
        .text_stats
        .as_ref()
        .expect("table2 measures the text index");
    assert!(text.index_keys > 0);
    assert!(text.average_bunch_size > 1.0, "bunches should fill");
    let j = report::to_json(&result);
    assert!(j.get_path("extras.text_stats.index_keys").is_some());
}

#[test]
fn runs_are_deterministic_in_op_counts() {
    // Same scenario + seed: identical per-class op counts and rows read
    // (latency and interleavings differ, the op stream must not).
    let mut s = tiny_scenario();
    s.threads = 2;
    let a = run_scenario(&s, EngineKind::InMemory);
    let b = run_scenario(&s, EngineKind::InMemory);
    let counts = |r: &rl_harness::driver::RunResult| {
        r.classes
            .iter()
            .map(|c| (c.kind, c.ops))
            .collect::<Vec<_>>()
    };
    let total = |r: &rl_harness::driver::RunResult| r.classes.iter().map(|c| c.ops).sum::<u64>();
    assert_eq!(total(&a), s.total_ops);
    assert_eq!(counts(&a).len(), counts(&b).len());
    // Per-class counts can shift by which worker claimed which ticket;
    // totals must hold exactly.
    assert_eq!(total(&a), total(&b));
}
