//! Integration smoke: run a tiny scenario on both storage engines,
//! check the emitted JSON round-trips, carries the required schema, and
//! is key-identical across engines; then exercise `--compare` logic on
//! the real reports (a rerun's counts are equal, a doctored time passes,
//! a doctored count is caught, a multi-threaded report is refused).

use rl_fdb::{EngineKind, PagedConfig};
use rl_harness::json::Json;
use rl_harness::{compare, presets, report, run_scenario};

fn tiny_scenario() -> rl_harness::Scenario {
    let mut s = presets::mixed_default();
    s.records_per_tenant = 200;
    s.tenants = 2;
    s.total_ops = 300;
    s.threads = 1;
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

    // A time is not gated: throughput cut to a quarter still passes.
    let mut slower = mem_json.clone();
    let old_thr = mem_json
        .get_path("totals.throughput_ops_s")
        .unwrap()
        .as_f64()
        .unwrap();
    let mut totals = slower.get("totals").unwrap().clone();
    totals.set("throughput_ops_s", old_thr * 0.25);
    slower.set("totals", totals);
    let cmp = compare::compare_reports(&mem_json, &slower).unwrap();
    assert!(!cmp.has_regressions(), "{:?}", cmp.regressions);

    // A count is: one more key read by one update fails.
    let mut doctored = mem_json.clone();
    let mut classes = doctored.get("op_classes").unwrap().clone();
    let mut update = classes.get("update").unwrap().clone();
    let mut keys = update.get("keys").unwrap().clone();
    let read = keys.get("read").unwrap().as_f64().unwrap();
    keys.set("read", read + 1.0);
    update.set("keys", keys);
    classes.set("update", update);
    doctored.set("op_classes", classes);
    let cmp = compare::compare_reports(&mem_json, &doctored).unwrap();
    assert_eq!(
        cmp.regressions,
        [format!(
            "op_classes.update.keys.read: {read} -> {}",
            read + 1.0
        )]
    );
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
    // Same scenario + seed on one thread: every count of the report
    // repeats on either engine, page traffic included (only times move).
    // The paged pool is smaller than the tiny population, so it misses.
    let s = tiny_scenario();
    let engines: [fn() -> EngineKind; 2] = [
        || EngineKind::InMemory,
        || {
            EngineKind::Paged(PagedConfig {
                pool_pages: 16,
                ..PagedConfig::ephemeral()
            })
        },
    ];
    for engine in engines {
        let a = report::to_json(&run_scenario(&s, engine()));
        let b = report::to_json(&run_scenario(&s, engine()));
        let cmp = compare::compare_reports(&a, &b).unwrap();
        assert!(!cmp.has_regressions(), "{:?}", cmp.regressions);
        if a.get_path("engine.kind").and_then(Json::as_str) == Some("paged") {
            let misses = a.get_path("work.page_misses").and_then(Json::as_f64);
            assert!(misses > Some(0.0), "no page misses: {misses:?}");
        }
    }

    // On two threads the counts depend on the interleaving, so such a
    // report is refused rather than compared.
    let mut threaded = s.clone();
    threaded.threads = 2;
    let r = report::to_json(&run_scenario(&threaded, EngineKind::InMemory));
    assert!(compare::compare_reports(&r, &r).is_err());
}
