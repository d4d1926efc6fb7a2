//! Integration smoke: run a tiny scenario on both storage engines,
//! check the emitted JSON round-trips, carries the required schema, and
//! is key-identical across engines; then exercise `--compare` logic on
//! the real reports (a rerun's counts are equal, a doctored time passes,
//! a doctored count is caught, a multi-threaded report is refused). The
//! cross-engine oracle runs every preset on one thread on both engines
//! and requires equal counts and an equal end state; the key-layout check
//! requires that no key a run leaves spells out an index's name.

use rl_fdb::{Database, EngineKind, PagedConfig, RangeOptions};
use rl_harness::driver::run_scenario_keeping_database;
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

/// Every visible key and value of `db`, in key order.
fn visible_rows(db: &Database) -> Vec<rl_fdb::KeyValue> {
    let tx = db.create_transaction();
    tx.get_range(b"", b"\xff", RangeOptions::default()).unwrap()
}

/// FNV-1a over each row's length-prefixed key and value, in key order.
fn digest(rows: &[rl_fdb::KeyValue]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for b in (bytes.len() as u32).to_le_bytes().iter().chain(bytes) {
            hash = (hash ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for row in rows {
        eat(&row.key);
        eat(&row.value);
    }
    hash
}

/// A preset shrunk to test size and run on one thread without think time
/// (neither changes what a single-threaded run counts, only how long it
/// takes).
fn shrunk(mut s: rl_harness::Scenario, seed: u64) -> rl_harness::Scenario {
    s.tenants = s.tenants.min(4);
    s.records_per_tenant = s.records_per_tenant.min(120);
    s.total_ops = 250;
    s.threads = 1;
    s.think_time_us = 0;
    s.seed = seed;
    s
}

#[test]
fn engines_agree_on_every_count_and_the_end_state() {
    // The memory engine is the oracle for the paged one: the same
    // single-threaded op stream must read and write the same keys, rows
    // and bytes, and leave the same visible keyspace behind.
    for preset in presets::all() {
        for seed in [preset.seed, 3, 17] {
            let s = shrunk(preset.clone(), seed);
            let (mem, mem_db) = run_scenario_keeping_database(&s, EngineKind::InMemory);
            let (paged, paged_db) = run_scenario_keeping_database(
                &s,
                EngineKind::Paged(PagedConfig {
                    pool_pages: 16,
                    ..PagedConfig::ephemeral()
                }),
            );
            let at = format!("{} seed {seed}", s.name);
            let (mem_json, paged_json) = (report::to_json(&mem), report::to_json(&paged));
            assert_eq!(
                mem_json.get_path("totals.errors").and_then(Json::as_f64),
                Some(0.0),
                "{at}"
            );
            let cmp = compare::compare_across_engines(&mem_json, &paged_json).unwrap();
            assert!(!cmp.has_regressions(), "{at}: {:?}", cmp.regressions);
            assert!(cmp.counts > 0, "{at}");
            let (mem_rows, paged_rows) = (visible_rows(&mem_db), visible_rows(&paged_db));
            assert!(!mem_rows.is_empty(), "{at}");
            assert_eq!(
                digest(&mem_rows),
                digest(&paged_rows),
                "{at}: end states differ ({} against {} rows)",
                mem_rows.len(),
                paged_rows.len()
            );
        }
    }
    // The engine-dependent counts are the only ones exempt.
    let writes = [
        "work.pages_written",
        "work.leaf_rewrites",
        "work.buffer_flushes",
        "work.per_commit.leaf_rewrites",
    ];
    for path in ["work.page_misses", "work.page_flushes", "work.log_appends"]
        .into_iter()
        .chain(writes)
    {
        assert!(compare::is_engine_count(path), "{path}");
    }
    for path in ["work.bytes_written", "work.read_ops", "totals.ops"] {
        assert!(!compare::is_engine_count(path), "{path}");
    }
}

#[test]
fn no_key_spells_out_an_index_name() {
    // Index data is keyed by each index's subspace key: after a run, no
    // key anywhere in the keyspace contains an index name's bytes.
    for preset in [presets::mixed_default(), presets::fig5_rank_index()] {
        let s = shrunk(preset, 5);
        let names: Vec<String> = s.metadata().indexes().map(|i| i.name.clone()).collect();
        assert!(names.len() >= 3, "{names:?}");
        for engine in [
            EngineKind::InMemory,
            EngineKind::Paged(PagedConfig::ephemeral()),
        ] {
            let kind = engine.kind_name();
            let (_, db) = run_scenario_keeping_database(&s, engine);
            let rows = visible_rows(&db);
            assert!(
                rows.len() > s.records_per_tenant,
                "{kind}: {} rows",
                rows.len()
            );
            for row in &rows {
                for name in &names {
                    assert!(
                        !row.key.windows(name.len()).any(|w| w == name.as_bytes()),
                        "{} {kind}: key {:?} contains index name {name}",
                        s.name,
                        String::from_utf8_lossy(&row.key)
                    );
                }
            }
        }
    }
}
