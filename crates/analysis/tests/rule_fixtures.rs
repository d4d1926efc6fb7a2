//! Known-bad fixtures: every rule in the catalog must trip on its
//! canonical violation, stay quiet on the blessed alternative, and
//! honor suppression comments and exemptions.
//!
//! Fixture sources are raw string literals, so the workspace self-test
//! (which lints this very file) sees them as masked-out literals.

use rl_analysis::rules::{lint_file, lint_files, ALL};

/// Lint a snippet as if it lived at a library-crate path no rule exempts.
fn lint(src: &str) -> Vec<String> {
    lint_file("crates/core/src/fixture.rs", src, ALL)
        .into_iter()
        .map(|d| d.to_string())
        .collect()
}

fn rules_hit(src: &str) -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = lint_file("crates/core/src/fixture.rs", src, ALL)
        .into_iter()
        .map(|d| d.rule)
        .collect();
    ids.dedup();
    ids
}

#[test]
fn lock_poison_trips_on_unwrap_and_expect() {
    assert_eq!(
        rules_hit(r#"fn f(m: &M) { let g = m.lock().unwrap(); }"#),
        ["lock-poison"]
    );
    assert_eq!(
        rules_hit(r#"fn f(m: &M) { let g = m.lock().expect("poisoned"); }"#),
        ["lock-poison"]
    );
    // Whitespace between the calls must not hide the pattern.
    assert_eq!(
        rules_hit("fn f(m: &M) {\n    let g = m.lock()\n        .unwrap();\n}"),
        ["lock-poison"]
    );
}

#[test]
fn lock_poison_accepts_the_recovering_helpers() {
    assert!(lint(r#"fn f(m: &M) { let g = lock(m); }"#).is_empty());
    assert!(lint(
        r#"fn f(m: &Mutex<T>) { let g = m.lock().unwrap_or_else(PoisonError::into_inner); }"#
    )
    .is_empty());
}

#[test]
fn wall_clock_trips_in_lib_but_not_in_exempt_paths_or_tests() {
    let src = r#"fn f() { let t = std::time::Instant::now(); }"#;
    assert_eq!(rules_hit(src), ["wall-clock"]);
    assert_eq!(
        rules_hit(r#"fn f() { let t = SystemTime::now(); }"#),
        ["wall-clock"]
    );
    // rl_obs and the harness timing paths are allowed wall time.
    assert!(lint_file("crates/obs/src/fixture.rs", src, ALL).is_empty());
    assert!(lint_file("crates/harness/src/fixture.rs", src, ALL).is_empty());
    // #[cfg(test)] modules are exempt.
    let in_test = "#[cfg(test)]\nmod tests {\n    fn f() { let t = Instant::now(); }\n}";
    assert!(lint(in_test).is_empty());
}

#[test]
fn no_sleep_in_lib_trips() {
    assert_eq!(
        rules_hit(r#"fn f() { std::thread::sleep(Duration::from_millis(5)); }"#),
        ["no-sleep-in-lib"]
    );
    // Word boundary: an identifier merely ending in "thread" is not a match.
    assert!(lint(r#"fn f() { my_thread::sleeper(); }"#).is_empty());
}

#[test]
fn json_via_builder_trips_on_escaped_and_raw_literals() {
    assert_eq!(
        rules_hit(r#"fn f() -> String { format!("{{\"count\": {}}}", 1) }"#),
        ["json-via-builder"]
    );
    assert_eq!(
        rules_hit(r##"fn f() -> &'static str { r#"{"count": 1}"# }"##),
        ["json-via-builder"]
    );
    // A brace-only format string is not JSON.
    assert!(lint(r#"fn f() -> String { format!("{{{}}}", 1) }"#).is_empty());
}

#[test]
fn no_todo_panic_trips_outside_tests() {
    assert_eq!(rules_hit(r#"fn f() { todo!() }"#), ["no-todo-panic"]);
    assert_eq!(
        rules_hit(r#"fn f() { unimplemented!("later") }"#),
        ["no-todo-panic"]
    );
    let in_test = "#[cfg(test)]\nmod tests {\n    fn f() { todo!() }\n}";
    assert!(lint(in_test).is_empty());
}

#[test]
fn lock_order_reports_a_two_mutex_inversion() {
    // The synthetic inversion from the issue: alpha→beta in one path,
    // beta→alpha in another. Uses the blessed lock() helper so the only
    // finding is the cycle itself.
    let src = r#"
        fn ab(&self) {
            let a = lock(&self.alpha);
            let b = lock(&self.beta);
            drop(b);
            drop(a);
        }
        fn ba(&self) {
            let b = lock(&self.beta);
            let a = lock(&self.alpha);
            drop(a);
            drop(b);
        }
    "#;
    let diags = lint_files(
        &[("crates/core/src/fixture.rs".to_string(), src.to_string())],
        ALL,
    );
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "lock-order");
    assert!(diags[0].message.contains("cycle"), "{}", diags[0].message);
    assert!(
        diags[0].message.contains("alpha") && diags[0].message.contains("beta"),
        "{}",
        diags[0].message
    );
}

#[test]
fn lock_order_sees_the_parallel_commit_pipeline_nodes() {
    // The sharded-MVCC pipeline's acquisition shapes all register:
    // indexed shard locks, the commit-batch queue, the version core, and
    // the store RwLock, nested in the declared rank order — clean graph.
    let src = r#"
        fn commit(&self) {
            let shard = lock_ranked_indexed(&self.shards[idx], LockRank::ConflictShard, idx);
            let st = lock_ranked(&self.batcher.queue_state, LockRank::CommitBatch);
            let core = lock_ranked(&self.core, LockRank::VersionCore);
            let store = write_ranked(&self.store, LockRank::DatabaseStore);
        }
        fn snapshot_read(&self) {
            let store = read_ranked(&self.store, LockRank::DatabaseStore);
        }
        fn cached_state(&self) {
            let st = lock_ranked(&self.state, LockRank::TransactionState);
            let entries = lock_ranked(&self.entries, LockRank::StateCache);
        }
    "#;
    let diags = lint_files(
        &[("crates/core/src/fixture.rs".to_string(), src.to_string())],
        ALL,
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn lock_order_reports_a_lock_taken_under_the_state_cache_leaf() {
    // The state cache's map is a leaf: a transaction consults it with its
    // own state locked, so anything that locks a transaction's state while
    // holding the map closes a cycle.
    let src = r#"
        fn cached_state(&self) {
            let st = lock_ranked(&self.state, LockRank::TransactionState);
            let entries = lock_ranked(&self.entries, LockRank::StateCache);
        }
        fn evict_and_notify(&self) {
            let entries = lock_ranked(&self.entries, LockRank::StateCache);
            let st = lock_ranked(&self.state, LockRank::TransactionState);
        }
    "#;
    let diags = lint_files(
        &[("crates/fdb/src/fixture.rs".to_string(), src.to_string())],
        ALL,
    );
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "lock-order");
    assert!(
        diags[0].message.contains("entries") && diags[0].message.contains("state"),
        "{}",
        diags[0].message
    );
}

#[test]
fn lock_order_reports_a_shard_version_core_inversion() {
    // A commit path takes a conflict shard then the version core; a buggy
    // maintenance sweep takes the core then a shard. Two threads running
    // these concurrently deadlock — the graph must report the cycle.
    let src = r#"
        fn commit(&self) {
            let shard = lock_ranked_indexed(&self.shards[idx], LockRank::ConflictShard, idx);
            let core = lock_ranked(&self.core, LockRank::VersionCore);
        }
        fn sweep(&self) {
            let core = lock_ranked(&self.core, LockRank::VersionCore);
            let shard = lock_ranked_indexed(&self.shards[idx], LockRank::ConflictShard, idx);
        }
    "#;
    let diags = lint_files(
        &[("crates/core/src/fixture.rs".to_string(), src.to_string())],
        ALL,
    );
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "lock-order");
    assert!(diags[0].message.contains("cycle"), "{}", diags[0].message);
    assert!(
        diags[0].message.contains("shards") && diags[0].message.contains("core"),
        "{}",
        diags[0].message
    );
}

#[test]
fn lock_order_consistent_nesting_is_clean() {
    let src = r#"
        fn ab(&self) {
            let a = lock(&self.alpha);
            let b = lock(&self.beta);
        }
        fn ab_again(&self) {
            let a = lock(&self.alpha);
            let b = lock(&self.beta);
        }
    "#;
    let diags = lint_files(
        &[("crates/core/src/fixture.rs".to_string(), src.to_string())],
        ALL,
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn suppression_on_the_same_line() {
    let src =
        r#"fn f(m: &M) { let g = m.lock().unwrap(); } // rl-lint: allow(lock-poison) — fixture"#;
    assert!(lint(src).is_empty());
}

#[test]
fn suppression_on_the_line_above() {
    let src =
        "// rl-lint: allow(lock-poison) — fixture\nfn f(m: &M) { let g = m.lock().unwrap(); }";
    assert!(lint(src).is_empty());
}

#[test]
fn suppression_lists_several_rules() {
    let src = "// rl-lint: allow(lock-poison, wall-clock) — fixture\n\
               fn f(m: &M) { let g = m.lock().unwrap(); let t = Instant::now(); }";
    assert!(lint(src).is_empty());
}

#[test]
fn suppression_of_the_wrong_rule_does_not_apply() {
    let src =
        "// rl-lint: allow(wall-clock) — wrong id\nfn f(m: &M) { let g = m.lock().unwrap(); }";
    assert_eq!(rules_hit(src), ["lock-poison"]);
}

#[test]
fn suppression_two_lines_up_is_out_of_range() {
    let src = "// rl-lint: allow(lock-poison)\n\nfn f(m: &M) { let g = m.lock().unwrap(); }";
    assert_eq!(rules_hit(src), ["lock-poison"]);
}

#[test]
fn diagnostics_render_as_file_line_rule_message() {
    let diags = lint(r#"fn f() { todo!() }"#);
    assert_eq!(diags.len(), 1);
    assert!(
        diags[0].starts_with("crates/core/src/fixture.rs:1: no-todo-panic: "),
        "{}",
        diags[0]
    );
}

#[test]
fn diagnostics_are_sorted_by_file_then_line() {
    let files = vec![
        (
            "crates/core/src/b.rs".to_string(),
            "fn f(m: &M) { let g = m.lock().unwrap(); }".to_string(),
        ),
        (
            "crates/core/src/a.rs".to_string(),
            "fn f() { todo!() }\nfn g(m: &M) { let h = m.lock().unwrap(); }".to_string(),
        ),
    ];
    let diags = lint_files(&files, ALL);
    let keys: Vec<(String, usize)> = diags.iter().map(|d| (d.file.clone(), d.line)).collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted);
    assert_eq!(diags[0].file, "crates/core/src/a.rs");
}
