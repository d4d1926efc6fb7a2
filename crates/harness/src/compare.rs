//! `--compare old.json new.json`: run-over-run regression detection on
//! exact counts.
//!
//! A single-threaded run issues the same operations in the same order
//! every time, so two reports of one scenario on one engine carry equal
//! counts: ops, retries, rows, keys and bytes read and written, page
//! traffic. The rule is equality: every numeric leaf under `totals`,
//! `op_classes`, `work` and `extras` must match, whichever way it moved,
//! and a leaf missing on either side is a change. Time leaves
//! (`elapsed_s`, `throughput_ops_s` and everything under `latency_us`)
//! are printed with their deltas and never fail a run; the benchmark is
//! the authority on time. A count that moves on purpose moves with a
//! regenerated baseline, so it shows up as a diff of a checked-in JSON
//! next to the code that caused it.
//!
//! The same walk is the cross-engine oracle ([`compare_across_engines`]):
//! one single-threaded scenario on the memory and the paged engine must
//! count the same, page traffic and log appends aside.

use std::collections::{BTreeMap, BTreeSet};

use crate::json::Json;

/// The report blocks whose numeric leaves are compared.
const COMPARED: [&str; 4] = ["totals", "op_classes", "work", "extras"];

/// One time leaf, old against new.
pub struct Delta {
    pub metric: String,
    pub old: f64,
    pub new: f64,
}

/// Result of comparing two reports.
pub struct Comparison {
    /// Time leaves present on both sides: printed, never gated.
    pub times: Vec<Delta>,
    /// Count leaves compared.
    pub counts: usize,
    /// One line per count leaf that differs or is missing on one side.
    pub regressions: Vec<String>,
}

impl Comparison {
    pub fn has_regressions(&self) -> bool {
        !self.regressions.is_empty()
    }
}

fn is_time(path: &str) -> bool {
    path.ends_with(".elapsed_s")
        || path.ends_with(".throughput_ops_s")
        || path.contains(".latency_us.")
}

/// Every numeric leaf under `v`, keyed by its dotted path.
fn leaves(v: &Json, path: String, out: &mut BTreeMap<String, f64>) {
    if let Some(n) = v.as_f64() {
        out.insert(path, n);
    } else if let Some(entries) = v.as_object() {
        for (key, child) in entries {
            leaves(child, format!("{path}.{key}"), out);
        }
    }
}

/// Whether a count leaf depends on the storage engine: page traffic, log
/// appends and the paged engine's tree writes. Every other count of a
/// single-threaded run is the same on either engine.
pub fn is_engine_count(path: &str) -> bool {
    path.starts_with("work.page_")
        || path.starts_with("work.per_commit.")
        || matches!(
            path,
            "work.log_appends"
                | "work.pages_written"
                | "work.leaf_rewrites"
                | "work.buffer_flushes"
        )
}

/// Compare two parsed reports. `Err` means they are not comparable:
/// another schema, scenario or engine, or a run on more than one thread,
/// whose counts depend on the interleaving.
pub fn compare_reports(old: &Json, new: &Json) -> Result<Comparison, String> {
    require_equal(old, new, &["schema_version", "scenario", "engine.kind"])?;
    Ok(compare_counts(old, new, |_| false))
}

/// Compare two reports of one single-threaded scenario run on different
/// engines: every count that [`is_engine_count`] does not exempt must be
/// equal. `Err` as for [`compare_reports`], the engine aside.
pub fn compare_across_engines(memory: &Json, paged: &Json) -> Result<Comparison, String> {
    require_equal(memory, paged, &["schema_version", "scenario"])?;
    Ok(compare_counts(memory, paged, is_engine_count))
}

fn require_equal(old: &Json, new: &Json, paths: &[&str]) -> Result<(), String> {
    for path in paths {
        if old.get_path(path).is_none() || old.get_path(path) != new.get_path(path) {
            return Err(format!("not comparable: {path} differs or is missing"));
        }
    }
    if old.get_path("scenario.threads").and_then(Json::as_f64) != Some(1.0) {
        return Err("not comparable: counts repeat only at scenario.threads == 1".into());
    }
    Ok(())
}

/// The leaf walk: times printed, counts not `skip`ped compared for
/// equality.
fn compare_counts(old: &Json, new: &Json, skip: impl Fn(&str) -> bool) -> Comparison {
    let numeric = |r: &Json| {
        let mut out = BTreeMap::new();
        for block in COMPARED {
            if let Some(v) = r.get(block) {
                leaves(v, block.to_string(), &mut out);
            }
        }
        out
    };
    let (old, new) = (numeric(old), numeric(new));
    let mut cmp = Comparison {
        times: Vec::new(),
        counts: 0,
        regressions: Vec::new(),
    };
    for path in old.keys().chain(new.keys()).collect::<BTreeSet<_>>() {
        let (o, n) = (old.get(path).copied(), new.get(path).copied());
        if is_time(path) {
            if let (Some(old), Some(new)) = (o, n) {
                let metric = path.clone();
                cmp.times.push(Delta { metric, old, new });
            }
            continue;
        }
        if skip(path) {
            continue;
        }
        cmp.counts += 1;
        if o != n {
            let show = |v: Option<f64>| v.map_or("missing".to_string(), |v| v.to_string());
            cmp.regressions
                .push(format!("{path}: {} -> {}", show(o), show(n)));
        }
    }
    cmp
}

/// Print the comparison; returns `true` if any count moved.
pub fn print_comparison(cmp: &Comparison) -> bool {
    println!(
        "{:<44} {:>12} {:>12} {:>9}",
        "time (printed, not gated)", "old", "new", "delta"
    );
    for d in &cmp.times {
        let pct = if d.old == d.new {
            0.0
        } else {
            (d.new - d.old) / d.old * 100.0
        };
        println!(
            "{:<44} {:>12} {:>12} {:>+8.1}%",
            d.metric, d.old, d.new, pct
        );
    }
    if cmp.has_regressions() {
        println!(
            "\n{} of {} counts moved:",
            cmp.regressions.len(),
            cmp.counts
        );
        for r in &cmp.regressions {
            println!("  {r}");
        }
    } else {
        println!("\nall {} counts equal", cmp.counts);
    }
    cmp.has_regressions()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(throughput: f64, p95: f64) -> Json {
        Json::obj()
            .with("schema_version", 2u64)
            .with(
                "scenario",
                Json::obj()
                    .with("name", "mixed_default")
                    .with("threads", 1u64),
            )
            .with("engine", Json::obj().with("kind", "memory"))
            .with(
                "totals",
                Json::obj()
                    .with("ops", 4000u64)
                    .with("throughput_ops_s", throughput)
                    .with("errors", 0u64),
            )
            .with(
                "op_classes",
                Json::obj().with(
                    "point_get",
                    Json::obj()
                        .with("ops", 4000u64)
                        .with("throughput_ops_s", throughput)
                        .with(
                            "latency_us",
                            Json::obj()
                                .with("p50", p95 / 2.0)
                                .with("p95", p95)
                                .with("p99", p95 * 2.0),
                        ),
                ),
            )
            .with("work", Json::obj().with("page_misses", 7u64))
    }

    #[test]
    fn self_compare_is_clean() {
        let r = report(1000.0, 400.0);
        let cmp = compare_reports(&r, &r).unwrap();
        assert!(!cmp.has_regressions());
        assert_eq!(cmp.counts, 4);
        assert_eq!(cmp.times.len(), 5);
    }

    #[test]
    fn times_are_printed_not_gated() {
        let old = report(1000.0, 400.0);
        let slow = report(500.0, 900.0);
        for (a, b) in [(&old, &slow), (&slow, &old)] {
            let cmp = compare_reports(a, b).unwrap();
            assert!(!cmp.has_regressions(), "{:?}", cmp.regressions);
            assert!(cmp
                .times
                .iter()
                .any(|d| d.metric == "op_classes.point_get.latency_us.p95" && d.old != d.new));
        }
    }

    #[test]
    fn detects_a_larger_share_of_failed_ops() {
        let old = report(1000.0, 400.0);
        // Failed ops are left out of throughput and latency, so only the
        // counts tell this run apart from the baseline.
        let mut failing = old.clone();
        let mut totals = failing.get("totals").unwrap().clone();
        totals.set("ops", 3999u64);
        totals.set("errors", 1u64);
        failing.set("totals", totals);
        let cmp = compare_reports(&old, &failing).unwrap();
        assert_eq!(
            cmp.regressions,
            ["totals.errors: 0 -> 1", "totals.ops: 4000 -> 3999"]
        );

        // Fewer failures moves the same counts: equality has no direction.
        let cmp = compare_reports(&failing, &old).unwrap();
        assert_eq!(cmp.regressions.len(), 2, "{:?}", cmp.regressions);
    }

    #[test]
    fn detects_an_op_class_missing_from_the_new_report() {
        let old = report(1000.0, 400.0);
        let mut lacking = old.clone();
        lacking.set("op_classes", Json::obj());
        let cmp = compare_reports(&old, &lacking).unwrap();
        assert_eq!(
            cmp.regressions,
            ["op_classes.point_get.ops: 4000 -> missing"]
        );

        // A class only the new report has is a change too.
        let cmp = compare_reports(&lacking, &old).unwrap();
        assert_eq!(
            cmp.regressions,
            ["op_classes.point_get.ops: missing -> 4000"]
        );
    }

    #[test]
    fn refuses_scenario_mismatch() {
        let a = report(1000.0, 400.0);
        let mut other = a.clone();
        other.set(
            "scenario",
            Json::obj()
                .with("name", "fig5_rank_index")
                .with("threads", 1u64),
        );
        let mut paged = a.clone();
        paged.set("engine", Json::obj().with("kind", "paged"));
        let mut v1 = a.clone();
        v1.set("schema_version", 1u64);
        for b in [&other, &paged, &v1] {
            assert!(compare_reports(&a, b).is_err());
        }

        // Two threads interleave differently on every run.
        let mut threaded = a.clone();
        threaded.set(
            "scenario",
            Json::obj()
                .with("name", "mixed_default")
                .with("threads", 2u64),
        );
        assert!(compare_reports(&threaded, &threaded).is_err());
    }
}
