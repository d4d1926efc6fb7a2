//! `--compare old.json new.json`: run-over-run regression detection.
//!
//! Compares throughput (per class and total) and per-class latency
//! percentiles between two `BENCH_workload.json` files, reporting
//! percentage deltas and flagging any metric that moved past the
//! threshold in the bad direction. A larger share of failed operations,
//! or an op class the new run lacks, is a regression at any threshold:
//! the driver leaves failed ops out of throughput and latency, so those
//! alone would pass a run whose writes all fail. CI feeds a fresh run
//! against a stored baseline and fails the build on a non-empty
//! regression list.

use crate::json::Json;

/// Default regression threshold: 25% — wide enough to absorb normal
/// run-to-run noise on shared CI runners.
pub const DEFAULT_THRESHOLD: f64 = 0.25;

/// Latencies below this are timer noise; deltas on them are ignored.
const MIN_LATENCY_US: f64 = 20.0;

/// One compared metric.
pub struct Delta {
    pub metric: String,
    pub old: f64,
    pub new: f64,
    /// Percent change, positive = increased.
    pub pct: f64,
    pub regressed: bool,
}

/// Result of comparing two reports.
pub struct Comparison {
    pub deltas: Vec<Delta>,
    pub regressions: Vec<String>,
}

impl Comparison {
    pub fn has_regressions(&self) -> bool {
        !self.regressions.is_empty()
    }
}

fn pct_change(old: f64, new: f64) -> f64 {
    if old == 0.0 {
        if new == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (new - old) / old * 100.0
    }
}

/// Direction of "bad" for a metric.
enum Bad {
    /// Lower is a regression (throughput).
    Lower,
    /// Higher is a regression (latency).
    Higher,
    /// Any increase is a regression, whatever the threshold (error rate).
    Rises,
}

/// Compare two parsed reports. `threshold` is fractional (0.25 = 25%).
pub fn compare_reports(old: &Json, new: &Json, threshold: f64) -> Result<Comparison, String> {
    for (label, report) in [("old", old), ("new", new)] {
        if report
            .get("schema_version")
            .and_then(Json::as_f64)
            .is_none()
        {
            return Err(format!("{label} report has no schema_version"));
        }
    }
    let scenario_of = |r: &Json| {
        r.get_path("scenario.name")
            .and_then(Json::as_str)
            .map(str::to_string)
            .unwrap_or_default()
    };
    let (old_name, new_name) = (scenario_of(old), scenario_of(new));
    if old_name != new_name {
        return Err(format!(
            "scenario mismatch: old ran {old_name:?}, new ran {new_name:?}"
        ));
    }

    let mut cmp = Comparison {
        deltas: Vec::new(),
        regressions: Vec::new(),
    };
    let mut check = |metric: String, old_v: Option<f64>, new_v: Option<f64>, bad: Bad| {
        let (Some(o), Some(n)) = (old_v, new_v) else {
            return;
        };
        let pct = pct_change(o, n);
        let regressed = match bad {
            Bad::Lower => n < o * (1.0 - threshold),
            Bad::Higher => o.max(n) >= MIN_LATENCY_US && n > o * (1.0 + threshold),
            Bad::Rises => n > o,
        };
        if regressed {
            cmp.regressions
                .push(format!("{metric}: {o} -> {n} ({pct:+.1}%)"));
        }
        cmp.deltas.push(Delta {
            metric,
            old: o,
            new: n,
            pct,
            regressed,
        });
    };

    let f = |r: &Json, path: &str| r.get_path(path).and_then(Json::as_f64);
    check(
        "totals.throughput_ops_s".into(),
        f(old, "totals.throughput_ops_s"),
        f(new, "totals.throughput_ops_s"),
        Bad::Lower,
    );
    // The exact share of failed ops, from the counts rather than the
    // report's rounded `error_rate`, so one failure in a long run counts.
    let error_rate = |r: &Json| {
        let errors = f(r, "totals.errors")?;
        let all = f(r, "totals.ops")? + errors;
        Some(if all > 0.0 { errors / all } else { 0.0 })
    };
    check(
        "totals.error_rate".into(),
        error_rate(old),
        error_rate(new),
        Bad::Rises,
    );

    // Per-class metrics, over the old report's classes: a class the new
    // report lacks is a regression of its own.
    let class_names = |r: &Json| -> Vec<String> {
        r.get("op_classes")
            .map(|c| c.keys().into_iter().map(str::to_string).collect())
            .unwrap_or_default()
    };
    let new_classes = class_names(new);
    let mut missing = Vec::new();
    for name in class_names(old) {
        if !new_classes.contains(&name) {
            missing.push(format!("op_classes.{name}: missing from the new report"));
            continue;
        }
        check(
            format!("op_classes.{name}.throughput_ops_s"),
            f(old, &format!("op_classes.{name}.throughput_ops_s")),
            f(new, &format!("op_classes.{name}.throughput_ops_s")),
            Bad::Lower,
        );
        for q in ["p50", "p95", "p99"] {
            check(
                format!("op_classes.{name}.latency_us.{q}"),
                f(old, &format!("op_classes.{name}.latency_us.{q}")),
                f(new, &format!("op_classes.{name}.latency_us.{q}")),
                Bad::Higher,
            );
        }
    }
    cmp.regressions.extend(missing);
    Ok(cmp)
}

/// Print the comparison; returns `true` if any metric regressed.
pub fn print_comparison(cmp: &Comparison, threshold: f64) -> bool {
    println!(
        "{:<44} {:>12} {:>12} {:>9}",
        "metric", "old", "new", "delta"
    );
    for d in &cmp.deltas {
        println!(
            "{:<44} {:>12} {:>12} {:>+8.1}%{}",
            d.metric,
            d.old,
            d.new,
            d.pct,
            if d.regressed { "  << REGRESSION" } else { "" }
        );
    }
    if cmp.has_regressions() {
        println!(
            "\n{} regression(s) (threshold {:.0}% on throughput and latency):",
            cmp.regressions.len(),
            threshold * 100.0
        );
        for r in &cmp.regressions {
            println!("  {r}");
        }
    } else {
        println!(
            "\nno regressions beyond the {:.0}% threshold",
            threshold * 100.0
        );
    }
    cmp.has_regressions()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(name: &str, throughput: f64, p95: f64) -> Json {
        Json::obj()
            .with("schema_version", 1u64)
            .with("scenario", Json::obj().with("name", name))
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
                    Json::obj().with("throughput_ops_s", throughput).with(
                        "latency_us",
                        Json::obj()
                            .with("p50", p95 / 2.0)
                            .with("p95", p95)
                            .with("p99", p95 * 2.0),
                    ),
                ),
            )
    }

    #[test]
    fn self_compare_is_clean() {
        let r = report("mixed_default", 1000.0, 400.0);
        let cmp = compare_reports(&r, &r, DEFAULT_THRESHOLD).unwrap();
        assert!(!cmp.has_regressions());
        assert!(cmp.deltas.iter().all(|d| d.pct == 0.0));
    }

    #[test]
    fn detects_throughput_and_latency_regressions() {
        let old = report("mixed_default", 1000.0, 400.0);
        let slow = report("mixed_default", 500.0, 900.0);
        let cmp = compare_reports(&old, &slow, DEFAULT_THRESHOLD).unwrap();
        assert!(cmp.has_regressions());
        assert!(cmp
            .regressions
            .iter()
            .any(|r| r.contains("totals.throughput_ops_s")));
        assert!(cmp.regressions.iter().any(|r| r.contains("latency_us.p95")));

        // The reverse direction (faster) is an improvement, not a
        // regression.
        let cmp = compare_reports(&slow, &old, DEFAULT_THRESHOLD).unwrap();
        assert!(!cmp.has_regressions());
    }

    #[test]
    fn detects_a_larger_share_of_failed_ops() {
        let old = report("mixed_default", 1000.0, 400.0);
        // Failed ops are left out of throughput and latency, so only the
        // error counts tell this run apart from the baseline.
        let mut failing = old.clone();
        let mut totals = failing.get("totals").unwrap().clone();
        totals.set("ops", 3999u64);
        totals.set("errors", 1u64);
        failing.set("totals", totals);
        let cmp = compare_reports(&old, &failing, 0.60).unwrap();
        assert_eq!(cmp.regressions.len(), 1, "{:?}", cmp.regressions);
        assert!(cmp.regressions[0].starts_with("totals.error_rate"));

        // Fewer failures than the baseline is not a regression.
        let cmp = compare_reports(&failing, &old, 0.60).unwrap();
        assert!(!cmp.has_regressions(), "{:?}", cmp.regressions);
    }

    #[test]
    fn detects_an_op_class_missing_from_the_new_report() {
        let old = report("mixed_default", 1000.0, 400.0);
        let mut lacking = old.clone();
        lacking.set("op_classes", Json::obj());
        let cmp = compare_reports(&old, &lacking, DEFAULT_THRESHOLD).unwrap();
        assert_eq!(
            cmp.regressions,
            ["op_classes.point_get: missing from the new report"]
        );

        // A class only the new report has is new coverage, not a loss.
        let cmp = compare_reports(&lacking, &old, DEFAULT_THRESHOLD).unwrap();
        assert!(!cmp.has_regressions(), "{:?}", cmp.regressions);
    }

    #[test]
    fn tiny_latencies_are_noise_not_regressions() {
        let old = report("mixed_default", 1000.0, 4.0);
        let new = report("mixed_default", 1000.0, 8.0);
        let cmp = compare_reports(&old, &new, DEFAULT_THRESHOLD).unwrap();
        assert!(!cmp.has_regressions(), "sub-20us p95 doubled but is noise");
    }

    #[test]
    fn refuses_scenario_mismatch() {
        let a = report("mixed_default", 1000.0, 400.0);
        let b = report("fig5_rank_index", 1000.0, 400.0);
        assert!(compare_reports(&a, &b, DEFAULT_THRESHOLD).is_err());
    }
}
