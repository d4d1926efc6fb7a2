//! Turn a [`RunResult`] into the schema-stable `BENCH_workload.json`
//! document and the human-readable console table.
//!
//! Schema stability is the contract `--compare` builds on: for a given
//! scenario the emitted key set is identical run-over-run and across
//! storage engines (only values differ). Every leaf is either a time
//! (`elapsed_s`, `throughput_ops_s`, the `latency_us` blocks) or a count
//! that a single-threaded run repeats exactly (`totals`, the per-class
//! counts and `keys`, the `work` block, `extras`). Float values are
//! rounded so files diff cleanly.

use crate::driver::{ClassResult, RunResult};
use crate::json::Json;
use rl_fdb::metrics::MetricsSnapshot;

/// Bumped when the report layout changes incompatibly.
pub const SCHEMA_VERSION: u64 = 2;

fn round1(v: f64) -> f64 {
    (v * 10.0).round() / 10.0
}

fn round4(v: f64) -> f64 {
    (v * 10_000.0).round() / 10_000.0
}

fn rate(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        round4(part as f64 / whole as f64)
    }
}

fn class_json(c: &ClassResult, elapsed_s: f64) -> Json {
    Json::obj()
        .with("ops", c.ops)
        .with("attempts", c.attempts)
        .with("conflicts", c.conflicts)
        .with("errors", c.errors)
        .with("rows", c.rows)
        .with(
            "throughput_ops_s",
            round1(if elapsed_s > 0.0 {
                c.ops as f64 / elapsed_s
            } else {
                0.0
            }),
        )
        .with("conflict_rate", rate(c.conflicts, c.attempts))
        .with("latency_us", Json::hist(&c.latency_us))
        .with(
            "keys",
            Json::obj()
                .with("read", c.keys_read)
                .with("read_payload", c.keys_read_payload)
                .with(
                    "read_overhead",
                    c.keys_read.saturating_sub(c.keys_read_payload),
                )
                .with("written", c.keys_written)
                .with("written_payload", c.keys_written_payload)
                .with(
                    "written_overhead",
                    c.keys_written.saturating_sub(c.keys_written_payload),
                ),
        )
}

/// The database's counters over the timed phase that the per-class
/// `keys` blocks do not already sum to. The page fields stay zero on the
/// memory engine, so both engines emit one schema.
fn work_json(w: &MetricsSnapshot) -> Json {
    Json::obj()
        .with("bytes_read", w.bytes_read)
        .with("bytes_written", w.bytes_written)
        .with("record_fetches", w.record_fetches)
        .with("read_ops", w.read_ops)
        .with("page_hits", w.page_hits)
        .with("page_misses", w.page_misses)
        .with("page_evictions", w.page_evictions)
        .with("page_flushes", w.page_flushes)
        .with("log_appends", w.log_appends)
}

/// The full report document.
pub fn to_json(result: &RunResult) -> Json {
    let ops: u64 = result.classes.iter().map(|c| c.ops).sum();
    let attempts: u64 = result.classes.iter().map(|c| c.attempts).sum();
    let conflicts: u64 = result.classes.iter().map(|c| c.conflicts).sum();
    let errors: u64 = result.classes.iter().map(|c| c.errors).sum();

    let mut op_classes = Json::obj();
    for c in &result.classes {
        op_classes.set(c.kind.name(), class_json(c, result.elapsed_s));
    }

    let mut query_shapes = Json::obj();
    for (name, shape) in &result.shapes {
        query_shapes.set(*name, shape.as_str());
    }

    let mut extras = Json::obj();
    if let Some(s) = &result.store_sizes {
        extras.set(
            "store_sizes",
            Json::obj()
                .with("stores", s.stores)
                .with("total_bytes", s.total_bytes)
                .with("median_bytes", s.median_bytes)
                .with("under_1k_fraction", round4(s.under_1k_fraction))
                .with(
                    "bytes_in_top_decile_fraction",
                    round4(s.bytes_in_top_decile_fraction),
                ),
        );
    }
    if let Some(t) = &result.text_stats {
        extras.set(
            "text_stats",
            Json::obj()
                .with("index_keys", t.index_keys)
                .with("index_bytes", t.index_bytes)
                .with("average_bunch_size", round4(t.average_bunch_size)),
        );
    }

    Json::obj()
        .with("schema_version", SCHEMA_VERSION)
        .with("scenario", result.scenario.json())
        .with(
            "engine",
            Json::obj()
                .with("kind", result.engine_kind.as_str())
                .with("description", result.engine_description.as_str()),
        )
        .with(
            "totals",
            Json::obj()
                .with("elapsed_s", round4(result.elapsed_s))
                .with("ops", ops)
                .with(
                    "throughput_ops_s",
                    round1(if result.elapsed_s > 0.0 {
                        ops as f64 / result.elapsed_s
                    } else {
                        0.0
                    }),
                )
                .with("attempts", attempts)
                .with("conflicts", conflicts)
                .with("errors", errors)
                .with("conflict_rate", rate(conflicts, attempts))
                .with("error_rate", rate(errors, ops + errors)),
        )
        .with("op_classes", op_classes)
        .with("work", work_json(&result.work))
        .with("query_shapes", query_shapes)
        .with("extras", extras)
}

/// Console summary: one row per op class plus the totals line.
pub fn print_table(result: &RunResult) {
    println!(
        "# {} on {} engine — {} threads, {} ops budget",
        result.scenario.name,
        result.engine_kind,
        result.scenario.threads,
        result.scenario.total_ops,
    );
    println!(
        "{:<14} {:>8} {:>12} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "op_class", "ops", "ops/s", "p50_us", "p95_us", "p99_us", "conflict%", "overhead%"
    );
    for c in &result.classes {
        let thr = if result.elapsed_s > 0.0 {
            c.ops as f64 / result.elapsed_s
        } else {
            0.0
        };
        let conflict_pct = if c.attempts > 0 {
            c.conflicts as f64 / c.attempts as f64 * 100.0
        } else {
            0.0
        };
        let total_keys = c.keys_read + c.keys_written;
        let payload = c.keys_read_payload + c.keys_written_payload;
        let overhead_pct = if total_keys > 0 {
            (total_keys - payload.min(total_keys)) as f64 / total_keys as f64 * 100.0
        } else {
            0.0
        };
        println!(
            "{:<14} {:>8} {:>12.1} {:>9} {:>9} {:>9} {:>8.1}% {:>9.1}%",
            c.kind.name(),
            c.ops,
            thr,
            c.latency_us.quantile(0.50),
            c.latency_us.quantile(0.95),
            c.latency_us.quantile(0.99),
            conflict_pct,
            overhead_pct,
        );
    }
    let ops: u64 = result.classes.iter().map(|c| c.ops).sum();
    println!(
        "total: {} ops in {:.2}s = {:.0} ops/s",
        ops,
        result.elapsed_s,
        if result.elapsed_s > 0.0 {
            ops as f64 / result.elapsed_s
        } else {
            0.0
        }
    );
}
