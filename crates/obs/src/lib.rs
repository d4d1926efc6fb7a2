//! # rl-obs — observability for the record stack
//!
//! The paper's evaluation (§8.2) is an observability story: per-operation
//! key read/write distributions, split into payload and overhead. This
//! crate provides the measurement substrate the rest of the workspace
//! reports into:
//!
//! * [`Histogram`] — a log-bucketed (HdrHistogram-style) latency/value
//!   histogram: power-of-two buckets subdivided 32 ways, so quantiles are
//!   accurate to ~3% relative rank error while the whole structure is a
//!   flat array of atomics (mergeable, lock-free to record into).
//! * [`Recorder`] — a process-wide registry of histograms keyed by static
//!   operation names (`grv`, `get`, `get_range`, `commit`, `wal_append`,
//!   `page_read`, `page_flush`, `plan`, `execute`). Reports render its
//!   [`Recorder::snapshot`] with `rl_harness::json::Json::hist`.
//! * [`Timer`] — an RAII guard that records elapsed microseconds into a
//!   recorder histogram on drop, optionally pushing a [`Span`] and feeding
//!   the slow-op log.
//! * [`Span`] / [`SpanRing`] — lightweight spans (op, tag, start,
//!   duration, counter deltas) captured into a fixed-capacity ring buffer
//!   so per-transaction and per-plan-node attribution can be joined
//!   against `explain()` output after the fact.
//!
//! ## Cheap when idle
//!
//! Instrumentation is compiled in but gated on a single relaxed atomic
//! load ([`enabled`]). Disabled, a [`Timer`] takes no clock reading and a
//! span tag closure is never invoked; the instrumented hot paths add a
//! branch and nothing else.
//!
//! ## Environment variables
//!
//! * `RL_OBS=1` — enable recording at process start (default: disabled;
//!   programs and tests can flip it at runtime with [`set_enabled`]).
//! * `RL_SLOW_OP_US=<n>` — log any recorded op slower than `n` µs to
//!   stderr (default `0` = off).

pub mod hist;
pub mod recorder;
pub mod span;

pub use hist::{Histogram, HistogramSnapshot};
pub use recorder::{Recorder, Timer};
pub use span::{drain_spans, push_span, Span, SpanRing};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

/// Global observability switches, initialized once from the environment.
#[derive(Debug)]
pub struct ObsConfig {
    enabled: AtomicBool,
    slow_op_threshold_us: AtomicU64,
}

impl ObsConfig {
    fn from_env() -> ObsConfig {
        let enabled = std::env::var("RL_OBS").is_ok_and(|v| v != "0" && !v.is_empty());
        let slow = std::env::var("RL_SLOW_OP_US")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        ObsConfig {
            enabled: AtomicBool::new(enabled),
            slow_op_threshold_us: AtomicU64::new(slow),
        }
    }

    /// The process-wide configuration.
    pub fn global() -> &'static ObsConfig {
        static CONFIG: OnceLock<ObsConfig> = OnceLock::new();
        CONFIG.get_or_init(ObsConfig::from_env)
    }
}

/// Whether observability recording is on. One relaxed atomic load — this
/// is the gate every instrumented hot path checks first.
#[inline]
pub fn enabled() -> bool {
    ObsConfig::global().enabled.load(Ordering::Relaxed)
}

/// Turn recording on or off at runtime (tests and the workload harness).
pub fn set_enabled(on: bool) {
    ObsConfig::global().enabled.store(on, Ordering::Relaxed);
}

/// Slow-op threshold in µs; `0` disables the slow-op log.
#[inline]
pub fn slow_op_threshold_us() -> u64 {
    ObsConfig::global()
        .slow_op_threshold_us
        .load(Ordering::Relaxed)
}

/// Set the slow-op threshold (µs, `0` = off) at runtime.
pub fn set_slow_op_threshold_us(us: u64) {
    ObsConfig::global()
        .slow_op_threshold_us
        .store(us, Ordering::Relaxed);
}

/// Microseconds since the first call in this process (a monotonic,
/// process-local epoch for span start times).
pub fn now_us() -> u64 {
    static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(std::time::Instant::now);
    epoch.elapsed().as_micros() as u64
}

/// Serializes tests that toggle the process-global enabled flag.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enable_toggle_round_trips() {
        let _guard = test_lock();
        let was = enabled();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(was);
    }

    #[test]
    fn now_us_is_monotonic() {
        let a = now_us();
        let b = now_us();
        assert!(b >= a);
    }
}
