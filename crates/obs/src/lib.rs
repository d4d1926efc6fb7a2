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
//! * [`Recorder`] — the process-wide table of histograms, one per [`Op`]
//!   and indexed by it. Reports render its [`Recorder::snapshot`] with
//!   `rl_harness::json::Json::hist`.
//! * [`Timer`] — an RAII guard that records elapsed microseconds into an
//!   op's histogram on drop; [`record`] records a count.
//! * [`Span`] / [`SpanRing`] — lightweight spans (op, tag, start,
//!   duration, counter deltas) captured into a fixed-capacity ring buffer
//!   so per-transaction and per-plan-node attribution can be joined
//!   against `explain()` output after the fact.
//!
//! ## Cheap when idle
//!
//! Instrumentation is compiled in but gated on a single relaxed atomic
//! load ([`enabled`]), off until a program or test calls [`set_enabled`].
//! Disabled, a [`Timer`] takes no clock reading and no span is built; the
//! instrumented hot paths add a branch and nothing else.

pub mod hist;
pub mod recorder;
pub mod span;

pub use hist::{Histogram, HistogramSnapshot};
pub use recorder::{record, Op, Recorder, Timer};
pub use span::{drain_spans, push_span, Span, SpanRing};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// The global observability switch.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether observability recording is on. One relaxed atomic load — this
/// is the gate every instrumented hot path checks first.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn recording on or off at runtime (tests and the workload harness).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Microseconds since the first call in this process (a monotonic,
/// process-local epoch for span start times).
#[expect(clippy::disallowed_methods, reason = "measured time lives in rl_obs")]
pub fn now_us() -> u64 {
    static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(std::time::Instant::now);
    epoch.elapsed().as_micros() as u64
}

/// Serializes tests that toggle the process-global enabled flag.
#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "rl_obs is below rl_fdb::sync")]
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
