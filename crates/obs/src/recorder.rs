//! The process recorder: named histograms plus the `Timer` RAII guard.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

use crate::hist::{Histogram, HistogramSnapshot};
use crate::span::{push_span, Span};

/// A registry of histograms keyed by static operation names. Every sample
/// takes the registry's read lock, looks its name up and records into that
/// histogram's atomics under the guard; only the first sample of a new
/// name takes the write lock, to insert it.
#[derive(Debug, Default)]
pub struct Recorder {
    hists: RwLock<BTreeMap<&'static str, Arc<Histogram>>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// The process-wide recorder every [`Timer`] reports into.
    pub fn global() -> &'static Recorder {
        static GLOBAL: OnceLock<Recorder> = OnceLock::new();
        GLOBAL.get_or_init(Recorder::new)
    }

    /// The histogram for `op`, created on first use.
    pub fn histogram(&self, op: &'static str) -> Arc<Histogram> {
        if let Some(h) = self.hists.read().unwrap().get(op) {
            return h.clone();
        }
        self.hists
            .write()
            .unwrap()
            .entry(op)
            .or_insert_with(|| Arc::new(Histogram::new()))
            .clone()
    }

    /// Record one value under `op` (most callers use [`Timer`] instead).
    pub fn record(&self, op: &'static str, value: u64) {
        if let Some(h) = self.hists.read().unwrap().get(op) {
            h.record(value);
            return;
        }
        self.histogram(op).record(value);
    }

    /// Snapshots of every histogram, keyed by op name.
    pub fn snapshot(&self) -> BTreeMap<&'static str, HistogramSnapshot> {
        self.hists
            .read()
            .unwrap()
            .iter()
            .map(|(k, v)| (*k, v.snapshot()))
            .collect()
    }

    /// Zero every histogram (the names stay registered).
    pub fn reset(&self) {
        for h in self.hists.read().unwrap().values() {
            h.reset();
        }
    }
}

/// RAII timing guard: started against an op name, it records the elapsed
/// microseconds into the global recorder's histogram for that op when
/// dropped. When observability is disabled ([`crate::enabled`] is false)
/// the guard is inert — it never reads the clock.
///
/// Guards optionally carry a [`Span`] tag ([`Timer::spanned`]): on drop a
/// span with the measured duration is pushed into the global ring.
///
/// Any timed op slower than the slow-op threshold
/// ([`crate::slow_op_threshold_us`], default off) is logged to stderr.
#[derive(Debug)]
pub struct Timer {
    op: &'static str,
    start: Option<Instant>,
    start_us: u64,
    tag: Option<String>,
}

impl Timer {
    /// Start timing `op`. A no-op (no clock read) when disabled.
    pub fn start(op: &'static str) -> Timer {
        if crate::enabled() {
            Timer {
                op,
                start_us: crate::now_us(),
                start: Some(Instant::now()),
                tag: None,
            }
        } else {
            Timer {
                op,
                start: None,
                start_us: 0,
                tag: None,
            }
        }
    }

    /// Start timing `op`, also emitting a [`Span`] tagged by `tag` on
    /// drop. The closure only runs when observability is enabled, so tag
    /// construction costs nothing on the disabled path.
    pub fn spanned(op: &'static str, tag: impl FnOnce() -> String) -> Timer {
        let mut t = Timer::start(op);
        if t.start.is_some() {
            t.tag = Some(tag());
        }
        t
    }

    /// Abandon the measurement (nothing is recorded on drop).
    pub fn cancel(mut self) {
        self.start = None;
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        let Some(start) = self.start.take() else {
            return;
        };
        let us = start.elapsed().as_micros() as u64;
        Recorder::global().record(self.op, us);
        let threshold = crate::slow_op_threshold_us();
        if threshold > 0 && us >= threshold {
            eprintln!(
                "[rl_obs] slow op: {} took {us}us (threshold {threshold}us){}{}",
                self.op,
                if self.tag.is_some() { " tag=" } else { "" },
                self.tag.as_deref().unwrap_or(""),
            );
        }
        if let Some(tag) = self.tag.take() {
            push_span(Span {
                op: self.op,
                tag,
                start_us: self.start_us,
                dur_us: us,
                counters: Vec::new(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_timer_records_nothing() {
        let _guard = crate::test_lock();
        crate::set_enabled(false);
        let before = Recorder::global().histogram("test_disabled").count();
        {
            let _t = Timer::start("test_disabled");
        }
        assert_eq!(
            Recorder::global().histogram("test_disabled").count(),
            before
        );
    }

    #[test]
    fn enabled_timer_records_once() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        let h = Recorder::global().histogram("test_enabled");
        let before = h.count();
        {
            let _t = Timer::start("test_enabled");
        }
        assert_eq!(h.count(), before + 1);
        crate::set_enabled(false);
    }

    #[test]
    fn spanned_timer_pushes_span() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        {
            let _t = Timer::spanned("test_spanned", || "tag-xyzzy".to_string());
        }
        crate::set_enabled(false);
        let spans = crate::drain_spans();
        assert!(spans
            .iter()
            .any(|s| s.op == "test_spanned" && s.tag == "tag-xyzzy"));
    }
}
