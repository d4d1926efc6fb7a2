//! The process recorder: named histograms plus the `Timer` RAII guard.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

use crate::hist::{Histogram, HistogramSnapshot};

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

    /// The registry, shared. A panic in another thread while it held the
    /// lock leaves the map whole (a write is one insert), so the poison is
    /// recovered here rather than passed on to every later sample.
    #[expect(clippy::disallowed_methods, reason = "rl_obs is below rl_fdb::sync")]
    fn read(&self) -> RwLockReadGuard<'_, BTreeMap<&'static str, Arc<Histogram>>> {
        self.hists.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The registry, exclusive; recovers from poison like [`Self::read`].
    #[expect(clippy::disallowed_methods, reason = "rl_obs is below rl_fdb::sync")]
    fn write(&self) -> RwLockWriteGuard<'_, BTreeMap<&'static str, Arc<Histogram>>> {
        self.hists.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// The histogram for `op`, created on first use.
    pub fn histogram(&self, op: &'static str) -> Arc<Histogram> {
        if let Some(h) = self.read().get(op) {
            return h.clone();
        }
        self.write()
            .entry(op)
            .or_insert_with(|| Arc::new(Histogram::new()))
            .clone()
    }

    /// Record one value under `op` (most callers use [`Timer`] instead).
    pub fn record(&self, op: &'static str, value: u64) {
        if let Some(h) = self.read().get(op) {
            h.record(value);
            return;
        }
        self.histogram(op).record(value);
    }

    /// Snapshots of every histogram, keyed by op name.
    pub fn snapshot(&self) -> BTreeMap<&'static str, HistogramSnapshot> {
        self.read()
            .iter()
            .map(|(k, v)| (*k, v.snapshot()))
            .collect()
    }

    /// Zero every histogram (the names stay registered).
    pub fn reset(&self) {
        for h in self.read().values() {
            h.reset();
        }
    }
}

/// RAII timing guard: started against an op name, it records the elapsed
/// microseconds into the global recorder's histogram for that op when
/// dropped. When observability is disabled ([`crate::enabled`] is false)
/// the guard is inert — it never reads the clock.
#[derive(Debug)]
pub struct Timer {
    op: &'static str,
    start: Option<Instant>,
}

impl Timer {
    /// Start timing `op`. A no-op (no clock read) when disabled.
    #[expect(clippy::disallowed_methods, reason = "measured time lives in rl_obs")]
    pub fn start(op: &'static str) -> Timer {
        Timer {
            op,
            start: crate::enabled().then(Instant::now),
        }
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        let Some(start) = self.start.take() else {
            return;
        };
        Recorder::global().record(self.op, start.elapsed().as_micros() as u64);
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
    fn poisoned_registry_keeps_recording() {
        let recorder = Arc::new(Recorder::new());
        recorder.record("poison_before", 1);
        let holder = recorder.clone();
        let _ = std::thread::spawn(move || {
            let _g = holder.write();
            panic!("poison the registry");
        })
        .join();
        assert!(recorder.hists.is_poisoned());
        recorder.record("poison_before", 2);
        recorder.record("poison_after", 3);
        assert_eq!(recorder.histogram("poison_before").count(), 2);
        assert_eq!(recorder.snapshot()["poison_after"].count(), 1);
        recorder.reset();
        assert_eq!(recorder.histogram("poison_after").count(), 0);
    }
}
