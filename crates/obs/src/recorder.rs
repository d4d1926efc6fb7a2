//! The process recorder: a histogram per [`Op`], and the `Timer` guard.

use std::collections::BTreeMap;
use std::sync::LazyLock;
use std::time::Instant;

use crate::hist::{Histogram, HistogramSnapshot};

macro_rules! ops {
    ($($op:ident = $name:literal,)*) => {
        /// Every operation the recorder keeps a histogram for: a closed set,
        /// declared once below, so a sample indexes the table by its variant.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Op { $($op,)* }

        impl Op {
            /// Every op, in declaration order (`Op::ALL[i] as usize == i`).
            pub const ALL: [Op; [$($name),*].len()] = [$(Op::$op),*];

            /// The op's name in reports and [`Recorder::snapshot`].
            pub const fn name(self) -> &'static str {
                [$($name),*][self as usize]
            }
        }
    };
}

ops! {
    Grv = "grv",
    Get = "get",
    GetRange = "get_range",
    Commit = "commit",
    ShardAcquire = "shard_acquire",
    StoreLockWaitLeader = "store_lock_wait_leader",
    StoreLockWaitRead = "store_lock_wait_read",
    BatchApply = "batch_apply",
    BatchSeal = "batch_seal",
    Compact = "compact",
    BufferFlush = "buffer_flush",
    CompactKeys = "compact_keys",
    WalAppend = "wal_append",
    PageRead = "page_read",
    PageFlush = "page_flush",
    ChainBytes = "chain_bytes",
    Plan = "plan",
    Execute = "execute",
}

/// The process's histograms, one per [`Op`], indexed by `op as usize`.
#[derive(Debug)]
pub struct Recorder([Histogram; Op::ALL.len()]);

impl Recorder {
    /// The process-wide recorder every [`Timer`] reports into.
    pub fn global() -> &'static Recorder {
        static GLOBAL: LazyLock<Recorder> =
            LazyLock::new(|| Recorder(std::array::from_fn(|_| Histogram::new())));
        &GLOBAL
    }

    /// The histogram for `op`.
    pub fn histogram(&self, op: Op) -> &Histogram {
        &self.0[op as usize]
    }

    /// Snapshots of every histogram with samples, keyed by op name.
    pub fn snapshot(&self) -> BTreeMap<&'static str, HistogramSnapshot> {
        Op::ALL
            .into_iter()
            .map(|op| (op.name(), self.histogram(op).snapshot()))
            .filter(|(_, h)| h.count() > 0)
            .collect()
    }

    /// Zero every histogram.
    pub fn reset(&self) {
        self.0.iter().for_each(Histogram::reset);
    }
}

/// Record `value` under `op` in the global recorder when observability is
/// on ([`crate::enabled`]); most callers time with [`Timer`] instead.
#[inline]
pub fn record(op: Op, value: u64) {
    if crate::enabled() {
        Recorder::global().histogram(op).record(value);
    }
}

/// RAII timing guard: started against an op, it records the elapsed
/// microseconds into the global recorder's histogram for that op when
/// dropped. When observability is disabled ([`crate::enabled`] is false)
/// the guard is inert — it never reads the clock.
#[derive(Debug)]
pub struct Timer(Option<(&'static Histogram, Instant)>);

impl Timer {
    /// Start timing `op`. A no-op (no clock read) when disabled.
    #[expect(clippy::disallowed_methods, reason = "measured time lives in rl_obs")]
    #[inline]
    pub fn start(op: Op) -> Timer {
        Timer(crate::enabled().then(|| (Recorder::global().histogram(op), Instant::now())))
    }
}

impl Drop for Timer {
    #[inline]
    fn drop(&mut self) {
        if let Some((histogram, start)) = self.0 {
            histogram.record(start.elapsed().as_micros() as u64);
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
        let h = Recorder::global().histogram(Op::Plan);
        let before = h.count();
        {
            let _t = Timer::start(Op::Plan);
        }
        record(Op::Plan, 1);
        assert_eq!(h.count(), before);
    }

    #[test]
    fn enabled_timer_records_once() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        let h = Recorder::global().histogram(Op::Execute);
        let before = h.count();
        {
            let _t = Timer::start(Op::Execute);
        }
        crate::set_enabled(false);
        assert_eq!(h.count(), before + 1);
    }

    /// The table is the enum: each op indexes its own slot, under a name
    /// of its own, and the names the reports read are all there.
    #[test]
    fn the_table_is_the_enum() {
        let _guard = crate::test_lock();
        for (i, op) in Op::ALL.into_iter().enumerate() {
            assert_eq!(op as usize, i, "{op:?}");
        }
        let names: std::collections::BTreeSet<_> = Op::ALL.map(Op::name).into();
        assert_eq!(names.len(), Op::ALL.len(), "names are unique");
        // The ruler's `*_obs_p50_us` metrics, then the commit-path stages
        // `tests/observability.rs` checks.
        for name in [
            "get",
            "get_range",
            "wal_append",
            "page_read",
            "page_flush",
            "shard_acquire",
            "store_lock_wait_leader",
            "batch_apply",
            "batch_seal",
            "compact",
            "store_lock_wait_read",
        ] {
            assert!(names.contains(name), "{name}");
        }

        let recorder = Recorder::global();
        crate::set_enabled(true);
        recorder.reset();
        assert!(recorder.snapshot().is_empty());
        record(Op::Grv, 1);
        record(Op::Grv, 2);
        record(Op::ChainBytes, 3);
        crate::set_enabled(false);
        let snap = recorder.snapshot();
        assert_eq!(
            snap.keys().copied().collect::<Vec<_>>(),
            ["chain_bytes", "grv"]
        );
        assert_eq!((snap["grv"].count(), snap["grv"].sum()), (2, 3));
        assert_eq!(snap["chain_bytes"].count(), 1);
        recorder.reset();
        assert!(recorder.snapshot().is_empty());
    }

    /// Samples recorded from several threads at once all land.
    #[test]
    fn concurrent_samples_all_land() {
        let _guard = crate::test_lock();
        let h = Recorder::global().histogram(Op::CompactKeys);
        let before = h.snapshot();
        let start = std::sync::Barrier::new(4);
        crate::set_enabled(true);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    for i in 0..1_000 {
                        record(Op::CompactKeys, t * 1_000 + i);
                    }
                });
            }
        });
        crate::set_enabled(false);
        let after = h.snapshot();
        assert_eq!(after.count() - before.count(), 4_000);
        assert_eq!(after.sum() - before.sum(), (0..4_000).sum::<u64>());
    }
}
