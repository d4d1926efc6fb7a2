//! Span tracing: lightweight spans in a fixed-capacity ring buffer.
//!
//! A [`Span`] is a completed unit of attributed work: an op name, a free-
//! form tag (tenant, subspace, plan-node path…), a start offset on the
//! process clock, a duration, and whatever counter deltas the emitter
//! attached. Spans are pushed into a fixed-capacity [`SpanRing`] that
//! overwrites the oldest entries — tracing never grows without bound and
//! never blocks writers on readers.
//!
//! Slot claiming is a single `fetch_add` on the head index (wait-free);
//! each slot then has its own tiny mutex so a reader draining the ring
//! never tears a half-written span.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Default capacity of the global ring.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// One completed, attributed unit of work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Static operation name (`txn`, `plan_node`, `wal_append`, …).
    pub op: &'static str,
    /// Free-form attribution: tenant, subspace hex, plan-node path….
    pub tag: String,
    /// Start time, µs since the process epoch ([`crate::now_us`]).
    pub start_us: u64,
    /// Duration in µs.
    pub dur_us: u64,
    /// Counter deltas attributed to this span, e.g.
    /// `[("rows", 20), ("keys_read", 61)]`.
    pub counters: Vec<(&'static str, u64)>,
}

impl Span {
    /// The value of a named counter, if attached.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }
}

/// Fixed-capacity overwrite-oldest span buffer.
#[derive(Debug)]
pub struct SpanRing {
    slots: Vec<Mutex<Option<Span>>>,
    head: AtomicU64,
}

impl SpanRing {
    pub fn new(capacity: usize) -> SpanRing {
        SpanRing {
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(0),
        }
    }

    /// The process-wide ring [`push_span`] writes into.
    pub fn global() -> &'static SpanRing {
        static GLOBAL: OnceLock<SpanRing> = OnceLock::new();
        GLOBAL.get_or_init(|| SpanRing::new(DEFAULT_RING_CAPACITY))
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total spans ever pushed (≥ the number currently held).
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Push a span, overwriting the oldest entry once full.
    #[expect(clippy::disallowed_methods, reason = "rl_obs is below rl_fdb::sync")]
    pub fn push(&self, span: Span) {
        let slot = self.head.fetch_add(1, Ordering::Relaxed) as usize % self.slots.len();
        *self.slots[slot]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(span);
    }

    /// Remove and return every held span, oldest first.
    #[expect(clippy::disallowed_methods, reason = "rl_obs is below rl_fdb::sync")]
    pub fn drain(&self) -> Vec<Span> {
        let head = self.head.load(Ordering::Relaxed) as usize;
        let cap = self.slots.len();
        let mut out = Vec::new();
        // Walk slots in insertion order: the oldest live slot is `head`
        // (mod cap) once the ring has wrapped, slot 0 before that.
        for i in 0..cap {
            let slot = (head + i) % cap;
            if let Some(span) = self.slots[slot]
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .take()
            {
                out.push(span);
            }
        }
        out
    }
}

/// Push a span into the global ring (no-op when observability is off).
pub fn push_span(span: Span) {
    if crate::enabled() {
        SpanRing::global().push(span);
    }
}

/// Drain the global ring: remove and return every held span, oldest
/// first.
pub fn drain_spans() -> Vec<Span> {
    SpanRing::global().drain()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(i: u64) -> Span {
        Span {
            op: "t",
            tag: format!("s{i}"),
            start_us: i,
            dur_us: 1,
            counters: vec![("i", i)],
        }
    }

    #[test]
    fn push_and_drain_in_order() {
        let ring = SpanRing::new(8);
        for i in 0..5 {
            ring.push(span(i));
        }
        let spans = ring.drain();
        assert_eq!(spans.len(), 5);
        assert_eq!(
            spans.iter().map(|s| s.start_us).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert_eq!(spans[3].counter("i"), Some(3));
        assert_eq!(spans[3].counter("nope"), None);
        assert!(ring.drain().is_empty(), "drain empties the ring");
    }

    #[test]
    fn overwrites_oldest_when_full() {
        let ring = SpanRing::new(4);
        for i in 0..10 {
            ring.push(span(i));
        }
        let spans = ring.drain();
        assert_eq!(spans.len(), 4);
        assert_eq!(
            spans.iter().map(|s| s.start_us).collect::<Vec<_>>(),
            vec![6, 7, 8, 9],
            "oldest spans were overwritten"
        );
        assert_eq!(ring.pushed(), 10);
    }

    #[test]
    fn concurrent_pushes_never_lose_the_ring() {
        let ring = std::sync::Arc::new(SpanRing::new(64));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let ring = ring.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        ring.push(span(t * 1000 + i));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(ring.pushed(), 400);
        assert_eq!(ring.drain().len(), 64);
    }
}
