//! Spans the benchmark takes around its own calls into each layer.
//!
//! A span is a name, a start, an end, the span that caused it and the id
//! of the operation it belongs to. They are kept in memory and written
//! out when the run ends. With the tracer off, `begin`/`end` are one
//! predictable branch each and never read the clock, so the measured
//! rounds run the same code as the traced ones.

use std::time::{Duration, Instant};

/// Index of a span's parent; `NO_PARENT` marks an operation's root span.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// The operation this span belongs to (unique per client).
    pub op: u64,
    /// Index into the same span list, or [`NO_PARENT`].
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_op: u64,
    spans: Vec<Span>,
    stack: Vec<u32>,
    handicap: Option<(&'static str, Duration)>,
}

impl Tracer {
    /// `epoch` is shared by every client of a run so their spans sit on
    /// one time axis; `first_op` keeps op ids distinct across clients.
    pub fn new(epoch: Instant, first_op: u64) -> Tracer {
        Tracer {
            on: false,
            epoch,
            next_op: first_op,
            spans: Vec::new(),
            stack: Vec::new(),
            handicap: None,
        }
    }

    /// Make every op of `class` spin for `ns` inside its measured latency.
    /// Only the self-test that checks the measurement itself sets this: a
    /// slowdown put into one class must show on that class, in full, and
    /// on no other.
    pub fn set_handicap(&mut self, class: &'static str, ns: u64) {
        self.handicap = Some((class, Duration::from_nanos(ns)));
    }

    #[inline]
    pub fn handicap(&self, class: &'static str) -> Option<Duration> {
        self.handicap
            .filter(|(handicapped, _)| *handicapped == class)
            .map(|(_, spin)| spin)
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Start a new operation: its root span has no parent, and every span
    /// begun before the matching [`Tracer::end`] is its descendant.
    #[inline]
    pub fn begin_op(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(NO_PARENT);
        }
        self.next_op += 1;
        self.stack.clear();
        self.begin(name)
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(NO_PARENT);
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            op: self.next_op,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            start_ns: 0,
            end_ns: 0,
        });
        self.stack.push(idx);
        // Read the clock last, so the bookkeeping above is charged to the
        // parent and not to this span.
        self.spans[idx as usize].start_ns = self.epoch.elapsed().as_nanos() as u64;
        Open(idx)
    }

    #[inline]
    pub fn end(&mut self, open: Open) {
        if open.0 == NO_PARENT {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans[open.0 as usize].end_ns = now;
        // An error path may have skipped the `end` of inner spans; close
        // the stack down to this one.
        while let Some(top) = self.stack.pop() {
            if top == open.0 {
                break;
            }
            self.spans[top as usize].end_ns = now;
        }
    }

    pub fn take_spans(&mut self) -> Vec<Span> {
        self.stack.clear();
        std::mem::take(&mut self.spans)
    }
}

/// For each root span: `(root, time covered by its direct children)`.
pub fn roots_with_child_time(spans: &[Span]) -> Vec<(Span, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .filter(|(s, _)| s.parent == NO_PARENT)
        .map(|(s, c)| (*s, c))
        .collect()
}
