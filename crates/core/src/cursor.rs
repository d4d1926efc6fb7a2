//! Streaming cursors with continuations and resource limits (§3.1, §4,
//! §8.2).
//!
//! Every operation that streams data — record scans, index scans, queries —
//! returns results through a [`RecordCursor`]. When a cursor stops, it
//! reports *why* ([`NoNextReason`]: the source ran out, or a return, scan or
//! byte limit was reached) and hands back a [`Continuation`]: an opaque
//! binary value encoding the position of the next value. A client (or the
//! same client in a later transaction) resumes by passing the continuation
//! back, which is how scans longer than the 5-second transaction limit are
//! split across transactions while the layer itself stays stateless.
//!
//! The pieces every plan leaf shares live here: [`KeyValueCursor`], the one
//! batched read of a raw key range (the record scan and the index-entry
//! reader build on it); [`ScanLimiter`], the scan and byte budget every
//! cursor of one plan charges; and [`TakeCursor`], the return limit a plan
//! applies at its root.

use std::sync::{Arc, Mutex};

use crate::error::{Error, Result};
use rl_fdb::sync::lock;
use rl_fdb::{RangeOptions, Transaction};

/// An opaque, serializable position in a cursor stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Continuation {
    /// Begin from the start of the stream.
    Start,
    /// Resume after the encoded position.
    At(Vec<u8>),
    /// The stream is exhausted; resuming returns nothing.
    End,
}

impl Continuation {
    /// Serialize for transport to a client. The encoding is
    /// self-describing: 0x00 = start, 0x01 ‖ pos = position, 0x02 = end.
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            Continuation::Start => vec![0x00],
            Continuation::At(pos) => {
                let mut out = Vec::with_capacity(pos.len() + 1);
                out.push(0x01);
                out.extend_from_slice(pos);
                out
            }
            Continuation::End => vec![0x02],
        }
    }

    /// Deserialize a client-supplied continuation.
    pub fn from_bytes(bytes: &[u8]) -> Result<Continuation> {
        match bytes.split_first() {
            Some((0x00, [])) => Ok(Continuation::Start),
            Some((0x01, rest)) => Ok(Continuation::At(rest.to_vec())),
            Some((0x02, [])) => Ok(Continuation::End),
            _ => Err(Error::InvalidContinuation(
                "unrecognized continuation encoding".into(),
            )),
        }
    }

    pub fn is_end(&self) -> bool {
        matches!(self, Continuation::End)
    }
}

/// Why a cursor returned no next value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoNextReason {
    /// There are genuinely no more values.
    SourceExhausted,
    /// The caller's return-row limit was reached.
    ReturnLimitReached,
    /// The scanned-records limit was reached (§8.2 resource isolation).
    ScanLimitReached,
    /// The scanned-bytes limit was reached.
    ByteLimitReached,
}

impl NoNextReason {
    /// Out-of-band reasons mean "stopped early — resume with the
    /// continuation"; in-band means the data ran out.
    pub fn is_out_of_band(&self) -> bool {
        !matches!(self, NoNextReason::SourceExhausted)
    }
}

/// One step of a cursor.
#[derive(Debug, Clone, PartialEq)]
pub enum CursorResult<T> {
    /// A value, plus the continuation that resumes *after* it.
    Next {
        value: T,
        continuation: Continuation,
    },
    /// No next value; the continuation resumes where the cursor stopped.
    NoNext {
        reason: NoNextReason,
        continuation: Continuation,
    },
}

impl<T> CursorResult<T> {
    pub fn value(&self) -> Option<&T> {
        match self {
            CursorResult::Next { value, .. } => Some(value),
            CursorResult::NoNext { .. } => None,
        }
    }

    pub fn continuation(&self) -> &Continuation {
        match self {
            CursorResult::Next { continuation, .. } => continuation,
            CursorResult::NoNext { continuation, .. } => continuation,
        }
    }

    /// Map a `Next`'s value, keeping its continuation; a stop passes
    /// through.
    pub(crate) fn try_map<U>(self, f: impl FnOnce(T) -> Result<U>) -> Result<CursorResult<U>> {
        Ok(match self {
            CursorResult::Next {
                value,
                continuation,
            } => CursorResult::Next {
                value: f(value)?,
                continuation,
            },
            CursorResult::NoNext {
                reason,
                continuation,
            } => CursorResult::NoNext {
                reason,
                continuation,
            },
        })
    }
}

/// A pull-based cursor over a stream of values.
pub trait RecordCursor {
    type Item;

    /// Advance to the next value or stopping condition.
    fn next(&mut self) -> Result<CursorResult<Self::Item>>;

    /// Drain into a vector, returning the values plus the final
    /// no-next result `(reason, continuation)`.
    fn collect_remaining(&mut self) -> Result<(Vec<Self::Item>, NoNextReason, Continuation)>
    where
        Self: Sized,
    {
        let mut out = Vec::new();
        loop {
            match self.next()? {
                CursorResult::Next { value, .. } => out.push(value),
                CursorResult::NoNext {
                    reason,
                    continuation,
                } => return Ok((out, reason, continuation)),
            }
        }
    }
}

impl<T> RecordCursor for Box<dyn RecordCursor<Item = T> + '_> {
    type Item = T;

    fn next(&mut self) -> Result<CursorResult<T>> {
        (**self).next()
    }
}

/// Execution limits for an operation (§8.2: "the Record Layer's ability to
/// enforce limits on the total number of records or bytes read while
/// servicing a request").
#[derive(Debug, Clone, Default)]
pub struct ExecuteProperties {
    /// Maximum rows to *return* before stopping with `ReturnLimitReached`.
    pub return_limit: Option<usize>,
    /// Maximum underlying records/entries to *scan* before stopping with
    /// `ScanLimitReached` (scans ≥ returns when filters discard rows).
    pub scan_limit: Option<usize>,
    /// Maximum bytes to scan before stopping with `ByteLimitReached`.
    pub byte_limit: Option<usize>,
    /// Use snapshot isolation for reads (no read conflicts).
    pub snapshot: bool,
    /// A limiter already shared by an enclosing plan execution. When set,
    /// [`ExecuteProperties::limiter`] hands out clones of this limiter so
    /// every cursor spawned by one plan draws from a single scan budget;
    /// when unset, each call mints a fresh budget from the limits above.
    pub(crate) shared_limiter: Option<ScanLimiter>,
}

impl ExecuteProperties {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_return_limit(mut self, n: usize) -> Self {
        self.return_limit = Some(n);
        self
    }

    pub fn with_scan_limit(mut self, n: usize) -> Self {
        self.scan_limit = Some(n);
        self
    }

    pub fn with_byte_limit(mut self, n: usize) -> Self {
        self.byte_limit = Some(n);
        self
    }

    pub fn with_snapshot(mut self, snapshot: bool) -> Self {
        self.snapshot = snapshot;
        self
    }

    pub fn limiter(&self) -> ScanLimiter {
        match &self.shared_limiter {
            Some(l) => l.clone(),
            None => ScanLimiter::new(self.scan_limit, self.byte_limit),
        }
    }

    /// Install a single shared scan budget: all subsequent `limiter()`
    /// calls on (clones of) these properties charge the same budget.
    pub(crate) fn share_limiter(&mut self) {
        if self.shared_limiter.is_none() {
            self.shared_limiter = Some(ScanLimiter::new(self.scan_limit, self.byte_limit));
        }
    }
}

#[derive(Debug)]
struct ScanState {
    records_remaining: Option<isize>,
    bytes_remaining: Option<isize>,
}

/// Shared scan-budget tracker. Multiple cursors feeding one plan share a
/// single limiter so the *total* work is bounded. A limiter without a
/// scan or a byte limit holds no state, and charging it takes no lock.
#[derive(Debug, Clone)]
pub struct ScanLimiter {
    state: Option<Arc<Mutex<ScanState>>>,
}

impl ScanLimiter {
    pub fn new(scan_limit: Option<usize>, byte_limit: Option<usize>) -> Self {
        let limited = scan_limit.is_some() || byte_limit.is_some();
        ScanLimiter {
            state: limited.then(|| {
                Arc::new(Mutex::new(ScanState {
                    records_remaining: scan_limit.map(|n| n as isize),
                    bytes_remaining: byte_limit.map(|n| n as isize),
                }))
            }),
        }
    }

    /// An unlimited limiter.
    pub fn unlimited() -> Self {
        ScanLimiter::new(None, None)
    }

    /// Charge one scanned record of `bytes` size. Returns the stop reason
    /// if a budget has been exhausted *before* this scan.
    pub fn try_record_scan(&self, bytes: usize) -> Option<NoNextReason> {
        let mut st = lock(self.state.as_ref()?);
        if let Some(r) = st.records_remaining {
            if r <= 0 {
                return Some(NoNextReason::ScanLimitReached);
            }
        }
        if let Some(b) = st.bytes_remaining {
            if b <= 0 {
                return Some(NoNextReason::ByteLimitReached);
            }
        }
        if let Some(r) = st.records_remaining.as_mut() {
            *r -= 1;
        }
        if let Some(b) = st.bytes_remaining.as_mut() {
            *b -= bytes as isize;
        }
        None
    }
}

/// The largest batch a [`KeyValueCursor`] asks the transaction for.
const MAX_BATCH: usize = 256;

/// A cursor over raw key-value pairs in a key range, reading in batches and
/// producing a continuation after every row. The continuation encodes the
/// last-returned key.
///
/// Batches are limit-bounded range reads, so a batch costs what it
/// returns. A cursor that knows how many rows its consumer wants
/// ([`ExecuteProperties::return_limit`]) asks for exactly that many first
/// and doubles each further batch up to `MAX_BATCH` (256) — a further
/// batch is only needed when a filter above dropped rows or a record spans
/// several keys (FDB's iterator streaming mode). Without a return limit
/// every batch is `MAX_BATCH` rows.
pub struct KeyValueCursor<'a> {
    tx: &'a Transaction,
    begin: Vec<u8>,
    end: Vec<u8>,
    reverse: bool,
    snapshot: bool,
    batch_size: usize,
    limiter: ScanLimiter,
    buffer: std::collections::VecDeque<rl_fdb::KeyValue>,
    exhausted_source: bool,
    /// The position: the key of the last row returned, or the one the
    /// cursor was resumed after. The next batch reads past it.
    last_key: Option<Vec<u8>>,
    done: bool,
}

impl<'a> KeyValueCursor<'a> {
    /// Create a cursor over `[begin, end)`, resuming from `continuation`.
    pub fn new(
        tx: &'a Transaction,
        begin: Vec<u8>,
        end: Vec<u8>,
        reverse: bool,
        snapshot: bool,
        limiter: ScanLimiter,
        continuation: &Continuation,
    ) -> Self {
        KeyValueCursor {
            tx,
            begin,
            end,
            reverse,
            snapshot,
            batch_size: MAX_BATCH,
            limiter,
            buffer: std::collections::VecDeque::new(),
            exhausted_source: false,
            last_key: match continuation {
                Continuation::At(last) => Some(last.clone()),
                Continuation::Start | Continuation::End => None,
            },
            done: continuation.is_end(),
        }
    }

    /// Size the first batch for a consumer that wants `rows` rows (no-op
    /// for `None`): the plan's return limit, handed down by the cursors
    /// that execute it.
    pub(crate) fn expecting(mut self, rows: Option<usize>) -> Self {
        if let Some(rows) = rows {
            self.batch_size = rows.clamp(1, MAX_BATCH);
        }
        self
    }

    fn continuation(&self) -> Continuation {
        match &self.last_key {
            Some(k) => Continuation::At(k.clone()),
            None => Continuation::Start,
        }
    }

    /// What [`RecordCursor::next`] reports when [`next_row`](Self::next_row)
    /// gives `reason`: exhaustion ends the stream, any other stop resumes
    /// at the position.
    pub(crate) fn stop<T>(&self, reason: NoNextReason) -> CursorResult<T> {
        let continuation = match reason {
            NoNextReason::SourceExhausted => Continuation::End,
            _ => self.continuation(),
        };
        CursorResult::NoNext {
            reason,
            continuation,
        }
    }

    /// Read the next batch: the rows of `[begin, end)` strictly past the
    /// position. Called only with the buffer drained, so the position is
    /// the last row of the batch before.
    fn fill_buffer(&mut self) -> Result<()> {
        if self.exhausted_source {
            return Ok(());
        }
        let options = RangeOptions::new()
            .limit(self.batch_size)
            .reverse(self.reverse);
        let after;
        let (begin, end) = match &self.last_key {
            None => (self.begin.as_slice(), self.end.as_slice()),
            Some(last) if self.reverse => (self.begin.as_slice(), last.as_slice()),
            Some(last) => {
                after = rl_fdb::key_after(last);
                (after.as_slice(), self.end.as_slice())
            }
        };
        let kvs = if self.snapshot {
            self.tx.get_range_snapshot(begin, end, options)?
        } else {
            self.tx.get_range(begin, end, options)?
        };
        if kvs.len() < self.batch_size {
            self.exhausted_source = true;
        }
        self.batch_size = (self.batch_size * 2).min(MAX_BATCH);
        self.buffer = kvs.into();
        Ok(())
    }

    /// The next row, or why there is none, without building the
    /// continuation [`RecordCursor::next`] attaches to it: for a consumer
    /// that keeps a position of its own (the record scan resumes at record
    /// boundaries, not at keys), or that is done with the row's key once
    /// it has read it and moves it into `Continuation::At` instead of
    /// copying it (the index cursors).
    pub(crate) fn next_row(
        &mut self,
    ) -> Result<std::result::Result<rl_fdb::KeyValue, NoNextReason>> {
        if self.done {
            return Ok(Err(NoNextReason::SourceExhausted));
        }
        if self.buffer.is_empty() {
            self.fill_buffer()?;
        }
        let Some(front) = self.buffer.front() else {
            self.done = true;
            return Ok(Err(NoNextReason::SourceExhausted));
        };
        if let Some(reason) = self
            .limiter
            .try_record_scan(front.key.len() + front.value.len())
        {
            return Ok(Err(reason));
        }
        let kv = self.buffer.pop_front().expect("front was just seen");
        self.last_key
            .get_or_insert_with(Vec::new)
            .clone_from(&kv.key);
        Ok(Ok(kv))
    }
}

impl RecordCursor for KeyValueCursor<'_> {
    type Item = rl_fdb::KeyValue;

    fn next(&mut self) -> Result<CursorResult<rl_fdb::KeyValue>> {
        Ok(match self.next_row()? {
            Ok(kv) => CursorResult::Next {
                continuation: Continuation::At(kv.key.clone()),
                value: kv,
            },
            Err(reason) => self.stop(reason),
        })
    }
}

/// Adapter enforcing a return-row limit.
pub struct TakeCursor<C> {
    inner: C,
    remaining: usize,
    last_continuation: Continuation,
}

impl<C: RecordCursor> TakeCursor<C> {
    pub fn new(inner: C, limit: usize) -> Self {
        TakeCursor {
            inner,
            remaining: limit,
            last_continuation: Continuation::Start,
        }
    }
}

impl<C: RecordCursor> RecordCursor for TakeCursor<C> {
    type Item = C::Item;

    fn next(&mut self) -> Result<CursorResult<C::Item>> {
        if self.remaining == 0 {
            return Ok(CursorResult::NoNext {
                reason: NoNextReason::ReturnLimitReached,
                continuation: self.last_continuation.clone(),
            });
        }
        match self.inner.next()? {
            CursorResult::Next {
                value,
                continuation,
            } => {
                self.remaining -= 1;
                if self.remaining == 0 {
                    // The only row whose continuation is asked for again.
                    self.last_continuation = continuation.clone();
                }
                Ok(CursorResult::Next {
                    value,
                    continuation,
                })
            }
            stop @ CursorResult::NoNext { .. } => Ok(stop),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_fdb::Database;

    #[test]
    fn continuation_roundtrip() {
        for c in [
            Continuation::Start,
            Continuation::At(b"pos".to_vec()),
            Continuation::End,
        ] {
            assert_eq!(Continuation::from_bytes(&c.to_bytes()).unwrap(), c);
        }
        assert!(Continuation::from_bytes(&[]).is_err());
        assert!(Continuation::from_bytes(&[9]).is_err());
        assert!(Continuation::from_bytes(&[0, 1]).is_err());
    }

    #[test]
    fn no_next_reason_bands() {
        assert!(!NoNextReason::SourceExhausted.is_out_of_band());
        assert!(NoNextReason::ScanLimitReached.is_out_of_band());
        assert!(NoNextReason::ReturnLimitReached.is_out_of_band());
    }

    fn seed_db() -> Database {
        let db = Database::new();
        let tx = db.create_transaction();
        for i in 0..20u8 {
            tx.set(&[b'k', i], &[i]);
        }
        tx.commit().unwrap();
        db
    }

    /// A forward cursor over the seeded `k` rows, resuming from `from`.
    fn seeded_rows<'a>(tx: &'a rl_fdb::Transaction, from: &Continuation) -> KeyValueCursor<'a> {
        KeyValueCursor::new(
            tx,
            b"k".to_vec(),
            b"l".to_vec(),
            false,
            false,
            ScanLimiter::unlimited(),
            from,
        )
    }

    #[test]
    fn kv_cursor_scans_in_order() {
        let db = seed_db();
        let tx = db.create_transaction();
        let (items, reason, cont) = seeded_rows(&tx, &Continuation::Start)
            .collect_remaining()
            .unwrap();
        assert_eq!(items.len(), 20);
        assert_eq!(reason, NoNextReason::SourceExhausted);
        assert!(cont.is_end());
        assert!(items.windows(2).all(|w| w[0].key < w[1].key));
    }

    #[test]
    fn kv_cursor_reverse() {
        let db = seed_db();
        let tx = db.create_transaction();
        let mut c = KeyValueCursor::new(
            &tx,
            b"k".to_vec(),
            b"l".to_vec(),
            true,
            false,
            ScanLimiter::unlimited(),
            &Continuation::Start,
        );
        let (items, _, _) = c.collect_remaining().unwrap();
        assert_eq!(items.len(), 20);
        assert!(items.windows(2).all(|w| w[0].key > w[1].key));
    }

    #[test]
    fn kv_cursor_resumes_from_continuation() {
        let db = seed_db();
        let tx = db.create_transaction();
        let limiter = ScanLimiter::new(Some(7), None);
        let mut c = KeyValueCursor::new(
            &tx,
            b"k".to_vec(),
            b"l".to_vec(),
            false,
            false,
            limiter,
            &Continuation::Start,
        );
        let (first, reason, cont) = c.collect_remaining().unwrap();
        assert_eq!(first.len(), 7);
        assert_eq!(reason, NoNextReason::ScanLimitReached);

        // Resume — possibly in a brand-new transaction (statelessness).
        let tx2 = db.create_transaction();
        let (rest, reason, _) = seeded_rows(&tx2, &cont).collect_remaining().unwrap();
        assert_eq!(rest.len(), 13);
        assert_eq!(reason, NoNextReason::SourceExhausted);
        assert_eq!(rest[0].key, vec![b'k', 7]);
    }

    #[test]
    fn kv_cursor_reverse_resume() {
        let db = seed_db();
        let tx = db.create_transaction();
        let limiter = ScanLimiter::new(Some(5), None);
        let mut c = KeyValueCursor::new(
            &tx,
            b"k".to_vec(),
            b"l".to_vec(),
            true,
            false,
            limiter,
            &Continuation::Start,
        );
        let (first, _, cont) = c.collect_remaining().unwrap();
        assert_eq!(first.len(), 5);
        assert_eq!(first.last().unwrap().key, vec![b'k', 15]);

        let mut c2 = KeyValueCursor::new(
            &tx,
            b"k".to_vec(),
            b"l".to_vec(),
            true,
            false,
            ScanLimiter::unlimited(),
            &cont,
        );
        let (rest, _, _) = c2.collect_remaining().unwrap();
        assert_eq!(rest.len(), 15);
        assert_eq!(rest[0].key, vec![b'k', 14]);
    }

    #[test]
    fn byte_limit_stops_scan() {
        let db = seed_db();
        let tx = db.create_transaction();
        let limiter = ScanLimiter::new(None, Some(10)); // each row is 3 bytes
        let mut c = KeyValueCursor::new(
            &tx,
            b"k".to_vec(),
            b"l".to_vec(),
            false,
            false,
            limiter,
            &Continuation::Start,
        );
        let (items, reason, _) = c.collect_remaining().unwrap();
        assert_eq!(reason, NoNextReason::ByteLimitReached);
        assert!(items.len() < 20);
    }

    #[test]
    fn map_filter_take_combinators() {
        let db = seed_db();
        let tx = db.create_transaction();
        let mut limited = TakeCursor::new(seeded_rows(&tx, &Continuation::Start), 3);
        let (rows, reason, continuation) = limited.collect_remaining().unwrap();
        let values: Vec<Vec<u8>> = rows.into_iter().map(|kv| kv.value).collect();
        assert_eq!(values, vec![vec![0], vec![1], vec![2]]);
        assert_eq!(reason, NoNextReason::ReturnLimitReached);
        // The limit's continuation resumes after the last returned row.
        let mut resumed = seeded_rows(&tx, &continuation);
        assert_eq!(resumed.next().unwrap().value().unwrap().key, vec![b'k', 3]);
    }

    #[test]
    fn take_cursor_reports_source_exhaustion_when_shorter() {
        let db = seed_db();
        let tx = db.create_transaction();
        let mut limited = TakeCursor::new(seeded_rows(&tx, &Continuation::Start), 30);
        let (rows, reason, continuation) = limited.collect_remaining().unwrap();
        assert_eq!(rows.len(), 20);
        assert_eq!(reason, NoNextReason::SourceExhausted);
        assert!(continuation.is_end());
    }

    #[test]
    fn shared_limiter_bounds_total_work() {
        let limiter = ScanLimiter::new(Some(5), None);
        assert!(limiter.try_record_scan(1).is_none());
        for _ in 0..4 {
            limiter.try_record_scan(1);
        }
        assert_eq!(
            limiter.try_record_scan(1),
            Some(NoNextReason::ScanLimitReached)
        );
        // A clone shares the same budget.
        let clone = limiter.clone();
        assert_eq!(
            clone.try_record_scan(1),
            Some(NoNextReason::ScanLimitReached)
        );
    }
}
