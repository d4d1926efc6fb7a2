//! Scans: tuple ranges over the record and index subspaces, and the two
//! cursors that stream records and index entries with continuations.

use std::borrow::Cow;

use rl_fdb::subspace::Subspace;
use rl_fdb::tuple::{Tuple, TupleReader};
use rl_fdb::KeyValue;

use super::record::RecordAssembler;
use super::{RecordStore, StoredRecord};
use crate::cursor::{
    Continuation, CursorResult, ExecuteProperties, KeyValueCursor, NoNextReason, RecordCursor,
};
use crate::error::{Error, Result};
use crate::index::IndexEntry;

/// An inclusive/exclusive range over tuples, mapped onto byte ranges within
/// an index or record subspace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TupleRange {
    pub low: Option<(Tuple, bool)>,
    pub high: Option<(Tuple, bool)>,
}

impl TupleRange {
    /// The unbounded range.
    pub fn all() -> Self {
        TupleRange::default()
    }

    /// All tuples extending `prefix` (equality on the leading columns).
    pub fn prefix(prefix: Tuple) -> Self {
        TupleRange {
            low: Some((prefix.clone(), true)),
            high: Some((prefix, true)),
        }
    }

    pub fn between(low: Option<(Tuple, bool)>, high: Option<(Tuple, bool)>) -> Self {
        TupleRange { low, high }
    }

    /// Map to a concrete byte range within `subspace`. Inclusive bounds
    /// cover all tuples extending the bound; exclusive bounds skip them.
    pub fn to_byte_range(&self, subspace: &Subspace) -> (Vec<u8>, Vec<u8>) {
        let (default_begin, default_end) = subspace.range();
        let begin = match &self.low {
            None => default_begin,
            Some((t, inclusive)) => {
                let packed = subspace.pack(t);
                if *inclusive {
                    packed
                } else {
                    let mut k = packed;
                    k.push(0xFF);
                    k
                }
            }
        };
        let end = match &self.high {
            None => default_end,
            Some((t, inclusive)) => {
                let packed = subspace.pack(t);
                if *inclusive {
                    let mut k = packed;
                    k.push(0xFF);
                    k
                } else {
                    packed
                }
            }
        };
        (begin, end)
    }
}

impl<'a> RecordStore<'a> {
    /// Scan records by primary-key range, streaming with continuations.
    pub fn scan_records(
        &self,
        range: &TupleRange,
        continuation: &Continuation,
        props: &ExecuteProperties,
    ) -> Result<RecordScanCursor<'a>> {
        RecordScanCursor::new(self, range, false, continuation, props)
    }

    /// Reverse-order record scan.
    pub fn scan_records_reverse(
        &self,
        range: &TupleRange,
        continuation: &Continuation,
        props: &ExecuteProperties,
    ) -> Result<RecordScanCursor<'a>> {
        RecordScanCursor::new(self, range, true, continuation, props)
    }

    /// Scan a VALUE-shaped index (VALUE or VERSION) by entry-key range.
    pub fn scan_index(
        &self,
        index_name: &str,
        range: &TupleRange,
        continuation: &Continuation,
        reverse: bool,
        props: &ExecuteProperties,
    ) -> Result<IndexScanCursor<'a>> {
        let range = |subspace: &Subspace| range.to_byte_range(subspace);
        IndexScanCursor::new(self, index_name, true, range, reverse, continuation, props)
    }

    /// Scan an index without the readability check (for maintenance tools).
    pub fn scan_index_unchecked(
        &self,
        index_name: &str,
        range: &TupleRange,
        continuation: &Continuation,
        reverse: bool,
        props: &ExecuteProperties,
    ) -> Result<IndexScanCursor<'a>> {
        let range = |subspace: &Subspace| range.to_byte_range(subspace);
        IndexScanCursor::new(self, index_name, false, range, reverse, continuation, props)
    }
}

// ---------------------------------------------------------------- cursors

/// Streams whole records from the record extent, reassembling splits and
/// producing a continuation at each record boundary.
pub struct RecordScanCursor<'a> {
    store: RecordStore<'a>,
    kv: KeyValueCursor<'a>,
    reverse: bool,
    /// Rows of the record currently being read, in scan order.
    pending: Vec<KeyValue>,
    /// That record's primary key, and where in each of its keys the packed
    /// primary key ends and the split suffix begins.
    pending_pk: Option<(Tuple, usize)>,
    /// The position: the packed primary key of the last record emitted,
    /// or the one the scan was resumed after.
    last_emitted_pk: Option<Vec<u8>>,
    done: bool,
}

impl<'a> RecordScanCursor<'a> {
    fn new(
        store: &RecordStore<'a>,
        range: &TupleRange,
        reverse: bool,
        continuation: &Continuation,
        props: &ExecuteProperties,
    ) -> Result<Self> {
        let (mut begin, mut end) = range.to_byte_range(&store.layout().records);
        // Continuations are primary keys: resume strictly after (or before,
        // in reverse) every key of that record.
        let mut last_emitted_pk = None;
        if let Continuation::At(pk_bytes) = continuation {
            let pk = Tuple::unpack(pk_bytes).map_err(|e| {
                Error::InvalidContinuation(format!("bad record scan continuation: {e}"))
            })?;
            let pk_prefix = store.layout().records.pack(&pk);
            if reverse {
                end = pk_prefix;
            } else {
                let mut b = pk_prefix;
                b.push(0xFF);
                begin = b;
            }
            last_emitted_pk = Some(pk_bytes.clone());
        }
        let kv = KeyValueCursor::new(
            store.tx,
            begin,
            end,
            reverse,
            props.snapshot,
            props.limiter(),
            &Continuation::Start,
        )
        // A record is complete only once the next record's first key (or
        // the end of the range) has been seen: one key of lookahead.
        .expecting(props.return_limit.map(|n| n.saturating_add(1)));
        Ok(RecordScanCursor {
            store: store.clone(),
            kv,
            reverse,
            pending: Vec::new(),
            pending_pk: None,
            last_emitted_pk,
            done: continuation.is_end(),
        })
    }

    fn continuation(&self) -> Continuation {
        match &self.last_emitted_pk {
            Some(pk) => Continuation::At(pk.clone()),
            None => Continuation::Start,
        }
    }

    /// Whether `key` is one more row of the pending record: that record's
    /// key up to the split suffix, followed by exactly one element.
    fn continues_pending(&self, key: &[u8]) -> bool {
        let (Some((_, suffix_at)), Some(first)) = (&self.pending_pk, self.pending.first()) else {
            return false;
        };
        let Some(suffix) = key.strip_prefix(&first.key[..*suffix_at]) else {
            return false;
        };
        let mut suffix = TupleReader::new(suffix);
        matches!((suffix.next(), suffix.next()), (Some(Ok(_)), None))
    }

    /// Start a pending record at `row`: decode the primary key its key
    /// carries between the records prefix and the trailing split suffix.
    fn begin_pending(&mut self, row: KeyValue) -> Result<()> {
        let mut reader = self
            .store
            .layout()
            .records
            .reader(&row.key)
            .map_err(Error::Fdb)?;
        let mut elements = Vec::new();
        let mut suffix_at = self.store.layout().records.prefix().len();
        while let Some(element) = reader.next().transpose().map_err(Error::Fdb)? {
            if reader.remaining().is_empty() {
                break; // the split suffix
            }
            elements.push(element.into_owned());
            suffix_at = row.key.len() - reader.remaining().len();
        }
        self.pending_pk = Some((Tuple::from_elements(elements), suffix_at));
        self.pending.push(row);
        Ok(())
    }

    /// Assemble the pending record, if any, and move the position to it.
    fn emit_pending(&mut self) -> Result<Option<CursorResult<StoredRecord>>> {
        let Some((pk, suffix_at)) = self.pending_pk.take() else {
            return Ok(None);
        };
        if self.reverse {
            // Reverse scans deliver a record's rows in descending order.
            self.pending.reverse();
        }
        let mut record = RecordAssembler::new(suffix_at);
        for row in &mut self.pending {
            record.row(&row.key, Cow::Owned(std::mem::take(&mut row.value)))?;
        }
        let record = record.finish(&self.store, || pk)?;
        if record.is_some() {
            let packed_pk =
                &self.pending[0].key[self.store.layout().records.prefix().len()..suffix_at];
            let last = self.last_emitted_pk.get_or_insert_with(Vec::new);
            last.clear();
            last.extend_from_slice(packed_pk);
        }
        self.pending.clear();
        Ok(record.map(|value| CursorResult::Next {
            value,
            continuation: self.continuation(),
        }))
    }
}

impl RecordCursor for RecordScanCursor<'_> {
    type Item = StoredRecord;

    fn next(&mut self) -> Result<CursorResult<StoredRecord>> {
        if self.done {
            return Ok(CursorResult::NoNext {
                reason: NoNextReason::SourceExhausted,
                continuation: Continuation::End,
            });
        }
        loop {
            match self.kv.next_row()? {
                Ok(row) => {
                    if self.continues_pending(&row.key) {
                        self.pending.push(row);
                        continue;
                    }
                    // A new record began: emit the assembled previous one.
                    let emitted = self.emit_pending()?;
                    self.begin_pending(row)?;
                    if let Some(emitted) = emitted {
                        return Ok(emitted);
                    }
                }
                Err(NoNextReason::SourceExhausted) => {
                    self.done = true;
                    return Ok(self.emit_pending()?.unwrap_or(CursorResult::NoNext {
                        reason: NoNextReason::SourceExhausted,
                        continuation: Continuation::End,
                    }));
                }
                Err(reason) => {
                    // Out-of-band stop: do not emit a partially-read record;
                    // resume from the last complete boundary.
                    self.done = true;
                    return Ok(CursorResult::NoNext {
                        reason,
                        continuation: self.continuation(),
                    });
                }
            }
        }
    }
}

/// Streams [`IndexEntry`] values from a VALUE-shaped index subspace. Its
/// constructor is the one index-entry reader: the plan's index leaves and
/// merge entry streams build theirs with it, and read `kv` directly where a
/// decoded entry is more than they need.
pub struct IndexScanCursor<'a> {
    pub(crate) kv: KeyValueCursor<'a>,
    pub(crate) subspace: Subspace,
    pub(crate) key_columns: usize,
}

impl<'a> IndexScanCursor<'a> {
    /// Read `index_name`'s entries in the byte range `range` maps its
    /// subspace to, failing on an unreadable index if `require_readable`.
    /// The entry key is the position: the cursor resumes strictly past it.
    pub(crate) fn new(
        store: &RecordStore<'a>,
        index_name: &str,
        require_readable: bool,
        range: impl FnOnce(&Subspace) -> (Vec<u8>, Vec<u8>),
        reverse: bool,
        continuation: &Continuation,
        props: &ExecuteProperties,
    ) -> Result<Self> {
        let index = if require_readable {
            store.require_readable(index_name)?
        } else {
            store.metadata.index(index_name)?
        };
        let subspace = store.index_subspace(index);
        let (begin, end) = range(&subspace);
        let kv = KeyValueCursor::new(
            store.tx,
            begin,
            end,
            reverse,
            props.snapshot,
            props.limiter(),
            continuation,
        )
        .expecting(props.return_limit);
        Ok(IndexScanCursor {
            kv,
            subspace,
            key_columns: index.key_expression.key_column_count(),
        })
    }
}

impl RecordCursor for IndexScanCursor<'_> {
    type Item = IndexEntry;

    fn next(&mut self) -> Result<CursorResult<IndexEntry>> {
        let kv = match self.kv.next_row()? {
            Ok(kv) => kv,
            Err(reason) => return Ok(self.kv.stop(reason)),
        };
        let mut key = self.subspace.unpack(&kv.key).map_err(Error::Fdb)?;
        let primary_key = key.split_off(self.key_columns);
        let value = if kv.value.is_empty() {
            Tuple::new()
        } else {
            Tuple::unpack(&kv.value).map_err(Error::Fdb)?
        };
        Ok(CursorResult::Next {
            value: IndexEntry {
                key,
                value,
                primary_key,
            },
            continuation: Continuation::At(kv.key),
        })
    }
}
