//! Plan-level cursors: the one type-and-residual filter, the primary
//! fetch, covering record synthesis, the text scan's lazy fetch, the k-way
//! primary-key merge that executes intersections and ordered unions, and
//! the sequential distinct union for branches that are not primary-key
//! ordered.

use std::cmp::Ordering;
use std::collections::BTreeSet;

use rl_fdb::subspace::Subspace;
use rl_fdb::tuple::{ElementRef, Tuple, TupleElement, TupleReader};
use rl_message::{DynamicMessage, FieldType, Value};

use crate::cursor::{
    Continuation, CursorResult, ExecuteProperties, NoNextReason, RecordCursor, ScanLimiter,
};
use crate::error::{Error, Result};
use crate::index::IndexEntry;
use crate::metadata::RecordMetaData;
use crate::query::QueryComponent;
use crate::store::{IndexScanCursor, RecordMessage, RecordStore, StoredRecord};

use super::ir::{CoveredField, CoveredSource, RecordQueryPlan, ScanBounds};

/// Boxed cursor of query results.
pub type PlanCursor<'a> = Box<dyn RecordCursor<Item = StoredRecord> + 'a>;

/// Drains a boxed plan cursor. A `PlanCursor` is itself a sized
/// [`RecordCursor`], so this is [`RecordCursor::collect_remaining`] under a
/// name callers already import.
pub trait BoxedCursorExt {
    fn collect_remaining_boxed(
        &mut self,
    ) -> Result<(Vec<StoredRecord>, NoNextReason, Continuation)>;
}

impl BoxedCursorExt for PlanCursor<'_> {
    fn collect_remaining_boxed(
        &mut self,
    ) -> Result<(Vec<StoredRecord>, NoNextReason, Continuation)> {
        RecordCursor::collect_remaining(self)
    }
}

// ---------------------------------------------------------- observability

/// Carries the `execute` timer for the cursor's whole streaming lifetime:
/// the histogram records plan execution end-to-end, not just cursor
/// construction. Installed only when observability is enabled.
pub(crate) struct TimedCursor<'a> {
    inner: PlanCursor<'a>,
    _timer: rl_obs::Timer,
}

impl<'a> TimedCursor<'a> {
    pub(crate) fn new(inner: PlanCursor<'a>, timer: rl_obs::Timer) -> TimedCursor<'a> {
        TimedCursor {
            inner,
            _timer: timer,
        }
    }
}

impl RecordCursor for TimedCursor<'_> {
    type Item = StoredRecord;

    fn next(&mut self) -> Result<CursorResult<StoredRecord>> {
        self.inner.next()
    }
}

/// Per-plan-node span accounting (installed only when observability is
/// enabled): counts the rows this node emitted and, on drop, pushes a
/// `plan_node` span tagged `"<store subspace hex>:<node path>"` whose
/// counters carry the rows plus the transaction-level key-read /
/// record-fetch deltas observed over the node's lifetime.
///
/// The deltas are *inclusive* (flamegraph-style): a parent's span covers
/// the traffic of its children, since they execute within its lifetime.
/// (The merge's raw entry streams run below `execute_inner`; they report
/// under their node path through an [`EntrySpan`].)
pub(crate) struct ObservedCursor<'a> {
    inner: PlanCursor<'a>,
    tx: &'a rl_fdb::Transaction,
    tag: String,
    rows: u64,
    start: rl_fdb::transaction::TxnTrace,
    start_us: u64,
}

/// A `plan_node` span's tag: `"<store subspace hex>:<node path>"`.
fn node_tag(store: &RecordStore<'_>, path: &str) -> String {
    let mut tag = String::with_capacity(store.subspace().prefix().len() * 2 + path.len() + 1);
    for b in store.subspace().prefix() {
        tag.push_str(&format!("{b:02x}"));
    }
    tag.push(':');
    tag.push_str(path);
    tag
}

impl<'a> ObservedCursor<'a> {
    pub(crate) fn new(
        inner: PlanCursor<'a>,
        store: &RecordStore<'a>,
        path: &str,
    ) -> ObservedCursor<'a> {
        let tx = store.transaction();
        ObservedCursor {
            inner,
            tx,
            tag: node_tag(store, path),
            rows: 0,
            start: tx.trace(),
            start_us: rl_obs::now_us(),
        }
    }
}

impl RecordCursor for ObservedCursor<'_> {
    type Item = StoredRecord;

    fn next(&mut self) -> Result<CursorResult<StoredRecord>> {
        let result = self.inner.next()?;
        if matches!(result, CursorResult::Next { .. }) {
            self.rows += 1;
        }
        Ok(result)
    }
}

impl Drop for ObservedCursor<'_> {
    fn drop(&mut self) {
        let end = self.tx.trace();
        rl_obs::push_span(rl_obs::Span {
            op: "plan_node",
            tag: std::mem::take(&mut self.tag),
            start_us: self.start_us,
            dur_us: rl_obs::now_us().saturating_sub(self.start_us),
            counters: vec![
                ("rows", self.rows),
                (
                    "keys_read",
                    end.keys_read.saturating_sub(self.start.keys_read),
                ),
                ("read_ops", end.read_ops.saturating_sub(self.start.read_ops)),
                (
                    "record_fetches",
                    end.record_fetches.saturating_sub(self.start.record_fetches),
                ),
            ],
        });
    }
}

// ------------------------------------------------------ residual filtering

/// The one type-and-residual filter of the plan's leaves: drops the records
/// whose type is outside `record_types` or that fail `residual`. The rows it
/// drops still move the inner cursor's position, so a stop it passes on
/// resumes past them.
pub(crate) struct FilteredRecordCursor<'a> {
    inner: PlanCursor<'a>,
    record_types: Option<BTreeSet<String>>,
    residual: Option<QueryComponent>,
}

impl<'a> FilteredRecordCursor<'a> {
    /// `inner`, filtered when the node has a type set or a residual.
    pub(crate) fn wrap(
        inner: PlanCursor<'a>,
        record_types: &Option<BTreeSet<String>>,
        residual: &Option<QueryComponent>,
    ) -> PlanCursor<'a> {
        if record_types.is_none() && residual.is_none() {
            return inner;
        }
        Box::new(FilteredRecordCursor {
            inner,
            record_types: record_types.clone(),
            residual: residual.clone(),
        })
    }
}

impl RecordCursor for FilteredRecordCursor<'_> {
    type Item = StoredRecord;

    fn next(&mut self) -> Result<CursorResult<StoredRecord>> {
        loop {
            match self.inner.next()? {
                CursorResult::Next {
                    value,
                    continuation,
                } => {
                    if let Some(types) = &self.record_types {
                        if !types.contains(value.record_type()) {
                            continue;
                        }
                    }
                    if let Some(residual) = &self.residual {
                        if !residual.eval(value.record_type(), value.message.source())? {
                            continue;
                        }
                    }
                    return Ok(CursorResult::Next {
                        value,
                        continuation,
                    });
                }
                stop @ CursorResult::NoNext { .. } => return Ok(stop),
            }
        }
    }
}

// -------------------------------------------------------- the primary fetch

/// The primary key an index entry's key carries after its `key_columns`
/// indexed columns: packed (the tail of the key itself, which is how the
/// record's own keys spell it) and decoded.
fn entry_primary_key<'k>(
    subspace: &Subspace,
    key: &'k [u8],
    key_columns: usize,
) -> Result<(&'k [u8], Tuple)> {
    let mut reader = subspace.reader(key).map_err(Error::Fdb)?;
    for column in reader.by_ref().take(key_columns) {
        column.map_err(Error::Fdb)?;
    }
    let packed = reader.remaining();
    Ok((packed, Tuple::unpack(packed).map_err(Error::Fdb)?))
}

/// Scans index keys and fetches the indexed records (the "primary fetch"),
/// decoding only the primary key of each entry.
pub(crate) struct IndexFetchCursor<'a> {
    pub(crate) store: RecordStore<'a>,
    pub(crate) entries: IndexScanCursor<'a>,
}

impl RecordCursor for IndexFetchCursor<'_> {
    type Item = StoredRecord;

    fn next(&mut self) -> Result<CursorResult<StoredRecord>> {
        let entries = &mut self.entries;
        loop {
            let kv = match entries.kv.next_row()? {
                Ok(kv) => kv,
                Err(reason) => return Ok(entries.kv.stop(reason)),
            };
            let (packed_pk, pk) =
                entry_primary_key(&entries.subspace, &kv.key, entries.key_columns)?;
            let Some(record) = self.store.load_record_packed(packed_pk, || pk)? else {
                continue; // index entry racing a delete
            };
            // The entry's key is the position, and nothing else needs it.
            return Ok(CursorResult::Next {
                value: record,
                continuation: Continuation::At(kv.key),
            });
        }
    }
}

// ---------------------------------------------------------- covering scans

/// Convert a tuple element back into a message value of the field's
/// declared type (the inverse of `value_to_element`, §4 covering indexes).
fn element_to_value(field_type: &FieldType, el: &TupleElement) -> Result<Value> {
    let mismatch = || {
        Error::KeyExpression(format!(
            "covering scan cannot rebuild a {field_type:?} field from {el:?}"
        ))
    };
    Ok(match (field_type, el) {
        (FieldType::Int32 | FieldType::SInt32 | FieldType::SFixed32, TupleElement::Int(v)) => {
            Value::I32(i32::try_from(*v).map_err(|_| mismatch())?)
        }
        (FieldType::Int64 | FieldType::SInt64 | FieldType::SFixed64, TupleElement::Int(v)) => {
            Value::I64(*v)
        }
        (FieldType::UInt32 | FieldType::Fixed32, TupleElement::Int(v)) => {
            Value::U32(u32::try_from(*v).map_err(|_| mismatch())?)
        }
        (FieldType::UInt64 | FieldType::Fixed64, TupleElement::Int(v)) => {
            Value::U64(u64::try_from(*v).map_err(|_| mismatch())?)
        }
        (FieldType::Float, TupleElement::Float(v)) => Value::F32(*v),
        (FieldType::Double, TupleElement::Double(v)) => Value::F64(*v),
        (FieldType::Bool, TupleElement::Bool(v)) => Value::Bool(*v),
        (FieldType::String, TupleElement::String(s)) => Value::String(s.clone()),
        (FieldType::Bytes, TupleElement::Bytes(b)) => Value::Bytes(b.clone()),
        (FieldType::Enum(_), TupleElement::Int(v)) => {
            Value::Enum(i32::try_from(*v).map_err(|_| mismatch())?)
        }
        _ => return Err(mismatch()),
    })
}

/// Build a partial [`StoredRecord`] from one index entry's columns and its
/// primary key, without touching the record subspace.
fn synthesize_record(
    metadata: &RecordMetaData,
    record_type: &str,
    fields: &[CoveredField],
    entry: IndexEntry,
) -> Result<StoredRecord> {
    let desc = metadata
        .pool()
        .message(record_type)
        .ok_or_else(|| Error::UnknownRecordType(record_type.to_string()))?;
    let mut message = DynamicMessage::new(desc);
    for f in fields {
        let el = match f.source {
            CoveredSource::Entry(i) => match i.checked_sub(entry.key.len()) {
                None => entry.key.get(i),
                Some(v) => entry.value.get(v),
            },
            CoveredSource::PrimaryKey(i) => entry.primary_key.get(i),
        };
        let Some(el) = el else { continue };
        if matches!(el, TupleElement::Null) {
            continue; // unset field
        }
        let field_type = message
            .descriptor()
            .field_by_name(&f.field)
            .ok_or_else(|| Error::KeyExpression(format!("no field {} on {record_type}", f.field)))?
            .field_type
            .clone();
        let value = element_to_value(&field_type, el)?;
        message.set(&f.field, value)?;
    }
    Ok(StoredRecord {
        primary_key: entry.primary_key,
        message: RecordMessage::Built(message),
        version: None,
        split_count: 1,
    })
}

/// Synthesizes partial records from the entries an [`IndexScanCursor`]
/// decodes. Never reads the record subspace: the transaction's
/// `TxnTrace::record_fetches` stays flat while this cursor runs.
pub(crate) struct CoveringScanCursor<'a> {
    pub(crate) entries: IndexScanCursor<'a>,
    pub(crate) metadata: &'a RecordMetaData,
    pub(crate) record_type: String,
    pub(crate) fields: Vec<CoveredField>,
}

impl RecordCursor for CoveringScanCursor<'_> {
    type Item = StoredRecord;

    fn next(&mut self) -> Result<CursorResult<StoredRecord>> {
        self.entries.next()?.try_map(|entry| {
            synthesize_record(self.metadata, &self.record_type, &self.fields, entry)
        })
    }
}

// ------------------------------------------------------------- text scans

/// Fetches the records a TEXT index matched, one primary key at a time, in
/// the primary-key order `RecordStore::text_search` returns them. Each
/// fetch first charges the plan's scan budget with the packed primary key,
/// so a scan or byte limit stops the cursor between records. The position
/// is the packed primary key of the last record fetched; a resumed scan
/// starts strictly after it.
pub(crate) struct TextScanCursor<'a> {
    store: RecordStore<'a>,
    pks: std::iter::Peekable<std::vec::IntoIter<Tuple>>,
    limiter: ScanLimiter,
    position: Continuation,
}

impl<'a> TextScanCursor<'a> {
    pub(crate) fn new(
        store: &RecordStore<'a>,
        mut pks: Vec<Tuple>,
        continuation: &Continuation,
        limiter: ScanLimiter,
    ) -> Result<TextScanCursor<'a>> {
        let fetched = match continuation {
            Continuation::Start => 0,
            Continuation::At(after) => {
                Tuple::unpack(after)
                    .map_err(|e| Error::InvalidContinuation(format!("text scan: {e}")))?;
                pks.partition_point(|pk| pk.pack() <= *after)
            }
            Continuation::End => pks.len(),
        };
        pks.drain(..fetched);
        Ok(TextScanCursor {
            store: store.clone(),
            pks: pks.into_iter().peekable(),
            limiter,
            position: continuation.clone(),
        })
    }
}

impl RecordCursor for TextScanCursor<'_> {
    type Item = StoredRecord;

    fn next(&mut self) -> Result<CursorResult<StoredRecord>> {
        while let Some(pk) = self.pks.peek() {
            let packed = pk.pack();
            if let Some(reason) = self.limiter.try_record_scan(packed.len()) {
                return Ok(CursorResult::NoNext {
                    reason,
                    continuation: self.position.clone(),
                });
            }
            let pk = self.pks.next().expect("the key was just seen");
            let record = self.store.load_record_packed(&packed, || pk)?;
            self.position = Continuation::At(packed);
            // `None`: the posting raced a delete.
            if let Some(value) = record {
                return Ok(CursorResult::Next {
                    value,
                    continuation: self.position.clone(),
                });
            }
        }
        Ok(CursorResult::NoNext {
            reason: NoNextReason::SourceExhausted,
            continuation: Continuation::End,
        })
    }
}

// ------------------------------------------------------------------ union

/// The unordered union: sequentially executes the branches of a union the
/// [`MergeCursor`] does not take ([`MergeCursor::ordered`]: one not in
/// primary-key order, or filtering for itself), deduplicating by primary
/// key. The continuation encodes
/// `(branch, inner continuation, seen pks)` so a resumed union never
/// returns a duplicate.
pub(crate) struct UnionCursor<'a> {
    children: Vec<RecordQueryPlan>,
    store: RecordStore<'a>,
    props: ExecuteProperties,
    /// This union node's plan-tree path; branch `i` executes as
    /// `"{base_path}.{i}"`.
    base_path: String,
    branch: usize,
    /// Branch `branch`'s cursor; `None` once every branch is exhausted.
    current: Option<PlanCursor<'a>>,
    seen: BTreeSet<Vec<u8>>,
}

impl<'a> UnionCursor<'a> {
    pub(crate) fn create(
        children: &[RecordQueryPlan],
        store: &RecordStore<'a>,
        continuation: &Continuation,
        props: &ExecuteProperties,
        path: &str,
    ) -> Result<PlanCursor<'a>> {
        let (branch, inner, seen) = match continuation {
            Continuation::Start => (0usize, Continuation::Start, BTreeSet::new()),
            Continuation::End => (children.len(), Continuation::End, BTreeSet::new()),
            Continuation::At(bytes) => {
                let t = Tuple::unpack(bytes)
                    .map_err(|e| Error::InvalidContinuation(format!("union: {e}")))?;
                let branch = t
                    .get(0)
                    .and_then(TupleElement::as_int)
                    .ok_or_else(|| Error::InvalidContinuation("union branch".into()))?
                    as usize;
                let inner = Continuation::from_bytes(
                    t.get(1)
                        .and_then(TupleElement::as_bytes)
                        .ok_or_else(|| Error::InvalidContinuation("union inner".into()))?,
                )?;
                let seen = t
                    .get(2)
                    .and_then(TupleElement::as_tuple)
                    .map(|seen_t| {
                        seen_t
                            .elements()
                            .iter()
                            .filter_map(|e| e.as_bytes().map(<[u8]>::to_vec))
                            .collect()
                    })
                    .unwrap_or_default();
                (branch, inner, seen)
            }
        };
        let current = children
            .get(branch)
            .map(|child| child.execute_inner(store, &inner, props, &format!("{path}.{branch}")))
            .transpose()?;
        Ok(Box::new(UnionCursor {
            children: children.to_vec(),
            store: store.clone(),
            props: props.clone(),
            base_path: path.to_string(),
            branch,
            current,
            seen,
        }))
    }

    fn encode_continuation(&self, inner: &Continuation) -> Continuation {
        let mut seen_t = Tuple::new();
        for pk in &self.seen {
            seen_t.add(pk.clone());
        }
        Continuation::At(
            Tuple::new()
                .push(self.branch as i64)
                .push(inner.to_bytes())
                .push(seen_t)
                .pack(),
        )
    }
}

impl RecordCursor for UnionCursor<'_> {
    type Item = StoredRecord;

    fn next(&mut self) -> Result<CursorResult<StoredRecord>> {
        while let Some(current) = &mut self.current {
            match current.next()? {
                CursorResult::Next {
                    value,
                    continuation,
                } => {
                    let pk = value.primary_key.pack();
                    if self.seen.insert(pk) {
                        let cont = self.encode_continuation(&continuation);
                        return Ok(CursorResult::Next {
                            value,
                            continuation: cont,
                        });
                    }
                }
                CursorResult::NoNext {
                    reason: NoNextReason::SourceExhausted,
                    ..
                } => {
                    self.branch += 1;
                    self.current = None;
                    if let Some(child) = self.children.get(self.branch) {
                        self.current = Some(child.execute_inner(
                            &self.store,
                            &Continuation::Start,
                            &self.props,
                            &format!("{}.{}", self.base_path, self.branch),
                        )?);
                    }
                }
                CursorResult::NoNext {
                    reason,
                    continuation,
                } => {
                    let cont = self.encode_continuation(&continuation);
                    return Ok(CursorResult::NoNext {
                        reason,
                        continuation: cont,
                    });
                }
            }
        }
        Ok(CursorResult::NoNext {
            reason: NoNextReason::SourceExhausted,
            continuation: Continuation::End,
        })
    }
}

// ------------------------------------------------------ primary-key merge

/// One child of the merge: either a raw index-entry stream (primary keys
/// compared straight off the entry keys, no record fetch) or a full record
/// stream (for children that must filter or assemble records themselves).
enum ChildStream<'a> {
    Entries {
        entries: IndexScanCursor<'a>,
        /// Where the packed primary key starts in every entry's key.
        pk_at: usize,
        record_types: Option<BTreeSet<String>>,
        span: Option<Box<EntrySpan>>,
    },
    Records(PlanCursor<'a>),
}

/// `plan_node` accounting of one entry stream (installed only when
/// observability is enabled): entry streams run below `execute_inner`, so
/// no [`ObservedCursor`] sees them. `rows` are the entries pulled and
/// `keys_read` the keys this stream's own batches read; both are
/// exclusive, where an `ObservedCursor`'s deltas are inclusive.
struct EntrySpan {
    tag: String,
    start_us: u64,
    rows: u64,
    keys_read: u64,
}

impl Drop for EntrySpan {
    fn drop(&mut self) {
        rl_obs::push_span(rl_obs::Span {
            op: "plan_node",
            tag: std::mem::take(&mut self.tag),
            start_us: self.start_us,
            dur_us: rl_obs::now_us().saturating_sub(self.start_us),
            counters: vec![("rows", self.rows), ("keys_read", self.keys_read)],
        });
    }
}

/// The unconsumed head of one child stream. Heads are compared on
/// `key[pk_at..]`, the packed primary key, in place: for an entry stream
/// `key` is the index entry's key as the read returned it, for a record
/// stream the record's packed primary key.
struct Head {
    key: Vec<u8>,
    pk_at: usize,
    /// The record, when a record stream carried it.
    record: Option<StoredRecord>,
    /// A record stream's position after this head; an entry stream's is
    /// `key` itself.
    after: Option<Continuation>,
}

impl Head {
    fn pk(&self) -> &[u8] {
        &self.key[self.pk_at..]
    }

    /// The child's position once this head is consumed.
    fn into_position(self) -> Continuation {
        self.after.unwrap_or(Continuation::At(self.key))
    }
}

struct MergeChild<'a> {
    stream: ChildStream<'a>,
    head: Option<Head>,
}

impl MergeChild<'_> {
    /// Record-type constraints carried by entry streams are checked on the
    /// fetched record (entry keys alone cannot reveal the type).
    fn accepts(&self, record_type: &str) -> bool {
        match &self.stream {
            ChildStream::Entries {
                record_types: Some(types),
                ..
            } => types.contains(record_type),
            _ => true,
        }
    }
}

/// The k-way primary-key merge that executes `Intersection` and every
/// `Union` whose children are ordered.
///
/// **Precondition.** Every child streams in primary-key order
/// ([`MergeCursor::ordered`]): an index scan whose equality prefix pins
/// every key column (entries under one such prefix are ordered by the
/// appended primary key), a forward full scan, or a merge of such
/// children. The merge holds one head per child and compares the packed
/// primary keys as byte slices, which is the order the children arrive in.
///
/// **Emit rules.** *All* (Intersection): heads below the largest head are
/// skipped; when every head is equal they are consumed and the record is
/// emitted; a child running dry ends the stream. *Any* (Union): the
/// smallest head is emitted and every head equal to it consumed with it —
/// a duplicate is dropped on its index entry, before any fetch — and a dry
/// child just drops out. Either way rows leave in primary-key order (which
/// the API never fixed for a union), an entry head is decoded to a `Tuple`
/// only for a row that is emitted, and the record is fetched once.
///
/// **Continuation.** A tuple of the k child positions, each re-reading
/// that child's unconsumed head (`End` for a dry child): its size follows
/// k and the key length, never the number of rows returned, and nothing in
/// the cursor grows with them either. A limit stopping any child stops the
/// merge with that composite; resuming rebuilds every child where it stood.
///
/// **Liveness.** A resumed merge re-reads each child's unconsumed head, so
/// forward progress across transactions requires a scan budget of at least
/// one entry per child. That holds for entry streams and unfiltered scans,
/// the only children a union runs here. An intersection also takes
/// record-stream children that skip entries themselves (a residual, a
/// nested merge): one that a limit stops while skipping resumes where it
/// stopped (its own continuation is its position), but reaching a head
/// again costs what was skipped since, so those need a budget above the
/// longest such run.
pub(crate) struct MergeCursor<'a> {
    children: Vec<MergeChild<'a>>,
    store: RecordStore<'a>,
    /// The emit rule: a key every child holds, or one any child holds.
    all: bool,
    /// Per-child position, re-reading any unconsumed head; `End` once dry.
    resume: Vec<Continuation>,
}

impl<'a> MergeCursor<'a> {
    pub(crate) fn create(
        children: &[RecordQueryPlan],
        all: bool,
        store: &RecordStore<'a>,
        continuation: &Continuation,
        props: &ExecuteProperties,
        path: &str,
    ) -> Result<PlanCursor<'a>> {
        let resume = match continuation {
            Continuation::Start => vec![Continuation::Start; children.len()],
            Continuation::End => vec![Continuation::End; children.len()],
            Continuation::At(bytes) => {
                let positions = TupleReader::new(bytes)
                    .map(|el| match el {
                        Ok(ElementRef::Bytes(position)) => Continuation::from_bytes(&position),
                        _ => Err(Error::InvalidContinuation("merge: child position".into())),
                    })
                    .collect::<Result<Vec<_>>>()?;
                if positions.len() != children.len() {
                    return Err(Error::InvalidContinuation(format!(
                        "merge: {} child positions for {} children",
                        positions.len(),
                        children.len()
                    )));
                }
                positions
            }
        };
        // A batch costs what it returns: an intersection's rows come from
        // every child, a union's from any one of them (plus the head the
        // merge looks ahead by).
        let mut child_props = props.clone();
        if !all {
            child_props.return_limit = props
                .return_limit
                .map(|rows| rows.div_ceil(children.len().max(1)) + 1);
        }
        let mut built = Vec::with_capacity(children.len());
        for (i, (child, position)) in children.iter().zip(&resume).enumerate() {
            let path = format!("{path}.{i}");
            built.push(MergeChild {
                stream: Self::child_stream(child, store, position, &child_props, &path)?,
                head: None,
            });
        }
        Ok(Box::new(MergeCursor {
            children: built,
            store: store.clone(),
            all,
            resume,
        }))
    }

    /// Whether the merge can run `children`: every one streams in
    /// primary-key order, and a union's — which the sequential cursor runs
    /// otherwise — re-read their head as one entry (see *Liveness*).
    pub(crate) fn ordered(
        children: &[RecordQueryPlan],
        all: bool,
        store: &RecordStore<'_>,
    ) -> Result<bool> {
        for child in children {
            let ordered = match child {
                // Reaching its head again costs a child that filters for
                // itself, or merges others, all it skipped on the way.
                RecordQueryPlan::FullScan {
                    residual: Some(_), ..
                }
                | RecordQueryPlan::IndexScan {
                    residual: Some(_), ..
                }
                | RecordQueryPlan::Intersection { .. }
                | RecordQueryPlan::Union { .. }
                    if !all =>
                {
                    false
                }
                RecordQueryPlan::FullScan { reverse: false, .. } => true,
                RecordQueryPlan::IndexScan {
                    index_name,
                    bounds,
                    reverse: false,
                    ..
                }
                | RecordQueryPlan::CoveringIndexScan {
                    index_name,
                    bounds,
                    reverse: false,
                    ..
                } => pinned_key_columns(store, index_name, bounds)?.is_some(),
                // A merge of ordered children preserves their order.
                RecordQueryPlan::Intersection { children }
                | RecordQueryPlan::Union { children } => Self::ordered(children, all, store)?,
                _ => false,
            };
            if !ordered {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Build the cheapest stream for one (ordered) child: the raw entries
    /// of a fetching index scan with nothing to filter, else the child's
    /// own cursor.
    fn child_stream(
        child: &RecordQueryPlan,
        store: &RecordStore<'a>,
        continuation: &Continuation,
        props: &ExecuteProperties,
        path: &str,
    ) -> Result<ChildStream<'a>> {
        if let RecordQueryPlan::IndexScan {
            index_name,
            bounds,
            reverse: false,
            record_types,
            residual: None,
        } = child
        {
            if let Some((pinned, key_columns)) = pinned_key_columns(store, index_name, bounds)? {
                let entries = IndexScanCursor::new(
                    store,
                    index_name,
                    true,
                    |subspace| bounds.to_byte_range(subspace),
                    false,
                    continuation,
                    props,
                )?;
                // Every entry's key is `subspace ‖ key columns ‖ primary
                // key` and equality pins the key columns: the primary key
                // starts at one offset in all of them.
                let mut columns = Vec::new();
                for column in &pinned.elements()[..key_columns] {
                    column.pack_into(&mut columns);
                }
                let pk_at = entries.subspace.prefix().len() + columns.len();
                return Ok(ChildStream::Entries {
                    entries,
                    pk_at,
                    record_types: record_types.clone(),
                    span: rl_obs::enabled().then(|| {
                        Box::new(EntrySpan {
                            tag: node_tag(store, path),
                            start_us: rl_obs::now_us(),
                            rows: 0,
                            keys_read: 0,
                        })
                    }),
                });
            }
        }
        Ok(ChildStream::Records(child.execute_inner(
            store,
            continuation,
            props,
            path,
        )?))
    }

    /// Pull child `i`'s next head: `None` when it is in place, else why
    /// there is none.
    fn pull(&mut self, i: usize) -> Result<Option<NoNextReason>> {
        let child = &mut self.children[i];
        child.head = Some(match &mut child.stream {
            ChildStream::Entries {
                entries,
                pk_at,
                span,
                ..
            } => {
                let row = match span {
                    None => entries.kv.next_row()?,
                    Some(span) => {
                        let tx = self.store.transaction();
                        let before = tx.trace().keys_read;
                        let row = entries.kv.next_row()?;
                        span.keys_read += tx.trace().keys_read - before;
                        span.rows += u64::from(row.is_ok());
                        row
                    }
                };
                match row {
                    Ok(entry) => Head {
                        key: entry.key,
                        pk_at: *pk_at,
                        record: None,
                        after: None,
                    },
                    Err(reason) => return Ok(Some(reason)),
                }
            }
            ChildStream::Records(cursor) => match cursor.next()? {
                CursorResult::Next {
                    value,
                    continuation,
                } => Head {
                    key: value.primary_key.pack(),
                    pk_at: 0,
                    record: Some(value),
                    after: Some(continuation),
                },
                CursorResult::NoNext {
                    reason,
                    continuation,
                } => {
                    // Only this says how far the child got past what its
                    // own filter rejected; the child holds no head, so
                    // nothing before it is owed to the merge.
                    self.resume[i] = continuation;
                    return Ok(Some(reason));
                }
            },
        });
        Ok(None)
    }

    /// Consume every head whose primary key compares `ord` to `lead`'s,
    /// moving its child's position past it.
    fn advance(&mut self, lead: &Head, ord: Ordering) -> bool {
        let mut advanced = false;
        for (child, resume) in self.children.iter_mut().zip(&mut self.resume) {
            if let Some(head) = child.head.take_if(|head| head.pk().cmp(lead.pk()) == ord) {
                *resume = head.into_position();
                advanced = true;
            }
        }
        advanced
    }

    /// The composite continuation: one position per child.
    fn composite(&self) -> Continuation {
        // A tuple of byte strings, packed as it is built (most index
        // entry keys are under 32 bytes).
        let mut positions = Vec::with_capacity(32 * self.resume.len());
        for position in &self.resume {
            TupleElement::Bytes(position.to_bytes()).pack_into(&mut positions);
        }
        Continuation::At(positions)
    }
}

/// The equality prefix of an index scan's bounds and the index's key
/// column count, when the prefix pins every key column: the scans whose
/// entries stream in primary-key order.
fn pinned_key_columns<'b>(
    store: &RecordStore<'_>,
    index_name: &str,
    bounds: &'b ScanBounds,
) -> Result<Option<(&'b Tuple, usize)>> {
    let key_columns = store
        .metadata()
        .index(index_name)?
        .key_expression
        .key_column_count();
    Ok(bounds
        .equality_prefix()
        .filter(|pinned| pinned.len() >= key_columns)
        .map(|pinned| (pinned, key_columns)))
}

impl RecordCursor for MergeCursor<'_> {
    type Item = StoredRecord;

    fn next(&mut self) -> Result<CursorResult<StoredRecord>> {
        let exhausted = || CursorResult::NoNext {
            reason: NoNextReason::SourceExhausted,
            continuation: Continuation::End,
        };
        loop {
            // Fill every empty head slot.
            for i in 0..self.children.len() {
                if self.children[i].head.is_some() {
                    continue;
                }
                if !self.resume[i].is_end() {
                    match self.pull(i)? {
                        None => continue,
                        Some(NoNextReason::SourceExhausted) => {
                            self.resume[i] = Continuation::End;
                        }
                        Some(reason) => {
                            return Ok(CursorResult::NoNext {
                                reason,
                                continuation: self.composite(),
                            })
                        }
                    }
                }
                // This child is dry: nothing more is in every child; a
                // union goes on without it.
                if self.all {
                    return Ok(exhausted());
                }
            }
            // The lead: the largest head decides what an intersection can
            // still emit, the smallest is what a union emits next.
            let heads = self
                .children
                .iter()
                .enumerate()
                .filter_map(|(i, child)| Some((child.head.as_ref()?.pk(), i)));
            let Some((_, lead_at)) = (if self.all { heads.max() } else { heads.min() }) else {
                return Ok(exhausted());
            };
            let mut lead = self.children[lead_at]
                .head
                .take()
                .expect("the lead was picked among the heads");
            if self.all && self.advance(&lead, Ordering::Less) {
                self.children[lead_at].head = Some(lead);
                continue;
            }
            // Every head equal to the lead is the same row: a record
            // stream may have carried it, else it is fetched, once.
            let carried = lead.record.take().or_else(|| {
                self.children.iter_mut().find_map(|child| {
                    child
                        .head
                        .as_mut()
                        .filter(|head| head.pk() == lead.pk())?
                        .record
                        .take()
                })
            });
            let record = match carried {
                Some(record) => Some(record),
                None => {
                    let pk = Tuple::unpack(lead.pk()).map_err(Error::Fdb)?;
                    self.store.load_record_packed(lead.pk(), || pk)?
                }
            };
            // `None`: the entry raced a delete, or the children holding
            // this key do not take the record's type.
            let row = record.filter(|record| {
                let mut holders = self
                    .children
                    .iter()
                    .enumerate()
                    .filter(|(i, child)| {
                        *i == lead_at
                            || child
                                .head
                                .as_ref()
                                .is_some_and(|head| head.pk() == lead.pk())
                    })
                    .map(|(_, child)| child.accepts(record.record_type()));
                if self.all {
                    holders.all(|accepts| accepts)
                } else {
                    holders.any(|accepts| accepts)
                }
            });
            self.advance(&lead, Ordering::Equal);
            self.resume[lead_at] = lead.into_position();
            if let Some(value) = row {
                return Ok(CursorResult::Next {
                    value,
                    continuation: self.composite(),
                });
            }
        }
    }
}
