//! Plan-level cursors: residual filtering, the primary fetch, covering
//! record synthesis, distinct union, and the streaming (merge-join)
//! intersection.

use std::collections::BTreeSet;

use rl_fdb::subspace::Subspace;
use rl_fdb::tuple::{Tuple, TupleElement};
use rl_message::{DynamicMessage, FieldType, Value};

use crate::cursor::{
    Continuation, CursorResult, ExecuteProperties, KeyValueCursor, NoNextReason, RecordCursor,
};
use crate::error::{Error, Result};
use crate::metadata::RecordMetaData;
use crate::query::QueryComponent;
use crate::store::{RecordStore, StoredRecord};

use super::ir::{CoveredField, CoveredSource, RecordQueryPlan};

/// Boxed cursor of query results.
pub type PlanCursor<'a> = Box<dyn RecordCursor<Item = StoredRecord> + 'a>;

/// Helper so boxed cursors can drain (trait objects can't use the default
/// `collect_remaining` which requires `Sized`).
pub trait BoxedCursorExt {
    fn collect_remaining_boxed(
        &mut self,
    ) -> Result<(Vec<StoredRecord>, NoNextReason, Continuation)>;
}

impl BoxedCursorExt for PlanCursor<'_> {
    fn collect_remaining_boxed(
        &mut self,
    ) -> Result<(Vec<StoredRecord>, NoNextReason, Continuation)> {
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
/// Intersection children served straight from raw index entries bypass
/// `execute_inner` and therefore emit no span of their own; their reads
/// still show up in the enclosing Intersection node's deltas.
pub(crate) struct ObservedCursor<'a> {
    inner: PlanCursor<'a>,
    tx: &'a rl_fdb::Transaction,
    tag: String,
    rows: u64,
    start: rl_fdb::transaction::TxnTrace,
    start_us: u64,
}

impl<'a> ObservedCursor<'a> {
    pub(crate) fn new(
        inner: PlanCursor<'a>,
        store: &RecordStore<'a>,
        path: &str,
    ) -> ObservedCursor<'a> {
        let mut tag = String::with_capacity(store.subspace().prefix().len() * 2 + path.len() + 1);
        for b in store.subspace().prefix() {
            tag.push_str(&format!("{b:02x}"));
        }
        tag.push(':');
        tag.push_str(path);
        let tx = store.transaction();
        ObservedCursor {
            inner,
            tx,
            tag,
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

pub(crate) struct FilteredRecordCursor<'a> {
    pub(crate) inner: Box<dyn RecordCursor<Item = StoredRecord> + 'a>,
    pub(crate) record_types: Option<BTreeSet<String>>,
    pub(crate) residual: Option<QueryComponent>,
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
                        if !types.contains(&value.record_type) {
                            continue;
                        }
                    }
                    if let Some(residual) = &self.residual {
                        if !residual.eval(&value.record_type, &value.message)? {
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

/// Scans index keys and fetches the indexed records (the "primary fetch").
pub(crate) struct IndexFetchCursor<'a> {
    pub(crate) store: RecordStore<'a>,
    pub(crate) kv: KeyValueCursor<'a>,
    pub(crate) subspace: Subspace,
    pub(crate) key_columns: usize,
    pub(crate) record_types: Option<BTreeSet<String>>,
    pub(crate) residual: Option<QueryComponent>,
}

impl RecordCursor for IndexFetchCursor<'_> {
    type Item = StoredRecord;

    fn next(&mut self) -> Result<CursorResult<StoredRecord>> {
        loop {
            match self.kv.next()? {
                CursorResult::Next {
                    value: kv,
                    continuation,
                } => {
                    let (packed_pk, pk) =
                        entry_primary_key(&self.subspace, &kv.key, self.key_columns)?;
                    let Some(record) = self.store.load_record_packed(packed_pk, || pk)? else {
                        continue; // index entry racing a delete
                    };
                    if let Some(types) = &self.record_types {
                        if !types.contains(&record.record_type) {
                            continue;
                        }
                    }
                    if let Some(residual) = &self.residual {
                        if !residual.eval(&record.record_type, &record.message)? {
                            continue;
                        }
                    }
                    return Ok(CursorResult::Next {
                        value: record,
                        continuation,
                    });
                }
                CursorResult::NoNext {
                    reason,
                    continuation,
                } => {
                    return Ok(CursorResult::NoNext {
                        reason,
                        continuation,
                    })
                }
            }
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

/// Build a partial [`StoredRecord`] from one index entry's columns plus the
/// primary key, without touching the record subspace.
pub(crate) fn synthesize_record(
    metadata: &RecordMetaData,
    record_type: &str,
    fields: &[CoveredField],
    entry_cols: &Tuple,
    primary_key: Tuple,
) -> Result<StoredRecord> {
    let desc = metadata
        .pool()
        .message(record_type)
        .ok_or_else(|| Error::UnknownRecordType(record_type.to_string()))?;
    let mut message = DynamicMessage::new(desc);
    for f in fields {
        let el = match f.source {
            CoveredSource::Entry(i) => entry_cols.get(i),
            CoveredSource::PrimaryKey(i) => primary_key.get(i),
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
        primary_key,
        record_type: record_type.to_string(),
        message,
        version: None,
        split_count: 1,
    })
}

/// Streams index entries and synthesizes partial records from them. Never
/// reads the record subspace: `MetricsSnapshot::record_fetches` stays flat
/// while this cursor runs.
pub(crate) struct CoveringScanCursor<'a> {
    pub(crate) kv: KeyValueCursor<'a>,
    pub(crate) subspace: Subspace,
    pub(crate) key_columns: usize,
    pub(crate) metadata: &'a RecordMetaData,
    pub(crate) record_type: String,
    pub(crate) fields: Vec<CoveredField>,
}

impl RecordCursor for CoveringScanCursor<'_> {
    type Item = StoredRecord;

    fn next(&mut self) -> Result<CursorResult<StoredRecord>> {
        match self.kv.next()? {
            CursorResult::Next {
                value: kv,
                continuation,
            } => {
                let mut entry_cols = self.subspace.unpack(&kv.key).map_err(Error::Fdb)?;
                let pk = entry_cols.split_off(self.key_columns);
                if !kv.value.is_empty() {
                    entry_cols = entry_cols.concat(&Tuple::unpack(&kv.value).map_err(Error::Fdb)?);
                }
                let record = synthesize_record(
                    self.metadata,
                    &self.record_type,
                    &self.fields,
                    &entry_cols,
                    pk,
                )?;
                Ok(CursorResult::Next {
                    value: record,
                    continuation,
                })
            }
            CursorResult::NoNext {
                reason,
                continuation,
            } => Ok(CursorResult::NoNext {
                reason,
                continuation,
            }),
        }
    }
}

// ------------------------------------------------------------------ union

/// Sequentially executes union branches, deduplicating by primary key.
/// The continuation encodes `(branch, inner continuation, seen pks)` so a
/// resumed union never returns a duplicate.
pub(crate) struct UnionCursor<'a> {
    children: Vec<RecordQueryPlan>,
    store: RecordStore<'a>,
    props: ExecuteProperties,
    /// This union node's plan-tree path; branch `i` executes as
    /// `"{base_path}.{i}"`.
    base_path: String,
    branch: usize,
    current: PlanCursor<'a>,
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
        let current: PlanCursor<'a> = if branch < children.len() {
            children[branch].execute_inner(store, &inner, props, &format!("{path}.{branch}"))?
        } else {
            Box::new(crate::cursor::ListCursor::new(
                Vec::new(),
                &Continuation::Start,
            )?)
        };
        Ok(Box::new(UnionCursor {
            children: children.to_vec(),
            store: store.clone_handle(),
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
        loop {
            if self.branch >= self.children.len() {
                return Ok(CursorResult::NoNext {
                    reason: NoNextReason::SourceExhausted,
                    continuation: Continuation::End,
                });
            }
            match self.current.next()? {
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
                    if self.branch < self.children.len() {
                        self.current = self.children[self.branch].execute_inner(
                            &self.store,
                            &Continuation::Start,
                            &self.props,
                            &format!("{}.{}", self.base_path, self.branch),
                        )?;
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
    }
}

// ------------------------------------------------- streaming intersection

/// One child of the merge-join: either a raw index-entry stream (primary
/// keys read straight off entry keys, no record fetch) or a full record
/// stream (for children that must filter or assemble records themselves).
enum ChildStream<'a> {
    Entries {
        kv: KeyValueCursor<'a>,
        subspace: Subspace,
        key_columns: usize,
        record_types: Option<BTreeSet<String>>,
    },
    Records(PlanCursor<'a>),
}

/// The unconsumed head of one child stream.
struct Head {
    pk_bytes: Vec<u8>,
    pk: Tuple,
    record: Option<StoredRecord>,
    /// Continuation resuming *after* this head.
    after: Continuation,
}

struct IntersectChild<'a> {
    stream: ChildStream<'a>,
    head: Option<Head>,
}

enum Pulled {
    Head,
    Exhausted,
    Stopped(NoNextReason),
}

/// Streaming intersection: merge-joins children ordered by primary key.
///
/// Replaces the old buffer-all-but-one strategy, which materialized entire
/// branches in memory and *errored* when a scan limit fired mid-buffer.
/// Here a limit simply stops the merge; the composite continuation (a
/// tuple of every child's continuation) resumes it exactly where each
/// child stood, honoring the paper's resumability contract.
///
/// Children must stream in primary-key order. The planner guarantees this
/// by only building equality-bounded index scans (entries under one
/// equality prefix are ordered by the appended primary key) and full
/// scans (the record extent is primary-key ordered).
///
/// Liveness note: a resumed intersection re-reads each child's unconsumed
/// head, so forward progress across transactions requires a scan budget of
/// at least one entry per child.
pub(crate) struct IntersectionCursor<'a> {
    children: Vec<IntersectChild<'a>>,
    store: RecordStore<'a>,
    /// Per-child continuation that re-reads any unconsumed head.
    resume: Vec<Continuation>,
    done: bool,
}

impl<'a> IntersectionCursor<'a> {
    pub(crate) fn create(
        children: &[RecordQueryPlan],
        store: &RecordStore<'a>,
        continuation: &Continuation,
        props: &ExecuteProperties,
        path: &str,
    ) -> Result<PlanCursor<'a>> {
        let (child_conts, done) = match continuation {
            Continuation::Start => (vec![Continuation::Start; children.len()], false),
            Continuation::End => (vec![Continuation::End; children.len()], true),
            Continuation::At(bytes) => {
                let t = Tuple::unpack(bytes)
                    .map_err(|e| Error::InvalidContinuation(format!("intersection: {e}")))?;
                if t.len() != children.len() {
                    return Err(Error::InvalidContinuation(format!(
                        "intersection: {} child positions for {} children",
                        t.len(),
                        children.len()
                    )));
                }
                let mut conts = Vec::with_capacity(children.len());
                for el in t.elements() {
                    let bytes = el.as_bytes().ok_or_else(|| {
                        Error::InvalidContinuation("intersection child position".into())
                    })?;
                    conts.push(Continuation::from_bytes(bytes)?);
                }
                (conts, false)
            }
        };

        let mut built = Vec::with_capacity(children.len());
        for (i, (child, cont)) in children.iter().zip(&child_conts).enumerate() {
            built.push(IntersectChild {
                stream: Self::child_stream(child, store, cont, props, &format!("{path}.{i}"))?,
                head: None,
            });
        }
        Ok(Box::new(IntersectionCursor {
            children: built,
            store: store.clone_handle(),
            resume: child_conts,
            done,
        }))
    }

    /// Build the cheapest primary-key-ordered stream for one child. The
    /// raw-entry fast path bypasses `execute_inner`, so those children
    /// emit no `plan_node` span (their reads fold into the enclosing
    /// intersection's deltas); `path` tags the record-stream fallback.
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
            let index = store.require_readable(index_name)?;
            let key_columns = index.key_expression.key_column_count();
            // Entries stream in pk order only when the equality prefix
            // pins every key column.
            if bounds
                .equality_prefix()
                .is_some_and(|eq| eq.len() >= key_columns)
            {
                let subspace = store.index_subspace(index);
                let (begin, end) = bounds.to_byte_range(&subspace);
                let kv = KeyValueCursor::new(
                    store.transaction(),
                    begin,
                    end,
                    false,
                    props.snapshot,
                    props.limiter(),
                    continuation,
                )?
                .expecting(props.return_limit);
                return Ok(ChildStream::Entries {
                    kv,
                    subspace,
                    key_columns,
                    record_types: record_types.clone(),
                });
            }
        }
        let ordered = match child {
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
            } => {
                // Entries are ordered (key columns, pk): the stream is in
                // pk order only when equality pins every key column.
                let key_columns = store
                    .metadata()
                    .index(index_name)?
                    .key_expression
                    .key_column_count();
                bounds
                    .equality_prefix()
                    .is_some_and(|eq| eq.len() >= key_columns)
            }
            RecordQueryPlan::Intersection { .. } => true, // merge preserves order
            _ => false,
        };
        if !ordered {
            return Err(Error::Unplannable(
                "intersection children must stream in primary-key order".into(),
            ));
        }
        Ok(ChildStream::Records(child.execute_inner(
            store,
            continuation,
            props,
            path,
        )?))
    }

    /// Pull the next head for child `i`.
    fn pull(&mut self, i: usize) -> Result<Pulled> {
        let child = &mut self.children[i];
        match &mut child.stream {
            ChildStream::Entries {
                kv,
                subspace,
                key_columns,
                ..
            } => match kv.next()? {
                CursorResult::Next {
                    value: kv_pair,
                    continuation,
                } => {
                    let (packed_pk, pk) = entry_primary_key(subspace, &kv_pair.key, *key_columns)?;
                    child.head = Some(Head {
                        pk_bytes: packed_pk.to_vec(),
                        pk,
                        record: None,
                        after: continuation,
                    });
                    Ok(Pulled::Head)
                }
                CursorResult::NoNext {
                    reason: NoNextReason::SourceExhausted,
                    ..
                } => Ok(Pulled::Exhausted),
                CursorResult::NoNext { reason, .. } => Ok(Pulled::Stopped(reason)),
            },
            ChildStream::Records(cursor) => match cursor.next()? {
                CursorResult::Next {
                    value,
                    continuation,
                } => {
                    child.head = Some(Head {
                        pk_bytes: value.primary_key.pack(),
                        pk: value.primary_key.clone(),
                        record: Some(value),
                        after: continuation,
                    });
                    Ok(Pulled::Head)
                }
                CursorResult::NoNext {
                    reason: NoNextReason::SourceExhausted,
                    ..
                } => Ok(Pulled::Exhausted),
                CursorResult::NoNext { reason, .. } => Ok(Pulled::Stopped(reason)),
            },
        }
    }

    /// The composite continuation: one position per child, each re-reading
    /// that child's unconsumed head (if any).
    fn composite(&self) -> Continuation {
        let mut t = Tuple::new();
        for c in &self.resume {
            t.add(c.to_bytes());
        }
        Continuation::At(t.pack())
    }

    /// Record-type constraints carried by entry streams are checked on the
    /// fetched record (entry keys alone cannot reveal the type).
    fn type_ok(&self, record: &StoredRecord) -> bool {
        self.children.iter().all(|c| match &c.stream {
            ChildStream::Entries {
                record_types: Some(types),
                ..
            } => types.contains(&record.record_type),
            _ => true,
        })
    }
}

impl RecordCursor for IntersectionCursor<'_> {
    type Item = StoredRecord;

    fn next(&mut self) -> Result<CursorResult<StoredRecord>> {
        if self.done || self.children.is_empty() {
            return Ok(CursorResult::NoNext {
                reason: NoNextReason::SourceExhausted,
                continuation: Continuation::End,
            });
        }
        loop {
            // Fill every empty head slot.
            for i in 0..self.children.len() {
                if self.children[i].head.is_none() {
                    match self.pull(i)? {
                        Pulled::Head => {}
                        Pulled::Exhausted => {
                            // One child ran dry: no further matches exist.
                            self.done = true;
                            return Ok(CursorResult::NoNext {
                                reason: NoNextReason::SourceExhausted,
                                continuation: Continuation::End,
                            });
                        }
                        Pulled::Stopped(reason) => {
                            return Ok(CursorResult::NoNext {
                                reason,
                                continuation: self.composite(),
                            });
                        }
                    }
                }
            }
            // Advance every child strictly below the current maximum.
            let max = self
                .children
                .iter()
                .map(|c| c.head.as_ref().unwrap().pk_bytes.clone())
                .max()
                .unwrap();
            let mut all_equal = true;
            for (i, child) in self.children.iter_mut().enumerate() {
                if child.head.as_ref().unwrap().pk_bytes < max {
                    let head = child.head.take().unwrap();
                    self.resume[i] = head.after;
                    all_equal = false;
                }
            }
            if !all_equal {
                continue;
            }
            // All heads agree: consume them and emit the record.
            let mut pk = None;
            let mut carried = None;
            for (i, child) in self.children.iter_mut().enumerate() {
                let head = child.head.take().unwrap();
                self.resume[i] = head.after;
                if carried.is_none() {
                    carried = head.record;
                }
                pk = Some((head.pk_bytes, head.pk));
            }
            let (packed_pk, pk) = pk.unwrap();
            let record = match carried {
                Some(r) => Some(r),
                None => self.store.load_record_packed(&packed_pk, || pk)?,
            };
            let Some(record) = record else {
                continue; // entry racing a delete
            };
            if !self.type_ok(&record) {
                continue;
            }
            return Ok(CursorResult::Next {
                value: record,
                continuation: self.composite(),
            });
        }
    }
}
