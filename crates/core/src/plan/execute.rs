//! Plan execution: turn a [`RecordQueryPlan`] into a tree of streaming
//! cursors, resuming from a continuation and honoring scan/byte limits.
//!
//! All cursors spawned by one plan share a single scan budget (installed
//! via [`ExecuteProperties`]), so a limit bounds the *total* work of the
//! plan, not the work of each branch separately.

use crate::cursor::{Continuation, ExecuteProperties, KeyValueCursor};
use crate::error::{Error, Result};
use crate::store::{RecordStore, StoredRecord, TupleRange};

use super::cursors::{
    BoxedCursorExt, CoveringScanCursor, FilteredRecordCursor, IndexFetchCursor, MergeCursor,
    ObservedCursor, PlanCursor, TimedCursor, UnionCursor,
};
use super::ir::RecordQueryPlan;

impl RecordQueryPlan {
    /// Execute against a store, resuming from `continuation`. The
    /// `return_limit` in `props` is enforced at the top of the plan (the
    /// scans below only size their first read batch from it); scan and
    /// byte limits are shared by every cursor the plan spawns.
    ///
    /// With observability enabled the whole execution (from this call to
    /// the cursor's drop) lands in the `execute` latency histogram, and
    /// every plan node emits a `plan_node` span tagged
    /// `"<store subspace hex>:<node path>"` — see
    /// [`RecordQueryPlan::node_paths`] for the join back onto the tree.
    pub fn execute<'a>(
        &self,
        store: &RecordStore<'a>,
        continuation: &Continuation,
        props: &ExecuteProperties,
    ) -> Result<PlanCursor<'a>> {
        let timer = rl_obs::Timer::start("execute");
        let mut inner_props = props.clone();
        inner_props.share_limiter();
        let cursor = self.execute_inner(store, continuation, &inner_props, "0")?;
        let cursor = match props.return_limit {
            Some(n) => Box::new(crate::cursor::TakeCursor::new(cursor, n)) as PlanCursor<'a>,
            None => cursor,
        };
        Ok(if rl_obs::enabled() {
            // The timer rides with the cursor so the histogram sees the
            // full streaming lifetime, not just plan-tree construction.
            Box::new(TimedCursor::new(cursor, timer))
        } else {
            cursor
        })
    }

    /// Build the cursor for this node, wrapping it in per-node span
    /// accounting when observability is enabled. `path` is this node's
    /// dotted position in the plan tree (root `"0"`, children `"0.N"`).
    pub(crate) fn execute_inner<'a>(
        &self,
        store: &RecordStore<'a>,
        continuation: &Continuation,
        props: &ExecuteProperties,
        path: &str,
    ) -> Result<PlanCursor<'a>> {
        let cursor = self.build_cursor(store, continuation, props, path)?;
        Ok(if rl_obs::enabled() {
            Box::new(ObservedCursor::new(cursor, store, path))
        } else {
            cursor
        })
    }

    fn build_cursor<'a>(
        &self,
        store: &RecordStore<'a>,
        continuation: &Continuation,
        props: &ExecuteProperties,
        path: &str,
    ) -> Result<PlanCursor<'a>> {
        match self {
            RecordQueryPlan::FullScan {
                record_types,
                residual,
                reverse,
            } => {
                let scan = if *reverse {
                    store.scan_records_reverse(&TupleRange::all(), continuation, props)?
                } else {
                    store.scan_records(&TupleRange::all(), continuation, props)?
                };
                Ok(Box::new(FilteredRecordCursor {
                    inner: Box::new(scan),
                    record_types: record_types.clone(),
                    residual: residual.clone(),
                }))
            }
            RecordQueryPlan::IndexScan {
                index_name,
                bounds,
                reverse,
                record_types,
                residual,
            } => {
                let index = store.require_readable(index_name)?;
                let subspace = store.index_subspace(index);
                let (begin, end) = bounds.to_byte_range(&subspace);
                // Scan the index subspace's byte range, fetching records by
                // the primary key carried in each entry.
                let kv = KeyValueCursor::new(
                    store.transaction(),
                    begin,
                    end,
                    *reverse,
                    props.snapshot,
                    props.limiter(),
                    continuation,
                )?
                .expecting(props.return_limit);
                Ok(Box::new(IndexFetchCursor {
                    store: store.clone_handle(),
                    kv,
                    subspace,
                    key_columns: index.key_expression.key_column_count(),
                    record_types: record_types.clone(),
                    residual: residual.clone(),
                }))
            }
            RecordQueryPlan::CoveringIndexScan {
                index_name,
                bounds,
                reverse,
                record_type,
                fields,
            } => {
                let index = store.require_readable(index_name)?;
                let subspace = store.index_subspace(index);
                let (begin, end) = bounds.to_byte_range(&subspace);
                let kv = KeyValueCursor::new(
                    store.transaction(),
                    begin,
                    end,
                    *reverse,
                    props.snapshot,
                    props.limiter(),
                    continuation,
                )?
                .expecting(props.return_limit);
                Ok(Box::new(CoveringScanCursor {
                    kv,
                    subspace,
                    key_columns: index.key_expression.key_column_count(),
                    metadata: store.metadata_ref(),
                    record_type: record_type.clone(),
                    fields: fields.clone(),
                }))
            }
            RecordQueryPlan::TextScan {
                index_name,
                comparison,
                record_types,
                residual,
            } => {
                let pks = store.text_search(index_name, comparison)?;
                let mut records = Vec::new();
                for pk in pks {
                    if let Some(rec) = store.load_record(&pk)? {
                        let type_ok = record_types
                            .as_ref()
                            .is_none_or(|ts| ts.contains(&rec.record_type));
                        let residual_ok = match residual {
                            Some(r) => r.eval(&rec.record_type, &rec.message)?,
                            None => true,
                        };
                        if type_ok && residual_ok {
                            records.push(rec);
                        }
                    }
                }
                Ok(Box::new(crate::cursor::ListCursor::new(
                    records,
                    continuation,
                )?))
            }
            RecordQueryPlan::Union { children } | RecordQueryPlan::Intersection { children } => {
                // One merge executes both over primary-key-ordered
                // children; only a union can do without the order.
                let all = matches!(self, RecordQueryPlan::Intersection { .. });
                if MergeCursor::ordered(children, all, store)? {
                    MergeCursor::create(children, all, store, continuation, props, path)
                } else if all {
                    Err(Error::Unplannable(
                        "intersection children must stream in primary-key order".into(),
                    ))
                } else {
                    UnionCursor::create(children, store, continuation, props, path)
                }
            }
        }
    }

    /// Execute and collect all records (convenience for tests/examples).
    pub fn execute_all(&self, store: &RecordStore<'_>) -> Result<Vec<StoredRecord>> {
        let mut cursor = self.execute(store, &Continuation::Start, &ExecuteProperties::new())?;
        let (records, _, _) = cursor.collect_remaining_boxed()?;
        Ok(records)
    }
}
