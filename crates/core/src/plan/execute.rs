//! Plan execution: turn a [`RecordQueryPlan`] into a tree of streaming
//! cursors, resuming from a continuation and honoring scan/byte limits.
//!
//! All cursors spawned by one plan share a single scan budget (installed
//! via [`ExecuteProperties`]), so a limit bounds the *total* work of the
//! plan, not the work of each branch separately.
//!
//! The leaves share their parts: every index leaf reads its entries through
//! [`IndexScanCursor::new`], and a full, index or text scan whose node has a
//! type set or a residual is wrapped in the one `FilteredRecordCursor`. A
//! text scan fetches its matches lazily, in primary-key order, and resumes
//! after the last primary key it returned.

use crate::cursor::{Continuation, ExecuteProperties};
use crate::error::{Error, Result};
use crate::store::{IndexScanCursor, RecordStore, StoredRecord, TupleRange};

use super::cursors::{
    BoxedCursorExt, CoveringScanCursor, FilteredRecordCursor, IndexFetchCursor, MergeCursor,
    ObservedCursor, PlanCursor, TextScanCursor, TimedCursor, UnionCursor,
};
use super::ir::{RecordQueryPlan, ScanBounds};

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
        let timer = rl_obs::Timer::start(rl_obs::Op::Execute);
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
        let entries = |index_name, bounds: &ScanBounds, reverse| {
            IndexScanCursor::new(
                store,
                index_name,
                true,
                |subspace| bounds.to_byte_range(subspace),
                reverse,
                continuation,
                props,
            )
        };
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
                Ok(FilteredRecordCursor::wrap(
                    Box::new(scan),
                    record_types,
                    residual,
                ))
            }
            RecordQueryPlan::IndexScan {
                index_name,
                bounds,
                reverse,
                record_types,
                residual,
            } => {
                let fetch = IndexFetchCursor {
                    store: store.clone(),
                    entries: entries(index_name, bounds, *reverse)?,
                };
                Ok(FilteredRecordCursor::wrap(
                    Box::new(fetch),
                    record_types,
                    residual,
                ))
            }
            RecordQueryPlan::CoveringIndexScan {
                index_name,
                bounds,
                reverse,
                record_type,
                fields,
            } => Ok(Box::new(CoveringScanCursor {
                entries: entries(index_name, bounds, *reverse)?,
                metadata: store.metadata(),
                record_type: record_type.clone(),
                fields: fields.clone(),
            })),
            RecordQueryPlan::TextScan {
                index_name,
                comparison,
                record_types,
                residual,
            } => {
                let pks = store.text_search(index_name, comparison)?;
                let scan = TextScanCursor::new(store, pks, continuation, props.limiter())?;
                Ok(FilteredRecordCursor::wrap(
                    Box::new(scan),
                    record_types,
                    residual,
                ))
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
