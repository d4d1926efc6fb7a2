//! The plan intermediate representation.
//!
//! A [`RecordQueryPlan`] is plain data: a tree of concrete operations —
//! index scans, covering scans, full scans, text scans, unions,
//! intersections — produced by the planner and executed as streaming
//! cursors with continuations. Because plans are data, clients can cache
//! them, ship them, and re-execute them with bound continuations.

use std::collections::BTreeSet;

use rl_fdb::subspace::Subspace;
use rl_fdb::tuple::Tuple;

use crate::query::{QueryComponent, TextComparison};
use crate::store::TupleRange;

use super::cost::CostModel;

/// Key bounds for an index scan.
#[derive(Debug, Clone, PartialEq)]
pub enum ScanBounds {
    Range(TupleRange),
    /// Equality prefix columns followed by a *string prefix* match on the
    /// next column (byte-level, exploiting tuple encoding).
    StringPrefix {
        prefix_cols: Tuple,
        prefix: String,
    },
}

impl ScanBounds {
    pub fn to_byte_range(&self, subspace: &Subspace) -> (Vec<u8>, Vec<u8>) {
        match self {
            ScanBounds::Range(r) => r.to_byte_range(subspace),
            ScanBounds::StringPrefix {
                prefix_cols,
                prefix,
            } => {
                // Pack the equality columns, then the string *without* its
                // terminator: every longer string shares these bytes.
                let mut begin = subspace.pack(prefix_cols);
                let with_str = Tuple::new().push(prefix.as_str()).pack();
                begin.extend_from_slice(&with_str[..with_str.len() - 1]);
                let mut end = begin.clone();
                end.push(0xFF);
                (begin, end)
            }
        }
    }

    /// The equality prefix these bounds pin, when the bounds are a pure
    /// equality (`low == high`, both inclusive). An index scan whose
    /// equality prefix pins *every* key column streams entries in primary
    /// key order, which the primary-key merge (intersections, ordered
    /// unions) relies on.
    pub fn equality_prefix(&self) -> Option<&Tuple> {
        match self {
            ScanBounds::Range(r) => match (&r.low, &r.high) {
                (Some((lo, true)), Some((hi, true))) if lo == hi => Some(lo),
                _ => None,
            },
            ScanBounds::StringPrefix { .. } => None,
        }
    }
}

/// Where a synthesized field's value comes from in a covering index scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoveredSource {
    /// Column `i` of the index entry (key columns, then value columns).
    Entry(usize),
    /// Column `i` of the primary key appended to the entry.
    PrimaryKey(usize),
}

/// One field of the partial record a covering scan synthesizes.
#[derive(Debug, Clone, PartialEq)]
pub struct CoveredField {
    pub field: String,
    pub source: CoveredSource,
}

/// An executable query plan.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordQueryPlan {
    /// Scan the record extent, filtering.
    FullScan {
        record_types: Option<BTreeSet<String>>,
        residual: Option<QueryComponent>,
        reverse: bool,
    },
    /// Scan an index range, fetch each record, apply residual filters.
    IndexScan {
        index_name: String,
        bounds: ScanBounds,
        reverse: bool,
        record_types: Option<BTreeSet<String>>,
        residual: Option<QueryComponent>,
    },
    /// Serve the query straight from index entries: the index key plus the
    /// primary key covers every requested field, so partial records are
    /// synthesized without touching the record subspace at all (§4
    /// "covering indexes"; observable as zero record fetches in
    /// [`rl_fdb::metrics::MetricsSnapshot`]).
    CoveringIndexScan {
        index_name: String,
        bounds: ScanBounds,
        reverse: bool,
        /// The single record type whose partial records are synthesized.
        record_type: String,
        /// How synthesized fields map onto entry / primary-key columns.
        fields: Vec<CoveredField>,
    },
    /// Serve a full-text predicate from a TEXT index.
    TextScan {
        index_name: String,
        comparison: TextComparison,
        record_types: Option<BTreeSet<String>>,
        residual: Option<QueryComponent>,
    },
    /// Distinct union of sub-plans (OR and `IN` queries). Children that
    /// all stream in primary-key order, with no residual of their own,
    /// are merged in that order, and so are the rows; otherwise the
    /// branches run one after another. The order of a union's rows is not
    /// part of the API.
    Union { children: Vec<RecordQueryPlan> },
    /// Records produced by every sub-plan (AND across different indexes),
    /// executed as a streaming merge-join over primary-key-ordered
    /// children.
    Intersection { children: Vec<RecordQueryPlan> },
}

impl RecordQueryPlan {
    /// Human-readable plan shape (for tests and quick logging). For a
    /// cost-annotated tree, see [`RecordQueryPlan::explain`].
    pub fn describe(&self) -> String {
        match self {
            RecordQueryPlan::FullScan { residual, .. } => {
                if residual.is_some() {
                    "Filter(FullScan)".to_string()
                } else {
                    "FullScan".to_string()
                }
            }
            RecordQueryPlan::IndexScan {
                index_name,
                residual,
                reverse,
                ..
            } => {
                let base = if *reverse {
                    format!("IndexScan({index_name}, reverse)")
                } else {
                    format!("IndexScan({index_name})")
                };
                if residual.is_some() {
                    format!("Filter({base})")
                } else {
                    base
                }
            }
            RecordQueryPlan::CoveringIndexScan {
                index_name,
                reverse,
                ..
            } => {
                if *reverse {
                    format!("Covering(IndexScan({index_name}, reverse))")
                } else {
                    format!("Covering(IndexScan({index_name}))")
                }
            }
            RecordQueryPlan::TextScan { index_name, .. } => format!("TextScan({index_name})"),
            RecordQueryPlan::Union { children } => {
                let inner: Vec<String> = children.iter().map(RecordQueryPlan::describe).collect();
                format!("Union({})", inner.join(", "))
            }
            RecordQueryPlan::Intersection { children } => {
                let inner: Vec<String> = children.iter().map(RecordQueryPlan::describe).collect();
                format!("Intersection({})", inner.join(", "))
            }
        }
    }

    /// The plan tree annotated with estimated rows and cost under default
    /// statistics. Use [`RecordQueryPlan::explain_with`] to annotate with
    /// a store-backed cost model instead.
    pub fn explain(&self) -> String {
        CostModel::new().explain(self)
    }

    /// The plan tree annotated with estimated rows and cost under the
    /// supplied cost model (typically built from a store's persistent
    /// index statistics).
    pub fn explain_with(&self, model: &CostModel<'_>) -> String {
        model.explain(self)
    }

    /// Child plans (empty for leaves).
    pub fn children(&self) -> &[RecordQueryPlan] {
        match self {
            RecordQueryPlan::Union { children } | RecordQueryPlan::Intersection { children } => {
                children
            }
            _ => &[],
        }
    }

    /// Pre-order `(path, label)` pairs for every node in the plan tree.
    ///
    /// Paths are the dotted child indexes the executor tags `plan_node`
    /// spans with (the root is `"0"`, its children `"0.0"`, `"0.1"`, …),
    /// so draining [`rl_obs::drain_spans`] after execution and matching
    /// each span's tag suffix against these paths joins the *actual* rows
    /// and keys per node onto the plan shape [`RecordQueryPlan::explain`]
    /// prints.
    pub fn node_paths(&self) -> Vec<(String, String)> {
        fn walk(plan: &RecordQueryPlan, path: String, out: &mut Vec<(String, String)>) {
            let label = match plan {
                RecordQueryPlan::Union { .. } => "Union".to_string(),
                RecordQueryPlan::Intersection { .. } => "Intersection".to_string(),
                other => other.describe(),
            };
            out.push((path.clone(), label));
            for (i, child) in plan.children().iter().enumerate() {
                walk(child, format!("{path}.{i}"), out);
            }
        }
        let mut out = Vec::new();
        walk(self, "0".to_string(), &mut out);
        out
    }
}
