//! The cost-based query planner.
//!
//! Candidate enumeration is structural — match the filter's conjuncts
//! against every readable VALUE index's key expression, propose unions for
//! top-level ORs (nested ORs flattened, repeated branches dropped) and for
//! an `IN` conjunct as the OR of its equalities, intersections for ANDs
//! served by several single-column indexes, text scans for text
//! predicates — and the choice among candidates is driven by the
//! [`CostModel`]: when the planner holds a store handle (via
//! [`RecordQueryPlanner::with_statistics`]) the model costs each candidate
//! with the store's *persistent* per-index entry counts; otherwise it
//! falls back to fixed default cardinalities.
//!
//! Two structural upgrades happen after matching:
//!
//! * **Covering scans** — when the query declares its required fields and
//!   an index's key (plus the primary key) covers them all with no
//!   residual, the index scan is rewritten to a
//!   [`RecordQueryPlan::CoveringIndexScan`], which skips the record fetch
//!   entirely.
//! * **Sort enforcement** — a requested sort must be served by an index or
//!   the primary key (§3.1: the layer never sorts in memory).

use std::collections::{BTreeMap, BTreeSet};

use rl_fdb::tuple::{Tuple, TupleElement};

use crate::error::{Error, Result};
use crate::expr::{FanType, KeyExpression, KeyPart};
use crate::metadata::{Index, IndexType, RecordMetaData};
use crate::query::{Comparison, QueryComponent, RecordQuery};
use crate::store::TupleRange;

use super::cost::{CostModel, StatisticsSource};
use super::ir::{CoveredField, CoveredSource, RecordQueryPlan, ScanBounds};

/// The planner: metadata plus (optionally) live statistics.
pub struct RecordQueryPlanner<'m> {
    metadata: &'m RecordMetaData,
    stats: Option<&'m dyn StatisticsSource>,
}

/// One sargable conjunct extracted from the filter.
#[derive(Debug, Clone)]
struct Conjunct {
    component: QueryComponent,
    /// Field path + fan type for index matching, when extractable.
    path: Option<(Vec<String>, FanType)>,
    comparison: Option<Comparison>,
}

impl<'m> RecordQueryPlanner<'m> {
    pub fn new(metadata: &'m RecordMetaData) -> Self {
        RecordQueryPlanner {
            metadata,
            stats: None,
        }
    }

    /// Drive plan choice from live statistics — typically the
    /// [`crate::store::RecordStore`] the plan will execute against, whose
    /// write path maintains per-index entry counts.
    pub fn with_statistics(mut self, stats: &'m dyn StatisticsSource) -> Self {
        self.stats = Some(stats);
        self
    }

    fn cost_model(&self) -> CostModel<'_> {
        match self.stats {
            Some(s) => CostModel::with_statistics(s),
            None => CostModel::new(),
        }
    }

    /// Plan a query. Fails with [`Error::UnsupportedSort`] when a requested
    /// sort has no supporting index (§3.1: no in-memory sorts).
    pub fn plan(&self, query: &RecordQuery) -> Result<RecordQueryPlan> {
        let _t = rl_obs::Timer::start(rl_obs::Op::Plan);
        let types: Option<BTreeSet<String>> = if query.record_types.is_empty() {
            None
        } else {
            Some(query.record_types.iter().cloned().collect())
        };

        // OR at the top level: union the branch plans when each branch is
        // independently index-plannable.
        if let (Some(QueryComponent::Or(branches)), None) = (&query.filter, &query.sort) {
            if let Some(union) = self.plan_union(query, branches.iter().cloned(), None)? {
                return Ok(union);
            }
        }

        let conjuncts = Self::conjuncts(query.filter.as_ref());
        let model = self.cost_model();
        let mut best: Option<(f64, RecordQueryPlan)> = None;
        let mut consider = |plan: RecordQueryPlan| {
            let cost = model.estimate(&plan).cost;
            // Strictly-cheaper replacement: ties keep the earlier
            // candidate, preserving deterministic index-name order.
            if best.as_ref().is_none_or(|(c, _)| cost < *c) {
                best = Some((cost, plan));
            }
        };

        // Every VALUE index that serves the query is a candidate; one that
        // is not readable fails when the plan executes.
        for index in self.metadata.indexes() {
            if !Self::index_serves(index, IndexType::Value, &types, &conjuncts) {
                continue;
            }
            let Some(parts) = index.key_expression.flatten() else {
                continue;
            };
            if let Some(plan) = self.match_index(index, &parts, &conjuncts, query, &types)? {
                let plan = match self.try_covering(index, &plan, query, &types) {
                    Some(covering) => covering,
                    None => plan,
                };
                consider(plan);
            }
        }
        if query.sort.is_none() {
            // An intersection of single-column index scans can serve large
            // ANDs no single index covers.
            if let Some(plan) = self.plan_intersection(&conjuncts, &types)? {
                consider(plan);
            }
            // Text predicates: serve from a TEXT index when available.
            if let Some(plan) = self.plan_text(&conjuncts, &types)? {
                consider(plan);
            }
            // `f IN (…)` as a union of equality scans, when that costs
            // less than scanning everything.
            if let Some(plan) = self.plan_in_as_union(query, &conjuncts)? {
                consider(plan);
            }
        }
        let full_scan = |reverse| RecordQueryPlan::FullScan {
            record_types: types.clone(),
            residual: query.filter.clone(),
            reverse,
        };
        if let Some((_, plan)) = best {
            return Ok(plan);
        }

        // Sort requested but no index matched: maybe the primary key
        // supports it (full scan is pk-ordered); else unsupported.
        if let Some(sort) = &query.sort {
            if self.primary_key_satisfies_sort(&types, sort) {
                return Ok(full_scan(query.sort_reverse));
            }
            return Err(Error::UnsupportedSort(format!(
                "no readable index supports sort {sort:?}; the layer does not sort in memory"
            )));
        }

        Ok(full_scan(false))
    }

    /// The union of `branches`, each planned on its own: `None` unless
    /// every branch is served by an index. A branch that is itself a union
    /// (an OR inside an OR, an `IN`) contributes its children, and a
    /// repeated branch is scanned once; one distinct branch needs no union
    /// and none at all is the union of no children, which returns nothing
    /// and reads nothing. A union has to cost less than `ceiling`, when
    /// there is one, and planning stops (`None`) at the branch that takes
    /// the children there: a list too long to win costs only the branches
    /// a winning one could have had.
    fn plan_union(
        &self,
        query: &RecordQuery,
        branches: impl Iterator<Item = QueryComponent>,
        ceiling: Option<f64>,
    ) -> Result<Option<RecordQueryPlan>> {
        let model = self.cost_model();
        let mut cost = 0.0;
        let mut children: Vec<RecordQueryPlan> = Vec::new();
        for branch in branches {
            let sub = RecordQuery {
                record_types: query.record_types.clone(),
                filter: Some(branch),
                sort: None,
                sort_reverse: false,
                required_fields: query.required_fields.clone(),
            };
            let plans = match self.plan(&sub)? {
                RecordQueryPlan::Union { children } => children,
                plan @ (RecordQueryPlan::IndexScan { .. }
                | RecordQueryPlan::CoveringIndexScan { .. }
                | RecordQueryPlan::TextScan { .. }) => vec![plan],
                _ => return Ok(None),
            };
            for plan in plans {
                if !children.contains(&plan) {
                    if let Some(ceiling) = ceiling {
                        cost += model.estimate(&plan).cost;
                        if cost >= ceiling {
                            return Ok(None);
                        }
                    }
                    children.push(plan);
                }
            }
        }
        let union = if children.len() == 1 {
            children.remove(0)
        } else {
            RecordQueryPlan::Union { children }
        };
        let affordable = ceiling.is_none_or(|ceiling| model.estimate(&union).cost < ceiling);
        Ok(affordable.then_some(union))
    }

    /// The first `f IN (v₁…v_k)` conjunct, alone or among others, as the
    /// OR of `f = vᵢ ∧ rest`, one branch per distinct value (a null never
    /// compares equal, so it names none). `None` without an `IN`, when
    /// some branch has no index to serve it, or when the union costs as
    /// much as the full scan, the plan of a query with no candidate.
    fn plan_in_as_union(
        &self,
        query: &RecordQuery,
        conjuncts: &[Conjunct],
    ) -> Result<Option<RecordQueryPlan>> {
        for (at, conjunct) in conjuncts.iter().enumerate() {
            let Some(Comparison::In(values)) = &conjunct.comparison else {
                continue;
            };
            let mut seen = BTreeSet::new();
            let values = values.iter().filter(|value| {
                let mut packed = Vec::new();
                value.pack_into(&mut packed);
                !matches!(value, TupleElement::Null) && seen.insert(packed)
            });
            let branches = values.map(|value| {
                let mut parts: Vec<QueryComponent> =
                    conjuncts.iter().map(|c| c.component.clone()).collect();
                match &mut parts[at] {
                    QueryComponent::Field { comparison, .. }
                    | QueryComponent::OneOfThem { comparison, .. } => {
                        *comparison = Comparison::Equals(value.clone());
                    }
                    _ => unreachable!("only field conjuncts carry a comparison"),
                }
                QueryComponent::And(parts)
            });
            let full_scan = RecordQueryPlan::FullScan {
                record_types: None,
                residual: None,
                reverse: false,
            };
            let ceiling = self.cost_model().estimate(&full_scan).cost;
            return self.plan_union(query, branches, Some(ceiling));
        }
        Ok(None)
    }

    fn conjuncts(filter: Option<&QueryComponent>) -> Vec<Conjunct> {
        let mut out = Vec::new();
        let mut stack: Vec<&QueryComponent> = Vec::new();
        if let Some(f) = filter {
            match f {
                QueryComponent::And(parts) => stack.extend(parts.iter()),
                other => stack.push(other),
            }
        }
        for component in stack {
            let (path, comparison) = match component {
                QueryComponent::Field { path, comparison } => (
                    Some((path.clone(), FanType::Scalar)),
                    Some(comparison.clone()),
                ),
                QueryComponent::OneOfThem { field, comparison } => (
                    Some((vec![field.clone()], FanType::Fanout)),
                    Some(comparison.clone()),
                ),
                _ => (None, None),
            };
            out.push(Conjunct {
                component: component.clone(),
                path,
                comparison,
            });
        }
        out
    }

    /// Whether `index` can answer a query over `types` whose top-level
    /// conjuncts are `conjuncts`: it is of kind `kind`, it covers every
    /// queried record type (an all-types query needs a universal index),
    /// and, if it is filtered (sparse, §6), one of the conjuncts equals its
    /// filter — it has no entry for a record its filter rejects.
    fn index_serves(
        index: &Index,
        kind: IndexType,
        types: &Option<BTreeSet<String>>,
        conjuncts: &[Conjunct],
    ) -> bool {
        let covers_types = match types {
            None => index.record_types.is_empty(),
            Some(ts) => ts.iter().all(|t| index.applies_to(t)),
        };
        index.index_type == kind
            && covers_types
            && index
                .filter
                .as_ref()
                .is_none_or(|filter| conjuncts.iter().any(|c| c.component == *filter))
    }

    /// Match one VALUE index against the conjuncts: greedily consume an
    /// equality prefix along the index's columns, then one range/prefix
    /// comparison on the next column; everything unconsumed becomes a
    /// residual filter. Returns `None` when the index serves neither a
    /// conjunct nor the requested sort.
    fn match_index(
        &self,
        index: &Index,
        parts: &[KeyPart],
        conjuncts: &[Conjunct],
        query: &RecordQuery,
        types: &Option<BTreeSet<String>>,
    ) -> Result<Option<RecordQueryPlan>> {
        let mut consumed = vec![false; conjuncts.len()];
        let mut eq_prefix = Tuple::new();
        let mut eq_count = 0usize;

        // Greedily consume equality conjuncts along the index's columns.
        for part in parts {
            let KeyPart::Field { path, fan_type } = part else {
                break;
            };
            let found = conjuncts.iter().enumerate().find(|(i, c)| {
                !consumed[*i]
                    && c.path
                        .as_ref()
                        .is_some_and(|(p, ft)| p == path && ft == fan_type)
                    && matches!(c.comparison, Some(Comparison::Equals(_)))
            });
            match found {
                Some((i, c)) => {
                    if let Some(Comparison::Equals(v)) = &c.comparison {
                        eq_prefix.add(v.clone());
                    }
                    consumed[i] = true;
                    eq_count += 1;
                }
                None => break,
            }
        }

        // One range/prefix comparison on the next column.
        let mut bounds = ScanBounds::Range(TupleRange::prefix(eq_prefix.clone()));
        let mut range_count = 0usize;
        if let Some(KeyPart::Field { path, fan_type }) = parts.get(eq_count) {
            let mut low: Option<(TupleElement, bool)> = None;
            let mut high: Option<(TupleElement, bool)> = None;
            let mut string_prefix: Option<String> = None;
            // Consume a conjunct only when its bound slot is actually
            // used: a second lower bound, a second upper bound, or a
            // range mixed with a string prefix stays in the residual
            // filter — the scan keeps the first sargable bound per slot
            // and everything else is re-checked per record.
            for (i, c) in conjuncts.iter().enumerate() {
                if consumed[i] || c.path.as_ref().map(|(p, ft)| (p, *ft)) != Some((path, *fan_type))
                {
                    continue;
                }
                match &c.comparison {
                    Some(Comparison::GreaterThan(v))
                        if low.is_none() && string_prefix.is_none() =>
                    {
                        low = Some((v.clone(), false));
                        consumed[i] = true;
                        range_count += 1;
                    }
                    Some(Comparison::GreaterThanOrEquals(v))
                        if low.is_none() && string_prefix.is_none() =>
                    {
                        low = Some((v.clone(), true));
                        consumed[i] = true;
                        range_count += 1;
                    }
                    Some(Comparison::LessThan(v)) if high.is_none() && string_prefix.is_none() => {
                        high = Some((v.clone(), false));
                        consumed[i] = true;
                        range_count += 1;
                    }
                    Some(Comparison::LessThanOrEquals(v))
                        if high.is_none() && string_prefix.is_none() =>
                    {
                        high = Some((v.clone(), true));
                        consumed[i] = true;
                        range_count += 1;
                    }
                    Some(Comparison::StartsWith(p))
                        if string_prefix.is_none() && low.is_none() && high.is_none() =>
                    {
                        string_prefix = Some(p.clone());
                        consumed[i] = true;
                        range_count += 1;
                    }
                    _ => {}
                }
            }
            if let Some(prefix) = string_prefix {
                bounds = ScanBounds::StringPrefix {
                    prefix_cols: eq_prefix.clone(),
                    prefix,
                };
            } else if low.is_some() || high.is_some() {
                let low_t = low.map(|(el, incl)| (eq_prefix.clone().push(el), incl));
                let high_t = high.map(|(el, incl)| (eq_prefix.clone().push(el), incl));
                bounds = ScanBounds::Range(TupleRange {
                    low: low_t.or_else(|| Some((eq_prefix.clone(), true))),
                    high: high_t.or_else(|| Some((eq_prefix.clone(), true))),
                });
            }
        }

        let matched = eq_count + range_count;

        // Sort satisfaction: the index's column order after the equality
        // prefix (or from the start) must begin with the sort columns.
        let mut reverse = false;
        if let Some(sort) = &query.sort {
            let Some(sort_parts) = sort.flatten() else {
                return Ok(None);
            };
            let tail = &parts[eq_count.min(parts.len())..];
            let satisfies = tail.len() >= sort_parts.len()
                && tail[..sort_parts.len()] == sort_parts[..]
                || parts.len() >= sort_parts.len() && parts[..sort_parts.len()] == sort_parts[..];
            if !satisfies {
                return Ok(None);
            }
            reverse = query.sort_reverse;
        } else if matched == 0 {
            return Ok(None);
        }

        // Residual: everything not consumed.
        let residual_parts: Vec<QueryComponent> = conjuncts
            .iter()
            .enumerate()
            .filter(|(i, _)| !consumed[*i])
            .map(|(_, c)| c.component.clone())
            .collect();
        let residual = match residual_parts.len() {
            0 => None,
            1 => Some(residual_parts.into_iter().next().unwrap()),
            _ => Some(QueryComponent::And(residual_parts)),
        };

        Ok(Some(RecordQueryPlan::IndexScan {
            index_name: index.name.clone(),
            bounds,
            reverse,
            record_types: types.clone(),
            residual,
        }))
    }

    /// Upgrade an index scan to a covering scan when the index key plus
    /// the primary key covers every required field with no residual.
    fn try_covering(
        &self,
        index: &Index,
        plan: &RecordQueryPlan,
        query: &RecordQuery,
        types: &Option<BTreeSet<String>>,
    ) -> Option<RecordQueryPlan> {
        let RecordQueryPlan::IndexScan {
            index_name,
            bounds,
            reverse,
            residual: None,
            ..
        } = plan
        else {
            return None;
        };
        if query.required_fields.is_empty() {
            return None;
        }
        // Synthesis needs one concrete record type, and the index must be
        // restricted to exactly that type: a multi-type index's entries
        // cannot be told apart without fetching the record.
        let record_type = match types {
            Some(ts) if ts.len() == 1 => ts.iter().next().unwrap().clone(),
            _ => return None,
        };
        if index.record_types.len() != 1 || !index.record_types.contains(&record_type) {
            return None;
        }
        // A filtered (sparse) index got here only because the query's
        // conjuncts include its filter, so it omits no matching record.
        // What we cannot do is synthesize from non-scalar or nested parts.
        let parts = index.key_expression.flatten()?;
        let mut fields: BTreeMap<String, CoveredSource> = BTreeMap::new();
        for (i, part) in parts.iter().enumerate() {
            match part {
                KeyPart::Field { path, fan_type }
                    if *fan_type == FanType::Scalar && path.len() == 1 =>
                {
                    fields
                        .entry(path[0].clone())
                        .or_insert(CoveredSource::Entry(i));
                }
                _ => return None,
            }
        }
        let rt = self.metadata.record_type(&record_type).ok()?;
        if let Some(pk_parts) = rt.primary_key.flatten() {
            for (i, part) in pk_parts.iter().enumerate() {
                if let KeyPart::Field { path, fan_type } = part {
                    if *fan_type == FanType::Scalar && path.len() == 1 {
                        fields
                            .entry(path[0].clone())
                            .or_insert(CoveredSource::PrimaryKey(i));
                    }
                }
            }
        }
        if !query.required_fields.iter().all(|f| fields.contains_key(f)) {
            return None;
        }
        Some(RecordQueryPlan::CoveringIndexScan {
            index_name: index_name.clone(),
            bounds: bounds.clone(),
            reverse: *reverse,
            record_type,
            fields: fields
                .into_iter()
                .map(|(field, source)| CoveredField { field, source })
                .collect(),
        })
    }

    fn primary_key_satisfies_sort(
        &self,
        types: &Option<BTreeSet<String>>,
        sort: &KeyExpression,
    ) -> bool {
        let Some(sort_parts) = sort.flatten() else {
            return false;
        };
        let mut candidates: Vec<&crate::metadata::RecordType> = Vec::new();
        match types {
            Some(ts) => {
                for t in ts {
                    match self.metadata.record_type(t) {
                        Ok(rt) => candidates.push(rt),
                        Err(_) => return false,
                    }
                }
            }
            None => candidates.extend(self.metadata.record_types()),
        }
        candidates.iter().all(|rt| {
            rt.primary_key.flatten().is_some_and(|pk| {
                pk.len() >= sort_parts.len() && pk[..sort_parts.len()] == sort_parts[..]
            })
        })
    }

    fn plan_text(
        &self,
        conjuncts: &[Conjunct],
        types: &Option<BTreeSet<String>>,
    ) -> Result<Option<RecordQueryPlan>> {
        for (i, c) in conjuncts.iter().enumerate() {
            let Some(Comparison::Text(cmp)) = &c.comparison else {
                continue;
            };
            let Some((path, _)) = &c.path else { continue };
            for index in self.metadata.indexes() {
                if !Self::index_serves(index, IndexType::Text, types, conjuncts) {
                    continue;
                }
                let Some(parts) = index.key_expression.flatten() else {
                    continue;
                };
                let matches_field =
                    matches!(parts.first(), Some(KeyPart::Field { path: p, .. }) if p == path);
                if !matches_field {
                    continue;
                }
                let residual_parts: Vec<QueryComponent> = conjuncts
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .map(|(_, c)| c.component.clone())
                    .collect();
                let residual = match residual_parts.len() {
                    0 => None,
                    1 => Some(residual_parts.into_iter().next().unwrap()),
                    _ => Some(QueryComponent::And(residual_parts)),
                };
                return Ok(Some(RecordQueryPlan::TextScan {
                    index_name: index.name.clone(),
                    comparison: cmp.clone(),
                    record_types: types.clone(),
                    residual,
                }));
            }
        }
        Ok(None)
    }

    fn plan_intersection(
        &self,
        conjuncts: &[Conjunct],
        types: &Option<BTreeSet<String>>,
    ) -> Result<Option<RecordQueryPlan>> {
        // Equality conjuncts each served by a different single-column
        // index: the children stream in primary-key order (equality prefix
        // pins every key column), which the merge-join execution needs.
        let mut children = Vec::new();
        for c in conjuncts {
            let Some((path, fan)) = &c.path else { continue };
            if !matches!(c.comparison, Some(Comparison::Equals(_))) {
                continue;
            }
            for index in self.metadata.indexes() {
                if !Self::index_serves(index, IndexType::Value, types, conjuncts) {
                    continue;
                }
                let Some(parts) = index.key_expression.flatten() else {
                    continue;
                };
                if parts.len() == 1
                    && matches!(&parts[0], KeyPart::Field { path: p, fan_type } if p == path && fan_type == fan)
                {
                    if let Some(Comparison::Equals(v)) = &c.comparison {
                        children.push(RecordQueryPlan::IndexScan {
                            index_name: index.name.clone(),
                            bounds: ScanBounds::Range(TupleRange::prefix(
                                Tuple::new().push(v.clone()),
                            )),
                            reverse: false,
                            record_types: types.clone(),
                            residual: None,
                        });
                    }
                    break;
                }
            }
        }
        if children.len() >= 2 && children.len() == conjuncts.len() {
            Ok(Some(RecordQueryPlan::Intersection { children }))
        } else {
            Ok(None)
        }
    }
}
