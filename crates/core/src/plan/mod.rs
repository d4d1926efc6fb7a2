//! Query planning and execution (Appendix C), structured as a module tree:
//!
//! * [`ir`] — the plan intermediate representation: [`RecordQueryPlan`]
//!   nodes as plain data. Plans are cacheable and re-executable with bound
//!   continuations, the moral equivalent of a SQL `PREPARE` statement.
//! * [`cost`] — the cardinality-based cost model. Plan choice is driven by
//!   *persistent per-index statistics* maintained by the store's write
//!   path (atomic entry counters), not by guessed scores.
//! * `planner` — candidate enumeration and pruning: the
//!   [`RecordQueryPlanner`] matches filters against index key expressions,
//!   proposes index scans, covering scans, unions (for OR, and for `IN` as
//!   an OR of equalities) and intersections, and keeps the cheapest plan
//!   under the cost model.
//! * `execute` — turns a plan into a tree of streaming cursors.
//! * [`cursors`] — the plan-level cursors: residual filtering, the primary
//!   fetch, covering-scan record synthesis, the text scan's lazy fetch by
//!   primary key, the k-way primary-key merge
//!   that executes intersections and ordered unions, and the sequential
//!   union for branches without that order.
//!
//! The Cascades-style rewrite engine (Appendix C "future directions")
//! remains future work; the cost model here is the stepping stone the
//! paper describes for it.

pub mod cost;
pub mod cursors;
mod execute;
pub mod ir;
mod planner;

pub use cost::{CostEstimate, CostModel, StatisticsSource};
pub use cursors::{BoxedCursorExt, PlanCursor};
pub use ir::{CoveredField, CoveredSource, RecordQueryPlan, ScanBounds};
pub use planner::RecordQueryPlanner;
