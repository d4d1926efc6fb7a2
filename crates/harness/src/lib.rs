//! YCSB-style workload harness over the Record Layer simulator, and the
//! workspace's one bench and reporting crate.
//!
//! A *scenario* is a declarative description of a workload (tenants,
//! record population, index mix, query shapes, operation ratios,
//! Zipfian skew, threads, op budget) that a multi-threaded closed-loop
//! driver executes against the record store, joining the per-transaction
//! traces from the observability layer so every operation class reports
//! payload-vs-overhead key attribution alongside its latency percentiles.
//!
//! Every run emits one schema-stable `BENCH_workload.json`; the
//! [`compare`] module requires two single-threaded such files to carry
//! equal counts and prints their times without gating them, which is
//! what CI runs. The paper's figure/table workloads live on as named
//! presets in [`presets`] rather than standalone programs. [`json`] and
//! [`rng`] are the zero-dependency JSON tree and PRNG the reports, the
//! driver and the root crate's randomized tests share.

pub mod compare;
pub mod driver;
pub mod json;
pub mod presets;
pub mod report;
pub mod rng;
pub mod sampler;
pub mod scenario;

pub use compare::compare_reports;
pub use driver::run_scenario;
pub use sampler::{OpKind, OpMix};
pub use scenario::{Extra, IndexMix, Scenario, SizeDist};
