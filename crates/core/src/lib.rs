//! # record-layer — the FoundationDB Record Layer, reproduced in Rust
//!
//! This crate implements the primary contribution of *"FoundationDB Record
//! Layer: A Multi-Tenant Structured Datastore"* (SIGMOD 2019): a
//! record-oriented, schema-managed, transactionally-indexed datastore built
//! as a stateless library over an ordered transactional key-value store
//! (here, the [`rl_fdb`] simulator).
//!
//! ## Tour
//!
//! * [`metadata`] — record types, index definitions, metadata versioning
//!   and schema evolution (§5).
//! * [`expr`] — key expressions: `field`, `nest`, `concat`, fan-out of
//!   repeated fields, record-type keys, versions, grouping, and
//!   client-defined function expressions (Appendix A).
//! * [`store`] — the record store abstraction (§4): one contiguous
//!   subspace holding records (split across keys when large), indexes,
//!   per-record commit versions, and the store header.
//! * [`index`] — index maintenance (§6–7): VALUE, the atomic-mutation
//!   family (COUNT, COUNT_UPDATES, COUNT_NON_NULL, SUM, MIN_EVER,
//!   MAX_EVER), VERSION, RANK (a durable skip list), and TEXT (a bunched
//!   inverted index), plus the online index builder.
//! * [`cursor`] — streaming cursors with continuations and enforced scan
//!   limits (§8.2): every operation can be paused and resumed across
//!   transactions, keeping the layer stateless.
//! * [`query`] / [`plan`] — the declarative query API and the cost-based
//!   planner that turns filters into index scans, covering scans, unions,
//!   streaming intersections, and residual filters (Appendix C). Plan
//!   choice is driven by persistent per-index statistics the store's
//!   write path maintains; `RecordQueryPlan::explain()` renders the plan
//!   tree with estimated costs.
//!
//! ## Example
//!
//! ```
//! use record_layer::expr::KeyExpression;
//! use record_layer::metadata::RecordMetaDataBuilder;
//! use record_layer::store::RecordStore;
//! use rl_fdb::tuple::Tuple;
//! use rl_fdb::{Database, Subspace};
//! use rl_message::{DescriptorPool, FieldDescriptor, FieldType, MessageDescriptor};
//!
//! let mut pool = DescriptorPool::new();
//! pool.add_message(MessageDescriptor::new(
//!     "User",
//!     vec![
//!         FieldDescriptor::optional("id", 1, FieldType::Int64),
//!         FieldDescriptor::optional("name", 2, FieldType::String),
//!     ],
//! ).unwrap()).unwrap();
//! let metadata = RecordMetaDataBuilder::new(pool)
//!     .record_type("User", KeyExpression::field("id"))
//!     .build().unwrap();
//!
//! let db = Database::new();
//! let space = Subspace::from_bytes(b"doc".to_vec());
//! record_layer::run(&db, |tx| {
//!     let store = RecordStore::open_or_create(tx, &space, &metadata)?;
//!     let mut user = store.new_record("User")?;
//!     user.set("id", 1i64).unwrap();
//!     user.set("name", "ada").unwrap();
//!     store.save_record(user)?;
//!     Ok(())
//! }).unwrap();
//!
//! let name = record_layer::run(&db, |tx| {
//!     let store = RecordStore::open_or_create(tx, &space, &metadata)?;
//!     let rec = store.load_record(&Tuple::from((1i64,)))?.unwrap();
//!     Ok(rec.message.get("name").and_then(|v| v.as_str().map(String::from)))
//! }).unwrap();
//! assert_eq!(name.as_deref(), Some("ada"));
//! ```

pub mod cursor;
pub mod error;
pub mod expr;
pub mod index;
pub mod metadata;
pub mod plan;
pub mod query;
pub mod serialize;
pub mod store;

pub use error::{Error, Result};

/// Retry loop for Record Layer work: runs `f` in a fresh transaction,
/// commits, and retries on retryable errors (conflicts, stale read
/// versions) — the layer-level analogue of the FDB bindings' `run`.
pub fn run<T>(
    db: &rl_fdb::Database,
    mut f: impl FnMut(&rl_fdb::Transaction) -> Result<T>,
) -> Result<T> {
    const MAX_RETRIES: usize = 64;
    let mut last = Error::Fdb(rl_fdb::Error::NotCommitted);
    for _ in 0..MAX_RETRIES {
        let tx = db.create_transaction();
        match f(&tx) {
            Ok(v) => match tx.commit() {
                Ok(()) => return Ok(v),
                Err(e) if e.is_retryable() => last = Error::Fdb(e),
                Err(e) => return Err(Error::Fdb(e)),
            },
            Err(e) if e.is_retryable() => last = e,
            Err(e) => return Err(e),
        }
    }
    Err(last)
}

/// Convenient re-exports for typical use.
pub mod prelude {
    pub use crate::cursor::{
        Continuation, CursorResult, ExecuteProperties, NoNextReason, RecordCursor,
    };
    pub use crate::error::{Error, Result};
    pub use crate::expr::{FanType, KeyExpression};
    pub use crate::index::IndexState;
    pub use crate::metadata::{
        Index, IndexType, RecordMetaData, RecordMetaDataBuilder, RecordType,
    };
    pub use crate::plan::{
        BoxedCursorExt, CostModel, RecordQueryPlan, RecordQueryPlanner, StatisticsSource,
    };
    pub use crate::query::{Comparison, QueryComponent, RecordQuery, TextComparison};
    pub use crate::store::{RecordStore, StoredRecord};
}
