//! # cloudkit-sim — a CloudKit-style multi-tenant service layer (§8)
//!
//! CloudKit is the paper's flagship Record Layer client: a container per
//! application, a record store per (user, application) pair — billions of
//! logical databases — records organized into *zones*, change-tracking
//! ("sync") built on VERSION indexes, and cross-cluster move support via
//! per-user *incarnations*.
//!
//! This crate reproduces that service layer over `record-layer`.
//!
//! ## Example
//!
//! ```
//! use cloudkit_sim::{CloudKit, CloudKitConfig, RecordData, SyncToken};
//! use rl_fdb::Database;
//!
//! let db = Database::new();
//! let ck = CloudKit::new(&db, &CloudKitConfig::default());
//! record_layer::run(&db, |tx| {
//!     ck.save(tx, 42, "com.example.app", &RecordData::new("default", "note-1"))?;
//!     Ok(())
//! }).unwrap();
//! let (changes, _token) = record_layer::run(&db, |tx| {
//!     ck.sync(tx, 42, "com.example.app", "default", &SyncToken::start(), 10)
//! }).unwrap();
//! assert_eq!(changes.len(), 1);
//! ```

pub mod service;
pub mod sync;

pub use service::{CloudKit, CloudKitConfig, RecordData};
pub use sync::{SyncChange, SyncToken};
