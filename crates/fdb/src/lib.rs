//! # rl-fdb — a deterministic, in-process simulation of FoundationDB
//!
//! This crate reproduces the FoundationDB *client contract* that the Record
//! Layer (SIGMOD 2019) is written against:
//!
//! * an ordered mapping from binary keys to binary values,
//! * ACID multi-key transactions with strictly-serializable isolation,
//!   implemented with MVCC reads and optimistic concurrency (commit-time
//!   validation of read conflict ranges against recently-committed writes),
//! * snapshot reads that opt out of conflict detection,
//! * atomic read-modify-write mutations (ADD, MIN/MAX, BYTE_MIN/BYTE_MAX,
//!   bit ops, versionstamped keys/values) that produce *write* conflicts but
//!   no *read* conflicts,
//! * range reads and range clears over the binary key order,
//! * commit versionstamps: 10 bytes assigned at commit, globally ordered,
//! * key (10 kB), value (100 kB) and transaction (10 MB) size limits, and a
//!   5-second transaction time limit driven by a controllable logical clock,
//! * the tuple layer (order-preserving typed tuples) and subspaces.
//!
//! The simulator is single-process and deterministic: a logical clock
//! ([`Database::advance_clock`]) stands in for wall time so tests can push a
//! transaction past the 5-second limit without sleeping. All state lives
//! behind one [`Database`] handle, which is cheap to clone and safe to share
//! across threads (writers are serialized at commit, exactly as FDB's
//! resolver serializes commit validation).
//!
//! ```
//! use rl_fdb::{Database, tuple::Tuple};
//!
//! let db = Database::new();
//! let tx = db.create_transaction();
//! tx.set(b"hello", b"world");
//! tx.commit().unwrap();
//!
//! let tx = db.create_transaction();
//! assert_eq!(tx.get(b"hello").unwrap().as_deref(), Some(&b"world"[..]));
//! ```

pub mod atomic;
mod conflict;
pub mod database;
pub mod error;
pub mod kv;
pub mod metrics;
pub mod options;
pub mod range;
pub mod state_cache;
pub mod subspace;
pub mod sync;
pub mod transaction;
pub mod tuple;
pub mod version;
mod write_set;

pub use database::Database;
pub use error::{Error, Result};
pub use kv::KeyValue;
pub use options::{DatabaseOptions, EngineKind, PagedConfig};
pub use range::RangeOptions;
pub use rl_storage::{EvictionPolicy, StorageEngine, Visitor};
pub use state_cache::{METADATA_VERSION_KEY, STATE_CACHE_CAPACITY};
pub use subspace::Subspace;
pub use sync::{
    lock, lock_ranked, lock_ranked_indexed, read_ranked, write_ranked, LockRank, RankedGuard,
    RankedReadGuard, RankedWriteGuard,
};
pub use transaction::Transaction;
pub use version::Versionstamp;

/// Increment a binary key to the next possible key in lexicographic order
/// (append a zero byte). The resulting key is the exclusive-start successor:
/// `k < key_after(k)` and no key sorts strictly between them.
pub fn key_after(key: &[u8]) -> Vec<u8> {
    let mut k = Vec::with_capacity(key.len() + 1);
    k.extend_from_slice(key);
    k.push(0);
    k
}

/// Return the first key that is not prefixed by `prefix` ("strinc" in the
/// FDB client). Strips trailing `0xFF` bytes and increments the last byte.
///
/// Returns `None` when the prefix consists solely of `0xFF` bytes, in which
/// case every key greater than the prefix is still prefixed by it (there is
/// no upper bound short of the end of keyspace).
pub fn strinc(prefix: &[u8]) -> Option<Vec<u8>> {
    let mut p = prefix.to_vec();
    while let Some(&last) = p.last() {
        if last == 0xFF {
            p.pop();
        } else {
            *p.last_mut().unwrap() += 1;
            return Some(p);
        }
    }
    None
}

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn key_after_appends_zero() {
        assert_eq!(key_after(b"abc"), b"abc\x00");
        assert_eq!(key_after(b""), b"\x00");
    }

    #[test]
    fn strinc_increments_last_byte() {
        assert_eq!(strinc(b"abc").unwrap(), b"abd");
        assert_eq!(strinc(b"a\xff").unwrap(), b"b");
        assert_eq!(strinc(b"\xff\xff"), None);
        assert_eq!(strinc(b""), None);
    }

    #[test]
    fn strinc_bounds_prefix_range() {
        let prefix = b"ab";
        let upper = strinc(prefix).unwrap();
        assert!(b"ab".as_slice() < upper.as_slice());
        assert!(b"ab\xff\xff\xff".as_slice() < upper.as_slice());
        assert!(b"ac".as_slice() >= upper.as_slice());
    }
}
