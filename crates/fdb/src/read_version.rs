//! Client-side read-version caching (§4).

use std::sync::{Arc, Mutex};

use crate::database::Database;
use crate::error::Result;
use crate::sync::{lock_ranked, LockRank};
use crate::transaction::Transaction;

/// Client-side read-version cache (§4: "Read version caching optimizes
/// getReadVersion further by completely avoiding communication with
/// FoundationDB if a read version was recently fetched").
///
/// Doubles as a GRV *batcher*: the cache lock is held across the
/// staleness check and the refresh, so when N threads hit a stale cache
/// at once, exactly one performs the `getReadVersion` and the rest reuse
/// its result.
#[derive(Default)]
pub struct ReadVersionCache {
    state: Mutex<Option<(u64, u64)>>, // (version, fetched_at_ticks)
    /// Monotonic tick source for staleness. `None` uses the database's
    /// logical clock; tests inject a counter to pin staleness decisions
    /// independent of the database under test.
    ticks: Option<Arc<dyn Fn() -> u64 + Send + Sync>>,
}

impl std::fmt::Debug for ReadVersionCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadVersionCache")
            .field("state", &self.state)
            .field("has_tick_source", &self.ticks.is_some())
            .finish()
    }
}

impl ReadVersionCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// A cache whose staleness clock is the given monotonic tick source
    /// instead of the database's logical clock. Ticks are in the same
    /// unit as `max_staleness_ms`.
    pub fn with_tick_source(ticks: impl Fn() -> u64 + Send + Sync + 'static) -> Self {
        ReadVersionCache {
            state: Mutex::new(None),
            ticks: Some(Arc::new(ticks)),
        }
    }

    fn now_ticks(&self, db: &Database) -> u64 {
        match &self.ticks {
            Some(ticks) => ticks(),
            None => db.clock_ms(),
        }
    }

    /// Begin a transaction, reusing a cached read version when it is no
    /// older than `max_staleness_ms` and at least `min_version` (the last
    /// version previously observed by this client, so the client never goes
    /// backwards in time). A stale cache triggers exactly one GRV even
    /// under concurrency (the refresh happens under the cache lock; a GRV
    /// takes at most the shared store lock, which ranks after it).
    pub fn create_transaction(
        &self,
        db: &Database,
        max_staleness_ms: u64,
        min_version: u64,
    ) -> Result<Transaction> {
        let now = self.now_ticks(db);
        let version = {
            let mut st = lock_ranked(&self.state, LockRank::ReadVersionCache);
            match *st {
                Some((version, fetched_at))
                    if now.saturating_sub(fetched_at) <= max_staleness_ms
                        && version >= min_version =>
                {
                    version
                }
                _ => {
                    let version = db.get_read_version();
                    *st = Some((version, now));
                    version
                }
            }
        };
        db.create_transaction_at(version)
    }

    /// Record a version observed via some other channel (e.g. a commit),
    /// refreshing the cache for free.
    pub fn observe(&self, db: &Database, version: u64) {
        let now = self.now_ticks(db);
        let mut st = lock_ranked(&self.state, LockRank::ReadVersionCache);
        if st.is_none_or(|(v, _)| version >= v) {
            *st = Some((version, now));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn read_version_cache_avoids_grv() {
        let db = Database::new();
        let tx = db.create_transaction();
        tx.set(b"k", b"v");
        tx.commit().unwrap();

        let cache = ReadVersionCache::new();
        let before = db.grv_call_count();
        let t1 = cache.create_transaction(&db, 1_000, 0).unwrap();
        let t2 = cache.create_transaction(&db, 1_000, 0).unwrap();
        assert_eq!(db.grv_call_count(), before + 1); // second reused cache
        assert_eq!(t1.read_version(), t2.read_version());

        // Stale cache refreshes after the staleness bound.
        db.advance_clock(2_000);
        let _t3 = cache.create_transaction(&db, 1_000, 0).unwrap();
        assert_eq!(db.grv_call_count(), before + 2);
    }

    #[test]
    fn read_version_cache_respects_min_version() {
        let db = Database::new();
        let cache = ReadVersionCache::new();
        let _ = cache.create_transaction(&db, 10_000, 0).unwrap();
        // Commit something; a client that observed that commit insists on
        // reading at least that version.
        let tx = db.create_transaction();
        tx.set(b"k", b"v");
        tx.commit().unwrap();
        let min = tx.committed_version().unwrap();
        let t = cache.create_transaction(&db, 10_000, min).unwrap();
        assert!(t.read_version() >= min);
        assert_eq!(t.get(b"k").unwrap(), Some(b"v".to_vec()));
    }

    #[test]
    fn read_version_cache_staleness_with_injected_ticks() {
        let db = Database::new();
        let tx = db.create_transaction();
        tx.set(b"k", b"v");
        tx.commit().unwrap();

        // Staleness runs on the injected counter: the database clock
        // never moves in this test.
        let ticks = Arc::new(AtomicU64::new(0));
        let t2 = ticks.clone();
        let cache = ReadVersionCache::with_tick_source(move || t2.load(Ordering::Relaxed));

        let before = db.grv_call_count();
        let _ = cache.create_transaction(&db, 100, 0).unwrap();
        ticks.store(100, Ordering::Relaxed); // exactly at the bound: fresh
        let _ = cache.create_transaction(&db, 100, 0).unwrap();
        assert_eq!(db.grv_call_count(), before + 1);
        ticks.store(101, Ordering::Relaxed); // one past: stale
        let _ = cache.create_transaction(&db, 100, 0).unwrap();
        assert_eq!(db.grv_call_count(), before + 2);
    }

    #[test]
    fn read_version_cache_coalesces_concurrent_refreshes() {
        let db = Database::new();
        let tx = db.create_transaction();
        tx.set(b"k", b"v");
        tx.commit().unwrap();

        let cache = Arc::new(ReadVersionCache::new());
        // Warm, then make stale.
        let _ = cache.create_transaction(&db, 1_000, 0).unwrap();
        db.advance_clock(5_000);

        let before = db.grv_call_count();
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let db = db.clone();
                let cache = cache.clone();
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    cache.create_transaction(&db, 1_000, 0).unwrap();
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // The refresh happened under the cache lock: one GRV, seven reuses.
        assert_eq!(db.grv_call_count(), before + 1);
    }
}
