//! Lock hygiene for the whole workspace: the poison-recovering [`lock`]
//! helper (promoted out of `database.rs`, where every other crate used to
//! bypass it with bare `.lock().unwrap()`), and a `debug_assertions`-gated
//! **lock-rank tracker** that asserts at runtime that nested acquisitions
//! respect the declared global order.
//!
//! The tracker is the one lock-order check. It sees every nesting a
//! debug test runs, including a lock taken inside a call into another
//! file, the only shape the commit path's nestings have. The root
//! `clippy.toml` disallows bare `Mutex::lock` and `RwLock::read`/`write`,
//! so no call site bypasses these helpers' poison recovery and ranks. It
//! disallows condition-variable waits too: no code in the workspace waits
//! on a condition, and a new wait would need a poison-recovering, ranked
//! helper here first.
//!
//! The declared order (lower ranks first):
//!
//! 1. [`LockRank::TransactionState`] — a transaction's buffered-write
//!    state; held while the commit pipeline runs.
//! 2. [`LockRank::ConflictShard`] — one shard of the recent-writes
//!    conflict index. An **indexed band**: a thread may hold several
//!    shard locks at once as long as it acquires them in ascending
//!    shard order (see [`lock_ranked_indexed`]).
//! 3. [`LockRank::CommitWriter`] — the commit-writer mutex, with the
//!    version counters only a commit touches. A validated commit takes it
//!    with its shard locks held and keeps it while it allocates its
//!    version, stages, seals and publishes, and while it runs a due
//!    compaction: commits apply one at a time.
//! 4. [`LockRank::DatabaseStore`] — the storage engine `RwLock`.
//!    Acquired shared ([`read_ranked`]) for MVCC snapshot reads and for a
//!    commit's staging and sealing, and a compaction slice's staging;
//!    exclusive ([`write_ranked`]) only to publish what was staged, under
//!    the commit-writer lock. Under it, and outside this tracker, sit the
//!    paged engine's leaf mutexes: its buffer pool's, which a read and a
//!    stage's overlay take for one page at a time; its WAL's, which a seal
//!    takes; and its spare stage buffers', which a stage takes once.
//!    Nothing else is acquired under any of them.
//! 5. [`LockRank::StateCache`] — the `RwLock` over the map of
//!    metadata-version-validated soft state: shared for a lookup, exclusive
//!    for an insert. A leaf: nothing is acquired while it is held, and it
//!    may be taken under any of the others.
//!
//! A contended conflict shard or store lock, in either mode, is waited
//! for as [`rl_storage::wait`] describes: retried, yielding, for about
//! one hold, then parked.
//!
//! In release builds the tracker compiles away entirely: [`lock_ranked`]
//! is exactly [`lock`].

use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use rl_storage::wait::{acquired, yield_until};

/// Lock a mutex, explicitly recovering from poisoning: a panic in another
/// thread mid-commit leaves the simulated cluster state intact enough for
/// tests to observe, and matches the non-poisoning `parking_lot` semantics
/// this workspace was originally written against.
#[expect(clippy::disallowed_methods, reason = "poison-recovering Mutex::lock")]
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The global lock order. Acquiring a rank less than or equal to one the
/// current thread already holds is an ordering violation (and a potential
/// deadlock against a thread acquiring in the declared order). The one
/// exception is the indexed [`LockRank::ConflictShard`] band, where
/// same-rank acquisition in ascending index order is part of the protocol.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
#[repr(u8)]
pub enum LockRank {
    /// `Transaction::state`.
    TransactionState = 20,
    /// One `Database` conflict-index shard (indexed band; ascending
    /// shard order).
    ConflictShard = 30,
    /// `Database::writer`: held by one commit from its version allocation
    /// through its publish and any compaction it runs.
    CommitWriter = 35,
    /// The storage-engine `RwLock`: shared for reads and for a commit's
    /// staging and seal, exclusive only to publish what was staged.
    DatabaseStore = 40,
    /// `StateCache::entries` (leaf `RwLock`: shared for a lookup,
    /// exclusive for an insert).
    StateCache = 50,
}

impl LockRank {
    #[cfg(debug_assertions)]
    fn name(self) -> &'static str {
        match self {
            LockRank::TransactionState => "Transaction::state",
            LockRank::ConflictShard => "Database::shards[i]",
            LockRank::CommitWriter => "Database::writer",
            LockRank::DatabaseStore => "Database::store",
            LockRank::StateCache => "StateCache::entries",
        }
    }
}

/// A `MutexGuard` whose acquisition was checked against the thread's held
/// ranks; releases its rank entry on drop.
pub struct RankedGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    #[cfg(debug_assertions)]
    rank: LockRank,
    #[cfg(debug_assertions)]
    index: Option<usize>,
}

impl<T> Deref for RankedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for RankedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(debug_assertions)]
impl<T> Drop for RankedGuard<'_, T> {
    fn drop(&mut self) {
        tracker::release(self.rank, self.index);
    }
}

/// Lock a mutex at a declared [`LockRank`], poison-recovering like
/// [`lock`]. Under `debug_assertions`, panics if the calling thread
/// already holds a lock of the same or higher rank.
pub fn lock_ranked<T>(m: &Mutex<T>, rank: LockRank) -> RankedGuard<'_, T> {
    #[cfg(debug_assertions)]
    tracker::acquire(rank, None);
    #[cfg(not(debug_assertions))]
    let _ = rank;
    RankedGuard {
        guard: lock(m),
        #[cfg(debug_assertions)]
        rank,
        #[cfg(debug_assertions)]
        index: None,
    }
}

/// Lock one mutex of an indexed same-rank band (the conflict-index
/// shards). Multiple locks of the same rank may be held simultaneously
/// as long as their indices strictly ascend; acquiring an index less
/// than or equal to one already held at the same rank panics under
/// `debug_assertions`, as does mixing indexed and unindexed acquisition
/// of the same rank. A contended shard is retried
/// [`YIELDS_BEFORE_PARK`](rl_storage::wait::YIELDS_BEFORE_PARK) times
/// before the thread parks.
pub fn lock_ranked_indexed<T>(m: &Mutex<T>, rank: LockRank, index: usize) -> RankedGuard<'_, T> {
    #[cfg(debug_assertions)]
    tracker::acquire(rank, Some(index));
    #[cfg(not(debug_assertions))]
    let _ = (rank, index);
    RankedGuard {
        guard: yield_until(|| acquired(m.try_lock())).unwrap_or_else(|| lock(m)),
        #[cfg(debug_assertions)]
        rank,
        #[cfg(debug_assertions)]
        index: Some(index),
    }
}

/// A ranked shared (read) guard over an `RwLock`.
pub struct RankedReadGuard<'a, T> {
    guard: RwLockReadGuard<'a, T>,
    #[cfg(debug_assertions)]
    rank: LockRank,
}

impl<T> Deref for RankedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

#[cfg(debug_assertions)]
impl<T> Drop for RankedReadGuard<'_, T> {
    fn drop(&mut self) {
        tracker::release(self.rank, None);
    }
}

/// A ranked exclusive (write) guard over an `RwLock`.
pub struct RankedWriteGuard<'a, T> {
    guard: RwLockWriteGuard<'a, T>,
    #[cfg(debug_assertions)]
    rank: LockRank,
}

impl<T> Deref for RankedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for RankedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(debug_assertions)]
impl<T> Drop for RankedWriteGuard<'_, T> {
    fn drop(&mut self) {
        tracker::release(self.rank, None);
    }
}

/// Acquire an `RwLock` shared, at a declared rank, recovering from
/// poisoning like [`lock`]. Shared acquisition still participates in the
/// rank order: readers and the exclusive writer are interchangeable from
/// a deadlock-ordering perspective. A lock held exclusive is retried
/// [`YIELDS_BEFORE_PARK`](rl_storage::wait::YIELDS_BEFORE_PARK) times
/// before the thread parks.
#[expect(clippy::disallowed_methods, reason = "poison-recovering RwLock::read")]
pub fn read_ranked<T>(l: &RwLock<T>, rank: LockRank) -> RankedReadGuard<'_, T> {
    #[cfg(debug_assertions)]
    tracker::acquire(rank, None);
    #[cfg(not(debug_assertions))]
    let _ = rank;
    RankedReadGuard {
        guard: yield_until(|| acquired(l.try_read()))
            .unwrap_or_else(|| l.read().unwrap_or_else(PoisonError::into_inner)),
        #[cfg(debug_assertions)]
        rank,
    }
}

/// Acquire an `RwLock` exclusive, at a declared rank, recovering from
/// poisoning like [`lock`]. A contended lock is retried
/// [`YIELDS_BEFORE_PARK`](rl_storage::wait::YIELDS_BEFORE_PARK) times
/// before the thread parks.
#[expect(clippy::disallowed_methods, reason = "poison-recovering RwLock::write")]
pub fn write_ranked<T>(l: &RwLock<T>, rank: LockRank) -> RankedWriteGuard<'_, T> {
    #[cfg(debug_assertions)]
    tracker::acquire(rank, None);
    #[cfg(not(debug_assertions))]
    let _ = rank;
    RankedWriteGuard {
        guard: yield_until(|| acquired(l.try_write()))
            .unwrap_or_else(|| l.write().unwrap_or_else(PoisonError::into_inner)),
        #[cfg(debug_assertions)]
        rank,
    }
}

#[cfg(debug_assertions)]
mod tracker {
    use super::LockRank;
    use std::cell::RefCell;

    thread_local! {
        /// (rank, index) pairs held by this thread, in acquisition order.
        static HELD: RefCell<Vec<(LockRank, Option<usize>)>> = const { RefCell::new(Vec::new()) };
    }

    /// Whether acquiring `next` is legal with `top` as the most recent
    /// holding. Strictly higher ranks always are; the same rank is legal
    /// only inside an indexed band with a strictly greater index.
    fn allowed(top: (LockRank, Option<usize>), next: (LockRank, Option<usize>)) -> bool {
        if next.0 != top.0 {
            return next.0 > top.0;
        }
        match (top.1, next.1) {
            (Some(held), Some(acquiring)) => acquiring > held,
            _ => false,
        }
    }

    /// Record an acquisition attempt, panicking on an order violation.
    /// The violation check runs *before* blocking on the mutex — the
    /// point is to catch the misordering even when it doesn't happen to
    /// deadlock this run.
    pub fn acquire(rank: LockRank, index: Option<usize>) {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(&top) = held.last() {
                if !allowed(top, (rank, index)) {
                    let chain: Vec<String> = held
                        .iter()
                        .map(|(r, i)| match i {
                            Some(i) => format!("{}#{i}", r.name()),
                            None => r.name().to_string(),
                        })
                        .collect();
                    // Leave the thread's tracker usable for whoever
                    // catches the panic (tests).
                    held.clear();
                    panic!(
                        "lock-rank violation: acquiring `{}`{} while holding {:?} — \
                         declared order is TransactionState < \
                         ConflictShard (ascending indices) < CommitWriter < DatabaseStore < \
                         StateCache (see rl_fdb::sync)",
                        rank.name(),
                        index.map(|i| format!("#{i}")).unwrap_or_default(),
                        chain,
                    );
                }
            }
            held.push((rank, index));
        });
    }

    /// Release the most recent acquisition of `(rank, index)` (guards may
    /// drop out of LIFO order).
    pub fn release(rank: LockRank, index: Option<usize>) {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(pos) = held.iter().rposition(|&e| e == (rank, index)) {
                held.remove(pos);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_recovers_from_poison() {
        let m = std::sync::Arc::new(Mutex::new(7));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = lock(&m2);
            panic!("poison it");
        })
        .join();
        assert!(m.is_poisoned());
        assert_eq!(*lock(&m), 7);
    }

    #[test]
    fn ranked_guard_derefs_and_releases() {
        let m = Mutex::new(1);
        {
            let mut g = lock_ranked(&m, LockRank::TransactionState);
            *g += 1;
        }
        // Rank released: re-acquiring the same rank on this thread is fine.
        let g = lock_ranked(&m, LockRank::TransactionState);
        assert_eq!(*g, 2);
    }

    #[test]
    fn ascending_ranks_are_allowed() {
        let a = Mutex::new(());
        let b = Mutex::new(());
        let c = Mutex::new(());
        let d = RwLock::new(());
        let e = RwLock::new(());
        let _ga = lock_ranked(&a, LockRank::TransactionState);
        let _gb = lock_ranked_indexed(&b, LockRank::ConflictShard, 0);
        let _gc = lock_ranked(&c, LockRank::CommitWriter);
        let _gd = write_ranked(&d, LockRank::DatabaseStore);
        let _ge = read_ranked(&e, LockRank::StateCache);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn descending_ranks_panic() {
        // Spawned thread so the panic (and its tracker state) stays
        // isolated from the test harness thread.
        let result = std::thread::spawn(|| {
            let hi = Mutex::new(());
            let lo = Mutex::new(());
            let _g_hi = lock_ranked_indexed(&hi, LockRank::ConflictShard, 0);
            let _g_lo = lock_ranked(&lo, LockRank::TransactionState); // inversion
        })
        .join();
        let err = result.expect_err("inversion must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("lock-rank violation"), "{msg}");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn same_rank_reacquisition_panics() {
        let result = std::thread::spawn(|| {
            let a = Mutex::new(());
            let b = Mutex::new(());
            let _ga = lock_ranked(&a, LockRank::TransactionState);
            let _gb = lock_ranked(&b, LockRank::TransactionState);
        })
        .join();
        assert!(result.is_err());
    }

    #[test]
    fn ascending_shard_indices_are_allowed() {
        let a = Mutex::new(());
        let b = Mutex::new(());
        let c = Mutex::new(());
        let _ga = lock_ranked_indexed(&a, LockRank::ConflictShard, 0);
        let _gb = lock_ranked_indexed(&b, LockRank::ConflictShard, 3);
        let _gc = lock_ranked_indexed(&c, LockRank::ConflictShard, 15);
        // And the band still ascends into higher ranks.
        let d = RwLock::new(());
        let _gd = write_ranked(&d, LockRank::DatabaseStore);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn descending_shard_indices_panic() {
        let result = std::thread::spawn(|| {
            let a = Mutex::new(());
            let b = Mutex::new(());
            let _ga = lock_ranked_indexed(&a, LockRank::ConflictShard, 5);
            let _gb = lock_ranked_indexed(&b, LockRank::ConflictShard, 5); // re-acquire
        })
        .join();
        assert!(result.is_err());
        let result = std::thread::spawn(|| {
            let a = Mutex::new(());
            let b = Mutex::new(());
            let _ga = lock_ranked_indexed(&a, LockRank::ConflictShard, 5);
            let _gb = lock_ranked_indexed(&b, LockRank::ConflictShard, 2); // descending
        })
        .join();
        assert!(result.is_err());
    }

    #[cfg(debug_assertions)]
    #[test]
    fn mixing_indexed_and_unindexed_same_rank_panics() {
        let result = std::thread::spawn(|| {
            let a = Mutex::new(());
            let b = Mutex::new(());
            let _ga = lock_ranked_indexed(&a, LockRank::ConflictShard, 1);
            let _gb = lock_ranked(&b, LockRank::ConflictShard);
        })
        .join();
        assert!(result.is_err());
    }

    #[test]
    fn rwlock_guards_track_ranks() {
        let l = RwLock::new(5);
        {
            let g = read_ranked(&l, LockRank::DatabaseStore);
            assert_eq!(*g, 5);
        }
        {
            let mut g = write_ranked(&l, LockRank::DatabaseStore);
            *g += 1;
        }
        let g = read_ranked(&l, LockRank::DatabaseStore);
        assert_eq!(*g, 6);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn rwlock_read_after_write_rank_panics() {
        // The store lock, held in either mode, followed by a lock that
        // does not rank above it. The tracker panics before blocking, so
        // the same-lock case reports instead of deadlocking.
        let inversions: [fn(); 4] = [
            || {
                let (store, tx) = (RwLock::new(()), Mutex::new(()));
                let _gs = write_ranked(&store, LockRank::DatabaseStore);
                let _gt = lock_ranked(&tx, LockRank::TransactionState);
            },
            || {
                let (store, shard) = (RwLock::new(()), Mutex::new(()));
                let _gs = write_ranked(&store, LockRank::DatabaseStore);
                let _gc = lock_ranked_indexed(&shard, LockRank::ConflictShard, 0);
            },
            || {
                let (store, shard) = (RwLock::new(()), Mutex::new(()));
                let _gs = read_ranked(&store, LockRank::DatabaseStore);
                let _gc = lock_ranked_indexed(&shard, LockRank::ConflictShard, 0);
            },
            || {
                let store = RwLock::new(());
                let _exclusive = write_ranked(&store, LockRank::DatabaseStore);
                let _shared = read_ranked(&store, LockRank::DatabaseStore);
            },
        ];
        for (i, inversion) in inversions.into_iter().enumerate() {
            let err = std::thread::spawn(inversion)
                .join()
                .expect_err("inversion must panic");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("lock-rank violation"), "case {i}: {msg}");
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    fn state_cache_rank_is_a_leaf() {
        // Taken under the innermost of the others…
        let store = RwLock::new(());
        let cache = Mutex::new(());
        {
            let _gs = write_ranked(&store, LockRank::DatabaseStore);
            let _gc = lock_ranked(&cache, LockRank::StateCache);
        }
        // …and nothing may be acquired while it is held.
        let result = std::thread::spawn(|| {
            let cache = Mutex::new(());
            let tx = Mutex::new(());
            let _gc = lock_ranked(&cache, LockRank::StateCache);
            let _gt = lock_ranked(&tx, LockRank::TransactionState);
        })
        .join();
        assert!(result.is_err());
    }

    /// Both sides of `YIELDS_BEFORE_PARK`: a hold of a few µs is waited
    /// out retrying, one of many ms by parking, and either way the waiter
    /// ends up with the lock and the holder's write — whether it waits
    /// for the shard, or for the store held by a writer, exclusive or
    /// shared.
    #[test]
    #[expect(clippy::disallowed_methods, reason = "spins for a wall-clock hold")]
    fn contended_shard_and_store_locks_retry_then_park() {
        use std::time::{Duration, Instant};
        for hold in [Duration::from_micros(10), Duration::from_millis(20)] {
            for waiter in ["shard", "store exclusive", "store shared"] {
                let locks = Arc::new((Mutex::new(0u32), RwLock::new(0u32)));
                let held = Arc::new(std::sync::Barrier::new(2));
                let (locks2, held2) = (locks.clone(), held.clone());
                let holder = std::thread::spawn(move || {
                    let mut shard = lock_ranked_indexed(&locks2.0, LockRank::ConflictShard, 3);
                    let mut store = write_ranked(&locks2.1, LockRank::DatabaseStore);
                    held2.wait();
                    let start = Instant::now();
                    while start.elapsed() < hold {
                        std::hint::spin_loop();
                    }
                    *shard += 1;
                    *store += 1;
                });
                held.wait();
                let seen = match waiter {
                    "shard" => *lock_ranked_indexed(&locks.0, LockRank::ConflictShard, 3),
                    "store exclusive" => *write_ranked(&locks.1, LockRank::DatabaseStore),
                    _ => *read_ranked(&locks.1, LockRank::DatabaseStore),
                };
                assert_eq!(seen, 1, "{waiter} after a {hold:?} hold");
                holder.join().unwrap();
            }
        }
    }

    #[test]
    fn retrying_acquisitions_recover_from_poison() {
        let locks = Arc::new((Mutex::new(7), RwLock::new(7)));
        let locks2 = locks.clone();
        let _ = std::thread::spawn(move || {
            let _shard = lock_ranked_indexed(&locks2.0, LockRank::ConflictShard, 0);
            let _store = write_ranked(&locks2.1, LockRank::DatabaseStore);
            panic!("poison both");
        })
        .join();
        assert!(locks.0.is_poisoned() && locks.1.is_poisoned());
        assert_eq!(
            *lock_ranked_indexed(&locks.0, LockRank::ConflictShard, 0),
            7
        );
        assert_eq!(*read_ranked(&locks.1, LockRank::DatabaseStore), 7);
        assert_eq!(*write_ranked(&locks.1, LockRank::DatabaseStore), 7);
    }

    #[test]
    fn out_of_order_drops_release_correctly() {
        let a = Mutex::new(());
        let b = Mutex::new(());
        let ga = lock_ranked(&a, LockRank::TransactionState);
        let gb = lock_ranked_indexed(&b, LockRank::ConflictShard, 0);
        drop(ga); // dropped before gb: release must not pop gb's rank
        let c = Mutex::new(());
        // TransactionState is free again; ConflictShard still held, so
        // acquiring TransactionState now would be an inversion — but
        // re-acquiring after dropping gb too must succeed.
        drop(gb);
        let _gc = lock_ranked(&c, LockRank::TransactionState);
    }
}
