//! How a contended lock is waited for: retried, yielding the CPU after
//! each failure, for about one hold, and only then parked. The paged
//! engine's pool and WAL locks wait this way, and so do `rl_fdb::sync`'s
//! conflict-shard and store locks.

use std::sync::{Mutex, MutexGuard, PoisonError, TryLockError, TryLockResult};

/// How often a contended acquisition is retried, yielding the CPU after
/// each failure, before the thread parks: 50–100 µs on the reference box
/// when nothing else is runnable (counted and not timed: library crates
/// do not read the wall clock). The locks that wait this way are held for
/// one commit's apply or one engine read — tens of µs — while a park and
/// the wake that ends it cost more than that when the waker must first
/// bring an idle (virtual) CPU back: a 5 µs read that met a commit took
/// 12–100 µs, and since one read in two met one, the *median* read flipped
/// between the two regimes from round to round. Retrying for about one
/// hold makes the wait what is left of the hold. A yield and not a
/// spin-loop hint, because with more runnable threads than CPUs the holder
/// may be one of those waiting for this CPU (8 threads on 2 vCPUs lost
/// 12 % to a 50 µs spin and nothing to this). Then the thread parks as
/// before: a compaction pass or a checkpoint is not waited out this way.
pub const YIELDS_BEFORE_PARK: u32 = 256;

/// `try_lock`/`try_read`/`try_write` as an `Option`, poison recovered:
/// a panic in another thread while it held the lock does not cascade.
pub fn acquired<G>(attempt: TryLockResult<G>) -> Option<G> {
    match attempt {
        Ok(guard) => Some(guard),
        Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

/// Retry `attempt` up to [`YIELDS_BEFORE_PARK`] times; `None` means park.
/// An uncontended lock is taken by the first attempt.
pub fn yield_until<G>(mut attempt: impl FnMut() -> Option<G>) -> Option<G> {
    for _ in 0..YIELDS_BEFORE_PARK {
        if let Some(guard) = attempt() {
            return Some(guard);
        }
        std::thread::yield_now();
    }
    None
}

#[cfg(test)]
thread_local! {
    /// Test builds: how many times this thread called [`lock`].
    pub(crate) static LOCKS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// A mutex of the paged engine's, locked: a contended lock is waited for
/// as this module describes, and a poisoned one recovered.
#[expect(clippy::disallowed_methods, reason = "rl_storage is below rl_fdb")]
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    #[cfg(test)]
    LOCKS.set(LOCKS.get() + 1);
    yield_until(|| acquired(mutex.try_lock()))
        .unwrap_or_else(|| mutex.lock().unwrap_or_else(PoisonError::into_inner))
}
