//! Group commit: concurrent committers that passed validation enqueue
//! their write sets; whoever finds no leader active drains the queue and
//! leads the batch, everyone else parks on a condvar until the leader
//! publishes their receipt. What leading a batch does is the caller's
//! (`Database::lead_batch`); this module owns only the rendezvous and the
//! hand-off of leadership, also when the leader unwinds.

use std::sync::{Condvar, Mutex};

use crate::error::{Error, Result};
use crate::sync::{lock_ranked, LockRank};
use crate::write_set::WriteSet;

/// A committer's enqueued work: its write set, handed over by move, and
/// whether it writes [`crate::METADATA_VERSION_KEY`]. The leader moves the
/// keys and values out of it into the engine.
pub(crate) struct PendingCommit {
    pub(crate) ticket: u64,
    pub(crate) writes: WriteSet,
    pub(crate) writes_metadata_version: bool,
}

/// What a batch member gets back from the leader.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CommitReceipt {
    pub(crate) version: u64,
    pub(crate) batch_order: u16,
    pub(crate) keys_written: u64,
    pub(crate) bytes_written: u64,
}

/// Each batch member's ticket with its receipt, as a leader returns them.
pub(crate) type BatchResults = Vec<(u64, Result<CommitReceipt>)>;

#[derive(Default)]
struct BatchState {
    queue: Vec<PendingCommit>,
    /// A leader is currently applying a batch; newcomers queue behind it.
    leader_active: bool,
    next_ticket: u64,
    /// Receipts published by the last leader, keyed by ticket.
    results: BatchResults,
}

/// Group-commit rendezvous: queue + condvar the followers park on.
#[derive(Default)]
pub(crate) struct CommitBatcher {
    state: Mutex<BatchState>,
    done: Condvar,
}

impl CommitBatcher {
    /// Enqueue this committer's write set; whoever finds no leader active
    /// drains the queue and runs `lead` on it, everyone else parks until
    /// the leader publishes their receipt. Callers hold their
    /// conflict-shard locks throughout, which the leader never takes — the
    /// rank order ConflictShard < CommitBatch < DatabaseStore keeps the
    /// whole rendezvous deadlock-free.
    pub(crate) fn submit(
        &self,
        writes: WriteSet,
        writes_metadata_version: bool,
        lead: impl FnOnce(Vec<PendingCommit>) -> BatchResults,
    ) -> Result<CommitReceipt> {
        // From joining the queue to leading a batch or holding a receipt.
        let queued = rl_obs::Timer::start("batch_queue_wait");
        let mut st = lock_ranked(&self.state, LockRank::CommitBatch);
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.queue.push(PendingCommit {
            ticket,
            writes,
            writes_metadata_version,
        });
        loop {
            if let Some(pos) = st.results.iter().position(|(t, _)| *t == ticket) {
                return st.results.swap_remove(pos).1;
            }
            if !st.leader_active {
                st.leader_active = true;
                let batch = std::mem::take(&mut st.queue);
                drop(st);
                drop(queued);
                return self.lead_and_publish(ticket, batch, lead);
            }
            st.wait_on(&self.done);
        }
    }

    /// Leader path: apply the batch, then publish everyone's receipts and
    /// hand leadership off. (Separate from [`Self::submit`] so the batcher
    /// lock is provably released before the leader re-acquires it.)
    ///
    /// If the leader panics mid-batch (say a storage-engine bug while it
    /// holds the store write lock), leadership is still handed back on
    /// unwind and every parked follower gets a `CommitUnknownResult`
    /// receipt — otherwise `leader_active` would stay set forever and
    /// every later committer would park on the condvar indefinitely,
    /// defeating the poison recovery `sync` promises.
    fn lead_and_publish(
        &self,
        ticket: u64,
        batch: Vec<PendingCommit>,
        lead: impl FnOnce(Vec<PendingCommit>) -> BatchResults,
    ) -> Result<CommitReceipt> {
        /// Clears `leader_active` and fails the followers' commits if the
        /// leader unwinds before publishing; disarmed on the normal path.
        struct AbdicateOnUnwind<'a> {
            batcher: &'a CommitBatcher,
            follower_tickets: Vec<u64>,
            armed: bool,
        }
        impl Drop for AbdicateOnUnwind<'_> {
            fn drop(&mut self) {
                if !self.armed {
                    return;
                }
                let mut st = lock_ranked(&self.batcher.state, LockRank::CommitBatch);
                st.leader_active = false;
                for &t in &self.follower_tickets {
                    st.results.push((t, Err(Error::CommitUnknownResult)));
                }
                drop(st);
                self.batcher.done.notify_all();
            }
        }
        // The leader's own caller observes the panic directly; publishing
        // a receipt for it would leave an orphan in `results` forever.
        let mut guard = AbdicateOnUnwind {
            batcher: self,
            follower_tickets: batch
                .iter()
                .map(|p| p.ticket)
                .filter(|t| *t != ticket)
                .collect(),
            armed: true,
        };
        let mut results = lead(batch);
        let own = results
            .iter()
            .position(|(t, _)| *t == ticket)
            .expect("leader's own commit in batch");
        let own = results.swap_remove(own).1;
        guard.armed = false;
        let mut st = lock_ranked(&self.state, LockRank::CommitBatch);
        st.leader_active = false;
        st.results.append(&mut results);
        drop(st);
        self.done.notify_all();
        own
    }
}

/// A batch member that buffers `writes` in order.
#[cfg(test)]
pub(crate) fn pending(
    ticket: u64,
    writes: Vec<(String, crate::write_set::KeyOp)>,
) -> PendingCommit {
    let mut set = WriteSet::default();
    for (key, op) in writes {
        set.push(key.as_bytes().to_vec(), op);
    }
    PendingCommit {
        ticket,
        writes: set,
        writes_metadata_version: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::write_set::KeyOp;

    #[test]
    fn leader_unwind_fails_followers_instead_of_hanging_them() {
        // Drive the guard directly: a batch of three where the leader
        // (ticket 1) panics must publish `CommitUnknownResult` receipts
        // for the two followers and clear `leader_active`.
        let batcher = CommitBatcher::default();
        {
            let mut st = lock_ranked(&batcher.state, LockRank::CommitBatch);
            st.leader_active = true;
            st.next_ticket = 3;
        }
        let batch: Vec<PendingCommit> = (0..3)
            .map(|i| pending(i, vec![(format!("f{i}"), KeyOp::Set(b"v".to_vec()))]))
            .collect();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            batcher.lead_and_publish(1, batch, |_| panic!("injected leader failure"))
        }));
        assert!(unwound.is_err(), "injected panic should reach the caller");
        let st = lock_ranked(&batcher.state, LockRank::CommitBatch);
        assert!(!st.leader_active, "leadership must be handed back");
        let mut failed: Vec<u64> = st
            .results
            .iter()
            .map(|(t, r)| {
                assert!(
                    matches!(r, Err(Error::CommitUnknownResult)),
                    "follower {t} should see commit_unknown_result, got {r:?}"
                );
                *t
            })
            .collect();
        failed.sort_unstable();
        // Followers 0 and 2 get receipts; the leader's own caller sees
        // the panic directly, so no orphan receipt for ticket 1.
        assert_eq!(failed, vec![0, 2]);
    }
}
