//! Transactions: MVCC snapshot reads, buffered writes with
//! read-your-writes, conflict ranges, atomic mutations, and size/time
//! accounting.
//!
//! A transaction obtains a read version at creation (the latest commit
//! version, as a `getReadVersion` call would) and observes an instantaneous
//! snapshot of the database at that version. Writes are buffered locally —
//! exactly as the FDB client buffers them — and shipped at commit together
//! with the read/write conflict ranges. Reads within the transaction see
//! its own writes (read-your-writes).

use std::cmp::Ordering;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, PoisonError};

use crate::atomic::{self, MutationType};
use crate::database::{Database, KEY_SIZE_LIMIT, VALUE_SIZE_LIMIT};
use crate::error::{Error, Result};
use crate::kv::{KeySelector, KeyValue};
use crate::range::RangeOptions;
use crate::state_cache::METADATA_VERSION_KEY;
use crate::sync::{lock_ranked, LockRank};
use crate::write_set::{KeyOp, WriteSet};

/// Per-transaction attribution: what *this* transaction read and wrote.
///
/// This is the one place a key-level count is taken. Workloads use it to
/// attribute traffic (which tenant read how many keys, how much of a
/// commit was index overhead, …), and the transaction's `Drop` folds it
/// into the database's [`Metrics`](crate::metrics::Metrics), which is the
/// sum of every dropped transaction's trace. Maintained as plain integers
/// under the transaction's existing state lock, so keeping it costs
/// nothing measurable, with observability enabled or not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxnTrace {
    /// Keys returned to this transaction by point and range reads.
    pub keys_read: u64,
    /// Bytes of keys+values returned by reads.
    pub bytes_read: u64,
    /// Keys written at commit (0 until a successful commit).
    pub keys_written: u64,
    /// Bytes of keys+values written at commit.
    pub bytes_written: u64,
    /// Range clears buffered: counted when issued, so a clear whose
    /// transaction never commits is counted too.
    pub range_clears: u64,
    /// Point/range read operations issued.
    pub read_ops: u64,
    /// Calls to [`Transaction::commit`] on an open transaction, whatever
    /// their outcome.
    pub commits_attempted: u64,
    /// Commits that succeeded (a read-only commit included).
    pub commits_succeeded: u64,
    /// Commits refused with a conflict ([`Error::NotCommitted`], error
    /// 1020).
    pub conflicts: u64,
    /// Record fetches: reads of record payload keys, reported by the record
    /// layer via [`Transaction::note_record_fetch`] (a covering index scan
    /// performs none).
    pub record_fetches: u64,
}

#[derive(Debug, Default)]
struct TxState {
    /// The buffered writes: read-your-writes folds them over what it reads,
    /// and the commit hands them to the batch.
    writes: WriteSet,
    read_conflicts: Vec<(Vec<u8>, Vec<u8>)>,
    write_conflicts: Vec<(Vec<u8>, Vec<u8>)>,
    /// Approximate transaction size (keys + values + conflict-range keys).
    size: usize,
    committed: bool,
    commit_version: Option<u64>,
    /// Position within the group-commit batch that carried this
    /// transaction (the middle 2 bytes of its versionstamp).
    commit_order: u16,
    /// Per-transaction read/write attribution (see [`TxnTrace`]).
    trace: TxnTrace,
    /// Free-form attribution tag for this transaction's span (tenant,
    /// subspace, workload name…).
    tag: Option<String>,
    /// A buffered write sets, clears or mutates [`METADATA_VERSION_KEY`]:
    /// from here on the state cache describes a database this transaction
    /// is changing, so it neither consults nor fills it. The commit hands
    /// this flag to the batch leader, which publishes the batch's version
    /// as the metadata version when a member carries it.
    writes_metadata_version: bool,
    /// [`Transaction::cached_state`] answered from the cache: the commit
    /// must fail if the metadata version was written after the read
    /// version.
    relied_on_metadata_version: bool,
}

impl TxState {
    /// Buffer `op` on `key`.
    fn push(&mut self, key: &[u8], op: KeyOp) {
        self.writes_metadata_version |= key == METADATA_VERSION_KEY;
        self.writes.push(key, op);
    }
}

/// A FoundationDB transaction handle.
///
/// Cheap to create; all methods take `&self` (internal locking), matching
/// the way the real client is used from async code.
pub struct Transaction {
    db: Database,
    read_version: u64,
    start_ms: u64,
    /// Span-clock start (µs since the rl_obs epoch); 0 when tracing is off.
    start_us: u64,
    state: Mutex<TxState>,
    /// Client-side counter for versionstamp user versions (the Record
    /// Layer assigns one per record written in a transaction, §7).
    user_version: std::sync::atomic::AtomicU16,
}

/// The most snapshot rows one storage read of a range read asks for. A
/// longer range is merged chunk by chunk, so neither the buffer of rows
/// awaiting the merge nor the time the store lock is held grows with the
/// range.
const SNAPSHOT_CHUNK_ROWS: usize = 1024;

impl Transaction {
    pub(crate) fn new(db: Database, read_version: u64, start_ms: u64) -> Self {
        Transaction {
            db,
            read_version,
            start_ms,
            start_us: if rl_obs::enabled() {
                rl_obs::now_us()
            } else {
                0
            },
            state: Mutex::new(TxState::default()),
            user_version: std::sync::atomic::AtomicU16::new(0),
        }
    }

    /// Allocate the next 2-byte user version for versionstamps minted in
    /// this transaction, keeping every stamped key/value unique.
    pub fn next_user_version(&self) -> u16 {
        self.user_version
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }

    /// The MVCC read version this transaction reads at.
    pub fn read_version(&self) -> u64 {
        self.read_version
    }

    /// Snapshot of this transaction's own read/write attribution.
    pub fn trace(&self) -> TxnTrace {
        lock_ranked(&self.state, LockRank::TransactionState).trace
    }

    /// Attach a free-form attribution tag (tenant, subspace, workload…)
    /// carried by the span this transaction emits at commit.
    pub fn set_tag(&self, tag: &str) {
        lock_ranked(&self.state, LockRank::TransactionState).tag = Some(tag.to_string());
    }

    /// Count one record fetch (called by the record layer) in this
    /// transaction's trace, under its state lock like every other count.
    pub fn note_record_fetch(&self) {
        lock_ranked(&self.state, LockRank::TransactionState)
            .trace
            .record_fetches += 1;
    }

    /// The commit version, available after a successful commit.
    pub fn committed_version(&self) -> Option<u64> {
        lock_ranked(&self.state, LockRank::TransactionState).commit_version
    }

    /// The 10-byte transaction versionstamp (8-byte commit version, then
    /// the 2-byte batch order), available after commit.
    pub fn versionstamp(&self) -> Option<[u8; 10]> {
        let st = lock_ranked(&self.state, LockRank::TransactionState);
        let order = st.commit_order;
        st.commit_version.map(|v| {
            let mut out = [0u8; 10];
            out[0..8].copy_from_slice(&v.to_be_bytes());
            out[8..10].copy_from_slice(&order.to_be_bytes());
            out
        })
    }

    fn check_open(&self, st: &TxState) -> Result<()> {
        if st.committed {
            return Err(Error::UsedDuringCommit);
        }
        if self.db.clock_ms().saturating_sub(self.start_ms)
            > self.db.options().transaction_time_limit_ms
        {
            return Err(Error::TransactionTooOld);
        }
        Ok(())
    }

    fn validate_key(&self, key: &[u8]) -> Result<()> {
        if key.len() > KEY_SIZE_LIMIT {
            return Err(Error::KeyTooLarge {
                size: key.len(),
                limit: KEY_SIZE_LIMIT,
            });
        }
        Ok(())
    }

    fn validate_value(&self, value: &[u8]) -> Result<()> {
        if value.len() > VALUE_SIZE_LIMIT {
            return Err(Error::ValueTooLarge {
                size: value.len(),
                limit: VALUE_SIZE_LIMIT,
            });
        }
        Ok(())
    }

    // ---------------------------------------------------------------- reads

    /// Read a key, adding it to the read conflict set.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.get_inner(key, false)
    }

    /// Read a key at snapshot isolation: no read conflict is added, so a
    /// concurrent overwrite of this key will not abort this transaction.
    pub fn get_snapshot(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.get_inner(key, true)
    }

    fn get_inner(&self, key: &[u8], snapshot: bool) -> Result<Option<Vec<u8>>> {
        let _t = rl_obs::Timer::start("get");
        self.validate_key(key)?;
        let mut st = lock_ranked(&self.state, LockRank::TransactionState);
        self.check_open(&st)?;
        if !snapshot {
            let end = crate::key_after(key);
            st.read_conflicts.push((key.to_vec(), end));
            st.size += key.len() + 12;
        }
        let underlying = self.db.storage_get(key, self.read_version)?;
        st.trace.read_ops += 1;
        let ops = st.writes.by_key.get(key).map(Vec::as_slice).unwrap_or(&[]);
        let v = st.writes.resolve(key, ops, underlying)?;
        if let Some(ref val) = v {
            st.trace.keys_read += 1;
            st.trace.bytes_read += (key.len() + val.len()) as u64;
        }
        Ok(v)
    }

    /// Range read `[begin, end)` with read-your-writes, adding the scanned
    /// range to the read conflict set.
    pub fn get_range(
        &self,
        begin: &[u8],
        end: &[u8],
        options: RangeOptions,
    ) -> Result<Vec<KeyValue>> {
        self.get_range_inner(begin, end, options, false)
    }

    /// Range read at snapshot isolation (no read conflict).
    pub fn get_range_snapshot(
        &self,
        begin: &[u8],
        end: &[u8],
        options: RangeOptions,
    ) -> Result<Vec<KeyValue>> {
        self.get_range_inner(begin, end, options, true)
    }

    fn get_range_inner(
        &self,
        begin: &[u8],
        end: &[u8],
        options: RangeOptions,
        snapshot: bool,
    ) -> Result<Vec<KeyValue>> {
        let _t = rl_obs::Timer::start("get_range");
        let mut st = lock_ranked(&self.state, LockRank::TransactionState);
        self.check_open(&st)?;
        if begin >= end {
            return Ok(Vec::new());
        }

        let limit = if options.limit == 0 {
            usize::MAX
        } else {
            options.limit
        };
        let writes = st.writes.by_key.range::<[u8], _>((
            std::ops::Bound::Included(begin),
            std::ops::Bound::Excluded(end),
        ));
        let merged = if options.reverse {
            self.merge_range(begin, end, limit, true, writes.rev(), &st.writes)?
        } else {
            self.merge_range(begin, end, limit, false, writes, &st.writes)?
        };
        st.trace.read_ops += 1;

        // Conflict range: the portion of [begin, end) actually observed.
        if !snapshot {
            let (ca, cb) = if options.limit > 0 && merged.len() == options.limit {
                if options.reverse {
                    (merged.last().unwrap().key.clone(), end.to_vec())
                } else {
                    (
                        begin.to_vec(),
                        crate::key_after(&merged.last().unwrap().key),
                    )
                }
            } else {
                (begin.to_vec(), end.to_vec())
            };
            st.size += ca.len() + cb.len() + 12;
            st.read_conflicts.push((ca, cb));
        }

        st.trace.keys_read += merged.len() as u64;
        st.trace.bytes_read += merged
            .iter()
            .map(|kv| (kv.key.len() + kv.value.len()) as u64)
            .sum::<u64>();
        Ok(merged)
    }

    /// The first `limit` rows of `[begin, end)` in scan direction, as this
    /// transaction sees them: a streaming two-way merge of the snapshot at
    /// the read version with the buffered `writes` inside the range (handed
    /// over already in scan direction), with read-your-writes resolved per
    /// key. The snapshot is read in chunks of as many rows as are still
    /// owed (at most [`SNAPSHOT_CHUNK_ROWS`]), so under a limit a further
    /// chunk is fetched only when buffered clears or atomic ops hid
    /// snapshot rows; then chunks double, which keeps the work proportional
    /// to rows returned plus rows hidden.
    fn merge_range<'a>(
        &self,
        begin: &[u8],
        end: &[u8],
        limit: usize,
        reverse: bool,
        writes: impl Iterator<Item = (&'a Vec<u8>, &'a Vec<(u64, KeyOp)>)>,
        write_set: &WriteSet,
    ) -> Result<Vec<KeyValue>> {
        let mut writes = writes.peekable();
        let mut merged: Vec<KeyValue> = Vec::new();
        // Where the next snapshot chunk resumes (the bound of the range
        // that a full chunk moved past its last row), and the rows read
        // from the snapshot but not yet merged.
        let mut resume: Option<Vec<u8>> = None;
        let mut snapshot: VecDeque<(Vec<u8>, Vec<u8>)> = VecDeque::new();
        let mut snapshot_exhausted = false;
        let mut chunk = 0usize;
        while merged.len() < limit {
            if snapshot.is_empty() && !snapshot_exhausted {
                chunk = (limit - merged.len())
                    .max(chunk * 2)
                    .min(SNAPSHOT_CHUNK_ROWS);
                let (lo, hi) = match &resume {
                    None => (begin, end),
                    Some(bound) if reverse => (begin, bound.as_slice()),
                    Some(bound) => (bound.as_slice(), end),
                };
                let rows = self
                    .db
                    .storage_range(lo, hi, self.read_version, reverse, chunk)?;
                snapshot_exhausted = rows.len() < chunk;
                if !snapshot_exhausted {
                    resume = rows.last().map(|(last, _)| {
                        if reverse {
                            last.clone()
                        } else {
                            crate::key_after(last)
                        }
                    });
                }
                merged.reserve(rows.len());
                snapshot = rows.into();
            }
            // Which side holds the next key in scan direction (`Equal`:
            // the key is both stored and written).
            let side = match (snapshot.front(), writes.peek()) {
                (None, None) => break,
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (Some((stored, _)), Some((written, _))) => {
                    let order = stored.cmp(*written);
                    if reverse {
                        order.reverse()
                    } else {
                        order
                    }
                }
            };
            let stored = if side.is_le() {
                snapshot.pop_front()
            } else {
                None
            };
            let written = if side.is_ge() { writes.next() } else { None };
            let (key, underlying, ops): (Vec<u8>, _, &[(u64, KeyOp)]) = match (stored, written) {
                (Some((key, value)), Some((_, ops))) => (key, Some(value), ops),
                (Some((key, value)), None) => (key, Some(value), &[]),
                (None, Some((key, ops))) => (key.clone(), None, ops),
                (None, None) => unreachable!("one side holds the next key"),
            };
            if let Some(value) = write_set.resolve(&key, ops, underlying)? {
                merged.push(KeyValue { key, value });
            }
        }
        Ok(merged)
    }

    /// Resolve a key selector against the merged (snapshot + buffered
    /// writes) view of the database.
    pub fn get_key(&self, selector: &KeySelector) -> Result<Option<Vec<u8>>> {
        self.get_key_inner(selector, false)
    }

    /// Key-selector resolution at snapshot isolation.
    pub fn get_key_snapshot(&self, selector: &KeySelector) -> Result<Option<Vec<u8>>> {
        self.get_key_inner(selector, true)
    }

    fn get_key_inner(&self, selector: &KeySelector, snapshot: bool) -> Result<Option<Vec<u8>>> {
        // Anchor: last key < sel.key (or <= with or_equal).
        let mut cur = self.merged_prev_key(&selector.key, selector.or_equal)?;
        let mut remaining = selector.offset;
        while remaining > 0 {
            let from = cur.clone().map_or_else(Vec::new, |k| crate::key_after(&k));
            match self.merged_next_key(&from)? {
                Some(k) => cur = Some(k),
                None => {
                    cur = None;
                    break;
                }
            }
            remaining -= 1;
        }
        while remaining < 0 {
            match &cur {
                Some(k) => {
                    let kk = k.clone();
                    cur = self.merged_prev_key(&kk, false)?;
                }
                None => break,
            }
            remaining += 1;
        }
        if !snapshot {
            // Conservative conflict range around the resolved position.
            let mut st = lock_ranked(&self.state, LockRank::TransactionState);
            self.check_open(&st)?;
            if let Some(ref k) = cur {
                st.read_conflicts.push((k.clone(), crate::key_after(k)));
            }
        }
        Ok(cur)
    }

    /// First merged-view key `>= from`, or `None`.
    fn merged_next_key(&self, from: &[u8]) -> Result<Option<Vec<u8>>> {
        // Probe with widening snapshot ranges merged against writes.
        let end = vec![0xFFu8; 16]; // beyond any normal application key
        let kvs = self.get_range_snapshot(from, &end, RangeOptions::new().limit(1))?;
        Ok(kvs.into_iter().next().map(|kv| kv.key))
    }

    /// Last merged-view key `< key` (or `<= key` with `inclusive`).
    fn merged_prev_key(&self, key: &[u8], inclusive: bool) -> Result<Option<Vec<u8>>> {
        let end = if inclusive {
            crate::key_after(key)
        } else {
            key.to_vec()
        };
        let kvs = self.get_range_snapshot(&[], &end, RangeOptions::new().limit(1).reverse(true))?;
        Ok(kvs.into_iter().next().map(|kv| kv.key))
    }

    // --------------------------------------------------------------- writes

    /// Buffer a set, adding a write conflict on the key.
    pub fn set(&self, key: &[u8], value: &[u8]) {
        let _ = self.try_set(key, value);
    }

    /// Fallible variant of [`set`](Self::set) surfacing size-limit errors.
    pub fn try_set(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.validate_key(key)?;
        self.validate_value(value)?;
        let mut st = lock_ranked(&self.state, LockRank::TransactionState);
        self.check_open(&st)?;
        st.push(key, KeyOp::Set(value.to_vec()));
        st.write_conflicts
            .push((key.to_vec(), crate::key_after(key)));
        st.size += key.len() + value.len() + 28;
        Ok(())
    }

    /// Buffer a single-key clear.
    pub fn clear(&self, key: &[u8]) {
        let mut st = lock_ranked(&self.state, LockRank::TransactionState);
        if self.check_open(&st).is_err() {
            return;
        }
        st.push(key, KeyOp::Clear);
        st.write_conflicts
            .push((key.to_vec(), crate::key_after(key)));
        st.size += key.len() + 28;
    }

    /// Buffer a range clear of `[begin, end)`.
    pub fn clear_range(&self, begin: &[u8], end: &[u8]) {
        let mut st = lock_ranked(&self.state, LockRank::TransactionState);
        if self.check_open(&st).is_err() || begin >= end {
            return;
        }
        st.writes_metadata_version |= begin <= METADATA_VERSION_KEY && METADATA_VERSION_KEY < end;
        st.writes.clear_range(begin, end);
        st.write_conflicts.push((begin.to_vec(), end.to_vec()));
        st.size += begin.len() + end.len() + 28;
        st.trace.range_clears += 1;
    }

    /// Buffer an atomic mutation. Atomic mutations add a *write* conflict
    /// but no *read* conflict, so concurrent mutations to the same key never
    /// conflict with each other (§2).
    pub fn mutate(&self, op: MutationType, key: &[u8], param: &[u8]) -> Result<()> {
        self.validate_key(key)?;
        let mut st = lock_ranked(&self.state, LockRank::TransactionState);
        self.check_open(&st)?;
        match op {
            MutationType::SetVersionstampedKey => {
                let (payload, offset) = atomic::split_versionstamp_operand(key)?;
                // The final key is unknown until commit; conservatively add
                // a write conflict over the placeholder form. No stamp
                // spells the metadata-version key.
                st.write_conflicts
                    .push((payload.clone(), crate::key_after(&payload)));
                st.size += payload.len() + param.len() + 28;
                st.writes.set_stamped_key(payload, offset, param);
            }
            MutationType::SetVersionstampedValue => {
                let (payload, offset) = atomic::split_versionstamp_operand(param)?;
                st.size += key.len() + payload.len() + 28;
                st.push(key, KeyOp::StampedValue(payload, offset));
                st.write_conflicts
                    .push((key.to_vec(), crate::key_after(key)));
            }
            _ => {
                st.push(key, KeyOp::Atomic(op, param.to_vec()));
                st.write_conflicts
                    .push((key.to_vec(), crate::key_after(key)));
                st.size += key.len() + param.len() + 28;
            }
        }
        Ok(())
    }

    // ------------------------------------------------------ conflict ranges

    /// Explicitly add a read conflict range (used with snapshot reads to
    /// conflict only on distinguished keys, §10.1).
    pub fn add_read_conflict_range(&self, begin: &[u8], end: &[u8]) {
        let mut st = lock_ranked(&self.state, LockRank::TransactionState);
        st.size += begin.len() + end.len() + 12;
        st.read_conflicts.push((begin.to_vec(), end.to_vec()));
    }

    /// Add a read conflict on a single key.
    pub fn add_read_conflict_key(&self, key: &[u8]) {
        self.add_read_conflict_range(key, &crate::key_after(key));
    }

    /// Explicitly add a write conflict range.
    pub fn add_write_conflict_range(&self, begin: &[u8], end: &[u8]) {
        let mut st = lock_ranked(&self.state, LockRank::TransactionState);
        st.size += begin.len() + end.len() + 12;
        st.write_conflicts.push((begin.to_vec(), end.to_vec()));
    }

    // ---------------------------------------------------- metadata version

    /// Write [`METADATA_VERSION_KEY`] (FoundationDB's
    /// `\xff/metadataVersion`): its value becomes this transaction's
    /// versionstamp, and once the commit lands every entry of the
    /// database's state cache is void. A layer calls this in any
    /// transaction that changes state it caches with
    /// [`cache_state`](Self::cache_state) — for an existing owner of that
    /// state; what did not exist was not cached. The commit excludes every
    /// other commit while it applies, so this is for rare changes.
    pub fn bump_metadata_version(&self) -> Result<()> {
        if lock_ranked(&self.state, LockRank::TransactionState).writes_metadata_version {
            return Ok(());
        }
        let mut stamp_at_zero = [0u8; 14];
        stamp_at_zero[..10].fill(0xFF);
        self.mutate(
            MutationType::SetVersionstampedValue,
            METADATA_VERSION_KEY,
            &stamp_at_zero,
        )
    }

    /// What the database's state cache holds for `key`, if it is what this
    /// transaction would derive itself: the entry was stored under the
    /// metadata version current now, that version is not above this
    /// transaction's read version, and this transaction has not written
    /// the key. Costs no storage read and adds no read conflict; instead
    /// the commit fails with `NotCommitted` if the metadata version was
    /// written after the read version.
    pub fn cached_state<T: Send + Sync + 'static>(&self, key: &[u8]) -> Option<Arc<T>> {
        let mut st = lock_ranked(&self.state, LockRank::TransactionState);
        if st.writes_metadata_version {
            return None;
        }
        let state = self.db.state_cache().get(key, self.read_version)?;
        let state = state.downcast::<T>().ok()?;
        st.relied_on_metadata_version = true;
        Some(state)
    }

    /// Offer `state`, derived from what this transaction read under the
    /// key prefix `key`, to the database's state cache. Kept only if it is
    /// committed state that is still current: the transaction has written
    /// neither the metadata version nor anything under `key`, and the
    /// metadata version is not above its read version.
    pub fn cache_state<T: Send + Sync + 'static>(&self, key: &[u8], state: Arc<T>) {
        let st = lock_ranked(&self.state, LockRank::TransactionState);
        let end = crate::strinc(key);
        let wrote_under_key = st.write_conflicts.iter().any(|(begin, write_end)| {
            key < write_end.as_slice() && end.as_ref().is_none_or(|end| begin < end)
        });
        if !st.writes_metadata_version && !wrote_under_key {
            self.db.state_cache().put(key, self.read_version, state);
        }
    }

    /// Current approximate transaction size in bytes.
    pub fn approximate_size(&self) -> usize {
        lock_ranked(&self.state, LockRank::TransactionState).size
    }

    /// Whether any writes are buffered.
    pub fn is_read_only(&self) -> bool {
        lock_ranked(&self.state, LockRank::TransactionState)
            .writes
            .is_empty()
    }

    // --------------------------------------------------------------- commit

    /// Validate conflicts and apply buffered writes. On success the
    /// transaction's versionstamp and committed version become available.
    ///
    /// Every attempt on an open transaction is classified here, once: it
    /// committed, it conflicted (`NotCommitted`), or it failed with another
    /// error. The outcome goes into the trace's commit counters and the
    /// transaction's span.
    pub fn commit(&self) -> Result<()> {
        let _t = rl_obs::Timer::start("commit");
        let mut st = lock_ranked(&self.state, LockRank::TransactionState);
        if st.committed {
            return Err(Error::UsedDuringCommit);
        }
        let result = self.try_commit(&mut st);
        st.trace.commits_attempted += 1;
        let outcome = match &result {
            Ok(()) => {
                st.trace.commits_succeeded += 1;
                "committed"
            }
            Err(Error::NotCommitted) => {
                st.trace.conflicts += 1;
                "conflict"
            }
            Err(_) => "error",
        };
        self.emit_txn_span(&st, outcome);
        result
    }

    /// One commit attempt of the open transaction `st`, unclassified.
    fn try_commit(&self, st: &mut TxState) -> Result<()> {
        self.check_open(st)?;
        let limit = self.db.options().transaction_size_limit;
        if st.size > limit {
            return Err(Error::TransactionTooLarge {
                size: st.size,
                limit,
            });
        }
        // Read-only transactions commit trivially without validation: they
        // already saw a consistent snapshot.
        if st.writes.is_empty() && st.write_conflicts.is_empty() {
            st.committed = true;
            return Ok(());
        }
        let receipt = self.db.commit_internal(
            self.read_version,
            &st.read_conflicts,
            &st.write_conflicts,
            &mut st.writes,
            st.relied_on_metadata_version,
            st.writes_metadata_version,
        )?;
        st.committed = true;
        st.commit_version = Some(receipt.version);
        st.commit_order = receipt.batch_order;
        st.trace.keys_written += receipt.keys_written;
        st.trace.bytes_written += receipt.bytes_written;
        Ok(())
    }

    /// Push this transaction's span (its trace counters plus an outcome
    /// marker) into the global ring. No-op when observability is off.
    fn emit_txn_span(&self, st: &TxState, outcome: &'static str) {
        if !rl_obs::enabled() {
            return;
        }
        let t = &st.trace;
        rl_obs::push_span(rl_obs::Span {
            op: "txn",
            tag: st.tag.clone().unwrap_or_default(),
            start_us: self.start_us,
            dur_us: rl_obs::now_us().saturating_sub(self.start_us),
            counters: vec![
                ("keys_read", t.keys_read),
                ("bytes_read", t.bytes_read),
                ("keys_written", t.keys_written),
                ("bytes_written", t.bytes_written),
                ("read_ops", t.read_ops),
                ("record_fetches", t.record_fetches),
                (outcome, 1),
            ],
        });
    }

    /// Discard all buffered writes (the transaction can't be reused; create
    /// a new one from the database).
    pub fn cancel(&self) {
        let mut st = lock_ranked(&self.state, LockRank::TransactionState);
        st.writes = WriteSet::default();
        st.committed = true;
    }
}

impl Drop for Transaction {
    /// Hand this transaction's counts to the database: the one place they
    /// reach its [`Metrics`](crate::metrics::Metrics). Owning the state
    /// here, it takes no lock.
    fn drop(&mut self) {
        let st = self.state.get_mut().unwrap_or_else(PoisonError::into_inner);
        self.db.metrics().fold(&st.trace);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;

    #[test]
    fn read_your_writes_point() {
        let db = Database::new();
        let tx = db.create_transaction();
        assert_eq!(tx.get(b"k").unwrap(), None);
        tx.set(b"k", b"v");
        assert_eq!(tx.get(b"k").unwrap(), Some(b"v".to_vec()));
        tx.clear(b"k");
        assert_eq!(tx.get(b"k").unwrap(), None);
    }

    #[test]
    fn read_your_writes_atomic_chain() {
        let db = Database::new();
        let tx = db.create_transaction();
        tx.mutate(MutationType::Add, b"ctr", &5u64.to_le_bytes())
            .unwrap();
        tx.mutate(MutationType::Add, b"ctr", &3u64.to_le_bytes())
            .unwrap();
        let v = tx.get(b"ctr").unwrap().unwrap();
        assert_eq!(u64::from_le_bytes(v.try_into().unwrap()), 8);
    }

    #[test]
    fn read_your_writes_clear_range_then_set() {
        let db = Database::new();
        let tx = db.create_transaction();
        tx.set(b"a1", b"x");
        tx.set(b"a2", b"y");
        tx.commit().unwrap();

        let tx = db.create_transaction();
        tx.set(b"a3", b"z");
        tx.clear_range(b"a", b"b");
        tx.set(b"a2", b"new");
        let r = tx.get_range(b"a", b"b", RangeOptions::default()).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].key, b"a2");
        assert_eq!(r[0].value, b"new");
    }

    #[test]
    fn range_merge_includes_buffered_and_respects_limit_reverse() {
        let db = Database::new();
        let tx = db.create_transaction();
        tx.set(b"b", b"1");
        tx.set(b"d", b"2");
        tx.commit().unwrap();

        let tx = db.create_transaction();
        tx.set(b"c", b"buf");
        let r = tx.get_range(b"a", b"z", RangeOptions::default()).unwrap();
        let keys: Vec<_> = r.iter().map(|kv| kv.key.clone()).collect();
        assert_eq!(keys, vec![b"b".to_vec(), b"c".to_vec(), b"d".to_vec()]);

        let r = tx
            .get_range(b"a", b"z", RangeOptions::new().reverse(true).limit(2))
            .unwrap();
        let keys: Vec<_> = r.iter().map(|kv| kv.key.clone()).collect();
        assert_eq!(keys, vec![b"d".to_vec(), b"c".to_vec()]);
    }

    #[test]
    fn key_selectors_resolve_on_merged_view() {
        let db = Database::new();
        let tx = db.create_transaction();
        tx.set(b"b", b"1");
        tx.set(b"f", b"2");
        tx.commit().unwrap();

        let tx = db.create_transaction();
        tx.set(b"d", b"buf");
        assert_eq!(
            tx.get_key(&KeySelector::first_greater_or_equal(b"c".to_vec()))
                .unwrap(),
            Some(b"d".to_vec())
        );
        assert_eq!(
            tx.get_key(&KeySelector::first_greater_than(b"d".to_vec()))
                .unwrap(),
            Some(b"f".to_vec())
        );
        assert_eq!(
            tx.get_key(&KeySelector::last_less_than(b"d".to_vec()))
                .unwrap(),
            Some(b"b".to_vec())
        );
        assert_eq!(
            tx.get_key(&KeySelector::last_less_or_equal(b"d".to_vec()))
                .unwrap(),
            Some(b"d".to_vec())
        );
    }

    #[test]
    fn key_and_value_size_limits() {
        let db = Database::new();
        let tx = db.create_transaction();
        let big_key = vec![0u8; KEY_SIZE_LIMIT + 1];
        assert!(matches!(
            tx.try_set(&big_key, b"v"),
            Err(Error::KeyTooLarge { .. })
        ));
        let big_val = vec![0u8; VALUE_SIZE_LIMIT + 1];
        assert!(matches!(
            tx.try_set(b"k", &big_val),
            Err(Error::ValueTooLarge { .. })
        ));
    }

    #[test]
    fn cancel_discards_writes() {
        let db = Database::new();
        let tx = db.create_transaction();
        tx.set(b"k", b"v");
        tx.cancel();
        let tx2 = db.create_transaction();
        assert_eq!(tx2.get(b"k").unwrap(), None);
    }

    #[test]
    fn committed_transaction_rejects_further_use() {
        let db = Database::new();
        let tx = db.create_transaction();
        tx.set(b"k", b"v");
        tx.commit().unwrap();
        assert!(matches!(tx.get(b"k"), Err(Error::UsedDuringCommit)));
        assert!(matches!(tx.commit(), Err(Error::UsedDuringCommit)));
    }

    fn bump(db: &Database) -> u64 {
        let tx = db.create_transaction();
        tx.bump_metadata_version().unwrap();
        tx.commit().unwrap();
        tx.committed_version().unwrap()
    }

    #[test]
    fn cached_state_is_served_until_the_metadata_version_is_written() {
        let db = Database::new();
        let filler = db.create_transaction();
        assert_eq!(filler.cached_state::<u32>(b"s/"), None);
        filler.cache_state(b"s/", Arc::new(7u32));
        let reader = db.create_transaction();
        assert_eq!(reader.cached_state::<u32>(b"s/").as_deref(), Some(&7));
        // Another type under the same key is a miss, not a panic.
        assert_eq!(reader.cached_state::<u64>(b"s/"), None);

        bump(&db);
        assert_eq!(db.create_transaction().cached_state::<u32>(b"s/"), None);
        // A reader from before the write goes to the database, and may
        // not store what it finds there: it is no longer current.
        assert_eq!(reader.cached_state::<u32>(b"s/"), None);
        reader.cache_state(b"s/", Arc::new(7u32));
        assert_eq!(db.create_transaction().cached_state::<u32>(b"s/"), None);
    }

    #[test]
    fn a_commit_that_relied_on_cached_state_conflicts_with_a_metadata_write() {
        let db = Database::new();
        db.create_transaction().cache_state(b"s/", Arc::new(1u32));
        let relied = db.create_transaction();
        assert!(relied.cached_state::<u32>(b"s/").is_some());
        relied.set(b"s/row", b"v");
        let did_not = db.create_transaction();
        did_not.set(b"s/other", b"v");
        bump(&db);
        assert_eq!(relied.commit(), Err(Error::NotCommitted));
        did_not.commit().unwrap();
        assert_eq!(db.create_transaction().get(b"s/row").unwrap(), None);
    }

    #[test]
    fn a_read_version_below_the_metadata_version_bypasses_the_cache() {
        let db = Database::new();
        let old = db.create_transaction().read_version();
        let written_at = bump(&db);
        db.create_transaction().cache_state(b"s/", Arc::new(2u32));
        let tx = db.create_transaction_at(old).unwrap();
        assert!(old < written_at);
        assert_eq!(tx.cached_state::<u32>(b"s/"), None);
        tx.cache_state(b"s/", Arc::new(1u32));
        let now = db.create_transaction();
        assert_eq!(now.cached_state::<u32>(b"s/").as_deref(), Some(&2));
    }

    #[test]
    fn a_transaction_that_wrote_the_state_neither_consults_nor_fills() {
        let db = Database::new();
        db.create_transaction().cache_state(b"s/", Arc::new(1u32));
        // After its own write of the metadata version…
        let tx = db.create_transaction();
        tx.bump_metadata_version().unwrap();
        let size = tx.approximate_size();
        tx.bump_metadata_version().unwrap();
        assert_eq!(tx.approximate_size(), size, "written once per transaction");
        assert_eq!(tx.cached_state::<u32>(b"s/"), None);
        tx.cache_state(b"t/", Arc::new(9u32));
        assert_eq!(db.create_transaction().cached_state::<u32>(b"t/"), None);
        // …and what it derived from its own uncommitted writes under the
        // key is never stored, whether a set or a covering clear.
        let tx = db.create_transaction();
        tx.set(b"u/header", b"new");
        tx.cache_state(b"u/", Arc::new(3u32));
        tx.clear_range(b"a", b"w");
        tx.cache_state(b"v/", Arc::new(4u32));
        tx.cache_state(b"x/", Arc::new(5u32));
        let probe = db.create_transaction();
        assert_eq!(probe.cached_state::<u32>(b"u/"), None);
        assert_eq!(probe.cached_state::<u32>(b"v/"), None);
        assert_eq!(probe.cached_state::<u32>(b"x/").as_deref(), Some(&5));
    }

    #[test]
    fn versionstamp_available_after_commit() {
        let db = Database::new();
        let tx = db.create_transaction();
        tx.set(b"k", b"v");
        assert_eq!(tx.versionstamp(), None);
        tx.commit().unwrap();
        let vs = tx.versionstamp().unwrap();
        let committed = tx.committed_version().unwrap();
        assert_eq!(u64::from_be_bytes(vs[0..8].try_into().unwrap()), committed);
    }
}
