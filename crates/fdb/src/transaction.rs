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

use std::borrow::Cow;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU16, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::atomic::{self, MutationType};
use crate::conflict::ReadConflicts;
use crate::database::Database;
use crate::error::{Error, Result};
use crate::kv::KeyValue;
use crate::options::{KEY_SIZE_LIMIT, VALUE_SIZE_LIMIT};
use crate::range::RangeOptions;
use crate::state_cache::METADATA_VERSION_KEY;
use crate::sync::{lock_ranked, LockRank};
use crate::write_set::{KeyOp, KeyOps, WriteSet};
use rl_storage::Visitor;

/// Per-transaction attribution: what *this* transaction read and wrote.
///
/// This is the one place a key-level count is taken. Workloads use it to
/// attribute traffic (which tenant read how many keys, how much of a
/// commit was index overhead, …), and the transaction's `Drop` folds it
/// into the database's [`Metrics`](crate::metrics::Metrics), which is the
/// sum of every dropped transaction's trace. Maintained as plain integers
/// under the transaction's existing state lock — bar `record_fetches`, one
/// atomic of its own, which the record layer bumps once per fetched record
/// without that lock — so keeping it costs nothing measurable, with
/// observability enabled or not.
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
    /// and the commit hands them to the engine.
    writes: WriteSet,
    /// Every read conflict, in one arena: a point read is its key alone.
    read_conflicts: ReadConflicts,
    /// Write conflict ranges added explicitly. What `writes` holds is a
    /// write conflict too, built once at commit
    /// ([`WriteSet::conflicts`]).
    write_conflicts: Vec<(Vec<u8>, Vec<u8>)>,
    /// Approximate transaction size (keys + values + conflict-range keys).
    size: usize,
    committed: bool,
    commit_version: Option<u64>,
    /// Per-transaction read/write attribution (see [`TxnTrace`]).
    trace: TxnTrace,
    /// Free-form attribution tag for this transaction's span (tenant,
    /// subspace, workload name…).
    tag: Option<String>,
    /// A buffered write sets, clears or mutates [`METADATA_VERSION_KEY`]:
    /// from here on the state cache describes a database this transaction
    /// is changing, so it neither consults nor fills it. The commit then
    /// publishes its version as the metadata version.
    writes_metadata_version: bool,
    /// [`Transaction::cached_state`] answered from the cache: the commit
    /// must fail if the metadata version was written after the read
    /// version.
    relied_on_metadata_version: bool,
}

impl TxState {
    /// Buffer `op` on `key`.
    fn push(&mut self, key: Vec<u8>, op: KeyOp) {
        self.writes_metadata_version |= key == METADATA_VERSION_KEY;
        self.writes.push(key, op);
    }

    fn push_atomic<K, P>(&mut self, key: K, kind: MutationType, param: P)
    where
        K: AsRef<[u8]> + Into<Vec<u8>>,
        P: AsRef<[u8]> + Into<Vec<u8>>,
    {
        self.writes_metadata_version |= key.as_ref() == METADATA_VERSION_KEY;
        self.writes.push_atomic(key, kind, param);
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
    user_version: AtomicU16,
    /// [`TxnTrace::record_fetches`], counted outside the state lock.
    record_fetches: AtomicU64,
}

/// The most snapshot rows one storage read of a range read lends. A
/// longer range is merged chunk by chunk, each chunk one acquisition of
/// the store lock, so the time the lock is held does not grow with the
/// range.
const SNAPSHOT_CHUNK_ROWS: usize = 1024;

/// What a range read handed over: the rows and their key and value
/// bytes, and, when a conflicting read stopped before the range ended (at
/// its limit, or where the visitor stopped it), the bound its read
/// conflict stops at: the last row's key going backward, `key_after` it
/// going forward.
#[derive(Debug, Default)]
struct Read {
    rows: usize,
    bytes: u64,
    conflict_bound: Option<Vec<u8>>,
}

/// The state of one read-your-writes merge: the buffered writes inside
/// the range still ahead of it in scan direction, and the visitor the
/// merged rows go to. A step returns [`ControlFlow::Break`] once the read
/// must stop.
struct Merge<'w, 'v, I: Iterator> {
    writes: std::iter::Peekable<I>,
    write_set: &'w WriteSet,
    limit: usize,
    reverse: bool,
    conflicting: bool,
    visitor: &'v mut Visitor<'v>,
    read: Read,
    /// An atomic op that failed to apply: the read stops and fails.
    error: Option<Error>,
}

impl<'w, 'v, I> Merge<'w, 'v, I>
where
    I: Iterator<Item = (&'w Vec<u8>, &'w KeyOps)>,
{
    fn new(
        writes: I,
        write_set: &'w WriteSet,
        limit: usize,
        reverse: bool,
        conflicting: bool,
        visitor: &'v mut Visitor<'v>,
    ) -> Self {
        Merge {
            writes: writes.peekable(),
            write_set,
            limit,
            reverse,
            conflicting,
            visitor,
            read: Read::default(),
            error: None,
        }
    }

    /// One row the snapshot lent: the buffered writes ahead of it in scan
    /// direction, then the row itself with its own buffered ops.
    fn stored(&mut self, key: &[u8], value: &[u8]) -> ControlFlow<()> {
        self.writes_before(Some(key))?;
        let ops = match self.writes.peek() {
            Some(&(written, ops)) if written.as_slice() == key => {
                self.writes.next();
                ops.as_slice()
            }
            _ => &[],
        };
        self.hand(key, ops, Some(value))
    }

    /// The buffered writes ahead of `key` in scan direction (all of them
    /// for `None`), each as a key the snapshot does not hold.
    fn writes_before(&mut self, key: Option<&[u8]>) -> ControlFlow<()> {
        while let Some(&(written, ops)) = self.writes.peek() {
            let ahead = key.is_none_or(|key| match self.reverse {
                true => written.as_slice() > key,
                false => written.as_slice() < key,
            });
            if !ahead {
                break;
            }
            self.writes.next();
            self.hand(written, ops.as_slice(), None)?;
        }
        ControlFlow::Continue(())
    }

    /// Resolve `ops` over `stored` and lend the value, if one is left, to
    /// the visitor.
    fn hand(&mut self, key: &[u8], ops: &[(u64, KeyOp)], stored: Option<&[u8]>) -> ControlFlow<()> {
        let value = match self.write_set.resolve(key, ops, stored.map(Cow::Borrowed)) {
            Ok(Some(value)) => value,
            Ok(None) => return ControlFlow::Continue(()),
            Err(error) => {
                self.error = Some(error);
                return ControlFlow::Break(());
            }
        };
        self.read.rows += 1;
        self.read.bytes += (key.len() + value.len()) as u64;
        if (self.visitor)(key, &value).is_break() || self.read.rows == self.limit {
            self.read.conflict_bound = self.conflicting.then(|| match self.reverse {
                true => key.to_vec(),
                false => crate::key_after(key),
            });
            return ControlFlow::Break(());
        }
        ControlFlow::Continue(())
    }
}

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
            user_version: AtomicU16::new(0),
            record_fetches: AtomicU64::new(0),
        }
    }

    /// Allocate the next 2-byte user version for versionstamps minted in
    /// this transaction, keeping every stamped key/value unique.
    pub fn next_user_version(&self) -> u16 {
        self.user_version.fetch_add(1, Ordering::Relaxed)
    }

    /// The MVCC read version this transaction reads at.
    pub fn read_version(&self) -> u64 {
        self.read_version
    }

    /// Snapshot of this transaction's own read/write attribution.
    pub fn trace(&self) -> TxnTrace {
        self.traced(&lock_ranked(&self.state, LockRank::TransactionState))
    }

    /// `st`'s trace with the record fetches counted beside it.
    fn traced(&self, st: &TxState) -> TxnTrace {
        TxnTrace {
            record_fetches: self.record_fetches.load(Ordering::Relaxed),
            ..st.trace
        }
    }

    /// Attach a free-form attribution tag (tenant, subspace, workload…)
    /// carried by the span this transaction emits at commit.
    pub fn set_tag(&self, tag: &str) {
        lock_ranked(&self.state, LockRank::TransactionState).tag = Some(tag.to_string());
    }

    /// Count one record fetch (called by the record layer) in this
    /// transaction's trace: one atomic add, taking no lock.
    pub fn note_record_fetch(&self) {
        self.record_fetches.fetch_add(1, Ordering::Relaxed);
    }

    /// The commit version, available after a successful commit.
    pub fn committed_version(&self) -> Option<u64> {
        lock_ranked(&self.state, LockRank::TransactionState).commit_version
    }

    /// The 10-byte transaction versionstamp (8-byte commit version, then
    /// the 2-byte batch order, always 0: every commit has its own version),
    /// available after commit.
    pub fn versionstamp(&self) -> Option<[u8; 10]> {
        self.committed_version().map(|v| {
            let mut out = [0u8; 10];
            out[0..8].copy_from_slice(&v.to_be_bytes());
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
        let _t = rl_obs::Timer::start(rl_obs::Op::Get);
        self.validate_key(key)?;
        let mut st = lock_ranked(&self.state, LockRank::TransactionState);
        self.check_open(&st)?;
        if !snapshot {
            st.read_conflicts.push_point(key);
            st.size += key.len() + 12;
        }
        let underlying = self.db.storage_get(key, self.read_version)?;
        st.trace.read_ops += 1;
        let ops = st.writes.by_key.get(key).map_or(&[][..], KeyOps::as_slice);
        let v = st.writes.resolve(key, ops, underlying.map(Cow::Owned))?;
        let v = v.map(Cow::into_owned);
        if let Some(ref val) = v {
            st.trace.keys_read += 1;
            st.trace.bytes_read += (key.len() + val.len()) as u64;
        }
        Ok(v)
    }

    /// Range read `[begin, end)` with read-your-writes, adding the scanned
    /// range to the read conflict set. Each row is copied once, into the
    /// returned [`KeyValue`]s; [`visit_range`](Self::visit_range) lends
    /// them instead.
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
        // A limited read sizes its rows once for the limit (at most a
        // chunk's worth) instead of growing them.
        let mut rows = Vec::with_capacity(options.limit.min(SNAPSHOT_CHUNK_ROWS));
        self.read_range(begin, end, options, snapshot, &mut |key, value| {
            rows.push(KeyValue::new(key, value));
            ControlFlow::Continue(())
        })?;
        Ok(rows)
    }

    /// The lending [`get_range`](Self::get_range): each row of `[begin,
    /// end)` this transaction sees, in scan direction, is lent to
    /// `visitor` once instead of copied. Cost contract: the bounds are
    /// borrowed, and the read copies the range it conflicts on into the
    /// transaction's read-conflict arena, which allocates nothing once it
    /// has grown, so a read that is not stopped early allocates nothing
    /// of its own. The read stops at `options.limit` rows or where the
    /// visitor returns [`ControlFlow::Break`]; a read that stopped
    /// conflicts only up to the last row it lent (`key_after` of it going
    /// forward, from it going backward), as a limited `get_range` does.
    ///
    /// The visitor runs under this transaction's state lock and the
    /// database's shared store lock (on the paged engine under its
    /// buffer-pool lock too), so it must not call back into the
    /// transaction or the database: debug builds panic in the lock-rank
    /// tracker when it does, and release builds may deadlock.
    pub fn visit_range(
        &self,
        begin: &[u8],
        end: &[u8],
        options: RangeOptions,
        visitor: &mut Visitor<'_>,
    ) -> Result<()> {
        self.read_range(begin, end, options, false, visitor)
    }

    /// Every range read: the merge of [`merge_range`](Self::merge_range)
    /// lent to `visitor`, then the counts and the read conflict range.
    fn read_range(
        &self,
        begin: &[u8],
        end: &[u8],
        options: RangeOptions,
        snapshot: bool,
        visitor: &mut Visitor<'_>,
    ) -> Result<()> {
        let _t = rl_obs::Timer::start(rl_obs::Op::GetRange);
        let mut st = lock_ranked(&self.state, LockRank::TransactionState);
        self.check_open(&st)?;
        if begin >= end {
            return Ok(());
        }

        let limit = if options.limit == 0 {
            usize::MAX
        } else {
            options.limit
        };
        let st = &mut *st;
        let writes = st.writes.by_key.range::<[u8], _>((
            std::ops::Bound::Included(begin),
            std::ops::Bound::Excluded(end),
        ));
        let read = if options.reverse {
            let merge = Merge::new(writes.rev(), &st.writes, limit, true, !snapshot, visitor);
            self.merge_range(begin, end, merge)?
        } else {
            let merge = Merge::new(writes, &st.writes, limit, false, !snapshot, visitor);
            self.merge_range(begin, end, merge)?
        };
        st.trace.read_ops += 1;

        // Conflict range: the portion of [begin, end) actually observed.
        if !snapshot {
            let (ca, cb) = match &read.conflict_bound {
                Some(bound) if options.reverse => (bound.as_slice(), end),
                Some(bound) => (begin, bound.as_slice()),
                None => (begin, end),
            };
            st.size += ca.len() + cb.len() + 12;
            st.read_conflicts.push_range(ca, cb);
        }

        st.trace.keys_read += read.rows as u64;
        st.trace.bytes_read += read.bytes;
        Ok(())
    }

    /// The rows of `[begin, end)` in scan direction, as this transaction
    /// sees them: a one-pass merge of the snapshot rows the engine lends
    /// with the buffered writes inside the range, read-your-writes
    /// resolved per key, each visible row handed to `merge`'s visitor
    /// once. The snapshot is lent in chunks of as many rows as are still
    /// owed (at most [`SNAPSHOT_CHUNK_ROWS`]), each chunk one store-lock
    /// acquisition that resumes after the last key the previous one lent,
    /// so under a limit a further chunk is read only when buffered clears
    /// or atomic ops hid snapshot rows; then chunks double, which keeps
    /// the work proportional to rows returned plus rows hidden.
    fn merge_range<'w, I>(
        &self,
        begin: &[u8],
        end: &[u8],
        mut merge: Merge<'w, '_, I>,
    ) -> Result<Read>
    where
        I: Iterator<Item = (&'w Vec<u8>, &'w KeyOps)>,
    {
        let mut resume: Option<Vec<u8>> = None;
        let mut chunk = 0usize;
        loop {
            chunk = (merge.limit - merge.read.rows)
                .max(chunk * 2)
                .min(SNAPSHOT_CHUNK_ROWS);
            let (lo, hi) = match &resume {
                None => (begin, end),
                Some(bound) if merge.reverse => (begin, bound.as_slice()),
                Some(bound) => (bound.as_slice(), end),
            };
            let (mut lent, mut next, mut flow) = (0, None, ControlFlow::Continue(()));
            let reverse = merge.reverse;
            self.db
                .storage_range(lo, hi, self.read_version, reverse, &mut |key, value| {
                    flow = merge.stored(key, value);
                    lent += 1;
                    if flow.is_continue() && lent == chunk {
                        next = Some(if reverse {
                            key.to_vec()
                        } else {
                            crate::key_after(key)
                        });
                        return ControlFlow::Break(());
                    }
                    flow
                })?;
            if flow.is_break() {
                break;
            }
            match next {
                Some(bound) => resume = Some(bound),
                None => {
                    // The snapshot is exhausted: what is left is written.
                    let _ = merge.writes_before(None);
                    break;
                }
            }
        }
        match merge.error {
            Some(error) => Err(error),
            None => Ok(merge.read),
        }
    }

    // --------------------------------------------------------------- writes
    //
    // Each written key is a write conflict; the commit collects them from
    // the write set. A write of borrowed bytes copies them into the write
    // set once; its `_owned` twin takes a key and value the caller built,
    // and they move in.

    /// Buffer a set, adding a write conflict on the key.
    pub fn set(&self, key: &[u8], value: &[u8]) {
        let _ = self.try_set(key, value);
    }

    /// Fallible variant of [`set`](Self::set) surfacing size-limit errors.
    pub fn try_set(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.try_set_owned(key.to_vec(), value.to_vec())
    }

    /// [`try_set`](Self::try_set) of a key and value the caller built:
    /// both move into the write set.
    pub fn try_set_owned(&self, key: Vec<u8>, value: Vec<u8>) -> Result<()> {
        self.validate_key(&key)?;
        self.validate_value(&value)?;
        let mut st = lock_ranked(&self.state, LockRank::TransactionState);
        self.check_open(&st)?;
        st.size += key.len() + value.len() + 28;
        st.push(key, KeyOp::Set(value));
        Ok(())
    }

    /// Buffer a single-key clear.
    pub fn clear(&self, key: &[u8]) {
        self.clear_owned(key.to_vec());
    }

    /// [`clear`](Self::clear) of a key the caller built: it moves into the
    /// write set.
    pub fn clear_owned(&self, key: Vec<u8>) {
        let mut st = lock_ranked(&self.state, LockRank::TransactionState);
        if self.check_open(&st).is_err() {
            return;
        }
        st.size += key.len() + 28;
        st.push(key, KeyOp::Clear);
    }

    /// Buffer a range clear of `[begin, end)`.
    pub fn clear_range(&self, begin: &[u8], end: &[u8]) {
        let mut st = lock_ranked(&self.state, LockRank::TransactionState);
        if self.check_open(&st).is_err() || begin >= end {
            return;
        }
        st.writes_metadata_version |= begin <= METADATA_VERSION_KEY && METADATA_VERSION_KEY < end;
        st.writes.clear_range(begin.to_vec(), end.to_vec());
        st.size += begin.len() + end.len() + 28;
        st.trace.range_clears += 1;
    }

    /// Buffer an atomic mutation. Atomic mutations add a *write* conflict
    /// but no *read* conflict, so concurrent mutations to the same key never
    /// conflict with each other (§2). The key and the operand are copied
    /// only if the write set keeps them: an ADD or BIT_* that coalesces into
    /// the op buffered on its key copies nothing.
    pub fn mutate(&self, op: MutationType, key: &[u8], param: &[u8]) -> Result<()> {
        self.mutate_with(op, key, param)
    }

    /// [`mutate`](Self::mutate) with a key the caller built, which moves
    /// into the write set, and an operand it moves into the write set too,
    /// or — an array — copies into it, in both cases only if it is kept.
    pub fn mutate_owned(
        &self,
        op: MutationType,
        key: Vec<u8>,
        param: impl AsRef<[u8]> + Into<Vec<u8>>,
    ) -> Result<()> {
        self.mutate_with(op, key, param)
    }

    fn mutate_with<K, P>(&self, op: MutationType, key: K, param: P) -> Result<()>
    where
        K: AsRef<[u8]> + Into<Vec<u8>>,
        P: AsRef<[u8]> + Into<Vec<u8>>,
    {
        self.validate_key(key.as_ref())?;
        let mut st = lock_ranked(&self.state, LockRank::TransactionState);
        self.check_open(&st)?;
        match op {
            MutationType::SetVersionstampedKey => {
                // The final key is unknown until commit; its write conflict
                // is the placeholder form. No stamp spells the
                // metadata-version key.
                let (payload, offset) = atomic::split_versionstamp_operand(key.into())?;
                let param = param.into();
                st.size += payload.len() + param.len() + 28;
                st.writes.set_stamped_key(payload, offset, param);
            }
            MutationType::SetVersionstampedValue => {
                let (payload, offset) = atomic::split_versionstamp_operand(param.into())?;
                st.size += key.as_ref().len() + payload.len() + 28;
                st.push(key.into(), KeyOp::StampedValue(payload, offset));
            }
            _ => {
                st.size += key.as_ref().len() + param.as_ref().len() + 28;
                st.push_atomic(key, op, param);
            }
        }
        Ok(())
    }

    /// Drop the `SET_VERSIONSTAMPED_KEY` writes this transaction buffered
    /// under the placeholder form `key` (the operand without its offset
    /// suffix), returning whether there were any. A versionstamped key is
    /// not known until commit, so a clear cannot reach it: a layer that
    /// replaces such a write made earlier in the same transaction (a
    /// record saved twice, whose VERSION index entry moves) drops it here.
    pub fn remove_versionstamped_key(&self, key: &[u8]) -> bool {
        lock_ranked(&self.state, LockRank::TransactionState)
            .writes
            .remove_stamped_key(key)
    }

    // ------------------------------------------------------ conflict ranges

    /// Explicitly add a read conflict range (used with snapshot reads to
    /// conflict only on distinguished keys, §10.1).
    pub fn add_read_conflict_range(&self, begin: &[u8], end: &[u8]) {
        let mut st = lock_ranked(&self.state, LockRank::TransactionState);
        st.size += begin.len() + end.len() + 12;
        st.read_conflicts.push_range(begin, end);
    }

    /// Add a read conflict on a single key: the range `[key,
    /// key_after(key))`, sized as such, kept as the key alone.
    pub fn add_read_conflict_key(&self, key: &[u8]) {
        let mut st = lock_ranked(&self.state, LockRank::TransactionState);
        st.size += 2 * key.len() + 1 + 12;
        st.read_conflicts.push_point(key);
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
        let wrote_under_key = st.writes.writes_within(key, end.as_deref())
            || st.write_conflicts.iter().any(|(begin, write_end)| {
                key < write_end.as_slice() && end.as_ref().is_none_or(|end| begin < end)
            });
        if !st.writes_metadata_version && !wrote_under_key {
            self.db.state_cache().put(key, self.read_version, state);
        }
    }

    /// How many ops the write set holds for `key`.
    #[cfg(test)]
    pub(crate) fn buffered_ops(&self, key: &[u8]) -> usize {
        let st = lock_ranked(&self.state, LockRank::TransactionState);
        st.writes
            .by_key
            .get(key)
            .map_or(0, |ops| ops.as_slice().len())
    }

    /// Current approximate transaction size in bytes.
    pub fn approximate_size(&self) -> usize {
        lock_ranked(&self.state, LockRank::TransactionState).size
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
        let _t = rl_obs::Timer::start(rl_obs::Op::Commit);
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
            st.writes.conflicts(&st.write_conflicts),
            &mut st.writes,
            st.relied_on_metadata_version,
            st.writes_metadata_version,
        )?;
        st.committed = true;
        st.commit_version = Some(receipt.version);
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
        let t = &self.traced(st);
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
}

impl Drop for Transaction {
    /// Hand this transaction's counts to the database: the one place they
    /// reach its [`Metrics`](crate::metrics::Metrics). Owning the state
    /// here, it takes no lock.
    fn drop(&mut self) {
        let st = self.state.get_mut().unwrap_or_else(PoisonError::into_inner);
        let trace = TxnTrace {
            record_fetches: *self.record_fetches.get_mut(),
            ..st.trace
        };
        self.db.metrics().fold(&trace);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::conflict::Conflict;
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

    /// A range read with read-your-writes, checked two ways: the fixed
    /// cases below, then a seeded differential of the lending read
    /// ([`Transaction::visit_range`]) and [`Transaction::get_range`]
    /// against a model overlay — the committed map with the write set
    /// applied in program order. Each read must return the model's rows,
    /// count the same trace and add the same read conflict range both
    /// ways. The generator reaches each of these, and the test asserts
    /// that every one occurs:
    ///
    /// * a range no buffered write touches;
    /// * a `set` of a stored key, and of a new key between stored keys;
    /// * a `clear_range` over the read's begin, inside its middle, and
    ///   over its end;
    /// * an atomic `ADD` on a stored key and on an absent key;
    /// * a limit whose last row is a buffered write;
    /// * a reverse read;
    /// * a read lent more than [`SNAPSHOT_CHUNK_ROWS`] stored rows, so the
    ///   snapshot resumes after a full chunk.
    ///
    /// Under `RL_ENGINE=paged` the same cases run on the paged engine.
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

        let mut seen = Cases::default();
        for case in 0..48u64 {
            let seed =
                0x5EED_2EAD_F00D_CAFE_u64.wrapping_add(case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                merge_case(&mut Rng(seed | 1), &mut seen)
            }));
            if let Err(panic) = caught {
                eprintln!("lending-read differential failed: case {case}, seed {seed:#x}");
                std::panic::resume_unwind(panic);
            }
        }
        assert_eq!(seen.missing(), Vec::<&str>::new(), "cases never generated");
    }

    /// xorshift64: the seeded stream of the differential above.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Which generator cases the differential reached.
    #[derive(Default)]
    struct Cases {
        untouched: bool,
        set_stored: bool,
        set_between: bool,
        clear_over_begin: bool,
        clear_inside: bool,
        clear_over_end: bool,
        add_stored: bool,
        add_absent: bool,
        limit_on_a_write: bool,
        reverse: bool,
        resumed: bool,
    }

    impl Cases {
        fn missing(&self) -> Vec<&'static str> {
            let all = [
                (self.untouched, "untouched range"),
                (self.set_stored, "set of a stored key"),
                (self.set_between, "set of a new key between stored keys"),
                (self.clear_over_begin, "clear_range over the begin"),
                (self.clear_inside, "clear_range inside the range"),
                (self.clear_over_end, "clear_range over the end"),
                (self.add_stored, "ADD on a stored key"),
                (self.add_absent, "ADD on an absent key"),
                (self.limit_on_a_write, "limit landing on a buffered write"),
                (self.reverse, "reverse read"),
                (self.resumed, "more stored rows than one chunk"),
            ];
            all.iter()
                .filter(|(hit, _)| !hit)
                .map(|(_, name)| *name)
                .collect()
        }
    }

    /// Key `i` of a case: stored keys are the even ones, so an odd one
    /// lies between two stored keys.
    fn key(i: usize) -> Vec<u8> {
        format!("k{i:05}").into_bytes()
    }

    /// One case of the differential: commit a population, buffer a random
    /// write set over it, then compare random reads with the model.
    fn merge_case(rng: &mut Rng, seen: &mut Cases) {
        let db = Database::new();
        let stored = match rng.below(6) {
            0 => SNAPSHOT_CHUNK_ROWS + 100 + rng.below(500),
            _ => 4 + rng.below(40),
        };
        let span = 2 * stored + 2;
        let mut model = BTreeMap::new();
        let fill = db.create_transaction();
        for i in 0..stored {
            let value = rng.next().to_le_bytes()[..1 + rng.below(8)].to_vec();
            fill.set(&key(2 * i), &value);
            model.insert(key(2 * i), value);
        }
        fill.commit().unwrap();

        let tx = db.create_transaction();
        // What the write set did, to tell which cases a read covers.
        let mut set_stored = Vec::new();
        let mut set_between = Vec::new();
        let mut added = Vec::new();
        let mut clears = Vec::new();
        let mut cleared = Vec::new();
        for _ in 0..rng.below(10) {
            let i = rng.below(span);
            match rng.below(6) {
                0 | 1 => {
                    let value = rng.next().to_be_bytes()[..1 + rng.below(8)].to_vec();
                    tx.set(&key(i), &value);
                    if model.contains_key(&key(i)) {
                        set_stored.push(i);
                    } else if i % 2 == 1 && i < 2 * stored {
                        set_between.push(i);
                    }
                    model.insert(key(i), value);
                }
                2 => {
                    let j = (i + 1 + rng.below(12)).min(span + 1);
                    tx.clear_range(&key(i), &key(j));
                    model.retain(|k, _| *k < key(i) || *k >= key(j));
                    clears.push((i, j));
                }
                3 | 4 => {
                    let param = (1 + rng.below(300) as u64).to_le_bytes();
                    tx.mutate(MutationType::Add, &key(i), &param).unwrap();
                    let old = model.get(&key(i)).map(Vec::as_slice);
                    added.push((i, old.is_some()));
                    let new = atomic::apply(MutationType::Add, old, &param).unwrap();
                    model.insert(key(i), new.unwrap());
                }
                _ => {
                    tx.clear(&key(i));
                    model.remove(&key(i));
                    cleared.push(i);
                }
            }
        }
        let written: Vec<usize> = set_stored
            .iter()
            .chain(&set_between)
            .chain(added.iter().map(|(i, _)| i))
            .copied()
            .collect();

        for _ in 0..8 {
            let (b, e) = match rng.below(4) {
                0 => (0, span + 1),
                _ => {
                    let b = rng.below(span);
                    (b, b + 1 + rng.below(span - b))
                }
            };
            let reverse = rng.below(2) == 0;
            let limit = match rng.below(3) {
                0 => 0,
                1 => 1 + rng.below(4),
                _ => 1 + rng.below(2 * stored),
            };
            let inside = |i: &usize| (b..e).contains(i);
            let mut expected: Vec<(Vec<u8>, Vec<u8>)> = model
                .range(key(b)..key(e))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            if reverse {
                expected.reverse();
            }
            if limit > 0 {
                expected.truncate(limit);
            }

            let options = RangeOptions::new().limit(limit).reverse(reverse);
            let before = tx.trace();
            let copied = tx.get_range(&key(b), &key(e), options.clone()).unwrap();
            let copied_trace = tx.trace();
            let copied_conflict = last_read_conflict(&tx);
            let mut lent = Vec::new();
            tx.visit_range(&key(b), &key(e), options, &mut |k, v| {
                lent.push((k.to_vec(), v.to_vec()));
                ControlFlow::Continue(())
            })
            .unwrap();
            let lent_trace = tx.trace();
            let copied: Vec<_> = copied.into_iter().map(|kv| (kv.key, kv.value)).collect();
            let what = format!("[{b}, {e}) limit {limit} reverse {reverse}");
            assert_eq!(copied, expected, "get_range {what}");
            assert_eq!(lent, expected, "visit_range {what}");
            let delta = |after: TxnTrace, before: TxnTrace| {
                (
                    after.read_ops - before.read_ops,
                    after.keys_read - before.keys_read,
                    after.bytes_read - before.bytes_read,
                )
            };
            let bytes = expected.iter().map(|(k, v)| (k.len() + v.len()) as u64);
            let counts = (1, expected.len() as u64, bytes.sum());
            assert_eq!(
                delta(copied_trace, before),
                counts,
                "get_range trace {what}"
            );
            assert_eq!(
                delta(lent_trace, copied_trace),
                counts,
                "visit_range trace {what}"
            );
            let conflict = match expected.last() {
                Some((last, _)) if expected.len() == limit && reverse => (last.clone(), key(e)),
                Some((last, _)) if expected.len() == limit => (key(b), crate::key_after(last)),
                _ => (key(b), key(e)),
            };
            assert_eq!(copied_conflict, conflict, "get_range conflict {what}");
            assert_eq!(
                last_read_conflict(&tx),
                conflict,
                "visit_range conflict {what}"
            );

            let hit = |cases: &[usize]| cases.iter().any(inside);
            seen.untouched |= !hit(&written)
                && !hit(&cleared)
                && written.len() + clears.len() + cleared.len() > 0
                && !clears.iter().any(|&(cb, ce)| cb < e && b < ce)
                && !expected.is_empty();
            seen.set_stored |= hit(&set_stored);
            seen.set_between |= hit(&set_between);
            seen.clear_over_begin |= clears.iter().any(|&(cb, ce)| cb <= b && b < ce && ce < e);
            seen.clear_inside |= clears.iter().any(|&(cb, ce)| b < cb && ce < e);
            seen.clear_over_end |= clears.iter().any(|&(cb, ce)| b < cb && cb < e && e <= ce);
            seen.add_stored |= added.iter().any(|(i, was)| *was && inside(i));
            seen.add_absent |= added.iter().any(|(i, was)| !was && inside(i));
            seen.limit_on_a_write |= limit > 0
                && expected.len() == limit
                && expected
                    .last()
                    .is_some_and(|(k, _)| written.iter().any(|&i| key(i) == *k));
            seen.reverse |= reverse && !expected.is_empty();
            seen.resumed |= model.range(key(b)..key(e)).count() > SNAPSHOT_CHUNK_ROWS
                && (limit == 0 || limit > SNAPSHOT_CHUNK_ROWS);
        }
    }

    fn last_read_conflict(tx: &Transaction) -> (Vec<u8>, Vec<u8>) {
        let st = lock_ranked(&tx.state, LockRank::TransactionState);
        match st.read_conflicts.iter().last().unwrap() {
            Conflict::Range(begin, end) => (begin.to_vec(), end.to_vec()),
            Conflict::Point(key) => (key.to_vec(), crate::key_after(key)),
        }
    }

    /// The visitor contract: a visitor that calls back into its own
    /// transaction is caught by the lock-rank tracker (it already holds
    /// the transaction's state lock and the store lock) and panics there,
    /// before it takes the lock it would deadlock on.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-rank violation: acquiring `Transaction::state`")]
    fn a_visitor_that_reads_through_its_transaction_panics() {
        let db = Database::new();
        let tx = db.create_transaction();
        tx.set(b"a", b"1");
        tx.commit().unwrap();
        let tx = db.create_transaction();
        let _ = tx.visit_range(b"a", b"b", RangeOptions::default(), &mut |_, _| {
            let _ = tx.get(b"a");
            ControlFlow::Continue(())
        });
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
