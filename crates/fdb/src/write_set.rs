//! A transaction's buffered writes, and the one fold that resolves them.
//!
//! Writes are buffered per key — each key's ops in sequence order — beside
//! the range clears and the versionstamped keys, whose keys are known only
//! at commit. Read-your-writes folds a key's ops over the value read from
//! storage ([`WriteSet::resolve`]). A commit hands its write set over by
//! move, folds each key's ops once over the stored value and gives the
//! engine every key once, in key order ([`sorted_batch`]).
//!
//! ## Coalescing
//!
//! An ADD, BIT_AND, BIT_OR or BIT_XOR buffered on a key folds into the
//! key's newest op instead of following it, as FoundationDB's client
//! merges a new atomic op into the one its read-your-writes map holds,
//! when three things hold: the newest op is the same op; its operand has
//! the same width (and, for ADD, a valid one: at most 16 bytes); and no
//! range clear or versionstamped key buffered after it can reach the key.
//! The fold is `atomic::combine` of the new operand into the old one, in
//! place. Each
//! of these four ops truncates or zero-extends the stored value to its
//! operand's width, so at one width they are associative, and the folded
//! operand leaves every stored value where the two ops did. Widths must be
//! equal. A wider op after a narrower one would keep what the narrower one
//! truncated away: on a stored 0x00FF, a one-byte ADD 0x01 then a two-byte
//! ADD 0x0000 leaves 0x0000, but their fold, a two-byte ADD 0x0001, leaves
//! 0x0100. A narrower op after a wider one folds correctly, but the fold's
//! width would no longer be the earlier op's, whose result bytes the
//! commit counts. MAX, MIN, BYTE_MIN and
//! BYTE_MAX are left one op per call, since their result is as wide as
//! the stored value and the commit's per-op tally could no longer be
//! kept; APPEND_IF_FITS and COMPARE_AND_CLEAR, since they are not
//! associative. A hot counter — a RANK finger, a SUM or COUNT group, the
//! record-count statistic — thus holds one op however often a
//! transaction bumps it, and each read-your-writes read of it folds one.
//!
//! A coalesced op records how many ops it stands for, and the commit's
//! tally counts each of them with the folded result's bytes: every one
//! had the same width, so the keys and bytes written are what one op per
//! call would count. An invalid operand is never folded, so the commit's
//! [`WriteSet::validate`] still refuses it.

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::ops::Bound;

use rl_storage::{Batch, Mutation};

use crate::atomic::{self, MutationType};
use crate::conflict::ConflictSet;
use crate::error::Result;

/// One op in a key's sequence.
#[derive(Debug, Clone)]
pub(crate) enum KeyOp {
    Set(Vec<u8>),
    Clear,
    /// An atomic op, and how many buffered ops it stands for: more than
    /// one once later ops were coalesced into it.
    Atomic(MutationType, Vec<u8>, u32),
    /// SET_VERSIONSTAMPED_VALUE: `value[offset..offset + 10]` becomes the
    /// commit's versionstamp; read-your-writes sees the placeholder form.
    StampedValue(Vec<u8>, usize),
}

impl KeyOp {
    /// Whether the atomic op `next_op` with operand `param`, buffered on
    /// the key right after this op, folds into it as far as the two ops go
    /// (module doc).
    fn absorbs(&self, next_op: MutationType, param: &[u8]) -> bool {
        let KeyOp::Atomic(op, old, _) = self else {
            return false;
        };
        let associative = match op {
            MutationType::Add => param.len() <= atomic::ADD_WIDTH_LIMIT,
            MutationType::BitAnd | MutationType::BitOr | MutationType::BitXor => true,
            _ => false,
        };
        associative && *op == next_op && old.len() == param.len()
    }
}

/// A key's ops with their sequence numbers, in sequence order: the first
/// one inline, as the memory engine keeps a key's one version, so a key
/// written once (most keys of a transaction) costs no block of its own.
#[derive(Debug)]
pub(crate) enum KeyOps {
    One((u64, KeyOp)),
    /// Two or more.
    Many(Vec<(u64, KeyOp)>),
}

impl KeyOps {
    pub(crate) fn as_slice(&self) -> &[(u64, KeyOp)] {
        match self {
            KeyOps::One(op) => std::slice::from_ref(op),
            KeyOps::Many(ops) => ops,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [(u64, KeyOp)] {
        match self {
            KeyOps::One(op) => std::slice::from_mut(op),
            KeyOps::Many(ops) => ops,
        }
    }

    /// The ops as a `Vec`, which a second op needs.
    fn many(&mut self) -> &mut Vec<(u64, KeyOp)> {
        if let KeyOps::One(only) = self {
            let mut ops = Vec::with_capacity(2);
            ops.push(std::mem::replace(only, (0, KeyOp::Clear)));
            *self = KeyOps::Many(ops);
        }
        match self {
            KeyOps::Many(ops) => ops,
            KeyOps::One(_) => unreachable!("made Many above"),
        }
    }

    /// Add `op` where its sequence number puts it.
    fn insert(&mut self, op: (u64, KeyOp)) {
        let ops = self.many();
        ops.insert(ops.partition_point(|(s, _)| *s < op.0), op);
    }

    /// Buffer `op` on `key` in `by_key`, which `key` moves into unless it
    /// is buffered already.
    fn add(by_key: &mut BTreeMap<Vec<u8>, KeyOps>, key: Vec<u8>, op: (u64, KeyOp)) {
        match by_key.entry(key) {
            Entry::Vacant(entry) => {
                entry.insert(KeyOps::One(op));
            }
            Entry::Occupied(mut entry) => entry.get_mut().insert(op),
        }
    }

    fn into_ops(self) -> impl Iterator<Item = (u64, KeyOp)> {
        let (one, many) = match self {
            KeyOps::One(op) => (Some(op), Vec::new()),
            KeyOps::Many(ops) => (None, ops),
        };
        one.into_iter().chain(many)
    }
}

/// A transaction's buffered writes.
#[derive(Debug, Default)]
pub(crate) struct WriteSet {
    seq: u64,
    /// Each written key's ops.
    pub(crate) by_key: BTreeMap<Vec<u8>, KeyOps>,
    /// Range clears `[begin, end)`, with their sequence numbers.
    cleared: Vec<(Vec<u8>, Vec<u8>, u64)>,
    /// SET_VERSIONSTAMPED_KEY: sequence number, key, the offset of its
    /// 10-byte placeholder, value.
    stamped_keys: Vec<(u64, Vec<u8>, usize, Vec<u8>)>,
}

impl WriteSet {
    pub(crate) fn is_empty(&self) -> bool {
        self.by_key.is_empty() && self.cleared.is_empty() && self.stamped_keys.is_empty()
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Buffer a set, a clear or a versionstamped value on `key`, which
    /// moves in unless the key is buffered already.
    pub(crate) fn push(&mut self, key: Vec<u8>, op: KeyOp) {
        let seq = self.next_seq();
        KeyOps::add(&mut self.by_key, key, (seq, op));
    }

    /// Buffer the atomic op `kind` with operand `param` on `key`. The key
    /// is looked up first, and each is kept — moved in, or copied if it is
    /// borrowed — only when the write set needs it: an op that coalesces
    /// into the key's newest op (module doc) keeps neither, and one on a
    /// buffered key keeps only its operand. It coalesces unless a range
    /// clear or a versionstamped key buffered after that op may land on
    /// the key.
    pub(crate) fn push_atomic<K, P>(&mut self, key: K, kind: MutationType, param: P)
    where
        K: AsRef<[u8]> + Into<Vec<u8>>,
        P: AsRef<[u8]> + Into<Vec<u8>>,
    {
        let seq = self.next_seq();
        let (by_key, cleared, stamped_keys) = (&mut self.by_key, &self.cleared, &self.stamped_keys);
        // Both lists grow in sequence order, so only their tails can hold
        // a write buffered after the key's newest op.
        let reaches = |key: &[u8], since: u64| {
            cleared
                .iter()
                .rev()
                .take_while(|(.., s)| *s > since)
                .any(|(begin, end, _)| begin.as_slice() <= key && key < end.as_slice())
                || stamped_keys
                    .iter()
                    .rev()
                    .take_while(|(s, ..)| *s > since)
                    .any(|(_, stamped, offset, _)| may_stamp_into(stamped, *offset, key))
        };
        let Some(ops) = by_key.get_mut(key.as_ref()) else {
            let op = KeyOp::Atomic(kind, param.into(), 1);
            by_key.insert(key.into(), KeyOps::One((seq, op)));
            return;
        };
        // Ops are kept in sequence order: the newest is the last.
        let (newest_seq, newest) = ops.as_mut_slice().last_mut().expect("a key has an op");
        if !newest.absorbs(kind, param.as_ref()) || reaches(key.as_ref(), *newest_seq) {
            ops.insert((seq, KeyOp::Atomic(kind, param.into(), 1)));
            return;
        }
        if let KeyOp::Atomic(kind, old, count) = newest {
            atomic::combine(*kind, old, param.as_ref()).expect("an absorbed operand is valid");
            *count += 1;
            *newest_seq = seq;
        }
    }

    pub(crate) fn clear_range(&mut self, begin: Vec<u8>, end: Vec<u8>) {
        let seq = self.next_seq();
        self.cleared.push((begin, end, seq));
    }

    /// Buffer a set of `key`, whose bytes from `offset` on are replaced by
    /// the commit's versionstamp.
    pub(crate) fn set_stamped_key(&mut self, key: Vec<u8>, offset: usize, value: Vec<u8>) {
        let seq = self.next_seq();
        self.stamped_keys.push((seq, key, offset, value));
    }

    /// Drop the buffered versionstamped keys whose placeholder form is
    /// `key`; whether there were any.
    pub(crate) fn remove_stamped_key(&mut self, key: &[u8]) -> bool {
        let before = self.stamped_keys.len();
        self.stamped_keys.retain(|(_, stamped, ..)| stamped != key);
        self.stamped_keys.len() < before
    }

    /// The write conflicts of these writes and of `explicit` ranges: each
    /// buffered key as a point; each range clear; and, since its final key
    /// is unknown until commit, each versionstamped key's placeholder form
    /// as a point (no stamp spells a key another write names). One buffer
    /// of their final size holds every key.
    pub(crate) fn conflicts(&self, explicit: &[(Vec<u8>, Vec<u8>)]) -> ConflictSet {
        let keys = self
            .by_key
            .keys()
            .chain(self.stamped_keys.iter().map(|(_, key, ..)| key));
        let cleared = self.cleared.iter().map(|(begin, end, _)| (begin, end));
        let ranges = explicit
            .iter()
            .map(|(begin, end)| (begin, end))
            .chain(cleared);
        let bytes = keys.clone().map(Vec::len).sum::<usize>()
            + ranges
                .clone()
                .map(|(b, e)| b.len() + e.len())
                .sum::<usize>();
        let points = self.by_key.len() + self.stamped_keys.len();
        let mut set =
            ConflictSet::with_capacity(bytes, points, explicit.len() + self.cleared.len());
        keys.for_each(|key| set.push_point(key));
        ranges.for_each(|(begin, end)| set.push_range(begin, end));
        set
    }

    /// Whether these writes touch a key in `[begin, end)` (`end == None`:
    /// no upper bound).
    pub(crate) fn writes_within(&self, begin: &[u8], end: Option<&[u8]>) -> bool {
        let below_end = |key: &[u8]| end.is_none_or(|end| key < end);
        let upper = end.map_or(Bound::Unbounded, Bound::Excluded);
        self.by_key
            .range::<[u8], _>((Bound::Included(begin), upper))
            .next()
            .is_some()
            || self
                .cleared
                .iter()
                .any(|(b, e, _)| begin < e.as_slice() && below_end(b))
            || self
                .stamped_keys
                .iter()
                .any(|(_, key, ..)| begin <= key.as_slice() && below_end(key))
    }

    /// The value of `key` as this write set leaves `stored`: `ops` (what
    /// `by_key` holds for it) and the range clears covering it, folded in
    /// sequence order. Every row a read returns passes through here, so
    /// the common case — nothing buffered touches it — returns before any
    /// work: in a store of `Item`s, leaving it out of line made reads on the
    /// memory engine ≈ 15 % slower.
    ///
    /// The value comes back borrowed where the fold leaves `stored` or a
    /// buffered set in place, so a lent row is resolved without a copy.
    #[inline]
    pub(crate) fn resolve<'v>(
        &'v self,
        key: &[u8],
        ops: &'v [(u64, KeyOp)],
        stored: Option<Cow<'v, [u8]>>,
    ) -> Result<Option<Cow<'v, [u8]>>> {
        if ops.is_empty() && self.cleared.is_empty() {
            return Ok(stored);
        }
        let mut merged: Vec<(u64, Cow<'_, KeyOp>)> = self
            .cleared
            .iter()
            .filter(|(begin, end, _)| begin.as_slice() <= key && key < end.as_slice())
            .map(|(_, _, seq)| (*seq, Cow::Owned(KeyOp::Clear)))
            .collect();
        if ops.is_empty() && merged.is_empty() {
            return Ok(stored);
        }
        merged.extend(ops.iter().map(|(seq, op)| (*seq, Cow::Borrowed(op))));
        merged.sort_by_key(|(seq, _)| *seq);
        fold(stored, merged.into_iter().map(|(_, op)| op), |_| {})
    }

    /// Surface an operand error an atomic op would hit at commit. Such an
    /// error depends only on the operand, never on the stored value, so a
    /// probe with no value is exact.
    pub(crate) fn validate(&self) -> Result<()> {
        for (_, op) in self.by_key.values().flat_map(KeyOps::as_slice) {
            if let KeyOp::Atomic(op, param, _) = op {
                atomic::apply(*op, None, param)?;
            }
        }
        Ok(())
    }
}

/// Whether the versionstamped key `stamped`, whose 10 bytes from `offset`
/// on become the commit's versionstamp, may turn out to be `key`.
fn may_stamp_into(stamped: &[u8], offset: usize, key: &[u8]) -> bool {
    let stamp = offset..offset + crate::version::TR_VERSION_LEN;
    stamped.len() == key.len()
        && stamped[..stamp.start] == key[..stamp.start]
        && stamped[stamp.end..] == key[stamp.end..]
}

/// `stored` with a key's `ops` applied in order: a set replaces the value,
/// a clear removes it, an atomic op applies to it. `wrote` hears the
/// resulting value of each op but a clear — of a coalesced op once for
/// each op it stands for: what a commit counts as written.
fn fold<'v>(
    stored: Option<Cow<'v, [u8]>>,
    ops: impl IntoIterator<Item = Cow<'v, KeyOp>>,
    mut wrote: impl FnMut(&[u8]),
) -> Result<Option<Cow<'v, [u8]>>> {
    let mut value = stored;
    for op in ops {
        let heard = match *op {
            KeyOp::Clear => 0,
            KeyOp::Atomic(.., count) => count,
            _ => 1,
        };
        value = match op {
            Cow::Owned(KeyOp::Set(v) | KeyOp::StampedValue(v, _)) => Some(Cow::Owned(v)),
            Cow::Borrowed(KeyOp::Set(v) | KeyOp::StampedValue(v, _)) => Some(Cow::Borrowed(&v[..])),
            op => match &*op {
                KeyOp::Atomic(op, param, _) => {
                    atomic::apply(*op, value.as_deref(), param)?.map(Cow::Owned)
                }
                _ => None,
            },
        };
        for _ in 0..heard {
            wrote(value.as_deref().unwrap_or_default());
        }
    }
    Ok(value)
}

/// What a commit wrote: keys and bytes counted per op — a set, a
/// versionstamped write or an atomic op is one key, and its key plus its
/// value (an atomic op's result) in bytes; a clear is neither.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    pub(crate) keys: Cell<u64>,
    pub(crate) bytes: Cell<u64>,
}

/// The engine batch of `writes` at `version`: every key once, in key
/// order, with its ops folded in sequence order — the range clears that
/// cover it included; and each range clear as it is, ahead of the keys it
/// covers. Versionstamps are filled in here; their two batch-order bytes
/// are 0. A key whose fold begins with an atomic op is folded where the
/// engine's write finds the stored value; every other key does not depend
/// on it and is folded here. What the commit wrote is counted into
/// `tally` as the folds run.
pub(crate) fn sorted_batch(mut writes: WriteSet, version: u64, tally: &Tally) -> Batch<'_> {
    let mut stamp = [0u8; 10];
    stamp[..8].copy_from_slice(&version.to_be_bytes());
    for (seq, mut key, offset, value) in std::mem::take(&mut writes.stamped_keys) {
        atomic::fill_versionstamp(&mut key, offset, &stamp);
        // A set is never coalesced.
        KeyOps::add(&mut writes.by_key, key, (seq, KeyOp::Set(value)));
    }
    let mut clears = writes.cleared;
    clears.sort_by(|a, b| a.0.cmp(&b.0));

    // The range clears begun at or before the current key; `covering`, the
    // ones of those that have not ended there.
    let (mut begun, mut covering) = (0, Vec::new());
    let mut points: Batch<'_> = Vec::with_capacity(writes.by_key.len());
    for (key, mut ops) in writes.by_key {
        while clears.get(begun).is_some_and(|(begin, ..)| *begin <= key) {
            covering.push(begun);
            begun += 1;
        }
        covering.retain(|&c| key < clears[c].1);
        if !covering.is_empty() {
            let many = ops.many();
            many.extend(covering.iter().map(|&c| (clears[c].2, KeyOp::Clear)));
            many.sort_by_key(|(seq, _)| *seq);
        }
        for (_, op) in ops.as_mut_slice() {
            if let KeyOp::StampedValue(value, offset) = op {
                atomic::fill_versionstamp(value, *offset, &stamp);
            }
        }
        let key_len = key.len() as u64;
        let count = move |value: &[u8]| {
            tally.keys.set(tally.keys.get() + 1);
            tally
                .bytes
                .set(tally.bytes.get() + key_len + value.len() as u64);
        };
        let folded = move |stored: Option<&[u8]>, ops: KeyOps| {
            let ops = ops.into_ops().map(|(_, op)| Cow::Owned(op));
            fold(stored.map(Cow::Borrowed), ops, count)
                .expect("operands validated before the commit applies")
                .map(Cow::into_owned)
        };
        let mutation = match ops.as_slice().first() {
            Some((_, KeyOp::Atomic(..))) => {
                Mutation::Update(Box::new(move |stored: Option<&[u8]>| folded(stored, ops)))
            }
            _ => Mutation::Write(folded(None, ops)),
        };
        points.push((key, mutation));
    }
    if clears.is_empty() {
        return points;
    }
    let mut batch = Vec::with_capacity(points.len() + clears.len());
    let mut clears = clears.into_iter().peekable();
    for point in points {
        while let Some((begin, end, _)) = clears.next_if(|(begin, ..)| *begin <= point.0) {
            batch.push((begin, Mutation::ClearRange(end)));
        }
        batch.push(point);
    }
    batch.extend(clears.map(|(begin, end, _)| (begin, Mutation::ClearRange(end))));
    batch
}

/// The coalescing write set against a reference that buffers one op per
/// call and folds them in program order. Each case commits a population
/// on a few keys, then makes seeded calls on them — `set`, `clear`,
/// `clear_range` and every `MutationType` at equal and unequal widths, an
/// invalid 17-byte ADD operand, versionstamped values and keys — with a
/// read-your-writes read after each: a get, or a forward, reverse or
/// limited range. The reads, the commit's error, the engine state after
/// the commit and the keys and bytes the commit counts as written must be
/// the reference's. The keys carry the commit's predicted versionstamp
/// where a versionstamped key's placeholder sits, so such a key can land
/// on one of them.
///
/// The generator reaches each of these cases (the test asserts that each
/// occurs, and how each leaves the key's buffered op count):
///
/// * `add_run`: an ADD after an ADD of its width — coalesced;
/// * `width_change`: an ADD after an ADD of another width — not;
/// * `clear_between`: an ADD after a range clear that follows an ADD of
///   its width — not;
/// * `stamp_between`: the same with a versionstamped key landing on the
///   key — not;
/// * `invalid`: a 17-byte ADD after another — not;
/// * `bit_run`: a BIT_AND, BIT_OR or BIT_XOR after the same op of its
///   width — coalesced;
/// * `non_associative`: an ADD after an APPEND_IF_FITS or
///   COMPARE_AND_CLEAR that follows an ADD of its width — not.
#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use crate::atomic::{self, MutationType};
    use crate::error::Result;
    use crate::{Database, RangeOptions, Transaction};

    const KEYS: usize = 4;

    /// xorshift64.
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

        fn bytes(&mut self, n: usize) -> Vec<u8> {
            (0..n).map(|_| self.next() as u8).collect()
        }

        /// 1 to `most` random bytes.
        fn value(&mut self, most: usize) -> Vec<u8> {
            let n = 1 + self.below(most);
            self.bytes(n)
        }
    }

    /// One call, as the reference buffers it. Keys are indices into the
    /// case's key list.
    #[derive(Debug, Clone)]
    enum Call {
        Set(usize, Vec<u8>),
        Clear(usize),
        ClearRange(usize, usize),
        Atomic(usize, MutationType, Vec<u8>),
        /// Value with a versionstamp placeholder at the offset.
        StampedValue(usize, Vec<u8>, usize),
        /// A versionstamped key that lands on the key.
        StampedKey(usize, Vec<u8>),
    }

    impl Call {
        /// Whether the call writes key `i`.
        fn touches(&self, i: usize) -> bool {
            match *self {
                Call::ClearRange(b, e) => (b..e).contains(&i),
                Call::Set(k, _)
                | Call::Clear(k)
                | Call::Atomic(k, ..)
                | Call::StampedValue(k, ..)
                | Call::StampedKey(k, _) => k == i,
            }
        }
    }

    /// The reference's view of a key: its value, or the error of an
    /// atomic op that failed on it, which every later read of it meets.
    type Model = BTreeMap<Vec<u8>, Result<Vec<u8>>>;

    /// `base` with `calls` applied one op per call, in order, and the keys
    /// and bytes a commit counts for them. `stamp`: what a versionstamp
    /// placeholder becomes — `None` for read-your-writes, which sees the
    /// placeholder and not the versionstamped keys.
    fn replay(
        keys: &[Vec<u8>],
        base: &BTreeMap<Vec<u8>, Vec<u8>>,
        calls: &[Call],
        stamp: Option<&[u8; 10]>,
    ) -> (Model, (u64, u64)) {
        let mut model: Model = base
            .iter()
            .map(|(k, v)| (k.clone(), Ok(v.clone())))
            .collect();
        let mut tally = (0, 0);
        let mut write = |model: &mut Model, key: &[u8], value: Option<Vec<u8>>| {
            if model.get(key).is_some_and(|v| v.is_err()) {
                return;
            }
            tally.0 += 1;
            tally.1 += (key.len() + value.as_ref().map_or(0, Vec::len)) as u64;
            match value {
                Some(value) => model.insert(key.to_vec(), Ok(value)),
                None => model.remove(key),
            };
        };
        for call in calls {
            match call {
                Call::Set(i, value) => write(&mut model, &keys[*i], Some(value.clone())),
                Call::Clear(i) => {
                    if model.get(&keys[*i]).is_some_and(|v| v.is_ok()) {
                        model.remove(&keys[*i]);
                    }
                }
                Call::ClearRange(b, e) => {
                    model.retain(|k, v| v.is_err() || *k < keys[*b] || *k >= keys[*e]);
                }
                Call::Atomic(i, op, param) => {
                    let key = &keys[*i];
                    let current = match model.get(key) {
                        Some(Err(_)) => continue,
                        current => current.map(|v| v.as_deref().unwrap()),
                    };
                    match atomic::apply(*op, current, param) {
                        Ok(value) => write(&mut model, key, value),
                        Err(error) => {
                            model.insert(key.clone(), Err(error));
                        }
                    }
                }
                Call::StampedValue(i, value, offset) => {
                    let mut value = value.clone();
                    if let Some(stamp) = stamp {
                        atomic::fill_versionstamp(&mut value, *offset, stamp);
                    }
                    write(&mut model, &keys[*i], Some(value));
                }
                Call::StampedKey(i, value) => {
                    if stamp.is_some() {
                        write(&mut model, &keys[*i], Some(value.clone()));
                    }
                }
            }
        }
        (model, tally)
    }

    /// The named case `call` is, given the calls before it, and whether
    /// it coalesces: its op and the ops of the last calls that wrote its
    /// key.
    fn case_of(calls: &[Call], call: &Call) -> Option<(&'static str, bool)> {
        let Call::Atomic(i, op, param) = call else {
            return None;
        };
        let mut before = calls.iter().rev().filter(|c| c.touches(*i));
        let same_width = |c: Option<&Call>, kind: MutationType| matches!(c, Some(Call::Atomic(_, o, p)) if *o == kind && p.len() == param.len());
        let last = before.next();
        match op {
            MutationType::Add if param.len() > atomic::ADD_WIDTH_LIMIT => {
                same_width(last, *op).then_some(("invalid", false))
            }
            MutationType::Add => match last {
                Some(Call::Atomic(_, MutationType::Add, p)) if p.len() == param.len() => {
                    Some(("add_run", true))
                }
                Some(Call::Atomic(_, MutationType::Add, p))
                    if p.len() <= atomic::ADD_WIDTH_LIMIT =>
                {
                    Some(("width_change", false))
                }
                Some(Call::ClearRange(..)) => {
                    same_width(before.next(), *op).then_some(("clear_between", false))
                }
                Some(Call::StampedKey(..)) => {
                    same_width(before.next(), *op).then_some(("stamp_between", false))
                }
                Some(Call::Atomic(
                    _,
                    MutationType::AppendIfFits | MutationType::CompareAndClear,
                    _,
                )) => same_width(before.next(), *op).then_some(("non_associative", false)),
                _ => None,
            },
            MutationType::BitAnd | MutationType::BitOr | MutationType::BitXor => {
                same_width(last, *op).then_some(("bit_run", true))
            }
            _ => None,
        }
    }

    const OPS: [MutationType; 10] = [
        MutationType::Add,
        MutationType::BitAnd,
        MutationType::BitOr,
        MutationType::BitXor,
        MutationType::Max,
        MutationType::Min,
        MutationType::ByteMin,
        MutationType::ByteMax,
        MutationType::AppendIfFits,
        MutationType::CompareAndClear,
    ];

    /// A fresh call. Runs on one key are common: one call in three
    /// repeats the last call, if it was atomic, with a new operand; one in
    /// four of the rest repeats the last ADD; half of the rest are on the
    /// last call's key. `now`: what each key reads as, so a
    /// COMPARE_AND_CLEAR can match it.
    fn generate(rng: &mut Rng, calls: &[Call], now: &[Option<Vec<u8>>]) -> Call {
        let repeat = |call: &Call, rng: &mut Rng| match call {
            Call::Atomic(i, op, param) => Some(Call::Atomic(*i, *op, rng.bytes(param.len()))),
            _ => None,
        };
        if let (Some(last), 0) = (calls.last(), rng.below(3)) {
            if let Some(call) = repeat(last, rng) {
                return call;
            }
        }
        let last_add = calls
            .iter()
            .rev()
            .find(|c| matches!(c, Call::Atomic(_, MutationType::Add, _)));
        if let (Some(last_add), 0) = (last_add, rng.below(4)) {
            return repeat(last_add, rng).unwrap();
        }
        let i = match calls.last() {
            Some(Call::Set(i, _) | Call::Clear(i) | Call::Atomic(i, ..)) if rng.below(2) == 0 => *i,
            _ => rng.below(KEYS),
        };
        let width = [1, 2, 4, 8, 17][rng.below(5)];
        match rng.below(12) {
            0 => Call::Set(i, rng.value(8)),
            1 => Call::Clear(i),
            2 => Call::ClearRange(i, i + 1 + rng.below(KEYS - i)),
            3 => {
                let offset = rng.below(3);
                let len = offset + 10 + rng.below(3);
                Call::StampedValue(i, rng.bytes(len), offset)
            }
            4 => Call::StampedKey(i, rng.value(4)),
            5 if now[i].is_some() => {
                let operand = now[i].clone().unwrap();
                Call::Atomic(i, MutationType::CompareAndClear, operand)
            }
            6..=8 => Call::Atomic(i, MutationType::Add, rng.bytes(width)),
            _ => {
                let op = OPS[rng.below(OPS.len())];
                let width = match op {
                    MutationType::Add => width,
                    _ => width.min(8),
                };
                Call::Atomic(i, op, rng.bytes(width))
            }
        }
    }

    /// Make `call` on `tx`.
    fn make(tx: &Transaction, keys: &[Vec<u8>], placeholder: &[Vec<u8>], call: &Call) {
        let with_offset = |bytes: &[u8], offset: usize| {
            let mut operand = bytes.to_vec();
            operand.extend_from_slice(&(offset as u32).to_le_bytes());
            operand
        };
        match call {
            Call::Set(i, value) => tx.set(&keys[*i], value),
            Call::Clear(i) => tx.clear(&keys[*i]),
            Call::ClearRange(b, e) => tx.clear_range(&keys[*b], &keys[*e]),
            Call::Atomic(i, op, param) => tx.mutate(*op, &keys[*i], param).unwrap(),
            Call::StampedValue(i, value, offset) => tx
                .mutate(
                    MutationType::SetVersionstampedValue,
                    &keys[*i],
                    &with_offset(value, *offset),
                )
                .unwrap(),
            Call::StampedKey(i, value) => tx
                .mutate(
                    MutationType::SetVersionstampedKey,
                    &with_offset(&placeholder[*i], 1),
                    value,
                )
                .unwrap(),
        }
    }

    /// The reference's answer to a range read of `[b, e)` under `options`.
    fn expected_range(
        keys: &[Vec<u8>],
        model: &Model,
        (b, e): (usize, usize),
        options: &RangeOptions,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let range = model.range(keys[b].clone()..keys[e].clone());
        let rows: Box<dyn Iterator<Item = _>> = match options.reverse {
            true => Box::new(range.rev()),
            false => Box::new(range),
        };
        let mut out = Vec::new();
        for (key, value) in rows {
            out.push((key.clone(), value.clone()?));
            if out.len() == options.limit {
                break;
            }
        }
        Ok(out)
    }

    fn one_case(rng: &mut Rng, seen: &mut BTreeMap<&'static str, usize>) {
        let db = Database::new();
        // The keys are `k`, the commit's versionstamp, then a digit, so a
        // versionstamped key `k`, placeholder, digit lands on one.
        let mut base = Vec::new();
        for i in 0..KEYS {
            if rng.below(2) == 0 {
                base.push((i, rng.value(8)));
            }
        }
        // Two commits ahead of the case's: one with the keys' prefix…
        let fill = db.create_transaction();
        fill.set(b"filler", b"");
        fill.commit().unwrap();
        let mut stamp = [0u8; 10];
        stamp[..8].copy_from_slice(&(db.last_commit_version() + 2).to_be_bytes());
        let spell = |middle: &[u8], i: usize| [b"k", middle, &[b'0' + i as u8]].concat();
        let keys: Vec<Vec<u8>> = (0..=KEYS).map(|i| spell(&stamp, i)).collect();
        let placeholder: Vec<Vec<u8>> = (0..KEYS).map(|i| spell(&[0xFF; 10], i)).collect();
        // …and one with their values.
        let populate = db.create_transaction();
        populate.set(b"populated", b"");
        let mut stored = BTreeMap::new();
        for (i, value) in &base {
            populate.set(&keys[*i], value);
            stored.insert(keys[*i].clone(), value.clone());
        }
        populate.commit().unwrap();

        let tx = db.create_transaction();
        let mut calls = Vec::new();
        for _ in 0..1 + rng.below(24) {
            let (now, _) = replay(&keys, &stored, &calls, None);
            let now: Vec<_> = keys.iter().map(|k| now.get(k).cloned()?.ok()).collect();
            let call = generate(rng, &calls, &now);
            let case = case_of(&calls, &call);
            let key = match &call {
                Call::Atomic(i, ..) => Some(&keys[*i]),
                _ => None,
            };
            let ops_before = key.map(|key| tx.buffered_ops(key));
            make(&tx, &keys, &placeholder, &call);
            calls.push(call);
            if let (Some((name, coalesced)), Some(key), Some(before)) = (case, key, ops_before) {
                *seen.entry(name).or_default() += 1;
                let grew = tx.buffered_ops(key) - before;
                assert_eq!(grew, usize::from(!coalesced), "{name}: {calls:?}");
            }

            let (model, _) = replay(&keys, &stored, &calls, None);
            let what = format!("after {calls:?}");
            match rng.below(2) {
                0 => {
                    let i = rng.below(KEYS);
                    let expected = model.get(&keys[i]).cloned().transpose();
                    assert_eq!(tx.get(&keys[i]), expected, "get {i} {what}");
                }
                _ => {
                    let b = rng.below(KEYS);
                    let e = b + 1 + rng.below(KEYS - b);
                    let options = RangeOptions::new()
                        .reverse(rng.below(2) == 0)
                        .limit([0, 1, 2][rng.below(3)]);
                    let read = tx
                        .get_range(&keys[b], &keys[e], options.clone())
                        .map(|rows| {
                            rows.into_iter()
                                .map(|kv| (kv.key, kv.value))
                                .collect::<Vec<_>>()
                        });
                    let expected = expected_range(&keys, &model, (b, e), &options);
                    assert_eq!(read, expected, "range [{b}, {e}) {options:?} {what}");
                }
            }
        }

        let (model, tally) = replay(&keys, &stored, &calls, Some(&stamp));
        let error = model.values().find_map(|v| v.clone().err());
        let written = tx.trace();
        let committed = tx.commit();
        assert_eq!(committed.clone().err(), error, "commit of {calls:?}");
        let engine: BTreeMap<Vec<u8>, Vec<u8>> = db
            .create_transaction()
            .get_range(b"k", b"l", RangeOptions::default())
            .unwrap()
            .into_iter()
            .map(|kv| (kv.key, kv.value))
            .collect();
        if committed.is_err() {
            assert_eq!(engine, stored, "a refused commit wrote nothing: {calls:?}");
            return;
        }
        assert_eq!(tx.versionstamp(), Some(stamp), "the predicted versionstamp");
        let model: BTreeMap<Vec<u8>, Vec<u8>> =
            model.into_iter().map(|(k, v)| (k, v.unwrap())).collect();
        assert_eq!(engine, model, "engine after {calls:?}");
        let trace = tx.trace();
        let counted = (
            trace.keys_written - written.keys_written,
            trace.bytes_written - written.bytes_written,
        );
        assert_eq!(counted, tally, "keys and bytes written by {calls:?}");
    }

    #[test]
    fn coalescing_matches_one_op_per_call() {
        let mut seen = BTreeMap::new();
        for case in 0..400u64 {
            let seed = 0xC0A1_E5CE_D1FF_u64.wrapping_add(case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                one_case(&mut Rng(seed | 1), &mut seen)
            }));
            if let Err(panic) = caught {
                eprintln!("coalescing differential failed: case {case}, seed {seed:#x}");
                std::panic::resume_unwind(panic);
            }
        }
        let names = [
            "add_run",
            "width_change",
            "clear_between",
            "stamp_between",
            "invalid",
            "bit_run",
            "non_associative",
        ];
        let missing: Vec<_> = names.iter().filter(|n| !seen.contains_key(*n)).collect();
        assert!(
            missing.is_empty(),
            "cases never generated: {missing:?} ({seen:?})"
        );
    }
}
