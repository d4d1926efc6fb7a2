//! A transaction's buffered writes, and the one fold that resolves them.
//!
//! Writes are buffered per key — each key's ops in sequence order — beside
//! the range clears and the versionstamped keys, whose keys are known only
//! at commit. Read-your-writes folds a key's ops over the value read from
//! storage ([`WriteSet::resolve`]). A commit hands its write set to the
//! batch by move, and the batch leader folds each key's ops once over the
//! stored value and gives the engine every key once, in key order
//! ([`sorted_batch`]).

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::BTreeMap;

use rl_storage::{Batch, Mutation};

use crate::atomic::{self, MutationType};
use crate::error::Result;

/// One op in a key's sequence.
#[derive(Debug, Clone)]
pub(crate) enum KeyOp {
    Set(Vec<u8>),
    Clear,
    Atomic(MutationType, Vec<u8>),
    /// SET_VERSIONSTAMPED_VALUE: `value[offset..offset + 10]` becomes the
    /// commit's versionstamp; read-your-writes sees the placeholder form.
    StampedValue(Vec<u8>, usize),
}

/// A transaction's buffered writes.
#[derive(Debug, Default)]
pub(crate) struct WriteSet {
    seq: u64,
    /// Each written key's ops, in sequence order.
    pub(crate) by_key: BTreeMap<Vec<u8>, Vec<(u64, KeyOp)>>,
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

    /// Buffer `op` on `key`.
    pub(crate) fn push(&mut self, key: &[u8], op: KeyOp) {
        let seq = self.next_seq();
        self.by_key.entry(key.to_vec()).or_default().push((seq, op));
    }

    pub(crate) fn clear_range(&mut self, begin: &[u8], end: &[u8]) {
        let seq = self.next_seq();
        self.cleared.push((begin.to_vec(), end.to_vec(), seq));
    }

    /// Buffer a set of `key`, whose bytes from `offset` on are replaced by
    /// the commit's versionstamp.
    pub(crate) fn set_stamped_key(&mut self, key: Vec<u8>, offset: usize, value: &[u8]) {
        let seq = self.next_seq();
        self.stamped_keys.push((seq, key, offset, value.to_vec()));
    }

    /// The value of `key` as this write set leaves `stored`: `ops` (what
    /// `by_key` holds for it) and the range clears covering it, folded in
    /// sequence order. Every row a read returns passes through here, so
    /// the common case — nothing buffered touches it — returns before any
    /// work: in a store of `Item`s, leaving it out of line made reads on the
    /// memory engine ≈ 15 % slower.
    #[inline]
    pub(crate) fn resolve(
        &self,
        key: &[u8],
        ops: &[(u64, KeyOp)],
        stored: Option<Vec<u8>>,
    ) -> Result<Option<Vec<u8>>> {
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
        let value = fold(stored.map(Cow::Owned), merged, |_, _| {})?;
        Ok(value.map(Cow::into_owned))
    }

    /// Surface an operand error an atomic op would hit at commit. Such an
    /// error depends only on the operand, never on the stored value, so a
    /// probe with no value is exact.
    pub(crate) fn validate(&self) -> Result<()> {
        for (_, op) in self.by_key.values().flatten() {
            if let KeyOp::Atomic(op, param) = op {
                atomic::apply(*op, None, param)?;
            }
        }
        Ok(())
    }
}

/// `stored` with a key's `ops` applied in order: a set replaces the value,
/// a clear removes it, an atomic op applies to it. `wrote` hears the tag
/// and the resulting value of each op but a clear: what a commit counts as
/// written.
fn fold<'v>(
    stored: Option<Cow<'v, [u8]>>,
    ops: impl IntoIterator<Item = (u64, Cow<'v, KeyOp>)>,
    mut wrote: impl FnMut(u64, &[u8]),
) -> Result<Option<Cow<'v, [u8]>>> {
    let mut value = stored;
    for (tag, op) in ops {
        let clears = matches!(*op, KeyOp::Clear);
        value = match op {
            Cow::Owned(KeyOp::Set(v) | KeyOp::StampedValue(v, _)) => Some(Cow::Owned(v)),
            Cow::Borrowed(KeyOp::Set(v) | KeyOp::StampedValue(v, _)) => Some(Cow::Borrowed(&v[..])),
            op => match &*op {
                KeyOp::Atomic(op, param) => {
                    atomic::apply(*op, value.as_deref(), param)?.map(Cow::Owned)
                }
                _ => None,
            },
        };
        if !clears {
            wrote(tag, value.as_deref().unwrap_or_default());
        }
    }
    Ok(value)
}

/// What a batch member wrote, for its receipt: keys and bytes counted per
/// op — a set, a versionstamped write or an atomic op is one key, and its
/// key plus its value (an atomic op's result) in bytes; a clear is neither.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    pub(crate) keys: Cell<u64>,
    pub(crate) bytes: Cell<u64>,
}

/// A member's order in its batch and an op's sequence number, as one
/// integer that sorts by both.
fn tag(order: u16, seq: u64) -> u64 {
    (u64::from(order) << 48) | seq
}

fn member(tag: u64) -> u16 {
    (tag >> 48) as u16
}

/// The engine batch of the write sets `members`, each with its order in
/// the commit batch, at `version`: every key once, in key order, with its
/// ops from every member folded in batch order, then sequence order — the
/// range clears that cover it included; and each range clear as it is,
/// ahead of the keys it covers. Versionstamps are filled in here. A key
/// whose fold begins with an atomic op is folded where the engine's write
/// finds the stored value; every other key does not depend on it and is
/// folded here. What member `order` wrote is counted into `tallies[order]`
/// as the folds run.
pub(crate) fn sorted_batch<'t>(
    members: Vec<(u16, WriteSet)>,
    version: u64,
    tallies: &'t [Tally],
) -> Batch<'t> {
    let stamp = |order: u16| {
        let mut stamp = [0u8; 10];
        stamp[..8].copy_from_slice(&version.to_be_bytes());
        stamp[8..].copy_from_slice(&order.to_be_bytes());
        stamp
    };
    let mut clears = Vec::new();
    let mut keyed = Vec::with_capacity(members.len());
    for (order, mut writes) in members {
        for (seq, mut key, offset, value) in std::mem::take(&mut writes.stamped_keys) {
            atomic::fill_versionstamp(&mut key, offset, &stamp(order));
            let ops = writes.by_key.entry(key).or_default();
            ops.insert(
                ops.partition_point(|(s, _)| *s < seq),
                (seq, KeyOp::Set(value)),
            );
        }
        let cleared = writes.cleared.into_iter();
        clears.extend(cleared.map(|(begin, end, seq)| (begin, end, tag(order, seq))));
        keyed.push((order, writes.by_key.into_iter()));
    }
    clears.sort_by(|a, b| a.0.cmp(&b.0));

    let mut heads: Vec<_> = keyed.iter_mut().map(|(_, keys)| keys.next()).collect();
    // The range clears begun at or before the current key; `covering`, the
    // ones of those that have not ended there.
    let (mut begun, mut covering) = (0, Vec::new());
    let mut points: Batch<'t> = Vec::new();
    loop {
        let first = heads.iter().enumerate();
        let first = first
            .filter_map(|(m, head)| Some((&head.as_ref()?.0, m)))
            .min();
        let Some((_, m)) = first else {
            break;
        };
        let Some((key, mut ops)) = heads[m].take() else {
            break;
        };
        heads[m] = keyed[m].1.next();
        ops.iter_mut()
            .for_each(|(seq, _)| *seq = tag(keyed[m].0, *seq));
        for later in m + 1..heads.len() {
            if heads[later].as_ref().is_some_and(|(next, _)| *next == key) {
                if let Some((_, more)) = heads[later].take() {
                    let order = keyed[later].0;
                    ops.extend(more.into_iter().map(|(seq, op)| (tag(order, seq), op)));
                }
                heads[later] = keyed[later].1.next();
            }
        }
        while clears.get(begun).is_some_and(|(begin, ..)| *begin <= key) {
            covering.push(begun);
            begun += 1;
        }
        covering.retain(|&c| key < clears[c].1);
        if !covering.is_empty() {
            ops.extend(covering.iter().map(|&c| (clears[c].2, KeyOp::Clear)));
            ops.sort_by_key(|(tag, _)| *tag);
        }
        for (tag, op) in &mut ops {
            if let KeyOp::StampedValue(value, offset) = op {
                atomic::fill_versionstamp(value, *offset, &stamp(member(*tag)));
            }
        }
        let key_len = key.len() as u64;
        let count = move |tag: u64, value: &[u8]| {
            let tally = &tallies[member(tag) as usize];
            tally.keys.set(tally.keys.get() + 1);
            tally
                .bytes
                .set(tally.bytes.get() + key_len + value.len() as u64);
        };
        let folded = move |stored: Option<&[u8]>, ops: Vec<(u64, KeyOp)>| {
            let ops = ops.into_iter().map(|(tag, op)| (tag, Cow::Owned(op)));
            fold(stored.map(Cow::Borrowed), ops, count)
                .expect("operands validated before the batch")
                .map(Cow::into_owned)
        };
        let mutation = match ops.first() {
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
