//! RANK indexes (Appendix B): efficient access to records by ordinal rank
//! and, conversely, the rank of a value — a probabilistic augmented
//! skip list persisted in the key-value store.
//!
//! Layout mirrors Figure 5, and it is the whole index: the index subspace
//! has one child per level (`prefix/0` … `prefix/L-1`); each key-value pair
//! at level `l` maps an entry tuple (score columns ⧺ primary key) to the
//! number of set elements in `[entry, next-entry-at-l)`. Level 0 holds
//! every entry with count 1, so it is also the entry list a score-range
//! scan reads; each higher level samples the one below it. An implicit
//! *begin sentinel* (the bare level prefix) anchors every level so a
//! predecessor always exists; the first insert writes all of them at once.
//!
//! A score change moves one entry, and [`RankedSet::replace`] walks the
//! levels once for both ends of the move. Up to the taller entry's height
//! it runs erase's step for the old entry, then insert's step for the new
//! one. Above both heights it ADDs −1 and +1 to the two covering fingers,
//! and stops at the first level where one finger covers both: level `l+1`
//! samples level `l`, so every level above shares that finger too, and
//! erase + insert would write an ADD pair that nets to zero there. The
//! result equals erase-then-insert key for key: at each level erase's step
//! reads the level before insert's step touches it, insert's step reads the
//! level below after both steps ran there, and ADD commutes.
//!
//! Per §10.1, navigation uses snapshot reads plus targeted conflict keys:
//! counts on non-member levels are bumped with atomic ADD (conflict-free),
//! so only level-membership splits create read-modify-write conflicts.
//!
//! Which levels hold an entry is part of the on-disk format, like
//! `RANK_LEVELS`: erase and replace recompute an entry's height to find
//! the fingers its insert wrote, so the height must be the same on every
//! build. It comes from `entry_hash`, SipHash-1-3 with zero keys over the
//! entry's length (a `u64`, little-endian) and its bytes, spelt out here
//! rather than taken from `std`'s `DefaultHasher`, whose algorithm `std`
//! leaves unspecified from one release to the next and which hashes a
//! slice's length at the platform's width and byte order. On the 64-bit
//! little-endian builds that wrote the indexes before it, it equals what
//! `DefaultHasher` computed there, so their levels stay where they are;
//! the `entry_heights_are_pinned` test holds a dozen of its values.

use rl_fdb::atomic::MutationType;
use rl_fdb::subspace::Subspace;
use rl_fdb::tuple::Tuple;
use rl_fdb::{RangeOptions, Transaction};

use crate::error::{Error, Result};
use crate::expr::PackedRows;
use crate::index::{evaluate_change, IndexContext, IndexedRecord};
use crate::store::{RecordStore, TupleRange};

/// Sampling: an entry is a member of level `l >= 1` with probability
/// `FAN^-l`, decided by a deterministic hash so inserts and erases agree.
const FAN: u64 = 8;

/// Skip-list levels of every RANK index. A constant, not a per-index
/// setting: the number of levels fixes which keys an index has, so it fixes
/// the on-disk layout of every RANK index, and an index written with one
/// number could not be maintained with another.
pub(crate) const RANK_LEVELS: usize = 6;

/// A durable ordered set with O(log n) rank/select, usable on its own.
pub struct RankedSet<'a> {
    tx: &'a Transaction,
    /// One subspace per level; level 0 lists every entry.
    levels: Vec<Subspace>,
}

fn le_count(bytes: &[u8]) -> i64 {
    let mut buf = [0u8; 8];
    let n = bytes.len().min(8);
    buf[..n].copy_from_slice(&bytes[..n]);
    i64::from_le_bytes(buf)
}

/// The highest level, of levels `0..=top`, that holds the packed `entry`:
/// level `l` holds it when its [`entry_hash`] is a multiple of `FAN^l`.
fn height(entry: &[u8], top: usize) -> usize {
    let h = entry_hash(entry);
    let mut level = 0;
    let mut threshold = FAN;
    while level < top && h.is_multiple_of(threshold) {
        level += 1;
        threshold = threshold.saturating_mul(FAN);
    }
    level
}

/// SipHash-1-3 with the keys zero over `len ‖ entry`, `len` the entry's
/// length as a little-endian `u64`: the skip list's level hash, part of
/// the on-disk format (see the module doc).
fn entry_hash(entry: &[u8]) -> u64 {
    fn round(v: &mut [u64; 4]) {
        v[0] = v[0].wrapping_add(v[1]);
        v[1] = v[1].rotate_left(13) ^ v[0];
        v[0] = v[0].rotate_left(32);
        v[2] = v[2].wrapping_add(v[3]);
        v[3] = v[3].rotate_left(16) ^ v[2];
        v[0] = v[0].wrapping_add(v[3]);
        v[3] = v[3].rotate_left(21) ^ v[0];
        v[2] = v[2].wrapping_add(v[1]);
        v[1] = v[1].rotate_left(17) ^ v[2];
        v[2] = v[2].rotate_left(32);
    }
    fn compress(v: &mut [u64; 4], word: u64) {
        v[3] ^= word;
        round(v);
        v[0] ^= word;
    }
    let mut v = [
        0x736f_6d65_7073_6575,
        0x646f_7261_6e64_6f6d,
        0x6c79_6765_6e65_7261,
        0x7465_6462_7974_6573,
    ];
    let len = entry.len() as u64;
    compress(&mut v, len);
    let mut words = entry.chunks_exact(8);
    for word in &mut words {
        let mut le = [0u8; 8];
        le.copy_from_slice(word);
        compress(&mut v, u64::from_le_bytes(le));
    }
    // The tail, and the low byte of the message's length (8 + len) on top.
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    compress(&mut v, u64::from_le_bytes(tail) | ((len + 8) << 56));
    v[2] ^= 0xff;
    for _ in 0..3 {
        round(&mut v);
    }
    v[0] ^ v[1] ^ v[2] ^ v[3]
}

impl<'a> RankedSet<'a> {
    pub fn new(tx: &'a Transaction, subspace: Subspace, nlevels: usize) -> Self {
        assert!(nlevels >= 2, "a ranked set needs at least 2 levels");
        RankedSet {
            tx,
            levels: (0..nlevels).map(|l| subspace.child(l as i64)).collect(),
        }
    }

    fn top(&self) -> usize {
        self.levels.len() - 1
    }

    /// The begin sentinel: the bare level prefix.
    fn sentinel(&self, level: usize) -> &[u8] {
        self.levels[level].prefix()
    }

    /// The key of a packed entry at `level`.
    fn key(&self, level: usize, entry: &[u8]) -> Vec<u8> {
        let prefix = self.sentinel(level);
        let mut key = Vec::with_capacity(prefix.len() + entry.len());
        key.extend_from_slice(prefix);
        key.extend_from_slice(entry);
        key
    }

    /// The finger `key` of `level`, one level down: a prefix swap, which
    /// maps the sentinel to the sentinel.
    fn key_below(&self, level: usize, key: &[u8]) -> Vec<u8> {
        self.key(level - 1, &key[self.sentinel(level).len()..])
    }

    /// Deterministic membership: the highest level holding the packed
    /// `entry`.
    fn height(&self, entry: &[u8]) -> usize {
        height(entry, self.top())
    }

    fn read_count(&self, key: &[u8]) -> Result<Option<i64>> {
        Ok(self.tx.get_snapshot(key)?.map(|v| le_count(&v)))
    }

    fn add(&self, key: &[u8], delta: i64) -> Result<()> {
        Ok(self
            .tx
            .mutate(MutationType::Add, key, &delta.to_le_bytes())?)
    }

    /// The last finger at `level` strictly before `key`, with its count,
    /// falling back to the sentinel.
    fn predecessor(&self, level: usize, key: &[u8]) -> Result<(Vec<u8>, i64)> {
        let sentinel = self.sentinel(level);
        let kvs = self.tx.get_range_snapshot(
            sentinel,
            key,
            RangeOptions::new().limit(1).reverse(true),
        )?;
        Ok(match kvs.into_iter().next() {
            Some(kv) => (kv.key, le_count(&kv.value)),
            None => (sentinel.to_vec(), 0),
        })
    }

    /// Sum of counts of the entries in `[from_key, to_key)`.
    fn count_range(&self, from_key: &[u8], to_key: &[u8]) -> Result<i64> {
        let kvs = self
            .tx
            .get_range_snapshot(from_key, to_key, RangeOptions::default())?;
        Ok(kvs.iter().map(|kv| le_count(&kv.value)).sum())
    }

    fn contains_packed(&self, entry: &[u8]) -> Result<bool> {
        Ok(self.tx.get_snapshot(&self.key(0, entry))?.is_some())
    }

    /// Whether the set contains `entry`.
    pub fn contains(&self, entry: &Tuple) -> Result<bool> {
        self.contains_packed(&entry.pack())
    }

    /// Write every level's sentinel unless they exist. They are written
    /// together, so the top one answers for all.
    fn init(&self) -> Result<()> {
        if self.tx.get_snapshot(self.sentinel(self.top()))?.is_none() {
            for level in &self.levels {
                self.tx.try_set(level.prefix(), &0i64.to_le_bytes())?;
            }
        }
        Ok(())
    }

    /// Insert an entry; returns false if already present.
    pub fn insert(&self, entry: &Tuple) -> Result<bool> {
        let entry = entry.pack();
        if self.contains_packed(&entry)? {
            return Ok(false);
        }
        self.init()?;
        // The level-0 key is the distinguished key (§10.1): conflict with
        // concurrent insert/erase of the same entry, nothing else.
        self.tx.add_read_conflict_key(&self.key(0, &entry));
        let height = self.height(&entry);
        for level in 0..self.levels.len() {
            self.insert_level(level, &entry, height)?;
        }
        Ok(true)
    }

    /// Insert's step at `level` for an entry of `height` not in the set.
    fn insert_level(&self, level: usize, entry: &[u8], height: usize) -> Result<()> {
        let key = self.key(level, entry);
        if level == 0 {
            return Ok(self.tx.try_set(&key, &1i64.to_le_bytes())?);
        }
        let (prev, prev_count) = self.predecessor(level, &key)?;
        if level > height {
            // Not a member: the covering finger grows by one. Atomic ADD
            // keeps concurrent inserts conflict-free here.
            return self.add(&prev, 1);
        }
        // Member: split the predecessor's finger. Elements in
        // [prev, entry) are measured one level below, where both exist.
        let before =
            self.count_range(&self.key_below(level, &prev), &self.key(level - 1, entry))?;
        self.tx.try_set(&prev, &before.to_le_bytes())?;
        self.tx
            .try_set(&key, &(prev_count - before + 1).to_le_bytes())?;
        Ok(())
    }

    /// Remove an entry; returns false if absent.
    pub fn erase(&self, entry: &Tuple) -> Result<bool> {
        let entry = entry.pack();
        if !self.contains_packed(&entry)? {
            return Ok(false);
        }
        self.tx.add_read_conflict_key(&self.key(0, &entry));
        let height = self.height(&entry);
        for level in 0..self.levels.len() {
            self.erase_level(level, &entry, height)?;
        }
        Ok(true)
    }

    /// Erase's step at `level` for an entry of `height` in the set.
    fn erase_level(&self, level: usize, entry: &[u8], height: usize) -> Result<()> {
        let key = self.key(level, entry);
        if level == 0 {
            self.tx.clear(&key);
            return Ok(());
        }
        let (prev, _) = self.predecessor(level, &key)?;
        if level > height {
            return self.add(&prev, -1);
        }
        // Member: its covered elements fold back into the predecessor's
        // finger (minus the entry itself).
        let count = self.read_count(&key)?.unwrap_or(1);
        self.tx.clear(&key);
        self.add(&prev, count - 1)
    }

    /// Move one entry: erase `old` and insert `new` in one walk up the
    /// levels that stops at the first finger covering both (see the module
    /// doc). Returns what `erase(old)` then `insert(new)` would, and leaves
    /// the same keys and values; when `old` is absent or `new` present it
    /// is exactly those two calls.
    pub fn replace(&self, old: &Tuple, new: &Tuple) -> Result<(bool, bool)> {
        let (old_entry, new_entry) = (old.pack(), new.pack());
        if !self.contains_packed(&old_entry)? || self.contains_packed(&new_entry)? {
            return Ok((self.erase(old)?, self.insert(new)?));
        }
        self.tx.add_read_conflict_key(&self.key(0, &old_entry));
        self.tx.add_read_conflict_key(&self.key(0, &new_entry));
        let (old_height, new_height) = (self.height(&old_entry), self.height(&new_entry));
        for level in 0..self.levels.len() {
            if level <= old_height.max(new_height) {
                self.erase_level(level, &old_entry, old_height)?;
                self.insert_level(level, &new_entry, new_height)?;
                continue;
            }
            let (old_prev, _) = self.predecessor(level, &self.key(level, &old_entry))?;
            let (new_prev, _) = self.predecessor(level, &self.key(level, &new_entry))?;
            if old_prev == new_prev {
                break;
            }
            self.add(&old_prev, -1)?;
            self.add(&new_prev, 1)?;
        }
        Ok((true, true))
    }

    /// The 0-based ordinal rank of an entry, or `None` if absent —
    /// the Figure 5(b) walk.
    pub fn rank(&self, entry: &Tuple) -> Result<Option<i64>> {
        let entry = entry.pack();
        if !self.contains_packed(&entry)? {
            return Ok(None);
        }
        let mut rank: i64 = 0;
        let mut cur = self.sentinel(self.top()).to_vec();
        // The count of `cur` at this level, once a range read returned it.
        let mut cur_count = None;
        for level in (0..self.levels.len()).rev() {
            if level != self.top() {
                cur = self.key_below(level + 1, &cur);
                cur_count = None;
            }
            let end = rl_fdb::key_after(&self.key(level, &entry));
            // Walk fingers at this level while the next entry is <= target.
            loop {
                let next = self.tx.get_range_snapshot(
                    &rl_fdb::key_after(&cur),
                    &end,
                    RangeOptions::new().limit(1),
                )?;
                let Some(kv) = next.into_iter().next() else {
                    break;
                };
                rank += match cur_count {
                    Some(count) => count,
                    None => self.read_count(&cur)?.unwrap_or(0),
                };
                cur_count = Some(le_count(&kv.value));
                cur = kv.key;
            }
        }
        Ok(Some(rank))
    }

    /// The entry at 0-based `rank`, or `None` if out of bounds — the
    /// inverse walk.
    pub fn select(&self, rank: i64) -> Result<Option<Tuple>> {
        if rank < 0 {
            return Ok(None);
        }
        let mut remaining = rank;
        let mut cur = self.sentinel(self.top()).to_vec();
        for level in (0..self.levels.len()).rev() {
            if level != self.top() {
                cur = self.key_below(level + 1, &cur);
            }
            // A missing count means the set is empty.
            let Some(mut count) = self.read_count(&cur)? else {
                return Ok(None);
            };
            let (_, level_end) = self.levels[level].range_inclusive();
            // Walk right along this level until the finger covers `rank`,
            // then descend.
            while remaining >= count {
                let next = self.tx.get_range_snapshot(
                    &rl_fdb::key_after(&cur),
                    &level_end,
                    RangeOptions::new().limit(1),
                )?;
                let Some(kv) = next.into_iter().next() else {
                    return Ok(None); // rank beyond the set
                };
                remaining -= count;
                count = le_count(&kv.value);
                cur = kv.key;
            }
        }
        if cur == self.sentinel(0) {
            return Ok(None);
        }
        Ok(Some(self.levels[0].unpack(&cur)?))
    }

    /// Total number of entries.
    pub fn len(&self) -> Result<i64> {
        let (begin, end) = self.levels[self.top()].range_inclusive();
        self.count_range(&begin, &end)
    }

    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }
}

/// Maintains a RANK index: a score change moves one entry with
/// [`RankedSet::replace`]; any other change erases what left and inserts
/// what arrived.
pub(crate) fn update(
    ctx: &IndexContext<'_>,
    packed: &mut PackedRows,
    old: Option<&IndexedRecord<'_>>,
    new: Option<&IndexedRecord<'_>>,
) -> Result<i64> {
    // An update keeps its primary key: either record's is both's.
    let Some(primary_key) = old.or(new).map(|record| record.primary_key) else {
        return Ok(0);
    };
    let (old, new) = evaluate_change(ctx.index, packed, old, new)?;
    if packed.same(old, new) {
        return Ok(0);
    }
    let set = RankedSet::new(ctx.tx, ctx.subspace(), RANK_LEVELS);
    // Each entry of a record as a set element: score columns ⧺ pk, built
    // only for an entry the other record lacks.
    let key_columns = ctx.index.key_expression.key_column_count();
    let scores = |rows| {
        packed
            .rows(rows)
            .map(move |row| row.split_at(key_columns).0)
    };
    let only_in = |rows, other| -> Result<Vec<Tuple>> {
        scores(rows)
            .filter(|score| !scores(other).any(|o| o == *score))
            .map(|score| Ok(score.to_tuple()?.concat(primary_key)))
            .collect()
    };
    let (gone, came) = (only_in(old, new)?, only_in(new, old)?);
    if let ([old], [new]) = (gone.as_slice(), came.as_slice()) {
        set.replace(old, new)?;
    } else {
        for e in &gone {
            set.erase(e)?;
        }
        for e in &came {
            set.insert(e)?;
        }
    }
    Ok(came.len() as i64 - gone.len() as i64)
}

impl<'a> RecordStore<'a> {
    /// The ranked set underlying a RANK index.
    pub fn ranked_set(&self, index_name: &str) -> Result<RankedSet<'a>> {
        let index = self.require_readable(index_name)?;
        Ok(RankedSet::new(
            self.transaction(),
            self.index_subspace(index),
            RANK_LEVELS,
        ))
    }

    /// 0-based rank of `entry` (score columns ⧺ primary key) in a RANK
    /// index, or `None` when absent.
    pub fn rank_of(&self, index_name: &str, entry: &Tuple) -> Result<Option<i64>> {
        self.ranked_set(index_name)?.rank(entry)
    }

    /// The entry (score columns ⧺ primary key) at `rank` in a RANK index.
    pub fn entry_at_rank(&self, index_name: &str, rank: i64) -> Result<Option<Tuple>> {
        self.ranked_set(index_name)?.select(rank)
    }

    /// Number of entries in a RANK index.
    pub fn rank_count(&self, index_name: &str) -> Result<i64> {
        self.ranked_set(index_name)?.len()
    }

    /// Scan a RANK index's entries by score range (like a VALUE index
    /// scan), returning `(score…, pk…)` tuples in order: a range read of
    /// skip-list level 0, never its sentinel.
    pub fn scan_rank_entries(&self, index_name: &str, range: &TupleRange) -> Result<Vec<Tuple>> {
        let set = self.ranked_set(index_name)?;
        let entries = &set.levels[0];
        let (begin, end) = range.to_byte_range(entries);
        let begin = begin.max(entries.range().0);
        let kvs = self
            .transaction()
            .get_range(&begin, &end, RangeOptions::default())?;
        kvs.iter()
            .map(|kv| entries.unpack(&kv.key).map_err(Error::Fdb))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_fdb::Database;

    fn with_set(f: impl Fn(&RankedSet<'_>)) {
        let db = Database::new();
        let tx = db.create_transaction();
        let set = RankedSet::new(&tx, Subspace::from_bytes(b"R".to_vec()), 4);
        f(&set);
    }

    /// Entries (packed `(score, pk)` tuples and a few raw byte strings)
    /// with the hash `std`'s `DefaultHasher` gave them when every RANK
    /// index was written with it, and the height that makes, one of each
    /// height 0..=5 among them.
    #[test]
    fn entry_heights_are_pinned() {
        let abc: &[u8] = b"abcdefghijklmnop";
        let pinned: [(Vec<u8>, u64, usize); 12] = [
            (vec![], 0xbd60_acb6_58c7_9e45, 0),
            (vec![0], 0xdc58_fdc2_e5c5_babe, 0),
            (abc[..8].to_vec(), 0xc1a2_1d00_9ceb_0ef5, 0),
            (abc.to_vec(), 0x7746_5d2f_ae10_23a1, 0),
            (vec![20, 20], 0x047c_186c_bd98_8076, 0),
            (vec![20, 21, 2], 0x479c_489e_6641_f8a0, 1),
            (vec![20, 21, 34], 0x45dd_61aa_22c5_d280, 2),
            (vec![21, 17, 21, 28], 0x3d52_0cc5_4712_cc00, 3),
            (vec![21, 104, 21, 47], 0x6098_0fe3_6f34_7000, 4),
            (vec![21, 194, 21, 35], 0x8a8c_77fa_f69c_8000, 5),
            (
                Tuple::new()
                    .push("a longer string score column")
                    .push(7i64)
                    .pack(),
                0x77d5_5b45_f39e_3113,
                0,
            ),
            (
                Tuple::new().push(-5i64).push("pk").push(3i64).pack(),
                0xaf9c_a6d0_49b5_5f1d,
                0,
            ),
        ];
        assert_eq!(Tuple::new().push(194i64).push(35i64).pack(), pinned[9].0);
        for (entry, hash, level) in &pinned {
            assert_eq!(entry_hash(entry), *hash, "hash of {entry:?}");
            assert_eq!(
                height(entry, RANK_LEVELS - 1),
                *level,
                "height of {entry:?}"
            );
        }
    }

    #[test]
    fn insert_contains_erase() {
        with_set(|set| {
            let e = Tuple::from((5i64, "pk"));
            assert!(!set.contains(&e).unwrap());
            assert!(set.insert(&e).unwrap());
            assert!(set.contains(&e).unwrap());
            assert!(!set.insert(&e).unwrap(), "duplicate insert must be a no-op");
            assert!(set.erase(&e).unwrap());
            assert!(!set.contains(&e).unwrap());
            assert!(!set.erase(&e).unwrap());
        });
    }

    #[test]
    fn figure5_rank_semantics() {
        // Six elements; rank of the 5th (0-based 4) must be 4 regardless of
        // which levels sampled what.
        with_set(|set| {
            for s in ["a", "b", "c", "d", "e", "f"] {
                set.insert(&Tuple::from((s,))).unwrap();
            }
            assert_eq!(set.rank(&Tuple::from(("e",))).unwrap(), Some(4));
            assert_eq!(set.rank(&Tuple::from(("a",))).unwrap(), Some(0));
            assert_eq!(set.rank(&Tuple::from(("f",))).unwrap(), Some(5));
            assert_eq!(set.rank(&Tuple::from(("zz",))).unwrap(), None);
            assert_eq!(set.len().unwrap(), 6);
        });
    }

    #[test]
    fn rank_and_select_inverse_on_random_data() {
        with_set(|set| {
            let mut values: Vec<i64> = (0..200).map(|i| (i * 37) % 1000).collect();
            values.sort_unstable();
            values.dedup();
            for v in &values {
                set.insert(&Tuple::from((*v,))).unwrap();
            }
            assert_eq!(set.len().unwrap(), values.len() as i64);
            for (expected_rank, v) in values.iter().enumerate() {
                let t = Tuple::from((*v,));
                assert_eq!(
                    set.rank(&t).unwrap(),
                    Some(expected_rank as i64),
                    "rank of {v}"
                );
                assert_eq!(
                    set.select(expected_rank as i64).unwrap(),
                    Some(t),
                    "select({expected_rank})"
                );
            }
            assert_eq!(set.select(values.len() as i64).unwrap(), None);
            assert_eq!(set.select(-1).unwrap(), None);
        });
    }

    #[test]
    fn ranks_stay_consistent_under_deletions() {
        with_set(|set| {
            for v in 0..100i64 {
                set.insert(&Tuple::from((v,))).unwrap();
            }
            // Delete the even values.
            for v in (0..100i64).step_by(2) {
                set.erase(&Tuple::from((v,))).unwrap();
            }
            assert_eq!(set.len().unwrap(), 50);
            for (i, v) in (1..100i64).step_by(2).enumerate() {
                assert_eq!(set.rank(&Tuple::from((v,))).unwrap(), Some(i as i64));
            }
        });
    }

    #[test]
    fn persists_across_transactions() {
        let db = Database::new();
        let sub = Subspace::from_bytes(b"R".to_vec());
        crate::run(&db, |tx| {
            let set = RankedSet::new(tx, sub.clone(), 4);
            for v in 0..50i64 {
                set.insert(&Tuple::from((v,)))?;
            }
            Ok(())
        })
        .unwrap();
        let tx = db.create_transaction();
        let set = RankedSet::new(&tx, sub, 4);
        assert_eq!(set.len().unwrap(), 50);
        assert_eq!(set.rank(&Tuple::from((25i64,))).unwrap(), Some(25));
        assert_eq!(set.select(10).unwrap(), Some(Tuple::from((10i64,))));
    }
}
