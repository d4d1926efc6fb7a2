//! The in-memory engine: an ordered multi-version map.
//!
//! This is the simulator's original MVCC store, moved here from `rl_fdb`
//! and kept as the differential-test oracle for the disk-backed engine.
//! Every committed write is recorded under its commit version; reads at a
//! read version `v` observe, for each key, the newest write with version
//! `<= v`. Old versions are garbage-collected once they fall out of the
//! MVCC window.
//!
//! **Representation.** One `BTreeMap` from `Key` to `Chain`, laid out
//! so that a seek and a range read stay inside the map's nodes:
//!
//! * a key of up to `INLINE` (30) bytes is held in the node itself, and
//!   only a longer one is boxed. The keys of a store of the benchmark's
//!   items (records, index entries, statistics) are 9–19 bytes;
//! * a key's chain is its one version, held in the node, until a second
//!   version is written. Only then is it a `Vec`, and it goes back to one
//!   inline version when compaction leaves one;
//! * a value is an exact-size `Box<[u8]>`, so an empty value (most index
//!   entries) holds no heap block.
//!
//! A stored key so costs its value's block at most, where a
//! `BTreeMap<Vec<u8>, Vec<_>>` held two or three blocks per key (≈ 180
//! bytes beyond the bytes stored, the chain's `Vec` sized for four
//! versions at its first push) and a read followed one cold pointer per
//! key it compared or lent. Measured on the benchmark's memory workloads
//! (ten alternating pairs each, 10 s runs, 2 vCPUs), peak resident memory
//! fell 30.9 → 22.2 MB on `query_shapes_mem` and 23.4 → 18.1 MB on
//! `record_mix_mem`, and the query median 26 % and 10 %.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::btree_map::{self, Entry};
use std::collections::BTreeMap;
use std::ops::{Bound, ControlFlow};

use crate::engine::{check_generation, Batch, Mutation, Staged, StorageEngine, Visitor, Work};
use crate::garbage::{GarbageLog, Slice};

/// The longest key held in the map's node: with its length byte and the
/// enum's tag a key's slot is 32 bytes, against 24 for a `Vec<u8>`.
const INLINE: usize = 30;

/// A map key, ordered (and borrowed as `[u8]`) by its bytes alone, so the
/// map is searched with plain slices.
#[derive(Debug)]
pub(crate) enum Key {
    /// The length, then the bytes, zero-padded.
    Inline(u8, [u8; INLINE]),
    Boxed(Box<[u8]>),
}

impl Key {
    /// `bytes` held in place when they fit, else copied into a box.
    pub(crate) fn new(bytes: &[u8]) -> Key {
        if bytes.len() > INLINE {
            return Key::Boxed(Box::from(bytes));
        }
        let mut inline = [0; INLINE];
        inline[..bytes.len()].copy_from_slice(bytes);
        Key::Inline(bytes.len() as u8, inline)
    }

    pub(crate) fn bytes(&self) -> &[u8] {
        match self {
            Key::Inline(len, bytes) => &bytes[..*len as usize],
            Key::Boxed(bytes) => bytes,
        }
    }
}

impl Borrow<[u8]> for Key {
    fn borrow(&self) -> &[u8] {
        self.bytes()
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        self.bytes() == other.bytes()
    }
}

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Key) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Key) -> Ordering {
        self.bytes().cmp(other.bytes())
    }
}

/// One versioned write to a key: `None` is a tombstone (clear).
#[derive(Debug)]
pub(crate) struct VersionedValue {
    pub(crate) version: u64,
    pub(crate) value: Option<Box<[u8]>>,
}

/// A key's versions, oldest first.
#[derive(Debug)]
pub(crate) enum Chain {
    One(VersionedValue),
    /// Two or more.
    Many(Vec<VersionedValue>),
}

impl Chain {
    pub(crate) fn versions(&self) -> &[VersionedValue] {
        match self {
            Chain::One(v) => std::slice::from_ref(v),
            Chain::Many(vs) => vs,
        }
    }

    /// The newest entry at or below `version`: `Some(None)` for a
    /// tombstone, `None` when every entry is newer.
    pub(crate) fn at(&self, version: u64) -> Option<Option<&[u8]>> {
        let visible = self.versions().iter().rev().find(|v| v.version <= version);
        visible.map(|v| v.value.as_deref())
    }

    /// The value visible at `version`, `None` for a tombstone or no entry.
    pub(crate) fn visible(&self, version: u64) -> Option<&[u8]> {
        self.at(version).flatten()
    }

    /// Whether the newest entry is a live value.
    pub(crate) fn newest_is_live(&self) -> bool {
        self.versions().last().is_some_and(|v| v.value.is_some())
    }

    fn newest_mut(&mut self) -> &mut VersionedValue {
        match self {
            Chain::One(v) => v,
            Chain::Many(vs) => vs.last_mut().expect("a Many chain holds two or more"),
        }
    }

    fn push(&mut self, newer: VersionedValue) {
        *self = Chain::Many(match std::mem::replace(self, Chain::Many(Vec::new())) {
            Chain::One(only) => vec![only, newer],
            Chain::Many(mut vs) => {
                vs.push(newer);
                vs
            }
        });
    }
}

/// An ordered multi-version map: the memory engine's store, and the paged
/// engine's write buffer (`crate::paged`), which holds the writes of the
/// commits since its last flush this way.
#[derive(Debug, Default)]
pub(crate) struct VersionedMap {
    map: BTreeMap<Key, Chain>,
}

/// The rows of a [`VersionedMap::range`], in its direction.
pub(crate) struct Rows<'m> {
    rows: btree_map::Range<'m, Key, Chain>,
    reverse: bool,
    begin: &'m [u8],
    end: Option<&'m [u8]>,
}

impl<'m> Iterator for Rows<'m> {
    type Item = (&'m [u8], &'m Chain);

    fn next(&mut self) -> Option<Self::Item> {
        let (key, chain) = match self.reverse {
            true => self.rows.next_back()?,
            false => self.rows.next()?,
        };
        let key = key.bytes();
        let inside = match self.reverse {
            true => key >= self.begin,
            false => self.end.is_none_or(|end| key < end),
        };
        inside.then_some((key, chain))
    }
}

impl VersionedMap {
    /// One map lookup: `f` sees the value visible at `version`, and what
    /// it returns is written at `version` (replacing an entry already
    /// there). `log` is called with the key, as the map holds it, when the
    /// write leaves something for compaction: it shadowed an older entry,
    /// or it is a tombstone. Returns the value of the entry at `version`
    /// that the write replaced, if there was one.
    pub(crate) fn put(
        &mut self,
        key: Key,
        version: u64,
        f: impl FnOnce(Option<&[u8]>) -> Option<Box<[u8]>>,
        log: impl FnOnce(&[u8]),
    ) -> Option<Option<Box<[u8]>>> {
        match self.map.entry(key) {
            Entry::Vacant(slot) => {
                let value = f(None);
                let garbage = value.is_none();
                let slot = slot.insert_entry(Chain::One(VersionedValue { version, value }));
                if garbage {
                    log(slot.key().bytes());
                }
                None
            }
            Entry::Occupied(mut slot) => {
                let chain = slot.get_mut();
                let value = f(chain.visible(version));
                // Garbage: an older entry now shadowed, or a tombstone.
                let newest = chain.newest_mut();
                let garbage = value.is_none() || newest.version != version;
                let replaced = if newest.version == version {
                    Some(std::mem::replace(&mut newest.value, value))
                } else {
                    chain.push(VersionedValue { version, value });
                    None
                };
                if garbage {
                    log(slot.key().bytes());
                }
                replaced
            }
        }
    }

    pub(crate) fn get(&self, key: &[u8]) -> Option<&Chain> {
        self.map.get(key)
    }

    /// The keys of `[begin, end)` (`end` `None`: to the last key) and their
    /// chains, ascending from `begin` or, with `reverse`, descending from
    /// `end`, which must then be given. The iterator seeks only the bound
    /// it starts from and stops at the other one: a two-bound range would
    /// search the tree for both ends first, and a reader usually stops long
    /// before the far one.
    pub(crate) fn range<'m>(
        &'m self,
        begin: &'m [u8],
        end: Option<&'m [u8]>,
        reverse: bool,
    ) -> Rows<'m> {
        let rows = match (reverse, end) {
            (true, Some(end)) => self
                .map
                .range::<[u8], _>((Bound::Unbounded, Bound::Excluded(end))),
            (true, None) => self.map.range::<[u8], _>(..),
            (false, _) => self
                .map
                .range::<[u8], _>((Bound::Included(begin), Bound::Unbounded)),
        };
        Rows {
            rows,
            reverse,
            begin,
            end,
        }
    }

    /// Every key and its chain, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&[u8], &Chain)> {
        self.map.iter().map(|(key, chain)| (key.bytes(), chain))
    }

    /// Remove `key`; returns its chain.
    pub(crate) fn remove(&mut self, key: &[u8]) -> Option<Chain> {
        self.map.remove(key)
    }

    /// Remove the first key and its chain.
    pub(crate) fn pop_first(&mut self) -> Option<(Key, Chain)> {
        self.map.pop_first()
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Trim the chain of `key` at `oldest_version`: keep the newest version
    /// at or below it (still the visible base for readers at the horizon)
    /// plus everything newer, and remove the key once only a tombstone at
    /// or below it remains.
    fn prune(&mut self, key: &[u8], oldest_version: u64) {
        let Some(chain) = self.map.get_mut(key) else {
            return; // removed since it was logged
        };
        if let Chain::Many(versions) = chain {
            let split = versions
                .iter()
                .rposition(|v| v.version <= oldest_version)
                .unwrap_or(0);
            versions.drain(..split);
            if let [_] = &versions[..] {
                *chain = Chain::One(versions.pop().expect("one version"));
            }
        }
        if let Chain::One(only) = chain {
            if only.value.is_none() && only.version <= oldest_version {
                self.map.remove(key);
            }
        }
    }
}

/// Ordered multi-version key-value storage in memory.
#[derive(Debug, Default)]
pub struct MemoryEngine {
    map: VersionedMap,
    /// Keys whose chains hold something `compact` can drop.
    garbage: GarbageLog,
    /// The highest version written.
    newest: u64,
    /// Publishes so far (see [`Staged`]).
    generation: u64,
}

impl MemoryEngine {
    pub fn new() -> Self {
        MemoryEngine::default()
    }

    /// One map lookup, as [`VersionedMap::put`], logging the garbage the
    /// write leaves.
    fn put(&mut self, key: Key, version: u64, f: impl FnOnce(Option<&[u8]>) -> Option<Box<[u8]>>) {
        let garbage = &mut self.garbage;
        self.map
            .put(key, version, f, |key| garbage.push(key, version));
    }
}

/// Whether a `Write` or `Update` of `batch` (the rest of a sorted batch)
/// names `key`.
pub(crate) fn names(batch: &[(Vec<u8>, Mutation<'_>)], key: &[u8]) -> bool {
    let from = batch.partition_point(|(k, _)| k.as_slice() < key);
    batch[from..]
        .iter()
        .take_while(|(k, _)| k.as_slice() == key)
        .any(|(_, m)| !matches!(m, Mutation::ClearRange(_)))
}

impl MemoryEngine {
    /// Publish a batch: in its order, one map lookup per key. A range clear
    /// tombstones key by key (rather than tracking range tombstones), which
    /// keeps reads simple; it costs the live keys in the range, which
    /// matches FDB's own storage-server behaviour closely enough for the
    /// experiments in this repository.
    ///
    /// A key of up to `INLINE` bytes is copied into the map's node, so it
    /// takes no heap block. What the map keeps on the heap (a longer key, a
    /// written value) is a copy, and the batch, whose buffers are dropped
    /// only when it returns, outlives every copy, so what the map keeps
    /// lies together on the heap. The buffers themselves were allocated
    /// among the record layer's short-lived temporaries; a map that kept
    /// them pinned scattered blocks, and every later read and allocation
    /// paid for it: on the benchmark's `query_shapes_mem` the query median
    /// rose 14 % and the throughput fell 12 %. A value an `Update` returns
    /// is made during the batch and kept, trimmed to its length.
    fn apply(&mut self, version: u64, mut batch: Batch<'_>) {
        debug_assert!(version >= self.newest, "versions must not decrease");
        self.newest = self.newest.max(version);
        let mut items = &mut batch[..];
        while let Some(((key, mutation), rest)) = std::mem::take(&mut items).split_first_mut() {
            match mutation {
                Mutation::Write(value) => {
                    let value = value.as_deref().map(Box::from);
                    self.put(Key::new(key), version, |_| value);
                }
                Mutation::Update(f) => {
                    // Its stand-in is zero-sized, so boxing it allocates nothing.
                    let f = std::mem::replace(f, Box::new(|_| None));
                    let fold = |visible: Option<&[u8]>| f(visible).map(Vec::into_boxed_slice);
                    self.put(Key::new(key), version, fold);
                }
                Mutation::ClearRange(end) if *key < *end => {
                    let doomed: Vec<Key> = self
                        .map
                        .range(key, Some(end), false)
                        .filter(|(k, chain)| chain.newest_is_live() && !names(rest, k))
                        .map(|(k, _)| Key::new(k))
                        .collect();
                    for k in doomed {
                        self.put(k, version, |_| None);
                    }
                }
                Mutation::ClearRange(_) => {}
            }
            items = rest;
        }
    }

    /// Publish a compaction slice: trim the chains of its keys.
    fn prune(&mut self, oldest_version: u64, slice: Slice) {
        let keys = self.garbage.consume(slice);
        for key in keys.iter() {
            self.map.prune(key, oldest_version);
        }
    }
}

impl StorageEngine for MemoryEngine {
    fn stage<'a>(&self, version: u64, batch: Batch<'a>) -> Staged<'a> {
        Staged {
            generation: self.generation,
            keys: 0,
            work: Work::Batch(version, batch),
        }
    }

    /// Every logged key at or below `oldest_version`, in one slice: the
    /// map update is the whole of the work, and it runs at publish.
    fn stage_compaction(&self, oldest_version: u64) -> Option<Staged<'static>> {
        let slice = self.garbage.peek(oldest_version)?;
        Some(Staged {
            generation: self.generation,
            keys: slice.keys.len(),
            work: Work::Compaction(oldest_version, slice),
        })
    }

    fn publish(&mut self, staged: Staged<'_>) {
        check_generation(&mut self.generation, &staged);
        match staged.work {
            Work::Batch(version, batch) => self.apply(version, batch),
            Work::Compaction(oldest, slice) => self.prune(oldest, slice),
            Work::Paged(_) => unreachable!("a paged engine's stage"),
        }
    }

    fn get(&self, key: &[u8], read_version: u64) -> Option<Vec<u8>> {
        self.map.get(key)?.visible(read_version).map(<[u8]>::to_vec)
    }

    /// Both directions stream straight off a `BTreeMap` range iterator,
    /// lending each visible row's key and value out of the map, and stop
    /// where the visitor does, so the rest of the range is never visited.
    fn visit(
        &self,
        begin: &[u8],
        end: &[u8],
        read_version: u64,
        reverse: bool,
        visitor: &mut Visitor<'_>,
    ) {
        let _ = self
            .map
            .range(begin, Some(end), reverse)
            .try_for_each(|(key, chain)| match chain.visible(read_version) {
                Some(value) => visitor(key, value),
                None => ControlFlow::Continue(()),
            });
    }

    fn newest_version(&self) -> u64 {
        self.newest
    }

    fn live_key_count(&self, read_version: u64) -> usize {
        self.map
            .iter()
            .filter(|(_, chain)| chain.visible(read_version).is_some())
            .count()
    }

    fn total_version_entries(&self) -> usize {
        self.map
            .iter()
            .map(|(_, chain)| chain.versions().len())
            .sum()
    }

    fn describe(&self) -> String {
        format!("memory(keys={})", self.map.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{commit, compact};

    #[test]
    fn read_your_version() {
        let mut s = MemoryEngine::new();
        s.write(b"k".to_vec(), Some(b"v1".to_vec()), 10);
        s.write(b"k".to_vec(), Some(b"v2".to_vec()), 20);
        assert_eq!(s.get(b"k", 5), None);
        assert_eq!(s.get(b"k", 10), Some(b"v1".to_vec()));
        assert_eq!(s.get(b"k", 15), Some(b"v1".to_vec()));
        assert_eq!(s.get(b"k", 20), Some(b"v2".to_vec()));
        assert_eq!(s.get(b"k", 100), Some(b"v2".to_vec()));
    }

    #[test]
    fn tombstones_hide_values() {
        let mut s = MemoryEngine::new();
        s.write(b"k".to_vec(), Some(b"v".to_vec()), 10);
        s.write(b"k".to_vec(), None, 20);
        assert_eq!(s.get(b"k", 15), Some(b"v".to_vec()));
        assert_eq!(s.get(b"k", 25), None);
    }

    #[test]
    fn range_respects_versions_and_order() {
        let mut s = MemoryEngine::new();
        s.write(b"a".to_vec(), Some(b"1".to_vec()), 10);
        s.write(b"c".to_vec(), Some(b"3".to_vec()), 10);
        s.write(b"b".to_vec(), Some(b"2".to_vec()), 20);
        let r = s.range(b"a", b"z", 15, false);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].0, b"a");
        assert_eq!(r[1].0, b"c");
        let r = s.range(b"a", b"z", 25, true);
        assert_eq!(r.len(), 3);
        assert_eq!(r[0].0, b"c");
        assert_eq!(r[2].0, b"a");
    }

    #[test]
    fn reverse_range_streams_same_results() {
        let mut s = MemoryEngine::new();
        for i in 0..100u32 {
            s.write(format!("k{i:03}").into_bytes(), Some(vec![i as u8]), 10);
        }
        s.write(b"k050".to_vec(), None, 20); // tombstone mid-range
        let mut fwd = s.range(b"k010", b"k090", 25, false);
        let rev = s.range(b"k010", b"k090", 25, true);
        fwd.reverse();
        assert_eq!(fwd, rev);
    }

    #[test]
    fn clear_range_tombstones_only_inside() {
        let mut s = MemoryEngine::new();
        for k in [b"a", b"b", b"c", b"d"] {
            s.write(k.to_vec(), Some(b"v".to_vec()), 10);
        }
        commit(
            &mut s,
            20,
            vec![(b"b".to_vec(), Mutation::ClearRange(b"d".to_vec()))],
        );
        let r = s.range(b"a", b"z", 25, false);
        let keys: Vec<_> = r.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(keys, vec![b"a".to_vec(), b"d".to_vec()]);
        // Old readers still see everything.
        assert_eq!(s.range(b"a", b"z", 15, false).len(), 4);
    }

    #[test]
    fn scan_stops_at_limit_in_both_directions() {
        let mut s = MemoryEngine::new();
        for k in [b"b", b"d", b"f"] {
            s.write(k.to_vec(), Some(b"v".to_vec()), 10);
        }
        s.write(b"d".to_vec(), None, 30); // tombstone, invisible below 30
        let keys = |rows: Vec<(Vec<u8>, Vec<u8>)>| -> Vec<Vec<u8>> {
            rows.into_iter().map(|(k, _)| k).collect()
        };
        // "last key below d" and "last key at or below d".
        assert_eq!(keys(s.scan(b"", b"d", 20, true, 1)), [b"b".to_vec()]);
        assert_eq!(keys(s.scan(b"", b"d\0", 20, true, 1)), [b"d".to_vec()]);
        assert_eq!(keys(s.scan(b"", b"a", 20, true, 1)), Vec::<Vec<u8>>::new());
        // "second key after b": the limit counts visible rows only.
        assert_eq!(
            keys(s.scan(b"b\0", b"\xff", 20, false, 2)).last().unwrap(),
            b"f"
        );
        assert_eq!(keys(s.scan(b"b\0", b"\xff", 40, false, 2)), [b"f".to_vec()]);
        assert_eq!(s.scan(b"z", b"a", 20, false, 5), Vec::new());
        assert_eq!(s.newest_version(), 30);
    }

    #[test]
    fn compact_drops_shadowed_versions() {
        let mut s = MemoryEngine::new();
        s.write(b"k".to_vec(), Some(b"v1".to_vec()), 10);
        s.write(b"k".to_vec(), Some(b"v2".to_vec()), 20);
        s.write(b"k".to_vec(), Some(b"v3".to_vec()), 30);
        assert_eq!(s.total_version_entries(), 3);
        compact(&mut s, 25);
        assert_eq!(s.total_version_entries(), 2);
        assert_eq!(chain(&s, b"k"), Some((vec![20, 30], false)));
        assert_eq!(s.get(b"k", 25), Some(b"v2".to_vec()));
        assert_eq!(s.get(b"k", 35), Some(b"v3".to_vec()));
        // Back to one version, held inline.
        compact(&mut s, 30);
        assert_eq!(chain(&s, b"k"), Some((vec![30], true)));
        assert_eq!(s.get(b"k", 30), Some(b"v3".to_vec()));
    }

    #[test]
    fn compact_removes_dead_tombstones() {
        let mut s = MemoryEngine::new();
        s.write(b"never".to_vec(), None, 10); // a clear of a missing key
        s.write(b"k".to_vec(), Some(b"v".to_vec()), 10);
        s.write(b"k".to_vec(), None, 20);
        assert_eq!(chain(&s, b"never"), Some((vec![10], true)));
        compact(&mut s, 15);
        assert_eq!(chain(&s, b"never"), None);
        assert_eq!(chain(&s, b"k"), Some((vec![10, 20], false)));
        compact(&mut s, 30);
        assert_eq!(s.total_version_entries(), 0);
        assert_eq!(s.describe(), "memory(keys=0)");
    }

    /// The chain under `key`, as (versions, whether it is inline).
    fn chain(s: &MemoryEngine, key: &[u8]) -> Option<(Vec<u64>, bool)> {
        let chain = s.map.get(key)?;
        let versions = chain.versions().iter().map(|v| v.version).collect();
        Some((versions, matches!(chain, Chain::One(_))))
    }

    #[test]
    fn a_key_of_up_to_30_bytes_is_inline_in_32() {
        assert_eq!(std::mem::size_of::<Key>(), 32);
        assert!(matches!(Key::new(&[7; INLINE]), Key::Inline(30, _)));
        assert!(matches!(Key::new(&[7; INLINE + 1]), Key::Boxed(_)));
    }

    #[test]
    fn a_second_version_makes_the_chain_a_vec() {
        let mut s = MemoryEngine::new();
        s.write(b"k".to_vec(), Some(b"v1".to_vec()), 10);
        assert_eq!(chain(&s, b"k"), Some((vec![10], true)));
        s.write(b"k".to_vec(), Some(b"v2".to_vec()), 20);
        assert_eq!(chain(&s, b"k"), Some((vec![10, 20], false)));
        s.write(b"k".to_vec(), None, 30);
        assert_eq!(chain(&s, b"k"), Some((vec![10, 20, 30], false)));
        assert_eq!(s.get(b"k", 25), Some(b"v2".to_vec()));
    }

    #[test]
    fn a_rewrite_at_the_same_version_stays_in_place() {
        let mut s = MemoryEngine::new();
        s.write(b"k".to_vec(), Some(b"v1".to_vec()), 10);
        s.write(b"k".to_vec(), Some(b"v2".to_vec()), 10);
        assert_eq!(chain(&s, b"k"), Some((vec![10], true)));
        assert_eq!(s.get(b"k", 10), Some(b"v2".to_vec()));
        s.write(b"k".to_vec(), Some(b"v3".to_vec()), 20);
        let append = |v: Option<&[u8]>| Some([v.unwrap(), b"!"].concat());
        commit(
            &mut s,
            20,
            vec![(b"k".to_vec(), Mutation::Update(Box::new(append)))],
        );
        assert_eq!(chain(&s, b"k"), Some((vec![10, 20], false)));
        assert_eq!(s.get(b"k", 20), Some(b"v3!".to_vec()));
    }

    /// Keys of 29, 30 and 31 bytes, and pairs sharing a prefix that one
    /// side keeps inline and the other boxes.
    fn straddling_keys() -> Vec<Vec<u8>> {
        let mut keys = Vec::new();
        for len in INLINE - 1..=INLINE + 1 {
            for last in [0x00, b'm', 0xFF] {
                let mut key = vec![b'p'; len - 1];
                key.push(last);
                keys.push(key);
            }
            keys.push(vec![b'p'; len]);
        }
        keys.push(b"p".to_vec());
        keys.push(b"q".to_vec());
        keys.sort();
        keys.dedup();
        keys
    }

    #[test]
    fn keys_across_the_inline_limit_keep_byte_order() {
        let keys = straddling_keys();
        let mut s = MemoryEngine::new();
        for key in keys.iter().rev() {
            s.write(key.clone(), Some(key.clone()), 10);
        }
        let all = |s: &MemoryEngine, reverse| -> Vec<Vec<u8>> {
            let rows = s.range(b"", b"\xff\xff", 20, reverse);
            rows.into_iter().map(|(k, _)| k).collect()
        };
        let mut reversed = keys.clone();
        reversed.reverse();
        assert_eq!(all(&s, false), keys);
        assert_eq!(all(&s, true), reversed);
        // Clears from an inline key to a boxed one and back.
        let key = |len: usize, last: u8| [&[b'p'; INLINE + 1][..len - 1], &[last]].concat();
        let clears = [
            (key(INLINE, 0x00), key(INLINE + 1, 0xFF)),
            (key(INLINE + 1, 0xFF), key(INLINE - 1, 0xFF)),
        ];
        for (begin, end) in &clears {
            commit(
                &mut s,
                20,
                vec![(begin.clone(), Mutation::ClearRange(end.clone()))],
            );
        }
        let cleared = |k: &Vec<u8>| clears.iter().any(|(b, e)| b <= k && k < e);
        let left: Vec<Vec<u8>> = keys.iter().filter(|k| !cleared(k)).cloned().collect();
        assert_eq!(keys.len() - left.len(), 8);
        assert_eq!(all(&s, false), left);
        reversed.retain(|k| left.contains(k));
        assert_eq!(all(&s, true), reversed);
        for key in &keys {
            let expected = left.contains(key).then(|| key.clone());
            assert_eq!(s.get(key, 20), expected);
            assert_eq!(s.get(key, 10), Some(key.clone()));
        }
    }

    /// The model: every key's chain as a plain vector, oldest first.
    type Model = BTreeMap<Vec<u8>, Vec<(u64, Option<Vec<u8>>)>>;

    fn model_write(model: &mut Model, key: &[u8], value: Option<Vec<u8>>, version: u64) {
        let chain = model.entry(key.to_vec()).or_default();
        match chain.last_mut() {
            Some(last) if last.0 == version => last.1 = value,
            _ => chain.push((version, value)),
        }
    }

    fn model_visible(model: &Model, key: &[u8], version: u64) -> Option<Vec<u8>> {
        let chain = model.get(key)?;
        chain.iter().rev().find(|(v, _)| *v <= version)?.1.clone()
    }

    /// Seeded writes, updates, range clears, multi-key batches,
    /// compactions and reads against [`Model`]. The generator cases that
    /// reach each branch of the representation, each asserted to occur:
    ///
    /// * a new key held inline, and a new key boxed: keys are 27–33 bytes
    ///   sharing one prefix (plus a few of one byte), so half of them fit;
    /// * a one-version chain becoming a `Vec`, and a `Vec` growing: the key
    ///   space is about 60 keys, so keys are written again and again;
    /// * a rewrite at the newest entry's version, inline and in a `Vec`: a
    ///   step keeps the version one time in two;
    /// * a compaction back to one inline version, and one that removes a
    ///   lone tombstone: one write in four is a tombstone, and `oldest`
    ///   is drawn up to the newest version;
    /// * an empty value: one value in five is empty.
    #[test]
    fn matches_a_plain_model() {
        const CASES: [&str; 9] = [
            "new inline",
            "new boxed",
            "one to vec",
            "vec grows",
            "rewrite inline",
            "rewrite in vec",
            "compacted to inline",
            "lone tombstone removed",
            "empty value",
        ];
        let mut seen = [0u32; CASES.len()];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |n: u64| {
            // xorshift64
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        for case in 0..200 {
            let mut s = MemoryEngine::new();
            let mut model = Model::new();
            let (mut version, mut oldest) = (1u64, 0u64);
            let arb_key = |next: &mut dyn FnMut(u64) -> u64| -> Vec<u8> {
                if next(8) == 0 {
                    return vec![b'a' + next(3) as u8];
                }
                let mut key = vec![b'p'; 27 + next(4) as usize];
                key.extend((0..next(3)).map(|_| [0x00, b'm', 0xFF][next(3) as usize]));
                key
            };
            let arb_value = |next: &mut dyn FnMut(u64) -> u64| -> Option<Vec<u8>> {
                match next(20) {
                    0..=4 => None,
                    5..=8 => Some(Vec::new()),
                    n => Some(vec![n as u8; 1 + next(40) as usize]),
                }
            };
            // Tallies the branch a write of `key` at `version` takes.
            let note = |s: &MemoryEngine, seen: &mut [u32; 9], key: &[u8], version: u64| {
                let case = match s.map.get(key) {
                    None if key.len() <= INLINE => 0,
                    None => 1,
                    Some(Chain::One(v)) if v.version == version => 4,
                    Some(Chain::One(_)) => 2,
                    Some(Chain::Many(vs)) if vs.last().unwrap().version == version => 5,
                    Some(Chain::Many(_)) => 3,
                };
                seen[case] += 1;
            };
            for _ in 0..60 {
                if next(2) == 0 {
                    version += 1;
                }
                match next(10) {
                    0..=3 => {
                        let (key, value) = (arb_key(&mut next), arb_value(&mut next));
                        note(&s, &mut seen, &key, version);
                        if value.as_ref().is_some_and(Vec::is_empty) {
                            seen[8] += 1;
                        }
                        model_write(&mut model, &key, value.clone(), version);
                        s.write(key, value, version);
                    }
                    4 => {
                        let key = arb_key(&mut next);
                        note(&s, &mut seen, &key, version);
                        let append = next(4) as u8;
                        let fold = |v: Option<&[u8]>| match append {
                            0 => None,
                            n => Some([v.unwrap_or_default(), &[n]].concat()),
                        };
                        let visible = model_visible(&model, &key, version);
                        model_write(&mut model, &key, fold(visible.as_deref()), version);
                        commit(
                            &mut s,
                            version,
                            vec![(key, Mutation::Update(Box::new(fold)))],
                        );
                    }
                    5 => {
                        // Points, and a range clear that skips the ones
                        // it covers.
                        let mut points = BTreeMap::new();
                        for _ in 0..next(6) {
                            points.insert(arb_key(&mut next), arb_value(&mut next));
                        }
                        let (a, b) = (arb_key(&mut next), arb_key(&mut next));
                        let (begin, end) = (a.clone().min(b.clone()), a.max(b));
                        let live: Vec<Vec<u8>> = model
                            .range(begin.clone()..end.clone())
                            .filter(|(k, chain)| {
                                chain.last().unwrap().1.is_some() && !points.contains_key(*k)
                            })
                            .map(|(k, _)| k.clone())
                            .collect();
                        for key in live {
                            model_write(&mut model, &key, None, version);
                        }
                        let mut batch: Batch<'_> = vec![(begin, Mutation::ClearRange(end))];
                        for (key, value) in points {
                            note(&s, &mut seen, &key, version);
                            model_write(&mut model, &key, value.clone(), version);
                            batch.push((key, Mutation::Write(value)));
                        }
                        batch.sort_by(|(a, _), (b, _)| a.cmp(b));
                        commit(&mut s, version, batch);
                    }
                    6 => {
                        oldest += next(version - oldest + 1);
                        let before: Vec<(Vec<u8>, bool)> = s
                            .map
                            .iter()
                            .map(|(k, c)| (k.to_vec(), matches!(c, Chain::Many(_))))
                            .collect();
                        for chain in model.values_mut() {
                            let split = chain.iter().rposition(|(v, _)| *v <= oldest).unwrap_or(0);
                            chain.drain(..split);
                        }
                        model.retain(|_, c| !matches!(&c[..], [(v, None)] if *v <= oldest));
                        compact(&mut s, oldest);
                        for (key, was_vec) in before {
                            match chain(&s, &key) {
                                None => seen[7] += 1,
                                Some((_, true)) if was_vec => seen[6] += 1,
                                _ => {}
                            }
                        }
                    }
                    _ => {
                        let rv = oldest + next(version - oldest + 1);
                        for reverse in [false, true] {
                            let mut want: Vec<(Vec<u8>, Vec<u8>)> = model
                                .keys()
                                .filter_map(|k| Some((k.clone(), model_visible(&model, k, rv)?)))
                                .collect();
                            if reverse {
                                want.reverse();
                            }
                            let got = s.range(b"", b"\xff", rv, reverse);
                            assert_eq!(got, want, "case {case}: range at {rv}");
                        }
                        let key = arb_key(&mut next);
                        assert_eq!(s.get(&key, rv), model_visible(&model, &key, rv));
                    }
                }
                let entries: usize = model.values().map(Vec::len).sum();
                assert_eq!(s.total_version_entries(), entries, "case {case}");
                assert_eq!(s.map.len(), model.len(), "case {case}");
                // A chain is a `Vec` exactly when it holds two or more.
                assert!(s
                    .map
                    .iter()
                    .all(|(_, c)| matches!(c, Chain::One(_)) == (c.versions().len() == 1)));
            }
        }
        let missing: Vec<&str> = CASES
            .iter()
            .zip(seen)
            .filter(|(_, n)| *n == 0)
            .map(|(c, _)| *c)
            .collect();
        assert!(
            missing.is_empty(),
            "cases not reached: {missing:?} ({seen:?})"
        );
    }
}
