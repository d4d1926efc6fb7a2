//! The in-memory engine: an ordered multi-version map.
//!
//! This is the simulator's original MVCC store, moved here from `rl_fdb`
//! and kept as the differential-test oracle for the disk-backed engine.
//! Every committed write is recorded under its commit version; reads at a
//! read version `v` observe, for each key, the newest write with version
//! `<= v`. Old versions are garbage-collected once they fall out of the
//! MVCC window.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::ops::Bound;

use crate::engine::{Batch, Mutation, StorageEngine};
use crate::garbage::GarbageLog;

/// One versioned write to a key: `None` is a tombstone (clear).
#[derive(Debug, Clone)]
struct VersionedValue {
    version: u64,
    value: Option<Vec<u8>>,
}

/// Ordered multi-version key-value storage in memory.
#[derive(Debug, Default)]
pub struct MemoryEngine {
    map: BTreeMap<Vec<u8>, Vec<VersionedValue>>,
    /// Keys whose chains hold something `compact` can drop.
    garbage: GarbageLog,
    /// The highest version written.
    newest: u64,
}

impl MemoryEngine {
    pub fn new() -> Self {
        MemoryEngine::default()
    }

    /// One map lookup: `f` sees the value visible at `version`, and what
    /// it returns is written at `version` (replacing an entry already
    /// there).
    fn put(
        &mut self,
        key: Vec<u8>,
        version: u64,
        f: impl FnOnce(Option<&[u8]>) -> Option<Vec<u8>>,
    ) {
        let mut slot = match self.map.entry(key) {
            Entry::Occupied(slot) => slot,
            Entry::Vacant(slot) => slot.insert_entry(Vec::new()),
        };
        let versions = slot.get_mut();
        let visible = versions.iter().rev().find(|v| v.version <= version);
        let value = f(visible.and_then(|v| v.value.as_deref()));
        // Garbage: an older entry now shadowed, or a tombstone.
        let mut garbage = value.is_none();
        match versions.last_mut() {
            Some(last) if last.version == version => last.value = value,
            last => {
                garbage |= last.is_some();
                versions.push(VersionedValue { version, value });
            }
        }
        if garbage {
            self.garbage.push(slot.key(), version);
        }
    }
}

/// Whether a `Write` or `Update` of `batch` (the rest of a sorted batch)
/// names `key`.
fn names(batch: &[(Vec<u8>, Mutation<'_>)], key: &[u8]) -> bool {
    let from = batch.partition_point(|(k, _)| k.as_slice() < key);
    batch[from..]
        .iter()
        .take_while(|(k, _)| k.as_slice() == key)
        .any(|(_, m)| !matches!(m, Mutation::ClearRange(_)))
}

impl StorageEngine for MemoryEngine {
    /// The batch in its order, one map lookup per key. A range clear
    /// tombstones key by key (rather than tracking range tombstones), which
    /// keeps reads simple; it costs the live keys in the range, which
    /// matches FDB's own storage-server behaviour closely enough for the
    /// experiments in this repository.
    ///
    /// The map keeps copies of the batch's keys and values, all made before
    /// any buffer of the batch is freed, so what it keeps lies together on
    /// the heap. The buffers themselves were allocated among the record
    /// layer's short-lived temporaries; a map that kept them pinned
    /// scattered blocks, and every later read and allocation paid for it:
    /// on the benchmark's `query_shapes_mem` the query median rose 14 % and
    /// the throughput fell 12 %.
    fn apply_sorted(&mut self, version: u64, mut batch: Batch<'_>) {
        debug_assert!(version >= self.newest, "versions must not decrease");
        self.newest = self.newest.max(version);
        let mut buffers = Vec::with_capacity(2 * batch.len());
        let mut copy = |bytes: &mut Vec<u8>| buffers.push(std::mem::replace(bytes, bytes.clone()));
        for (key, mutation) in &mut batch {
            match mutation {
                Mutation::Write(value) => {
                    copy(key);
                    value.iter_mut().for_each(&mut copy);
                }
                Mutation::Update(_) => copy(key),
                Mutation::ClearRange(_) => {}
            }
        }
        let mut items = batch.into_iter();
        while let Some((key, mutation)) = items.next() {
            match mutation {
                Mutation::Write(value) => self.put(key, version, |_| value),
                Mutation::Update(f) => self.put(key, version, f),
                Mutation::ClearRange(end) if key < end => {
                    let rest = items.as_slice();
                    let doomed: Vec<Vec<u8>> = self
                        .map
                        .range::<[u8], _>((Bound::Included(&key[..]), Bound::Excluded(&end[..])))
                        .filter(|(k, vs)| {
                            vs.last().is_some_and(|v| v.value.is_some()) && !names(rest, k)
                        })
                        .map(|(k, _)| k.clone())
                        .collect();
                    for k in doomed {
                        self.put(k, version, |_| None);
                    }
                }
                Mutation::ClearRange(_) => {}
            }
        }
    }

    fn get(&self, key: &[u8], read_version: u64) -> Option<Vec<u8>> {
        let versions = self.map.get(key)?;
        versions
            .iter()
            .rev()
            .find(|v| v.version <= read_version)
            .and_then(|v| v.value.clone())
    }

    /// Both directions stream straight off the `BTreeMap` range iterator
    /// and stop at the `limit`-th visible row, so the rest of the range is
    /// never visited.
    fn scan(
        &self,
        begin: &[u8],
        end: &[u8],
        read_version: u64,
        reverse: bool,
        limit: usize,
    ) -> Vec<(Vec<u8>, Vec<u8>)> {
        if begin >= end {
            return Vec::new(); // BTreeMap::range panics on inverted bounds
        }
        let iter = self
            .map
            .range::<[u8], _>((Bound::Included(begin), Bound::Excluded(end)));
        let visible = move |(k, versions): (&Vec<u8>, &Vec<VersionedValue>)| {
            versions
                .iter()
                .rev()
                .find(|v| v.version <= read_version)
                .and_then(|v| v.value.as_ref())
                .map(|val| (k.clone(), val.clone()))
        };
        if reverse {
            iter.rev().filter_map(visible).take(limit).collect()
        } else {
            iter.filter_map(visible).take(limit).collect()
        }
    }

    fn newest_version(&self) -> u64 {
        self.newest
    }

    fn compact(&mut self, oldest_version: u64) -> usize {
        let keys = self.garbage.drain(oldest_version);
        for key in keys.iter() {
            let Some(versions) = self.map.get_mut(key) else {
                continue; // removed since it was logged
            };
            // Keep the newest version <= oldest_version (still the visible
            // base for readers at the horizon) plus everything newer.
            let split = versions
                .iter()
                .rposition(|v| v.version <= oldest_version)
                .unwrap_or(0);
            versions.drain(..split);
            // Entry can go entirely once only a tombstone at/below the
            // horizon remains.
            if let [only] = &versions[..] {
                if only.value.is_none() && only.version <= oldest_version {
                    self.map.remove(key);
                }
            }
        }
        keys.len()
    }

    fn live_key_count(&self, read_version: u64) -> usize {
        self.map
            .values()
            .filter(|versions| {
                versions
                    .iter()
                    .rev()
                    .find(|v| v.version <= read_version)
                    .is_some_and(|v| v.value.is_some())
            })
            .count()
    }

    fn total_version_entries(&self) -> usize {
        self.map.values().map(Vec::len).sum()
    }

    fn describe(&self) -> String {
        format!("memory(keys={})", self.map.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        s.clear_range(b"b", b"d", 20);
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
        s.compact(25);
        assert_eq!(s.total_version_entries(), 2);
        assert_eq!(s.get(b"k", 25), Some(b"v2".to_vec()));
        assert_eq!(s.get(b"k", 35), Some(b"v3".to_vec()));
    }

    #[test]
    fn compact_removes_dead_tombstones() {
        let mut s = MemoryEngine::new();
        s.write(b"k".to_vec(), Some(b"v".to_vec()), 10);
        s.write(b"k".to_vec(), None, 20);
        s.compact(30);
        assert_eq!(s.total_version_entries(), 0);
    }
}
