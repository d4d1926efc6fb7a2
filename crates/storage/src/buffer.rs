//! The paged engine's write buffer: the writes of the commits since its
//! last flush, held in the memory engine's [`VersionedMap`], and the
//! garbage-log entries a flush of it finds.
//!
//! A commit's publish puts its writes here — a map insert per key — and
//! reads take a key's newest version at or below their read version from
//! here when the buffer has one. A flush (`crate::paged`) walks the tree
//! once per slice of the buffer's keys and appends every buffered version
//! of each key to the key's chain in one rewrite, so a key written k times
//! between flushes has its chain and its leaf rewritten once.

use std::ops::Range;

use crate::garbage::GarbageLog;
use crate::memory::{Chain, Key, Rows, VersionedMap};

/// Buffered writes, and the bytes of their keys and values.
#[derive(Debug, Default)]
pub(crate) struct WriteBuffer {
    map: VersionedMap,
    /// The key and value bytes of every buffered entry.
    bytes: usize,
}

impl WriteBuffer {
    /// Put `value` (`None`: a tombstone) under `key` at `version`; an entry
    /// at `version` already is replaced. Returns whether the entry it
    /// replaced was a tombstone, a write that left garbage for compaction
    /// that the buffer no longer shows.
    pub(crate) fn put(&mut self, key: &[u8], version: u64, value: Option<&[u8]>) -> bool {
        let len = |value: Option<&[u8]>| key.len() + value.map_or(0, <[u8]>::len);
        self.bytes += len(value);
        let replaced = self
            .map
            .put(Key::new(key), version, |_| value.map(Box::from), |_| {});
        match replaced {
            Some(old) => {
                self.bytes -= len(old.as_deref());
                old.is_none()
            }
            None => false,
        }
    }

    /// The versions of `key`, when the buffer holds it.
    pub(crate) fn get(&self, key: &[u8]) -> Option<&Chain> {
        self.map.get(key)
    }

    /// The buffered keys of `[begin, end)` and their versions, as
    /// [`VersionedMap::range`] walks them.
    pub(crate) fn range<'m>(
        &'m self,
        begin: &'m [u8],
        end: Option<&'m [u8]>,
        reverse: bool,
    ) -> Rows<'m> {
        self.map.range(begin, end, reverse)
    }

    /// Every buffered key and its versions, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&[u8], &Chain)> {
        self.map.iter()
    }

    /// Drop the first `n` keys, which a flush wrote to the tree.
    pub(crate) fn drop_first(&mut self, n: usize) {
        for _ in 0..n {
            let Some((key, chain)) = self.map.pop_first() else {
                break;
            };
            self.forget(key.bytes(), &chain);
        }
    }

    /// Drop `key`, which a walk wrote to the tree, if the buffer holds it.
    pub(crate) fn remove(&mut self, key: &[u8]) {
        if let Some(chain) = self.map.remove(key) {
            self.forget(key, &chain);
        }
    }

    /// Uncount the entries of `chain`, dropped from under `key`.
    fn forget(&mut self, key: &[u8], chain: &Chain) {
        for entry in chain.versions() {
            self.bytes -= key.len() + entry.value.as_deref().map_or(0, <[u8]>::len);
        }
    }

    /// The key and value bytes of every buffered entry.
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Garbage-log entries found by a flush: the key and version of each
/// buffered write that shadowed an older entry or was a tombstone. The log
/// takes entries in version order and a flush finds them in key order, so
/// they wait here until the buffer is empty and are then logged sorted.
#[derive(Debug, Default)]
pub(crate) struct Found {
    keys: Vec<u8>,
    entries: Vec<(u64, Range<usize>)>,
}

impl Found {
    pub(crate) fn push(&mut self, key: &[u8], version: u64) {
        let at = self.keys.len();
        self.keys.extend_from_slice(key);
        self.entries.push((version, at..self.keys.len()));
    }

    /// Move `other`'s entries here, leaving it empty.
    pub(crate) fn append(&mut self, other: &mut Found) {
        let base = self.keys.len();
        self.keys.append(&mut other.keys);
        let moved = other.entries.drain(..);
        self.entries
            .extend(moved.map(|(version, key)| (version, key.start + base..key.end + base)));
    }

    /// Log every entry, in version order, and forget them.
    pub(crate) fn log(&mut self, log: &mut GarbageLog) {
        self.entries.sort_by_key(|(version, _)| *version);
        for (version, key) in self.entries.drain(..) {
            log.push(&self.keys[key], version);
        }
        self.keys.clear();
    }

    pub(crate) fn clear(&mut self) {
        self.keys.clear();
        self.entries.clear();
    }
}
