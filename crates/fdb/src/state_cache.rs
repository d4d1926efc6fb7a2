//! The database-wide metadata version and the soft state it validates.
//!
//! FoundationDB keeps one distinguished key, `\xff/metadataVersion`, whose
//! value is the commit version of the last transaction that wrote it, and
//! hands that value to every client together with its read version. A layer
//! that writes the key whenever it changes rarely-changing state (a record
//! store's header, an index's state) can therefore keep that state in
//! client memory and know, without a storage read, whether it is still
//! current: nothing changed if the metadata version a transaction learns is
//! the one the state was stored under.
//!
//! `StateCache` is both halves: the published metadata version, and a
//! bounded map from a key prefix to whatever a layer derived from the keys
//! under it. The map is soft state — derived from the database, checked
//! against the metadata version by every transaction that looks at it
//! ([`Transaction::cached_state`](crate::Transaction::cached_state)), gone
//! with the [`Database`](crate::Database) handle — so losing it costs reads,
//! never correctness.
//!
//! Every entry in the map was stored under the one metadata version
//! `Entries::version`; a write of the key makes them all unreachable and the
//! next fill drops them. That keeps validation to one comparison and the
//! bound to one constant. A fill of a new key into a full map evicts the
//! oldest entry, so the map of a database with more tenants than the bound
//! keeps the rest. Lookups take the shared side of the map's lock, so two
//! clients' store opens never wait for each other; only a fill takes the
//! exclusive side.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::sync::{read_ranked, write_ranked, LockRank};

/// The key whose writes invalidate cached state. Write it with
/// [`Transaction::bump_metadata_version`](crate::Transaction::bump_metadata_version);
/// its stored value is the 10-byte versionstamp of the last transaction
/// that did.
pub const METADATA_VERSION_KEY: &[u8] = b"\xff/metadataVersion";

/// The most entries the map holds. A fill beyond it evicts the oldest: an
/// entry costs its owner one or two reads to derive again.
pub const STATE_CACHE_CAPACITY: usize = 4096;

pub(crate) type CachedState = Arc<dyn Any + Send + Sync>;

#[derive(Default)]
struct Entries {
    /// The metadata version every entry of `map` was stored under.
    version: u64,
    map: HashMap<Arc<[u8]>, CachedState>,
    /// The keys of `map`, oldest fill first: each shares its map key's
    /// allocation.
    order: VecDeque<Arc<[u8]>>,
}

pub(crate) struct StateCache {
    /// Commit version of the last transaction that wrote
    /// [`METADATA_VERSION_KEY`]. Published before the commit version
    /// itself, so a transaction whose read version includes that commit
    /// always loads a metadata version that includes it too.
    metadata_version: AtomicU64,
    entries: RwLock<Entries>,
}

impl StateCache {
    /// `metadata_version`: for a database opened over existing data, any
    /// version at or above the last write of the key (the newest stored
    /// version will do — the map starts empty).
    pub(crate) fn new(metadata_version: u64) -> StateCache {
        StateCache {
            metadata_version: AtomicU64::new(metadata_version),
            entries: RwLock::new(Entries::default()),
        }
    }

    pub(crate) fn metadata_version(&self) -> u64 {
        self.metadata_version.load(Ordering::Acquire)
    }

    /// Record that the key was written at commit version `version`.
    pub(crate) fn publish(&self, version: u64) {
        self.metadata_version.fetch_max(version, Ordering::AcqRel);
    }

    /// The entry for `key`, if it describes the database as a transaction
    /// reading at `read_version` sees it: nothing wrote the metadata
    /// version after that read version, or since the entry was stored.
    pub(crate) fn get(&self, key: &[u8], read_version: u64) -> Option<CachedState> {
        let current = self.metadata_version();
        if current > read_version {
            return None;
        }
        let entries = read_ranked(&self.entries, LockRank::StateCache);
        if entries.version != current {
            return None;
        }
        entries.map.get(key).cloned()
    }

    /// Store what a transaction reading at `read_version` derived for
    /// `key`. Dropped when the metadata version was written after that
    /// read version: the value may describe the state before the write.
    pub(crate) fn put(&self, key: &[u8], read_version: u64, value: CachedState) {
        let current = self.metadata_version();
        if current > read_version {
            return;
        }
        let mut entries = write_ranked(&self.entries, LockRank::StateCache);
        if entries.version > current {
            return;
        }
        if entries.version < current {
            entries.map.clear();
            entries.order.clear();
            entries.version = current;
        }
        let Entries { map, order, .. } = &mut *entries;
        if let Some(slot) = map.get_mut(key) {
            *slot = value;
            return;
        }
        if map.len() >= STATE_CACHE_CAPACITY {
            if let Some(oldest) = order.pop_front() {
                map.remove(&oldest);
            }
        }
        let key: Arc<[u8]> = Arc::from(key);
        map.insert(Arc::clone(&key), value);
        order.push_back(key);
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        read_ranked(&self.entries, LockRank::StateCache).map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(n: u32) -> CachedState {
        Arc::new(n)
    }

    fn get(cache: &StateCache, key: &[u8], read_version: u64) -> Option<u32> {
        cache
            .get(key, read_version)
            .map(|v| *v.downcast::<u32>().unwrap())
    }

    #[test]
    fn an_entry_serves_read_versions_at_or_above_the_metadata_version() {
        let cache = StateCache::new(10);
        cache.put(b"k", 12, value(1));
        assert_eq!(get(&cache, b"k", 10), Some(1));
        assert_eq!(get(&cache, b"k", 99), Some(1));
        // Below the metadata version the state may have been different.
        assert_eq!(get(&cache, b"k", 9), None);
        assert_eq!(get(&cache, b"other", 12), None);
    }

    #[test]
    fn a_write_of_the_key_hides_every_entry_and_old_readers_cannot_refill() {
        let cache = StateCache::new(0);
        cache.put(b"a", 5, value(1));
        cache.put(b"b", 5, value(2));
        cache.publish(20);
        assert_eq!(get(&cache, b"a", 25), None);
        // A reader from before the write sees the old state: not stored.
        cache.put(b"a", 19, value(1));
        assert_eq!(get(&cache, b"a", 25), None);
        assert_eq!(get(&cache, b"a", 19), None);
        // The first fill under the new version drops the old generation.
        cache.put(b"a", 20, value(3));
        assert_eq!(cache.len(), 1);
        assert_eq!(get(&cache, b"a", 21), Some(3));
        assert_eq!(get(&cache, b"b", 21), None);
        // Versions never go back.
        cache.publish(7);
        assert_eq!(cache.metadata_version(), 20);
    }

    #[test]
    fn the_map_never_exceeds_its_capacity() {
        let cache = StateCache::new(0);
        let capacity = STATE_CACHE_CAPACITY as u32;
        for i in 0..capacity + 10 {
            cache.put(&i.to_be_bytes(), 1, value(i));
            assert!(cache.len() <= STATE_CACHE_CAPACITY);
        }
        // Each fill past the bound evicted one entry, the oldest.
        assert_eq!(cache.len(), STATE_CACHE_CAPACITY);
        let last = capacity + 9;
        assert_eq!(get(&cache, &last.to_be_bytes(), 1), Some(last));
        assert_eq!(get(&cache, &0u32.to_be_bytes(), 1), None);
        assert_eq!(get(&cache, &10u32.to_be_bytes(), 1), Some(10));
    }

    /// A fill of a new key into a full map keeps capacity − 1 of the
    /// entries it held; a fill of a key it holds evicts nothing.
    #[test]
    fn a_fill_at_capacity_evicts_one_entry() {
        let cache = StateCache::new(0);
        let capacity = STATE_CACHE_CAPACITY as u32;
        for i in 0..capacity {
            cache.put(&i.to_be_bytes(), 1, value(i));
        }
        cache.put(&7u32.to_be_bytes(), 1, value(70));
        assert_eq!(get(&cache, &0u32.to_be_bytes(), 1), Some(0));
        cache.put(b"new", 1, value(1));
        let kept = (0..capacity)
            .filter(|i| get(&cache, &i.to_be_bytes(), 1).is_some())
            .count();
        assert_eq!(kept, STATE_CACHE_CAPACITY - 1);
        assert_eq!(get(&cache, b"new", 1), Some(1));
        assert_eq!(get(&cache, &7u32.to_be_bytes(), 1), Some(70));
    }

    /// A lookup takes the shared side of the map's lock: with one held, as
    /// by a lookup in progress, another thread's lookup completes.
    #[test]
    fn concurrent_gets_do_not_block_each_other() {
        let cache = Arc::new(StateCache::new(0));
        cache.put(b"k", 1, value(5));
        let held = read_ranked(&cache.entries, LockRank::StateCache);
        let (done, finished) = std::sync::mpsc::channel();
        let reader = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || done.send(get(&cache, b"k", 1)).unwrap())
        };
        let got = finished.recv_timeout(std::time::Duration::from_secs(10));
        drop(held);
        reader.join().unwrap();
        assert_eq!(got, Ok(Some(5)), "a lookup waited for another");
    }
}
