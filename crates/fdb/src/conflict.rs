//! The recent-writes conflict index: which shards a key range touches,
//! and one shard's window of committed write conflict ranges.
//!
//! Keys map to [`CONFLICT_SHARDS`] shards by their first two bytes, so a
//! committing transaction locks only the shards its conflict ranges can
//! touch (see [`commit_shard_mask`]), and transactions over disjoint key
//! prefixes validate in parallel. A shard mask must be conservative: a
//! key inside a range that maps outside the range's mask is a
//! snapshot-isolation hole, because the commit that wrote it and the one
//! that read it would validate under disjoint locks.

use std::collections::VecDeque;
use std::sync::Arc;

/// Number of recent-writes conflict-index shards. Keys map to shards by
/// their first two bytes, so transactions over disjoint key prefixes
/// (e.g. different tenants) commit in parallel.
pub const CONFLICT_SHARDS: usize = 16;

/// The first two key bytes as a big-endian u16 (shorter keys are
/// zero-padded). Adjacent keys share prefixes, so a contiguous key range
/// resolves to a contiguous prefix interval.
fn prefix_value(key: &[u8]) -> u16 {
    let hi = key.first().copied().unwrap_or(0) as u16;
    let lo = key.get(1).copied().unwrap_or(0) as u16;
    (hi << 8) | lo
}

/// Which conflict shard a two-byte prefix belongs to.
fn shard_of_prefix(prefix: u16) -> usize {
    prefix as usize % CONFLICT_SHARDS
}

/// Bitmask (bit *i* = shard *i*) of the shards a half-open key range
/// `[begin, end)` can touch. Conservative: every key in the range maps to
/// a shard in the mask (extra shards only cost lock acquisitions, never
/// correctness). A range spanning `>= CONFLICT_SHARDS` prefixes covers
/// every shard.
fn range_shard_mask(begin: &[u8], end: &[u8]) -> u16 {
    let lo = prefix_value(begin);
    // Keys below `end` carry `end`'s own prefix whenever `end` has bytes
    // past the prefix. They also do when `end` is of the form [b, 0x00]
    // — exactly what `key_after` yields for the one-byte key [b], which
    // is in-range and zero-pads to `end`'s own prefix. Only a one-byte
    // `end`, or [b, c] with c != 0, lets the interval stop one short.
    let ends_prefix_unreachable = end.len() == 1 || (end.len() == 2 && end[1] != 0);
    let hi = if ends_prefix_unreachable {
        prefix_value(end).saturating_sub(1)
    } else {
        prefix_value(end)
    }
    .max(lo);
    if (hi - lo) as usize >= CONFLICT_SHARDS - 1 {
        return ALL_SHARDS;
    }
    let mut mask = 0u16;
    for p in lo..=hi {
        mask |= 1 << shard_of_prefix(p);
    }
    mask
}

/// Union of [`range_shard_mask`] over a conflict-range set.
pub(crate) fn conflict_shard_mask(ranges: &[(Vec<u8>, Vec<u8>)]) -> u16 {
    ranges
        .iter()
        .fold(0, |mask, (begin, end)| mask | range_shard_mask(begin, end))
}

/// Every conflict shard.
pub(crate) const ALL_SHARDS: u16 = u16::MAX >> (16 - CONFLICT_SHARDS);

/// The shards a commit locks: those its conflict ranges can touch — or all
/// of them when it writes the metadata-version key. Transactions that rely
/// on cached state check the metadata version under whatever shards they
/// hold (see `Database::commit_internal`) instead of reading the key, so
/// only the rare writer pays for the exclusion and every other commit's
/// mask stays what its own keys make it.
pub(crate) fn commit_shard_mask(
    read_conflicts: &[(Vec<u8>, Vec<u8>)],
    write_conflicts: &[(Vec<u8>, Vec<u8>)],
    writes_metadata_version: bool,
) -> u16 {
    if writes_metadata_version {
        ALL_SHARDS
    } else {
        conflict_shard_mask(read_conflicts) | conflict_shard_mask(write_conflicts)
    }
}

/// The shard of a single key: what [`range_shard_mask`] gives for
/// `[key, key_after(key))`, whose keys all share `key`'s padded prefix.
fn key_shard_mask(key: &[u8]) -> u16 {
    1 << shard_of_prefix(prefix_value(key))
}

/// One commit's write conflicts, as the conflict window keeps them: built
/// once when the commit is submitted, and shared by the window of every
/// shard it touches (a clone is a reference count).
///
/// A point write is its key, not a `(key, key_after(key))` pair: the keys
/// lie back to back in one buffer.
#[derive(Debug, Clone, Default)]
pub(crate) struct WriteConflicts(Arc<Writes>);

#[derive(Debug, Default)]
struct Writes {
    /// The written keys, back to back.
    keys: Vec<u8>,
    /// Where each key in `keys` ends.
    ends: Vec<usize>,
    /// Range conflicts `[begin, end)`.
    ranges: Vec<(Vec<u8>, Vec<u8>)>,
}

impl WriteConflicts {
    /// The conflicts of writing `keys` and of `ranges`: two buffers for
    /// the keys, each of its final size, whatever their number.
    pub(crate) fn new<'k, I>(keys: I, ranges: Vec<(Vec<u8>, Vec<u8>)>) -> Self
    where
        I: IntoIterator<Item = &'k [u8]>,
        I::IntoIter: Clone + ExactSizeIterator,
    {
        let keys = keys.into_iter();
        let mut writes = Writes {
            keys: Vec::with_capacity(keys.clone().map(<[u8]>::len).sum()),
            ends: Vec::with_capacity(keys.len()),
            ranges,
        };
        for key in keys {
            writes.keys.extend_from_slice(key);
            writes.ends.push(writes.keys.len());
        }
        WriteConflicts(Arc::new(writes))
    }

    fn key(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.0.ends[i - 1] };
        &self.0.keys[start..self.0.ends[i]]
    }

    /// The range conflicts.
    pub(crate) fn ranges(&self) -> &[(Vec<u8>, Vec<u8>)] {
        &self.0.ranges
    }

    /// The shards of the written keys (the ranges' are
    /// [`commit_shard_mask`]'s to add).
    pub(crate) fn key_shard_mask(&self) -> u16 {
        (0..self.0.ends.len()).fold(0, |mask, i| mask | key_shard_mask(self.key(i)))
    }

    /// The union of the keys' and the ranges' shards.
    pub(crate) fn shard_mask(&self) -> u16 {
        self.key_shard_mask() | conflict_shard_mask(self.ranges())
    }

    /// Whether any of these writes falls in any of `read_conflicts`.
    fn intersects(&self, read_conflicts: &[(Vec<u8>, Vec<u8>)]) -> bool {
        read_conflicts.iter().any(|(begin, end)| {
            let inside = |key: &[u8]| begin.as_slice() <= key && key < end.as_slice();
            (0..self.0.ends.len()).any(|i| inside(self.key(i)))
                || self
                    .ranges()
                    .iter()
                    .any(|(wa, wb)| ranges_intersect(begin, end, wa, wb))
        })
    }
}

/// One entry in the conflict-detection window: the write conflicts of a
/// committed transaction, recorded under its commit version.
#[derive(Debug)]
struct CommittedWrites {
    version: u64,
    writes: WriteConflicts,
}

/// One shard of the recent-writes conflict index. Entries are ordered by
/// version (insertion happens under the shard lock, and versions allocate
/// monotonically while the inserting committer still holds the lock).
#[derive(Debug, Default)]
pub(crate) struct ConflictShard {
    window: VecDeque<CommittedWrites>,
}

impl ConflictShard {
    /// Whether a write committed after `read_version` intersects any of
    /// `read_conflicts`. The window is ordered by version, so scan
    /// newest-first and stop at the read version.
    pub(crate) fn conflicts_with(
        &self,
        read_version: u64,
        read_conflicts: &[(Vec<u8>, Vec<u8>)],
    ) -> bool {
        for committed in self.window.iter().rev() {
            if committed.version <= read_version {
                break;
            }
            if committed.writes.intersects(read_conflicts) {
                return true;
            }
        }
        false
    }

    /// Record a commit's write conflicts at its `version`, first dropping
    /// the entries older than the MVCC `horizon`: no transaction that could
    /// still commit reads below it.
    pub(crate) fn record(&mut self, version: u64, horizon: u64, writes: impl Into<WriteConflicts>) {
        while self.window.front().is_some_and(|c| c.version < horizon) {
            self.window.pop_front();
        }
        self.window.push_back(CommittedWrites {
            version,
            writes: writes.into(),
        });
    }
}

/// Half-open interval intersection.
fn ranges_intersect(a1: &[u8], a2: &[u8], b1: &[u8], b2: &[u8]) -> bool {
    a1 < b2 && b1 < a2
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the window tests record: the write conflicts of ranges alone.
    impl From<&Vec<(Vec<u8>, Vec<u8>)>> for WriteConflicts {
        fn from(ranges: &Vec<(Vec<u8>, Vec<u8>)>) -> Self {
            WriteConflicts::new([], ranges.clone())
        }
    }

    #[test]
    fn shard_masks_cover_their_ranges() {
        // A point write conflict spans one shard.
        let key = b"t3/k42".to_vec();
        let end = crate::key_after(&key);
        assert_eq!(range_shard_mask(&key, &end).count_ones(), 1);
        // A range within one two-byte prefix stays on one shard.
        assert_eq!(range_shard_mask(b"t3/a", b"t3/z").count_ones(), 1);
        // A wide range covers every shard.
        assert_eq!(
            range_shard_mask(b"a", b"z"),
            u16::MAX >> (16 - CONFLICT_SHARDS)
        );
        // An end key that equals the two-byte prefix excludes that prefix.
        assert_eq!(
            range_shard_mask(b"t3", b"t4"),
            1 << shard_of_prefix(prefix_value(b"t3"))
        );
        // Membership: any key inside a range maps into the range's mask.
        let (begin, end) = (b"ab".to_vec(), b"ae/tail".to_vec());
        let mask = range_shard_mask(&begin, &end);
        for key in [&b"ab"[..], b"abz", b"ac", b"ad/x", b"ae", b"ae/taik"] {
            assert!(
                mask & (1 << shard_of_prefix(prefix_value(key))) != 0,
                "key {key:?} escapes mask {mask:#018b}"
            );
        }
        // Regression: an end of the form [b, 0x00] — key_after of the
        // one-byte key [b] — still admits [b] itself, whose zero-padded
        // prefix equals end's own. Its shard must stay in the mask even
        // when the range is narrow enough to dodge the full-mask
        // fallback: [b"a\xf5", b"b\x00") contains b"b".
        let end = crate::key_after(b"b");
        let mask = range_shard_mask(b"a\xf5", &end);
        assert!(
            mask & (1 << shard_of_prefix(prefix_value(b"b"))) != 0,
            "one-byte key b\"b\" escapes mask {mask:#018b} for range [a\\xf5, b\\x00)"
        );
    }

    /// Membership, exhaustively: every key of length ≤ 3 over an alphabet
    /// with the edge bytes 0x00, 0x01 and 0xFF and the shard wrap
    /// 0x0F/0x10/0x11 (585 keys), against every non-empty range whose
    /// bounds are two of those keys. Sorted, the keys inside `[k_i, k_j)`
    /// are exactly `k_i..k_j`, so growing `j` one key at a time keeps the
    /// union of their shards, which must stay inside the range's mask.
    #[test]
    fn every_short_key_in_a_range_maps_into_its_mask() {
        const ALPHABET: [u8; 8] = [0x00, 0x01, 0x0F, 0x10, 0x11, 0x7F, 0x80, 0xFF];
        let mut keys: Vec<Vec<u8>> = vec![Vec::new()];
        let mut last_len = keys.clone();
        for _ in 0..3 {
            last_len = last_len
                .iter()
                .flat_map(|k| ALPHABET.iter().map(move |&b| [&k[..], &[b]].concat()))
                .collect();
            keys.extend(last_len.iter().cloned());
        }
        keys.sort();
        assert_eq!(keys.len(), 585);
        let mut checks = 0u64;
        for (i, begin) in keys.iter().enumerate() {
            let mut inside = 0u16;
            for (n, pair) in keys[i..].windows(2).enumerate() {
                let (last_inside, end) = (&pair[0], &pair[1]);
                inside |= 1 << shard_of_prefix(prefix_value(last_inside));
                let mask = range_shard_mask(begin, end);
                assert_eq!(
                    inside & !mask,
                    0,
                    "a key of [{begin:x?}, {end:x?}) escapes mask {mask:#018b}"
                );
                checks += n as u64 + 1;
            }
        }
        // Every key/range pair the union stands for.
        assert_eq!(checks, 585 * 584 * 586 / 6);
    }

    #[test]
    fn disjoint_tenant_commits_use_disjoint_shards() {
        // Tenant prefixes "t0/".."t7/" land on eight distinct shards, the
        // layout the concurrency_scaling bench relies on.
        let mut shards = std::collections::HashSet::new();
        for t in 0..8 {
            let key = format!("t{t}/row");
            let end = crate::key_after(key.as_bytes());
            let mask = range_shard_mask(key.as_bytes(), &end);
            assert_eq!(mask.count_ones(), 1);
            shards.insert(mask);
        }
        assert_eq!(shards.len(), 8);
    }

    #[test]
    fn window_scan_stops_at_the_read_version_and_prunes_below_the_horizon() {
        let range = |a: &[u8], b: &[u8]| vec![(a.to_vec(), b.to_vec())];
        let mut shard = ConflictShard::default();
        shard.record(10, 0, &range(b"a", b"c"));
        shard.record(20, 0, &range(b"m", b"p"));
        // Only writes after the read version count.
        assert!(shard.conflicts_with(15, &range(b"n", b"o")));
        assert!(!shard.conflicts_with(20, &range(b"n", b"o")));
        assert!(shard.conflicts_with(5, &range(b"b", b"d")));
        assert!(!shard.conflicts_with(15, &range(b"b", b"d")));
        // Half-open: a read ending where a write begins does not meet it.
        assert!(!shard.conflicts_with(5, &range(b"c", b"m")));
        // Recording at a horizon past version 10 drops that entry.
        shard.record(30, 11, &range(b"x", b"y"));
        assert!(!shard.conflicts_with(0, &range(b"a", b"c")));
        assert_eq!(shard.window.len(), 2);
    }

    /// A commit whose writes touch two shards is kept once, by both
    /// windows: a reader of a written key conflicts on either shard, and
    /// the commit is freed once both windows pass the horizon.
    #[test]
    fn a_commit_on_two_shards_is_stored_once_and_pruned_from_both() {
        let (a, b) = (b"t0/a".to_vec(), b"t1/b".to_vec());
        let writes = WriteConflicts::new([&a[..], &b[..]], Vec::new());
        assert_eq!(writes.shard_mask(), key_shard_mask(&a) | key_shard_mask(&b));
        assert_eq!(writes.shard_mask().count_ones(), 2);
        for key in [&a, &b] {
            let point = range_shard_mask(key, &crate::key_after(key));
            assert_eq!(point, key_shard_mask(key));
        }
        let mut shards = [ConflictShard::default(), ConflictShard::default()];
        for shard in &mut shards {
            shard.record(10, 0, writes.clone());
        }
        let stored = |shard: &ConflictShard| Arc::as_ptr(&shard.window[0].writes.0);
        assert_eq!(stored(&shards[0]), stored(&shards[1]));
        assert_eq!(Arc::strong_count(&writes.0), 3);
        let reads = |begin: &[u8], end: &[u8]| vec![(begin.to_vec(), end.to_vec())];
        for shard in &shards {
            for key in [&a, &b] {
                assert!(shard.conflicts_with(5, &reads(key, &crate::key_after(key))));
                assert!(!shard.conflicts_with(10, &reads(key, &crate::key_after(key))));
            }
            assert!(shard.conflicts_with(5, &reads(b"t0/", b"t0/b")));
            assert!(!shard.conflicts_with(5, &reads(b"t0/", b"t0/a")));
            assert!(!shard.conflicts_with(5, &reads(b"t0/a\x00", b"t1/b")));
        }
        shards[0].record(20, 11, WriteConflicts::default());
        assert_eq!(Arc::strong_count(&writes.0), 2);
        shards[1].record(20, 11, WriteConflicts::default());
        assert_eq!(Arc::strong_count(&writes.0), 1, "a window still holds it");
    }
}
