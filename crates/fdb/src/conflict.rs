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

/// Every conflict shard.
pub(crate) const ALL_SHARDS: u16 = u16::MAX >> (16 - CONFLICT_SHARDS);

/// The shards a commit locks: those its conflicts can touch — or all of
/// them when it writes the metadata-version key. Transactions that rely
/// on cached state check the metadata version under whatever shards they
/// hold (see `Database::commit_internal`) instead of reading the key, so
/// only the rare writer pays for the exclusion and every other commit's
/// mask stays what its own keys make it.
pub(crate) fn commit_shard_mask(
    read_conflicts: &ReadConflicts,
    write_conflicts: &ConflictSet,
    writes_metadata_version: bool,
) -> u16 {
    if writes_metadata_version {
        ALL_SHARDS
    } else {
        read_conflicts.shard_mask() | write_conflicts.shard_mask()
    }
}

/// The shard of a single key: what [`range_shard_mask`] gives for
/// `[key, key_after(key))`, whose keys all share `key`'s padded prefix.
fn key_shard_mask(key: &[u8]) -> u16 {
    1 << shard_of_prefix(prefix_value(key))
}

/// One conflict of a [`ConflictSet`]: a point, which stands for the
/// range `[key, key_after(key))` without building its end, or a half-open
/// range `[begin, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Conflict<'a> {
    Point(&'a [u8]),
    Range(&'a [u8], &'a [u8]),
}

impl Conflict<'_> {
    fn shard_mask(self) -> u16 {
        match self {
            Conflict::Point(key) => key_shard_mask(key),
            Conflict::Range(begin, end) => range_shard_mask(begin, end),
        }
    }

    /// Whether the two conflicts share a key. A point `[k, key_after(k))`
    /// holds `k` alone, and the only keys below `key_after(k)` are those
    /// up to `k`, so each case is the range test spelt without the end.
    fn meets(self, other: Conflict<'_>) -> bool {
        match (self, other) {
            (Conflict::Point(a), Conflict::Point(b)) => a == b,
            (Conflict::Point(key), Conflict::Range(begin, end))
            | (Conflict::Range(begin, end), Conflict::Point(key)) => begin <= key && key < end,
            (Conflict::Range(a1, a2), Conflict::Range(b1, b2)) => a1 < b2 && b1 < a2,
        }
    }
}

/// A transaction's conflicts in one arena: back to back, each key after
/// its length. A transaction's read conflicts are one, filled as it reads:
/// its first [`READ_INLINE`] bytes lie in the set itself, so a transaction
/// that reads a few keys allocates nothing for them, and past that one
/// heap block holds them all and grows as a `Vec` does. A commit's write
/// conflicts are another, built in one block of their final size
/// (`INLINE` 0) and shared by the conflict window, which keeps them until
/// the MVCC horizon passes it: a point costs its key and four bytes.
#[derive(Debug, Clone)]
pub(crate) struct ConflictSet<const INLINE: usize = 0> {
    bytes: Arena<INLINE>,
}

/// The read conflicts of a transaction.
pub(crate) type ReadConflicts = ConflictSet<READ_INLINE>;

/// Bytes of read conflicts a transaction holds without a heap block: room
/// for a record load's range and a few point reads (a conflict costs its
/// keys and four bytes for each).
pub(crate) const READ_INLINE: usize = 192;

/// The bytes of a [`ConflictSet`]: inline until they outgrow `INLINE`,
/// then in one heap block.
#[derive(Debug, Clone)]
enum Arena<const INLINE: usize> {
    Inline { len: usize, bytes: [u8; INLINE] },
    Heap(Vec<u8>),
}

/// The mark, in the length before a range's begin, that an end follows.
const RANGE: u32 = 1 << 31;

impl<const INLINE: usize> Default for ConflictSet<INLINE> {
    fn default() -> Self {
        ConflictSet {
            bytes: Arena::Inline {
                len: 0,
                bytes: [0; INLINE],
            },
        }
    }
}

impl<const INLINE: usize> ConflictSet<INLINE> {
    /// An empty set in one block with room for `bytes` key bytes in all,
    /// and for `points` points and `ranges` ranges.
    pub(crate) fn with_capacity(bytes: usize, points: usize, ranges: usize) -> Self {
        let lengths = 4 * (points + 2 * ranges);
        ConflictSet {
            bytes: Arena::Heap(Vec::with_capacity(bytes + lengths)),
        }
    }

    /// Make room for `additional` more bytes: past `INLINE`, the bytes
    /// move to a heap block twice the size they need.
    fn reserve(&mut self, additional: usize) {
        if let Arena::Inline { len, bytes } = &self.bytes {
            if len + additional > INLINE {
                let mut heap = Vec::with_capacity(2 * (len + additional));
                heap.extend_from_slice(&bytes[..*len]);
                self.bytes = Arena::Heap(heap);
            }
        }
    }

    /// Append `key` after its length, its top bit `mark`.
    fn push_key(&mut self, key: &[u8], mark: u32) {
        let length = u32::try_from(key.len())
            .ok()
            .filter(|len| len & RANGE == 0)
            .expect("a key is shorter than 2^31 bytes: a transaction holds at most 10 MB");
        let length = (length | mark).to_le_bytes();
        match &mut self.bytes {
            Arena::Inline { len, bytes } => {
                bytes[*len..*len + 4].copy_from_slice(&length);
                bytes[*len + 4..*len + 4 + key.len()].copy_from_slice(key);
                *len += 4 + key.len();
            }
            Arena::Heap(heap) => {
                heap.extend_from_slice(&length);
                heap.extend_from_slice(key);
            }
        }
    }

    /// Add the point conflict on `key`.
    pub(crate) fn push_point(&mut self, key: &[u8]) {
        self.reserve(4 + key.len());
        self.push_key(key, 0);
    }

    /// Add the range conflict `[begin, end)`.
    pub(crate) fn push_range(&mut self, begin: &[u8], end: &[u8]) {
        self.reserve(8 + begin.len() + end.len());
        self.push_key(begin, RANGE);
        self.push_key(end, 0);
    }

    fn as_bytes(&self) -> &[u8] {
        match &self.bytes {
            Arena::Inline { len, bytes } => &bytes[..*len],
            Arena::Heap(heap) => heap,
        }
    }

    /// The conflicts, in the order they were added.
    pub(crate) fn iter(&self) -> impl Iterator<Item = Conflict<'_>> {
        let mut rest = self.as_bytes();
        let mut key = move || {
            let (length, tail) = rest.split_first_chunk::<4>()?;
            let length = u32::from_le_bytes(*length);
            let (key, tail) = tail.split_at((length & !RANGE) as usize);
            rest = tail;
            Some((key, length & RANGE != 0))
        };
        std::iter::from_fn(move || {
            Some(match key()? {
                (begin, true) => Conflict::Range(begin, key()?.0),
                (point, false) => Conflict::Point(point),
            })
        })
    }

    /// The union of the conflicts' shards.
    pub(crate) fn shard_mask(&self) -> u16 {
        self.iter().fold(0, |mask, c| mask | c.shard_mask())
    }

    /// Whether any of these conflicts shares a key with any of `other`'s.
    fn meets<const OTHER: usize>(&self, other: &ConflictSet<OTHER>) -> bool {
        self.iter().any(|c| other.iter().any(|o| c.meets(o)))
    }
}

/// One entry in the conflict-detection window: the write conflicts of a
/// committed transaction, recorded under its commit version. They are
/// built once at commit and shared by the window of every shard they
/// touch (a clone is a reference count).
#[derive(Debug)]
struct CommittedWrites {
    version: u64,
    writes: Arc<ConflictSet>,
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
    pub(crate) fn conflicts_with(&self, read_version: u64, read_conflicts: &ReadConflicts) -> bool {
        for committed in self.window.iter().rev() {
            if committed.version <= read_version {
                break;
            }
            if read_conflicts.meets(&committed.writes) {
                return true;
            }
        }
        false
    }

    /// Record a commit's write conflicts at its `version`, first dropping
    /// the entries older than the MVCC `horizon`: no transaction that could
    /// still commit reads below it.
    pub(crate) fn record(
        &mut self,
        version: u64,
        horizon: u64,
        writes: impl Into<Arc<ConflictSet>>,
    ) {
        while self.window.front().is_some_and(|c| c.version < horizon) {
            self.window.pop_front();
        }
        self.window.push_back(CommittedWrites {
            version,
            writes: writes.into(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The conflict set of the one range `[begin, end)`.
    fn range<const INLINE: usize>(begin: &[u8], end: &[u8]) -> ConflictSet<INLINE> {
        let mut set = ConflictSet::default();
        set.push_range(begin, end);
        set
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

    /// The representation the arena replaced: every read conflict a
    /// `(begin, end)` pair, a point read `(key, key_after(key))`; a
    /// commit's written keys apart from its ranges.
    #[derive(Default)]
    struct PairModel {
        reads: Vec<(Vec<u8>, Vec<u8>)>,
        write_keys: Vec<Vec<u8>>,
        write_ranges: Vec<(Vec<u8>, Vec<u8>)>,
    }

    impl PairModel {
        fn mask(ranges: &[(Vec<u8>, Vec<u8>)]) -> u16 {
            ranges
                .iter()
                .fold(0, |m, (b, e)| m | range_shard_mask(b, e))
        }

        fn commit_shard_mask(&self) -> u16 {
            let keys = self.write_keys.iter().fold(0, |m, k| m | key_shard_mask(k));
            Self::mask(&self.reads) | Self::mask(&self.write_ranges) | keys
        }

        /// The intersection test the arena replaced, for one read.
        fn meets(&self, (begin, end): &(Vec<u8>, Vec<u8>)) -> bool {
            self.write_keys.iter().any(|k| begin <= k && k < end)
                || self
                    .write_ranges
                    .iter()
                    .any(|(wa, wb)| begin < wb && wa < end)
        }
    }

    /// Seeded differential of the conflict arena against the pair model
    /// it replaced: shard masks and conflict verdicts over keys of up to
    /// three bytes from an alphabet with the edge bytes, so keys collide
    /// and ranges straddle shards. Each read is one of the generator's
    /// kinds, and the test asserts that each kind both met a write and
    /// missed every write at least once:
    ///
    /// * a point read, kept as its key alone;
    /// * a range read;
    /// * a limited read stopped going forward, `[begin, key_after(last))`;
    /// * a limited read stopped going backward, `[last, end)`;
    /// * a range whose end is `[b, 0x00]`, `key_after` of a one-byte key
    ///   (the shard-mask case of `range_shard_mask`'s comment);
    /// * an empty or inverted range (the pair model lets one meet a write
    ///   range around it, and so does the arena).
    ///
    /// Writes are points (buffered keys, versionstamped placeholders) and
    /// ranges (clears), and the test asserts that a point read met a point
    /// and a range, and a range read met a point and a range.
    #[test]
    fn conflict_arena_matches_the_pair_model() {
        const ALPHABET: [u8; 6] = [0x00, 0x01, 0x0F, 0x10, b'a', 0xFF];
        const KINDS: [&str; 6] = [
            "point",
            "range",
            "limited forward",
            "limited backward",
            "end [b, 0x00]",
            "empty or inverted",
        ];
        let mut rng = 0xC0_FF1C_7A12_u64;
        let mut next = |n: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % n as u64) as usize
        };
        let key = |next: &mut dyn FnMut(usize) -> usize| -> Vec<u8> {
            (0..next(4))
                .map(|_| ALPHABET[next(ALPHABET.len())])
                .collect()
        };
        let (mut met, mut missed) = ([false; 6], [false; 6]);
        let mut arms = [false; 4]; // point/point, point/range, range/point, range/range
        for case in 0..3000 {
            let mut model = PairModel::default();
            let (mut reads, mut kinds) = (ReadConflicts::default(), Vec::new());
            for _ in 0..1 + next(4) {
                let kind = next(KINDS.len());
                let (a, b) = (key(&mut next), key(&mut next));
                if kind == 0 {
                    reads.push_point(&a);
                    model.reads.push((a.clone(), crate::key_after(&a)));
                    kinds.push(kind);
                    continue;
                }
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                let pair = match kind {
                    // A backward stop's range begins at the last row,
                    // `lo` here: the same shape as a plain range.
                    1 | 3 => (lo, hi),
                    2 => (lo, crate::key_after(&hi)),
                    4 => (lo, crate::key_after(&[ALPHABET[next(ALPHABET.len())]])),
                    _ if next(2) == 0 => (hi.clone(), hi),
                    _ => (hi, lo),
                };
                reads.push_range(&pair.0, &pair.1);
                model.reads.push(pair);
                kinds.push(kind);
            }
            let mut writes = ConflictSet::default();
            for _ in 0..next(4) {
                let k = key(&mut next);
                writes.push_point(&k);
                model.write_keys.push(k);
            }
            for _ in 0..next(3) {
                let (a, b) = (key(&mut next), key(&mut next));
                writes.push_range(&a, &b);
                model.write_ranges.push((a, b));
            }
            let what = format!("case {case}: reads {:x?}", model.reads);
            assert_eq!(
                commit_shard_mask(&reads, &writes, false),
                model.commit_shard_mask(),
                "{what}"
            );
            let writes = Arc::new(writes);
            let mut shard = ConflictShard::default();
            shard.record(10, 0, writes.clone());
            let verdict = model.reads.iter().any(|read| model.meets(read));
            assert_eq!(shard.conflicts_with(5, &reads), verdict, "{what}");
            assert!(!shard.conflicts_with(10, &reads), "{what}");
            for ((read, conflict), &kind) in model.reads.iter().zip(reads.iter()).zip(&kinds) {
                let hit = model.meets(read);
                let mut alone = ConflictSet::default();
                match conflict {
                    Conflict::Point(k) => alone.push_point(k),
                    Conflict::Range(b, e) => alone.push_range(b, e),
                }
                assert_eq!(shard.conflicts_with(5, &alone), hit, "{what}: {read:x?}");
                met[kind] |= hit;
                missed[kind] |= !hit;
                for write in writes.iter().filter(|&w| conflict.meets(w)) {
                    let arm = match (conflict, write) {
                        (Conflict::Point(_), Conflict::Point(_)) => 0,
                        (Conflict::Point(_), Conflict::Range(..)) => 1,
                        (Conflict::Range(..), Conflict::Point(_)) => 2,
                        (Conflict::Range(..), Conflict::Range(..)) => 3,
                    };
                    arms[arm] = true;
                }
            }
        }
        for (kind, name) in KINDS.iter().enumerate() {
            assert!(missed[kind], "no {name} read missed every write");
            assert!(met[kind] || kind == 5, "no {name} read met a write");
        }
        assert_eq!(arms, [true; 4], "intersection arms reached");
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

    /// A read set keeps its conflicts as they were added across the move
    /// from inline bytes to the heap, and a key as long as a key may be
    /// keeps its length.
    #[test]
    fn read_conflicts_survive_the_move_to_the_heap() {
        let mut reads = ReadConflicts::default();
        let mut added = Vec::new();
        for i in 0..40u8 {
            let key = vec![i; usize::from(i % 7) * 3];
            let end = match i % 3 {
                0 => None,
                _ => Some(vec![i, 0xFF]),
            };
            match &end {
                None => reads.push_point(&key),
                Some(end) => reads.push_range(&key, end),
            }
            added.push((key, end));
            assert!(reads.iter().eq(added.iter().map(|(key, end)| match end {
                None => Conflict::Point(key),
                Some(end) => Conflict::Range(key, end),
            })));
        }
        assert!(matches!(reads.bytes, Arena::Heap(_)));
        let long = vec![7u8; crate::options::KEY_SIZE_LIMIT + 1];
        reads.push_range(&long, &long);
        assert_eq!(reads.iter().last(), Some(Conflict::Range(&long, &long)));
    }

    #[test]
    fn window_scan_stops_at_the_read_version_and_prunes_below_the_horizon() {
        let mut shard = ConflictShard::default();
        shard.record(10, 0, range::<0>(b"a", b"c"));
        shard.record(20, 0, range::<0>(b"m", b"p"));
        // Only writes after the read version count.
        assert!(shard.conflicts_with(15, &range(b"n", b"o")));
        assert!(!shard.conflicts_with(20, &range(b"n", b"o")));
        assert!(shard.conflicts_with(5, &range(b"b", b"d")));
        assert!(!shard.conflicts_with(15, &range(b"b", b"d")));
        // Half-open: a read ending where a write begins does not meet it.
        assert!(!shard.conflicts_with(5, &range(b"c", b"m")));
        // Recording at a horizon past version 10 drops that entry.
        shard.record(30, 11, range::<0>(b"x", b"y"));
        assert!(!shard.conflicts_with(0, &range(b"a", b"c")));
        assert_eq!(shard.window.len(), 2);
    }

    /// A commit whose writes touch two shards is kept once, by both
    /// windows: a reader of a written key conflicts on either shard, and
    /// the commit is freed once both windows pass the horizon.
    #[test]
    fn a_commit_on_two_shards_is_stored_once_and_pruned_from_both() {
        let (a, b) = (b"t0/a".to_vec(), b"t1/b".to_vec());
        let mut points = ConflictSet::default();
        points.push_point(&a);
        points.push_point(&b);
        let writes = Arc::new(points);
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
        let stored = |shard: &ConflictShard| Arc::as_ptr(&shard.window[0].writes);
        assert_eq!(stored(&shards[0]), stored(&shards[1]));
        assert_eq!(Arc::strong_count(&writes), 3);
        for shard in &shards {
            for key in [&a, &b] {
                assert!(shard.conflicts_with(5, &range(key, &crate::key_after(key))));
                assert!(!shard.conflicts_with(10, &range(key, &crate::key_after(key))));
            }
            assert!(shard.conflicts_with(5, &range(b"t0/", b"t0/b")));
            assert!(!shard.conflicts_with(5, &range(b"t0/", b"t0/a")));
            assert!(!shard.conflicts_with(5, &range(b"t0/a\x00", b"t1/b")));
        }
        shards[0].record(20, 11, ConflictSet::<0>::default());
        assert_eq!(Arc::strong_count(&writes), 2);
        shards[1].record(20, 11, ConflictSet::<0>::default());
        assert_eq!(Arc::strong_count(&writes), 1, "a window still holds it");
    }
}
