//! Tests of the tree as a whole: each drives writes, reads, prunes and
//! cursors through several of this module's files at once.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use super::leaf::{entries_of, Entry, Key};
use super::*;
use crate::IoCounters;

fn pool(name: &str, pages: usize) -> (BufferPool, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("rl-storage-btree-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let p = BufferPool::open(&dir.join("pages.db"), pages, IoCounters::new_shared()).unwrap();
    (p, dir)
}

fn put(pool: &mut BufferPool, key: &[u8], version: u64, value: &[u8]) {
    write(pool, key, version, Some(value)).unwrap();
}

/// Keys a cursor yields until it ends or reaches `stop`.
fn keys_until(pool: &mut BufferPool, mut cursor: Cursor<'_>, stop: &[u8]) -> Vec<Vec<u8>> {
    let mut seen = Vec::new();
    while let Some((key, _)) = cursor.next(pool).unwrap() {
        if key == stop {
            break;
        }
        seen.push(key.to_vec());
    }
    seen
}

#[test]
fn put_get_many_keys_with_splits() {
    let (mut pool, dir) = pool("splits", 64);
    // Insert in a shuffled-ish order to exercise splits on both sides.
    let mut keys: Vec<u32> = (0..500).collect();
    keys.reverse();
    for &i in &keys {
        let key = format!("key-{i:05}").into_bytes();
        put(&mut pool, &key, 10, format!("val-{i}").as_bytes());
    }
    assert_eq!(check_consistency(&mut pool).unwrap(), 500);
    for i in (0..500).step_by(17) {
        let key = format!("key-{i:05}").into_bytes();
        assert_eq!(
            get(&mut pool, &key, 10).unwrap(),
            Some(format!("val-{i}").into_bytes())
        );
        assert_eq!(get(&mut pool, &key, 9).unwrap(), None);
    }
    assert!(get(&mut pool, b"missing", 10).unwrap().is_none());
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn big_values_spill_to_overflow() {
    let (mut pool, dir) = pool("overflow", 64);
    let big = vec![0x5A; 90_000]; // ~22 overflow pages
    put(&mut pool, b"big", 5, &big);
    put(&mut pool, b"small", 5, b"x");
    assert_eq!(get(&mut pool, b"big", 9).unwrap(), Some(big.clone()));
    // Pruning the big version away frees its overflow pages for reuse.
    put(&mut pool, b"big", 6, b"tiny-now");
    prune(&mut pool, b"big", 6).unwrap();
    assert_eq!(
        get(&mut pool, b"big", 9).unwrap(),
        Some(b"tiny-now".to_vec())
    );
    let pages = pool.page_count();
    put(&mut pool, b"big-again", 7, &big);
    assert_eq!(pool.page_count(), pages, "overflow pages reused");
    assert_eq!(check_consistency(&mut pool).unwrap(), 3);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn long_keys_spill_to_overflow() {
    let (mut pool, dir) = pool("longkeys", 64);
    let mut long_a = vec![b'a'; 9_000];
    long_a.push(1);
    let mut long_b = vec![b'a'; 9_000]; // shares a 9000-byte prefix
    long_b.push(2);
    put(&mut pool, &long_a, 5, b"A");
    put(&mut pool, &long_b, 5, b"B");
    put(&mut pool, b"zz", 5, b"Z");
    assert_eq!(get(&mut pool, &long_a, 9).unwrap(), Some(b"A".to_vec()));
    assert_eq!(get(&mut pool, &long_b, 9).unwrap(), Some(b"B".to_vec()));
    assert_eq!(check_consistency(&mut pool).unwrap(), 3);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn cursors_stream_both_directions() {
    let (mut pool, dir) = pool("cursors", 64);
    for i in 0..200u32 {
        let key = format!("k{i:04}").into_bytes();
        put(&mut pool, &key, 10, &i.to_le_bytes());
    }
    let cursor = Cursor::seek(&mut pool, b"k0050", None, true).unwrap();
    let seen = keys_until(&mut pool, cursor, b"k0060");
    let want: Vec<Vec<u8>> = (50..60).map(|i| format!("k{i:04}").into_bytes()).collect();
    assert_eq!(seen, want);

    let cursor = Cursor::seek(&mut pool, b"k0010", None, false).unwrap();
    let seen = keys_until(&mut pool, cursor, b"");
    let want: Vec<Vec<u8>> = (0..10)
        .rev()
        .map(|i| format!("k{i:04}").into_bytes())
        .collect();
    assert_eq!(seen, want);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn prune_removes_dead_keys() {
    let (mut pool, dir) = pool("remove", 64);
    for i in 0..100u32 {
        put(&mut pool, format!("k{i:03}").as_bytes(), 10, b"v");
    }
    for i in (0..100u32).step_by(2) {
        let key = format!("k{i:03}");
        assert!(write(&mut pool, key.as_bytes(), 20, None).unwrap());
        prune(&mut pool, key.as_bytes(), 15).unwrap(); // still visible at 15
    }
    assert_eq!(check_consistency(&mut pool).unwrap(), 100);
    for i in (0..100u32).step_by(2) {
        prune(&mut pool, format!("k{i:03}").as_bytes(), 20).unwrap();
    }
    prune(&mut pool, b"k000", 20).unwrap(); // gone already: a no-op
    prune(&mut pool, b"k001", 20).unwrap(); // a lone value stays
    assert_eq!(check_consistency(&mut pool).unwrap(), 50);
    assert!(get(&mut pool, b"k001", 10).unwrap().is_some());
    assert!(get(&mut pool, b"k002", 10).unwrap().is_none());
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn tiny_pool_still_correct() {
    // A 4-frame pool forces constant eviction under every operation.
    let (mut pool, dir) = pool("tiny", 4);
    for i in 0..300u32 {
        let key = format!("k{i:04}").into_bytes();
        put(&mut pool, &key, 10, format!("v{i}").as_bytes());
    }
    assert_eq!(check_consistency(&mut pool).unwrap(), 300);
    for i in (0..300).step_by(23) {
        assert_eq!(
            get(&mut pool, format!("k{i:04}").as_bytes(), 10).unwrap(),
            Some(format!("v{i}").into_bytes())
        );
    }
    std::fs::remove_dir_all(dir).unwrap();
}

/// The mixed case the in-place walk must not get wrong: leaves whose
/// entries alternate inline and overflow keys (neighbours sharing a
/// 9 000-byte prefix) and inline and overflow chains, under a root whose
/// separators are inline and overflow in turn.
#[test]
fn alternating_inline_and_overflow_entries() {
    let (mut pool, dir) = pool("mixed", 32);
    // Per group: a short key, then three long ones that extend it.
    let keys: Vec<Vec<u8>> = (0..75u32)
        .flat_map(|g| {
            let short = format!("g{g:03}").into_bytes();
            let long = |tail: u8| [&short[..], &[b'm'; 9_000], &[tail]].concat();
            [short.clone(), long(1), long(2), long(3)]
        })
        .collect();
    let n = keys.len();
    let value = |i: usize, round: u8| vec![round; if i.is_multiple_of(3) { 700 } else { 300 }];
    for step in 0..n {
        let i = step * 7 % n;
        put(&mut pool, &keys[i], 10, &value(i, 1));
        if step % 50 == 0 {
            check_consistency(&mut pool).unwrap();
        }
    }
    assert_eq!(check_consistency(&mut pool).unwrap(), n);
    let root = pool.root();
    let page = pool.read(root).unwrap();
    let index = parse_index(&page, root, TAG_INTERNAL).expect("enough entries to split");
    let (mut inline, mut overflow) = (0, 0);
    for &at in &index[..index.len() - 2] {
        match Reader::at(&page, at as usize + 4, root).blob().unwrap() {
            Blob::Inline(_) => inline += 1,
            Blob::Overflow(..) => overflow += 1,
        }
    }
    assert!(
        inline > 0 && overflow > 0,
        "{inline} inline, {overflow} overflow separators"
    );

    // Overwrite every fifth key, twice at one version, with a value of
    // the other size class: inline chains spill, spilled ones stay.
    let newest = |i: usize| match i % 5 {
        0 => value(i + 1, 3),
        _ => value(i, 1),
    };
    for i in (0..n).step_by(5) {
        put(&mut pool, &keys[i], 20, &value(i, 2));
        put(&mut pool, &keys[i], 20, &newest(i));
    }
    assert_eq!(check_consistency(&mut pool).unwrap(), n);
    for (i, key) in keys.iter().enumerate() {
        assert_eq!(get(&mut pool, key, 15).unwrap(), Some(value(i, 1)));
        assert_eq!(get(&mut pool, key, 25).unwrap(), Some(newest(i)));
        let absent = [&key[..], &[0]].concat();
        assert_eq!(get(&mut pool, &absent, 25).unwrap(), None);
    }

    let cursor = Cursor::seek(&mut pool, b"", None, true).unwrap();
    assert_eq!(keys_until(&mut pool, cursor, b"\xff"), keys);
    let cursor = Cursor::seek(&mut pool, b"\xff", None, false).unwrap();
    let mut reversed = keys_until(&mut pool, cursor, b"");
    reversed.reverse();
    assert_eq!(reversed, keys);
    // Seek between two overflow keys, both ways.
    let cursor = Cursor::seek(&mut pool, &keys[150], None, true).unwrap();
    assert_eq!(keys_until(&mut pool, cursor, &keys[153]), keys[150..153]);
    let cursor = Cursor::seek(&mut pool, &keys[150], None, false).unwrap();
    assert_eq!(
        keys_until(&mut pool, cursor, &keys[147]),
        [keys[149].clone(), keys[148].clone()]
    );

    // Trim and remove, inline and overflow alike.
    for i in (0..n).step_by(5) {
        prune(&mut pool, &keys[i], 20).unwrap();
        assert_eq!(get(&mut pool, &keys[i], 15).unwrap(), None);
    }
    for i in (0..n).step_by(2) {
        assert!(write(&mut pool, &keys[i], 30, None).unwrap());
        prune(&mut pool, &keys[i], 30).unwrap();
        prune(&mut pool, &keys[i], 30).unwrap();
    }
    assert_eq!(check_consistency(&mut pool).unwrap(), n / 2);
    for (i, key) in keys.iter().enumerate() {
        let want = (i % 2 == 1).then(|| newest(i));
        assert_eq!(get(&mut pool, key, 35).unwrap(), want);
    }
    std::fs::remove_dir_all(dir).unwrap();
}

/// Every node under `id` with its depth (the root's is 0).
fn nodes(pool: &mut BufferPool, id: PageId, depth: usize, out: &mut Vec<(usize, PageId, Page)>) {
    let page = pool.read(id).unwrap();
    out.push((depth, id, Arc::clone(&page)));
    if page[0] == TAG_INTERNAL {
        let at = parse_index(&page, id, TAG_INTERNAL).unwrap();
        for i in 0..at.len() - 1 {
            nodes(pool, child(&page, &at, i), depth + 1, out);
        }
    }
}

/// The binary `locate` against a `BTreeMap` model, on a tree three
/// levels deep whose keys mix inline and overflow (over
/// `INLINE_KEY_MAX` bytes) keys. For every key ever stored, its
/// successor `key\0`, a key below the first and one above the last,
/// `get` and a forward and a reverse limit-1 seek must agree with the
/// model; then each probe is written and read back. The generator case
/// that reaches each branch, each asserted to occur:
/// - `Equal` on an internal separator, which must go to the right
///   child: keys come in pairs `x`, `x\0`, so a split between a pair
///   makes `x\0` itself the separator, and `get` probes it.
/// - A probe landing on an overflow key: `get` of every long key ends
///   on the key itself. Neighbouring long keys share 145 bytes, so the
///   separators between them are overflow blobs too.
/// - An insertion point after a leaf's last entry: the write of the
///   key above the last, and of `l\0` for a long key `l` ending a leaf.
/// - Leaves `prune` shrinks: the keys of 60 groups are tombstoned and
///   pruned one by one, so the walk merges each leaf it leaves under a
///   quarter page with its neighbour, and drops the ones it empties. No
///   empty leaf is left, the tree has fewer leaves than before, and the
///   probes of those keys descend into the leaves that took their range.
#[test]
fn binary_locate_agrees_with_a_model() {
    let (mut pool, dir) = pool("model", 64);
    // A 100-byte common prefix keeps separators long, so internal
    // nodes fill after a few dozen leaves.
    let group = |g: u32| {
        let short = [&[b'p'; 100][..], format!("g{g:03}").as_bytes()].concat();
        let long = |tail: u8| [&short[..], &[b'm'; 40], &[tail]].concat();
        let succ = |key: &[u8]| [key, &[0]].concat();
        [
            short.clone(),
            succ(&short),
            long(1),
            succ(&long(1)),
            long(2),
        ]
    };
    let keys: Vec<Vec<u8>> = (0..200).flat_map(group).collect();
    assert!(keys.is_sorted());
    let n = keys.len();
    let value = |i: usize, round: u8| vec![round; 250 + i % 150];
    let mut model = BTreeMap::new();
    for step in 0..n {
        let i = step * 7 % n;
        put(&mut pool, &keys[i], 10, &value(i, 1));
        model.insert(keys[i].clone(), value(i, 1));
    }
    let before = leaf_keys(&mut pool).len();
    for key in &keys[300..600] {
        assert!(write(&mut pool, key, 20, None).unwrap());
        prune(&mut pool, key, 20).unwrap();
        model.remove(key);
    }
    assert_eq!(check_consistency(&mut pool).unwrap(), model.len());
    let after = leaf_keys(&mut pool);
    assert!(
        after.iter().all(|(_, keys)| !keys.is_empty()),
        "an empty leaf is left"
    );
    assert!(
        after.len() < before,
        "{before} leaves became {}",
        after.len()
    );

    let mut all = Vec::new();
    let root = pool.root();
    nodes(&mut pool, root, 0, &mut all);
    assert!(all.iter().any(|(depth, ..)| *depth == 2), "three levels");
    let (mut stored, mut overflow) = (0, 0);
    for (_, id, page) in all.iter().filter(|(_, _, page)| page[0] == TAG_INTERNAL) {
        let at = parse_index(page, *id, TAG_INTERNAL).unwrap();
        for &sep in &at[..at.len() - 2] {
            let sep = Reader::at(page, sep as usize + 4, *id).blob().unwrap();
            overflow += usize::from(matches!(sep, Blob::Overflow(..)));
            stored += usize::from(model.contains_key(&*sep.load(&mut pool).unwrap()));
        }
    }
    assert!(
        stored > 0 && overflow > 0,
        "{stored} separators equal to a stored key, {overflow} overflow separators"
    );

    let probes: Vec<Vec<u8>> = keys
        .iter()
        .flat_map(|key| [key.clone(), [&key[..], &[0]].concat()])
        .chain([b"a".to_vec(), b"q".to_vec()])
        .collect();
    let first = |pool: &mut BufferPool, probe: &[u8], forward| {
        let mut cursor = Cursor::seek(pool, probe, None, forward).unwrap();
        cursor.next(pool).unwrap().map(|(key, _)| key.to_vec())
    };
    for probe in &probes {
        assert_eq!(
            get(&mut pool, probe, 15).unwrap().as_ref(),
            model.get(probe)
        );
        let above = model.range(probe.clone()..).next().map(|(k, _)| k.clone());
        assert_eq!(first(&mut pool, probe, true), above);
        let below = model
            .range(..probe.clone())
            .next_back()
            .map(|(k, _)| k.clone());
        assert_eq!(first(&mut pool, probe, false), below);
    }
    for (i, probe) in probes.iter().enumerate() {
        put(&mut pool, probe, 30, &value(i, 2));
        assert_eq!(get(&mut pool, probe, 30).unwrap(), Some(value(i, 2)));
        model.insert(probe.clone(), value(i, 2));
    }
    assert_eq!(check_consistency(&mut pool).unwrap(), model.len());
    for (key, value) in &model {
        assert_eq!(get(&mut pool, key, 30).unwrap().as_ref(), Some(value));
    }
    std::fs::remove_dir_all(dir).unwrap();
}

/// Tuple-encoded elements, as `rl_fdb::tuple` packs them.
fn text(s: &str) -> Vec<u8> {
    [&[0x02], s.as_bytes(), &[0x00]].concat()
}

fn int(n: u64) -> Vec<u8> {
    let be = n.to_be_bytes();
    let zeros = be.iter().take_while(|&&b| b == 0).count();
    [&[0x14 + (8 - zeros) as u8], &be[zeros..]].concat()
}

/// Every leaf under the root, in key order: its id and its prefix.
fn leaves(pool: &mut BufferPool) -> Vec<(PageId, Vec<u8>)> {
    let (root, mut all) = (pool.root(), Vec::new());
    nodes(pool, root, 0, &mut all);
    all.iter()
        .filter(|(_, _, page)| page[0] == TAG_LEAF)
        .map(|(_, id, page)| (*id, leaf_prefix(page, *id).unwrap().to_vec()))
        .collect()
}

/// Every leaf in key order: its id and its keys.
fn leaf_keys(pool: &mut BufferPool) -> Vec<(PageId, Vec<Vec<u8>>)> {
    let (root, mut all) = (pool.root(), Vec::new());
    nodes(pool, root, 0, &mut all);
    let mut out = Vec::new();
    for (_, id, page) in all.iter().filter(|(_, _, page)| page[0] == TAG_LEAF) {
        let at = parse_index(page, *id, TAG_LEAF).unwrap();
        let entries = entries_of(page, *id, &at).unwrap();
        let keys = entries
            .iter()
            .map(|e| e.key.whole(pool).unwrap().into_owned());
        out.push((*id, keys.collect()));
    }
    out
}

/// Run `op` on `key` and sort what it did to the prefix of the key's
/// leaf into `seen`: an insert under an unchanged prefix, an insert that
/// shortened it, a removal that lengthened it, a split whose halves both
/// store a longer prefix than the leaf did, and a removal that left one
/// leaf fewer — the key's leaf emptied and dropped, or shrunk under a
/// quarter page and merged with a neighbour. No checkpoint runs, so every
/// page is fresh and a leaf keeps its id, and a split's right half is the
/// leaf after it.
fn observe(
    pool: &mut BufferPool,
    key: &[u8],
    insert: bool,
    seen: &mut [usize; 5],
    op: impl FnOnce(&mut BufferPool),
) {
    if pool.root() == NO_PAGE {
        return op(pool);
    }
    let (leaf, _) = descend(pool, key, |_, _, _, _| {}).unwrap();
    let before = leaves(pool);
    op(pool);
    let after = leaves(pool);
    if after.len() < before.len() {
        seen[4] += 1;
        return;
    }
    let at = |all: &[(PageId, Vec<u8>)]| all.iter().position(|(id, _)| *id == leaf).unwrap();
    let (old, new) = (&before[at(&before)].1, &after[at(&after)].1);
    if after.len() > before.len() {
        let right = &after[at(&after) + 1].1;
        seen[3] += usize::from(new.len() > old.len() && right.len() > old.len());
        return;
    }
    match (insert, new.len().cmp(&old.len())) {
        (true, Ordering::Equal) => seen[0] += 1,
        (true, Ordering::Less) => seen[1] += 1,
        (false, Ordering::Greater) => seen[2] += 1,
        _ => {}
    }
}

/// A tree that `observe`s every change it is given.
struct Observed {
    pool: BufferPool,
    live: BTreeMap<Vec<u8>, Vec<u8>>,
    seen: [usize; 5],
}

impl Observed {
    fn save(&mut self, key: Vec<u8>, value: Vec<u8>, version: u64) {
        observe(&mut self.pool, &key, true, &mut self.seen, |pool| {
            put(pool, &key, version, &value)
        });
        self.live.insert(key, value);
    }

    /// A tombstone, then pruned at its own version: the key goes.
    fn remove(&mut self, key: &[u8], version: u64) {
        write(&mut self.pool, key, version, None).unwrap();
        observe(&mut self.pool, key, false, &mut self.seen, |pool| {
            prune(pool, key, version).unwrap()
        });
        self.live.remove(key);
    }
}

/// A 100-record load commit as the engine gets it: one sorted batch
/// whose keys share leaves — each record's payload beside its version
/// key, its index entries among their index's — and whose ADDs hit a
/// few counter keys over and over. Three stores of 600 records each,
/// then 100 new records of store 1: per record its payload and version
/// keys, two index entries, and an ADD to the store's record count and
/// to its group's score sum, 600 commands on 408 keys. The walk reads
/// each leaf the batch touches once, and each node above those leaves
/// once, and writes no page twice: here 23 leaves under 3 internal
/// nodes, so 26 pages read and 31 written, split pieces and patched
/// parents included. One at a time, the same commands would cost 600
/// root-to-leaf descents and 600 leaf images.
#[test]
fn a_hundred_record_commit_writes_each_touched_leaf_once() {
    let dir = std::env::temp_dir().join(format!("rl-storage-btree-{}-load", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let counters = IoCounters::new_shared();
    let mut pool = BufferPool::open(&dir.join("pages.db"), 4096, counters.clone()).unwrap();
    let store = |s: u64| [text("tenant"), int(1_000 + s), text("notes")].concat();
    let record = |s: u64, pk: u64, split: u64| [store(s), int(1), int(pk), int(split)].concat();
    let entry = |s: u64, name: &str, value: Vec<u8>, pk: u64| {
        [store(s), int(2), text(name), value, int(pk)].concat()
    };
    let stat = |s: u64, name: &str, group: u64| [store(s), int(3), text(name), int(group)].concat();
    let keys_of = |s: u64, pk: u64| {
        let group = text(&format!("group-{}", pk % 7));
        [
            record(s, pk, 0),
            record(s, pk, 1),
            entry(s, "by_group", group, pk),
            entry(s, "by_score", int(pk * 37 % 1_000), pk),
        ]
    };
    for s in 0..3 {
        for pk in 1..=600 {
            for key in keys_of(s, pk) {
                put(&mut pool, &key, 10, &[pk as u8; 40]);
            }
        }
    }
    let mut commands = Vec::new();
    for pk in 601..=700 {
        commands.extend(keys_of(1, pk));
        commands.push(stat(1, "record_count", 0));
        commands.push(stat(1, "score_sum", pk % 7));
    }
    let batch: BTreeMap<Vec<u8>, usize> = commands
        .iter()
        .map(|key| (key.clone(), key.len()))
        .collect();
    assert_eq!((commands.len(), batch.len()), (600, 408));

    // Where the batch lands: its leaves, and the nodes above them.
    let (mut leaves, mut above) = (BTreeSet::new(), BTreeSet::new());
    for key in batch.keys() {
        let (leaf, _) = descend(&mut pool, key, |id, _, _, _| {
            above.insert(id);
        })
        .unwrap();
        leaves.insert(leaf);
    }
    assert!(
        !above.is_empty() && leaves.len() * 5 < batch.len(),
        "{} leaves",
        leaves.len()
    );

    pool.written.clear();
    let before = counters.snapshot();
    let steps = batch.iter().map(|(key, len)| (key.as_slice(), *len));
    apply(&mut pool, steps, |_, len, stored| {
        let value = vec![7; len];
        Ok(Edit::Put(
            chain_pushed(stored.unwrap_or_default(), 20, Some(&value))?.0,
        ))
    })
    .unwrap();
    let io = counters.snapshot().delta(&before);
    assert_eq!(
        io.page_hits + io.page_misses,
        (leaves.len() + above.len()) as u64,
        "each touched leaf and each node above them read once"
    );
    let mut written = pool.written.clone();
    written.sort_unstable();
    let distinct = written.len();
    written.dedup();
    assert_eq!(written.len(), distinct, "no page written twice");
    assert!(leaves
        .iter()
        .all(|leaf| written.binary_search(leaf).is_ok()));
    assert_eq!(check_consistency(&mut pool).unwrap(), 3 * 600 * 4 + 408);
    for (key, len) in &batch {
        assert_eq!(get(&mut pool, key, 20).unwrap(), Some(vec![7; *len]));
    }
    std::fs::remove_dir_all(dir).unwrap();
}

/// The exact layout of a seeded tree of record-layer keys. Three stores
/// (`("tenant", 1000 + s, "notes")`) get 400 records each, saved in a
/// shuffled order: the record under `RECORDS` (1) with a 100-byte
/// value, and empty-valued entries under `INDEXES` (2) in `by_group`,
/// `by_score` and, for every eighth record, `by_title`. Then every
/// other save is revisited: an even primary key is deleted, an odd one
/// rescored (its old `by_score` entry removed, a new one saved). Last,
/// store 1 is deleted key by key, as deleting a store clears its
/// subspace. The generator case that reaches each branch of the leaf
/// codec, each asserted to occur (how often, on this seed):
/// - a splice under an unchanged prefix (4 005 inserts): a record or
///   entry landing among keys of its own store and subspace;
/// - a re-encode when an insert shortens the prefix (2): primary keys
///   1–400 and scores 0–999 are one- and two-byte tuple ints (`0x15 n`,
///   `0x16 hi lo`), and subspaces follow one another, so a leaf on one
///   side of such a boundary meets a key from the other side;
/// - a re-encode when removing an end key lengthens the prefix (7): the
///   leaves that hold the end of store 0 or the start of store 2 beside
///   keys of store 1 lose the last of those keys in the store's delete;
/// - a removal that leaves one leaf fewer (22): the deletes empty leaves,
///   which are dropped, or leave them under a quarter page, and they merge
///   with a neighbour;
/// - a split that recomputes both prefixes, each longer than the one
///   split (4): a leaf that spans such a boundary fills and splits
///   between its two sides;
/// - an overflow key, whose pages hold the key whole: a `by_title`
///   entry carries a 110-byte title, 145 bytes in all.
#[test]
fn record_layer_keys_pack_into_an_exact_layout() {
    let (pool, dir) = pool("layout", 256);
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut rand = move |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };
    let store = |s: u64| [text("tenant"), int(1_000 + s), text("notes")].concat();
    let record = |s: u64, pk: u64| [store(s), int(1), int(pk)].concat();
    let entry = |s: u64, name: &str, value: Vec<u8>, pk: u64| {
        [store(s), int(2), text(name), value, int(pk)].concat()
    };
    let by_score = |s, score, pk| entry(s, "by_score", int(score), pk);
    let mut saves: Vec<(u64, u64)> = (0..3)
        .flat_map(|s| (1..=400).map(move |pk| (s, pk)))
        .collect();
    for i in (1..saves.len()).rev() {
        saves.swap(i, rand(i + 1));
    }
    let mut tree = Observed {
        pool,
        live: BTreeMap::new(),
        seen: [0; 5],
    };
    let mut scores = BTreeMap::new();
    for &(s, pk) in &saves {
        let score = rand(1_000) as u64;
        scores.insert((s, pk), score);
        tree.save(record(s, pk), vec![pk as u8; 100], 10);
        let group = text(&format!("group-{}", pk % 7));
        tree.save(entry(s, "by_group", group, pk), Vec::new(), 10);
        tree.save(by_score(s, score, pk), Vec::new(), 10);
        if pk % 8 == 0 {
            let title = text(&"t".repeat(110));
            tree.save(entry(s, "by_title", title, pk), Vec::new(), 10);
        }
    }
    for &(s, pk) in saves.iter().step_by(2) {
        if pk % 2 == 0 {
            let of_record = |k: &&Vec<u8>| k.starts_with(&store(s)) && k.ends_with(&int(pk));
            let keys: Vec<_> = tree.live.keys().filter(of_record).cloned().collect();
            keys.iter().for_each(|key| tree.remove(key, 20));
        } else {
            tree.remove(&by_score(s, scores[&(s, pk)], pk), 20);
            tree.save(by_score(s, rand(1_000) as u64, pk), Vec::new(), 20);
        }
    }
    let store_1 = |k: &&Vec<u8>| k.starts_with(&store(1));
    let keys: Vec<_> = tree.live.keys().filter(store_1).cloned().collect();
    keys.iter().for_each(|key| tree.remove(key, 30));

    let Observed {
        mut pool,
        live,
        seen,
    } = tree;
    assert_eq!(check_consistency(&mut pool).unwrap(), live.len());
    for (key, value) in &live {
        assert_eq!(get(&mut pool, key, 40).unwrap().as_ref(), Some(value));
    }
    let (root, mut all) = (pool.root(), Vec::new());
    nodes(&mut pool, root, 0, &mut all);
    let (mut leaves, mut bytes, mut overflow_keys) = (0, 0, 0);
    for (_, id, page) in all.iter().filter(|(_, _, page)| page[0] == TAG_LEAF) {
        let at = parse_index(page, *id, TAG_LEAF).unwrap();
        let entries = entries_of(page, *id, &at).unwrap();
        let spilled = |e: &&Entry| matches!(e.key, Key::Overflow(..));
        overflow_keys += entries.iter().filter(spilled).count();
        (leaves, bytes) = (leaves + 1, bytes + page.len());
    }
    assert!(
        seen.iter().all(|&n| n > 0),
        "branches not reached: {seen:?}"
    );
    assert!(overflow_keys > 0, "no overflow key");
    // Format 2, the same keys and values: 121 leaves, 175 814 bytes; format
    // 3 before leaves merged on delete: 73 leaves, 98 868 bytes; format 3:
    // 48 leaves, 98 747 bytes.
    assert_eq!((leaves, bytes), (36, 80_800), "leaves, leaf payload bytes");
    std::fs::remove_dir_all(dir).unwrap();
}

/// Remove `keys`, ascending, in one walk.
fn remove(pool: &mut BufferPool, keys: &[Vec<u8>]) {
    let steps = keys.iter().map(|key| (key.as_slice(), ()));
    apply(pool, steps, |_, (), _| Ok(Edit::Remove)).unwrap();
}

/// Each way the walk deals with a leaf it removed entries from and left
/// under a quarter page, on one tree two levels deep that a single batch
/// loaded: 60 short keys, 40 keys of 201 bytes that overflow and share
/// 200, and 60 short keys again, each with a 250-byte value, cut into 14
/// leaves of 10 to 14 entries: a quarter page holds 3 entries, three
/// quarters 11. No checkpoint runs, so every page is fresh,
/// a leaf keeps its id, and a freed page is free at once: `live_pages`
/// counts what each case frees. In turn:
/// - an emptied leaf is dropped and its page freed; its neighbours keep
///   their ids and keys;
/// - a leaf shrunk to two entries merges with its right sibling, shrunk
///   to five beforehand (which, over a quarter page, merged with nothing):
///   the merged leaf keeps the shrunk leaf's page, the sibling's is freed,
///   and the merge reads the sibling alone beyond the walk's own path and
///   writes the shrunk leaf twice and the root once;
/// - a leaf shrunk to two entries beside a sibling of ten or more, which
///   together outgrow three quarters of a page, is left alone;
/// - the last child, shrunk to two entries, merges with its left sibling;
/// - an emptied leaf of long keys drops the overflow separator after it,
///   whose page is freed with the leaf's and its keys';
/// - and, on a second tree of two leaves, emptying one collapses the root
///   into the other.
#[test]
fn shrunk_leaves_are_dropped_or_merged() {
    let (_, dir) = pool("rebalance", 4);
    let counters = IoCounters::new_shared();
    let mut pool = BufferPool::open(&dir.join("rebalance.db"), 256, counters.clone()).unwrap();
    let read = || {
        let io = counters.snapshot();
        io.page_hits + io.page_misses
    };
    let short = |group: u8, i: usize| format!("{}{i:03}", group as char).into_bytes();
    let long = |i: usize| [&[b'm'; 200][..], &[i as u8]].concat();
    let keys: Vec<Vec<u8>> = (0..60)
        .map(|i| short(b'a', i))
        .chain((0..40).map(long))
        .chain((0..60).map(|i| short(b'z', i)))
        .collect();
    let load = |pool: &mut BufferPool, keys: &[Vec<u8>]| {
        let steps = keys.iter().map(|key| (key.as_slice(), ()));
        apply(pool, steps, |_, (), _| {
            Ok(Edit::Put(chain_pushed(&[], 10, Some(&[7; 250]))?.0))
        })
        .unwrap();
    };
    load(&mut pool, &keys);
    let mut model: BTreeSet<Vec<u8>> = keys.iter().cloned().collect();
    let mut check = |pool: &mut BufferPool, gone: &[Vec<u8>]| {
        gone.iter().for_each(|key| assert!(model.remove(key)));
        assert_eq!(check_consistency(pool).unwrap(), model.len());
        let cursor = Cursor::seek(pool, b"", None, true).unwrap();
        let stored = keys_until(pool, cursor, b"\xff");
        assert_eq!(stored, model.iter().cloned().collect::<Vec<_>>());
    };
    let before = leaf_keys(&mut pool);
    assert!(before.len() >= 12, "{} leaves", before.len());
    assert!(before.iter().all(|(_, keys)| keys.len() >= 8));
    let root = pool.root();
    assert_eq!(pool.read(before[0].0).unwrap()[0], TAG_LEAF, "two levels");

    // An emptied leaf is dropped.
    let live = pool.live_pages();
    let gone = before[1].1.clone();
    remove(&mut pool, &gone);
    check(&mut pool, &gone);
    let after = leaf_keys(&mut pool);
    assert_eq!(after, [&before[..1], &before[2..]].concat());
    assert_eq!(pool.live_pages(), live - 1);

    // A leaf merges with its right sibling: its page, and one page read
    // beyond the walk's path.
    let ((left, left_keys), (_, right_keys)) = (&after[1], &after[2]);
    let gone = right_keys[5..].to_vec();
    remove(&mut pool, &gone);
    check(&mut pool, &gone);
    assert_eq!(leaf_keys(&mut pool).len(), after.len(), "five entries stay");
    let gone = left_keys[2..].to_vec();
    // The walk's own path: a descent to its first key, which reads the
    // root, an overflow separator the root's binary search lands on, and
    // the leaf.
    let io = read();
    assert!(get(&mut pool, &gone[0], 10).unwrap().is_some());
    let path = read() - io;
    let (live, io) = (pool.live_pages(), read());
    pool.written.clear();
    remove(&mut pool, &gone);
    assert_eq!(read() - io, path + 1, "the walk's path and the sibling");
    assert_eq!(pool.written, [*left, *left, root]);
    check(&mut pool, &gone);
    let merged = leaf_keys(&mut pool);
    let keys = [&left_keys[..2], &right_keys[..5]].concat();
    assert_eq!(merged[1], (*left, keys));
    assert_eq!(merged[2..], after[3..]);
    assert_eq!(pool.live_pages(), live - 1);

    // A pair too big for one leaf is left alone.
    let at = (3..merged.len() - 3)
        .find(|&i| merged[i + 1].1.len() >= 10)
        .expect("a leaf of 10 entries or more");
    let (small, big) = (&merged[at], &merged[at + 1]);
    let gone = small.1[2..].to_vec();
    remove(&mut pool, &gone);
    check(&mut pool, &gone);
    let alone = leaf_keys(&mut pool);
    assert_eq!(alone[at], (small.0, small.1[..2].to_vec()));
    assert_eq!(alone[at + 1], *big);
    assert_eq!(alone.len(), merged.len());

    // The last child merges with its left sibling.
    let n = alone.len();
    let ((_, left_keys), (last, last_keys)) = (&alone[n - 2], &alone[n - 1]);
    let gone = left_keys[5..].to_vec();
    remove(&mut pool, &gone);
    let gone = [gone, last_keys[2..].to_vec()].concat();
    remove(&mut pool, &last_keys[2..]);
    check(&mut pool, &gone);
    let merged = leaf_keys(&mut pool);
    let keys = [&left_keys[..5], &last_keys[..2]].concat();
    assert_eq!(merged[n - 2], (*last, keys));
    assert_eq!(merged.len(), n - 1);
    assert_eq!(merged[..n - 2], alone[..n - 2]);

    // An emptied leaf of long keys drops the overflow separator after it.
    let spilled = |keys: &[Vec<u8>]| keys.iter().all(|key| key.len() > INLINE_KEY_MAX);
    let at = (1..merged.len())
        .find(|&i| spilled(&merged[i].1) && spilled(&merged[i + 1].1))
        .expect("two leaves of long keys side by side");
    let page = pool.read(root).unwrap();
    let seps = parse_index(&page, root, TAG_INTERNAL).unwrap();
    let sep = Reader::at(&page, seps[at] as usize + 4, root)
        .blob()
        .unwrap();
    assert!(matches!(sep, Blob::Overflow(..)), "an overflow separator");
    let (live, gone) = (pool.live_pages(), merged[at].1.clone());
    remove(&mut pool, &gone);
    check(&mut pool, &gone);
    assert_eq!(leaf_keys(&mut pool).len(), merged.len() - 1);
    // The leaf, one page per key, and the separator's page.
    assert_eq!(pool.live_pages(), live - 1 - gone.len() - 1);

    // A root left with one child is replaced by it.
    let (mut pool, dir_2) = self::pool("collapse", 64);
    let keys: Vec<Vec<u8>> = (0..16).map(|i| short(b'k', i)).collect();
    load(&mut pool, &keys);
    let two = leaf_keys(&mut pool);
    assert_eq!(two.len(), 2);
    let live = pool.live_pages();
    remove(&mut pool, &two[0].1);
    assert_eq!(pool.root(), two[1].0);
    assert_eq!(leaf_keys(&mut pool), two[1..]);
    assert_eq!(check_consistency(&mut pool).unwrap(), two[1].1.len());
    assert_eq!(pool.live_pages(), live - 2, "the leaf and the old root");
    std::fs::remove_dir_all(dir).unwrap();
    std::fs::remove_dir_all(dir_2).unwrap();
}
