//! Robustness of the paged B-tree's in-place parser: a damaged node must
//! degrade to a typed error, never to a panic, an out-of-bounds slice or a
//! hang.
//!
//! A page's checksum is the first line of defence against a damaged file;
//! this test goes behind it. It takes a valid leaf payload and a valid
//! internal payload (both mixing inline and overflow keys and chains, all
//! keys under one prefix), truncates each at every length, flips random
//! bytes in it, and flips every byte of the leaf's prefix length, its
//! prefix and each of its varints: blob heads, chain counts, versions and
//! value heads. It installs the result as the
//! tree's root through [`BufferPool::allocate`] — which checksums whatever
//! it is given — and runs reads, cursors in both directions and every kind
//! of write over it. Every outcome must be `Ok` or
//! [`io::ErrorKind::InvalidData`]. Varints that run past 5 bytes, lengths
//! that point past the payload and a prefix that is not the common prefix
//! of the leaf's ends must be `InvalidData` outright.
//!
//! ```text
//! leaf  := 0x02 count u16  plen varint prefix  (suffix blob  chain blob){count}
//! blob  := (len + 1) varint bytes  |  0x00 head u32  len varint
//! chain := count varint  (version varint  (0x00 | (len + 1) varint value)){count}
//! ```
//!
//! Same harness as `tests/storage_differential.rs`: seeded, no shrinking;
//! a failure names the payload, the case index and the seed.

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};

use rl_harness::rng::{Rng, XorShift64};
use rl_storage::btree::{self, Cursor};
use rl_storage::pool::BufferPool;
use rl_storage::IoCounters;

const BASE_SEED: u64 = 0x0BAD_5EED_DA7A_F11E;
/// Random byte-flip cases per payload, beside one truncation per length.
const FLIP_CASES: u64 = 3_000;
/// Cases between two resets of the page file to its valid image, which
/// bounds what the damaged roots and the writes over them leave behind.
const CASES_PER_FILE: u64 = 250;
/// A cursor over a damaged tree may be led in circles by a child pointer
/// that points back up; it must still answer every call.
const CURSOR_STEPS: usize = 2_000;
/// What each targeted byte of a leaf field is XORed with.
const FIELD_FLIPS: [u8; 4] = [0x01, 0x40, 0x80, 0xFF];

/// Every key starts with the leaf prefix "acct-".
fn short_key(i: u32) -> Vec<u8> {
    format!("acct-{i:03}").into_bytes()
}

fn long_key(tail: u8) -> Vec<u8> {
    [&b"acct-"[..], &[b'k'; 200], &[tail]].concat()
}

/// One LEB128 varint of `leaf` at `*at`: its value, and the positions of
/// its bytes pushed onto `fields`.
fn varint(leaf: &[u8], at: &mut usize, fields: &mut Vec<usize>) -> usize {
    let (mut value, mut shift) = (0, 0);
    loop {
        let byte = leaf[*at];
        fields.push(*at);
        *at += 1;
        value |= usize::from(byte & 0x7F) << shift;
        shift += 7;
        if byte < 0x80 {
            return value;
        }
    }
}

/// Where a valid leaf's varint fields lie: its prefix length, its prefix,
/// every blob head (and an overflow blob's length), and the count, each
/// version and each value head of each inline chain.
fn leaf_fields(leaf: &[u8]) -> Vec<usize> {
    let (mut fields, mut at) = (Vec::new(), 3);
    let plen = varint(leaf, &mut at, &mut fields);
    fields.extend(at..at + plen);
    at += plen;
    for _ in 0..u16::from_le_bytes([leaf[1], leaf[2]]) {
        for chain in [false, true] {
            // 0 for an overflow blob, else the inline length plus one.
            let Some(len) = varint(leaf, &mut at, &mut fields).checked_sub(1) else {
                at += 4;
                varint(leaf, &mut at, &mut fields);
                continue;
            };
            if chain {
                let mut inner = at;
                for _ in 0..varint(leaf, &mut inner, &mut fields) {
                    // A version, then 0 for a tombstone or a value's
                    // length plus one.
                    varint(leaf, &mut inner, &mut fields);
                    let head = varint(leaf, &mut inner, &mut fields);
                    inner += head.saturating_sub(1);
                }
            }
            at += len;
        }
    }
    assert_eq!(at, leaf.len(), "the walk covers the leaf");
    fields
}

/// The value, or `None` for the one typed error damage may produce.
fn settle<T>(what: &str, result: io::Result<T>) -> Option<T> {
    if let Err(e) = &result {
        assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{what}: {e}");
    }
    result.ok()
}

/// Everything the engine does to a tree, over whatever `pool`'s root is.
fn exercise(pool: &mut BufferPool) {
    for key in [
        &short_key(4)[..],
        &short_key(5),
        b"",
        b"zzz",
        &long_key(3),
        &long_key(4),
    ] {
        settle("get", btree::get(pool, key, 15));
    }
    for forward in [true, false] {
        let bound = if forward { short_key(2) } else { long_key(7) };
        let Some(mut cursor) = settle("seek", Cursor::seek(pool, &bound, None, forward)) else {
            continue;
        };
        for _ in 0..CURSOR_STEPS {
            let Some(Some((_, chain))) = settle("next", cursor.next(pool)) else {
                break;
            };
            settle("chain", btree::chain_visible_at(chain, 15));
        }
    }
    settle(
        "overwrite",
        btree::write(pool, &short_key(4), 30, Some(&[7; 40])),
    );
    settle(
        "spill",
        btree::write(pool, &long_key(6), 30, Some(&[7; 900])),
    );
    let inside = [&short_key(4)[..], b"5"].concat();
    settle("insert", btree::write(pool, &inside, 30, None));
    settle(
        "insert outside the prefix",
        btree::write(pool, b"b", 30, None),
    );
    // Trims the chain just overwritten; removes a dead key, overflow
    // pages and all.
    settle("prune", btree::prune(pool, &short_key(4), 25));
    settle("remove", btree::prune(pool, &long_key(3), 25));
    settle("check", btree::check_consistency(pool));
}

#[test]
fn damaged_nodes_fail_typed_never_panic() {
    let dir = std::env::temp_dir().join(format!("rl-page-corruption-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pages.db");
    let open = || BufferPool::open(&path, 64, IoCounters::new_shared());
    let mut pool = open().unwrap();

    // A one-leaf tree, then one grown until its root is an internal node;
    // keys and chains alternate inline and overflow in both.
    let fill = |pool: &mut BufferPool, keys: u32| {
        pool.set_root(0);
        for i in 0..keys {
            let (short, spilled) = (short_key(i), long_key(i as u8));
            let key = if i % 3 == 0 { &spilled } else { &short };
            let len = if i % 2 == 0 { 30 } else { 600 };
            btree::write(pool, key, 10, Some(&vec![i as u8; len])).unwrap();
            btree::write(pool, key, 20, None).unwrap();
        }
        btree::check_consistency(pool).unwrap();
        let root = pool.root();
        pool.read(root).unwrap().to_vec()
    };
    let leaf = fill(&mut pool, 12);
    let internal = fill(&mut pool, 240);
    assert_eq!(
        (leaf[0], internal[0]),
        (2, 1),
        "a leaf and an internal node"
    );
    assert_eq!(&leaf[3..9], b"\x05acct-", "the leaf stores its prefix");
    let fields = leaf_fields(&leaf);
    // Checkpointed, the valid pages are never rewritten in place: every
    // case below meets the same children under its damaged root.
    pool.checkpoint(0).unwrap();
    let image = std::fs::read(&path).unwrap();

    for (name, valid) in [("leaf", &leaf), ("internal", &internal)] {
        let targeted = if name == "leaf" { &fields[..] } else { &[] };
        let truncations = valid.len() as u64;
        let flips = truncations + FLIP_CASES;
        let cases = flips + (targeted.len() * FIELD_FLIPS.len()) as u64;
        for case in 0..cases {
            if case % CASES_PER_FILE == 0 {
                std::fs::write(&path, &image).unwrap();
                pool = open().unwrap();
            }
            let seed = BASE_SEED ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut rng = XorShift64::seed_from_u64(seed);
            let mut payload = valid.clone();
            if case < truncations {
                payload.truncate(case as usize);
            } else if case < flips {
                for _ in 0..rng.gen_range(1..4u32) {
                    let at = rng.gen_range(0..payload.len());
                    payload[at] ^= rng.gen_range(1..=255u32) as u8;
                }
            } else {
                let n = (case - flips) as usize;
                payload[targeted[n / FIELD_FLIPS.len()]] ^= FIELD_FLIPS[n % FIELD_FLIPS.len()];
            }
            let run = catch_unwind(AssertUnwindSafe(|| {
                let root = pool.allocate(payload).unwrap();
                pool.set_root(root);
                exercise(&mut pool);
            }));
            if let Err(panic) = run {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("<non-string panic payload>");
                panic!("damaged {name} payload, case {case}/{cases} (seed {seed:#x}): {msg}");
            }
        }
    }
    drop(pool);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A child pointer of the root redirected to a leaf the tree has already
/// walked, so that leaf's image holds cached entry offsets. Cursors, which
/// know how deep every leaf lies, meet that leaf where an internal node
/// belongs, or the internal node after it where a leaf belongs: the tag
/// check in front of the cached offsets must turn both into
/// `InvalidData`, never serve one kind's offsets as the other's. Every
/// page of the tree is in the pool, so a walk that strays off the tree's
/// pages shows as a pool miss.
#[test]
fn child_pointer_to_a_walked_leaf_fails_typed() {
    let dir = std::env::temp_dir().join(format!("rl-page-redirect-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // Room for every page: the walked images, offsets and all, stay.
    let counters = IoCounters::new_shared();
    let path = dir.join("pages.db");
    let mut pool = BufferPool::open(&path, 1024, counters.clone()).unwrap();
    // A 100-byte common prefix keeps separators long: three levels.
    let key = |i: u32| [&[b'p'; 100][..], format!("{i:05}").as_bytes()].concat();
    let value = |i: u32| i.to_le_bytes().repeat(75);
    for i in 0..1_200 {
        btree::write(&mut pool, &key(i), 10, Some(&value(i))).unwrap();
    }
    let scan = |pool: &mut BufferPool, bound: &[u8], forward: bool| -> io::Result<usize> {
        let mut cursor = Cursor::seek(pool, bound, None, forward)?;
        let mut rows = 0;
        while cursor.next(pool)?.is_some() {
            rows += 1;
        }
        Ok(rows)
    };
    assert_eq!(scan(&mut pool, b"", true).unwrap(), 1_200);

    // internal := 0x01 count u16  child u32  ((len + 1) varint sep  child u32)…
    let ptr = |page: &[u8], at: usize| u32::from_le_bytes(page[at..at + 4].try_into().unwrap());
    let mut root = pool.read(pool.root()).unwrap().to_vec();
    let first_child = pool.read(ptr(&root, 3)).unwrap();
    let leaf = ptr(&first_child, 3);
    let kinds = (root[0], first_child[0], pool.read(leaf).unwrap()[0]);
    assert_eq!(kinds, (1, 1, 2), "three levels");
    assert!(
        root[1] >= 2 && root[7] > 0 && root[7] < 0x80,
        "three children, an inline separator with a one-byte head"
    );
    let sep_end = 8 + root[7] as usize - 1;
    let sep = root[8..sep_end].to_vec();
    root[sep_end..sep_end + 4].copy_from_slice(&leaf.to_le_bytes());
    let damaged = pool.allocate(root).unwrap();
    pool.set_root(damaged);

    let invalid = |what: &str, result: io::Result<usize>| match result {
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {}
        other => panic!("{what}: {other:?}, not InvalidData"),
    };
    // Forward, the hop out of child 0 meets the leaf one level early.
    invalid("forward scan", scan(&mut pool, b"", true));
    // Backward, so does the hop out of child 2.
    invalid("reverse scan", scan(&mut pool, b"\xff", false));
    // A seek routed through the pointer finds nothing at or above its
    // bound in the leaf, then meets child 2 where a leaf belongs.
    invalid("seek", scan(&mut pool, &sep, true));
    // A point read finds only the leaf's own keys there: never a value
    // stored under another key.
    for i in 0..1_200 {
        if let Some(found) = settle("get", btree::get(&mut pool, &key(i), 15)).flatten() {
            assert_eq!(found, value(i), "key {i}");
        }
    }
    let check = btree::check_consistency(&mut pool).map(|_| 0);
    invalid("check", check);
    let misses = counters.snapshot().page_misses;
    assert_eq!(misses, 0, "a walk read a page that is not in the tree");
    drop(pool);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A fresh pool in its own directory, and the directory.
fn scratch_pool(name: &str) -> (BufferPool, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("rl-page-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let pool = BufferPool::open(&dir.join("pages.db"), 64, IoCounters::new_shared()).unwrap();
    (pool, dir)
}

/// `leaf` with the varint at `at` replaced by `with`.
fn with_varint(leaf: &[u8], at: usize, with: &[u8]) -> Vec<u8> {
    let mut end = at;
    while leaf[end] >= 0x80 {
        end += 1;
    }
    [&leaf[..at], with, &leaf[end + 1..]].concat()
}

/// Fields a parser must refuse outright: a varint whose continuation bit
/// runs past 5 bytes (the prefix length, a key blob's head, an inline
/// chain's count) and lengths that point past the payload (the prefix's,
/// and the last chain blob's head). Reads and the check over each end in `InvalidData`.
#[test]
fn malformed_varints_and_lengths_are_invalid_data() {
    let (mut pool, dir) = scratch_pool("varints");
    for i in 0..3 {
        let value = vec![i as u8; 20];
        btree::write(&mut pool, &short_key(i), 10, Some(&value)).unwrap();
    }
    let leaf = pool.read(pool.root()).unwrap().to_vec();
    let fields = leaf_fields(&leaf);
    assert_eq!(&leaf[3..11], b"\x07acct-00", "the prefix of keys 0 to 2");
    assert!(leaf.len() < 4 + 0x7F, "a 127-byte prefix runs past it");
    // The prefix length and its 7 bytes, then the first key's head, the
    // first chain blob's head and that chain's count; the last chain blob's
    // head comes before its count, version and value head.
    let (plen, key_len, chain_len, chain_count) = (fields[0], fields[8], fields[9], fields[10]);
    let last = *fields.iter().rev().nth(3).unwrap();
    let too_long = [0x80, 0x80, 0x80, 0x80, 0x80, 0x01];
    // The chain's count grows by 5 bytes inside a blob that says so.
    let mut long_count = with_varint(&leaf, chain_count, &too_long);
    long_count[chain_len] += 5;
    let cases = [
        (
            "prefix length past 5 bytes",
            with_varint(&leaf, plen, &too_long),
        ),
        (
            "key length past 5 bytes",
            with_varint(&leaf, key_len, &too_long),
        ),
        ("chain count past 5 bytes", long_count),
        ("prefix past the payload", with_varint(&leaf, plen, &[0x7F])),
        (
            "chain past the payload",
            with_varint(&leaf, last, &[0xFF, 0x7F]),
        ),
    ];
    for (what, payload) in cases {
        let root = pool.allocate(payload).unwrap();
        pool.set_root(root);
        let get = btree::get(&mut pool, &short_key(0), 15).map(|_| 0);
        let check = btree::check_consistency(&mut pool);
        for (op, result) in [("get", get), ("check", check)] {
            match result {
                Err(e) if e.kind() == io::ErrorKind::InvalidData => {}
                other => panic!("{what}: {op} gave {other:?}, not InvalidData"),
            }
        }
    }
    drop(pool);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A leaf whose stored prefix is shorter than the common prefix of its
/// first and last keys parses, and reads find every key in it, but it is
/// not the image its entries encode to: `check_consistency` refuses it.
#[test]
fn a_prefix_that_is_not_the_common_one_fails_the_check() {
    let (mut pool, dir) = scratch_pool("prefix");
    // Keys "pa1" and "pa2" under the prefix "p": one version (7) each, of
    // a one-byte value (head 2).
    let entry = |key: &[u8], value: u8| {
        let chain = [1, 7, 2, value];
        [
            &[key.len() as u8 + 1][..],
            key,
            &[chain.len() as u8 + 1],
            &chain,
        ]
        .concat()
    };
    let leaf = [&[2, 2, 0, 1, b'p'][..], &entry(b"a1", 1), &entry(b"a2", 2)].concat();
    let root = pool.allocate(leaf).unwrap();
    pool.set_root(root);
    assert_eq!(btree::get(&mut pool, b"pa1", 10).unwrap(), Some(vec![1]));
    assert_eq!(btree::get(&mut pool, b"pa2", 10).unwrap(), Some(vec![2]));
    let err = btree::check_consistency(&mut pool).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("prefix"), "{err}");
    drop(pool);
    std::fs::remove_dir_all(&dir).unwrap();
}
