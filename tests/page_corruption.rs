//! Robustness of the paged B-tree's in-place parser: a damaged node must
//! degrade to a typed error, never to a panic, an out-of-bounds slice or a
//! hang.
//!
//! A page's checksum is the first line of defence against a damaged file;
//! this test goes behind it. It takes a valid leaf payload and a valid
//! internal payload (both mixing inline and overflow keys and chains),
//! truncates each at every length and flips random bytes in it, installs
//! the result as the tree's root through [`BufferPool::allocate`] — which
//! checksums whatever it is given — and runs reads, cursors in both
//! directions and every kind of write over it. Every outcome must be `Ok`
//! or [`io::ErrorKind::InvalidData`].
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

fn long_key(tail: u8) -> Vec<u8> {
    [&[b'k'; 200][..], &[tail]].concat()
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
        &b"a004"[..],
        b"a005",
        b"",
        b"zzz",
        &long_key(3),
        &long_key(4),
    ] {
        settle("get", btree::get(pool, key, 15));
    }
    for forward in [true, false] {
        let bound = if forward {
            b"a002".to_vec()
        } else {
            long_key(7)
        };
        let Some(mut cursor) = settle("seek", Cursor::seek(pool, &bound, forward)) else {
            continue;
        };
        for _ in 0..CURSOR_STEPS {
            let Some(Some((_, chain))) = settle("next", cursor.next(pool)) else {
                break;
            };
            settle("chain", btree::chain_visible_at(chain, 15));
        }
    }
    settle("overwrite", btree::write(pool, b"a004", 30, Some(&[7; 40])));
    settle(
        "spill",
        btree::write(pool, &long_key(6), 30, Some(&[7; 900])),
    );
    settle("insert", btree::write(pool, b"a0045", 30, None));
    // Trims the chain just overwritten; removes a dead key, overflow
    // pages and all.
    settle("prune", btree::prune(pool, b"a004", 25));
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
            let (short, spilled) = (format!("a{i:03}").into_bytes(), long_key(i as u8));
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
    // Checkpointed, the valid pages are never rewritten in place: every
    // case below meets the same children under its damaged root.
    pool.checkpoint(0).unwrap();
    let image = std::fs::read(&path).unwrap();

    for (name, valid) in [("leaf", &leaf), ("internal", &internal)] {
        let cases = valid.len() as u64 + FLIP_CASES;
        for case in 0..cases {
            if case % CASES_PER_FILE == 0 {
                std::fs::write(&path, &image).unwrap();
                pool = open().unwrap();
            }
            let seed = BASE_SEED ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut rng = XorShift64::seed_from_u64(seed);
            let mut payload = valid.clone();
            if case < valid.len() as u64 {
                payload.truncate(case as usize);
            } else {
                for _ in 0..rng.gen_range(1..4u32) {
                    let at = rng.gen_range(0..payload.len());
                    payload[at] ^= rng.gen_range(1..=255u32) as u8;
                }
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
        let mut cursor = Cursor::seek(pool, bound, forward)?;
        let mut rows = 0;
        while cursor.next(pool)?.is_some() {
            rows += 1;
        }
        Ok(rows)
    };
    assert_eq!(scan(&mut pool, b"", true).unwrap(), 1_200);

    // internal := 0x01 count u16  child u32  (0x00 len u32 sep  child u32)…
    let ptr = |page: &[u8], at: usize| u32::from_le_bytes(page[at..at + 4].try_into().unwrap());
    let mut root = pool.read(pool.root()).unwrap().to_vec();
    let first_child = pool.read(ptr(&root, 3)).unwrap();
    let leaf = ptr(&first_child, 3);
    let kinds = (root[0], first_child[0], pool.read(leaf).unwrap()[0]);
    assert_eq!(kinds, (1, 1, 2), "three levels");
    assert!(
        root[1] >= 2 && root[7] == 0,
        "three children, an inline separator"
    );
    let sep_end = 12 + ptr(&root, 8) as usize;
    let sep = root[12..sep_end].to_vec();
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
