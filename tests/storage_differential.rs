//! Differential property test: the disk-backed paged engine must be
//! observationally identical to the in-memory engine (the simulator's
//! original store, kept as the oracle).
//!
//! Every case drives a randomized MVCC workload — writes, tombstones,
//! read-modify-writes, range clears, batch commits, compactions — through
//! both engines and
//! interleaves randomized reads (gets, forward/reverse scans with random
//! limits, and the key-selector shapes "last key below" and "n-th key
//! after" as `reverse, limit 1` and `limit n` scans) at random read
//! versions, comparing results op by op. Pool sizes are drawn small enough
//! that eviction, overflow chains, and copy-on-write splits are all hit
//! constantly.
//!
//! Compaction is driven by each engine's log of the keys written, so after
//! every `compact` both engines must retain exactly the `(key, version)`
//! entries a plain model — every write kept, then trimmed by a scan of all
//! of it at each horizon, as the engines themselves once did — retains.
//! Which generator case reaches which branch of that path (counts from an
//! instrumented run of the 1 000 cases, ≈ 4 600 passes):
//!
//! * a key logged twice inside one drained batch (de-duplicated, 1 472
//!   passes): 24 short keys, 20–80 ops, compactions one op in eleven
//!   apart, so a pass often drains a key written more than once since the
//!   last;
//! * a pass whose `oldest` falls inside a log block (a prefix drained,
//!   3 532 passes): `oldest` is drawn from `oldest..=version`, so most
//!   passes leave newer entries of the one block a case fills behind;
//! * a tombstone on a key that never existed (5 659 writes): one write in
//!   four is a tombstone and `update` returns `None` one time in three,
//!   on a key space that starts empty;
//! * an overflow-sized chain trimmed (151 prunes): one value in twenty is
//!   600–6 000 bytes (a chain over 512 spills), on keys then overwritten;
//! * `update` on a missing key (3 370), and `update` at the newest entry's
//!   own version, which replaces as `write` does (123): the `update` arm
//!   leaves `version` alone one time in two and draws from the same keys.
//!
//! Same harness as `tests/proptests.rs`: no shrinking, but a failure
//! reports the property name, case index, and seed for deterministic
//! replay.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

use rl_fdb::key_after;
use rl_harness::rng::{Rng, XorShift64};
use rl_storage::{EvictionPolicy, IoCounters, MemoryEngine, PagedEngine, StorageEngine};

/// Fixed base seed: every run exercises the same cases. Change it (or run
/// a failing case's reported seed directly) to explore a different stream.
const BASE_SEED: u64 = 0x5EED_CAFE_F00D_D00D;

const CASES: u64 = 1_000;

fn check(name: &str, cases: u64, f: impl Fn(&mut XorShift64)) {
    for case in 0..cases {
        let seed = BASE_SEED.wrapping_add(case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut rng = XorShift64::seed_from_u64(seed);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(&mut rng))) {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic payload>");
            panic!("property '{name}' failed at case {case}/{cases} (seed {seed:#x}): {msg}");
        }
    }
}

// ------------------------------------------------------------ generators

/// Keys collide heavily on purpose (version chains need repeat writes);
/// a slice of the space is 200-byte keys that spill to overflow pages.
fn arb_key(rng: &mut XorShift64) -> Vec<u8> {
    if rng.gen_range(0..12u32) == 0 {
        let mut k = vec![b'p'; 200];
        k.push(rng.gen_range(0..4u32) as u8);
        k
    } else {
        format!("k{:02}", rng.gen_range(0..24u32)).into_bytes()
    }
}

/// Mostly small values; occasionally big enough to need overflow chains.
fn arb_value(rng: &mut XorShift64) -> Vec<u8> {
    let len = if rng.gen_range(0..20u32) == 0 {
        rng.gen_range(600..6_000usize)
    } else {
        rng.gen_range(0..24usize)
    };
    let b = rng.gen_u8();
    vec![b; len]
}

/// An ordered pair of range bounds (possibly empty or all-covering).
fn arb_bounds(rng: &mut XorShift64) -> (Vec<u8>, Vec<u8>) {
    let mut a = arb_key(rng);
    let mut b = if rng.gen_range(0..6u32) == 0 {
        vec![0xFFu8]
    } else {
        arb_key(rng)
    };
    if rng.gen_range(0..6u32) == 0 {
        a = Vec::new();
    }
    if a > b {
        std::mem::swap(&mut a, &mut b);
    }
    (a, b)
}

// -------------------------------------------------------------- the model

/// A key's `(version, value)` entries, oldest first.
type Chain = Vec<(u64, Option<Vec<u8>>)>;

/// Every `(version, value)` written per key, trimmed by a whole scan at
/// each compaction: the reference for what the engines may retain.
#[derive(Default)]
struct Model {
    chains: BTreeMap<Vec<u8>, Chain>,
}

impl Model {
    fn visible(&self, key: &[u8], version: u64) -> Option<&[u8]> {
        let chain = self.chains.get(key)?;
        let entry = chain.iter().rev().find(|(v, _)| *v <= version)?;
        entry.1.as_deref()
    }

    fn write(&mut self, key: Vec<u8>, value: Option<Vec<u8>>, version: u64) {
        let chain = self.chains.entry(key).or_default();
        chain.retain(|(v, _)| *v != version);
        chain.push((version, value));
    }

    fn clear_range(&mut self, begin: &[u8], end: &[u8], version: u64) {
        let live = |chain: &Chain| chain.last().is_some_and(|e| e.1.is_some());
        let doomed: Vec<Vec<u8>> = self
            .chains
            .iter()
            .filter(|(key, chain)| begin <= key.as_slice() && key.as_slice() < end && live(chain))
            .map(|(key, _)| key.clone())
            .collect();
        for key in doomed {
            self.write(key, None, version);
        }
    }

    /// What `oldest` allows: per key the newest entry at or below it and
    /// everything newer; no key that is a lone tombstone at or below it.
    fn compact(&mut self, oldest: u64) {
        self.chains.retain(|_, chain| {
            let base = chain.iter().rposition(|(v, _)| *v <= oldest).unwrap_or(0);
            chain.drain(..base);
            !matches!(&chain[..], [(v, None)] if *v <= oldest)
        });
    }

    fn entries(&self) -> usize {
        self.chains.values().map(Vec::len).sum()
    }
}

// -------------------------------------------------------------- the test

#[test]
fn paged_engine_matches_memory_oracle() {
    static CASE_DIR: AtomicU64 = AtomicU64::new(0);

    check("storage_differential", CASES, |rng| {
        let n = CASE_DIR.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("rl-diff-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // Tiny pools force eviction mid-operation.
        let pool_pages = rng.gen_range(4..48usize);
        let mut paged = PagedEngine::open(
            &dir,
            pool_pages,
            EvictionPolicy::Sieve,
            IoCounters::new_shared(),
        )
        .expect("open paged engine");
        let mut memory = MemoryEngine::new();
        let mut model = Model::default();

        let mut version = 0u64;
        let mut oldest = 0u64;
        let ops = rng.gen_range(20..80u32);
        for _ in 0..ops {
            match rng.gen_range(0..11u32) {
                // Mutations (applied to both engines identically).
                0..=3 => {
                    version += u64::from(rng.gen_range(1..3u32));
                    let key = arb_key(rng);
                    let value = (rng.gen_range(0..4u32) != 0).then(|| arb_value(rng));
                    model.write(key.clone(), value.clone(), version);
                    memory.write(key.clone(), value.clone(), version);
                    StorageEngine::write(&mut paged, key, value, version);
                }
                4 => {
                    version += 1;
                    let (a, b) = arb_bounds(rng);
                    model.clear_range(&a, &b, version);
                    memory.clear_range(&a, &b, version);
                    StorageEngine::clear_range(&mut paged, &a, &b, version);
                }
                10 => {
                    // Read-modify-write, half the time at the version of
                    // the writes before it: append a byte, clear, or put
                    // back what was there.
                    version += u64::from(rng.gen_range(0..2u32));
                    let key = arb_key(rng);
                    let (shape, byte) = (rng.gen_range(0..3u32), rng.gen_u8());
                    let seen = model.visible(&key, version).map(<[u8]>::to_vec);
                    let mut f = |current: Option<&[u8]>| {
                        assert_eq!(current, seen.as_deref(), "update({key:?}) at {version}");
                        match shape {
                            0 => Some([current.unwrap_or_default(), &[byte]].concat()),
                            1 => None,
                            _ => current.map(<[u8]>::to_vec),
                        }
                    };
                    let written = f(seen.as_deref());
                    StorageEngine::update(&mut memory, key.clone(), version, &mut f);
                    StorageEngine::update(&mut paged, key.clone(), version, &mut f);
                    model.write(key, written, version);
                }
                5 => {
                    memory.commit_batch();
                    paged.commit_batch();
                }
                6 => {
                    // Compaction: afterwards only read versions >= the
                    // horizon are comparable, so advance `oldest`.
                    oldest = rng.gen_range(oldest..=version);
                    model.compact(oldest);
                    let visited = memory.compact(oldest);
                    assert_eq!(visited, StorageEngine::compact(&mut paged, oldest));
                    assert_eq!(memory.total_version_entries(), model.entries());
                    assert_eq!(
                        StorageEngine::total_version_entries(&paged),
                        model.entries(),
                        "compact({oldest}) at version {version}"
                    );
                }
                // Reads at a random still-valid read version.
                7 => {
                    let rv = rng.gen_range(oldest..=version.max(oldest));
                    let key = arb_key(rng);
                    assert_eq!(
                        memory.get(&key, rv),
                        StorageEngine::get(&paged, &key, rv),
                        "get({key:?}, rv={rv})"
                    );
                }
                8 => {
                    let rv = rng.gen_range(oldest..=version.max(oldest));
                    let (a, b) = arb_bounds(rng);
                    let reverse = rng.gen_range(0..2u32) == 1;
                    let limit = match rng.gen_range(0..4u32) {
                        0 => usize::MAX,
                        _ => rng.gen_range(0..8usize),
                    };
                    let rows = memory.scan(&a, &b, rv, reverse, limit);
                    assert_eq!(
                        rows,
                        StorageEngine::scan(&paged, &a, &b, rv, reverse, limit),
                        "scan(rv={rv}, reverse={reverse}, limit={limit})"
                    );
                    // A bounded scan is a prefix of the unbounded one.
                    let all = StorageEngine::range(&paged, &a, &b, rv, reverse);
                    assert_eq!(rows[..], all[..limit.min(all.len())]);
                }
                _ => {
                    let rv = rng.gen_range(oldest..=version.max(oldest));
                    let key = arb_key(rng);
                    let or_equal = rng.gen_range(0..2u32) == 1;
                    // Last key `< key` (`<= key`: below its successor).
                    let below = if or_equal {
                        key_after(&key)
                    } else {
                        key.clone()
                    };
                    assert_eq!(
                        memory.scan(b"", &below, rv, true, 1),
                        StorageEngine::scan(&paged, b"", &below, rv, true, 1),
                        "last key below (or_equal={or_equal}, rv={rv})"
                    );
                    // The n-th key strictly after an anchor (or the start).
                    let from = match rng.gen_range(0..2u32) {
                        0 => Vec::new(),
                        _ => key_after(&arb_key(rng)),
                    };
                    let nth = rng.gen_range(1..4usize);
                    assert_eq!(
                        memory.scan(&from, &[0xFF], rv, false, nth),
                        StorageEngine::scan(&paged, &from, &[0xFF], rv, false, nth),
                        "n-th key after (n={nth}, rv={rv})"
                    );
                }
            }
        }

        // Closing sweep: aggregates agree, full keyspace agrees both ways,
        // and the on-disk tree is structurally sound.
        let rv = version.max(oldest);
        assert_eq!(
            memory.live_key_count(rv),
            StorageEngine::live_key_count(&paged, rv)
        );
        assert_eq!(
            memory.total_version_entries(),
            StorageEngine::total_version_entries(&paged)
        );
        assert_eq!(
            memory.range(b"", &[0xFF], rv, false),
            StorageEngine::range(&paged, b"", &[0xFF], rv, false)
        );
        assert_eq!(
            memory.range(b"", &[0xFF], rv, true),
            StorageEngine::range(&paged, b"", &[0xFF], rv, true)
        );
        paged.check_consistency().expect("tree consistency");

        drop(paged);
        let _ = std::fs::remove_dir_all(&dir);
    });
}
