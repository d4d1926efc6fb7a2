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
//! Two more properties drive multi-key batches, and each names the
//! generator case that reaches each of its branches in its own doc
//! comment and asserts that every one occurs:
//! `sorted_batches_match_memory_oracle` hands both engines whole
//! `apply_sorted` batches (dense leaves split more than once, range clears
//! around named keys and past a leaf's fence, `Update` on missing keys,
//! compaction walks over many leaves), and
//! `commits_fold_each_key_once_in_program_order` commits whole transactions
//! (Set/Clear/ADD chains on one key, an ADD onto a missing key, range
//! clears before and after sets inside them, versionstamped keys and
//! values, 100+ keys in one leaf) against a model that applies each op in
//! program order.
//!
//! Same harness as `tests/proptests.rs`: no shrinking, but a failure
//! reports the property name, case index, and seed for deterministic
//! replay.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

use rl_fdb::atomic::{self, MutationType};
use rl_fdb::{
    key_after, Database, DatabaseOptions, EngineKind, PagedConfig, RangeOptions, Transaction,
};
use rl_harness::rng::{Rng, XorShift64};
use rl_storage::{
    Batch, EvictionPolicy, IoCounters, MemoryEngine, Mutation, PagedEngine, StorageEngine,
};

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

    /// Tombstone every key in `[begin, end)` whose newest entry is live,
    /// but those `named`; returns how many.
    fn clear_range(
        &mut self,
        begin: &[u8],
        end: &[u8],
        version: u64,
        named: impl Fn(&[u8]) -> bool,
    ) -> usize {
        let live = |chain: &Chain| chain.last().is_some_and(|e| e.1.is_some());
        let doomed: Vec<Vec<u8>> = self
            .chains
            .iter()
            .filter(|(key, chain)| begin <= key.as_slice() && key.as_slice() < end && live(chain))
            .filter(|(key, _)| !named(key))
            .map(|(key, _)| key.clone())
            .collect();
        for key in &doomed {
            self.write(key.clone(), None, version);
        }
        doomed.len()
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
                    model.clear_range(&a, &b, version, |_| false);
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

// ------------------------------------------------------- sorted batches

const BATCH_CASES: u64 = 300;

/// What a generated batch does at one named key; built twice, once per
/// engine, since an `Update` is consumed by the engine that runs it.
#[derive(Debug, Clone)]
enum Point {
    Put(Option<Vec<u8>>),
    /// Read-modify-writes: append a byte, clear, or put back what was there.
    Append(u8),
    Drop,
    Keep,
}

impl Point {
    fn value(&self, visible: Option<&[u8]>) -> Option<Vec<u8>> {
        match self {
            Point::Put(value) => value.clone(),
            Point::Append(byte) => Some([visible.unwrap_or_default(), &[*byte]].concat()),
            Point::Drop => None,
            Point::Keep => visible.map(<[u8]>::to_vec),
        }
    }
}

/// `points` and `ranges` as one engine batch: ascending, a range ahead of
/// a point at its own first key.
fn engine_batch(
    points: &BTreeMap<Vec<u8>, Point>,
    ranges: &[(Vec<u8>, Vec<u8>)],
) -> Batch<'static> {
    let mut ranges = ranges.to_vec();
    ranges.sort();
    let mut ranges = ranges.into_iter().peekable();
    let mut batch = Vec::new();
    for (key, point) in points {
        while let Some((begin, end)) = ranges.next_if(|(begin, _)| begin <= key) {
            batch.push((begin, Mutation::ClearRange(end)));
        }
        let mutation = match point {
            Point::Put(value) => Mutation::Write(value.clone()),
            update => {
                let update = update.clone();
                Mutation::Update(Box::new(move |visible: Option<&[u8]>| {
                    update.value(visible)
                }))
            }
        };
        batch.push((key.clone(), mutation));
    }
    batch.extend(ranges.map(|(begin, end)| (begin, Mutation::ClearRange(end))));
    batch
}

/// Keys of one dense subspace: a few hundred of them fill several leaves.
fn dense_key(i: u32) -> Vec<u8> {
    format!("d{i:04}").into_bytes()
}

/// `apply_sorted` on both engines against the model: each range clear
/// tombstones the live keys it covers that no point names, and each point
/// sees the value visible at the batch's version. The generator cases that
/// reach the paged walk's branches, each asserted to occur:
///
/// * a leaf rewritten once for many keys, split more than once: one batch
///   in four is dense, 100–300 points on the 600 keys `d0000`–`d0599`;
/// * the splice under an unchanged prefix and the re-encode when an end
///   key changes it: sparse batches of 1–40 points on the colliding keys of
///   `arb_key`, whose leaves already hold most of them;
/// * a point that overrides a range clear covering it, and a range clear
///   that goes on past a leaf's upper fence: up to two ranges per batch,
///   in a dense batch over a slice of the dense keys;
/// * `Update` on a missing key, and on one whose newest entry is at the
///   batch's own version: a point is an `Update` three times in eight, and
///   a batch keeps the version before it one time in three;
/// * one compaction walk that prunes many keys across leaves: dense
///   overwrites leave hundreds of shadowed entries for the next pass.
#[test]
fn sorted_batches_match_memory_oracle() {
    static CASE_DIR: AtomicU64 = AtomicU64::new(0);
    // Dense batches of 100 or more points, points inside a range, ranges
    // that tombstoned 100 or more keys, updates of a missing key, passes
    // that visited 100 or more keys.
    static SEEN: [AtomicU64; 5] = [const { AtomicU64::new(0) }; 5];
    let seen = |case: usize| {
        SEEN[case].fetch_add(1, Ordering::Relaxed);
    };

    check("sorted_batches", BATCH_CASES, |rng| {
        let n = CASE_DIR.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("rl-batch-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let pool_pages = rng.gen_range(4..48usize);
        let counters = IoCounters::new_shared();
        let mut paged = PagedEngine::open(&dir, pool_pages, EvictionPolicy::Sieve, counters)
            .expect("open paged engine");
        let mut memory = MemoryEngine::new();
        let mut model = Model::default();
        let (mut version, mut oldest) = (1u64, 0u64);
        for _ in 0..rng.gen_range(4..16u32) {
            match rng.gen_range(0..8u32) {
                0..=4 => {
                    version += rng.gen_range(0..3u64);
                    let dense = rng.gen_range(0..4u32) == 0;
                    let points_wanted = match dense {
                        true => rng.gen_range(100..300u32),
                        false => rng.gen_range(1..40u32),
                    };
                    let mut points = BTreeMap::new();
                    for _ in 0..points_wanted {
                        let key = match dense {
                            true => dense_key(rng.gen_range(0..600u32)),
                            false => arb_key(rng),
                        };
                        let point = match rng.gen_range(0..8u32) {
                            0 => Point::Put(None),
                            1..=4 => Point::Put(Some(arb_value(rng))),
                            5 => Point::Append(rng.gen_u8()),
                            6 => Point::Drop,
                            _ => Point::Keep,
                        };
                        points.insert(key, point);
                    }
                    let ranges: Vec<(Vec<u8>, Vec<u8>)> = (0..rng.gen_range(0..3u32))
                        .map(|_| match dense {
                            true => {
                                let from = rng.gen_range(0..600u32);
                                (dense_key(from), dense_key(from + rng.gen_range(1..400u32)))
                            }
                            false => arb_bounds(rng),
                        })
                        .collect();
                    if points.len() >= 100 {
                        seen(0);
                    }
                    for (begin, end) in &ranges {
                        if points.range(begin.clone()..end.clone()).next().is_some() {
                            seen(1);
                        }
                    }
                    // The model: what each point sees is the state before
                    // the batch, as no range touches a named key.
                    let written: Vec<(Vec<u8>, Option<Vec<u8>>)> = points
                        .iter()
                        .map(|(key, point)| {
                            let visible = model.visible(key, version);
                            if visible.is_none() && !matches!(point, Point::Put(_)) {
                                seen(3);
                            }
                            (key.clone(), point.value(visible))
                        })
                        .collect();
                    for (begin, end) in &ranges {
                        let named = |key: &[u8]| points.contains_key(key);
                        if model.clear_range(begin, end, version, named) >= 100 {
                            seen(2);
                        }
                    }
                    for (key, value) in written {
                        model.write(key, value, version);
                    }
                    memory.apply_sorted(version, engine_batch(&points, &ranges));
                    paged.apply_sorted(version, engine_batch(&points, &ranges));
                }
                5 => {
                    memory.commit_batch();
                    paged.commit_batch();
                }
                6 => {
                    oldest = rng.gen_range(oldest..=version);
                    model.compact(oldest);
                    let visited = memory.compact(oldest);
                    assert_eq!(visited, StorageEngine::compact(&mut paged, oldest));
                    if visited >= 100 {
                        seen(4);
                    }
                    assert_eq!(
                        StorageEngine::total_version_entries(&paged),
                        model.entries(),
                        "compact({oldest}) at version {version}"
                    );
                }
                _ => {
                    let rv = rng.gen_range(oldest..=version);
                    for reverse in [false, true] {
                        assert_eq!(
                            memory.range(b"", &[0xFF], rv, reverse),
                            StorageEngine::range(&paged, b"", &[0xFF], rv, reverse),
                            "range(rv={rv}, reverse={reverse})"
                        );
                    }
                }
            }
        }
        assert_eq!(memory.total_version_entries(), model.entries());
        assert_eq!(
            memory.total_version_entries(),
            StorageEngine::total_version_entries(&paged)
        );
        for rv in [oldest, version] {
            let all = memory.range(b"", &[0xFF], rv, false);
            assert_eq!(all, StorageEngine::range(&paged, b"", &[0xFF], rv, false));
            let model_rows: Vec<(Vec<u8>, Vec<u8>)> = model
                .chains
                .keys()
                .filter_map(|key| Some((key.clone(), model.visible(key, rv)?.to_vec())))
                .collect();
            assert_eq!(all, model_rows, "model at {rv}");
        }
        paged.check_consistency().expect("tree consistency");
        drop(paged);
        let _ = std::fs::remove_dir_all(&dir);
    });
    let seen: Vec<u64> = SEEN.iter().map(|n| n.load(Ordering::Relaxed)).collect();
    assert!(seen.iter().all(|&n| n > 0), "cases not reached: {seen:?}");
}

// ---------------------------------------------------- folded commits

const FOLD_CASES: u64 = 60;

/// One op of a generated transaction.
#[derive(Debug, Clone)]
enum TxOp {
    Set(Vec<u8>, Vec<u8>),
    Clear(Vec<u8>),
    Add(Vec<u8>, u64),
    ClearRange(Vec<u8>, Vec<u8>),
    /// SET_VERSIONSTAMPED_KEY of `v` + stamp + this byte.
    StampedKey(u8, Vec<u8>),
    /// SET_VERSIONSTAMPED_VALUE: stamp + this suffix.
    StampedValue(Vec<u8>, Vec<u8>),
}

fn chain_key(rng: &mut XorShift64) -> Vec<u8> {
    format!("c{}", rng.gen_range(0..6u32)).into_bytes()
}

/// The keys a stamped-key op writes: `v`, the 10-byte stamp, a byte.
fn stamped_key(stamp: &[u8; 10], tail: u8) -> Vec<u8> {
    [&b"v"[..], stamp, &[tail]].concat()
}

/// Apply `ops` to `model` one by one, in program order, as the commit path
/// did before it folded each key's ops; returns the keys and bytes a
/// receipt counts for them.
fn apply_in_order(
    model: &mut BTreeMap<Vec<u8>, Vec<u8>>,
    ops: &[TxOp],
    stamp: &[u8; 10],
) -> (u64, u64) {
    let (mut keys, mut bytes) = (0u64, 0u64);
    let mut put = |model: &mut BTreeMap<Vec<u8>, Vec<u8>>, key: Vec<u8>, value: Vec<u8>| {
        keys += 1;
        bytes += (key.len() + value.len()) as u64;
        model.insert(key, value);
    };
    for op in ops {
        match op {
            TxOp::Set(key, value) => put(model, key.clone(), value.clone()),
            TxOp::Clear(key) => {
                model.remove(key);
            }
            TxOp::Add(key, n) => {
                let sum = atomic::apply(
                    MutationType::Add,
                    model.get(key).map(Vec::as_slice),
                    &n.to_le_bytes(),
                );
                put(model, key.clone(), sum.unwrap().unwrap());
            }
            TxOp::ClearRange(begin, end) => model.retain(|key, _| key < begin || key >= end),
            TxOp::StampedKey(tail, value) => put(model, stamped_key(stamp, *tail), value.clone()),
            TxOp::StampedValue(key, suffix) => {
                put(model, key.clone(), [&stamp[..], suffix].concat())
            }
        }
    }
    (keys, bytes)
}

fn buffer(tx: &Transaction, op: &TxOp) {
    match op {
        TxOp::Set(key, value) => tx.set(key, value),
        TxOp::Clear(key) => tx.clear(key),
        TxOp::Add(key, n) => tx.mutate(MutationType::Add, key, &n.to_le_bytes()).unwrap(),
        TxOp::ClearRange(begin, end) => tx.clear_range(begin, end),
        TxOp::StampedKey(tail, value) => {
            let key = [&b"v"[..], &[0xFF; 10], &[*tail], &1u32.to_le_bytes()].concat();
            tx.mutate(MutationType::SetVersionstampedKey, &key, value)
                .unwrap();
        }
        TxOp::StampedValue(key, suffix) => {
            let param = [&[0xFF; 10][..], suffix, &0u32.to_le_bytes()].concat();
            tx.mutate(MutationType::SetVersionstampedValue, key, &param)
                .unwrap();
        }
    }
}

/// Transactions through the whole commit path, on both engines, against a
/// model that applies each op in program order: the commit folds each
/// key's ops once, and writes each key once, in key order. What a receipt
/// counts is checked too — per op, an ADD's result included. The generator
/// cases that reach each branch of the fold, each asserted to occur:
///
/// * one key written several times in a transaction, Set/Clear/ADD mixed:
///   a chain transaction draws 5–40 ops on the six keys `c0`–`c5`;
/// * an ADD onto a missing key (the engine folds it where its write finds
///   the key absent): a chain key's first op is an ADD before any set;
/// * a range clear issued before, and after, buffered sets inside it: a
///   chain transaction's range clear covers `c1`–`c4`, and chain ops come
///   on either side of it;
/// * versionstamped keys and values: one chain op in ten stamps a key, and
///   one in ten a value;
/// * more than 100 keys landing in one leaf, which the walk splits more
///   than once: one transaction in four sets 120–250 dense keys.
#[test]
fn commits_fold_each_key_once_in_program_order() {
    // Keys written three or more times with Set/Clear/ADD mixed, ADDs
    // onto a missing key, range clears with a set inside before them and
    // after them, stamped ops, dense transactions.
    static SEEN: [AtomicU64; 5] = [const { AtomicU64::new(0) }; 5];
    let seen = |case: usize| {
        SEEN[case].fetch_add(1, Ordering::Relaxed);
    };

    check("commit_folds", FOLD_CASES, |rng| {
        let memory = Database::with_options(DatabaseOptions {
            engine: EngineKind::InMemory,
            ..DatabaseOptions::default()
        });
        let mut cfg = PagedConfig::ephemeral();
        cfg.pool_pages = 16;
        let paged = Database::with_options(DatabaseOptions {
            engine: EngineKind::Paged(cfg),
            ..DatabaseOptions::default()
        });
        let mut model = BTreeMap::new();
        for _ in 0..rng.gen_range(3..10u32) {
            let mut ops = Vec::new();
            if rng.gen_range(0..4u32) == 0 {
                for _ in 0..rng.gen_range(120..250u32) {
                    let key = dense_key(rng.gen_range(0..1_000u32));
                    ops.push(TxOp::Set(key, arb_value(rng)));
                }
                seen(4);
            } else {
                for i in 0..rng.gen_range(5..40u32) {
                    ops.push(match rng.gen_range(0..20u32) {
                        0..=5 => TxOp::Set(chain_key(rng), arb_value(rng)),
                        6..=8 => TxOp::Clear(chain_key(rng)),
                        9..=13 => TxOp::Add(chain_key(rng), rng.gen_range(0..1_000u64)),
                        14 => TxOp::ClearRange(b"c1".to_vec(), b"c5".to_vec()),
                        15 | 16 => TxOp::StampedKey(i as u8, arb_value(rng)),
                        _ => TxOp::StampedValue(chain_key(rng), arb_value(rng)),
                    });
                }
            }
            // Which cases this transaction reaches.
            let mut per_key: BTreeMap<&[u8], Vec<&TxOp>> = BTreeMap::new();
            for op in &ops {
                match op {
                    TxOp::Set(key, _) | TxOp::Clear(key) | TxOp::Add(key, _) => {
                        per_key.entry(key).or_default().push(op)
                    }
                    TxOp::StampedKey(..) | TxOp::StampedValue(..) => seen(3),
                    TxOp::ClearRange(..) => {}
                }
            }
            for (key, key_ops) in &per_key {
                let kinds = |f: fn(&TxOp) -> bool| key_ops.iter().any(|op| f(op));
                let mixed = kinds(|op| matches!(op, TxOp::Set(..)))
                    && kinds(|op| matches!(op, TxOp::Clear(_)))
                    && kinds(|op| matches!(op, TxOp::Add(..)));
                if key_ops.len() >= 3 && mixed {
                    seen(0);
                }
                if matches!(key_ops[0], TxOp::Add(..)) && !model.contains_key(*key) {
                    seen(1);
                }
            }
            let clear_at = ops.iter().position(|op| matches!(op, TxOp::ClearRange(..)));
            if let Some(at) = clear_at {
                let inside = |op: &TxOp| matches!(op, TxOp::Set(key, _) if (&b"c1"[..]..&b"c5"[..]).contains(&key.as_slice()));
                if ops[..at].iter().any(inside) && ops[at..].iter().any(inside) {
                    seen(2);
                }
            }

            let txs = [memory.create_transaction(), paged.create_transaction()];
            for tx in &txs {
                for op in &ops {
                    buffer(tx, op);
                }
                tx.commit().unwrap();
            }
            let stamp = txs[0].versionstamp().unwrap();
            assert_eq!(
                txs[1].versionstamp(),
                Some(stamp),
                "both engines commit alike"
            );
            let written = apply_in_order(&mut model, &ops, &stamp);
            let want: Vec<(Vec<u8>, Vec<u8>)> = model.clone().into_iter().collect();
            for (tx, db) in txs.iter().zip([&memory, &paged]) {
                let trace = tx.trace();
                assert_eq!(
                    (trace.keys_written, trace.bytes_written),
                    written,
                    "{ops:?}"
                );
                let rows = db
                    .create_transaction()
                    .get_range(b"", b"\xff", RangeOptions::default());
                let rows: Vec<(Vec<u8>, Vec<u8>)> = rows
                    .unwrap()
                    .into_iter()
                    .map(|kv| (kv.key, kv.value))
                    .collect();
                assert_eq!(rows, want, "{ops:?}");
            }
        }
    });
    let seen: Vec<u64> = SEEN.iter().map(|n| n.load(Ordering::Relaxed)).collect();
    assert!(seen.iter().all(|&n| n > 0), "cases not reached: {seen:?}");
}
