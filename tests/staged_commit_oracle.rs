//! Staged commits never show through: one writer stages seeded batches on
//! a paged engine with a tiny buffer pool under the shared side of a lock,
//! seals them, and publishes each under the exclusive side, as the
//! database's commit path does; three reader threads meanwhile read at the
//! versions published so far, under the shared side too, and compare
//! every row they read with a memory engine's answer at the same version.
//! Compaction runs the same way, staged a slice at a time, after the
//! horizon readers may read at has moved past what it drops.
//!
//! What this checks is the paged engine's invariant (`paged.rs`,
//! *Concurrency*): until publish, nothing the published tree reaches
//! changes. A stage that installed a page early, freed a page the
//! published tree still reaches, or let an allocation reuse one would hand
//! a reader a row of a version it does not read at, or a torn page.
//!
//! The generator cases, each asserted to occur:
//!
//! * fresh keys inserted (`insert`) and stored keys overwritten
//!   (`overwrite`);
//! * a range clear over stored keys (`range_clear`);
//! * values longer than a chain kept in a leaf, so that chains spill to
//!   overflow pages (`overflow_value`), and keys longer than a key kept in
//!   a leaf (`overflow_key`);
//! * a run of keys under one prefix too long for one leaf, which splits it
//!   (`leaf_split`);
//! * a compaction after a range clear over a whole such run, whose leaves
//!   it empties and drops (`compaction_drop`), and after one over part of
//!   a run, whose leaves it shrinks and merges (`compaction_merge`);
//! * a batch whose new pages outnumber what the pool's budget holds
//!   (`larger_than_pool`), so that the pool evicts pages and writes dirty
//!   ones back (`pool_eviction`: the engine's counters show both).
//!
//! And reads ran while a batch was being staged (`read_during_stage`).
//!
//! The write buffer (`paged.rs`, *Write buffer*) takes every small batch,
//! and the writer flushes it as the database does: after each publish,
//! while the engine says a flush is due, a slice at a time, each staged
//! under the shared side and published under the exclusive side. These
//! cases are asserted to occur too:
//!
//! * a reader lends a row the buffer holds (`read_from_buffer`), and one
//!   the buffer and the tree both hold, the buffer's newer
//!   (`buffer_shadows_tree`);
//! * a delete of a key the tree holds leaves a buffered tombstone over it
//!   (`buffer_tombstone_over_tree`);
//! * an `Update` folds a value only the tree holds
//!   (`update_folds_tree_value`);
//! * a range clear covers live keys only the tree holds
//!   (`range_clear_over_tree_keys`);
//! * a reader reads between two slices of one flush
//!   (`read_between_flush_slices`);
//! * a compaction starts with keys in the buffer, which it flushes first
//!   (`compaction_with_unflushed_buffer`).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::RwLock;

use rl_fdb::sync::{read_ranked, write_ranked, LockRank};
use rl_harness::rng::{Rng, XorShift64};
use rl_storage::{
    Batch, EvictionPolicy, IoCounters, MemoryEngine, Mutation, PagedEngine, Staged, StorageEngine,
};

/// The paged engine's pool budget in pages: a batch of a few dozen keys
/// already needs more, so stages evict published pages as they go.
const POOL_PAGES: usize = 16;
const BATCHES: u64 = 120;
const READERS: usize = 3;
/// Versions behind the newest that readers may still read at.
const WINDOW: u64 = 10;
/// Compaction runs after every this many batches.
const COMPACT_EVERY: u64 = 6;
/// Keys of the dense runs: `RUN_KEYS` per run fill several leaves.
const RUN_KEYS: u32 = 120;

struct Engines {
    paged: PagedEngine,
    memory: MemoryEngine,
}

/// What a batch writes, built twice: once for each engine.
#[derive(Default)]
struct Spec {
    points: BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    /// Keys an `Update` appends this byte to the visible value of.
    adds: BTreeMap<Vec<u8>, u8>,
    clear: Option<(Vec<u8>, Vec<u8>)>,
}

impl Spec {
    fn batch(&self) -> Batch<'static> {
        let mut batch = Vec::with_capacity(self.points.len() + self.adds.len() + 1);
        let mut clear = self.clear.clone();
        let points = self
            .points
            .iter()
            .map(|(key, value)| (key, Mutation::Write(value.clone())));
        let adds = self.adds.iter().map(|(key, &byte)| {
            let fold = move |v: Option<&[u8]>| Some([v.unwrap_or_default(), &[byte]].concat());
            (key, Mutation::Update(Box::new(fold)))
        });
        let mut items: Vec<_> = points.chain(adds).collect();
        items.sort_by_key(|(key, _)| *key);
        for (key, mutation) in items {
            if let Some((begin, end)) = clear.take_if(|(begin, _)| *begin <= *key) {
                batch.push((begin, Mutation::ClearRange(end)));
            }
            batch.push((key.clone(), mutation));
        }
        batch.extend(clear.map(|(begin, end)| (begin, Mutation::ClearRange(end))));
        batch
    }

    /// The keys the batch writes a tombstone to, or may.
    fn deletes<'s>(&'s self, live: &'s BTreeSet<Vec<u8>>) -> impl Iterator<Item = &'s Vec<u8>> {
        let points = self
            .points
            .iter()
            .filter(|(_, v)| v.is_none())
            .map(|(k, _)| k);
        let cleared = self.clear.iter().flat_map(move |(begin, end)| {
            live.range(begin.clone()..end.clone())
                .filter(|k| !self.points.contains_key(*k) && !self.adds.contains_key(*k))
        });
        points.chain(cleared)
    }
}

fn sparse_key(i: u64) -> Vec<u8> {
    format!("s/{i:05}").into_bytes()
}

fn run_key(run: u32, i: u32) -> Vec<u8> {
    format!("r{run:03}/{i:04}").into_bytes()
}

/// A key longer than a leaf keeps inline, which spills to overflow pages.
fn long_key(i: u64) -> Vec<u8> {
    let mut key = format!("l/{i:03}/").into_bytes();
    key.resize(200, b'x');
    key
}

/// The next batch, and the cases it covers.
fn generate(
    rng: &mut XorShift64,
    live: &BTreeSet<Vec<u8>>,
    runs: &mut u32,
    seen: &mut BTreeSet<&'static str>,
) -> Spec {
    let mut spec = Spec::default();
    let value = |rng: &mut XorShift64, len: usize| vec![rng.gen_range(0..256u32) as u8; len];
    match rng.gen_range(0..13u32) {
        0..=3 => {
            for _ in 0..rng.gen_range(1..30u32) {
                let key = sparse_key(rng.gen_range(0..2_000u64));
                seen.insert(if live.contains(&key) {
                    "overwrite"
                } else {
                    "insert"
                });
                let len = rng.gen_range(1..120usize);
                spec.points.insert(key, Some(value(rng, len)));
            }
        }
        10 => {
            // Short values and deletes: a batch of them stays under half a
            // page, which the paged engine's write buffer takes.
            for _ in 0..rng.gen_range(1..30u32) {
                let key = sparse_key(rng.gen_range(0..2_000u64));
                let len = rng.gen_range(1..60usize);
                // One in six a delete.
                let value = (rng.gen_range(0..6u32) > 0).then(|| value(rng, len));
                spec.points.insert(key, value);
            }
        }
        9 => {
            // Short writes scattered over every family of keys, which the
            // write buffer takes and a flush writes over more leaves than
            // one slice holds.
            for _ in 0..rng.gen_range(20..60u32) {
                let key = match rng.gen_range(0..3u32) {
                    0 => sparse_key(rng.gen_range(0..2_000u64)),
                    1 => run_key(rng.gen_range(0..(*runs).max(1)), rng.gen_range(0..RUN_KEYS)),
                    _ => format!("p/{:08}", rng.gen_range(0..1_000_000u64)).into_bytes(),
                };
                spec.points.insert(key, Some(value(rng, 4)));
            }
        }
        8 => {
            // Read-modify-writes on keys the tree may hold, and writes.
            for _ in 0..rng.gen_range(1..12u32) {
                let key = sparse_key(rng.gen_range(0..2_000u64));
                let byte = rng.gen_range(0..256u32) as u8;
                spec.adds.insert(key, byte);
            }
            for _ in 0..rng.gen_range(0..4u32) {
                let key = sparse_key(rng.gen_range(0..2_000u64));
                if !spec.adds.contains_key(&key) {
                    spec.points.insert(key, Some(value(rng, 20)));
                }
            }
        }
        4 => {
            seen.insert("overflow_value");
            for _ in 0..rng.gen_range(1..5u32) {
                let len = rng.gen_range(600..3_000usize);
                let key = sparse_key(rng.gen_range(0..2_000u64));
                spec.points.insert(key, Some(value(rng, len)));
            }
            seen.insert("overflow_key");
            let len = rng.gen_range(1..40usize);
            spec.points
                .insert(long_key(rng.gen_range(0..50u64)), Some(value(rng, len)));
        }
        5 => {
            // A whole run at once: several leaves' worth under one prefix.
            seen.insert("leaf_split");
            let run = *runs;
            *runs += 1;
            for i in 0..RUN_KEYS {
                spec.points.insert(run_key(run, i), Some(value(rng, 60)));
            }
        }
        6 if *runs > 0 => {
            // Clear a whole run, or part of one: the next compaction drops
            // the leaves it empties and merges the ones it shrinks.
            let run = rng.gen_range(0..*runs);
            let (from, to) = match rng.gen_range(0..2u32) {
                0 => {
                    seen.insert("compaction_drop");
                    (0, RUN_KEYS)
                }
                _ => {
                    seen.insert("compaction_merge");
                    let from = rng.gen_range(0..RUN_KEYS / 2);
                    (from, from + RUN_KEYS / 3)
                }
            };
            spec.clear = Some((run_key(run, from), run_key(run, to)));
        }
        7 => {
            seen.insert("larger_than_pool");
            let base = rng.gen_range(0..1_000u64) * 1_000;
            for i in 0..400 {
                let key = format!("p/{:08}", base + i).into_bytes();
                spec.points.insert(key, Some(value(rng, 200)));
            }
        }
        _ => {
            seen.insert("range_clear");
            let begin = rng.gen_range(0..2_000u64);
            let end = begin + rng.gen_range(1..200u64);
            spec.clear = Some((sparse_key(begin), sparse_key(end)));
            for _ in 0..rng.gen_range(0..5u32) {
                let key = sparse_key(rng.gen_range(begin..end + 50));
                spec.points.insert(key, Some(value(rng, 30)));
            }
        }
    }
    spec
}

/// The rows both engines hold at `version` in `[begin, end)`, compared.
fn compare(engines: &Engines, begin: &[u8], end: &[u8], version: u64, reverse: bool, limit: usize) {
    let paged = engines.paged.scan(begin, end, version, reverse, limit);
    let memory = engines.memory.scan(begin, end, version, reverse, limit);
    assert_eq!(
        paged,
        memory,
        "rows of [{:?}, {:?}) at version {version}, reverse {reverse}, limit {limit}",
        String::from_utf8_lossy(begin),
        String::from_utf8_lossy(end),
    );
}

#[test]
fn readers_never_see_a_staged_commit() {
    let dir = std::env::temp_dir().join(format!("rl-staged-oracle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let counters = IoCounters::new_shared();
    let paged =
        PagedEngine::open(&dir, POOL_PAGES, EvictionPolicy::Sieve, counters.clone()).unwrap();
    let engines = RwLock::new(Engines {
        paged,
        memory: MemoryEngine::new(),
    });
    // Versions readers may read at: `oldest..=published`. Both move only
    // under the exclusive lock, so a reader holding the shared one sees
    // them hold still.
    let (published, oldest) = (AtomicU64::new(0), AtomicU64::new(0));
    let (staging, done) = (AtomicBool::new(false), AtomicBool::new(false));
    let (reads, reads_during_stage) = (AtomicU64::new(0), AtomicU64::new(0));
    // Set while a flush has published a slice and has more to publish.
    let between = AtomicBool::new(false);
    // Reads between two slices of a flush; rows read that the buffer
    // holds, and that the buffer and the tree both hold.
    let (reads_between, from_buffer, shadows) =
        (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));

    let mut seen = BTreeSet::new();
    std::thread::scope(|s| {
        for r in 0..READERS {
            let (engines, published, oldest) = (&engines, &published, &oldest);
            let (staging, done, between) = (&staging, &done, &between);
            let (reads, reads_during_stage) = (&reads, &reads_during_stage);
            let (reads_between, from_buffer, shadows) = (&reads_between, &from_buffer, &shadows);
            s.spawn(move || {
                let mut rng = XorShift64::seed_from_u64(0x5EED_0000 + r as u64);
                let mut n = 0u64;
                while !done.load(Ordering::Acquire) {
                    let engines = read_ranked(engines, LockRank::DatabaseStore);
                    let (lo, hi) = (
                        oldest.load(Ordering::Acquire),
                        published.load(Ordering::Acquire),
                    );
                    if hi == 0 {
                        continue;
                    }
                    let during_stage = staging.load(Ordering::Acquire);
                    let between_slices = between.load(Ordering::Acquire);
                    let version = rng.gen_range(lo.max(1)..=hi);
                    let begin = match rng.gen_range(0..4u32) {
                        0 => sparse_key(rng.gen_range(0..2_000u64)),
                        1 => run_key(rng.gen_range(0..8u32), rng.gen_range(0..RUN_KEYS)),
                        2 => format!("p/{:08}", rng.gen_range(0..1_000_000u64)).into_bytes(),
                        _ => long_key(rng.gen_range(0..50u64)),
                    };
                    let reverse = rng.gen_range(0..2u32) == 0;
                    compare(&engines, &begin, b"\xff", version, reverse, 40);
                    if let Some(row) = engines
                        .memory
                        .scan(&begin, b"\xff", version, false, 1)
                        .first()
                    {
                        assert_eq!(engines.paged.get(&row.0, version).as_ref(), Some(&row.1));
                        match engines.paged.versions_of(&row.0) {
                            (0, _) => {}
                            (_, 0) => _ = from_buffer.fetch_add(1, Ordering::Relaxed),
                            _ => _ = shadows.fetch_add(1, Ordering::Relaxed),
                        }
                    }
                    n += 1;
                    if n.is_multiple_of(64) {
                        compare(&engines, b"", b"\xff", version, false, usize::MAX);
                    }
                    reads.fetch_add(1, Ordering::Relaxed);
                    if during_stage {
                        reads_during_stage.fetch_add(1, Ordering::Relaxed);
                    }
                    if between_slices {
                        reads_between.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }

        // Stage and publish slices while `more` says there are more, as
        // the database flushes and compacts: readers read between them.
        // After a flush slice with more to come, the writer yields until a
        // reader has read (or a while has passed), so that such a read does
        // not hang on the scheduler.
        let slices = |more: &dyn Fn(&PagedEngine) -> Option<Staged<'static>>| loop {
            let slice = more(&read_ranked(&engines, LockRank::DatabaseStore).paged);
            let Some(slice) = slice else {
                between.store(false, Ordering::Release);
                break;
            };
            let partial = {
                let mut engines = write_ranked(&engines, LockRank::DatabaseStore);
                engines.paged.publish(slice);
                engines.paged.buffered_keys() > 0
            };
            between.store(partial, Ordering::Release);
            let read = reads_between.load(Ordering::Acquire);
            for _ in 0..if partial { 10_000 } else { 0 } {
                if reads_between.load(Ordering::Acquire) > read {
                    break;
                }
                std::thread::yield_now();
            }
        };
        let mut rng = XorShift64::seed_from_u64(0x0_5EED_57A6);
        let (mut live, mut runs) = (BTreeSet::new(), 0);
        for version in 1..=BATCHES {
            let spec = generate(&mut rng, &live, &mut runs, &mut seen);
            {
                // What the batch will meet: values and live keys only the
                // tree holds.
                let engines = read_ranked(&engines, LockRank::DatabaseStore);
                let tree_only = |key: &Vec<u8>| matches!(engines.paged.versions_of(key), (0, 1..));
                if spec.adds.keys().any(tree_only) {
                    seen.insert("update_folds_tree_value");
                }
                if spec.clear.is_some() && spec.deletes(&live).any(tree_only) {
                    seen.insert("range_clear_over_tree_keys");
                }
            }
            staging.store(true, Ordering::Release);
            let staged = {
                let engines = read_ranked(&engines, LockRank::DatabaseStore);
                let mut staged = engines.paged.stage(version, spec.batch());
                engines.paged.seal(&mut staged);
                staged
            };
            staging.store(false, Ordering::Release);
            {
                let mut engines = write_ranked(&engines, LockRank::DatabaseStore);
                engines.paged.publish(staged);
                rl_storage::commit(&mut engines.memory, version, spec.batch());
                published.store(version, Ordering::Release);
                let paged = &engines.paged;
                if spec.deletes(&live).any(|key| {
                    let (buffered, stored) = paged.versions_of(key);
                    buffered > 0 && stored > 0 && paged.get(key, version).is_none()
                }) {
                    seen.insert("buffer_tombstone_over_tree");
                }
            }
            slices(&|paged| paged.flush_due().then(|| paged.stage_flush()).flatten());
            live.extend(spec.points.into_keys().chain(spec.adds.into_keys()));
            if version.is_multiple_of(COMPACT_EVERY) {
                let horizon = version.saturating_sub(WINDOW);
                {
                    let mut engines = write_ranked(&engines, LockRank::DatabaseStore);
                    oldest.store(horizon, Ordering::Release);
                    let memory = &mut engines.memory;
                    while let Some(slice) = memory.stage_compaction(horizon) {
                        memory.publish(slice);
                    }
                }
                if read_ranked(&engines, LockRank::DatabaseStore)
                    .paged
                    .buffered_keys()
                    > 0
                {
                    seen.insert("compaction_with_unflushed_buffer");
                }
                slices(&|paged| paged.stage_compaction(horizon));
            }
        }
        done.store(true, Ordering::Release);
    });

    let mut engines = engines.into_inner().unwrap();
    let newest = published.load(Ordering::Acquire);
    compare(&engines, b"", b"\xff", newest, false, usize::MAX);
    engines.paged.check_consistency().unwrap();
    let reads = reads.load(Ordering::Relaxed);
    for (case, n) in [
        ("read_during_stage", &reads_during_stage),
        ("read_between_flush_slices", &reads_between),
        ("read_from_buffer", &from_buffer),
        ("buffer_shadows_tree", &shadows),
    ] {
        if n.load(Ordering::Relaxed) > 0 {
            seen.insert(case);
        }
    }
    let io = counters.snapshot();
    if io.page_evictions > 0 && io.page_flushes > 0 {
        seen.insert("pool_eviction");
    }
    assert!(reads > BATCHES, "{reads} reads");
    let expected = [
        "buffer_shadows_tree",
        "buffer_tombstone_over_tree",
        "compaction_drop",
        "compaction_merge",
        "compaction_with_unflushed_buffer",
        "insert",
        "larger_than_pool",
        "leaf_split",
        "overflow_key",
        "overflow_value",
        "overwrite",
        "pool_eviction",
        "range_clear",
        "range_clear_over_tree_keys",
        "read_between_flush_slices",
        "read_during_stage",
        "read_from_buffer",
        "update_folds_tree_value",
    ];
    let missing: Vec<_> = expected.iter().filter(|c| !seen.contains(*c)).collect();
    assert!(missing.is_empty(), "cases never generated: {missing:?}");
    drop(engines);
    let _ = std::fs::remove_dir_all(&dir);
}
