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
//! * a batch whose new pages outnumber the pool's frames
//!   (`larger_than_pool`).
//!
//! And reads ran while a batch was being staged (`read_during_stage`).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::RwLock;

use rl_fdb::sync::{read_ranked, write_ranked, LockRank};
use rl_harness::rng::{Rng, XorShift64};
use rl_storage::{
    Batch, EvictionPolicy, IoCounters, MemoryEngine, Mutation, PagedEngine, StorageEngine,
};

/// Frames of the paged engine's pool: a batch of a few dozen keys already
/// needs more, so stages evict published frames as they go.
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
    clear: Option<(Vec<u8>, Vec<u8>)>,
}

impl Spec {
    fn batch(&self) -> Batch<'static> {
        let mut batch = Vec::with_capacity(self.points.len() + 1);
        let mut clear = self.clear.clone();
        for (key, value) in &self.points {
            if let Some((begin, end)) = clear.take_if(|(begin, _)| *begin <= *key) {
                batch.push((begin, Mutation::ClearRange(end)));
            }
            batch.push((key.clone(), Mutation::Write(value.clone())));
        }
        batch.extend(clear.map(|(begin, end)| (begin, Mutation::ClearRange(end))));
        batch
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
    match rng.gen_range(0..10u32) {
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
    let paged = PagedEngine::open(
        &dir,
        POOL_PAGES,
        EvictionPolicy::Sieve,
        IoCounters::new_shared(),
    )
    .unwrap();
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

    let mut seen = BTreeSet::new();
    std::thread::scope(|s| {
        for r in 0..READERS {
            let (engines, published, oldest) = (&engines, &published, &oldest);
            let (staging, done) = (&staging, &done);
            let (reads, reads_during_stage) = (&reads, &reads_during_stage);
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
                    }
                    n += 1;
                    if n.is_multiple_of(64) {
                        compare(&engines, b"", b"\xff", version, false, usize::MAX);
                    }
                    reads.fetch_add(1, Ordering::Relaxed);
                    if during_stage {
                        reads_during_stage.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }

        let mut rng = XorShift64::seed_from_u64(0x0_5EED_57A6);
        let (mut live, mut runs) = (BTreeSet::new(), 0);
        for version in 1..=BATCHES {
            let spec = generate(&mut rng, &live, &mut runs, &mut seen);
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
                engines.memory.apply_sorted(version, spec.batch());
                published.store(version, Ordering::Release);
            }
            live.extend(spec.points.into_keys());
            if version.is_multiple_of(COMPACT_EVERY) {
                let horizon = version.saturating_sub(WINDOW);
                {
                    let mut engines = write_ranked(&engines, LockRank::DatabaseStore);
                    oldest.store(horizon, Ordering::Release);
                    engines.memory.compact(horizon);
                }
                loop {
                    let slice = read_ranked(&engines, LockRank::DatabaseStore)
                        .paged
                        .stage_compaction(horizon);
                    let Some(slice) = slice else {
                        break;
                    };
                    write_ranked(&engines, LockRank::DatabaseStore)
                        .paged
                        .publish(slice);
                }
            }
        }
        done.store(true, Ordering::Release);
    });

    let mut engines = engines.into_inner().unwrap();
    let newest = published.load(Ordering::Acquire);
    compare(&engines, b"", b"\xff", newest, false, usize::MAX);
    engines.paged.check_consistency().unwrap();
    let reads = reads.load(Ordering::Relaxed);
    if reads_during_stage.load(Ordering::Relaxed) > 0 {
        seen.insert("read_during_stage");
    }
    assert!(reads > BATCHES, "{reads} reads");
    let expected = [
        "compaction_drop",
        "compaction_merge",
        "insert",
        "larger_than_pool",
        "leaf_split",
        "overflow_key",
        "overflow_value",
        "overwrite",
        "range_clear",
        "read_during_stage",
    ];
    let missing: Vec<_> = expected.iter().filter(|c| !seen.contains(*c)).collect();
    assert!(missing.is_empty(), "cases never generated: {missing:?}");
    drop(engines);
    let _ = std::fs::remove_dir_all(&dir);
}
