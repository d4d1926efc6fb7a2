//! The engines as the benchmark's storage probe (`benchmark/src/probes.rs`)
//! drives them: through `&mut dyn StorageEngine`, with `write` and
//! `commit_batch` as the only writers, `get` and `range` as the readers.
//! The writes made since the last `commit_batch` must be visible after the
//! next one. On the paged engine the probe ends with a crash leg: 200
//! committed two-key batches, one more write that no `commit_batch`
//! follows, a crash and a reopen. Every committed batch must read back,
//! and the trailing write must not.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use rl_storage::{EvictionPolicy, IoCounters, MemoryEngine, PagedEngine, StorageEngine};

/// Batches the crash leg commits, as many as the probe's.
const CRASH_BATCHES: u64 = 200;
const KEYS: usize = 1_000;
/// Rounds of a get, a 50-key range and a one-write commit.
const ROUNDS: usize = 200;

type Model = BTreeMap<Vec<u8>, Vec<u8>>;

fn dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("rl-probe-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn open(d: &Path) -> PagedEngine {
    PagedEngine::open(d, 64, EvictionPolicy::Sieve, IoCounters::new_shared()).unwrap()
}

fn crash_key(b: u64) -> Vec<u8> {
    let mut k = b"\xfecrash".to_vec();
    k.extend_from_slice(&b.to_be_bytes());
    k
}

/// The probe's timed part: load `KEYS` keys in 100-key `commit_batch`
/// runs at version 1, then per round a `get` and a 50-key `range`, each
/// at a version of its own, and a `write` plus `commit_batch` at the next.
/// Every read is checked against the model; returns it.
fn drive(e: &mut dyn StorageEngine) -> Model {
    let mut model: Model = (0..KEYS)
        .map(|i| (format!("key{i:06}").into_bytes(), vec![(i % 251) as u8; 60]))
        .collect();
    for (i, (key, value)) in model.iter().enumerate() {
        e.write(key.clone(), Some(value.clone()), 1);
        if i % 100 == 99 {
            e.commit_batch();
        }
    }
    e.commit_batch();
    let keys: Vec<Vec<u8>> = model.keys().cloned().collect();
    let mut version = 1;
    for round in 0..ROUNDS {
        let i = round * 37 % (KEYS - 50);
        version += 1;
        assert_eq!(e.get(&keys[i], version).as_ref(), model.get(&keys[i]));
        version += 1;
        let rows = e.range(&keys[i], &keys[i + 50], version, false);
        let want: Vec<_> = model.range(keys[i].clone()..keys[i + 50].clone()).collect();
        assert!(rows.iter().map(|(k, v)| (k, v)).eq(want), "range at {i}");
        version += 1;
        let value = version.to_be_bytes().to_vec();
        e.write(keys[i].clone(), Some(value.clone()), version);
        e.commit_batch();
        assert_eq!(
            e.get(&keys[i], version),
            Some(value.clone()),
            "round {round}"
        );
        model.insert(keys[i].clone(), value);
    }
    model
}

#[test]
fn the_memory_engine_serves_the_probe() {
    let mut e = MemoryEngine::new();
    let model = drive(&mut e);
    assert_eq!(e.live_key_count(u64::MAX), model.len());
}

#[test]
fn the_paged_engine_keeps_every_committed_batch_across_a_crash() {
    let d = dir("crash");
    let mut e = open(&d);
    let model = drive(&mut e);
    let keys: Vec<Vec<u8>> = model.keys().cloned().collect();
    let base = 1_000_000u64;
    {
        let e: &mut dyn StorageEngine = &mut e;
        for b in 0..CRASH_BATCHES {
            e.write(crash_key(b), Some(b.to_be_bytes().to_vec()), base + b);
            let key = keys[b as usize % KEYS].clone();
            e.write(key, Some(vec![b as u8; 32]), base + b);
            e.commit_batch();
        }
        // One more write that is never committed: it must vanish.
        e.write(
            crash_key(CRASH_BATCHES),
            Some(vec![1]),
            base + CRASH_BATCHES,
        );
    }
    e.simulate_crash();

    let mut e = open(&d);
    let top = base + CRASH_BATCHES;
    for b in 0..CRASH_BATCHES {
        let batch = (
            e.get(&crash_key(b), top),
            e.get(&keys[b as usize % KEYS], base + b),
        );
        let want = (Some(b.to_be_bytes().to_vec()), Some(vec![b as u8; 32]));
        assert_eq!(batch, want, "committed batch {b}");
    }
    assert_eq!(
        e.get(&crash_key(CRASH_BATCHES), top),
        None,
        "the write after the last commit_batch"
    );
    // The loaded keys the crash leg did not overwrite read as before.
    for key in keys.iter().skip(CRASH_BATCHES as usize) {
        assert_eq!(e.get(key, top).as_ref(), model.get(key));
    }
    e.check_consistency().unwrap();
    drop(e);
    std::fs::remove_dir_all(&d).unwrap();
}
