//! Compaction driven by the engines' log of the keys written: what a pass
//! costs (a count of pages, which repeats exactly), and that garbage
//! written before a reopen is still reclaimed after it.

use std::path::PathBuf;

use rl_storage::{
    EvictionPolicy, IoCounters, MemoryEngine, PagedEngine, SharedIoCounters, StorageEngine,
};

fn dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("rl-compaction-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn key(i: u32) -> Vec<u8> {
    format!("k{i:06}").into_bytes()
}

/// Compaction at `oldest` to the end, a slice at a time, as the database
/// runs it; returns the keys the slices visited.
fn compact(e: &mut dyn StorageEngine, oldest: u64) -> usize {
    let mut keys = 0;
    while let Some(slice) = e.stage_compaction(oldest) {
        keys += slice.keys();
        e.publish(slice);
    }
    keys
}

fn touched(counters: &SharedIoCounters, f: impl FnOnce()) -> u64 {
    let before = counters.snapshot();
    f();
    let io = counters.snapshot().delta(&before);
    io.page_hits + io.page_misses
}

/// A pass visits the keys written since the last one, whatever the size of
/// the tree they sit in: one walk over them in key order, which reads the
/// root once and, below it, each node and leaf on their paths once. The ten
/// keys here lie in ten leaves. Before the log, a pass read every leaf:
/// over 200 pages of the larger tree here.
#[test]
fn a_pass_costs_the_keys_written_not_the_keys_stored() {
    let mut passes = Vec::new();
    for keys in [2_000u32, 20_000] {
        let d = dir(&format!("cost-{keys}"));
        let counters = IoCounters::new_shared();
        let mut e = PagedEngine::open(&d, 4096, EvictionPolicy::Sieve, counters.clone()).unwrap();
        for i in 0..keys {
            e.write(key(i), Some(vec![b'v'; 16]), 10);
        }
        for i in 0..10 {
            e.write(key(i * (keys / 10) + 7), Some(vec![b'w'; 16]), 20);
        }
        e.commit_batch();
        let depth = touched(&counters, || assert!(e.get(&key(7), 20).is_some()));
        assert_eq!(e.total_version_entries(), keys as usize + 10);

        // Nothing is due below the overwrites: a pass touches no page.
        assert_eq!(touched(&counters, || assert_eq!(compact(&mut e, 19), 0)), 0);
        let pass = touched(&counters, || assert_eq!(compact(&mut e, 20), 10));
        assert_eq!(e.total_version_entries(), keys as usize);
        assert!(
            pass <= 1 + 10 * (depth - 1),
            "{keys} keys: the pass touched {pass} pages at depth {depth}"
        );
        // And the log is empty again.
        assert_eq!(touched(&counters, || assert_eq!(compact(&mut e, 30), 0)), 0);
        e.check_consistency().unwrap();
        passes.push((pass, depth));
        drop(e);
        std::fs::remove_dir_all(&d).unwrap();
    }
    let [(small, small_depth), (large, large_depth)] = passes[..] else {
        unreachable!()
    };
    assert!(
        large - small <= 10 * (large_depth - small_depth),
        "ten times the keys: {small} pages (depth {small_depth}) became {large} (depth {large_depth})"
    );
}

/// Overwrites and tombstones written before the engine was dropped —
/// cleanly, so they come back in the checkpointed tree, or by a crash, so
/// some come back through the WAL — are compacted after the reopen exactly
/// as they would have been without it: entry for entry what the memory
/// engine keeps at each horizon, and nothing but live keys in the end.
#[test]
fn garbage_written_before_a_reopen_is_reclaimed_after_it() {
    for crash in [false, true] {
        let d = dir(if crash {
            "reopen-crash"
        } else {
            "reopen-clean"
        });
        let open = || PagedEngine::open(&d, 16, EvictionPolicy::Sieve, IoCounters::new_shared());
        let mut e = open().unwrap();
        let mut memory = MemoryEngine::new();
        let mut both = |e: &mut PagedEngine, k: Vec<u8>, value: Option<Vec<u8>>, version| {
            memory.write(k.clone(), value.clone(), version);
            e.write(k, value, version);
        };
        for i in 0..300 {
            both(&mut e, key(i), Some(vec![1; 20]), 10);
        }
        for i in (0..300).step_by(3) {
            both(&mut e, key(i), Some(vec![2; 700]), 20); // chains that spill
        }
        both(&mut e, b"never-there".to_vec(), None, 20);
        e.commit_batch();
        e.flush().unwrap(); // what follows reaches a crashed engine's reopen by WAL
        for i in (0..300).step_by(5) {
            both(&mut e, key(i), None, 30);
        }
        for i in (0..300).step_by(15) {
            both(&mut e, key(i), Some(vec![4; 20]), 40);
        }
        e.commit_batch();
        let stored = e.total_version_entries();
        assert_eq!(stored, memory.total_version_entries());
        if crash {
            e.simulate_crash();
        } else {
            drop(e);
        }

        let mut e = open().unwrap();
        assert_eq!(e.newest_version(), 40);
        assert_eq!(
            e.total_version_entries(),
            stored,
            "a reopen compacts nothing"
        );
        e.write(key(0), Some(vec![5; 20]), 50);
        memory.write(key(0), Some(vec![5; 20]), 50);
        e.commit_batch();
        for oldest in [5, 25, 30, 45, 50] {
            assert_eq!(
                compact(&mut e, oldest),
                compact(&mut memory, oldest),
                "compact({oldest})"
            );
            assert_eq!(
                e.total_version_entries(),
                memory.total_version_entries(),
                "compact({oldest})"
            );
            assert_eq!(
                e.range(b"", b"\xff", oldest, false),
                memory.range(b"", b"\xff", oldest, false)
            );
        }
        assert_eq!(e.total_version_entries(), e.live_key_count(50));
        assert_eq!(e.live_key_count(50), 300 - 60 + 20);
        e.check_consistency().unwrap();
        drop(e);
        std::fs::remove_dir_all(&d).unwrap();
    }
}
