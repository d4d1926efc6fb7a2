//! The page file stays the same size while the population does: rounds of
//! overwrites and key replacements at a constant number of live keys, with
//! compaction and checkpoints, must not grow `pages.db` once it has settled.
//!
//! 200 prefixes hold 8 live keys each. Each round focuses on one or two hot
//! prefixes with 400 single-commit ops: a third replace a key — tombstone
//! the prefix's oldest key and write a new one past its newest — and the
//! rest overwrite one of its live keys, each with a 100-byte value. Every
//! 64 commits the engine compacts at a horizon 400 versions back, and each
//! round ends with a flush. A hot prefix thus leaves a trail of emptied
//! leaves behind its newest key names, and every checkpoint supersedes the
//! leaves it rewrote. Before the walk merged the leaves it shrinks and a
//! checkpoint came due with the superseded pages, the file grew from 497
//! pages after round 20 to 1 447 after round 80; now it goes from 202 to
//! 215.

use std::collections::BTreeMap;
use std::path::PathBuf;

use rl_storage::{EvictionPolicy, IoCounters, PagedEngine, StorageEngine};

const PREFIXES: u64 = 200;
const LIVE_PER_PREFIX: u64 = 8;
const ROUNDS: u32 = 80;
const OPS_PER_ROUND: u32 = 400;
const COMPACT_EVERY: u64 = 64;
const HORIZON: u64 = 400;

fn dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("rl-stationary-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn key(prefix: u64, n: u64) -> Vec<u8> {
    format!("tenant-{prefix:03}/record-{n:08}").into_bytes()
}

/// The pages of `pages.db`: the file's length, as a flush leaves it.
fn file_pages(dir: &std::path::Path) -> u64 {
    std::fs::metadata(dir.join("pages.db")).unwrap().len() / rl_storage::page::PAGE_SIZE as u64
}

struct Xorshift(u64);

impl Xorshift {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

#[test]
fn overwrites_at_constant_population_keep_the_file_stationary() {
    let d = dir("rounds");
    let mut e =
        PagedEngine::open(&d, 4096, EvictionPolicy::Sieve, IoCounters::new_shared()).unwrap();
    let mut rng = Xorshift(0x005E_ED0F_F11E);
    // Each prefix's live record numbers, oldest first, and the model.
    let mut live: Vec<std::collections::VecDeque<u64>> = Vec::new();
    let mut model = BTreeMap::new();
    let mut version = 1u64;
    let value = |version: u64| {
        let mut v = vec![(version % 251) as u8; 100];
        v[..8].copy_from_slice(&version.to_le_bytes());
        v
    };
    for p in 0..PREFIXES {
        for n in 0..LIVE_PER_PREFIX {
            e.write(key(p, n), Some(value(version)), version);
            model.insert(key(p, n), value(version));
        }
        e.commit_batch();
        live.push((0..LIVE_PER_PREFIX).collect());
        version += 1;
    }
    let mut pages = Vec::new();
    for round in 1..=ROUNDS {
        let hot = [rng.below(PREFIXES), rng.below(PREFIXES)];
        let hot = &hot[..1 + rng.below(2) as usize];
        for _ in 0..OPS_PER_ROUND {
            let p = hot[rng.below(hot.len() as u64) as usize];
            let names = &mut live[p as usize];
            if rng.below(3) == 0 {
                let oldest = names.pop_front().unwrap();
                let newest = names.back().unwrap() + 1;
                names.push_back(newest);
                e.write(key(p, oldest), None, version);
                e.write(key(p, newest), Some(value(version)), version);
                model.remove(&key(p, oldest));
                model.insert(key(p, newest), value(version));
            } else {
                let n = names[rng.below(LIVE_PER_PREFIX) as usize];
                e.write(key(p, n), Some(value(version)), version);
                model.insert(key(p, n), value(version));
            }
            e.commit_batch();
            if version.is_multiple_of(COMPACT_EVERY) {
                let oldest = version.saturating_sub(HORIZON);
                while let Some(slice) = e.stage_compaction(oldest) {
                    e.publish(slice);
                }
            }
            version += 1;
        }
        e.flush().unwrap();
        pages.push(file_pages(&d));
        if round % 10 == 0 {
            let stored = e.range(b"", b"\xff", version, false);
            assert!(stored.into_iter().eq(model.clone()), "round {round}");
            assert!(
                e.check_consistency().unwrap() >= model.len(),
                "round {round}"
            );
            assert_eq!(e.live_key_count(version), model.len(), "round {round}");
        }
    }
    assert_eq!(model.len() as u64, PREFIXES * LIVE_PER_PREFIX);
    let (at_20, at_80) = (pages[19], pages[79]);
    assert!(
        at_80 * 4 <= at_20 * 5,
        "{at_20} pages after round 20 became {at_80} after round 80: {pages:?}"
    );
    drop(e);
    std::fs::remove_dir_all(&d).unwrap();
}
