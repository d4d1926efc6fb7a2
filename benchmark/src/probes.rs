//! Probes that call one layer directly, below the op mix, plus the two
//! readings the benchmark takes from `/proc`.

use crate::clock::now;
use std::hint::black_box;
use std::path::Path;

use rl_message::DynamicMessage;
use rl_storage::{EvictionPolicy, IoCounters, MemoryEngine, PagedEngine, StorageEngine};

use crate::rng::Rng;
use crate::stats::percentile_us;
use crate::workload::{Engine, MessageSample};

pub struct MessageProbe {
    pub encode_us_per_record: f64,
    pub decode_us_per_record: f64,
    pub encoded_bytes_per_user_byte: f64,
}

/// `DynamicMessage::encode` / `decode` over the workload's own records.
pub fn message_probe(sample: &MessageSample) -> MessageProbe {
    let n = sample.messages.len() as f64;
    let t0 = now();
    let encoded: Vec<Vec<u8>> = sample
        .messages
        .iter()
        .map(|m| black_box(m).encode())
        .collect();
    let encode_s = t0.elapsed().as_secs_f64();
    let t0 = now();
    for (m, bytes) in sample.messages.iter().zip(&encoded) {
        let back = DynamicMessage::decode(m.descriptor().clone(), &sample.pool, black_box(bytes))
            .expect("a message decodes from its own encoding");
        black_box(back);
    }
    let decode_s = t0.elapsed().as_secs_f64();
    let encoded_bytes: usize = encoded.iter().map(Vec::len).sum();
    MessageProbe {
        encode_us_per_record: encode_s * 1e6 / n,
        decode_us_per_record: decode_s * 1e6 / n,
        encoded_bytes_per_user_byte: encoded_bytes as f64 / sample.user_bytes as f64,
    }
}

pub struct StorageProbe {
    pub get_p50_us: f64,
    pub range50_p50_us: f64,
    pub commit_p50_us: f64,
    /// Acknowledged batches that were not readable after the simulated
    /// crash and reopen (paged engines only; must be 0).
    pub lost_after_crash: u64,
}

const PROBE_OPS: usize = 2_000;
/// Batches written, crashed and looked for by the durability check.
const CRASH_BATCHES: u64 = 200;

/// Load an engine of the workload's kind with the workload's live
/// key-value set and time `get`, a 50-key `range` and
/// `write` + `commit_batch` straight on the [`StorageEngine`] trait: the
/// engine's share of a get, a query and a write.
///
/// On a paged engine the probe ends with the durability check: write and
/// commit `CRASH_BATCHES` batches, drop the engine without its shutdown
/// checkpoint, reopen the directory and look every batch up. The engine
/// never calls `fsync`, so "flushed" means written to the operating
/// system; `simulate_crash` discards what the process still buffered
/// (dirty pool pages, uncommitted WAL ops).
pub fn storage_probe(
    engine: Engine,
    dir: &Path,
    kvs: &[(Vec<u8>, Vec<u8>)],
    seed: u64,
) -> StorageProbe {
    let mut rng = Rng::derive(seed, 77);
    match engine {
        Engine::Memory => {
            let mut e = MemoryEngine::new();
            timed_probe(&mut e, kvs, &mut rng)
        }
        Engine::Paged { pool_pages } => {
            let _ = std::fs::remove_dir_all(dir);
            let open = || {
                PagedEngine::open(
                    dir,
                    pool_pages,
                    EvictionPolicy::Sieve,
                    IoCounters::new_shared(),
                )
                .expect("probe engine opens")
            };
            let mut e = open();
            let mut probe = timed_probe(&mut e, kvs, &mut rng);
            let base = 1_000_000u64;
            for b in 0..CRASH_BATCHES {
                e.write(crash_key(b), Some(b.to_be_bytes().to_vec()), base + b);
                e.write(
                    kvs[b as usize % kvs.len()].0.clone(),
                    Some(vec![b as u8; 32]),
                    base + b,
                );
                e.commit_batch();
            }
            // One more write that is never committed: it must vanish.
            e.write(
                crash_key(CRASH_BATCHES),
                Some(vec![1]),
                base + CRASH_BATCHES,
            );
            e.simulate_crash();
            let mut e = open();
            let top = base + CRASH_BATCHES;
            probe.lost_after_crash = (0..CRASH_BATCHES)
                .filter(|&b| e.get(&crash_key(b), top) != Some(b.to_be_bytes().to_vec()))
                .count() as u64
                + u64::from(e.get(&crash_key(CRASH_BATCHES), top).is_some());
            drop(e);
            let _ = std::fs::remove_dir_all(dir);
            probe
        }
    }
}

fn crash_key(b: u64) -> Vec<u8> {
    let mut k = b"\xfecrash".to_vec();
    k.extend_from_slice(&b.to_be_bytes());
    k
}

fn timed_probe(
    e: &mut dyn StorageEngine,
    kvs: &[(Vec<u8>, Vec<u8>)],
    rng: &mut Rng,
) -> StorageProbe {
    assert!(kvs.len() > 50, "probe needs a populated key-value set");
    for (i, (k, v)) in kvs.iter().enumerate() {
        e.write(k.clone(), Some(v.clone()), 1);
        if i % 100 == 99 {
            e.commit_batch();
        }
    }
    e.commit_batch();
    let mut version = 1;
    let mut time = |f: &mut dyn FnMut(&mut dyn StorageEngine, usize, u64)| {
        let mut ns: Vec<u64> = (0..PROBE_OPS)
            .map(|_| {
                let i = rng.below(kvs.len() as u64 - 50) as usize;
                version += 1;
                let t0 = now();
                f(e, i, version);
                t0.elapsed().as_nanos() as u64
            })
            .collect();
        percentile_us(&mut ns, 0.5)
    };
    let get_p50_us = time(&mut |e, i, v| {
        black_box(e.get(&kvs[i].0, v));
    });
    let range50_p50_us = time(&mut |e, i, v| {
        black_box(e.range(&kvs[i].0, &kvs[i + 50].0, v, false));
    });
    let commit_p50_us = time(&mut |e, i, v| {
        e.write(kvs[i].0.clone(), Some(kvs[i].1.clone()), v);
        e.commit_batch();
    });
    StorageProbe {
        get_p50_us,
        range50_p50_us,
        commit_p50_us,
        lost_after_crash: 0,
    }
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:")
        .map(|kb| kb as f64 / 1024.0)
        .unwrap_or(0.0)
}

/// Bytes handed to `write`-family system calls, and how many calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeviceIo {
    pub wchar: u64,
    pub syscw: u64,
}

impl DeviceIo {
    /// Zeros where `/proc/self/io` is not readable.
    pub fn read() -> DeviceIo {
        DeviceIo {
            wchar: proc_field("/proc/self/io", "wchar:").unwrap_or(0),
            syscw: proc_field("/proc/self/io", "syscw:").unwrap_or(0),
        }
    }

    pub fn since(&self, earlier: &DeviceIo) -> DeviceIo {
        DeviceIo {
            wchar: self.wchar.saturating_sub(earlier.wchar),
            syscw: self.syscw.saturating_sub(earlier.syscw),
        }
    }
}

fn proc_field(path: &str, key: &str) -> Option<u64> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix(key))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}
