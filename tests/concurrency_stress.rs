//! Randomized multi-threaded stress for the parallel simulator.
//!
//! Writer threads increment *paired* counters (both halves of a pair in
//! one transaction) through the sharded OCC commit pipeline while
//! reader threads repeatedly snapshot both halves and assert they are
//! equal — a torn pair would mean a read straddled two versions.
//! Afterwards the committed history, ordered by (commit version, group
//! commit batch order), is replayed single-threaded as an oracle:
//! every successful read-modify-write must have observed exactly the
//! replay value at its point in the order (OCC admitted no lost
//! updates), and the final database state must equal the replay state.
//!
//! Keys are spread over distinct two-byte prefixes so the run crosses
//! many conflict shards, and every seed comes from `rl_harness::rng` so
//! a failure reproduces.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use rl_fdb::{Database, Error};
use rl_harness::rng::{derive_seed, Rng, XorShift64};

const PAIRS: usize = 24;
const WRITERS: usize = 6;
const READERS: usize = 2;
const OPS_PER_WRITER: usize = 120;
const MAX_ATTEMPTS: usize = 32;

/// The two key halves of pair `i`. The conflict index shards by the
/// first two key bytes, so the second byte is varied to spread pairs
/// across shards, and the two halves of one pair sit in *adjacent*
/// shards — every pair commit is a multi-shard commit.
fn pair_keys(i: usize) -> (Vec<u8>, Vec<u8>) {
    (
        vec![i as u8, i as u8, b'a'],
        vec![128 + i as u8, 1 + i as u8, b'b'],
    )
}

fn decode(v: Option<Vec<u8>>) -> u64 {
    match v {
        None => 0,
        Some(b) => u64::from_be_bytes(b.try_into().expect("counter is 8 bytes")),
    }
}

/// One successful increment, as observed by the committing transaction.
#[derive(Debug, Clone, Copy)]
struct Committed {
    version: u64,
    batch_order: u16,
    pair: usize,
    observed: u64,
}

fn stress(db: &Database, seed: u64) {
    let history: Mutex<Vec<Committed>> = Mutex::new(Vec::new());
    let writers_done = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let db = db.clone();
            let history = &history;
            let writers_done = &writers_done;
            scope.spawn(move || {
                let mut rng = XorShift64::seed_from_u64(derive_seed(seed, w as u64));
                for _ in 0..OPS_PER_WRITER {
                    let pair = rng.gen_range(0..PAIRS);
                    let (ka, kb) = pair_keys(pair);
                    for attempt in 0.. {
                        let tx = db.create_transaction();
                        let a = decode(tx.get(&ka).unwrap());
                        let b = decode(tx.get(&kb).unwrap());
                        assert_eq!(a, b, "torn pair {pair} inside a writer snapshot");
                        tx.set(&ka, &(a + 1).to_be_bytes());
                        tx.set(&kb, &(b + 1).to_be_bytes());
                        match tx.commit() {
                            Ok(()) => {
                                let version =
                                    tx.committed_version().expect("committed tx has a version");
                                let stamp = tx.versionstamp().expect("committed tx has a stamp");
                                let batch_order = u16::from_be_bytes([stamp[8], stamp[9]]);
                                rl_fdb::sync::lock(history).push(Committed {
                                    version,
                                    batch_order,
                                    pair,
                                    observed: a,
                                });
                                break;
                            }
                            Err(Error::NotCommitted) if attempt < MAX_ATTEMPTS => continue,
                            Err(e) => panic!("writer commit failed: {e:?}"),
                        }
                    }
                }
                writers_done.fetch_add(1, Ordering::Release);
            });
        }
        for r in 0..READERS {
            let db = db.clone();
            let writers_done = &writers_done;
            scope.spawn(move || {
                let mut rng = XorShift64::seed_from_u64(derive_seed(seed, 1_000 + r as u64));
                while writers_done.load(Ordering::Acquire) < WRITERS as u64 {
                    let pair = rng.gen_range(0..PAIRS);
                    let (ka, kb) = pair_keys(pair);
                    let tx = db.create_transaction();
                    let a = decode(tx.get_snapshot(&ka).unwrap());
                    let b = decode(tx.get_snapshot(&kb).unwrap());
                    assert_eq!(a, b, "torn pair {pair} across a reader snapshot");
                }
            });
        }
    });

    // ------------------------------------------------- oracle replay
    let mut history = history.into_inner().unwrap();
    assert_eq!(history.len(), WRITERS * OPS_PER_WRITER);
    history.sort_by_key(|c| (c.version, c.batch_order));
    // Committed versions are unique per batch; batch order disambiguates
    // members of one group-commit batch.
    for w in history.windows(2) {
        assert!(
            (w[0].version, w[0].batch_order) < (w[1].version, w[1].batch_order),
            "two commits share (version, batch_order): {w:?}"
        );
    }

    let mut replay = [0u64; PAIRS];
    for c in &history {
        assert_eq!(
            c.observed, replay[c.pair],
            "lost update on pair {}: commit at version {} observed {} but the replayed \
             history says the pair stood at {}",
            c.pair, c.version, c.observed, replay[c.pair]
        );
        replay[c.pair] += 1;
    }

    let tx = db.create_transaction();
    for (pair, &expected) in replay.iter().enumerate() {
        let (ka, kb) = pair_keys(pair);
        assert_eq!(
            decode(tx.get(&ka).unwrap()),
            expected,
            "final state, pair {pair} (a)"
        );
        assert_eq!(
            decode(tx.get(&kb).unwrap()),
            expected,
            "final state, pair {pair} (b)"
        );
    }
}

/// The suite honours `RL_ENGINE` like every other integration test, so
/// the paged-engine CI leg and the TSan job run this against both
/// engines.
#[test]
fn randomized_writers_and_readers_preserve_snapshot_isolation() {
    let db = Database::new();
    stress(&db, 0xC0FFEE);
}

#[test]
fn randomized_stress_holds_on_a_second_seed() {
    let db = Database::new();
    stress(&db, 9_118_724_463);
}
