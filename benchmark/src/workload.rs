//! What the driver needs from a workload, and the transaction loop every
//! client shares.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::clock::now;

use rl_fdb::transaction::TxnTrace;
use rl_fdb::{Database, DatabaseOptions, EngineKind, EvictionPolicy, PagedConfig, Transaction};
use rl_message::DynamicMessage;

use crate::stats::percentile_us;
use crate::trace::{Span, Tracer, NO_PARENT};

/// Attempts per operation before it counts as failed.
pub const MAX_ATTEMPTS: u32 = 8;
/// Logical milliseconds the driver advances the simulator's clock after
/// every operation. Commit versions follow the clock, so the 5 s MVCC
/// window is 5 000 operations deep: old versions age out, compaction has
/// work to do, and the database reaches a steady state inside the warm-up
/// instead of growing for as long as the benchmark runs.
pub const CLOCK_MS_PER_OP: u64 = 1;

/// Which storage engine a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    Memory,
    /// SIEVE-evicted buffer pool of this many 4 KiB pages.
    Paged {
        pool_pages: usize,
    },
}

/// Open a database for a workload. Paged engines live in `dir`, which is
/// kept on drop so the run can reopen it and check what survived.
pub fn open_database(engine: Engine, dir: &Path) -> Database {
    let engine = match engine {
        Engine::Memory => EngineKind::InMemory,
        Engine::Paged { pool_pages } => EngineKind::Paged(PagedConfig {
            path: dir.to_path_buf(),
            pool_pages,
            eviction: EvictionPolicy::Sieve,
            remove_dir_on_drop: false,
        }),
    };
    Database::with_options(DatabaseOptions {
        engine,
        ..DatabaseOptions::default()
    })
}

/// Open a paged database again from its directory, after the handle that
/// wrote it is gone. `Database` starts every handle at commit version 0
/// and does not look at what the engine already holds, so a fresh handle
/// would read below every stored version and see nothing: move the clock
/// past the old handle's and commit one marker key, which lifts the
/// commit version above everything on disk.
pub fn reopen_database(engine: Engine, dir: &Path, old_clock_ms: u64) -> Database {
    let db = open_database(engine, dir);
    db.advance_clock(old_clock_ms + 1);
    db.run(|tx| {
        tx.set(b"\xfebench/reopened", b"");
        Ok(())
    })
    .expect("marker commit on the reopened database");
    db
}

/// Say which op failed, for the first few (a broken build fails them all).
pub fn report_failed_op(workload: &str, op: &dyn std::fmt::Debug) {
    static REPORTED: AtomicU64 = AtomicU64::new(0);
    if REPORTED.fetch_add(1, Ordering::Relaxed) < 5 {
        eprintln!("{workload}: op errored or disagreed with the model: {op:?}");
    }
}

/// `pages.db` + `wal.log` of a paged engine's directory.
pub fn paged_file_bytes(dir: &Path) -> u64 {
    ["pages.db", "wal.log"]
        .iter()
        .filter_map(|f| std::fs::metadata(dir.join(f)).ok())
        .map(|m| m.len())
        .sum()
}

/// Every live key-value pair, by a full-range snapshot read.
pub fn live_kv(db: &Database) -> Vec<(Vec<u8>, Vec<u8>)> {
    let tx = db.create_transaction();
    tx.get_range_snapshot(b"", b"\xff", rl_fdb::RangeOptions::default())
        .expect("full-range snapshot read")
        .into_iter()
        .map(|kv| (kv.key, kv.value))
        .collect()
}

/// The three latency classes the end-to-end metrics are taken from, as
/// indexes into [`Env::classes`]. Each is one op shape, so its
/// distribution has one mode and its percentiles do not flip between two.
#[derive(Debug, Clone, Copy)]
pub struct Designated {
    pub get: usize,
    pub query: usize,
    pub write: usize,
}

/// What the clients measured during one round.
#[derive(Debug, Default)]
pub struct Round {
    /// Time the busiest client spent inside ops: with a closed loop and
    /// no think time, the round's duration (generating ops and checking
    /// results against the model are the benchmark's and stay outside).
    pub busy_ns: u64,
    /// Per class: op latencies in ns, until [`Round::summarize`].
    pub lat_ns: Vec<Vec<u64>>,
    /// Per class: `(samples, p50 µs, p95 µs)`, `None` for a class that
    /// did not run.
    pub summary: Vec<Option<(usize, f64, f64)>>,
    pub attempted: u64,
    /// Ops that errored after [`MAX_ATTEMPTS`] or disagreed with the oracle.
    pub failed: u64,
    /// Retries after a retryable error (conflict, too-old).
    pub retries: u64,
    /// Per class: result rows, and keys read/written by the transactions
    /// (from `Transaction::trace()`), over successful ops.
    pub rows: Vec<u64>,
    pub keys_read: Vec<u64>,
    pub keys_written: Vec<u64>,
    /// Bytes of field values handed to `set()` in the records saved.
    pub user_bytes_saved: u64,
    /// Largest `pages.db` + `wal.log` seen after a write (paged engines).
    pub peak_file_bytes: u64,
    /// Spans of a traced round; parents index into this list.
    pub spans: Vec<Span>,
}

impl Round {
    pub fn new(classes: usize) -> Round {
        Round {
            lat_ns: vec![Vec::new(); classes],
            rows: vec![0; classes],
            keys_read: vec![0; classes],
            keys_written: vec![0; classes],
            ..Round::default()
        }
    }

    /// Fold another client's share of the same round into this one.
    pub fn merge(&mut self, mut other: Round) {
        for (mine, theirs) in self.lat_ns.iter_mut().zip(&mut other.lat_ns) {
            mine.append(theirs);
        }
        for c in 0..self.rows.len() {
            self.rows[c] += other.rows[c];
            self.keys_read[c] += other.keys_read[c];
            self.keys_written[c] += other.keys_written[c];
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.retries += other.retries;
        self.user_bytes_saved += other.user_bytes_saved;
        self.busy_ns = self.busy_ns.max(other.busy_ns);
        self.peak_file_bytes = self.peak_file_bytes.max(other.peak_file_bytes);
        append_spans(&mut self.spans, other.spans);
    }

    /// Reduce each class's latencies to `(samples, p50, p95)` in µs and
    /// let the samples go, so a run's memory does not grow with the number
    /// of rounds it measures.
    pub fn summarize(&mut self) {
        self.summary = self
            .lat_ns
            .iter_mut()
            .map(|lat| {
                let stats = (!lat.is_empty()).then(|| {
                    (
                        lat.len(),
                        percentile_us(lat, 0.50),
                        percentile_us(lat, 0.95),
                    )
                });
                *lat = Vec::new();
                stats
            })
            .collect();
    }

    pub fn seconds(&self) -> f64 {
        self.busy_ns as f64 / 1e9
    }

    pub fn record(&mut self, class: usize, ns: u64, rows: u64, trace: &TxnTrace) {
        self.busy_ns += ns;
        self.lat_ns[class].push(ns);
        self.rows[class] += rows;
        self.keys_read[class] += trace.keys_read;
        self.keys_written[class] += trace.keys_written;
    }

    /// After a write on a paged engine: the files are largest just before
    /// a checkpoint empties the WAL, and only a sample after every commit
    /// is sure to see that.
    pub fn sample_files(&mut self, dir: Option<&Path>) {
        if let Some(dir) = dir {
            self.peak_file_bytes = self.peak_file_bytes.max(paged_file_bytes(dir));
        }
    }
}

/// Append `src` to `dst`, rebasing parent indexes.
pub fn append_spans(dst: &mut Vec<Span>, src: Vec<Span>) {
    let base = dst.len() as u32;
    dst.extend(src.into_iter().map(|mut s| {
        if s.parent != NO_PARENT {
            s.parent += base;
        }
        s
    }));
}

/// Records of the workload's own shape for the message-layer probe.
pub struct MessageSample {
    pub messages: Vec<DynamicMessage>,
    pub user_bytes: u64,
    pub pool: rl_message::DescriptorPool,
}

/// One populated database plus the model that knows what it must contain.
pub trait Env {
    /// Time of the population load and index build that made this, in ns.
    fn setup_ns(&self) -> u64;
    fn db(&self) -> &Database;
    fn engine(&self) -> Engine;
    fn classes(&self) -> &'static [&'static str];
    fn designated(&self) -> Designated;
    fn ops_per_round(&self) -> usize;
    fn clients(&self) -> usize;

    /// Run round number `round` of the seeded op stream on every client
    /// and check each result against the model.
    fn run_round(&mut self, round: u64, traced: bool) -> Round;
    /// Make every op of `class` take `ns` longer (see
    /// [`Tracer::set_handicap`]).
    fn set_handicap(&mut self, class: &'static str, ns: u64);

    /// Live records counted in the database, and in the model.
    fn population(&self) -> (u64, u64);
    /// Bytes of field values of the live records, per the model.
    fn live_user_bytes(&self) -> u64;
    /// Read back up to `n` model records through the record layer; returns
    /// how many disagree.
    fn verify_sample(&self, n: usize) -> u64;
    /// Drop the database and open it again from its directory (paged
    /// engines only): what was acknowledged must still be there.
    fn reopen(&mut self);
    /// Directory of the paged engine, if any.
    fn dir(&self) -> Option<&Path>;

    fn message_sample(&self, n: usize) -> MessageSample;
    /// Time `n` bare store opens (header and version checks), in ns.
    fn open_store_probe(&self, n: usize) -> Vec<u64>;
}

/// A fresh directory for one set-up of one run.
pub fn data_dir(out_dir: &Path, workload: &str, n: usize) -> PathBuf {
    out_dir
        .join("data")
        .join(format!("{workload}-{}-{n}", std::process::id()))
}

/// Run `body` in a transaction until it succeeds, retrying retryable
/// errors up to [`MAX_ATTEMPTS`] times; commit when `write`. Returns the
/// body's value and the transaction's own read/write trace.
pub fn run_txn<T>(
    db: &Database,
    tr: &mut Tracer,
    write: bool,
    retries: &mut u64,
    mut body: impl FnMut(&Transaction, &mut Tracer) -> record_layer::Result<T>,
) -> Option<(T, TxnTrace)> {
    for attempt in 1..=MAX_ATTEMPTS {
        let s = tr.begin("fdb.begin");
        let tx = db.create_transaction();
        tr.end(s);
        let result = body(&tx, tr).and_then(|value| {
            if write {
                let s = tr.begin("fdb.commit");
                let committed = tx.commit().map_err(record_layer::Error::Fdb);
                tr.end(s);
                committed?;
            }
            Ok(value)
        });
        match result {
            Ok(value) => return Some((value, tx.trace())),
            Err(e) if e.is_retryable() && attempt < MAX_ATTEMPTS => *retries += 1,
            Err(e) => {
                eprintln!("op failed after {attempt} attempt(s): {e}");
                return None;
            }
        }
    }
    None
}

/// Time one operation: root span, exact latency in ns, clock tick.
pub fn timed_op<T>(
    db: &Database,
    tr: &mut Tracer,
    class_name: &'static str,
    op: impl FnOnce(&mut Tracer) -> T,
) -> (T, u64) {
    let root = tr.begin_op(class_name);
    let t0 = now();
    let out = op(tr);
    if let Some(handicap) = tr.handicap(class_name) {
        let t1 = now();
        while t1.elapsed() < handicap {
            std::hint::spin_loop();
        }
    }
    let ns = t0.elapsed().as_nanos() as u64;
    tr.end(root);
    db.advance_clock(CLOCK_MS_PER_OP);
    (out, ns)
}
