//! Append-only write-ahead log segment.
//!
//! [`Wal::append`] writes one batch's encoded ops as one checksummed *batch
//! frame* — so a torn tail never exposes half a committed batch, and ops
//! that never got their frame simply vanish on crash (matching the
//! database's transaction semantics).
//!
//! ```text
//! frame := [payload_len u32][checksum u32][payload]
//! checksum := XXH64(payload), folded to 32 bits
//! payload := op*          (one committed batch)
//! op := 0x01 version u64 klen u32 key vlen u32 value      -- set
//!     | 0x02 version u64 klen u32 key                     -- clear (tombstone)
//!     | 0x03 version u64 blen u32 begin elen u32 end      -- clear_range
//! ```
//!
//! The checksum is [`checksum`], the one pages carry (page format 2; a
//! format-1 directory is refused before its log is read). Recovery reads
//! frames from the checkpoint offset until end-of-file or the first frame
//! that fails to verify or parse (a torn append), then truncates the torn
//! tail so new appends extend a valid log. An append and a replay are each
//! one positional syscall at an offset the log tracks itself.

use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;

use crate::codec::{self, Reader};
use crate::page::checksum;
use crate::SharedIoCounters;

/// One logical storage operation, as replayed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    Write {
        key: Vec<u8>,
        value: Option<Vec<u8>>,
        version: u64,
    },
    ClearRange {
        begin: Vec<u8>,
        end: Vec<u8>,
        version: u64,
    },
}

/// Encode a set (or, with `None`, a clear) as a frame's payload holds it.
pub fn put_write(out: &mut Vec<u8>, key: &[u8], value: Option<&[u8]>, version: u64) {
    put_op(out, if value.is_some() { 0x01 } else { 0x02 }, version, key);
    if let Some(value) = value {
        put_bytes(out, value);
    }
}

/// Encode a range clear as a frame's payload holds it.
pub fn put_clear_range(out: &mut Vec<u8>, begin: &[u8], end: &[u8], version: u64) {
    put_op(out, 0x03, version, begin);
    put_bytes(out, end);
}

fn put_op(out: &mut Vec<u8>, tag: u8, version: u64, first: &[u8]) {
    out.push(tag);
    out.extend_from_slice(&version.to_le_bytes());
    put_bytes(out, first);
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Append-only log with batch framing.
#[derive(Debug)]
pub struct Wal {
    file: File,
    /// Length of the valid, committed prefix.
    len: u64,
    /// The frame an append builds, kept for the next one.
    frame: Vec<u8>,
}

impl Wal {
    pub fn open(path: &Path) -> io::Result<Wal> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        Ok(Wal {
            file,
            len,
            frame: Vec::new(),
        })
    }

    /// Length of the committed log in bytes (the next frame's offset).
    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append ops encoded by [`put_write`] and [`put_clear_range`] as one
    /// framed, checksummed record, in one positional write; no ops, no
    /// frame.
    pub fn append(&mut self, ops: &[u8], counters: &SharedIoCounters) -> io::Result<()> {
        if ops.is_empty() {
            return Ok(());
        }
        let _t = rl_obs::Timer::start(rl_obs::Op::WalAppend);
        self.frame.clear();
        self.frame
            .extend_from_slice(&(ops.len() as u32).to_le_bytes());
        self.frame.extend_from_slice(&checksum(ops).to_le_bytes());
        self.frame.extend_from_slice(ops);
        self.file.write_all_at(&self.frame, self.len)?;
        self.len += self.frame.len() as u64;
        counters
            .log_appends
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(())
    }

    /// Truncate the log to `len` bytes, a frame boundary at or below its
    /// length: to zero after a checkpoint has superseded its contents and
    /// the meta generation recording lsn=0 is in place, or to where a
    /// frame began to cut it off again.
    pub fn truncate(&mut self, len: u64) -> io::Result<()> {
        debug_assert!(len <= self.len, "truncating past the log's end");
        self.file.set_len(len)?;
        self.len = len;
        Ok(())
    }

    /// Read every committed batch starting at byte offset `lsn`, stopping
    /// at end-of-file or the first torn/corrupt frame, which is truncated
    /// away so subsequent appends extend a valid log. An `lsn` at or past
    /// the end of the file yields no batches (the checkpoint superseded a
    /// truncation that never got its meta update).
    pub fn replay_from(&mut self, lsn: u64) -> io::Result<Vec<Vec<WalOp>>> {
        if lsn >= self.len {
            return Ok(Vec::new());
        }
        let mut raw = vec![0; (self.len - lsn) as usize];
        self.file.read_exact_at(&mut raw, lsn)?;
        let mut batches = Vec::new();
        let mut pos = 0usize;
        while let Some((ops, frame_len)) = decode_frame(&raw[pos..]) {
            batches.push(ops);
            pos += frame_len;
        }
        // Drop any torn tail so future appends start at a valid offset.
        let valid = lsn + pos as u64;
        if valid < self.len {
            self.file.set_len(valid)?;
            self.len = valid;
        }
        Ok(batches)
    }
}

/// The ops of the frame `raw` starts with and the frame's length, or `None`
/// when it is torn (shorter than its header says), fails its checksum or
/// does not parse.
fn decode_frame(raw: &[u8]) -> Option<(Vec<WalOp>, usize)> {
    let mut r = Reader::new(raw, 0);
    let (plen, stored) = (r.u32().ok()? as usize, r.u32().ok()?);
    let payload = r.take(plen).ok().filter(|p| checksum(p) == stored)?;
    Some((decode_batch(payload).ok()?, r.pos()))
}

/// The ops of one batch payload; an error means the frame is torn.
pub(crate) fn decode_batch(payload: &[u8]) -> codec::Result<Vec<WalOp>> {
    fn bytes(p: &mut Reader) -> codec::Result<Vec<u8>> {
        let len = p.u32()? as usize;
        Ok(p.take(len)?.to_vec())
    }

    let mut p = Reader::new(payload, 0);
    let mut ops = Vec::new();
    while !p.is_empty() {
        let tag = p.take(1)?[0];
        let version = p.u64()?;
        let op = match tag {
            0x01 => WalOp::Write {
                key: bytes(&mut p)?,
                value: Some(bytes(&mut p)?),
                version,
            },
            0x02 => WalOp::Write {
                key: bytes(&mut p)?,
                value: None,
                version,
            },
            0x03 => WalOp::ClearRange {
                begin: bytes(&mut p)?,
                end: bytes(&mut p)?,
                version,
            },
            _ => return Err("unknown op tag"),
        };
        ops.push(op);
    }
    Ok(ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IoCounters;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rl-storage-wal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    /// A set of `key` at `version` (or, with `None`, a clear), encoded.
    fn set(key: &[u8], value: Option<&[u8]>, version: u64) -> Vec<u8> {
        let mut ops = Vec::new();
        put_write(&mut ops, key, value, version);
        ops
    }

    /// Four ops of every kind, encoded as one batch.
    fn four_ops() -> Vec<u8> {
        let mut ops = set(b"alpha", Some(b"one"), 10);
        put_write(&mut ops, b"beta", None, 11);
        put_clear_range(&mut ops, b"c", b"d", 12);
        put_write(&mut ops, b"gamma", Some(&[7; 40]), 13);
        ops
    }

    fn w(key: &[u8], value: Option<&[u8]>, version: u64) -> WalOp {
        WalOp::Write {
            key: key.to_vec(),
            value: value.map(<[u8]>::to_vec),
            version,
        }
    }

    #[test]
    fn batches_roundtrip() {
        let path = tmp("roundtrip");
        let counters = IoCounters::new_shared();
        let mut wal = Wal::open(&path).unwrap();
        let mut ops = set(b"a", Some(b"1"), 10);
        put_write(&mut ops, b"b", None, 10);
        wal.append(&ops, &counters).unwrap();
        ops.clear();
        put_clear_range(&mut ops, b"a", b"z", 20);
        wal.append(&ops, &counters).unwrap();
        drop(wal);

        let mut wal = Wal::open(&path).unwrap();
        let batches = wal.replay_from(0).unwrap();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0], vec![w(b"a", Some(b"1"), 10), w(b"b", None, 10)]);
        let cleared = WalOp::ClearRange {
            begin: b"a".to_vec(),
            end: b"z".to_vec(),
            version: 20,
        };
        assert_eq!(batches[1], vec![cleared]);
        assert_eq!(counters.snapshot().log_appends, 2);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    /// An append of no ops writes no frame, and a reopen replays exactly
    /// the frames appended: ops never appended are not durable.
    #[test]
    fn uncommitted_ops_are_not_durable() {
        let path = tmp("uncommitted");
        let counters = IoCounters::new_shared();
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&set(b"a", Some(b"1"), 10), &counters).unwrap();
        let len = wal.len();
        wal.append(&[], &counters).unwrap();
        assert_eq!((wal.len(), counters.snapshot().log_appends), (len, 1));
        drop(wal);

        let mut wal = Wal::open(&path).unwrap();
        let batches = wal.replay_from(0).unwrap();
        assert_eq!(batches, vec![vec![w(b"a", Some(b"1"), 10)]]);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated() {
        let path = tmp("torn");
        let counters = IoCounters::new_shared();
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&set(b"a", Some(b"1"), 10), &counters).unwrap();
        let good_len = wal.len();
        // Simulate a torn append: garbage half-frame at the end.
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0xDE, 0xAD, 0xBE]).unwrap();
        }
        let mut wal = Wal::open(&path).unwrap();
        assert!(wal.len() > good_len);
        let batches = wal.replay_from(0).unwrap();
        assert_eq!(batches.len(), 1);
        assert_eq!(wal.len(), good_len, "torn tail truncated");
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn every_single_bit_flip_of_a_frame_is_rejected() {
        let path = tmp("bitflip");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&four_ops(), &IoCounters::new_shared()).unwrap();
        let frame = std::fs::read(&path).unwrap();
        let (ops, len) = decode_frame(&frame).unwrap();
        assert_eq!((ops.len(), len), (4, frame.len()));
        for bit in 0..frame.len() * 8 {
            let mut damaged = frame.clone();
            damaged[bit / 8] ^= 1 << (bit % 8);
            assert!(
                decode_frame(&damaged).is_none(),
                "flip of bit {bit} accepted"
            );
        }
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    /// `payload` framed under a checksum that matches it.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let len = (payload.len() as u32).to_le_bytes();
        [&len[..], &checksum(payload).to_le_bytes(), payload].concat()
    }

    /// The decoder behind the checksum. Under a matching checksum, every
    /// cut of a valid batch payload and every length field raised past the
    /// payload's end is torn and never panics; a cut between two ops is
    /// the batch of the ops before it.
    #[test]
    fn every_cut_and_overlong_length_of_a_payload_is_torn() {
        let payload = four_ops();
        let (ops, _) = decode_frame(&framed(&payload)).unwrap();
        // Where each op ends, and where its length fields lie.
        let (mut ends, mut lengths, mut at) = (vec![0], Vec::new(), 0);
        for op in &ops {
            at += 1 + 8;
            let fields = match op {
                WalOp::Write { value: None, .. } => 1,
                _ => 2,
            };
            for _ in 0..fields {
                lengths.push(at);
                at += 4 + u32::from_le_bytes(payload[at..at + 4].try_into().unwrap()) as usize;
            }
            ends.push(at);
        }
        assert_eq!((ops.len(), at), (4, payload.len()));
        for cut in 0..payload.len() {
            let decoded = decode_frame(&framed(&payload[..cut])).map(|(ops, _)| ops);
            let whole_ops = ends.iter().position(|&end| end == cut);
            assert_eq!(decoded, whole_ops.map(|n| ops[..n].to_vec()), "cut {cut}");
        }
        for &at in &lengths {
            let rest = payload.len() - (at + 4);
            for past in [rest as u32 + 1, u32::MAX] {
                let mut damaged = payload.clone();
                damaged[at..at + 4].copy_from_slice(&past.to_le_bytes());
                let decoded = decode_frame(&framed(&damaged));
                assert!(decoded.is_none(), "length at {at} raised to {past}");
            }
        }
    }

    #[test]
    fn lsn_past_end_replays_nothing() {
        let path = tmp("past-end");
        let mut wal = Wal::open(&path).unwrap();
        assert!(wal.replay_from(1_000_000).unwrap().is_empty());
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}
