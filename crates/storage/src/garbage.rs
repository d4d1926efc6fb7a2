//! The log of keys compaction has work on, shared by both engines.
//!
//! A write leaves something for compaction to reclaim when it shadows an
//! older entry of its key's chain or is a tombstone. An engine
//! [`push`](GarbageLog::push)es the key and version of every such write
//! when it publishes it; a fresh insert (no chain under the key, a value
//! written) leaves nothing behind and is not logged. A compaction pass at
//! `oldest` [`peek`](GarbageLog::peek)s the entries written at or below
//! `oldest` — exactly the writes whose predecessors no reader can still
//! see — while it is staged, [`consume`](GarbageLog::consume)s them when
//! it is published (the paged engine: its first slice), and visits those
//! keys, so a pass costs what was written since the last one and nothing
//! for the keys stored.
//!
//! **Bound.** An entry leaves with the first pass whose horizon reaches its
//! version, so the log holds the keys overwritten or cleared inside one MVCC
//! window, plus what one compaction interval adds before the next pass. An
//! engine nobody compacts keeps every entry.
//!
//! **Layout.** Entries sit in write order — which is version order, as the
//! engine contract has versions arrive nondecreasing — in blocks of
//! [`BLOCK_BYTES`] that are never reallocated and are freed whole once
//! drained:
//!
//! ```text
//! entry := varint(version - previous entry's version)
//!          varint(bytes shared with the previous key)  varint(len)  suffix
//! ```
//!
//! An entry that opens a block or a version run shares nothing, so a pass
//! whose horizon falls inside a block drains the runs at or below it and
//! leaves the rest decodable on their own. Keys written together share
//! their subspace prefix: an entry costs its distinguishing suffix plus
//! three bytes, not a heap allocation per key.

use std::collections::VecDeque;
use std::ops::Range;

use crate::codec::{common_len, put_varint, Reader};

/// Block size; a longer entry gets a block of its own size.
const BLOCK_BYTES: usize = 16 << 10;
/// The three varints of an entry at their widest.
const MAX_ENTRY_HEADER: usize = 10 + 5 + 5;

#[derive(Debug)]
struct Block {
    /// Encoded entries; allocated once at the block's capacity.
    bytes: Vec<u8>,
    /// Offset of the first entry not yet consumed, which opens a run.
    start: usize,
    /// Version of the entry at `start` (its own varint is relative to an
    /// entry that may be gone and is not read).
    first: u64,
    /// Version of the last entry.
    newest: u64,
}

/// The entries of the log at or below a horizon, as [`GarbageLog::peek`]
/// takes them: their keys, sorted and without repeats, and how far
/// [`GarbageLog::consume`] removes.
#[derive(Debug)]
pub(crate) struct Slice {
    pub(crate) keys: Keys,
    /// Blocks the slice empties.
    blocks: usize,
    /// Where the block after them resumes — offset and version of its
    /// first entry left — if the slice ends inside it.
    resume: Option<(usize, u64)>,
}

/// Version-ordered log of `(key, version)` for writes that left garbage.
#[derive(Debug, Default)]
pub(crate) struct GarbageLog {
    blocks: VecDeque<Block>,
    /// The key logged last, which the next entry of its run is coded
    /// against.
    last_key: Vec<u8>,
}

impl GarbageLog {
    /// Log that the write of `key` at `version` left garbage. A version
    /// below the newest logged (a caller breaking the engine contract) is
    /// logged at the newest: drained late, never lost.
    pub(crate) fn push(&mut self, key: &[u8], version: u64) {
        let room = |b: &Block| b.bytes.capacity() - b.bytes.len();
        let fits = MAX_ENTRY_HEADER + key.len();
        let (delta, shared) = match self.blocks.back() {
            Some(back) if room(back) >= fits => {
                let delta = version.saturating_sub(back.newest);
                let shared = match delta {
                    0 => common_len(&self.last_key, key),
                    _ => 0,
                };
                (delta, shared)
            }
            _ => {
                let newest = self.blocks.back().map_or(0, |b| b.newest);
                self.blocks.push_back(Block {
                    bytes: Vec::with_capacity(BLOCK_BYTES.max(fits)),
                    start: 0,
                    first: version.max(newest),
                    newest: version.max(newest),
                });
                (0, 0)
            }
        };
        let back = self.blocks.back_mut().expect("a block with room");
        back.newest += delta;
        put_varint(&mut back.bytes, delta);
        put_varint(&mut back.bytes, shared as u64);
        put_varint(&mut back.bytes, (key.len() - shared) as u64);
        back.bytes.extend_from_slice(&key[shared..]);
        self.last_key.truncate(shared);
        self.last_key.extend_from_slice(&key[shared..]);
    }

    /// Every entry logged at or below `oldest`, or `None` when there is
    /// none. The log is unchanged until the slice is
    /// [`consume`](Self::consume)d, and must see no push before.
    pub(crate) fn peek(&self, oldest: u64) -> Option<Slice> {
        let mut keys = Keys::default();
        let (mut blocks, mut resume) = (0, None);
        for block in &self.blocks {
            if block.first > oldest {
                break;
            }
            match block.peek_into(oldest, &mut keys) {
                Some(at) => {
                    resume = Some(at);
                    break;
                }
                None => blocks += 1,
            }
        }
        if keys.len() == 0 {
            return None;
        }
        let Keys { bytes, spans } = &mut keys;
        let key = |span: &Range<usize>| &bytes[span.clone()];
        spans.sort_unstable_by(|a, b| key(a).cmp(key(b)));
        spans.dedup_by(|a, b| key(a) == key(b));
        Some(Slice {
            keys,
            blocks,
            resume,
        })
    }

    /// Remove the entries of `slice`, which [`peek`](Self::peek) took from
    /// the log as it still is, and return their keys.
    pub(crate) fn consume(&mut self, slice: Slice) -> Keys {
        self.blocks.drain(..slice.blocks);
        if let (Some(resume), Some(block)) = (slice.resume, self.blocks.front_mut()) {
            (block.start, block.first) = resume;
        }
        slice.keys
    }
}

impl Block {
    /// Decode the entries from `start` on that are at or below `oldest`
    /// into `keys`. Returns where the block resumes after them — the
    /// offset and version of the first entry above `oldest`, which opens a
    /// run — or `None` if they are all of it.
    fn peek_into(&self, oldest: u64, keys: &mut Keys) -> Option<(usize, u64)> {
        const OWN: &str = "the log is never input from outside: it reads what it wrote";
        let (mut r, mut version) = (Reader::new(&self.bytes, self.start), self.first);
        let mut previous = 0..0;
        while !r.is_empty() {
            let at = r.pos();
            let delta = r.varint64().expect(OWN);
            if at != self.start {
                version += delta;
            }
            if version > oldest {
                return Some((at, version));
            }
            let shared = r.varint64().expect(OWN) as usize;
            let len = r.varint64().expect(OWN) as usize;
            let key = keys.bytes.len();
            keys.bytes
                .extend_from_within(previous.start..previous.start + shared);
            keys.bytes.extend_from_slice(r.take(len).expect(OWN));
            previous = key..keys.bytes.len();
            keys.spans.push(previous.clone());
        }
        None
    }
}

/// Keys packed end to end in one buffer.
#[derive(Debug, Default)]
pub(crate) struct Keys {
    bytes: Vec<u8>,
    spans: Vec<Range<usize>>,
}

impl Keys {
    pub(crate) fn len(&self) -> usize {
        self.spans.len()
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &[u8]> {
        self.range(0..self.spans.len())
    }

    /// Keys `range`, in order.
    pub(crate) fn range(&self, range: Range<usize>) -> impl Iterator<Item = &[u8]> {
        self.spans[range]
            .iter()
            .map(|span| &self.bytes[span.clone()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drained(log: &mut GarbageLog, oldest: u64) -> Vec<Vec<u8>> {
        let Some(slice) = log.peek(oldest) else {
            return Vec::new();
        };
        log.consume(slice).iter().map(<[u8]>::to_vec).collect()
    }

    #[test]
    fn drains_a_version_prefix_sorted_without_repeats() {
        let mut log = GarbageLog::default();
        log.push(b"tenant/7/b", 10);
        log.push(b"tenant/7/a", 10);
        log.push(b"tenant/7/b", 10); // twice inside one drained batch
        log.push(b"tenant/9", 20);
        log.push(b"tenant/7/a", 30);
        assert_eq!(drained(&mut log, 9), Vec::<Vec<u8>>::new());
        // The horizon falls inside the block: a prefix goes.
        assert_eq!(
            drained(&mut log, 25),
            [&b"tenant/7/a"[..], b"tenant/7/b", b"tenant/9"]
        );
        assert_eq!(log.blocks.len(), 1);
        log.push(b"tenant/7/c", 30); // coded against the entry before it
        assert_eq!(drained(&mut log, 25), Vec::<Vec<u8>>::new());
        assert_eq!(drained(&mut log, 30), [&b"tenant/7/a"[..], b"tenant/7/c"]);
        assert!(log.blocks.is_empty());
        log.push(b"x", 5); // below the newest: a fresh block starts anywhere
        assert_eq!(drained(&mut log, 5), [b"x"]);
    }

    #[test]
    fn blocks_fill_are_freed_whole_and_take_any_key_length() {
        let mut log = GarbageLog::default();
        let key = |i: u32| format!("subspace/records/{i:06}").into_bytes();
        for i in 0..8_000u32 {
            log.push(&key(i), u64::from(i / 100));
        }
        let full = log.blocks.len();
        assert!(full > 1, "8 000 keys need more than one block");
        for block in &log.blocks {
            assert_eq!(block.bytes.capacity(), BLOCK_BYTES, "never reallocated");
        }
        // Front coding: a key of 23 bytes costs its 6-digit tail or less.
        assert!(full * BLOCK_BYTES < 8_000 * 12);
        let giant = vec![b'g'; 3 * BLOCK_BYTES];
        log.push(&giant, 80);
        assert_eq!(drained(&mut log, 39).len(), 4_000);
        assert!(log.blocks.len() < full + 1, "drained blocks are freed");
        let rest = drained(&mut log, 80);
        assert_eq!(rest.len(), 4_001);
        assert_eq!(rest[0], giant);
        assert_eq!(rest[4_000], key(7_999));
        assert!(log.blocks.is_empty());
    }
}
