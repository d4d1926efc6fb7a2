//! Copy-on-write disk B-tree keyed on raw (tuple-encoded) bytes, working
//! directly on the encoded pages the buffer pool holds.
//!
//! Leaf entries map a key to its *version chain* — the in-memory engine's
//! `(version, Option<value>)` list, encoded — so MVCC visibility is resolved
//! identically in both engines. Keys and chains are stored as blobs: inline
//! in the node when small, spilled to a chain of overflow pages otherwise
//! (FDB permits 10 kB keys and 100 kB values, far beyond one 4 kB page).
//!
//! ```text
//! internal := 0x01 count u16  child u32  (sep blob  child u32){count}
//! leaf     := 0x02 count u16  plen varint prefix  (suffix blob  chain blob){count}
//! overflow := 0x03 next u32  len u16  bytes
//! blob     := 0x00 len varint bytes  |  0x01 head u32  len varint
//! chain    := count varint  (version u64  0x00 | 0x01 len varint value){count}
//! ```
//!
//! This is page format 3. Every length in a blob or a chain is an unsigned
//! LEB128 varint of at most 5 bytes. A leaf stores once the longest common
//! prefix of its first and last keys, capped at `INLINE_KEY_MAX` bytes:
//! every key that sorts between them shares it, and an inline key blob
//! holds only the bytes after it. A key longer than `INLINE_KEY_MAX` is an
//! overflow blob whose pages hold the whole key, so a change of prefix
//! never rewrites an overflow chain. Record-layer keys in one leaf share
//! their store's subspace, the record or index subspace and the index name
//! (paper §3–4), so the prefix is most of each key: this is the prefix
//! B-tree of Bayer and Unterauer (ACM TODS 1977). Separators are shortest
//! prefixes already and internal nodes store them whole.
//!
//! **The prefix is a function of the entries.** It is exactly
//! LCP(first, last), so a leaf image is what encoding its entries gives,
//! whichever path wrote it. An overwrite, a removal of a key that is not at
//! either end, and an insert of a key that starts with the prefix cannot
//! change it, so each is a one-entry splice of the old bytes. An insert of a
//! key that does not start with it (the key then sorts before or after
//! every entry), a removal of an end key, and every split decode the
//! entries and encode them again under the recomputed prefix: inline
//! suffixes are cut again, and overflow keys and chain blobs are copied as
//! they are.
//!
//! **What is cached per image, what is borrowed, when a copy is made.**
//! [`BufferPool::read`] hands out the frame's own image. The first walk of
//! an image parses its entries where they lie, checking every tag, length
//! and bound as it crosses them, and leaves in the image the offset of each
//! entry: one `u16` per entry, plus the end. Every walk after that
//! binary-searches those offsets. In a leaf it compares the probe with the
//! prefix once, then with suffixes as slices of the page, and reads an
//! overflow key only when a probe lands on it. The offsets cannot go stale,
//! because an image never changes: a rewrite installs a new image whose
//! cache starts empty. [`check_consistency`] still compares every cached
//! set with a fresh parse. Bytes are copied for an overflow key a probe
//! lands on and an overflow chain that is read, for the one visible value
//! [`get`] returns, for each key a [`Cursor`] yields (prefix and suffix,
//! assembled in one buffer the cursor keeps), and for the rows a caller of
//! [`Cursor::next`] keeps. Chains are lent as slices of the leaf, which
//! [`chain_visible_at`] and [`chain_entries`] read as is.
//!
//! **Writes: one descent, an ancestor rewritten only if its child's id
//! changed.** [`write()`], [`update`] and [`prune`] descend once, keeping
//! the path. The leaf goes back through [`BufferPool::write_cow`], so the
//! tree under the last checkpoint's meta slot is never damaged in place. A
//! parent is touched — its 4-byte child pointer patched, a separator
//! spliced in — only while the page id coming up differs from the one it
//! holds or a split propagates. A page fresh since the last checkpoint
//! keeps its id and hangs only below fresh ancestors, so after the first
//! write down a path in a checkpoint epoch every later one stops at the
//! leaf. A leaf splits near the byte-weight midpoint of its entries, where
//! neighbouring keys share the fewest bytes (so a leaf that spans two
//! groups of keys splits between them), and each half stores the prefix of
//! its own ends. The exception is an insert that shortened the prefix and
//! no longer fits: it goes alone, and the entries it joined keep their
//! prefix and the image they had. An internal node splits at its middle
//! separator. Nothing rebalances on delete — keys only
//! go in MVCC compaction, and cursors skip empty leaves — and separators
//! are shortest prefixes, so internal nodes stay wide.
//!
//! A page's checksum is the first defence against a damaged file and this
//! parser the second: whatever the bytes, an operation ends in `Ok` or
//! `InvalidData` (an overflow chain must make progress; a descent deeper
//! than `MAX_DEPTH` is a cycle).

use std::borrow::Cow;
use std::cmp::Ordering;
use std::io;
use std::ops::Range;
use std::sync::Arc;

use crate::page::{PageId, MAX_PAYLOAD, NO_PAGE};
use crate::pool::{BufferPool, Image, Page};

/// Keys over this length are spilled whole to overflow pages. It also caps
/// a leaf's prefix.
const INLINE_KEY_MAX: usize = 128;
/// Chains over this encoded length are spilled to overflow pages.
const INLINE_CHAIN_MAX: usize = 512;
/// Overflow page payload: type byte + next pointer + length prefix.
const OVERFLOW_HEADER: usize = 1 + 4 + 2;
const OVERFLOW_CAP: usize = MAX_PAYLOAD - OVERFLOW_HEADER;
/// Node payload: tag + entry count.
const NODE_HEADER: usize = 1 + 2;
/// Split nodes keep a fan-out of at least two, so no tree over 32-bit page
/// ids is deeper.
const MAX_DEPTH: usize = 32;
/// No node holds more: a leaf entry is at least two empty inline blobs.
const MAX_ENTRIES: usize = MAX_PAYLOAD / 4;

const TAG_INTERNAL: u8 = 1;
const TAG_LEAF: u8 = 2;
const TAG_OVERFLOW: u8 = 3;

fn corrupt(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn too_deep() -> io::Error {
    corrupt(format!("tree deeper than {MAX_DEPTH} levels: a cycle"))
}

// ---------------------------------------------------------------- parsing

/// Bounds-checked read position in a page's payload (or, with `id`
/// `NO_PAGE`, in an encoded chain).
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    id: PageId,
}

impl<'a> Reader<'a> {
    fn at(buf: &'a [u8], pos: usize, id: PageId) -> Self {
        Reader { buf, pos, id }
    }

    fn corrupt(&self, what: &str) -> io::Error {
        corrupt(match self.id {
            NO_PAGE => format!("version chain: {what}"),
            id => format!("page {id}: {what}"),
        })
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let rest = self.buf.get(self.pos..).unwrap_or_default();
        if rest.len() < n {
            return Err(self.corrupt("truncated"));
        }
        self.pos += n;
        Ok(&rest[..n])
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// An unsigned LEB128 varint of at most 5 bytes that fits a `u32`.
    fn varint(&mut self) -> io::Result<u32> {
        let mut value = 0u64;
        for shift in (0..35).step_by(7) {
            let byte = self.take(1)?[0];
            value |= u64::from(byte & 0x7F) << shift;
            if byte < 0x80 {
                return u32::try_from(value).map_err(|_| self.corrupt("varint over 32 bits"));
            }
        }
        Err(self.corrupt("varint longer than 5 bytes"))
    }

    fn blob(&mut self) -> io::Result<Blob<'a>> {
        match self.take(1)?[0] {
            0 => {
                let len = self.varint()? as usize;
                Ok(Blob::Inline(self.take(len)?))
            }
            1 => Ok(Blob::Overflow(self.u32()?, self.varint()?)),
            flag => Err(self.corrupt(&format!("unknown blob flag {flag}"))),
        }
    }

    /// A leaf's prefix, which starts right after the node header.
    fn prefix(&mut self) -> io::Result<&'a [u8]> {
        match self.varint()? as usize {
            len if len <= INLINE_KEY_MAX => self.take(len),
            len => Err(self.corrupt(&format!("leaf prefix of {len} bytes"))),
        }
    }
}

fn put_varint(out: &mut Vec<u8>, n: usize) {
    let mut n = n as u32;
    while n >= 0x80 {
        out.push(n as u8 | 0x80);
        n >>= 7;
    }
    out.push(n as u8);
}

fn varint_len(n: usize) -> usize {
    (usize::BITS - n.leading_zeros()).max(1).div_ceil(7) as usize
}

/// The prefix stored in a leaf.
fn leaf_prefix(page: &[u8], id: PageId) -> io::Result<&[u8]> {
    Reader::at(page, NODE_HEADER, id).prefix()
}

/// Where the entries of a node tagged `tag` lie in its page, found in one
/// pass that checks every tag, length and bound of the node. Leaf: entry
/// `i` (a key blob, then its chain blob) is at `at[i]..at[i + 1]`, and the
/// prefix ends at `at[0]`. Internal: child pointer `i` is at `at[i]` and,
/// but for the last, separator `i` follows it up to `at[i + 1]`. So a leaf
/// has `at.len() - 1` entries and an internal node `at.len() - 1` children.
fn parse_index(page: &[u8], id: PageId, tag: u8) -> io::Result<Box<[u16]>> {
    let mut r = Reader::at(page, 0, id);
    let found = r.take(1)?[0];
    let count = u16::from_le_bytes(r.take(2)?.try_into().unwrap()) as usize;
    if found != tag || count > MAX_ENTRIES {
        let what = format!("page {id}: node tag {found} with {count} entries, not tag {tag}");
        return Err(corrupt(what));
    }
    if tag == TAG_LEAF {
        r.prefix()?;
    }
    let len = if tag == TAG_LEAF { count } else { count + 1 };
    let mut at = Vec::with_capacity(len + 1);
    for i in 0..len {
        at.push(r.pos as u16);
        if tag == TAG_LEAF {
            r.blob()?;
        } else {
            r.u32()?;
        }
        if tag == TAG_LEAF || i < count {
            r.blob()?;
        }
    }
    at.push(r.pos as u16);
    Ok(at.into_boxed_slice())
}

/// [`parse_index`] of a pool image, parsed the first time the image is
/// walked and read from the image after that. The tag is checked on every
/// call: offsets cached for a leaf never serve a walk that wants an
/// internal node, or the reverse.
fn index(page: &Image, id: PageId, tag: u8) -> io::Result<&[u16]> {
    match page.offsets.get() {
        Some(at) if page[0] == tag => Ok(at),
        _ => {
            let at = parse_index(page, id, tag)?;
            Ok(page.offsets.get_or_init(|| at))
        }
    }
}

/// Child pointer `i` of an internal node whose index is `at`.
fn child(page: &[u8], at: &[u16], i: usize) -> PageId {
    let at = at[i] as usize;
    u32::from_le_bytes(page[at..at + 4].try_into().unwrap())
}

/// `node` with the bytes in `range` replaced by `with`, holding `count`
/// entries; allocated at its exact size, as it becomes a pool frame.
fn spliced(node: &[u8], range: Range<usize>, with: &[u8], count: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(node.len() - range.len() + with.len());
    out.extend_from_slice(&node[..range.start]);
    out.extend_from_slice(with);
    out.extend_from_slice(&node[range.end..]);
    out[1..NODE_HEADER].copy_from_slice(&(count as u16).to_le_bytes());
    out
}

/// An internal node of `count` already-encoded entries.
fn node_from(count: usize, entries: &[u8]) -> Vec<u8> {
    [&[TAG_INTERNAL][..], &(count as u16).to_le_bytes(), entries].concat()
}

// ------------------------------------------------------------------ blobs

/// Bytes stored either inline in a node or in an overflow page chain
/// (head page, total length).
#[derive(Debug, Clone, Copy)]
enum Blob<'a> {
    Inline(&'a [u8]),
    Overflow(PageId, u32),
}

impl<'a> Blob<'a> {
    /// The blob's bytes: borrowed when inline, read out of the overflow
    /// chain otherwise.
    fn load(self, pool: &mut BufferPool) -> io::Result<Cow<'a, [u8]>> {
        match self {
            Blob::Inline(bytes) => Ok(Cow::Borrowed(bytes)),
            Blob::Overflow(head, len) => {
                let mut out = Vec::new();
                self.walk(pool, |_, _, data| out.extend_from_slice(data))?;
                if out.len() != len as usize {
                    let got = out.len();
                    let what = format!("overflow chain at page {head}: {got} bytes, not {len}");
                    return Err(corrupt(what));
                }
                Ok(Cow::Owned(out))
            }
        }
    }

    /// Release the blob's overflow pages (no-op for inline).
    fn free(self, pool: &mut BufferPool) -> io::Result<()> {
        self.walk(pool, |pool, id, _| pool.free(id))
    }

    /// Visit each overflow page of the blob, head first, stopping once the
    /// chain has yielded more than its stated length (a cycle).
    fn walk(
        self,
        pool: &mut BufferPool,
        mut visit: impl FnMut(&mut BufferPool, PageId, &[u8]),
    ) -> io::Result<()> {
        let Blob::Overflow(mut id, len) = self else {
            return Ok(());
        };
        let mut seen = 0usize;
        while id != NO_PAGE && seen <= len as usize {
            let page = pool.read(id)?;
            if page.len() < OVERFLOW_HEADER || page[0] != TAG_OVERFLOW {
                return Err(corrupt(format!("page {id} is not an overflow page")));
            }
            let n = u16::from_le_bytes(page[5..7].try_into().unwrap()) as usize;
            // An empty page would let a cyclic chain spin without growing.
            let data = page[OVERFLOW_HEADER..].get(..n).filter(|_| n > 0);
            let data = data.ok_or_else(|| corrupt(format!("overflow page {id} truncated")))?;
            visit(pool, id, data);
            seen += n;
            id = u32::from_le_bytes(page[1..5].try_into().unwrap());
        }
        Ok(())
    }

    /// Append the blob's encoding to `out`.
    fn put(self, out: &mut Vec<u8>) {
        match self {
            Blob::Inline(bytes) => {
                out.push(0);
                put_varint(out, bytes.len());
                out.extend_from_slice(bytes);
            }
            Blob::Overflow(head, len) => {
                out.push(1);
                out.extend_from_slice(&head.to_le_bytes());
                put_varint(out, len as usize);
            }
        }
    }
}

/// Write `bytes` to a new chain of overflow pages; returns its head.
fn spill(pool: &mut BufferPool, bytes: &[u8]) -> io::Result<PageId> {
    // Build the chain back to front so each page knows its successor.
    let mut next = NO_PAGE;
    for chunk in bytes.chunks(OVERFLOW_CAP).rev() {
        let mut payload = Vec::with_capacity(OVERFLOW_HEADER + chunk.len());
        payload.push(TAG_OVERFLOW);
        payload.extend_from_slice(&next.to_le_bytes());
        payload.extend_from_slice(&(chunk.len() as u16).to_le_bytes());
        payload.extend_from_slice(chunk);
        next = pool.allocate(payload)?;
    }
    Ok(next)
}

/// Append `bytes` to `out` as an encoded blob, spilling to overflow pages
/// beyond `inline_max`.
fn append_blob(
    pool: &mut BufferPool,
    bytes: &[u8],
    inline_max: usize,
    out: &mut Vec<u8>,
) -> io::Result<()> {
    let blob = match bytes.len() {
        len if len <= inline_max => Blob::Inline(bytes),
        len => Blob::Overflow(spill(pool, bytes)?, len as u32),
    };
    blob.put(out);
    Ok(())
}

// ------------------------------------------------------------ chain codec

/// One `(version, value)` entry of an encoded chain; `None` is a tombstone.
#[derive(Debug, Clone, Copy)]
pub struct ChainEntry<'a> {
    pub version: u64,
    pub value: Option<&'a [u8]>,
    /// Byte range of the entry in the encoded chain.
    at: usize,
    end: usize,
}

/// In-place iterator over an encoded chain, ascending by version. Yields
/// one `Err` and stops if the encoding is truncated.
pub struct ChainEntries<'a> {
    r: Reader<'a>,
    left: u32,
}

/// Walk an encoded version chain without decoding it.
pub fn chain_entries(chain: &[u8]) -> io::Result<ChainEntries<'_>> {
    let mut r = Reader::at(chain, 0, NO_PAGE);
    let left = r.varint()?;
    Ok(ChainEntries { r, left })
}

impl<'a> Iterator for ChainEntries<'a> {
    type Item = io::Result<ChainEntry<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        self.left = self.left.checked_sub(1)?;
        let at = self.r.pos;
        let r = &mut self.r;
        let entry = r.take(9).and_then(|head| {
            let version = u64::from_le_bytes(head[..8].try_into().unwrap());
            let value = match head[8] {
                1 => Some(r.varint().and_then(|len| r.take(len as usize))?),
                _ => None,
            };
            let end = r.pos;
            Ok(ChainEntry {
                version,
                value,
                at,
                end,
            })
        });
        if entry.is_err() {
            self.left = 0;
        }
        Some(entry)
    }
}

/// The value of the newest chain entry visible at `read_version`, if any.
pub fn chain_visible_at(chain: &[u8], read_version: u64) -> io::Result<Option<&[u8]>> {
    let mut visible = None;
    for entry in chain_entries(chain)? {
        let entry = entry?;
        if entry.version <= read_version {
            visible = entry.value;
        }
    }
    Ok(visible)
}

/// What pruning a chain at the MVCC horizon would do to it.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Prune {
    /// Nothing is shadowed.
    Keep,
    /// The `count` entries in this byte range of the chain survive.
    Trim(Range<usize>, u32),
    /// Only a tombstone at or below the horizon would remain.
    Dead,
}

/// Decide the pruning of a chain at `oldest_version`: entries shadowed at
/// the horizon go, and a lone tombstone at or below it kills the key.
fn chain_prune(chain: &[u8], oldest_version: u64) -> io::Result<Prune> {
    let entries = chain_entries(chain)?;
    let (mut total, mut dropped, mut from) = (0u32, 0u32, entries.r.pos);
    let mut last = None;
    for entry in entries {
        let entry = entry?;
        if entry.version <= oldest_version {
            (dropped, from) = (total, entry.at);
        }
        total += 1;
        last = Some(entry);
    }
    let Some(last) = last else {
        return Ok(Prune::Keep);
    };
    let count = total - dropped;
    Ok(
        if count == 1 && last.value.is_none() && last.version <= oldest_version {
            Prune::Dead
        } else if dropped == 0 {
            Prune::Keep
        } else {
            Prune::Trim(from..last.end, count)
        },
    )
}

/// `old` (empty for a new key) with one write applied, re-encoded: a write
/// at the newest entry's version replaces it, a later one is appended —
/// and then shadows the entries before it, which is also returned.
fn chain_pushed(old: &[u8], version: u64, value: Option<&[u8]>) -> io::Result<(Vec<u8>, bool)> {
    let (mut count, mut kept, mut shadows) = (0u32, &[][..], false);
    if !old.is_empty() {
        let entries = chain_entries(old)?;
        let start = entries.r.pos;
        count = entries.left;
        kept = match entries.last().transpose()? {
            Some(last) if last.version == version => {
                count -= 1;
                &old[start..last.at]
            }
            Some(last) => {
                shadows = true;
                &old[start..last.end]
            }
            None => kept,
        };
    }
    let value_len = value.map_or(0, <[u8]>::len);
    let mut out = Vec::with_capacity(5 + kept.len() + 8 + 1 + 5 + value_len);
    put_varint(&mut out, count as usize + 1);
    out.extend_from_slice(kept);
    out.extend_from_slice(&version.to_le_bytes());
    match value {
        Some(v) => {
            out.push(1);
            put_varint(&mut out, v.len());
            out.extend_from_slice(v);
        }
        None => out.push(0),
    }
    Ok((out, shadows))
}

// ------------------------------------------------------------- leaf codec

/// A leaf entry as encoding sees it: its key, and its chain blob as
/// encoded, which is copied as it is.
#[derive(Debug, Clone, Copy)]
struct Entry<'a> {
    key: Key<'a>,
    chain: &'a [u8],
}

/// The key of a leaf entry.
#[derive(Debug, Clone, Copy)]
enum Key<'a> {
    /// An inline key, whole as `head` then `tail`: a leaf's prefix and an
    /// entry's suffix, or nothing and a new key.
    Inline(&'a [u8], &'a [u8]),
    /// An overflow key: the head page and length of the pages that hold it
    /// whole.
    Overflow(PageId, u32),
}

impl<'a> Key<'a> {
    /// A new key as a leaf entry holds it: inline, or spilled whole.
    fn new(pool: &mut BufferPool, key: &'a [u8]) -> io::Result<Key<'a>> {
        Ok(match key.len() {
            len if len <= INLINE_KEY_MAX => Key::Inline(&[], key),
            len => Key::Overflow(spill(pool, key)?, len as u32),
        })
    }

    /// The whole key: borrowed when it lies in one piece, else assembled
    /// or read out of its pages.
    fn whole(self, pool: &mut BufferPool) -> io::Result<Cow<'a, [u8]>> {
        match self {
            Key::Inline([], tail) => Ok(Cow::Borrowed(tail)),
            Key::Inline(head, tail) => Ok(Cow::Owned([head, tail].concat())),
            Key::Overflow(head, len) => Blob::Overflow(head, len).load(pool),
        }
    }

    /// Bytes of the key's blob in a leaf whose prefix is `plen` long.
    fn encoded_len(self, plen: usize) -> usize {
        match self {
            Key::Inline(head, tail) => {
                let n = (head.len() + tail.len()).saturating_sub(plen);
                1 + varint_len(n) + n
            }
            Key::Overflow(_, len) => 1 + 4 + varint_len(len as usize),
        }
    }
}

/// The entries of leaf `page`, whose index is `at`, as they lie in it.
fn entries_of<'a>(page: &'a [u8], id: PageId, at: &[u16]) -> io::Result<Vec<Entry<'a>>> {
    let prefix = leaf_prefix(page, id)?;
    at.windows(2)
        .map(|span| {
            let mut r = Reader::at(page, span[0] as usize, id);
            let key = match r.blob()? {
                Blob::Inline(suffix) => Key::Inline(prefix, suffix),
                Blob::Overflow(head, len) => Key::Overflow(head, len),
            };
            let chain = &page[r.pos..span[1] as usize];
            Ok(Entry { key, chain })
        })
        .collect()
}

fn common_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// The prefix a leaf of `entries` stores: LCP(first, last), capped.
fn common_prefix(pool: &mut BufferPool, entries: &[Entry]) -> io::Result<Vec<u8>> {
    let (Some(first), Some(last)) = (entries.first(), entries.last()) else {
        return Ok(Vec::new());
    };
    let first = first.key.whole(pool)?;
    let len = match entries.len() {
        1 => first.len(),
        _ => common_len(&first, &last.key.whole(pool)?),
    };
    Ok(first[..len.min(INLINE_KEY_MAX)].to_vec())
}

/// Bytes of a leaf of `entries` under a prefix `plen` long.
fn leaf_len(plen: usize, entries: &[Entry]) -> usize {
    let body: usize = entries
        .iter()
        .map(|e| e.key.encoded_len(plen) + e.chain.len())
        .sum();
    NODE_HEADER + varint_len(plen) + plen + body
}

/// Append `entry` to leaf `id`, whose prefix is `prefix`: an inline key
/// must start with it and keeps the bytes after it.
fn put_entry(out: &mut Vec<u8>, id: PageId, prefix: &[u8], entry: &Entry) -> io::Result<()> {
    match entry.key {
        Key::Inline(head, tail) => {
            let in_head = prefix.len().min(head.len());
            let in_tail = prefix.len() - in_head;
            if head[..in_head] != prefix[..in_head]
                || tail.get(..in_tail) != Some(&prefix[in_head..])
            {
                return Err(corrupt(format!(
                    "leaf {id}: a key outside the leaf's prefix"
                )));
            }
            out.push(0);
            put_varint(out, head.len() - in_head + tail.len() - in_tail);
            out.extend_from_slice(&head[in_head..]);
            out.extend_from_slice(&tail[in_tail..]);
        }
        Key::Overflow(head, len) => Blob::Overflow(head, len).put(out),
    }
    out.extend_from_slice(entry.chain);
    Ok(())
}

/// Leaf `id` holding `entries` under `prefix`; allocated at its exact size.
fn leaf_image(id: PageId, prefix: &[u8], entries: &[Entry]) -> io::Result<Vec<u8>> {
    let mut out = Vec::with_capacity(leaf_len(prefix.len(), entries));
    out.push(TAG_LEAF);
    out.extend_from_slice(&(entries.len() as u16).to_le_bytes());
    put_varint(&mut out, prefix.len());
    out.extend_from_slice(prefix);
    for entry in entries {
        put_entry(&mut out, id, prefix, entry)?;
    }
    Ok(out)
}

// ------------------------------------------------------------------ walks

/// Find `key` among a leaf's keys or an internal node's separators, as
/// `slice::binary_search` would, through the node's index `at`. A leaf's
/// prefix is compared once; inline keys are compared where they lie; an
/// overflow key is read out of its pages only when a probe lands on it.
fn locate(
    pool: &mut BufferPool,
    page: &[u8],
    id: PageId,
    tag: u8,
    at: &[u16],
    key: &[u8],
) -> io::Result<Result<usize, usize>> {
    // An internal node's separator `i` follows child pointer `i`.
    let (keys, skip, plen) = match tag {
        TAG_LEAF => {
            let (keys, prefix) = (at.len() - 1, leaf_prefix(page, id)?);
            // Every key starts with the prefix: a probe that does not sorts
            // before or after all of them.
            if !key.starts_with(prefix) {
                return Ok(Err(if key < prefix { 0 } else { keys }));
            }
            (keys, 0, prefix.len())
        }
        _ => (at.len() - 2, 4, 0),
    };
    let (mut lo, mut hi) = (0, keys);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let order = match Reader::at(page, at[mid] as usize + skip, id).blob()? {
            Blob::Inline(stored) => stored.cmp(&key[plen..]),
            overflow => (*overflow.load(pool)?).cmp(key),
        };
        match order {
            Ordering::Less => lo = mid + 1,
            Ordering::Greater => hi = mid,
            Ordering::Equal => return Ok(Ok(mid)),
        }
    }
    Ok(Err(lo))
}

/// Route `key` from the (non-empty) root to its leaf, reporting each
/// internal node on the way, the index (`#(seps <= key)`) of the child
/// taken and the offset of that child's pointer to `step`. Returns the
/// leaf and its id.
fn descend(
    pool: &mut BufferPool,
    key: &[u8],
    mut step: impl FnMut(PageId, &Page, usize, usize),
) -> io::Result<(PageId, Page)> {
    let mut id = pool.root();
    for _ in 0..MAX_DEPTH {
        let page = pool.read(id)?;
        if page.first() == Some(&TAG_LEAF) {
            return Ok((id, page));
        }
        let at = index(&page, id, TAG_INTERNAL)?;
        let idx = match locate(pool, &page, id, TAG_INTERNAL, at, key)? {
            Ok(sep) => sep + 1,
            Err(sep) => sep,
        };
        step(id, &page, idx, at[idx] as usize);
        id = child(&page, at, idx);
    }
    Err(too_deep())
}

/// Read the value stored under `key` visible at `read_version`: one
/// descent, one copy — of the value returned.
pub fn get(pool: &mut BufferPool, key: &[u8], read_version: u64) -> io::Result<Option<Vec<u8>>> {
    if pool.root() == NO_PAGE {
        return Ok(None);
    }
    let (id, leaf) = descend(pool, key, |_, _, _, _| {})?;
    let at = index(&leaf, id, TAG_LEAF)?;
    let Ok(i) = locate(pool, &leaf, id, TAG_LEAF, at, key)? else {
        return Ok(None);
    };
    let mut r = Reader::at(&leaf, at[i] as usize, id);
    r.blob()?;
    let chain = r.blob()?.load(pool)?;
    Ok(chain_visible_at(&chain, read_version)?.map(<[u8]>::to_vec))
}

// -------------------------------------------------------------- mutations

/// The shortest separator `s` with `left_max < s <= right_min`.
fn shortest_separator<'a>(left_max: &[u8], right_min: &'a [u8]) -> &'a [u8] {
    for i in 0..right_min.len() {
        if i >= left_max.len() || right_min[i] != left_max[i] {
            return &right_min[..=i];
        }
    }
    right_min
}

/// What a mutation does to the chain stored under its key.
enum Edit {
    Put(Vec<u8>),
    Remove,
    Keep,
}

/// What a mutation does to the leaf entry at its key's slot.
enum Change<'a> {
    Insert(Entry<'a>),
    /// The entry keeps its key blob, whose bytes end at this offset, and
    /// its chain blob becomes these bytes.
    Chain(usize, &'a [u8]),
    Remove,
}

/// A rewritten node's page id, and `(encoded separator, right sibling)`
/// when it split.
type Written = (PageId, Option<(Vec<u8>, PageId)>);

/// The one write path: descend to `key`'s leaf, let `change` see the chain
/// stored there, put the outcome into the leaf — a one-entry splice of its
/// bytes where the prefix cannot change, else its entries encoded again —
/// and write it back, then walk up the remembered path for as long as a
/// page id changed or a split propagates. Returns whether the key was
/// present.
fn edit(
    pool: &mut BufferPool,
    key: &[u8],
    change: impl FnOnce(Option<&[u8]>) -> io::Result<Edit>,
) -> io::Result<bool> {
    if pool.root() == NO_PAGE {
        if let Edit::Put(chain) = change(None)? {
            let mut chain_blob = Vec::new();
            append_blob(pool, &chain, INLINE_CHAIN_MAX, &mut chain_blob)?;
            let key = Key::new(pool, key)?;
            let entries = [Entry {
                key,
                chain: &chain_blob,
            }];
            let leaf = leaf_image(NO_PAGE, &common_prefix(pool, &entries)?, &entries)?;
            let id = pool.allocate(leaf)?;
            pool.set_root(id);
        }
        return Ok(false);
    }
    let mut path = Vec::new();
    let step = |id, page: &Page, _, at| path.push((id, Arc::clone(page), at));
    let (leaf_id, old) = descend(pool, key, step)?;
    let at = index(&old, leaf_id, TAG_LEAF)?;
    let prefix = leaf_prefix(&old, leaf_id)?;
    let count = at.len() - 1;
    let slot = locate(pool, &old, leaf_id, TAG_LEAF, at, key)?;
    let (Ok(i) | Err(i)) = slot;
    let start = at[i] as usize;
    // The entry's byte range, and its key blob, chain offset and chain blob.
    let (mut span, mut stored) = (start..start, None);
    if slot.is_ok() {
        let mut r = Reader::at(&old, start, leaf_id);
        stored = Some((r.blob()?, r.pos, r.blob()?));
        span.end = r.pos;
    }
    let old_chain = stored.map(|(_, _, chain)| chain.load(pool)).transpose()?;
    let mut chain_blob = Vec::new();
    let change = match (change(old_chain.as_deref())?, stored) {
        (Edit::Keep, _) | (Edit::Remove, None) => return Ok(slot.is_ok()),
        (Edit::Put(chain), stored) => {
            // A key written on every commit rewrites its whole retained
            // chain; this histogram's max shows how long that gets.
            if rl_obs::enabled() {
                rl_obs::Recorder::global().record("chain_bytes", chain.len() as u64);
            }
            // Chain blob first, then the old chain freed or the key blob
            // made: the allocation order the file layout depends on.
            append_blob(pool, &chain, INLINE_CHAIN_MAX, &mut chain_blob)?;
            match stored {
                Some((_, chain_at, old_chain)) => {
                    old_chain.free(pool)?;
                    Change::Chain(chain_at, &chain_blob)
                }
                None => Change::Insert(Entry {
                    key: Key::new(pool, key)?,
                    chain: &chain_blob,
                }),
            }
        }
        (Edit::Remove, Some((old_key, _, old_chain))) => {
            old_key.free(pool)?;
            old_chain.free(pool)?;
            Change::Remove
        }
    };
    // Where the prefix cannot change, the new image is the old one with
    // one entry spliced in, replaced or cut out.
    let (with, new_count) = match &change {
        Change::Chain(chain_at, chain) => (Some([&old[start..*chain_at], chain].concat()), count),
        Change::Insert(entry) if count > 0 && key.starts_with(prefix) => {
            let mut with = Vec::new();
            put_entry(&mut with, leaf_id, prefix, entry)?;
            (Some(with), count + 1)
        }
        Change::Remove if 0 < i && i + 1 < count => (Some(Vec::new()), count - 1),
        _ => (None, count),
    };
    let leaf = with
        .map(|with| spliced(&old, span, &with, new_count))
        .filter(|leaf| leaf.len() <= MAX_PAYLOAD);
    let written = match leaf {
        Some(leaf) => (pool.write_cow(leaf_id, leaf)?, None),
        None => {
            let mut entries = entries_of(&old, leaf_id, at)?;
            let mut lone = None;
            match change {
                Change::Insert(entry) => {
                    entries.insert(i, entry);
                    lone = Some(i).filter(|_| !key.starts_with(prefix));
                }
                Change::Chain(_, chain) => entries[i].chain = chain,
                Change::Remove => {
                    entries.remove(i);
                }
            }
            write_leaf(pool, leaf_id, &entries, lone)?
        }
    };

    let (mut child, mut written) = (leaf_id, written);
    for (parent, page, at) in path.into_iter().rev() {
        let (new_child, split) = written;
        if new_child == child && split.is_none() {
            return Ok(slot.is_ok());
        }
        let mut count = index(&page, parent, TAG_INTERNAL)?.len() - 2;
        let mut entry = new_child.to_le_bytes().to_vec();
        if let Some((sep, right)) = split {
            entry.extend_from_slice(&sep);
            entry.extend_from_slice(&right.to_le_bytes());
            count += 1;
        }
        let node = spliced(&page, at..at + 4, &entry, count);
        (child, written) = (parent, write_internal(pool, parent, node)?);
    }
    let root = match written {
        (root, None) => root,
        (left, Some((sep, right))) => {
            let entries = [&left.to_le_bytes(), &sep[..], &right.to_le_bytes()].concat();
            pool.allocate(node_from(1, &entries))?
        }
    };
    pool.set_root(root);
    Ok(slot.is_ok())
}

/// Write `entries` back as leaf `id` (CoW) under the prefix of their ends,
/// splitting when they do not fit one page. The cut is after or before
/// entry `lone` — an inserted key that shortened the prefix, which then
/// goes alone — or else at the [`split_point`]; each half stores the
/// prefix of its own ends.
fn write_leaf(
    pool: &mut BufferPool,
    id: PageId,
    entries: &[Entry],
    lone: Option<usize>,
) -> io::Result<Written> {
    let prefix = common_prefix(pool, entries)?;
    if leaf_len(prefix.len(), entries) <= MAX_PAYLOAD {
        let leaf = leaf_image(id, &prefix, entries)?;
        return Ok((pool.write_cow(id, leaf)?, None));
    }
    let count = entries.len();
    if count < 2 {
        return Err(corrupt(format!("leaf {id}: one entry fills the page")));
    }
    let cut = match lone {
        Some(0) => 1,
        Some(_) => count - 1,
        None => split_point(&prefix, entries),
    };
    let (left, right) = entries.split_at(cut);
    let left_max = left[cut - 1].key.whole(pool)?;
    let right_min = right[0].key.whole(pool)?;
    if left_max >= right_min {
        return Err(corrupt(format!("leaf {id}: keys out of order")));
    }
    let mut sep = Vec::new();
    let sep_bytes = shortest_separator(&left_max, &right_min);
    append_blob(pool, sep_bytes, INLINE_KEY_MAX, &mut sep)?;
    let left = leaf_image(id, &common_prefix(pool, left)?, left)?;
    let right = leaf_image(id, &common_prefix(pool, right)?, right)?;
    let left_id = pool.write_cow(id, left)?;
    Ok((left_id, Some((sep, pool.allocate(right)?))))
}

/// Where an oversized leaf of `entries` under `prefix` splits: between the
/// two neighbours that share the fewest leading bytes among the cuts in
/// the middle quarter of its byte weight, nearest the middle on a tie, so
/// a leaf that spans two groups of keys splits between them and both
/// halves store their group's prefix (the split interval of Bayer and
/// Unterauer). Each side then weighs at most 5/8 of a leaf that outgrew
/// one page by an entry, and fits. With no cut in that quarter, the
/// midpoint; both sides are non-empty either way.
fn split_point(prefix: &[u8], entries: &[Entry]) -> usize {
    let weight = |e: &Entry| e.key.encoded_len(prefix.len()) + e.chain.len();
    let total: usize = entries.iter().map(weight).sum();
    let (mut below, mut best, mut midpoint) = (0, None, None);
    for i in 1..entries.len() {
        below += weight(&entries[i - 1]);
        if midpoint.is_none() && 2 * below >= total {
            midpoint = Some(i);
        }
        if (3 * total..=5 * total).contains(&(8 * below)) {
            let rank = (
                shared_len(entries[i - 1].key, entries[i].key),
                total.abs_diff(2 * below),
            );
            best = best.filter(|&(least, _)| least <= rank).or(Some((rank, i)));
        }
    }
    best.map(|(_, i)| i)
        .or(midpoint)
        .unwrap_or(entries.len() - 1)
}

/// How many leading bytes two keys share, for inline keys; an overflow key
/// is never a cut's best neighbour, because its bytes lie in its pages.
fn shared_len(a: Key, b: Key) -> usize {
    match (a, b) {
        (Key::Inline(a, a_tail), Key::Inline(b, b_tail)) => {
            let (a, b) = (a.iter().chain(a_tail), b.iter().chain(b_tail));
            a.zip(b).take_while(|(x, y)| x == y).count()
        }
        _ => usize::MAX,
    }
}

/// Write an internal node back (CoW), splitting when oversized.
fn write_internal(pool: &mut BufferPool, id: PageId, node: Vec<u8>) -> io::Result<Written> {
    if node.len() <= MAX_PAYLOAD {
        return Ok((pool.write_cow(id, node)?, None));
    }
    let index = parse_index(&node, id, TAG_INTERNAL)?;
    let count = index.len() - 2;
    if count < 3 {
        return Err(corrupt(format!("internal {id}: too few separators")));
    }
    // Promote the middle separator; each side keeps >= 1 separator.
    let mid = (count / 2).clamp(1, count - 2);
    let sep = index[mid] as usize + 4..index[mid + 1] as usize;
    let left = node_from(mid, &node[NODE_HEADER..sep.start]);
    let right = node_from(count - mid - 1, &node[sep.end..index[count + 1] as usize]);
    let promoted = node[sep].to_vec();
    let left_id = pool.write_cow(id, left)?;
    Ok((left_id, Some((promoted, pool.allocate(right)?))))
}

/// The one way an entry gets onto `key`'s chain (versions arrive in
/// nondecreasing order): `value_of` sees the chain stored (empty for a new
/// key), and its value — `None` a tombstone — replaces the newest entry if
/// that is at `version`, else is appended. Returns whether the write left
/// something for compaction: an older entry shadowed, or a tombstone.
fn push<V: AsRef<[u8]>>(
    pool: &mut BufferPool,
    key: &[u8],
    version: u64,
    value_of: impl FnOnce(&[u8]) -> io::Result<Option<V>>,
) -> io::Result<bool> {
    let mut garbage = false;
    edit(pool, key, |old| {
        let old = old.unwrap_or_default();
        let value = value_of(old)?;
        let (chain, shadows) = chain_pushed(old, version, value.as_ref().map(V::as_ref))?;
        garbage = shadows || value.is_none();
        Ok(Edit::Put(chain))
    })?;
    Ok(garbage)
}

/// Write `value` (`None`: a tombstone) under `key` at `version`; see
/// `push` for what is returned.
pub fn write(
    pool: &mut BufferPool,
    key: &[u8],
    version: u64,
    value: Option<&[u8]>,
) -> io::Result<bool> {
    push(pool, key, version, |_| Ok(value))
}

/// Read-modify-write in the one descent of a [`write()`]: `f` sees the value
/// visible at `version` in the chain the descent ends on, and what it
/// returns is written at `version`.
pub fn update(
    pool: &mut BufferPool,
    key: &[u8],
    version: u64,
    f: impl FnOnce(Option<&[u8]>) -> Option<Vec<u8>>,
) -> io::Result<bool> {
    push(pool, key, version, |old| {
        Ok(f(match old {
            [] => None,
            old => chain_visible_at(old, version)?,
        }))
    })
}

/// Rewrite `key`'s chain as `chain_prune` at `oldest_version` decides:
/// trimmed, removed with its key when dead (leaves are not rebalanced; an
/// emptied leaf stays in place and cursors skip it), or left alone.
pub fn prune(pool: &mut BufferPool, key: &[u8], oldest_version: u64) -> io::Result<()> {
    let pruned = |old: &[u8]| {
        Ok(match chain_prune(old, oldest_version)? {
            Prune::Keep => Edit::Keep,
            Prune::Dead => Edit::Remove,
            Prune::Trim(kept, count) => {
                let mut chain = Vec::with_capacity(5 + kept.len());
                put_varint(&mut chain, count as usize);
                chain.extend_from_slice(&old[kept]);
                Edit::Put(chain)
            }
        })
    };
    edit(pool, key, |old| old.map_or(Ok(Edit::Keep), pruned)).map(drop)
}

// ---------------------------------------------------------------- cursors

/// A streaming tree cursor (forward or backward) over a range. Valid only
/// while no mutation runs — exactly the discipline the engine's `&mut self`
/// methods already enforce.
#[derive(Debug)]
pub struct Cursor<'r> {
    /// Internal-node trail: (page id, image, child index descended into).
    stack: Vec<(PageId, Page, usize)>,
    leaf: Page,
    leaf_id: PageId,
    /// Forward: next index to yield. Backward: one past the next index.
    pos: usize,
    forward: bool,
    /// The far end of the range: exclusive going forward, inclusive going
    /// backward; `None` is the end of the tree.
    to: Option<&'r [u8]>,
    done: bool,
    /// Where the current key is assembled from the leaf's prefix and its
    /// suffix, or read out of overflow pages, and where an overflow chain
    /// is read out to.
    key: Vec<u8>,
    chain: Vec<u8>,
}

impl<'r> Cursor<'r> {
    /// A cursor standing before the first key `>= from`. Going `forward`
    /// it yields the keys from there up to `to`, exclusive; going backward
    /// the keys below `from` down to `to`, inclusive. `to` `None` runs to
    /// the end of the tree.
    pub fn seek(
        pool: &mut BufferPool,
        from: &[u8],
        to: Option<&'r [u8]>,
        forward: bool,
    ) -> io::Result<Cursor<'r>> {
        let mut cursor = Cursor {
            stack: Vec::new(),
            leaf: Page::default(),
            leaf_id: NO_PAGE,
            pos: 0,
            forward,
            to,
            done: pool.root() == NO_PAGE,
            key: Vec::new(),
            chain: Vec::new(),
        };
        if !cursor.done {
            let stack = &mut cursor.stack;
            let step = |id, page: &Page, idx, _| stack.push((id, Arc::clone(page), idx));
            let (id, leaf) = descend(pool, from, step)?;
            let at = index(&leaf, id, TAG_LEAF)?;
            let (Ok(pos) | Err(pos)) = locate(pool, &leaf, id, TAG_LEAF, at, from)?;
            (cursor.leaf_id, cursor.leaf, cursor.pos) = (id, leaf, pos);
        }
        Ok(cursor)
    }

    /// Yield the next `(key, encoded chain)` in cursor direction, or `None`
    /// once the range or the tree ends. The slices borrow the cursor until
    /// the next call.
    pub fn next(&mut self, pool: &mut BufferPool) -> io::Result<Option<(&[u8], &[u8])>> {
        let at = loop {
            if self.done {
                return Ok(None);
            }
            let at = index(&self.leaf, self.leaf_id, TAG_LEAF)?;
            if self.forward && self.pos < at.len() - 1 {
                self.pos += 1;
                break at[self.pos - 1];
            }
            if !self.forward && self.pos > 0 {
                self.pos -= 1;
                break at[self.pos];
            }
            self.done = !self.next_leaf(pool)?;
        };
        let (leaf, id) = (&self.leaf, self.leaf_id);
        let mut r = Reader::at(leaf, at as usize, id);
        self.key.clear();
        match r.blob()? {
            Blob::Inline(suffix) => {
                self.key.extend_from_slice(leaf_prefix(leaf, id)?);
                self.key.extend_from_slice(suffix);
            }
            overflow => self.key = overflow.load(pool)?.into_owned(),
        }
        let past = |to: &[u8]| match self.forward {
            true => *self.key >= *to,
            false => *self.key < *to,
        };
        if self.to.is_some_and(past) {
            self.done = true;
            return Ok(None);
        }
        let chain = match r.blob()?.load(pool)? {
            Cow::Borrowed(chain) => chain,
            Cow::Owned(chain) => {
                self.chain = chain;
                &self.chain
            }
        };
        Ok(Some((&self.key, chain)))
    }

    /// Move to the neighbouring leaf in cursor direction: up the trail to
    /// the first node with a further child on that side, then down that
    /// child's near edge. The separator between the two children bounds
    /// every key beyond it, so a range whose far end does not lie beyond
    /// it ends there, without reading another page. Every leaf lies as
    /// deep as the one the cursor leaves, so the way down is internal nodes
    /// to that depth, then a leaf; a node of the other kind on it is
    /// damage. `false` at the end of the range or the tree.
    fn next_leaf(&mut self, pool: &mut BufferPool) -> io::Result<bool> {
        let depth = self.stack.len();
        while let Some((parent, page, idx)) = self.stack.pop() {
            let at = index(&page, parent, TAG_INTERNAL)?;
            let children = at.len() - 1;
            let sibling = match self.forward {
                true => Some(idx + 1).filter(|&i| i < children),
                false => idx.checked_sub(1).filter(|&i| i < children),
            };
            let Some(idx) = sibling else {
                continue;
            };
            if let Some(to) = self.to {
                // Separator `i` lies between children `i` and `i + 1`: the
                // keys going forward are >= it, going backward < it.
                let sep = idx - usize::from(self.forward);
                let sep = Reader::at(&page, at[sep] as usize + 4, parent).blob()?;
                let sep = sep.load(pool)?;
                if (self.forward && to <= &*sep) || (!self.forward && to >= &*sep) {
                    return Ok(false);
                }
            }
            let mut id = child(&page, at, idx);
            self.stack.push((parent, page, idx));
            while self.stack.len() < depth {
                let page = pool.read(id)?;
                let at = index(&page, id, TAG_INTERNAL)?;
                let idx = if self.forward { 0 } else { at.len() - 2 };
                let below = child(&page, at, idx);
                self.stack.push((id, page, idx));
                id = below;
            }
            let leaf = pool.read(id)?;
            let entries = index(&leaf, id, TAG_LEAF)?.len() - 1;
            self.pos = if self.forward { 0 } else { entries };
            (self.leaf_id, self.leaf) = (id, leaf);
            return Ok(true);
        }
        Ok(false)
    }
}

// ------------------------------------------------------------ diagnostics

/// Walk the whole tree verifying structure: separator and key ordering,
/// bounds implied by separators, each leaf's prefix (exactly the common
/// prefix of its first and last keys, capped, and a prefix of every key),
/// blob/chain decodability, and ascending versions within chains. Returns
/// the number of keys. Entry offsets cached with a page image must equal a
/// fresh parse of its bytes; stale offsets are a bug, not damage, so they
/// panic.
pub fn check_consistency(pool: &mut BufferPool) -> io::Result<usize> {
    match pool.root() {
        NO_PAGE => Ok(0),
        root => check_rec(pool, root, None, None, 0),
    }
}

fn check_rec(
    pool: &mut BufferPool,
    id: PageId,
    lower: Option<&[u8]>,
    upper: Option<&[u8]>,
    depth: usize,
) -> io::Result<usize> {
    if depth >= MAX_DEPTH {
        return Err(too_deep());
    }
    let page = pool.read(id)?;
    let is_leaf = page.first() == Some(&TAG_LEAF);
    let index = parse_index(&page, id, if is_leaf { TAG_LEAF } else { TAG_INTERNAL })?;
    if let Some(cached) = page.offsets.get() {
        assert_eq!(cached, &index, "page {id}: cached entry offsets are stale");
    }
    // Entries of a leaf, children of an internal node.
    let len = index.len() - 1;
    if is_leaf {
        let prefix = leaf_prefix(&page, id)?;
        let mut keys: Vec<Vec<u8>> = Vec::with_capacity(len);
        for &at in &index[..len] {
            let mut r = Reader::at(&page, at as usize, id);
            let key = match r.blob()? {
                Blob::Inline(suffix) => [prefix, suffix].concat(),
                overflow => overflow.load(pool)?.into_owned(),
            };
            if !key.starts_with(prefix) {
                return Err(corrupt(format!("leaf {id}: key outside the leaf's prefix")));
            }
            if lower.is_some_and(|lo| *key < *lo) {
                return Err(corrupt(format!("leaf {id}: key below lower bound")));
            }
            if upper.is_some_and(|hi| *key >= *hi) {
                return Err(corrupt(format!("leaf {id}: key above upper bound")));
            }
            if keys.last().is_some_and(|p| *p >= key) {
                return Err(corrupt(format!("leaf {id}: keys out of order")));
            }
            let chain = r.blob()?.load(pool)?;
            let mut newest = 0u64;
            for entry in chain_entries(&chain)? {
                let version = entry?.version;
                if version < newest {
                    return Err(corrupt(format!("leaf {id}: chain versions out of order")));
                }
                newest = version;
            }
            keys.push(key);
        }
        let common = match (keys.first(), keys.last()) {
            (Some(first), Some(last)) => &first[..common_len(first, last).min(INLINE_KEY_MAX)],
            _ => &[],
        };
        if common != prefix {
            let what = format!("leaf {id}: stored prefix is not that of its first and last keys");
            return Err(corrupt(what));
        }
        return Ok(len);
    }
    let mut seps = Vec::with_capacity(len - 1);
    for &at in &index[..len - 1] {
        let sep = Reader::at(&page, at as usize + 4, id).blob()?;
        seps.push(sep.load(pool)?);
    }
    if seps.windows(2).any(|w| w[0] >= w[1]) {
        return Err(corrupt(format!("internal {id}: separators out of order")));
    }
    let mut keys = 0usize;
    for i in 0..len {
        let lo = i.checked_sub(1).map(|i| &*seps[i]).or(lower);
        let hi = seps.get(i).map(|s| &**s).or(upper);
        keys += check_rec(pool, child(&page, &index, i), lo, hi, depth + 1)?;
    }
    Ok(keys)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::IoCounters;

    fn pool(name: &str, pages: usize) -> (BufferPool, std::path::PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("rl-storage-btree-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let p = BufferPool::open(&dir.join("pages.db"), pages, IoCounters::new_shared()).unwrap();
        (p, dir)
    }

    fn put(pool: &mut BufferPool, key: &[u8], version: u64, value: &[u8]) {
        write(pool, key, version, Some(value)).unwrap();
    }

    /// Keys a cursor yields until it ends or reaches `stop`.
    fn keys_until(pool: &mut BufferPool, mut cursor: Cursor<'_>, stop: &[u8]) -> Vec<Vec<u8>> {
        let mut seen = Vec::new();
        while let Some((key, _)) = cursor.next(pool).unwrap() {
            if key == stop {
                break;
            }
            seen.push(key.to_vec());
        }
        seen
    }

    #[test]
    fn put_get_many_keys_with_splits() {
        let (mut pool, dir) = pool("splits", 64);
        // Insert in a shuffled-ish order to exercise splits on both sides.
        let mut keys: Vec<u32> = (0..500).collect();
        keys.reverse();
        for &i in &keys {
            let key = format!("key-{i:05}").into_bytes();
            put(&mut pool, &key, 10, format!("val-{i}").as_bytes());
        }
        assert_eq!(check_consistency(&mut pool).unwrap(), 500);
        for i in (0..500).step_by(17) {
            let key = format!("key-{i:05}").into_bytes();
            assert_eq!(
                get(&mut pool, &key, 10).unwrap(),
                Some(format!("val-{i}").into_bytes())
            );
            assert_eq!(get(&mut pool, &key, 9).unwrap(), None);
        }
        assert!(get(&mut pool, b"missing", 10).unwrap().is_none());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn big_values_spill_to_overflow() {
        let (mut pool, dir) = pool("overflow", 64);
        let big = vec![0x5A; 90_000]; // ~22 overflow pages
        put(&mut pool, b"big", 5, &big);
        put(&mut pool, b"small", 5, b"x");
        assert_eq!(get(&mut pool, b"big", 9).unwrap(), Some(big.clone()));
        // Pruning the big version away frees its overflow pages for reuse.
        put(&mut pool, b"big", 6, b"tiny-now");
        prune(&mut pool, b"big", 6).unwrap();
        assert_eq!(
            get(&mut pool, b"big", 9).unwrap(),
            Some(b"tiny-now".to_vec())
        );
        let pages = pool.page_count();
        put(&mut pool, b"big-again", 7, &big);
        assert_eq!(pool.page_count(), pages, "overflow pages reused");
        assert_eq!(check_consistency(&mut pool).unwrap(), 3);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn long_keys_spill_to_overflow() {
        let (mut pool, dir) = pool("longkeys", 64);
        let mut long_a = vec![b'a'; 9_000];
        long_a.push(1);
        let mut long_b = vec![b'a'; 9_000]; // shares a 9000-byte prefix
        long_b.push(2);
        put(&mut pool, &long_a, 5, b"A");
        put(&mut pool, &long_b, 5, b"B");
        put(&mut pool, b"zz", 5, b"Z");
        assert_eq!(get(&mut pool, &long_a, 9).unwrap(), Some(b"A".to_vec()));
        assert_eq!(get(&mut pool, &long_b, 9).unwrap(), Some(b"B".to_vec()));
        assert_eq!(check_consistency(&mut pool).unwrap(), 3);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn cursors_stream_both_directions() {
        let (mut pool, dir) = pool("cursors", 64);
        for i in 0..200u32 {
            let key = format!("k{i:04}").into_bytes();
            put(&mut pool, &key, 10, &i.to_le_bytes());
        }
        let cursor = Cursor::seek(&mut pool, b"k0050", None, true).unwrap();
        let seen = keys_until(&mut pool, cursor, b"k0060");
        let want: Vec<Vec<u8>> = (50..60).map(|i| format!("k{i:04}").into_bytes()).collect();
        assert_eq!(seen, want);

        let cursor = Cursor::seek(&mut pool, b"k0010", None, false).unwrap();
        let seen = keys_until(&mut pool, cursor, b"");
        let want: Vec<Vec<u8>> = (0..10)
            .rev()
            .map(|i| format!("k{i:04}").into_bytes())
            .collect();
        assert_eq!(seen, want);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn prune_removes_dead_keys() {
        let (mut pool, dir) = pool("remove", 64);
        for i in 0..100u32 {
            put(&mut pool, format!("k{i:03}").as_bytes(), 10, b"v");
        }
        for i in (0..100u32).step_by(2) {
            let key = format!("k{i:03}");
            assert!(write(&mut pool, key.as_bytes(), 20, None).unwrap());
            prune(&mut pool, key.as_bytes(), 15).unwrap(); // still visible at 15
        }
        assert_eq!(check_consistency(&mut pool).unwrap(), 100);
        for i in (0..100u32).step_by(2) {
            prune(&mut pool, format!("k{i:03}").as_bytes(), 20).unwrap();
        }
        prune(&mut pool, b"k000", 20).unwrap(); // gone already: a no-op
        prune(&mut pool, b"k001", 20).unwrap(); // a lone value stays
        assert_eq!(check_consistency(&mut pool).unwrap(), 50);
        assert!(get(&mut pool, b"k001", 10).unwrap().is_some());
        assert!(get(&mut pool, b"k002", 10).unwrap().is_none());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn tiny_pool_still_correct() {
        // A 4-frame pool forces constant eviction under every operation.
        let (mut pool, dir) = pool("tiny", 4);
        for i in 0..300u32 {
            let key = format!("k{i:04}").into_bytes();
            put(&mut pool, &key, 10, format!("v{i}").as_bytes());
        }
        assert_eq!(check_consistency(&mut pool).unwrap(), 300);
        for i in (0..300).step_by(23) {
            assert_eq!(
                get(&mut pool, format!("k{i:04}").as_bytes(), 10).unwrap(),
                Some(format!("v{i}").into_bytes())
            );
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn encoded_chain_push_visibility_and_prune() {
        let (mut chain, shadows) = chain_pushed(&[], 10, Some(b"a")).unwrap();
        assert!(!shadows);
        (chain, _) = chain_pushed(&chain, 20, Some(b"b")).unwrap();
        (chain, _) = chain_pushed(&chain, 20, Some(b"b2")).unwrap(); // same version: replaced
        let (chain, shadows) = chain_pushed(&chain, 30, None).unwrap();
        assert!(shadows);
        let versions: Vec<u64> = chain_entries(&chain)
            .unwrap()
            .map(|e| e.unwrap().version)
            .collect();
        assert_eq!(versions, [10, 20, 30]);
        assert_eq!(chain_visible_at(&chain, 9).unwrap(), None);
        assert_eq!(chain_visible_at(&chain, 19).unwrap(), Some(&b"a"[..]));
        assert_eq!(chain_visible_at(&chain, 29).unwrap(), Some(&b"b2"[..]));
        assert_eq!(chain_visible_at(&chain, 99).unwrap(), None);
        assert_eq!(chain_prune(&chain, 5).unwrap(), Prune::Keep);
        assert_eq!(chain_prune(&chain, 10).unwrap(), Prune::Keep);
        assert!(matches!(
            chain_prune(&chain, 25).unwrap(),
            Prune::Trim(_, 2)
        ));
        assert_eq!(chain_prune(&chain, 30).unwrap(), Prune::Dead);
        // Every truncation is an error, never a short read or a panic.
        for cut in 0..chain.len() {
            assert!(chain_visible_at(&chain[..cut], 99).is_err(), "cut {cut}");
        }
    }

    /// The mixed case the in-place walk must not get wrong: leaves whose
    /// entries alternate inline and overflow keys (neighbours sharing a
    /// 9 000-byte prefix) and inline and overflow chains, under a root whose
    /// separators are inline and overflow in turn.
    #[test]
    fn alternating_inline_and_overflow_entries() {
        let (mut pool, dir) = pool("mixed", 32);
        // Per group: a short key, then three long ones that extend it.
        let keys: Vec<Vec<u8>> = (0..75u32)
            .flat_map(|g| {
                let short = format!("g{g:03}").into_bytes();
                let long = |tail: u8| [&short[..], &[b'm'; 9_000], &[tail]].concat();
                [short.clone(), long(1), long(2), long(3)]
            })
            .collect();
        let n = keys.len();
        let value = |i: usize, round: u8| vec![round; if i.is_multiple_of(3) { 700 } else { 300 }];
        for step in 0..n {
            let i = step * 7 % n;
            put(&mut pool, &keys[i], 10, &value(i, 1));
            if step % 50 == 0 {
                check_consistency(&mut pool).unwrap();
            }
        }
        assert_eq!(check_consistency(&mut pool).unwrap(), n);
        let root = pool.root();
        let page = pool.read(root).unwrap();
        let index = parse_index(&page, root, TAG_INTERNAL).expect("enough entries to split");
        let (mut inline, mut overflow) = (0, 0);
        for &at in &index[..index.len() - 2] {
            match Reader::at(&page, at as usize + 4, root).blob().unwrap() {
                Blob::Inline(_) => inline += 1,
                Blob::Overflow(..) => overflow += 1,
            }
        }
        assert!(
            inline > 0 && overflow > 0,
            "{inline} inline, {overflow} overflow separators"
        );

        // Overwrite every fifth key, twice at one version, with a value of
        // the other size class: inline chains spill, spilled ones stay.
        let newest = |i: usize| match i % 5 {
            0 => value(i + 1, 3),
            _ => value(i, 1),
        };
        for i in (0..n).step_by(5) {
            put(&mut pool, &keys[i], 20, &value(i, 2));
            put(&mut pool, &keys[i], 20, &newest(i));
        }
        assert_eq!(check_consistency(&mut pool).unwrap(), n);
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(get(&mut pool, key, 15).unwrap(), Some(value(i, 1)));
            assert_eq!(get(&mut pool, key, 25).unwrap(), Some(newest(i)));
            let absent = [&key[..], &[0]].concat();
            assert_eq!(get(&mut pool, &absent, 25).unwrap(), None);
        }

        let cursor = Cursor::seek(&mut pool, b"", None, true).unwrap();
        assert_eq!(keys_until(&mut pool, cursor, b"\xff"), keys);
        let cursor = Cursor::seek(&mut pool, b"\xff", None, false).unwrap();
        let mut reversed = keys_until(&mut pool, cursor, b"");
        reversed.reverse();
        assert_eq!(reversed, keys);
        // Seek between two overflow keys, both ways.
        let cursor = Cursor::seek(&mut pool, &keys[150], None, true).unwrap();
        assert_eq!(keys_until(&mut pool, cursor, &keys[153]), keys[150..153]);
        let cursor = Cursor::seek(&mut pool, &keys[150], None, false).unwrap();
        assert_eq!(
            keys_until(&mut pool, cursor, &keys[147]),
            [keys[149].clone(), keys[148].clone()]
        );

        // Trim and remove, inline and overflow alike.
        for i in (0..n).step_by(5) {
            prune(&mut pool, &keys[i], 20).unwrap();
            assert_eq!(get(&mut pool, &keys[i], 15).unwrap(), None);
        }
        for i in (0..n).step_by(2) {
            assert!(write(&mut pool, &keys[i], 30, None).unwrap());
            prune(&mut pool, &keys[i], 30).unwrap();
            prune(&mut pool, &keys[i], 30).unwrap();
        }
        assert_eq!(check_consistency(&mut pool).unwrap(), n / 2);
        for (i, key) in keys.iter().enumerate() {
            let want = (i % 2 == 1).then(|| newest(i));
            assert_eq!(get(&mut pool, key, 35).unwrap(), want);
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// Every node under `id` with its depth (the root's is 0).
    fn nodes(
        pool: &mut BufferPool,
        id: PageId,
        depth: usize,
        out: &mut Vec<(usize, PageId, Page)>,
    ) {
        let page = pool.read(id).unwrap();
        out.push((depth, id, Arc::clone(&page)));
        if page[0] == TAG_INTERNAL {
            let at = parse_index(&page, id, TAG_INTERNAL).unwrap();
            for i in 0..at.len() - 1 {
                nodes(pool, child(&page, &at, i), depth + 1, out);
            }
        }
    }

    /// The binary `locate` against a `BTreeMap` model, on a tree three
    /// levels deep whose keys mix inline and overflow (over
    /// `INLINE_KEY_MAX` bytes) keys. For every key ever stored, its
    /// successor `key\0`, a key below the first and one above the last,
    /// `get` and a forward and a reverse limit-1 seek must agree with the
    /// model; then each probe is written and read back. The generator case
    /// that reaches each branch, each asserted to occur:
    /// - `Equal` on an internal separator, which must go to the right
    ///   child: keys come in pairs `x`, `x\0`, so a split between a pair
    ///   makes `x\0` itself the separator, and `get` probes it.
    /// - A probe landing on an overflow key: `get` of every long key ends
    ///   on the key itself. Neighbouring long keys share 145 bytes, so the
    ///   separators between them are overflow blobs too.
    /// - An insertion point after a leaf's last entry: the write of the
    ///   key above the last, and of `l\0` for a long key `l` ending a leaf.
    /// - An empty leaf left behind by `prune`: the keys of 60 groups are
    ///   tombstoned and pruned, emptying whole leaves, which the probes of
    ///   those keys then descend into and the seeks step over.
    #[test]
    fn binary_locate_agrees_with_a_model() {
        let (mut pool, dir) = pool("model", 64);
        // A 100-byte common prefix keeps separators long, so internal
        // nodes fill after a few dozen leaves.
        let group = |g: u32| {
            let short = [&[b'p'; 100][..], format!("g{g:03}").as_bytes()].concat();
            let long = |tail: u8| [&short[..], &[b'm'; 40], &[tail]].concat();
            let succ = |key: &[u8]| [key, &[0]].concat();
            [
                short.clone(),
                succ(&short),
                long(1),
                succ(&long(1)),
                long(2),
            ]
        };
        let keys: Vec<Vec<u8>> = (0..200).flat_map(group).collect();
        assert!(keys.is_sorted());
        let n = keys.len();
        let value = |i: usize, round: u8| vec![round; 250 + i % 150];
        let mut model = BTreeMap::new();
        for step in 0..n {
            let i = step * 7 % n;
            put(&mut pool, &keys[i], 10, &value(i, 1));
            model.insert(keys[i].clone(), value(i, 1));
        }
        for key in &keys[300..600] {
            assert!(write(&mut pool, key, 20, None).unwrap());
            prune(&mut pool, key, 20).unwrap();
            model.remove(key);
        }
        assert_eq!(check_consistency(&mut pool).unwrap(), model.len());

        let mut all = Vec::new();
        let root = pool.root();
        nodes(&mut pool, root, 0, &mut all);
        assert!(all.iter().any(|(depth, ..)| *depth == 2), "three levels");
        let empty = all.iter().any(|(_, id, page)| {
            page[0] == TAG_LEAF && parse_index(page, *id, TAG_LEAF).unwrap().len() == 1
        });
        assert!(empty, "an emptied leaf");
        let (mut stored, mut overflow) = (0, 0);
        for (_, id, page) in all.iter().filter(|(_, _, page)| page[0] == TAG_INTERNAL) {
            let at = parse_index(page, *id, TAG_INTERNAL).unwrap();
            for &sep in &at[..at.len() - 2] {
                let sep = Reader::at(page, sep as usize + 4, *id).blob().unwrap();
                overflow += usize::from(matches!(sep, Blob::Overflow(..)));
                stored += usize::from(model.contains_key(&*sep.load(&mut pool).unwrap()));
            }
        }
        assert!(
            stored > 0 && overflow > 0,
            "{stored} separators equal to a stored key, {overflow} overflow separators"
        );

        let probes: Vec<Vec<u8>> = keys
            .iter()
            .flat_map(|key| [key.clone(), [&key[..], &[0]].concat()])
            .chain([b"a".to_vec(), b"q".to_vec()])
            .collect();
        let first = |pool: &mut BufferPool, probe: &[u8], forward| {
            let mut cursor = Cursor::seek(pool, probe, None, forward).unwrap();
            cursor.next(pool).unwrap().map(|(key, _)| key.to_vec())
        };
        for probe in &probes {
            assert_eq!(
                get(&mut pool, probe, 15).unwrap().as_ref(),
                model.get(probe)
            );
            let above = model.range(probe.clone()..).next().map(|(k, _)| k.clone());
            assert_eq!(first(&mut pool, probe, true), above);
            let below = model
                .range(..probe.clone())
                .next_back()
                .map(|(k, _)| k.clone());
            assert_eq!(first(&mut pool, probe, false), below);
        }
        for (i, probe) in probes.iter().enumerate() {
            put(&mut pool, probe, 30, &value(i, 2));
            assert_eq!(get(&mut pool, probe, 30).unwrap(), Some(value(i, 2)));
            model.insert(probe.clone(), value(i, 2));
        }
        assert_eq!(check_consistency(&mut pool).unwrap(), model.len());
        for (key, value) in &model {
            assert_eq!(get(&mut pool, key, 30).unwrap().as_ref(), Some(value));
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn varints_round_trip_and_stop_at_five_bytes() {
        for n in [0, 1, 127, 128, 16_383, 16_384, u32::MAX as usize] {
            let mut out = Vec::new();
            put_varint(&mut out, n);
            assert_eq!(out.len(), varint_len(n), "{n}");
            let mut r = Reader::at(&out, 0, 7);
            assert_eq!(r.varint().unwrap() as usize, n);
            assert_eq!(r.pos, out.len());
        }
        // A sixth byte, a value past 32 bits, a cut: damage, all three.
        for bad in [
            &[0x80, 0x80, 0x80, 0x80, 0x80, 0x01][..],
            &[0xFF; 5],
            &[0x80],
        ] {
            let err = Reader::at(bad, 0, 7).varint().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{bad:?}");
        }
    }

    /// Tuple-encoded elements, as `rl_fdb::tuple` packs them.
    fn text(s: &str) -> Vec<u8> {
        [&[0x02], s.as_bytes(), &[0x00]].concat()
    }

    fn int(n: u64) -> Vec<u8> {
        let be = n.to_be_bytes();
        let zeros = be.iter().take_while(|&&b| b == 0).count();
        [&[0x14 + (8 - zeros) as u8], &be[zeros..]].concat()
    }

    /// Every leaf under the root, in key order: its id and its prefix.
    fn leaves(pool: &mut BufferPool) -> Vec<(PageId, Vec<u8>)> {
        let (root, mut all) = (pool.root(), Vec::new());
        nodes(pool, root, 0, &mut all);
        all.iter()
            .filter(|(_, _, page)| page[0] == TAG_LEAF)
            .map(|(_, id, page)| (*id, leaf_prefix(page, *id).unwrap().to_vec()))
            .collect()
    }

    /// Run `op` on `key` and sort what it did to the prefix of the key's
    /// leaf into `seen`: an insert under an unchanged prefix, an insert that
    /// shortened it, a removal that lengthened it, and a split whose halves
    /// both store a longer prefix than the leaf did. No checkpoint runs, so
    /// every page is fresh and a leaf keeps its id, and a split's right half
    /// is the leaf after it.
    fn observe(
        pool: &mut BufferPool,
        key: &[u8],
        insert: bool,
        seen: &mut [usize; 4],
        op: impl FnOnce(&mut BufferPool),
    ) {
        if pool.root() == NO_PAGE {
            return op(pool);
        }
        let (leaf, _) = descend(pool, key, |_, _, _, _| {}).unwrap();
        let before = leaves(pool);
        op(pool);
        let after = leaves(pool);
        let at = |all: &[(PageId, Vec<u8>)]| all.iter().position(|(id, _)| *id == leaf).unwrap();
        let (old, new) = (&before[at(&before)].1, &after[at(&after)].1);
        if after.len() > before.len() {
            let right = &after[at(&after) + 1].1;
            seen[3] += usize::from(new.len() > old.len() && right.len() > old.len());
            return;
        }
        match (insert, new.len().cmp(&old.len())) {
            (true, Ordering::Equal) => seen[0] += 1,
            (true, Ordering::Less) => seen[1] += 1,
            (false, Ordering::Greater) => seen[2] += 1,
            _ => {}
        }
    }

    /// A tree that `observe`s every change it is given.
    struct Observed {
        pool: BufferPool,
        live: BTreeMap<Vec<u8>, Vec<u8>>,
        seen: [usize; 4],
    }

    impl Observed {
        fn save(&mut self, key: Vec<u8>, value: Vec<u8>, version: u64) {
            observe(&mut self.pool, &key, true, &mut self.seen, |pool| {
                put(pool, &key, version, &value)
            });
            self.live.insert(key, value);
        }

        /// A tombstone, then pruned at its own version: the key goes.
        fn remove(&mut self, key: &[u8], version: u64) {
            write(&mut self.pool, key, version, None).unwrap();
            observe(&mut self.pool, key, false, &mut self.seen, |pool| {
                prune(pool, key, version).unwrap()
            });
            self.live.remove(key);
        }
    }

    /// The exact layout of a seeded tree of record-layer keys. Three stores
    /// (`("tenant", 1000 + s, "notes")`) get 400 records each, saved in a
    /// shuffled order: the record under `RECORDS` (1) with a 100-byte
    /// value, and empty-valued entries under `INDEXES` (2) in `by_group`,
    /// `by_score` and, for every eighth record, `by_title`. Then every
    /// other save is revisited: an even primary key is deleted, an odd one
    /// rescored (its old `by_score` entry removed, a new one saved). Last,
    /// store 1 is deleted key by key, as deleting a store clears its
    /// subspace. The generator case that reaches each branch of the leaf
    /// codec, each asserted to occur (how often, on this seed):
    /// - a splice under an unchanged prefix (3 993 inserts): a record or
    ///   entry landing among keys of its own store and subspace;
    /// - a re-encode when an insert shortens the prefix (2): primary keys
    ///   1–400 and scores 0–999 are one- and two-byte tuple ints (`0x15 n`,
    ///   `0x16 hi lo`), and subspaces follow one another, so a leaf on one
    ///   side of such a boundary meets a key from the other side;
    /// - a re-encode when removing an end key lengthens the prefix (34):
    ///   the leaves that hold the end of store 0 or the start of store 2 beside
    ///   keys of store 1 lose the last of those keys in the store's delete;
    /// - a split that recomputes both prefixes, each longer than the one
    ///   split (5): a leaf that spans such a boundary fills and splits
    ///   between its two sides;
    /// - an overflow key, whose pages hold the key whole: a `by_title`
    ///   entry carries a 110-byte title, 145 bytes in all.
    #[test]
    fn record_layer_keys_pack_into_an_exact_layout() {
        let (pool, dir) = pool("layout", 256);
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut rand = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let store = |s: u64| [text("tenant"), int(1_000 + s), text("notes")].concat();
        let record = |s: u64, pk: u64| [store(s), int(1), int(pk)].concat();
        let entry = |s: u64, name: &str, value: Vec<u8>, pk: u64| {
            [store(s), int(2), text(name), value, int(pk)].concat()
        };
        let by_score = |s, score, pk| entry(s, "by_score", int(score), pk);
        let mut saves: Vec<(u64, u64)> = (0..3)
            .flat_map(|s| (1..=400).map(move |pk| (s, pk)))
            .collect();
        for i in (1..saves.len()).rev() {
            saves.swap(i, rand(i + 1));
        }
        let mut tree = Observed {
            pool,
            live: BTreeMap::new(),
            seen: [0; 4],
        };
        let mut scores = BTreeMap::new();
        for &(s, pk) in &saves {
            let score = rand(1_000) as u64;
            scores.insert((s, pk), score);
            tree.save(record(s, pk), vec![pk as u8; 100], 10);
            let group = text(&format!("group-{}", pk % 7));
            tree.save(entry(s, "by_group", group, pk), Vec::new(), 10);
            tree.save(by_score(s, score, pk), Vec::new(), 10);
            if pk % 8 == 0 {
                let title = text(&"t".repeat(110));
                tree.save(entry(s, "by_title", title, pk), Vec::new(), 10);
            }
        }
        for &(s, pk) in saves.iter().step_by(2) {
            if pk % 2 == 0 {
                let of_record = |k: &&Vec<u8>| k.starts_with(&store(s)) && k.ends_with(&int(pk));
                let keys: Vec<_> = tree.live.keys().filter(of_record).cloned().collect();
                keys.iter().for_each(|key| tree.remove(key, 20));
            } else {
                tree.remove(&by_score(s, scores[&(s, pk)], pk), 20);
                tree.save(by_score(s, rand(1_000) as u64, pk), Vec::new(), 20);
            }
        }
        let store_1 = |k: &&Vec<u8>| k.starts_with(&store(1));
        let keys: Vec<_> = tree.live.keys().filter(store_1).cloned().collect();
        keys.iter().for_each(|key| tree.remove(key, 30));

        let Observed {
            mut pool,
            live,
            seen,
        } = tree;
        assert_eq!(check_consistency(&mut pool).unwrap(), live.len());
        for (key, value) in &live {
            assert_eq!(get(&mut pool, key, 40).unwrap().as_ref(), Some(value));
        }
        let (root, mut all) = (pool.root(), Vec::new());
        nodes(&mut pool, root, 0, &mut all);
        let (mut leaves, mut bytes, mut overflow_keys) = (0, 0, 0);
        for (_, id, page) in all.iter().filter(|(_, _, page)| page[0] == TAG_LEAF) {
            let at = parse_index(page, *id, TAG_LEAF).unwrap();
            let entries = entries_of(page, *id, &at).unwrap();
            let spilled = |e: &&Entry| matches!(e.key, Key::Overflow(..));
            overflow_keys += entries.iter().filter(spilled).count();
            (leaves, bytes) = (leaves + 1, bytes + page.len());
        }
        assert!(
            seen.iter().all(|&n| n > 0),
            "branches not reached: {seen:?}"
        );
        assert!(overflow_keys > 0, "no overflow key");
        // Format 2, the same keys and values: 121 leaves, 175 814 bytes.
        assert_eq!((leaves, bytes), (73, 98_868), "leaves, leaf payload bytes");
        std::fs::remove_dir_all(dir).unwrap();
    }
}
