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
//! blob     := (len + 1) varint bytes  |  0x00 head u32  len varint
//! chain    := count varint  (version varint  (0x00 | (len + 1) varint value)){count}
//! ```
//!
//! This is page format 4. Every length in a blob or a chain is an unsigned
//! LEB128 varint of at most 5 bytes, and every version one of at most 10.
//! A blob's head and a chain entry's value head are each 0 for the other
//! case (an overflow blob, a tombstone) and a length plus one otherwise, so
//! the flag costs no byte the length did not; no version bit is reserved.
//! Only `blob.rs` encodes, sizes and parses a blob head, and only
//! `chain.rs` a chain entry. A leaf stores once the longest common
//! prefix of its first and last keys, capped at `INLINE_KEY_MAX` bytes:
//! every key that sorts between them shares it, and an inline key blob
//! holds only the bytes after it. A key longer than `INLINE_KEY_MAX` is an
//! overflow blob whose pages hold the whole key, so a change of prefix
//! never rewrites an overflow chain. Record-layer keys in one leaf share
//! their store's subspace, the record or index subspace and the index's
//! subspace key (paper §3–4), so the prefix is most of each key: this is
//! the prefix B-tree of Bayer and Unterauer (ACM TODS 1977). Separators
//! are shortest prefixes already and internal nodes store them whole.
//!
//! **The prefix is a function of the entries.** It is exactly
//! LCP(first, last), so a leaf image is what encoding its entries gives,
//! whichever path wrote it. Overwrites, removals of keys that are not at
//! either end, and inserts of keys that start with the prefix cannot change
//! it, so a leaf that only had those is its old bytes, copied run by run,
//! with the changed entries spliced in. An insert of a key that does not
//! start with it (the key then sorts before or after every entry), a
//! removal of an end key, and every split decode the entries and encode
//! them again under the recomputed prefix: inline suffixes are cut again,
//! and overflow keys and chain blobs are copied as they are.
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
//! **Writes: one walk per sorted batch, each leaf it touches rewritten
//! once.** Every write — a commit's batch, a compaction slice, and
//! [`write()`] and [`prune`], batches of one — is one `apply` walk over
//! steps in key order, through [`Pages`]: the pool itself, or the paged
//! engine's staging overlay of it, which keeps what the walk writes to the
//! published tree and frees until the engine publishes it. It descends to
//! the first step's leaf, keeping the path, puts every step below that
//! leaf's upper fence (the separator that bounds it in an ancestor) into
//! one new image, and climbs only as far as the next step needs. The leaf
//! goes back copy-on-write, as [`BufferPool::write_cow`] writes, so the
//! tree under the last checkpoint's meta slot is never damaged in place,
//! and its image carries its entry offsets. A parent is rewritten once, when the walk leaves it — its
//! 4-byte child pointers patched, the separators of a split child spliced
//! in — and only if the id of a child changed or a child split. A page
//! fresh since the last checkpoint keeps its id and hangs only below fresh
//! ancestors, so after the first write down a path in a checkpoint epoch
//! every later one stops at the leaf. A leaf that overflows is cut into
//! the fewest pieces of at most three quarters of a page — two when one
//! insert overfilled it — each cut near an equal share of the entries'
//! byte weight, where neighbouring keys share the fewest bytes (so a leaf
//! that spans two groups of keys splits between them); each piece stores
//! the prefix of its own ends. The exception is a lone insert that shortened the
//! prefix and no longer fits: it goes alone, and the entries it joined keep
//! their prefix and the image they had. An internal node is halved at its
//! middle separator until its pieces fit.
//!
//! **Deletes: the walk merges or drops the leaves it shrinks.** Keys only
//! go in MVCC compaction. A leaf the walk removed entries from and left
//! under a quarter page is settled by its parent, as the walk leaves it: an
//! empty one is dropped with a separator beside it, and any other is merged
//! with its right sibling — its left one if it is the last child — into one
//! leaf when their entries fit three quarters of a page, and left alone
//! otherwise. The walk carries the image it built for the shrunk leaf, so a
//! merge reads the sibling alone; a walk that removes nothing takes none of
//! this path. The pages and the overflow separators dropped are freed, and
//! a root left with one child is replaced by it. Internal nodes are never
//! merged: separators are shortest prefixes, so internal nodes stay wide.
//! Cursors still skip an empty leaf, which an only child or the root can
//! be.
//!
//! A page's checksum is the first defence against a damaged file and this
//! parser the second: whatever the bytes, an operation ends in `Ok` or
//! `InvalidData` (an overflow chain must make progress; a descent deeper
//! than `MAX_DEPTH` is a cycle).
//!
//! One file per concern (blobs, chains, the leaf image, the write walk, the
//! cursor, the check); the varints and the bounds-checked byte reader are
//! `crate::codec`, shared with the WAL and the garbage log.

use std::cmp::Ordering;
use std::io;

use crate::codec;
use crate::page::{PageId, MAX_PAYLOAD, NO_PAGE};
use crate::pool::{BufferPool, Image, Page};

mod blob;
mod chain;
mod check;
mod cursor;
mod leaf;
#[cfg(test)]
mod tests;
mod walk;

use blob::Blob;
pub(crate) use chain::chain_appended;
#[cfg(test)]
use chain::chain_pushed;
pub use chain::{chain_entries, chain_visible_at, ChainEntries, ChainEntry};
pub use check::check_consistency;
pub(crate) use check::visit_tree;
pub use cursor::Cursor;
use leaf::{leaf_prefix, parse_index};
pub(crate) use walk::{apply, Edit};
pub use walk::{prune, prune_sorted, write};

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
const MAX_ENTRIES: usize = MAX_PAYLOAD / 2;

const TAG_INTERNAL: u8 = 1;
const TAG_LEAF: u8 = 2;
const TAG_OVERFLOW: u8 = 3;

/// Whether a page image is a leaf.
pub(crate) fn is_leaf(page: &[u8]) -> bool {
    page.first() == Some(&TAG_LEAF)
}

/// What a read of the tree reads pages through: the buffer pool itself,
/// a shared pool locked for one page at a time (`crate::pool::Shared`),
/// or a write's staging overlay over it.
pub trait PageSource {
    /// The root of the tree being read.
    fn root(&self) -> PageId;
    /// A page's image.
    fn read(&mut self, id: PageId) -> io::Result<Page>;
}

/// What a walk reads and writes pages through: the buffer pool itself, or
/// a write's staging overlay over the pool (`crate::overlay`), which keeps
/// what the walk writes and frees to itself until the engine publishes it.
pub trait Pages: PageSource {
    fn set_root(&mut self, root: PageId);
    /// Store `page` as page `id`, copy-on-write as
    /// [`BufferPool::write_cow`] does it, or with `id` `NO_PAGE` on a new
    /// page; returns the id that now holds it.
    fn write_shared(&mut self, id: PageId, page: Page) -> io::Result<PageId>;
    /// Release a page the tree no longer reaches.
    fn free(&mut self, id: PageId);
    /// An empty buffer to build a page image of `len` bytes in (see
    /// `BufferPool::buffer`).
    fn buffer(&mut self, len: usize) -> Vec<u8>;
}

impl PageSource for BufferPool {
    fn root(&self) -> PageId {
        BufferPool::root(self)
    }

    fn read(&mut self, id: PageId) -> io::Result<Page> {
        BufferPool::read(self, id)
    }
}

impl Pages for BufferPool {
    fn set_root(&mut self, root: PageId) {
        BufferPool::set_root(self, root);
    }

    fn write_shared(&mut self, id: PageId, page: Page) -> io::Result<PageId> {
        BufferPool::write_shared(self, id, page)
    }

    fn free(&mut self, id: PageId) {
        BufferPool::free(self, id);
    }

    fn buffer(&mut self, len: usize) -> Vec<u8> {
        BufferPool::buffer(self, len)
    }
}

fn corrupt(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn too_deep() -> io::Error {
    corrupt(format!("tree deeper than {MAX_DEPTH} levels: a cycle"))
}

/// Bounds-checked read position in a page's payload (or, with `id`
/// `NO_PAGE`, in an encoded chain), whose errors name the page.
struct Reader<'a> {
    bytes: codec::Reader<'a>,
    id: PageId,
}

impl<'a> Reader<'a> {
    fn at(buf: &'a [u8], pos: usize, id: PageId) -> Self {
        let bytes = codec::Reader::new(buf, pos);
        Reader { bytes, id }
    }

    fn pos(&self) -> usize {
        self.bytes.pos()
    }

    fn corrupt(&self, what: &str) -> io::Error {
        corrupt(match self.id {
            NO_PAGE => format!("version chain: {what}"),
            id => format!("page {id}: {what}"),
        })
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        self.bytes.take(n).map_err(|what| self.corrupt(what))
    }

    fn u32(&mut self) -> io::Result<u32> {
        self.bytes.u32().map_err(|what| self.corrupt(what))
    }

    /// An unsigned LEB128 varint of at most 5 bytes that fits a `u32`.
    fn varint(&mut self) -> io::Result<u32> {
        self.bytes.varint32().map_err(|what| self.corrupt(what))
    }

    /// An unsigned LEB128 varint of at most 10 bytes.
    fn varint64(&mut self) -> io::Result<u64> {
        self.bytes.varint64().map_err(|what| self.corrupt(what))
    }

    /// A leaf's prefix, which starts right after the node header.
    fn prefix(&mut self) -> io::Result<&'a [u8]> {
        match self.varint()? as usize {
            len if len <= INLINE_KEY_MAX => self.take(len),
            len => Err(self.corrupt(&format!("leaf prefix of {len} bytes"))),
        }
    }
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

/// Find `key` among a leaf's keys or an internal node's separators, as
/// `slice::binary_search` would, through the node's index `at`. A leaf's
/// prefix is compared once; inline keys are compared where they lie; an
/// overflow key is read out of its pages only when a probe lands on it.
fn locate(
    pool: &mut impl PageSource,
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
    pool: &mut impl PageSource,
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
pub fn get(
    pool: &mut impl PageSource,
    key: &[u8],
    read_version: u64,
) -> io::Result<Option<Vec<u8>>> {
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
