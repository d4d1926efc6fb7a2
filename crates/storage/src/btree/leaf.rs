//! The format-4 leaf image: a leaf's entries, the prefix it stores once,
//! its encoding, and where an oversized leaf is cut.

use std::borrow::Cow;
use std::io;
use std::ops::Range;

use super::blob::{inline_len, put_inline_head, spill, Blob};
use super::{
    corrupt, PageSource, Pages, Reader, INLINE_KEY_MAX, MAX_ENTRIES, NODE_HEADER, TAG_LEAF,
};
use crate::codec::{common_len, put_varint, varint_len};
use crate::page::{PageId, MAX_PAYLOAD};
use crate::pool::Image;

/// The prefix stored in a leaf.
pub(super) fn leaf_prefix(page: &[u8], id: PageId) -> io::Result<&[u8]> {
    Reader::at(page, NODE_HEADER, id).prefix()
}

/// Where the entries of a node tagged `tag` lie in its page, found in one
/// pass that checks every tag, length and bound of the node. Leaf: entry
/// `i` (a key blob, then its chain blob) is at `at[i]..at[i + 1]`, and the
/// prefix ends at `at[0]`. Internal: child pointer `i` is at `at[i]` and,
/// but for the last, separator `i` follows it up to `at[i + 1]`. So a leaf
/// has `at.len() - 1` entries and an internal node `at.len() - 1` children.
pub(super) fn parse_index(page: &[u8], id: PageId, tag: u8) -> io::Result<Box<[u16]>> {
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
        at.push(r.pos() as u16);
        if tag == TAG_LEAF {
            r.blob()?;
        } else {
            r.u32()?;
        }
        if tag == TAG_LEAF || i < count {
            r.blob()?;
        }
    }
    at.push(r.pos() as u16);
    Ok(at.into_boxed_slice())
}

/// A leaf entry as encoding sees it: its key, and its chain blob as
/// encoded, which is copied as it is.
#[derive(Debug, Clone, Copy)]
pub(super) struct Entry<'a> {
    pub(super) key: Key<'a>,
    pub(super) chain: &'a [u8],
}

/// The key of a leaf entry.
#[derive(Debug, Clone, Copy)]
pub(super) enum Key<'a> {
    /// An inline key, whole as `head` then `tail`: a leaf's prefix and an
    /// entry's suffix, or nothing and a new key.
    Inline(&'a [u8], &'a [u8]),
    /// An overflow key: the head page and length of the pages that hold it
    /// whole.
    Overflow(PageId, u32),
}

impl<'a> Key<'a> {
    /// A new key as a leaf entry holds it: inline, or spilled whole.
    pub(super) fn new(pool: &mut impl Pages, key: &'a [u8]) -> io::Result<Key<'a>> {
        Ok(match key.len() {
            len if len <= INLINE_KEY_MAX => Key::Inline(&[], key),
            len => Key::Overflow(spill(pool, key)?, len as u32),
        })
    }

    /// The whole key: borrowed when it lies in one piece, else assembled
    /// or read out of its pages.
    pub(super) fn whole(self, pool: &mut impl PageSource) -> io::Result<Cow<'a, [u8]>> {
        match self {
            Key::Inline([], tail) => Ok(Cow::Borrowed(tail)),
            Key::Inline(head, tail) => Ok(Cow::Owned([head, tail].concat())),
            Key::Overflow(head, len) => Blob::Overflow(head, len).load(pool),
        }
    }

    /// Bytes of the key's blob in a leaf whose prefix is `plen` long.
    pub(super) fn encoded_len(self, plen: usize) -> usize {
        match self {
            Key::Inline(head, tail) => inline_len((head.len() + tail.len()).saturating_sub(plen)),
            Key::Overflow(head, len) => Blob::Overflow(head, len).encoded_len(),
        }
    }
}

/// The entries of leaf `page`, whose index is `at`, as they lie in it.
pub(super) fn entries_of<'a>(page: &'a [u8], id: PageId, at: &[u16]) -> io::Result<Vec<Entry<'a>>> {
    let prefix = leaf_prefix(page, id)?;
    at.windows(2)
        .map(|span| {
            let mut r = Reader::at(page, span[0] as usize, id);
            let key = match r.blob()? {
                Blob::Inline(suffix) => Key::Inline(prefix, suffix),
                Blob::Overflow(head, len) => Key::Overflow(head, len),
            };
            let chain = &page[r.pos()..span[1] as usize];
            Ok(Entry { key, chain })
        })
        .collect()
}

/// The prefix a leaf of `entries` stores: LCP(first, last), capped.
fn common_prefix(pool: &mut impl PageSource, entries: &[Entry]) -> io::Result<Vec<u8>> {
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
    NODE_HEADER + varint_len(plen as u64) + plen + body
}

/// Append `entry` to leaf `id`, whose prefix is `prefix`: an inline key
/// must start with it and keeps the bytes after it.
pub(super) fn put_entry(
    out: &mut Vec<u8>,
    id: PageId,
    prefix: &[u8],
    entry: &Entry,
) -> io::Result<()> {
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
            put_inline_head(out, head.len() - in_head + tail.len() - in_tail);
            out.extend_from_slice(&head[in_head..]);
            out.extend_from_slice(&tail[in_tail..]);
        }
        Key::Overflow(head, len) => Blob::Overflow(head, len).put(out),
    }
    out.extend_from_slice(entry.chain);
    Ok(())
}

/// Leaf `id` holding `entries` under `prefix`, with its entry offsets, in
/// a buffer of its exact size.
pub(super) fn leaf_image(
    pool: &mut impl Pages,
    id: PageId,
    prefix: &[u8],
    entries: &[Entry],
) -> io::Result<Image> {
    let mut out = pool.buffer(leaf_len(prefix.len(), entries));
    out.push(TAG_LEAF);
    out.extend_from_slice(&(entries.len() as u16).to_le_bytes());
    put_varint(&mut out, prefix.len() as u64);
    out.extend_from_slice(prefix);
    let mut offsets = Vec::with_capacity(entries.len() + 1);
    for entry in entries {
        offsets.push(out.len() as u16);
        put_entry(&mut out, id, prefix, entry)?;
    }
    offsets.push(out.len() as u16);
    Ok(Image::indexed(out, offsets.into_boxed_slice()))
}

/// The most a piece of a split leaf is cut to hold: three quarters of a
/// page. A leaf one insert overfilled still splits in two; a leaf a batch
/// overfilled is cut into as many pieces as a run of one-key inserts would
/// have left it in, with room for the keys that come next.
const SPLIT_PIECE_MAX: usize = MAX_PAYLOAD * 3 / 4;

/// A leaf that loses entries and is left under this many bytes, a quarter
/// page, is merged with a sibling, or dropped if it is empty.
pub(super) const MERGE_BELOW: usize = MAX_PAYLOAD / 4;

/// Whether `entries`, those of two neighbouring leaves, fit one leaf of at
/// most [`SPLIT_PIECE_MAX`] bytes under the prefix of their ends. The two
/// merge only then, so the leaf they make has room for the keys that come
/// next and is not split again by the first of them.
pub(super) fn merge_fits(pool: &mut impl PageSource, entries: &[Entry]) -> io::Result<bool> {
    let prefix = common_prefix(pool, entries)?;
    Ok(leaf_len(prefix.len(), entries) <= SPLIT_PIECE_MAX)
}

/// Cut `entries` (from `base` on in the leaf) into pieces that fit a page,
/// each with the prefix of its ends: the whole if it fits, else the fewest
/// pieces of at most [`SPLIT_PIECE_MAX`] bytes, cut off one share at a time
/// at the [`split_point`] and each side cut again as it needs.
pub(super) fn cut(
    pool: &mut impl PageSource,
    id: PageId,
    entries: &[Entry],
    base: usize,
    lone: Option<usize>,
    pieces: &mut Vec<(Range<usize>, Vec<u8>)>,
) -> io::Result<()> {
    let prefix = common_prefix(pool, entries)?;
    let len = leaf_len(prefix.len(), entries);
    if len <= MAX_PAYLOAD {
        pieces.push((base..base + entries.len(), prefix));
        return Ok(());
    }
    let count = entries.len();
    if count < 2 {
        return Err(corrupt(format!("leaf {id}: one entry fills the page")));
    }
    let at = match lone {
        Some(0) => 1,
        Some(_) => count - 1,
        None => {
            let shares = len.div_ceil(SPLIT_PIECE_MAX).max(2);
            split_point(&prefix, entries, shares / 2, shares)
        }
    };
    let (left, right) = entries.split_at(at);
    cut(pool, id, left, base, None, pieces)?;
    cut(pool, id, right, base + at, None, pieces)
}

/// Where an oversized leaf of `entries` under `prefix` is cut so that
/// `part` of its `shares` equal byte-weight shares lie left of the cut:
/// between the two neighbours that share the fewest leading bytes among the
/// cuts within a quarter share of that target, nearest it on a tie, so a
/// leaf that spans two groups of keys splits between them and both sides
/// store their group's prefix (the split interval of Bayer and Unterauer).
/// Halved (one share of two), each side weighs at most 5/8 of a leaf that
/// outgrew one page by an entry, and fits. With no cut in that interval,
/// the target itself; both sides are non-empty either way.
fn split_point(prefix: &[u8], entries: &[Entry], part: usize, shares: usize) -> usize {
    let weight = |e: &Entry| e.key.encoded_len(prefix.len()) + e.chain.len();
    let total: usize = entries.iter().map(weight).sum();
    let (target, window) = (
        part * total,
        (4 * part - 1) * total..=(4 * part + 1) * total,
    );
    let (mut below, mut best, mut at_target) = (0, None, None);
    for i in 1..entries.len() {
        below += weight(&entries[i - 1]);
        if at_target.is_none() && shares * below >= target {
            at_target = Some(i);
        }
        if window.contains(&(4 * shares * below)) {
            let rank = (
                shared_len(entries[i - 1].key, entries[i].key),
                target.abs_diff(shares * below),
            );
            best = best.filter(|&(least, _)| least <= rank).or(Some((rank, i)));
        }
    }
    best.map(|(_, i)| i)
        .or(at_target)
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
