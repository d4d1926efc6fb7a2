//! Blobs: bytes stored inline in a node, or spilled to a chain of
//! overflow pages that this module writes, reads back and frees. This is
//! the one place that encodes, sizes and parses a blob's head.
//!
//! ```text
//! blob := (len + 1) varint bytes  |  0x00 head u32  len varint
//! ```
//!
//! A head of 0 marks an overflow blob, any other head is an inline blob's
//! length plus one: the flag costs no byte the length did not.

use std::borrow::Cow;
use std::io;
use std::sync::Arc;

use super::{corrupt, Reader, OVERFLOW_CAP, OVERFLOW_HEADER, TAG_OVERFLOW};
use super::{PageSource, Pages};
use crate::codec::{put_varint, varint_len};
use crate::page::{PageId, NO_PAGE};

/// Bytes stored either inline in a node or in an overflow page chain
/// (head page, total length).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Blob<'a> {
    Inline(&'a [u8]),
    Overflow(PageId, u32),
}

impl<'a> Blob<'a> {
    /// The blob's bytes: borrowed when inline, read out of the overflow
    /// chain otherwise.
    pub(super) fn load(self, pool: &mut impl PageSource) -> io::Result<Cow<'a, [u8]>> {
        self.load_noting(pool, |_| {})
    }

    /// [`load`](Self::load), handing `note` the id of each overflow page
    /// it reads.
    pub(super) fn load_noting(
        self,
        pool: &mut impl PageSource,
        mut note: impl FnMut(PageId),
    ) -> io::Result<Cow<'a, [u8]>> {
        match self {
            Blob::Inline(bytes) => Ok(Cow::Borrowed(bytes)),
            Blob::Overflow(head, len) => {
                let mut out = Vec::new();
                self.walk(pool, |_, id, data| {
                    note(id);
                    out.extend_from_slice(data);
                })?;
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
    pub(super) fn free(self, pool: &mut impl Pages) -> io::Result<()> {
        self.walk(pool, |pool, id, _| pool.free(id))
    }

    /// Visit each overflow page of the blob, head first, stopping once the
    /// chain has yielded more than its stated length (a cycle).
    fn walk<P: PageSource>(
        self,
        pool: &mut P,
        mut visit: impl FnMut(&mut P, PageId, &[u8]),
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
    pub(super) fn put(self, out: &mut Vec<u8>) {
        match self {
            Blob::Inline(bytes) => {
                put_inline_head(out, bytes.len());
                out.extend_from_slice(bytes);
            }
            Blob::Overflow(head, len) => {
                out.push(0);
                out.extend_from_slice(&head.to_le_bytes());
                put_varint(out, u64::from(len));
            }
        }
    }

    /// Bytes of the blob's encoding.
    pub(super) fn encoded_len(self) -> usize {
        match self {
            Blob::Inline(bytes) => inline_len(bytes.len()),
            Blob::Overflow(_, len) => 1 + 4 + varint_len(u64::from(len)),
        }
    }
}

/// Append the head of an inline blob of `len` bytes, which follow it.
pub(super) fn put_inline_head(out: &mut Vec<u8>, len: usize) {
    put_varint(out, len as u64 + 1);
}

/// Bytes of an inline blob of `len` bytes, head included.
pub(super) fn inline_len(len: usize) -> usize {
    varint_len(len as u64 + 1) + len
}

impl<'a> Reader<'a> {
    /// The blob that starts here.
    pub(super) fn blob(&mut self) -> io::Result<Blob<'a>> {
        match self.varint()? {
            0 => Ok(Blob::Overflow(self.u32()?, self.varint()?)),
            head => Ok(Blob::Inline(self.take(head as usize - 1)?)),
        }
    }
}

/// Write `bytes` to a new chain of overflow pages; returns its head.
pub(super) fn spill(pool: &mut impl Pages, bytes: &[u8]) -> io::Result<PageId> {
    // Build the chain back to front so each page knows its successor.
    let mut next = NO_PAGE;
    for chunk in bytes.chunks(OVERFLOW_CAP).rev() {
        let mut payload = pool.buffer(OVERFLOW_HEADER + chunk.len());
        payload.push(TAG_OVERFLOW);
        payload.extend_from_slice(&next.to_le_bytes());
        payload.extend_from_slice(&(chunk.len() as u16).to_le_bytes());
        payload.extend_from_slice(chunk);
        next = pool.write_shared(NO_PAGE, Arc::new(payload.into()))?;
    }
    Ok(next)
}

/// Append `bytes` to `out` as an encoded blob, spilling to overflow pages
/// beyond `inline_max`.
pub(super) fn append_blob(
    pool: &mut impl Pages,
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Inline lengths whose head (`len + 1`) sits each side of 128.
    const INLINE_LENS: [usize; 4] = [0, 1, 126, 127];
    /// Overflow lengths at varint widths 1, 2, 3 and 5.
    const OVERFLOW_LENS: [u32; 4] = [1, 129, 1 << 14, u32::MAX];

    /// Seeded inline and overflow blobs round trip through `put` and
    /// `Reader::blob`, take exactly `encoded_len` bytes and are
    /// `InvalidData` at every truncation — an overflow head whose `u32`
    /// is cut included.
    #[test]
    fn encoded_blobs_round_trip_at_every_head_width() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut rand = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        // Cases, each asserted to occur: each inline length, each overflow
        // length, an overflow head page cut short.
        let (mut inline, mut overflow, mut cut_head) = ([0; 4], [0; 4], 0);
        let bytes = [0xA5u8; 300];
        for case in 0..500 {
            let blob = match rand(3) {
                0 => {
                    let n = rand(INLINE_LENS.len());
                    inline[n] += 1;
                    Blob::Inline(&bytes[..INLINE_LENS[n]])
                }
                1 => Blob::Inline(&bytes[..rand(bytes.len())]),
                _ => {
                    let n = rand(OVERFLOW_LENS.len());
                    overflow[n] += 1;
                    Blob::Overflow(rand(1 << 20) as PageId, OVERFLOW_LENS[n])
                }
            };
            let mut out = vec![0xEE];
            blob.put(&mut out);
            assert_eq!(out.len() - 1, blob.encoded_len(), "case {case}: {blob:?}");
            let mut r = Reader::at(&out, 1, NO_PAGE);
            assert_eq!(r.blob().unwrap(), blob, "case {case}");
            assert_eq!(r.pos(), out.len(), "case {case}");
            for cut in 1..out.len() {
                let err = Reader::at(&out[..cut], 1, NO_PAGE).blob().unwrap_err();
                assert_eq!(
                    err.kind(),
                    io::ErrorKind::InvalidData,
                    "case {case}, cut {cut}"
                );
                cut_head +=
                    usize::from(matches!(blob, Blob::Overflow(..)) && (2..6).contains(&cut));
            }
        }
        assert!(inline.iter().all(|&n| n > 0), "inline lengths {inline:?}");
        assert!(
            overflow.iter().all(|&n| n > 0),
            "overflow lengths {overflow:?}"
        );
        assert!(cut_head > 0, "no overflow head cut short");
        // The bytes themselves: the head of an empty inline blob is 1, of a
        // 127-byte one two bytes (128), and an overflow blob's is 0.
        let mut out = Vec::new();
        Blob::Inline(&[]).put(&mut out);
        Blob::Inline(&bytes[..127]).put(&mut out);
        Blob::Overflow(0x0403_0201, 300).put(&mut out);
        let tail = [0, 1, 2, 3, 4, 0xAC, 2];
        assert_eq!(
            [&out[..3], &out[130..]],
            [&[1, 0x80, 1][..], &tail[..]],
            "inline heads, then an overflow blob"
        );
        assert_eq!((inline_len(126), inline_len(127)), (127, 129));
    }
}
