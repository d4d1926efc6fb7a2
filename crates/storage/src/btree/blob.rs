//! Blobs: bytes stored inline in a node, or spilled to a chain of
//! overflow pages that this module writes, reads back and frees.

use std::borrow::Cow;
use std::io;

use super::{corrupt, OVERFLOW_CAP, OVERFLOW_HEADER, TAG_OVERFLOW};
use crate::codec::put_varint;
use crate::page::{PageId, NO_PAGE};
use crate::pool::BufferPool;

/// Bytes stored either inline in a node or in an overflow page chain
/// (head page, total length).
#[derive(Debug, Clone, Copy)]
pub(super) enum Blob<'a> {
    Inline(&'a [u8]),
    Overflow(PageId, u32),
}

impl<'a> Blob<'a> {
    /// The blob's bytes: borrowed when inline, read out of the overflow
    /// chain otherwise.
    pub(super) fn load(self, pool: &mut BufferPool) -> io::Result<Cow<'a, [u8]>> {
        self.load_noting(pool, |_| {})
    }

    /// [`load`](Self::load), handing `note` the id of each overflow page
    /// it reads.
    pub(super) fn load_noting(
        self,
        pool: &mut BufferPool,
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
    pub(super) fn free(self, pool: &mut BufferPool) -> io::Result<()> {
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
    pub(super) fn put(self, out: &mut Vec<u8>) {
        match self {
            Blob::Inline(bytes) => {
                out.push(0);
                put_varint(out, bytes.len() as u64);
                out.extend_from_slice(bytes);
            }
            Blob::Overflow(head, len) => {
                out.push(1);
                out.extend_from_slice(&head.to_le_bytes());
                put_varint(out, u64::from(len));
            }
        }
    }
}

/// Write `bytes` to a new chain of overflow pages; returns its head.
pub(super) fn spill(pool: &mut BufferPool, bytes: &[u8]) -> io::Result<PageId> {
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
pub(super) fn append_blob(
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
