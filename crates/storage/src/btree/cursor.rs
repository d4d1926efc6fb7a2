//! A streaming cursor over a key range, in either direction.

use std::borrow::Cow;
use std::io;
use std::sync::Arc;

use super::blob::Blob;
use super::leaf::leaf_prefix;
use super::PageSource;
use super::{child, descend, index, locate, Reader, TAG_INTERNAL, TAG_LEAF};
use crate::page::{PageId, NO_PAGE};
use crate::pool::Page;

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
        pool: &mut impl PageSource,
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
    pub fn next(&mut self, pool: &mut impl PageSource) -> io::Result<Option<(&[u8], &[u8])>> {
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
    fn next_leaf(&mut self, pool: &mut impl PageSource) -> io::Result<bool> {
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
