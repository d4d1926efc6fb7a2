//! A write's staging overlay: the [`Pages`] a batch's or a compaction
//! slice's B-tree walk runs against while readers go on reading the
//! published tree through the same buffer pool.
//!
//! The overlay reads a page through the pool's lock, one page at a time,
//! and never holds the lock across the walk. What the walk writes and
//! frees splits three ways:
//!
//! * a page the overlay allocated itself is the overlay's alone: no page
//!   the published tree reaches points to it. It goes into the pool at
//!   once, as any new page does, and may be rewritten, evicted (written
//!   back first) and freed there. So staged images count against the
//!   pool's budget, and a batch larger than the pool stages as one
//!   written through it does.
//! * a page the published tree reaches and that is fresh since the last
//!   checkpoint would be rewritten under its own id. Its new image is kept
//!   here instead, and installed by [`Shadow::install`]: until then readers
//!   see the old one. At most as many images as the pool's budget has
//!   pages, and no more than [`REPLACED_MAX`], are held this way; past
//!   that such a page is copied to a page of the overlay's own, as a page
//!   of the last checkpoint's tree always is. So a stage holds at most
//!   about one pool budget's worth of images beside the pool.
//! * a page the published tree reaches and that the walk frees or copies
//!   is only noted, and freed by [`Shadow::install`].
//!
//! [`Shadow::discard`] drops a stage instead: it frees the overlay's own
//! pages and forgets the rest, so the pool is as if the stage had not run.
//!
//! So until install nothing the published tree reaches changes: no page it
//! reaches is freed or rewritten and no frame of one is replaced, and no
//! page becomes reusable that a reader could still be led to. A frame of
//! the published tree may be evicted to make room for the overlay's pages,
//! as a reader's miss may evict it: a dirty one is written back first, and
//! a reader that wants it again reads it back.

use std::cell::Cell;
use std::collections::{BTreeMap, HashSet};
use std::io;
use std::sync::{Arc, Mutex};

use crate::btree::{PageSource, Pages};
use crate::page::{PageId, NO_PAGE};
use crate::pool::{BufferPool, Page};
use crate::wait::lock;

/// What an overlay keeps, in buffers its engine hands from one stage to
/// the next, so that a stage allocates only where it outgrows them.
#[derive(Debug, Default)]
pub(crate) struct Buffers {
    /// New images of published pages fresh since the last checkpoint,
    /// which keep their ids: ordered, so that publish installs them in
    /// the same order on every run.
    replaced: BTreeMap<PageId, Page>,
    /// Pages this overlay allocated and has not freed.
    own: HashSet<PageId>,
    /// Published pages this overlay freed.
    freed: Vec<PageId>,
}

/// [`Pages`] over a published pool, keeping its changes to the published
/// tree to itself.
pub(crate) struct Overlay<'p> {
    pool: &'p Mutex<BufferPool>,
    root: PageId,
    kept: Buffers,
    /// The most images `kept.replaced` holds.
    budget: usize,
    /// The pages the overlay holds — those it allocated and the new images
    /// it keeps — which the walk's caller reads while the walk runs.
    held: &'p Cell<usize>,
}

/// What an overlay staged, as [`Shadow::install`] publishes it.
#[derive(Debug)]
pub(crate) struct Shadow {
    root: PageId,
    kept: Buffers,
}

impl<'p> Overlay<'p> {
    /// An overlay over `pool`'s published tree, whose root is `root`, of
    /// a budget of `capacity` pages, filling `kept`, which must be empty,
    /// and counting the pages it holds in `held`.
    pub(crate) fn new(
        pool: &'p Mutex<BufferPool>,
        root: PageId,
        capacity: usize,
        kept: Buffers,
        held: &'p Cell<usize>,
    ) -> Overlay<'p> {
        Overlay {
            pool,
            root,
            kept,
            budget: capacity.clamp(1, REPLACED_MAX),
            held,
        }
    }

    fn count(&self) {
        self.held
            .set(self.kept.replaced.len() + self.kept.own.len());
    }

    /// Stop staging: what the walk changed, to publish.
    pub(crate) fn finish(self) -> Shadow {
        Shadow {
            root: self.root,
            kept: self.kept,
        }
    }
}

/// The most images an overlay keeps under their ids. A smaller bound (a
/// quarter of a 256-page pool budget) made a bulk load copy-on-write most
/// of the pages it rewrote, and took `record_mix_paged`'s `setup_s` up by
/// a quarter.
const REPLACED_MAX: usize = 256;

impl PageSource for Overlay<'_> {
    fn root(&self) -> PageId {
        self.root
    }

    fn read(&mut self, id: PageId) -> io::Result<Page> {
        match self.kept.replaced.get(&id) {
            Some(page) => Ok(Arc::clone(page)),
            None => lock(self.pool).read(id),
        }
    }
}

impl Pages for Overlay<'_> {
    fn set_root(&mut self, root: PageId) {
        self.root = root;
    }

    fn write_shared(&mut self, id: PageId, page: Page) -> io::Result<PageId> {
        let mut pool = lock(self.pool);
        let kept = &mut self.kept;
        if kept.own.contains(&id) {
            return pool.write_shared(id, page);
        }
        if let Some(slot) = kept.replaced.get_mut(&id) {
            *slot = page;
            return Ok(id);
        }
        if kept.replaced.len() < self.budget && pool.is_fresh(id) {
            kept.replaced.insert(id, page);
            self.count();
            return Ok(id);
        }
        let new = pool.write_shared(NO_PAGE, page)?;
        drop(pool);
        kept.own.insert(new);
        if id != NO_PAGE {
            self.free(id);
        }
        self.count();
        Ok(new)
    }

    fn buffer(&mut self, len: usize) -> Vec<u8> {
        lock(self.pool).buffer(len)
    }

    fn free(&mut self, id: PageId) {
        let kept = &mut self.kept;
        if kept.own.remove(&id) {
            lock(self.pool).free(id);
            self.count();
            return;
        }
        kept.replaced.remove(&id);
        kept.freed.push(id);
        self.count();
    }
}

impl Shadow {
    /// Publish: install the kept images, free the pages the published tree
    /// held that the new one does not, and make the new root the pool's.
    /// No walk and no encoding: a frame update per kept image. Returns the
    /// emptied buffers.
    pub(crate) fn install(self, pool: &mut BufferPool) -> io::Result<Buffers> {
        let mut kept = self.kept;
        for (id, page) in std::mem::take(&mut kept.replaced) {
            pool.write_shared(id, page)?;
        }
        for id in kept.freed.drain(..) {
            pool.free(id);
        }
        kept.own.clear();
        pool.set_root(self.root);
        Ok(kept)
    }

    /// Drop the stage unpublished: free the pages the overlay allocated,
    /// which nothing published points to, and forget its images and frees.
    /// Returns the emptied buffers.
    pub(crate) fn discard(self, pool: &mut BufferPool) -> Buffers {
        let mut kept = self.kept;
        for id in kept.own.drain() {
            pool.free(id);
        }
        kept.replaced.clear();
        kept.freed.clear();
        kept
    }
}
