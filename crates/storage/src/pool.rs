//! The buffer pool: page images held in memory over the page file, within
//! a byte budget, with SIEVE eviction and dirty-page write-back — plus the
//! shadow-paging epoch bookkeeping every page allocation and free flows
//! through.
//!
//! ## The budget
//!
//! The pool's capacity is a budget of bytes, `pages × PAGE_SIZE`, and each
//! image it holds is charged what it costs: its buffer's capacity, its
//! entry offsets once set, and `IMAGE_OVERHEAD` for its frame, map entry
//! and SIEVE node. A B-tree leaf is about 60 % full and an image is
//! built or read into a buffer of about its own size, so the budget holds
//! more images than it has pages. To take a new image, or a grown one, the
//! pool evicts with SIEVE until the charge fits, but it always keeps
//! `FLOOR_FRAMES` (4) images whatever their size. A freed page's image goes
//! at once, and its charge with it.
//!
//! ## Epochs
//!
//! A page is *fresh* if it was allocated after the last checkpoint: it is
//! not referenced by the on-disk meta root and may be rewritten in place
//! or reused immediately after being freed. Any other page belongs to the
//! checkpointed tree; [`BufferPool::write_cow`] never overwrites it —
//! instead the new content goes to a freshly allocated page and the old id
//! joins `pending_free`, which becomes reusable only once the *next*
//! checkpoint has durably superseded the old tree.

use std::collections::{HashMap, HashSet};
use std::io;
use std::ops::Deref;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, OnceLock};

use crate::btree::PageSource;
use crate::file::PageFile;
use crate::page::{PageId, MAX_PAYLOAD, NO_PAGE, PAGE_SIZE};
use crate::replacer::SieveReplacer;
use crate::wait::lock;
use crate::SharedIoCounters;

/// One page's payload as the pool holds it. An image never changes: a
/// rewrite of the page installs a new one. So what a reader derives from
/// the bytes can be kept beside them and cannot go stale.
#[derive(Debug, Default)]
pub struct Image {
    bytes: Vec<u8>,
    /// Entry offsets of a B-tree node: set by the write that built the
    /// image, or computed the first time a walk parses it. The pool reads
    /// only their size, to charge them.
    pub(crate) offsets: OnceLock<Box<[u16]>>,
}

impl Image {
    /// An image whose entry offsets its writer already knows.
    pub(crate) fn indexed(bytes: Vec<u8>, offsets: Box<[u16]>) -> Image {
        Image {
            bytes,
            offsets: OnceLock::from(offsets),
        }
    }

    /// The heap bytes the image holds: its buffer's capacity and its entry
    /// offsets, once set.
    fn heap_bytes(&self) -> usize {
        let offsets = self.offsets.get().map_or(0, |o| size_of_val(&**o));
        self.bytes.capacity() + offsets
    }
}

impl From<Vec<u8>> for Image {
    fn from(bytes: Vec<u8>) -> Image {
        Image {
            bytes,
            offsets: OnceLock::new(),
        }
    }
}

impl Deref for Image {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes
    }
}

/// A shared handle to one page's image, as [`BufferPool::read`] hands it
/// out: taking one copies nothing, and it stays valid (a snapshot of the
/// page as read) while the pool goes on to load, evict or rewrite frames.
pub type Page = Arc<Image>;

#[derive(Debug)]
struct Frame {
    page: PageId,
    payload: Page,
    dirty: bool,
    /// What the image was last charged: [`charge_of`] its payload.
    charge: usize,
}

/// What holding one image costs the pool beyond its heap bytes: the
/// shared allocation it lives in (two reference counts and the [`Image`]),
/// its frame, its map entry (key, value and control byte, at the map's
/// 7/8 load) and its SIEVE node.
const IMAGE_OVERHEAD: usize = 2 * size_of::<usize>()
    + size_of::<Image>()
    + size_of::<Frame>()
    + (size_of::<(PageId, usize)>() + 1) * 8 / 7
    + SieveReplacer::NODE_BYTES;

/// The fewest images the pool holds, whatever they cost: a budget smaller
/// than these is exceeded rather than left unable to hold a page.
const FLOOR_FRAMES: usize = 4;

/// What the pool charges for holding `page`.
fn charge_of(page: &Image) -> usize {
    page.heap_bytes() + IMAGE_OVERHEAD
}

/// A pool shared by readers, locked for one page at a time: a read of the
/// tree holds the lock while it looks a page up (and loads it on a miss),
/// never across its descent, and takes the root it descends from without
/// it — the engine keeps the published root beside the pool and sets it
/// only under `&mut`. What it reads stays as read, since a reader holds
/// the images it was handed and the tree it reads is published: no page
/// that tree reaches changes until the engine's next `&mut` publish.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Shared<'p> {
    pub(crate) pool: &'p Mutex<BufferPool>,
    pub(crate) root: PageId,
}

impl PageSource for Shared<'_> {
    fn root(&self) -> PageId {
        self.root
    }

    fn read(&mut self, id: PageId) -> io::Result<Page> {
        lock(self.pool).read(id)
    }
}

/// The most page buffers the pool keeps for reuse: about what one flush
/// slice rewrites.
const RECYCLED_MAX: usize = 16;
/// The most capacity a reused buffer may have beyond the bytes an image
/// needs: a sixteenth of a page.
const SLACK: usize = PAGE_SIZE / 16;

/// Buffer pool + page allocator over a [`PageFile`].
#[derive(Debug)]
pub struct BufferPool {
    file: PageFile,
    /// One per image held, and the free ones, which hold `empty`: as many
    /// as the pool has ever held images at once.
    frames: Vec<Frame>,
    map: HashMap<PageId, usize>,
    free_frames: Vec<usize>,
    replacer: SieveReplacer,
    /// The budget in bytes: a whole number of pages.
    budget: usize,
    /// The sum of the held images' charges.
    charged: usize,
    /// The image a free frame holds, shared by all of them.
    empty: Page,
    /// The buffer a miss reads a whole page into, before its payload is
    /// copied to an image of its own size.
    read_buf: Vec<u8>,
    /// Pages allocated since the last checkpoint (not in the meta root).
    fresh: HashSet<PageId>,
    /// Checkpoint-epoch pages freed since the last checkpoint.
    pending_free: Vec<PageId>,
    /// Current tree root (may be ahead of the checkpointed meta root).
    root: PageId,
    /// Page-sized buffers of images the pool dropped and no one else held,
    /// which new images are built in ([`BufferPool::buffer`]). A page image
    /// lives until its page is rewritten, often by another thread, and a
    /// flush writes hundreds at once: allocated anew, they grew one
    /// thread's malloc arena while the images they replaced went back to
    /// another's, and `cloudkit_tenants_fit`'s peak resident memory rose
    /// 5 % (one arena: none).
    recycled: Vec<Vec<u8>>,
    counters: SharedIoCounters,
    /// Every page image installed by a write, in order (tests count them).
    #[cfg(test)]
    pub(crate) written: Vec<PageId>,
}

impl BufferPool {
    /// A pool over the page file at `path` whose images may cost up to
    /// `pages` (at least 4) pages' worth of bytes.
    pub fn open(path: &Path, pages: usize, counters: SharedIoCounters) -> io::Result<BufferPool> {
        let file = PageFile::open(path)?;
        let root = file.root();
        Ok(BufferPool {
            file,
            frames: Vec::new(),
            map: HashMap::new(),
            free_frames: Vec::new(),
            replacer: SieveReplacer::new(FLOOR_FRAMES),
            budget: pages.max(4) * PAGE_SIZE,
            charged: 0,
            empty: Page::default(),
            read_buf: Vec::new(),
            fresh: HashSet::new(),
            pending_free: Vec::new(),
            root,
            recycled: Vec::new(),
            counters,
            #[cfg(test)]
            written: Vec::new(),
        })
    }

    /// Current tree root (in memory; persisted only at checkpoint).
    pub fn root(&self) -> PageId {
        self.root
    }

    pub fn set_root(&mut self, root: PageId) {
        self.root = root;
    }

    /// The budget in pages: the images the pool holds cost at most this
    /// many pages' worth of bytes.
    pub(crate) fn capacity(&self) -> usize {
        self.budget / PAGE_SIZE
    }

    /// The images the pool holds.
    pub(crate) fn resident(&self) -> usize {
        self.map.len()
    }

    /// What the images the pool holds are charged, in bytes: at most the
    /// budget, unless the pool holds no more than its floor of 4 images.
    pub(crate) fn charged(&self) -> usize {
        self.charged
    }

    /// An empty buffer for a page image of `len` bytes: one of an image the
    /// pool dropped, if one holds `len` bytes and at most [`SLACK`] more,
    /// else a new one of exactly `len`. A rewritten page's new image is
    /// about its old one's size, so the buffer of the one often fits the
    /// other, and images stay about the size of their bytes.
    pub(crate) fn buffer(&mut self, len: usize) -> Vec<u8> {
        let fits = |b: &Vec<u8>| (len..=len + SLACK).contains(&b.capacity());
        match self.recycled.iter().rposition(fits) {
            Some(at) => self.recycled.swap_remove(at),
            None => Vec::with_capacity(len),
        }
    }

    /// Keep the buffer of `page`, which the pool no longer holds, for a
    /// later image, unless a reader still holds the image. The oldest kept
    /// buffer makes room.
    fn recycle(&mut self, page: Page) {
        if let Ok(Image { mut bytes, .. }) = Arc::try_unwrap(page) {
            if bytes.capacity() > 0 {
                if self.recycled.len() == RECYCLED_MAX {
                    self.recycled.remove(0);
                }
                bytes.clear();
                self.recycled.push(bytes);
            }
        }
    }

    /// Whether page `id` was allocated since the last checkpoint, so that
    /// [`write_cow`](Self::write_cow) rewrites it under its own id.
    pub(crate) fn is_fresh(&self, id: PageId) -> bool {
        self.fresh.contains(&id)
    }

    /// WAL offset covered by the last durable checkpoint.
    pub fn checkpoint_lsn(&self) -> u64 {
        self.file.checkpoint_lsn()
    }

    pub fn page_count(&self) -> u32 {
        self.file.page_count()
    }

    /// Read a page's payload, loading it into a frame on miss, as an image
    /// of the payload's size.
    pub fn read(&mut self, id: PageId) -> io::Result<Page> {
        if let Some(&idx) = self.map.get(&id) {
            self.counters.page_hits.fetch_add(1, Ordering::Relaxed);
            self.replacer.record_access(idx);
            let page = Arc::clone(&self.frames[idx].payload);
            // A walk indexes an image the first time it parses it.
            if charge_of(&page) != self.frames[idx].charge {
                self.recharge(idx);
                self.make_room(0, FLOOR_FRAMES)?;
            }
            return Ok(page);
        }
        self.counters.page_misses.fetch_add(1, Ordering::Relaxed);
        let _t = rl_obs::Timer::start(rl_obs::Op::PageRead);
        self.file.read_page_into(id, &mut self.read_buf)?;
        let mut bytes = self.buffer(self.read_buf.len());
        bytes.extend_from_slice(&self.read_buf);
        let page = Arc::new(Image::from(bytes));
        self.install(id, Arc::clone(&page), false)?;
        Ok(page)
    }

    /// Copy-on-write page update: fresh pages are rewritten in place, and
    /// checkpoint-epoch pages are superseded by a new allocation. Returns
    /// the id now holding `payload` (callers must update parent links when
    /// it differs).
    pub fn write_cow(&mut self, id: PageId, payload: impl Into<Image>) -> io::Result<PageId> {
        self.write_shared(id, Arc::new(payload.into()))
    }

    /// Allocate a new page holding `payload`. The page is born dirty in
    /// the pool; nothing touches disk until eviction or checkpoint.
    pub fn allocate(&mut self, payload: impl Into<Image>) -> io::Result<PageId> {
        self.write_shared(NO_PAGE, Arc::new(payload.into()))
    }

    /// [`write_cow`](Self::write_cow) of an image the caller keeps a handle
    /// to, or with `id` `NO_PAGE` [`allocate`](Self::allocate).
    pub(crate) fn write_shared(&mut self, id: PageId, page: Page) -> io::Result<PageId> {
        if self.fresh.contains(&id) {
            self.write_in_place(id, page)?;
            return Ok(id);
        }
        let new_id = self.file.allocate();
        self.fresh.insert(new_id);
        self.write_in_place(new_id, page)?;
        if id != NO_PAGE {
            self.free(id);
        }
        Ok(new_id)
    }

    /// Release a page. Fresh pages become reusable immediately; pages from
    /// the checkpoint epoch wait for the next checkpoint.
    pub fn free(&mut self, id: PageId) {
        if let Some(&idx) = self.map.get(&id) {
            self.replacer.remove(idx);
            self.release(idx);
        }
        if self.fresh.remove(&id) {
            self.file.free_now(id);
        } else {
            self.pending_free.push(id);
        }
    }

    /// Pages of the last checkpoint's tree that the current tree no longer
    /// holds: reusable once the next checkpoint has superseded that tree.
    pub(crate) fn superseded_pages(&self) -> usize {
        self.pending_free.len()
    }

    /// Pages the current tree holds: every page of the file but the meta
    /// slots, the free pages and the superseded ones.
    pub(crate) fn live_pages(&self) -> usize {
        (self.page_count() as usize)
            .saturating_sub(2 + self.file.free_count() + self.pending_free.len())
    }

    /// Make every data page that `reached` (indexed by page id) does not
    /// mark free: at open, after a walk of the whole checkpointed tree and
    /// before any write, those are the pages nothing can reach.
    pub(crate) fn free_unreached(&mut self, reached: &[bool]) {
        let unreached = (2..self.page_count()).rev();
        let free = unreached.filter(|&id| !reached.get(id as usize).copied().unwrap_or(false));
        self.file.set_free(free.collect());
    }

    /// Flush every dirty frame and commit a new metadata generation that
    /// makes the current root durable, covering the WAL up to `lsn`. After
    /// the meta write the previous tree's pages become reusable.
    pub fn checkpoint(&mut self, lsn: u64) -> io::Result<()> {
        for idx in 0..self.frames.len() {
            if self.frames[idx].dirty {
                self.flush_frame(idx)?;
            }
        }
        self.file.commit_meta(self.root, lsn)?;
        for id in std::mem::take(&mut self.pending_free) {
            self.file.free_now(id);
        }
        self.fresh.clear();
        Ok(())
    }

    fn write_in_place(&mut self, id: PageId, payload: Page) -> io::Result<()> {
        // Only a node rebuilt from damaged bytes is oversized: no panic at flush.
        if payload.len() > MAX_PAYLOAD {
            let what = format!("page {id}: payload of {} bytes", payload.len());
            return Err(io::Error::new(io::ErrorKind::InvalidData, what));
        }
        #[cfg(test)]
        self.written.push(id);
        let counters = &self.counters;
        counters.pages_written.fetch_add(1, Ordering::Relaxed);
        if crate::btree::is_leaf(&payload) {
            counters.leaf_rewrites.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(&idx) = self.map.get(&id) {
            self.replacer.record_access(idx);
            let old = std::mem::replace(&mut self.frames[idx].payload, payload);
            self.frames[idx].dirty = true;
            self.recycle(old);
            self.recharge(idx);
            // The new image is in place: if it is the victim, it is written back.
            return self.make_room(0, FLOOR_FRAMES);
        }
        self.install(id, payload, true)
    }

    /// Charge frame `idx` what its image costs now.
    fn recharge(&mut self, idx: usize) {
        let frame = &mut self.frames[idx];
        let charge = charge_of(&frame.payload);
        self.charged = self.charged - frame.charge + charge;
        frame.charge = charge;
    }

    /// Evict (with write-back) until `extra` more bytes fit in the budget,
    /// or until the pool holds only `keep` images.
    fn make_room(&mut self, extra: usize, keep: usize) -> io::Result<()> {
        while self.charged + extra > self.budget && self.map.len() > keep {
            let idx = self
                .replacer
                .evict()
                .expect("buffer pool over budget but no evictable frame");
            if self.frames[idx].dirty {
                if let Err(e) = self.flush_frame(idx) {
                    // The victim keeps its page, still dirty: keep it evictable.
                    self.replacer.insert(idx);
                    return Err(e);
                }
            }
            self.counters.page_evictions.fetch_add(1, Ordering::Relaxed);
            self.release(idx);
        }
        Ok(())
    }

    /// Hold `payload` as page `id`'s image, which the pool does not hold,
    /// in a free frame or a new one, once there is room for it.
    fn install(&mut self, id: PageId, payload: Page, dirty: bool) -> io::Result<()> {
        let charge = charge_of(&payload);
        self.make_room(charge, FLOOR_FRAMES - 1)?;
        let frame = Frame {
            page: id,
            payload,
            dirty,
            charge,
        };
        let idx = match self.free_frames.pop() {
            Some(idx) => {
                self.frames[idx] = frame;
                idx
            }
            None => {
                self.frames.push(frame);
                self.frames.len() - 1
            }
        };
        self.charged += charge;
        self.map.insert(id, idx);
        self.replacer.insert(idx);
        Ok(())
    }

    /// Drop frame `idx`'s image, which the replacer no longer tracks:
    /// forget its page, take back its charge, keep its buffer, and free
    /// the frame.
    fn release(&mut self, idx: usize) {
        let frame = &mut self.frames[idx];
        self.map.remove(&frame.page);
        self.charged -= frame.charge;
        frame.charge = 0;
        frame.dirty = false;
        let old = std::mem::replace(&mut frame.payload, Arc::clone(&self.empty));
        self.recycle(old);
        self.free_frames.push(idx);
    }

    fn flush_frame(&mut self, idx: usize) -> io::Result<()> {
        let _t = rl_obs::Timer::start(rl_obs::Op::PageFlush);
        let frame = &self.frames[idx];
        self.file.write_page(frame.page, &frame.payload)?;
        self.frames[idx].dirty = false;
        self.counters.page_flushes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IoCounters;

    fn pool(name: &str, capacity: usize) -> (BufferPool, std::path::PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("rl-storage-pool-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let p =
            BufferPool::open(&dir.join("pages.db"), capacity, IoCounters::new_shared()).unwrap();
        (p, dir)
    }

    /// A page's worth of `byte`: the largest image a page holds.
    fn full(byte: u8) -> Vec<u8> {
        vec![byte; MAX_PAYLOAD]
    }

    /// The pool's own accounts agree: its charge is the sum of what each
    /// image it holds costs now, and stays within the budget unless it
    /// holds no more than its floor of images.
    fn assert_within_budget(pool: &BufferPool) {
        let held = pool
            .map
            .values()
            .map(|&idx| charge_of(&pool.frames[idx].payload));
        assert_eq!(pool.charged, held.sum::<usize>(), "charge out of step");
        assert!(
            pool.charged <= pool.budget || pool.resident() <= FLOOR_FRAMES,
            "{} images charged {} bytes over a budget of {}",
            pool.resident(),
            pool.charged,
            pool.budget
        );
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let (mut pool, dir) = pool("writeback", 4);
        let ids: Vec<PageId> = (0..16)
            .map(|i| pool.allocate(full(i as u8)).unwrap())
            .collect();
        // Far more full pages than the budget holds: earlier pages were
        // evicted and must re-read correctly from disk.
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(&pool.read(*id).unwrap()[..], full(i as u8));
        }
        let stats = pool.counters.snapshot();
        assert!(stats.page_evictions > 0);
        assert!(stats.page_flushes > 0);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn failed_write_back_keeps_the_victim_evictable() {
        let (mut pool, dir) = pool("failed-writeback", 4);
        let mut ids: Vec<PageId> = (0..4).map(|i| pool.allocate(full(i)).unwrap()).collect();
        // Four dirty full pages fill the budget, so each allocation must
        // write a victim back first: fail more write-backs than there are
        // images.
        crate::file::FAIL_WRITES.set(true);
        for _ in 0..8 {
            assert!(pool.allocate(full(0xEE)).is_err());
        }
        crate::file::FAIL_WRITES.set(false);
        assert_eq!(pool.counters.snapshot().page_evictions, 0);
        ids.push(pool.allocate(full(4)).unwrap());
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(&pool.read(*id).unwrap()[..], full(i as u8));
        }
        assert!(pool.counters.snapshot().page_evictions > 0);
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// Half-full pages, written or read back from disk, cost about half a
    /// page each: a budget of 8 pages holds 12 of them.
    #[test]
    fn a_budget_holds_more_half_full_images_than_pages() {
        let (mut pool, dir) = pool("half-full", 8);
        let half = |i: usize| vec![i as u8; PAGE_SIZE / 2];
        let ids: Vec<PageId> = (0..12).map(|i| pool.allocate(half(i)).unwrap()).collect();
        assert_eq!(pool.resident(), 12);
        assert_eq!(pool.counters.snapshot().page_evictions, 0);
        // Push them all out, then read them back: a miss keeps an image of
        // the payload's size, not of the page's.
        let others: Vec<PageId> = (0..8).map(|i| pool.allocate(full(i)).unwrap()).collect();
        for id in others {
            pool.free(id);
        }
        assert!(ids.iter().all(|id| !pool.map.contains_key(id)));
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(&pool.read(*id).unwrap()[..], half(i));
        }
        assert_eq!(pool.resident(), 12);
        assert_eq!(pool.counters.snapshot().page_misses, 12);
        assert_within_budget(&pool);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn free_releases_the_image_at_once() {
        let (mut pool, dir) = pool("free", 8);
        let id = pool.allocate(full(1)).unwrap();
        let idx = pool.map[&id];
        let recycled = pool.recycled.len();
        pool.free(id);
        assert_eq!((pool.resident(), pool.charged()), (0, 0));
        assert!(pool.frames[idx].payload.is_empty());
        assert_eq!(pool.recycled.len(), recycled + 1, "its buffer is kept");
        // The frame is reused for the next image.
        pool.allocate(full(2)).unwrap();
        assert_eq!(pool.frames.len(), 1);
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// A seeded mix of allocations, rewrites, reads, frees, checkpoints and
    /// images that grow once a walk indexes them, on budgets of 4–23 pages
    /// (one case in four at 4, which four full pages exceed), checked after
    /// every step against the budget and against a model of each page's
    /// bytes. Asserts each branch occurs: an eviction, its
    /// write-back, a hit that grows an image's charge, and a pool over
    /// budget at its floor of images.
    #[test]
    fn charge_stays_within_the_budget() {
        let mut state = 0x5EED_B0D6_E700_0001u64;
        let mut next = |n: usize| {
            // xorshift64
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let (mut grown, mut at_floor) = (0, 0);
        let (mut evictions, mut flushes) = (0, 0);
        for case in 0..40 {
            let pages = match case % 4 {
                0 => 4,
                _ => 5 + next(19),
            };
            let (mut pool, dir) = pool(&format!("budget-{case}"), pages);
            let mut model: HashMap<PageId, Vec<u8>> = HashMap::new();
            for step in 0..400 {
                // Sizes from a few bytes to a full page.
                let size = match next(3) {
                    0 => 1 + next(64),
                    1 => 1 + next(MAX_PAYLOAD),
                    _ => MAX_PAYLOAD - next(64),
                };
                let bytes = vec![step as u8; size];
                let live: Vec<PageId> = model.keys().copied().collect();
                let pick = (!live.is_empty()).then(|| live[next(live.len())]);
                match (next(10), pick) {
                    (0..=2, _) | (_, None) => {
                        let id = pool.allocate(bytes.clone()).unwrap();
                        model.insert(id, bytes);
                    }
                    (3, Some(id)) => {
                        let new = pool.write_cow(id, bytes.clone()).unwrap();
                        model.remove(&id);
                        model.insert(new, bytes);
                    }
                    (4 | 5, Some(id)) => {
                        assert_eq!(&pool.read(id).unwrap()[..], &model[&id][..]);
                    }
                    (6, Some(id)) => {
                        // As a walk does: index the image it read, then
                        // come back to it.
                        let page = pool.read(id).unwrap();
                        let offsets = vec![0u16; page.len() / 8].into_boxed_slice();
                        if page.offsets.set(offsets).is_ok() && pool.map.contains_key(&id) {
                            let before = pool.charged;
                            pool.read(id).unwrap();
                            grown += usize::from(pool.charged != before);
                        }
                    }
                    (7, Some(id)) => {
                        pool.free(id);
                        model.remove(&id);
                    }
                    (8, Some(id)) => {
                        pool.set_root(id);
                        pool.checkpoint(0).unwrap();
                    }
                    (_, Some(id)) => {
                        // A rewrite under the same id, when it is fresh.
                        if pool.is_fresh(id) {
                            pool.write_cow(id, bytes.clone()).unwrap();
                            model.insert(id, bytes);
                        }
                    }
                }
                assert_within_budget(&pool);
                at_floor += usize::from(pool.charged > pool.budget);
            }
            for (id, bytes) in &model {
                assert_eq!(&pool.read(*id).unwrap()[..], &bytes[..], "case {case}");
            }
            let stats = pool.counters.snapshot();
            (evictions, flushes) = (
                evictions + stats.page_evictions,
                flushes + stats.page_flushes,
            );
            std::fs::remove_dir_all(dir).unwrap();
        }
        assert!(evictions > 0 && flushes > 0, "no eviction or write-back");
        assert!(grown > 0, "no hit grew an image's charge");
        assert!(at_floor > 0, "no pool over budget at its floor");
    }

    #[test]
    fn cow_preserves_checkpointed_page() {
        let (mut pool, dir) = pool("cow", 8);
        let id = pool.allocate(b"original".to_vec()).unwrap();
        pool.set_root(id);
        pool.checkpoint(0).unwrap();
        // Page is now checkpoint-epoch: a rewrite must go elsewhere.
        let new_id = pool.write_cow(id, b"updated".to_vec()).unwrap();
        assert_ne!(new_id, id);
        assert_eq!(&pool.read(id).unwrap()[..], b"original");
        assert_eq!(&pool.read(new_id).unwrap()[..], b"updated");
        // Fresh pages are rewritten in place.
        let same = pool.write_cow(new_id, b"updated-2".to_vec()).unwrap();
        assert_eq!(same, new_id);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn pending_free_reused_only_after_checkpoint() {
        let (mut pool, dir) = pool("pending", 8);
        let id = pool.allocate(b"a".to_vec()).unwrap();
        pool.set_root(id);
        pool.checkpoint(0).unwrap();
        pool.free(id);
        // Not reusable yet: a new allocation must get a different id.
        let b = pool.allocate(b"b".to_vec()).unwrap();
        assert_ne!(b, id);
        pool.set_root(b);
        pool.checkpoint(0).unwrap();
        let c = pool.allocate(b"c".to_vec()).unwrap();
        assert_eq!(c, id, "old page reusable after the next checkpoint");
        std::fs::remove_dir_all(dir).unwrap();
    }
}
