//! The buffer pool: a fixed number of in-memory frames over the page
//! file, with SIEVE eviction and dirty-page write-back — plus the
//! shadow-paging epoch bookkeeping every page allocation and free flows
//! through.
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
use std::sync::{Arc, OnceLock};

use crate::file::PageFile;
use crate::page::{PageId, MAX_PAYLOAD};
use crate::replacer::SieveReplacer;
use crate::SharedIoCounters;

/// One page's payload as the pool holds it. An image never changes: a
/// rewrite of the page installs a new one. So what a reader derives from
/// the bytes can be kept beside them and cannot go stale.
#[derive(Debug, Default)]
pub struct Image {
    bytes: Vec<u8>,
    /// Entry offsets of a B-tree node: set by the write that built the
    /// image, or computed the first time a walk parses it. The pool never
    /// reads them.
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
}

/// Buffer pool + page allocator over a [`PageFile`].
#[derive(Debug)]
pub struct BufferPool {
    file: PageFile,
    frames: Vec<Frame>,
    map: HashMap<PageId, usize>,
    free_frames: Vec<usize>,
    replacer: SieveReplacer,
    capacity: usize,
    /// Pages allocated since the last checkpoint (not in the meta root).
    fresh: HashSet<PageId>,
    /// Checkpoint-epoch pages freed since the last checkpoint.
    pending_free: Vec<PageId>,
    /// Current tree root (may be ahead of the checkpointed meta root).
    root: PageId,
    counters: SharedIoCounters,
    /// Every page image installed by a write, in order (tests count them).
    #[cfg(test)]
    pub(crate) written: Vec<PageId>,
}

impl BufferPool {
    pub fn open(
        path: &Path,
        capacity: usize,
        counters: SharedIoCounters,
    ) -> io::Result<BufferPool> {
        let capacity = capacity.max(4);
        let file = PageFile::open(path)?;
        let root = file.root();
        Ok(BufferPool {
            file,
            frames: Vec::new(),
            map: HashMap::new(),
            free_frames: Vec::new(),
            replacer: SieveReplacer::new(capacity),
            capacity,
            fresh: HashSet::new(),
            pending_free: Vec::new(),
            root,
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

    /// WAL offset covered by the last durable checkpoint.
    pub fn checkpoint_lsn(&self) -> u64 {
        self.file.checkpoint_lsn()
    }

    pub fn page_count(&self) -> u32 {
        self.file.page_count()
    }

    /// Read a page's payload, loading it into a frame on miss.
    pub fn read(&mut self, id: PageId) -> io::Result<Page> {
        if let Some(&idx) = self.map.get(&id) {
            self.counters
                .page_hits
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.replacer.record_access(idx);
            return Ok(Arc::clone(&self.frames[idx].payload));
        }
        self.counters
            .page_misses
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let _t = rl_obs::Timer::start("page_read");
        let payload = self.file.read_page(id)?;
        let idx = self.acquire_frame()?;
        self.install(idx, id, payload.into(), false);
        Ok(Arc::clone(&self.frames[idx].payload))
    }

    /// Copy-on-write page update: fresh pages are rewritten in place, and
    /// checkpoint-epoch pages are superseded by a new allocation. Returns
    /// the id now holding `payload` (callers must update parent links when
    /// it differs).
    pub fn write_cow(&mut self, id: PageId, payload: impl Into<Image>) -> io::Result<PageId> {
        if self.fresh.contains(&id) {
            self.write_in_place(id, payload.into())?;
            return Ok(id);
        }
        let new_id = self.allocate(payload)?;
        self.free(id);
        Ok(new_id)
    }

    /// Allocate a new page holding `payload`. The page is born dirty in
    /// the pool; nothing touches disk until eviction or checkpoint.
    pub fn allocate(&mut self, payload: impl Into<Image>) -> io::Result<PageId> {
        let id = self.file.allocate();
        self.fresh.insert(id);
        self.write_in_place(id, payload.into())?;
        Ok(id)
    }

    /// Release a page. Fresh pages become reusable immediately; pages from
    /// the checkpoint epoch wait for the next checkpoint.
    pub fn free(&mut self, id: PageId) {
        if let Some(idx) = self.map.remove(&id) {
            self.replacer.remove(idx);
            self.free_frames.push(idx);
            self.frames[idx].dirty = false;
        }
        if self.fresh.remove(&id) {
            self.file.free_now(id);
        } else {
            self.pending_free.push(id);
        }
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

    fn write_in_place(&mut self, id: PageId, payload: Image) -> io::Result<()> {
        // Only a node rebuilt from damaged bytes is oversized: no panic at flush.
        if payload.len() > MAX_PAYLOAD {
            let what = format!("page {id}: payload of {} bytes", payload.len());
            return Err(io::Error::new(io::ErrorKind::InvalidData, what));
        }
        #[cfg(test)]
        self.written.push(id);
        if let Some(&idx) = self.map.get(&id) {
            self.replacer.record_access(idx);
            self.frames[idx].payload = Arc::new(payload);
            self.frames[idx].dirty = true;
            return Ok(());
        }
        let idx = self.acquire_frame()?;
        self.install(idx, id, payload, true);
        Ok(())
    }

    /// Find a frame slot, evicting (with write-back) if the pool is full.
    fn acquire_frame(&mut self) -> io::Result<usize> {
        if let Some(idx) = self.free_frames.pop() {
            return Ok(idx);
        }
        if self.frames.len() < self.capacity {
            self.frames.push(Frame {
                page: 0,
                payload: Page::default(),
                dirty: false,
            });
            return Ok(self.frames.len() - 1);
        }
        let idx = self
            .replacer
            .evict()
            .expect("buffer pool full but no evictable frame");
        if self.frames[idx].dirty {
            if let Err(e) = self.flush_frame(idx) {
                // The victim keeps its page, still dirty: keep it evictable.
                self.replacer.insert(idx);
                return Err(e);
            }
        }
        self.counters
            .page_evictions
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.map.remove(&self.frames[idx].page);
        Ok(idx)
    }

    fn install(&mut self, idx: usize, id: PageId, payload: Image, dirty: bool) {
        self.frames[idx] = Frame {
            page: id,
            payload: Arc::new(payload),
            dirty,
        };
        self.map.insert(id, idx);
        self.replacer.insert(idx);
    }

    fn flush_frame(&mut self, idx: usize) -> io::Result<()> {
        let _t = rl_obs::Timer::start("page_flush");
        let frame = &self.frames[idx];
        self.file.write_page(frame.page, &frame.payload)?;
        self.frames[idx].dirty = false;
        self.counters
            .page_flushes
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
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

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let (mut pool, dir) = pool("writeback", 4);
        let ids: Vec<PageId> = (0..16)
            .map(|i| pool.allocate(vec![i as u8; 64]).unwrap())
            .collect();
        // Far more pages than frames: earlier pages were evicted and must
        // re-read correctly from disk.
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(&pool.read(*id).unwrap()[..], vec![i as u8; 64]);
        }
        let stats = pool.counters.snapshot();
        assert!(stats.page_evictions > 0);
        assert!(stats.page_flushes > 0);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn failed_write_back_keeps_the_victim_evictable() {
        let (mut pool, dir) = pool("failed-writeback", 4);
        let mut ids: Vec<PageId> = (0..4)
            .map(|i| pool.allocate(vec![i as u8; 64]).unwrap())
            .collect();
        // Every frame holds a dirty page, so each allocation must write a
        // victim back first: fail more write-backs than there are frames.
        crate::file::FAIL_WRITES.set(true);
        for _ in 0..8 {
            assert!(pool.allocate(vec![0xEE; 64]).is_err());
        }
        crate::file::FAIL_WRITES.set(false);
        assert_eq!(pool.counters.snapshot().page_evictions, 0);
        ids.push(pool.allocate(vec![4; 64]).unwrap());
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(&pool.read(*id).unwrap()[..], vec![i as u8; 64]);
        }
        assert!(pool.counters.snapshot().page_evictions > 0);
        std::fs::remove_dir_all(dir).unwrap();
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
