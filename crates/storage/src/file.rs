//! The page file: raw page I/O, allocation with a free list, and the
//! dual-slot metadata header.
//!
//! Pages 0 and 1 are two alternating *meta slots*. A checkpoint writes the
//! next generation's metadata (tree root, WAL offset, page count) to the
//! slot `generation % 2`, so a crash mid-write can at worst corrupt one
//! slot — the other still holds the previous consistent generation, and
//! open() picks the valid slot with the highest generation. Data pages
//! start at id 2.
//!
//! A meta slot's magic names the page format: `RLPAGED4`, whose leaves
//! store their keys' shared prefix once and every length and every chain
//! version as a varint, and whose blob heads carry the inline/overflow flag
//! in their length (see `btree/leaf.rs`). A file of format 1, 2 or 3 is
//! refused with [`io::ErrorKind::Unsupported`], naming its format, before
//! the engine opens its write-ahead log; no build reads two formats.
//!
//! The free list is not persisted. The engine rebuilds it at open, as
//! every page of `2..page_count` that the checkpointed tree does not reach,
//! so no free page is lost across a reopen or a crash however many there
//! are.
//!
//! Every page I/O is one positional syscall (`pread`/`pwrite` through
//! [`FileExt`]): the file has no cursor that a read or write must first
//! move, so a page miss costs one read and a flush one write.

use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;

use crate::codec::{self, Reader};
use crate::page::{frame, unframe, PageId, HEADER_SIZE, NO_PAGE, PAGE_SIZE};

const MAGIC: u64 = 0x524C_5041_4745_4434; // "RLPAGED4"
/// The magics of the page formats this build refuses ("RLPAGED1" to
/// "RLPAGED3"), and what each was.
const RETIRED: [(u64, &str); 3] = [
    (0x524C_5041_4745_4431, "page format 1 (FNV-1a checksums)"),
    (0x524C_5041_4745_4432, "page format 2 (whole keys)"),
    (
        0x524C_5041_4745_4433,
        "page format 3 (fixed-width chain versions, flag-byte blobs)",
    ),
];
/// Meta fields: magic + generation + page_count + root + lsn.
const META_LEN: usize = 8 + 8 + 4 + 4 + 8;

#[cfg(test)]
thread_local! {
    /// While set, [`PageFile::write_page`] fails without writing: the
    /// unit tests' stand-in for a device write error.
    pub(crate) static FAIL_WRITES: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Paged file with checksummed pages and dual-slot metadata.
#[derive(Debug)]
pub struct PageFile {
    file: File,
    /// Total pages, including the two meta slots.
    page_count: u32,
    /// Pages safe to reuse immediately (free at the last checkpoint, or
    /// allocated-and-freed since); empty at open until [`set_free`].
    ///
    /// [`set_free`]: PageFile::set_free
    free: Vec<PageId>,
    /// Root of the checkpointed B-tree (NO_PAGE = empty).
    root: PageId,
    /// WAL byte offset covered by the checkpointed tree.
    checkpoint_lsn: u64,
    generation: u64,
}

impl PageFile {
    /// Open or create a page file. A fresh file is initialized with an
    /// empty generation-0 meta slot.
    pub fn open(path: &Path) -> io::Result<PageFile> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        if len == 0 {
            let mut pf = PageFile {
                file,
                page_count: 2,
                free: Vec::new(),
                root: NO_PAGE,
                checkpoint_lsn: 0,
                generation: 0,
            };
            pf.write_meta_slot()?;
            return Ok(pf);
        }

        // Pick the valid meta slot with the highest generation.
        let mut best: Option<Meta> = None;
        let mut retired = None;
        for slot in 0..2u32 {
            if (u64::from(slot) + 1) * PAGE_SIZE as u64 > len {
                continue;
            }
            let mut buf = [0u8; PAGE_SIZE];
            file.read_exact_at(&mut buf, u64::from(slot) * PAGE_SIZE as u64)?;
            match parse_meta(&buf) {
                Ok(meta) if best.as_ref().is_none_or(|b| meta.0 > b.0) => best = Some(meta),
                Ok(_) => {}
                Err(_) => {
                    let magic = &buf[HEADER_SIZE..HEADER_SIZE + 8];
                    let old = RETIRED.iter().find(|(m, _)| magic == m.to_le_bytes());
                    retired = retired.or(old.map(|(_, what)| *what));
                }
            }
        }
        let (generation, page_count, root, checkpoint_lsn) = best.ok_or_else(|| {
            let path = path.display();
            match retired {
                Some(what) => io::Error::new(
                    io::ErrorKind::Unsupported,
                    format!("{path}: is {what}, which this build does not read"),
                ),
                None => io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{path}: no valid meta slot"),
                ),
            }
        })?;
        Ok(PageFile {
            file,
            page_count,
            free: Vec::new(),
            root,
            checkpoint_lsn,
            generation,
        })
    }

    pub fn root(&self) -> PageId {
        self.root
    }

    pub fn checkpoint_lsn(&self) -> u64 {
        self.checkpoint_lsn
    }

    pub fn page_count(&self) -> u32 {
        self.page_count
    }

    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// Read and verify a page, returning its payload. An id that is not a
    /// data page of this file is `InvalidData`, like any other damage: ids
    /// come out of stored pages.
    pub fn read_page(&mut self, id: PageId) -> io::Result<Vec<u8>> {
        let mut buf = Vec::new();
        self.read_page_into(id, &mut buf)?;
        Ok(buf)
    }

    /// [`read_page`](Self::read_page) into `buf`, whose contents go: the
    /// whole page is read into it, and its payload moved down over the
    /// header in place. So `buf` keeps a page's capacity, for the next read.
    pub(crate) fn read_page_into(&mut self, id: PageId, buf: &mut Vec<u8>) -> io::Result<()> {
        let invalid = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what);
        if id < 2 || id >= self.page_count {
            return Err(invalid(&format!("page {id}: not a data page")));
        }
        buf.clear();
        buf.resize(PAGE_SIZE, 0);
        self.file
            .read_exact_at(buf, u64::from(id) * PAGE_SIZE as u64)
            .map_err(|e| match e.kind() {
                io::ErrorKind::UnexpectedEof => invalid(&format!("page {id}: past end of file")),
                kind => io::Error::new(kind, format!("page {id}: {e}")),
            })?;
        let len = unframe(buf)
            .map_err(|e| io::Error::new(e.kind(), format!("page {id}: {e}")))?
            .len();
        buf.copy_within(HEADER_SIZE..HEADER_SIZE + len, 0);
        buf.truncate(len);
        Ok(())
    }

    /// Write a page payload (framed and checksummed).
    pub fn write_page(&mut self, id: PageId, payload: &[u8]) -> io::Result<()> {
        debug_assert!(id >= 2, "writing meta slot {id} as data page");
        #[cfg(test)]
        if FAIL_WRITES.get() {
            return Err(io::Error::other("injected write failure"));
        }
        self.file
            .write_all_at(&frame(payload), u64::from(id) * PAGE_SIZE as u64)
    }

    /// Allocate a page id: reuse a free page or extend the file. The page's
    /// content is whatever the caller writes; nothing touches disk here.
    pub fn allocate(&mut self) -> PageId {
        if let Some(id) = self.free.pop() {
            return id;
        }
        let id = self.page_count;
        self.page_count += 1;
        id
    }

    /// Return a page to the reusable free list. Only call for pages that
    /// are not referenced by the checkpointed tree (the pager enforces the
    /// shadow-paging epoch rules).
    pub fn free_now(&mut self, id: PageId) {
        debug_assert!(id >= 2);
        self.free.push(id);
    }

    /// Replace the free list: at open, with the pages the checkpointed tree
    /// does not reach, before anything is allocated. The last id is reused
    /// first.
    pub(crate) fn set_free(&mut self, free: Vec<PageId>) {
        debug_assert!(free.iter().all(|&id| (2..self.page_count).contains(&id)));
        self.free = free;
    }

    /// Persist a new metadata generation: the new tree root and the WAL
    /// offset it covers. Caller must have already written every page the
    /// new root reaches.
    pub fn commit_meta(&mut self, root: PageId, checkpoint_lsn: u64) -> io::Result<()> {
        self.root = root;
        self.checkpoint_lsn = checkpoint_lsn;
        self.generation += 1;
        self.write_meta_slot()
    }

    fn write_meta_slot(&mut self) -> io::Result<()> {
        let mut payload = Vec::with_capacity(META_LEN);
        payload.extend_from_slice(&MAGIC.to_le_bytes());
        payload.extend_from_slice(&self.generation.to_le_bytes());
        payload.extend_from_slice(&self.page_count.to_le_bytes());
        payload.extend_from_slice(&self.root.to_le_bytes());
        payload.extend_from_slice(&self.checkpoint_lsn.to_le_bytes());
        let slot = self.generation % 2;
        self.file
            .write_all_at(&frame(&payload), slot * PAGE_SIZE as u64)
    }
}

/// A meta slot: generation, page count, root, WAL offset.
type Meta = (u64, u32, PageId, u64);

/// The meta slot `page` holds; an error when it is damaged or of another
/// format (the caller tells which).
fn parse_meta(page: &[u8]) -> codec::Result<Meta> {
    let mut r = Reader::new(unframe(page).map_err(|_| "bad page frame")?, 0);
    if r.u64()? != MAGIC {
        return Err("bad magic");
    }
    Ok((r.u64()?, r.u32()?, r.u32()?, r.u64()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rl-storage-file-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("pages.db")
    }

    #[test]
    fn pages_roundtrip_across_reopen() {
        let path = tmp("roundtrip");
        let mut pf = PageFile::open(&path).unwrap();
        let a = pf.allocate();
        let b = pf.allocate();
        assert_eq!((a, b), (2, 3));
        pf.write_page(a, b"alpha").unwrap();
        pf.write_page(b, b"beta").unwrap();
        pf.commit_meta(a, 42).unwrap();
        drop(pf);

        let mut pf = PageFile::open(&path).unwrap();
        assert_eq!(pf.root(), a);
        assert_eq!(pf.checkpoint_lsn(), 42);
        assert_eq!(pf.read_page(a).unwrap(), b"alpha");
        assert_eq!(pf.read_page(b).unwrap(), b"beta");
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn newest_valid_meta_slot_wins() {
        let path = tmp("slots");
        let mut pf = PageFile::open(&path).unwrap();
        pf.commit_meta(NO_PAGE, 10).unwrap(); // gen 1 -> slot 1
        pf.commit_meta(NO_PAGE, 20).unwrap(); // gen 2 -> slot 0
        drop(pf);
        let pf = PageFile::open(&path).unwrap();
        assert_eq!(pf.checkpoint_lsn(), 20);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}
