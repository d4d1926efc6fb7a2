//! Walks of a whole tree: the structural check, and recovery's pass that
//! finds every page the tree reaches.

use std::io;

use super::blob::Blob;
use super::chain::chain_entries;
use super::leaf::{leaf_prefix, parse_index};
use super::{
    child, corrupt, index, too_deep, Reader, INLINE_KEY_MAX, MAX_DEPTH, TAG_INTERNAL, TAG_LEAF,
};
use crate::codec::common_len;
use crate::page::{PageId, NO_PAGE};
use crate::pool::BufferPool;

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

/// Lend every entry of the tree, in key order, to `visit` as its whole key
/// and its chain, and return which pages the tree reaches, indexed by page
/// id: its nodes and each overflow page of a key, a chain or a separator.
/// Recovery's one pass over the checkpointed tree: the pages it leaves
/// unmarked are the free ones. A page reached twice is damage.
pub(crate) fn visit_tree(
    pool: &mut BufferPool,
    mut visit: impl FnMut(&[u8], &[u8]) -> io::Result<()>,
) -> io::Result<Vec<bool>> {
    let mut reached = vec![false; pool.page_count() as usize];
    match pool.root() {
        NO_PAGE => {}
        root => visit_rec(pool, root, 0, &mut reached, &mut visit)?,
    }
    Ok(reached)
}

fn visit_rec(
    pool: &mut BufferPool,
    id: PageId,
    depth: usize,
    reached: &mut [bool],
    visit: &mut impl FnMut(&[u8], &[u8]) -> io::Result<()>,
) -> io::Result<()> {
    if depth >= MAX_DEPTH {
        return Err(too_deep());
    }
    let page = pool.read(id)?;
    mark(reached, id)?;
    // The overflow pages of this node's blobs.
    let mut pages = Vec::new();
    let mut note = |id| pages.push(id);
    if page.first() == Some(&TAG_LEAF) {
        let (at, prefix) = (index(&page, id, TAG_LEAF)?, leaf_prefix(&page, id)?);
        let mut key = Vec::new();
        for &entry in &at[..at.len() - 1] {
            let mut r = Reader::at(&page, entry as usize, id);
            match r.blob()? {
                Blob::Inline(suffix) => {
                    key.clear();
                    key.extend_from_slice(prefix);
                    key.extend_from_slice(suffix);
                }
                overflow => key = overflow.load_noting(pool, &mut note)?.into_owned(),
            }
            let chain = r.blob()?.load_noting(pool, &mut note)?;
            visit(&key, &chain)?;
        }
    } else {
        let at = index(&page, id, TAG_INTERNAL)?;
        for i in 0..at.len() - 1 {
            // Child `i`, then the separator after it.
            visit_rec(pool, child(&page, at, i), depth + 1, reached, visit)?;
            if i + 2 < at.len() {
                let sep = Reader::at(&page, at[i] as usize + 4, id).blob()?;
                sep.load_noting(pool, &mut note)?;
            }
        }
    }
    pages.into_iter().try_for_each(|id| mark(reached, id))
}

fn mark(reached: &mut [bool], id: PageId) -> io::Result<()> {
    match reached.get_mut(id as usize) {
        Some(seen @ false) => {
            *seen = true;
            Ok(())
        }
        _ => Err(corrupt(format!("page {id}: reached twice"))),
    }
}
