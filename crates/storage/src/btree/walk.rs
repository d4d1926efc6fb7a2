//! The one write path: a sorted walk that rewrites each leaf it touches
//! once and each ancestor at most once, merges or drops the leaves it
//! shrinks, and the writes and prunes built on it.

use std::borrow::Cow;
use std::io;
use std::iter::Peekable;
use std::ops::Range;
use std::sync::Arc;

use super::blob::{append_blob, Blob};
use super::chain::{chain_prune, chain_pushed, Prune};
use super::leaf::{
    cut, entries_of, leaf_image, leaf_prefix, merge_fits, put_entry, Entry, Key, MERGE_BELOW,
};
use super::{
    child, corrupt, index, locate, too_deep, Pages, Reader, INLINE_CHAIN_MAX, INLINE_KEY_MAX,
    MAX_DEPTH, NODE_HEADER, TAG_INTERNAL, TAG_LEAF,
};
use crate::page::{PageId, MAX_PAYLOAD, NO_PAGE};
use crate::pool::{Image, Page};

/// The shortest separator `s` with `left_max < s <= right_min`.
fn shortest_separator<'a>(left_max: &[u8], right_min: &'a [u8]) -> &'a [u8] {
    for i in 0..right_min.len() {
        if i >= left_max.len() || right_min[i] != left_max[i] {
            return &right_min[..=i];
        }
    }
    right_min
}

/// What a step of a walk does to the chain stored under its key.
pub(crate) enum Edit {
    Put(Vec<u8>),
    Remove,
    Keep,
}

/// A rewritten node: the id of its first piece, then the encoded separator
/// and the id of each further piece it split into.
struct Written {
    id: PageId,
    more: Vec<(Vec<u8>, PageId)>,
    /// A leaf that lost entries and is one piece under [`MERGE_BELOW`]
    /// bytes: the image it was given, which its parent drops or merges
    /// with a sibling without reading it back.
    shrunk: Option<Page>,
}

/// An internal node on a walk's path, and what its children became.
struct Level {
    id: PageId,
    page: Page,
    /// Every key under the node is below this fence (`None`: no bound).
    upper: Option<Vec<u8>>,
    /// The child the walk is in, and that child's upper fence.
    idx: usize,
    child_upper: Option<Vec<u8>>,
    /// Children rewritten so far, ascending.
    rewritten: Vec<(usize, Written)>,
}

/// The one write path: apply `steps`, ascending by key, in one walk of the
/// tree.
///
/// Each step is a key and what the caller changes there. The walk descends
/// to the first step's leaf and has `visit` decide an [`Edit`] for every
/// step below that leaf's upper fence, shown the step and the chain stored
/// under its key, if any. It writes the leaf once — the old bytes with the
/// changed entries spliced in where the prefix cannot change, else its
/// entries encoded again, split as many ways as they need — then climbs
/// only as far as the next step needs and descends from there.
/// An ancestor is rewritten once, as the walk leaves it, and only if the
/// id of a child changed or a child split — or a leaf below it lost entries
/// and was left under a quarter page, which the ancestor then drops if it
/// is empty or merges with a sibling ([`rebalance`]). Every image the walk
/// writes carries its entry offsets, so nothing parses it again.
pub(crate) fn apply<K: AsRef<[u8]>, T>(
    pool: &mut impl Pages,
    steps: impl IntoIterator<Item = (K, T)>,
    mut visit: impl FnMut(&[u8], T, Option<&[u8]>) -> io::Result<Edit>,
) -> io::Result<()> {
    let mut steps = steps.into_iter().peekable();
    if pool.root() == NO_PAGE {
        let empty: Page = Arc::new(Image::indexed(
            vec![TAG_LEAF, 0, 0, 0],
            Box::new([NODE_HEADER as u16 + 1]),
        ));
        let written = rewrite_leaf(pool, NO_PAGE, &empty, None, &mut steps, &mut visit)?;
        if let Some(written) = written {
            let root = grow(pool, written)?;
            pool.set_root(root);
        }
        return Ok(());
    }
    let mut path: Vec<Level> = Vec::new();
    // What the root became.
    let mut root = None;
    while let Some((key, _)) = steps.peek() {
        let target: &[u8] = key.as_ref();
        // Climb out of every node the target is not under...
        let beyond = |level: &mut Level| level.upper.as_deref().is_some_and(|up| target >= up);
        while let Some(level) = path.pop_if(beyond) {
            let written = rewrite_internal(pool, level, path.is_empty())?;
            settle(&mut path, &mut root, written);
        }
        // ...and descend from the lowest one it is under to its leaf.
        let (mut id, mut upper) = match path.last_mut() {
            Some(level) => {
                (level.idx, level.child_upper) =
                    route(pool, &level.page, level.id, target, level.upper.as_deref())?;
                let at = index(&level.page, level.id, TAG_INTERNAL)?;
                (child(&level.page, at, level.idx), level.child_upper.clone())
            }
            None => (pool.root(), None),
        };
        let leaf = loop {
            let page = pool.read(id)?;
            if page.first() == Some(&TAG_LEAF) {
                break page;
            }
            if path.len() >= MAX_DEPTH {
                return Err(too_deep());
            }
            let (idx, child_upper) = route(pool, &page, id, target, upper.as_deref())?;
            let below = child(&page, index(&page, id, TAG_INTERNAL)?, idx);
            path.push(Level {
                id,
                page,
                upper,
                idx,
                child_upper: child_upper.clone(),
                rewritten: Vec::new(),
            });
            (id, upper) = (below, child_upper);
        };
        // The walk only moves right: a fence at or below the key it
        // descended for is damage, and would never end.
        if upper.as_deref().is_some_and(|up| up <= target) {
            return Err(corrupt(format!("leaf {id}: separators out of order")));
        }
        let written = rewrite_leaf(pool, id, &leaf, upper.as_deref(), &mut steps, &mut visit)?;
        settle(&mut path, &mut root, written);
    }
    while let Some(level) = path.pop() {
        let written = rewrite_internal(pool, level, path.is_empty())?;
        settle(&mut path, &mut root, written);
    }
    if let Some(written) = root {
        let root = grow(pool, written)?;
        pool.set_root(root);
    }
    Ok(())
}

/// The child of internal node `page` to take for `key`, as
/// [`descend`](super::descend) takes it, and that child's upper fence: the
/// separator after it, or the node's own `upper`.
fn route(
    pool: &mut impl Pages,
    page: &Page,
    id: PageId,
    key: &[u8],
    upper: Option<&[u8]>,
) -> io::Result<(usize, Option<Vec<u8>>)> {
    let at = index(page, id, TAG_INTERNAL)?;
    let idx = match locate(pool, page, id, TAG_INTERNAL, at, key)? {
        Ok(sep) => sep + 1,
        Err(sep) => sep,
    };
    let fence = if idx < at.len() - 2 {
        let sep = Reader::at(page, at[idx] as usize + 4, id).blob()?;
        Some(sep.load(pool)?.into_owned())
    } else {
        upper.map(<[u8]>::to_vec)
    };
    Ok((idx, fence))
}

/// Hand what a node became to its parent on the path, or to the root.
fn settle(path: &mut [Level], root: &mut Option<Written>, written: Option<Written>) {
    let Some(written) = written else {
        return;
    };
    match path.last_mut() {
        Some(parent) => parent.rewritten.push((parent.idx, written)),
        None => *root = Some(written),
    }
}

/// The root over what the old root became: its one piece, or new levels
/// above its pieces.
fn grow(pool: &mut impl Pages, written: Written) -> io::Result<PageId> {
    let Written {
        id: mut root,
        mut more,
        ..
    } = written;
    while !more.is_empty() {
        let seps: usize = more.iter().map(|(sep, _)| sep.len()).sum();
        let mut node = Node::new(pool.buffer(NODE_HEADER + 4 * (more.len() + 1) + seps));
        node.child(root);
        for (sep, id) in &more {
            node.sep(sep);
            node.child(*id);
        }
        Written { id: root, more, .. } = node.write(pool, NO_PAGE)?;
    }
    Ok(root)
}

/// Write an internal node left by the walk: its old bytes with each
/// rewritten child's pointer patched and the separators of its pieces
/// spliced in after it. `None` if no child's id changed and none split.
/// A node with a shrunk leaf below it is [`rebalance`]d instead.
fn rewrite_internal(
    pool: &mut impl Pages,
    level: Level,
    root: bool,
) -> io::Result<Option<Written>> {
    let Level {
        id,
        page,
        rewritten,
        ..
    } = level;
    let at = index(&page, id, TAG_INTERNAL)?;
    if rewritten.iter().any(|(_, w)| w.shrunk.is_some()) {
        return rebalance(pool, id, &page, at, rewritten, root).map(Some);
    }
    let same = |(i, w): &(usize, Written)| w.more.is_empty() && w.id == child(&page, at, *i);
    if rewritten.iter().all(same) {
        return Ok(None);
    }
    let mut node = Node::new(pool.buffer(page.len()));
    let mut from = 0;
    for (i, Written { id: new, more, .. }) in rewritten {
        if i < from {
            return Err(corrupt(format!("internal {id}: separators out of order")));
        }
        node.copy(&page, at, from..i);
        node.child(new);
        for (sep, right) in &more {
            node.sep(sep);
            node.child(*right);
        }
        node.sep(&page[at[i] as usize + 4..at[i + 1] as usize]);
        from = i + 1;
    }
    node.copy(&page, at, from..at.len() - 1);
    node.write(pool, id).map(Some)
}

/// A child of a node being rebalanced: its page, a shrunk leaf's image,
/// and the encoded separator after it (empty after the last child).
struct Kid<'a> {
    id: PageId,
    shrunk: Option<Page>,
    sep: Cow<'a, [u8]>,
}

/// Write internal node `id` left by the walk, whose children `rewritten`
/// include a shrunk leaf, after dealing with each shrunk leaf in turn. An
/// empty one is dropped with a separator beside it. Any other is merged
/// with its right sibling, or its left one if it is the last child, when
/// their entries fit [`merge_fits`]: one [`write_leaf`] into the shrunk
/// leaf's page, which is fresh, and the sibling's page and the separator
/// between them dropped. That reads the sibling alone, and not even that
/// when the sibling shrank too. A root left with one child is replaced by
/// it.
fn rebalance(
    pool: &mut impl Pages,
    id: PageId,
    page: &[u8],
    at: &[u16],
    rewritten: Vec<(usize, Written)>,
    root: bool,
) -> io::Result<Written> {
    let sep_after = |i: usize| Cow::Borrowed(&page[at[i] as usize + 4..at[i + 1] as usize]);
    let old = |i| Kid {
        id: child(page, at, i),
        shrunk: None,
        sep: sep_after(i),
    };
    let mut kids = Vec::with_capacity(at.len() + rewritten.len());
    let mut from = 0;
    for (i, written) in rewritten {
        if i < from {
            return Err(corrupt(format!("internal {id}: separators out of order")));
        }
        kids.extend((from..i).map(old));
        let mut piece = written.id;
        for (sep, next) in written.more {
            let (shrunk, sep) = (None, Cow::Owned(sep));
            kids.push(Kid {
                id: piece,
                shrunk,
                sep,
            });
            piece = next;
        }
        let (shrunk, sep) = (written.shrunk, sep_after(i));
        kids.push(Kid {
            id: piece,
            shrunk,
            sep,
        });
        from = i + 1;
    }
    kids.extend((from..at.len() - 1).map(old));

    let mut i = 0;
    while i < kids.len() {
        let Some(small) = kids[i].shrunk.take() else {
            i += 1;
            continue;
        };
        let small_at = index(&small, kids[i].id, TAG_LEAF)?;
        if small_at.len() == 1 {
            // Empty: the separator after it goes, or before it if it is last.
            if kids.len() > 1 {
                let last = i + 1 == kids.len();
                drop_kid(pool, id, &mut kids, i, last)?;
            } else {
                i += 1;
            }
            continue;
        }
        let j = if i + 1 < kids.len() {
            i + 1
        } else if i > 0 {
            i - 1
        } else {
            i += 1;
            continue;
        };
        let sibling = match &kids[j].shrunk {
            Some(shrunk) => Arc::clone(shrunk),
            None => pool.read(kids[j].id)?,
        };
        let sibling_at = index(&sibling, kids[j].id, TAG_LEAF)?;
        let ours = entries_of(&small, kids[i].id, small_at)?;
        let theirs = entries_of(&sibling, kids[j].id, sibling_at)?;
        let entries = match j > i {
            true => [ours, theirs].concat(),
            false => [theirs, ours].concat(),
        };
        if !merge_fits(pool, &entries)? {
            i += 1;
            continue;
        }
        let merged = write_leaf(pool, kids[i].id, &entries, None, false)?.id;
        drop_kid(pool, id, &mut kids, j, j > i)?;
        i = i.min(j);
        kids[i].id = merged;
        i += 1;
    }

    if root && kids.len() == 1 {
        pool.free(id);
        let id = kids[0].id;
        let (more, shrunk) = (Vec::new(), None);
        return Ok(Written { id, more, shrunk });
    }
    let mut node = Node::new(pool.buffer(page.len()));
    for kid in &kids {
        node.child(kid.id);
        node.sep(&kid.sep);
    }
    node.write(pool, id)
}

/// Drop child `k` of internal node `node` and one separator beside it: the
/// one before it if `before`, else the one after. The child's page and the
/// separator's overflow pages are freed.
fn drop_kid(
    pool: &mut impl Pages,
    node: PageId,
    kids: &mut Vec<Kid>,
    k: usize,
    before: bool,
) -> io::Result<()> {
    let kid = kids.remove(k);
    let sep = match before {
        true => std::mem::replace(&mut kids[k - 1].sep, kid.sep),
        false => kid.sep,
    };
    Reader::at(&sep, 0, node).blob()?.free(pool)?;
    pool.free(kid.id);
    Ok(())
}

/// Append the bytes of entries `range` of a node whose index is `at`, and
/// their offsets: a leaf's entries, or an internal node's children, each
/// with the separator after it.
fn copy_entries(
    out: &mut Vec<u8>,
    offsets: &mut Vec<usize>,
    node: &[u8],
    at: &[u16],
    range: Range<usize>,
) {
    let (from, to) = (at[range.start] as usize, at[range.end] as usize);
    let base = out.len();
    offsets.extend(at[range].iter().map(|&a| a as usize - from + base));
    out.extend_from_slice(&node[from..to]);
}

/// An internal node being built: its bytes, and where each child pointer
/// lies in them.
struct Node {
    bytes: Vec<u8>,
    at: Vec<usize>,
}

impl Node {
    /// An empty node, built in `bytes`, an empty buffer.
    fn new(mut bytes: Vec<u8>) -> Node {
        bytes.extend_from_slice(&[TAG_INTERNAL, 0, 0]);
        Node {
            bytes,
            at: Vec::new(),
        }
    }

    fn child(&mut self, id: PageId) {
        self.at.push(self.bytes.len());
        self.bytes.extend_from_slice(&id.to_le_bytes());
    }

    /// An encoded separator blob, after a child.
    fn sep(&mut self, blob: &[u8]) {
        self.bytes.extend_from_slice(blob);
    }

    /// Children `range` of internal node `page`, whose index is `at`, each
    /// with the separator after it.
    fn copy(&mut self, page: &[u8], at: &[u16], range: Range<usize>) {
        copy_entries(&mut self.bytes, &mut self.at, page, at, range);
    }

    /// Write the node back as page `id` (CoW; `NO_PAGE`: a new page), split
    /// at middle separators into as many pieces as it needs.
    fn write(self, pool: &mut impl Pages, id: PageId) -> io::Result<Written> {
        let (mut images, mut seps) = (Vec::new(), Vec::new());
        self.halve(id, &mut images, &mut seps)?;
        store_pieces(pool, id, images, seps, false)
    }

    /// The node's pieces that fit a page: itself, or both halves around its
    /// middle separator, halved again until they fit; each side keeps at
    /// least one separator.
    fn halve(self, id: PageId, images: &mut Vec<Image>, seps: &mut Vec<Vec<u8>>) -> io::Result<()> {
        if self.bytes.len() <= MAX_PAYLOAD {
            images.push(self.image());
            return Ok(());
        }
        let count = self.at.len() - 1;
        if count < 3 {
            return Err(corrupt(format!("internal {id}: too few separators")));
        }
        let mid = (count / 2).clamp(1, count - 2);
        let sep = self.at[mid] + 4..self.at[mid + 1];
        let left = Node {
            bytes: self.bytes[..sep.start].to_vec(),
            at: self.at[..=mid].to_vec(),
        };
        let shift = sep.end - NODE_HEADER;
        let right = Node {
            bytes: [&[TAG_INTERNAL, 0, 0][..], &self.bytes[sep.end..]].concat(),
            at: self.at[mid + 1..].iter().map(|a| a - shift).collect(),
        };
        left.halve(id, images, seps)?;
        seps.push(self.bytes[sep].to_vec());
        right.halve(id, images, seps)
    }

    /// The node as a page image, with its entry offsets.
    fn image(mut self) -> Image {
        let count = self.at.len() as u16 - 1;
        self.bytes[1..NODE_HEADER].copy_from_slice(&count.to_le_bytes());
        self.at.push(self.bytes.len());
        Image::indexed(self.bytes, self.at.iter().map(|&a| a as u16).collect())
    }
}

/// Store the pieces a node became: the first as page `id` (CoW;
/// `NO_PAGE`: a new page), each further one on a new page after the
/// separator that leads to it. A leaf that `shrank` — lost entries — and
/// is one piece under [`MERGE_BELOW`] bytes keeps a handle to its image.
fn store_pieces(
    pool: &mut impl Pages,
    id: PageId,
    images: Vec<Image>,
    seps: Vec<Vec<u8>>,
    shrank: bool,
) -> io::Result<Written> {
    let (mut ids, mut shrunk) = (Vec::with_capacity(images.len()), None);
    let one = images.len() == 1;
    for image in images {
        let page = Page::new(image);
        if shrank && one && page.len() < MERGE_BELOW {
            shrunk = Some(Arc::clone(&page));
        }
        ids.push(pool.write_shared(if ids.is_empty() { id } else { NO_PAGE }, page)?);
    }
    let more = seps.into_iter().zip(ids[1..].iter().copied()).collect();
    Ok(Written {
        id: ids[0],
        more,
        shrunk,
    })
}

/// Entry `i` of a leaf as it lies there: its key blob, where its chain blob
/// starts, and the chain blob.
struct Stored<'a> {
    key: Blob<'a>,
    chain_at: usize,
    chain: Blob<'a>,
}

fn stored<'a>(leaf: &'a [u8], id: PageId, at: &[u16], i: usize) -> io::Result<Stored<'a>> {
    let mut r = Reader::at(leaf, at[i] as usize, id);
    let key = r.blob()?;
    let chain_at = r.pos();
    let chain = r.blob()?;
    Ok(Stored {
        key,
        chain_at,
        chain,
    })
}

/// A change a walk makes to one leaf entry; the blobs it adds lie in the
/// leaf's [`LeafEdits::arena`].
enum Change {
    /// The entry keeps its key blob, which ends at this offset, and gets
    /// this chain blob.
    Chain(usize, Range<usize>),
    Remove,
    /// A new entry, ahead of the old one at its index: its key, its chain
    /// blob, and whether the key starts with the leaf's prefix.
    Insert(NewKey, Range<usize>, bool),
}

/// The key of a new leaf entry: inline in the arena, or spilled whole.
enum NewKey {
    Inline(Range<usize>),
    Overflow(PageId, u32),
}

/// The changes a walk makes to one leaf, in entry order, and the bytes of
/// the blobs they add.
#[derive(Default)]
struct LeafEdits {
    changes: Vec<(usize, Change)>,
    arena: Vec<u8>,
    /// The overflow blobs of removed entries: freed when the leaf is
    /// written, as the walk may still read a removed key in the old image
    /// while it finds the next step's slot.
    removed: Vec<(PageId, u32)>,
}

/// Apply to leaf `id` every step below its upper `fence`. Returns what the
/// leaf became (`None`: nothing changed).
fn rewrite_leaf<K: AsRef<[u8]>, T>(
    pool: &mut impl Pages,
    id: PageId,
    leaf: &Page,
    fence: Option<&[u8]>,
    steps: &mut Peekable<impl Iterator<Item = (K, T)>>,
    visit: &mut impl FnMut(&[u8], T, Option<&[u8]>) -> io::Result<Edit>,
) -> io::Result<Option<Written>> {
    let at = index(leaf, id, TAG_LEAF)?;
    let leaf: &[u8] = leaf;
    let prefix = leaf_prefix(leaf, id)?;
    let mut edits = LeafEdits::default();
    // Entries below `pos` are settled.
    let mut pos = 0;
    let below = |(key, _): &(K, T)| fence.is_none_or(|fence| key.as_ref() < fence);
    while let Some((key, step)) = steps.next_if(below) {
        let key = key.as_ref();
        match locate(pool, leaf, id, TAG_LEAF, at, key)? {
            Ok(i) | Err(i) if i < pos => {
                return Err(corrupt(format!("leaf {id}: keys out of order")));
            }
            Ok(i) => {
                let entry = stored(leaf, id, at, i)?;
                let chain = entry.chain.load(pool)?;
                let edit = visit(key, step, Some(&chain))?;
                edits.change(pool, i, &entry, edit)?;
                pos = i + 1;
            }
            Err(i) => {
                let edit = visit(key, step, None)?;
                edits.insert(pool, i, key, prefix, edit)?;
                pos = i;
            }
        }
    }
    if edits.changes.is_empty() {
        return Ok(None);
    }
    edits.write(pool, id, leaf, at, prefix).map(Some)
}

impl LeafEdits {
    /// Old entry `i`, stored as `entry`, edited.
    fn change(
        &mut self,
        pool: &mut impl Pages,
        i: usize,
        entry: &Stored,
        edit: Edit,
    ) -> io::Result<()> {
        match edit {
            Edit::Keep => {}
            Edit::Put(chain) => {
                // Chain blob first, then the old chain freed: the
                // allocation order the file layout depends on.
                let blob = self.blob(pool, &chain)?;
                entry.chain.free(pool)?;
                self.changes.push((i, Change::Chain(entry.chain_at, blob)));
            }
            Edit::Remove => {
                for blob in [entry.key, entry.chain] {
                    if let Blob::Overflow(head, len) = blob {
                        self.removed.push((head, len));
                    }
                }
                self.changes.push((i, Change::Remove));
            }
        }
        Ok(())
    }

    /// A new `key` ahead of old entry `i`, if `edit` puts a chain there.
    fn insert(
        &mut self,
        pool: &mut impl Pages,
        i: usize,
        key: &[u8],
        prefix: &[u8],
        edit: Edit,
    ) -> io::Result<()> {
        let Edit::Put(chain) = edit else {
            return Ok(());
        };
        // Chain blob first, then the key blob.
        let blob = self.blob(pool, &chain)?;
        let new = match Key::new(pool, key)? {
            Key::Overflow(head, len) => NewKey::Overflow(head, len),
            Key::Inline(..) => {
                self.arena.extend_from_slice(key);
                NewKey::Inline(self.arena.len() - key.len()..self.arena.len())
            }
        };
        let under = key.starts_with(prefix);
        self.changes.push((i, Change::Insert(new, blob, under)));
        Ok(())
    }

    /// `chain` as a blob in the arena, spilled to overflow pages when long.
    fn blob(&mut self, pool: &mut impl Pages, chain: &[u8]) -> io::Result<Range<usize>> {
        // A key written on every commit rewrites its whole retained chain;
        // this histogram's max shows how long that gets.
        rl_obs::record(rl_obs::Op::ChainBytes, chain.len() as u64);
        let start = self.arena.len();
        append_blob(pool, chain, INLINE_CHAIN_MAX, &mut self.arena)?;
        Ok(start..self.arena.len())
    }

    fn key(&self, key: &NewKey) -> Key<'_> {
        match key {
            NewKey::Inline(bytes) => Key::Inline(&[], &self.arena[bytes.clone()]),
            NewKey::Overflow(head, len) => Key::Overflow(*head, *len),
        }
    }

    /// Write the changed leaf `id` back. Where the prefix cannot change —
    /// every new key starts with it, and neither end entry goes — and the
    /// result fits, the new image is the old bytes with the changed entries
    /// spliced in. Otherwise its entries are encoded again under the prefix
    /// of their ends and split as many ways as they need.
    fn write(
        &self,
        pool: &mut impl Pages,
        id: PageId,
        leaf: &[u8],
        at: &[u16],
        prefix: &[u8],
    ) -> io::Result<Written> {
        for &(head, len) in &self.removed {
            Blob::Overflow(head, len).free(pool)?;
        }
        let shrank = self
            .changes
            .iter()
            .any(|(_, change)| matches!(change, Change::Remove));
        let count = at.len() - 1;
        let keeps_prefix = count > 0
            && self.changes.iter().all(|(i, change)| match change {
                Change::Chain(..) => true,
                Change::Remove => 0 < *i && i + 1 < count,
                Change::Insert(_, _, under) => *under,
            });
        let span = |i: usize| (at[i + 1] - at[i]) as usize;
        let size = self
            .changes
            .iter()
            .fold(leaf.len(), |size, (i, change)| match change {
                Change::Chain(chain_at, blob) => {
                    size + (chain_at - at[*i] as usize) + blob.len() - span(*i)
                }
                Change::Remove => size - span(*i),
                Change::Insert(key, blob, _) => {
                    size + self.key(key).encoded_len(prefix.len()) + blob.len()
                }
            });
        if keeps_prefix && size <= MAX_PAYLOAD {
            let mut out = pool.buffer(size);
            out.extend_from_slice(&leaf[..at[0] as usize]);
            let mut offsets = Vec::with_capacity(count + self.changes.len() + 1);
            let mut from = 0;
            for (i, change) in &self.changes {
                copy_entries(&mut out, &mut offsets, leaf, at, from..*i);
                from = *i;
                match change {
                    Change::Chain(chain_at, blob) => {
                        offsets.push(out.len());
                        out.extend_from_slice(&leaf[at[*i] as usize..*chain_at]);
                        out.extend_from_slice(&self.arena[blob.clone()]);
                        from = i + 1;
                    }
                    Change::Remove => from = i + 1,
                    Change::Insert(key, blob, _) => {
                        offsets.push(out.len());
                        let chain = &self.arena[blob.clone()];
                        put_entry(
                            &mut out,
                            id,
                            prefix,
                            &Entry {
                                key: self.key(key),
                                chain,
                            },
                        )?;
                    }
                }
            }
            copy_entries(&mut out, &mut offsets, leaf, at, from..count);
            offsets.push(out.len());
            let entries = offsets.len() as u16 - 1;
            out[1..NODE_HEADER].copy_from_slice(&entries.to_le_bytes());
            let image = Image::indexed(out, offsets.iter().map(|&a| a as u16).collect());
            return store_pieces(pool, id, vec![image], Vec::new(), shrank);
        }
        let old = entries_of(leaf, id, at)?;
        let mut entries = Vec::with_capacity(count + self.changes.len());
        let mut from = 0;
        for (i, change) in &self.changes {
            entries.extend_from_slice(&old[from..*i]);
            from = *i;
            match change {
                Change::Chain(_, blob) => {
                    let chain = &self.arena[blob.clone()];
                    entries.push(Entry {
                        key: old[*i].key,
                        chain,
                    });
                    from = i + 1;
                }
                Change::Remove => from = i + 1,
                Change::Insert(key, blob, _) => {
                    let chain = &self.arena[blob.clone()];
                    entries.push(Entry {
                        key: self.key(key),
                        chain,
                    });
                }
            }
        }
        entries.extend_from_slice(&old[from..]);
        // An insert that shortened the prefix and no longer fits goes
        // alone, and the entries it joined keep their prefix and image.
        let lone = match &self.changes[..] {
            [(i, Change::Insert(_, _, false))] => Some(*i),
            _ => None,
        };
        write_leaf(pool, id, &entries, lone, shrank)
    }
}

/// Write `entries` back as leaf `id` (CoW; `NO_PAGE`: a new page) under the
/// prefix of their ends, split into as many pieces as they need to fit. A
/// cut falls after or before entry `lone` — an inserted key that shortened
/// the prefix, which then goes alone — or else at the split point [`cut`]
/// picks; each piece stores the prefix of its own ends. `shrank`: the leaf lost
/// entries, as [`store_pieces`] takes it.
fn write_leaf(
    pool: &mut impl Pages,
    id: PageId,
    entries: &[Entry],
    lone: Option<usize>,
    shrank: bool,
) -> io::Result<Written> {
    let mut pieces = Vec::new();
    cut(pool, id, entries, 0, lone, &mut pieces)?;
    // Separators first, then the pieces: the allocation order the file
    // layout depends on.
    let mut seps = Vec::with_capacity(pieces.len() - 1);
    for pair in pieces.windows(2) {
        let left_max = entries[pair[0].0.end - 1].key.whole(pool)?;
        let right_min = entries[pair[1].0.start].key.whole(pool)?;
        if left_max >= right_min {
            return Err(corrupt(format!("leaf {id}: keys out of order")));
        }
        let mut sep = Vec::new();
        let sep_bytes = shortest_separator(&left_max, &right_min);
        append_blob(pool, sep_bytes, INLINE_KEY_MAX, &mut sep)?;
        seps.push(sep);
    }
    let images = pieces
        .iter()
        .map(|(range, prefix)| leaf_image(pool, id, prefix, &entries[range.clone()]))
        .collect::<io::Result<_>>()?;
    store_pieces(pool, id, images, seps, shrank)
}

/// Write `value` (`None`: a tombstone) under `key` at `version`: a walk of
/// one step, and the one way an entry gets onto a chain (versions arrive in
/// nondecreasing order). Returns whether the write left something for
/// compaction: an older entry shadowed, or a tombstone.
pub fn write(
    pool: &mut impl Pages,
    key: &[u8],
    version: u64,
    value: Option<&[u8]>,
) -> io::Result<bool> {
    let mut garbage = false;
    apply(pool, [(key, ())], |_, (), stored| {
        let (chain, shadows) = chain_pushed(stored.unwrap_or_default(), version, value)?;
        garbage = shadows || value.is_none();
        Ok(Edit::Put(chain))
    })?;
    Ok(garbage)
}

/// Rewrite the chains of `keys`, ascending, as `chain_prune` at
/// `oldest_version` decides, in one walk: trimmed, removed with the key
/// when dead, or left alone. A leaf the walk leaves under a quarter page is
/// merged with a sibling, and an emptied one is dropped.
pub fn prune_sorted<'k>(
    pool: &mut impl Pages,
    keys: impl IntoIterator<Item = &'k [u8]>,
    oldest_version: u64,
) -> io::Result<()> {
    let steps = keys.into_iter().map(|key| (key, ()));
    apply(pool, steps, |_, (), stored| {
        let Some(old) = stored else {
            return Ok(Edit::Keep);
        };
        Ok(match chain_prune(old, oldest_version)? {
            Prune::Keep => Edit::Keep,
            Prune::Dead => Edit::Remove,
            Prune::Trim(chain) => Edit::Put(chain),
        })
    })
}

/// [`prune_sorted`] of one key.
pub fn prune(pool: &mut impl Pages, key: &[u8], oldest_version: u64) -> io::Result<()> {
    prune_sorted(pool, [key], oldest_version)
}
