//! The version chain codec: a key's `(version, value)` list, encoded, read
//! in place and rewritten one write or one prune at a time.

use std::io;
use std::ops::Range;

use super::Reader;
use crate::codec::put_varint;
use crate::page::NO_PAGE;

/// One `(version, value)` entry of an encoded chain; `None` is a tombstone.
#[derive(Debug, Clone, Copy)]
pub struct ChainEntry<'a> {
    pub version: u64,
    pub value: Option<&'a [u8]>,
    /// Byte range of the entry in the encoded chain.
    at: usize,
    end: usize,
}

/// In-place iterator over an encoded chain, ascending by version. Yields
/// one `Err` and stops if the encoding is truncated.
pub struct ChainEntries<'a> {
    r: Reader<'a>,
    left: u32,
}

/// Walk an encoded version chain without decoding it.
pub fn chain_entries(chain: &[u8]) -> io::Result<ChainEntries<'_>> {
    let mut r = Reader::at(chain, 0, NO_PAGE);
    let left = r.varint()?;
    Ok(ChainEntries { r, left })
}

impl<'a> Iterator for ChainEntries<'a> {
    type Item = io::Result<ChainEntry<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        self.left = self.left.checked_sub(1)?;
        let at = self.r.pos();
        let r = &mut self.r;
        let entry = r.take(9).and_then(|head| {
            let version = u64::from_le_bytes(head[..8].try_into().unwrap());
            let value = match head[8] {
                1 => Some(r.varint().and_then(|len| r.take(len as usize))?),
                _ => None,
            };
            let end = r.pos();
            Ok(ChainEntry {
                version,
                value,
                at,
                end,
            })
        });
        if entry.is_err() {
            self.left = 0;
        }
        Some(entry)
    }
}

/// The value of the newest chain entry visible at `read_version`, if any.
pub fn chain_visible_at(chain: &[u8], read_version: u64) -> io::Result<Option<&[u8]>> {
    let mut visible = None;
    for entry in chain_entries(chain)? {
        let entry = entry?;
        if entry.version <= read_version {
            visible = entry.value;
        }
    }
    Ok(visible)
}

/// What pruning a chain at the MVCC horizon would do to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) enum Prune {
    /// Nothing is shadowed.
    Keep,
    /// The `count` entries in this byte range of the chain survive.
    Trim(Range<usize>, u32),
    /// Only a tombstone at or below the horizon would remain.
    Dead,
}

/// Decide the pruning of a chain at `oldest_version`: entries shadowed at
/// the horizon go, and a lone tombstone at or below it kills the key.
pub(super) fn chain_prune(chain: &[u8], oldest_version: u64) -> io::Result<Prune> {
    let entries = chain_entries(chain)?;
    let (mut total, mut dropped, mut from) = (0u32, 0u32, entries.r.pos());
    let mut last = None;
    for entry in entries {
        let entry = entry?;
        if entry.version <= oldest_version {
            (dropped, from) = (total, entry.at);
        }
        total += 1;
        last = Some(entry);
    }
    let Some(last) = last else {
        return Ok(Prune::Keep);
    };
    let count = total - dropped;
    Ok(
        if count == 1 && last.value.is_none() && last.version <= oldest_version {
            Prune::Dead
        } else if dropped == 0 {
            Prune::Keep
        } else {
            Prune::Trim(from..last.end, count)
        },
    )
}

/// `old` (empty for a new key) with one write applied, re-encoded: a write
/// at the newest entry's version replaces it, a later one is appended —
/// and then shadows the entries before it, which is also returned.
pub(crate) fn chain_pushed(
    old: &[u8],
    version: u64,
    value: Option<&[u8]>,
) -> io::Result<(Vec<u8>, bool)> {
    let (mut count, mut kept, mut shadows) = (0u32, &[][..], false);
    if !old.is_empty() {
        let entries = chain_entries(old)?;
        let start = entries.r.pos();
        count = entries.left;
        kept = match entries.last().transpose()? {
            Some(last) if last.version == version => {
                count -= 1;
                &old[start..last.at]
            }
            Some(last) => {
                shadows = true;
                &old[start..last.end]
            }
            None => kept,
        };
    }
    let value_len = value.map_or(0, <[u8]>::len);
    let mut out = Vec::with_capacity(5 + kept.len() + 8 + 1 + 5 + value_len);
    put_varint(&mut out, u64::from(count) + 1);
    out.extend_from_slice(kept);
    out.extend_from_slice(&version.to_le_bytes());
    match value {
        Some(v) => {
            out.push(1);
            put_varint(&mut out, v.len() as u64);
            out.extend_from_slice(v);
        }
        None => out.push(0),
    }
    Ok((out, shadows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoded_chain_push_visibility_and_prune() {
        let (mut chain, shadows) = chain_pushed(&[], 10, Some(b"a")).unwrap();
        assert!(!shadows);
        (chain, _) = chain_pushed(&chain, 20, Some(b"b")).unwrap();
        (chain, _) = chain_pushed(&chain, 20, Some(b"b2")).unwrap(); // same version: replaced
        let (chain, shadows) = chain_pushed(&chain, 30, None).unwrap();
        assert!(shadows);
        let versions: Vec<u64> = chain_entries(&chain)
            .unwrap()
            .map(|e| e.unwrap().version)
            .collect();
        assert_eq!(versions, [10, 20, 30]);
        assert_eq!(chain_visible_at(&chain, 9).unwrap(), None);
        assert_eq!(chain_visible_at(&chain, 19).unwrap(), Some(&b"a"[..]));
        assert_eq!(chain_visible_at(&chain, 29).unwrap(), Some(&b"b2"[..]));
        assert_eq!(chain_visible_at(&chain, 99).unwrap(), None);
        assert_eq!(chain_prune(&chain, 5).unwrap(), Prune::Keep);
        assert_eq!(chain_prune(&chain, 10).unwrap(), Prune::Keep);
        assert!(matches!(
            chain_prune(&chain, 25).unwrap(),
            Prune::Trim(_, 2)
        ));
        assert_eq!(chain_prune(&chain, 30).unwrap(), Prune::Dead);
        // Every truncation is an error, never a short read or a panic.
        for cut in 0..chain.len() {
            assert!(chain_visible_at(&chain[..cut], 99).is_err(), "cut {cut}");
        }
    }
}
