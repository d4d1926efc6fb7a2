//! The version chain codec: a key's `(version, value)` list, encoded, read
//! in place and rewritten one write or one prune at a time. This is the one
//! place that encodes a chain entry.
//!
//! ```text
//! chain := count varint  (version varint  (0x00 | (len + 1) varint value)){count}
//! ```
//!
//! A value head of 0 is a tombstone, any other is a value's length plus
//! one. Versions are whole `u64`s: no bit of one is reserved.

use std::io;

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
        let entry = r.varint64().and_then(|version| {
            let value = match r.varint()? {
                0 => None,
                head => Some(r.take(head as usize - 1)?),
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
    /// Only the newest entries survive: the chain of them, encoded.
    Trim(Vec<u8>),
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
            let mut trimmed = Vec::with_capacity(5 + last.end - from);
            put_varint(&mut trimmed, u64::from(count));
            trimmed.extend_from_slice(&chain[from..last.end]);
            Prune::Trim(trimmed)
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
    let mut shadowed = false;
    let chain = chain_appended(old, [(version, value)].into_iter(), |_, _, shadows| {
        shadowed = shadows
    })?;
    Ok((chain, shadowed))
}

/// `old` (empty for a new key) with `newer` appended in one rewrite:
/// entries ascending by version, each above the one before it, the first
/// at or above `old`'s newest — at it, it replaces that entry. `note` is
/// told each appended entry's version and value, and whether it shadows an
/// entry before it; one that replaces shadows nothing.
pub(crate) fn chain_appended<'v>(
    old: &[u8],
    newer: impl Iterator<Item = (u64, Option<&'v [u8]>)> + Clone,
    mut note: impl FnMut(u64, Option<&'v [u8]>, bool),
) -> io::Result<Vec<u8>> {
    let (mut count, mut kept, mut replaces) = (0u32, &[][..], false);
    if !old.is_empty() {
        let entries = chain_entries(old)?;
        let start = entries.r.pos();
        count = entries.left;
        let first = newer.clone().next().map(|(version, _)| version);
        kept = match entries.last().transpose()? {
            Some(last) if Some(last.version) == first => {
                (count, replaces) = (count - 1, true);
                &old[start..last.at]
            }
            Some(last) => &old[start..last.end],
            None => kept,
        };
    }
    let (added, bytes) = newer.clone().fold((0u32, 0), |(n, bytes), (_, value)| {
        (n + 1, bytes + 10 + 5 + value.map_or(0, <[u8]>::len))
    });
    let mut out = Vec::with_capacity(5 + kept.len() + bytes);
    put_varint(&mut out, u64::from(count + added));
    out.extend_from_slice(kept);
    let mut shadows = count > 0 && !replaces;
    for (version, value) in newer {
        note(version, value, shadows);
        shadows = true;
        put_varint(&mut out, version);
        match value {
            Some(v) => {
                put_varint(&mut out, v.len() as u64 + 1);
                out.extend_from_slice(v);
            }
            None => out.push(0),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::varint_len;

    /// A chain as a list: `(version, value)`, ascending by version.
    type Model = Vec<(u64, Option<Vec<u8>>)>;

    /// Both sides of the varint widths a version can take, 1 to 10 bytes.
    const VERSIONS: [u64; 8] = [
        0,
        (1 << 7) - 1,
        1 << 7,
        1 << 14,
        (1 << 28) - 1,
        1 << 35,
        1 << 63,
        u64::MAX,
    ];
    /// Value lengths whose head (`len + 1`) sits each side of 128.
    const VALUE_LENS: [usize; 5] = [0, 1, 126, 127, 128];

    /// The generator cases, each asserted to occur: a version of each of
    /// [`VERSIONS`], a tombstone, a value of each of [`VALUE_LENS`], a
    /// write at the newest version (which replaces it), and each outcome
    /// of a prune.
    #[derive(Default)]
    struct Seen {
        versions: [u32; VERSIONS.len()],
        tombstones: u32,
        value_lens: [u32; VALUE_LENS.len()],
        replaced: u32,
        keep: u32,
        trim: u32,
        dead: u32,
    }

    fn entries(chain: &[u8]) -> Model {
        let entries = chain_entries(chain).unwrap();
        entries
            .map(|e| e.map(|e| (e.version, e.value.map(<[u8]>::to_vec))))
            .collect::<io::Result<_>>()
            .unwrap()
    }

    /// The bytes a chain of `model` takes, field by field.
    fn encoded_len(model: &Model) -> usize {
        let entry = |(version, value): &(u64, Option<Vec<u8>>)| {
            let head = value
                .as_ref()
                .map_or(1, |v| varint_len(v.len() as u64 + 1) + v.len());
            varint_len(*version) + head
        };
        varint_len(model.len() as u64) + model.iter().map(entry).sum::<usize>()
    }

    /// `model` encoded, one push at a time.
    fn pushed(model: &[(u64, Option<Vec<u8>>)]) -> Vec<u8> {
        model.iter().fold(Vec::new(), |chain, (version, value)| {
            chain_pushed(&chain, *version, value.as_deref()).unwrap().0
        })
    }

    /// What `chain_prune` of `model` at `horizon` must say, and the
    /// entries a trim keeps.
    fn model_prune(model: &Model, horizon: u64) -> (Prune, Model) {
        let dropped = model.iter().rposition(|(v, _)| *v <= horizon).unwrap_or(0);
        let kept = model[dropped..].to_vec();
        match &kept[..] {
            [(v, None)] if *v <= horizon => (Prune::Dead, kept),
            _ if dropped == 0 => (Prune::Keep, kept),
            _ => (Prune::Trim(pushed(&kept)), kept),
        }
    }

    /// Appending several entries in one rewrite gives the chain, and the
    /// notes, that pushing them one at a time gives: on an empty chain, on
    /// one whose newest entry the first appended replaces (noted as
    /// shadowing nothing), and on one it does not.
    #[test]
    fn appending_at_once_equals_pushing_one_by_one() {
        let old = pushed(&[(3, Some(b"a".to_vec())), (5, None)]);
        let newer: [(u64, Option<&[u8]>); 3] = [(5, Some(b"b")), (8, None), (9, Some(b""))];
        for (old, from) in [(&[][..], 0), (&old[..], 0), (&old[..], 1)] {
            let newer = &newer[from..];
            let mut notes = Vec::new();
            let at_once = chain_appended(old, newer.iter().copied(), |v, value, shadows| {
                notes.push((v, value.is_none(), shadows))
            })
            .unwrap();
            let (mut chain, mut pushes) = (old.to_vec(), Vec::new());
            for &(version, value) in newer {
                let shadows;
                (chain, shadows) = chain_pushed(&chain, version, value).unwrap();
                pushes.push((version, value.is_none(), shadows));
            }
            assert_eq!(at_once, chain);
            assert_eq!(notes, pushes);
        }
    }

    /// Seeded chains of 1 to 6 entries, built by `chain_pushed` with
    /// versions at every varint width, round trip through
    /// `chain_entries`, `chain_visible_at` and `chain_prune`, take exactly
    /// the bytes their fields do, and are `InvalidData` at every
    /// truncation.
    #[test]
    fn encoded_chains_round_trip_at_every_varint_width() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut rand = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let mut seen = Seen::default();
        for case in 0..2_000 {
            let count = 1 + rand(6);
            let mut picks: Vec<usize> = (0..VERSIONS.len()).collect();
            for i in (1..picks.len()).rev() {
                picks.swap(i, rand(i + 1));
            }
            picks[..count].sort_unstable();
            let (mut chain, mut model) = (Vec::new(), Model::new());
            for &pick in &picks[..count] {
                let version = VERSIONS[pick];
                seen.versions[pick] += 1;
                // Now and then a first value at this version that the next
                // write, at the same version, replaces.
                let writes = if rand(4) == 0 { 2 } else { 1 };
                for write in 0..writes {
                    let value = match rand(VALUE_LENS.len() + 2) {
                        0 => None,
                        n if n <= VALUE_LENS.len() => Some(vec![n as u8; VALUE_LENS[n - 1]]),
                        _ => Some(vec![7; rand(300)]),
                    };
                    if write + 1 == writes {
                        match &value {
                            None => seen.tombstones += 1,
                            Some(v) => {
                                if let Some(n) = VALUE_LENS.iter().position(|&len| len == v.len()) {
                                    seen.value_lens[n] += 1;
                                }
                            }
                        }
                    }
                    let shadows;
                    (chain, shadows) = chain_pushed(&chain, version, value.as_deref()).unwrap();
                    let replaces = model.last().is_some_and(|(v, _)| *v == version);
                    assert_eq!(shadows, !model.is_empty() && !replaces, "case {case}");
                    if replaces {
                        seen.replaced += 1;
                        model.pop();
                    }
                    model.push((version, value));
                }
            }
            assert_eq!(entries(&chain), model, "case {case}");
            assert_eq!(chain.len(), encoded_len(&model), "case {case}");
            let mut probes = vec![0, u64::MAX];
            for &(v, _) in &model {
                probes.extend([v.saturating_sub(1), v, v.saturating_add(1)]);
            }
            for &read in &probes {
                let newest = model.iter().rfind(|(v, _)| *v <= read);
                let want = newest.and_then(|(_, value)| value.as_deref());
                assert_eq!(
                    chain_visible_at(&chain, read).unwrap(),
                    want,
                    "case {case} at {read}"
                );
                let (prune, kept) = model_prune(&model, read);
                let got = chain_prune(&chain, read).unwrap();
                match &got {
                    Prune::Keep => seen.keep += 1,
                    Prune::Trim(trimmed) => {
                        seen.trim += 1;
                        assert_eq!(entries(trimmed), kept, "case {case} at {read}");
                    }
                    Prune::Dead => seen.dead += 1,
                }
                assert_eq!(got, prune, "case {case} at {read}");
            }
            for cut in 0..chain.len() {
                let err = chain_visible_at(&chain[..cut], u64::MAX).unwrap_err();
                assert_eq!(
                    err.kind(),
                    io::ErrorKind::InvalidData,
                    "case {case}, cut {cut}"
                );
            }
        }
        // The bytes themselves: a count, a version of one byte with an
        // empty value (head 1), a version of two bytes with a tombstone.
        assert_eq!(
            pushed(&[(5, Some(Vec::new())), (128, None)]),
            [2, 5, 1, 0x80, 1, 0]
        );
        let Seen {
            versions,
            tombstones,
            value_lens,
            replaced,
            keep,
            trim,
            dead,
        } = seen;
        assert!(versions.iter().all(|&n| n > 0), "versions {versions:?}");
        assert!(
            value_lens.iter().all(|&n| n > 0),
            "value lengths {value_lens:?}"
        );
        let cases = [tombstones, replaced, keep, trim, dead];
        assert!(
            cases.iter().all(|&n| n > 0),
            "tombstone, replace, keep, trim, dead: {cases:?}"
        );
    }
}
