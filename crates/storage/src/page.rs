//! On-disk pages: fixed-size pages with a checksummed header.
//!
//! Every page is [`PAGE_SIZE`] bytes:
//!
//! ```text
//! +----------------+----------------+------------------------------+
//! | checksum (u32) | payload_len u32| payload ... (zero padded)    |
//! +----------------+----------------+------------------------------+
//! ```
//!
//! The checksum covers the payload length and the payload bytes: XXH64
//! (seed 0) folded to 32 bits, the same [`checksum`] the WAL puts on its
//! frames. XXH64 consumes the input as 8-byte words on four independent
//! lanes; format 1 used FNV-1a, one 64-bit multiply per *byte* on a single
//! dependency chain, which took 5.5–5.8 µs per full page against
//! 0.35–0.42 µs for XXH64 — on a page miss the hash, not the read, was the
//! cost. Format 3 kept this framing and changed only the B-tree's leaves
//! (`btree/leaf.rs`: a shared key prefix stored once; varint lengths, in
//! `codec.rs`); format 4 keeps it too and makes chain versions varints and
//! folds each blob's inline/overflow flag into its length (`btree/blob.rs`,
//! `btree/chain.rs`). The header layout is the same in all four; the meta
//! slot's magic (`RLPAGED4`) tells them apart, and a file of format 1, 2
//! or 3 is refused, not read.
//! Page *types* live in the first payload byte and belong to the layers
//! above (B-tree nodes, overflow chains, meta slots); this module only
//! frames and verifies.

use std::io;

/// Size of every page in the file, including the 8-byte header.
pub const PAGE_SIZE: usize = 4096;
/// Header: checksum (4) + payload length (4).
pub const HEADER_SIZE: usize = 8;
/// Maximum payload bytes a page can carry.
pub const MAX_PAYLOAD: usize = PAGE_SIZE - HEADER_SIZE;

/// Page identifier (byte offset = id * PAGE_SIZE). Id 0 and 1 are the two
/// meta slots; data pages start at 2. Id 0 therefore doubles as the "null"
/// page reference inside data structures.
pub type PageId = u32;

/// The null page reference (no child / no overflow / empty tree).
pub const NO_PAGE: PageId = 0;

/// XXH64 over `bytes`, folded to 32 bits.
pub fn checksum(bytes: &[u8]) -> u32 {
    let h = xxh64(bytes);
    (h ^ (h >> 32)) as u32
}

// XXH64's five primes.
const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn merge(acc: u64, lane: u64) -> u64 {
    (acc ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
}

fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("an 8-byte word"))
}

/// XXH64 with seed 0, as the reference implementation defines it.
fn xxh64(bytes: &[u8]) -> u64 {
    let stripes = bytes.chunks_exact(32);
    let mut tail = stripes.remainder();
    let mut h = if bytes.len() >= 32 {
        let mut v = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in stripes {
            v[0] = round(v[0], word(&stripe[0..8]));
            v[1] = round(v[1], word(&stripe[8..16]));
            v[2] = round(v[2], word(&stripe[16..24]));
            v[3] = round(v[3], word(&stripe[24..32]));
        }
        let h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        v.iter().fold(h, |h, &lane| merge(h, lane))
    } else {
        P5
    };
    h = h.wrapping_add(bytes.len() as u64);
    while let Some((w, rest)) = tail.split_first_chunk::<8>() {
        h = (h ^ round(0, u64::from_le_bytes(*w)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
        tail = rest;
    }
    if let Some((w, rest)) = tail.split_first_chunk::<4>() {
        h = (h ^ u64::from(u32::from_le_bytes(*w)).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        tail = rest;
    }
    for &b in tail {
        h = (h ^ u64::from(b).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// Frame `payload` into a full page image.
///
/// Panics if the payload exceeds [`MAX_PAYLOAD`]; callers size their nodes
/// against that constant before serializing.
pub fn frame(payload: &[u8]) -> [u8; PAGE_SIZE] {
    assert!(
        payload.len() <= MAX_PAYLOAD,
        "page payload {} exceeds {}",
        payload.len(),
        MAX_PAYLOAD
    );
    let mut page = [0u8; PAGE_SIZE];
    page[4..8].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    page[HEADER_SIZE..HEADER_SIZE + payload.len()].copy_from_slice(payload);
    let sum = checksum(&page[4..HEADER_SIZE + payload.len()]);
    page[0..4].copy_from_slice(&sum.to_le_bytes());
    page
}

/// Verify a page image and return its payload slice.
pub fn unframe(page: &[u8]) -> io::Result<&[u8]> {
    if page.len() != PAGE_SIZE {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("short page: {} bytes", page.len()),
        ));
    }
    let stored = u32::from_le_bytes(page[0..4].try_into().unwrap());
    let len = u32::from_le_bytes(page[4..8].try_into().unwrap()) as usize;
    if len > MAX_PAYLOAD {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("page payload length {len} exceeds {MAX_PAYLOAD}"),
        ));
    }
    let sum = checksum(&page[4..HEADER_SIZE + len]);
    if sum != stored {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("page checksum mismatch: stored {stored:#010x}, computed {sum:#010x}"),
        ));
    }
    Ok(&page[HEADER_SIZE..HEADER_SIZE + len])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrips() {
        let payload = b"hello pages";
        let page = frame(payload);
        assert_eq!(unframe(&page).unwrap(), payload);
    }

    #[test]
    fn corruption_detected() {
        let mut page = frame(b"payload bytes");
        page[HEADER_SIZE + 3] ^= 0x40;
        assert!(unframe(&page).is_err());
    }

    #[test]
    fn empty_payload_ok() {
        let page = frame(b"");
        assert_eq!(unframe(&page).unwrap(), b"");
    }

    #[test]
    fn max_payload_fits() {
        let payload = vec![0xAB; MAX_PAYLOAD];
        let page = frame(&payload);
        assert_eq!(unframe(&page).unwrap(), &payload[..]);
    }

    #[test]
    fn xxh64_known_answers() {
        for (input, want) in [
            (&b""[..], 0xEF46_DB37_51D8_E999),
            (b"a", 0xD24E_C4F1_A98C_6E5B),
            (b"abc", 0x44BC_2CF5_AD77_0999),
            (
                b"Nobody inspects the spammish repetition",
                0xFBCE_A83C_8A37_8BF1,
            ),
        ] {
            assert_eq!(xxh64(input), want, "{:?}", String::from_utf8_lossy(input));
        }
    }

    /// A full payload of varied bytes.
    fn full_payload(salt: u8) -> Vec<u8> {
        (0..MAX_PAYLOAD)
            .map(|i| (i as u8).wrapping_mul(31) ^ (i >> 8) as u8 ^ salt)
            .collect()
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let page = frame(&full_payload(0));
        for bit in 0..PAGE_SIZE * 8 {
            let mut damaged = page;
            damaged[bit / 8] ^= 1 << (bit % 8);
            assert!(unframe(&damaged).is_err(), "flip of bit {bit} accepted");
        }
    }

    #[test]
    fn torn_page_is_rejected() {
        // A write torn at a sector boundary: the new page's prefix over the
        // old page's suffix.
        let (old, new) = (frame(&full_payload(0)), frame(&full_payload(0x5A)));
        for cut in (512..PAGE_SIZE).step_by(512) {
            let mut torn = old;
            torn[..cut].copy_from_slice(&new[..cut]);
            assert!(unframe(&torn).is_err(), "page torn at {cut} accepted");
        }
    }
}
