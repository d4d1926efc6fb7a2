//! Atomic read-modify-write mutations (§2 of the paper).
//!
//! Atomic mutations occur within a transaction like other writes but do not
//! create *read* conflicts, so concurrent transactions mutating the same key
//! do not abort one another. The Record Layer's atomic-mutation index types
//! (COUNT, SUM, MIN_EVER, MAX_EVER, ...) depend on this property.

use std::borrow::Cow;

use crate::error::{Error, Result};
use crate::version::TR_VERSION_LEN;

/// The atomic operations supported by the simulator; a superset of what the
/// Record Layer uses, matching FoundationDB's `MutationType`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MutationType {
    /// Little-endian integer addition; shorter operand zero-extended.
    Add,
    /// Bitwise AND.
    BitAnd,
    /// Bitwise OR.
    BitOr,
    /// Bitwise XOR.
    BitXor,
    /// Unsigned little-endian max.
    Max,
    /// Unsigned little-endian min.
    Min,
    /// Lexicographic byte-wise min (used by MIN_EVER index on tuples).
    ByteMin,
    /// Lexicographic byte-wise max (used by MAX_EVER index on tuples).
    ByteMax,
    /// Append `param` to the existing value if the result fits in the value
    /// size limit; otherwise the mutation is ignored.
    AppendIfFits,
    /// Clear the key if the existing value equals `param`.
    CompareAndClear,
    /// Replace the 10-byte placeholder inside the *key* (at the offset given
    /// by the trailing 4-byte little-endian suffix of the key) with the
    /// commit versionstamp, then set the key to `param`.
    SetVersionstampedKey,
    /// Replace the 10-byte placeholder inside the *value* (at the offset
    /// given by the trailing 4-byte little-endian suffix of the param) with
    /// the commit versionstamp.
    SetVersionstampedValue,
}

/// The widest ADD operand, in bytes: the sum is taken in a `u128`.
pub(crate) const ADD_WIDTH_LIMIT: usize = 16;

/// Pad or truncate `v` to length `n` (zero-extension on the right, i.e. in
/// the little-endian high bytes).
fn resize_le(v: &[u8], n: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(n);
    out.extend_from_slice(&v[..v.len().min(n)]);
    out.resize(n, 0);
    out
}

/// `value` becomes ADD, BIT_AND, BIT_OR or BIT_XOR (`op`) of itself and
/// `param`, which is as wide: the in-place step of those four ops. [`apply`]
/// takes it after sizing the current value to the operand's width; a
/// transaction takes it to fold a second operand into a buffered one.
pub(crate) fn combine(op: MutationType, value: &mut [u8], param: &[u8]) -> Result<()> {
    debug_assert_eq!(value.len(), param.len(), "combine takes equal widths");
    match op {
        MutationType::Add => {
            let n = param.len();
            if n > ADD_WIDTH_LIMIT {
                return Err(Error::InvalidMutation(format!(
                    "ADD operand too wide: {n} bytes"
                )));
            }
            let mut a = [0u8; ADD_WIDTH_LIMIT];
            a[..n].copy_from_slice(value);
            let mut b = [0u8; ADD_WIDTH_LIMIT];
            b[..n].copy_from_slice(param);
            let sum = u128::from_le_bytes(a).wrapping_add(u128::from_le_bytes(b));
            value.copy_from_slice(&sum.to_le_bytes()[..n]);
        }
        MutationType::BitAnd => value.iter_mut().zip(param).for_each(|(v, p)| *v &= p),
        MutationType::BitOr => value.iter_mut().zip(param).for_each(|(v, p)| *v |= p),
        MutationType::BitXor => value.iter_mut().zip(param).for_each(|(v, p)| *v ^= p),
        _ => unreachable!("combine takes ADD and the BIT_* ops"),
    }
    Ok(())
}

/// Apply a (non-versionstamp) atomic operation to the current value of a
/// key, producing the new value. `None` as a result means the key is
/// cleared.
///
/// FoundationDB semantics: a missing current value is treated as an empty
/// byte string (for ADD, effectively zero of the operand's width).
pub fn apply(op: MutationType, current: Option<&[u8]>, param: &[u8]) -> Result<Option<Vec<u8>>> {
    match op {
        MutationType::Add | MutationType::BitAnd | MutationType::BitOr | MutationType::BitXor => {
            let mut value = resize_le(current.unwrap_or_default(), param.len());
            combine(op, &mut value, param)?;
            Ok(Some(value))
        }
        MutationType::Max => {
            let n = param.len().max(current.map_or(0, <[u8]>::len));
            let cur = resize_le(current.unwrap_or(&[]), n);
            let par = resize_le(param, n);
            // Unsigned little-endian comparison: compare from most
            // significant (last) byte down.
            let cur_ge = cur.iter().rev().cmp(par.iter().rev()) != std::cmp::Ordering::Less;
            Ok(Some(if cur_ge { cur } else { par }))
        }
        MutationType::Min => {
            if current.is_none() {
                // FDB: MIN with no existing value stores the param.
                return Ok(Some(param.to_vec()));
            }
            let n = param.len().max(current.map_or(0, <[u8]>::len));
            let cur = resize_le(current.unwrap_or(&[]), n);
            let par = resize_le(param, n);
            let cur_le = cur.iter().rev().cmp(par.iter().rev()) != std::cmp::Ordering::Greater;
            Ok(Some(if cur_le { cur } else { par }))
        }
        MutationType::ByteMin => Ok(Some(match current {
            None => param.to_vec(),
            Some(cur) => {
                if cur <= param {
                    cur.to_vec()
                } else {
                    param.to_vec()
                }
            }
        })),
        MutationType::ByteMax => Ok(Some(match current {
            None => param.to_vec(),
            Some(cur) => {
                if cur >= param {
                    cur.to_vec()
                } else {
                    param.to_vec()
                }
            }
        })),
        MutationType::AppendIfFits => {
            let mut out = current.unwrap_or(&[]).to_vec();
            if out.len() + param.len() <= crate::options::VALUE_SIZE_LIMIT {
                out.extend_from_slice(param);
            }
            Ok(Some(out))
        }
        MutationType::CompareAndClear => {
            if current == Some(param) {
                Ok(None)
            } else {
                Ok(current.map(<[u8]>::to_vec))
            }
        }
        MutationType::SetVersionstampedKey | MutationType::SetVersionstampedValue => Err(
            Error::InvalidMutation("versionstamp mutations are resolved at commit".into()),
        ),
    }
}

/// Split a versionstamp-mutation operand into `(payload, offset)`: the FDB
/// API appends a 4-byte little-endian offset to the end of the key (for
/// `SetVersionstampedKey`) or value (for `SetVersionstampedValue`)
/// indicating where the 10-byte placeholder begins.
pub fn split_versionstamp_operand<'d>(data: impl Into<Cow<'d, [u8]>>) -> Result<(Vec<u8>, usize)> {
    let data = data.into();
    if data.len() < 4 {
        return Err(Error::InvalidMutation(
            "versionstamp operand shorter than 4-byte offset suffix".into(),
        ));
    }
    let (payload, suffix) = data.split_at(data.len() - 4);
    let offset = u32::from_le_bytes(suffix.try_into().unwrap()) as usize;
    if offset + TR_VERSION_LEN > payload.len() {
        return Err(Error::InvalidMutation(format!(
            "versionstamp offset {offset} out of range for payload of {} bytes",
            payload.len()
        )));
    }
    let mut payload = data.into_owned();
    payload.truncate(payload.len() - 4);
    Ok((payload, offset))
}

/// Fill the 10 transaction-version bytes into `payload` at `offset`.
pub fn fill_versionstamp(payload: &mut [u8], offset: usize, tr_version: &[u8]) {
    payload[offset..offset + TR_VERSION_LEN].copy_from_slice(tr_version);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn le(v: u64, n: usize) -> Vec<u8> {
        v.to_le_bytes()[..n].to_vec()
    }

    #[test]
    fn add_basic() {
        let out = apply(MutationType::Add, Some(&le(5, 8)), &le(3, 8)).unwrap();
        assert_eq!(out.unwrap(), le(8, 8));
    }

    #[test]
    fn add_missing_value_is_zero() {
        let out = apply(MutationType::Add, None, &le(7, 8)).unwrap();
        assert_eq!(out.unwrap(), le(7, 8));
    }

    #[test]
    fn add_wraps() {
        let out = apply(MutationType::Add, Some(&[0xFF]), &[0x01]).unwrap();
        assert_eq!(out.unwrap(), vec![0x00]);
    }

    #[test]
    fn add_negative_via_twos_complement() {
        // -1 as 8-byte two's complement decrements the counter.
        let minus_one = (-1i64).to_le_bytes();
        let out = apply(MutationType::Add, Some(&le(5, 8)), &minus_one).unwrap();
        assert_eq!(out.unwrap(), le(4, 8));
    }

    #[test]
    fn add_operand_width_controls_result_width() {
        let out = apply(MutationType::Add, Some(&le(300, 8)), &le(1, 2)).unwrap();
        assert_eq!(out.unwrap(), le(301, 2)[..2].to_vec());
    }

    #[test]
    fn bit_ops() {
        assert_eq!(
            apply(MutationType::BitAnd, Some(&[0b1100]), &[0b1010])
                .unwrap()
                .unwrap(),
            vec![0b1000]
        );
        assert_eq!(
            apply(MutationType::BitOr, Some(&[0b1100]), &[0b1010])
                .unwrap()
                .unwrap(),
            vec![0b1110]
        );
        assert_eq!(
            apply(MutationType::BitXor, Some(&[0b1100]), &[0b1010])
                .unwrap()
                .unwrap(),
            vec![0b0110]
        );
    }

    #[test]
    fn min_max_unsigned_le() {
        assert_eq!(
            apply(MutationType::Max, Some(&le(5, 8)), &le(9, 8))
                .unwrap()
                .unwrap(),
            le(9, 8)
        );
        assert_eq!(
            apply(MutationType::Max, Some(&le(9, 8)), &le(5, 8))
                .unwrap()
                .unwrap(),
            le(9, 8)
        );
        assert_eq!(
            apply(MutationType::Min, Some(&le(5, 8)), &le(9, 8))
                .unwrap()
                .unwrap(),
            le(5, 8)
        );
        // Min with absent value stores the operand rather than zero.
        assert_eq!(
            apply(MutationType::Min, None, &le(9, 8)).unwrap().unwrap(),
            le(9, 8)
        );
    }

    #[test]
    fn byte_min_max_lexicographic() {
        assert_eq!(
            apply(MutationType::ByteMin, Some(b"banana"), b"apple")
                .unwrap()
                .unwrap(),
            b"apple".to_vec()
        );
        assert_eq!(
            apply(MutationType::ByteMax, Some(b"banana"), b"apple")
                .unwrap()
                .unwrap(),
            b"banana".to_vec()
        );
        assert_eq!(
            apply(MutationType::ByteMax, None, b"x").unwrap().unwrap(),
            b"x".to_vec()
        );
    }

    #[test]
    fn compare_and_clear() {
        assert_eq!(
            apply(MutationType::CompareAndClear, Some(b"v"), b"v").unwrap(),
            None
        );
        assert_eq!(
            apply(MutationType::CompareAndClear, Some(b"v"), b"w").unwrap(),
            Some(b"v".to_vec())
        );
        assert_eq!(
            apply(MutationType::CompareAndClear, None, b"v").unwrap(),
            None
        );
    }

    #[test]
    fn append_if_fits() {
        assert_eq!(
            apply(MutationType::AppendIfFits, Some(b"ab"), b"cd")
                .unwrap()
                .unwrap(),
            b"abcd".to_vec()
        );
    }

    #[test]
    fn versionstamp_operand_split() {
        let mut data = b"key-\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff-tail".to_vec();
        data.extend_from_slice(&4u32.to_le_bytes());
        let (payload, offset) = split_versionstamp_operand(&data).unwrap();
        assert_eq!(offset, 4);
        assert_eq!(&payload[..4], b"key-");
        let mut p = payload;
        fill_versionstamp(&mut p, offset, &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(&p[4..14], &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
    }

    #[test]
    fn versionstamp_operand_rejects_bad_offset() {
        let mut data = b"short".to_vec();
        data.extend_from_slice(&3u32.to_le_bytes());
        assert!(split_versionstamp_operand(&data).is_err());
    }
}
