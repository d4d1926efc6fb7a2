//! The protobuf wire format: varints, zigzag encoding, tags, and the four
//! wire types the format defines (varint, 64-bit, length-delimited,
//! 32-bit).

use std::ops::Range;

use crate::{Error, Result};

/// Wire type discriminants.
pub const WIRE_VARINT: u8 = 0;
pub const WIRE_64BIT: u8 = 1;
pub const WIRE_LEN: u8 = 2;
pub const WIRE_32BIT: u8 = 5;

/// Append a base-128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// The number of bytes [`put_varint`] appends for `v`.
pub fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Read a varint, returning `(value, bytes_consumed)`.
#[inline]
pub fn get_varint(data: &[u8]) -> Result<(u64, usize)> {
    let mut v = 0u64;
    let mut shift = 0;
    for (i, &byte) in data.iter().enumerate() {
        if shift >= 64 {
            return Err(Error::Decode("varint too long".into()));
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok((v, i + 1));
        }
        shift += 7;
    }
    Err(Error::Decode("truncated varint".into()))
}

/// Zigzag-encode a signed 64-bit value (sint32/sint64 encoding).
pub fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Zigzag-decode.
pub fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append a field tag.
pub fn put_tag(out: &mut Vec<u8>, field_number: u32, wire_type: u8) {
    put_varint(out, (u64::from(field_number) << 3) | u64::from(wire_type));
}

/// Read a tag, returning `(field_number, wire_type, consumed)`.
pub fn get_tag(data: &[u8]) -> Result<(u32, u8, usize)> {
    let (v, n) = get_varint(data)?;
    let field_number = (v >> 3) as u32;
    let wire_type = (v & 0x7) as u8;
    if field_number == 0 {
        return Err(Error::Decode("field number 0 is reserved".into()));
    }
    Ok((field_number, wire_type, n))
}

/// Append a length-delimited payload.
pub fn put_len_delimited(out: &mut Vec<u8>, payload: &[u8]) {
    put_varint(out, payload.len() as u64);
    out.extend_from_slice(payload);
}

/// Skip a field of `wire_type`, returning the number of bytes consumed
/// (used when preserving unknown fields).
pub fn skip_field(data: &[u8], wire_type: u8) -> Result<usize> {
    field_payload(data, wire_type).map(|(_, consumed)| consumed)
}

/// Where the payload of a field of `wire_type` lies in `data` (which
/// begins after the tag), and the number of bytes the field takes: a
/// varint's bytes, a fixed field's 8 or 4, a length-delimited field's
/// bytes after the length.
#[inline]
pub fn field_payload(data: &[u8], wire_type: u8) -> Result<(Range<usize>, usize)> {
    let fixed = |width: usize, what: &str| match data.len() >= width {
        true => Ok((0..width, width)),
        false => Err(Error::Decode(format!("truncated {what} field"))),
    };
    match wire_type {
        WIRE_VARINT => {
            let (_, n) = get_varint(data)?;
            Ok((0..n, n))
        }
        WIRE_64BIT => fixed(8, "64-bit"),
        WIRE_LEN => {
            let (len, n) = get_varint(data)?;
            let end = usize::try_from(len)
                .ok()
                .and_then(|len| n.checked_add(len))
                .filter(|&end| end <= data.len())
                .ok_or_else(|| Error::Decode("truncated length-delimited field".into()))?;
            Ok((n..end, end))
        }
        WIRE_32BIT => fixed(4, "32-bit"),
        other => Err(Error::Decode(format!("unsupported wire type {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let (back, n) = get_varint(&buf).unwrap();
            assert_eq!(back, v);
            assert_eq!(n, buf.len());
        }
    }

    #[test]
    fn varint_canonical_sizes() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 1);
        assert_eq!(buf.len(), 1);
        buf.clear();
        put_varint(&mut buf, 300);
        assert_eq!(buf, vec![0xAC, 0x02]); // the protobuf docs' example
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        assert!(get_varint(&[0x80]).is_err());
        assert!(get_varint(&[0xFF; 11]).is_err());
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, -1, 1, -2, 2, i64::MIN, i64::MAX, -123456789] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
        // Canonical mappings from the protobuf spec.
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
        assert_eq!(zigzag_encode(-2), 3);
    }

    #[test]
    fn tag_roundtrip() {
        let mut buf = Vec::new();
        put_tag(&mut buf, 150, WIRE_LEN);
        let (num, wt, _) = get_tag(&buf).unwrap();
        assert_eq!(num, 150);
        assert_eq!(wt, WIRE_LEN);
    }

    #[test]
    fn tag_field_zero_rejected() {
        let mut buf = Vec::new();
        // Field number 0, wire type VARINT — the tag value is just 0.
        put_varint(&mut buf, 0);
        assert!(get_tag(&buf).is_err());
    }

    #[test]
    fn skip_all_wire_types() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 12345);
        assert_eq!(skip_field(&buf, WIRE_VARINT).unwrap(), buf.len());
        assert_eq!(skip_field(&[0u8; 8], WIRE_64BIT).unwrap(), 8);
        assert_eq!(skip_field(&[0u8; 4], WIRE_32BIT).unwrap(), 4);
        let mut buf = Vec::new();
        put_len_delimited(&mut buf, b"abc");
        assert_eq!(skip_field(&buf, WIRE_LEN).unwrap(), buf.len());
        assert!(skip_field(&[0u8; 3], WIRE_64BIT).is_err());
        assert!(skip_field(&[], WIRE_VARINT).is_err());
        assert!(skip_field(&[1], 7).is_err());
    }
}
