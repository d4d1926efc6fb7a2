//! The byte-level encoding shared by the page format (`btree`), the
//! write-ahead log (`wal`) and the garbage log (`garbage`): a
//! bounds-checked reader, unsigned LEB128 varints, and the length of the
//! prefix two byte strings share. It knows bytes only; each user says what
//! a failure means (a damaged page, a torn frame, a bug).

/// A decoding failure: what was wrong with the bytes.
pub(crate) type Result<T> = std::result::Result<T, &'static str>;

/// A read position in a byte buffer that never reads past its end.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8], pos: usize) -> Self {
        Reader { buf, pos }
    }

    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    #[inline]
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let rest = self.buf.get(self.pos..).unwrap_or_default();
        let bytes = rest.get(..n).ok_or("truncated")?;
        self.pos += n;
        Ok(bytes)
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// An unsigned LEB128 varint of at most 5 bytes that fits a `u32`.
    #[inline]
    pub(crate) fn varint32(&mut self) -> Result<u32> {
        u32::try_from(self.varint(5)?).map_err(|_| "varint over 32 bits")
    }

    /// An unsigned LEB128 varint of at most 10 bytes.
    pub(crate) fn varint64(&mut self) -> Result<u64> {
        self.varint(10)
    }

    #[inline]
    fn varint(&mut self, max_len: u32) -> Result<u64> {
        let mut value = 0u64;
        for shift in (0..7 * max_len).step_by(7) {
            let byte = self.take(1)?[0];
            let bits = u64::from(byte & 0x7F);
            if bits.leading_zeros() < shift {
                return Err("varint over 64 bits");
            }
            value |= bits << shift;
            if byte < 0x80 {
                return Ok(value);
            }
        }
        Err("varint too long")
    }
}

/// Append `n` as an unsigned LEB128 varint.
pub(crate) fn put_varint(out: &mut Vec<u8>, mut n: u64) {
    while n >= 0x80 {
        out.push(n as u8 | 0x80);
        n >>= 7;
    }
    out.push(n as u8);
}

/// Bytes [`put_varint`] writes for `n`.
pub(crate) fn varint_len(n: u64) -> usize {
    (u64::BITS - n.leading_zeros()).max(1).div_ceil(7) as usize
}

/// How many leading bytes `a` and `b` share.
pub(crate) fn common_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_round_trip_and_stop_at_five_bytes() {
        // Both sides of every 7-bit boundary, up to u64::MAX.
        let mut values = vec![0, u64::MAX];
        for bits in (7..64).step_by(7) {
            values.extend([(1 << bits) - 1, 1 << bits]);
        }
        for n in values {
            let mut out = Vec::new();
            put_varint(&mut out, n);
            assert_eq!(out.len(), varint_len(n), "{n}");
            let mut r = Reader::new(&out, 0);
            assert_eq!(r.varint64(), Ok(n));
            assert!(r.is_empty());
            let narrow = Reader::new(&out, 0).varint32();
            assert_eq!(narrow.ok(), u32::try_from(n).ok(), "{n}");
            // Every cut of it is damage.
            for cut in 0..out.len() {
                assert!(Reader::new(&out[..cut], 0).varint64().is_err(), "{n} {cut}");
                assert!(Reader::new(&out[..cut], 0).varint32().is_err(), "{n} {cut}");
            }
        }
        let mut widest = Vec::new();
        put_varint(&mut widest, u64::MAX);
        assert_eq!(widest.len(), 10);
        // A sixth byte, a value past 32 bits: damage to a u32 varint.
        let sixth = [0x80, 0x80, 0x80, 0x80, 0x80, 0x01];
        assert!(Reader::new(&sixth, 0).varint32().is_err());
        assert_eq!(Reader::new(&sixth, 0).varint64(), Ok(1 << 35));
        assert!(Reader::new(&[0xFF; 5], 0).varint32().is_err());
        // An eleventh byte, a value past 64 bits: damage to a u64 varint.
        let eleventh = [&[0x80; 10][..], &[0x01]].concat();
        assert!(Reader::new(&eleventh, 0).varint64().is_err());
        let past_64 = [&[0xFF; 9][..], &[0x02]].concat();
        assert!(Reader::new(&past_64, 0).varint64().is_err());
    }
}
