//! Pluggable record serialization (§4): "The Record Layer supports
//! pluggable serialization libraries, including optional compression and
//! encryption of stored records."
//!
//! A [`RecordSerializer`] turns a message's wire bytes into the stored
//! representation and back. Transforms compose: the provided
//! [`CompressingSerializer`] and [`XorCipherSerializer`] wrap any inner
//! serializer. Stored bytes are tagged with a one-byte format marker so a
//! store can be read back even if the configured chain changed order.

use std::borrow::Cow;

use crate::error::{Error, Result};

/// Serialize/deserialize the raw protobuf bytes of a record.
pub trait RecordSerializer: Send + Sync {
    /// A short name recorded in diagnostics.
    fn name(&self) -> &str;
    /// Turn the record bytes into their stored form. They come by value,
    /// so a transform that leaves them in place returns the same buffer.
    fn serialize(&self, record_bytes: Vec<u8>) -> Result<Vec<u8>>;
    /// Undo `serialize`. A transform that leaves the record bytes in place
    /// inside `stored` lends them back; the fetch path decodes from there.
    fn deserialize<'a>(&self, stored: &'a [u8]) -> Result<Cow<'a, [u8]>>;
}

/// Identity serialization: stores the message bytes as-is.
#[derive(Debug, Default, Clone)]
pub struct PlainSerializer;

impl RecordSerializer for PlainSerializer {
    fn name(&self) -> &str {
        "plain"
    }

    fn serialize(&self, mut record_bytes: Vec<u8>) -> Result<Vec<u8>> {
        record_bytes.insert(0, b'P');
        Ok(record_bytes)
    }

    fn deserialize<'a>(&self, stored: &'a [u8]) -> Result<Cow<'a, [u8]>> {
        match stored.split_first() {
            Some((b'P', rest)) => Ok(Cow::Borrowed(rest)),
            _ => Err(Error::Serialization("not plain-serialized bytes".into())),
        }
    }
}

/// Run-length compression. Deliberately simple — the point is the
/// *pluggability* of the transform (real deployments plug in zlib etc.),
/// and RLE is effective on the padded/sparse test payloads used in the
/// experiments. Falls back to a stored-raw marker when RLE would inflate.
#[derive(Debug, Clone)]
pub struct CompressingSerializer<S> {
    inner: S,
}

impl<S: RecordSerializer> CompressingSerializer<S> {
    pub fn new(inner: S) -> Self {
        CompressingSerializer { inner }
    }
}

fn rle_compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < data.len() {
        let b = data[i];
        let mut run = 1usize;
        while i + run < data.len() && data[i + run] == b && run < 255 {
            run += 1;
        }
        out.push(run as u8);
        out.push(b);
        i += run;
    }
    out
}

fn rle_decompress(data: &[u8]) -> Result<Vec<u8>> {
    if !data.len().is_multiple_of(2) {
        return Err(Error::Serialization("corrupt RLE stream".into()));
    }
    let mut out = Vec::new();
    for pair in data.chunks(2) {
        out.extend(std::iter::repeat_n(pair[1], pair[0] as usize));
    }
    Ok(out)
}

impl<S: RecordSerializer> RecordSerializer for CompressingSerializer<S> {
    fn name(&self) -> &str {
        "compressing"
    }

    fn serialize(&self, record_bytes: Vec<u8>) -> Result<Vec<u8>> {
        let inner = self.inner.serialize(record_bytes)?;
        let compressed = rle_compress(&inner);
        let mut out = Vec::with_capacity(compressed.len().min(inner.len()) + 1);
        if compressed.len() < inner.len() {
            out.push(b'C');
            out.extend_from_slice(&compressed);
        } else {
            out.push(b'R'); // raw: compression would inflate
            out.extend_from_slice(&inner);
        }
        Ok(out)
    }

    fn deserialize<'a>(&self, stored: &'a [u8]) -> Result<Cow<'a, [u8]>> {
        match stored.split_first() {
            Some((b'C', rest)) => {
                let inner = rle_decompress(rest)?;
                Ok(Cow::Owned(self.inner.deserialize(&inner)?.into_owned()))
            }
            Some((b'R', rest)) => self.inner.deserialize(rest),
            _ => Err(Error::Serialization("not compressed bytes".into())),
        }
    }
}

/// A toy symmetric cipher (repeating-key XOR) standing in for client-
/// defined encryption. Demonstrates the transform extension point; do not
/// mistake it for cryptography.
#[derive(Debug, Clone)]
pub struct XorCipherSerializer<S> {
    inner: S,
    key: Vec<u8>,
}

impl<S: RecordSerializer> XorCipherSerializer<S> {
    pub fn new(inner: S, key: Vec<u8>) -> Self {
        assert!(!key.is_empty(), "cipher key must be non-empty");
        XorCipherSerializer { inner, key }
    }

    fn apply(&self, data: &[u8]) -> Vec<u8> {
        data.iter()
            .zip(self.key.iter().cycle())
            .map(|(b, k)| b ^ k)
            .collect()
    }
}

impl<S: RecordSerializer> RecordSerializer for XorCipherSerializer<S> {
    fn name(&self) -> &str {
        "xor-cipher"
    }

    fn serialize(&self, record_bytes: Vec<u8>) -> Result<Vec<u8>> {
        let inner = self.inner.serialize(record_bytes)?;
        let mut out = Vec::with_capacity(inner.len() + 1);
        out.push(b'X');
        out.extend(self.apply(&inner));
        Ok(out)
    }

    fn deserialize<'a>(&self, stored: &'a [u8]) -> Result<Cow<'a, [u8]>> {
        match stored.split_first() {
            Some((b'X', rest)) => {
                let inner = self.apply(rest);
                Ok(Cow::Owned(self.inner.deserialize(&inner)?.into_owned()))
            }
            _ => Err(Error::Serialization("not cipher bytes".into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<S: RecordSerializer>(s: &S, data: &[u8]) {
        let stored = s.serialize(data.to_vec()).unwrap();
        let back = s.deserialize(&stored).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn plain_roundtrip() {
        roundtrip(&PlainSerializer, b"hello");
        roundtrip(&PlainSerializer, b"");
    }

    #[test]
    fn compression_roundtrip_and_saves_space_on_runs() {
        let s = CompressingSerializer::new(PlainSerializer);
        let runs = vec![0u8; 1000];
        roundtrip(&s, &runs);
        let stored = s.serialize(runs).unwrap();
        assert!(
            stored.len() < 100,
            "RLE should compress runs: {}",
            stored.len()
        );
    }

    #[test]
    fn compression_falls_back_on_incompressible() {
        let s = CompressingSerializer::new(PlainSerializer);
        let noisy: Vec<u8> = (0..=255u8).cycle().take(512).collect();
        roundtrip(&s, &noisy);
        let stored = s.serialize(noisy.clone()).unwrap();
        assert!(stored.len() <= noisy.len() + 2);
    }

    #[test]
    fn cipher_roundtrip_and_obscures() {
        let s = XorCipherSerializer::new(PlainSerializer, b"key!".to_vec());
        let data = b"sensitive payload";
        roundtrip(&s, data);
        let stored = s.serialize(data.to_vec()).unwrap();
        assert!(!stored.windows(data.len()).any(|w| w == data.as_slice()));
    }

    #[test]
    fn transforms_compose() {
        let s =
            XorCipherSerializer::new(CompressingSerializer::new(PlainSerializer), b"k".to_vec());
        roundtrip(&s, &vec![7u8; 300]);
    }

    #[test]
    fn wrong_format_detected() {
        let plain = PlainSerializer.serialize(b"x".to_vec()).unwrap();
        assert!(XorCipherSerializer::new(PlainSerializer, b"k".to_vec())
            .deserialize(&plain)
            .is_err());
        assert!(CompressingSerializer::new(PlainSerializer)
            .deserialize(&plain)
            .is_err());
    }
}
