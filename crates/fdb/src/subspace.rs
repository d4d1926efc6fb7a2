//! Subspaces: a fixed key prefix under which tuples are packed.
//!
//! The record store abstraction (§3–4) assigns each store a contiguous
//! range of keys; a `Subspace` is exactly that contiguous range, with
//! helpers to pack/unpack tuples relative to the prefix.

use crate::error::{Error, Result};
use crate::tuple::{Tuple, TupleElement, TupleReader};

/// A prefix-delimited region of the global keyspace.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Subspace {
    prefix: Vec<u8>,
}

impl Subspace {
    /// A subspace rooted at a raw binary prefix.
    pub fn from_bytes(prefix: impl Into<Vec<u8>>) -> Self {
        Subspace {
            prefix: prefix.into(),
        }
    }

    /// A subspace whose prefix is the packed form of `tuple`.
    pub fn from_tuple(tuple: &Tuple) -> Self {
        Subspace {
            prefix: tuple.pack(),
        }
    }

    /// The empty (root) subspace.
    pub fn root() -> Self {
        Subspace { prefix: Vec::new() }
    }

    pub fn prefix(&self) -> &[u8] {
        &self.prefix
    }

    /// A child subspace: this prefix extended by the packed `tuple`.
    pub fn subspace(&self, tuple: &Tuple) -> Subspace {
        Subspace {
            prefix: self.pack(tuple),
        }
    }

    /// Shorthand for a child keyed by a single element.
    pub fn child(&self, el: impl Into<TupleElement>) -> Subspace {
        let mut prefix = self.key_buffer();
        el.into().pack_into(&mut prefix);
        Subspace { prefix }
    }

    /// Pack a tuple inside this subspace.
    pub fn pack(&self, tuple: &Tuple) -> Vec<u8> {
        let mut out = self.key_buffer();
        tuple.pack_into(&mut out);
        out
    }

    /// The prefix, in a buffer with room for the few short elements most
    /// keys add after it (a longer key grows the buffer as any `Vec`).
    fn key_buffer(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.prefix.len() + 24);
        out.extend_from_slice(&self.prefix);
        out
    }

    /// Recover the tuple from a key in this subspace.
    pub fn unpack(&self, key: &[u8]) -> Result<Tuple> {
        Tuple::unpack(self.reader(key)?.remaining())
    }

    /// A reader over the tuple a key in this subspace carries after the
    /// prefix: `unpack` without building the tuple.
    pub fn reader<'k>(&self, key: &'k [u8]) -> Result<TupleReader<'k>> {
        key.strip_prefix(self.prefix.as_slice())
            .map(TupleReader::new)
            .ok_or_else(|| Error::Tuple("key does not start with subspace prefix".into()))
    }

    /// Whether `key` lies inside this subspace.
    pub fn contains(&self, key: &[u8]) -> bool {
        key.starts_with(&self.prefix)
    }

    /// The half-open range of every key in this subspace (prefix itself
    /// excluded — FDB convention `(prefix+0x00, prefix+0xFF)`).
    pub fn range(&self) -> (Vec<u8>, Vec<u8>) {
        let bound = |last: u8| {
            let mut key = Vec::with_capacity(self.prefix.len() + 1);
            key.extend_from_slice(&self.prefix);
            key.push(last);
            key
        };
        (bound(0x00), bound(0xFF))
    }

    /// The half-open range of *all* keys with this prefix, including the
    /// bare prefix key itself: `[prefix, strinc(prefix))`.
    pub fn range_inclusive(&self) -> (Vec<u8>, Vec<u8>) {
        let end = crate::strinc(&self.prefix).unwrap_or_else(|| vec![0xFF; self.prefix.len() + 1]);
        (self.prefix.clone(), end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        let ss = Subspace::from_tuple(&Tuple::from(("app", 7i64)));
        let t = Tuple::from(("rec", 42i64));
        let key = ss.pack(&t);
        assert!(ss.contains(&key));
        assert_eq!(ss.unpack(&key).unwrap(), t);
    }

    #[test]
    fn unpack_foreign_key_fails() {
        let ss = Subspace::from_bytes(b"AAA".to_vec());
        assert!(ss.unpack(b"BBBkey").is_err());
    }

    #[test]
    fn nested_subspaces_nest_prefixes() {
        let parent = Subspace::from_bytes(b"P".to_vec());
        let childspace = parent.child(1i64);
        assert!(childspace.prefix().starts_with(parent.prefix()));
        let key = childspace.pack(&Tuple::from(("x",)));
        assert!(parent.contains(&key));
        assert!(childspace.contains(&key));
    }

    #[test]
    fn disjoint_children_do_not_overlap() {
        let parent = Subspace::from_bytes(b"P".to_vec());
        let a = parent.child(1i64);
        let b = parent.child(2i64);
        let key_a = a.pack(&Tuple::from(("k",)));
        assert!(!b.contains(&key_a));
        let (a_begin, a_end) = a.range();
        let (b_begin, _) = b.range();
        assert!(a_begin < a_end);
        assert!(a_end <= b_begin, "sibling ranges must not overlap");
    }

    #[test]
    fn range_excludes_bare_prefix_but_inclusive_includes_it() {
        let ss = Subspace::from_bytes(b"X".to_vec());
        let (begin, end) = ss.range();
        assert!(ss.prefix() < begin.as_slice());
        let (ibegin, iend) = ss.range_inclusive();
        assert_eq!(ibegin, ss.prefix());
        assert!(iend.as_slice() > end.as_slice());
    }
}
