//! The tuple layer: an order-preserving encoding of typed tuples into
//! binary keys (§2 of the paper).
//!
//! The binary ordering of packed tuples equals the natural ordering of the
//! tuples themselves: element-wise, with a cross-type order defined by the
//! type codes (Null < Bytes < String < Nested < Int < Float < Double <
//! False < True < Uuid < Versionstamp). A common tuple prefix packs to a
//! common byte prefix, which is what makes prefix-organized subspaces work.
//!
//! The encoding follows the FoundationDB tuple specification for the types
//! the Record Layer uses.

use std::borrow::Cow;
use std::ops::Range;

use crate::error::{Error, Result};
use crate::version::{Versionstamp, VERSIONSTAMP_LEN};

const NULL_CODE: u8 = 0x00;
const BYTES_CODE: u8 = 0x01;
const STRING_CODE: u8 = 0x02;
const NESTED_CODE: u8 = 0x05;
const INT_ZERO_CODE: u8 = 0x14;
const FLOAT_CODE: u8 = 0x20;
const DOUBLE_CODE: u8 = 0x21;
const FALSE_CODE: u8 = 0x26;
const TRUE_CODE: u8 = 0x27;
const UUID_CODE: u8 = 0x30;
const VERSIONSTAMP_CODE: u8 = 0x33;

/// One element of a tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum TupleElement {
    Null,
    Bytes(Vec<u8>),
    String(String),
    Int(i64),
    Float(f32),
    Double(f64),
    Bool(bool),
    Uuid([u8; 16]),
    Versionstamp(Versionstamp),
    Tuple(Tuple),
}

impl TupleElement {
    /// Append this element's packed encoding (as a top-level element of
    /// a tuple) to `out`.
    pub fn pack_into(&self, out: &mut Vec<u8>) {
        encode_element(self, out, &mut None);
    }

    /// The number of bytes [`pack_into`](Self::pack_into) appends.
    pub fn packed_len(&self) -> usize {
        match self {
            TupleElement::Null | TupleElement::Bool(_) => 1,
            TupleElement::Bytes(b) => escaped_len(b) + 2,
            TupleElement::String(s) => escaped_len(s.as_bytes()) + 2,
            TupleElement::Tuple(t) => {
                let inner = t.elements.iter().map(|inner| match inner {
                    TupleElement::Null => 2,
                    other => other.packed_len(),
                });
                inner.sum::<usize>() + 2
            }
            TupleElement::Int(i) => 1 + int_width(*i),
            TupleElement::Float(_) => 5,
            TupleElement::Double(_) => 9,
            TupleElement::Uuid(u) => 1 + u.len(),
            TupleElement::Versionstamp(_) => 1 + VERSIONSTAMP_LEN,
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            TupleElement::Int(i) => Some(*i),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            TupleElement::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            TupleElement::Bytes(b) => Some(b),
            _ => None,
        }
    }

    pub fn as_tuple(&self) -> Option<&Tuple> {
        match self {
            TupleElement::Tuple(t) => Some(t),
            _ => None,
        }
    }

    pub fn as_versionstamp(&self) -> Option<&Versionstamp> {
        match self {
            TupleElement::Versionstamp(v) => Some(v),
            _ => None,
        }
    }
}

impl Eq for TupleElement {}

impl Ord for TupleElement {
    /// Semantic order, guaranteed identical to the byte order of the packed
    /// encodings (verified by property tests).
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let mut a = Vec::new();
        let mut b = Vec::new();
        encode_element(self, &mut a, &mut None);
        encode_element(other, &mut b, &mut None);
        a.cmp(&b)
    }
}

impl PartialOrd for TupleElement {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

macro_rules! from_impl {
    ($t:ty, $variant:ident $(, $via:ty)?) => {
        impl From<$t> for TupleElement {
            fn from(v: $t) -> Self {
                TupleElement::$variant(v $(as $via)?)
            }
        }
    };
}

from_impl!(i64, Int);
from_impl!(i32, Int, i64);
from_impl!(i16, Int, i64);
from_impl!(u32, Int, i64);
from_impl!(u16, Int, i64);
from_impl!(f32, Float);
from_impl!(f64, Double);
from_impl!(bool, Bool);
from_impl!(String, String);
from_impl!(Vec<u8>, Bytes);

impl From<&str> for TupleElement {
    fn from(v: &str) -> Self {
        TupleElement::String(v.to_string())
    }
}

impl From<&[u8]> for TupleElement {
    fn from(v: &[u8]) -> Self {
        TupleElement::Bytes(v.to_vec())
    }
}

impl From<Versionstamp> for TupleElement {
    fn from(v: Versionstamp) -> Self {
        TupleElement::Versionstamp(v)
    }
}

impl From<Tuple> for TupleElement {
    fn from(v: Tuple) -> Self {
        TupleElement::Tuple(v)
    }
}

/// An ordered sequence of typed elements with an order-preserving binary
/// encoding.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Tuple {
    elements: Vec<TupleElement>,
}

impl Tuple {
    pub fn new() -> Self {
        Tuple {
            elements: Vec::new(),
        }
    }

    pub fn from_elements(elements: Vec<TupleElement>) -> Self {
        Tuple { elements }
    }

    /// An empty tuple with room for `n` elements.
    pub fn with_capacity(n: usize) -> Self {
        Tuple {
            elements: Vec::with_capacity(n),
        }
    }

    /// Append an element (builder style).
    pub fn push(mut self, el: impl Into<TupleElement>) -> Self {
        self.elements.push(el.into());
        self
    }

    /// Append in place.
    pub fn add(&mut self, el: impl Into<TupleElement>) {
        self.elements.push(el.into());
    }

    /// Concatenate another tuple's elements after this one's.
    pub fn concat(mut self, other: &Tuple) -> Self {
        self.elements.extend(other.elements.iter().cloned());
        self
    }

    /// Move `other`'s elements after this one's.
    pub fn append(&mut self, other: Tuple) {
        self.elements.extend(other.elements);
    }

    pub fn elements(&self) -> &[TupleElement] {
        &self.elements
    }

    pub fn len(&self) -> usize {
        self.elements.len()
    }

    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    pub fn get(&self, i: usize) -> Option<&TupleElement> {
        self.elements.get(i)
    }

    /// The first `n` elements as a new tuple.
    pub fn prefix(&self, n: usize) -> Tuple {
        Tuple {
            elements: self.elements[..n.min(self.elements.len())].to_vec(),
        }
    }

    /// Elements from `n` onward as a new tuple.
    pub fn suffix(&self, n: usize) -> Tuple {
        Tuple {
            elements: self.elements[n.min(self.elements.len())..].to_vec(),
        }
    }

    /// Whether `self` is an element-wise prefix of `other`.
    pub fn is_prefix_of(&self, other: &Tuple) -> bool {
        self.len() <= other.len() && self.elements == other.elements[..self.len()]
    }

    /// Split off the elements from `at` onward (clamped to the length)
    /// as a new tuple, keeping the first `at` in `self`: `prefix` and
    /// `suffix` in one step and by move.
    pub fn split_off(&mut self, at: usize) -> Tuple {
        Tuple {
            elements: self.elements.split_off(at.min(self.elements.len())),
        }
    }

    /// Pack into the order-preserving binary encoding, in one buffer of
    /// its final size.
    pub fn pack(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(packed_len(&self.elements));
        self.pack_into(&mut out);
        out
    }

    /// Append the packed encoding to `out` (a key under construction).
    pub fn pack_into(&self, out: &mut Vec<u8>) {
        pack_elements_into(&self.elements, out);
    }

    /// Decode a packed tuple: every element [`TupleReader`] yields, owned.
    pub fn unpack(bytes: &[u8]) -> Result<Tuple> {
        let elements = TupleReader::new(bytes)
            .map(|el| el.map(ElementRef::into_owned))
            .collect::<Result<_>>()?;
        Ok(Tuple { elements })
    }

    /// The half-open key range of all packed tuples that strictly extend
    /// this tuple: `(pack() + 0x00, pack() + 0xFF)`.
    pub fn range(&self) -> (Vec<u8>, Vec<u8>) {
        let packed = self.pack();
        let mut begin = packed.clone();
        begin.push(0x00);
        let mut end = packed;
        end.push(0xFF);
        (begin, end)
    }
}

impl Ord for Tuple {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.pack().cmp(&other.pack())
    }
}

impl PartialOrd for Tuple {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl std::hash::Hash for Tuple {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.pack().hash(state);
    }
}

/// Convenience macro-free constructor: `Tuple::from(("a", 1i64))` style is
/// provided for small arities via `From` impls on tuples of convertibles.
macro_rules! tuple_from {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Into<TupleElement>),+> From<($($name,)+)> for Tuple {
            fn from(t: ($($name,)+)) -> Tuple {
                Tuple { elements: vec![$(t.$idx.into()),+] }
            }
        }
    };
}

tuple_from!(A:0);
tuple_from!(A:0, B:1);
tuple_from!(A:0, B:1, C:2);
tuple_from!(A:0, B:1, C:2, D:3);
tuple_from!(A:0, B:1, C:2, D:3, E:4);
tuple_from!(A:0, B:1, C:2, D:3, E:4, F:5);

// ---------------------------------------------------------------- encoding

/// The number of bytes `elements` pack to: what a key built from them
/// reserves, so that it is built in one buffer of its final size.
pub fn packed_len(elements: &[TupleElement]) -> usize {
    elements.iter().map(TupleElement::packed_len).sum()
}

/// Append `elements` packed, as the tail of a tuple, to `out`: what
/// [`Tuple::pack_into`] does for a tuple of them, without building one.
/// Returns the offset in `out` of the (last) incomplete versionstamp among
/// them, where a `SET_VERSIONSTAMPED_KEY` operand needs it.
pub fn pack_elements_into(elements: &[TupleElement], out: &mut Vec<u8>) -> Option<usize> {
    let mut vs_offset = None;
    for el in elements {
        encode_element(el, out, &mut vs_offset);
    }
    vs_offset
}

/// Append `s` packed as a string element to `out`: what packing
/// `TupleElement::String` of it appends, without owning a copy.
pub fn pack_str_into(s: &str, out: &mut Vec<u8>) {
    out.push(STRING_CODE);
    escape_nulls(s.as_bytes(), out);
    out.push(0x00);
}

/// Append `b` packed as a bytes element to `out`: what packing
/// `TupleElement::Bytes` of it appends, without owning a copy.
pub fn pack_bytes_into(b: &[u8], out: &mut Vec<u8>) {
    out.push(BYTES_CODE);
    escape_nulls(b, out);
    out.push(0x00);
}

/// The number of bytes [`pack_str_into`] appends for `s`.
pub fn packed_str_len(s: &str) -> usize {
    escaped_len(s.as_bytes()) + 2
}

/// Pack the bytes `out[at..]` as a bytes element where they lie: `out`
/// ends as it would had `TupleElement::Bytes` of them been packed at `at`,
/// and no second buffer holds them. `out` grows in place, so spare
/// capacity for the type code, the terminator and one byte per NUL keeps
/// it from moving.
pub fn pack_bytes_in_place(out: &mut Vec<u8>, at: usize) {
    let end = out.len();
    let nuls = out[at..].iter().filter(|&&b| b == 0x00).count();
    out.resize(end + 1 + nuls, 0x00);
    // Walk back from the end, so every byte is read before the escapes
    // ahead of it shift something onto its place.
    let mut to = out.len();
    for from in (at..end).rev() {
        let b = out[from];
        if b == 0x00 {
            to -= 1;
            out[to] = 0xFF;
        }
        to -= 1;
        out[to] = b;
    }
    out[at] = BYTES_CODE;
    out.push(0x00);
}

/// Undo [`pack_bytes_in_place`]: unescape the bytes element packed at
/// `buf[at]` where it lies. Returns where its bytes are now and where the
/// element ended, which is where the next element still begins (the
/// unescaped bytes only move toward `at`, and nothing after the element
/// moves); `None` when no bytes element begins at `at`.
pub fn unpack_bytes_in_place(buf: &mut [u8], at: usize) -> Result<Option<(Range<usize>, usize)>> {
    if buf.get(at) != Some(&BYTES_CODE) {
        return Ok(None);
    }
    let (start, mut read, mut write) = (at + 1, at + 1, at + 1);
    loop {
        let nul = buf
            .get(read..)
            .and_then(find_nul)
            .ok_or_else(|| Error::Tuple("unterminated bytes/string".into()))?;
        let escaped = buf.get(read + nul + 1) == Some(&0xFF);
        // An escaped NUL stays (its 0xFF goes); the terminator does not.
        let kept = nul + usize::from(escaped);
        if write < read {
            buf.copy_within(read..read + kept, write);
        }
        write += kept;
        read += nul + 1;
        if !escaped {
            return Ok(Some((start..write, read)));
        }
        read += 1;
    }
}

/// The length of `data` with every NUL escaped.
fn escaped_len(data: &[u8]) -> usize {
    data.len() + data.iter().filter(|&&b| b == 0x00).count()
}

/// The number of bytes after the type code that `encode_int` writes.
fn int_width(i: i64) -> usize {
    let mag = i.unsigned_abs();
    (64 - mag.leading_zeros() as usize).div_ceil(8)
}

fn encode_element(el: &TupleElement, out: &mut Vec<u8>, vs_offset: &mut Option<usize>) {
    match el {
        TupleElement::Null => out.push(NULL_CODE),
        TupleElement::Bytes(b) => {
            out.push(BYTES_CODE);
            escape_nulls(b, out);
            out.push(0x00);
        }
        TupleElement::String(s) => pack_str_into(s, out),
        TupleElement::Tuple(t) => {
            out.push(NESTED_CODE);
            for inner in &t.elements {
                if matches!(inner, TupleElement::Null) {
                    // Null inside a nested tuple is escaped so the
                    // terminator stays unambiguous.
                    out.push(0x00);
                    out.push(0xFF);
                } else {
                    encode_element(inner, out, vs_offset);
                }
            }
            out.push(0x00);
        }
        TupleElement::Int(i) => encode_int(*i, out),
        TupleElement::Float(f) => {
            out.push(FLOAT_CODE);
            let mut bits = f.to_bits();
            if bits >> 31 == 1 {
                bits = !bits; // negative: flip everything
            } else {
                bits ^= 0x8000_0000; // positive: flip sign bit
            }
            out.extend_from_slice(&bits.to_be_bytes());
        }
        TupleElement::Double(d) => {
            out.push(DOUBLE_CODE);
            let mut bits = d.to_bits();
            if bits >> 63 == 1 {
                bits = !bits;
            } else {
                bits ^= 0x8000_0000_0000_0000;
            }
            out.extend_from_slice(&bits.to_be_bytes());
        }
        TupleElement::Bool(b) => out.push(if *b { TRUE_CODE } else { FALSE_CODE }),
        TupleElement::Uuid(u) => {
            out.push(UUID_CODE);
            out.extend_from_slice(u);
        }
        TupleElement::Versionstamp(v) => {
            out.push(VERSIONSTAMP_CODE);
            if !v.is_complete() {
                *vs_offset = Some(out.len());
            }
            out.extend_from_slice(v.as_bytes());
        }
    }
}

fn escape_nulls(data: &[u8], out: &mut Vec<u8>) {
    for &b in data {
        out.push(b);
        if b == 0x00 {
            out.push(0xFF);
        }
    }
}

fn encode_int(i: i64, out: &mut Vec<u8>) {
    if i == 0 {
        out.push(INT_ZERO_CODE);
        return;
    }
    if i > 0 {
        let n = (64 - i.leading_zeros() as usize).div_ceil(8);
        out.push(INT_ZERO_CODE + n as u8);
        out.extend_from_slice(&i.to_be_bytes()[8 - n..]);
    } else {
        // Negative: complement within the minimal byte width so that more
        // negative numbers sort first.
        let mag = if i == i64::MIN {
            u64::MAX / 2 + 1
        } else {
            (-i) as u64
        };
        let n = (64 - mag.leading_zeros() as usize).div_ceil(8);
        let max_v = if n == 8 {
            u64::MAX
        } else {
            (1u64 << (8 * n)) - 1
        };
        let encoded = max_v - mag;
        out.push(INT_ZERO_CODE - n as u8);
        out.extend_from_slice(&encoded.to_be_bytes()[8 - n..]);
    }
}

// ---------------------------------------------------------------- decoding

/// One element as [`TupleReader`] yields it: a [`TupleElement`] whose byte
/// and string payloads are lent from the packed bytes when those hold no
/// escaped NUL (and copied, run by run between the escapes, when they do).
/// A nested tuple arrives decoded.
#[derive(Debug, Clone, PartialEq)]
pub enum ElementRef<'a> {
    Null,
    Bytes(Cow<'a, [u8]>),
    String(Cow<'a, str>),
    Int(i64),
    Float(f32),
    Double(f64),
    Bool(bool),
    Uuid([u8; 16]),
    Versionstamp(Versionstamp),
    Tuple(Tuple),
}

impl ElementRef<'_> {
    pub fn into_owned(self) -> TupleElement {
        match self {
            ElementRef::Null => TupleElement::Null,
            ElementRef::Bytes(b) => TupleElement::Bytes(b.into_owned()),
            ElementRef::String(s) => TupleElement::String(s.into_owned()),
            ElementRef::Int(i) => TupleElement::Int(i),
            ElementRef::Float(f) => TupleElement::Float(f),
            ElementRef::Double(d) => TupleElement::Double(d),
            ElementRef::Bool(b) => TupleElement::Bool(b),
            ElementRef::Uuid(u) => TupleElement::Uuid(u),
            ElementRef::Versionstamp(v) => TupleElement::Versionstamp(v),
            ElementRef::Tuple(t) => TupleElement::Tuple(t),
        }
    }
}

/// The tuple decoder: walks packed bytes one element at a time without
/// building a [`Tuple`], so a caller that wants one integer off the end of
/// a key, or the two halves of a record envelope, allocates for neither.
/// [`Tuple::unpack`] is a collect over it. After an error it yields
/// nothing more.
#[derive(Debug, Clone)]
pub struct TupleReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> TupleReader<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        TupleReader { bytes, pos: 0 }
    }

    /// The packed bytes of the elements not yet read.
    pub fn remaining(&self) -> &'a [u8] {
        &self.bytes[self.pos..]
    }
}

impl<'a> Iterator for TupleReader<'a> {
    type Item = Result<ElementRef<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.bytes.len() {
            return None;
        }
        Some(match decode_element(self.bytes, self.pos) {
            Ok((el, next)) => {
                self.pos = next;
                Ok(el)
            }
            Err(e) => {
                self.pos = self.bytes.len();
                Err(e)
            }
        })
    }
}

fn decode_element(bytes: &[u8], pos: usize) -> Result<(ElementRef<'_>, usize)> {
    let code = *bytes
        .get(pos)
        .ok_or_else(|| Error::Tuple("truncated tuple".into()))?;
    match code {
        NULL_CODE => Ok((ElementRef::Null, pos + 1)),
        BYTES_CODE => {
            let (data, next) = unescape_nulls(bytes, pos + 1)?;
            Ok((ElementRef::Bytes(data), next))
        }
        STRING_CODE => {
            let (data, next) = unescape_nulls(bytes, pos + 1)?;
            let invalid = |e| Error::Tuple(format!("invalid utf-8 in tuple string: {e}"));
            let s = match data {
                Cow::Borrowed(raw) => Cow::Borrowed(std::str::from_utf8(raw).map_err(invalid)?),
                Cow::Owned(raw) => {
                    Cow::Owned(String::from_utf8(raw).map_err(|e| invalid(e.utf8_error()))?)
                }
            };
            Ok((ElementRef::String(s), next))
        }
        NESTED_CODE => {
            let mut elements = Vec::new();
            let mut p = pos + 1;
            loop {
                match bytes.get(p) {
                    None => return Err(Error::Tuple("unterminated nested tuple".into())),
                    Some(0x00) => {
                        if bytes.get(p + 1) == Some(&0xFF) {
                            elements.push(TupleElement::Null);
                            p += 2;
                        } else {
                            return Ok((ElementRef::Tuple(Tuple { elements }), p + 1));
                        }
                    }
                    Some(_) => {
                        let (el, next) = decode_element(bytes, p)?;
                        elements.push(el.into_owned());
                        p = next;
                    }
                }
            }
        }
        c if (0x0C..=0x1C).contains(&c) => decode_int(bytes, pos),
        FLOAT_CODE => {
            let raw = bytes
                .get(pos + 1..pos + 5)
                .ok_or_else(|| Error::Tuple("truncated float".into()))?;
            let mut bits = u32::from_be_bytes(raw.try_into().unwrap());
            if bits >> 31 == 1 {
                bits ^= 0x8000_0000;
            } else {
                bits = !bits;
            }
            Ok((ElementRef::Float(f32::from_bits(bits)), pos + 5))
        }
        DOUBLE_CODE => {
            let raw = bytes
                .get(pos + 1..pos + 9)
                .ok_or_else(|| Error::Tuple("truncated double".into()))?;
            let mut bits = u64::from_be_bytes(raw.try_into().unwrap());
            if bits >> 63 == 1 {
                bits ^= 0x8000_0000_0000_0000;
            } else {
                bits = !bits;
            }
            Ok((ElementRef::Double(f64::from_bits(bits)), pos + 9))
        }
        FALSE_CODE => Ok((ElementRef::Bool(false), pos + 1)),
        TRUE_CODE => Ok((ElementRef::Bool(true), pos + 1)),
        UUID_CODE => {
            let raw = bytes
                .get(pos + 1..pos + 17)
                .ok_or_else(|| Error::Tuple("truncated uuid".into()))?;
            Ok((ElementRef::Uuid(raw.try_into().unwrap()), pos + 17))
        }
        VERSIONSTAMP_CODE => {
            let raw = bytes
                .get(pos + 1..pos + 1 + VERSIONSTAMP_LEN)
                .ok_or_else(|| Error::Tuple("truncated versionstamp".into()))?;
            Ok((
                ElementRef::Versionstamp(Versionstamp::try_from_slice(raw)?),
                pos + 1 + VERSIONSTAMP_LEN,
            ))
        }
        other => Err(Error::Tuple(format!(
            "unknown tuple type code 0x{other:02x}"
        ))),
    }
}

/// The NUL-escaped byte string starting at `start`, and the position after
/// its terminator (the first NUL not followed by 0xFF). Lent when nothing
/// in it is escaped; otherwise copied one run per escape into a buffer
/// sized for the result.
fn unescape_nulls(bytes: &[u8], start: usize) -> Result<(Cow<'_, [u8]>, usize)> {
    let mut escapes = 0;
    let mut pos = start;
    let end = loop {
        let nul = bytes
            .get(pos..)
            .and_then(find_nul)
            .ok_or_else(|| Error::Tuple("unterminated bytes/string".into()))?;
        if bytes.get(pos + nul + 1) != Some(&0xFF) {
            break pos + nul;
        }
        escapes += 1;
        pos += nul + 2;
    };
    let mut escaped = &bytes[start..end];
    if escapes == 0 {
        return Ok((Cow::Borrowed(escaped), end + 1));
    }
    let mut out = Vec::with_capacity(escaped.len() - escapes);
    while let Some(nul) = find_nul(escaped) {
        out.extend_from_slice(&escaped[..=nul]);
        escaped = &escaped[nul + 2..];
    }
    out.extend_from_slice(escaped);
    Ok((Cow::Owned(out), end + 1))
}

/// The offset of the first NUL in `bytes`, found eight bytes at a time.
fn find_nul(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    let mut words = bytes.chunks_exact(8);
    for (i, word) in words.by_ref().enumerate() {
        let word = u64::from_le_bytes(word.try_into().expect("eight bytes"));
        // A byte's high bit is set here if the byte is zero, or if a zero
        // byte below it borrowed from it: the lowest set bit marks the
        // first zero byte exactly.
        let zeros = word.wrapping_sub(ONES) & !word & HIGHS;
        if zeros != 0 {
            return Some(8 * i + zeros.trailing_zeros() as usize / 8);
        }
    }
    let tail = words.remainder();
    let at = bytes.len() - tail.len();
    tail.iter().position(|&b| b == 0x00).map(|nul| at + nul)
}

fn decode_int(bytes: &[u8], pos: usize) -> Result<(ElementRef<'static>, usize)> {
    let code = bytes[pos];
    if code == INT_ZERO_CODE {
        return Ok((ElementRef::Int(0), pos + 1));
    }
    if code > INT_ZERO_CODE {
        let n = (code - INT_ZERO_CODE) as usize;
        let raw = bytes
            .get(pos + 1..pos + 1 + n)
            .ok_or_else(|| Error::Tuple("truncated positive int".into()))?;
        let mut buf = [0u8; 8];
        buf[8 - n..].copy_from_slice(raw);
        let v = u64::from_be_bytes(buf);
        if v > i64::MAX as u64 {
            return Err(Error::Tuple("integer overflows i64".into()));
        }
        Ok((ElementRef::Int(v as i64), pos + 1 + n))
    } else {
        let n = (INT_ZERO_CODE - code) as usize;
        let raw = bytes
            .get(pos + 1..pos + 1 + n)
            .ok_or_else(|| Error::Tuple("truncated negative int".into()))?;
        let mut buf = [0u8; 8];
        buf[8 - n..].copy_from_slice(raw);
        let encoded = u64::from_be_bytes(buf);
        let max_v = if n == 8 {
            u64::MAX
        } else {
            (1u64 << (8 * n)) - 1
        };
        let mag = max_v - encoded;
        if mag > i64::MAX as u64 + 1 {
            return Err(Error::Tuple("integer underflows i64".into()));
        }
        let v = if mag == i64::MAX as u64 + 1 {
            i64::MIN
        } else {
            -(mag as i64)
        };
        Ok((ElementRef::Int(v), pos + 1 + n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise scan [`unescape_nulls`] replaced, as the model of the
    /// word-at-a-time one, and the offsets (from where each scan began) of
    /// the NULs it stopped at: escapes first, then the terminator.
    fn unescape_bytewise(bytes: &[u8], start: usize) -> (Option<(Vec<u8>, usize)>, Vec<usize>) {
        let (mut out, mut pos, mut stops) = (Vec::new(), start, Vec::new());
        loop {
            let Some(nul) = bytes[pos..].iter().position(|&b| b == 0x00) else {
                return (None, stops);
            };
            stops.push(nul);
            out.extend_from_slice(&bytes[pos..pos + nul]);
            if bytes.get(pos + nul + 1) != Some(&0xFF) {
                return (Some((out, pos + nul + 1)), stops);
            }
            out.push(0x00);
            pos += nul + 2;
        }
    }

    /// Seeded differential of the word-at-a-time NUL scan against the
    /// bytewise one: random byte strings dense in NULs and `00 FF`
    /// escapes, unescaped from a random start. The generator reaches each
    /// of these, and the test asserts that every one occurs:
    ///
    /// * a terminator at every offset mod 8 from where its scan began, in
    ///   a whole eight-byte word and in the tail after the last one;
    /// * a `00 FF` escape whose NUL ends a word, so its `FF` begins the
    ///   next;
    /// * an unterminated string, rejected, with and without an escape.
    #[test]
    fn word_nul_scan_matches_the_bytewise_scan() {
        let mut rng = 0x00F1_DA11_5EED_u64;
        let mut next = |n: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % n as u64) as usize
        };
        let (mut word_terminators, mut tail_terminators) = ([false; 8], [false; 8]);
        let (mut straddled, mut unterminated, mut unterminated_escaped) = (false, false, false);
        for case in 0..4000 {
            let len = next(48);
            let bytes: Vec<u8> = (0..len)
                .map(|_| match next(8) {
                    0 | 1 => 0x00,
                    2 => 0xFF,
                    _ => 1 + next(254) as u8,
                })
                .collect();
            let start = next(len + 1).min(len);
            let (expected, stops) = unescape_bytewise(&bytes, start);
            let got = unescape_nulls(&bytes, start);
            match (&expected, &got) {
                (Some((data, next)), Ok((cow, after))) => {
                    assert_eq!(
                        (cow.as_ref(), *after),
                        (data.as_slice(), *next),
                        "case {case}"
                    );
                }
                (None, Err(_)) => {}
                _ => panic!("case {case}: {bytes:x?} from {start}: {got:?} vs {expected:?}"),
            }
            let (escapes, last) = match expected {
                Some(_) => (&stops[..stops.len() - 1], stops.last().copied()),
                None => (&stops[..], None),
            };
            straddled |= escapes.iter().any(|&nul| nul % 8 == 7);
            if let Some(nul) = last {
                // Where the terminator's scan began: past the last escape.
                let scanned = len - start - escapes.iter().map(|e| e + 2).sum::<usize>();
                match nul < scanned / 8 * 8 {
                    true => word_terminators[nul % 8] = true,
                    false => tail_terminators[nul % 8] = true,
                }
            } else {
                unterminated |= escapes.is_empty();
                unterminated_escaped |= !escapes.is_empty();
            }
        }
        assert_eq!(word_terminators, [true; 8], "terminator offsets in a word");
        assert_eq!(
            tail_terminators[..7],
            [true; 7],
            "terminator offsets in the tail"
        );
        assert!(straddled, "no escape straddled two words");
        assert!(
            unterminated && unterminated_escaped,
            "no unterminated string"
        );
    }

    fn roundtrip(t: &Tuple) {
        let packed = t.pack();
        let back = Tuple::unpack(&packed).unwrap();
        assert_eq!(t, &back, "roundtrip failed for {t:?}");
    }

    #[test]
    fn roundtrip_all_types() {
        roundtrip(&Tuple::new());
        roundtrip(&Tuple::new().push(TupleElement::Null));
        roundtrip(&Tuple::new().push(b"bytes".as_slice()).push("string"));
        roundtrip(
            &Tuple::new()
                .push(0i64)
                .push(1i64)
                .push(-1i64)
                .push(i64::MAX)
                .push(i64::MIN),
        );
        roundtrip(&Tuple::new().push(1.5f32).push(-2.5f64));
        roundtrip(&Tuple::new().push(true).push(false));
        roundtrip(&Tuple::new().push(TupleElement::Uuid([7; 16])));
        roundtrip(&Tuple::new().push(Versionstamp::complete(42, 1, 2)));
        roundtrip(&Tuple::new().push(Tuple::new().push("nested").push(3i64)));
    }

    #[test]
    fn null_escaping_in_bytes() {
        let t = Tuple::new().push(b"a\x00b".as_slice());
        roundtrip(&t);
        // The embedded null must be escaped so it can't terminate early.
        let packed = t.pack();
        assert!(packed.windows(2).any(|w| w == [0x00, 0xFF]));
    }

    #[test]
    fn nested_null_escaping() {
        let t = Tuple::new().push(Tuple::new().push(TupleElement::Null).push("x"));
        roundtrip(&t);
    }

    #[test]
    fn int_encoding_widths() {
        // 1-byte positive.
        let p = Tuple::new().push(5i64).pack();
        assert_eq!(p, vec![0x15, 5]);
        // Zero.
        assert_eq!(Tuple::new().push(0i64).pack(), vec![0x14]);
        // -1 encodes as 0x13 0xFE.
        assert_eq!(Tuple::new().push(-1i64).pack(), vec![0x13, 0xFE]);
        // 256 needs 2 bytes.
        assert_eq!(Tuple::new().push(256i64).pack(), vec![0x16, 1, 0]);
    }

    #[test]
    fn ordering_ints() {
        let vals = [
            i64::MIN,
            -65536,
            -256,
            -255,
            -1,
            0,
            1,
            255,
            256,
            65536,
            i64::MAX,
        ];
        for w in vals.windows(2) {
            let a = Tuple::new().push(w[0]).pack();
            let b = Tuple::new().push(w[1]).pack();
            assert!(a < b, "{} should pack before {}", w[0], w[1]);
        }
    }

    #[test]
    fn ordering_floats_including_negatives() {
        let vals = [
            f64::NEG_INFINITY,
            -1e9,
            -1.0,
            -0.0,
            0.0,
            1e-9,
            1.0,
            1e9,
            f64::INFINITY,
        ];
        for w in vals.windows(2) {
            let a = Tuple::new().push(w[0]).pack();
            let b = Tuple::new().push(w[1]).pack();
            assert!(a <= b, "{} should pack before {}", w[0], w[1]);
        }
    }

    #[test]
    fn ordering_strings() {
        let a = Tuple::new().push("apple").pack();
        let b = Tuple::new().push("banana").pack();
        let c = Tuple::new().push("banana0").pack();
        assert!(a < b && b < c);
    }

    #[test]
    fn common_prefix_packs_to_common_prefix() {
        // The paper's (state, city) example: shared prefix is preserved.
        let a = Tuple::from(("CA", "San Francisco")).pack();
        let b = Tuple::from(("CA", "San Jose")).pack();
        let prefix = Tuple::from(("CA",)).pack();
        assert!(a.starts_with(&prefix));
        assert!(b.starts_with(&prefix));
    }

    #[test]
    fn range_covers_extensions_only() {
        let t = Tuple::from(("user",));
        let (begin, end) = t.range();
        let child = Tuple::from(("user", 42i64)).pack();
        let sibling = Tuple::from(("user2",)).pack();
        assert!(child > begin && child < end);
        assert!(!(sibling > begin && sibling < end));
        // The bare tuple itself is outside the range.
        assert!(t.pack() < begin);
    }

    #[test]
    fn cross_type_ordering() {
        let null = Tuple::new().push(TupleElement::Null).pack();
        let bytes = Tuple::new().push(b"x".as_slice()).pack();
        let string = Tuple::new().push("x").pack();
        let int = Tuple::new().push(0i64).pack();
        let boolean = Tuple::new().push(false).pack();
        assert!(null < bytes && bytes < string && string < int && int < boolean);
    }

    #[test]
    fn incomplete_versionstamp_offset() {
        let t = Tuple::new().push("sync").push(Versionstamp::incomplete(3));
        let mut bytes = b"PREFIX".to_vec();
        let offset = pack_elements_into(t.elements(), &mut bytes).unwrap();
        assert_eq!(bytes[6..], t.pack());
        // The placeholder starts at the reported offset.
        assert_eq!(&bytes[offset..offset + 10], &[0xFF; 10]);
        // User version follows the transaction bytes.
        assert_eq!(&bytes[offset + 10..offset + 12], &3u16.to_be_bytes());
    }

    #[test]
    fn complete_tuple_has_no_versionstamp_offset() {
        let t = Tuple::new().push("a");
        assert_eq!(pack_elements_into(t.elements(), &mut Vec::new()), None);
    }

    #[test]
    fn prefix_suffix_helpers() {
        let t = Tuple::from(("a", 1i64, "b"));
        assert_eq!(t.prefix(2), Tuple::from(("a", 1i64)));
        assert_eq!(t.suffix(2), Tuple::from(("b",)));
        assert!(t.prefix(2).is_prefix_of(&t));
        assert!(!Tuple::from(("z",)).is_prefix_of(&t));
    }

    #[test]
    fn unpack_rejects_garbage() {
        assert!(Tuple::unpack(&[0x99]).is_err());
        assert!(Tuple::unpack(&[0x01, b'x']).is_err()); // unterminated bytes
        assert!(Tuple::unpack(&[0x21, 0, 0]).is_err()); // truncated double
    }

    #[test]
    fn packed_len_is_the_packed_length() {
        let t = Tuple::new()
            .push(TupleElement::Null)
            .push(b"a\x00b".to_vec())
            .push("s\x00")
            .push(Tuple::new().push(TupleElement::Null).push(7i64))
            .push(1.5f32)
            .push(-2.5f64)
            .push(true)
            .push(TupleElement::Uuid([3; 16]))
            .push(Versionstamp::incomplete(1));
        for i in [0, 1, -1, 255, 256, -256, i64::MAX, i64::MIN, i64::MIN + 1] {
            let t = t.clone().push(i);
            assert_eq!(packed_len(t.elements()), t.pack().len(), "{t:?}");
        }
        assert_eq!(
            packed_str_len("a\x00"),
            Tuple::from(("a\x00",)).pack().len()
        );
    }

    #[test]
    fn elements_and_strings_pack_as_their_tuples_do() {
        let t = Tuple::from(("k", Versionstamp::incomplete(2), 5i64));
        let mut out = b"pre".to_vec();
        let at = pack_elements_into(t.elements(), &mut out);
        // "pre", then the string's three bytes and the stamp's type code.
        assert_eq!((out, at), ([&b"pre"[..], &t.pack()].concat(), Some(7)));
        let mut out = Vec::new();
        pack_str_into("x\x00y", &mut out);
        assert_eq!(out, Tuple::from(("x\x00y",)).pack());
    }

    #[test]
    fn bytes_pack_in_place() {
        for raw in [&b""[..], b"abc", b"\x00", b"a\x00\x00b\x00", b"\xff\x00"] {
            let mut out = b"head".to_vec();
            out.extend_from_slice(raw);
            pack_bytes_in_place(&mut out, 4);
            let mut want = b"head".to_vec();
            TupleElement::Bytes(raw.to_vec()).pack_into(&mut want);
            assert_eq!(out, want, "{raw:?}");
            let mut packed = Vec::new();
            pack_bytes_into(raw, &mut packed);
            assert_eq!(packed, want[4..], "{raw:?}");
        }
    }

    /// Every way a NUL can sit in the bytes (none, leading, trailing,
    /// doubled, beside 0xFF, on each side of an 8-byte word) comes back
    /// where it lies, and what follows the element does not move.
    #[test]
    fn bytes_unpack_in_place() {
        let raws: [&[u8]; 8] = [
            b"",
            b"abc",
            b"\x00",
            b"a\x00\x00b\x00",
            b"\xff\x00\xff",
            b"\x00seven!\x00eight...\x00",
            b"1234567\x00",
            b"12345678\x00",
        ];
        for raw in raws {
            let mut buf = b"head".to_vec();
            buf.extend_from_slice(raw);
            pack_bytes_in_place(&mut buf, 4);
            let end = buf.len();
            pack_str_into("tail", &mut buf);
            let (bytes, next) = unpack_bytes_in_place(&mut buf, 4).unwrap().unwrap();
            assert_eq!((&buf[bytes], next), (raw, end), "{raw:?}");
            assert_eq!(TupleReader::new(&buf[next..]).count(), 1, "{raw:?}");
        }
        assert!(unpack_bytes_in_place(&mut b"\x01ab".to_vec(), 0).is_err());
        let not_bytes = unpack_bytes_in_place(&mut b"\x02ab\x00".to_vec(), 0);
        assert_eq!(not_bytes.unwrap(), None);
        assert_eq!(
            unpack_bytes_in_place(&mut b"\x01".to_vec(), 1).unwrap(),
            None
        );
    }

    #[test]
    fn i64_min_roundtrip_and_order() {
        let min = Tuple::new().push(i64::MIN).pack();
        let min_plus = Tuple::new().push(i64::MIN + 1).pack();
        assert!(min < min_plus);
        roundtrip(&Tuple::new().push(i64::MIN));
    }
}
