//! Reading a record's fields where they lie: the one trait every reader of
//! a record's fields goes through (the record layer's key-expression
//! evaluator, its predicates and client key functions), and its two
//! sources — a decoded [`DynamicMessage`], and a [`WireMessage`], which
//! reads the wire bytes it owns without decoding the record.

use std::cell::OnceCell;
use std::fmt::Debug;
use std::ops::{ControlFlow, Range};
use std::sync::Arc;

use crate::descriptor::{DescriptorPool, FieldDescriptor, FieldType, MessageDescriptor};
use crate::message::{decode_value, DynamicMessage};
use crate::value::Value;
use crate::wire::{field_payload, get_tag, get_varint, zigzag_decode};
use crate::{Error, Result};

/// A scalar field value as a source lends it: numbers by value, strings
/// and bytes borrowed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueRef<'a> {
    I32(i32),
    I64(i64),
    U32(u32),
    U64(u64),
    F32(f32),
    F64(f64),
    Bool(bool),
    Enum(i32),
    String(&'a str),
    Bytes(&'a [u8]),
}

impl ValueRef<'_> {
    /// The owned [`Value`].
    #[inline]
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::I32(v) => Value::I32(v),
            ValueRef::I64(v) => Value::I64(v),
            ValueRef::U32(v) => Value::U32(v),
            ValueRef::U64(v) => Value::U64(v),
            ValueRef::F32(v) => Value::F32(v),
            ValueRef::F64(v) => Value::F64(v),
            ValueRef::Bool(v) => Value::Bool(v),
            ValueRef::Enum(v) => Value::Enum(v),
            ValueRef::String(v) => Value::String(v.to_owned()),
            ValueRef::Bytes(v) => Value::Bytes(v.to_vec()),
        }
    }

    /// Decode the payload of a field of scalar type `field_type` (as
    /// [`field_payload`] finds it).
    #[inline]
    pub(crate) fn decode<'a>(field_type: &FieldType, payload: &'a [u8]) -> Result<ValueRef<'a>> {
        fn le<const N: usize>(payload: &[u8]) -> Result<[u8; N]> {
            payload
                .try_into()
                .map_err(|_| Error::Decode(format!("a {N}-byte field holds {}", payload.len())))
        }
        let varint = || get_varint(payload).map(|(raw, _)| raw);
        Ok(match field_type {
            FieldType::Int32 => ValueRef::I32(varint()? as i64 as i32),
            FieldType::Int64 => ValueRef::I64(varint()? as i64),
            FieldType::SInt32 => ValueRef::I32(zigzag_decode(varint()?) as i32),
            FieldType::SInt64 => ValueRef::I64(zigzag_decode(varint()?)),
            FieldType::UInt32 => ValueRef::U32(varint()? as u32),
            FieldType::UInt64 => ValueRef::U64(varint()?),
            FieldType::Bool => ValueRef::Bool(varint()? != 0),
            FieldType::Enum(_) => ValueRef::Enum(varint()? as i64 as i32),
            FieldType::Fixed64 => ValueRef::U64(u64::from_le_bytes(le(payload)?)),
            FieldType::SFixed64 => ValueRef::I64(i64::from_le_bytes(le(payload)?)),
            FieldType::Double => ValueRef::F64(f64::from_le_bytes(le(payload)?)),
            FieldType::Fixed32 => ValueRef::U32(u32::from_le_bytes(le(payload)?)),
            FieldType::SFixed32 => ValueRef::I32(i32::from_le_bytes(le(payload)?)),
            FieldType::Float => ValueRef::F32(f32::from_le_bytes(le(payload)?)),
            FieldType::String => ValueRef::String(
                std::str::from_utf8(payload)
                    .map_err(|e| Error::Decode(format!("invalid utf-8: {e}")))?,
            ),
            FieldType::Bytes => ValueRef::Bytes(payload),
            FieldType::Message(name) => {
                return Err(Error::Decode(format!("message {name} is not a scalar")))
            }
        })
    }
}

impl Value {
    /// The value lent as a [`ValueRef`]; `None` for a nested message.
    pub fn as_value_ref(&self) -> Option<ValueRef<'_>> {
        Some(match self {
            Value::I32(v) => ValueRef::I32(*v),
            Value::I64(v) => ValueRef::I64(*v),
            Value::U32(v) => ValueRef::U32(*v),
            Value::U64(v) => ValueRef::U64(*v),
            Value::F32(v) => ValueRef::F32(*v),
            Value::F64(v) => ValueRef::F64(*v),
            Value::Bool(v) => ValueRef::Bool(*v),
            Value::Enum(v) => ValueRef::Enum(*v),
            Value::String(v) => ValueRef::String(v),
            Value::Bytes(v) => ValueRef::Bytes(v),
            Value::Message(_) => return None,
        })
    }
}

/// One value of a field: a scalar, or a nested message to read on.
#[derive(Debug, Clone, Copy)]
pub enum FieldRef<'a> {
    Value(ValueRef<'a>),
    Message(&'a dyn FieldSource),
}

/// A record's fields, read by descriptor. What a source yields for a field
/// is what [`DynamicMessage::decode`] would leave in it: a field the wire
/// lacks, an unknown field and a field of the wrong wire type are absent,
/// a singular field's last value on the wire wins, and a repeated field
/// has its values in wire order.
pub trait FieldSource: Debug {
    /// The message type the fields are read against.
    fn descriptor(&self) -> &Arc<MessageDescriptor>;

    /// Hand `visit` each value of `field`, a field of
    /// [`descriptor`](Self::descriptor): none when the record lacks it, the
    /// one value of a singular field, every value of a repeated field in
    /// order, until `visit` breaks.
    fn visit_field(
        &self,
        field: &FieldDescriptor,
        visit: &mut dyn FnMut(FieldRef<'_>) -> ControlFlow<()>,
    ) -> Result<()>;

    /// The value of the singular scalar field `name`, copied out: `None`
    /// when the record lacks it, the type has no such field or the field
    /// is repeated or a message.
    fn get_value(&self, name: &str) -> Result<Option<Value>> {
        let Some(field) = self.descriptor().field_by_name(name) else {
            return Ok(None);
        };
        let mut value = None;
        if !field.is_repeated() {
            self.visit_field(field, &mut |v| {
                if let FieldRef::Value(v) = v {
                    value = Some(v.to_value());
                }
                ControlFlow::Break(())
            })?;
        }
        Ok(value)
    }
}

impl FieldSource for DynamicMessage {
    fn descriptor(&self) -> &Arc<MessageDescriptor> {
        DynamicMessage::descriptor(self)
    }

    fn visit_field(
        &self,
        field: &FieldDescriptor,
        visit: &mut dyn FnMut(FieldRef<'_>) -> ControlFlow<()>,
    ) -> Result<()> {
        for value in self.values(field.number) {
            let value = match value {
                Value::Message(m) => FieldRef::Message(m),
                v => FieldRef::Value(v.as_value_ref().expect("not a message")),
            };
            if visit(value).is_break() {
                break;
            }
        }
        Ok(())
    }
}

/// Known fields a walk over a record's tags keeps on the stack: more than
/// a CloudKit record's eighteen declared fields.
const STACK_FIELDS: usize = 32;

/// One walk over the tags of `wire`: each field on it that `descriptor`
/// knows (with the field's wire type) and its payload's range in `wire`,
/// in wire order. Fails where decoding would on a truncated tag or payload.
///
/// Cost contract: one block, the entries, of exactly their number. The
/// walk keeps what it finds on the stack and allocates the block once it
/// has counted them, so the tags are walked once; a record with more than
/// [`STACK_FIELDS`] known fields on the wire pays one more block for the
/// rest.
fn known_fields(descriptor: &MessageDescriptor, wire: &[u8]) -> Result<Box<[WireField]>> {
    let mut on_stack = [(0, 0, 0); STACK_FIELDS];
    let mut spilled = Vec::new();
    let (mut known, mut at) = (0, 0);
    while at < wire.len() {
        let (number, wire_type, n) = get_tag(&wire[at..])?;
        at += n;
        let (payload, consumed) = field_payload(&wire[at..], wire_type)?;
        let field = descriptor.field_by_number(number);
        if field.is_some_and(|f| f.field_type.wire_type() == wire_type) {
            let found = (number, at + payload.start, at + payload.end);
            match on_stack.get_mut(known) {
                Some(slot) => *slot = found,
                None => spilled.push(found),
            }
            known += 1;
        }
        at += consumed;
    }
    let mut entries = Vec::with_capacity(known);
    for &(number, start, end) in on_stack[..known.min(STACK_FIELDS)].iter().chain(&spilled) {
        entries.push(WireField {
            number,
            payload: start..end,
            value: OnceCell::new(),
        });
    }
    Ok(entries.into_boxed_slice())
}

/// The entries a read of `field` hands out, of all `entries` (in wire
/// order): the last on the wire of a singular field, every one of a
/// repeated field in wire order.
fn entries_of<'e>(
    entries: &'e [WireField],
    field: &FieldDescriptor,
) -> impl Iterator<Item = &'e WireField> {
    let wanted = field.number;
    let mut all = entries.iter().filter(move |e| e.number == wanted);
    let last = match field.is_repeated() {
        true => None,
        false => all.by_ref().last(),
    };
    last.into_iter().chain(all)
}

/// A record's wire bytes, owned and read where they lie: the one reader
/// of a stored record, for a fetch and for the old record a save or a
/// delete indexes. It holds the buffer the bytes were read into, where in
/// it the wire bytes are, and one walk's table of where each field the
/// descriptor knows (with its wire type) has its payload. A scalar field
/// is decoded when it is read, and [`get`](Self::get) keeps what it
/// decodes. A nested message is decoded with the record, once, because the
/// record keeps no handle on the descriptor pool that resolves its type.
///
/// What the fields read as is what [`DynamicMessage::decode`] leaves in
/// them (see [`FieldSource`]). Malformed bytes fail with
/// [`Error::Decode`], never a panic: a truncated tag or payload when the
/// record is made; a value that does not decode — a string that is not
/// UTF-8, a nested message that is malformed — when its field is read, so
/// a record whose bad field nothing reads can still be indexed, replaced
/// and deleted. A singular field on the wire more than once reads as its
/// last occurrence, and an earlier one is never read, nested or not, so a
/// malformed one is no error, as in [`DynamicMessage::decode`].
///
/// Cost contract: one block, the field table, sized to the known fields on
/// the wire by one walk over the tags (`known_fields`), plus what nested
/// messages decode into. Each field [`get`](Self::get) reads then costs
/// what its owned value does (a string's or bytes' block), once;
/// [`FieldSource`] reads lend strings and bytes from the buffer and
/// allocate nothing.
#[derive(Debug, Clone)]
pub struct WireMessage {
    descriptor: Arc<MessageDescriptor>,
    buffer: Vec<u8>,
    wire: Range<usize>,
    fields: Box<[WireField]>,
}

/// One known field on a [`WireMessage`]'s wire.
#[derive(Debug, Clone)]
struct WireField {
    number: u32,
    /// The payload's range in the wire bytes.
    payload: Range<usize>,
    /// The decoded value or its decode error, once read (a nested
    /// message's, from the start).
    value: OnceCell<Decoded>,
}

/// A field's value as decoded. The error is boxed, so that a field table
/// entry keeps the size a [`Value`] gives it: a stored record rarely holds
/// a value that does not decode.
type Decoded = std::result::Result<Value, Box<Error>>;

impl WireMessage {
    /// Read `buffer[wire]` as a message of `descriptor`, nested messages
    /// decoded through `pool`.
    pub fn new(
        descriptor: Arc<MessageDescriptor>,
        pool: &DescriptorPool,
        buffer: Vec<u8>,
        wire: Range<usize>,
    ) -> Result<Self> {
        let bytes = buffer
            .get(wire.clone())
            .ok_or_else(|| Error::Decode("wire bytes outside their buffer".into()))?;
        let mut fields = known_fields(&descriptor, bytes)?;
        // Nested messages are decoded now: every occurrence of a repeated
        // field, and the last of a singular one, which supersedes the rest.
        // A decode error stays with its field until the field is read.
        for i in 0..fields.len() {
            let (number, later) = (fields[i].number, &fields[i + 1..]);
            let field = descriptor.field_by_number(number).expect("a known field");
            let superseded = !field.is_repeated() && later.iter().any(|f| f.number == number);
            if matches!(field.field_type, FieldType::Message(_)) && !superseded {
                let value = decode_value(field, pool, &bytes[fields[i].payload.clone()]);
                fields[i].value = OnceCell::from(value.map_err(Box::new));
            }
        }
        Ok(WireMessage {
            descriptor,
            buffer,
            wire,
            fields,
        })
    }

    /// The wire bytes, as stored.
    pub fn wire(&self) -> &[u8] {
        &self.buffer[self.wire.clone()]
    }

    /// The singular field `name`'s value, decoded the first time it is
    /// asked for and kept: what [`DynamicMessage::get`] gives for the
    /// message decoded from the same bytes. `None` also for a value whose
    /// bytes do not decode, which [`FieldSource::get_value`] and
    /// [`to_message`](Self::to_message) report as an error.
    pub fn get(&self, name: &str) -> Option<&Value> {
        let field = self.descriptor.field_by_name(name)?;
        if field.is_repeated() {
            return None;
        }
        let stored = self
            .fields
            .iter()
            .rev()
            .find(|f| f.number == field.number)?;
        let value = stored.value.get_or_init(|| {
            let payload = &self.wire()[stored.payload.clone()];
            let value = ValueRef::decode(&field.field_type, payload);
            value.map(ValueRef::to_value).map_err(Box::new)
        });
        value.as_ref().ok()
    }

    /// The record decoded in full, unknown fields kept, as
    /// [`DynamicMessage::decode`] decodes its bytes: for a caller that
    /// will change the record and save it.
    pub fn to_message(&self) -> Result<DynamicMessage> {
        let kept = self.fields.iter().map(|f| f.value.get().cloned());
        decode_keeping(self.descriptor.clone(), self.wire(), kept)
    }

    /// [`to_message`](Self::to_message), moving the values already decoded.
    pub fn into_message(self) -> Result<DynamicMessage> {
        let WireMessage {
            descriptor,
            buffer,
            wire,
            fields,
        } = self;
        let kept = fields.into_vec().into_iter().map(|f| f.value.into_inner());
        decode_keeping(descriptor, &buffer[wire], kept)
    }
}

/// Decode `wire`, taking each known field's value (or its decode error)
/// from `kept` (the field table's, in the same wire order) where it was
/// decoded already.
fn decode_keeping(
    descriptor: Arc<MessageDescriptor>,
    wire: &[u8],
    mut kept: impl Iterator<Item = Option<Decoded>>,
) -> Result<DynamicMessage> {
    DynamicMessage::decode_with(descriptor, wire, |field, payload| {
        match kept.next().flatten() {
            Some(value) => value.map_err(|e| *e),
            None => Ok(ValueRef::decode(&field.field_type, payload)?.to_value()),
        }
    })
}

impl FieldSource for WireMessage {
    fn descriptor(&self) -> &Arc<MessageDescriptor> {
        &self.descriptor
    }

    fn visit_field(
        &self,
        field: &FieldDescriptor,
        visit: &mut dyn FnMut(FieldRef<'_>) -> ControlFlow<()>,
    ) -> Result<()> {
        let wire = self.wire();
        for stored in entries_of(&self.fields, field) {
            let value = match stored.value.get() {
                Some(Ok(Value::Message(nested))) => FieldRef::Message(nested),
                Some(Err(e)) => return Err(Error::clone(e)),
                _ => FieldRef::Value(ValueRef::decode(
                    &field.field_type,
                    &wire[stored.payload.clone()],
                )?),
            };
            if visit(value).is_break() {
                break;
            }
        }
        Ok(())
    }
}
