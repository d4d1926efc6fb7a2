//! Reading a record's fields where they lie: the one trait every reader of
//! a record's fields goes through (the record layer's key-expression
//! evaluator, its predicates and client key functions), and its two
//! sources — a decoded [`DynamicMessage`] and a [`WireRecord`], which
//! reads the wire bytes without decoding the record.

use std::fmt::Debug;
use std::ops::ControlFlow;
use std::sync::Arc;

use crate::descriptor::{DescriptorPool, FieldDescriptor, FieldType, MessageDescriptor};
use crate::message::{fields_on_wire, DynamicMessage};
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

/// A record read where its wire bytes lie: one walk over the tags keeps
/// where each field the descriptor knows (with its wire type) has its
/// payload, and a value is decoded only when asked for, a string or bytes
/// value lent from the wire bytes. A nested message is read the same way
/// over its sub-slice.
///
/// Cost contract: one block, the payload offsets, sized to the fields on
/// the wire (counted by a first walk over the tags, as
/// [`DynamicMessage::decode`] sizes its fields; never to the fields the
/// descriptor declares, most of which a record often leaves unset). A
/// nested message read makes its own.
#[derive(Debug)]
pub struct WireRecord<'a> {
    descriptor: Arc<MessageDescriptor>,
    pool: &'a DescriptorPool,
    wire: &'a [u8],
    /// Each known field on the wire: its number and payload, in wire
    /// order.
    fields: Vec<(u32, std::ops::Range<usize>)>,
}

impl<'a> WireRecord<'a> {
    /// Read `wire` as a message of `descriptor`, nested types resolved
    /// through `pool`. Fails where decoding would on a truncated field.
    pub fn new(
        descriptor: Arc<MessageDescriptor>,
        pool: &'a DescriptorPool,
        wire: &'a [u8],
    ) -> Result<Self> {
        let mut fields = Vec::with_capacity(fields_on_wire(wire)?);
        let mut at = 0;
        while at < wire.len() {
            let (number, wire_type, n) = get_tag(&wire[at..])?;
            at += n;
            let (payload, consumed) = field_payload(&wire[at..], wire_type)?;
            let known = descriptor.field_by_number(number);
            if known.is_some_and(|f| f.field_type.wire_type() == wire_type) {
                fields.push((number, at + payload.start..at + payload.end));
            }
            at += consumed;
        }
        Ok(WireRecord {
            descriptor,
            pool,
            wire,
            fields,
        })
    }
}

impl FieldSource for WireRecord<'_> {
    fn descriptor(&self) -> &Arc<MessageDescriptor> {
        &self.descriptor
    }

    fn visit_field(
        &self,
        field: &FieldDescriptor,
        visit: &mut dyn FnMut(FieldRef<'_>) -> ControlFlow<()>,
    ) -> Result<()> {
        let mut payloads = self
            .fields
            .iter()
            .filter(|(number, _)| *number == field.number)
            .map(|(_, payload)| &self.wire[payload.clone()]);
        let last = match field.is_repeated() {
            true => None,
            false => payloads.by_ref().last(),
        };
        for payload in last.into_iter().chain(payloads) {
            let flow = match &field.field_type {
                FieldType::Message(name) => {
                    let descriptor = self
                        .pool
                        .message(name)
                        .ok_or_else(|| Error::Decode(format!("unknown nested type {name}")))?;
                    visit(FieldRef::Message(&WireRecord::new(
                        descriptor, self.pool, payload,
                    )?))
                }
                scalar => visit(FieldRef::Value(ValueRef::decode(scalar, payload)?)),
            };
            if flow.is_break() {
                break;
            }
        }
        Ok(())
    }
}
