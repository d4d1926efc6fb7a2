//! Dynamic messages: typed field storage validated against a descriptor,
//! with full protobuf wire-format serialization and unknown-field
//! preservation.

use std::sync::Arc;

use crate::descriptor::{DescriptorPool, FieldDescriptor, FieldType, MessageDescriptor};
use crate::source::ValueRef;
use crate::value::Value;
use crate::wire::{
    field_payload, get_tag, put_len_delimited, put_tag, put_varint, skip_field, varint_len,
    zigzag_encode,
};
use crate::{Error, Result};

/// An unknown field captured during decoding and re-emitted on encoding,
/// giving the schema-evolution behaviour described in §5: old readers
/// carry new writers' fields through unharmed.
#[derive(Debug, Clone, PartialEq)]
struct UnknownField {
    number: u32,
    wire_type: u8,
    /// Raw bytes of the field payload (without the tag).
    data: Vec<u8>,
}

#[derive(Debug, Clone, PartialEq)]
enum FieldValue {
    Single(Value),
    Repeated(Vec<Value>),
}

/// A message instance described by a [`MessageDescriptor`].
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicMessage {
    descriptor: Arc<MessageDescriptor>,
    /// The fields that have a value, sorted by field number, each number
    /// once: one block for all of them, found by binary search.
    fields: Vec<(u32, FieldValue)>,
    unknown: Vec<UnknownField>,
}

impl DynamicMessage {
    pub fn new(descriptor: Arc<MessageDescriptor>) -> Self {
        DynamicMessage {
            descriptor,
            fields: Vec::new(),
            unknown: Vec::new(),
        }
    }

    /// Where field `number` is in `fields`, or where it would go.
    fn position(&self, number: u32) -> std::result::Result<usize, usize> {
        self.fields.binary_search_by_key(&number, |(n, _)| *n)
    }

    /// The value of field `number`, if it has one.
    fn value(&self, number: u32) -> Option<&FieldValue> {
        self.position(number).ok().map(|i| &self.fields[i].1)
    }

    /// The values field `number` holds: none, its one value, or a
    /// repeated field's values in order.
    pub(crate) fn values(&self, number: u32) -> &[Value] {
        match self.value(number) {
            None => &[],
            Some(FieldValue::Single(v)) => std::slice::from_ref(v),
            Some(FieldValue::Repeated(vs)) => vs,
        }
    }

    /// Set field `number` to `value`, replacing what it held.
    fn put(&mut self, number: u32, value: FieldValue) {
        match self.position(number) {
            Ok(i) => self.fields[i].1 = value,
            Err(i) => self.fields.insert(i, (number, value)),
        }
    }

    /// Append `value` to repeated field `number`.
    fn append(&mut self, number: u32, value: Value) {
        let i = self.position(number).unwrap_or_else(|i| {
            self.fields
                .insert(i, (number, FieldValue::Repeated(Vec::new())));
            i
        });
        match &mut self.fields[i].1 {
            FieldValue::Repeated(values) => values.push(value),
            FieldValue::Single(_) => unreachable!("a field number has one label"),
        }
    }

    pub fn descriptor(&self) -> &Arc<MessageDescriptor> {
        &self.descriptor
    }

    /// The message type name (the Record Layer's record type name).
    pub fn type_name(&self) -> &str {
        &self.descriptor.name
    }

    fn field(&self, name: &str) -> Result<&FieldDescriptor> {
        self.descriptor
            .field_by_name(name)
            .ok_or_else(|| Error::UnknownField(format!("{}.{}", self.descriptor.name, name)))
    }

    /// Set a singular field. Replaces any existing value.
    pub fn set(&mut self, name: &str, value: impl Into<Value>) -> Result<()> {
        let value = value.into();
        let field = self.field(name)?;
        if !value.matches_type(&field.field_type) {
            return Err(Error::TypeMismatch {
                field: format!("{}.{}", self.descriptor.name, name),
                expected: field.field_type.name(),
                actual: value.type_name().to_string(),
            });
        }
        let number = field.number;
        if field.is_repeated() {
            return Err(Error::TypeMismatch {
                field: format!("{}.{}", self.descriptor.name, name),
                expected: "repeated (use push)".into(),
                actual: "single".into(),
            });
        }
        self.put(number, FieldValue::Single(value));
        Ok(())
    }

    /// Builder-style [`set`](Self::set).
    pub fn with(mut self, name: &str, value: impl Into<Value>) -> Result<Self> {
        self.set(name, value)?;
        Ok(self)
    }

    /// Append to a repeated field.
    pub fn push(&mut self, name: &str, value: impl Into<Value>) -> Result<()> {
        let value = value.into();
        let field = self.field(name)?;
        if !field.is_repeated() {
            return Err(Error::TypeMismatch {
                field: format!("{}.{}", self.descriptor.name, name),
                expected: "single (use set)".into(),
                actual: "repeated".into(),
            });
        }
        if !value.matches_type(&field.field_type) {
            return Err(Error::TypeMismatch {
                field: format!("{}.{}", self.descriptor.name, name),
                expected: field.field_type.name(),
                actual: value.type_name().to_string(),
            });
        }
        self.append(field.number, value);
        Ok(())
    }

    /// Get a singular field's value, if set.
    pub fn get(&self, name: &str) -> Option<&Value> {
        let field = self.descriptor.field_by_name(name)?;
        match self.value(field.number) {
            Some(FieldValue::Single(v)) => Some(v),
            _ => None,
        }
    }

    /// Get a singular field's value, falling back to the protobuf default
    /// when unset (what a proto3 reader observes).
    pub fn get_or_default(&self, name: &str) -> Option<Value> {
        let field = self.descriptor.field_by_name(name)?;
        match self.value(field.number) {
            Some(FieldValue::Single(v)) => Some(v.clone()),
            _ => Value::default_for(&field.field_type),
        }
    }

    /// Get all values of a repeated field (empty slice when unset).
    pub fn get_repeated(&self, name: &str) -> &[Value] {
        match self
            .descriptor
            .field_by_name(name)
            .and_then(|f| self.value(f.number))
        {
            Some(FieldValue::Repeated(v)) => v,
            _ => &[],
        }
    }

    /// Whether the field has an explicit value.
    pub fn has(&self, name: &str) -> bool {
        self.descriptor
            .field_by_name(name)
            .is_some_and(|f| self.value(f.number).is_some())
    }

    /// Remove a field's value.
    pub fn clear_field(&mut self, name: &str) -> Result<()> {
        let number = self.field(name)?.number;
        if let Ok(i) = self.position(number) {
            self.fields.remove(i);
        }
        Ok(())
    }

    /// Number of unknown (schema-evolved) fields carried by this message.
    pub fn unknown_field_count(&self) -> usize {
        self.unknown.len()
    }

    // ------------------------------------------------------------ encoding

    /// Serialize to protobuf wire bytes, in one buffer of their final
    /// size. Unknown fields captured during decoding are re-emitted,
    /// preserving data written by newer schemas.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// The number of bytes [`encode`](Self::encode) produces.
    pub fn encoded_len(&self) -> usize {
        let fields = self.fields.iter().map(|(number, fv)| {
            let field = self
                .descriptor
                .field_by_number(*number)
                .expect("field numbers validated on insert");
            let values = match fv {
                FieldValue::Single(v) => std::slice::from_ref(v),
                FieldValue::Repeated(vs) => vs.as_slice(),
            };
            values.iter().map(|v| value_len(field, v)).sum::<usize>()
        });
        let unknown = self
            .unknown
            .iter()
            .map(|u| tag_len(u.number, u.wire_type) + u.data.len());
        fields.sum::<usize>() + unknown.sum::<usize>()
    }

    /// Append the wire bytes [`encode`](Self::encode) produces to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        for (number, fv) in &self.fields {
            let field = self
                .descriptor
                .field_by_number(*number)
                .expect("field numbers validated on insert");
            match fv {
                FieldValue::Single(v) => encode_value(out, field, v),
                FieldValue::Repeated(vs) => {
                    for v in vs {
                        encode_value(out, field, v);
                    }
                }
            }
        }
        for u in &self.unknown {
            put_tag(out, u.number, u.wire_type);
            out.extend_from_slice(&u.data);
        }
    }

    /// Decode wire bytes against `descriptor`, resolving nested message
    /// types through `pool`. Fields on the wire that the descriptor does
    /// not know are preserved as unknown fields. A singular field on the
    /// wire more than once takes its last occurrence, and only that one
    /// must hold a valid value: a malformed occurrence that a later one
    /// supersedes is no error, as a reader of the wire bytes
    /// (`WireMessage`) never reads it.
    ///
    /// Cost contract: the field storage is one block, sized by a first
    /// walk over the tags to the fields on the wire (not to the fields the
    /// descriptor declares, most of which a record often leaves unset);
    /// then each string, bytes or nested value is its own, and an unknown
    /// field is a copy of its payload.
    pub fn decode(
        descriptor: Arc<MessageDescriptor>,
        pool: &DescriptorPool,
        data: &[u8],
    ) -> Result<Self> {
        Self::decode_with(descriptor, data, |field, payload| {
            decode_value(field, pool, payload)
        })
    }

    /// [`decode`](Self::decode), with `value` making the value of each
    /// field the descriptor knows (with the field's wire type) from the
    /// field and its payload, in wire order.
    pub(crate) fn decode_with(
        descriptor: Arc<MessageDescriptor>,
        mut data: &[u8],
        mut value: impl FnMut(&FieldDescriptor, &[u8]) -> Result<Value>,
    ) -> Result<Self> {
        let mut msg = DynamicMessage::new(descriptor.clone());
        msg.fields.reserve_exact(fields_on_wire(data)?);
        // The singular fields whose latest occurrence so far is malformed.
        let mut malformed: Vec<(u32, Error)> = Vec::new();
        while !data.is_empty() {
            let (number, wire_type, n) = get_tag(data)?;
            data = &data[n..];
            let (payload, consumed) = field_payload(data, wire_type)?;
            match descriptor.field_by_number(number) {
                Some(field) if field.field_type.wire_type() == wire_type => {
                    let value = value(field, &data[payload]);
                    if field.is_repeated() {
                        msg.append(field.number, value?);
                    } else {
                        malformed.retain(|(n, _)| *n != number);
                        match value {
                            Ok(value) => msg.put(field.number, FieldValue::Single(value)),
                            Err(e) => malformed.push((number, e)),
                        }
                    }
                }
                // Unknown field (or wire-type mismatch from an evolved
                // schema): preserve the raw bytes.
                _ => msg.unknown.push(UnknownField {
                    number,
                    wire_type,
                    data: data[..consumed].to_vec(),
                }),
            }
            data = &data[consumed..];
        }
        match malformed.into_iter().next() {
            Some((_, e)) => Err(e),
            None => Ok(msg),
        }
    }
}

/// How many fields `data` holds: a walk over its tags, skipping each
/// payload. A field number that appears twice counts twice, so this is an
/// upper bound on the entries decoding makes.
fn fields_on_wire(mut data: &[u8]) -> Result<usize> {
    let mut fields = 0;
    while !data.is_empty() {
        let (_, wire_type, n) = get_tag(data)?;
        data = &data[n..];
        data = &data[skip_field(data, wire_type)?..];
        fields += 1;
    }
    Ok(fields)
}

fn encode_value(out: &mut Vec<u8>, field: &FieldDescriptor, value: &Value) {
    let wt = field.field_type.wire_type();
    put_tag(out, field.number, wt);
    match (&field.field_type, value) {
        (FieldType::Int32, Value::I32(v)) => put_varint(out, *v as i64 as u64),
        (FieldType::Int64, Value::I64(v)) => put_varint(out, *v as u64),
        (FieldType::SInt32, Value::I32(v)) => put_varint(out, zigzag_encode(i64::from(*v))),
        (FieldType::SInt64, Value::I64(v)) => put_varint(out, zigzag_encode(*v)),
        (FieldType::UInt32, Value::U32(v)) => put_varint(out, u64::from(*v)),
        (FieldType::UInt64, Value::U64(v)) => put_varint(out, *v),
        (FieldType::Bool, Value::Bool(v)) => put_varint(out, u64::from(*v)),
        (FieldType::Enum(_), Value::Enum(v)) => put_varint(out, *v as i64 as u64),
        (FieldType::Fixed32, Value::U32(v)) => out.extend_from_slice(&v.to_le_bytes()),
        (FieldType::SFixed32, Value::I32(v)) => out.extend_from_slice(&v.to_le_bytes()),
        (FieldType::Float, Value::F32(v)) => out.extend_from_slice(&v.to_le_bytes()),
        (FieldType::Fixed64, Value::U64(v)) => out.extend_from_slice(&v.to_le_bytes()),
        (FieldType::SFixed64, Value::I64(v)) => out.extend_from_slice(&v.to_le_bytes()),
        (FieldType::Double, Value::F64(v)) => out.extend_from_slice(&v.to_le_bytes()),
        (FieldType::String, Value::String(v)) => put_len_delimited(out, v.as_bytes()),
        (FieldType::Bytes, Value::Bytes(v)) => put_len_delimited(out, v),
        (FieldType::Message(_), Value::Message(m)) => {
            put_varint(out, m.encoded_len() as u64);
            m.encode_into(out);
        }
        (ft, v) => unreachable!("type-checked insert allowed {v:?} into {ft:?}"),
    }
}

/// The number of bytes `encode_value` appends.
fn value_len(field: &FieldDescriptor, value: &Value) -> usize {
    let payload = match (&field.field_type, value) {
        (FieldType::Int32, Value::I32(v)) => varint_len(*v as i64 as u64),
        (FieldType::SInt32, Value::I32(v)) => varint_len(zigzag_encode(i64::from(*v))),
        (FieldType::Int64, Value::I64(v)) => varint_len(*v as u64),
        (FieldType::SInt64, Value::I64(v)) => varint_len(zigzag_encode(*v)),
        (FieldType::UInt32, Value::U32(v)) => varint_len(u64::from(*v)),
        (FieldType::UInt64, Value::U64(v)) => varint_len(*v),
        (FieldType::Bool, Value::Bool(_)) => 1,
        (FieldType::Enum(_), Value::Enum(v)) => varint_len(*v as i64 as u64),
        (FieldType::Fixed32 | FieldType::SFixed32 | FieldType::Float, _) => 4,
        (FieldType::Fixed64 | FieldType::SFixed64 | FieldType::Double, _) => 8,
        (FieldType::String, Value::String(v)) => len_delimited_len(v.len()),
        (FieldType::Bytes, Value::Bytes(v)) => len_delimited_len(v.len()),
        (FieldType::Message(_), Value::Message(m)) => len_delimited_len(m.encoded_len()),
        (ft, v) => unreachable!("type-checked insert allowed {v:?} into {ft:?}"),
    };
    tag_len(field.number, field.field_type.wire_type()) + payload
}

fn tag_len(field_number: u32, wire_type: u8) -> usize {
    varint_len((u64::from(field_number) << 3) | u64::from(wire_type))
}

fn len_delimited_len(len: usize) -> usize {
    varint_len(len as u64) + len
}

/// The value of `field` from its payload (as `field_payload` finds it).
pub(crate) fn decode_value(
    field: &FieldDescriptor,
    pool: &DescriptorPool,
    payload: &[u8],
) -> Result<Value> {
    match &field.field_type {
        FieldType::Message(type_name) => {
            let nested_desc = pool
                .message(type_name)
                .ok_or_else(|| Error::Decode(format!("unknown nested type {type_name}")))?;
            Ok(Value::Message(DynamicMessage::decode(
                nested_desc,
                pool,
                payload,
            )?))
        }
        scalar => Ok(ValueRef::decode(scalar, payload)?.to_value()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::{FieldLabel, MessageDescriptor};
    use crate::wire::{WIRE_64BIT, WIRE_LEN};

    /// The paper's Figure 4 example message.
    fn example_pool() -> DescriptorPool {
        let mut pool = DescriptorPool::new();
        pool.add_message(
            MessageDescriptor::new(
                "Example.Nested",
                vec![
                    FieldDescriptor::optional("a", 1, FieldType::Int64),
                    FieldDescriptor::optional("b", 2, FieldType::String),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        pool.add_message(
            MessageDescriptor::new(
                "Example",
                vec![
                    FieldDescriptor::optional("id", 1, FieldType::Int64),
                    FieldDescriptor::repeated("elem", 2, FieldType::String),
                    FieldDescriptor::optional(
                        "parent",
                        3,
                        FieldType::Message("Example.Nested".into()),
                    ),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        pool.validate().unwrap();
        pool
    }

    fn example_message(pool: &DescriptorPool) -> DynamicMessage {
        let mut nested = DynamicMessage::new(pool.message("Example.Nested").unwrap());
        nested.set("a", 1415i64).unwrap();
        nested.set("b", "child").unwrap();
        let mut msg = DynamicMessage::new(pool.message("Example").unwrap());
        msg.set("id", 1066i64).unwrap();
        msg.push("elem", "first").unwrap();
        msg.push("elem", "second").unwrap();
        msg.push("elem", "third").unwrap();
        msg.set("parent", nested).unwrap();
        msg
    }

    #[test]
    fn paper_figure4_roundtrip() {
        let pool = example_pool();
        let msg = example_message(&pool);
        let bytes = msg.encode();
        assert_eq!(msg.encoded_len(), bytes.len());
        let back = DynamicMessage::decode(pool.message("Example").unwrap(), &pool, &bytes).unwrap();
        assert_eq!(back.get("id").unwrap().as_i64(), Some(1066));
        let elems: Vec<_> = back
            .get_repeated("elem")
            .iter()
            .map(|v| v.as_str().unwrap().to_string())
            .collect();
        assert_eq!(elems, vec!["first", "second", "third"]);
        let parent = back.get("parent").unwrap().as_message().unwrap();
        assert_eq!(parent.get("a").unwrap().as_i64(), Some(1415));
        assert_eq!(parent.get("b").unwrap().as_str(), Some("child"));
        assert_eq!(msg, back);
    }

    #[test]
    fn type_mismatch_rejected() {
        let pool = example_pool();
        let mut msg = DynamicMessage::new(pool.message("Example").unwrap());
        assert!(matches!(
            msg.set("id", "nope"),
            Err(Error::TypeMismatch { .. })
        ));
        assert!(matches!(
            msg.set("missing", 1i64),
            Err(Error::UnknownField(_))
        ));
        // set on repeated / push on singular rejected.
        assert!(msg.set("elem", "x").is_err());
        assert!(msg.push("id", 1i64).is_err());
    }

    #[test]
    fn defaults_for_unset_fields() {
        let pool = example_pool();
        let msg = DynamicMessage::new(pool.message("Example").unwrap());
        assert_eq!(msg.get("id"), None);
        assert_eq!(msg.get_or_default("id"), Some(Value::I64(0)));
        assert!(msg.get_repeated("elem").is_empty());
        assert!(!msg.has("id"));
    }

    #[test]
    fn unknown_fields_preserved_across_reencode() {
        // New schema writes a field the old schema doesn't know; the old
        // reader must carry it through (§5 schema evolution).
        let mut new_pool = DescriptorPool::new();
        new_pool
            .add_message(
                MessageDescriptor::new(
                    "T",
                    vec![
                        FieldDescriptor::optional("x", 1, FieldType::Int64),
                        FieldDescriptor::optional("added", 9, FieldType::String),
                    ],
                )
                .unwrap(),
            )
            .unwrap();
        let mut old_pool = DescriptorPool::new();
        old_pool
            .add_message(
                MessageDescriptor::new(
                    "T",
                    vec![FieldDescriptor::optional("x", 1, FieldType::Int64)],
                )
                .unwrap(),
            )
            .unwrap();

        let mut written = DynamicMessage::new(new_pool.message("T").unwrap());
        written.set("x", 7i64).unwrap();
        written.set("added", "future data").unwrap();
        let bytes = written.encode();

        // Old reader decodes: new field lands in unknowns.
        let old_read =
            DynamicMessage::decode(old_pool.message("T").unwrap(), &old_pool, &bytes).unwrap();
        assert_eq!(old_read.get("x").unwrap().as_i64(), Some(7));
        assert_eq!(old_read.unknown_field_count(), 1);

        // Old reader re-encodes; new reader still sees the added field.
        let reencoded = old_read.encode();
        assert_eq!(old_read.encoded_len(), reencoded.len());
        let new_read =
            DynamicMessage::decode(new_pool.message("T").unwrap(), &new_pool, &reencoded).unwrap();
        assert_eq!(new_read.get("added").unwrap().as_str(), Some("future data"));
    }

    #[test]
    fn new_fields_read_as_unset_from_old_records() {
        // Old schema wrote the record; a reader with the evolved schema
        // sees the added field as unset (§5).
        let mut old_pool = DescriptorPool::new();
        old_pool
            .add_message(
                MessageDescriptor::new(
                    "T",
                    vec![FieldDescriptor::optional("x", 1, FieldType::Int64)],
                )
                .unwrap(),
            )
            .unwrap();
        let mut new_pool = DescriptorPool::new();
        new_pool
            .add_message(
                MessageDescriptor::new(
                    "T",
                    vec![
                        FieldDescriptor::optional("x", 1, FieldType::Int64),
                        FieldDescriptor::optional("added", 2, FieldType::String),
                    ],
                )
                .unwrap(),
            )
            .unwrap();
        let mut old_msg = DynamicMessage::new(old_pool.message("T").unwrap());
        old_msg.set("x", 1i64).unwrap();
        let decoded =
            DynamicMessage::decode(new_pool.message("T").unwrap(), &new_pool, &old_msg.encode())
                .unwrap();
        assert!(!decoded.has("added"));
        assert_eq!(
            decoded.get_or_default("added"),
            Some(Value::String(String::new()))
        );
    }

    #[test]
    fn all_scalar_types_roundtrip() {
        let mut pool = DescriptorPool::new();
        pool.add_message(
            MessageDescriptor::new(
                "S",
                vec![
                    FieldDescriptor::optional("i32", 1, FieldType::Int32),
                    FieldDescriptor::optional("i64", 2, FieldType::Int64),
                    FieldDescriptor::optional("u32", 3, FieldType::UInt32),
                    FieldDescriptor::optional("u64", 4, FieldType::UInt64),
                    FieldDescriptor::optional("s32", 5, FieldType::SInt32),
                    FieldDescriptor::optional("s64", 6, FieldType::SInt64),
                    FieldDescriptor::optional("f32", 7, FieldType::Fixed32),
                    FieldDescriptor::optional("f64", 8, FieldType::Fixed64),
                    FieldDescriptor::optional("sf32", 9, FieldType::SFixed32),
                    FieldDescriptor::optional("sf64", 10, FieldType::SFixed64),
                    FieldDescriptor::optional("fl", 11, FieldType::Float),
                    FieldDescriptor::optional("db", 12, FieldType::Double),
                    FieldDescriptor::optional("b", 13, FieldType::Bool),
                    FieldDescriptor::optional("s", 14, FieldType::String),
                    FieldDescriptor::optional("by", 15, FieldType::Bytes),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        let mut m = DynamicMessage::new(pool.message("S").unwrap());
        m.set("i32", -42i32).unwrap();
        m.set("i64", i64::MIN).unwrap();
        m.set("u32", u32::MAX).unwrap();
        m.set("u64", u64::MAX).unwrap();
        m.set("s32", -99i32).unwrap();
        m.set("s64", -1_000_000i64).unwrap();
        m.set("f32", 7u32).unwrap();
        m.set("f64", 8u64).unwrap();
        m.set("sf32", -7i32).unwrap();
        m.set("sf64", -8i64).unwrap();
        m.set("fl", 1.5f32).unwrap();
        m.set("db", -2.75f64).unwrap();
        m.set("b", true).unwrap();
        m.set("s", "héllo").unwrap();
        m.set("by", b"\x00\x01\xFF".as_slice()).unwrap();
        assert_eq!(m.encoded_len(), m.encode().len());
        let back = DynamicMessage::decode(pool.message("S").unwrap(), &pool, &m.encode()).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn negative_int32_uses_ten_byte_varint() {
        // Protobuf quirk: int32 negatives sign-extend to 64 bits.
        let mut pool = DescriptorPool::new();
        pool.add_message(
            MessageDescriptor::new(
                "N",
                vec![FieldDescriptor::optional("v", 1, FieldType::Int32)],
            )
            .unwrap(),
        )
        .unwrap();
        let mut m = DynamicMessage::new(pool.message("N").unwrap());
        m.set("v", -1i32).unwrap();
        let bytes = m.encode();
        assert_eq!(bytes.len(), 1 + 10); // tag + 10-byte varint
        let back = DynamicMessage::decode(pool.message("N").unwrap(), &pool, &bytes).unwrap();
        assert_eq!(back.get("v").unwrap(), &Value::I32(-1));
    }

    #[test]
    fn repeated_label_helpers() {
        let d = FieldDescriptor::repeated("r", 1, FieldType::Int64);
        assert!(d.is_repeated());
        assert_eq!(d.label, FieldLabel::Repeated);
    }

    #[test]
    fn decode_rejects_truncation() {
        let pool = example_pool();
        let msg = example_message(&pool);
        let bytes = msg.encode();
        let truncated = &bytes[..bytes.len() - 1];
        assert!(
            DynamicMessage::decode(pool.message("Example").unwrap(), &pool, truncated).is_err()
        );
    }

    /// The field storage the sorted `Vec` replaced, as the model of the
    /// differential below: a map from field number to value, encoded in
    /// number order, unknown fields after.
    #[derive(Default)]
    struct MapModel {
        fields: std::collections::BTreeMap<u32, FieldValue>,
        unknown: Vec<(u32, u8, Vec<u8>)>,
    }

    impl MapModel {
        fn encode(&self, desc: &MessageDescriptor) -> Vec<u8> {
            let mut out = Vec::new();
            for (number, value) in &self.fields {
                let field = desc.field_by_number(*number).unwrap();
                match value {
                    FieldValue::Single(v) => encode_value(&mut out, field, v),
                    FieldValue::Repeated(vs) => {
                        vs.iter().for_each(|v| encode_value(&mut out, field, v))
                    }
                }
            }
            for (number, wire_type, data) in &self.unknown {
                put_tag(&mut out, *number, *wire_type);
                out.extend_from_slice(data);
            }
            out
        }

        /// Take one field as decoding does: a singular value replaces, a
        /// repeated one appends.
        fn take(&mut self, field: &FieldDescriptor, value: Value) {
            if field.is_repeated() {
                let entry = self.fields.entry(field.number);
                match entry.or_insert_with(|| FieldValue::Repeated(Vec::new())) {
                    FieldValue::Repeated(values) => values.push(value),
                    FieldValue::Single(_) => unreachable!(),
                }
            } else {
                self.fields.insert(field.number, FieldValue::Single(value));
            }
        }
    }

    /// Seeded differential of the sorted field `Vec` against a
    /// `BTreeMap` model, through the setters and through decoding. The
    /// generator reaches each of these, and the test asserts that every
    /// one occurs:
    ///
    /// * a `set` of a number below one already set (an insert before the
    ///   end);
    /// * a `set` that overwrites;
    /// * a `clear_field` of a set field;
    /// * a repeated field holding several values from `push`;
    /// * a decode of fields out of number order on the wire, of a singular
    ///   field twice (the last wins), and of a repeated field split by
    ///   another field;
    /// * unknown fields on the wire (a number the descriptor lacks, and a
    ///   known number with another wire type), kept in wire order.
    ///
    /// After every step the message's values and `encode()` bytes equal
    /// the model's, and decoding those bytes gives the message back.
    #[test]
    fn sorted_field_vec_matches_the_map_model() {
        let mut pool = DescriptorPool::new();
        let declared = vec![
            FieldDescriptor::optional("a", 1, FieldType::Int64),
            FieldDescriptor::optional("b", 2, FieldType::String),
            FieldDescriptor::repeated("r", 4, FieldType::String),
            FieldDescriptor::optional("c", 6, FieldType::Bool),
            FieldDescriptor::repeated("s", 9, FieldType::Int64),
            FieldDescriptor::optional("d", 13, FieldType::Bytes),
        ];
        let desc = MessageDescriptor::new("M", declared.clone()).unwrap();
        pool.add_message(desc).unwrap();
        let desc = pool.message("M").unwrap();
        let mut rng = 0x0DD_F1E1D5_u64;
        let mut next = |n: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % n as u64) as usize
        };
        let value = |field: &FieldDescriptor, r: usize| match field.field_type {
            FieldType::Int64 => Value::I64(r as i64 - 500),
            FieldType::String => Value::String(format!("v{r}")),
            FieldType::Bool => Value::Bool(r.is_multiple_of(2)),
            _ => Value::Bytes(vec![r as u8; r % 4]),
        };
        let check = |msg: &DynamicMessage, model: &MapModel, what: &str| {
            assert_eq!(msg.encode(), model.encode(&desc), "{what}");
            assert_eq!(msg.encoded_len(), msg.encode().len(), "{what}");
            for field in &declared {
                let expected = model.fields.get(&field.number);
                match field.is_repeated() {
                    true => {
                        let values = match expected {
                            Some(FieldValue::Repeated(vs)) => vs.as_slice(),
                            _ => &[],
                        };
                        assert_eq!(msg.get_repeated(&field.name), values, "{what}");
                    }
                    false => {
                        let value = match expected {
                            Some(FieldValue::Single(v)) => Some(v),
                            _ => None,
                        };
                        assert_eq!(msg.get(&field.name), value, "{what}");
                    }
                }
                assert_eq!(msg.has(&field.name), expected.is_some(), "{what}");
            }
            assert_eq!(msg.unknown_field_count(), model.unknown.len(), "{what}");
            let back = DynamicMessage::decode(desc.clone(), &pool, &msg.encode()).unwrap();
            assert_eq!(&back, msg, "{what}");
        };
        let mut seen = [false; 8];
        const CASES: [&str; 8] = [
            "set below a set number",
            "set that overwrites",
            "clear_field of a set field",
            "repeated field with several values",
            "wire out of number order",
            "singular field twice on the wire",
            "repeated field split on the wire",
            "unknown fields kept",
        ];
        for case in 0..400 {
            // Through the setters.
            let (mut msg, mut model) = (DynamicMessage::new(desc.clone()), MapModel::default());
            for step in 0..next(12) {
                let field = &declared[next(declared.len())];
                let what = format!("case {case} step {step} on {}", field.name);
                if next(5) == 0 {
                    seen[2] |= model.fields.remove(&field.number).is_some();
                    msg.clear_field(&field.name).unwrap();
                } else if field.is_repeated() {
                    let v = value(field, next(1000));
                    msg.push(&field.name, v.clone()).unwrap();
                    model.take(field, v);
                    seen[3] |= msg.get_repeated(&field.name).len() > 1;
                } else {
                    let v = value(field, next(1000));
                    seen[0] |= model.fields.keys().any(|&n| n > field.number);
                    seen[1] |= model.fields.contains_key(&field.number);
                    msg.set(&field.name, v.clone()).unwrap();
                    model.take(field, v);
                }
                check(&msg, &model, &what);
            }

            // Through decoding: fields in random order, some repeated, and
            // unknown ones.
            let (mut wire, mut model, mut numbers) = (Vec::new(), MapModel::default(), Vec::new());
            for _ in 0..next(10) {
                match next(8) {
                    0 => {
                        let (number, payload) = (20 + next(3) as u32, vec![next(256) as u8; 3]);
                        put_tag(&mut wire, number, WIRE_LEN);
                        let at = wire.len();
                        put_len_delimited(&mut wire, &payload);
                        model.unknown.push((number, WIRE_LEN, wire[at..].to_vec()));
                    }
                    1 => {
                        // `a` is a varint field; as fixed64 it is unknown.
                        put_tag(&mut wire, 1, WIRE_64BIT);
                        let data = (next(1000) as u64).to_le_bytes();
                        wire.extend_from_slice(&data);
                        model.unknown.push((1, WIRE_64BIT, data.to_vec()));
                    }
                    _ => {
                        let field = &declared[next(declared.len())];
                        let v = value(field, next(1000));
                        encode_value(&mut wire, field, &v);
                        numbers.push(field.number);
                        model.take(field, v);
                    }
                }
            }
            let decoded = DynamicMessage::decode(desc.clone(), &pool, &wire).unwrap();
            check(&decoded, &model, &format!("case {case} decoding {wire:x?}"));
            seen[4] |= numbers.windows(2).any(|w| w[0] > w[1]);
            for (i, &n) in numbers.iter().enumerate() {
                let again = numbers[i + 1..].iter().position(|&m| m == n);
                let repeated = desc.field_by_number(n).unwrap().is_repeated();
                seen[5] |= again.is_some() && !repeated;
                seen[6] |= again.is_some_and(|gap| gap > 0) && repeated;
            }
            seen[7] |= !model.unknown.is_empty() && !model.fields.is_empty();
        }
        let missing: Vec<_> = CASES.iter().zip(seen).filter(|(_, hit)| !hit).collect();
        assert!(missing.is_empty(), "cases never generated: {missing:?}");
    }

    #[test]
    fn clear_field_removes_value() {
        let pool = example_pool();
        let mut msg = example_message(&pool);
        assert!(msg.has("id"));
        msg.clear_field("id").unwrap();
        assert!(!msg.has("id"));
        assert!(msg.clear_field("bogus").is_err());
    }
}
