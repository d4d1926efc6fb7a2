//! A fetched record ≡ `DynamicMessage::decode`: seeded wire bytes, written
//! straight into a store's record subspace under the plain serializer's
//! envelope, then fetched (`load_record`, which keeps the bytes and
//! decodes a field only when it is read) and decoded by `DynamicMessage`.
//! Where the decode succeeds, the fetched record must give every field the
//! same value through `message.get`, the same values through its
//! `FieldSource` (nested messages read the same way, recursively), the
//! same full message from `to_message` and `into_message`, and its stored
//! wire bytes from `message.encode()`. Where the decode fails, the fetch
//! must fail with an error, or the fetched record's field reads and its
//! full decode must all fail with one, and no read of it may panic. A
//! singular field twice on the wire follows one rule both ways: the last
//! occurrence wins, and a malformed occurrence it supersedes is no error.
//!
//! The wire bytes are built field by field, not by `encode()`, so they
//! reach what a writer with another schema or a broken writer leaves. The
//! test asserts that each of these generator cases occurs:
//!
//! * a nested message, singular or repeated (`nested`);
//! * a repeated field with several values (`repeated`);
//! * a field number the schema does not declare (`unknown`);
//! * a declared field on the wire with another wire type
//!   (`wrong_wire_type`);
//! * a singular field twice on the wire, so the last must win
//!   (`duplicate_singular`);
//! * a tag cut short at the end of the bytes (`truncated_tag`);
//! * a length that runs past the end of the bytes (`truncated_length`);
//! * a string field whose bytes are not UTF-8 (`invalid_utf8`);
//! * such a string that a later occurrence of its singular field
//!   supersedes, so that both readers accept the record
//!   (`superseded_invalid_utf8`).

use std::collections::BTreeSet;
use std::ops::ControlFlow;

use record_layer::expr::KeyExpression;
use record_layer::metadata::{RecordMetaData, RecordMetaDataBuilder};
use record_layer::store::{RecordStore, StoredRecord};
use rl_fdb::subspace::Subspace;
use rl_fdb::tuple::Tuple;
use rl_fdb::{Database, Transaction};
use rl_harness::rng::{Rng, XorShift64};
use rl_message::wire::{put_len_delimited, put_tag, put_varint, WIRE_64BIT, WIRE_LEN, WIRE_VARINT};
use rl_message::{
    DescriptorPool, DynamicMessage, FieldDescriptor, FieldRef, FieldSource, FieldType,
    MessageDescriptor, Value,
};

const CASES: i64 = 800;

fn metadata() -> RecordMetaData {
    let mut pool = DescriptorPool::new();
    pool.add_message(
        MessageDescriptor::new(
            "Inner",
            vec![
                FieldDescriptor::optional("a", 1, FieldType::Int64),
                FieldDescriptor::optional("b", 2, FieldType::String),
                FieldDescriptor::repeated("c", 3, FieldType::SInt32),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    pool.add_message(
        MessageDescriptor::new(
            "Rec",
            vec![
                FieldDescriptor::optional("id", 1, FieldType::Int64),
                FieldDescriptor::optional("name", 2, FieldType::String),
                FieldDescriptor::optional("score", 3, FieldType::SInt32),
                FieldDescriptor::optional("ratio", 4, FieldType::Double),
                FieldDescriptor::optional("flag", 5, FieldType::Bool),
                FieldDescriptor::optional("blob", 6, FieldType::Bytes),
                FieldDescriptor::repeated("tags", 7, FieldType::String),
                FieldDescriptor::repeated("nums", 8, FieldType::Int64),
                FieldDescriptor::optional("inner", 9, FieldType::Message("Inner".into())),
                FieldDescriptor::repeated("inners", 10, FieldType::Message("Inner".into())),
                FieldDescriptor::optional("small", 11, FieldType::Float),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    RecordMetaDataBuilder::new(pool)
        .record_type("Rec", KeyExpression::field("id"))
        .build()
        .unwrap()
}

/// What the generator reached, by case name.
#[derive(Default)]
struct Seen(BTreeSet<&'static str>);

/// One field on the wire: its tag, then `value` as its wire type wants.
fn field(number: u32, value: &Value) -> Vec<u8> {
    let mut wire = Vec::new();
    match value {
        Value::I64(v) => {
            put_tag(&mut wire, number, WIRE_VARINT);
            put_varint(&mut wire, *v as u64);
        }
        Value::I32(v) => {
            put_tag(&mut wire, number, WIRE_VARINT);
            put_varint(&mut wire, rl_message::wire::zigzag_encode(i64::from(*v)));
        }
        Value::Bool(v) => {
            put_tag(&mut wire, number, WIRE_VARINT);
            put_varint(&mut wire, u64::from(*v));
        }
        Value::F64(v) => {
            put_tag(&mut wire, number, WIRE_64BIT);
            wire.extend_from_slice(&v.to_le_bytes());
        }
        Value::F32(v) => {
            put_tag(&mut wire, number, rl_message::wire::WIRE_32BIT);
            wire.extend_from_slice(&v.to_le_bytes());
        }
        Value::String(v) => {
            put_tag(&mut wire, number, WIRE_LEN);
            put_len_delimited(&mut wire, v.as_bytes());
        }
        Value::Bytes(v) => {
            put_tag(&mut wire, number, WIRE_LEN);
            put_len_delimited(&mut wire, v);
        }
        other => unreachable!("{other:?}"),
    }
    wire
}

/// A string field whose bytes are not UTF-8, now and then.
fn string_field(number: u32, text: String, rng: &mut XorShift64, seen: &mut Seen) -> Vec<u8> {
    if rng.gen_range(0..40u32) > 0 {
        return field(number, &Value::String(text));
    }
    seen.0.insert("invalid_utf8");
    field(number, &Value::Bytes(vec![b'x', 0xFF, 0xFE]))
}

/// A seeded `Inner` on the wire.
fn inner_wire(rng: &mut XorShift64, seen: &mut Seen) -> Vec<u8> {
    let mut wire = Vec::new();
    if rng.gen_range(0..3u32) > 0 {
        wire.extend(field(1, &Value::I64(rng.gen_range(0..4i64))));
    }
    if rng.gen_range(0..2u32) > 0 {
        let b = format!("b{}", rng.gen_range(0..3u32));
        wire.extend(string_field(2, b, rng, seen));
    }
    for _ in 0..rng.gen_range(0..3usize) {
        wire.extend(field(3, &Value::I32(rng.gen_range(0..5i32) - 2)));
    }
    wire
}

/// A seeded `Rec` on the wire: each field present or absent, some twice,
/// in a shuffled order, with unknown and wrongly typed fields mixed in,
/// and now and then cut short.
fn rec_wire(desc: &MessageDescriptor, rng: &mut XorShift64, seen: &mut Seen) -> Vec<u8> {
    let mut fields: Vec<Vec<u8>> = Vec::new();
    for fd in desc.fields() {
        let times = match rng.gen_range(0..6u32) {
            0 | 1 => 0,
            2..=4 => 1,
            _ => 2 + rng.gen_range(0..2usize),
        };
        for _ in 0..times {
            let wire = match fd.name.as_str() {
                "inner" | "inners" => {
                    seen.0.insert("nested");
                    let mut wire = Vec::new();
                    put_tag(&mut wire, fd.number, WIRE_LEN);
                    put_len_delimited(&mut wire, &inner_wire(rng, seen));
                    wire
                }
                "name" | "tags" => {
                    let text = format!("{}{}", fd.name, rng.gen_range(0..4u32));
                    string_field(fd.number, text, rng, seen)
                }
                name => {
                    let value = match name {
                        "id" => Value::I64(rng.gen_range(0..100i64)),
                        "score" => Value::I32(rng.gen_range(0..5i32) - 2),
                        "ratio" => Value::F64([0.0, 0.5, -1.5][rng.gen_range(0..3usize)]),
                        "flag" => Value::Bool(rng.gen_range(0..2u32) == 1),
                        "blob" => {
                            Value::Bytes(vec![0x00, 0xFF][..rng.gen_range(0..3usize)].to_vec())
                        }
                        "nums" => Value::I64(rng.gen_range(0..5i64) - 2),
                        "small" => Value::F32([0.25f32, -0.0][rng.gen_range(0..2usize)]),
                        other => unreachable!("{other}"),
                    };
                    field(fd.number, &value)
                }
            };
            fields.push(wire);
        }
        match times {
            0 | 1 => {}
            _ if fd.is_repeated() => {
                seen.0.insert("repeated");
            }
            _ => {
                seen.0.insert("duplicate_singular");
            }
        }
    }
    for _ in 0..rng.gen_range(0..3usize) {
        let mut wire = Vec::new();
        if rng.gen_range(0..2u32) == 0 {
            seen.0.insert("unknown");
            put_tag(&mut wire, 20 + rng.gen_range(0..3u32), WIRE_VARINT);
            put_varint(&mut wire, rng.gen_range(0..1000u64));
        } else {
            // `id` is a varint and `name` length-delimited: as fixed64 or
            // varint they are fields of another schema.
            seen.0.insert("wrong_wire_type");
            match rng.gen_range(0..2u32) {
                0 => {
                    put_tag(&mut wire, 1, WIRE_64BIT);
                    wire.extend_from_slice(&rng.next_u64().to_le_bytes());
                }
                _ => {
                    put_tag(&mut wire, 2, WIRE_VARINT);
                    put_varint(&mut wire, rng.gen_range(0..9u64));
                }
            }
        }
        fields.push(wire);
    }
    for i in (1..fields.len()).rev() {
        fields.swap(i, rng.gen_range(0..=i));
    }
    let mut wire = fields.concat();
    match rng.gen_range(0..30u32) {
        0 => {
            // A varint tag whose continuation bit promises another byte.
            seen.0.insert("truncated_tag");
            wire.push(0x80);
        }
        1 => {
            // `blob` promising more bytes than follow.
            seen.0.insert("truncated_length");
            put_tag(&mut wire, 6, WIRE_LEN);
            put_varint(&mut wire, 9);
            wire.extend_from_slice(b"abc");
        }
        _ => {}
    }
    wire
}

/// A value read through a `FieldSource`, nested messages read on.
#[derive(Debug, PartialEq)]
enum Read {
    Value(Value),
    Message(Vec<(String, Vec<Read>)>),
}

/// Every field of `source`'s type with the values its `FieldSource` hands
/// out, or the first error.
fn read_all(source: &dyn FieldSource) -> Result<Vec<(String, Vec<Read>)>, String> {
    let mut out = Vec::new();
    for fd in source.descriptor().fields() {
        let mut values = Vec::new();
        let mut failed = None;
        source
            .visit_field(fd, &mut |value| {
                match value {
                    FieldRef::Value(v) => values.push(Read::Value(v.to_value())),
                    FieldRef::Message(nested) => match read_all(nested) {
                        Ok(read) => values.push(Read::Message(read)),
                        Err(e) => failed = Some(e),
                    },
                }
                ControlFlow::Continue(())
            })
            .map_err(|e| e.to_string())?;
        if let Some(e) = failed {
            return Err(e);
        }
        out.push((fd.name.clone(), values));
    }
    Ok(out)
}

/// Write `wire` as the stored payload of record `id`: the plain
/// serializer's format byte, then the `(type, wire)` envelope, at
/// `S(1, id, 0)`.
fn put_record(tx: &Transaction, sub: &Subspace, id: i64, wire: &[u8]) {
    let mut stored = vec![b'P'];
    stored.extend(Tuple::new().push("Rec").push(wire.to_vec()).pack());
    let key = sub.pack(&Tuple::new().push(1i64).push(id).push(0i64));
    tx.set(&key, &stored);
}

/// The fetched record of `wire` against its decode.
fn check(record: &StoredRecord, decoded: &DynamicMessage, wire: &[u8], what: &str) {
    assert_eq!(record.record_type(), "Rec", "{what}");
    assert_eq!(record.message.encode(), wire, "{what}: stored bytes");
    // First the `FieldSource` reads (which decode nothing they keep), then
    // `get`, which keeps what it decodes, then both again.
    for _ in 0..2 {
        assert_eq!(read_all(record), read_all(decoded), "{what}: FieldSource");
        for fd in decoded.descriptor().fields() {
            assert_eq!(
                record.message.get(&fd.name),
                decoded.get(&fd.name),
                "{what}: get({})",
                fd.name
            );
            assert_eq!(
                record.get_value(&fd.name).map_err(|e| e.to_string()),
                decoded.get_value(&fd.name).map_err(|e| e.to_string()),
                "{what}: get_value({})",
                fd.name
            );
        }
    }
    assert_eq!(record.message.to_message().as_ref(), Ok(decoded), "{what}");
    assert_eq!(
        record.message.clone().into_message().as_ref(),
        Ok(decoded),
        "{what}"
    );
}

#[test]
fn fetched_records_read_as_their_decode() {
    let md = metadata();
    let desc = md.pool().message("Rec").unwrap();
    let db = Database::new();
    let sub = Subspace::from_tuple(&Tuple::new().push("fetched"));
    let mut rng = XorShift64::seed_from_u64(0xFE7C_4ED0);
    let mut seen = Seen::default();
    let wires: Vec<Vec<u8>> = (0..CASES)
        .map(|_| rec_wire(&desc, &mut rng, &mut seen))
        .collect();
    record_layer::run(&db, |tx| {
        RecordStore::open_or_create(tx, &sub, &md)?;
        for (id, wire) in wires.iter().enumerate() {
            put_record(tx, &sub, id as i64, wire);
        }
        Ok(())
    })
    .unwrap();

    let (mut decoded_ok, mut refused) = (0, 0);
    let tx = db.create_transaction();
    let store = RecordStore::open_or_create(&tx, &sub, &md).unwrap();
    for (id, wire) in wires.iter().enumerate() {
        let what = format!("case {id} {wire:x?}");
        let fetched = store.load_record(&Tuple::new().push(id as i64));
        match DynamicMessage::decode(desc.clone(), md.pool(), wire) {
            Ok(decoded) => {
                let record = fetched.unwrap_or_else(|e| panic!("{what}: {e}"));
                check(&record.expect("stored"), &decoded, wire, &what);
                if wire.windows(3).any(|w| w == b"x\xFF\xFE") {
                    seen.0.insert("superseded_invalid_utf8");
                }
                decoded_ok += 1;
            }
            Err(_) => {
                // The fetch refuses the bytes, or the record it returns
                // refuses its field reads and a full decode; reading what
                // it can never panics.
                if let Ok(Some(record)) = fetched {
                    assert!(read_all(&record).is_err(), "{what}: read as valid");
                    desc.fields().iter().for_each(|fd| {
                        let _ = (record.message.get(&fd.name), record.get_value(&fd.name));
                    });
                    assert!(record.message.to_message().is_err(), "{what}");
                    assert!(record.message.into_message().is_err(), "{what}");
                }
                refused += 1;
            }
        }
    }
    assert!(
        decoded_ok > CASES / 2 && refused > 0,
        "{decoded_ok} decoded, {refused} refused"
    );

    let expected = [
        "duplicate_singular",
        "invalid_utf8",
        "nested",
        "repeated",
        "superseded_invalid_utf8",
        "truncated_length",
        "truncated_tag",
        "unknown",
        "wrong_wire_type",
    ];
    let missing: Vec<_> = expected.iter().filter(|c| !seen.0.contains(*c)).collect();
    assert!(missing.is_empty(), "cases never generated: {missing:?}");
}
