//! A fetched record ≡ `DynamicMessage::decode`: seeded wire bytes, written
//! straight into a store's record subspace under the plain serializer's
//! envelope, then fetched (`load_record`, whose `WireMessage` keeps the
//! bytes and decodes a field only when it is read; a save and a delete read
//! the old record through the same reader) and decoded by `DynamicMessage`.
//!
//! Where the decode succeeds, the fetched record must give every field the
//! same value through `message.get`, the same values through its
//! `FieldSource` (nested messages read the same way, recursively), the
//! same full message from `to_message` and `into_message`, and its stored
//! wire bytes from `message.encode()`; and its `WireMessage` must give
//! every key expression the same packed entry bytes (and the same tuples,
//! or the same error) and every predicate the same verdict as the decoded
//! message. Where the decode fails, the fetch must fail with an error, or
//! the fetched record's field reads and its full decode must all fail with
//! one, and no read of it may panic. A singular field twice on the wire
//! follows one rule both ways: the last occurrence wins, and a malformed
//! occurrence it supersedes is no error.
//!
//! The test schema is `Rec`, with a nested `Inner` and one field of each
//! scalar kind; its key expressions are every shape the evaluator walks
//! (fields, fan-out and concatenated repeated fields, nests — singular and
//! fanned out — concatenations, record type, version, literal, grouping,
//! covering value, a client function, and the error shapes), beside the
//! benchmark `Item` schema's primary key and index expressions.
//!
//! The wire bytes are built field by field, not by `encode()`, so they
//! reach what a writer with another schema or a broken writer leaves. The
//! test asserts that each of these generator cases occurs:
//!
//! * a nested message, singular or repeated (`nested`);
//! * a repeated field with several values, so fan-out and concatenate have
//!   work (`repeated`);
//! * a field left absent (`absent`);
//! * a field number the schema does not declare (`unknown`);
//! * a declared field on the wire with another wire type
//!   (`wrong_wire_type`);
//! * a singular field twice on the wire, so the last must win
//!   (`duplicate_singular`);
//! * a bytes value holding a NUL, which the packing escapes
//!   (`nul_in_bytes`);
//! * a tag cut short at the end of the bytes (`truncated_tag`);
//! * a length that runs past the end of the bytes (`truncated_length`);
//! * a string field whose bytes are not UTF-8 (`invalid_utf8`);
//! * such a string that a later occurrence of its singular field
//!   supersedes, so that both readers accept the record
//!   (`superseded_invalid_utf8`).

use std::collections::BTreeSet;
use std::ops::ControlFlow;
use std::sync::Arc;

use record_layer::expr::{EvalContext, FanType, KeyExpression, PackedRows};
use record_layer::metadata::{Index, RecordMetaData, RecordMetaDataBuilder};
use record_layer::query::{Comparison, QueryComponent};
use record_layer::store::{RecordMessage, RecordStore, StoredRecord};
use rl_fdb::subspace::Subspace;
use rl_fdb::tuple::{Tuple, TupleElement};
use rl_fdb::version::Versionstamp;
use rl_fdb::{Database, Transaction};
use rl_harness::rng::{Rng, XorShift64};
use rl_message::wire::{put_len_delimited, put_tag, put_varint, WIRE_64BIT, WIRE_LEN, WIRE_VARINT};
use rl_message::{
    DescriptorPool, DynamicMessage, Error, FieldDescriptor, FieldRef, FieldSource, FieldType,
    MessageDescriptor, Value, WireMessage,
};

#[allow(dead_code)] // the allocation tests' helpers go unused here
mod items;

/// Seeded records fetched and read against their decode.
const CASES: i64 = 800;

/// Of those, the fewest that must decode, and so also be evaluated.
const EVALUATED: i64 = 600;

fn pool() -> DescriptorPool {
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
                FieldDescriptor::optional("big", 11, FieldType::UInt64),
                FieldDescriptor::optional("small", 12, FieldType::Float),
                FieldDescriptor::optional("fixed", 13, FieldType::Fixed32),
                FieldDescriptor::optional("signed", 14, FieldType::SFixed64),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    pool.validate().unwrap();
    pool
}

/// `Rec` keyed by `id`, with `indexes` (none for the differential, whose
/// records are written raw).
fn metadata(indexes: Vec<Index>) -> RecordMetaData {
    let mut builder =
        RecordMetaDataBuilder::new(pool()).record_type("Rec", KeyExpression::field("id"));
    for index in indexes {
        builder = builder.index("Rec", index);
    }
    builder.build().unwrap()
}

/// Every shape of key expression the evaluator walks, over `Rec`.
fn rec_expressions() -> Vec<KeyExpression> {
    use KeyExpression as K;
    let inners = |inner: K| K::Nest {
        field: "inners".into(),
        fan_type: FanType::Fanout,
        inner: Box::new(inner),
    };
    let mut expressions: Vec<K> = [
        "id", "name", "score", "ratio", "flag", "blob", "big", "small", "fixed", "signed",
    ]
    .into_iter()
    .map(K::field)
    .collect();
    expressions.extend([
        K::Empty,
        K::field_fanout("tags"),
        K::field_concat("tags"),
        K::field_fanout("nums"),
        K::field_concat("nums"),
        K::nest("inner", K::field("a")),
        K::nest(
            "inner",
            K::concat(vec![K::field("b"), K::field_fanout("c")]),
        ),
        K::nest("inner", K::field_concat("c")),
        inners(K::concat_fields("a", "b")),
        inners(K::field_fanout("c")),
        K::concat(vec![
            K::field("name"),
            K::field_fanout("tags"),
            K::field_fanout("nums"),
        ]),
        K::concat(vec![K::RecordTypeKey, K::field("id"), K::Version]),
        K::concat(vec![K::Literal("lit".into()), K::field("blob")]),
        K::concat_fields("name", "score").group_by(1),
        K::field_fanout("tags").group_by(0),
        K::field("name").with_value(K::concat_fields("blob", "ratio")),
        K::function("name_and_id", 2, |ctx| {
            let name = ctx.message.get_value("name")?;
            let id = ctx.message.get_value("id")?;
            let name = name.as_ref().and_then(Value::as_str).unwrap_or("-");
            let id = id.as_ref().and_then(Value::as_i64).unwrap_or(-1);
            Ok(vec![Tuple::new().push(name).push(id)])
        }),
        // Errors, which both sources must raise alike.
        K::field("inner"),
        K::field("tags"),
        K::nest("name", K::field("a")),
        K::nest("inners", K::field("a")),
    ]);
    expressions
}

/// Predicates over `Rec`: each comparison kind, nested paths, repeated
/// fields and the connectives.
fn rec_predicates() -> Vec<QueryComponent> {
    use Comparison as C;
    use QueryComponent as Q;
    vec![
        Q::field("id", C::LessThan(50i64.into())),
        Q::field("name", C::Equals("n1".into())),
        Q::field("name", C::StartsWith("n".into())),
        Q::field("name", C::IsNull),
        Q::field("blob", C::NotNull),
        Q::field("ratio", C::GreaterThanOrEquals(TupleElement::Double(0.5))),
        Q::field("flag", C::Equals(true.into())),
        Q::field(
            "score",
            C::In(vec![(-1i64).into(), 0i64.into(), 2i64.into()]),
        ),
        Q::field("big", C::NotNull),
        Q::field("tags", C::NotNull),
        Q::field("inner", C::NotNull),
        Q::nested(&["inner", "a"], C::GreaterThan(1i64.into())),
        Q::nested(&["inner", "b"], C::NotEquals("x".into())),
        Q::nested(&["name", "a"], C::IsNull),
        Q::one_of_them("tags", C::Equals("t2".into())),
        Q::one_of_them("nums", C::LessThanOrEquals(0i64.into())),
        Q::one_of_them("inners", C::NotNull),
        Q::and(vec![
            Q::field("flag", C::NotNull),
            Q::not(Q::field("id", C::Equals(3i64.into()))),
        ]),
        Q::or(vec![Q::RecordType("Rec".into()), Q::field("id", C::IsNull)]),
    ]
}

/// What the generator reached, by case name.
#[derive(Default)]
struct Seen(BTreeSet<&'static str>);

/// The wire bytes of `field` holding `value` alone: how a field is
/// appended to the generated records.
fn field_wire(desc: &Arc<MessageDescriptor>, field: &str, value: Value) -> Vec<u8> {
    let mut msg = DynamicMessage::new(desc.clone());
    match desc.field_by_name(field).unwrap().is_repeated() {
        true => msg.push(field, value).unwrap(),
        false => msg.set(field, value).unwrap(),
    }
    msg.encode()
}

/// The string field `field` holding `text`, or now and then bytes that are
/// not UTF-8.
fn string_wire(
    desc: &Arc<MessageDescriptor>,
    field: &str,
    text: String,
    rng: &mut XorShift64,
    seen: &mut Seen,
) -> Vec<u8> {
    if rng.gen_range(0..40u32) > 0 {
        return field_wire(desc, field, Value::String(text));
    }
    seen.0.insert("invalid_utf8");
    let mut wire = Vec::new();
    put_tag(
        &mut wire,
        desc.field_by_name(field).unwrap().number,
        WIRE_LEN,
    );
    put_len_delimited(&mut wire, b"x\xFF\xFE");
    wire
}

/// A seeded `Inner` on the wire.
fn inner_wire(pool: &DescriptorPool, rng: &mut XorShift64, seen: &mut Seen) -> Vec<u8> {
    let desc = pool.message("Inner").unwrap();
    let mut wire = Vec::new();
    if rng.gen_range(0..3u32) > 0 {
        wire.extend(field_wire(&desc, "a", Value::I64(rng.gen_range(0..4i64))));
    }
    if rng.gen_range(0..2u32) > 0 {
        let b = format!("b{}", rng.gen_range(0..3u32));
        wire.extend(string_wire(&desc, "b", b, rng, seen));
    }
    for _ in 0..rng.gen_range(0..3usize) {
        let c = Value::I32(rng.gen_range(0..5i32) - 2);
        wire.extend(field_wire(&desc, "c", c));
    }
    wire
}

/// A seeded `Rec` on the wire: each field present or absent, some twice,
/// in a shuffled order, with unknown and wrongly typed fields mixed in,
/// and now and then cut short.
fn rec_wire(pool: &DescriptorPool, rng: &mut XorShift64, seen: &mut Seen) -> Vec<u8> {
    let desc = pool.message("Rec").unwrap();
    let mut fields: Vec<Vec<u8>> = Vec::new();
    fn value(rng: &mut XorShift64, field: &str, seen: &mut Seen) -> Value {
        match field {
            "id" => Value::I64(rng.gen_range(0..100i64)),
            "score" => Value::I32(rng.gen_range(0..5i32) - 2),
            "ratio" => Value::F64([0.0, -0.0, 0.5, 1.5, f64::NAN][rng.gen_range(0..5usize)]),
            "flag" => Value::Bool(rng.gen_range(0..2u32) == 1),
            "blob" => {
                let blob: Vec<u8> = (0..rng.gen_range(0..6usize))
                    .map(|_| [0x00, 0x01, 0xFF, b'x'][rng.gen_range(0..4usize)])
                    .collect();
                if blob.contains(&0x00) {
                    seen.0.insert("nul_in_bytes");
                }
                Value::Bytes(blob)
            }
            "nums" => Value::I64(rng.gen_range(0..5i64) - 2),
            "big" => Value::U64([0, 7, u64::MAX][rng.gen_range(0..3usize)]),
            "small" => Value::F32([0.25f32, -0.0, f32::INFINITY][rng.gen_range(0..3usize)]),
            "fixed" => Value::U32(rng.gen_range(0..3u32)),
            "signed" => Value::I64(rng.gen_range(0..3i64) - 1),
            other => unreachable!("{other}"),
        }
    }
    for field in desc.fields() {
        let times = match rng.gen_range(0..6u32) {
            0 | 1 => 0,
            2..=4 => 1,
            _ => 2 + rng.gen_range(0..2usize),
        };
        for _ in 0..times {
            let wire = match field.name.as_str() {
                "inner" | "inners" => {
                    seen.0.insert("nested");
                    let mut wire = Vec::new();
                    put_tag(&mut wire, field.number, WIRE_LEN);
                    put_len_delimited(&mut wire, &inner_wire(pool, rng, seen));
                    wire
                }
                "name" => {
                    let text = format!("n{}", rng.gen_range(0..3u32));
                    string_wire(&desc, "name", text, rng, seen)
                }
                "tags" => {
                    let text = format!("t{}", rng.gen_range(0..4u32));
                    string_wire(&desc, "tags", text, rng, seen)
                }
                name => field_wire(&desc, name, value(rng, name, seen)),
            };
            fields.push(wire);
        }
        match times {
            0 => seen.0.insert("absent"),
            1 => false,
            _ if field.is_repeated() => seen.0.insert("repeated"),
            _ => seen.0.insert("duplicate_singular"),
        };
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
    // Any order is a valid wire: a repeated field's values keep theirs
    // relative to each other, whatever lies between them.
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

/// The fetched record's `WireMessage`.
fn wire_message(record: &StoredRecord) -> &WireMessage {
    match &record.message {
        RecordMessage::Stored(message) => message,
        RecordMessage::Built(_) => panic!("a fetch returned a built message"),
    }
}

/// `a` and `b` print alike: equal values, where a NaN (which `ratio`
/// holds now and then) equals itself.
fn same<T: std::fmt::Debug>(a: T, b: T, what: &str) {
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}");
}

/// The fetched record of `wire` reads as its decode.
fn check_reads(record: &StoredRecord, decoded: &DynamicMessage, wire: &[u8], what: &str) {
    assert_eq!(record.record_type(), "Rec", "{what}");
    assert_eq!(record.message.encode(), wire, "{what}: stored bytes");
    // First the `FieldSource` reads (which decode nothing they keep), then
    // `get`, which keeps what it decodes, then both again.
    for _ in 0..2 {
        same(
            read_all(record),
            read_all(decoded),
            &format!("{what}: FieldSource"),
        );
        for fd in decoded.descriptor().fields() {
            let name = &fd.name;
            let got = (record.message.get(name), decoded.get(name));
            same(got.0, got.1, &format!("{what}: get({name})"));
            let got = (record.get_value(name), decoded.get_value(name));
            same(got.0, got.1, &format!("{what}: get_value({name})"));
        }
    }
    let decoded = Ok(decoded.clone());
    same(record.message.to_message(), decoded.clone(), what);
    same(record.message.clone().into_message(), decoded, what);
}

/// A row's packed bytes and the offset of its incomplete versionstamp.
type PackedRow = (Vec<u8>, Option<usize>);

/// Each row's packed bytes and versionstamp offset, or the error.
fn packed_rows(expr: &KeyExpression, ctx: &EvalContext<'_>) -> Result<Vec<PackedRow>, String> {
    let mut packed = PackedRows::new();
    let rows = expr.pack(ctx, &mut packed).map_err(|e| e.to_string())?;
    Ok(packed
        .rows(rows)
        .map(|row| {
            let mut bytes = Vec::new();
            let stamp = row.pack_into(&mut bytes);
            (bytes, stamp)
        })
        .collect())
}

/// The two sources agree on every expression and predicate.
fn check_evaluation(
    decoded: &DynamicMessage,
    wire: &WireMessage,
    expressions: &[KeyExpression],
    predicates: &[QueryComponent],
    what: &str,
) {
    let record_type = decoded.type_name();
    let version = Some(Versionstamp::incomplete(3));
    let decoded_ctx = EvalContext::new(decoded, record_type).with_version(version);
    let wire_ctx = EvalContext::new(wire, record_type).with_version(version);
    for expr in expressions {
        assert_eq!(
            packed_rows(expr, &decoded_ctx),
            packed_rows(expr, &wire_ctx),
            "{what}: {expr:?}"
        );
        let tuples = |ctx| expr.evaluate(ctx).map_err(|e| e.to_string());
        let (a, b) = (tuples(&decoded_ctx), tuples(&wire_ctx));
        // Tuples compare floats by value, so compare their packings.
        let pack = |t: Result<Vec<Tuple>, String>| {
            t.map(|t| t.iter().map(Tuple::pack).collect::<Vec<_>>())
        };
        assert_eq!(pack(a), pack(b), "{what}: {expr:?} as tuples");
    }
    for predicate in predicates {
        let verdict = |fields: &dyn FieldSource| {
            predicate
                .eval(record_type, fields)
                .map_err(|e| e.to_string())
        };
        assert_eq!(verdict(decoded), verdict(wire), "{what}: {predicate:?}");
    }
}

/// A seeded case: its wire bytes and what `load_record` returned for them.
type Fetched = (Vec<u8>, record_layer::Result<Option<StoredRecord>>);

/// The `CASES` seeded records, written into a fresh store and fetched
/// back, with the generator cases they reached.
fn fetched_cases(md: &RecordMetaData) -> (Vec<Fetched>, Seen) {
    let db = Database::new();
    let sub = Subspace::from_tuple(&Tuple::new().push("fetched"));
    let mut rng = XorShift64::seed_from_u64(0xFE7C_4ED0);
    let mut seen = Seen::default();
    let wires: Vec<Vec<u8>> = (0..CASES)
        .map(|_| rec_wire(md.pool(), &mut rng, &mut seen))
        .collect();
    record_layer::run(&db, |tx| {
        RecordStore::open_or_create(tx, &sub, md)?;
        for (id, wire) in wires.iter().enumerate() {
            put_record(tx, &sub, id as i64, wire);
        }
        Ok(())
    })
    .unwrap();

    let tx = db.create_transaction();
    let store = RecordStore::open_or_create(&tx, &sub, md).unwrap();
    let fetched = wires
        .into_iter()
        .enumerate()
        .map(|(id, wire)| {
            let record = store.load_record(&Tuple::new().push(id as i64));
            (wire, record)
        })
        .collect();
    (fetched, seen)
}

#[test]
fn fetched_records_read_as_their_decode() {
    let md = metadata(Vec::new());
    let desc = md.pool().message("Rec").unwrap();
    let (cases, mut seen) = fetched_cases(&md);
    let (mut decoded_ok, mut refused) = (0, 0);
    for (id, (wire, fetched)) in cases.into_iter().enumerate() {
        let what = format!("case {id} {wire:x?}");
        match DynamicMessage::decode(desc.clone(), md.pool(), &wire) {
            Ok(decoded) => {
                let record = fetched.unwrap_or_else(|e| panic!("{what}: {e}"));
                let record = record.expect("stored");
                check_reads(&record, &decoded, &wire, &what);
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
        decoded_ok >= EVALUATED && refused > 0,
        "{decoded_ok} decoded, {refused} refused"
    );

    let expected = [
        "absent",
        "duplicate_singular",
        "invalid_utf8",
        "nested",
        "nul_in_bytes",
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

/// Every seeded case that decodes, fetched, evaluates through its
/// `WireMessage` as its decode does.
#[test]
fn fetched_records_evaluate_as_their_decode() {
    let md = metadata(Vec::new());
    let desc = md.pool().message("Rec").unwrap();
    let (expressions, predicates) = (rec_expressions(), rec_predicates());
    let (cases, _) = fetched_cases(&md);
    let mut evaluated = 0;
    for (id, (wire, fetched)) in cases.into_iter().enumerate() {
        let what = format!("case {id} {wire:x?}");
        let Ok(decoded) = DynamicMessage::decode(desc.clone(), md.pool(), &wire) else {
            continue;
        };
        let record = fetched.unwrap_or_else(|e| panic!("{what}: {e}"));
        let record = record.expect("stored");
        check_evaluation(
            &decoded,
            wire_message(&record),
            &expressions,
            &predicates,
            &what,
        );
        evaluated += 1;
    }
    assert!(evaluated >= EVALUATED, "{evaluated} evaluated");
}

/// The benchmark's `Item` records, as encoded by a save and read as a
/// `WireMessage`, through its metadata's primary key and index
/// expressions.
#[test]
fn items_evaluate_as_their_decode() {
    let md = items::item_metadata();
    let desc = md.pool().message("Item").unwrap();
    let mut expressions = vec![md.record_type("Item").unwrap().primary_key.clone()];
    expressions.extend(md.indexes().map(|index| index.key_expression.clone()));
    let predicates: Vec<QueryComponent> = md.indexes().filter_map(|i| i.filter.clone()).collect();
    for id in 0..items::RECORDS {
        let mut msg = DynamicMessage::new(desc.clone());
        items::set_item(&mut msg, id, id % 3);
        let wire = msg.encode();
        let len = wire.len();
        let record = WireMessage::new(desc.clone(), md.pool(), wire, 0..len).unwrap();
        check_evaluation(
            &msg,
            &record,
            &expressions,
            &predicates,
            &format!("item {id}"),
        );
    }
}

/// A nested message that does not decode is an error where its field is
/// read, and only there: a record whose unindexed `inner` is malformed can
/// be replaced and deleted, as its other fields can be read, and every
/// read of `inner` reports the decode's own error.
#[test]
fn a_malformed_nested_message_fails_only_where_it_is_read() {
    let md = metadata(vec![Index::value("by_name", KeyExpression::field("name"))]);
    let desc = md.pool().message("Rec").unwrap();
    let inner = desc.field_by_name("inner").unwrap();
    let db = Database::new();
    let sub = Subspace::from_tuple(&Tuple::new().push("malformed"));
    // `id` and `name`, then `inner` (field 9, length 1) holding a varint
    // tag (`a`) whose value is missing.
    let wire = |id: u8| [0x08, id, 0x12, 0x01, b'n', 0x4A, 0x01, 0x08];
    let error = DynamicMessage::decode(desc.clone(), md.pool(), &wire(1)).unwrap_err();
    assert!(matches!(&error, Error::Decode(_)), "{error:?}");
    record_layer::run(&db, |tx| {
        RecordStore::open_or_create(tx, &sub, &md)?;
        for id in 1..=3 {
            put_record(tx, &sub, i64::from(id), &wire(id));
        }
        Ok(())
    })
    .unwrap();

    let tx = db.create_transaction();
    let store = RecordStore::open_or_create(&tx, &sub, &md).unwrap();
    let mut replacement = store.new_record("Rec").unwrap();
    replacement.set("id", 2i64).unwrap();
    replacement.set("name", "m").unwrap();
    store
        .save_record(replacement)
        .expect("save over the record");
    assert!(store
        .delete_record(&Tuple::new().push(3i64))
        .expect("delete the record"));

    let record = store
        .load_record(&Tuple::new().push(1i64))
        .expect("load the record")
        .expect("stored");
    assert_eq!(record.message.get("id"), Some(&Value::I64(1)));
    assert_eq!(
        record.message.get("inner"),
        None,
        "get has no error to give"
    );
    assert_eq!(record.get_value("inner"), Err(error.clone()), "get_value");
    let visited = record.visit_field(inner, &mut |_| ControlFlow::Continue(()));
    assert_eq!(visited, Err(error.clone()), "visit_field");
    let message = wire_message(&record);
    assert_eq!(
        message.to_message().err(),
        Some(error.clone()),
        "to_message"
    );
    assert_eq!(
        message.clone().into_message().err(),
        Some(error),
        "into_message"
    );
    tx.commit().unwrap();

    let tx = db.create_transaction();
    let store = RecordStore::open_or_create(&tx, &sub, &md).unwrap();
    let saved = store
        .load_record(&Tuple::new().push(2i64))
        .unwrap()
        .unwrap();
    assert_eq!(saved.message.get("name"), Some(&Value::String("m".into())));
    assert_eq!(store.load_record(&Tuple::new().push(3i64)).unwrap(), None);
}
