//! `WireRecord` ≡ `DynamicMessage`: seeded wire bytes, read both ways —
//! decoded into a message, and read where they lie as a `WireRecord` (the
//! source a save evaluates the old record through) — must give every key
//! expression the same packed entry bytes (and the same tuples, or the
//! same error) and every predicate the same verdict.
//!
//! The test schema is `Rec`, with a nested `Inner` and one field of each
//! scalar kind; its key expressions are every shape the evaluator walks
//! (fields, fan-out and concatenated repeated fields, nests — singular and
//! fanned out — concatenations, record type, version, literal, grouping,
//! covering value, a client function, and the error shapes), beside the
//! benchmark `Item` schema's primary key and index expressions.
//!
//! The wire bytes are built field by field, not by `encode()`, so they
//! reach what a writer with another schema or another encoder leaves. The
//! test asserts that each of these generator cases occurs:
//!
//! * a nested message (`nested`);
//! * a repeated field with several values, so fan-out and concatenate have
//!   work (`repeated`);
//! * a field left absent (`absent`);
//! * a field number the schema does not declare (`unknown`);
//! * a declared field on the wire with another wire type (`wrong_wire_type`);
//! * a singular field twice on the wire, so the last must win
//!   (`duplicate_singular`);
//! * a bytes value holding a NUL, which the packing escapes
//!   (`nul_in_bytes`).

use std::collections::BTreeSet;
use std::sync::Arc;

use record_layer::expr::{EvalContext, FanType, KeyExpression, PackedRows};
use record_layer::query::{Comparison, QueryComponent};
use rl_fdb::tuple::{Tuple, TupleElement};
use rl_fdb::version::Versionstamp;
use rl_harness::rng::{Rng, XorShift64};
use rl_message::wire::{put_len_delimited, put_tag, put_varint, WIRE_64BIT, WIRE_LEN, WIRE_VARINT};
use rl_message::{
    DescriptorPool, DynamicMessage, FieldDescriptor, FieldSource, FieldType, MessageDescriptor,
    Value, WireRecord,
};

#[allow(dead_code)] // the allocation tests' helpers go unused here
mod items;

const CASES: usize = 600;

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

/// What the generator reached, by case name.
#[derive(Default)]
struct Seen(BTreeSet<&'static str>);

/// A seeded `Inner` on the wire.
fn inner_wire(pool: &DescriptorPool, rng: &mut XorShift64) -> Vec<u8> {
    let desc = pool.message("Inner").unwrap();
    let mut wire = Vec::new();
    if rng.gen_range(0..3u32) > 0 {
        wire.extend(field_wire(&desc, "a", Value::I64(rng.gen_range(0..4i64))));
    }
    if rng.gen_range(0..2u32) > 0 {
        let b = format!("b{}", rng.gen_range(0..3u32));
        wire.extend(field_wire(&desc, "b", Value::String(b)));
    }
    for _ in 0..rng.gen_range(0..3usize) {
        let c = Value::I32(rng.gen_range(0..5i32) - 2);
        wire.extend(field_wire(&desc, "c", c));
    }
    wire
}

/// A seeded `Rec` on the wire: each field present or absent, some twice,
/// in a shuffled order, with unknown and wrongly typed fields mixed in.
fn rec_wire(pool: &DescriptorPool, rng: &mut XorShift64, seen: &mut Seen) -> Vec<u8> {
    let desc = pool.message("Rec").unwrap();
    let mut fields: Vec<Vec<u8>> = Vec::new();
    let mut present = BTreeSet::new();
    fn value(rng: &mut XorShift64, field: &str, seen: &mut Seen) -> Value {
        match field {
            "id" => Value::I64(rng.gen_range(0..100i64)),
            "name" => Value::String(format!("n{}", rng.gen_range(0..3u32))),
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
            "tags" => Value::String(format!("t{}", rng.gen_range(0..4u32))),
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
            let wire = match &field.field_type {
                FieldType::Message(_) => {
                    seen.0.insert("nested");
                    let mut wire = Vec::new();
                    put_tag(&mut wire, field.number, WIRE_LEN);
                    put_len_delimited(&mut wire, &inner_wire(pool, rng));
                    wire
                }
                _ => field_wire(&desc, &field.name, value(rng, &field.name, seen)),
            };
            fields.push(wire);
        }
        match times {
            0 => seen.0.insert("absent"),
            1 => false,
            _ if field.is_repeated() => seen.0.insert("repeated"),
            _ => seen.0.insert("duplicate_singular"),
        };
        if times > 0 {
            present.insert(field.number);
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
    // Any order is a valid wire: a repeated field's values keep theirs
    // relative to each other, whatever lies between them.
    for i in (1..fields.len()).rev() {
        fields.swap(i, rng.gen_range(0..=i));
    }
    fields.concat()
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
fn check(
    decoded: &DynamicMessage,
    wire: &WireRecord<'_>,
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

#[test]
fn wire_record_evaluates_as_the_decoded_message() {
    let pool = pool();
    let rec = pool.message("Rec").unwrap();
    let (expressions, predicates) = (rec_expressions(), rec_predicates());
    let mut rng = XorShift64::seed_from_u64(0x571E_4EC0);
    let mut seen = Seen::default();
    for case in 0..CASES {
        let wire = rec_wire(&pool, &mut rng, &mut seen);
        let decoded = DynamicMessage::decode(rec.clone(), &pool, &wire).unwrap();
        let record = WireRecord::new(rec.clone(), &pool, &wire).unwrap();
        check(
            &decoded,
            &record,
            &expressions,
            &predicates,
            &format!("case {case} {wire:x?}"),
        );
    }
    let expected = [
        "absent",
        "duplicate_singular",
        "nested",
        "nul_in_bytes",
        "repeated",
        "unknown",
        "wrong_wire_type",
    ];
    let missing: Vec<_> = expected.iter().filter(|c| !seen.0.contains(*c)).collect();
    assert!(missing.is_empty(), "cases never generated: {missing:?}");
}

/// The benchmark's `Item` records, through its metadata's primary key and
/// index expressions, as encoded by a save.
#[test]
fn wire_record_evaluates_items_as_the_decoded_message() {
    let md = items::item_metadata();
    let desc = md.pool().message("Item").unwrap();
    let mut expressions = vec![md.record_type("Item").unwrap().primary_key.clone()];
    expressions.extend(md.indexes().map(|index| index.key_expression.clone()));
    let predicates: Vec<QueryComponent> = md.indexes().filter_map(|i| i.filter.clone()).collect();
    for id in 0..items::RECORDS {
        let mut msg = DynamicMessage::new(desc.clone());
        items::set_item(&mut msg, id, id % 3);
        let wire = msg.encode();
        let record = WireRecord::new(desc.clone(), md.pool(), &wire).unwrap();
        check(
            &msg,
            &record,
            &expressions,
            &predicates,
            &format!("item {id}"),
        );
    }
}
