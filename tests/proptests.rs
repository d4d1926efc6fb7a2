//! Randomized property tests on the core invariants:
//!
//! * tuple packing is order-preserving and lossless, and the borrowing
//!   reader agrees with `Tuple::unpack` on values, truncations and bad UTF-8,
//! * protobuf wire encoding roundtrips and survives schema evolution,
//! * the RANK skip list agrees with a sorted vector oracle, and moving an
//!   entry with `replace` leaves exactly the bytes erase + insert leave,
//! * the TEXT bunched map agrees with a BTreeMap oracle,
//! * record save/load roundtrips arbitrary field values,
//! * limited and reverse range reads with buffered writes agree with a
//!   materialise-then-truncate model, on both storage engines,
//! * a planned OR, `IN` or text predicate returns what the filtered full
//!   scan returns and pages exactly, from every continuation, under scan
//!   limits and across a delete,
//! * every atomic aggregate (COUNT, COUNT_UPDATES, COUNT_NON_NULL, SUM,
//!   MAX_EVER, MIN_EVER) equals a recomputation from a model after random
//!   saves and deletes, on both storage engines.
//!
//! These were originally written against the `proptest` crate; the tier-1
//! build must work offline with an empty cargo registry, so they now run on
//! the repository's own deterministic PRNG (`rl_harness::rng`). There is no
//! shrinking — a failure reports the property name, case index, and seed,
//! which is enough to replay it deterministically.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

use rl_harness::rng::{Rng, XorShift64};

use record_layer::cursor::{Continuation, CursorResult, ExecuteProperties, NoNextReason};
use record_layer::expr::KeyExpression;
use record_layer::index::text::BunchedMap;
use record_layer::metadata::{Index, RecordMetaData, RecordMetaDataBuilder};
use record_layer::plan::{BoxedCursorExt, RecordQueryPlan, RecordQueryPlanner};
use record_layer::query::{Comparison, QueryComponent, RecordQuery, TextComparison};
use record_layer::store::RecordStore;
use rl_fdb::atomic::MutationType;
use rl_fdb::tuple::{ElementRef, Tuple, TupleElement, TupleReader};
use rl_fdb::version::Versionstamp;
use rl_fdb::{Database, DatabaseOptions, EngineKind, RangeOptions, Subspace};
use rl_message::{DescriptorPool, DynamicMessage, FieldDescriptor, FieldType, MessageDescriptor};

/// Fixed base seed: every run exercises the same cases. Change it (or run
/// a failing case's reported seed directly) to explore a different stream.
const BASE_SEED: u64 = 0x5EED_CAFE_F00D_D00D;

/// Run `cases` instances of a property, each with its own derived seed.
/// On panic, re-raise with the property name, case index, and seed so the
/// failure can be replayed without shrinking.
fn check(name: &str, cases: u64, f: impl Fn(&mut XorShift64)) {
    for case in 0..cases {
        let seed = BASE_SEED.wrapping_add(case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut rng = XorShift64::seed_from_u64(seed);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(&mut rng))) {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic payload>");
            panic!("property '{name}' failed at case {case}/{cases} (seed {seed:#x}): {msg}");
        }
    }
}

// ------------------------------------------------------------ generators

fn any_i64(rng: &mut XorShift64) -> i64 {
    rng.next_u64() as i64
}

fn any_f64_not_nan(rng: &mut XorShift64) -> f64 {
    loop {
        let f = f64::from_bits(rng.next_u64());
        if !f.is_nan() {
            return f;
        }
    }
}

fn lowercase_string(rng: &mut XorShift64, min: usize, max: usize) -> String {
    let len = rng.gen_range(min..=max);
    (0..len)
        .map(|_| (b'a' + rng.gen_range(0..26u32) as u8) as char)
        .collect()
}

fn printable_string(rng: &mut XorShift64, max: usize) -> String {
    let len = rng.gen_range(0..=max);
    (0..len)
        .map(|_| rng.gen_range(0x20..=0x7Eu32) as u8 as char)
        .collect()
}

fn bytes(rng: &mut XorShift64, max: usize) -> Vec<u8> {
    let len = rng.gen_range(0..max);
    (0..len).map(|_| rng.gen_u8()).collect()
}

fn arb_element(rng: &mut XorShift64) -> TupleElement {
    match rng.gen_range(0..6u32) {
        0 => TupleElement::Null,
        1 => TupleElement::Int(any_i64(rng)),
        2 => TupleElement::Bool(rng.gen_range(0..2u32) == 1),
        3 => TupleElement::String(lowercase_string(rng, 0, 12)),
        4 => TupleElement::Bytes(bytes(rng, 16)),
        _ => TupleElement::Double(any_f64_not_nan(rng)),
    }
}

fn arb_tuple(rng: &mut XorShift64) -> Tuple {
    let len = rng.gen_range(0..5usize);
    Tuple::from_elements((0..len).map(|_| arb_element(rng)).collect())
}

// ------------------------------------------------------------- properties

#[test]
fn tuple_pack_roundtrips() {
    check("tuple_pack_roundtrips", 200, |rng| {
        let t = arb_tuple(rng);
        let packed = t.pack();
        let back = Tuple::unpack(&packed).unwrap();
        assert_eq!(t, back);
    });
}

#[test]
fn tuple_pack_preserves_order() {
    check("tuple_pack_preserves_order", 200, |rng| {
        // The defining property of the tuple layer (§2): binary order of
        // encodings equals semantic order of tuples.
        let (a, b) = (arb_tuple(rng), arb_tuple(rng));
        let (pa, pb) = (a.pack(), b.pack());
        assert_eq!(a.cmp(&b), pa.cmp(&pb), "tuples {a:?} vs {b:?}");
    });
}

#[test]
fn tuple_prefix_packs_to_byte_prefix() {
    check("tuple_prefix_packs_to_byte_prefix", 200, |rng| {
        let t = arb_tuple(rng);
        let n = rng.gen_range(0..5usize);
        let prefix = t.prefix(n.min(t.len()));
        assert!(t.pack().starts_with(&prefix.pack()));
    });
}

#[test]
fn message_wire_roundtrips() {
    check("message_wire_roundtrips", 200, |rng| {
        let id = any_i64(rng);
        let name = lowercase_string(rng, 0, 20);
        let flags: Vec<bool> = (0..rng.gen_range(0..8usize))
            .map(|_| rng.gen_range(0..2u32) == 1)
            .collect();
        let mut pool = DescriptorPool::new();
        pool.add_message(
            MessageDescriptor::new(
                "M",
                vec![
                    FieldDescriptor::optional("id", 1, FieldType::Int64),
                    FieldDescriptor::optional("name", 2, FieldType::String),
                    FieldDescriptor::repeated("flags", 3, FieldType::Bool),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        let mut m = DynamicMessage::new(pool.message("M").unwrap());
        m.set("id", id).unwrap();
        m.set("name", name.as_str()).unwrap();
        for f in &flags {
            m.push("flags", *f).unwrap();
        }
        let back = DynamicMessage::decode(pool.message("M").unwrap(), &pool, &m.encode()).unwrap();
        assert_eq!(m, back);
    });
}

#[test]
fn evolved_reader_preserves_unknown_fields() {
    check("evolved_reader_preserves_unknown_fields", 200, |rng| {
        let v = any_i64(rng);
        let extra = lowercase_string(rng, 1, 10);
        let mut new_pool = DescriptorPool::new();
        new_pool
            .add_message(
                MessageDescriptor::new(
                    "M",
                    vec![
                        FieldDescriptor::optional("a", 1, FieldType::Int64),
                        FieldDescriptor::optional("b", 2, FieldType::String),
                    ],
                )
                .unwrap(),
            )
            .unwrap();
        let mut old_pool = DescriptorPool::new();
        old_pool
            .add_message(
                MessageDescriptor::new(
                    "M",
                    vec![FieldDescriptor::optional("a", 1, FieldType::Int64)],
                )
                .unwrap(),
            )
            .unwrap();

        let mut written = DynamicMessage::new(new_pool.message("M").unwrap());
        written.set("a", v).unwrap();
        written.set("b", extra.as_str()).unwrap();
        // Old reader decodes and re-encodes; nothing may be lost.
        let relayed =
            DynamicMessage::decode(old_pool.message("M").unwrap(), &old_pool, &written.encode())
                .unwrap();
        let reread =
            DynamicMessage::decode(new_pool.message("M").unwrap(), &new_pool, &relayed.encode())
                .unwrap();
        assert_eq!(
            reread.get("b").and_then(|x| x.as_str().map(str::to_string)),
            Some(extra)
        );
    });
}

#[test]
fn ranked_set_matches_sorted_vector_oracle() {
    check("ranked_set_matches_sorted_vector_oracle", 24, |rng| {
        let ops: Vec<(bool, i64)> = (0..rng.gen_range(1..60usize))
            .map(|_| (rng.gen_range(0..2u32) == 1, rng.gen_range(0..50i64)))
            .collect();
        let db = Database::new();
        let tx = db.create_transaction();
        let set = record_layer::index::rank::RankedSet::new(
            &tx,
            Subspace::from_bytes(b"prop".to_vec()),
            4,
        );
        let mut oracle: Vec<i64> = Vec::new();
        for (insert, v) in ops {
            let t = Tuple::from((v,));
            if insert {
                let added = set.insert(&t).unwrap();
                assert_eq!(added, !oracle.contains(&v));
                if added {
                    oracle.push(v);
                    oracle.sort_unstable();
                }
            } else {
                let removed = set.erase(&t).unwrap();
                assert_eq!(removed, oracle.contains(&v));
                oracle.retain(|&x| x != v);
            }
            // One op in three is followed by a move between two values.
            if rng.gen_range(0..3u32) == 0 {
                let (from, to) = (rng.gen_range(0..50i64), rng.gen_range(0..50i64));
                let (erased, inserted) = set
                    .replace(&Tuple::from((from,)), &Tuple::from((to,)))
                    .unwrap();
                assert_eq!(erased, oracle.contains(&from));
                oracle.retain(|&x| x != from);
                assert_eq!(inserted, !oracle.contains(&to));
                if inserted {
                    oracle.push(to);
                    oracle.sort_unstable();
                }
            }
        }
        assert_eq!(set.len().unwrap(), oracle.len() as i64);
        for (rank, v) in oracle.iter().enumerate() {
            assert_eq!(set.rank(&Tuple::from((*v,))).unwrap(), Some(rank as i64));
            assert_eq!(set.select(rank as i64).unwrap(), Some(Tuple::from((*v,))));
        }
    });
}

/// One op of the twin-database RANK test.
#[derive(Clone, Copy, Debug)]
enum RankOp {
    Insert(i64),
    Erase(i64),
    Replace(i64, i64),
}

/// `RankedSet::replace` leaves what `erase` then `insert` leave, byte for
/// byte. Twin databases run one random sequence of inserts, erases and
/// moves, with `nlevels` drawn from 2..=6: side A moves an entry with
/// `replace`, side B with `erase` then `insert`. After every commit the two
/// ranked-set subspaces are identical, A wrote no more keys than B (fewer
/// when a walk stopped at a shared finger), and
/// `rank` / `select` agree with a sorted vector. Values come from `0..400`;
/// a probe set holding all of them tells which are *tall* (members of level
/// 1 and up). The generator case reaching each branch of `replace` (each
/// must be reached):
///
/// * `shared_finger` — `near_move` (a present value to an absent one a few
///   values away): above both heights one finger covers both, and the walk
///   stops there.
/// * `old_member` — `tall_old` (a present tall value to an absent short one).
/// * `new_member` — `tall_new` (a present short value to an absent tall one).
/// * `both_members` — `tall_both`.
/// * `absent_old` — `absent_old` (the old value is not in the set): the
///   erase + insert fallback.
/// * `present_new` — `present_new` (the new value is in the set, sometimes
///   the old value itself): the fallback.
#[test]
fn ranked_set_replace_equals_erase_then_insert() {
    use record_layer::index::rank::RankedSet;
    use std::cell::RefCell;
    use std::collections::{BTreeMap, BTreeSet};

    const VALUES: i64 = 400;
    const MAX_LEVELS: usize = 6;
    let t = |v: i64| Tuple::from((v,));
    let sub = Subspace::from_bytes(b"twin".to_vec());
    let level_key = |level: usize, v: i64| sub.child(level as i64).pack(&t(v));

    // Heights are a hash of the entry alone: read them off a probe set.
    let probe = Database::new();
    let tx = probe.create_transaction();
    let probe_set = RankedSet::new(&tx, sub.clone(), MAX_LEVELS);
    let heights: Vec<usize> = (0..VALUES)
        .map(|v| {
            probe_set.insert(&t(v)).unwrap();
            (1..MAX_LEVELS)
                .take_while(|&l| tx.get(&level_key(l, v)).unwrap().is_some())
                .count()
        })
        .collect();
    let tall: Vec<i64> = (0..VALUES).filter(|&v| heights[v as usize] > 0).collect();
    assert!(tall.len() > 20, "{} tall values", tall.len());

    let reached = RefCell::new(BTreeMap::<&str, usize>::new());
    check("ranked_set_replace_equals_erase_then_insert", 24, |rng| {
        let nlevels = rng.gen_range(2..=MAX_LEVELS);
        let top = nlevels - 1;
        let height = |v: i64| heights[v as usize].min(top);
        let (db_a, db_b) = (Database::new(), Database::new());
        let mut oracle = BTreeSet::<i64>::new();
        for _ in 0..6 {
            let (tx_a, tx_b) = (db_a.create_transaction(), db_b.create_transaction());
            let set_a = RankedSet::new(&tx_a, sub.clone(), nlevels);
            let set_b = RankedSet::new(&tx_b, sub.clone(), nlevels);
            let mut stopped = false;
            for _ in 0..rng.gen_range(1..=12u32) {
                let present: Vec<i64> = oracle.iter().copied().collect();
                let pick = |from: &[i64], rng: &mut XorShift64| match from.len() {
                    0 => rng.gen_range(0..VALUES),
                    n => from[rng.gen_range(0..n)],
                };
                let tall_absent: Vec<i64> = tall
                    .iter()
                    .copied()
                    .filter(|v| !oracle.contains(v))
                    .collect();
                let tall_present: Vec<i64> = tall
                    .iter()
                    .copied()
                    .filter(|v| oracle.contains(v))
                    .collect();
                let absent = |rng: &mut XorShift64| loop {
                    let v = rng.gen_range(0..VALUES);
                    if !oracle.contains(&v) {
                        return v;
                    }
                };
                let op = match (present.is_empty(), rng.gen_range(0..9u32)) {
                    (true, _) | (_, 0) => RankOp::Insert(if rng.gen_range(0..2u32) == 0 {
                        pick(&tall, rng)
                    } else {
                        rng.gen_range(0..VALUES)
                    }),
                    (_, 1) => RankOp::Erase(pick(&present, rng)),
                    // near_move
                    (_, 2) => {
                        let old = pick(&present, rng);
                        let new = (old + rng.gen_range(-3..=3i64)).clamp(0, VALUES - 1);
                        RankOp::Replace(old, new)
                    }
                    // tall_old
                    (_, 3) => RankOp::Replace(pick(&tall_present, rng), absent(rng)),
                    // tall_new
                    (_, 4) => RankOp::Replace(pick(&present, rng), pick(&tall_absent, rng)),
                    // tall_both
                    (_, 5) => RankOp::Replace(pick(&tall_present, rng), pick(&tall_absent, rng)),
                    // absent_old
                    (_, 6) => RankOp::Replace(absent(rng), rng.gen_range(0..VALUES)),
                    // present_new
                    (_, 7) => RankOp::Replace(pick(&present, rng), pick(&present, rng)),
                    _ => RankOp::Replace(pick(&present, rng), absent(rng)),
                };
                match op {
                    RankOp::Insert(v) => {
                        let added = set_a.insert(&t(v)).unwrap();
                        assert_eq!(added, set_b.insert(&t(v)).unwrap());
                        assert_eq!(added, oracle.insert(v));
                    }
                    RankOp::Erase(v) => {
                        let removed = set_a.erase(&t(v)).unwrap();
                        assert_eq!(removed, set_b.erase(&t(v)).unwrap());
                        assert_eq!(removed, oracle.remove(&v));
                    }
                    RankOp::Replace(old, new) => {
                        let mut cases = Vec::new();
                        if !oracle.contains(&old) {
                            cases.push("absent_old");
                        } else if oracle.contains(&new) {
                            cases.push("present_new");
                        } else {
                            match (height(old) > 0, height(new) > 0) {
                                (true, true) => cases.push("both_members"),
                                (true, false) => cases.push("old_member"),
                                (false, true) => cases.push("new_member"),
                                (false, false) => {}
                            }
                            // Neither is on the top level, whose other
                            // fingers the move leaves alone: the walk stops
                            // where one finger covers both, if it does here.
                            let top_sub = sub.child(top as i64);
                            let finger = |v: i64| {
                                let kvs = tx_a
                                    .get_range_snapshot(
                                        top_sub.prefix(),
                                        &level_key(top, v),
                                        RangeOptions::new().limit(1).reverse(true),
                                    )
                                    .unwrap();
                                kvs.into_iter().next().map(|kv| kv.key)
                            };
                            if height(old).max(height(new)) < top && finger(old) == finger(new) {
                                cases.push("shared_finger");
                                stopped = true;
                            }
                        }
                        for case in cases {
                            *reached.borrow_mut().entry(case).or_default() += 1;
                        }
                        let moved = set_a.replace(&t(old), &t(new)).unwrap();
                        let erased = set_b.erase(&t(old)).unwrap();
                        let inserted = set_b.insert(&t(new)).unwrap();
                        assert_eq!(moved, (erased, inserted), "{op:?}");
                        assert_eq!(erased, oracle.remove(&old));
                        assert_eq!(inserted, oracle.insert(new));
                    }
                }
            }
            drop((set_a, set_b));
            tx_a.commit().unwrap();
            tx_b.commit().unwrap();
            // Where the walk stopped, B wrote an ADD pair that nets to zero.
            let (written_a, written_b) = (tx_a.trace().keys_written, tx_b.trace().keys_written);
            if stopped {
                assert!(written_a < written_b, "{written_a} keys vs {written_b}");
            } else {
                assert!(written_a <= written_b, "{written_a} keys vs {written_b}");
            }

            let (begin, end) = sub.range_inclusive();
            let dump = |db: &Database| -> Vec<(Vec<u8>, Vec<u8>)> {
                let tx = db.create_transaction();
                let kvs = tx.get_range(&begin, &end, RangeOptions::default()).unwrap();
                kvs.into_iter().map(|kv| (kv.key, kv.value)).collect()
            };
            assert_eq!(dump(&db_a), dump(&db_b), "nlevels {nlevels}");

            let tx = db_a.create_transaction();
            let set = RankedSet::new(&tx, sub.clone(), nlevels);
            assert_eq!(set.len().unwrap(), oracle.len() as i64);
            for (rank, &v) in oracle.iter().enumerate() {
                assert_eq!(set.rank(&t(v)).unwrap(), Some(rank as i64), "rank of {v}");
                assert_eq!(
                    set.select(rank as i64).unwrap(),
                    Some(t(v)),
                    "select {rank}"
                );
            }
            assert_eq!(set.select(oracle.len() as i64).unwrap(), None);
        }
    });
    let reached = reached.into_inner();
    for case in [
        "shared_finger",
        "old_member",
        "new_member",
        "both_members",
        "absent_old",
        "present_new",
    ] {
        assert!(
            reached.contains_key(case),
            "{case} never generated: {reached:?}"
        );
    }
}

#[test]
fn bunched_map_matches_btreemap_oracle() {
    check("bunched_map_matches_btreemap_oracle", 24, |rng| {
        let ops: Vec<(bool, i64, i64)> = (0..rng.gen_range(1..80usize))
            .map(|_| {
                (
                    rng.gen_range(0..2u32) == 1,
                    rng.gen_range(0..30i64),
                    rng.gen_range(0..5i64),
                )
            })
            .collect();
        let bunch = rng.gen_range(1..6usize);
        let db = Database::new();
        let tx = db.create_transaction();
        let map = BunchedMap::new(&tx, Subspace::from_bytes(b"bm".to_vec()), bunch);
        let mut oracle: std::collections::BTreeMap<i64, Vec<i64>> = Default::default();
        for (insert, pk, off) in ops {
            if insert {
                map.insert("tok", &Tuple::from((pk,)), &[off]).unwrap();
                oracle.insert(pk, vec![off]);
            } else {
                map.remove("tok", &Tuple::from((pk,))).unwrap();
                oracle.remove(&pk);
            }
            let postings = map.scan_token("tok").unwrap();
            let got: Vec<(i64, Vec<i64>)> = postings
                .into_iter()
                .map(|(pk, offs)| (pk.get(0).unwrap().as_int().unwrap(), offs))
                .collect();
            let want: Vec<(i64, Vec<i64>)> = oracle.iter().map(|(k, v)| (*k, v.clone())).collect();
            assert_eq!(got, want);
        }
    });
}

#[test]
fn record_save_load_roundtrips() {
    check("record_save_load_roundtrips", 24, |rng| {
        let id = any_i64(rng);
        let title = printable_string(rng, 40);
        let blob = bytes(rng, 256);
        let mut pool = DescriptorPool::new();
        pool.add_message(
            MessageDescriptor::new(
                "R",
                vec![
                    FieldDescriptor::optional("id", 1, FieldType::Int64),
                    FieldDescriptor::optional("title", 2, FieldType::String),
                    FieldDescriptor::optional("blob", 3, FieldType::Bytes),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        let md = RecordMetaDataBuilder::new(pool)
            .record_type("R", KeyExpression::field("id"))
            .build()
            .unwrap();
        let db = Database::new();
        let sub = Subspace::from_bytes(b"rr".to_vec());
        record_layer::run(&db, |tx| {
            let store = RecordStore::open_or_create(tx, &sub, &md)?;
            let mut r = store.new_record("R")?;
            r.set("id", id).unwrap();
            r.set("title", title.as_str()).unwrap();
            r.set("blob", blob.clone()).unwrap();
            store.save_record(r)?;
            Ok(())
        })
        .unwrap();
        record_layer::run(&db, |tx| {
            let store = RecordStore::open_or_create(tx, &sub, &md)?;
            let rec = store.load_record(&Tuple::from((id,)))?.unwrap();
            assert_eq!(
                rec.message
                    .get("title")
                    .and_then(|v| v.as_str().map(str::to_string)),
                Some(title.clone())
            );
            assert_eq!(
                rec.message
                    .get("blob")
                    .and_then(|v| v.as_bytes().map(<[u8]>::to_vec)),
                Some(blob.clone())
            );
            Ok(())
        })
        .unwrap();
    });
}

/// An element of every kind the tuple layer encodes: byte strings and
/// strings dense in NULs (each escaped on the wire), every integer width
/// of both signs, versionstamps, and nested tuples carrying nulls.
fn arb_reader_element(rng: &mut XorShift64, depth: u32) -> TupleElement {
    match rng.gen_range(0..10u32) {
        0 => TupleElement::Null,
        1 => {
            let width = rng.gen_range(0..=8u32);
            let magnitude = match width {
                0 => 0,
                8 => rng.next_u64() >> 1,
                w => rng.next_u64() >> (64 - 8 * w),
            } as i64;
            TupleElement::Int(if rng.gen_range(0..2u32) == 0 {
                magnitude
            } else {
                -magnitude
            })
        }
        2 => TupleElement::Int([i64::MIN, i64::MAX, -1, 255, 256, -256][rng.gen_range(0..6usize)]),
        3 => {
            let len = rng.gen_range(0..24usize);
            TupleElement::Bytes(
                (0..len)
                    .map(|_| [0x00, 0x00, 0xFF, rng.gen_u8()][rng.gen_range(0..4usize)])
                    .collect(),
            )
        }
        4 => {
            let len = rng.gen_range(0..12usize);
            TupleElement::String(
                (0..len)
                    .map(|_| ['\0', 'a', 'é', '\u{10348}'][rng.gen_range(0..4usize)])
                    .collect(),
            )
        }
        5 => TupleElement::Double(any_f64_not_nan(rng)),
        6 => TupleElement::Float(rng.gen_range(-1000..1000i32) as f32 / 8.0),
        7 => TupleElement::Versionstamp(Versionstamp::complete(
            rng.next_u64(),
            rng.gen_range(0..=u16::MAX as u32) as u16,
            rng.gen_range(0..=u16::MAX as u32) as u16,
        )),
        8 => TupleElement::Uuid(std::array::from_fn(|_| rng.gen_u8())),
        _ if depth < 3 => {
            let len = rng.gen_range(0..4usize);
            TupleElement::Tuple(Tuple::from_elements(
                (0..len)
                    .map(|_| arb_reader_element(rng, depth + 1))
                    .collect(),
            ))
        }
        _ => TupleElement::Bool(rng.gen_range(0..2u32) == 1),
    }
}

/// The reader's verdict on `bytes`: every element owned, or the error.
fn read_all(bytes: &[u8]) -> rl_fdb::Result<Vec<TupleElement>> {
    TupleReader::new(bytes)
        .map(|el| el.map(ElementRef::into_owned))
        .collect()
}

/// `Tuple::unpack` is a collect over `TupleReader`, so what is checked
/// here is the reader itself, against the encoder: it returns what was
/// packed, lends a byte or string element exactly when nothing in it was
/// escaped, `remaining()` tracks element boundaries, and a truncated
/// packing either fails — in both entry points alike — or is itself the
/// packing of the tuple it decodes to.
#[test]
fn borrowing_reader_agrees_with_unpack() {
    check("borrowing_reader_agrees_with_unpack", 300, |rng| {
        let len = rng.gen_range(0..6usize);
        let tuple = Tuple::from_elements((0..len).map(|_| arb_reader_element(rng, 0)).collect());
        let packed = tuple.pack();
        assert_eq!(Tuple::unpack(&packed).unwrap(), tuple);

        let mut reader = TupleReader::new(&packed);
        let mut consumed = Vec::new();
        for want in tuple.elements() {
            let got = reader.next().unwrap().unwrap();
            match (&got, want) {
                (ElementRef::Bytes(b), TupleElement::Bytes(w)) => {
                    assert_eq!(matches!(b, std::borrow::Cow::Borrowed(_)), !w.contains(&0));
                }
                (ElementRef::String(s), TupleElement::String(w)) => {
                    assert_eq!(
                        matches!(s, std::borrow::Cow::Borrowed(_)),
                        !w.contains('\0')
                    );
                }
                _ => {}
            }
            assert_eq!(&got.into_owned(), want);
            want.pack_into(&mut consumed);
            assert_eq!(reader.remaining(), &packed[consumed.len()..]);
        }
        assert!(reader.next().is_none());

        for cut in 0..packed.len() {
            let prefix = &packed[..cut];
            match (Tuple::unpack(prefix), read_all(prefix)) {
                (Ok(t), Ok(elements)) => {
                    assert_eq!(t.elements(), elements.as_slice());
                    assert_eq!(t.pack(), prefix, "cut {cut} of {packed:?}");
                }
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
                (a, b) => panic!("cut {cut}: unpack {a:?} but reader {b:?}"),
            }
        }
    });

    // Invalid UTF-8 fails in the lent and in the copied form alike, and
    // the reader yields nothing after the error.
    for bad in [
        &[0x02, 0xC3, 0x28, 0x00][..],
        &[0x02, 0x00, 0xFF, 0xC3, 0x28, 0x00],
    ] {
        let mut padded = bad.to_vec();
        padded.extend_from_slice(&[0x15, 0x01]);
        assert!(Tuple::unpack(&padded).is_err());
        let mut reader = TupleReader::new(&padded);
        assert!(reader.next().unwrap().is_err());
        assert!(reader.next().is_none());
    }
}

/// Read-your-writes equivalence: `get_range` streams a merge of the
/// snapshot with the buffered writes and stops at the limit; the model
/// materialises the whole merged range, then reverses and truncates.
#[test]
fn range_reads_match_materialise_then_truncate_model() {
    use std::collections::BTreeMap;

    fn key(i: usize) -> Vec<u8> {
        format!("k{i:04}").into_bytes()
    }

    for engine in ["memory", "paged"] {
        check(&format!("range_reads_match_model[{engine}]"), 48, |rng| {
            let db = Database::with_options(DatabaseOptions {
                engine: EngineKind::from_spec(engine).unwrap(),
                ..DatabaseOptions::default()
            });
            // One case in six is long enough to be read in several
            // snapshot chunks; the rest collide heavily on few keys.
            let keys = if rng.gen_range(0..6u32) == 0 {
                2_500
            } else {
                40
            };
            let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();

            // A committed snapshot, with tombstones from a second commit.
            let tx = db.create_transaction();
            for i in 0..keys {
                if rng.gen_range(0..4u32) != 0 {
                    let v = bytes(rng, 12);
                    tx.set(&key(i), &v);
                    model.insert(key(i), v);
                }
            }
            tx.commit().unwrap();
            let tx = db.create_transaction();
            for _ in 0..keys / 8 {
                let k = key(rng.gen_range(0..keys));
                tx.clear(&k);
                model.remove(&k);
            }
            tx.commit().unwrap();

            // Buffered, uncommitted writes of every kind.
            let tx = db.create_transaction();
            for _ in 0..rng.gen_range(0..16u32) {
                let k = key(rng.gen_range(0..keys));
                match rng.gen_range(0..4u32) {
                    0 => {
                        let v = bytes(rng, 12);
                        tx.set(&k, &v);
                        model.insert(k, v);
                    }
                    1 => {
                        tx.clear(&k);
                        model.remove(&k);
                    }
                    2 => {
                        let end = key(rng.gen_range(0..=keys));
                        tx.clear_range(&k, &end);
                        if k < end {
                            model.retain(|m, _| *m < k || *m >= end);
                        }
                    }
                    _ => {
                        let param = rng.next_u64().to_le_bytes();
                        tx.mutate(MutationType::Add, &k, &param).unwrap();
                        let cur = model.get(&k).map(Vec::as_slice);
                        match rl_fdb::atomic::apply(MutationType::Add, cur, &param).unwrap() {
                            Some(v) => model.insert(k, v),
                            None => model.remove(&k),
                        };
                    }
                }
            }

            for _ in 0..24 {
                let (mut begin, mut end) =
                    (key(rng.gen_range(0..keys)), key(rng.gen_range(0..=keys)));
                if rng.gen_range(0..8u32) == 0 {
                    (begin, end) = (Vec::new(), vec![0xFF]);
                }
                let limit = match rng.gen_range(0..4u32) {
                    0 => 0, // unlimited
                    1 => rng.gen_range(1..4usize),
                    _ => rng.gen_range(1..keys),
                };
                let reverse = rng.gen_range(0..2u32) == 1;
                let mut want: Vec<(Vec<u8>, Vec<u8>)> = if begin < end {
                    model
                        .range(begin.clone()..end.clone())
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect()
                } else {
                    Vec::new()
                };
                if reverse {
                    want.reverse();
                }
                if limit > 0 {
                    want.truncate(limit);
                }
                let options = RangeOptions::new().limit(limit).reverse(reverse);
                for snapshot in [false, true] {
                    let got = if snapshot {
                        tx.get_range_snapshot(&begin, &end, options.clone())
                    } else {
                        tx.get_range(&begin, &end, options.clone())
                    };
                    let got: Vec<(Vec<u8>, Vec<u8>)> = got
                        .unwrap()
                        .into_iter()
                        .map(|kv| (kv.key, kv.value))
                        .collect();
                    assert_eq!(
                        got, want,
                        "[{begin:?}, {end:?}) limit={limit} reverse={reverse} snapshot={snapshot}"
                    );
                }
            }
        });
    }
}

// ------------------------------------------- planned OR and IN vs the scan

/// `Doc(id, a, b, n, tags*, u, body)`, one key per record, with
/// single-column, compound and fan-out VALUE indexes for the planner to
/// choose from, a TEXT index on `body` and no index on `u`.
fn doc_metadata() -> RecordMetaData {
    let mut pool = DescriptorPool::new();
    pool.add_message(
        MessageDescriptor::new(
            "Doc",
            vec![
                FieldDescriptor::optional("id", 1, FieldType::Int64),
                FieldDescriptor::optional("a", 2, FieldType::Int64),
                FieldDescriptor::optional("b", 3, FieldType::String),
                FieldDescriptor::optional("n", 4, FieldType::Int64),
                FieldDescriptor::repeated("tags", 5, FieldType::String),
                FieldDescriptor::optional("u", 6, FieldType::Int64),
                FieldDescriptor::optional("body", 7, FieldType::String),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    RecordMetaDataBuilder::new(pool)
        .record_type("Doc", KeyExpression::field("id"))
        .index("Doc", Index::value("by_a", KeyExpression::field("a")))
        .index("Doc", Index::value("by_b", KeyExpression::field("b")))
        .index(
            "Doc",
            Index::value("by_a_b", KeyExpression::concat_fields("a", "b")),
        )
        .index("Doc", Index::value("by_n", KeyExpression::field("n")))
        .index(
            "Doc",
            Index::value("by_tag", KeyExpression::field_fanout("tags")),
        )
        .index("Doc", Index::text("by_body", KeyExpression::field("body")))
        .store_record_versions(false)
        .build()
        .unwrap()
}

// Few values per field, so branches overlap; the last of each is held by
// no record.
const DOC_B: [&str; 4] = ["x", "y", "z", "absent"];
const DOC_TAGS: [&str; 4] = ["t0", "t1", "t2", "absent"];
const DOC_WORDS: [&str; 5] = ["whale", "white", "sea", "ship", "absent"];

/// `word` with each letter's case drawn at random.
fn mixed_case(rng: &mut XorShift64, word: &str) -> String {
    word.chars()
        .map(|c| match rng.gen_range(0..2u32) {
            0 => c.to_ascii_uppercase(),
            _ => c,
        })
        .collect()
}

/// 0–3 mixed-case words of the vocabulary, with replacement.
fn arb_words(rng: &mut XorShift64) -> Vec<String> {
    (0..rng.gen_range(0..=3usize))
        .map(|_| {
            let word = DOC_WORDS[rng.gen_range(0..DOC_WORDS.len())];
            mixed_case(rng, word)
        })
        .collect()
}

/// A text predicate on `body` of each kind, its tokens in mixed case (the
/// stored bodies are mixed case too), and the kind's name.
fn arb_text(rng: &mut XorShift64) -> (QueryComponent, &'static str) {
    let (cmp, kind) = match rng.gen_range(0..5u32) {
        0 => (TextComparison::ContainsAll(arb_words(rng)), "ContainsAll"),
        1 => (TextComparison::ContainsAny(arb_words(rng)), "ContainsAny"),
        2 => {
            let word = DOC_WORDS[rng.gen_range(0..DOC_WORDS.len())];
            let prefix = &word[..rng.gen_range(0..=word.len())];
            (
                TextComparison::ContainsPrefix(mixed_case(rng, prefix)),
                "ContainsPrefix",
            )
        }
        3 => (
            TextComparison::ContainsPhrase(arb_words(rng)),
            "ContainsPhrase",
        ),
        _ => (
            TextComparison::ContainsAllWithin {
                tokens: arb_words(rng),
                max_distance: rng.gen_range(0..3usize),
            },
            "ContainsAllWithin",
        ),
    };
    (QueryComponent::field("body", Comparison::Text(cmp)), kind)
}

fn pick(rng: &mut XorShift64, of: &[&str]) -> TupleElement {
    of[rng.gen_range(0..of.len())].into()
}

fn arb_equality(rng: &mut XorShift64) -> QueryComponent {
    match rng.gen_range(0..3u32) {
        0 => QueryComponent::field("a", Comparison::Equals(rng.gen_range(0..5i64).into())),
        1 => QueryComponent::field("b", Comparison::Equals(pick(rng, &DOC_B))),
        _ => QueryComponent::one_of_them("tags", Comparison::Equals(pick(rng, &DOC_TAGS))),
    }
}

/// An `IN` of 0–5 values drawn with replacement, absent ones among them.
fn arb_in(rng: &mut XorShift64) -> QueryComponent {
    let len = rng.gen_range(0..=5usize);
    match rng.gen_range(0..3u32) {
        0 => QueryComponent::field(
            "a",
            Comparison::In((0..len).map(|_| rng.gen_range(0..5i64).into()).collect()),
        ),
        1 => QueryComponent::field(
            "b",
            Comparison::In((0..len).map(|_| pick(rng, &DOC_B)).collect()),
        ),
        _ => QueryComponent::one_of_them(
            "tags",
            Comparison::In((0..len).map(|_| pick(rng, &DOC_TAGS)).collect()),
        ),
    }
}

/// A predicate only a residual can check, true of one record in six: the
/// runs it rejects outlast the scan limits below.
fn arb_unindexed(rng: &mut XorShift64) -> QueryComponent {
    QueryComponent::field("u", Comparison::Equals(rng.gen_range(0..6i64).into()))
}

/// An OR, an `IN` or a text predicate; each text predicate's kind goes
/// into `kinds`, marked by whether it stood alone or as an OR branch.
fn arb_or_or_in(rng: &mut XorShift64, kinds: &RefCell<BTreeSet<String>>) -> QueryComponent {
    let text = |rng: &mut XorShift64, within: &str| {
        let (text, kind) = arb_text(rng);
        kinds.borrow_mut().insert(format!("{kind} {within}"));
        text
    };
    match rng.gen_range(0..11u32) {
        0 => QueryComponent::or(
            (0..rng.gen_range(1..=4u32))
                .map(|_| arb_equality(rng))
                .collect(),
        ),
        1 => arb_in(rng),
        2 => QueryComponent::and(vec![
            QueryComponent::field(
                "a",
                Comparison::In((0..4).map(|_| rng.gen_range(0..5i64).into()).collect()),
            ),
            QueryComponent::field("b", Comparison::Equals(pick(rng, &DOC_B))),
        ]),
        3 => QueryComponent::or(vec![
            arb_equality(rng),
            QueryComponent::or(vec![arb_equality(rng), arb_in(rng)]),
        ]),
        // Branches that filter for themselves.
        4 => QueryComponent::and(vec![arb_in(rng), arb_unindexed(rng)]),
        5 => QueryComponent::or(vec![
            QueryComponent::and(vec![arb_equality(rng), arb_unindexed(rng)]),
            QueryComponent::and(vec![arb_equality(rng), arb_unindexed(rng)]),
        ]),
        // Text predicates, whose tokens match whatever their case.
        6 | 7 => text(rng, "alone"),
        8 => QueryComponent::or(vec![text(rng, "in an OR"), text(rng, "in an OR")]),
        9 => QueryComponent::or(vec![text(rng, "in an OR"), arb_equality(rng)]),
        // One branch that is not primary-key ordered: the unordered union.
        _ => QueryComponent::or(vec![
            arb_equality(rng),
            QueryComponent::field("n", Comparison::GreaterThan(rng.gen_range(0..10i64).into())),
        ]),
    }
}

/// One page of `plan` in a transaction of its own: the ids returned, why
/// the page ended and where the next one resumes.
fn doc_page(
    db: &Database,
    md: &RecordMetaData,
    sub: &Subspace,
    plan: &RecordQueryPlan,
    continuation: &Continuation,
    props: &ExecuteProperties,
) -> (Vec<i64>, NoNextReason, Continuation) {
    record_layer::run(db, |tx| {
        let store = RecordStore::open_or_create(tx, sub, md)?;
        let (rows, reason, continuation) = plan
            .execute(&store, continuation, props)?
            .collect_remaining_boxed()?;
        let ids = rows
            .iter()
            .map(|r| r.primary_key.get(0).unwrap().as_int().unwrap())
            .collect();
        Ok((ids, reason, continuation))
    })
    .unwrap()
}

/// What the planner makes of an OR, an `IN` or a text predicate — a merge
/// of equality and text scans, the unordered union, one scan, or by cost no
/// index at all — returns the records the filtered full scan returns, each
/// once, and pages like any cursor: from every continuation, under any scan
/// limit, across a delete. Every text comparison kind occurs, alone and as
/// an OR branch.
#[test]
fn planned_or_and_in_match_the_filtered_scan() {
    let kinds = RefCell::new(BTreeSet::new());
    check("planned_or_and_in_match_the_filtered_scan", 120, |rng| {
        let db = Database::new();
        let md = doc_metadata();
        let sub = Subspace::from_bytes(b"docs".to_vec());
        let records = rng.gen_range(20..70i64);
        record_layer::run(&db, |tx| {
            let store = RecordStore::open_or_create(tx, &sub, &md)?;
            for id in 0..records {
                let mut doc = store.new_record("Doc")?;
                doc.set("id", id).unwrap();
                doc.set("a", rng.gen_range(0..4i64)).unwrap();
                doc.set("b", DOC_B[rng.gen_range(0..3usize)]).unwrap();
                doc.set("n", rng.gen_range(0..10i64)).unwrap();
                doc.set("u", rng.gen_range(0..6i64)).unwrap();
                for tag in &DOC_TAGS[..3] {
                    if rng.gen_range(0..3u32) == 0 {
                        doc.push("tags", tag.to_string()).unwrap();
                    }
                }
                let body: Vec<String> = (0..rng.gen_range(0..=5usize))
                    .map(|_| {
                        let word = DOC_WORDS[rng.gen_range(0..4usize)];
                        mixed_case(rng, word)
                    })
                    .collect();
                doc.set("body", body.join(" ")).unwrap();
                store.save_record(doc)?;
            }
            Ok(())
        })
        .unwrap();

        let filter = arb_or_or_in(rng, &kinds);
        let query = RecordQuery::new().record_type("Doc").filter(filter.clone());
        let plan = RecordQueryPlanner::new(&md).plan(&query).unwrap();
        let scan = RecordQueryPlan::FullScan {
            record_types: Some(["Doc".to_string()].into()),
            residual: Some(filter.clone()),
            reverse: false,
        };
        let unlimited = ExecuteProperties::new();
        let page = |continuation: &Continuation, props: &ExecuteProperties| {
            doc_page(&db, &md, &sub, &plan, continuation, props)
        };
        let context = format!("{filter:?} as {}", plan.describe());

        // The same set as the scan it replaces, nothing twice.
        let (want, _, _) = doc_page(&db, &md, &sub, &scan, &Continuation::Start, &unlimited);
        let (one_shot, reason, _) = page(&Continuation::Start, &unlimited);
        assert_eq!(reason, NoNextReason::SourceExhausted);
        let mut as_set = one_shot.clone();
        as_set.sort_unstable();
        assert_eq!(as_set, want, "{context}");

        // Resumed after every row, the tail completes the stream.
        let continuations: Vec<Continuation> = record_layer::run(&db, |tx| {
            let store = RecordStore::open_or_create(tx, &sub, &md)?;
            let mut cursor = plan.execute(&store, &Continuation::Start, &unlimited)?;
            let mut out = Vec::new();
            while let CursorResult::Next { continuation, .. } = cursor.next()? {
                out.push(continuation);
            }
            Ok(out)
        })
        .unwrap();
        assert_eq!(continuations.len(), one_shot.len());
        for (row, continuation) in continuations.iter().enumerate() {
            let (rest, _, _) = page(continuation, &unlimited);
            assert_eq!(rest, one_shot[row + 1..], "after row {row} of {context}");
        }

        // Pages cut by random scan limits, never below the merge's
        // liveness floor of one entry per child, concatenate to it
        // (branches that filter for themselves run one after another).
        let floor = plan.children().len().max(3);
        let (mut paged, mut continuation) = (Vec::new(), Continuation::Start);
        for pages in 0.. {
            assert!(pages < 10_000, "no progress: {context}");
            let limit = rng.gen_range(floor..floor + 5);
            let (ids, reason, next) = page(
                &continuation,
                &ExecuteProperties::new().with_scan_limit(limit),
            );
            paged.extend(ids);
            if reason == NoNextReason::SourceExhausted {
                break;
            }
            assert_eq!(reason, NoNextReason::ScanLimitReached);
            continuation = next;
        }
        assert_eq!(paged, one_shot, "{context}");

        // A record deleted between two pages does not come back if it was
        // returned, is not returned if it was not, and hides no neighbour.
        if !one_shot.is_empty() {
            let first = rng.gen_range(1..=one_shot.len());
            let (ids, _, continuation) = page(
                &Continuation::Start,
                &ExecuteProperties::new().with_return_limit(first),
            );
            assert_eq!(ids, one_shot[..first]);
            let victim = one_shot[rng.gen_range(0..one_shot.len())];
            record_layer::run(&db, |tx| {
                let store = RecordStore::open_or_create(tx, &sub, &md)?;
                assert!(store.delete_record(&Tuple::from((victim,)))?);
                Ok(())
            })
            .unwrap();
            let (rest, _, _) = page(&continuation, &unlimited);
            let want: Vec<i64> = one_shot[first..]
                .iter()
                .copied()
                .filter(|&id| id != victim)
                .collect();
            assert_eq!(
                rest, want,
                "{victim} deleted after row {first} of {context}"
            );
        }
    });
    let kinds = kinds.into_inner();
    for kind in [
        "ContainsAll",
        "ContainsAny",
        "ContainsPrefix",
        "ContainsPhrase",
        "ContainsAllWithin",
    ] {
        for within in ["alone", "in an OR"] {
            let case = format!("{kind} {within}");
            assert!(kinds.contains(&case), "no text case {case}: {kinds:?}");
        }
    }
}

// ------------------------------------------- aggregate indexes vs a model

/// `Order(id, customer, amount, tags*)` with every atomic index type,
/// grouped by a plain field, by nothing, and by a fanned-out field.
fn order_metadata() -> RecordMetaData {
    let mut pool = DescriptorPool::new();
    pool.add_message(
        MessageDescriptor::new(
            "Order",
            vec![
                FieldDescriptor::optional("id", 1, FieldType::Int64),
                FieldDescriptor::optional("customer", 2, FieldType::String),
                FieldDescriptor::optional("amount", 3, FieldType::Int64),
                FieldDescriptor::repeated("tags", 4, FieldType::String),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    let customer = || KeyExpression::field("customer");
    let amount = || KeyExpression::field("amount");
    let tags = || KeyExpression::field_fanout("tags");
    let indexes = [
        Index::count("order_count", KeyExpression::Empty),
        Index::count("count_by_customer", customer()),
        Index::sum("sum_by_customer", customer(), amount()),
        Index::count_non_null("amount_non_null", KeyExpression::Empty, amount()),
        Index::count_updates("updates_by_customer", customer(), amount()),
        Index::max_ever("max_by_customer", customer(), amount()),
        Index::min_ever("min_by_customer", customer(), amount()),
        Index::count("count_by_tag", tags()),
        Index::sum("sum_by_tag", tags(), amount()),
        Index::max_ever("max_tag", KeyExpression::Empty, tags()),
        Index::min_ever("min_tag", KeyExpression::Empty, tags()),
    ];
    let mut builder =
        RecordMetaDataBuilder::new(pool).record_type("Order", KeyExpression::field("id"));
    for index in indexes {
        builder = builder.index("Order", index);
    }
    builder.build().unwrap()
}

const CUSTOMERS: [&str; 3] = ["a", "b", "c"];
const ORDER_TAGS: [&str; 3] = ["x", "y", "z"];

#[derive(Clone, Debug)]
struct Order {
    customer: &'static str,
    amount: Option<i64>,
    tags: Vec<&'static str>,
}

impl Order {
    fn multiplicity(&self, tag: &str) -> i64 {
        self.tags.iter().filter(|t| **t == tag).count() as i64
    }
}

/// Null one time in five, an `i64` extreme or a neighbour of 0 two in
/// five, else small.
fn arb_amount(rng: &mut XorShift64) -> Option<i64> {
    match rng.gen_range(0..5u32) {
        0 => None,
        1 | 2 => Some([i64::MIN, i64::MAX, -1, 0, 1][rng.gen_range(0..5usize)]),
        _ => Some(rng.gen_range(-50..50i64)),
    }
}

/// 0–3 tags drawn with replacement, so a tag repeats.
fn arb_tags(rng: &mut XorShift64) -> Vec<&'static str> {
    (0..rng.gen_range(0..=3usize))
        .map(|_| ORDER_TAGS[rng.gen_range(0..ORDER_TAGS.len())])
        .collect()
}

/// The live records, and the history the "ever" and update-count indexes
/// keep after a record is gone.
#[derive(Default)]
struct AggregateModel {
    live: std::collections::BTreeMap<i64, Order>,
    updates: std::collections::BTreeMap<&'static str, i64>,
    amount_range: std::collections::BTreeMap<&'static str, (i64, i64)>,
    tag_range: Option<(&'static str, &'static str)>,
}

impl AggregateModel {
    fn save(&mut self, id: i64, order: Order) {
        if let Some(a) = order.amount {
            *self.updates.entry(order.customer).or_default() += 1;
            let range = self.amount_range.entry(order.customer).or_insert((a, a));
            *range = (range.0.min(a), range.1.max(a));
        }
        for &t in &order.tags {
            let (lo, hi) = self.tag_range.get_or_insert((t, t));
            (*lo, *hi) = ((*lo).min(t), (*hi).max(t));
        }
        self.live.insert(id, order);
    }

    /// Every aggregate of every group, read back and recomputed.
    fn check(&self, db: &Database, md: &RecordMetaData, sub: &Subspace) {
        use record_layer::store::AggregateValue;
        let ever = |v: Option<TupleElement>| {
            v.map_or(AggregateValue::Absent, |e| {
                AggregateValue::Tuple(Tuple::from_elements(vec![e]))
            })
        };
        record_layer::run(db, |tx| {
            let store = RecordStore::open_or_create(tx, sub, md)?;
            let read = |index: &str, group: Tuple| store.evaluate_aggregate(index, &group).unwrap();
            let long = |index: &str, group: Tuple| read(index, group).as_long().unwrap();
            let live = || self.live.values();
            assert_eq!(long("order_count", Tuple::new()), live().count() as i64);
            let non_null = live().filter(|o| o.amount.is_some()).count() as i64;
            assert_eq!(long("amount_non_null", Tuple::new()), non_null);
            for c in CUSTOMERS {
                let group = || Tuple::from((c,));
                let mine = || live().filter(|o| o.customer == c);
                assert_eq!(
                    long("count_by_customer", group()),
                    mine().count() as i64,
                    "{c}"
                );
                let sum = mine().filter_map(|o| o.amount).fold(0, i64::wrapping_add);
                assert_eq!(long("sum_by_customer", group()), sum, "{c}");
                let updates = self.updates.get(c).copied().unwrap_or(0);
                assert_eq!(long("updates_by_customer", group()), updates, "{c}");
                let range = self.amount_range.get(c);
                let max = ever(range.map(|r| r.1.into()));
                assert_eq!(read("max_by_customer", group()), max, "{c}");
                let min = ever(range.map(|r| r.0.into()));
                assert_eq!(read("min_by_customer", group()), min, "{c}");
            }
            for t in ORDER_TAGS {
                let group = || Tuple::from((t,));
                let count: i64 = live().map(|o| o.multiplicity(t)).sum();
                assert_eq!(long("count_by_tag", group()), count, "{t}");
                let sum = live()
                    .filter_map(|o| Some(o.amount?.wrapping_mul(o.multiplicity(t))))
                    .fold(0, i64::wrapping_add);
                assert_eq!(long("sum_by_tag", group()), sum, "{t}");
            }
            let max = ever(self.tag_range.map(|r| r.1.into()));
            assert_eq!(read("max_tag", Tuple::new()), max);
            let min = ever(self.tag_range.map(|r| r.0.into()));
            assert_eq!(read("min_tag", Tuple::new()), min);
            Ok(())
        })
        .unwrap();
    }
}

/// The atomic maintainer folds a change's old and new contributions into
/// one mutation per group key. Random saves and deletes, several to a
/// transaction, on both engines; after each commit every aggregate equals
/// a recomputation from the model. The generator case reaching each fold
/// branch (each must be reached at least once per engine):
///
/// * `zero_sum` — `same_group` keeping the amount: COUNT, COUNT_NON_NULL
///   and SUM fold to 0 and write nothing; MAX/MIN_EVER drop the shared
///   operand.
/// * `difference` — `same_group` with a new amount: one SUM `ADD` of the
///   difference; one BYTE_MAX/MIN of the new operand.
/// * `two_keys` — `other_group`: one `ADD` on each group key.
/// * `null_operand` — an overwrite to a null amount: COUNT_NON_NULL and SUM
///   retract, COUNT_UPDATES adds nothing.
/// * `retract_i64_min` — an overwrite or `delete` of an `i64::MIN` amount:
///   the wrapping negation.
/// * `multiplicity` — a tag old and new both hold, a different number of
///   times: `count_by_tag` / `sum_by_tag` fold to the net count.
/// * `several_per_key` — a save with two or more distinct tags the old
///   record lacked: `max_tag` / `min_tag` keep the most extreme of them.
#[test]
fn aggregate_indexes_match_model() {
    use std::cell::RefCell;
    use std::collections::BTreeMap;

    fn cases_reached(old: &Order, new: Option<&Order>) -> Vec<&'static str> {
        let mut reached = Vec::new();
        if old.amount == Some(i64::MIN) {
            reached.push("retract_i64_min");
        }
        let Some(new) = new else {
            return reached;
        };
        if old.customer != new.customer {
            reached.push("two_keys");
        } else if old.amount == new.amount {
            reached.push("zero_sum");
        } else if old.amount.is_some() && new.amount.is_some() {
            reached.push("difference");
        }
        if old.amount.is_some() && new.amount.is_none() {
            reached.push("null_operand");
        }
        if new.tags.iter().any(|&t| {
            let (o, n) = (old.multiplicity(t), new.multiplicity(t));
            o > 0 && o != n
        }) {
            reached.push("multiplicity");
        }
        let mut fresh: Vec<_> = new.tags.iter().filter(|t| !old.tags.contains(t)).collect();
        fresh.sort();
        fresh.dedup();
        if fresh.len() >= 2 {
            reached.push("several_per_key");
        }
        reached
    }

    let md = order_metadata();
    for engine in ["memory", "paged"] {
        let reached = RefCell::new(BTreeMap::<&str, usize>::new());
        check(
            &format!("aggregate_indexes_match_model[{engine}]"),
            16,
            |rng| {
                let db = Database::with_options(DatabaseOptions {
                    engine: EngineKind::from_spec(engine).unwrap(),
                    ..DatabaseOptions::default()
                });
                let sub = Subspace::from_bytes(b"agg".to_vec());
                let mut model = AggregateModel::default();
                let mut next_id = 0i64;
                for _ in 0..10 {
                    let tx = db.create_transaction();
                    let store = RecordStore::open_or_create(&tx, &sub, &md).unwrap();
                    for _ in 0..rng.gen_range(1..=4u32) {
                        let existing = match model.live.len() {
                            0 => None,
                            n => model.live.iter().nth(rng.gen_range(0..n)),
                        };
                        let (id, new) = match (existing, rng.gen_range(0..5u32)) {
                            (None, _) | (_, 0) => {
                                next_id += 1;
                                let customer = CUSTOMERS[rng.gen_range(0..CUSTOMERS.len())];
                                let new = Order {
                                    customer,
                                    amount: arb_amount(rng),
                                    tags: arb_tags(rng),
                                };
                                (next_id, Some(new))
                            }
                            // same_group
                            (Some((&id, old)), 1 | 2) => {
                                let new = Order {
                                    customer: old.customer,
                                    amount: if rng.gen_range(0..2u32) == 0 {
                                        old.amount
                                    } else {
                                        arb_amount(rng)
                                    },
                                    tags: if rng.gen_range(0..3u32) == 0 {
                                        old.tags.clone()
                                    } else {
                                        arb_tags(rng)
                                    },
                                };
                                (id, Some(new))
                            }
                            // other_group
                            (Some((&id, old)), 3) => {
                                let at = CUSTOMERS.iter().position(|c| *c == old.customer).unwrap();
                                let customer = CUSTOMERS[(at + rng.gen_range(1..3usize)) % 3];
                                let new = Order {
                                    customer,
                                    amount: arb_amount(rng),
                                    tags: arb_tags(rng),
                                };
                                (id, Some(new))
                            }
                            // delete
                            (Some((&id, _)), _) => (id, None),
                        };
                        if let Some(old) = model.live.get(&id) {
                            for case in cases_reached(old, new.as_ref()) {
                                *reached.borrow_mut().entry(case).or_default() += 1;
                            }
                        }
                        match new {
                            Some(order) => {
                                let mut rec = store.new_record("Order").unwrap();
                                rec.set("id", id).unwrap();
                                rec.set("customer", order.customer).unwrap();
                                if let Some(a) = order.amount {
                                    rec.set("amount", a).unwrap();
                                }
                                for &t in &order.tags {
                                    rec.push("tags", t).unwrap();
                                }
                                store.save_record(rec).unwrap();
                                model.save(id, order);
                            }
                            None => {
                                assert!(store.delete_record(&Tuple::from((id,))).unwrap());
                                model.live.remove(&id);
                            }
                        }
                    }
                    drop(store);
                    tx.commit().unwrap();
                    model.check(&db, &md, &sub);
                }
            },
        );
        let reached = reached.into_inner();
        for case in [
            "zero_sum",
            "difference",
            "two_keys",
            "null_operand",
            "retract_i64_min",
            "multiplicity",
            "several_per_key",
        ] {
            assert!(
                reached.contains_key(case),
                "[{engine}] {case} never generated: {reached:?}"
            );
        }
    }
}
