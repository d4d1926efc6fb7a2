//! Index subspace keys under evolution, against a record of every key ever
//! assigned: seeded sequences of index additions, drops and re-additions
//! over seven to nine metadata versions, each built with
//! `RecordMetaDataBuilder::from_existing`, and two stores per engine that
//! catch up to them.
//!
//! At every version the test asserts that the metadata's keys are unique,
//! that an index that survives keeps its key, that a new index takes a key
//! no older version assigned, and that `validate_evolution_from` accepts
//! the step. At every open it asserts that nothing is left under a dropped
//! key's `S(2, k)`, `S(3, k)`, `S(4, k)` or `S(5, 1, k)`, that the store
//! records a state for exactly the metadata's keys, that an index new to
//! the store (a re-added name included) starts with no entries, build
//! progress or count, and that each readable VALUE and RANK index holds
//! exactly one entry per record.
//!
//! The generator cases, by the name the test counts them under, all of
//! which must occur:
//!
//! * metadata steps: `add` (a name never used), `drop`, `readd` (a name
//!   dropped at an earlier version), `drop_and_add` (both in one version)
//!   and `unchanged` (a version with the same indexes);
//! * the lagging store, which opens only at some versions:
//!   `skipped_versions` (it catches up over two or more versions) and
//!   `readd_across_catch_up` (a name it knows was dropped and re-added
//!   under a new key in between);
//! * index data a drop must clear: `cleared_entries` (a dropped key with
//!   entries) and `cleared_build_progress` (a dropped key with an
//!   interrupted build's progress);
//! * index builds: `online_build` (a disabled index built to readable) and
//!   `interrupted_build` (a write-only index with a progress marker, left
//!   for a later build);
//! * `readd_starts_empty`: a re-added name's first open in a store.
//!
//! Each case runs on the memory and the paged engine.

use std::collections::{BTreeMap, BTreeSet};

use record_layer::expr::KeyExpression;
use record_layer::index::builder::OnlineIndexBuilder;
use record_layer::index::IndexState;
use record_layer::metadata::{Index, IndexType, RecordMetaData, RecordMetaDataBuilder};
use record_layer::store::RecordStore;
use rl_fdb::tuple::Tuple;
use rl_fdb::{Database, DatabaseOptions, EngineKind, RangeOptions, Subspace};
use rl_harness::rng::{Rng, XorShift64};
use rl_message::{DescriptorPool, FieldDescriptor, FieldType, MessageDescriptor};

/// Every index name a sequence may use, each always with one definition.
const NAMES: [&str; 7] = [
    "by_a",
    "by_b",
    "by_ab",
    "by_c",
    "count_by_a",
    "sum_b",
    "rank_b",
];

fn definition(name: &str) -> Index {
    let field = KeyExpression::field;
    match name {
        "by_a" => Index::value(name, field("a")),
        "by_b" => Index::value(name, field("b")),
        "by_ab" => Index::value(name, KeyExpression::concat_fields("a", "b")),
        "by_c" => Index::value(name, field("c")),
        "count_by_a" => Index::count(name, field("a")),
        "sum_b" => Index::sum(name, KeyExpression::Empty, field("b")),
        "rank_b" => Index::rank(name, field("b")),
        other => unreachable!("{other}"),
    }
}

fn version_one(rng: &mut XorShift64) -> RecordMetaData {
    let mut pool = DescriptorPool::new();
    pool.add_message(
        MessageDescriptor::new(
            "T",
            vec![
                FieldDescriptor::optional("id", 1, FieldType::Int64),
                FieldDescriptor::optional("a", 2, FieldType::Int64),
                FieldDescriptor::optional("b", 3, FieldType::Int64),
                FieldDescriptor::optional("c", 4, FieldType::String),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    let mut builder = RecordMetaDataBuilder::new(pool).record_type("T", KeyExpression::field("id"));
    let first = rng.gen_range(0..NAMES.len());
    for name in [NAMES[first], NAMES[(first + 3) % NAMES.len()]] {
        builder = builder.index("T", definition(name));
    }
    builder.build().unwrap()
}

fn pick<'n>(rng: &mut XorShift64, from: &[&'n str]) -> &'n str {
    from[rng.gen_range(0..from.len())]
}

/// One evolution step from `prev`: the generator case it is and the next
/// metadata.
fn evolve(
    rng: &mut XorShift64,
    prev: &RecordMetaData,
    ever: &BTreeSet<&str>,
) -> (&'static str, RecordMetaData) {
    let present: Vec<&str> = NAMES
        .into_iter()
        .filter(|n| prev.index(n).is_ok())
        .collect();
    let never: Vec<&str> = NAMES.into_iter().filter(|n| !ever.contains(n)).collect();
    let dropped: Vec<&str> = NAMES
        .into_iter()
        .filter(|n| ever.contains(n) && prev.index(n).is_err())
        .collect();
    let mut possible = vec!["unchanged"];
    if !never.is_empty() {
        possible.push("add");
    }
    if present.len() > 1 {
        possible.push("drop");
    }
    if !dropped.is_empty() {
        possible.push("readd");
    }
    if !present.is_empty() && never.len() + dropped.len() > 0 {
        possible.push("drop_and_add");
    }
    let case = pick(rng, &possible);
    let builder = RecordMetaDataBuilder::from_existing(prev);
    let builder = match case {
        "unchanged" => builder,
        "add" => builder.index("T", definition(pick(rng, &never))),
        "drop" => builder.drop_index(pick(rng, &present)),
        "readd" => builder.index("T", definition(pick(rng, &dropped))),
        "drop_and_add" => {
            let absent: Vec<&str> = never.iter().chain(&dropped).copied().collect();
            builder
                .drop_index(pick(rng, &present))
                .index("T", definition(pick(rng, &absent)))
        }
        other => unreachable!("{other}"),
    };
    (case, builder.build().unwrap())
}

/// Rows under `S(2, k)`, `S(3, k)`, `S(4, k)` and `S(5, 1, k)` of `sub`.
fn rows_under(db: &Database, sub: &Subspace, key: i64) -> [usize; 4] {
    let tx = db.create_transaction();
    [
        sub.child(2i64).child(key),
        sub.child(3i64).child(key),
        sub.child(4i64).child(key),
        sub.child(5i64).child(1i64).child(key),
    ]
    .map(|s| {
        let (begin, end) = s.range_inclusive();
        tx.get_range(&begin, &end, RangeOptions::default())
            .unwrap()
            .len()
    })
}

/// The subspace keys `sub` records a state for, read raw from `S(3)`.
fn recorded_keys(db: &Database, sub: &Subspace) -> BTreeSet<i64> {
    let tx = db.create_transaction();
    let states = sub.child(3i64);
    let (begin, end) = states.range();
    tx.get_range(&begin, &end, RangeOptions::default())
        .unwrap()
        .iter()
        .map(|kv| {
            states
                .unpack(&kv.key)
                .unwrap()
                .get(0)
                .unwrap()
                .as_int()
                .unwrap()
        })
        .collect()
}

/// A record's `(a, b, c)`.
type Fields = (i64, i64, &'static str);

/// A store that catches up to some of the versions, with the records it
/// holds by id and the metadata it last opened with.
struct Tenant {
    sub: Subspace,
    records: BTreeMap<i64, Fields>,
    opened_with: Option<usize>,
}

/// Open `tenant` at `versions[at]` and check what the catch-up left.
fn catch_up(
    db: &Database,
    tenant: &mut Tenant,
    versions: &[(&'static str, RecordMetaData)],
    at: usize,
    rng: &mut XorShift64,
    reached: &mut BTreeMap<&'static str, usize>,
) {
    let md = &versions[at].1;
    let keys: BTreeSet<i64> = md.indexes().map(|i| i.subspace_key()).collect();
    // Every key this version or an earlier one assigned.
    let assigned: BTreeSet<i64> = versions[..=at]
        .iter()
        .flat_map(|(_, old)| old.indexes().map(|i| i.subspace_key()))
        .collect();
    let ctx = format!("{:?} at version {}", tenant.sub, md.version());
    let before = tenant.opened_with.map(|v| &versions[v].1);
    if let Some(old) = before {
        if md.version() - old.version() >= 2 {
            *reached.entry("skipped_versions").or_default() += 1;
        }
        for index in old.indexes() {
            if md
                .index(&index.name)
                .is_ok_and(|i| i.subspace_key() != index.subspace_key())
            {
                *reached.entry("readd_across_catch_up").or_default() += 1;
            }
        }
    }
    // What a drop at this open must clear.
    for key in recorded_keys(db, &tenant.sub).difference(&keys) {
        let [entries, _, progress, _] = rows_under(db, &tenant.sub, *key);
        if entries > 0 {
            *reached.entry("cleared_entries").or_default() += 1;
        }
        if progress > 0 {
            *reached.entry("cleared_build_progress").or_default() += 1;
        }
    }

    let has_records = !tenant.records.is_empty();
    record_layer::run(db, |tx| {
        RecordStore::open_or_create(tx, &tenant.sub, md)?;
        Ok(())
    })
    .unwrap();

    for &key in assigned.difference(&keys) {
        assert_eq!(
            rows_under(db, &tenant.sub, key),
            [0; 4],
            "{ctx}: dropped key {key} left data"
        );
    }
    assert_eq!(
        recorded_keys(db, &tenant.sub),
        keys,
        "{ctx}: recorded states"
    );
    for index in md.indexes() {
        let new_here = before.is_none_or(|old| index.added_version > old.version());
        if !new_here {
            continue;
        }
        assert_eq!(
            rows_under(db, &tenant.sub, index.subspace_key()),
            [0, 1, 0, 0],
            "{ctx}: new index {} does not start empty",
            index.name
        );
        let readded = versions[..at]
            .iter()
            .any(|(_, old)| old.index(&index.name).is_ok());
        if readded {
            *reached.entry("readd_starts_empty").or_default() += 1;
        }
    }
    tenant.opened_with = Some(at);

    // Build or half-build some disabled indexes, then change records.
    for index in md.indexes() {
        let state = record_layer::run(db, |tx| {
            RecordStore::open_or_create(tx, &tenant.sub, md)?.index_state(&index.name)
        })
        .unwrap();
        let expected = if has_records && index.added_version > before.map_or(0, |b| b.version()) {
            IndexState::Disabled
        } else {
            state
        };
        assert_eq!(state, expected, "{ctx}: {}", index.name);
        if state == IndexState::Readable {
            continue;
        }
        match rng.gen_range(0..3u32) {
            0 => {
                OnlineIndexBuilder::new(db, &tenant.sub, md, index.name.clone())
                    .batch_size(7)
                    .build()
                    .unwrap();
                *reached.entry("online_build").or_default() += 1;
            }
            1 if state == IndexState::Disabled => {
                record_layer::run(db, |tx| {
                    let store = RecordStore::open_or_create(tx, &tenant.sub, md)?;
                    store.set_index_state(&index.name, IndexState::WriteOnly)?;
                    let progress = store
                        .index_range_subspace(index)
                        .pack(&Tuple::new().push("progress"));
                    tx.set(&progress, b"interrupted");
                    Ok(())
                })
                .unwrap();
                *reached.entry("interrupted_build").or_default() += 1;
            }
            _ => {}
        }
    }
    let changes: Vec<(i64, Option<Fields>)> = (0..rng.gen_range(2..=4u32))
        .map(|_| {
            let id = rng.gen_range(0..24i64);
            let fields = (rng.gen_range(0..5u32) != 0).then(|| {
                (
                    rng.gen_range(0..3i64),
                    rng.gen_range(0..5i64),
                    ["x", "y", "z"][rng.gen_range(0..3usize)],
                )
            });
            (id, fields)
        })
        .collect();
    record_layer::run(db, |tx| {
        let store = RecordStore::open_or_create(tx, &tenant.sub, md)?;
        for &(id, fields) in &changes {
            match fields {
                Some((a, b, c)) => {
                    let mut rec = store.new_record("T")?;
                    rec.set("id", id).unwrap();
                    rec.set("a", a).unwrap();
                    rec.set("b", b).unwrap();
                    rec.set("c", c).unwrap();
                    store.save_record(rec)?;
                }
                None => {
                    store.delete_record(&Tuple::new().push(id))?;
                }
            }
        }
        Ok(())
    })
    .unwrap();
    for (id, fields) in changes {
        match fields {
            Some(fields) => tenant.records.insert(id, fields),
            None => tenant.records.remove(&id),
        };
    }

    // Every readable VALUE and RANK index holds one entry per record,
    // nothing from a dropped index that shared its name.
    record_layer::run(db, |tx| {
        let store = RecordStore::open_or_create(tx, &tenant.sub, md)?;
        for index in md.indexes() {
            if store.index_state(&index.name)? != IndexState::Readable {
                continue;
            }
            let entries = match index.index_type {
                IndexType::Value => {
                    let (begin, end) = store.index_subspace(index).range_inclusive();
                    tx.get_range(&begin, &end, RangeOptions::default())?.len()
                }
                IndexType::Rank => store.rank_count(&index.name)? as usize,
                _ => continue,
            };
            assert_eq!(entries, tenant.records.len(), "{ctx}: {}", index.name);
        }
        Ok(())
    })
    .unwrap();
}

#[test]
fn subspace_keys_survive_evolution_and_are_never_reused() {
    let mut reached: BTreeMap<&'static str, usize> = BTreeMap::new();
    for case in 0..12u64 {
        let mut rng = XorShift64::seed_from_u64(0x5B5_0000 + case);
        let mut versions = vec![("version_one", version_one(&mut rng))];
        let mut ever: BTreeSet<&str> = BTreeSet::new();
        let mut assigned: BTreeSet<i64> = BTreeSet::new();
        for v in 0..rng.gen_range(7..=9usize) {
            if v > 0 {
                let prev = &versions[v - 1].1;
                let (step, md) = evolve(&mut rng, prev, &ever);
                md.validate_evolution_from(prev).unwrap();
                for index in md.indexes() {
                    match prev.index(&index.name) {
                        Ok(old) => assert_eq!(index.subspace_key(), old.subspace_key()),
                        Err(_) => assert!(
                            assigned
                                .last()
                                .is_none_or(|&last| index.subspace_key() > last),
                            "case {case}: {} reuses key {}",
                            index.name,
                            index.subspace_key()
                        ),
                    }
                }
                *reached.entry(step).or_default() += 1;
                versions.push((step, md));
            }
            let md = &versions[v].1;
            let keys: BTreeSet<i64> = md.indexes().map(|i| i.subspace_key()).collect();
            assert_eq!(
                keys.len(),
                md.indexes().count(),
                "case {case}: duplicate keys"
            );
            assigned.extend(&keys);
            ever.extend(NAMES.into_iter().filter(|n| md.index(n).is_ok()));
        }

        for engine in ["memory", "paged"] {
            let db = Database::with_options(DatabaseOptions {
                engine: EngineKind::from_spec(engine).unwrap(),
                ..DatabaseOptions::default()
            });
            let mut rng = XorShift64::seed_from_u64(0xCA7C_0000 + case);
            let mut eager = Tenant {
                sub: Subspace::from_tuple(&Tuple::new().push(1i64).push("eager")),
                records: BTreeMap::new(),
                opened_with: None,
            };
            let mut lagging = Tenant {
                sub: Subspace::from_tuple(&Tuple::new().push(2i64).push("lagging")),
                records: BTreeMap::new(),
                opened_with: None,
            };
            let last = versions.len() - 1;
            for at in 0..versions.len() {
                catch_up(&db, &mut eager, &versions, at, &mut rng, &mut reached);
                if at == 0 || at == last || rng.gen_range(0..3u32) == 0 {
                    catch_up(&db, &mut lagging, &versions, at, &mut rng, &mut reached);
                }
            }
        }
    }
    println!("cases reached: {reached:?}");
    for case in [
        "add",
        "drop",
        "readd",
        "drop_and_add",
        "unchanged",
        "skipped_versions",
        "readd_across_catch_up",
        "cleared_entries",
        "cleared_build_progress",
        "online_build",
        "interrupted_build",
        "readd_starts_empty",
    ] {
        assert!(reached.contains_key(case), "case {case} never occurred");
    }
}
