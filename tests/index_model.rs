//! Index entries ≡ records, against a model: seeded saves, overwrites and
//! deletes of two record types, and after every commit each index's exact
//! `(key, value)` set equals the one the model's records give, packed with
//! `Subspace::pack(&Tuple)` — the tuple path the maintainers themselves no
//! longer take — and each index's entry-count statistic equals its number
//! of entries.
//!
//! The schema: `Item(id, group, score, tags*, note)` and `Other(id, group,
//! score)`, with
//!
//! * `by_score` — a plain VALUE index (`Item`);
//! * `by_group_score` — a compound VALUE index over both types;
//! * `by_tag` — a fan-out over the repeated `tags` (`Item`);
//! * `group_cover` — a `KeyWithValue` covering index: key `group`, value
//!   `score` (`Item`);
//! * `unique_note` — a unique VALUE index (`Item`);
//! * `a_by_score` — a sparse VALUE index: `score` of the `Item` records
//!   whose `group` is `"a"` (§6 index filter);
//! * `by_version` — a VERSION index over both types.
//!
//! The test asserts that each of these cases occurs (the generator's name
//! for it in brackets):
//!
//! * an overwrite that leaves an index unchanged (`unchanged_index`): the
//!   maintainer returns before packing anything;
//! * one fan-out element changed (`one_tag_changed`): one entry cleared,
//!   one set, the rest untouched;
//! * a duplicated fan-out element (`duplicated_tag`): one entry, counted
//!   once;
//! * a record type outside an index (`other_type`): an `Other` record,
//!   which five of the seven indexes do not apply to;
//! * an overwrite that moves a record into the sparse index's filter
//!   (`into_filter`) and one that moves it out (`out_of_filter`): one
//!   entry set, or one cleared, and the count bumped;
//! * an insert (`insert`) and a delete (`delete`);
//! * a rejected uniqueness violation (`unique_violation`): the save fails,
//!   and the transaction is dropped with everything it buffered.
//!
//! It uses `Database::new()`, so `RL_ENGINE=paged` runs it on the paged
//! engine.

use std::collections::{BTreeMap, BTreeSet};

use record_layer::expr::KeyExpression;
use record_layer::metadata::{Index, RecordMetaData, RecordMetaDataBuilder};
use record_layer::query::{Comparison, QueryComponent};
use record_layer::store::RecordStore;
use record_layer::Error;
use rl_fdb::tuple::Tuple;
use rl_fdb::{Database, RangeOptions, Subspace};
use rl_harness::rng::{Rng, XorShift64};
use rl_message::{DescriptorPool, FieldDescriptor, FieldType, MessageDescriptor};

const GROUPS: [&str; 3] = ["a", "b", "c"];
const TAGS: [&str; 4] = ["w", "x", "y", "z"];
const NOTES: usize = 16;

fn metadata() -> RecordMetaData {
    let mut pool = DescriptorPool::new();
    pool.add_message(
        MessageDescriptor::new(
            "Item",
            vec![
                FieldDescriptor::optional("id", 1, FieldType::Int64),
                FieldDescriptor::optional("group", 2, FieldType::String),
                FieldDescriptor::optional("score", 3, FieldType::Int64),
                FieldDescriptor::repeated("tags", 4, FieldType::String),
                FieldDescriptor::optional("note", 5, FieldType::String),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    pool.add_message(
        MessageDescriptor::new(
            "Other",
            vec![
                FieldDescriptor::optional("id", 1, FieldType::Int64),
                FieldDescriptor::optional("group", 2, FieldType::String),
                FieldDescriptor::optional("score", 3, FieldType::Int64),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    RecordMetaDataBuilder::new(pool)
        .record_type("Item", KeyExpression::field("id"))
        .record_type("Other", KeyExpression::field("id"))
        .store_record_versions(true)
        .index(
            "Item",
            Index::value("by_score", KeyExpression::field("score")),
        )
        .multi_type_index(
            &["Item", "Other"],
            Index::value(
                "by_group_score",
                KeyExpression::concat_fields("group", "score"),
            ),
        )
        .index(
            "Item",
            Index::value("by_tag", KeyExpression::field_fanout("tags")),
        )
        .index(
            "Item",
            Index::value(
                "group_cover",
                KeyExpression::field("group").with_value(KeyExpression::field("score")),
            ),
        )
        .index(
            "Item",
            Index::value("unique_note", KeyExpression::field("note")).with_unique(),
        )
        .index(
            "Item",
            Index::value("a_by_score", KeyExpression::field("score")).with_filter(
                QueryComponent::field("group", Comparison::Equals("a".into())),
            ),
        )
        .multi_type_index(
            &["Item", "Other"],
            Index::version("by_version", KeyExpression::Version),
        )
        .build()
        .unwrap()
}

/// One record as the model keeps it. `Other` records have no tags and no
/// note.
#[derive(Debug, Clone, PartialEq)]
struct Rec {
    item: bool,
    group: &'static str,
    score: i64,
    tags: Vec<&'static str>,
    note: String,
}

impl Rec {
    fn record_type(&self) -> &'static str {
        if self.item {
            "Item"
        } else {
            "Other"
        }
    }

    /// The entries (key columns, value columns) this record gives
    /// `index`, the VERSION index's column being `version`.
    fn entries(&self, index: &str, version: &Tuple) -> BTreeSet<(Tuple, Tuple)> {
        let key = |t: Tuple| (t, Tuple::new());
        match (index, self.item) {
            ("by_score", true) => [key(Tuple::from((self.score,)))].into(),
            ("by_group_score", _) => [key(Tuple::from((self.group, self.score)))].into(),
            ("by_tag", true) => self.tags.iter().map(|t| key(Tuple::from((*t,)))).collect(),
            ("group_cover", true) => {
                [(Tuple::from((self.group,)), Tuple::from((self.score,)))].into()
            }
            ("unique_note", true) => [key(Tuple::from((self.note.as_str(),)))].into(),
            ("a_by_score", true) if self.group == "a" => [key(Tuple::from((self.score,)))].into(),
            ("by_version", _) => [key(version.clone())].into(),
            _ => BTreeSet::new(),
        }
    }
}

const INDEXES: [&str; 7] = [
    "by_score",
    "by_group_score",
    "by_tag",
    "group_cover",
    "unique_note",
    "a_by_score",
    "by_version",
];

fn arbitrary(rng: &mut XorShift64, item: bool) -> Rec {
    let tags = if item {
        (0..rng.gen_range(0..4usize))
            .map(|_| TAGS[rng.gen_range(0..TAGS.len())])
            .collect()
    } else {
        Vec::new()
    };
    Rec {
        item,
        group: GROUPS[rng.gen_range(0..GROUPS.len())],
        score: rng.gen_range(0..4i64),
        tags,
        note: if item {
            format!("n{}", rng.gen_range(0..NOTES))
        } else {
            String::new()
        },
    }
}

/// An overwrite of `old`: each field kept or redrawn, the tags also
/// edited in place.
fn overwrite(rng: &mut XorShift64, old: &Rec) -> Rec {
    let fresh = arbitrary(rng, old.item);
    let mut new = old.clone();
    if rng.gen_range(0..3u32) == 0 {
        new.group = fresh.group;
    }
    if rng.gen_range(0..2u32) == 0 {
        new.score = fresh.score;
    }
    if rng.gen_range(0..6u32) == 0 {
        new.note = fresh.note;
    }
    if old.item {
        match rng.gen_range(0..4u32) {
            0 if !new.tags.is_empty() => {
                let at = rng.gen_range(0..new.tags.len());
                new.tags[at] = TAGS[rng.gen_range(0..TAGS.len())];
            }
            1 if !new.tags.is_empty() => {
                let at = rng.gen_range(0..new.tags.len());
                new.tags.push(new.tags[at]);
            }
            2 => new.tags = fresh.tags,
            _ => {}
        }
    }
    new
}

/// The generator cases one change reaches.
fn cases(old: Option<&Rec>, new: Option<&Rec>) -> Vec<&'static str> {
    let mut reached = Vec::new();
    if old.or(new).is_some_and(|r| !r.item) {
        reached.push("other_type");
    }
    match (old, new) {
        (None, Some(_)) => reached.push("insert"),
        (Some(_), None) => reached.push("delete"),
        (Some(old), Some(new)) => {
            let none = Tuple::new();
            // Every index but `by_version`, which a save always changes.
            let unchanged = INDEXES[..6].iter().any(|index| {
                let entries = old.entries(index, &none);
                !entries.is_empty() && entries == new.entries(index, &none)
            });
            if unchanged {
                reached.push("unchanged_index");
            }
            if old.item && (old.group == "a") != (new.group == "a") {
                reached.push(if new.group == "a" {
                    "into_filter"
                } else {
                    "out_of_filter"
                });
            }
            let set = |tags: &[&'static str]| tags.iter().copied().collect::<BTreeSet<_>>();
            let differing = old.tags.iter().zip(&new.tags).filter(|(a, b)| a != b);
            if old.tags.len() == new.tags.len()
                && differing.count() == 1
                && set(&old.tags) != set(&new.tags)
            {
                reached.push("one_tag_changed");
            }
        }
        (None, None) => {}
    }
    if new.is_some_and(|r| set_len(&r.tags) < r.tags.len()) {
        reached.push("duplicated_tag");
    }
    reached
}

fn set_len(tags: &[&str]) -> usize {
    tags.iter().collect::<BTreeSet<_>>().len()
}

/// Whether `rec`, saved as record `id`, would give its note to a second
/// live record.
fn violates_unique(live: &BTreeMap<i64, Rec>, id: i64, rec: &Rec) -> bool {
    rec.item
        && live
            .iter()
            .any(|(other, r)| *other != id && r.item && r.note == rec.note)
}

fn save(store: &RecordStore<'_>, id: i64, rec: &Rec) -> record_layer::Result<()> {
    let mut m = store.new_record(rec.record_type())?;
    m.set("id", id).unwrap();
    m.set("group", rec.group).unwrap();
    m.set("score", rec.score).unwrap();
    if rec.item {
        for &tag in &rec.tags {
            m.push("tags", tag).unwrap();
        }
        m.set("note", rec.note.as_str()).unwrap();
    }
    store.save_record(m).map(drop)
}

/// Every index's stored `(key, value)` set equals the model's, and its
/// entry-count statistic its number of entries.
fn check(db: &Database, md: &RecordMetaData, sub: &Subspace, live: &BTreeMap<i64, Rec>) {
    let tx = db.create_transaction();
    let store = RecordStore::open_or_create(&tx, sub, md).unwrap();
    let mut versions = BTreeMap::new();
    for &id in live.keys() {
        let version = store.load_record_version(&Tuple::from((id,))).unwrap();
        versions.insert(
            id,
            Tuple::new().push(version.expect("records store versions")),
        );
    }
    for name in INDEXES {
        let index_sub = store.index_subspace(md.index(name).unwrap());
        let mut want = BTreeSet::new();
        for (&id, rec) in live {
            for (key, value) in rec.entries(name, &versions[&id]) {
                let key = index_sub.pack(&key.concat(&Tuple::from((id,))));
                let value = if value.is_empty() {
                    Vec::new()
                } else {
                    value.pack()
                };
                want.insert((key, value));
            }
        }
        let (begin, end) = index_sub.range_inclusive();
        let got: BTreeSet<_> = tx
            .get_range(&begin, &end, RangeOptions::default())
            .unwrap()
            .into_iter()
            .map(|kv| (kv.key, kv.value))
            .collect();
        assert_eq!(got, want, "index {name} disagrees with the records");
        let count = store.index_entry_count(name).unwrap().unwrap_or(0);
        assert_eq!(
            count,
            got.len() as u64,
            "index {name}: entry-count statistic against its entries"
        );
    }
}

#[test]
fn index_entries_equal_what_the_records_give() {
    let md = metadata();
    let mut reached = BTreeMap::<&str, usize>::new();
    for case in 0..24u64 {
        let mut rng = XorShift64::seed_from_u64(0x1DE7_0000 + case);
        let db = Database::new();
        let sub = Subspace::from_bytes(b"model".to_vec());
        let mut live = BTreeMap::<i64, Rec>::new();
        for _ in 0..12 {
            let tx = db.create_transaction();
            let store = RecordStore::open_or_create(&tx, &sub, &md).unwrap();
            // This transaction's changes; committed into `live` with it.
            let mut next = live.clone();
            let mut rejected = false;
            for _ in 0..rng.gen_range(1..=3u32) {
                let item = rng.gen_range(0..4u32) != 0;
                let ids = if item { 0..10i64 } else { 100..104 };
                let id = rng.gen_range(ids);
                let old = next.get(&id).cloned();
                let new = match &old {
                    Some(_) if rng.gen_range(0..4u32) == 0 => None,
                    Some(old) => Some(overwrite(&mut rng, old)),
                    None => Some(arbitrary(&mut rng, item)),
                };
                match &new {
                    Some(rec) => {
                        let result = save(&store, id, rec);
                        if violates_unique(&next, id, rec) {
                            assert!(
                                matches!(result, Err(Error::UniquenessViolation { .. })),
                                "case {case}: saving {rec:?} as {id} gave {result:?}"
                            );
                            *reached.entry("unique_violation").or_default() += 1;
                            rejected = true;
                            break;
                        }
                        result.unwrap();
                        next.insert(id, rec.clone());
                    }
                    None => {
                        assert!(store.delete_record(&Tuple::from((id,))).unwrap());
                        next.remove(&id);
                    }
                }
                for name in cases(old.as_ref(), new.as_ref()) {
                    *reached.entry(name).or_default() += 1;
                }
            }
            drop(store);
            if rejected {
                // Dropped uncommitted: nothing it buffered lands.
                continue;
            }
            tx.commit().unwrap();
            live = next;
            check(&db, &md, &sub, &live);
        }
    }
    for name in [
        "unchanged_index",
        "one_tag_changed",
        "duplicated_tag",
        "into_filter",
        "out_of_filter",
        "other_type",
        "insert",
        "delete",
        "unique_violation",
    ] {
        assert!(
            reached.contains_key(name),
            "{name} never generated: {reached:?}"
        );
    }
    println!("cases reached: {reached:?}");
}
