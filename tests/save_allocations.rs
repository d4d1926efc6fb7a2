//! Allocation budget of the save path: heap allocations per `save_record`
//! and per `commit` of a transaction that overwrites one record, counted by
//! the `#[global_allocator]` of `items`. A count, not a time: it repeats
//! exactly on one build (memory engine, one thread, fixed population), so a
//! change to the record serializer, index maintenance, the transaction's
//! write buffer or the commit path that moves it shows up here before any
//! benchmark run.
//!
//! Two overwrites of one of 2 000 `Item`s are counted. A *score change*
//! moves the record's `by_score` and `by_group_score` entries and adds to
//! its group's `score_sum`. A *payload change* rewrites only the payload
//! bytes, so no indexed field changes.
//!
//! The keys one overwrite writes, by class (a clear is not a write; each
//! moved VALUE entry also clears its old key):
//!
//! | class                     | score change         | payload change |
//! |---------------------------|----------------------|----------------|
//! | payload `S(1, pk, 0)`     | 1 set                | 1 set          |
//! | version `S(1, pk, -1)`    | 1 stamped value      | 1 stamped value|
//! | `by_group` (VALUE)        | —                    | —              |
//! | `by_score` (VALUE)        | 1 set, 1 clear       | —              |
//! | `by_group_score` (VALUE)  | 1 set, 1 clear       | —              |
//! | `score_sum` (SUM)         | 1 ADD                | —              |
//! | `item_count` (COUNT)      | —                    | —              |
//! | `by_version` (VERSION)    | 1 set, 1 clear       | 1 set, 1 clear |
//! | entry-count stat ADDs     | —                    | —              |
//!
//! Six keys for a score change, three for a payload change. The paper pays
//! the same six (§6: an unchanged index is not updated, a VALUE entry
//! moves by a clear and a set, an aggregate takes one atomic mutation), and
//! its VERSION entries hold the commit version, which every save changes.
//! `by_version` is keyed on `id` alone, so here that rewrite stores the
//! bytes it replaces; the CI floor's baselines count it, so it stays. The
//! entry-count statistics are this repository's, for the planner; an
//! overwrite leaves every count as it was and writes none of them.
//!
//! Where a payload change's 16.00 allocations go (one save of the 200,
//! whose payload is all NULs, grows its envelope once more for the
//! escapes: 16.005). The save's one scratch
//! for every evaluation (`PackedRows`: packed bytes, elements, rows), 3;
//! the primary key, evaluated into it, then unpacked and packed once, 2;
//! the lending read of the old record (its bounds' buffer and the buffer
//! its payload is copied into, where the envelope is undone; the range it
//! conflicts on lies inline in the transaction), 2; the old record's
//! field table (its `WireMessage`; no field of it is decoded), 1; the
//! envelope, encoded straight into one buffer the `Plain` serializer
//! keeps, 1; the payload and version writes, 3; the `by_version` entry's
//! clear and versionstamped set, 2; and the write set's map and
//! versionstamped-key list, each taking its first block, 2.
//! The six indexes' twelve evaluations allocate nothing more: they pack
//! into the scratch and compare bytes, and an unchanged index builds no
//! key. Before, those evaluations built a `Tuple` per record and index
//! and a `String` per string column (28), and the old record was decoded
//! (9 with its read). A key written once keeps its op inline in the write
//! set (−2 here: the payload and the version; the new `by_version` entry
//! is a versionstamped key, buffered apart). The read-conflict arena's
//! first block holds eight conflicts the size of its first, so it no
//! longer grows once in this transaction (−1); since a transaction's
//! first read conflicts lie in the transaction itself, that block and the
//! arena's offsets are gone (−2). A
//! score change adds 7: `by_score` and `by_group_score` each pack a clear
//! and a set (2 + 2), `score_sum` one group key and its operand (2; the
//! old and the new score fold into one `ADD` before any key is built),
//! and the list `score_sum` sorts its contributions in (1). Debug and
//! release builds count the same.
//!
//! Of a commit, the memory engine's share: per key, a copy of the key, a
//! chain `Vec` for a new key and a copy of a non-empty value, plus a list
//! of the batch's buffers, made 13 allocations of a score change's commit
//! and 6 of a payload change's. Since keys of up to 30 bytes and a key's
//! one version live in the map's nodes, it makes 7 and 5: the two value
//! copies (payload and record version), and one two-version `Vec` per key
//! whose chain held one version (every key an overwrite rewrites or
//! clears here, as no compaction runs between the saves).
//!
//! Since a commit applies its own write set instead of joining a
//! group-commit batch, it makes 7 allocations fewer: the batcher's queue,
//! the receipt list, the per-member tally, member and order lists, and the
//! k-way merge's two lists of member heads. A score change's commit makes
//! one fewer again: the engine batch of its eight keys is sized once from
//! the write set instead of grown from empty (to 4, then 8 entries).
//!
//! Baselines: the parent of the change that builds each key once (packed
//! into one buffer of its final size and moved into the write set, nothing
//! built for an unchanged entry, one shared copy of a commit's write
//! conflicts in the conflict window); that change; the change that keeps
//! short keys and one-version chains in the memory engine's nodes; the
//! change that removes group commit; and the change that keeps conflicts
//! in one arena and drops the per-record type-name copy (*arena*). The
//! arena leaves these commits as they were: their write sets hold neither
//! a versionstamped key (`by_version` is keyed on `id`) nor a range clear,
//! the two write conflicts it stops copying into pairs of their own.
//! Then the change that reads the old record where its bytes lie and
//! compares packed entries (*wire*), with one op inline per written key
//! and the conflict arena's first block: it leaves the commits as they
//! were. Last, the change that coalesces a transaction's buffered atomic
//! ops (*coalesce*). A score change's commit applies `score_sum`'s ADD
//! twice, once over no value when it validates the operands and once over
//! the stored value; each application now allocates only its result,
//! where it also copied the stored value first (−2). Last, the change
//! that keeps a transaction's first read conflicts inline and a commit's
//! write conflicts, each key after its length, in one block where keys
//! and their offsets took two (*reads inline*): −2 per save, as above,
//! and −1 per commit.
//!
//! | path                                    | parent | keys once | inline | straight | arena | wire  | coalesce | reads inline | budget |
//! |-----------------------------------------|--------|-----------|--------|----------|-------|-------|----------|--------------|--------|
//! | `save_record`, score change, per call   | 230.39 |   68.39   | 68.39  |  68.39   | 67.39 | 25.00 |  25.00   |    23.00     | 23     |
//! | `commit` of that one save, per call     |  47.27 |   31.27   | 25.27  |  17.27   | 17.27 | 17.27 |  15.27   |    14.27     | 15     |
//! | `save_record`, payload change, per call | 193.40 |   51.40   | 51.40  |  51.40   | 50.40 | 18.00 |  18.00   |    16.00     | 17     |
//! | `commit` of that one save, per call     |  24.02 |   18.02   | 17.02  |  10.02   | 10.02 | 10.02 |  10.02   |     9.02     | 10     |
//!
//! ## Bulk loads
//!
//! Three loads of the whole population are counted per record: the
//! `RECORDS` items saved 100 to a transaction into an empty store (opens,
//! saves, commits and the records' construction); the same with a RANK
//! index `score_rank` on `score`; and an `OnlineIndexBuilder` pass that
//! adds `score_rank` to the populated store, 64 records to a transaction.
//! Each transaction bumps a few keys again and again: the SUM and COUNT
//! group keys, the entry-count statistics and, under RANK, the skip
//! list's sentinels and fingers. The write set used to keep every such
//! ADD as an op of its own, so each read of a bumped key folded all of the
//! transaction's ADDs to it so far, and the commit folded them once more:
//! O(n²) allocations in an n-record transaction. It now folds each ADD
//! into the one before it, and every read or commit folds one op
//! (*coalesce*). Then a limited snapshot read stopped building the bound
//! of a read conflict it never adds (*no bound*): one allocation for each
//! of a RANK insert's five predecessor reads. Then the read conflicts went
//! inline and a fetched record stopped being decoded (*lazy*): the online
//! build reads each record where its bytes lie (a field table in place of
//! a decoded message's three blocks). Last, an atomic op borrows its key
//! and operand until the write set must own them (*borrow*): the write set
//! looks the key up first, so an ADD that folds into the op buffered on
//! its key copies neither: 2 fewer per fold of a RANK finger's ADD, whose
//! key is borrowed. An operand the caller passes as an array is copied
//! only if it is kept: 1 fewer per fold of the SUM and COUNT group keys'
//! and the entry-count statistics' ADDs, whose key is built either way. A
//! single save's one ADD, `score_sum`'s, lands on a key its transaction
//! has not written, so the overwrites above count what they did.
//!
//! | load, per record                        | parent | coalesce | no bound | lazy   | borrow | budget |
//! |-----------------------------------------|--------|----------|----------|--------|--------|--------|
//! | 100 to a transaction, no RANK index     |  66.96 |  38.51   |  38.51   |  38.39 |  31.66 | 32     |
//! | the same with `score_rank`              | 568.03 | 110.63   | 105.63   | 105.50 |  89.55 | 90     |
//! | online build of `score_rank`, batch 64  | 368.13 |  89.86   |  84.86   |  82.55 |  73.65 | 74     |
//!
//! At *coalesce*, without `score_rank`, a record's save made 31.03 allocations (32.04
//! before), its share of the commits 3.87 (31.31: the commit validated
//! and folded each bumped key's 100 ADDs one by one, allocating for each),
//! its share of the opens 0.11, and building the record 3.50. `score_rank` adds 67.12 per record
//! (501.07, then 72.12), counted step by step in a scratch copy whose RANK
//! insert reports where it is:
//!
//! | step of one RANK insert                                   | parent | coalesce | no bound |
//! |-----------------------------------------------------------|--------|----------|----------|
//! | `RankedSet::new`: the level list and six level subspaces  |   8.00 |   8.00   |   8.00   |
//! | the entry: score tuple, then with the primary key         |   2.00 |   2.00   |   2.00   |
//! | the packed entry, and its level-0 membership read         |   2.00 |   2.00   |   2.00   |
//! | `init`: the top sentinel's value, folded over its ADDs    | 101.09 |   2.94   |   2.94   |
//! | the entry's read conflict                                 |   1.05 |   1.05   |   1.05   |
//! | level 0: the entry's key and its set                      |   3.13 |   3.13   |   3.13   |
//! | levels 1–5: the entry's key at each                       |   5.00 |   5.00   |   5.00   |
//! | levels 1–5: the predecessor read (below)                  | 336.49 |  28.49   |  23.49   |
//! | levels 1–5: the ADD to the covering finger                |  10.64 |   9.90   |   9.90   |
//! | a member level's split (one entry in eight per level)     |   3.69 |   3.56   |   3.56   |
//! | the entry-count statistic's ADD and the rest of the save  |   2.03 |   1.96   |   1.96   |
//! | the commit: the index's keys                              |  25.94 |   4.08   |   4.08   |
//!
//! A predecessor read is a reverse snapshot range read of one row: the
//! result list and the row's key and value, then the finger's own
//! buffered ADD folded over the stored count — one allocation now, one
//! per ADD the transaction made to that finger before. The read's limit
//! stops it after the row, and it used to copy that row's key as the
//! bound of a read conflict that a snapshot read does not add. The ADD to
//! the finger copied its key and operand into the write set (2), which the
//! fold into the buffered op freed again; since *borrow* it copies nothing
//! when it folds.

use record_layer::expr::KeyExpression;
use record_layer::index::builder::OnlineIndexBuilder;
use record_layer::metadata::{Index, RecordMetaData, RecordMetaDataBuilder};
use record_layer::store::RecordStore;
use rl_fdb::tuple::Tuple;
use rl_fdb::{Database, DatabaseOptions, EngineKind, Subspace};
use rl_message::DynamicMessage;

mod items;

use items::{allocations_in, item_metadata, per, populate, set_item, RECORDS};

const SAVES: usize = 200;

/// Allocations per `save_record` and per `commit` of `SAVES` one-record
/// overwrites, the `i`th of them of the item `edit(m, i)` makes `m`.
fn overwrites(edit: impl Fn(&mut DynamicMessage, i64)) -> (f64, f64) {
    let db = Database::with_options(DatabaseOptions {
        engine: EngineKind::InMemory,
        ..DatabaseOptions::default()
    });
    let md = item_metadata();
    let sub = Subspace::from_tuple(&Tuple::new().push(1i64).push("it"));
    populate(&db, &md, &sub);

    let (mut save, mut commit) = (0, 0);
    for i in 0..SAVES as i64 {
        let tx = db.create_transaction();
        let store = RecordStore::open_or_create(&tx, &sub, &md).unwrap();
        let mut m = store.new_record("Item").unwrap();
        edit(&mut m, i);
        save += allocations_in(|| store.save_record(m).unwrap()).1;
        commit += allocations_in(|| tx.commit().unwrap()).1;
    }
    (per(save, SAVES), per(commit, SAVES))
}

#[test]
fn save_path_stays_within_its_allocation_budget() {
    let (save, commit) = overwrites(|m, i| set_item(m, i * 7 % RECORDS, 1 + i % 99));
    println!("allocations, score change: save_record {save:.2}, commit {commit:.2}");
    assert!(save <= 23.0, "save_record: {save:.2} > 23");
    assert!(commit <= 15.0, "commit: {commit:.2} > 15");
}

/// No indexed field changes: every index but VERSION returns after
/// evaluating the two records, and no entry-count statistic is touched.
#[test]
fn an_overwrite_that_changes_no_indexed_field_builds_only_the_version_entry() {
    let (save, commit) = overwrites(|m, i| {
        let id = i * 7 % RECORDS;
        set_item(m, id, 0);
        m.set("payload", vec![id as u8; 100]).unwrap();
    });
    println!("allocations, payload change: save_record {save:.2}, commit {commit:.2}");
    assert!(save <= 17.0, "save_record: {save:.2} > 17");
    assert!(commit <= 10.0, "commit: {commit:.2} > 10");
}

/// `item_metadata` with a RANK index on `score` added at its next version.
fn with_score_rank() -> RecordMetaData {
    RecordMetaDataBuilder::from_existing(&item_metadata())
        .index(
            "Item",
            Index::rank("score_rank", KeyExpression::field("score")),
        )
        .build()
        .unwrap()
}

/// Allocations per record of loading the `RECORDS` items 100 to a commit
/// into an empty store of `md`: opens, saves and commits.
fn bulk_load(md: &RecordMetaData) -> f64 {
    let db = Database::with_options(DatabaseOptions {
        engine: EngineKind::InMemory,
        ..DatabaseOptions::default()
    });
    let sub = Subspace::from_tuple(&Tuple::new().push(1i64).push("it"));
    per(
        allocations_in(|| populate(&db, md, &sub)).1,
        RECORDS as usize,
    )
}

#[test]
fn a_bulk_load_stays_within_its_allocation_budget() {
    let plain = bulk_load(&item_metadata());
    let ranked = bulk_load(&with_score_rank());
    println!("allocations per record, bulk load: {plain:.2}, with score_rank {ranked:.2}");
    assert!(plain <= 32.0, "bulk load: {plain:.2} > 32");
    assert!(
        ranked <= 90.0,
        "bulk load with score_rank: {ranked:.2} > 90"
    );
}

/// An online build of `score_rank` over the populated store, 64 records
/// to a transaction.
#[test]
fn an_online_rank_build_stays_within_its_allocation_budget() {
    let db = Database::with_options(DatabaseOptions {
        engine: EngineKind::InMemory,
        ..DatabaseOptions::default()
    });
    let sub = Subspace::from_tuple(&Tuple::new().push(1i64).push("it"));
    populate(&db, &item_metadata(), &sub);
    let md = with_score_rank();
    let mut builder = OnlineIndexBuilder::new(&db, &sub, &md, "score_rank").batch_size(64);
    let build = per(
        allocations_in(|| builder.build().unwrap()).1,
        RECORDS as usize,
    );
    println!("allocations per record, online score_rank build: {build:.2}");
    assert!(build <= 74.0, "online build: {build:.2} > 74");
}
