//! Allocation budget of the save path: heap allocations per `save_record`
//! and per `commit` of a transaction that overwrites one record, counted by
//! the `#[global_allocator]` of `items`. A count, not a time: it repeats
//! exactly on one build (memory engine, one thread, fixed population), so a
//! change to the record serializer, index maintenance, the transaction's
//! write buffer or the commit path that moves it shows up here before any
//! benchmark run.
//!
//! Each overwrite gives one of 2 000 `Item`s a new score, so it rewrites
//! the record and its version, moves its `by_score` and `by_group_score`
//! entries, and adds to its group's `score_sum`.
//!
//! Baseline: this file run on the parent of the change that added it, and
//! on that change, which buffers each write once (the per-key write set;
//! the parent also kept a program-order command log, a second copy of
//! every key and value) and commits by handing that set over by move (the
//! parent cloned the log). The memory engine still copies each key and
//! value it stores, as the parent's clone did, so that what it keeps is
//! allocated together (see `MemoryEngine::apply_sorted`): the commit count
//! is above the parent's, and a save and its commit together are ten
//! allocations below it. Debug and release builds count the same.
//!
//! | path                                    | parent | now    | budget |
//! |-----------------------------------------|--------|--------|--------|
//! | `save_record` of an overwrite, per call | 254.39 | 238.39 | 239    |
//! | `commit` of that one save, per call     |  41.34 |  47.27 | 48     |

use record_layer::store::RecordStore;
use rl_fdb::tuple::Tuple;
use rl_fdb::{Database, DatabaseOptions, EngineKind, Subspace};

mod items;

use items::{allocations_in, item_metadata, per, populate, set_item, RECORDS};

const SAVES: usize = 200;

#[test]
fn save_path_stays_within_its_allocation_budget() {
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
        set_item(&mut m, i * 7 % RECORDS, 1 + i % 99);
        save += allocations_in(|| store.save_record(m).unwrap()).1;
        commit += allocations_in(|| tx.commit().unwrap()).1;
    }
    let (save, commit) = (per(save, SAVES), per(commit, SAVES));
    println!("allocations: save_record {save:.2}, commit {commit:.2}");
    assert!(save <= 239.0, "save_record: {save:.2} > 239");
    assert!(commit <= 48.0, "commit: {commit:.2} > 48");
}
