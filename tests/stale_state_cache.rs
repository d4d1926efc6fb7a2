//! A stale state cache is always detected.
//!
//! `RecordStore::open_or_create` and `CloudKit::incarnation` answer from
//! the database's state cache whenever the metadata version vouches for
//! it. This suite changes that state in every way the library can — index
//! `Disabled → WriteOnly → Readable` through `OnlineIndexBuilder`,
//! `set_user_version`, catch-up to a newer `RecordMetaData`,
//! `bump_incarnation`, `move_tenant` onto a subspace the destination has
//! cached — while other transactions and threads keep opening the same
//! stores, and holds every open to one oracle: **what the open reports is
//! what the header key, the index-state keys and the incarnation key say
//! when read directly (snapshot reads, same transaction, so same read
//! version and same buffered writes).** At the end every store's
//! `ck_user_field0` index must hold exactly its records' entries (or none,
//! where it was never built): a writer that kept maintaining, or kept
//! skipping, an index on a stale belief would break that.
//!
//! The generator cases, and the branch each one reaches (each counted in
//! [`Reached`] and asserted non-zero, so a refactor that stops reaching
//! one fails here rather than silently testing less):
//!
//! | case                | how it is produced                                                        | branch                                   |
//! |---------------------|---------------------------------------------------------------------------|------------------------------------------|
//! | `hit`               | second and later opens of a store by fresh transactions                   | `cached_state` answers, 0 storage reads  |
//! | `miss_and_fill`     | first open through a handle, or first after any state change              | 1 `get` + 1 range read, then `cache_state` |
//! | `old_read_version`  | `create_transaction_at(v)` with `v` from before a `set_user_version`       | `metadata_version > read_version`: reads, does not fill |
//! | `own_write`         | `set_user_version`, then a second open in the same transaction             | `writes_metadata_version`: reads through RYW, does not fill |
//! | `race_not_committed`| a saver opens on a hit, an index-state change commits, the saver commits   | commit-time `metadata_version > read_version` → `NotCommitted` |
//! | `capacity`          | `STATE_CACHE_CAPACITY + 1` fills through `cache_state`                     | the map empties itself; next open misses |
//! | `reopened`          | the paged directory opened by a second `Database` after the first is gone  | metadata version restarts at the newest stored version, empty map |
//!
//! Both engines run the same script (the engine is chosen here, not by
//! `RL_ENGINE`); the thread phase is seeded per thread, its interleaving
//! is whatever the scheduler makes it — the oracle holds for all of them.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use cloudkit_sim::{CloudKit, CloudKitConfig, RecordData};
use record_layer::cursor::{Continuation, ExecuteProperties, RecordCursor};
use record_layer::index::builder::OnlineIndexBuilder;
use record_layer::index::IndexState;
use record_layer::store::{RecordStore, RecordedIndex, StoreHeader, TupleRange};
use rl_fdb::tuple::{Tuple, TupleElement};
use rl_fdb::{
    Database, DatabaseOptions, EngineKind, EvictionPolicy, PagedConfig, Transaction,
    STATE_CACHE_CAPACITY,
};
use rl_harness::rng::{derive_seed, Rng, XorShift64};
use rl_message::Value;

const APP: &str = "app";
const USERS: i64 = 6;
const NAMES: usize = 12;
const THREADS: u64 = 3;
const OPS_PER_THREAD: usize = 120;
const USER_INDEX: &str = "ck_user_field0";

/// How often each generator case reached its branch.
#[derive(Default)]
struct Reached {
    hit: AtomicUsize,
    miss_and_fill: AtomicUsize,
    old_read_version: AtomicUsize,
    own_write: AtomicUsize,
    race_not_committed: AtomicUsize,
    capacity: AtomicUsize,
    reopened: AtomicUsize,
}

fn count(counter: &AtomicUsize) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// The deployment before and after its schema gained `ck_user_field0`.
struct Service {
    v1: CloudKit,
    v2: CloudKit,
}

impl Service {
    fn new(db: &Database) -> Service {
        Service {
            v1: CloudKit::new(db, &CloudKitConfig::default()),
            v2: CloudKit::new(
                db,
                &CloudKitConfig {
                    indexed_fields: vec!["field0".into()],
                    ..CloudKitConfig::default()
                },
            ),
        }
    }
}

/// Header, index states and incarnation as the keys themselves say, read
/// through `tx` at snapshot isolation.
fn read_directly(
    ck: &CloudKit,
    tx: &Transaction,
    user: i64,
) -> (Option<StoreHeader>, Vec<RecordedIndex>, i64) {
    let sub = ck.store_subspace(user, APP);
    let int = |t: &Tuple, i: usize| t.get(i).and_then(TupleElement::as_int).unwrap();
    let header = tx
        .get_snapshot(&sub.pack(&Tuple::new().push(0i64)))
        .unwrap()
        .map(|bytes| {
            let t = Tuple::unpack(&bytes).unwrap();
            StoreHeader {
                format_version: int(&t, 0),
                metadata_version: int(&t, 1) as u64,
                user_version: int(&t, 2) as u64,
            }
        });
    let states_sub = sub.child(3i64);
    let (begin, end) = states_sub.range();
    let states = tx
        .get_range_snapshot(&begin, &end, rl_fdb::RangeOptions::default())
        .unwrap()
        .into_iter()
        .map(|kv| {
            let key = states_sub.unpack(&kv.key).unwrap();
            let (&state, name) = kv.value.split_first().unwrap();
            RecordedIndex {
                subspace_key: int(&key, 0),
                name: String::from_utf8(name.to_vec()).unwrap(),
                state: IndexState::from_byte(state).unwrap(),
            }
        })
        .collect();
    let incarnation_key = Tuple::new()
        .push("ck_meta")
        .push(user)
        .push("incarnation")
        .pack();
    let incarnation = tx
        .get_snapshot(&incarnation_key)
        .unwrap()
        .map_or(1, |bytes| int(&Tuple::unpack(&bytes).unwrap(), 0));
    (header, states, incarnation)
}

/// Open `user`'s store in `tx` and hold what it reports to the oracle.
/// Returns the store and the storage reads the open (and the incarnation
/// lookup) made — or `None` when `ck`'s metadata is older than the stored
/// header says, which is checked to be true.
fn try_open_checked<'a>(
    ck: &'a CloudKit,
    tx: &'a Transaction,
    user: i64,
    context: &str,
) -> Option<(RecordStore<'a>, u64)> {
    let before = tx.trace().read_ops;
    let opened = ck.open_store(tx, user, APP);
    let incarnation = ck.incarnation(tx, user).unwrap();
    let reads = tx.trace().read_ops - before;
    let (header, states, stored_incarnation) = read_directly(ck, tx, user);
    let at = format!("{context}: user {user}, read version {}", tx.read_version());
    assert_eq!(incarnation, stored_incarnation, "{at}: incarnation");
    let store = match opened {
        Ok(store) => store,
        Err(record_layer::Error::StaleMetaData { store_version, .. }) => {
            assert_eq!(
                header.map(|h| h.metadata_version),
                Some(store_version),
                "{at}"
            );
            assert!(store_version > ck.metadata().version(), "{at}");
            return None;
        }
        Err(e) => panic!("{at}: open failed: {e}"),
    };
    let state = store.state();
    assert_eq!(Some(state.header), header, "{at}: header");
    assert_eq!(
        state.index_states(),
        states.as_slice(),
        "{at}: index states"
    );
    Some((store, reads))
}

/// [`try_open_checked`] where the caller knows its metadata is current.
fn open_checked<'a>(
    ck: &'a CloudKit,
    tx: &'a Transaction,
    user: i64,
    context: &str,
) -> (RecordStore<'a>, u64) {
    try_open_checked(ck, tx, user, context).expect("metadata is not stale")
}

/// The metadata the stored header of `user` calls for (never stale).
fn service_for<'a>(service: &'a Service, db: &Database, user: i64) -> &'a CloudKit {
    let tx = db.create_transaction();
    match read_directly(&service.v1, &tx, user).0 {
        Some(h) if h.metadata_version > service.v1.metadata().version() => &service.v2,
        _ => &service.v1,
    }
}

fn record(rng: &mut XorShift64) -> RecordData {
    RecordData::new("z", format!("r{:02}", rng.gen_range(0..NAMES)))
        .string_field("field0", format!("f{}", rng.gen_range(0..5u32)))
}

/// One worker's seeded stream of opens and saves against stores whose
/// state the main thread is changing. Every open is checked; a save that
/// loses to a state change (or to another saver) retries from a new open.
fn worker(db: &Database, service: &Service, seed: u64, stop: &AtomicBool, reached: &Reached) {
    let mut rng = XorShift64::seed_from_u64(seed);
    let mut ops = 0;
    while ops < OPS_PER_THREAD || !stop.load(Ordering::Acquire) {
        ops += 1;
        let user = rng.gen_range(0..USERS);
        let data = (rng.gen_range(0..10u32) < 4).then(|| record(&mut rng));
        for attempt in 0.. {
            assert!(attempt < 200, "save of user {user} never commits");
            // Opening with v2 may itself be the catch-up; v1 loses to a
            // catch-up that lands after `service_for` looked.
            let ck = if rng.gen_range(0..4u32) == 0 {
                &service.v2
            } else {
                service_for(service, db, user)
            };
            let tx = db.create_transaction();
            let Some((_, reads)) = try_open_checked(ck, &tx, user, "worker") else {
                continue;
            };
            count(if reads == 0 {
                &reached.hit
            } else {
                &reached.miss_and_fill
            });
            let Some(data) = &data else { break };
            let saved = ck
                .save(&tx, user, APP, data)
                .and_then(|_| tx.commit().map_err(record_layer::Error::Fdb));
            match saved {
                Ok(()) => break,
                Err(e) if e.is_retryable() => continue,
                Err(e) => panic!("worker save failed: {e}"),
            }
        }
    }
}

/// `ck_user_field0` holds exactly the records' entries where it is
/// maintained, and nothing where it never was.
fn check_index_matches_records(service: &Service, db: &Database) {
    for user in 0..USERS {
        let ck = service_for(service, db, user);
        let tx = db.create_transaction();
        let (store, _) = open_checked(ck, &tx, user, "final");
        let mut records = BTreeMap::new();
        let (all, _, _) = store
            .scan_records(
                &TupleRange::all(),
                &Continuation::Start,
                &ExecuteProperties::new(),
            )
            .unwrap()
            .collect_remaining()
            .unwrap();
        for r in all {
            let field0 = r.message.get("field0").and_then(Value::as_str).unwrap();
            records.insert(r.primary_key.clone(), field0.to_string());
        }
        if std::ptr::eq(ck, &service.v1) {
            continue; // the index does not exist for this store yet
        }
        let (entries, _, _) = store
            .scan_index_unchecked(
                USER_INDEX,
                &TupleRange::all(),
                &Continuation::Start,
                false,
                &ExecuteProperties::new(),
            )
            .unwrap()
            .collect_remaining()
            .unwrap();
        let indexed: BTreeMap<Tuple, String> = entries
            .into_iter()
            .map(|e| {
                let field0 = e.key.get(1).and_then(TupleElement::as_str).unwrap();
                (e.primary_key, field0.to_string())
            })
            .collect();
        match store.index_state(USER_INDEX).unwrap() {
            IndexState::Disabled => assert!(indexed.is_empty(), "user {user}: {indexed:?}"),
            _ => assert_eq!(indexed, records, "user {user}: index ≠ records"),
        }
    }
}

fn scenario(db: Database, seed: u64, reached: &Reached) -> Database {
    let service = Service::new(&db);
    let mut rng = XorShift64::seed_from_u64(seed);

    // Every store starts on the v1 schema with a few records.
    for user in 0..USERS {
        record_layer::run(&db, |tx| {
            for _ in 0..4 {
                service.v1.save(tx, user, APP, &record(&mut rng))?;
            }
            Ok(())
        })
        .unwrap();
    }

    // --- miss_and_fill, then hit -----------------------------------------
    for user in 0..USERS {
        let tx = db.create_transaction();
        let (_, reads) = open_checked(&service.v1, &tx, user, "first open");
        // Header `get` + index-state range read: the transaction that
        // created the store could vouch for neither, only for the
        // incarnation it read before writing anything.
        assert_eq!(reads, 2, "first open of user {user} through this handle");
        count(&reached.miss_and_fill);
        let tx = db.create_transaction();
        let (_, reads) = open_checked(&service.v1, &tx, user, "second open");
        assert_eq!(reads, 0, "second open of user {user}");
        count(&reached.hit);
    }

    // --- own_write and old_read_version: set_user_version ----------------
    let user = rng.gen_range(0..USERS);
    let before_change = db.last_commit_version();
    let tx = db.create_transaction();
    let (store, reads) = open_checked(&service.v1, &tx, user, "before set_user_version");
    assert_eq!(reads, 0);
    store.set_user_version(7).unwrap();
    assert_eq!(store.header().user_version, 7);
    // The same transaction opens again: its own write is not in any cache.
    let (reopened, reads) = open_checked(&service.v1, &tx, user, "after own write");
    assert!(
        reads > 0,
        "a transaction that wrote state must read it back"
    );
    assert_eq!(reopened.header().user_version, 7);
    count(&reached.own_write);
    tx.commit().unwrap();
    let changed_at = tx.committed_version().unwrap();
    assert_eq!(db.metadata_version(), changed_at);
    // It did not fill either: the next fresh open misses, the one after hits.
    let tx = db.create_transaction();
    let (fresh, reads) = open_checked(&service.v1, &tx, user, "fresh after change");
    assert!(reads > 0);
    assert_eq!(fresh.header().user_version, 7);
    // A read version from before the change still sees the old header, by
    // reading — and must not leave it behind for anyone else.
    assert!(before_change < changed_at);
    let old = db.create_transaction_at(before_change).unwrap();
    let (stale_view, reads) = open_checked(&service.v1, &old, user, "old read version");
    assert!(reads > 0, "read version below the metadata version: bypass");
    assert_eq!(stale_view.header().user_version, 0);
    count(&reached.old_read_version);
    let tx = db.create_transaction();
    let (fresh, reads) = open_checked(&service.v1, &tx, user, "after old reader");
    assert_eq!(reads, 0, "the fresh open before this one filled the cache");
    assert_eq!(fresh.header().user_version, 7);

    // --- race_not_committed: a cached belief about an index --------------
    // Catch `racer` up to v2: `ck_user_field0` appears, disabled.
    let racer = rng.gen_range(0..USERS);
    record_layer::run(&db, |tx| {
        let (store, _) = open_checked(&service.v2, tx, racer, "catch-up");
        assert_eq!(store.index_state(USER_INDEX)?, IndexState::Disabled);
        Ok(())
    })
    .unwrap();
    for (believed, becomes) in [
        (IndexState::Disabled, IndexState::WriteOnly),
        (IndexState::WriteOnly, IndexState::Disabled),
    ] {
        record_layer::run(&db, |tx| {
            open_checked(&service.v2, tx, racer, "warm").0.state();
            Ok(())
        })
        .unwrap();
        // The saver opens on a hit and acts on what it was told…
        let saver = db.create_transaction();
        let (store, reads) = open_checked(&service.v2, &saver, racer, "racing saver");
        assert_eq!(reads, 0);
        assert_eq!(store.index_state(USER_INDEX).unwrap(), believed);
        service
            .v2
            .save(
                &saver,
                racer,
                APP,
                &RecordData::new("z", "raced").string_field("field0", "lost"),
            )
            .unwrap();
        // …the index changes state under it…
        record_layer::run(&db, |tx| {
            let store = service.v2.open_store(tx, racer, APP)?;
            store.set_index_state(USER_INDEX, becomes)?;
            if becomes == IndexState::Disabled {
                store.clear_index_data(service.v2.metadata().index(USER_INDEX)?)?;
            }
            Ok(())
        })
        .unwrap();
        // …and its commit must not land: it skipped (or wrote) entries on
        // a belief that is no longer true.
        assert_eq!(saver.commit(), Err(rl_fdb::Error::NotCommitted));
        count(&reached.race_not_committed);
        let tx = db.create_transaction();
        assert_eq!(
            service.v2.load(&tx, racer, APP, "z", "raced").unwrap(),
            None,
            "the racing save left a record behind"
        );
    }

    // --- capacity ---------------------------------------------------------
    let ck0 = service_for(&service, &db, 0);
    open_checked(ck0, &db.create_transaction(), 0, "fill before capacity");
    let tx = db.create_transaction();
    assert_eq!(open_checked(ck0, &tx, 0, "hit before capacity").1, 0);
    let filler = db.create_transaction();
    for i in 0..=STATE_CACHE_CAPACITY as u64 {
        let key = [b"filler/".as_slice(), &i.to_be_bytes()].concat();
        filler.cache_state(&key, Arc::new(i));
    }
    let tx = db.create_transaction();
    assert!(
        open_checked(ck0, &tx, 0, "after capacity").1 > 0,
        "reaching the capacity constant empties the map"
    );
    count(&reached.capacity);

    // --- threads: opens and saves against every kind of state change ------
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (db, service, stop) = (&db, &service, &stop);
            let seed = derive_seed(seed, 100 + t);
            scope.spawn(move || worker(db, service, seed, stop, reached));
        }
        for round in 0..USERS {
            let user = (racer + round) % USERS;
            // Catch-up (unless a worker's v2 open got there first), then
            // the online build: WriteOnly, backfill in small batches while
            // workers save, Readable.
            let sub = service.v2.store_subspace(user, APP);
            OnlineIndexBuilder::new(&db, &sub, service.v2.metadata(), USER_INDEX)
                .batch_size(3)
                .build()
                .unwrap();
            record_layer::run(&db, |tx| {
                let (store, _) = open_checked(&service.v2, tx, user, "after build");
                assert_eq!(store.index_state(USER_INDEX)?, IndexState::Readable);
                store.set_user_version(100 + round as u64)?;
                service.v2.bump_incarnation(tx, user)?;
                Ok(())
            })
            .unwrap();
            // Leave the last store's index unbuilt on one seed in two, so
            // the final check sees a Disabled index too.
            if round == USERS - 2 && seed.is_multiple_of(2) {
                break;
            }
        }
        stop.store(true, Ordering::Release);
    });
    check_index_matches_records(&service, &db);
    db
}

/// `move_tenant` onto a subspace the destination has opened and cached.
fn move_onto_a_cached_subspace(src: &Database, dst: &Database, reached: &Reached) {
    let source = Service::new(src);
    let dest = Service::new(dst);
    let user = 3;
    // The destination already has a store there, on the old schema, and
    // has it cached.
    record_layer::run(dst, |tx| {
        dest.v1.save(
            tx,
            user,
            APP,
            &RecordData::new("z", "old").string_field("field0", "x"),
        )?;
        Ok(())
    })
    .unwrap();
    for expect_reads in [true, false] {
        let tx = dst.create_transaction();
        let (store, reads) = open_checked(&dest.v1, &tx, user, "destination before move");
        assert_eq!(reads > 0, expect_reads);
        assert_eq!(store.header().user_version, 0);
    }
    let ck = service_for(&source, src, user);
    record_layer::run(src, |tx| {
        open_checked(ck, tx, user, "source").0.set_user_version(777)
    })
    .unwrap();
    let src_header = {
        let tx = src.create_transaction();
        open_checked(ck, &tx, user, "source").0.state().header
    };
    assert_eq!(src_header.user_version, 777);
    ck.move_tenant(&dest.v2, user, APP).unwrap();
    // The raw copy replaced header and index states under the cache.
    let ck = service_for(&dest, dst, user);
    let tx = dst.create_transaction();
    let (store, reads) = open_checked(ck, &tx, user, "destination after move");
    assert!(reads > 0);
    assert_eq!(store.state().header, src_header);
    assert_eq!(ck.incarnation(&tx, user).unwrap(), 2);
    count(&reached.miss_and_fill);
}

fn paged(path: PathBuf) -> Database {
    Database::with_options(DatabaseOptions {
        engine: EngineKind::Paged(PagedConfig {
            path,
            pool_pages: 128,
            eviction: EvictionPolicy::Sieve,
            remove_dir_on_drop: false,
        }),
        ..DatabaseOptions::default()
    })
}

fn assert_every_case_reached(reached: &Reached, with_reopen: bool) {
    for (case, n) in [
        ("hit", &reached.hit),
        ("miss_and_fill", &reached.miss_and_fill),
        ("old_read_version", &reached.old_read_version),
        ("own_write", &reached.own_write),
        ("race_not_committed", &reached.race_not_committed),
        ("capacity", &reached.capacity),
    ] {
        assert!(n.load(Ordering::Relaxed) > 0, "no {case} was generated");
    }
    assert_eq!(reached.reopened.load(Ordering::Relaxed) > 0, with_reopen);
}

#[test]
fn memory_engine_never_serves_stale_state() {
    for seed in [21, 22] {
        let reached = Reached::default();
        let memory = || {
            Database::with_options(DatabaseOptions {
                engine: EngineKind::InMemory,
                ..DatabaseOptions::default()
            })
        };
        let src = scenario(memory(), seed, &reached);
        move_onto_a_cached_subspace(&src, &memory(), &reached);
        assert_every_case_reached(&reached, false);
    }
}

#[test]
fn paged_engine_never_serves_stale_state_across_a_reopen() {
    let seed = 23;
    let reached = Reached::default();
    let dir = std::env::temp_dir().join(format!("rl-stale-state-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let src = scenario(paged(dir.join("src")), seed, &reached);
    let (last_state_change, last_commit) = (src.metadata_version(), src.last_commit_version());
    assert!(last_state_change > 0);
    drop(src);

    // --- reopened: a fresh handle over the same directory ----------------
    let src = paged(dir.join("src"));
    assert_eq!(src.last_commit_version(), last_commit);
    assert!(src.metadata_version() >= last_state_change);
    let service = Service::new(&src);
    for user in 0..USERS {
        let ck = service_for(&service, &src, user);
        for expect_reads in [true, false] {
            let tx = src.create_transaction();
            let (_, reads) = open_checked(ck, &tx, user, "reopened");
            assert_eq!(reads > 0, expect_reads, "user {user} on the new handle");
        }
    }
    // And a change through the new handle is seen by it.
    let ck = service_for(&service, &src, 0);
    record_layer::run(&src, |tx| {
        open_checked(ck, tx, 0, "reopened writer")
            .0
            .set_user_version(4_242)
    })
    .unwrap();
    let tx = src.create_transaction();
    let (store, reads) = open_checked(ck, &tx, 0, "reopened after change");
    assert!(reads > 0);
    assert_eq!(store.state().header.user_version, 4_242);
    count(&reached.reopened);
    check_index_matches_records(&service, &src);

    move_onto_a_cached_subspace(&src, &paged(dir.join("dst")), &reached);
    assert_every_case_reached(&reached, true);
    drop(service);
    drop(src);
    let _ = std::fs::remove_dir_all(&dir);
}
