//! Record-store behaviours not covered elsewhere: headers and user
//! versions, TupleRange byte-range semantics, reverse scans, snapshot
//! reads, delete_all_records, scan limits interacting with split records,
//! index-state gating, continuations that never move backwards, and the
//! stored bytes themselves: every read path against the raw range, and a
//! pinned digest of that range.

use std::collections::BTreeMap;

use record_layer::cursor::{Continuation, ExecuteProperties, NoNextReason, RecordCursor};
use record_layer::expr::KeyExpression;
use record_layer::index::IndexState;
use record_layer::metadata::{Index, RecordMetaData, RecordMetaDataBuilder};
use record_layer::plan::{RecordQueryPlan, ScanBounds};
use record_layer::store::{RecordStore, RecordStoreBuilder, StoredRecord, TupleRange};
use rl_fdb::tuple::{Tuple, TupleElement};
use rl_fdb::{Database, DatabaseOptions, EngineKind, RangeOptions, Subspace};
use rl_message::{DescriptorPool, FieldDescriptor, FieldType, MessageDescriptor, Value};

fn metadata() -> RecordMetaData {
    let mut pool = DescriptorPool::new();
    pool.add_message(
        MessageDescriptor::new(
            "T",
            vec![
                FieldDescriptor::optional("id", 1, FieldType::Int64),
                FieldDescriptor::optional("v", 2, FieldType::Int64),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    RecordMetaDataBuilder::new(pool)
        .record_type("T", KeyExpression::field("id"))
        .index("T", Index::value("by_v", KeyExpression::field("v")))
        .build()
        .unwrap()
}

fn seed(db: &Database, md: &RecordMetaData, sub: &Subspace, n: i64) {
    record_layer::run(db, |tx| {
        let store = RecordStore::open_or_create(tx, sub, md)?;
        for i in 0..n {
            let mut r = store.new_record("T")?;
            r.set("id", i).unwrap();
            r.set("v", i * 2).unwrap();
            store.save_record(r)?;
        }
        Ok(())
    })
    .unwrap();
}

#[test]
fn header_records_versions_and_user_version() {
    let db = Database::new();
    let md = metadata();
    let sub = Subspace::from_bytes(b"hdr".to_vec());
    record_layer::run(&db, |tx| {
        let store = RecordStore::open_or_create(tx, &sub, &md)?;
        let header = store.header();
        assert_eq!(header.metadata_version, md.version());
        assert_eq!(header.user_version, 0);
        // The application version (§5) is client-managed.
        store.set_user_version(7)?;
        Ok(())
    })
    .unwrap();
    record_layer::run(&db, |tx| {
        let store = RecordStore::open_or_create(tx, &sub, &md)?;
        assert_eq!(store.header().user_version, 7);
        Ok(())
    })
    .unwrap();
}

/// §5's header check covers the format as well: a store a newer format
/// wrote is refused, not read as if it were this one — whether the header
/// came from the database or from the state cache.
#[test]
fn a_store_written_by_a_newer_format_is_refused() {
    use record_layer::store::FORMAT_VERSION;
    let db = Database::new();
    let md = metadata();
    let sub = Subspace::from_bytes(b"fmt".to_vec());
    seed(&db, &md, &sub, 1);
    // What a writer of the next format would leave: its header, and — as
    // for any state change — a write of the metadata-version key.
    record_layer::run(&db, |tx| {
        let header = Tuple::new()
            .push(FORMAT_VERSION + 1)
            .push(md.version() as i64)
            .push(0i64);
        tx.set(&sub.pack(&Tuple::new().push(0i64)), &header.pack());
        tx.bump_metadata_version()?;
        Ok(())
    })
    .unwrap();
    for reads_expected in [2, 0] {
        let tx = db.create_transaction();
        let refused = RecordStore::open_or_create(&tx, &sub, &md).err();
        assert_eq!(
            refused,
            Some(record_layer::Error::UnsupportedFormatVersion {
                store_version: FORMAT_VERSION + 1,
                supported_version: FORMAT_VERSION,
            })
        );
        assert_eq!(tx.trace().read_ops, reads_expected);
    }
}

#[test]
fn a_store_in_the_name_keyed_format_is_refused() {
    use record_layer::store::FORMAT_VERSION;
    assert_eq!(FORMAT_VERSION, 2);
    let db = Database::new();
    let md = metadata();
    let sub = Subspace::from_bytes(b"fmt1".to_vec());
    // What format 1 left: its header, and each index's state keyed by the
    // index's name.
    record_layer::run(&db, |tx| {
        let header = Tuple::new().push(1i64).push(md.version() as i64).push(0i64);
        tx.set(&sub.pack(&Tuple::new().push(0i64)), &header.pack());
        for index in md.indexes() {
            let state = Tuple::new().push(3i64).push(index.name.as_str());
            tx.set(&sub.pack(&state), &[IndexState::Readable.to_byte()]);
        }
        Ok(())
    })
    .unwrap();
    for _ in 0..2 {
        let tx = db.create_transaction();
        let refused = RecordStore::open_or_create(&tx, &sub, &md).err();
        assert_eq!(
            refused,
            Some(record_layer::Error::UnsupportedFormatVersion {
                store_version: 1,
                supported_version: FORMAT_VERSION,
            })
        );
        let message = refused.unwrap().to_string();
        assert!(message.contains("format version 1"), "{message}");
    }
}

#[test]
fn tuple_range_bounds() {
    let sub = Subspace::from_bytes(b"X".to_vec());
    // prefix(t): covers every key extending t, not siblings.
    let r = TupleRange::prefix(Tuple::from((5i64,)));
    let (begin, end) = r.to_byte_range(&sub);
    let inside = sub.pack(&Tuple::from((5i64, 1i64)));
    let sibling = sub.pack(&Tuple::from((6i64,)));
    assert!(begin.as_slice() <= inside.as_slice() && inside.as_slice() < end.as_slice());
    assert!(!(begin.as_slice() <= sibling.as_slice() && sibling.as_slice() < end.as_slice()));

    // Exclusive low bound skips extensions of the bound tuple.
    let r = TupleRange::between(Some((Tuple::from((5i64,)), false)), None);
    let (begin, _) = r.to_byte_range(&sub);
    assert!(inside.as_slice() < begin.as_slice());
    let after = sub.pack(&Tuple::from((6i64,)));
    assert!(after.as_slice() >= begin.as_slice());

    // Inclusive high bound keeps extensions of the bound tuple.
    let r = TupleRange::between(None, Some((Tuple::from((5i64,)), true)));
    let (_, end) = r.to_byte_range(&sub);
    assert!(inside.as_slice() < end.as_slice());
}

#[test]
fn reverse_scan_returns_descending_and_resumes() {
    let db = Database::new();
    let md = metadata();
    let sub = Subspace::from_bytes(b"rev".to_vec());
    seed(&db, &md, &sub, 10);
    record_layer::run(&db, |tx| {
        let store = RecordStore::open_or_create(tx, &sub, &md)?;
        let mut cursor = store.scan_records_reverse(
            &TupleRange::all(),
            &Continuation::Start,
            &ExecuteProperties::new(),
        )?;
        let (records, _, _) = cursor.collect_remaining()?;
        let ids: Vec<i64> = records
            .iter()
            .map(|r| r.primary_key.get(0).unwrap().as_int().unwrap())
            .collect();
        assert_eq!(ids, (0..10).rev().collect::<Vec<_>>());
        Ok(())
    })
    .unwrap();

    // Reverse scan with a record-boundary continuation.
    let cont = record_layer::run(&db, |tx| {
        let store = RecordStore::open_or_create(tx, &sub, &md)?;
        let mut cursor = store.scan_records_reverse(
            &TupleRange::all(),
            &Continuation::Start,
            &ExecuteProperties::new().with_scan_limit(8),
        )?;
        let (records, reason, cont) = cursor.collect_remaining()?;
        assert!(reason.is_out_of_band());
        assert!(!records.is_empty());
        Ok(cont)
    })
    .unwrap();
    record_layer::run(&db, |tx| {
        let store = RecordStore::open_or_create(tx, &sub, &md)?;
        let mut cursor =
            store.scan_records_reverse(&TupleRange::all(), &cont, &ExecuteProperties::new())?;
        let (records, _, _) = cursor.collect_remaining()?;
        assert!(!records.is_empty());
        let ids: Vec<i64> = records
            .iter()
            .map(|r| r.primary_key.get(0).unwrap().as_int().unwrap())
            .collect();
        assert!(ids.windows(2).all(|w| w[0] > w[1]));
        Ok(())
    })
    .unwrap();
}

#[test]
fn delete_all_records_clears_everything_but_header() {
    let db = Database::new();
    let md = metadata();
    let sub = Subspace::from_bytes(b"wipe".to_vec());
    seed(&db, &md, &sub, 20);
    record_layer::run(&db, |tx| {
        let store = RecordStore::open_or_create(tx, &sub, &md)?;
        store.set_user_version(3)?;
        store.delete_all_records()?;
        Ok(())
    })
    .unwrap();
    record_layer::run(&db, |tx| {
        let store = RecordStore::open_or_create(tx, &sub, &md)?;
        assert!(!store.has_any_record()?);
        assert_eq!(store.header().user_version, 3, "header survives");
        let mut cursor = store.scan_index(
            "by_v",
            &TupleRange::all(),
            &Continuation::Start,
            false,
            &ExecuteProperties::new(),
        )?;
        let (entries, _, _) = cursor.collect_remaining()?;
        assert!(entries.is_empty(), "index data cleared too");
        Ok(())
    })
    .unwrap();
}

#[test]
fn snapshot_scans_do_not_conflict_with_writers() {
    let db = Database::new();
    let md = metadata();
    let sub = Subspace::from_bytes(b"snap".to_vec());
    seed(&db, &md, &sub, 5);

    let reader = db.create_transaction();
    let store = RecordStore::open_or_create(&reader, &sub, &md).unwrap();
    let mut cursor = store
        .scan_records(
            &TupleRange::all(),
            &Continuation::Start,
            &ExecuteProperties::new().with_snapshot(true),
        )
        .unwrap();
    let (records, _, _) = cursor.collect_remaining().unwrap();
    assert_eq!(records.len(), 5);

    // A concurrent writer commits into the scanned range.
    record_layer::run(&db, |tx| {
        let s = RecordStore::open_or_create(tx, &sub, &md)?;
        let mut r = s.new_record("T")?;
        r.set("id", 100i64).unwrap();
        r.set("v", 1i64).unwrap();
        s.save_record(r)?;
        Ok(())
    })
    .unwrap();

    // The snapshot reader still commits (it added no read conflicts).
    reader.add_write_conflict_range(b"snapmark", b"snapmark\x00");
    reader.commit().unwrap();
}

#[test]
fn write_only_index_is_maintained_but_not_scannable() {
    let db = Database::new();
    let md = metadata();
    let sub = Subspace::from_bytes(b"wo".to_vec());
    seed(&db, &md, &sub, 3);
    record_layer::run(&db, |tx| {
        let store = RecordStore::open_or_create(tx, &sub, &md)?;
        store.set_index_state("by_v", IndexState::WriteOnly)?;
        Ok(())
    })
    .unwrap();
    record_layer::run(&db, |tx| {
        let store = RecordStore::open_or_create(tx, &sub, &md)?;
        // Scanning fails...
        match store.scan_index(
            "by_v",
            &TupleRange::all(),
            &Continuation::Start,
            false,
            &ExecuteProperties::new(),
        ) {
            Err(record_layer::Error::IndexNotReadable { .. }) => {}
            Err(other) => panic!("unexpected error: {other}"),
            Ok(_) => panic!("scan of write-only index must fail"),
        }
        // ...but writes still maintain the index.
        let mut r = store.new_record("T")?;
        r.set("id", 50i64).unwrap();
        r.set("v", 999i64).unwrap();
        store.save_record(r)?;
        Ok(())
    })
    .unwrap();
    record_layer::run(&db, |tx| {
        let store = RecordStore::open_or_create(tx, &sub, &md)?;
        store.set_index_state("by_v", IndexState::Readable)?;
        Ok(())
    })
    .unwrap();
    record_layer::run(&db, |tx| {
        let store = RecordStore::open_or_create(tx, &sub, &md)?;
        let mut cursor = store.scan_index(
            "by_v",
            &TupleRange::prefix(Tuple::from((999i64,))),
            &Continuation::Start,
            false,
            &ExecuteProperties::new(),
        )?;
        let (entries, _, _) = cursor.collect_remaining()?;
        assert_eq!(
            entries.len(),
            1,
            "write-only maintenance must have happened"
        );
        Ok(())
    })
    .unwrap();
}

#[test]
fn scan_limit_prevents_partial_record_emission() {
    // A split record whose chunks straddle the scan limit must not be
    // emitted partially.
    let db = Database::new();
    let md = metadata();
    let sub = Subspace::from_bytes(b"split".to_vec());
    let mut big_pool = DescriptorPool::new();
    big_pool
        .add_message(
            MessageDescriptor::new(
                "T",
                vec![
                    FieldDescriptor::optional("id", 1, FieldType::Int64),
                    FieldDescriptor::optional("v", 2, FieldType::Int64),
                    FieldDescriptor::optional("blob", 3, FieldType::Bytes),
                ],
            )
            .unwrap(),
        )
        .unwrap();
    let md_big = RecordMetaDataBuilder::new(big_pool)
        .record_type("T", KeyExpression::field("id"))
        .build()
        .unwrap();
    let _ = md;
    record_layer::run(&db, |tx| {
        let store = RecordStoreBuilder::new()
            .split_size(100)
            .open_or_create(tx, &sub, &md_big)?;
        for i in 0..4i64 {
            let mut r = store.new_record("T")?;
            r.set("id", i).unwrap();
            // Non-zero fill: zero bytes double under tuple escaping, which
            // would push one record past the scan budget below.
            r.set("blob", vec![(i + 1) as u8; 450]).unwrap(); // ~5 chunks each
            store.save_record(r)?;
        }
        Ok(())
    })
    .unwrap();

    let mut total = 0;
    let mut continuation = Continuation::Start;
    let mut rounds = 0;
    loop {
        rounds += 1;
        assert!(
            rounds < 32,
            "scan-limited pagination failed to make progress"
        );
        let (count, reason, cont) = record_layer::run(&db, |tx| {
            let store = RecordStoreBuilder::new()
                .split_size(100)
                .open_or_create(tx, &sub, &md_big)?;
            let mut cursor = store.scan_records(
                &TupleRange::all(),
                &continuation,
                &ExecuteProperties::new().with_scan_limit(7),
            )?;
            let (records, reason, cont) = cursor.collect_remaining()?;
            for r in &records {
                // Every emitted record must be complete.
                assert_eq!(
                    r.message
                        .get("blob")
                        .and_then(Value::as_bytes)
                        .map(<[u8]>::len),
                    Some(450)
                );
            }
            Ok((records.len(), reason, cont))
        })
        .unwrap();
        total += count;
        if reason == NoNextReason::SourceExhausted {
            break;
        }
        continuation = cont;
    }
    assert_eq!(total, 4);
}

/// Two keys per record (version split + payload), one `by_v` entry each.
fn versioned_metadata() -> RecordMetaData {
    blob_metadata(true)
}

/// `T(id, v, blob)` with `by_v`, splitting long records; the version split
/// stored or not.
fn blob_metadata(store_record_versions: bool) -> RecordMetaData {
    let mut pool = DescriptorPool::new();
    pool.add_message(
        MessageDescriptor::new(
            "T",
            vec![
                FieldDescriptor::optional("id", 1, FieldType::Int64),
                FieldDescriptor::optional("v", 2, FieldType::Int64),
                FieldDescriptor::optional("blob", 3, FieldType::Bytes),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    RecordMetaDataBuilder::new(pool)
        .record_type("T", KeyExpression::field("id"))
        .store_record_versions(store_record_versions)
        .split_long_records(true)
        .index("T", Index::value("by_v", KeyExpression::field("v")))
        .build()
        .unwrap()
}

fn by_v_fetch() -> RecordQueryPlan {
    RecordQueryPlan::IndexScan {
        index_name: "by_v".to_string(),
        bounds: ScanBounds::Range(TupleRange::all()),
        reverse: false,
        record_types: None,
        residual: None,
    }
}

/// A client paging with a continuation: a call with room to make
/// progress, then one whose scan limit runs out before its first row, in
/// turn. The second kind must hand back the position it was given — a
/// cursor that answered `Start` there would send the client back to the
/// beginning, for ever.
#[test]
fn resumed_cursor_stopped_before_its_first_row_keeps_its_position() {
    const RECORDS: i64 = 5;
    const KEYS_PER_RECORD: usize = 2;
    let db = Database::new();
    let md = versioned_metadata();
    let sub = Subspace::from_bytes(b"resume".to_vec());
    seed(&db, &md, &sub, RECORDS);

    type Step<'s> = &'s dyn Fn(&RecordStore<'_>, &Continuation, usize) -> (usize, Continuation);
    let record_scan: Step<'_> = &|store, continuation, scan_limit| {
        let props = ExecuteProperties::new().with_scan_limit(scan_limit);
        let mut cursor = store
            .scan_records(&TupleRange::all(), continuation, &props)
            .unwrap();
        let (rows, _, continuation) = cursor.collect_remaining().unwrap();
        (rows.len(), continuation)
    };
    let index_scan: Step<'_> = &|store, continuation, scan_limit| {
        let props = ExecuteProperties::new().with_scan_limit(scan_limit);
        let mut cursor = store
            .scan_index("by_v", &TupleRange::all(), continuation, false, &props)
            .unwrap();
        let (rows, _, continuation) = cursor.collect_remaining().unwrap();
        (rows.len(), continuation)
    };
    let fetching_plan: Step<'_> = &|store, continuation, scan_limit| {
        use record_layer::plan::BoxedCursorExt;
        let props = ExecuteProperties::new().with_scan_limit(scan_limit);
        let mut cursor = by_v_fetch().execute(store, continuation, &props).unwrap();
        let (rows, _, continuation) = cursor.collect_remaining_boxed().unwrap();
        (rows.len(), continuation)
    };

    // Continuations of one forward scan order as Start < At(ascending) < End.
    let rank = |c: &Continuation| match c {
        Continuation::Start => (0, Vec::new()),
        Continuation::At(position) => (1, position.clone()),
        Continuation::End => (2, Vec::new()),
    };
    let tx = db.create_transaction();
    let store = RecordStore::open_or_create(&tx, &sub, &md).unwrap();
    for (name, step, keys_per_row) in [
        ("record scan", record_scan, KEYS_PER_RECORD),
        ("index scan", index_scan, 1),
        ("fetching IndexScan plan", fetching_plan, 1),
    ] {
        for starved in 0..=keys_per_row {
            let mut continuation = Continuation::Start;
            let mut returned = 0;
            for call in 0.. {
                assert!(call < 64, "{name}: no end in sight");
                // One row's keys and the look-ahead key, then starvation.
                let scan_limit = if call % 2 == 0 {
                    keys_per_row + 1
                } else {
                    starved
                };
                let (rows, next) = step(&store, &continuation, scan_limit);
                assert!(
                    rank(&next) >= rank(&continuation),
                    "{name}, scan limit {scan_limit}: {continuation:?} moved back to {next:?}"
                );
                returned += rows;
                continuation = next;
                if continuation.is_end() {
                    break;
                }
            }
            assert_eq!(returned, RECORDS as usize, "{name}, starved at {starved}");
        }
    }
}

/// FNV-1a over a raw range, each key and value preceded by its length.
fn range_digest(rows: &[rl_fdb::KeyValue]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for b in (bytes.len() as u32).to_le_bytes().iter().chain(bytes) {
            hash = (hash ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for row in rows {
        eat(&row.key);
        eat(&row.value);
    }
    hash
}

/// One record as its raw keys spell it.
#[derive(Debug, Default)]
struct RawRecord {
    /// Value of the version split `(pk, -1)`.
    version: Option<Vec<u8>>,
    /// Split suffixes of the payload keys, in key order.
    splits: Vec<i64>,
    /// The payload values, joined.
    payload: Vec<u8>,
}

/// What the store holds, per primary key, straight off the raw keys with
/// the owned tuple decoder — no code shared with the fetch path.
fn records_in_raw_range(sub: &Subspace, rows: &[rl_fdb::KeyValue]) -> BTreeMap<i64, RawRecord> {
    let records = sub.child(1i64);
    let mut out: BTreeMap<i64, RawRecord> = BTreeMap::new();
    for row in rows.iter().filter(|row| records.contains(&row.key)) {
        let key = records.unpack(&row.key).unwrap();
        let [TupleElement::Int(id), TupleElement::Int(split)] = key.elements() else {
            panic!("record key {key:?}");
        };
        let record = out.entry(*id).or_default();
        if *split == -1 {
            record.version = Some(row.value.clone());
        } else {
            record.splits.push(*split);
            record.payload.extend_from_slice(&row.value);
        }
    }
    for (id, record) in &out {
        let n = record.splits.len() as i64;
        assert!(
            record.splits == [0] || record.splits == (1..=n).collect::<Vec<_>>(),
            "record {id}: split suffixes {:?}",
            record.splits
        );
    }
    out
}

/// A re-save leaves exactly the new record — whatever the old one's split
/// count and whether either carries a version key — and clears the old
/// record's range only when some old key would otherwise survive: the
/// writes of the new record overwrite the rest in place.
#[test]
fn a_resave_leaves_exactly_the_new_record_and_clears_only_what_it_must() {
    // (case, old blob, new blob, versions stored old / new, range clears)
    let cases = [
        ("unsplit over unsplit", 7, 9, true, true, 0),
        ("n chunks over n chunks", 100, 100, true, true, 0),
        ("n over m chunks", 100, 200, true, true, 1),
        ("unsplit over split", 200, 7, true, true, 1),
        ("split over unsplit", 7, 100, false, false, 1),
        (
            "versions on over a record without one",
            100,
            100,
            false,
            true,
            0,
        ),
        ("versions off over a record with one", 7, 7, true, false, 1),
    ];
    for engine in ["memory", "paged"] {
        let db = Database::with_options(DatabaseOptions {
            engine: EngineKind::from_spec(engine).unwrap(),
            ..DatabaseOptions::default()
        });
        for (id, (case, old_len, new_len, old_versions, new_versions, clears)) in
            cases.into_iter().enumerate()
        {
            let sub = Subspace::from_tuple(&Tuple::new().push(11i64).push(id as i64));
            let save = |tx: &rl_fdb::Transaction, versions: bool, len: usize, fill: u8| {
                let md = blob_metadata(versions);
                let store = RecordStoreBuilder::new()
                    .split_size(48)
                    .open_or_create(tx, &sub, &md)?;
                let mut r = store.new_record("T")?;
                r.set("id", 1i64).unwrap();
                r.set("v", i64::from(fill)).unwrap();
                r.set("blob", vec![fill; len]).unwrap();
                let saved = store.save_record(r)?;
                // Read back through the store and off the raw keys.
                let loaded = store.load_record(&Tuple::new().push(1i64))?.unwrap();
                assert_eq!(loaded.message, saved.message, "[{engine}] {case}");
                assert_eq!(loaded.split_count, saved.split_count, "[{engine}] {case}");
                assert_eq!(loaded.version.is_some(), versions, "[{engine}] {case}");
                Ok(saved)
            };
            let raw_record = |tx: &rl_fdb::Transaction| {
                let (begin, end) = sub.range_inclusive();
                let raw = tx.get_range(&begin, &end, RangeOptions::default()).unwrap();
                let mut records = records_in_raw_range(&sub, &raw);
                assert_eq!(records.len(), 1, "[{engine}] {case}");
                records.remove(&1).unwrap()
            };
            record_layer::run(&db, |tx| save(tx, old_versions, old_len, 1)).unwrap();

            let tx = db.create_transaction();
            let new = save(&tx, new_versions, new_len, 2).unwrap();
            assert_eq!(
                tx.trace().range_clears,
                clears,
                "[{engine}] {case}: range clears issued"
            );
            assert_eq!(new.split_count > 1, new_len > 48, "[{engine}] {case}");
            let mut stored = vec![b'P'];
            stored.extend(Tuple::new().push("T").push(new.message.encode()).pack());
            // Inside the transaction, and again once committed: the new
            // payload under the new split suffixes, no chunk and no
            // version key of the old record left over.
            let inside = raw_record(&tx);
            tx.commit().unwrap();
            let after = raw_record(&db.create_transaction());
            for (when, raw) in [("before", inside), ("after", after)] {
                assert_eq!(raw.payload, stored, "[{engine}] {case}, {when} commit");
                assert_eq!(raw.splits.len(), new.split_count, "[{engine}] {case}");
                assert_eq!(raw.version.is_some(), new_versions, "[{engine}] {case}");
            }
            let loaded = record_layer::run(&db, |tx| {
                let md = blob_metadata(new_versions);
                let store = RecordStoreBuilder::new()
                    .split_size(48)
                    .open_or_create(tx, &sub, &md)?;
                store.load_record(&Tuple::new().push(1i64))
            });
            assert_eq!(loaded.unwrap().unwrap().message, new.message);
        }
    }
}

/// A fixed save / overwrite / delete sequence: blobs from empty to a few
/// chunks long and full of NULs, so the envelope escapes and the record
/// splits; every commit stamps versions.
fn churn(db: &Database, md: &RecordMetaData, sub: &Subspace) {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move |below: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % below
    };
    for _ in 0..12 {
        record_layer::run(db, |tx| {
            let store = RecordStoreBuilder::new()
                .split_size(48)
                .open_or_create(tx, sub, md)?;
            for _ in 0..6 {
                let id = next(24) as i64;
                if next(4) == 0 {
                    store.delete_record(&Tuple::new().push(id))?;
                    continue;
                }
                let mut r = store.new_record("T")?;
                r.set("id", id).unwrap();
                r.set("v", next(5) as i64).unwrap();
                let len = [0, 7, 60, 200][next(4) as usize];
                let fill = next(256);
                r.set(
                    "blob",
                    (0..len).map(|i| (i % 3 * fill) as u8).collect::<Vec<u8>>(),
                )
                .unwrap();
                store.save_record(r)?;
            }
            Ok(())
        })
        .unwrap();
    }
}

/// Same bytes, same answers: the raw range of a churned store is what
/// every read path reports, record by record — and is, byte for byte, what
/// the tree before the in-place assembler wrote (the digest was computed
/// there), on both engines, at the default clock and on a database whose
/// clock has run 2^45 versions ahead before the churn, as an old cluster's
/// has: its commit versions, and so the stored stamps, are larger.
#[test]
fn every_read_path_reports_the_stored_bytes() {
    let clocks = [("new", 0, PINNED_DIGEST), ("aged", AGED_MS, AGED_DIGEST)];
    let runs = clocks
        .into_iter()
        .flat_map(|clock| ["memory", "paged"].map(|kind| (kind, clock)));
    for (kind, (clock, advance_ms, digest)) in runs {
        let engine = format!("{kind}, {clock} clock");
        let db = Database::with_options(DatabaseOptions {
            engine: EngineKind::from_spec(kind).unwrap(),
            ..DatabaseOptions::default()
        });
        db.advance_clock(advance_ms);
        let md = versioned_metadata();
        let sub = Subspace::from_tuple(&Tuple::new().push(9i64).push("churn"));
        churn(&db, &md, &sub);

        let tx = db.create_transaction();
        let (begin, end) = sub.range_inclusive();
        let raw = tx.get_range(&begin, &end, RangeOptions::default()).unwrap();
        assert_eq!(
            range_digest(&raw),
            digest,
            "[{engine}] the stored format drifted ({} raw rows)",
            raw.len()
        );
        let want = records_in_raw_range(&sub, &raw);
        assert!(want.values().any(|r| r.splits.len() > 2));
        assert!(want.values().any(|r| r.splits == [0]));

        let store = RecordStoreBuilder::new()
            .split_size(48)
            .open_or_create(&tx, &sub, &md)
            .unwrap();
        let check = |path: &str, got: &[StoredRecord]| {
            let ids: Vec<i64> = got
                .iter()
                .map(|r| r.primary_key.get(0).unwrap().as_int().unwrap())
                .collect();
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            assert_eq!(
                sorted,
                want.keys().copied().collect::<Vec<_>>(),
                "[{engine}] {path}: which records"
            );
            for (id, r) in ids.iter().zip(got) {
                let raw = &want[id];
                assert_eq!(r.primary_key, Tuple::new().push(*id));
                assert_eq!(
                    r.version.map(|v| v.as_bytes().to_vec()),
                    raw.version,
                    "[{engine}] {path}: version of {id}"
                );
                assert_eq!(
                    r.split_count,
                    raw.splits.len(),
                    "[{engine}] {path}: chunks of {id}"
                );
                // Plain serializer: a format byte, then the envelope.
                let mut stored = vec![b'P'];
                stored.extend(
                    Tuple::new()
                        .push(r.record_type())
                        .push(r.message.encode())
                        .pack(),
                );
                assert_eq!(stored, raw.payload, "[{engine}] {path}: payload of {id}");
            }
            ids
        };

        let all = ExecuteProperties::new();
        let (forward, _, _) = store
            .scan_records(&TupleRange::all(), &Continuation::Start, &all)
            .unwrap()
            .collect_remaining()
            .unwrap();
        let ids = check("scan_records", &forward);
        assert!(ids.windows(2).all(|w| w[0] < w[1]));

        let (reverse, _, _) = store
            .scan_records_reverse(&TupleRange::all(), &Continuation::Start, &all)
            .unwrap()
            .collect_remaining()
            .unwrap();
        let ids = check("scan_records_reverse", &reverse);
        assert!(ids.windows(2).all(|w| w[0] > w[1]));

        let loaded: Vec<StoredRecord> = (0..24)
            .filter_map(|id| store.load_record(&Tuple::new().push(id as i64)).unwrap())
            .collect();
        check("load_record", &loaded);

        let fetched = by_v_fetch().execute_all(&store).unwrap();
        check("fetching index scan", &fetched);
    }
}

/// `range_digest` of the churned store's raw range in format 2. It is the
/// digest this test computed on the commit before the fetch path decoded in
/// place (`0x89d0_8c7f_caa5_5235`, format 1), with that range's header
/// rewritten to format 2 and each `S(2|3|4, "by_v")` and `S(5, 1, "by_v")`
/// prefix to `by_v`'s subspace key 1, and the `S(3, 1)` state value
/// followed by the index's name `by_v`: records and entries are byte for
/// byte the same.
const PINNED_DIGEST: u64 = 0xa3f6_900b_dbbc_5294;

/// The clock advance, in milliseconds, that puts a new database 2^45
/// versions ahead (`VERSIONS_PER_MS` is a thousand).
const AGED_MS: u64 = 35_184_372_089;

/// `range_digest` of the same churn on a database whose clock was advanced
/// by [`AGED_MS`] first: the same records, with the versions of a clock
/// that has run for about a year.
const AGED_DIGEST: u64 = 0x36b1_8c69_637a_5859;

/// A RANK index is its skip list: a score-range scan reads level 0 and
/// returns entries only, never a level's begin sentinel (also from an
/// empty-tuple low bound), and score changes keep the scan, the ranks and
/// the count exact.
#[test]
fn rank_index_scans_level_zero_and_follows_score_changes() {
    let md = RecordMetaDataBuilder::new(metadata().pool().clone())
        .record_type("T", KeyExpression::field("id"))
        .index("T", Index::rank("v_rank", KeyExpression::field("v")))
        .build()
        .unwrap();
    let db = Database::new();
    let sub = Subspace::from_bytes(b"rank".to_vec());
    seed(&db, &md, &sub, 40);
    let mut model: BTreeMap<i64, i64> = (0..40).map(|id| (id, id * 2)).collect();
    record_layer::run(&db, |tx| {
        let store = RecordStore::open_or_create(tx, &sub, &md)?;
        for id in (0..40i64).step_by(3) {
            let mut r = store.new_record("T")?;
            r.set("id", id).unwrap();
            r.set("v", 61 - id).unwrap();
            store.save_record(r)?;
            model.insert(id, 61 - id);
        }
        Ok(())
    })
    .unwrap();

    let mut want: Vec<Tuple> = model.iter().map(|(&id, &v)| Tuple::from((v, id))).collect();
    want.sort();
    let score = |t: &Tuple| t.get(0).unwrap().as_int().unwrap();
    record_layer::run(&db, |tx| {
        let store = RecordStore::open_or_create(tx, &sub, &md)?;
        assert_eq!(store.scan_rank_entries("v_rank", &TupleRange::all())?, want);
        let from_empty = TupleRange::between(Some((Tuple::new(), true)), None);
        assert_eq!(store.scan_rank_entries("v_rank", &from_empty)?, want);
        let scores = TupleRange::between(
            Some((Tuple::from((10i64,)), true)),
            Some((Tuple::from((30i64,)), false)),
        );
        let in_range: Vec<Tuple> = want
            .iter()
            .filter(|t| (10..30).contains(&score(t)))
            .cloned()
            .collect();
        assert_eq!(store.scan_rank_entries("v_rank", &scores)?, in_range);
        assert_eq!(store.rank_count("v_rank")?, 40);
        for (rank, entry) in want.iter().enumerate() {
            assert_eq!(store.rank_of("v_rank", entry)?, Some(rank as i64));
            assert_eq!(
                store.entry_at_rank("v_rank", rank as i64)?.as_ref(),
                Some(entry)
            );
        }
        Ok(())
    })
    .unwrap();
}
