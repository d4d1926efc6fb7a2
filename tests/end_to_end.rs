//! Cross-crate integration tests: the full stack from schema definition to
//! query execution, exercising record splitting, schema evolution with
//! store catch-up, pluggable serialization, and the 5-second limit.

use std::sync::Arc;

use record_layer::cursor::{Continuation, ExecuteProperties, NoNextReason, RecordCursor};
use record_layer::expr::KeyExpression;
use record_layer::metadata::{Index, RecordMetaData, RecordMetaDataBuilder};
use record_layer::serialize::{CompressingSerializer, PlainSerializer, XorCipherSerializer};
use record_layer::store::{RecordStore, RecordStoreBuilder, TupleRange};
use rl_fdb::tuple::Tuple;
use rl_fdb::{Database, Subspace};
use rl_message::{DescriptorPool, FieldDescriptor, FieldType, MessageDescriptor, Value};

fn pool() -> DescriptorPool {
    let mut pool = DescriptorPool::new();
    pool.add_message(
        MessageDescriptor::new(
            "Doc",
            vec![
                FieldDescriptor::optional("id", 1, FieldType::Int64),
                FieldDescriptor::optional("title", 2, FieldType::String),
                FieldDescriptor::optional("payload", 3, FieldType::Bytes),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    pool
}

fn metadata() -> RecordMetaData {
    RecordMetaDataBuilder::new(pool())
        .record_type("Doc", KeyExpression::field("id"))
        .index(
            "Doc",
            Index::value("by_title", KeyExpression::field("title")),
        )
        .build()
        .unwrap()
}

#[test]
fn large_records_split_and_reassemble() {
    let db = Database::new();
    let md = metadata();
    let sub = Subspace::from_bytes(b"split".to_vec());
    let payload: Vec<u8> = (0..50_000u32).map(|i| (i % 251) as u8).collect();

    record_layer::run(&db, |tx| {
        // Small split size forces many chunks.
        let store = RecordStoreBuilder::new()
            .split_size(1_000)
            .open_or_create(tx, &sub, &md)?;
        let mut doc = store.new_record("Doc")?;
        doc.set("id", 1i64).unwrap();
        doc.set("title", "big").unwrap();
        doc.set("payload", payload.clone()).unwrap();
        let stored = store.save_record(doc)?;
        assert!(
            stored.split_count > 40,
            "expected many chunks, got {}",
            stored.split_count
        );
        Ok(())
    })
    .unwrap();

    record_layer::run(&db, |tx| {
        let store = RecordStoreBuilder::new()
            .split_size(1_000)
            .open_or_create(tx, &sub, &md)?;
        let doc = store.load_record(&Tuple::from((1i64,)))?.unwrap();
        assert_eq!(
            doc.message.get("payload").and_then(Value::as_bytes),
            Some(payload.as_slice())
        );
        assert!(doc.version.unwrap().is_complete());
        // Replacing with a small record clears all the old chunks.
        let mut small = store.new_record("Doc")?;
        small.set("id", 1i64).unwrap();
        small.set("title", "small").unwrap();
        store.save_record(small)?;
        Ok(())
    })
    .unwrap();

    record_layer::run(&db, |tx| {
        let store = RecordStoreBuilder::new()
            .split_size(1_000)
            .open_or_create(tx, &sub, &md)?;
        let doc = store.load_record(&Tuple::from((1i64,)))?.unwrap();
        assert_eq!(doc.split_count, 1);
        assert_eq!(
            doc.message.get("title").and_then(Value::as_str),
            Some("small")
        );
        Ok(())
    })
    .unwrap();
}

#[test]
fn serializer_chain_roundtrips_records() {
    let db = Database::new();
    let md = metadata();
    let sub = Subspace::from_bytes(b"ser".to_vec());
    let serializer = Arc::new(XorCipherSerializer::new(
        CompressingSerializer::new(PlainSerializer),
        b"secret".to_vec(),
    ));

    record_layer::run(&db, |tx| {
        let store = RecordStoreBuilder::new()
            .serializer(serializer.clone())
            .open_or_create(tx, &sub, &md)?;
        let mut doc = store.new_record("Doc")?;
        doc.set("id", 7i64).unwrap();
        doc.set("title", "classified").unwrap();
        doc.set("payload", vec![0u8; 4096]).unwrap(); // compresses well
        store.save_record(doc)?;
        Ok(())
    })
    .unwrap();

    // The raw stored bytes must not contain the plaintext title.
    let tx = db.create_transaction();
    let (begin, end) = sub.range_inclusive();
    let kvs = tx
        .get_range(&begin, &end, rl_fdb::RangeOptions::default())
        .unwrap();
    assert!(kvs
        .iter()
        .all(|kv| !kv.value.windows(10).any(|w| w == b"classified")));
    drop(tx);

    record_layer::run(&db, |tx| {
        let store = RecordStoreBuilder::new()
            .serializer(serializer.clone())
            .open_or_create(tx, &sub, &md)?;
        let doc = store.load_record(&Tuple::from((7i64,)))?.unwrap();
        assert_eq!(
            doc.message.get("title").and_then(Value::as_str),
            Some("classified")
        );
        Ok(())
    })
    .unwrap();
}

#[test]
fn stale_metadata_cache_is_rejected() {
    let db = Database::new();
    let v1 = metadata();
    let v2 = RecordMetaDataBuilder::from_existing(&v1)
        .index("Doc", Index::count("doc_count", KeyExpression::Empty))
        .build()
        .unwrap();
    v2.validate_evolution_from(&v1).unwrap();
    let sub = Subspace::from_bytes(b"stale".to_vec());

    // Open at v2 (writes version 2 into the header)...
    record_layer::run(&db, |tx| {
        RecordStore::open_or_create(tx, &sub, &v2)?;
        Ok(())
    })
    .unwrap();
    // ...then a client with a stale v1 cache must be told to refresh.
    let err = record_layer::run(&db, |tx| {
        RecordStore::open_or_create(tx, &sub, &v1)?;
        Ok(())
    })
    .unwrap_err();
    assert!(matches!(
        err,
        record_layer::Error::StaleMetaData {
            store_version: 2,
            supplied_version: 1
        }
    ));
}

#[test]
fn dropped_index_data_is_cleared_on_catch_up() {
    let db = Database::new();
    let v1 = metadata();
    let sub = Subspace::from_bytes(b"drop".to_vec());
    record_layer::run(&db, |tx| {
        let store = RecordStore::open_or_create(tx, &sub, &v1)?;
        let mut doc = store.new_record("Doc")?;
        doc.set("id", 1i64).unwrap();
        doc.set("title", "x").unwrap();
        store.save_record(doc)?;
        Ok(())
    })
    .unwrap();

    // The index's data lives under its subspace key: its entries in S(2, k),
    // its state in S(3, k) and its entry count in S(5, 1, k).
    let key = v1.index("by_title").unwrap().subspace_key();
    let index_rows = |db: &Database| {
        let tx = db.create_transaction();
        [
            sub.child(2i64).child(key),
            sub.child(3i64).child(key),
            sub.child(5i64).child(1i64).child(key),
        ]
        .iter()
        .map(|index_sub| {
            let (begin, end) = index_sub.range_inclusive();
            tx.get_range(&begin, &end, rl_fdb::RangeOptions::default())
                .unwrap()
                .len()
        })
        .collect::<Vec<_>>()
    };
    assert_eq!(index_rows(&db), [1, 1, 1]);

    let v2 = RecordMetaDataBuilder::from_existing(&v1)
        .drop_index("by_title")
        .build()
        .unwrap();
    v2.validate_evolution_from(&v1).unwrap();
    record_layer::run(&db, |tx| {
        RecordStore::open_or_create(tx, &sub, &v2)?;
        Ok(())
    })
    .unwrap();

    // The index subspace is gone.
    assert_eq!(index_rows(&db), [0, 0, 0]);
}

#[test]
fn transaction_time_limit_forces_continuation_use() {
    // A scan that cannot finish inside the 5-second limit completes across
    // transactions via continuations (§4).
    let db = Database::new();
    let md = metadata();
    let sub = Subspace::from_bytes(b"time".to_vec());
    record_layer::run(&db, |tx| {
        let store = RecordStore::open_or_create(tx, &sub, &md)?;
        for i in 0..100i64 {
            let mut doc = store.new_record("Doc")?;
            doc.set("id", i).unwrap();
            doc.set("title", format!("t{i}")).unwrap();
            store.save_record(doc)?;
        }
        Ok(())
    })
    .unwrap();

    let mut collected = Vec::new();
    let mut continuation = Continuation::Start;
    let mut transactions = 0;
    loop {
        transactions += 1;
        let tx = db.create_transaction();
        let store = RecordStore::open_or_create(&tx, &sub, &md).unwrap();
        let mut cursor = store
            .scan_records(
                &TupleRange::all(),
                &continuation,
                &ExecuteProperties::new().with_scan_limit(25),
            )
            .unwrap();
        let (batch, reason, cont) = cursor.collect_remaining().unwrap();
        collected.extend(batch.into_iter().map(|r| r.primary_key.clone()));
        // Simulate wall time passing beyond the 5 s budget between batches.
        db.advance_clock(6_000);
        match reason {
            NoNextReason::SourceExhausted => break,
            _ => continuation = cont,
        }
        assert!(transactions < 50, "scan did not make progress");
    }
    assert_eq!(collected.len(), 100);
    assert!(
        transactions >= 4,
        "expected several transactions, got {transactions}"
    );
    // No duplicates, in order.
    let mut dedup = collected.clone();
    dedup.dedup();
    assert_eq!(dedup.len(), 100);
}

#[test]
fn records_of_different_types_interleave_in_one_extent() {
    // §4: all record types are interleaved within the same extent, and
    // indexes can span types.
    let mut pool = pool();
    pool.add_message(
        MessageDescriptor::new(
            "Memo",
            vec![
                FieldDescriptor::optional("id", 1, FieldType::Int64),
                FieldDescriptor::optional("title", 2, FieldType::String),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    let md = RecordMetaDataBuilder::new(pool)
        .record_type("Doc", KeyExpression::field("id"))
        .record_type("Memo", KeyExpression::field("id"))
        .multi_type_index(
            &["Doc", "Memo"],
            Index::value("any_title", KeyExpression::field("title")),
        )
        .build()
        .unwrap();
    let db = Database::new();
    let sub = Subspace::from_bytes(b"mixed".to_vec());

    record_layer::run(&db, |tx| {
        let store = RecordStore::open_or_create(tx, &sub, &md)?;
        let mut d = store.new_record("Doc")?;
        d.set("id", 1i64).unwrap();
        d.set("title", "shared").unwrap();
        store.save_record(d)?;
        let mut m = store.new_record("Memo")?;
        m.set("id", 2i64).unwrap();
        m.set("title", "shared").unwrap();
        store.save_record(m)?;
        Ok(())
    })
    .unwrap();

    record_layer::run(&db, |tx| {
        let store = RecordStore::open_or_create(tx, &sub, &md)?;
        // The multi-type index finds both records with one scan.
        let mut cursor = store.scan_index(
            "any_title",
            &TupleRange::prefix(Tuple::from(("shared",))),
            &Continuation::Start,
            false,
            &ExecuteProperties::new(),
        )?;
        let (entries, _, _) = cursor.collect_remaining()?;
        assert_eq!(entries.len(), 2);
        // A record scan sees both types interleaved by primary key.
        let mut cursor = store.scan_records(
            &TupleRange::all(),
            &Continuation::Start,
            &ExecuteProperties::new(),
        )?;
        let (records, _, _) = cursor.collect_remaining()?;
        let types: Vec<&str> = records.iter().map(|r| r.record_type()).collect();
        assert_eq!(types, vec!["Doc", "Memo"]);
        Ok(())
    })
    .unwrap();
}
