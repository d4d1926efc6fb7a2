//! The online index builder (§6): builds or rebuilds an index in the
//! background, split across many transactions so no single transaction
//! exceeds the 5-second limit or the size limit.
//!
//! The index starts in *write-only* state (writes maintain it, queries
//! cannot use it), the builder scans the record extent in batches —
//! persisting its progress as a continuation inside the store, so a crashed
//! builder resumes exactly where it stopped — and finally flips the index
//! to *readable*.

use rl_fdb::subspace::Subspace;
use rl_fdb::Database;

use crate::cursor::{Continuation, CursorResult, ExecuteProperties, RecordCursor};
use crate::error::Result;
use crate::index::IndexState;
use crate::metadata::{IndexType, RecordMetaData};
use crate::store::{RecordStore, RecordStoreBuilder, TupleRange};

/// Builds one index of one record store across multiple transactions.
pub struct OnlineIndexBuilder<'m> {
    db: Database,
    store_subspace: Subspace,
    metadata: &'m RecordMetaData,
    index_name: String,
    /// Records per transaction (kept small so builds are incremental).
    batch_size: usize,
    /// Number of transactions committed by the last `build()` call.
    pub transactions_used: usize,
}

impl<'m> OnlineIndexBuilder<'m> {
    pub fn new(
        db: &Database,
        store_subspace: &Subspace,
        metadata: &'m RecordMetaData,
        index_name: impl Into<String>,
    ) -> Self {
        OnlineIndexBuilder {
            db: db.clone(),
            store_subspace: store_subspace.clone(),
            metadata,
            index_name: index_name.into(),
            batch_size: 64,
            transactions_used: 0,
        }
    }

    pub fn batch_size(mut self, n: usize) -> Self {
        self.batch_size = n.max(1);
        self
    }

    fn open<'a>(&self, tx: &'a rl_fdb::Transaction) -> Result<RecordStore<'a>>
    where
        'm: 'a,
    {
        RecordStoreBuilder::new().open_or_create(tx, &self.store_subspace, self.metadata)
    }

    fn progress_key(&self, store: &RecordStore<'_>) -> Result<Vec<u8>> {
        let index = self.metadata.index(&self.index_name)?;
        Ok(store
            .index_range_subspace(index)
            .pack(&rl_fdb::tuple::Tuple::new().push("progress")))
    }

    /// Run the full build: clear stale data, scan all records in batches,
    /// mark readable.
    pub fn build(&mut self) -> Result<()> {
        self.transactions_used = 0;

        // Phase 1: enter write-only and clear any stale index data, so
        // records written *during* the build maintain the index while the
        // scan backfills the rest.
        crate::run(&self.db, |tx| {
            let store = self.open(tx)?;
            let index = self.metadata.index(&self.index_name)?;
            store.set_index_state(&self.index_name, IndexState::WriteOnly)?;
            store.clear_index_data(index)?;
            Ok(())
        })?;
        self.transactions_used += 1;

        // Phase 2: batched scan, one transaction per batch, resuming from
        // the persisted continuation.
        loop {
            let finished = crate::run(&self.db, |tx| {
                let store = self.open(tx)?;
                let index = self.metadata.index(&self.index_name)?;
                let progress_key = self.progress_key(&store)?;
                let continuation = match tx.get(&progress_key).map_err(crate::Error::Fdb)? {
                    Some(bytes) => Continuation::from_bytes(&bytes)?,
                    None => Continuation::Start,
                };
                if continuation.is_end() {
                    return Ok(true);
                }
                let mut cursor = store.scan_records(
                    &TupleRange::all(),
                    &continuation,
                    &ExecuteProperties::new(),
                )?;
                let mut scanned = 0usize;
                let final_continuation = loop {
                    match cursor.next()? {
                        CursorResult::Next {
                            value: record,
                            continuation,
                        } => {
                            if index.applies_to(record.record_type()) {
                                store.update_one_index(index, &record)?;
                            }
                            scanned += 1;
                            if scanned >= self.batch_size {
                                break continuation;
                            }
                        }
                        CursorResult::NoNext { continuation, .. } => break continuation,
                    }
                };
                let done = final_continuation.is_end();
                tx.try_set(&progress_key, &final_continuation.to_bytes())
                    .map_err(crate::Error::Fdb)?;
                Ok(done)
            })?;
            self.transactions_used += 1;
            if finished {
                break;
            }
        }

        // Phase 3: flip to readable and drop the progress marker. For
        // key-per-entry index types, rebuild the entry-count statistic
        // exactly: records written while the backfill raced them were
        // maintained by both paths and double-counted in the additive
        // counter. (A single range read suffices in the simulator; a real
        // deployment would batch the recount like the backfill itself.)
        crate::run(&self.db, |tx| {
            let store = self.open(tx)?;
            let index = self.metadata.index(&self.index_name)?;
            if matches!(index.index_type, IndexType::Value | IndexType::Version) {
                let data = store.index_subspace(index);
                let (begin, end) = data.range_inclusive();
                let count = tx
                    .get_range_snapshot(&begin, &end, rl_fdb::RangeOptions::default())
                    .map_err(crate::Error::Fdb)?
                    .len() as u64;
                store.set_index_entry_count(&self.index_name, count)?;
            }
            let progress_key = self.progress_key(&store)?;
            tx.clear(&progress_key);
            store.set_index_state(&self.index_name, IndexState::Readable)?;
            Ok(())
        })?;
        self.transactions_used += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::KeyExpression;
    use crate::metadata::{Index, RecordMetaDataBuilder};
    use crate::store::{AggregateValue, RecordStore};
    use rl_fdb::tuple::Tuple;
    use rl_message::{DescriptorPool, FieldDescriptor, FieldType, MessageDescriptor};

    fn pool() -> DescriptorPool {
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
        pool
    }

    fn metadata_v1() -> crate::metadata::RecordMetaData {
        RecordMetaDataBuilder::new(pool())
            .record_type("T", KeyExpression::field("id"))
            .build()
            .unwrap()
    }

    fn metadata_v2() -> crate::metadata::RecordMetaData {
        RecordMetaDataBuilder::from_existing(&metadata_v1())
            .index("T", Index::value("by_v", KeyExpression::field("v")))
            .index(
                "T",
                Index::sum("sum_v", KeyExpression::Empty, KeyExpression::field("v")),
            )
            .build()
            .unwrap()
    }

    fn seed(db: &Database, md: &crate::metadata::RecordMetaData, n: i64) {
        let sub = Subspace::from_bytes(b"S".to_vec());
        for i in 0..n {
            crate::run(db, |tx| {
                let store = RecordStore::open_or_create(tx, &sub, md)?;
                let mut rec = store.new_record("T")?;
                rec.set("id", i).unwrap();
                rec.set("v", i * 10).unwrap();
                store.save_record(rec)?;
                Ok(())
            })
            .unwrap();
        }
    }

    #[test]
    fn new_index_on_populated_store_starts_disabled_then_builds() {
        let db = Database::new();
        let sub = Subspace::from_bytes(b"S".to_vec());
        let v1 = metadata_v1();
        seed(&db, &v1, 50);

        let v2 = metadata_v2();
        // Opening with newer metadata marks the new indexes disabled (the
        // store already has records, §5).
        crate::run(&db, |tx| {
            let store = RecordStore::open_or_create(tx, &sub, &v2)?;
            assert_eq!(store.index_state("by_v")?, IndexState::Disabled);
            // Scanning a disabled index fails.
            assert!(store
                .scan_index(
                    "by_v",
                    &TupleRange::all(),
                    &Continuation::Start,
                    false,
                    &ExecuteProperties::new()
                )
                .is_err());
            Ok(())
        })
        .unwrap();

        let mut builder = OnlineIndexBuilder::new(&db, &sub, &v2, "by_v").batch_size(7);
        builder.build().unwrap();
        // 50 records / 7 per batch → several transactions, proving the
        // build spans transactions.
        assert!(
            builder.transactions_used > 3,
            "used {}",
            builder.transactions_used
        );

        crate::run(&db, |tx| {
            let store = RecordStore::open_or_create(tx, &sub, &v2)?;
            assert_eq!(store.index_state("by_v")?, IndexState::Readable);
            let mut cursor = store.scan_index(
                "by_v",
                &TupleRange::all(),
                &Continuation::Start,
                false,
                &ExecuteProperties::new(),
            )?;
            let (entries, _, _) = cursor.collect_remaining()?;
            assert_eq!(entries.len(), 50);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn aggregate_index_build_produces_correct_sum() {
        let db = Database::new();
        let sub = Subspace::from_bytes(b"S".to_vec());
        let v1 = metadata_v1();
        seed(&db, &v1, 20);
        let v2 = metadata_v2();
        crate::run(&db, |tx| {
            RecordStore::open_or_create(tx, &sub, &v2)?;
            Ok(())
        })
        .unwrap();
        OnlineIndexBuilder::new(&db, &sub, &v2, "sum_v")
            .batch_size(6)
            .build()
            .unwrap();
        crate::run(&db, |tx| {
            let store = RecordStore::open_or_create(tx, &sub, &v2)?;
            let sum = store.evaluate_aggregate("sum_v", &Tuple::new())?;
            // sum of 0,10,...,190 = 1900.
            assert_eq!(sum, AggregateValue::Long(1900));
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn writes_during_build_are_not_lost() {
        let db = Database::new();
        let sub = Subspace::from_bytes(b"S".to_vec());
        let v1 = metadata_v1();
        seed(&db, &v1, 10);
        let v2 = metadata_v2();
        crate::run(&db, |tx| {
            RecordStore::open_or_create(tx, &sub, &v2)?;
            Ok(())
        })
        .unwrap();

        // Put the index in write-only state manually, write a record (it
        // must maintain the index), then build.
        crate::run(&db, |tx| {
            let store = RecordStore::open_or_create(tx, &sub, &v2)?;
            store.set_index_state("by_v", IndexState::WriteOnly)?;
            let mut rec = store.new_record("T")?;
            rec.set("id", 100i64).unwrap();
            rec.set("v", 777i64).unwrap();
            store.save_record(rec)?;
            Ok(())
        })
        .unwrap();

        OnlineIndexBuilder::new(&db, &sub, &v2, "by_v")
            .batch_size(4)
            .build()
            .unwrap();

        crate::run(&db, |tx| {
            let store = RecordStore::open_or_create(tx, &sub, &v2)?;
            let mut cursor = store.scan_index(
                "by_v",
                &TupleRange::prefix(Tuple::from((777i64,))),
                &Continuation::Start,
                false,
                &ExecuteProperties::new(),
            )?;
            let (entries, _, _) = cursor.collect_remaining()?;
            assert_eq!(entries.len(), 1);
            assert_eq!(entries[0].primary_key, Tuple::from((100i64,)));
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn rebuild_replaces_stale_entries() {
        let db = Database::new();
        let sub = Subspace::from_bytes(b"S".to_vec());
        let v2 = metadata_v2();
        seed(&db, &v2, 15); // store created at v2: indexes readable and maintained

        // Corrupt the index by clearing it directly, then rebuild.
        crate::run(&db, |tx| {
            let store = RecordStore::open_or_create(tx, &sub, &v2)?;
            let index = v2.index("by_v")?;
            store.clear_index_data(index)?;
            Ok(())
        })
        .unwrap();
        OnlineIndexBuilder::new(&db, &sub, &v2, "by_v")
            .batch_size(4)
            .build()
            .unwrap();
        crate::run(&db, |tx| {
            let store = RecordStore::open_or_create(tx, &sub, &v2)?;
            let mut cursor = store.scan_index(
                "by_v",
                &TupleRange::all(),
                &Continuation::Start,
                false,
                &ExecuteProperties::new(),
            )?;
            let (entries, _, _) = cursor.collect_remaining()?;
            assert_eq!(entries.len(), 15);
            Ok(())
        })
        .unwrap();
    }
}
