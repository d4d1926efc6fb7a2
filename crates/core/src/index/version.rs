//! VERSION indexes (§7): index entries containing the record's 12-byte
//! commit version, exposing the total ordering of operations within the
//! cluster. CloudKit's sync index is built on this type (§8.1).
//!
//! New records' versions are unknown until commit, so fresh entries are
//! written with `SET_VERSIONSTAMPED_KEY`: the database splices the commit
//! version into the key during commit. Old entries are removed with plain
//! clears since a stored record's version is known; an entry written
//! earlier in the same transaction is still a buffered versionstamped
//! write, and is dropped instead.

use rl_fdb::atomic::MutationType;

use crate::error::Result;
use crate::expr::PackedRows;
use crate::index::{entry_value, evaluate_change, IndexContext, IndexedRecord};

/// Rewrites every entry on every change: the new record's version differs
/// from the old one's, so no entry is shared. Each key is packed once.
pub(crate) fn update(
    ctx: &IndexContext<'_>,
    packed: &mut PackedRows,
    old: Option<&IndexedRecord<'_>>,
    new: Option<&IndexedRecord<'_>>,
) -> Result<i64> {
    let (old, new) = evaluate_change(ctx.index, packed, old, new)?;
    let key_columns = ctx.index.key_expression.key_column_count();
    let mut delta = 0i64;
    for row in packed.rows(old) {
        // A record saved earlier in this transaction has an incomplete
        // version (see the module doc).
        match ctx.stamped_entry_key(row.split_at(key_columns).0) {
            (key, Some(_)) => {
                ctx.tx.remove_versionstamped_key(&key);
            }
            (key, None) => ctx.tx.clear_owned(key),
        }
        delta -= 1;
    }
    for row in packed.rows(new) {
        let (key, value) = row.split_at(key_columns);
        let value = entry_value(value);
        match ctx.stamped_entry_key(key) {
            (mut operand, Some(offset)) => {
                operand.extend_from_slice(&(offset as u32).to_le_bytes());
                ctx.tx
                    .mutate_owned(MutationType::SetVersionstampedKey, operand, value)?;
            }
            (key, None) => ctx.tx.try_set_owned(key, value)?,
        }
        delta += 1;
    }
    Ok(delta)
}

#[cfg(test)]
mod tests {
    use crate::cursor::{Continuation, ExecuteProperties, RecordCursor};
    use crate::expr::KeyExpression;
    use crate::metadata::{Index, RecordMetaDataBuilder};
    use crate::store::{RecordStore, TupleRange};
    use rl_fdb::tuple::{Tuple, TupleElement};
    use rl_fdb::{Database, Subspace};
    use rl_message::{DescriptorPool, FieldDescriptor, FieldType, MessageDescriptor};

    fn metadata() -> crate::metadata::RecordMetaData {
        let mut pool = DescriptorPool::new();
        pool.add_message(
            MessageDescriptor::new(
                "Doc",
                vec![
                    FieldDescriptor::optional("id", 1, FieldType::Int64),
                    FieldDescriptor::optional("zone", 2, FieldType::String),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        RecordMetaDataBuilder::new(pool)
            .record_type("Doc", KeyExpression::field("id"))
            .index("Doc", Index::version("sync", KeyExpression::Version))
            .index(
                "Doc",
                Index::version(
                    "zone_sync",
                    KeyExpression::concat(vec![
                        KeyExpression::field("zone"),
                        KeyExpression::Version,
                    ]),
                ),
            )
            .build()
            .unwrap()
    }

    fn save(db: &Database, md: &crate::metadata::RecordMetaData, id: i64, zone: &str) {
        let sub = Subspace::from_bytes(b"S".to_vec());
        crate::run(db, |tx| {
            let store = RecordStore::open_or_create(tx, &sub, md)?;
            let mut rec = store.new_record("Doc")?;
            rec.set("id", id).unwrap();
            rec.set("zone", zone).unwrap();
            store.save_record(rec)?;
            Ok(())
        })
        .unwrap();
    }

    fn scan_sync(
        db: &Database,
        md: &crate::metadata::RecordMetaData,
        index: &str,
        range: TupleRange,
    ) -> Vec<(Tuple, Tuple)> {
        let sub = Subspace::from_bytes(b"S".to_vec());
        crate::run(db, |tx| {
            let store = RecordStore::open_or_create(tx, &sub, md)?;
            let mut cursor = store.scan_index(
                index,
                &range,
                &Continuation::Start,
                false,
                &ExecuteProperties::new(),
            )?;
            let (entries, _, _) = cursor.collect_remaining()?;
            Ok(entries
                .into_iter()
                .map(|e| (e.key, e.primary_key))
                .collect())
        })
        .unwrap()
    }

    #[test]
    fn entries_ordered_by_commit_version() {
        let db = Database::new();
        let md = metadata();
        save(&db, &md, 1, "z");
        save(&db, &md, 2, "z");
        save(&db, &md, 3, "z");

        let entries = scan_sync(&db, &md, "sync", TupleRange::all());
        assert_eq!(entries.len(), 3);
        // Scanning the version index returns records in write order.
        let pks: Vec<i64> = entries
            .iter()
            .map(|(_, pk)| pk.get(0).unwrap().as_int().unwrap())
            .collect();
        assert_eq!(pks, vec![1, 2, 3]);
        // Versions are complete and strictly increasing.
        let versions: Vec<_> = entries
            .iter()
            .map(|(k, _)| *k.get(0).unwrap().as_versionstamp().unwrap())
            .collect();
        assert!(versions.iter().all(|v| v.is_complete()));
        assert!(versions.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn update_moves_record_to_end_of_sync_order() {
        let db = Database::new();
        let md = metadata();
        save(&db, &md, 1, "z");
        save(&db, &md, 2, "z");
        save(&db, &md, 1, "z"); // re-save: old entry removed, new appended

        let entries = scan_sync(&db, &md, "sync", TupleRange::all());
        assert_eq!(entries.len(), 2, "old version entry must be removed");
        let pks: Vec<i64> = entries
            .iter()
            .map(|(_, pk)| pk.get(0).unwrap().as_int().unwrap())
            .collect();
        assert_eq!(pks, vec![2, 1]);
    }

    #[test]
    fn sync_scan_from_checkpoint_sees_only_new_changes() {
        // The CloudKit sync pattern (§8.1): remember the last seen
        // version, then scan the index from there.
        let db = Database::new();
        let md = metadata();
        save(&db, &md, 1, "z");
        save(&db, &md, 2, "z");
        let checkpoint = scan_sync(&db, &md, "sync", TupleRange::all())
            .last()
            .map(|(k, _)| k.clone())
            .unwrap();
        save(&db, &md, 3, "z");
        save(&db, &md, 4, "z");

        let news = scan_sync(
            &db,
            &md,
            "sync",
            TupleRange::between(Some((checkpoint, false)), None),
        );
        let pks: Vec<i64> = news
            .iter()
            .map(|(_, pk)| pk.get(0).unwrap().as_int().unwrap())
            .collect();
        assert_eq!(pks, vec![3, 4]);
    }

    #[test]
    fn zone_prefixed_version_index() {
        let db = Database::new();
        let md = metadata();
        save(&db, &md, 1, "a");
        save(&db, &md, 2, "b");
        save(&db, &md, 3, "a");

        let a_entries = scan_sync(
            &db,
            &md,
            "zone_sync",
            TupleRange::prefix(Tuple::from(("a",))),
        );
        let pks: Vec<i64> = a_entries
            .iter()
            .map(|(_, pk)| pk.get(0).unwrap().as_int().unwrap())
            .collect();
        assert_eq!(pks, vec![1, 3]);
        // Key layout: (zone, version).
        assert!(matches!(a_entries[0].0.get(0), Some(TupleElement::String(z)) if z == "a"));
    }

    #[test]
    fn record_version_matches_index_version() {
        let db = Database::new();
        let md = metadata();
        save(&db, &md, 1, "z");
        let sub = Subspace::from_bytes(b"S".to_vec());
        crate::run(&db, |tx| {
            let store = RecordStore::open_or_create(tx, &sub, &md)?;
            let rec = store.load_record(&Tuple::from((1i64,)))?.unwrap();
            let stored_version = rec.version.unwrap();
            let mut cursor = store.scan_index(
                "sync",
                &TupleRange::all(),
                &Continuation::Start,
                false,
                &ExecuteProperties::new(),
            )?;
            let (entries, _, _) = cursor.collect_remaining()?;
            let index_version = *entries[0].key.get(0).unwrap().as_versionstamp().unwrap();
            assert_eq!(stored_version, index_version);
            Ok(())
        })
        .unwrap();
    }
}
