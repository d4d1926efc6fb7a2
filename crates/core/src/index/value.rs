//! The default VALUE index type (§7): a mapping from indexed field values
//! to record primary keys, stored as `(index_subspace, key…, pk…) -> value`.

use std::cmp::Ordering;

use rl_fdb::RangeOptions;

use crate::error::{Error, Result};
use crate::expr::PackedRows;
use crate::index::{entry_value, evaluate_change, IndexContext, IndexedRecord};

/// Refuse `key` if a unique index maps its key columns to a record other
/// than this one: scan the prefix for a foreign primary key.
fn check_unique(ctx: &IndexContext<'_>, key: &[u8]) -> Result<()> {
    let columns = &key[..key.len() - ctx.primary_key.len()];
    let bound = |last: u8| [columns, &[last]].concat();
    let existing = ctx
        .tx
        .get_range(&bound(0x00), &bound(0xFF), RangeOptions::new().limit(2))?;
    if existing
        .iter()
        .any(|kv| kv.key[columns.len()..] != *ctx.primary_key)
    {
        return Err(Error::UniquenessViolation {
            index: ctx.index.name.clone(),
        });
    }
    Ok(())
}

/// Maintains a VALUE index by diffing old and new entry sets, so unchanged
/// entries are untouched — the §6 optimization ("if an existing record and
/// a new record are of the same type and some of the indexed fields are the
/// same, the unchanged indexes are not updated").
///
/// Equal evaluations return before any key is built. Otherwise each
/// side's packed rows are sorted, each row once (a fan-out that repeats an
/// element yields its entry once), and the two are walked together: only
/// an entry one side lacks gets a key, one only the old record has is
/// cleared, one only the new record has is set, and every key moves into
/// the transaction.
pub(crate) fn update(
    ctx: &IndexContext<'_>,
    packed: &mut PackedRows,
    old: Option<&IndexedRecord<'_>>,
    new: Option<&IndexedRecord<'_>>,
) -> Result<i64> {
    let (old, new) = evaluate_change(ctx.index, packed, old, new)?;
    if packed.same(old, new) {
        return Ok(0);
    }
    let (old, new) = (packed.sorted_unique(old), packed.sorted_unique(new));
    let key_columns = ctx.index.key_expression.key_column_count();
    let entries = |rows| packed.rows(rows).map(|row| row.split_at(key_columns));
    let (mut old, mut new) = (entries(old).peekable(), entries(new).peekable());
    let mut delta = 0i64;
    loop {
        // By key; of two entries of one key whose values differ, the
        // old one goes first, so its clear precedes the new one's set.
        let order = match (old.peek(), new.peek()) {
            (None, None) => break,
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (Some((old_key, old_value)), Some((new_key, new_value))) => {
                match old_key.cmp(new_key) {
                    Ordering::Equal if old_value != new_value => Ordering::Less,
                    order => order,
                }
            }
        };
        match order {
            Ordering::Equal => {
                old.next();
                new.next();
            }
            Ordering::Less => {
                if let Some((key, _)) = old.next() {
                    ctx.tx.clear_owned(ctx.entry_key(key));
                    delta -= 1;
                }
            }
            Ordering::Greater => {
                if let Some((key, value)) = new.next() {
                    let key = ctx.entry_key(key);
                    if ctx.index.unique {
                        check_unique(ctx, &key)?;
                    }
                    ctx.tx.try_set_owned(key, entry_value(value))?;
                    delta += 1;
                }
            }
        }
    }
    Ok(delta)
}

#[cfg(test)]
mod tests {
    // Exercised end-to-end in `store`-level and integration tests; the
    // entry-diff logic is additionally covered here via a fake context.
    use super::*;
    use crate::expr::KeyExpression;
    use crate::metadata::{Index, RecordMetaDataBuilder};
    use crate::store::RecordStore;
    use rl_fdb::tuple::Tuple;
    use rl_fdb::{Database, Subspace};
    use rl_message::{DescriptorPool, FieldDescriptor, FieldType, MessageDescriptor};

    fn metadata() -> crate::metadata::RecordMetaData {
        let mut pool = DescriptorPool::new();
        pool.add_message(
            MessageDescriptor::new(
                "T",
                vec![
                    FieldDescriptor::optional("id", 1, FieldType::Int64),
                    FieldDescriptor::optional("a", 2, FieldType::String),
                    FieldDescriptor::optional("b", 3, FieldType::String),
                    FieldDescriptor::repeated("tags", 4, FieldType::String),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        RecordMetaDataBuilder::new(pool)
            .record_type("T", KeyExpression::field("id"))
            .index("T", Index::value("by_a", KeyExpression::field("a")))
            .index(
                "T",
                Index::value("by_tag", KeyExpression::field_fanout("tags")),
            )
            .build()
            .unwrap()
    }

    fn index_key_count(db: &Database, subspace: &Subspace) -> usize {
        let tx = db.create_transaction();
        let (b, e) = subspace.range_inclusive();
        tx.get_range(&b, &e, rl_fdb::RangeOptions::default())
            .unwrap()
            .len()
    }

    #[test]
    fn unchanged_entries_not_rewritten() {
        let db = Database::new();
        let md = metadata();
        let sub = Subspace::from_bytes(b"S".to_vec());

        crate::run(&db, |tx| {
            let store = RecordStore::open_or_create(tx, &sub, &md)?;
            let mut rec = store.new_record("T")?;
            rec.set("id", 1i64).unwrap();
            rec.set("a", "same").unwrap();
            rec.set("b", "x").unwrap();
            store.save_record(rec)?;
            Ok(())
        })
        .unwrap();

        let before = db.metrics().snapshot();
        // Update a non-indexed field: the by_a index key is unchanged and
        // must not be re-written.
        crate::run(&db, |tx| {
            let store = RecordStore::open_or_create(tx, &sub, &md)?;
            let mut rec = store.new_record("T")?;
            rec.set("id", 1i64).unwrap();
            rec.set("a", "same").unwrap();
            rec.set("b", "changed").unwrap();
            store.save_record(rec)?;
            Ok(())
        })
        .unwrap();
        let after = db.metrics().snapshot();
        let delta = after.delta(&before);
        // Record payload + version are rewritten, but no index keys: with
        // two indexes (by_a unchanged, by_tag empty) writes stay small.
        assert!(delta.keys_written <= 3, "too many writes: {delta:?}");
    }

    #[test]
    fn fanout_index_entry_per_element() {
        let db = Database::new();
        let md = metadata();
        let sub = Subspace::from_bytes(b"S".to_vec());
        crate::run(&db, |tx| {
            let store = RecordStore::open_or_create(tx, &sub, &md)?;
            let mut rec = store.new_record("T")?;
            rec.set("id", 1i64).unwrap();
            rec.push("tags", "x").unwrap();
            rec.push("tags", "y").unwrap();
            rec.push("tags", "z").unwrap();
            store.save_record(rec)?;
            Ok(())
        })
        .unwrap();
        let md2 = metadata();
        let tx = db.create_transaction();
        let store = RecordStore::open_or_create(&tx, &sub, &md2).unwrap();
        let tag_index_sub = store.index_subspace(md2.index("by_tag").unwrap());
        drop(tx);
        assert_eq!(index_key_count(&db, &tag_index_sub), 3);
    }

    #[test]
    fn delete_removes_entries() {
        let db = Database::new();
        let md = metadata();
        let sub = Subspace::from_bytes(b"S".to_vec());
        crate::run(&db, |tx| {
            let store = RecordStore::open_or_create(tx, &sub, &md)?;
            let mut rec = store.new_record("T")?;
            rec.set("id", 1i64).unwrap();
            rec.set("a", "v").unwrap();
            rec.push("tags", "t1").unwrap();
            store.save_record(rec)?;
            Ok(())
        })
        .unwrap();
        crate::run(&db, |tx| {
            let store = RecordStore::open_or_create(tx, &sub, &md)?;
            assert!(store.delete_record(&Tuple::from((1i64,)))?);
            Ok(())
        })
        .unwrap();
        let tx = db.create_transaction();
        let store = RecordStore::open_or_create(&tx, &sub, &md).unwrap();
        for name in ["by_a", "by_tag"] {
            let isub = store.index_subspace(md.index(name).unwrap());
            let (b, e) = isub.range_inclusive();
            assert!(tx
                .get_range(&b, &e, rl_fdb::RangeOptions::default())
                .unwrap()
                .is_empty());
        }
    }

    #[test]
    fn unique_index_rejects_duplicate_keys() {
        let mut pool = DescriptorPool::new();
        pool.add_message(
            MessageDescriptor::new(
                "U",
                vec![
                    FieldDescriptor::optional("id", 1, FieldType::Int64),
                    FieldDescriptor::optional("email", 2, FieldType::String),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        let md = RecordMetaDataBuilder::new(pool)
            .record_type("U", KeyExpression::field("id"))
            .index(
                "U",
                Index::value("by_email", KeyExpression::field("email")).with_unique(),
            )
            .build()
            .unwrap();
        let db = Database::new();
        let sub = Subspace::from_bytes(b"S".to_vec());
        crate::run(&db, |tx| {
            let store = RecordStore::open_or_create(tx, &sub, &md)?;
            let mut rec = store.new_record("U")?;
            rec.set("id", 1i64).unwrap();
            rec.set("email", "a@example.com").unwrap();
            store.save_record(rec)?;
            Ok(())
        })
        .unwrap();
        let err = crate::run(&db, |tx| {
            let store = RecordStore::open_or_create(tx, &sub, &md)?;
            let mut rec = store.new_record("U")?;
            rec.set("id", 2i64).unwrap();
            rec.set("email", "a@example.com").unwrap();
            store.save_record(rec)?;
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(err, Error::UniquenessViolation { .. }));
        // Same record re-saved is fine.
        crate::run(&db, |tx| {
            let store = RecordStore::open_or_create(tx, &sub, &md)?;
            let mut rec = store.new_record("U")?;
            rec.set("id", 1i64).unwrap();
            rec.set("email", "a@example.com").unwrap();
            store.save_record(rec)?;
            Ok(())
        })
        .unwrap();
    }
}
