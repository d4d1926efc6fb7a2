//! Atomic-mutation indexes (§7): COUNT, COUNT_UPDATES, COUNT_NON_NULL,
//! SUM, MAX_EVER, MIN_EVER.
//!
//! These aggregate indexes write a single key per group using
//! FoundationDB's atomic mutations, so any number of concurrent record
//! updates commute without read conflicts — the property demonstrated by
//! the `atomic_vs_rmw` benchmark. Each index entry maps the group key to
//! the aggregate value; a key expression with no grouping keeps one entry
//! per record store.
//!
//! ## One mutation per changed group key
//!
//! An update folds the old record's and the new record's contributions
//! into one value per packed group key, and writes only the keys whose
//! value changes. This is the §6 rule VALUE indexes follow: "the unchanged
//! indexes are not updated". When the old and the new record evaluate to
//! the same tuples, the update returns before packing any key (except for
//! COUNT_UPDATES, which counts every save).
//!
//! * COUNT, COUNT_NON_NULL, SUM: old tuples count negatively and new ones
//!   positively. Each key gets one `ADD` of the wrapping `i64` sum, and a
//!   key whose sum is zero gets none.
//! * COUNT_UPDATES counts saves, so the old record takes nothing back:
//!   one `ADD(n)` per key, for its `n` non-null new tuples.
//! * MAX_EVER, MIN_EVER: a new tuple the old record also produced (same
//!   group, same operand) is dropped. Each key gets one `BYTE_MAX` /
//!   `BYTE_MIN` of the most extreme operand left.
//!
//! The stored aggregates equal what the unfolded mutations would leave:
//!
//! * `ADD` is little-endian, commutes and wraps, so one `ADD` of the sum
//!   equals the sequence. That holds for an `i64::MIN` operand too, whose
//!   negation wraps to itself.
//! * A dropped shared operand was folded in when the old record was saved.
//!   If the index was still write-only then, the online builder folds it in
//!   from the new record.
//! * A skipped zero sum leaves the key as it was. If that is absent (a new
//!   group whose SUM operands are all 0, or an index still being built),
//!   it reads as [`AggregateValue::Absent`], whose `as_long` is 0.

use std::cmp::Ordering;

use rl_fdb::atomic::MutationType;
use rl_fdb::subspace::Subspace;
use rl_fdb::tuple::{ElementRef, Tuple};
use rl_fdb::Transaction;

use crate::error::{Error, Result};
use crate::expr::{PackedRows, Row, Rows};
use crate::index::{entry_value, evaluate_change, IndexContext, IndexedRecord};
use crate::metadata::{Index, IndexType};
use crate::store::AggregateValue;

/// What one evaluated row's operand adds to its group's counter, if
/// anything.
fn contribution(index_type: IndexType, operand: Row<'_>) -> Result<Option<i64>> {
    Ok(match index_type {
        IndexType::Count => Some(1),
        IndexType::CountUpdates | IndexType::CountNonNull => {
            (!operand_is_null(operand)).then_some(1)
        }
        IndexType::Sum => operand_as_i64(operand)?,
        other => unreachable!("not a counter type {other:?}"),
    })
}

/// COUNT, COUNT_UPDATES, COUNT_NON_NULL, SUM: one `ADD` per group key of
/// the wrapping sum of its contributions, none where that is zero. Only a
/// group whose sum is not zero gets a key.
fn fold_counters(ctx: &IndexContext<'_>, packed: &PackedRows, old: Rows, new: Rows) -> Result<()> {
    let index_type = ctx.index.index_type;
    // COUNT_UPDATES counts saves: the old record takes nothing back.
    let retracted = match index_type {
        IndexType::CountUpdates => Rows::default(),
        _ => old,
    };
    let mut sums = Vec::with_capacity(retracted.len() + new.len());
    for (rows, sign) in [(retracted, -1i64), (new, 1)] {
        for row in packed.rows(rows) {
            let (group, operand) = split_group(ctx.index, row);
            if let Some(v) = contribution(index_type, operand)? {
                sums.push((group, v.wrapping_mul(sign)));
            }
        }
    }
    // Sorted, one group's contributions lie together.
    sums.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    let mut sums = sums.into_iter().peekable();
    while let Some((group, mut sum)) = sums.next() {
        while let Some((_, more)) = sums.next_if(|(next, _)| *next == group) {
            sum = sum.wrapping_add(more);
        }
        if sum != 0 {
            let key = ctx.group_key(group);
            ctx.tx
                .mutate_owned(MutationType::Add, key, sum.to_le_bytes())?;
        }
    }
    Ok(())
}

/// MAX_EVER, MIN_EVER: one `BYTE_MAX` / `BYTE_MIN` per group key with the
/// most extreme new operand the old record did not already have.
fn fold_extremes(ctx: &IndexContext<'_>, packed: &PackedRows, old: Rows, new: Rows) -> Result<()> {
    let (mutation, wins) = if ctx.index.index_type == IndexType::MaxEver {
        (MutationType::ByteMax, Ordering::Greater)
    } else {
        (MutationType::ByteMin, Ordering::Less)
    };
    // A row is its (group, operand) pair, both packed: sorted, a group's
    // operands lie together. Packed tuple order == byte order, so
    // BYTE_MIN/MAX on the packed operand keeps tuple-ordered extremes. A
    // non-null operand never packs empty.
    let pairs = |rows| {
        let mut pairs: Vec<(Row<'_>, Row<'_>)> = packed
            .rows(rows)
            .map(|row| split_group(ctx.index, row))
            .filter(|(_, operand)| !operand_is_null(*operand))
            .collect();
        pairs.sort_unstable();
        pairs
    };
    let old = pairs(old);
    let mut extremes: Vec<(Row<'_>, Row<'_>)> = Vec::new();
    for pair in pairs(new) {
        if old.binary_search(&pair).is_ok() {
            continue;
        }
        match extremes.last_mut() {
            Some(best) if best.0 == pair.0 => {
                if pair.1.cmp(&best.1) == wins {
                    best.1 = pair.1;
                }
            }
            _ => extremes.push(pair),
        }
    }
    for (group, operand) in extremes {
        ctx.tx
            .mutate_owned(mutation, ctx.group_key(group), entry_value(operand))?;
    }
    Ok(())
}

/// Split an evaluated grouping row into (group key, operand columns).
fn split_group<'p>(index: &Index, row: Row<'p>) -> (Row<'p>, Row<'p>) {
    let grouped = index.key_expression.grouped_count();
    row.split_at(row.len().saturating_sub(grouped))
}

/// The operand of SUM-type indexes must be a single integer column.
fn operand_as_i64(operand: Row<'_>) -> Result<Option<i64>> {
    let column = operand.get(0).transpose()?;
    match (column, operand.len()) {
        (None, _) | (Some(ElementRef::Null), 1) => Ok(None),
        (Some(ElementRef::Int(v)), 1) => Ok(Some(v)),
        _ => Err(Error::KeyExpression(format!(
            "aggregate operand must be a single integer column, got {:?}",
            operand.to_tuple()?.elements()
        ))),
    }
}

/// Whether every operand column is null (a null packs as its one type
/// code).
fn operand_is_null(operand: Row<'_>) -> bool {
    operand.elements().all(|el| el == [0x00])
}

/// Maintains an index of the atomic family, the behaviour selected by its
/// type (see the module doc).
pub(crate) fn update(
    ctx: &IndexContext<'_>,
    packed: &mut PackedRows,
    old: Option<&IndexedRecord<'_>>,
    new: Option<&IndexedRecord<'_>>,
) -> Result<i64> {
    let (old, new) = evaluate_change(ctx.index, packed, old, new)?;
    // Equal rows fold to nothing, except that COUNT_UPDATES counts every
    // save.
    if ctx.index.index_type != IndexType::CountUpdates && packed.same(old, new) {
        return Ok(0);
    }
    match ctx.index.index_type {
        IndexType::MaxEver | IndexType::MinEver => fold_extremes(ctx, packed, old, new)?,
        _ => fold_counters(ctx, packed, old, new)?,
    }
    // One key per group: entry count is not a scan-cost signal.
    Ok(0)
}

/// Read the aggregate value for one group.
pub fn evaluate(
    tx: &Transaction,
    index: &Index,
    subspace: &Subspace,
    group: &Tuple,
) -> Result<AggregateValue> {
    let key = subspace.pack(group);
    let Some(bytes) = tx.get(&key)? else {
        return Ok(AggregateValue::Absent);
    };
    match index.index_type {
        IndexType::Count | IndexType::CountUpdates | IndexType::CountNonNull | IndexType::Sum => {
            let mut buf = [0u8; 8];
            let n = bytes.len().min(8);
            buf[..n].copy_from_slice(&bytes[..n]);
            Ok(AggregateValue::Long(i64::from_le_bytes(buf)))
        }
        IndexType::MaxEver | IndexType::MinEver => Ok(AggregateValue::Tuple(
            Tuple::unpack(&bytes).map_err(Error::Fdb)?,
        )),
        other => Err(Error::MetaData(format!(
            "{other:?} is not an aggregate index"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::KeyExpression;
    use crate::metadata::{RecordMetaData, RecordMetaDataBuilder};
    use crate::store::RecordStore;
    use rl_fdb::Database;
    use rl_message::{DescriptorPool, FieldDescriptor, FieldType, MessageDescriptor};

    /// `Order(id, customer, amount, tags*)` carrying `indexes`.
    fn order_metadata(indexes: Vec<Index>) -> RecordMetaData {
        let mut pool = DescriptorPool::new();
        pool.add_message(
            MessageDescriptor::new(
                "Order",
                vec![
                    FieldDescriptor::optional("id", 1, FieldType::Int64),
                    FieldDescriptor::optional("customer", 2, FieldType::String),
                    FieldDescriptor::optional("amount", 3, FieldType::Int64),
                    FieldDescriptor::repeated("tags", 4, FieldType::String),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        let mut builder =
            RecordMetaDataBuilder::new(pool).record_type("Order", KeyExpression::field("id"));
        for index in indexes {
            builder = builder.index("Order", index);
        }
        builder.build().unwrap()
    }

    fn metadata() -> RecordMetaData {
        let amount = || KeyExpression::field("amount");
        order_metadata(vec![
            Index::count("order_count", KeyExpression::Empty),
            Index::count("count_by_customer", KeyExpression::field("customer")),
            Index::sum(
                "sum_by_customer",
                KeyExpression::field("customer"),
                amount(),
            ),
            Index::max_ever("max_amount", KeyExpression::Empty, amount()),
            Index::min_ever("min_amount", KeyExpression::Empty, amount()),
            Index::count_non_null("amount_non_null", KeyExpression::Empty, amount()),
            Index::count_updates("amount_updates", KeyExpression::Empty, amount()),
        ])
    }

    /// One `Order`'s indexed fields.
    type Order<'a> = (&'a str, Option<i64>, &'a [&'a str]);

    fn save(db: &Database, md: &RecordMetaData, id: i64, (customer, amount, tags): Order<'_>) {
        let sub = rl_fdb::Subspace::from_bytes(b"S".to_vec());
        crate::run(db, |tx| {
            let store = RecordStore::open_or_create(tx, &sub, md)?;
            let mut rec = store.new_record("Order")?;
            rec.set("id", id).unwrap();
            rec.set("customer", customer).unwrap();
            if let Some(a) = amount {
                rec.set("amount", a).unwrap();
            }
            for &tag in tags {
                rec.push("tags", tag).unwrap();
            }
            store.save_record(rec)?;
            Ok(())
        })
        .unwrap();
    }

    fn save_order(
        db: &Database,
        md: &RecordMetaData,
        id: i64,
        customer: &str,
        amount: Option<i64>,
    ) {
        save(db, md, id, (customer, amount, &[]));
    }

    fn delete_order(db: &Database, md: &RecordMetaData, id: i64) {
        let sub = rl_fdb::Subspace::from_bytes(b"S".to_vec());
        crate::run(db, |tx| {
            let store = RecordStore::open_or_create(tx, &sub, md)?;
            store.delete_record(&Tuple::from((id,)))?;
            Ok(())
        })
        .unwrap();
    }

    /// Keys written by the commit that saves `after` over `before`, on a
    /// fresh database.
    fn overwrite_writes(
        md: &RecordMetaData,
        before: Order<'_>,
        after: Order<'_>,
    ) -> (Database, u64) {
        let db = Database::new();
        save(&db, md, 1, before);
        let was = db.metrics().snapshot();
        save(&db, md, 1, after);
        let written = db.metrics().snapshot().delta(&was).keys_written;
        (db, written)
    }

    /// What an overwrite writes besides index keys: the record's payload
    /// and version, from a store with no indexes.
    fn record_writes() -> u64 {
        let same = ("alice", Some(10), &[][..]);
        overwrite_writes(&order_metadata(vec![]), same, same).1
    }

    fn aggregate(db: &Database, md: &RecordMetaData, index: &str, group: Tuple) -> AggregateValue {
        let sub = rl_fdb::Subspace::from_bytes(b"S".to_vec());
        crate::run(db, |tx| {
            let store = RecordStore::open_or_create(tx, &sub, md)?;
            store.evaluate_aggregate(index, &group)
        })
        .unwrap()
    }

    #[test]
    fn count_and_sum_with_grouping() {
        let db = Database::new();
        let md = metadata();
        save_order(&db, &md, 1, "alice", Some(10));
        save_order(&db, &md, 2, "alice", Some(5));
        save_order(&db, &md, 3, "bob", Some(7));

        assert_eq!(
            aggregate(&db, &md, "order_count", Tuple::new()).as_long(),
            Some(3)
        );
        assert_eq!(
            aggregate(&db, &md, "count_by_customer", Tuple::from(("alice",))).as_long(),
            Some(2)
        );
        assert_eq!(
            aggregate(&db, &md, "sum_by_customer", Tuple::from(("alice",))).as_long(),
            Some(15)
        );
        assert_eq!(
            aggregate(&db, &md, "sum_by_customer", Tuple::from(("bob",))).as_long(),
            Some(7)
        );
    }

    #[test]
    fn update_adjusts_sum_and_count() {
        let db = Database::new();
        let md = metadata();
        save_order(&db, &md, 1, "alice", Some(10));
        // Replace order 1 with a different amount and customer.
        save_order(&db, &md, 1, "bob", Some(4));
        assert_eq!(
            aggregate(&db, &md, "order_count", Tuple::new()).as_long(),
            Some(1)
        );
        assert_eq!(
            aggregate(&db, &md, "sum_by_customer", Tuple::from(("alice",))).as_long(),
            Some(0)
        );
        assert_eq!(
            aggregate(&db, &md, "sum_by_customer", Tuple::from(("bob",))).as_long(),
            Some(4)
        );
        assert_eq!(
            aggregate(&db, &md, "count_by_customer", Tuple::from(("alice",))).as_long(),
            Some(0)
        );
    }

    #[test]
    fn delete_decrements() {
        let db = Database::new();
        let md = metadata();
        save_order(&db, &md, 1, "alice", Some(10));
        save_order(&db, &md, 2, "alice", Some(3));
        delete_order(&db, &md, 1);
        assert_eq!(
            aggregate(&db, &md, "order_count", Tuple::new()).as_long(),
            Some(1)
        );
        assert_eq!(
            aggregate(&db, &md, "sum_by_customer", Tuple::from(("alice",))).as_long(),
            Some(3)
        );
    }

    #[test]
    fn unchanged_overwrite_writes_only_count_updates() {
        // Same customer and amount: order_count, count_by_customer,
        // sum_by_customer and amount_non_null fold to zero, max_amount and
        // min_amount drop the shared operand, amount_updates counts the save.
        let same = ("alice", Some(10), &[][..]);
        let (db, written) = overwrite_writes(&metadata(), same, same);
        assert_eq!(written, record_writes() + 1);
        let md = metadata();
        let long = |index, group| aggregate(&db, &md, index, group).as_long();
        assert_eq!(long("order_count", Tuple::new()), Some(1));
        assert_eq!(long("count_by_customer", Tuple::from(("alice",))), Some(1));
        assert_eq!(long("sum_by_customer", Tuple::from(("alice",))), Some(10));
        assert_eq!(long("amount_non_null", Tuple::new()), Some(1));
        assert_eq!(long("amount_updates", Tuple::new()), Some(2));
        for index in ["max_amount", "min_amount"] {
            assert_eq!(
                aggregate(&db, &md, index, Tuple::new()),
                AggregateValue::Tuple(Tuple::from((10i64,)))
            );
        }
    }

    #[test]
    fn group_change_writes_one_add_per_group() {
        let md = order_metadata(vec![Index::count(
            "count_by_customer",
            KeyExpression::field("customer"),
        )]);
        let (db, written) = overwrite_writes(&md, ("alice", Some(10), &[]), ("bob", Some(10), &[]));
        assert_eq!(written, record_writes() + 2);
        let count = |c: &str| aggregate(&db, &md, "count_by_customer", Tuple::from((c,)));
        assert_eq!(count("alice"), AggregateValue::Long(0));
        assert_eq!(count("bob"), AggregateValue::Long(1));
    }

    #[test]
    fn sum_change_writes_one_add_of_the_difference() {
        let md = order_metadata(vec![Index::sum(
            "sum_by_customer",
            KeyExpression::field("customer"),
            KeyExpression::field("amount"),
        )]);
        let (db, written) =
            overwrite_writes(&md, ("alice", Some(10), &[]), ("alice", Some(4), &[]));
        assert_eq!(written, record_writes() + 1);
        assert_eq!(
            aggregate(&db, &md, "sum_by_customer", Tuple::from(("alice",))),
            AggregateValue::Long(4)
        );
    }

    #[test]
    fn repeated_field_folds_multiplicity() {
        // Old tags x x y w, new x y y w: x nets -1, y +1, w 0 — two ADDs.
        let md = order_metadata(vec![Index::count(
            "count_by_tag",
            KeyExpression::field_fanout("tags"),
        )]);
        let (db, written) = overwrite_writes(
            &md,
            ("alice", None, &["x", "x", "y", "w"]),
            ("alice", None, &["x", "y", "y", "w"]),
        );
        assert_eq!(written, record_writes() + 2);
        let count = |t: &str| {
            aggregate(&db, &md, "count_by_tag", Tuple::from((t,)))
                .as_long()
                .unwrap()
        };
        assert_eq!([count("x"), count("y"), count("w")], [1, 2, 1]);
    }

    #[test]
    fn sum_of_i64_min_wraps() {
        // Retracting i64::MIN negates it, which wraps to itself: the ADD
        // sums stay what FoundationDB's little-endian ADD makes them.
        let db = Database::new();
        let md = metadata();
        let sum = || {
            aggregate(&db, &md, "sum_by_customer", Tuple::from(("alice",)))
                .as_long()
                .unwrap()
        };
        save_order(&db, &md, 1, "alice", Some(i64::MIN));
        assert_eq!(sum(), i64::MIN);
        save_order(&db, &md, 1, "alice", Some(5));
        assert_eq!(sum(), 5);
        delete_order(&db, &md, 1);
        assert_eq!(sum(), 0);
    }

    #[test]
    fn min_max_ever_are_sticky() {
        let db = Database::new();
        let md = metadata();
        save_order(&db, &md, 1, "a", Some(100));
        save_order(&db, &md, 2, "a", Some(1));
        // Delete both; extremes persist ("ever" semantics).
        delete_order(&db, &md, 1);
        delete_order(&db, &md, 2);
        assert_eq!(
            aggregate(&db, &md, "max_amount", Tuple::new()),
            AggregateValue::Tuple(Tuple::from((100i64,)))
        );
        assert_eq!(
            aggregate(&db, &md, "min_amount", Tuple::new()),
            AggregateValue::Tuple(Tuple::from((1i64,)))
        );
    }

    #[test]
    fn count_non_null_skips_missing() {
        let db = Database::new();
        let md = metadata();
        save_order(&db, &md, 1, "a", Some(5));
        save_order(&db, &md, 2, "a", None);
        assert_eq!(
            aggregate(&db, &md, "amount_non_null", Tuple::new()).as_long(),
            Some(1)
        );
    }

    #[test]
    fn count_updates_counts_every_save() {
        let db = Database::new();
        let md = metadata();
        save_order(&db, &md, 1, "a", Some(5));
        save_order(&db, &md, 1, "a", Some(6));
        save_order(&db, &md, 1, "a", Some(7));
        assert_eq!(
            aggregate(&db, &md, "amount_updates", Tuple::new()).as_long(),
            Some(3)
        );
    }

    #[test]
    fn absent_group_reads_as_zero() {
        let db = Database::new();
        let md = metadata();
        save_order(&db, &md, 1, "a", Some(5));
        let v = aggregate(&db, &md, "sum_by_customer", Tuple::from(("nobody",)));
        assert_eq!(v, AggregateValue::Absent);
        assert_eq!(v.as_long(), Some(0));
    }

    #[test]
    fn concurrent_saves_do_not_conflict_on_aggregates() {
        // The headline property: maintaining COUNT/SUM via atomic ADD means
        // two transactions saving different records never conflict on the
        // shared aggregate key.
        let db = Database::new();
        let md = metadata();
        let sub = rl_fdb::Subspace::from_bytes(b"S".to_vec());
        // Open the store once so catch-up writes don't conflict below.
        crate::run(&db, |tx| {
            RecordStore::open_or_create(tx, &sub, &md)?;
            Ok(())
        })
        .unwrap();

        let t1 = db.create_transaction();
        let t2 = db.create_transaction();
        for (tx, id) in [(&t1, 10i64), (&t2, 11i64)] {
            let store = RecordStore::open_or_create(tx, &sub, &md).unwrap();
            let mut rec = store.new_record("Order").unwrap();
            rec.set("id", id).unwrap();
            rec.set("customer", "shared").unwrap();
            rec.set("amount", 1i64).unwrap();
            store.save_record(rec).unwrap();
        }
        t1.commit().unwrap();
        t2.commit().unwrap(); // no conflict despite both touching the SUM key

        assert_eq!(
            aggregate(&db, &md, "sum_by_customer", Tuple::from(("shared",))).as_long(),
            Some(2)
        );
        assert_eq!(
            aggregate(&db, &md, "order_count", Tuple::new()).as_long(),
            Some(2)
        );
    }
}
