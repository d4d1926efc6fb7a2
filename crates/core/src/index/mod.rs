//! Index definition and maintenance (§6) and the built-in index types
//! (§7, Appendix B).
//!
//! Indexes are durable data structures maintained *in the same transaction*
//! as the record change itself, so they are always consistent with the
//! data. Each index type has its own maintenance fn in its module, and
//! `update` picks it with one `match` on the index's type.

pub mod atomic;
pub mod builder;
pub mod rank;
pub mod text;
pub mod value;
pub mod version;

use rl_fdb::subspace::Subspace;
use rl_fdb::tuple::{Tuple, TupleElement};
use rl_fdb::version::Versionstamp;
use rl_fdb::Transaction;
use rl_message::FieldSource;

use crate::error::{Error, Result};
use crate::expr::{EvalContext, PackedRows, Row, Rows};
use crate::metadata::{Index, IndexType};
use crate::store::StoredRecord;

/// Lifecycle state of an index (§6 online index building).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexState {
    /// Not maintained and not readable (e.g. newly added to a store with
    /// existing records, before the online build starts).
    Disabled,
    /// Maintained by writes but not usable by queries (being built).
    WriteOnly,
    /// Fully built: maintained and usable.
    Readable,
}

impl IndexState {
    pub fn to_byte(self) -> u8 {
        match self {
            IndexState::Disabled => 0,
            IndexState::WriteOnly => 1,
            IndexState::Readable => 2,
        }
    }

    pub fn from_byte(b: u8) -> Result<IndexState> {
        match b {
            0 => Ok(IndexState::Disabled),
            1 => Ok(IndexState::WriteOnly),
            2 => Ok(IndexState::Readable),
            other => Err(Error::MetaData(format!("invalid index state byte {other}"))),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            IndexState::Disabled => "disabled",
            IndexState::WriteOnly => "write-only",
            IndexState::Readable => "readable",
        }
    }

    /// Whether writes must maintain the index in this state.
    pub fn is_maintained(self) -> bool {
        !matches!(self, IndexState::Disabled)
    }
}

/// Everything an [`update`] needs to maintain one index within a
/// transaction.
pub(crate) struct IndexContext<'a> {
    pub tx: &'a Transaction,
    pub index: &'a Index,
    /// The store's index region `S(2)`: this index's subspace is its child
    /// `S(2, k)` under the index's subspace key.
    indexes: &'a Subspace,
    /// The changed record's primary key, packed once per change: the tail
    /// of each of its VALUE-shaped entries' keys. The old and the new
    /// record share it.
    primary_key: &'a [u8],
}

impl<'a> IndexContext<'a> {
    pub(crate) fn new(
        tx: &'a Transaction,
        index: &'a Index,
        indexes: &'a Subspace,
        primary_key: &'a [u8],
    ) -> Self {
        IndexContext {
            tx,
            index,
            indexes,
            primary_key,
        }
    }

    /// The subspace dedicated to this index within the record store.
    pub fn subspace(&self) -> Subspace {
        self.indexes.child(self.index.subspace_key)
    }

    /// The key of the entry whose key columns are `columns`: this index's
    /// prefix, the columns and the packed primary key, in one buffer of
    /// its final size.
    pub fn entry_key(&self, columns: Row<'_>) -> Vec<u8> {
        self.pack_key(columns, self.primary_key, 0).0
    }

    /// [`entry_key`](Self::entry_key), with the offset of the incomplete
    /// versionstamp among the columns, if any, and room for the 4-byte
    /// offset a `SET_VERSIONSTAMPED_KEY` operand appends.
    pub fn stamped_entry_key(&self, columns: Row<'_>) -> (Vec<u8>, Option<usize>) {
        self.pack_key(columns, self.primary_key, 4)
    }

    /// The key of an aggregate's group `columns` (no primary key).
    pub fn group_key(&self, columns: Row<'_>) -> Vec<u8> {
        self.pack_key(columns, &[], 0).0
    }

    fn pack_key(&self, columns: Row<'_>, tail: &[u8], spare: usize) -> (Vec<u8>, Option<usize>) {
        let prefix = self.indexes.prefix();
        let index = TupleElement::Int(self.index.subspace_key);
        let len = prefix.len() + index.packed_len() + columns.packed_len();
        let mut key = Vec::with_capacity(len + tail.len() + spare);
        key.extend_from_slice(prefix);
        index.pack_into(&mut key);
        let stamp = columns.pack_into(&mut key);
        key.extend_from_slice(tail);
        (key, stamp)
    }
}

/// A record as index maintenance reads it: its fields, from whichever
/// source (a save reads the old record where its bytes lie and never
/// decodes it), its type, primary key and commit version.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IndexedRecord<'a> {
    pub fields: &'a dyn FieldSource,
    pub record_type: &'a str,
    pub primary_key: &'a Tuple,
    pub version: Option<Versionstamp>,
}

impl IndexedRecord<'_> {
    fn context(&self) -> EvalContext<'_> {
        EvalContext::new(self.fields, self.record_type).with_version(self.version)
    }
}

impl<'a> From<&'a StoredRecord> for IndexedRecord<'a> {
    fn from(record: &'a StoredRecord) -> Self {
        IndexedRecord {
            fields: record.message.source(),
            record_type: record.record_type(),
            primary_key: &record.primary_key,
            version: record.version,
        }
    }
}

/// Update one index's durable structure for a record change: `old ==
/// None` is an insert, `new == None` a delete, both `Some` an update of one
/// primary key (packed in `ctx`). Updates are *streaming*: they use only
/// the contents of the changed record (§6).
///
/// Returns the net change in the number of scannable index entries, which
/// the store folds into the index's persistent entry-count statistic (read
/// by the cost-based planner). Aggregate indexes that keep one key per
/// group report 0: their size is not a function of scan work.
///
/// Cost contract: an entry that did not change costs its evaluation and
/// nothing more, and an evaluation costs no allocation once `packed`, the
/// save's one scratch, has grown: each type packs the old and the new
/// record's entries into it (`evaluate_change`) and returns when the two
/// give the same bytes (VERSION excepted: a saved record's version always
/// changes, so its entries are always rewritten). Only an entry that
/// changed gets a key, packed once into one buffer of its final size and
/// moved into the transaction (RANK builds the entry's `Tuple` instead,
/// and TEXT evaluates to tuples: a text's tokens are what it compares).
pub(crate) fn update(
    ctx: &IndexContext<'_>,
    packed: &mut PackedRows,
    old: Option<&IndexedRecord<'_>>,
    new: Option<&IndexedRecord<'_>>,
) -> Result<i64> {
    match ctx.index.index_type {
        IndexType::Value => value::update(ctx, packed, old, new),
        IndexType::Count
        | IndexType::CountUpdates
        | IndexType::CountNonNull
        | IndexType::Sum
        | IndexType::MaxEver
        | IndexType::MinEver => atomic::update(ctx, packed, old, new),
        IndexType::Version => version::update(ctx, packed, old, new),
        IndexType::Rank => rank::update(ctx, packed, old, new),
        IndexType::Text => text::update(ctx, old, new),
    }
}

/// Whether `record` has entries in `index`: index filters make the index
/// sparse, and a filtered-out record produces none at all (§6).
fn indexed(index: &Index, record: &IndexedRecord<'_>) -> Result<bool> {
    match &index.filter {
        Some(filter) => filter.eval(record.record_type, record.fields),
        None => Ok(true),
    }
}

/// Evaluate an index's key expression against a record, yielding the raw
/// (unsplit) tuples.
pub(crate) fn evaluate_index_expr(index: &Index, record: &IndexedRecord<'_>) -> Result<Vec<Tuple>> {
    if !indexed(index, record)? {
        return Ok(Vec::new());
    }
    index.key_expression.evaluate(&record.context())
}

/// The rows the old and the new record evaluate to (none for a record
/// that is absent or filtered out), packed into `packed`, which this
/// clears first.
pub(crate) fn evaluate_change(
    index: &Index,
    packed: &mut PackedRows,
    old: Option<&IndexedRecord<'_>>,
    new: Option<&IndexedRecord<'_>>,
) -> Result<(Rows, Rows)> {
    packed.clear();
    let mut evaluate = |record: Option<&IndexedRecord<'_>>| match record {
        Some(record) if indexed(index, record)? => {
            index.key_expression.pack(&record.context(), packed)
        }
        _ => Ok(Rows::default()),
    };
    Ok((evaluate(old)?, evaluate(new)?))
}

/// Covering value columns, packed (empty for none) in one buffer of their
/// final size.
pub(crate) fn entry_value(columns: Row<'_>) -> Vec<u8> {
    if columns.is_empty() {
        return Vec::new();
    }
    let mut value = Vec::with_capacity(columns.packed_len());
    columns.pack_into(&mut value);
    value
}

/// An index entry as an index scan returns it: the key columns, any
/// covering value columns, and the indexed record's primary key.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexEntry {
    /// Entry key columns *excluding* the appended primary key.
    pub key: Tuple,
    /// Covering value columns (empty unless the index uses KeyWithValue).
    pub value: Tuple,
    /// The indexed record's primary key.
    pub primary_key: Tuple,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::KeyExpression;

    #[test]
    fn state_bytes_roundtrip() {
        for s in [
            IndexState::Disabled,
            IndexState::WriteOnly,
            IndexState::Readable,
        ] {
            assert_eq!(IndexState::from_byte(s.to_byte()).unwrap(), s);
        }
        assert!(IndexState::from_byte(9).is_err());
    }

    #[test]
    fn state_maintenance_rules() {
        assert!(!IndexState::Disabled.is_maintained());
        assert!(IndexState::WriteOnly.is_maintained());
        assert!(IndexState::Readable.is_maintained());
    }

    #[test]
    fn index_entry_split() {
        // The KeyWithValue boundary splits an evaluated tuple into the
        // entry key's columns (followed by the primary key) and the value.
        let mut index = Index::value(
            "i",
            KeyExpression::field("k").with_value(KeyExpression::field("v")),
        );
        index.subspace_key = 3;
        // The row ("key1", "val1"), packed as an evaluation packs it.
        let desc = rl_message::MessageDescriptor::new("T", Vec::new()).unwrap();
        let msg = rl_message::DynamicMessage::new(std::sync::Arc::new(desc));
        let literals = KeyExpression::concat(vec![
            KeyExpression::Literal("key1".into()),
            KeyExpression::Literal("val1".into()),
        ]);
        let mut packed = PackedRows::new();
        let row = literals
            .pack_single(&EvalContext::new(&msg, "T"), &mut packed)
            .unwrap();
        let (key, value) = row.split_at(index.key_expression.key_column_count());
        let db = rl_fdb::Database::new();
        let tx = db.create_transaction();
        let indexes = Subspace::from_bytes(b"S".to_vec());
        let pk = Tuple::from((7i64,));
        let packed_pk = pk.pack();
        let ctx = IndexContext::new(&tx, &index, &indexes, &packed_pk);
        let subspace = indexes.child(3i64);
        assert_eq!(ctx.subspace(), subspace);
        let whole = Tuple::from(("key1",)).concat(&pk);
        assert_eq!(ctx.entry_key(key), subspace.pack(&whole));
        assert_eq!(entry_value(value), Tuple::from(("val1",)).pack());
        assert_eq!(ctx.group_key(key), subspace.pack(&Tuple::from(("key1",))));
        assert!(entry_value(value.split_at(1).1).is_empty());
    }
}
