//! Index definition and maintenance (§6) and the built-in index types
//! (§7, Appendix B).
//!
//! Indexes are durable data structures maintained *in the same transaction*
//! as the record change itself, so they are always consistent with the
//! data. Each index type is implemented by an [`IndexMaintainer`]; the
//! [`IndexRegistry`] maps index types to maintainers and is the extension
//! point through which clients plug in custom index types.

pub mod atomic;
pub mod builder;
pub mod rank;
pub mod text;
pub mod value;
pub mod version;

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use rl_fdb::subspace::Subspace;
use rl_fdb::tuple::Tuple;
use rl_fdb::Transaction;

use crate::error::{Error, Result};
use crate::expr::EvalContext;
use crate::metadata::{Index, IndexType, RecordMetaData};
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

/// Everything a maintainer needs to update one index within a transaction.
pub struct IndexContext<'a> {
    pub tx: &'a Transaction,
    pub index: &'a Index,
    /// The subspace dedicated to this index within the record store.
    pub subspace: Subspace,
    pub metadata: &'a RecordMetaData,
}

/// A maintainer updates the durable structure of one index type when
/// records change. Updates are *streaming*: they use only the contents of
/// the changed record (§6).
pub trait IndexMaintainer: Send + Sync {
    /// Apply the index delta for a record change: `old == None` is an
    /// insert, `new == None` a delete, both `Some` an update.
    ///
    /// Returns the net change in the number of scannable index entries,
    /// which the store folds into the index's persistent entry-count
    /// statistic (read by the cost-based planner). Aggregate indexes that
    /// keep one key per group report 0: their size is not a function of
    /// scan work.
    fn update(
        &self,
        ctx: &IndexContext<'_>,
        old: Option<&StoredRecord>,
        new: Option<&StoredRecord>,
    ) -> Result<i64>;
}

/// Evaluate an index's key expression against a record, yielding the raw
/// (unsplit) tuples.
pub fn evaluate_index_expr(index: &Index, record: &StoredRecord) -> Result<Vec<Tuple>> {
    // Index filters make the index sparse: filtered-out records produce no
    // entries at all (§6).
    if let Some(filter) = &index.filter {
        if !filter.eval(&record.record_type, &record.message)? {
            return Ok(Vec::new());
        }
    }
    let ctx = EvalContext::new(&record.message, &record.record_type).with_version(record.version);
    index.key_expression.evaluate(&ctx)
}

/// An index entry as produced by evaluation: the key columns (with the
/// primary key appended by VALUE-like maintainers) and any covering value
/// columns.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexEntry {
    /// Entry key columns *excluding* the appended primary key.
    pub key: Tuple,
    /// Covering value columns (empty unless the index uses KeyWithValue).
    pub value: Tuple,
    /// The indexed record's primary key.
    pub primary_key: Tuple,
}

/// Split evaluated tuples into (key, value) pairs according to the index's
/// KeyWithValue boundary, and attach the record's primary key.
pub fn to_index_entries(index: &Index, tuples: Vec<Tuple>, primary_key: &Tuple) -> Vec<IndexEntry> {
    let key_columns = index.key_expression.key_column_count();
    tuples
        .into_iter()
        .map(|t| IndexEntry {
            key: t.prefix(key_columns),
            value: t.suffix(key_columns),
            primary_key: primary_key.clone(),
        })
        .collect()
}

/// The registry mapping index types to maintainers. `Custom` index types
/// dispatch on `IndexOptions::custom_type` names, which is how clients
/// "plug in" new index types (§3.1 extensibility).
#[derive(Clone)]
pub struct IndexRegistry {
    builtin: BTreeMap<&'static str, Arc<dyn IndexMaintainer>>,
    custom: BTreeMap<String, Arc<dyn IndexMaintainer>>,
}

impl std::fmt::Debug for IndexRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexRegistry")
            .field("builtin", &self.builtin.keys().collect::<Vec<_>>())
            .field("custom", &self.custom.keys().collect::<Vec<_>>())
            .finish()
    }
}

fn type_key(t: IndexType) -> &'static str {
    match t {
        IndexType::Value => "value",
        IndexType::Count => "count",
        IndexType::CountUpdates => "count_updates",
        IndexType::CountNonNull => "count_non_null",
        IndexType::Sum => "sum",
        IndexType::MaxEver => "max_ever",
        IndexType::MinEver => "min_ever",
        IndexType::Version => "version",
        IndexType::Rank => "rank",
        IndexType::Text => "text",
        IndexType::Custom => "custom",
    }
}

impl Default for IndexRegistry {
    fn default() -> Self {
        let mut builtin: BTreeMap<&'static str, Arc<dyn IndexMaintainer>> = BTreeMap::new();
        builtin.insert("value", Arc::new(value::ValueIndexMaintainer));
        builtin.insert(
            "count",
            Arc::new(atomic::AtomicIndexMaintainer::new(IndexType::Count)),
        );
        builtin.insert(
            "count_updates",
            Arc::new(atomic::AtomicIndexMaintainer::new(IndexType::CountUpdates)),
        );
        builtin.insert(
            "count_non_null",
            Arc::new(atomic::AtomicIndexMaintainer::new(IndexType::CountNonNull)),
        );
        builtin.insert(
            "sum",
            Arc::new(atomic::AtomicIndexMaintainer::new(IndexType::Sum)),
        );
        builtin.insert(
            "max_ever",
            Arc::new(atomic::AtomicIndexMaintainer::new(IndexType::MaxEver)),
        );
        builtin.insert(
            "min_ever",
            Arc::new(atomic::AtomicIndexMaintainer::new(IndexType::MinEver)),
        );
        builtin.insert("version", Arc::new(version::VersionIndexMaintainer));
        builtin.insert("rank", Arc::new(rank::RankIndexMaintainer));
        builtin.insert("text", Arc::new(text::TextIndexMaintainer));
        IndexRegistry {
            builtin,
            custom: BTreeMap::new(),
        }
    }
}

impl IndexRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// The registry of built-in maintainers, built once per process: what
    /// a store opened without a registry of its own shares.
    pub fn shared_default() -> Arc<IndexRegistry> {
        static DEFAULT: OnceLock<Arc<IndexRegistry>> = OnceLock::new();
        DEFAULT
            .get_or_init(|| Arc::new(IndexRegistry::default()))
            .clone()
    }

    /// Register a client-defined maintainer under a custom type name.
    pub fn register_custom(
        &mut self,
        name: impl Into<String>,
        maintainer: Arc<dyn IndexMaintainer>,
    ) {
        self.custom.insert(name.into(), maintainer);
    }

    /// Resolve the maintainer for an index definition.
    pub fn maintainer(&self, index: &Index) -> Result<Arc<dyn IndexMaintainer>> {
        if index.index_type == IndexType::Custom {
            return self
                .custom
                .get(&index.options.custom_type)
                .cloned()
                .ok_or_else(|| {
                    Error::MetaData(format!(
                        "no registered maintainer for custom index type {:?}",
                        index.options.custom_type
                    ))
                });
        }
        self.builtin
            .get(type_key(index.index_type))
            .cloned()
            .ok_or_else(|| Error::MetaData(format!("no maintainer for {:?}", index.index_type)))
    }
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
    fn registry_resolves_builtins() {
        let reg = IndexRegistry::new();
        for t in [
            IndexType::Value,
            IndexType::Count,
            IndexType::Sum,
            IndexType::Version,
            IndexType::Rank,
            IndexType::Text,
        ] {
            let idx = Index::new("i", t, KeyExpression::field("f").group_by(0));
            assert!(reg.maintainer(&idx).is_ok(), "missing maintainer for {t:?}");
        }
    }

    #[test]
    fn registry_rejects_unregistered_custom() {
        let reg = IndexRegistry::new();
        let mut idx = Index::new("i", IndexType::Custom, KeyExpression::field("f"));
        idx.options.custom_type = "geo".into();
        assert!(reg.maintainer(&idx).is_err());
    }

    #[test]
    fn index_entry_split() {
        let index = Index::value(
            "i",
            KeyExpression::field("k").with_value(KeyExpression::field("v")),
        );
        let tuples = vec![Tuple::from(("key1", "val1"))];
        let pk = Tuple::from((7i64,));
        let entries = to_index_entries(&index, tuples, &pk);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].key, Tuple::from(("key1",)));
        assert_eq!(entries[0].value, Tuple::from(("val1",)));
        assert_eq!(entries[0].primary_key, pk);
    }
}
