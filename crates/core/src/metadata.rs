//! Record store metadata: record types, index definitions, versioning, and
//! schema evolution (§5).
//!
//! Metadata is versioned in a single-stream, non-branching, monotonically
//! increasing fashion. Because one schema may be shared by millions of
//! record stores, metadata lives apart from the data and every record store
//! tracks the highest metadata version it was accessed with in its header.
//!
//! An index's data is keyed by its *subspace key*, a small integer, and
//! never by its name: every key an index writes starts `S(2, k)`, so a
//! store pays two bytes per key for it however long the name is. The
//! builder hands keys out from a counter the metadata carries, starting at
//! 1; [`RecordMetaDataBuilder::from_existing`] copies the counter, so an
//! index that survives an evolution keeps its key, a new index takes the
//! next value, and a dropped index's key is never handed out again. A
//! store catching up finds a dropped index as a recorded key the metadata
//! no longer has, and a name dropped and later re-added gets a new key
//! whose subspace starts empty. Keys are handed out in the order indexes
//! are added, so metadata rebuilt from code rather than evolved keeps its
//! keys only while its `index` calls keep their order; a store records
//! each index's name beside its key and will not read one index's data as
//! another's (see the store module).

use std::collections::{BTreeMap, BTreeSet};

use rl_message::{validate_evolution, DescriptorPool};

use crate::error::{Error, Result};
use crate::expr::KeyExpression;
use crate::query::QueryComponent;

/// The index types of the layer (§7). Each has its own maintenance fn, and
/// [`crate::index`] dispatches on this type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexType {
    /// Standard mapping from field value(s) to primary key.
    Value,
    /// Number of records (atomic ADD).
    Count,
    /// Number of times the indexed field has been updated (atomic ADD).
    CountUpdates,
    /// Number of records where the field is not null (atomic ADD).
    CountNonNull,
    /// Sum of the field across records (atomic ADD).
    Sum,
    /// Largest value ever assigned to the field (atomic BYTE_MAX).
    MaxEver,
    /// Smallest value ever assigned to the field (atomic BYTE_MIN).
    MinEver,
    /// Entries ordered by commit version (versionstamped keys).
    Version,
    /// Dynamic order statistics via a durable skip list (Appendix B).
    Rank,
    /// Full-text inverted index with bunched postings (Appendix B).
    Text,
}

impl IndexType {
    /// Aggregate indexes maintained with conflict-free atomic mutations.
    pub fn is_atomic(&self) -> bool {
        matches!(
            self,
            IndexType::Count
                | IndexType::CountUpdates
                | IndexType::CountNonNull
                | IndexType::Sum
                | IndexType::MaxEver
                | IndexType::MinEver
        )
    }
}

/// An index definition: a type plus a key expression, optionally limited to
/// a subset of record types and filtered to a subset of records.
#[derive(Debug, Clone, PartialEq)]
pub struct Index {
    pub name: String,
    pub index_type: IndexType,
    pub key_expression: KeyExpression,
    /// Record types this index applies to; empty = all record types in the
    /// store (indexes can span multiple record types, §7).
    pub record_types: BTreeSet<String>,
    /// Records failing this predicate are excluded from the index ("sparse"
    /// indexes via index filters, §6).
    pub filter: Option<QueryComponent>,
    /// Metadata version at which this index was added (drives reindexing
    /// decisions when stores catch up to newer metadata).
    pub added_version: u64,
    /// The small integer that keys this index's data in a store (`S(2, k,
    /// …)`, `S(3, k)`, `S(4, k, …)`, `S(5, 1, k)`). Assigned by
    /// [`RecordMetaDataBuilder`] from its counter when the index is added;
    /// 0 until then. Read it with [`Index::subspace_key`].
    pub(crate) subspace_key: i64,
    /// Reject writes that would create two entries with the same index key
    /// (VALUE indexes only).
    pub unique: bool,
}

impl Index {
    pub fn new(
        name: impl Into<String>,
        index_type: IndexType,
        key_expression: KeyExpression,
    ) -> Self {
        Index {
            name: name.into(),
            index_type,
            key_expression,
            record_types: BTreeSet::new(),
            filter: None,
            added_version: 0,
            subspace_key: 0,
            unique: false,
        }
    }

    pub fn value(name: impl Into<String>, key_expression: KeyExpression) -> Self {
        Index::new(name, IndexType::Value, key_expression)
    }

    /// COUNT index grouped by `group` (use [`KeyExpression::Empty`] for a
    /// store-wide count).
    pub fn count(name: impl Into<String>, group: KeyExpression) -> Self {
        let grouped = group.group_by(0);
        Index::new(name, IndexType::Count, grouped)
    }

    /// SUM of `operand` grouped by `group`.
    pub fn sum(name: impl Into<String>, group: KeyExpression, operand: KeyExpression) -> Self {
        let grouped_count = operand.column_count();
        let expr = KeyExpression::concat(vec![group, operand]).group_by(grouped_count);
        Index::new(name, IndexType::Sum, expr)
    }

    /// MAX_EVER of `operand` grouped by `group`.
    pub fn max_ever(name: impl Into<String>, group: KeyExpression, operand: KeyExpression) -> Self {
        let grouped_count = operand.column_count();
        let expr = KeyExpression::concat(vec![group, operand]).group_by(grouped_count);
        Index::new(name, IndexType::MaxEver, expr)
    }

    /// MIN_EVER of `operand` grouped by `group`.
    pub fn min_ever(name: impl Into<String>, group: KeyExpression, operand: KeyExpression) -> Self {
        let grouped_count = operand.column_count();
        let expr = KeyExpression::concat(vec![group, operand]).group_by(grouped_count);
        Index::new(name, IndexType::MinEver, expr)
    }

    /// COUNT_NON_NULL of `operand` grouped by `group`.
    pub fn count_non_null(
        name: impl Into<String>,
        group: KeyExpression,
        operand: KeyExpression,
    ) -> Self {
        let grouped_count = operand.column_count();
        let expr = KeyExpression::concat(vec![group, operand]).group_by(grouped_count);
        Index::new(name, IndexType::CountNonNull, expr)
    }

    /// COUNT_UPDATES of `operand` grouped by `group`.
    pub fn count_updates(
        name: impl Into<String>,
        group: KeyExpression,
        operand: KeyExpression,
    ) -> Self {
        let grouped_count = operand.column_count();
        let expr = KeyExpression::concat(vec![group, operand]).group_by(grouped_count);
        Index::new(name, IndexType::CountUpdates, expr)
    }

    /// VERSION index; `key_expression` should contain
    /// [`KeyExpression::Version`] somewhere (§7).
    pub fn version(name: impl Into<String>, key_expression: KeyExpression) -> Self {
        Index::new(name, IndexType::Version, key_expression)
    }

    /// RANK index over `key_expression` (Appendix B).
    pub fn rank(name: impl Into<String>, key_expression: KeyExpression) -> Self {
        Index::new(name, IndexType::Rank, key_expression)
    }

    /// TEXT index over a string field (Appendix B).
    pub fn text(name: impl Into<String>, key_expression: KeyExpression) -> Self {
        Index::new(name, IndexType::Text, key_expression)
    }

    pub fn with_unique(mut self) -> Self {
        self.unique = true;
        self
    }

    pub fn with_filter(mut self, filter: QueryComponent) -> Self {
        self.filter = Some(filter);
        self
    }

    /// The small integer that keys this index's data in a store: `S(2, k,
    /// …)`, `S(3, k)`, `S(4, k, …)` and `S(5, 1, k)`.
    pub fn subspace_key(&self) -> i64 {
        self.subspace_key
    }

    /// Whether this index applies to records of `record_type`.
    pub fn applies_to(&self, record_type: &str) -> bool {
        self.record_types.is_empty() || self.record_types.contains(record_type)
    }
}

/// A record type: a message type in the pool plus its primary key
/// expression.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordType {
    pub name: String,
    pub primary_key: KeyExpression,
    /// Metadata version at which the type was added.
    pub since_version: u64,
}

/// Versioned metadata for a record store: the schema (§4–5).
#[derive(Debug, Clone, PartialEq)]
pub struct RecordMetaData {
    version: u64,
    pool: DescriptorPool,
    record_types: BTreeMap<String, RecordType>,
    indexes: BTreeMap<String, Index>,
    /// The subspace key the next added index takes. Every key below it has
    /// been assigned by this version or an earlier one.
    next_subspace_key: i64,
    /// `(subspace key, name)` of every index, ascending by key: what each
    /// open checks a store's recorded indexes against.
    names_by_key: Vec<(i64, String)>,
    /// Split records larger than a single value across contiguous keys.
    pub split_long_records: bool,
    /// Maintain a per-record commit version next to the record (§4).
    pub store_record_versions: bool,
}

impl RecordMetaData {
    pub fn version(&self) -> u64 {
        self.version
    }

    pub fn pool(&self) -> &DescriptorPool {
        &self.pool
    }

    pub fn record_type(&self, name: &str) -> Result<&RecordType> {
        self.record_types
            .get(name)
            .ok_or_else(|| Error::UnknownRecordType(name.to_string()))
    }

    pub fn record_types(&self) -> impl Iterator<Item = &RecordType> {
        self.record_types.values()
    }

    pub fn index(&self, name: &str) -> Result<&Index> {
        self.indexes
            .get(name)
            .ok_or_else(|| Error::UnknownIndex(name.to_string()))
    }

    pub fn indexes(&self) -> impl Iterator<Item = &Index> {
        self.indexes.values()
    }

    /// The name of the index whose data lives under `subspace_key`, if
    /// any.
    pub(crate) fn index_name_by_subspace_key(&self, subspace_key: i64) -> Option<&str> {
        let at = self
            .names_by_key
            .binary_search_by_key(&subspace_key, |&(key, _)| key)
            .ok()?;
        Some(&self.names_by_key[at].1)
    }

    /// All indexes that must be maintained for records of `record_type`.
    pub fn indexes_for_type(&self, record_type: &str) -> Vec<&Index> {
        self.indexes
            .values()
            .filter(|i| i.applies_to(record_type))
            .collect()
    }

    /// Validate that `self` is a legal evolution of `older` (§5): version
    /// strictly increases, the descriptor pool evolves compatibly, record
    /// types are never dropped, primary keys never change, an index that
    /// survives keeps its definition and its subspace key, and no new index
    /// takes a subspace key `older` (or a version before it) assigned.
    pub fn validate_evolution_from(&self, older: &RecordMetaData) -> Result<()> {
        if self.version <= older.version {
            return Err(Error::MetaData(format!(
                "metadata version must increase ({} -> {})",
                older.version, self.version
            )));
        }
        let errs = validate_evolution(&older.pool, &self.pool);
        if !errs.is_empty() {
            return Err(Error::InvalidEvolution(errs));
        }
        for (name, old_rt) in &older.record_types {
            let Some(new_rt) = self.record_types.get(name) else {
                return Err(Error::MetaData(format!("record type {name} was removed")));
            };
            if new_rt.primary_key != old_rt.primary_key {
                return Err(Error::MetaData(format!(
                    "primary key of record type {name} changed"
                )));
            }
        }
        for (name, old_idx) in &older.indexes {
            if let Some(new_idx) = self.indexes.get(name) {
                if new_idx.key_expression != old_idx.key_expression
                    || new_idx.index_type != old_idx.index_type
                {
                    return Err(Error::MetaData(format!(
                        "index {name} changed definition; drop and add under a new name instead"
                    )));
                }
                if new_idx.subspace_key != old_idx.subspace_key {
                    return Err(Error::MetaData(format!(
                        "index {name} changed subspace key ({} -> {})",
                        old_idx.subspace_key, new_idx.subspace_key
                    )));
                }
            }
            // Dropped indexes are fine: their subspace is range-cleared.
        }
        if self.next_subspace_key < older.next_subspace_key {
            return Err(Error::MetaData(format!(
                "subspace key counter went back ({} -> {})",
                older.next_subspace_key, self.next_subspace_key
            )));
        }
        for (name, new_idx) in &self.indexes {
            if !older.indexes.contains_key(name) && new_idx.subspace_key < older.next_subspace_key {
                return Err(Error::MetaData(format!(
                    "new index {name} reuses subspace key {}, which version {} or earlier assigned",
                    new_idx.subspace_key, older.version
                )));
            }
        }
        Ok(())
    }
}

/// Builder for [`RecordMetaData`].
#[derive(Debug, Clone)]
pub struct RecordMetaDataBuilder {
    version: u64,
    pool: DescriptorPool,
    record_types: BTreeMap<String, RecordType>,
    indexes: BTreeMap<String, Index>,
    next_subspace_key: i64,
    split_long_records: bool,
    store_record_versions: bool,
}

impl RecordMetaDataBuilder {
    pub fn new(pool: DescriptorPool) -> Self {
        RecordMetaDataBuilder {
            version: 1,
            pool,
            record_types: BTreeMap::new(),
            indexes: BTreeMap::new(),
            next_subspace_key: 1,
            split_long_records: true,
            store_record_versions: true,
        }
    }

    /// Continue evolving existing metadata: copies everything, the
    /// subspace key counter included, and bumps the version.
    pub fn from_existing(metadata: &RecordMetaData) -> Self {
        RecordMetaDataBuilder {
            version: metadata.version + 1,
            pool: metadata.pool.clone(),
            record_types: metadata.record_types.clone(),
            indexes: metadata.indexes.clone(),
            next_subspace_key: metadata.next_subspace_key,
            split_long_records: metadata.split_long_records,
            store_record_versions: metadata.store_record_versions,
        }
    }

    pub fn version(mut self, version: u64) -> Self {
        self.version = version;
        self
    }

    /// Replace the descriptor pool (for schema evolution).
    pub fn pool(mut self, pool: DescriptorPool) -> Self {
        self.pool = pool;
        self
    }

    /// Define a record type with its primary key.
    pub fn record_type(mut self, name: impl Into<String>, primary_key: KeyExpression) -> Self {
        let name = name.into();
        self.record_types.insert(
            name.clone(),
            RecordType {
                name,
                primary_key,
                since_version: self.version,
            },
        );
        self
    }

    /// Define an index on a single record type.
    pub fn index(self, record_type: impl Into<String>, mut index: Index) -> Self {
        index.record_types.insert(record_type.into());
        self.add_index(index)
    }

    /// Define an index spanning the given record types.
    pub fn multi_type_index(self, record_types: &[&str], mut index: Index) -> Self {
        index.record_types = record_types.iter().map(|s| s.to_string()).collect();
        self.add_index(index)
    }

    /// Define an index spanning *all* record types (universal).
    pub fn universal_index(self, mut index: Index) -> Self {
        index.record_types.clear();
        self.add_index(index)
    }

    /// Add `index` at this version under the next subspace key.
    fn add_index(mut self, mut index: Index) -> Self {
        index.added_version = self.version;
        index.subspace_key = self.next_subspace_key;
        self.next_subspace_key += 1;
        self.indexes.insert(index.name.clone(), index);
        self
    }

    /// Remove an index (its data is cleared when stores catch up; its
    /// subspace key is never handed out again).
    pub fn drop_index(mut self, name: &str) -> Self {
        self.indexes.remove(name);
        self
    }

    pub fn split_long_records(mut self, split: bool) -> Self {
        self.split_long_records = split;
        self
    }

    pub fn store_record_versions(mut self, store: bool) -> Self {
        self.store_record_versions = store;
        self
    }

    /// Validate and produce the metadata.
    pub fn build(self) -> Result<RecordMetaData> {
        self.pool.validate().map_err(Error::Message)?;
        for rt in self.record_types.values() {
            if self.pool.message(&rt.name).is_none() {
                return Err(Error::MetaData(format!(
                    "record type {} has no message descriptor in the pool",
                    rt.name
                )));
            }
        }
        for index in self.indexes.values() {
            for rt in &index.record_types {
                if !self.record_types.contains_key(rt) {
                    return Err(Error::MetaData(format!(
                        "index {} references unknown record type {rt}",
                        index.name
                    )));
                }
            }
            if index.index_type.is_atomic()
                && !matches!(index.key_expression, KeyExpression::Grouping { .. })
            {
                return Err(Error::MetaData(format!(
                    "atomic index {} must use a grouping key expression",
                    index.name
                )));
            }
        }
        let mut names_by_key: Vec<(i64, String)> = self
            .indexes
            .values()
            .map(|index| (index.subspace_key, index.name.clone()))
            .collect();
        names_by_key.sort_unstable();
        Ok(RecordMetaData {
            version: self.version,
            pool: self.pool,
            record_types: self.record_types,
            indexes: self.indexes,
            next_subspace_key: self.next_subspace_key,
            names_by_key,
            split_long_records: self.split_long_records,
            store_record_versions: self.store_record_versions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_message::{FieldDescriptor, FieldType, MessageDescriptor};

    fn pool() -> DescriptorPool {
        let mut pool = DescriptorPool::new();
        pool.add_message(
            MessageDescriptor::new(
                "User",
                vec![
                    FieldDescriptor::optional("id", 1, FieldType::Int64),
                    FieldDescriptor::optional("name", 2, FieldType::String),
                    FieldDescriptor::optional("score", 3, FieldType::Int64),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        pool.add_message(
            MessageDescriptor::new(
                "Order",
                vec![
                    FieldDescriptor::optional("id", 1, FieldType::Int64),
                    FieldDescriptor::optional("name", 2, FieldType::String),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        pool
    }

    fn basic_metadata() -> RecordMetaData {
        RecordMetaDataBuilder::new(pool())
            .record_type("User", KeyExpression::field("id"))
            .record_type("Order", KeyExpression::field("id"))
            .index(
                "User",
                Index::value("by_name", KeyExpression::field("name")),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn build_and_lookup() {
        let md = basic_metadata();
        assert_eq!(md.version(), 1);
        assert!(md.record_type("User").is_ok());
        assert!(matches!(
            md.record_type("Nope"),
            Err(Error::UnknownRecordType(_))
        ));
        assert!(md.index("by_name").is_ok());
        assert!(matches!(md.index("nope"), Err(Error::UnknownIndex(_))));
    }

    #[test]
    fn indexes_for_type_respects_scoping() {
        let md = RecordMetaDataBuilder::new(pool())
            .record_type("User", KeyExpression::field("id"))
            .record_type("Order", KeyExpression::field("id"))
            .index("User", Index::value("u", KeyExpression::field("name")))
            .universal_index(Index::value("all_names", KeyExpression::field("name")))
            .multi_type_index(
                &["User", "Order"],
                Index::value("both", KeyExpression::field("name")),
            )
            .build()
            .unwrap();
        let user_indexes: Vec<_> = md
            .indexes_for_type("User")
            .iter()
            .map(|i| i.name.clone())
            .collect();
        assert!(user_indexes.contains(&"u".to_string()));
        assert!(user_indexes.contains(&"all_names".to_string()));
        assert!(user_indexes.contains(&"both".to_string()));
        let order_indexes: Vec<_> = md
            .indexes_for_type("Order")
            .iter()
            .map(|i| i.name.clone())
            .collect();
        assert!(!order_indexes.contains(&"u".to_string()));
        assert!(order_indexes.contains(&"both".to_string()));
    }

    #[test]
    fn unknown_record_type_in_index_rejected() {
        let err = RecordMetaDataBuilder::new(pool())
            .record_type("User", KeyExpression::field("id"))
            .index("Ghost", Index::value("x", KeyExpression::field("name")))
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::MetaData(_)));
    }

    #[test]
    fn missing_descriptor_rejected() {
        let err = RecordMetaDataBuilder::new(pool())
            .record_type("Ghost", KeyExpression::field("id"))
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::MetaData(_)));
    }

    #[test]
    fn atomic_index_requires_grouping() {
        let mut bad = Index::new("s", IndexType::Sum, KeyExpression::field("score"));
        bad.record_types.insert("User".into());
        let err = RecordMetaDataBuilder::new(pool())
            .record_type("User", KeyExpression::field("id"))
            .index("User", bad)
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::MetaData(_)));
        // The constructor produces a valid grouping automatically.
        let ok = RecordMetaDataBuilder::new(pool())
            .record_type("User", KeyExpression::field("id"))
            .index(
                "User",
                Index::sum("s", KeyExpression::Empty, KeyExpression::field("score")),
            )
            .build();
        assert!(ok.is_ok());
    }

    #[test]
    fn evolution_valid_addition() {
        let v1 = basic_metadata();
        let v2 = RecordMetaDataBuilder::from_existing(&v1)
            .index(
                "User",
                Index::value("by_score", KeyExpression::field("score")),
            )
            .build()
            .unwrap();
        assert_eq!(v2.version(), 2);
        v2.validate_evolution_from(&v1).unwrap();
        assert_eq!(v2.index("by_score").unwrap().added_version, 2);
    }

    #[test]
    fn evolution_version_must_increase() {
        let v1 = basic_metadata();
        let same = basic_metadata();
        assert!(same.validate_evolution_from(&v1).is_err());
    }

    #[test]
    fn evolution_rejects_removed_record_type() {
        let v1 = basic_metadata();
        let mut b = RecordMetaDataBuilder::from_existing(&v1);
        b.record_types.remove("Order");
        let v2 = b.build().unwrap();
        assert!(v2.validate_evolution_from(&v1).is_err());
    }

    #[test]
    fn evolution_rejects_primary_key_change() {
        let v1 = basic_metadata();
        let v2 = RecordMetaDataBuilder::from_existing(&v1)
            .record_type("User", KeyExpression::field("name"))
            .build()
            .unwrap();
        assert!(v2.validate_evolution_from(&v1).is_err());
    }

    #[test]
    fn evolution_rejects_index_redefinition_but_allows_drop() {
        let v1 = basic_metadata();
        // Redefining by_name is invalid.
        let v2 = RecordMetaDataBuilder::from_existing(&v1)
            .index(
                "User",
                Index::value("by_name", KeyExpression::field("score")),
            )
            .build()
            .unwrap();
        assert!(v2.validate_evolution_from(&v1).is_err());
        // Dropping it is fine.
        let v3 = RecordMetaDataBuilder::from_existing(&v1)
            .drop_index("by_name")
            .build()
            .unwrap();
        v3.validate_evolution_from(&v1).unwrap();
    }

    #[test]
    fn subspace_keys_come_from_a_counter_evolution_never_rewinds() {
        let v1 = basic_metadata();
        assert_eq!(v1.index("by_name").unwrap().subspace_key, 1);
        assert_eq!(v1.next_subspace_key, 2);
        let v2 = RecordMetaDataBuilder::from_existing(&v1)
            .drop_index("by_name")
            .index(
                "User",
                Index::value("by_score", KeyExpression::field("score")),
            )
            .build()
            .unwrap();
        v2.validate_evolution_from(&v1).unwrap();
        // The dropped key is not handed out again, and a re-added name is a
        // new index under a new key.
        assert_eq!(v2.index("by_score").unwrap().subspace_key, 2);
        let v3 = RecordMetaDataBuilder::from_existing(&v2)
            .index(
                "User",
                Index::value("by_name", KeyExpression::field("name")),
            )
            .build()
            .unwrap();
        v3.validate_evolution_from(&v2).unwrap();
        assert_eq!(v3.index("by_name").unwrap().subspace_key, 3);
        assert_eq!(v3.index("by_score").unwrap().subspace_key, 2);
        assert_eq!(v3.index_name_by_subspace_key(3), Some("by_name"));
        assert_eq!(v3.index_name_by_subspace_key(1), None);
    }

    #[test]
    fn evolution_rejects_a_changed_subspace_key() {
        let v1 = basic_metadata();
        let mut b = RecordMetaDataBuilder::from_existing(&v1);
        b.indexes.get_mut("by_name").unwrap().subspace_key = 7;
        let v2 = b.build().unwrap();
        let err = v2.validate_evolution_from(&v1).unwrap_err();
        assert!(
            matches!(&err, Error::MetaData(m) if m.contains("by_name") && m.contains("subspace key")),
            "{err:?}"
        );
        // Dropping and re-adding a name in one version changes its key too.
        let v2 = RecordMetaDataBuilder::from_existing(&v1)
            .drop_index("by_name")
            .index(
                "User",
                Index::value("by_name", KeyExpression::field("name")),
            )
            .build()
            .unwrap();
        assert!(v2.validate_evolution_from(&v1).is_err());
    }

    #[test]
    fn evolution_rejects_a_reused_subspace_key() {
        let v1 = basic_metadata();
        let v2 = RecordMetaDataBuilder::from_existing(&v1)
            .drop_index("by_name")
            .build()
            .unwrap();
        // A builder whose counter went back hands by_name's key 1 out again.
        let mut b = RecordMetaDataBuilder::from_existing(&v2);
        b.next_subspace_key = 1;
        let v3 = b
            .index(
                "User",
                Index::value("by_score", KeyExpression::field("score")),
            )
            .build()
            .unwrap();
        assert_eq!(v3.index("by_score").unwrap().subspace_key, 1);
        for older in [&v1, &v2] {
            let err = v3.validate_evolution_from(older).unwrap_err();
            assert!(
                matches!(&err, Error::MetaData(m) if m.contains("by_score") && m.contains("reuses")),
                "{err:?}"
            );
        }
    }

    #[test]
    fn evolution_rejects_descriptor_violation() {
        let v1 = basic_metadata();
        // New pool drops a field.
        let mut new_pool = DescriptorPool::new();
        new_pool
            .add_message(
                MessageDescriptor::new(
                    "User",
                    vec![FieldDescriptor::optional("id", 1, FieldType::Int64)],
                )
                .unwrap(),
            )
            .unwrap();
        new_pool
            .add_message(
                MessageDescriptor::new(
                    "Order",
                    vec![
                        FieldDescriptor::optional("id", 1, FieldType::Int64),
                        FieldDescriptor::optional("name", 2, FieldType::String),
                    ],
                )
                .unwrap(),
            )
            .unwrap();
        let v2 = RecordMetaDataBuilder::from_existing(&v1)
            .pool(new_pool)
            .build()
            .unwrap();
        assert!(matches!(
            v2.validate_evolution_from(&v1),
            Err(Error::InvalidEvolution(_))
        ));
    }

    #[test]
    fn index_applies_to() {
        let mut idx = Index::value("i", KeyExpression::field("f"));
        assert!(idx.applies_to("Anything"));
        idx.record_types.insert("User".into());
        assert!(idx.applies_to("User"));
        assert!(!idx.applies_to("Order"));
    }
}
