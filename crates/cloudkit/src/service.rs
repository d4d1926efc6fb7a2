//! The CloudKit service: per-(user, application) record stores with
//! system fields and zone-scoped primary keys (§8, Figure 3).

use std::sync::Arc;

use record_layer::expr::{EvalContext, KeyExpression};
use record_layer::metadata::{Index, RecordMetaData, RecordMetaDataBuilder};
use record_layer::store::{RecordStore, StoredRecord};
use record_layer::Result;
use rl_fdb::tuple::{Tuple, TupleElement};
use rl_fdb::version::Versionstamp;
use rl_fdb::{Database, Subspace, Transaction};
use rl_message::{DescriptorPool, FieldDescriptor, FieldType, MessageDescriptor, Value};

/// The CloudKit record type name used for generic records.
pub const RECORD_TYPE: &str = "CKRecord";

/// Configuration for a CloudKit deployment.
#[derive(Debug, Clone)]
pub struct CloudKitConfig {
    /// Extra user-defined field names indexed with VALUE indexes (CloudKit
    /// translates the application schema into Record Layer metadata, §8).
    /// Must evolve append-only across deployments: each entry's position
    /// determines its metadata version, so removing or reordering entries
    /// produces a schema the §5 staleness check cannot tell apart from the
    /// original. Positions also fix each index's subspace key, which the
    /// metadata hands out in the order indexes are added.
    pub indexed_fields: Vec<String>,
    /// Whether to maintain the quota-management size index (§8 "system"
    /// indexes). Fixed for a deployment's lifetime: the index takes the
    /// subspace key before the user-defined ones.
    pub quota_index: bool,
}

impl Default for CloudKitConfig {
    fn default() -> Self {
        CloudKitConfig {
            indexed_fields: vec![],
            quota_index: true,
        }
    }
}

/// A simplified CloudKit record: a name, a zone, and string/int fields.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecordData {
    pub zone: String,
    pub name: String,
    pub string_fields: Vec<(String, String)>,
    pub int_fields: Vec<(String, i64)>,
}

impl RecordData {
    pub fn new(zone: impl Into<String>, name: impl Into<String>) -> Self {
        RecordData {
            zone: zone.into(),
            name: name.into(),
            ..Default::default()
        }
    }

    pub fn string_field(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.string_fields.push((name.into(), value.into()));
        self
    }

    pub fn int_field(mut self, name: impl Into<String>, value: i64) -> Self {
        self.int_fields.push((name.into(), value));
        self
    }
}

/// The CloudKit service head: stateless, like the Record Layer itself —
/// clone freely across threads.
#[derive(Clone)]
pub struct CloudKit {
    db: Database,
    metadata: Arc<RecordMetaData>,
}

/// Build the generic CloudKit message descriptor: system fields plus a
/// bag of user fields (field1..field8 strings, num1..num4 ints keep the
/// schema self-contained for the simulation).
fn cloudkit_pool() -> DescriptorPool {
    let mut fields = vec![
        FieldDescriptor::optional("zone", 1, FieldType::String),
        FieldDescriptor::optional("record_name", 2, FieldType::String),
        // System fields CloudKit adds: creation/modification tracking and
        // the incarnation of the writing user (§8.1).
        FieldDescriptor::optional("created_at", 3, FieldType::Int64),
        FieldDescriptor::optional("modified_at", 4, FieldType::Int64),
        FieldDescriptor::optional("incarnation", 5, FieldType::Int64),
        // Legacy Cassandra-era update counter, present only on migrated
        // records (drives the function key expression below).
        FieldDescriptor::optional("update_counter", 6, FieldType::Int64),
    ];
    for i in 0..8 {
        fields.push(FieldDescriptor::optional(
            format!("field{i}"),
            10 + i,
            FieldType::String,
        ));
    }
    for i in 0..4 {
        fields.push(FieldDescriptor::optional(
            format!("num{i}"),
            20 + i,
            FieldType::Int64,
        ));
    }
    let mut pool = DescriptorPool::new();
    pool.add_message(MessageDescriptor::new(RECORD_TYPE, fields).unwrap())
        .unwrap();
    pool
}

/// The sync key expression from §8.1: a function of (incarnation, version,
/// update_counter) — `(0, update_counter)` for records last written by the
/// legacy system, `(incarnation, version)` otherwise. This keeps legacy
/// order intact and sorts all legacy changes before new ones, with no
/// business logic in the application.
fn sync_key_expression() -> KeyExpression {
    KeyExpression::function("incarnation_sync_key", 3, |ctx: &EvalContext<'_>| {
        let field = |name| ctx.message.get_value(name);
        let zone = match field("zone")? {
            Some(Value::String(zone)) => zone,
            _ => String::new(),
        };
        let tuple = match field("update_counter")?.as_ref().and_then(Value::as_i64) {
            Some(counter) => Tuple::new()
                .push(zone)
                .push(0i64)
                .push(TupleElement::Versionstamp(Versionstamp::complete(
                    counter as u64,
                    0,
                    0,
                ))),
            None => {
                let incarnation = field("incarnation")?.as_ref().and_then(Value::as_i64);
                let version = ctx.version.unwrap_or_else(|| Versionstamp::incomplete(0));
                Tuple::new()
                    .push(zone)
                    .push(incarnation.unwrap_or(1))
                    .push(version)
            }
        };
        Ok(vec![tuple])
    })
}

/// Build the Record Layer metadata CloudKit uses for every record store.
pub fn cloudkit_metadata(config: &CloudKitConfig) -> RecordMetaData {
    let mut builder = RecordMetaDataBuilder::new(cloudkit_pool())
        // Zone name prefixes the primary key for efficient per-zone access
        // (§8): pk = (zone, record_name).
        .record_type(
            RECORD_TYPE,
            KeyExpression::concat_fields("zone", "record_name"),
        )
        // The sync index: (zone, incarnation, version) → record (§8.1).
        .index(
            RECORD_TYPE,
            Index::version("ck_sync", sync_key_expression()),
        );
    if config.quota_index {
        // System index tracking record count per zone for quota management
        // (stand-in for the size-by-type index described in §8).
        builder = builder.index(
            RECORD_TYPE,
            Index::count("ck_zone_count", KeyExpression::field("zone")),
        );
    }
    // Each user-defined field index is a later evolution of the shared
    // schema (§5): bumping the metadata version per field lets stores
    // created under an older config detect an appended index when they
    // open and leave it disabled until an online build backfills it.
    // Versions are positional, and so are subspace keys: the metadata is
    // rebuilt from the config rather than evolved with `from_existing`, so
    // each index's key is its place in this sequence. This relies on
    // `indexed_fields` being append-only and `quota_index` never changing
    // (see CloudKitConfig); §5 versioning is single-stream and cannot
    // represent a replaced or reordered field list. A store catching up to
    // a config that broke this does not read one index's data as
    // another's: it clears every index whose name and key no longer match
    // and leaves the indexes now under those keys disabled until an online
    // build. At the store's own version such a config fails to open.
    for (step, field) in config.indexed_fields.iter().enumerate() {
        builder = builder.version(2 + step as u64).index(
            RECORD_TYPE,
            Index::value(
                format!("ck_user_{field}"),
                KeyExpression::concat(vec![
                    KeyExpression::field("zone"),
                    KeyExpression::field(field),
                ]),
            ),
        );
    }
    builder.build().expect("cloudkit metadata is valid")
}

/// Key of a user's incarnation: `("ck_meta", user, "incarnation")`.
fn incarnation_key(user: i64) -> Vec<u8> {
    Tuple::new()
        .push("ck_meta")
        .push(user)
        .push("incarnation")
        .pack()
}

impl CloudKit {
    pub fn new(db: &Database, config: &CloudKitConfig) -> Self {
        CloudKit {
            db: db.clone(),
            metadata: Arc::new(cloudkit_metadata(config)),
        }
    }

    pub fn database(&self) -> &Database {
        &self.db
    }

    pub fn metadata(&self) -> &RecordMetaData {
        &self.metadata
    }

    /// The subspace of one (user, application) record store — the Figure 3
    /// keyspace layout. Each pair is an isolated logical database.
    pub fn store_subspace(&self, user: i64, application: &str) -> Subspace {
        Subspace::from_tuple(&Tuple::new().push("ck").push(user).push(application))
    }

    /// Open the record store for (user, application) in a transaction.
    pub fn open_store<'a>(
        &'a self,
        tx: &'a Transaction,
        user: i64,
        application: &str,
    ) -> Result<RecordStore<'a>> {
        RecordStore::open_or_create(tx, &self.store_subspace(user, application), &self.metadata)
    }

    /// The current incarnation of a user (1 if never moved). §8.1.
    ///
    /// Stamped on every save and changed only by a move, so it lives in
    /// the database's state cache beside the store states: a transaction
    /// reads the key only when the cache cannot vouch for its value.
    pub fn incarnation(&self, tx: &Transaction, user: i64) -> Result<i64> {
        let key = incarnation_key(user);
        if let Some(cached) = tx.cached_state::<i64>(&key) {
            return Ok(*cached);
        }
        let incarnation = match tx.get(&key).map_err(record_layer::Error::Fdb)? {
            Some(v) => Tuple::unpack(&v)
                .map_err(record_layer::Error::Fdb)?
                .get(0)
                .and_then(TupleElement::as_int)
                .unwrap_or(1),
            None => 1,
        };
        tx.cache_state(&key, Arc::new(incarnation));
        Ok(incarnation)
    }

    /// Bump the user's incarnation — done whenever the user's data is
    /// moved to a different cluster (§8.1).
    pub fn bump_incarnation(&self, tx: &Transaction, user: i64) -> Result<i64> {
        let next = self.incarnation(tx, user)? + 1;
        tx.try_set(&incarnation_key(user), &Tuple::new().push(next).pack())
            .map_err(record_layer::Error::Fdb)?;
        tx.bump_metadata_version()
            .map_err(record_layer::Error::Fdb)?;
        Ok(next)
    }

    /// Save a record into a user's application store, stamping system
    /// fields (incarnation, modification time).
    pub fn save(
        &self,
        tx: &Transaction,
        user: i64,
        application: &str,
        data: &RecordData,
    ) -> Result<StoredRecord> {
        let incarnation = self.incarnation(tx, user)?;
        let store = self.open_store(tx, user, application)?;
        let mut msg = store.new_record(RECORD_TYPE)?;
        msg.set("zone", data.zone.as_str())?;
        msg.set("record_name", data.name.as_str())?;
        msg.set("incarnation", incarnation)?;
        msg.set("modified_at", self.db.clock_ms() as i64)?;
        for (k, v) in &data.string_fields {
            msg.set(k, v.as_str())?;
        }
        for (k, v) in &data.int_fields {
            msg.set(k, *v)?;
        }
        store.save_record(msg)
    }

    /// Load a record by zone and name.
    pub fn load(
        &self,
        tx: &Transaction,
        user: i64,
        application: &str,
        zone: &str,
        name: &str,
    ) -> Result<Option<StoredRecord>> {
        let store = self.open_store(tx, user, application)?;
        store.load_record(&Tuple::new().push(zone).push(name))
    }

    /// Delete a record.
    pub fn delete(
        &self,
        tx: &Transaction,
        user: i64,
        application: &str,
        zone: &str,
        name: &str,
    ) -> Result<bool> {
        let store = self.open_store(tx, user, application)?;
        store.delete_record(&Tuple::new().push(zone).push(name))
    }

    /// Number of records in a zone, from the quota system index.
    pub fn zone_record_count(
        &self,
        tx: &Transaction,
        user: i64,
        application: &str,
        zone: &str,
    ) -> Result<i64> {
        let store = self.open_store(tx, user, application)?;
        let v = store.evaluate_aggregate("ck_zone_count", &Tuple::new().push(zone))?;
        Ok(v.as_long().unwrap_or(0))
    }

    /// Move a tenant: copy the (user, application) key range verbatim to a
    /// destination database — "moving a tenant is as simple as copying the
    /// appropriate range of data" (§1) — and bump the incarnation on the
    /// destination so future sync versions sort after the move.
    pub fn move_tenant(&self, dest: &CloudKit, user: i64, application: &str) -> Result<usize> {
        let sub = self.store_subspace(user, application);
        let (begin, end) = sub.range_inclusive();
        let kvs = record_layer::run(&self.db, |tx| {
            tx.get_range(&begin, &end, rl_fdb::RangeOptions::default())
                .map_err(record_layer::Error::Fdb)
        })?;
        let count = kvs.len();
        record_layer::run(&dest.db, |tx| {
            for kv in &kvs {
                tx.try_set(&kv.key, &kv.value)
                    .map_err(record_layer::Error::Fdb)?;
            }
            // In the copy's own transaction: the data never shows under
            // the old incarnation, and the metadata-version write the bump
            // makes also covers the header and index states the copy may
            // have replaced under a store the destination had cached.
            dest.bump_incarnation(tx, user)?;
            Ok(())
        })?;
        Ok(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use record_layer::index::builder::OnlineIndexBuilder;
    use record_layer::index::IndexState;
    use record_layer::run;

    #[test]
    fn per_user_per_app_stores_are_isolated() {
        let db = Database::new();
        let ck = CloudKit::new(&db, &CloudKitConfig::default());
        run(&db, |tx| {
            ck.save(
                tx,
                1,
                "notes",
                &RecordData::new("z", "a").string_field("field0", "u1"),
            )?;
            ck.save(
                tx,
                2,
                "notes",
                &RecordData::new("z", "a").string_field("field0", "u2"),
            )?;
            ck.save(
                tx,
                1,
                "photos",
                &RecordData::new("z", "a").string_field("field0", "p1"),
            )?;
            Ok(())
        })
        .unwrap();
        run(&db, |tx| {
            let r = ck.load(tx, 1, "notes", "z", "a")?.unwrap();
            assert_eq!(r.message.get("field0").and_then(Value::as_str), Some("u1"));
            let r = ck.load(tx, 2, "notes", "z", "a")?.unwrap();
            assert_eq!(r.message.get("field0").and_then(Value::as_str), Some("u2"));
            let r = ck.load(tx, 1, "photos", "z", "a")?.unwrap();
            assert_eq!(r.message.get("field0").and_then(Value::as_str), Some("p1"));
            Ok(())
        })
        .unwrap();
        // Subspaces do not overlap (Figure 3 isolation).
        let a = ck.store_subspace(1, "notes");
        let b = ck.store_subspace(2, "notes");
        assert!(!a.contains(b.prefix()) && !b.contains(a.prefix()));
    }

    #[test]
    fn zone_prefixed_primary_keys() {
        let db = Database::new();
        let ck = CloudKit::new(&db, &CloudKitConfig::default());
        let rec = run(&db, |tx| {
            ck.save(tx, 1, "app", &RecordData::new("zoneA", "rec1"))
        })
        .unwrap();
        assert_eq!(rec.primary_key, Tuple::from(("zoneA", "rec1")));
    }

    #[test]
    fn quota_index_counts_per_zone() {
        let db = Database::new();
        let ck = CloudKit::new(&db, &CloudKitConfig::default());
        run(&db, |tx| {
            for i in 0..5 {
                ck.save(tx, 1, "app", &RecordData::new("za", format!("r{i}")))?;
            }
            for i in 0..3 {
                ck.save(tx, 1, "app", &RecordData::new("zb", format!("r{i}")))?;
            }
            Ok(())
        })
        .unwrap();
        run(&db, |tx| {
            assert_eq!(ck.zone_record_count(tx, 1, "app", "za")?, 5);
            assert_eq!(ck.zone_record_count(tx, 1, "app", "zb")?, 3);
            ck.delete(tx, 1, "app", "za", "r0")?;
            Ok(())
        })
        .unwrap();
        run(&db, |tx| {
            assert_eq!(ck.zone_record_count(tx, 1, "app", "za")?, 4);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn incarnation_starts_at_one_and_bumps() {
        let db = Database::new();
        let ck = CloudKit::new(&db, &CloudKitConfig::default());
        run(&db, |tx| {
            assert_eq!(ck.incarnation(tx, 7)?, 1);
            assert_eq!(ck.bump_incarnation(tx, 7)?, 2);
            Ok(())
        })
        .unwrap();
        run(&db, |tx| {
            assert_eq!(ck.incarnation(tx, 7)?, 2);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn user_defined_field_indexes() {
        let db = Database::new();
        let config = CloudKitConfig {
            indexed_fields: vec!["field0".into()],
            ..Default::default()
        };
        let ck = CloudKit::new(&db, &config);
        run(&db, |tx| {
            ck.save(
                tx,
                1,
                "app",
                &RecordData::new("z", "a").string_field("field0", "x"),
            )?;
            ck.save(
                tx,
                1,
                "app",
                &RecordData::new("z", "b").string_field("field0", "y"),
            )?;
            Ok(())
        })
        .unwrap();
        // Query through the planner using the user index.
        run(&db, |tx| {
            let store = ck.open_store(tx, 1, "app")?;
            let planner = record_layer::plan::RecordQueryPlanner::new(ck.metadata());
            let query = record_layer::query::RecordQuery::new()
                .record_type(RECORD_TYPE)
                .filter(record_layer::query::QueryComponent::and(vec![
                    record_layer::query::QueryComponent::field(
                        "zone",
                        record_layer::query::Comparison::Equals(TupleElement::String("z".into())),
                    ),
                    record_layer::query::QueryComponent::field(
                        "field0",
                        record_layer::query::Comparison::Equals(TupleElement::String("y".into())),
                    ),
                ]));
            let plan = planner.plan(&query)?;
            assert!(
                plan.describe().contains("IndexScan(ck_user_field0)"),
                "{}",
                plan.describe()
            );
            let results = plan.execute_all(&store)?;
            assert_eq!(results.len(), 1);
            assert_eq!(results[0].primary_key, Tuple::from(("z", "b")));
            Ok(())
        })
        .unwrap();
    }

    /// A config that drops the quota index moves every user index to
    /// another subspace key. A store catching up to it clears what each
    /// key held and leaves the user indexes disabled until an online build,
    /// never reading the COUNT index's entries as `ck_user_field0`'s; at
    /// the store's own version the config is refused.
    #[test]
    fn a_config_that_renumbers_indexes_rebuilds_them() {
        let db = Database::new();
        let old = CloudKit::new(
            &db,
            &CloudKitConfig {
                indexed_fields: vec!["field0".into()],
                quota_index: true,
            },
        );
        run(&db, |tx| {
            for (name, value) in [("a", "x"), ("b", "y"), ("c", "y")] {
                old.save(
                    tx,
                    1,
                    "app",
                    &RecordData::new("z", name).string_field("field0", value),
                )?;
            }
            Ok(())
        })
        .unwrap();
        let keys = |ck: &CloudKit| {
            ck.metadata()
                .indexes()
                .map(|i| (i.name.clone(), i.subspace_key()))
                .collect::<std::collections::BTreeMap<_, _>>()
        };
        assert_eq!(keys(&old)["ck_zone_count"], 2);
        assert_eq!(keys(&old)["ck_user_field0"], 3);

        // Same version, field0 under the quota index's key: refused.
        let same_version = CloudKit::new(
            &db,
            &CloudKitConfig {
                indexed_fields: vec!["field0".into()],
                quota_index: false,
            },
        );
        assert_eq!(same_version.metadata().version(), old.metadata().version());
        let tx = db.create_transaction();
        match same_version.open_store(&tx, 1, "app") {
            Err(record_layer::Error::SubspaceKeyMismatch {
                index,
                subspace_key,
                ..
            }) => {
                assert_eq!((index.as_str(), subspace_key), ("ck_zone_count", 2));
            }
            Err(e) => panic!("{e}"),
            Ok(_) => panic!("opened with a renumbered config"),
        }
        drop(tx);

        // One version on: field0 at key 2, field1 at key 3.
        let new = CloudKit::new(
            &db,
            &CloudKitConfig {
                indexed_fields: vec!["field0".into(), "field1".into()],
                quota_index: false,
            },
        );
        assert_eq!(keys(&new)["ck_user_field0"], 2);
        assert_eq!(keys(&new)["ck_user_field1"], 3);
        let sub = new.store_subspace(1, "app");
        run(&db, |tx| {
            let store = new.open_store(tx, 1, "app")?;
            assert_eq!(store.index_state("ck_sync")?, IndexState::Readable);
            for name in ["ck_user_field0", "ck_user_field1"] {
                assert_eq!(store.index_state(name)?, IndexState::Disabled, "{name}");
                let index = new.metadata().index(name)?;
                let (begin, end) = store.index_subspace(index).range_inclusive();
                assert!(tx.get_range(&begin, &end, Default::default())?.is_empty());
                assert_eq!(store.index_entry_count(name)?, None, "{name}");
            }
            Ok(())
        })
        .unwrap();
        for name in ["ck_user_field0", "ck_user_field1"] {
            OnlineIndexBuilder::new(&db, &sub, new.metadata(), name)
                .build()
                .unwrap();
        }
        run(&db, |tx| {
            let store = new.open_store(tx, 1, "app")?;
            let index = new.metadata().index("ck_user_field0")?;
            let (begin, end) = store.index_subspace(index).range_inclusive();
            let entries = tx.get_range(&begin, &end, Default::default())?;
            let values: Vec<Tuple> = entries
                .iter()
                .map(|kv| store.index_subspace(index).unpack(&kv.key).unwrap())
                .collect();
            assert_eq!(
                values,
                [
                    ("z", "x", "z", "a"),
                    ("z", "y", "z", "b"),
                    ("z", "y", "z", "c")
                ]
                .map(Tuple::from)
            );
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn move_tenant_copies_range_and_bumps_incarnation() {
        let src_db = Database::new();
        let dst_db = Database::new();
        let src = CloudKit::new(&src_db, &CloudKitConfig::default());
        let dst = CloudKit::new(&dst_db, &CloudKitConfig::default());
        run(&src_db, |tx| {
            for i in 0..10 {
                src.save(tx, 5, "app", &RecordData::new("z", format!("r{i}")))?;
            }
            Ok(())
        })
        .unwrap();
        let copied = src.move_tenant(&dst, 5, "app").unwrap();
        assert!(copied > 10, "records + indexes + header: {copied}");
        run(&dst_db, |tx| {
            let r = dst.load(tx, 5, "app", "z", "r3")?;
            assert!(r.is_some(), "record must exist on destination");
            assert_eq!(dst.incarnation(tx, 5)?, 2);
            Ok(())
        })
        .unwrap();
    }
}
