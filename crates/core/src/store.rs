//! The record store (§4): an entire logical database — records, indexes,
//! and operational state — encapsulated in one contiguous subspace.
//!
//! Layout within the store's subspace `S`:
//!
//! | key                               | contents                          |
//! |-----------------------------------|-----------------------------------|
//! | `S(0)`                            | store header (format, metadata, user versions) |
//! | `S(1, pk…, -1)`                   | record commit version (12 bytes)  |
//! | `S(1, pk…, 0)`                    | unsplit record payload            |
//! | `S(1, pk…, 1..n)`                 | split record chunks (§4 splitting)|
//! | `S(2, k, …)`                      | index entries / structures        |
//! | `S(3, k)`                         | index state byte, then its name   |
//! | `S(4, k, …)`                      | online-build progress (RangeSet)  |
//! | `S(5, 0)`                         | record count (LE i64, atomic ADD) |
//! | `S(5, 1, k)`                      | index entry count (LE i64, ADD)   |
//!
//! `k` is the index's [subspace key](Index::subspace_key), a small integer
//! the metadata assigns (two packed bytes below 256), never its name: a
//! store with long index names pays for them nowhere in its keys. The name
//! is written once, in the index's `S(3, k)` value ([`RecordedIndex`]), so
//! every open checks that the metadata still gives `k` to that index: a
//! store catching up clears a key the metadata dropped or gave to another
//! index, and an open at the store's own version whose metadata does that
//! fails with [`Error::SubspaceKeyMismatch`]. The version split `-1`
//! immediately precedes the record's payload keys so both are fetched with
//! a single range read (§4).
//!
//! `S(0)` and `S(3)` are a store's *state* ([`StoreState`]): what every
//! open must know and almost no transaction changes. An open takes it from
//! the database's state cache when the metadata version says it is current
//! and reads it otherwise; every change to it, for a store that already
//! existed, writes the metadata-version key in the same transaction.
//!
//! The `S(5)` statistics subspace is maintained by the write path with
//! conflict-free atomic `ADD` mutations, so concurrent writers never abort
//! each other over a counter. The cost-based planner reads these counts
//! (at snapshot isolation) to estimate scan costs instead of guessing.

use std::borrow::Cow;
use std::cell::RefCell;
use std::ops::ControlFlow;
use std::rc::Rc;
use std::sync::Arc;

use rl_fdb::atomic::MutationType;
use rl_fdb::subspace::Subspace;
use rl_fdb::tuple::{self, ElementRef, Tuple, TupleElement, TupleReader};
use rl_fdb::version::{Versionstamp, VERSIONSTAMP_LEN};
use rl_fdb::{KeyValue, RangeOptions, Transaction};
use rl_message::DynamicMessage;

use crate::cursor::{
    Continuation, CursorResult, ExecuteProperties, KeyValueCursor, NoNextReason, RecordCursor,
};
use crate::error::{Error, Result};
use crate::expr::EvalContext;
use crate::index::{IndexContext, IndexEntry, IndexRegistry, IndexState};
use crate::metadata::{Index, RecordMetaData};
use crate::serialize::{PlainSerializer, RecordSerializer};

const HEADER: i64 = 0;
const RECORDS: i64 = 1;
const INDEXES: i64 = 2;
const INDEX_STATE: i64 = 3;
const INDEX_RANGES: i64 = 4;
const INDEX_STATS: i64 = 5;

/// Key under `S(5)` holding the store-wide record count.
const STAT_RECORDS: i64 = 0;
/// Prefix under `S(5)` holding per-index entry counts.
const STAT_INDEX_ENTRIES: i64 = 1;

/// Split suffix of the key holding a record's commit version.
const VERSION_SPLIT: i64 = -1;

/// The on-disk format version written to store headers, and the only one
/// this code reads. Format 1 keyed index data by the index's name; format 2
/// keys it by the index's subspace key. An open of a store in any other
/// format fails with [`Error::UnsupportedFormatVersion`].
pub const FORMAT_VERSION: i64 = 2;

/// Default maximum bytes per record chunk when splitting (§4). Records
/// larger than one chunk are spread over `(pk, 1..n)` keys, comfortably
/// below FoundationDB's 100 kB value limit.
pub const DEFAULT_SPLIT_SIZE: usize = 90_000;

/// A record as stored: message, type, primary key, and commit version.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredRecord {
    pub primary_key: Tuple,
    pub record_type: String,
    pub message: DynamicMessage,
    /// The commit version of the record's last modification. Incomplete
    /// for records saved in the current (uncommitted) transaction.
    pub version: Option<Versionstamp>,
    /// Number of key-value pairs the payload occupies (1 = unsplit).
    pub split_count: usize,
}

impl StoredRecord {
    /// Serialized payload size in bytes (used by size-tracking indexes).
    pub fn serialized_size(&self) -> usize {
        self.message.encoded_len()
    }
}

/// The store header: versions tracked per §5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreHeader {
    pub format_version: i64,
    pub metadata_version: u64,
    /// Client-managed "application version" (§5).
    pub user_version: u64,
}

impl StoreHeader {
    fn encode(&self) -> Vec<u8> {
        Tuple::new()
            .push(self.format_version)
            .push(self.metadata_version as i64)
            .push(self.user_version as i64)
            .pack()
    }

    fn decode(bytes: &[u8]) -> Result<StoreHeader> {
        let mut fields = TupleReader::new(bytes);
        let mut int = || match fields.next().transpose().map_err(Error::Fdb)? {
            Some(ElementRef::Int(v)) => Ok(v),
            _ => Err(Error::MetaData("corrupt store header".into())),
        };
        let header = StoreHeader {
            format_version: int()?,
            metadata_version: int()? as u64,
            user_version: int()? as u64,
        };
        fields.try_for_each(|rest| rest.map(drop).map_err(Error::Fdb))?;
        Ok(header)
    }
}

/// What an open learns about a store that exists: its header and every
/// recorded index state. One value, read (or taken from the state cache)
/// once per open; [`RecordStore::index_state`], `require_readable` and the
/// write path's index maintenance consult it and never the database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreState {
    pub header: StoreHeader,
    /// Every recorded index, ascending by subspace key — the order the
    /// `S(3)` range read returns. An index with no entry is readable.
    index_states: Vec<RecordedIndex>,
}

/// One `S(3, k)` entry: the state of the index a store keeps under
/// subspace key `k`, and that index's name. The value is the state byte
/// followed by the name, so an open can tell whether the metadata still
/// gives `k` to the index whose data is there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedIndex {
    pub subspace_key: i64,
    pub name: String,
    pub state: IndexState,
}

impl RecordedIndex {
    /// The `S(3, k)` value: the state byte, then the name.
    fn value(state: IndexState, name: &str) -> Vec<u8> {
        let mut value = Vec::with_capacity(1 + name.len());
        value.push(state.to_byte());
        value.extend_from_slice(name.as_bytes());
        value
    }

    /// Whether `metadata` still has this index: the same name under the
    /// same subspace key.
    fn in_metadata(&self, metadata: &RecordMetaData) -> bool {
        metadata.index_name_by_subspace_key(self.subspace_key) == Some(self.name.as_str())
    }

    /// Whether `metadata` gives this index's key or name to another index:
    /// it was not evolved from the metadata that recorded this entry. One
    /// binary search by key, and a name lookup only for a dropped index.
    fn conflicts_with(&self, metadata: &RecordMetaData) -> bool {
        match metadata.index_name_by_subspace_key(self.subspace_key) {
            Some(name) => name != self.name,
            None => metadata.index(&self.name).is_ok(),
        }
    }
}

impl StoreState {
    /// The recorded state of the index with `subspace_key` (readable when
    /// none is recorded).
    pub fn index_state(&self, subspace_key: i64) -> IndexState {
        match self.position(subspace_key) {
            Ok(at) => self.index_states[at].state,
            Err(_) => IndexState::Readable,
        }
    }

    /// Every recorded index, ascending by subspace key.
    pub fn index_states(&self) -> &[RecordedIndex] {
        &self.index_states
    }

    fn position(&self, subspace_key: i64) -> std::result::Result<usize, usize> {
        self.index_states
            .binary_search_by_key(&subspace_key, |recorded| recorded.subspace_key)
    }

    fn set_index_state(&mut self, index: &Index, state: IndexState) {
        match self.position(index.subspace_key) {
            Ok(at) => self.index_states[at].state = state,
            Err(at) => self.index_states.insert(
                at,
                RecordedIndex {
                    subspace_key: index.subspace_key,
                    name: index.name.clone(),
                    state,
                },
            ),
        }
    }

    fn forget_index(&mut self, subspace_key: i64) {
        if let Ok(at) = self.position(subspace_key) {
            self.index_states.remove(at);
        }
    }

    /// The state of the store in `subspace` as `tx` sees it — one `get` of
    /// the header and one range read of the index-state subspace — or
    /// `None` if there is no such store. The index states of a store in
    /// another on-disk format are not parsed: its open is refused.
    fn read(tx: &Transaction, subspace: &Subspace, index_state: &Subspace) -> Result<Option<Self>> {
        let Some(header) = tx.get(&header_key(subspace))? else {
            return Ok(None);
        };
        let header = StoreHeader::decode(&header)?;
        let (begin, end) = index_state.range();
        let rows = tx.get_range(&begin, &end, RangeOptions::default())?;
        if header.format_version != FORMAT_VERSION {
            return Ok(Some(StoreState {
                header,
                index_states: Vec::new(),
            }));
        }
        let corrupt = || Error::MetaData("corrupt index state".into());
        let index_states = rows
            .iter()
            .map(|kv| {
                let mut key = index_state.reader(&kv.key).map_err(Error::Fdb)?;
                match (key.next().transpose().map_err(Error::Fdb)?, key.next()) {
                    (Some(ElementRef::Int(subspace_key)), None) => {
                        let (&state, name) = kv.value.split_first().ok_or_else(corrupt)?;
                        Ok(RecordedIndex {
                            subspace_key,
                            name: std::str::from_utf8(name).map_err(|_| corrupt())?.to_owned(),
                            state: IndexState::from_byte(state)?,
                        })
                    }
                    _ => Err(corrupt()),
                }
            })
            .collect::<Result<_>>()?;
        Ok(Some(StoreState {
            header,
            index_states,
        }))
    }

    /// Write a new store's header and mark every index of `metadata`
    /// readable (all trivially built). Not a metadata-version write: no
    /// cache can hold state for a store that did not exist.
    fn create(
        tx: &Transaction,
        subspace: &Subspace,
        index_state: &Subspace,
        metadata: &RecordMetaData,
    ) -> Result<Self> {
        let mut state = StoreState {
            header: StoreHeader {
                format_version: FORMAT_VERSION,
                metadata_version: metadata.version(),
                user_version: 0,
            },
            index_states: Vec::new(),
        };
        tx.try_set(&header_key(subspace), &state.header.encode())?;
        for index in metadata.indexes() {
            tx.try_set(
                &index_state.pack(&Tuple::new().push(index.subspace_key)),
                &RecordedIndex::value(IndexState::Readable, &index.name),
            )?;
            state.set_index_state(index, IndexState::Readable);
        }
        Ok(state)
    }
}

fn header_key(subspace: &Subspace) -> Vec<u8> {
    subspace.pack(&Tuple::new().push(HEADER))
}

/// An inclusive/exclusive range over tuples, mapped onto byte ranges within
/// an index or record subspace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TupleRange {
    pub low: Option<(Tuple, bool)>,
    pub high: Option<(Tuple, bool)>,
}

impl TupleRange {
    /// The unbounded range.
    pub fn all() -> Self {
        TupleRange::default()
    }

    /// All tuples extending `prefix` (equality on the leading columns).
    pub fn prefix(prefix: Tuple) -> Self {
        TupleRange {
            low: Some((prefix.clone(), true)),
            high: Some((prefix, true)),
        }
    }

    pub fn between(low: Option<(Tuple, bool)>, high: Option<(Tuple, bool)>) -> Self {
        TupleRange { low, high }
    }

    /// Map to a concrete byte range within `subspace`. Inclusive bounds
    /// cover all tuples extending the bound; exclusive bounds skip them.
    pub fn to_byte_range(&self, subspace: &Subspace) -> (Vec<u8>, Vec<u8>) {
        let (default_begin, default_end) = subspace.range();
        let begin = match &self.low {
            None => default_begin,
            Some((t, inclusive)) => {
                let packed = subspace.pack(t);
                if *inclusive {
                    packed
                } else {
                    let mut k = packed;
                    k.push(0xFF);
                    k
                }
            }
        };
        let end = match &self.high {
            None => default_end,
            Some((t, inclusive)) => {
                let packed = subspace.pack(t);
                if *inclusive {
                    let mut k = packed;
                    k.push(0xFF);
                    k
                } else {
                    packed
                }
            }
        };
        (begin, end)
    }
}

/// Builder for opening a [`RecordStore`] with non-default serializer,
/// registry, or split size.
pub struct RecordStoreBuilder {
    serializer: Arc<dyn RecordSerializer>,
    registry: Arc<IndexRegistry>,
    split_size: usize,
}

impl Default for RecordStoreBuilder {
    fn default() -> Self {
        RecordStoreBuilder {
            serializer: Arc::new(PlainSerializer),
            registry: IndexRegistry::shared_default(),
            split_size: DEFAULT_SPLIT_SIZE,
        }
    }
}

impl RecordStoreBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn serializer(mut self, s: Arc<dyn RecordSerializer>) -> Self {
        self.serializer = s;
        self
    }

    pub fn registry(mut self, r: Arc<IndexRegistry>) -> Self {
        self.registry = r;
        self
    }

    /// Chunk size for record splitting (lowered in tests to exercise the
    /// splitting path with small records).
    pub fn split_size(mut self, n: usize) -> Self {
        self.split_size = n;
        self
    }

    /// Open the store, creating it or catching it up to `metadata` as
    /// needed (§5 metadata management).
    ///
    /// Cost contract: an open reads what the state cache cannot vouch for.
    /// The first open of a store through a [`Database`](rl_fdb::Database)
    /// handle (or the first after a metadata-version write) is one `get`
    /// and one range read; until the next such write, every open by a
    /// transaction whose read version is not below the last one reads
    /// nothing. `tests/read_work_bounds.rs` holds both counts.
    pub fn open_or_create<'a>(
        self,
        tx: &'a Transaction,
        subspace: &Subspace,
        metadata: &'a RecordMetaData,
    ) -> Result<RecordStore<'a>> {
        let index_state = subspace.child(INDEX_STATE);
        let state = match tx.cached_state::<StoreState>(subspace.prefix()) {
            Some(cached) => cached,
            None => match StoreState::read(tx, subspace, &index_state)? {
                Some(read) => {
                    let read = Arc::new(read);
                    tx.cache_state(subspace.prefix(), read.clone());
                    read
                }
                None => Arc::new(StoreState::create(tx, subspace, &index_state, metadata)?),
            },
        };
        let store = RecordStore {
            tx,
            subspace: subspace.clone(),
            records: subspace.child(RECORDS),
            indexes: subspace.child(INDEXES),
            index_state,
            stats: subspace.child(INDEX_STATS),
            state: Rc::new(RefCell::new(state)),
            metadata,
            serializer: self.serializer,
            registry: self.registry,
            split_size: self.split_size,
        };
        store.check_version()?;
        Ok(store)
    }
}

/// A handle to one record store within one transaction. Stateless by
/// design: dropping it loses nothing — all state is in the database, and
/// what the handle holds of it ([`StoreState`]) is a copy the open
/// validated for this transaction.
pub struct RecordStore<'a> {
    tx: &'a Transaction,
    subspace: Subspace,
    /// The fixed regions `S(1)`, `S(2)`, `S(3)` and `S(5)`, packed once
    /// when the store is opened: every record and index key starts with
    /// one of them.
    records: Subspace,
    indexes: Subspace,
    index_state: Subspace,
    stats: Subspace,
    /// The store's state as this transaction sees it: what the open found,
    /// plus this transaction's own changes through any handle cloned from
    /// that open (copy-on-write — the `Arc` may be the cache's).
    state: Rc<RefCell<Arc<StoreState>>>,
    metadata: &'a RecordMetaData,
    serializer: Arc<dyn RecordSerializer>,
    registry: Arc<IndexRegistry>,
    split_size: usize,
}

impl<'a> RecordStore<'a> {
    /// Open with defaults; see [`RecordStoreBuilder`] for customization.
    pub fn open_or_create(
        tx: &'a Transaction,
        subspace: &Subspace,
        metadata: &'a RecordMetaData,
    ) -> Result<RecordStore<'a>> {
        RecordStoreBuilder::new().open_or_create(tx, subspace, metadata)
    }

    pub fn transaction(&self) -> &'a Transaction {
        self.tx
    }

    pub fn metadata(&self) -> &RecordMetaData {
        self.metadata
    }

    /// The metadata reference with the transaction's lifetime (for cursors
    /// that outlive the `RecordStore` value).
    pub fn metadata_ref(&self) -> &'a RecordMetaData {
        self.metadata
    }

    pub fn subspace(&self) -> &Subspace {
        &self.subspace
    }

    pub fn registry(&self) -> &IndexRegistry {
        &self.registry
    }

    /// Cheap copy of this handle for cursors that outlive the store
    /// value: shares the transaction, subspace, metadata, serializer and
    /// registry, and skips the open-time version check the original
    /// already performed.
    pub fn clone_handle(&self) -> RecordStore<'a> {
        RecordStore {
            tx: self.tx,
            subspace: self.subspace.clone(),
            records: self.records.clone(),
            indexes: self.indexes.clone(),
            index_state: self.index_state.clone(),
            stats: self.stats.clone(),
            state: self.state.clone(),
            metadata: self.metadata,
            serializer: self.serializer.clone(),
            registry: self.registry.clone(),
            split_size: self.split_size,
        }
    }

    /// The subspace dedicated to one index, `S(2, k)`.
    pub fn index_subspace(&self, index: &Index) -> Subspace {
        self.indexes.child(index.subspace_key)
    }

    fn index_state_key(&self, subspace_key: i64) -> Vec<u8> {
        self.index_state.pack(&Tuple::new().push(subspace_key))
    }

    /// Subspace recording online-build progress for an index, `S(4, k)`.
    pub fn index_range_subspace(&self, index: &Index) -> Subspace {
        self.range_subspace(index.subspace_key)
    }

    fn range_subspace(&self, subspace_key: i64) -> Subspace {
        self.subspace.child(INDEX_RANGES).child(subspace_key)
    }

    fn record_count_key(&self) -> Vec<u8> {
        let stat = TupleElement::Int(STAT_RECORDS);
        let mut key = Vec::with_capacity(self.stats.prefix().len() + stat.packed_len());
        key.extend_from_slice(self.stats.prefix());
        stat.pack_into(&mut key);
        key
    }

    fn index_entry_count_key(&self, subspace_key: i64) -> Vec<u8> {
        let stat = TupleElement::Int(STAT_INDEX_ENTRIES);
        let index = TupleElement::Int(subspace_key);
        let len = self.stats.prefix().len() + stat.packed_len() + index.packed_len();
        let mut key = Vec::with_capacity(len);
        key.extend_from_slice(self.stats.prefix());
        stat.pack_into(&mut key);
        index.pack_into(&mut key);
        key
    }

    /// Fold a delta into a statistics counter with a conflict-free atomic
    /// ADD (little-endian i64 operand). The counter's key is built only
    /// for a delta that is not zero.
    fn bump_stat(&self, key: impl FnOnce() -> Vec<u8>, delta: i64) -> Result<()> {
        if delta != 0 {
            self.tx
                .mutate_owned(MutationType::Add, key(), delta.to_le_bytes().to_vec())?;
        }
        Ok(())
    }

    fn read_stat(&self, key: &[u8]) -> Result<Option<u64>> {
        // Snapshot read: statistics are advisory, and planning must not
        // add read conflicts on hot counter keys.
        match self.tx.get_snapshot(key)? {
            None => Ok(None),
            Some(bytes) => {
                let mut buf = [0u8; 8];
                let n = bytes.len().min(8);
                buf[..n].copy_from_slice(&bytes[..n]);
                Ok(Some(i64::from_le_bytes(buf).max(0) as u64))
            }
        }
    }

    /// The maintained count of records in this store, if statistics exist
    /// (stores written before statistics were introduced report `None`).
    pub fn record_count_estimate(&self) -> Result<Option<u64>> {
        self.read_stat(&self.record_count_key())
    }

    /// The maintained count of entries in an index, if statistics exist.
    pub fn index_entry_count(&self, index_name: &str) -> Result<Option<u64>> {
        let index = self.metadata.index(index_name)?;
        self.read_stat(&self.index_entry_count_key(index.subspace_key))
    }

    /// Overwrite an index's entry-count statistic with an exact value
    /// (the online index builder recounts after a backfill, since writes
    /// racing the build can double-count in the additive counter).
    pub fn set_index_entry_count(&self, index_name: &str, count: u64) -> Result<()> {
        let index = self.metadata.index(index_name)?;
        self.tx
            .try_set(
                &self.index_entry_count_key(index.subspace_key),
                &(count as i64).to_le_bytes(),
            )
            .map_err(Error::Fdb)
    }

    // -------------------------------------------------------------- state

    /// The store's header and recorded index states as this transaction
    /// sees them.
    pub fn state(&self) -> Arc<StoreState> {
        self.state.borrow().clone()
    }

    /// The store header (always present on an open store).
    pub fn header(&self) -> StoreHeader {
        self.state.borrow().header
    }

    /// Apply `change` to this transaction's view of the state, after the
    /// caller has written the same change to the database: the one place
    /// the state of an existing store changes, so the one place that
    /// writes the metadata-version key for it.
    fn change_state(&self, change: impl FnOnce(&mut StoreState)) -> Result<()> {
        self.tx.bump_metadata_version()?;
        change(Arc::make_mut(&mut self.state.borrow_mut()));
        Ok(())
    }

    fn write_header(&self, header: StoreHeader) -> Result<()> {
        self.tx
            .try_set(&header_key(&self.subspace), &header.encode())?;
        self.change_state(|state| state.header = header)
    }

    /// Set the client-managed application version (§5).
    pub fn set_user_version(&self, user_version: u64) -> Result<()> {
        let mut header = self.state.borrow().header;
        header.user_version = user_version;
        self.write_header(header)
    }

    /// §5: on open, compare the store's recorded versions with this code
    /// and the supplied metadata; fail on another format or on staleness,
    /// or catch up. At the store's own version, fail if the metadata gives
    /// a recorded index's subspace key or name to another index.
    fn check_version(&self) -> Result<()> {
        let header = self.state.borrow().header;
        if header.format_version != FORMAT_VERSION {
            return Err(Error::UnsupportedFormatVersion {
                store_version: header.format_version,
                supported_version: FORMAT_VERSION,
            });
        }
        if header.metadata_version > self.metadata.version() {
            // The client used an out-of-date metadata cache.
            return Err(Error::StaleMetaData {
                store_version: header.metadata_version,
                supplied_version: self.metadata.version(),
            });
        }
        if header.metadata_version < self.metadata.version() {
            return self.catch_up_metadata(header);
        }
        let state = self.state.borrow();
        match state
            .index_states()
            .iter()
            .find(|recorded| recorded.conflicts_with(self.metadata))
        {
            Some(recorded) => Err(Error::SubspaceKeyMismatch {
                index: recorded.name.clone(),
                subspace_key: recorded.subspace_key,
                metadata_version: header.metadata_version,
            }),
            None => Ok(()),
        }
    }

    /// Apply metadata changes newer than the store's recorded version:
    /// clear dropped indexes and enable new ones (§5 "Adding indexes").
    fn catch_up_metadata(&self, mut header: StoreHeader) -> Result<()> {
        // A recorded index the metadata no longer has, by name under the
        // same subspace key, was dropped: clear its four key ranges
        // cheaply (§6). Evolved with `from_existing`, the metadata never
        // assigns the key again; metadata rebuilt from code may give the
        // key or the name to another index, whose data this is not.
        let recorded = self.state();
        for dropped in recorded
            .index_states()
            .iter()
            .filter(|recorded| !recorded.in_metadata(self.metadata))
        {
            let key = dropped.subspace_key;
            for sub in [self.indexes.child(key), self.range_subspace(key)] {
                let (begin, end) = sub.range_inclusive();
                self.tx.clear_range(&begin, &end);
            }
            self.tx.clear(&self.index_entry_count_key(key));
            self.tx.clear(&self.index_state_key(key));
            self.change_state(|state| state.forget_index(key))?;
        }
        // An index the store records no state for, added since or under a
        // key just cleared, is new to it.
        let has_records = self.has_any_record()?;
        let known = self.state();
        for index in self.metadata.indexes() {
            if known.position(index.subspace_key).is_err() {
                let state = if has_records {
                    // Cannot build inline: reindexing may exceed the
                    // transaction limit. Disabled until an online build.
                    IndexState::Disabled
                } else {
                    IndexState::Readable
                };
                self.write_index_state(index, state)?;
            }
        }
        header.metadata_version = self.metadata.version();
        self.write_header(header)
    }

    /// Whether the store holds at least one record.
    pub fn has_any_record(&self) -> Result<bool> {
        let (begin, end) = self.records.range();
        Ok(!self
            .tx
            .get_range_snapshot(&begin, &end, RangeOptions::new().limit(1))?
            .is_empty())
    }

    // ------------------------------------------------------- index states

    pub fn index_state(&self, index_name: &str) -> Result<IndexState> {
        let index = self.metadata.index(index_name)?;
        Ok(self.state.borrow().index_state(index.subspace_key))
    }

    pub fn set_index_state(&self, index_name: &str, state: IndexState) -> Result<()> {
        let index = self.metadata.index(index_name)?;
        self.write_index_state(index, state)
    }

    fn write_index_state(&self, index: &Index, state: IndexState) -> Result<()> {
        self.tx.try_set(
            &self.index_state_key(index.subspace_key),
            &RecordedIndex::value(state, &index.name),
        )?;
        self.change_state(|recorded| recorded.set_index_state(index, state))
    }

    /// Require an index to be readable before scanning it.
    pub fn require_readable(&self, index_name: &str) -> Result<&Index> {
        let index = self.metadata.index(index_name)?;
        let state = self.state.borrow().index_state(index.subspace_key);
        if state != IndexState::Readable {
            return Err(Error::IndexNotReadable {
                index: index_name.to_string(),
                state: state.name().to_string(),
            });
        }
        Ok(index)
    }

    // ------------------------------------------------------------ records

    /// Create an empty message of a registered record type.
    pub fn new_record(&self, record_type: &str) -> Result<DynamicMessage> {
        self.metadata.record_type(record_type)?;
        let desc = self
            .metadata
            .pool()
            .message(record_type)
            .ok_or_else(|| Error::UnknownRecordType(record_type.to_string()))?;
        Ok(DynamicMessage::new(desc))
    }

    /// Evaluate the primary key for a message per its record type.
    pub fn primary_key_of(&self, message: &DynamicMessage) -> Result<Tuple> {
        let rt = self.metadata.record_type(message.type_name())?;
        let ctx = EvalContext::new(message, message.type_name());
        rt.primary_key.evaluate_single(&ctx)
    }

    /// Save (insert or replace) a record, maintaining every applicable
    /// index in the same transaction (§6).
    ///
    /// Cost contract: one lending read of the old record
    /// ([`load_record`](Self::load_record)'s), then only the writes that
    /// change something, each key built once and moved into the
    /// transaction. The primary key is packed once and shared by the
    /// payload, version and index keys. The payload is one buffer: the
    /// message is encoded straight into its `(type, wire)` envelope, which
    /// the serializer takes by value. Every index evaluates the old and
    /// the new record once, and an index whose entries did not change
    /// writes nothing and builds no key (see [`IndexMaintainer`]), nor does
    /// its entry-count statistic when its delta is zero. A changed entry's
    /// key is packed into one buffer of its final size.
    /// `tests/save_allocations.rs` holds the count.
    ///
    /// [`IndexMaintainer`]: crate::index::IndexMaintainer
    pub fn save_record(&self, message: DynamicMessage) -> Result<StoredRecord> {
        let primary_key = self.primary_key_of(&message)?;
        let packed_pk = primary_key.pack();

        let old = self.load_record_packed(&packed_pk, || primary_key.clone())?;

        let version = if self.metadata.store_record_versions {
            Some(Versionstamp::incomplete(self.tx.next_user_version()))
        } else {
            None
        };
        let serialized = self.serialize_record(message.type_name(), &message)?;
        let split_count = serialized.len().div_ceil(self.split_size).max(1);
        let new = StoredRecord {
            primary_key,
            record_type: message.type_name().to_string(),
            message,
            version,
            split_count,
        };

        self.update_indexes(old.as_ref(), Some(&new), &packed_pk)?;
        if old.is_none() {
            self.bump_stat(|| self.record_count_key(), 1)?;
        }

        // Replace the old payload. The writes below overwrite every old key
        // when the split count is unchanged (an unsplit payload is key 0,
        // n chunks are keys 1..=n) and the old version key, if there is
        // one, is rewritten too; otherwise some old key would survive, and
        // a range clear takes the old record out first (§6).
        if let Some(old) = &old {
            let overwritten = old.split_count == split_count
                && (old.version.is_none() || self.metadata.store_record_versions);
            if !overwritten {
                let (begin, end) = self.record_range(&packed_pk);
                self.tx.clear_range(&begin, &end);
            }
        }

        // Write the new payload chunks.
        if split_count == 1 {
            self.tx
                .try_set_owned(self.record_key(&packed_pk, 0), serialized)?;
        } else {
            if !self.metadata.split_long_records {
                return Err(Error::RecordTooLarge {
                    size: serialized.len(),
                });
            }
            for (i, chunk) in serialized.chunks(self.split_size).enumerate() {
                self.tx
                    .try_set(&self.record_key(&packed_pk, (i + 1) as i64), chunk)?;
            }
        }

        // Write the version split (-1) via a versionstamped value so the
        // commit version is filled in by the database (§4, §7).
        if let Some(version) = new.version {
            let mut param = Vec::with_capacity(VERSIONSTAMP_LEN + 4);
            param.extend_from_slice(version.as_bytes());
            param.extend_from_slice(&0u32.to_le_bytes());
            self.tx.mutate_owned(
                MutationType::SetVersionstampedValue,
                self.record_key(&packed_pk, VERSION_SPLIT),
                param,
            )?;
        }

        Ok(new)
    }

    /// The key of one of a record's rows, `S(1, pk…, split)`, from the
    /// packed primary key, in one buffer of its final size.
    fn record_key(&self, packed_pk: &[u8], split: i64) -> Vec<u8> {
        let (prefix, split) = (self.records.prefix(), TupleElement::Int(split));
        let mut key = Vec::with_capacity(prefix.len() + packed_pk.len() + split.packed_len());
        key.extend_from_slice(prefix);
        key.extend_from_slice(packed_pk);
        split.pack_into(&mut key);
        key
    }

    /// The range of every row of the record with packed primary key
    /// `packed_pk`.
    fn record_range(&self, packed_pk: &[u8]) -> (Vec<u8>, Vec<u8>) {
        Subspace::from_bytes([self.records.prefix(), packed_pk].concat()).range_inclusive()
    }

    /// Load a record by primary key: one range read fetches the version
    /// split and all payload chunks together (§4).
    ///
    /// Cost contract: one lending range read, one decode; allocates only
    /// what the returned record owns. The read
    /// ([`Transaction::visit_range`]) lends its rows to the record
    /// assembler and takes the two bounds by move into its conflict range,
    /// so what is allocated is the packed key and the two bounds built from
    /// it, one buffer the payload chunks are copied into, and then the
    /// record's own primary key, type name and message fields (plus the
    /// buffers `RecordAssembler::finish` names for escaped payloads and
    /// non-identity serializers). A missing record stops after the read.
    /// `tests/fetch_allocations.rs` holds the count.
    pub fn load_record(&self, primary_key: &Tuple) -> Result<Option<StoredRecord>> {
        self.load_record_packed(&primary_key.pack(), || primary_key.clone())
    }

    /// [`load_record`](Self::load_record) for a caller that holds the
    /// primary key in packed form already (the tail of an index entry's
    /// key) and hands the decoded one over by move.
    pub(crate) fn load_record_packed(
        &self,
        packed_pk: &[u8],
        primary_key: impl FnOnce() -> Tuple,
    ) -> Result<Option<StoredRecord>> {
        let prefix = self.records.prefix();
        let suffix_at = prefix.len() + packed_pk.len();
        let bound = |last: u8| {
            let mut bound = Vec::with_capacity(suffix_at + 1);
            bound.extend_from_slice(prefix);
            bound.extend_from_slice(packed_pk);
            bound.push(last);
            bound
        };
        let (begin, end) = (bound(0x00), bound(0xFF));
        let mut record = RecordAssembler::new(suffix_at);
        let mut failed = None;
        let mut lend = |key: &[u8], value: &[u8]| match record.row(key, Cow::Borrowed(value)) {
            Ok(()) => ControlFlow::Continue(()),
            Err(error) => {
                failed = Some(error);
                ControlFlow::Break(())
            }
        };
        self.tx
            .visit_range(begin, end, RangeOptions::default(), &mut lend)?;
        match failed {
            Some(error) => Err(error),
            None => record.finish(self, primary_key),
        }
    }

    /// Delete a record by primary key, maintaining indexes. Returns whether
    /// a record existed.
    pub fn delete_record(&self, primary_key: &Tuple) -> Result<bool> {
        let packed_pk = primary_key.pack();
        let Some(old) = self.load_record_packed(&packed_pk, || primary_key.clone())? else {
            return Ok(false);
        };
        self.update_indexes(Some(&old), None, &packed_pk)?;
        self.bump_stat(|| self.record_count_key(), -1)?;
        let (begin, end) = self.record_range(&packed_pk);
        self.tx.clear_range(&begin, &end);
        Ok(true)
    }

    /// Delete every record and all index data, keeping the store header —
    /// a cheap range clear thanks to the contiguous layout (§3).
    pub fn delete_all_records(&self) -> Result<()> {
        for sub in [
            &self.records,
            &self.indexes,
            &self.subspace.child(INDEX_RANGES),
            &self.stats,
        ] {
            let (begin, end) = sub.range_inclusive();
            self.tx.clear_range(&begin, &end);
        }
        Ok(())
    }

    /// The commit version of a record's last modification, if stored.
    pub fn load_record_version(&self, primary_key: &Tuple) -> Result<Option<Versionstamp>> {
        let key = self.record_key(&primary_key.pack(), VERSION_SPLIT);
        match self.tx.get(&key)? {
            Some(v) => Ok(Some(Versionstamp::try_from_slice(&v).map_err(Error::Fdb)?)),
            None => Ok(None),
        }
    }

    // ----------------------------------------------------------- indexing

    /// Run every applicable maintainer for a change of the record with
    /// packed primary key `packed_pk`.
    fn update_indexes(
        &self,
        old: Option<&StoredRecord>,
        new: Option<&StoredRecord>,
        packed_pk: &[u8],
    ) -> Result<()> {
        // Borrowed across the maintainers: they see the transaction and
        // the index's subspace, never this handle.
        let state = self.state.borrow();
        for index in self.metadata.indexes() {
            if !state.index_state(index.subspace_key).is_maintained() {
                continue;
            }
            let old_in = old.filter(|o| index.applies_to(&o.record_type));
            let new_in = new.filter(|n| index.applies_to(&n.record_type));
            if old_in.is_none() && new_in.is_none() {
                continue;
            }
            let ctx = IndexContext::new(self.tx, index, self.metadata, &self.indexes, packed_pk);
            let delta = self
                .registry
                .maintainer(index)?
                .update(&ctx, old_in, new_in)?;
            self.bump_stat(|| self.index_entry_count_key(index.subspace_key), delta)?;
        }
        Ok(())
    }

    /// Re-apply one index's maintainer for a single record (used by the
    /// online index builder).
    pub fn update_one_index(&self, index: &Index, record: &StoredRecord) -> Result<()> {
        let packed_pk = record.primary_key.pack();
        let ctx = IndexContext::new(self.tx, index, self.metadata, &self.indexes, &packed_pk);
        let delta = self
            .registry
            .maintainer(index)?
            .update(&ctx, None, Some(record))?;
        self.bump_stat(|| self.index_entry_count_key(index.subspace_key), delta)
    }

    /// Clear one index's data (before a rebuild).
    pub fn clear_index_data(&self, index: &Index) -> Result<()> {
        let data = self.index_subspace(index);
        let (begin, end) = data.range_inclusive();
        self.tx.clear_range(&begin, &end);
        let ranges = self.index_range_subspace(index);
        let (begin, end) = ranges.range_inclusive();
        self.tx.clear_range(&begin, &end);
        self.tx
            .clear(&self.index_entry_count_key(index.subspace_key));
        Ok(())
    }

    // -------------------------------------------------------------- scans

    /// Scan records by primary-key range, streaming with continuations.
    pub fn scan_records(
        &self,
        range: &TupleRange,
        continuation: &Continuation,
        props: &ExecuteProperties,
    ) -> Result<RecordScanCursor<'a>> {
        RecordScanCursor::new(self, range, false, continuation, props)
    }

    /// Reverse-order record scan.
    pub fn scan_records_reverse(
        &self,
        range: &TupleRange,
        continuation: &Continuation,
        props: &ExecuteProperties,
    ) -> Result<RecordScanCursor<'a>> {
        RecordScanCursor::new(self, range, true, continuation, props)
    }

    /// Scan a VALUE-shaped index (VALUE or VERSION) by entry-key range.
    pub fn scan_index(
        &self,
        index_name: &str,
        range: &TupleRange,
        continuation: &Continuation,
        reverse: bool,
        props: &ExecuteProperties,
    ) -> Result<IndexScanCursor<'a>> {
        let range = |subspace: &Subspace| range.to_byte_range(subspace);
        IndexScanCursor::new(self, index_name, true, range, reverse, continuation, props)
    }

    /// Scan an index without the readability check (for maintenance tools).
    pub fn scan_index_unchecked(
        &self,
        index_name: &str,
        range: &TupleRange,
        continuation: &Continuation,
        reverse: bool,
        props: &ExecuteProperties,
    ) -> Result<IndexScanCursor<'a>> {
        let range = |subspace: &Subspace| range.to_byte_range(subspace);
        IndexScanCursor::new(self, index_name, false, range, reverse, continuation, props)
    }

    // --------------------------------------------------------- aggregates

    /// Read an atomic aggregate index's value for a group (§7). COUNT/SUM
    /// variants return integers; MIN/MAX_EVER return the stored tuple.
    pub fn evaluate_aggregate(&self, index_name: &str, group: &Tuple) -> Result<AggregateValue> {
        let index = self.require_readable(index_name)?;
        crate::index::atomic::evaluate(self.tx, index, &self.index_subspace(index), group)
    }

    // ------------------------------------------------------ serialization

    /// The stored payload of `message`: the tuple `(type, wire)` — the
    /// type recorded so interleaved records of different types can be told
    /// apart on read (§4 single extent) — through the serializer.
    ///
    /// The wire bytes are encoded once, straight into the envelope, and
    /// escaped where they lie; the buffer has room for the serializer's
    /// one-byte format marker and a few escaped NULs, so the identity
    /// serializer stores it without a second buffer.
    fn serialize_record(&self, record_type: &str, message: &DynamicMessage) -> Result<Vec<u8>> {
        let wire_len = message.encoded_len();
        let room = 1 + wire_len / 32 + 8;
        let mut envelope =
            Vec::with_capacity(tuple::packed_str_len(record_type) + wire_len + 2 + room);
        tuple::pack_str_into(record_type, &mut envelope);
        let wire_at = envelope.len();
        message.encode_into(&mut envelope);
        tuple::pack_bytes_in_place(&mut envelope, wire_at);
        self.serializer.serialize(envelope)
    }

    /// Undo `serialize_record`: the `(type, wire)` envelope is read off
    /// the deserialized bytes in place, and only the type name is copied.
    fn deserialize_record(&self, payload: &[u8]) -> Result<(String, DynamicMessage)> {
        let tagged = self.serializer.deserialize(payload)?;
        let mut envelope = TupleReader::new(&tagged);
        let mut element = || envelope.next().transpose().map_err(Error::Fdb);
        let Some(ElementRef::String(record_type)) = element()? else {
            return Err(Error::Serialization("missing record type tag".into()));
        };
        let Some(ElementRef::Bytes(wire)) = element()? else {
            return Err(Error::Serialization("missing record payload".into()));
        };
        // Whatever follows must at least be a tuple, as it always had to.
        envelope.try_for_each(|rest| rest.map(drop).map_err(Error::Fdb))?;
        let desc = self
            .metadata
            .pool()
            .message(&record_type)
            .ok_or_else(|| Error::UnknownRecordType(record_type.to_string()))?;
        let message = DynamicMessage::decode(desc, self.metadata.pool(), &wire)?;
        Ok((record_type.into_owned(), message))
    }
}

/// The one place a record is put together from its stored form — point
/// loads, index fetches and record scans all feed it: the rows of one
/// record, one at a time in ascending key order, each carrying its split
/// suffix at `suffix_at`.
///
/// Cost contract: the split suffixes and the version are read in place,
/// and the payload chunks are copied once into one buffer (an owned first
/// chunk is moved in instead); [`finish`](Self::finish) decodes from that
/// buffer.
struct RecordAssembler {
    suffix_at: usize,
    version: Option<Versionstamp>,
    /// The payload chunks, joined.
    payload: Vec<u8>,
    chunks: usize,
}

impl RecordAssembler {
    fn new(suffix_at: usize) -> Self {
        RecordAssembler {
            suffix_at,
            version: None,
            payload: Vec::new(),
            chunks: 0,
        }
    }

    /// Take the record's next row.
    fn row(&mut self, key: &[u8], value: Cow<'_, [u8]>) -> Result<()> {
        let mut suffix = TupleReader::new(key.get(self.suffix_at..).unwrap_or_default());
        match (
            suffix.next().transpose().map_err(Error::Fdb)?,
            suffix.next(),
        ) {
            (Some(ElementRef::Int(VERSION_SPLIT)), None) => {
                self.version = Some(Versionstamp::try_from_slice(&value).map_err(Error::Fdb)?);
                // Sorts before every payload chunk.
                self.payload.clear();
                self.chunks = 0;
            }
            (Some(ElementRef::Int(_)), None) => {
                match self.chunks {
                    0 => self.payload = value.into_owned(),
                    _ => self.payload.extend_from_slice(&value),
                }
                self.chunks += 1;
            }
            _ => return Err(Error::Serialization("bad record split suffix".into())),
        }
        Ok(())
    }

    /// The record, decoded once from the joined payload, or `None` when no
    /// payload chunk arrived (nothing, or only a version key survived —
    /// which can happen transiently if a caller cleared payload keys
    /// directly). What is allocated is the primary key (`primary_key` runs
    /// only for a record that exists), the type name and the message's
    /// fields — plus one buffer for the wire bytes when the envelope had
    /// to escape a NUL in them, and whatever a non-identity serializer
    /// needs to undo its transform.
    fn finish(
        self,
        store: &RecordStore<'_>,
        primary_key: impl FnOnce() -> Tuple,
    ) -> Result<Option<StoredRecord>> {
        if self.chunks == 0 {
            return Ok(None);
        }
        let (record_type, message) = store.deserialize_record(&self.payload)?;
        // Every record materialized from the record subspace counts as a
        // fetch; covering index scans bypass this path entirely.
        store.tx.note_record_fetch();
        Ok(Some(StoredRecord {
            primary_key: primary_key(),
            record_type,
            message,
            version: self.version,
            split_count: self.chunks,
        }))
    }
}

/// The result of [`RecordStore::evaluate_aggregate`].
#[derive(Debug, Clone, PartialEq)]
pub enum AggregateValue {
    /// COUNT/SUM-family result.
    Long(i64),
    /// MIN_EVER / MAX_EVER result: the extreme operand tuple.
    Tuple(Tuple),
    /// No records have contributed to this group.
    Absent,
}

impl AggregateValue {
    pub fn as_long(&self) -> Option<i64> {
        match self {
            AggregateValue::Long(v) => Some(*v),
            AggregateValue::Absent => Some(0),
            AggregateValue::Tuple(_) => None,
        }
    }
}

// ---------------------------------------------------------------- cursors

/// Streams whole records from the record extent, reassembling splits and
/// producing a continuation at each record boundary.
pub struct RecordScanCursor<'a> {
    store: RecordStore<'a>,
    kv: KeyValueCursor<'a>,
    reverse: bool,
    /// Rows of the record currently being read, in scan order.
    pending: Vec<KeyValue>,
    /// That record's primary key, and where in each of its keys the packed
    /// primary key ends and the split suffix begins.
    pending_pk: Option<(Tuple, usize)>,
    /// The position: the packed primary key of the last record emitted,
    /// or the one the scan was resumed after.
    last_emitted_pk: Option<Vec<u8>>,
    done: bool,
}

impl<'a> RecordScanCursor<'a> {
    fn new(
        store: &RecordStore<'a>,
        range: &TupleRange,
        reverse: bool,
        continuation: &Continuation,
        props: &ExecuteProperties,
    ) -> Result<Self> {
        let (mut begin, mut end) = range.to_byte_range(&store.records);
        // Continuations are primary keys: resume strictly after (or before,
        // in reverse) every key of that record.
        let mut last_emitted_pk = None;
        if let Continuation::At(pk_bytes) = continuation {
            let pk = Tuple::unpack(pk_bytes).map_err(|e| {
                Error::InvalidContinuation(format!("bad record scan continuation: {e}"))
            })?;
            let pk_prefix = store.records.pack(&pk);
            if reverse {
                end = pk_prefix;
            } else {
                let mut b = pk_prefix;
                b.push(0xFF);
                begin = b;
            }
            last_emitted_pk = Some(pk_bytes.clone());
        }
        let kv = KeyValueCursor::new(
            store.tx,
            begin,
            end,
            reverse,
            props.snapshot,
            props.limiter(),
            &Continuation::Start,
        )
        // A record is complete only once the next record's first key (or
        // the end of the range) has been seen: one key of lookahead.
        .expecting(props.return_limit.map(|n| n.saturating_add(1)));
        Ok(RecordScanCursor {
            store: store.clone_handle(),
            kv,
            reverse,
            pending: Vec::new(),
            pending_pk: None,
            last_emitted_pk,
            done: continuation.is_end(),
        })
    }

    fn continuation(&self) -> Continuation {
        match &self.last_emitted_pk {
            Some(pk) => Continuation::At(pk.clone()),
            None => Continuation::Start,
        }
    }

    /// Whether `key` is one more row of the pending record: that record's
    /// key up to the split suffix, followed by exactly one element.
    fn continues_pending(&self, key: &[u8]) -> bool {
        let (Some((_, suffix_at)), Some(first)) = (&self.pending_pk, self.pending.first()) else {
            return false;
        };
        let Some(suffix) = key.strip_prefix(&first.key[..*suffix_at]) else {
            return false;
        };
        let mut suffix = TupleReader::new(suffix);
        matches!((suffix.next(), suffix.next()), (Some(Ok(_)), None))
    }

    /// Start a pending record at `row`: decode the primary key its key
    /// carries between the records prefix and the trailing split suffix.
    fn begin_pending(&mut self, row: KeyValue) -> Result<()> {
        let mut reader = self.store.records.reader(&row.key).map_err(Error::Fdb)?;
        let mut elements = Vec::new();
        let mut suffix_at = self.store.records.prefix().len();
        while let Some(element) = reader.next().transpose().map_err(Error::Fdb)? {
            if reader.remaining().is_empty() {
                break; // the split suffix
            }
            elements.push(element.into_owned());
            suffix_at = row.key.len() - reader.remaining().len();
        }
        self.pending_pk = Some((Tuple::from_elements(elements), suffix_at));
        self.pending.push(row);
        Ok(())
    }

    /// Assemble the pending record, if any, and move the position to it.
    fn emit_pending(&mut self) -> Result<Option<CursorResult<StoredRecord>>> {
        let Some((pk, suffix_at)) = self.pending_pk.take() else {
            return Ok(None);
        };
        if self.reverse {
            // Reverse scans deliver a record's rows in descending order.
            self.pending.reverse();
        }
        let mut record = RecordAssembler::new(suffix_at);
        for row in &mut self.pending {
            record.row(&row.key, Cow::Owned(std::mem::take(&mut row.value)))?;
        }
        let record = record.finish(&self.store, || pk)?;
        if record.is_some() {
            let packed_pk = &self.pending[0].key[self.store.records.prefix().len()..suffix_at];
            let last = self.last_emitted_pk.get_or_insert_with(Vec::new);
            last.clear();
            last.extend_from_slice(packed_pk);
        }
        self.pending.clear();
        Ok(record.map(|value| CursorResult::Next {
            value,
            continuation: self.continuation(),
        }))
    }
}

impl RecordCursor for RecordScanCursor<'_> {
    type Item = StoredRecord;

    fn next(&mut self) -> Result<CursorResult<StoredRecord>> {
        if self.done {
            return Ok(CursorResult::NoNext {
                reason: NoNextReason::SourceExhausted,
                continuation: Continuation::End,
            });
        }
        loop {
            match self.kv.next_row()? {
                Ok(row) => {
                    if self.continues_pending(&row.key) {
                        self.pending.push(row);
                        continue;
                    }
                    // A new record began: emit the assembled previous one.
                    let emitted = self.emit_pending()?;
                    self.begin_pending(row)?;
                    if let Some(emitted) = emitted {
                        return Ok(emitted);
                    }
                }
                Err(NoNextReason::SourceExhausted) => {
                    self.done = true;
                    return Ok(self.emit_pending()?.unwrap_or(CursorResult::NoNext {
                        reason: NoNextReason::SourceExhausted,
                        continuation: Continuation::End,
                    }));
                }
                Err(reason) => {
                    // Out-of-band stop: do not emit a partially-read record;
                    // resume from the last complete boundary.
                    self.done = true;
                    return Ok(CursorResult::NoNext {
                        reason,
                        continuation: self.continuation(),
                    });
                }
            }
        }
    }
}

/// Streams [`IndexEntry`] values from a VALUE-shaped index subspace. Its
/// constructor is the one index-entry reader: the plan's index leaves and
/// merge entry streams build theirs with it, and read `kv` directly where a
/// decoded entry is more than they need.
pub struct IndexScanCursor<'a> {
    pub(crate) kv: KeyValueCursor<'a>,
    pub(crate) subspace: Subspace,
    pub(crate) key_columns: usize,
}

impl<'a> IndexScanCursor<'a> {
    /// Read `index_name`'s entries in the byte range `range` maps its
    /// subspace to, failing on an unreadable index if `require_readable`.
    /// The entry key is the position: the cursor resumes strictly past it.
    pub(crate) fn new(
        store: &RecordStore<'a>,
        index_name: &str,
        require_readable: bool,
        range: impl FnOnce(&Subspace) -> (Vec<u8>, Vec<u8>),
        reverse: bool,
        continuation: &Continuation,
        props: &ExecuteProperties,
    ) -> Result<Self> {
        let index = if require_readable {
            store.require_readable(index_name)?
        } else {
            store.metadata.index(index_name)?
        };
        let subspace = store.index_subspace(index);
        let (begin, end) = range(&subspace);
        let kv = KeyValueCursor::new(
            store.tx,
            begin,
            end,
            reverse,
            props.snapshot,
            props.limiter(),
            continuation,
        )
        .expecting(props.return_limit);
        Ok(IndexScanCursor {
            kv,
            subspace,
            key_columns: index.key_expression.key_column_count(),
        })
    }
}

impl RecordCursor for IndexScanCursor<'_> {
    type Item = IndexEntry;

    fn next(&mut self) -> Result<CursorResult<IndexEntry>> {
        self.kv.next()?.try_map(|kv| {
            let mut key = self.subspace.unpack(&kv.key).map_err(Error::Fdb)?;
            let primary_key = key.split_off(self.key_columns);
            let value = if kv.value.is_empty() {
                Tuple::new()
            } else {
                Tuple::unpack(&kv.value).map_err(Error::Fdb)?
            };
            Ok(IndexEntry {
                key,
                value,
                primary_key,
            })
        })
    }
}
