//! A store's state: its header (§5 versions), every recorded index state,
//! and the `S(5)` statistics counters the write path maintains.

use std::sync::Arc;

use rl_fdb::atomic::MutationType;
use rl_fdb::subspace::Subspace;
use rl_fdb::tuple::{ElementRef, Tuple, TupleElement, TupleReader};
use rl_fdb::{RangeOptions, Transaction};

use super::{RecordStore, StoreLayout, FORMAT_VERSION};
use crate::error::{Error, Result};
use crate::index::IndexState;
use crate::metadata::{Index, RecordMetaData};

const HEADER: i64 = 0;

/// Key under `S(5)` holding the store-wide record count.
const STAT_RECORDS: i64 = 0;
/// Prefix under `S(5)` holding per-index entry counts.
const STAT_INDEX_ENTRIES: i64 = 1;

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
    /// The store's subspace and regions, packed when the state was read.
    pub(super) layout: StoreLayout,
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

    /// The state of the store laid out as `layout` as `tx` sees it — one
    /// `get` of the header and one range read of the index-state subspace
    /// — and `true`; or, if there is no such store, a new one's
    /// ([`create`](Self::create)) and `false`. The index states of a store
    /// in another on-disk format are not parsed: its open is refused.
    pub(super) fn read_or_create(
        tx: &Transaction,
        layout: StoreLayout,
        metadata: &RecordMetaData,
    ) -> Result<(Self, bool)> {
        let Some(header) = tx.get(&header_key(&layout.subspace))? else {
            return Ok((Self::create(tx, layout, metadata)?, false));
        };
        let header = StoreHeader::decode(&header)?;
        let index_state = &layout.index_state;
        let (begin, end) = index_state.range();
        let rows = tx.get_range(&begin, &end, RangeOptions::default())?;
        if header.format_version != FORMAT_VERSION {
            let state = StoreState {
                header,
                index_states: Vec::new(),
                layout,
            };
            return Ok((state, true));
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
        let state = StoreState {
            header,
            index_states,
            layout,
        };
        Ok((state, true))
    }

    /// Write a new store's header and mark every index of `metadata`
    /// readable (all trivially built). Not a metadata-version write: no
    /// cache can hold state for a store that did not exist.
    fn create(tx: &Transaction, layout: StoreLayout, metadata: &RecordMetaData) -> Result<Self> {
        let mut state = StoreState {
            header: StoreHeader {
                format_version: FORMAT_VERSION,
                metadata_version: metadata.version(),
                user_version: 0,
            },
            index_states: Vec::new(),
            layout,
        };
        tx.try_set(&header_key(&state.layout.subspace), &state.header.encode())?;
        for index in metadata.indexes() {
            tx.try_set(
                &state
                    .layout
                    .index_state
                    .pack(&Tuple::new().push(index.subspace_key)),
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

impl RecordStore<'_> {
    fn index_state_key(&self, subspace_key: i64) -> Vec<u8> {
        self.layout()
            .index_state
            .pack(&Tuple::new().push(subspace_key))
    }

    pub(super) fn record_count_key(&self) -> Vec<u8> {
        let stat = TupleElement::Int(STAT_RECORDS);
        let mut key = Vec::with_capacity(self.layout().stats.prefix().len() + stat.packed_len());
        key.extend_from_slice(self.layout().stats.prefix());
        stat.pack_into(&mut key);
        key
    }

    pub(super) fn index_entry_count_key(&self, subspace_key: i64) -> Vec<u8> {
        let stat = TupleElement::Int(STAT_INDEX_ENTRIES);
        let index = TupleElement::Int(subspace_key);
        let len = self.layout().stats.prefix().len() + stat.packed_len() + index.packed_len();
        let mut key = Vec::with_capacity(len);
        key.extend_from_slice(self.layout().stats.prefix());
        stat.pack_into(&mut key);
        index.pack_into(&mut key);
        key
    }

    /// Fold a delta into a statistics counter with a conflict-free atomic
    /// ADD (little-endian i64 operand). The counter's key is built only
    /// for a delta that is not zero.
    pub(super) fn bump_stat(&self, key: impl FnOnce() -> Vec<u8>, delta: i64) -> Result<()> {
        if delta != 0 {
            self.tx
                .mutate_owned(MutationType::Add, key(), delta.to_le_bytes())?;
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
        let changed = self.state.changed.borrow();
        changed.as_ref().unwrap_or(&self.state.found).clone()
    }

    /// The store header (always present on an open store).
    pub fn header(&self) -> StoreHeader {
        self.current().header
    }

    /// Apply `change` to this transaction's view of the state, after the
    /// caller has written the same change to the database: the one place
    /// the state of an existing store changes, so the one place that
    /// writes the metadata-version key for it.
    fn change_state(&self, change: impl FnOnce(&mut StoreState)) -> Result<()> {
        self.tx.bump_metadata_version()?;
        let mut changed = self.state.changed.borrow_mut();
        let state = changed.get_or_insert_with(|| self.state.found.clone());
        change(Arc::make_mut(state));
        Ok(())
    }

    fn write_header(&self, header: StoreHeader) -> Result<()> {
        self.tx
            .try_set(&header_key(&self.layout().subspace), &header.encode())?;
        self.change_state(|state| state.header = header)
    }

    /// Set the client-managed application version (§5).
    pub fn set_user_version(&self, user_version: u64) -> Result<()> {
        let mut header = self.current().header;
        header.user_version = user_version;
        self.write_header(header)
    }

    /// §5: on open, compare the store's recorded versions with this code
    /// and the supplied metadata; fail on another format or on staleness,
    /// or catch up. At the store's own version, fail if the metadata gives
    /// a recorded index's subspace key or name to another index.
    pub(super) fn check_version(&self) -> Result<()> {
        let header = self.current().header;
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
        let state = self.current();
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
            for sub in [self.layout().indexes.child(key), self.range_subspace(key)] {
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
        let (begin, end) = self.layout().records.range();
        Ok(!self
            .tx
            .get_range_snapshot(&begin, &end, RangeOptions::new().limit(1))?
            .is_empty())
    }

    // ------------------------------------------------------- index states

    pub fn index_state(&self, index_name: &str) -> Result<IndexState> {
        let index = self.metadata.index(index_name)?;
        Ok(self.current().index_state(index.subspace_key))
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
        let state = self.current().index_state(index.subspace_key);
        if state != IndexState::Readable {
            return Err(Error::IndexNotReadable {
                index: index_name.to_string(),
                state: state.name().to_string(),
            });
        }
        Ok(index)
    }
}
