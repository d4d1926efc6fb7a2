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
//! fails with [`Error::SubspaceKeyMismatch`](crate::Error::SubspaceKeyMismatch).
//! The version split `-1` immediately precedes the record's payload keys so
//! both are fetched with a single range read (§4).
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

use std::cell::{Ref, RefCell};
use std::rc::Rc;
use std::sync::Arc;

use rl_fdb::subspace::Subspace;
use rl_fdb::tuple::Tuple;
use rl_fdb::Transaction;

use crate::error::Result;
use crate::expr::PackedRows;
use crate::index::{self, IndexContext, IndexedRecord};
use crate::metadata::{Index, RecordMetaData};
use crate::serialize::{PlainSerializer, RecordSerializer};

mod record;
mod scan;
mod state;

pub use record::{RecordMessage, StoredRecord};
pub use scan::{IndexScanCursor, RecordScanCursor, TupleRange};
pub use state::{RecordedIndex, StoreHeader, StoreState};

const RECORDS: i64 = 1;
const INDEXES: i64 = 2;
const INDEX_STATE: i64 = 3;
const INDEX_RANGES: i64 = 4;
const INDEX_STATS: i64 = 5;

/// The on-disk format version written to store headers, and the only one
/// this code reads. Format 1 keyed index data by the index's name; format 2
/// keys it by the index's subspace key. An open of a store in any other
/// format fails with
/// [`Error::UnsupportedFormatVersion`](crate::Error::UnsupportedFormatVersion).
pub const FORMAT_VERSION: i64 = 2;

/// Default maximum bytes per record chunk when splitting (§4). Records
/// larger than one chunk are spread over `(pk, 1..n)` keys, comfortably
/// below FoundationDB's 100 kB value limit.
pub const DEFAULT_SPLIT_SIZE: usize = 90_000;

/// Builder for opening a [`RecordStore`] with a non-default serializer or
/// split size.
pub struct RecordStoreBuilder {
    /// `None` is the [`PlainSerializer`].
    serializer: Option<Arc<dyn RecordSerializer>>,
    split_size: usize,
}

impl Default for RecordStoreBuilder {
    fn default() -> Self {
        RecordStoreBuilder {
            serializer: None,
            split_size: DEFAULT_SPLIT_SIZE,
        }
    }
}

impl RecordStoreBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn serializer(mut self, s: Arc<dyn RecordSerializer>) -> Self {
        self.serializer = Some(s);
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
    ///
    /// An open the state cache answers allocates one block, the cell the
    /// handle's clones share the state through: the store's subspace and
    /// regions are packed once, into the state the cache shares
    /// (`StoreLayout`), and the default serializer is no object at all.
    /// `tests/fetch_allocations.rs` holds the count.
    pub fn open_or_create<'a>(
        self,
        tx: &'a Transaction,
        subspace: &Subspace,
        metadata: &'a RecordMetaData,
    ) -> Result<RecordStore<'a>> {
        let found = match tx.cached_state::<StoreState>(subspace.prefix()) {
            Some(cached) => cached,
            None => {
                let layout = StoreLayout::new(subspace);
                let (state, existed) = StoreState::read_or_create(tx, layout, metadata)?;
                let state = Arc::new(state);
                if existed {
                    tx.cache_state(subspace.prefix(), state.clone());
                }
                state
            }
        };
        let store = RecordStore {
            tx,
            state: Rc::new(OpenState {
                found,
                changed: RefCell::new(None),
            }),
            metadata,
            serializer: self.serializer,
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
#[derive(Clone)]
pub struct RecordStore<'a> {
    tx: &'a Transaction,
    /// The store's state as this transaction sees it, shared by every
    /// handle cloned from one open.
    state: Rc<OpenState>,
    metadata: &'a RecordMetaData,
    /// `None` is the [`PlainSerializer`].
    serializer: Option<Arc<dyn RecordSerializer>>,
    split_size: usize,
}

/// What the handles of one open share: the state the open found, and this
/// transaction's own changes to it.
struct OpenState {
    /// The state the open found (the `Arc` may be the cache's). Its layout
    /// is every handle's; the rest is the state until the transaction
    /// changes it.
    found: Arc<StoreState>,
    /// The state once this transaction changed it: a copy of `found`,
    /// made on the first change (copy-on-write).
    changed: RefCell<Option<Arc<StoreState>>>,
}

/// [`RecordStore::current`]: the changed state while one is borrowed, the
/// found one otherwise.
struct Current<'s> {
    changed: Ref<'s, Option<Arc<StoreState>>>,
    found: &'s StoreState,
}

impl std::ops::Deref for Current<'_> {
    type Target = StoreState;

    fn deref(&self) -> &StoreState {
        self.changed.as_deref().unwrap_or(self.found)
    }
}

/// A store's subspace and its fixed regions, packed once per store: part
/// of the [`StoreState`] the state cache shares, so an open packs nothing.
/// Every record and index key starts with one of the regions.
#[derive(Debug, Clone, PartialEq, Eq)]
struct StoreLayout {
    subspace: Subspace,
    /// `S(1)`, the records.
    records: Subspace,
    /// `S(2)`, each index's data.
    indexes: Subspace,
    /// `S(3)`, each index's state.
    index_state: Subspace,
    /// `S(4)`, each index's online-build progress.
    index_ranges: Subspace,
    /// `S(5)`, the statistics.
    stats: Subspace,
}

impl StoreLayout {
    fn new(subspace: &Subspace) -> Self {
        StoreLayout {
            subspace: subspace.clone(),
            records: subspace.child(RECORDS),
            indexes: subspace.child(INDEXES),
            index_state: subspace.child(INDEX_STATE),
            index_ranges: subspace.child(INDEX_RANGES),
            stats: subspace.child(INDEX_STATS),
        }
    }
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

    pub fn metadata(&self) -> &'a RecordMetaData {
        self.metadata
    }

    pub fn subspace(&self) -> &Subspace {
        &self.layout().subspace
    }

    /// The store's subspace and its regions.
    fn layout(&self) -> &StoreLayout {
        &self.state.found.layout
    }

    /// The store's state as this transaction sees it.
    fn current(&self) -> Current<'_> {
        Current {
            changed: self.state.changed.borrow(),
            found: &self.state.found,
        }
    }

    /// The serializer records are stored through.
    fn serializer(&self) -> &dyn RecordSerializer {
        self.serializer.as_deref().unwrap_or(&PlainSerializer)
    }

    /// The subspace dedicated to one index, `S(2, k)`.
    pub fn index_subspace(&self, index: &Index) -> Subspace {
        self.layout().indexes.child(index.subspace_key)
    }

    /// Subspace recording online-build progress for an index, `S(4, k)`.
    pub fn index_range_subspace(&self, index: &Index) -> Subspace {
        self.range_subspace(index.subspace_key)
    }

    fn range_subspace(&self, subspace_key: i64) -> Subspace {
        self.layout().index_ranges.child(subspace_key)
    }

    // ----------------------------------------------------------- indexing

    /// Maintain every applicable index for a change of the record with
    /// packed primary key `packed_pk`, every evaluation packed into
    /// `packed`.
    fn update_indexes(
        &self,
        old: Option<&IndexedRecord<'_>>,
        new: Option<&IndexedRecord<'_>>,
        packed_pk: &[u8],
        packed: &mut PackedRows,
    ) -> Result<()> {
        // Borrowed across the index updates: they see the transaction and
        // the index's subspace, never this handle.
        let state = self.current();
        for index in self.metadata.indexes() {
            if !state.index_state(index.subspace_key).is_maintained() {
                continue;
            }
            let old_in = old.filter(|o| index.applies_to(o.record_type));
            let new_in = new.filter(|n| index.applies_to(n.record_type));
            if old_in.is_none() && new_in.is_none() {
                continue;
            }
            let ctx = IndexContext::new(self.tx, index, &self.layout().indexes, packed_pk);
            let delta = index::update(&ctx, packed, old_in, new_in)?;
            self.bump_stat(|| self.index_entry_count_key(index.subspace_key), delta)?;
        }
        Ok(())
    }

    /// Re-apply one index's maintenance for a single record (used by the
    /// online index builder).
    pub fn update_one_index(&self, index: &Index, record: &StoredRecord) -> Result<()> {
        let packed_pk = record.primary_key.pack();
        let ctx = IndexContext::new(self.tx, index, &self.layout().indexes, &packed_pk);
        let record = IndexedRecord::from(record);
        let delta = index::update(&ctx, &mut PackedRows::new(), None, Some(&record))?;
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

    // --------------------------------------------------------- aggregates

    /// Read an atomic aggregate index's value for a group (§7). COUNT/SUM
    /// variants return integers; MIN/MAX_EVER return the stored tuple.
    pub fn evaluate_aggregate(&self, index_name: &str, group: &Tuple) -> Result<AggregateValue> {
        let index = self.require_readable(index_name)?;
        crate::index::atomic::evaluate(self.tx, index, &self.index_subspace(index), group)
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
