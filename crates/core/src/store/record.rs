//! Records: save, load and delete, the keys of a record's rows, and the
//! one path that serializes a record and puts it back together.

use std::borrow::Cow;
use std::ops::{ControlFlow, Range};
use std::sync::Arc;

use rl_fdb::atomic::MutationType;
use rl_fdb::subspace::Subspace;
use rl_fdb::tuple::{self, ElementRef, Tuple, TupleElement, TupleReader};
use rl_fdb::version::{Versionstamp, VERSIONSTAMP_LEN};
use rl_fdb::RangeOptions;
use rl_message::{
    DynamicMessage, FieldDescriptor, FieldRef, FieldSource, MessageDescriptor, Value, WireMessage,
};

use super::RecordStore;
use crate::error::{Error, Result};
use crate::expr::{EvalContext, PackedRows};
use crate::index::IndexedRecord;

/// Split suffix of the key holding a record's commit version.
const VERSION_SPLIT: i64 = -1;

/// A record as stored: message, primary key, and commit version. Its type
/// is its message's ([`record_type`](Self::record_type)), and its fields
/// are read through [`FieldSource`] or [`RecordMessage::get`].
#[derive(Debug, Clone, PartialEq)]
pub struct StoredRecord {
    pub primary_key: Tuple,
    pub message: RecordMessage,
    /// The commit version of the record's last modification. Incomplete
    /// for records saved in the current (uncommitted) transaction.
    pub version: Option<Versionstamp>,
    /// Number of key-value pairs the payload occupies (1 = unsplit).
    pub split_count: usize,
}

impl StoredRecord {
    /// The record type's name: its message type's, which the descriptor
    /// holds, so no record carries a copy.
    pub fn record_type(&self) -> &str {
        self.message.type_name()
    }
}

impl FieldSource for StoredRecord {
    fn descriptor(&self) -> &Arc<MessageDescriptor> {
        self.message.descriptor()
    }

    fn visit_field(
        &self,
        field: &FieldDescriptor,
        visit: &mut dyn FnMut(FieldRef<'_>) -> ControlFlow<()>,
    ) -> rl_message::Result<()> {
        self.message.visit_field(field, visit)
    }
}

/// A record's message: as the client built it, or its stored wire bytes,
/// read where they lie. A fetch returns the second ([`WireMessage`]: one
/// walk over the tags at the fetch, a field decoded when it is read);
/// [`to_message`](Self::to_message) decodes either in full for a caller
/// that will change the record and save it.
#[derive(Debug, Clone)]
pub enum RecordMessage {
    /// A message built in memory: the one a save took, or the columns a
    /// covering index scan put together.
    Built(DynamicMessage),
    /// A fetched record's wire bytes.
    Stored(WireMessage),
}

impl RecordMessage {
    /// The message type name.
    pub fn type_name(&self) -> &str {
        &self.source().descriptor().name
    }

    /// The message as the field source it is, so a reader dispatches
    /// once, not through this enum and then again.
    pub(crate) fn source(&self) -> &dyn FieldSource {
        match self {
            RecordMessage::Built(message) => message,
            RecordMessage::Stored(message) => message,
        }
    }

    /// A singular field's value, if set (see [`DynamicMessage::get`] and
    /// [`WireMessage::get`], which decodes the field the first time).
    pub fn get(&self, name: &str) -> Option<&Value> {
        match self {
            RecordMessage::Built(message) => message.get(name),
            RecordMessage::Stored(message) => message.get(name),
        }
    }

    /// The message decoded in full, unknown fields kept: what a caller
    /// changes and saves again.
    pub fn to_message(&self) -> Result<DynamicMessage> {
        match self {
            RecordMessage::Built(message) => Ok(message.clone()),
            RecordMessage::Stored(message) => Ok(message.to_message()?),
        }
    }

    /// [`to_message`](Self::to_message), by value.
    pub fn into_message(self) -> Result<DynamicMessage> {
        match self {
            RecordMessage::Built(message) => Ok(message),
            RecordMessage::Stored(message) => Ok(message.into_message()?),
        }
    }

    /// The wire bytes: a built message's encoding, a stored one's bytes as
    /// stored.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            RecordMessage::Built(message) => message.encode(),
            RecordMessage::Stored(message) => message.wire().to_vec(),
        }
    }
}

/// Two messages are equal when they decode to equal messages; one whose
/// bytes do not decode equals none.
impl PartialEq for RecordMessage {
    fn eq(&self, other: &Self) -> bool {
        fn decoded(message: &RecordMessage) -> Option<Cow<'_, DynamicMessage>> {
            match message {
                RecordMessage::Built(message) => Some(Cow::Borrowed(message)),
                RecordMessage::Stored(message) => message.to_message().ok().map(Cow::Owned),
            }
        }
        matches!((decoded(self), decoded(other)), (Some(a), Some(b)) if a == b)
    }
}

impl FieldSource for RecordMessage {
    fn descriptor(&self) -> &Arc<MessageDescriptor> {
        self.source().descriptor()
    }

    fn visit_field(
        &self,
        field: &FieldDescriptor,
        visit: &mut dyn FnMut(FieldRef<'_>) -> ControlFlow<()>,
    ) -> rl_message::Result<()> {
        self.source().visit_field(field, visit)
    }
}

impl RecordStore<'_> {
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
    /// ([`load_record`](Self::load_record)'s), whose fields index
    /// maintenance reads where the read left them, after the read has
    /// returned: the payload's [`WireMessage`], as a fetch returns it, of
    /// which only a nested message is decoded. Then only the writes that
    /// change something, each key built once and moved into the
    /// transaction. One scratch buffer
    /// (`PackedRows`) holds every evaluation of the save: the primary key,
    /// packed once and shared by the payload, version and index keys, and
    /// each index's entries for the old and the new record, compared as
    /// packed bytes. An index whose entries did not change writes nothing
    /// and builds no key (see `index::update`), nor does its entry-count
    /// statistic when its delta is zero. The payload is one buffer: the
    /// message is encoded straight into its `(type, wire)` envelope, which
    /// the serializer takes by value. `tests/save_allocations.rs` holds the
    /// count.
    pub fn save_record(&self, message: DynamicMessage) -> Result<StoredRecord> {
        let mut packed = PackedRows::new();
        let rt = self.metadata.record_type(message.type_name())?;
        let ctx = EvalContext::new(&message, message.type_name());
        let pk = rt.primary_key.pack_single(&ctx, &mut packed)?;
        let (primary_key, mut packed_pk) = (pk.to_tuple()?, Vec::with_capacity(pk.packed_len()));
        pk.pack_into(&mut packed_pk);

        let old = self.load_payload(&packed_pk)?;

        let version = if self.metadata.store_record_versions {
            Some(Versionstamp::incomplete(self.tx.next_user_version()))
        } else {
            None
        };
        let serialized = self.serialize_record(message.type_name(), &message)?;
        let split_count = serialized.len().div_ceil(self.split_size).max(1);
        let new = StoredRecord {
            primary_key,
            message: RecordMessage::Built(message),
            version,
            split_count,
        };

        let old_record = old.as_ref().map(|old| old.indexed(&new.primary_key));
        let new_record = IndexedRecord::from(&new);
        self.update_indexes(
            old_record.as_ref(),
            Some(&new_record),
            &packed_pk,
            &mut packed,
        )?;
        if old.is_none() {
            self.bump_stat(|| self.record_count_key(), 1)?;
        }

        // Replace the old payload. The writes below overwrite every old key
        // when the split count is unchanged (an unsplit payload is key 0,
        // n chunks are keys 1..=n) and the old version key, if there is
        // one, is rewritten too; otherwise some old key would survive, and
        // a range clear takes the old record out first (§6).
        if let Some(old) = &old {
            let overwritten = old.chunks == split_count
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
        let (prefix, split) = (self.layout().records.prefix(), TupleElement::Int(split));
        let mut key = Vec::with_capacity(prefix.len() + packed_pk.len() + split.packed_len());
        key.extend_from_slice(prefix);
        key.extend_from_slice(packed_pk);
        split.pack_into(&mut key);
        key
    }

    /// The range of every row of the record with packed primary key
    /// `packed_pk`.
    fn record_range(&self, packed_pk: &[u8]) -> (Vec<u8>, Vec<u8>) {
        Subspace::from_bytes([self.layout().records.prefix(), packed_pk].concat()).range_inclusive()
    }

    /// Load a record by primary key: one range read fetches the version
    /// split and all payload chunks together (§4).
    ///
    /// Cost contract: one lending range read, one walk over the record's
    /// tags, no decode; allocates only what the returned record owns. The
    /// primary key is packed straight into one buffer that holds both
    /// bounds of the read
    /// ([`Transaction::visit_range`](rl_fdb::Transaction::visit_range)),
    /// which borrows them, copies them into the transaction's
    /// read-conflict arena and lends its rows to the record assembler. So
    /// what is allocated is the bounds' buffer, one buffer the payload
    /// chunks are copied into (the envelope is undone inside it, escaped
    /// NULs too), which the record keeps, and then the record's own
    /// primary key and field table ([`WireMessage`]; plus whatever a
    /// non-identity serializer needs to undo its transform). A field's
    /// value is decoded when it is read. A missing record stops after the
    /// read. `tests/fetch_allocations.rs` holds the count.
    pub fn load_record(&self, primary_key: &Tuple) -> Result<Option<StoredRecord>> {
        let pk_len = tuple::packed_len(primary_key.elements());
        let bounds = self.record_bounds(pk_len, |key| primary_key.pack_into(key));
        self.load_record_within(&bounds, || primary_key.clone())
    }

    /// [`load_record`](Self::load_record) for a caller that holds the
    /// primary key in packed form already (the tail of an index entry's
    /// key) and hands the decoded one over by move.
    pub(crate) fn load_record_packed(
        &self,
        packed_pk: &[u8],
        primary_key: impl FnOnce() -> Tuple,
    ) -> Result<Option<StoredRecord>> {
        let bounds = self.record_bounds(packed_pk.len(), |key| key.extend_from_slice(packed_pk));
        self.load_record_within(&bounds, primary_key)
    }

    /// The range of a record's rows as one buffer of its final size:
    /// `begin`, the records prefix, the `pk_len` bytes of packed primary
    /// key `pack` appends and 0x00, then `end`, the same with 0xFF.
    fn record_bounds(&self, pk_len: usize, pack: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let prefix = self.layout().records.prefix();
        let mut bounds = Vec::with_capacity(2 * (prefix.len() + pk_len + 1));
        bounds.extend_from_slice(prefix);
        pack(&mut bounds);
        let key_len = bounds.len();
        bounds.push(0x00);
        bounds.extend_from_within(..key_len);
        bounds.push(0xFF);
        bounds
    }

    /// Read the record whose rows
    /// [`record_bounds`](Self::record_bounds) spans.
    fn load_record_within(
        &self,
        bounds: &[u8],
        primary_key: impl FnOnce() -> Tuple,
    ) -> Result<Option<StoredRecord>> {
        Ok(self
            .read_payload(bounds)?
            .map(|payload| payload.into_record(primary_key)))
    }

    /// The stored payload of the record with packed primary key
    /// `packed_pk`, read as [`load_record`](Self::load_record) reads it.
    fn load_payload(&self, packed_pk: &[u8]) -> Result<Option<RecordPayload>> {
        let bounds = self.record_bounds(packed_pk.len(), |key| key.extend_from_slice(packed_pk));
        self.read_payload(&bounds)
    }

    /// Read the rows [`record_bounds`](Self::record_bounds) spans in one
    /// lending range read and assemble their payload.
    fn read_payload(&self, bounds: &[u8]) -> Result<Option<RecordPayload>> {
        let (begin, end) = bounds.split_at(bounds.len() / 2);
        let suffix_at = begin.len() - 1;
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
            None => record.payload(self),
        }
    }

    /// Delete a record by primary key, maintaining indexes. Returns whether
    /// a record existed. The old record is read where its bytes lie, as a
    /// save reads it.
    pub fn delete_record(&self, primary_key: &Tuple) -> Result<bool> {
        let packed_pk = primary_key.pack();
        let Some(old) = self.load_payload(&packed_pk)? else {
            return Ok(false);
        };
        let old_record = old.indexed(primary_key);
        let mut packed = PackedRows::new();
        self.update_indexes(Some(&old_record), None, &packed_pk, &mut packed)?;
        self.bump_stat(|| self.record_count_key(), -1)?;
        let (begin, end) = self.record_range(&packed_pk);
        self.tx.clear_range(&begin, &end);
        Ok(true)
    }

    /// Delete every record and all index data, keeping the store header —
    /// a cheap range clear thanks to the contiguous layout (§3).
    pub fn delete_all_records(&self) -> Result<()> {
        let layout = self.layout();
        for sub in [
            &layout.records,
            &layout.indexes,
            &layout.index_ranges,
            &layout.stats,
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
        self.serializer().serialize(envelope)
    }

    /// Undo `serialize_record` inside `stored`, the buffer the assembler
    /// joined the payload chunks into: the serializer lends the envelope
    /// back from inside it (the identity serializer does) or returns a
    /// buffer of its own, and there the `(type, wire)` envelope is read
    /// and its wire bytes unescaped where they lie. Returns that buffer,
    /// where in it the wire bytes are, and the descriptor the type name
    /// finds.
    fn open_envelope(
        &self,
        stored: Vec<u8>,
    ) -> Result<(Vec<u8>, Range<usize>, Arc<MessageDescriptor>)> {
        // Where in `stored` lent bytes lie, if they lie there (a transform
        // may lend them from elsewhere).
        let within = |lent: &[u8]| {
            let (outer, inner) = (stored.as_ptr_range(), lent.as_ptr_range());
            (outer.start <= inner.start && inner.end <= outer.end).then(|| {
                let start = inner.start as usize - outer.start as usize;
                start..start + lent.len()
            })
        };
        let (owned, tagged) = match self.serializer().deserialize(&stored)? {
            Cow::Borrowed(tagged) => match within(tagged) {
                Some(at) => (None, at),
                None => (Some(tagged.to_vec()), 0..tagged.len()),
            },
            Cow::Owned(tagged) => {
                let len = tagged.len();
                (Some(tagged), 0..len)
            }
        };
        let mut buffer = owned.unwrap_or(stored);
        let mut envelope = TupleReader::new(&buffer[tagged.clone()]);
        let Some(ElementRef::String(record_type)) = envelope.next().transpose()? else {
            return Err(Error::Serialization("missing record type tag".into()));
        };
        let desc = self
            .metadata
            .pool()
            .message(&record_type)
            .ok_or_else(|| Error::UnknownRecordType(record_type.to_string()))?;
        let wire_at = tagged.end - envelope.remaining().len();
        let Some((wire, rest)) = tuple::unpack_bytes_in_place(&mut buffer[..tagged.end], wire_at)?
        else {
            return Err(Error::Serialization("missing record payload".into()));
        };
        // Whatever follows must at least be a tuple, as it always had to.
        TupleReader::new(&buffer[rest..tagged.end])
            .try_for_each(|rest| rest.map(drop).map_err(Error::Fdb))?;
        Ok((buffer, wire, desc))
    }
}

/// A record's payload as the [`RecordAssembler`] joined it, with the
/// envelope undone where it lies: its wire bytes, read as a
/// [`WireMessage`], with the version split's stamp.
pub(super) struct RecordPayload {
    message: WireMessage,
    version: Option<Versionstamp>,
    /// Number of key-value pairs the payload occupied (1 = unsplit).
    chunks: usize,
}

impl RecordPayload {
    /// The record as index maintenance reads it.
    fn indexed<'a>(&'a self, primary_key: &'a Tuple) -> IndexedRecord<'a> {
        IndexedRecord {
            fields: &self.message,
            record_type: &self.message.descriptor().name,
            primary_key,
            version: self.version,
        }
    }

    /// The record, its message moved in (`primary_key` runs only here).
    fn into_record(self, primary_key: impl FnOnce() -> Tuple) -> StoredRecord {
        StoredRecord {
            primary_key: primary_key(),
            message: RecordMessage::Stored(self.message),
            version: self.version,
            split_count: self.chunks,
        }
    }
}

/// The one place a record is put together from its stored form — point
/// loads, index fetches and record scans all feed it: the rows of one
/// record, one at a time in ascending key order, each carrying its split
/// suffix at `suffix_at`.
///
/// Cost contract: the split suffixes and the version are read in place,
/// and the payload chunks are copied once into one buffer (an owned first
/// chunk is moved in instead); [`payload`](Self::payload) undoes the
/// envelope inside that buffer and reads the record there, as the one
/// [`WireMessage`] a save, a delete or a fetch reads, and
/// [`finish`](Self::finish) moves it into the record.
pub(super) struct RecordAssembler {
    suffix_at: usize,
    version: Option<Versionstamp>,
    /// The payload chunks, joined.
    payload: Vec<u8>,
    chunks: usize,
}

impl RecordAssembler {
    pub(super) fn new(suffix_at: usize) -> Self {
        RecordAssembler {
            suffix_at,
            version: None,
            payload: Vec::new(),
            chunks: 0,
        }
    }

    /// Take the record's next row.
    pub(super) fn row(&mut self, key: &[u8], value: Cow<'_, [u8]>) -> Result<()> {
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

    /// The joined payload with the envelope undone, or `None` when no
    /// payload chunk arrived (nothing, or only a version key survived —
    /// which can happen transiently if a caller cleared payload keys
    /// directly). What is allocated is the record's field table
    /// ([`WireMessage`]): an identity serializer's envelope is undone in
    /// the payload's buffer, and a non-identity one allocates what it
    /// needs to undo its transform.
    pub(super) fn payload(self, store: &RecordStore<'_>) -> Result<Option<RecordPayload>> {
        if self.chunks == 0 {
            return Ok(None);
        }
        let (buffer, wire, descriptor) = store.open_envelope(self.payload)?;
        // Every record read from the record subspace counts as a fetch,
        // decoded or not; covering index scans bypass this path entirely.
        store.tx.note_record_fetch();
        let message = WireMessage::new(descriptor, store.metadata.pool(), buffer, wire)?;
        Ok(Some(RecordPayload {
            message,
            version: self.version,
            chunks: self.chunks,
        }))
    }

    /// The record, read where the joined payload lies (`None` as for
    /// [`payload`](Self::payload)). What is allocated is the primary key
    /// (`primary_key` runs only for a record that exists) and the record's
    /// field table.
    pub(super) fn finish(
        self,
        store: &RecordStore<'_>,
        primary_key: impl FnOnce() -> Tuple,
    ) -> Result<Option<StoredRecord>> {
        Ok(self
            .payload(store)?
            .map(|payload| payload.into_record(primary_key)))
    }
}
