//! Records: save, load and delete, the keys of a record's rows, and the
//! one path that serializes a record and puts it back together.

use std::borrow::Cow;
use std::ops::ControlFlow;

use rl_fdb::atomic::MutationType;
use rl_fdb::subspace::Subspace;
use rl_fdb::tuple::{self, ElementRef, Tuple, TupleElement, TupleReader};
use rl_fdb::version::{Versionstamp, VERSIONSTAMP_LEN};
use rl_fdb::RangeOptions;
use rl_message::DynamicMessage;

use super::{RecordStore, INDEX_RANGES};
use crate::error::{Error, Result};
use crate::expr::EvalContext;

/// Split suffix of the key holding a record's commit version.
const VERSION_SPLIT: i64 = -1;

/// A record as stored: message, primary key, and commit version. Its type
/// is its message's ([`record_type`](Self::record_type)).
#[derive(Debug, Clone, PartialEq)]
pub struct StoredRecord {
    pub primary_key: Tuple,
    pub message: DynamicMessage,
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
    /// ([`load_record`](Self::load_record)'s), then only the writes that
    /// change something, each key built once and moved into the
    /// transaction. The primary key is packed once and shared by the
    /// payload, version and index keys. The payload is one buffer: the
    /// message is encoded straight into its `(type, wire)` envelope, which
    /// the serializer takes by value. Every index evaluates the old and
    /// the new record once, and an index whose entries did not change
    /// writes nothing and builds no key (see `index::update`), nor does
    /// its entry-count statistic when its delta is zero. A changed entry's
    /// key is packed into one buffer of its final size.
    /// `tests/save_allocations.rs` holds the count.
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
    /// what the returned record owns. The primary key is packed straight
    /// into one buffer that holds both bounds of the read
    /// ([`Transaction::visit_range`](rl_fdb::Transaction::visit_range)),
    /// which borrows them, copies them into the transaction's
    /// read-conflict arena and lends its rows to the record assembler. So
    /// what is allocated is the bounds' buffer, one buffer the payload
    /// chunks are copied into, and then the record's own primary key and
    /// message (plus the buffers `RecordAssembler::finish` names for
    /// escaped payloads and non-identity serializers). A missing record
    /// stops after the read. `tests/fetch_allocations.rs` holds the count.
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
        let prefix = self.records.prefix();
        let mut bounds = Vec::with_capacity(2 * (prefix.len() + pk_len + 1));
        bounds.extend_from_slice(prefix);
        pack(&mut bounds);
        let key_len = bounds.len();
        bounds.push(0x00);
        bounds.extend_from_within(..key_len);
        bounds.push(0xFF);
        bounds
    }

    /// Read and assemble the record whose rows
    /// [`record_bounds`](Self::record_bounds) spans.
    fn load_record_within(
        &self,
        bounds: &[u8],
        primary_key: impl FnOnce() -> Tuple,
    ) -> Result<Option<StoredRecord>> {
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
    /// the deserialized bytes in place, and the type name finds the
    /// descriptor the message keeps.
    fn deserialize_record(&self, payload: &[u8]) -> Result<DynamicMessage> {
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
        Ok(DynamicMessage::decode(desc, self.metadata.pool(), &wire)?)
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

    /// The record, decoded once from the joined payload, or `None` when no
    /// payload chunk arrived (nothing, or only a version key survived —
    /// which can happen transiently if a caller cleared payload keys
    /// directly). What is allocated is the primary key (`primary_key` runs
    /// only for a record that exists) and the message's fields — plus one
    /// buffer for the wire bytes when the envelope had to escape a NUL in
    /// them, and whatever a non-identity serializer needs to undo its
    /// transform.
    pub(super) fn finish(
        self,
        store: &RecordStore<'_>,
        primary_key: impl FnOnce() -> Tuple,
    ) -> Result<Option<StoredRecord>> {
        if self.chunks == 0 {
            return Ok(None);
        }
        let message = store.deserialize_record(&self.payload)?;
        // Every record materialized from the record subspace counts as a
        // fetch; covering index scans bypass this path entirely.
        store.tx.note_record_fetch();
        Ok(Some(StoredRecord {
            primary_key: primary_key(),
            message,
            version: self.version,
            split_count: self.chunks,
        }))
    }
}
