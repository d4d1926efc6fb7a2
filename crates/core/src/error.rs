//! Record Layer error type, wrapping substrate errors and adding
//! layer-level failure modes (metadata mismatches, uniqueness violations,
//! unplannable queries, ...).

use rl_message::EvolutionError;

pub type Result<T> = std::result::Result<T, Error>;

/// Errors surfaced by the Record Layer.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// An error from the underlying key-value store.
    Fdb(rl_fdb::Error),
    /// An error from the message/descriptor layer.
    Message(rl_message::Error),
    /// The record store header's metadata version is newer than the
    /// metadata the client supplied: the client must refresh its cache.
    StaleMetaData {
        store_version: u64,
        supplied_version: u64,
    },
    /// The record store was written in an on-disk format this code does not
    /// read: a newer one, or format 1, which keyed index data by name.
    UnsupportedFormatVersion {
        store_version: i64,
        supported_version: i64,
    },
    /// The metadata has the store's own version but gives the subspace key
    /// or the name of an index the store records to another index: it was
    /// not evolved from the store's metadata with
    /// `RecordMetaDataBuilder::from_existing`, and opening the store with it
    /// would read one index's data as another's.
    SubspaceKeyMismatch {
        index: String,
        subspace_key: i64,
        metadata_version: u64,
    },
    /// Schema evolution constraint violations found while updating
    /// metadata.
    InvalidEvolution(Vec<EvolutionError>),
    /// Metadata is internally inconsistent.
    MetaData(String),
    /// Unknown record type name.
    UnknownRecordType(String),
    /// Unknown index name.
    UnknownIndex(String),
    /// The index is not in a state that allows the attempted use (e.g.
    /// scanning a write-only index).
    IndexNotReadable { index: String, state: String },
    /// A unique index would contain two entries with the same key.
    UniquenessViolation { index: String },
    /// A key expression failed to evaluate against a record.
    KeyExpression(String),
    /// A record exceeds limits even after splitting.
    RecordTooLarge { size: usize },
    /// A continuation was malformed or used with a different operation.
    InvalidContinuation(String),
    /// The planner could not produce an executable plan for a query.
    Unplannable(String),
    /// Serialization/deserialization of a stored record failed.
    Serialization(String),
    /// The requested sort order has no supporting index (the layer does
    /// not sort in memory — §3.1 streaming model).
    UnsupportedSort(String),
}

impl Error {
    /// Whether retrying the enclosing transaction could succeed.
    pub fn is_retryable(&self) -> bool {
        matches!(self, Error::Fdb(e) if e.is_retryable())
    }
}

impl From<rl_fdb::Error> for Error {
    fn from(e: rl_fdb::Error) -> Self {
        Error::Fdb(e)
    }
}

impl From<rl_message::Error> for Error {
    fn from(e: rl_message::Error) -> Self {
        Error::Message(e)
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Fdb(e) => write!(f, "fdb: {e}"),
            Error::Message(e) => write!(f, "message: {e}"),
            Error::StaleMetaData { store_version, supplied_version } => write!(
                f,
                "store was written with metadata version {store_version}, client supplied {supplied_version}"
            ),
            Error::UnsupportedFormatVersion { store_version, supported_version } => write!(
                f,
                "store has format version {store_version}, this code reads only format {supported_version}"
            ),
            Error::SubspaceKeyMismatch { index, subspace_key, metadata_version } => write!(
                f,
                "store keeps index {index} under subspace key {subspace_key}, and metadata \
                 version {metadata_version} gives that key or name to another index"
            ),
            Error::InvalidEvolution(errs) => {
                write!(f, "invalid schema evolution: ")?;
                for e in errs {
                    write!(f, "{e}; ")?;
                }
                Ok(())
            }
            Error::MetaData(m) => write!(f, "metadata: {m}"),
            Error::UnknownRecordType(t) => write!(f, "unknown record type {t}"),
            Error::UnknownIndex(i) => write!(f, "unknown index {i}"),
            Error::IndexNotReadable { index, state } => {
                write!(f, "index {index} is {state}, not readable")
            }
            Error::UniquenessViolation { index } => {
                write!(f, "uniqueness violation in index {index}")
            }
            Error::KeyExpression(m) => write!(f, "key expression: {m}"),
            Error::RecordTooLarge { size } => write!(f, "record too large: {size} bytes"),
            Error::InvalidContinuation(m) => write!(f, "invalid continuation: {m}"),
            Error::Unplannable(m) => write!(f, "unplannable query: {m}"),
            Error::Serialization(m) => write!(f, "serialization: {m}"),
            Error::UnsupportedSort(m) => write!(f, "unsupported sort: {m}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryable_passthrough() {
        assert!(Error::Fdb(rl_fdb::Error::NotCommitted).is_retryable());
        assert!(!Error::Fdb(rl_fdb::Error::UsedDuringCommit).is_retryable());
        assert!(!Error::UnknownIndex("i".into()).is_retryable());
    }

    #[test]
    fn conversions() {
        let e: Error = rl_fdb::Error::NotCommitted.into();
        assert!(matches!(e, Error::Fdb(_)));
        let e: Error = rl_message::Error::UnknownField("f".into()).into();
        assert!(matches!(e, Error::Message(_)));
    }
}
