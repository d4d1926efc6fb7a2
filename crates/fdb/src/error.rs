//! Error type mirroring the FoundationDB client error surface that the
//! Record Layer must handle: retryable commit conflicts, the transaction
//! time limit, and size limits.

use std::fmt;

/// Result alias used throughout the simulator.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors surfaced by the simulated FoundationDB client.
///
/// The `code` values match the real FoundationDB error codes so that code
/// written against this crate handles errors the way an FDB client would
/// (e.g. 1020 `not_committed` is retryable, 1007 `transaction_too_old` means
/// the 5-second limit elapsed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// 1020: commit-time conflict — some key read by this transaction was
    /// modified by another transaction after this transaction's read
    /// version. Retryable.
    NotCommitted,
    /// 1007: the transaction is too old: either more than 5 (logical)
    /// seconds have elapsed since its read version, or its read version has
    /// fallen out of the MVCC window. Retryable with a fresh transaction.
    TransactionTooOld,
    /// 1021: the commit outcome is unknown (simulated failure injection).
    CommitUnknownResult,
    /// 2101: transaction exceeds the 10 MB size limit.
    TransactionTooLarge { size: usize, limit: usize },
    /// 2102: key exceeds the 10 kB limit.
    KeyTooLarge { size: usize, limit: usize },
    /// 2103: value exceeds the 100 kB limit.
    ValueTooLarge { size: usize, limit: usize },
    /// 2017: operation issued on a transaction that already committed.
    UsedDuringCommit,
    /// 2210: the requested read version is in the future.
    FutureVersion,
    /// Tuple encoding/decoding errors.
    Tuple(String),
    /// Mutation parameter malformed (e.g. versionstamp offset out of range).
    InvalidMutation(String),
}

impl Error {
    /// FoundationDB error code for this error.
    pub fn code(&self) -> u32 {
        match self {
            Error::NotCommitted => 1020,
            Error::TransactionTooOld => 1007,
            Error::CommitUnknownResult => 1021,
            Error::TransactionTooLarge { .. } => 2101,
            Error::KeyTooLarge { .. } => 2102,
            Error::ValueTooLarge { .. } => 2103,
            Error::UsedDuringCommit => 2017,
            Error::FutureVersion => 2210,
            Error::Tuple(_) => 2041,
            Error::InvalidMutation(_) => 2006,
        }
    }

    /// Whether a client should retry the transaction from the top, the way
    /// the FDB bindings' `run` loop does for retryable errors.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            Error::NotCommitted | Error::TransactionTooOld | Error::CommitUnknownResult
        )
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::NotCommitted => write!(f, "transaction not committed due to conflict (1020)"),
            Error::TransactionTooOld => write!(
                f,
                "transaction is too old to perform reads or be committed (1007)"
            ),
            Error::CommitUnknownResult => {
                write!(f, "transaction may or may not have committed (1021)")
            }
            Error::TransactionTooLarge { size, limit } => {
                write!(
                    f,
                    "transaction exceeds byte limit ({size} > {limit}) (2101)"
                )
            }
            Error::KeyTooLarge { size, limit } => {
                write!(f, "key length exceeds limit ({size} > {limit}) (2102)")
            }
            Error::ValueTooLarge { size, limit } => {
                write!(f, "value length exceeds limit ({size} > {limit}) (2103)")
            }
            Error::UsedDuringCommit => {
                write!(f, "operation issued while a commit was outstanding (2017)")
            }
            Error::FutureVersion => write!(f, "request for future version (2210)"),
            Error::Tuple(msg) => write!(f, "tuple layer: {msg}"),
            Error::InvalidMutation(msg) => write!(f, "invalid mutation: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryable_classification_matches_fdb() {
        assert!(Error::NotCommitted.is_retryable());
        assert!(Error::TransactionTooOld.is_retryable());
        assert!(Error::CommitUnknownResult.is_retryable());
        assert!(!Error::KeyTooLarge { size: 1, limit: 0 }.is_retryable());
        assert!(!Error::UsedDuringCommit.is_retryable());
    }

    #[test]
    fn codes_match_fdb() {
        assert_eq!(Error::NotCommitted.code(), 1020);
        assert_eq!(Error::TransactionTooOld.code(), 1007);
        assert_eq!(
            Error::TransactionTooLarge { size: 0, limit: 0 }.code(),
            2101
        );
    }

    #[test]
    fn display_is_human_readable() {
        let s = Error::TransactionTooLarge {
            size: 11,
            limit: 10,
        }
        .to_string();
        assert!(s.contains("11 > 10"));
    }
}
