//! Commit versions and versionstamps.
//!
//! FoundationDB assigns every committed transaction a monotonically
//! increasing 8-byte *commit version* plus a 2-byte *batch order* within the
//! version; together they form the 10-byte transaction versionstamp. This
//! simulator gives every commit its own version, so its batch order is
//! always 0; the format is FoundationDB's. The Record Layer appends 2 more
//! client-assigned bytes (a per-transaction counter) to form the 12-byte
//! versionstamps that VERSION indexes store (§7 of the paper).

use crate::error::{Error, Result};

/// Length of the transaction-assigned portion of a versionstamp.
pub const TR_VERSION_LEN: usize = 10;
/// Length of a complete versionstamp (transaction portion + user portion).
pub const VERSIONSTAMP_LEN: usize = 12;

/// A 12-byte versionstamp: 10 transaction bytes (8-byte commit version +
/// 2-byte batch order, assigned by the database at commit) and 2 user bytes
/// (assigned by the client, e.g. the Record Layer's per-transaction record
/// counter).
///
/// An *incomplete* versionstamp has placeholder `0xFF` transaction bytes and
/// is completed when the transaction commits; see
/// [`Transaction::mutate`](crate::Transaction) with the versionstamped-key /
/// versionstamped-value mutations.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Versionstamp {
    bytes: [u8; VERSIONSTAMP_LEN],
    complete: bool,
}

impl Versionstamp {
    /// Create a complete versionstamp from a commit version, batch order,
    /// and user version.
    pub fn complete(commit_version: u64, batch_order: u16, user_version: u16) -> Self {
        let mut bytes = [0u8; VERSIONSTAMP_LEN];
        bytes[0..8].copy_from_slice(&commit_version.to_be_bytes());
        bytes[8..10].copy_from_slice(&batch_order.to_be_bytes());
        bytes[10..12].copy_from_slice(&user_version.to_be_bytes());
        Versionstamp {
            bytes,
            complete: true,
        }
    }

    /// Create an incomplete versionstamp carrying only the 2-byte user
    /// version; the transaction bytes are `0xFF` placeholders to be filled
    /// in at commit.
    pub fn incomplete(user_version: u16) -> Self {
        let mut bytes = [0xFFu8; VERSIONSTAMP_LEN];
        bytes[10..12].copy_from_slice(&user_version.to_be_bytes());
        Versionstamp {
            bytes,
            complete: false,
        }
    }

    /// Reconstruct a complete versionstamp from its 12-byte wire form.
    pub fn from_bytes(bytes: [u8; VERSIONSTAMP_LEN]) -> Self {
        let complete = bytes[0..TR_VERSION_LEN] != [0xFF; TR_VERSION_LEN];
        Versionstamp { bytes, complete }
    }

    /// Parse from a slice, which must be exactly 12 bytes.
    pub fn try_from_slice(slice: &[u8]) -> Result<Self> {
        let arr: [u8; VERSIONSTAMP_LEN] = slice.try_into().map_err(|_| {
            Error::Tuple(format!(
                "versionstamp must be 12 bytes, got {}",
                slice.len()
            ))
        })?;
        Ok(Versionstamp::from_bytes(arr))
    }

    /// The full 12-byte representation.
    pub fn as_bytes(&self) -> &[u8; VERSIONSTAMP_LEN] {
        &self.bytes
    }

    /// The 8-byte commit version, if complete.
    pub fn commit_version(&self) -> Option<u64> {
        if self.complete {
            Some(u64::from_be_bytes(self.bytes[0..8].try_into().unwrap()))
        } else {
            None
        }
    }

    /// The 2-byte batch order within the commit version.
    pub fn batch_order(&self) -> u16 {
        u16::from_be_bytes(self.bytes[8..10].try_into().unwrap())
    }

    /// The 2-byte client-assigned user version.
    pub fn user_version(&self) -> u16 {
        u16::from_be_bytes(self.bytes[10..12].try_into().unwrap())
    }

    /// Whether the transaction bytes have been assigned.
    pub fn is_complete(&self) -> bool {
        self.complete
    }
}

impl std::fmt::Debug for Versionstamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.complete {
            write!(
                f,
                "Versionstamp({}.{}.{})",
                self.commit_version().unwrap(),
                self.batch_order(),
                self.user_version()
            )
        } else {
            write!(f, "Versionstamp(incomplete.{})", self.user_version())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_roundtrip() {
        let v = Versionstamp::complete(123456789, 7, 42);
        assert!(v.is_complete());
        assert_eq!(v.commit_version(), Some(123456789));
        assert_eq!(v.batch_order(), 7);
        assert_eq!(v.user_version(), 42);
        let w = Versionstamp::from_bytes(*v.as_bytes());
        assert_eq!(v, w);
    }

    #[test]
    fn incomplete_then_completed() {
        let v = Versionstamp::incomplete(9);
        assert!(!v.is_complete());
        assert_eq!(v.user_version(), 9);
        assert_eq!(v.commit_version(), None);
    }

    #[test]
    fn ordering_follows_commit_version_then_batch_then_user() {
        let a = Versionstamp::complete(1, 0, 0);
        let b = Versionstamp::complete(1, 0, 1);
        let c = Versionstamp::complete(1, 1, 0);
        let d = Versionstamp::complete(2, 0, 0);
        assert!(a < b && b < c && c < d);
    }

    #[test]
    fn incomplete_sorts_after_all_complete() {
        // 0xFF placeholder bytes make incomplete stamps sort last, which is
        // what lets versionstamped keys be ordered correctly pre-commit.
        let complete = Versionstamp::complete(u64::MAX - 1, 0, 0);
        let incomplete = Versionstamp::incomplete(0);
        assert!(complete < incomplete);
    }

    #[test]
    fn try_from_slice_validates_length() {
        assert!(Versionstamp::try_from_slice(&[0u8; 11]).is_err());
        assert!(Versionstamp::try_from_slice(&[0u8; 12]).is_ok());
    }
}
