//! Range-read options.

/// Options for a range read.
///
/// `limit` and `reverse` are carried all the way into the storage engine
/// ([`StorageEngine::visit`](crate::StorageEngine::visit)), so a range read
/// costs what it returns: one seek to the starting bound, then work
/// proportional to the rows returned plus the rows hidden from this
/// transaction — by MVCC (tombstones, versions newer than the read
/// version) or by its own buffered clears. The part of the range beyond
/// the `limit`-th row is never read, whichever the direction.
#[derive(Debug, Clone, Default)]
pub struct RangeOptions {
    /// Maximum number of key-value pairs to return (0 = unlimited). The
    /// read stops in the storage engine at this many rows, and a
    /// non-snapshot read conflicts only with writes up to the last key it
    /// returned.
    pub limit: usize,
    /// Return results from the end of the range, in descending key order.
    /// The engine seeks to the end bound and walks backwards, so with a
    /// `limit` this costs the same as a forward read of as many rows.
    pub reverse: bool,
}

impl RangeOptions {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn limit(mut self, limit: usize) -> Self {
        self.limit = limit;
        self
    }

    pub fn reverse(mut self, reverse: bool) -> Self {
        self.reverse = reverse;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let o = RangeOptions::new().limit(7).reverse(true);
        assert_eq!(o.limit, 7);
        assert!(o.reverse);
    }

    #[test]
    fn defaults() {
        let o = RangeOptions::default();
        assert_eq!(o.limit, 0);
        assert!(!o.reverse);
    }
}
