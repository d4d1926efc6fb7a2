//! TEXT indexes (Appendix B): a transactional inverted index.
//!
//! Logically the index is an ordered list of maps: token → (primary key →
//! offsets of the token within the field). Physically, neighbouring
//! postings are *bunched* so one key-value pair holds up to
//! `TEXT_BUNCH_SIZE` primary keys, amortizing the per-key prefix overhead
//! (Table 2 quantifies the savings):
//!
//! ```text
//! (prefix, token1, pk1) -> [offsets1, pk2, offsets2]
//! (prefix, token2, pk3) -> [offsets3]
//! ```
//!
//! Insertion reads at most two key-value pairs and writes at most two;
//! deletion reads and writes one — the access-locality property the paper
//! calls out. FoundationDB's key order gives token *prefix* matching with
//! no extra storage, and per-posting offset lists support phrase and
//! proximity search.

use std::collections::{BTreeMap, BTreeSet};

use rl_fdb::subspace::Subspace;
use rl_fdb::tuple::{Tuple, TupleElement};
use rl_fdb::{RangeOptions, Transaction};

use crate::error::{Error, Result};
use crate::index::{evaluate_index_expr, IndexContext, IndexedRecord};
use crate::query::TextComparison;
use crate::store::RecordStore;

/// Postings per key of every TEXT index (Appendix B; Table 2 uses 20). A
/// constant, not a per-index setting: it decides how postings group into
/// keys, so it fixes the on-disk layout of every TEXT index.
pub(crate) const TEXT_BUNCH_SIZE: usize = 20;

// -------------------------------------------------------------- tokenizer

/// Splits text on non-alphanumeric characters and lower-cases each token;
/// a token's position in the list is its stored offset. Index maintenance
/// and the residual text filter both tokenize with it.
pub(crate) fn tokenize(text: &str) -> Vec<String> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|s| !s.is_empty())
        .map(str::to_lowercase)
        .collect()
}

/// Token → offsets for one document.
fn token_positions(text: &str) -> BTreeMap<String, Vec<i64>> {
    let mut map: BTreeMap<String, Vec<i64>> = BTreeMap::new();
    for (i, tok) in tokenize(text).into_iter().enumerate() {
        map.entry(tok).or_default().push(i as i64);
    }
    map
}

// ------------------------------------------------------------ bunched map

/// One posting: a primary key and the token's offsets in that record.
pub type Posting = (Tuple, Vec<i64>);

/// The durable bunched map for one TEXT index.
pub struct BunchedMap<'a> {
    tx: &'a Transaction,
    subspace: Subspace,
    bunch_size: usize,
}

fn offsets_to_element(offsets: &[i64]) -> TupleElement {
    TupleElement::Tuple(Tuple::from_elements(
        offsets.iter().map(|o| TupleElement::Int(*o)).collect(),
    ))
}

fn element_to_offsets(el: &TupleElement) -> Result<Vec<i64>> {
    let t = el
        .as_tuple()
        .ok_or_else(|| Error::Serialization("bad offsets element in text index".into()))?;
    t.elements()
        .iter()
        .map(|e| {
            e.as_int()
                .ok_or_else(|| Error::Serialization("non-integer offset".into()))
        })
        .collect()
}

impl<'a> BunchedMap<'a> {
    pub fn new(tx: &'a Transaction, subspace: Subspace, bunch_size: usize) -> Self {
        assert!(bunch_size >= 1);
        BunchedMap {
            tx,
            subspace,
            bunch_size,
        }
    }

    fn entry_key(&self, token: &str, pk: &Tuple) -> Vec<u8> {
        self.subspace
            .pack(&Tuple::new().push(token).push(pk.clone()))
    }

    /// Decode a bunch value given the key's own pk.
    fn decode_bunch(&self, key_pk: Tuple, value: &[u8]) -> Result<Vec<Posting>> {
        let t = Tuple::unpack(value).map_err(Error::Fdb)?;
        let els = t.elements();
        if els.is_empty() {
            return Err(Error::Serialization("empty text bunch".into()));
        }
        let mut out = vec![(key_pk, element_to_offsets(&els[0])?)];
        let mut i = 1;
        while i < els.len() {
            let pk = els[i]
                .as_tuple()
                .ok_or_else(|| Error::Serialization("bad pk element in bunch".into()))?
                .clone();
            let offsets = element_to_offsets(
                els.get(i + 1)
                    .ok_or_else(|| Error::Serialization("dangling pk in bunch".into()))?,
            )?;
            out.push((pk, offsets));
            i += 2;
        }
        Ok(out)
    }

    fn encode_bunch(&self, postings: &[Posting]) -> Vec<u8> {
        let mut t = Tuple::new();
        t.add(offsets_to_element(&postings[0].1));
        for (pk, offsets) in &postings[1..] {
            t.add(pk.clone());
            t.add(offsets_to_element(offsets));
        }
        t.pack()
    }

    fn write_bunch(&self, token: &str, postings: &[Posting]) -> Result<()> {
        debug_assert!(!postings.is_empty());
        let key = self.entry_key(token, &postings[0].0);
        self.tx.try_set(&key, &self.encode_bunch(postings))?;
        Ok(())
    }

    /// Parse an index key into (token, pk).
    fn parse_key(&self, key: &[u8]) -> Result<(String, Tuple)> {
        let t = self.subspace.unpack(key).map_err(Error::Fdb)?;
        let token = t
            .get(0)
            .and_then(TupleElement::as_str)
            .ok_or_else(|| Error::Serialization("bad text index key".into()))?
            .to_string();
        let pk = t
            .get(1)
            .and_then(TupleElement::as_tuple)
            .ok_or_else(|| Error::Serialization("bad text index pk".into()))?
            .clone();
        Ok((token, pk))
    }

    /// Find the bunch whose key is the biggest `<= (token, pk)` and still
    /// for `token`. Returns (key_pk, postings).
    fn bunch_at_or_before(&self, token: &str, pk: &Tuple) -> Result<Option<(Tuple, Vec<Posting>)>> {
        let token_start = self.subspace.pack(&Tuple::new().push(token));
        let end = rl_fdb::key_after(&self.entry_key(token, pk));
        let kvs = self.tx.get_range(
            &token_start,
            &end,
            RangeOptions::new().limit(1).reverse(true),
        )?;
        match kvs.into_iter().next() {
            None => Ok(None),
            Some(kv) => {
                let (t, key_pk) = self.parse_key(&kv.key)?;
                debug_assert_eq!(t, token);
                let postings = self.decode_bunch(key_pk.clone(), &kv.value)?;
                Ok(Some((key_pk, postings)))
            }
        }
    }

    /// The first bunch with key strictly greater than `(token, pk)`, still
    /// for `token`.
    fn bunch_after(&self, token: &str, pk: &Tuple) -> Result<Option<(Tuple, Vec<Posting>)>> {
        let begin = rl_fdb::key_after(&self.entry_key(token, pk));
        let (_, token_end) = self.subspace.subspace(&Tuple::new().push(token)).range();
        let kvs = self
            .tx
            .get_range(&begin, &token_end, RangeOptions::new().limit(1))?;
        match kvs.into_iter().next() {
            None => Ok(None),
            Some(kv) => {
                let (_, key_pk) = self.parse_key(&kv.key)?;
                let postings = self.decode_bunch(key_pk.clone(), &kv.value)?;
                Ok(Some((key_pk, postings)))
            }
        }
    }

    /// Insert (or update) the posting for `(token, pk)` — the Appendix B
    /// insertion algorithm.
    pub fn insert(&self, token: &str, pk: &Tuple, offsets: &[i64]) -> Result<()> {
        match self.bunch_at_or_before(token, pk)? {
            Some((key_pk, mut postings)) => {
                match postings.iter_mut().find(|(p, _)| p == pk) {
                    Some(existing) => {
                        // Update in place.
                        existing.1 = offsets.to_vec();
                        self.write_bunch(token, &postings)?;
                    }
                    None => {
                        let at = postings.partition_point(|(p, _)| p < pk);
                        postings.insert(at, (pk.clone(), offsets.to_vec()));
                        if postings.len() <= self.bunch_size {
                            self.write_bunch(token, &postings)?;
                        } else {
                            // Overflow: evict the biggest pk to its own key,
                            // then try merging with the following bunch.
                            let evicted = postings.pop().unwrap();
                            self.write_bunch(token, &postings)?;
                            let mut new_bunch = vec![evicted];
                            if let Some((next_pk, next_postings)) =
                                self.bunch_after(token, &key_pk)?
                            {
                                if new_bunch.len() + next_postings.len() <= self.bunch_size {
                                    self.tx.clear(&self.entry_key(token, &next_pk));
                                    new_bunch.extend(next_postings);
                                }
                            }
                            self.write_bunch(token, &new_bunch)?;
                        }
                    }
                }
            }
            None => {
                // pk precedes every existing bunch for this token (or the
                // token is new): absorb the following bunch when it fits.
                let mut postings = vec![(pk.clone(), offsets.to_vec())];
                if let Some((next_pk, next_postings)) = self.bunch_after(token, pk)? {
                    if next_postings.len() < self.bunch_size {
                        self.tx.clear(&self.entry_key(token, &next_pk));
                        postings.extend(next_postings);
                    }
                }
                self.write_bunch(token, &postings)?;
            }
        }
        Ok(())
    }

    /// Remove the posting for `(token, pk)` — reads and writes a single
    /// key-value pair (Appendix B).
    pub fn remove(&self, token: &str, pk: &Tuple) -> Result<bool> {
        let Some((key_pk, mut postings)) = self.bunch_at_or_before(token, pk)? else {
            return Ok(false);
        };
        let Some(at) = postings.iter().position(|(p, _)| p == pk) else {
            return Ok(false);
        };
        postings.remove(at);
        let old_key = self.entry_key(token, &key_pk);
        if postings.is_empty() {
            self.tx.clear(&old_key);
        } else if key_pk == *pk {
            // The bunch is re-keyed under its new first primary key.
            self.tx.clear(&old_key);
            self.write_bunch(token, &postings)?;
        } else {
            self.write_bunch(token, &postings)?;
        }
        Ok(true)
    }

    /// All postings for one token, in primary-key order.
    pub fn scan_token(&self, token: &str) -> Result<Vec<Posting>> {
        let sub = self.subspace.subspace(&Tuple::new().push(token));
        let (begin, end) = sub.range_inclusive();
        let mut out = Vec::new();
        for kv in self.tx.get_range(&begin, &end, RangeOptions::default())? {
            let (_, key_pk) = self.parse_key(&kv.key)?;
            out.extend(self.decode_bunch(key_pk, &kv.value)?);
        }
        Ok(out)
    }

    /// All `(token, posting)` pairs for tokens starting with `prefix` —
    /// a single range read thanks to key ordering (§8.1: "prefix matching
    /// with no additional overhead").
    pub fn scan_prefix(&self, prefix: &str) -> Result<Vec<(String, Posting)>> {
        // A packed string is 0x02 ‖ bytes ‖ 0x00; stripping the terminator
        // leaves the prefix of every longer token's encoding.
        let mut begin = self.subspace.pack(&Tuple::new().push(prefix));
        begin.pop();
        let mut end = begin.clone();
        end.push(0xFF);
        let mut out = Vec::new();
        for kv in self.tx.get_range(&begin, &end, RangeOptions::default())? {
            let (token, key_pk) = self.parse_key(&kv.key)?;
            for posting in self.decode_bunch(key_pk, &kv.value)? {
                out.push((token.clone(), posting));
            }
        }
        Ok(out)
    }

    /// Storage statistics (drives the Table 2 experiment).
    pub fn stats(&self) -> Result<TextIndexStats> {
        let (begin, end) = self.subspace.range_inclusive();
        let kvs = self.tx.get_range(&begin, &end, RangeOptions::default())?;
        let mut stats = TextIndexStats {
            index_keys: kvs.len(),
            ..Default::default()
        };
        for kv in &kvs {
            stats.key_bytes += kv.key.len();
            stats.value_bytes += kv.value.len();
            let (_, key_pk) = self.parse_key(&kv.key)?;
            stats.postings += self.decode_bunch(key_pk, &kv.value)?.len();
        }
        Ok(stats)
    }
}

/// Size accounting for a TEXT index.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TextIndexStats {
    pub index_keys: usize,
    pub key_bytes: usize,
    pub value_bytes: usize,
    pub postings: usize,
}

impl TextIndexStats {
    pub fn total_bytes(&self) -> usize {
        self.key_bytes + self.value_bytes
    }

    pub fn average_bunch_size(&self) -> f64 {
        if self.index_keys == 0 {
            0.0
        } else {
            self.postings as f64 / self.index_keys as f64
        }
    }
}

// ------------------------------------------------------------- maintainer

fn text_of(index: &crate::metadata::Index, record: &IndexedRecord<'_>) -> Result<Option<String>> {
    let tuples = evaluate_index_expr(index, record)?;
    match tuples.first() {
        None => Ok(None),
        Some(t) => match t.get(t.len().saturating_sub(1)) {
            Some(TupleElement::String(s)) => Ok(Some(s.clone())),
            Some(TupleElement::Null) | None => Ok(None),
            Some(other) => Err(Error::KeyExpression(format!(
                "TEXT index {} must target a string field, got {other:?}",
                index.name
            ))),
        },
    }
}

/// Maintains a TEXT index: removes the old text's postings and inserts
/// the new text's, unless the text did not change.
pub(crate) fn update(
    ctx: &IndexContext<'_>,
    old: Option<&IndexedRecord<'_>>,
    new: Option<&IndexedRecord<'_>>,
) -> Result<i64> {
    let map = BunchedMap::new(ctx.tx, ctx.subspace(), TEXT_BUNCH_SIZE);

    let old_text = old.map(|r| text_of(ctx.index, r)).transpose()?.flatten();
    let new_text = new.map(|r| text_of(ctx.index, r)).transpose()?.flatten();
    if old.is_some() && new.is_some() && old_text == new_text {
        return Ok(0); // unchanged text: no index work (§6 optimization)
    }

    // Entry count for TEXT = number of (token, record) postings.
    let mut delta = 0i64;
    if let (Some(old_rec), Some(text)) = (old, &old_text) {
        for token in token_positions(text).keys() {
            map.remove(token, old_rec.primary_key)?;
            delta -= 1;
        }
    }
    if let (Some(new_rec), Some(text)) = (new, &new_text) {
        for (token, offsets) in token_positions(text) {
            map.insert(&token, new_rec.primary_key, &offsets)?;
            delta += 1;
        }
    }
    Ok(delta)
}

// ------------------------------------------------------------ search API

impl<'a> RecordStore<'a> {
    /// The bunched map underlying a TEXT index.
    pub fn text_index_map(&self, index_name: &str) -> Result<BunchedMap<'a>> {
        let index = self.require_readable(index_name)?;
        Ok(BunchedMap::new(
            self.transaction(),
            self.index_subspace(index),
            TEXT_BUNCH_SIZE,
        ))
    }

    /// Storage statistics for a TEXT index (Table 2).
    pub fn text_index_stats(&self, index_name: &str) -> Result<TextIndexStats> {
        self.text_index_map(index_name)?.stats()
    }

    /// Evaluate a full-text comparison against a TEXT index, returning the
    /// matching primary keys once each, in primary-key order (the order the
    /// plan's text scan pages by).
    pub fn text_search(&self, index_name: &str, cmp: &TextComparison) -> Result<Vec<Tuple>> {
        let map = self.text_index_map(index_name)?;
        match &cmp.normalized() {
            TextComparison::ContainsAny(tokens) => {
                let mut pks = BTreeSet::new();
                for token in tokens {
                    pks.extend(map.scan_token(token)?.into_iter().map(|(pk, _)| pk));
                }
                Ok(pks.into_iter().collect())
            }
            TextComparison::ContainsAll(tokens) => Ok(intersect_postings(&map, tokens)?
                .into_iter()
                .map(|(pk, _)| pk)
                .collect()),
            TextComparison::ContainsPrefix(prefix) => Ok(map
                .scan_prefix(prefix)?
                .into_iter()
                .map(|(_, (pk, _))| pk)
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect()),
            TextComparison::ContainsPhrase(tokens) => {
                let matches = intersect_postings(&map, tokens)?;
                Ok(matches
                    .into_iter()
                    .filter(|(_, per_token_offsets)| {
                        // token i+1 must appear at offset(token i) + 1.
                        per_token_offsets[0].iter().any(|&start| {
                            per_token_offsets
                                .iter()
                                .enumerate()
                                .all(|(i, offs)| offs.contains(&(start + i as i64)))
                        })
                    })
                    .map(|(pk, _)| pk)
                    .collect())
            }
            TextComparison::ContainsAllWithin {
                tokens,
                max_distance,
            } => {
                let matches = intersect_postings(&map, tokens)?;
                Ok(matches
                    .into_iter()
                    .filter(|(_, per_token_offsets)| {
                        per_token_offsets[0].iter().any(|&anchor| {
                            per_token_offsets[1..].iter().all(|offs| {
                                offs.iter()
                                    .any(|&o| o.abs_diff(anchor) <= *max_distance as u64)
                            })
                        })
                    })
                    .map(|(pk, _)| pk)
                    .collect())
            }
        }
    }
}

/// Intersect postings of several tokens: pk → per-token offset lists, for
/// pks containing *all* tokens.
fn intersect_postings(
    map: &BunchedMap<'_>,
    tokens: &[String],
) -> Result<Vec<(Tuple, Vec<Vec<i64>>)>> {
    if tokens.is_empty() {
        return Ok(Vec::new());
    }
    let mut acc: BTreeMap<Tuple, Vec<Vec<i64>>> = map
        .scan_token(&tokens[0])?
        .into_iter()
        .map(|(pk, offs)| (pk, vec![offs]))
        .collect();
    for token in &tokens[1..] {
        let postings: BTreeMap<Tuple, Vec<i64>> = map.scan_token(token)?.into_iter().collect();
        acc.retain(|pk, _| postings.contains_key(pk));
        for (pk, lists) in acc.iter_mut() {
            lists.push(postings[pk].clone());
        }
    }
    Ok(acc.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_fdb::Database;

    #[test]
    fn whitespace_tokenizer_normalizes() {
        let toks = tokenize("Call me Ishmael. Some years—ago");
        assert_eq!(toks, vec!["call", "me", "ishmael", "some", "years", "ago"]);
    }

    #[test]
    fn token_positions_collects_offsets() {
        let map = token_positions("to be or not to be");
        assert_eq!(map["to"], vec![0, 4]);
        assert_eq!(map["be"], vec![1, 5]);
        assert_eq!(map["or"], vec![2]);
    }

    fn with_map(bunch: usize, f: impl Fn(&BunchedMap<'_>)) {
        let db = Database::new();
        let tx = db.create_transaction();
        let map = BunchedMap::new(&tx, Subspace::from_bytes(b"T".to_vec()), bunch);
        f(&map);
    }

    fn pk(i: i64) -> Tuple {
        Tuple::from((i,))
    }

    #[test]
    fn insert_and_scan_single_token() {
        with_map(2, |map| {
            map.insert("whale", &pk(3), &[1, 5]).unwrap();
            map.insert("whale", &pk(1), &[0]).unwrap();
            map.insert("whale", &pk(2), &[7]).unwrap();
            let postings = map.scan_token("whale").unwrap();
            assert_eq!(
                postings,
                vec![(pk(1), vec![0]), (pk(2), vec![7]), (pk(3), vec![1, 5])]
            );
        });
    }

    #[test]
    fn bunching_respects_max_size() {
        with_map(2, |map| {
            for i in 0..7 {
                map.insert("tok", &pk(i), &[i]).unwrap();
            }
            let stats = map.stats().unwrap();
            assert_eq!(stats.postings, 7);
            // With bunch size 2 we need at least ceil(7/2) = 4 keys.
            assert!(stats.index_keys >= 4, "keys = {}", stats.index_keys);
            assert!(stats.index_keys < 7, "bunching must reduce key count");
            // Scan returns everything in order regardless of bunching.
            let postings = map.scan_token("tok").unwrap();
            let pks: Vec<i64> = postings
                .iter()
                .map(|(p, _)| p.get(0).unwrap().as_int().unwrap())
                .collect();
            assert_eq!(pks, vec![0, 1, 2, 3, 4, 5, 6]);
        });
    }

    #[test]
    fn insert_before_existing_bunch_prepends() {
        with_map(4, |map| {
            map.insert("t", &pk(10), &[0]).unwrap();
            map.insert("t", &pk(5), &[1]).unwrap(); // smaller pk: new first key
            let postings = map.scan_token("t").unwrap();
            assert_eq!(postings[0].0, pk(5));
            // Should have merged into one bunch.
            assert_eq!(map.stats().unwrap().index_keys, 1);
        });
    }

    #[test]
    fn update_existing_posting_replaces_offsets() {
        with_map(4, |map| {
            map.insert("t", &pk(1), &[0]).unwrap();
            map.insert("t", &pk(1), &[3, 4]).unwrap();
            let postings = map.scan_token("t").unwrap();
            assert_eq!(postings, vec![(pk(1), vec![3, 4])]);
        });
    }

    #[test]
    fn remove_from_bunch_variants() {
        with_map(3, |map| {
            for i in 0..3 {
                map.insert("t", &pk(i), &[i]).unwrap();
            }
            // Remove a non-key member.
            assert!(map.remove("t", &pk(1)).unwrap());
            let postings = map.scan_token("t").unwrap();
            assert_eq!(postings.len(), 2);
            // Remove the key member: bunch re-keys under next pk.
            assert!(map.remove("t", &pk(0)).unwrap());
            let postings = map.scan_token("t").unwrap();
            assert_eq!(postings, vec![(pk(2), vec![2])]);
            // Remove the last member: key disappears.
            assert!(map.remove("t", &pk(2)).unwrap());
            assert!(map.scan_token("t").unwrap().is_empty());
            assert_eq!(map.stats().unwrap().index_keys, 0);
            // Removing absent postings is a no-op.
            assert!(!map.remove("t", &pk(9)).unwrap());
        });
    }

    #[test]
    fn prefix_scan_uses_key_order() {
        with_map(4, |map| {
            map.insert("whale", &pk(1), &[0]).unwrap();
            map.insert("whaling", &pk(2), &[0]).unwrap();
            map.insert("wharf", &pk(3), &[0]).unwrap();
            map.insert("ocean", &pk(4), &[0]).unwrap();
            let hits = map.scan_prefix("whal").unwrap();
            let tokens: Vec<&str> = hits.iter().map(|(t, _)| t.as_str()).collect();
            assert_eq!(tokens, vec!["whale", "whaling"]);
        });
    }

    #[test]
    fn postings_survive_many_inserts_and_removals() {
        with_map(5, |map| {
            for i in 0..40 {
                map.insert("t", &pk(i), &[i]).unwrap();
            }
            for i in (0..40).step_by(3) {
                assert!(map.remove("t", &pk(i)).unwrap());
            }
            let postings = map.scan_token("t").unwrap();
            let expect: Vec<i64> = (0..40).filter(|i| i % 3 != 0).collect();
            let got: Vec<i64> = postings
                .iter()
                .map(|(p, _)| p.get(0).unwrap().as_int().unwrap())
                .collect();
            assert_eq!(got, expect);
        });
    }
}
