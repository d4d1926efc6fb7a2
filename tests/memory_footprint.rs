//! Memory footprint of the memory engine: the heap a database holds once
//! the 2 000-item store of `items` is populated, per byte and per key of
//! what it stores, counted by `items`' `#[global_allocator]`. A count, not
//! a resident size: it repeats exactly on one build (memory engine, one
//! thread, fixed population; a debug build holds one block more), so a change to the engine's representation,
//! the garbage log or anything else a database keeps per stored key shows
//! up here before any benchmark run.
//!
//! Live KV bytes are the keys' and values' lengths summed over every key a
//! read at the last version sees; heap bytes are the sizes requested from
//! the allocator (its own per-block overhead comes on top). Populating
//! runs no compaction, so the statistics keys the commits `ADD` to still
//! hold their chains of 20 versions.
//!
//! Baseline: the parent of the change that keeps keys of up to 30 bytes
//! and one-version chains inside the map's nodes
//! (`crates/storage/src/memory.rs`), and that change. 12 033 live keys
//! hold 450 537 bytes. At the parent each key held a block for its bytes,
//! one for its chain (sized for four versions at the first push) and one
//! for a non-empty value; now a key holds its value's block at most, and
//! what is left is mostly the records' payload and version values and
//! the map's nodes.
//!
//! | per live …                 | parent | now  | budget |
//! |----------------------------|--------|------|--------|
//! | heap bytes per KV byte     |  7.57  | 4.49 | 4.6    |
//! | heap blocks per key        |  2.54  | 0.55 | 0.6    |

use std::ops::ControlFlow;

use rl_fdb::tuple::Tuple;
use rl_fdb::{Database, DatabaseOptions, EngineKind, RangeOptions, Subspace};

#[allow(dead_code)] // the allocation counts are the other budget tests'
mod items;

use items::{held_after, item_metadata, populate};

#[test]
fn a_populated_store_holds_little_beyond_its_bytes() {
    let md = item_metadata();
    let sub = Subspace::from_tuple(&Tuple::new().push(1i64).push("it"));
    let (db, bytes, blocks) = held_after(|| {
        let db = Database::with_options(DatabaseOptions {
            engine: EngineKind::InMemory,
            ..DatabaseOptions::default()
        });
        populate(&db, &md, &sub);
        db
    });

    let (mut keys, mut kv_bytes) = (0usize, 0usize);
    let tx = db.create_transaction();
    let mut tally = |key: &[u8], value: &[u8]| {
        keys += 1;
        kv_bytes += key.len() + value.len();
        ControlFlow::Continue(())
    };
    tx.visit_range(Vec::new(), vec![0xFF], RangeOptions::default(), &mut tally)
        .unwrap();
    assert_eq!(keys, db.live_key_count());

    let per_byte = bytes as f64 / kv_bytes as f64;
    let per_key = blocks as f64 / keys as f64;
    println!(
        "held: {bytes} heap bytes in {blocks} blocks for {keys} keys of {kv_bytes} bytes: \
         {per_byte:.2} bytes per KV byte, {per_key:.2} blocks per key"
    );
    assert!(per_byte <= 4.6, "heap bytes per KV byte: {per_byte:.2}");
    assert!(per_key <= 0.6, "heap blocks per key: {per_key:.2}");
}
