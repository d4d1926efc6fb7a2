//! What the allocation-budget tests share: a `#[global_allocator]` that
//! tallies, per thread, the allocations made and the heap bytes and blocks
//! held, and a store of the benchmark's `Item` records
//! (`benchmark/src/items.rs`): int primary key, a string group, an int
//! score, 100 payload bytes, record versions on, the VALUE / SUM / COUNT /
//! VERSION index mix.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use record_layer::expr::KeyExpression;
use record_layer::metadata::{Index, RecordMetaData, RecordMetaDataBuilder};
use record_layer::store::RecordStore;
use rl_fdb::{Database, Subspace};
use rl_message::{DescriptorPool, DynamicMessage, FieldDescriptor, FieldType, MessageDescriptor};

thread_local! {
    /// Allocations made by this thread (`const` init and no destructor, so
    /// the allocator may touch it at any point of a thread's life).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes and blocks this thread allocated, minus those it freed.
    static HELD: Cell<(i64, i64)> = const { Cell::new((0, 0)) };
}

/// Adds `bytes` and `blocks` to this thread's `HELD`.
fn hold(bytes: i64, blocks: i64) {
    let _ = HELD.try_with(|held| {
        let (b, n) = held.get();
        held.set((b + bytes, n + blocks));
    });
}

struct Counting;

// SAFETY: defers every request to `System` unchanged; the tallies touch
// only destructor-less thread-local integers and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        hold(layout.size() as i64, 1);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        hold(-(layout.size() as i64), -1);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        hold(new_size as i64 - layout.size() as i64, 0);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) this thread makes while `f` runs.
pub fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// The heap bytes and blocks this thread holds once `f` has run, beyond
/// what it held before: what `f` returns and whatever else it left
/// allocated. Requested sizes, not the allocator's own overhead.
#[allow(dead_code)] // one test binary of those sharing this module uses it
pub fn held_after<T>(f: impl FnOnce() -> T) -> (T, i64, i64) {
    let (bytes, blocks) = HELD.with(Cell::get);
    let out = f();
    let (now_bytes, now_blocks) = HELD.with(Cell::get);
    (out, now_bytes - bytes, now_blocks - blocks)
}

pub fn per(count: u64, of: usize) -> f64 {
    count as f64 / of as f64
}

pub const RECORDS: i64 = 2000;
pub const GROUPS: i64 = 20;

pub fn item_metadata() -> RecordMetaData {
    let mut pool = DescriptorPool::new();
    pool.add_message(
        MessageDescriptor::new(
            "Item",
            vec![
                FieldDescriptor::optional("id", 1, FieldType::Int64),
                FieldDescriptor::optional("group", 2, FieldType::String),
                FieldDescriptor::optional("score", 3, FieldType::Int64),
                FieldDescriptor::optional("payload", 5, FieldType::Bytes),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    RecordMetaDataBuilder::new(pool)
        .record_type("Item", KeyExpression::field("id"))
        .store_record_versions(true)
        .index(
            "Item",
            Index::value("by_group", KeyExpression::field("group")),
        )
        .index(
            "Item",
            Index::value("by_score", KeyExpression::field("score")),
        )
        .index(
            "Item",
            Index::value(
                "by_group_score",
                KeyExpression::concat_fields("group", "score"),
            ),
        )
        .index(
            "Item",
            Index::sum(
                "score_sum",
                KeyExpression::field("group"),
                KeyExpression::field("score"),
            ),
        )
        .index("Item", Index::count("item_count", KeyExpression::Empty))
        .index(
            "Item",
            Index::version("by_version", KeyExpression::field("id")),
        )
        .build()
        .unwrap()
}

/// Item `id`, with the score `id` has in the population plus `bump`.
pub fn set_item(m: &mut DynamicMessage, id: i64, bump: i64) {
    m.set("id", id).unwrap();
    m.set("group", format!("g{}", id % GROUPS)).unwrap();
    m.set("score", (id * 37 + bump) % 100).unwrap();
    // A payload with NUL bytes in it, like the benchmark's: the envelope's
    // escaping is part of the path.
    let payload: Vec<u8> = (0..100).map(|i| (id * 131 + i * 7) as u8).collect();
    m.set("payload", payload).unwrap();
}

/// `RECORDS` items, saved 100 to a commit.
pub fn populate(db: &Database, md: &RecordMetaData, sub: &Subspace) {
    for chunk in (0..RECORDS).collect::<Vec<_>>().chunks(100) {
        record_layer::run(db, |tx| {
            let store = RecordStore::open_or_create(tx, sub, md)?;
            for &id in chunk {
                let mut m = store.new_record("Item")?;
                set_item(&mut m, id, 0);
                store.save_record(m)?;
            }
            Ok(())
        })
        .unwrap();
    }
}
