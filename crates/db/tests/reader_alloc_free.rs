//! Handing out a segment reader allocates nothing.
//!
//! Every uncached query, batch, diff and streamed chunk the server answers
//! starts with `Segment::db()`. A counting global allocator wraps the system
//! allocator, and the reader construction plus symbol resolution over a
//! segment with several microarchitectures must not move the counter.
//!
//! This file holds exactly one `#[test]` so no concurrent test can allocate
//! in the background of the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use uops_db::{Segment, Snapshot, UarchMeta, VariantRecord};

/// Counts every heap allocation (alloc, alloc_zeroed, realloc) made by any
/// thread in the process.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

fn snapshot() -> Snapshot {
    let mut s = Snapshot::new("reader alloc-free test");
    for (name, processor) in
        [("Haswell", "Core i7-4770"), ("Skylake", "Core i7-6500U"), ("Zen", "Ryzen 7")]
    {
        s.uarches.push(UarchMeta {
            name: name.into(),
            processor: processor.into(),
            year: 2015,
            ports: 8,
            characterized: 2,
            skipped: 0,
        });
        for mnemonic in ["ADD", "SHLD"] {
            s.records.push(VariantRecord {
                mnemonic: mnemonic.into(),
                variant: "R64, R64".into(),
                extension: "BASE".into(),
                uarch: name.into(),
                uop_count: 1,
                ports: vec![(0b0110_0011, 1)],
                tp_measured: 0.25,
                ..Default::default()
            });
        }
    }
    s
}

#[test]
fn reader_construction_and_resolve_allocate_nothing() {
    let seg = Segment::from_bytes(Segment::encode(&snapshot())).unwrap();
    let sym = seg.db().lookup_sym("Skylake").expect("uarch name is in the string table");
    assert_eq!(seg.db().uarch_metas().len(), 3);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut resolved = 0;
    for _ in 0..100 {
        let db = seg.db();
        resolved += db.resolve(sym).len();
        resolved += db.generator().len();
    }
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(resolved, 100 * ("Skylake".len() + "reader alloc-free test".len()));
    assert_eq!(allocated, 0, "Segment::db() + resolve allocated {allocated} times in 100 rounds");
}
