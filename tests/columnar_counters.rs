//! The columnar counter counts what it names: a catalog's
//! `rows_materialized` moves by one per row a materializing scan of it
//! assembles, and by none on a result-cache hit. Joins and dedups read
//! rows, so they never encode a collection's column chunks; only a scan
//! does. Each test reads its own catalog's counters, so the tests run in
//! parallel.
//!
//! The binary also counts heap allocations per thread, so a test can bound
//! the allocations of one call on its own thread: a result-cache hit on a
//! materializing scan hands the cached rows out without copying any.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use deeplens::prelude::{ImgRef, Patch, PatchId, Projection, ScanFilter, Session};

/// The system allocator, counting `alloc`/`realloc` calls on the calling
/// thread.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // A const-initialised `Cell` never allocates or registers a destructor,
    // so touching it from inside the allocator cannot recurse.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made so far on the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a plain thread-local `Cell`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn patches(n: usize) -> Vec<Patch> {
    (0..n)
        .map(|i| {
            Patch::features(
                PatchId(i as u64),
                ImgRef::frame("cam", i as u64),
                vec![(i % 10) as f32, (i % 4) as f32],
            )
            .with_meta("label", if i % 3 == 0 { "car" } else { "person" })
        })
        .collect()
}

#[test]
fn scans_move_the_columnar_counters_and_joins_do_not() {
    let filter = ScanFilter::FrameRange { lo: 1000, hi: 1060 };
    let tau = 1.0f32;

    // A materializing scan counts each assembled row — here from two
    // chunks on two workers — and a count scan assembles none.
    let mut scanner = Session::ephemeral().unwrap();
    scanner.set_threads(2);
    scanner.catalog.materialize("log", patches(1500));
    let scanned = scanner.scan("log", &filter, Projection::Full).unwrap();
    assert_eq!(scanned.patches.len(), 60);
    assert_eq!(
        scanner.catalog.counters().rows_materialized,
        60,
        "materializing scan counts each assembled row"
    );
    assert_eq!(scanner.scan_count("log", &filter).unwrap(), 60);
    assert_eq!(scanner.catalog.counters().rows_materialized, 60);

    // Joins and dedups — small and large, self and distinct — read rows
    // and encode no collection's chunks.
    let session = Session::ephemeral().unwrap();
    for (name, rows) in [("wide_a", 600), ("wide_b", 600), ("narrow", 16)] {
        session.catalog.materialize(name, patches(rows));
    }
    for (left, right) in [
        ("wide_a", "wide_b"),
        ("narrow", "narrow"),
        ("narrow", "wide_a"),
    ] {
        assert!(!session
            .join_collections(left, right, tau)
            .unwrap()
            .is_empty());
    }
    assert!(!session.dedup_collection("wide_a", tau).unwrap().is_empty());
    assert!(!session.dedup_collection("narrow", tau).unwrap().is_empty());
    for name in ["wide_a", "wide_b", "narrow"] {
        let snap = session.catalog.snapshot(name).unwrap();
        assert!(snap.columnar().is_none(), "a join or dedup encoded {name}");
    }
    assert_eq!(session.catalog.counters().rows_materialized, 0);
}

/// The first scan of a collection encodes it and materializes each
/// matching row once; the cache stores the answer when the scan repeats, so
/// the first two scans both miss. A result-cache hit on the same 500-row
/// `Full` scan then materializes none and allocates a handful of times (the
/// cache key), not once per field of every row: the cached rows are shared
/// with the caller.
#[test]
fn a_cached_scan_hit_copies_no_row() {
    let session = Session::ephemeral().unwrap();
    session.catalog.materialize("log", patches(600));
    let window = ScanFilter::FrameRange { lo: 50, hi: 550 };
    let counted = || session.catalog.counters().rows_materialized;
    let first = session.scan("log", &window, Projection::Full).unwrap();
    assert!(first.stats.used_columnar);
    assert_eq!(first.patches.len(), 500);
    assert_eq!(counted(), 500);
    assert!(session
        .catalog
        .snapshot("log")
        .unwrap()
        .columnar()
        .is_some());
    let miss = session.scan("log", &window, Projection::Full).unwrap();
    assert_eq!(miss.patches, first.patches);
    assert_eq!(counted(), 1000, "a repeat stores, not hits");

    let allocated = allocations();
    let hit = session.scan("log", &window, Projection::Full).unwrap();
    let spent = allocations() - allocated;
    assert_eq!(hit.patches, miss.patches);
    assert!(
        spent < 8,
        "a cache hit on {} rows made {spent} allocations",
        hit.patches.len()
    );
    assert_eq!(counted(), 1000, "a cache hit copies no row");
}
