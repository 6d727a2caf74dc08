//! Allocation budget of late materialization: a scan assembles each
//! featured row from two allocations — its feature vector and its metadata
//! vector — because keys, sources and string values are shared with the
//! column chunks. A counting global allocator measures it on the calling
//! thread; a one-worker pool keeps the whole scan there.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use deeplens::core::scan::{ColumnarPatches, Projection, ScanFilter, DEFAULT_CHUNK_ROWS};
use deeplens::exec::WorkerPool;
use deeplens::prelude::{ImgRef, Patch, PatchId};

/// The system allocator, counting allocation calls per thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot may be gone while the thread tears down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Rows shaped like a detection log: 8-d features and three keys — an
/// integer, a string and a float.
fn log_rows(n: usize) -> Vec<Patch> {
    (0..n)
        .map(|i| {
            Patch::features(
                PatchId(i as u64),
                ImgRef::frame("cam", i as u64 / 4),
                vec![i as f32; 8],
            )
            .with_meta("frameno", (i / 4) as i64)
            .with_meta("label", ["car", "person", "bike"][i % 3])
            .with_meta("score", (i % 100) as f64 / 100.0)
        })
        .collect()
}

/// Per-scan allowance beside the per-row budget: each surviving chunk
/// decodes its projected columns into a handful of column-wide vectors, and
/// the scan collects the chunks' parts into one shared reply.
fn fixed_allowance(rows: usize) -> usize {
    let chunks = rows.div_ceil(DEFAULT_CHUNK_ROWS);
    32 * chunks + 32
}

#[test]
fn a_full_scan_allocates_two_per_featured_row() {
    let n = 10_000;
    let columnar = ColumnarPatches::from_patches_default(&log_rows(n));
    let pool = WorkerPool::new(1);
    let (result, count) = allocations(|| columnar.scan(&ScanFilter::All, Projection::Full, &pool));
    assert_eq!(result.patches.len(), n);
    assert!(result.patches.iter().all(|p| p.meta.len() == 3));
    let budget = 2 * n + fixed_allowance(n);
    assert!(
        count <= budget,
        "{count} allocations for {n} rows, budget {budget}"
    );
}

#[test]
fn a_meta_only_scan_allocates_one_per_row() {
    let n = 10_000;
    let columnar = ColumnarPatches::from_patches_default(&log_rows(n));
    let pool = WorkerPool::new(1);
    let (result, count) =
        allocations(|| columnar.scan(&ScanFilter::All, Projection::MetaOnly, &pool));
    assert_eq!(result.patches.len(), n);
    assert!(result.patches.iter().all(|p| p.meta.len() == 3));
    let budget = n + fixed_allowance(n);
    assert!(
        count <= budget,
        "{count} allocations for {n} rows, budget {budget}"
    );
}
