//! Integration tests for the chunked-columnar patch layout: row/columnar
//! scan equivalence (byte-identical, across chunk sizes and thread counts),
//! zone-map skip counting, projection behaviour, and the catalog plumbing
//! around it — a collection's chunks are encoded by its first scan, and
//! only by a scan. Session scans answer as `row_scan` of the shared harness
//! (`harness/mod.rs`), whose whole sweep `tests/oracle.rs` runs.

mod harness;

use std::sync::{Arc, Barrier};

use harness::{bitwise, cases, log_rows, sweep_scans};

use deeplens::core::scan::row_scan;
use deeplens::prelude::{
    BatchQuery, BatchResult, ColumnarPatches, Patch, PatchCollection, Projection, ScanFilter,
    Session, SharedCatalog, Value, WorkerPool,
};

/// 2^53: the first integer past which `i64 as f64` rounds.
const EXACT_F64_INTS: i64 = 1 << 53;

/// Filters over the log rows of the harness ([`log_rows`]).
fn filters_under_test() -> Vec<ScanFilter> {
    vec![
        ScanFilter::All,
        ScanFilter::FrameRange { lo: 2, hi: 9 },
        ScanFilter::FrameRange { lo: 9, hi: 2 },
        ScanFilter::MetaEq {
            key: "label".into(),
            value: Value::Str("car".into()),
        },
        ScanFilter::MetaEq {
            key: "flagged".into(),
            value: Value::Bool(true),
        },
        ScanFilter::MetaEq {
            key: "mixed".into(),
            value: Value::Int(17),
        },
        ScanFilter::MetaEq {
            key: "score".into(),
            value: Value::Int(0),
        },
        ScanFilter::MetaRange {
            key: "score".into(),
            lo: 0.25,
            hi: 0.75,
        },
        ScanFilter::MetaRange {
            key: "mixed".into(),
            lo: 10.0,
            hi: 20.0,
        },
        ScanFilter::MetaRange {
            key: "label".into(),
            lo: 0.0,
            hi: 100.0,
        },
        ScanFilter::MetaEq {
            key: "absent".into(),
            value: Value::Float(1.0),
        },
        // Special floats: a NaN bound matches nothing, NaN never equals
        // itself, -0.0 equals 0.0, and the infinities bound ranges.
        ScanFilter::MetaRange {
            key: "score".into(),
            lo: f64::NAN,
            hi: 1.0,
        },
        ScanFilter::MetaRange {
            key: "score".into(),
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
        },
        ScanFilter::MetaRange {
            key: "score".into(),
            lo: -0.0,
            hi: 0.5,
        },
        ScanFilter::MetaEq {
            key: "score".into(),
            value: Value::Float(0.0),
        },
        ScanFilter::MetaEq {
            key: "score".into(),
            value: Value::Float(f64::NAN),
        },
        // Whole chunks inside the filter: answered from the zone map by a
        // count (every finite score is in [0, 1); frames run from 0).
        ScanFilter::MetaRange {
            key: "score".into(),
            lo: -1.0,
            hi: 2.0,
        },
        ScanFilter::FrameRange { lo: 3, hi: 60 },
        ScanFilter::FrameRange {
            lo: 0,
            hi: u64::MAX,
        },
        // Integers past 2^53 under f64 coercion, and exact Int equality.
        ScanFilter::MetaRange {
            key: "big".into(),
            lo: EXACT_F64_INTS as f64,
            hi: (EXACT_F64_INTS + 2) as f64,
        },
        ScanFilter::MetaRange {
            key: "big".into(),
            lo: 0.0,
            hi: f64::MAX,
        },
        ScanFilter::MetaRange {
            key: "big".into(),
            lo: f64::MIN,
            hi: 0.0,
        },
        ScanFilter::MetaEq {
            key: "big".into(),
            value: Value::Int(EXACT_F64_INTS + 1),
        },
    ]
}

/// The tentpole equivalence: for any collection, every filter, every
/// projection, chunk sizes 1/7/1024, and 1/2/4 threads, the columnar
/// scan's output is bit-identical (every field, in order) to the row
/// scan's; every projection matches the same rows, and the columnar
/// projections prune and decode the same chunks. A never-built
/// collection, whose first scan encodes its chunks, agrees too.
#[test]
fn columnar_scan_equals_row_scan() {
    cases("columnar_scan_equals_row_scan", 24, |g| {
        let patches = log_rows(g.next_u64(), g.below(300) as usize);
        let lazy = PatchCollection::from_patches(patches.clone());
        // Built once per case: each filter scans the same chunks and pools.
        let columnars = [1usize, 7, 1024].map(|c| (c, ColumnarPatches::from_patches(&patches, c)));
        let pools = [1usize, 2, 4].map(|t| (t, WorkerPool::new(t)));
        let projections = [Projection::Full, Projection::MetaOnly, Projection::Count];
        for filter in filters_under_test() {
            let matched = patches.iter().filter(|p| filter.matches(p)).count();
            // The row-scan reference of each projection, computed once.
            let rows = projections.map(|projection| row_scan(&patches, &filter, projection));
            for (&projection, row) in projections.iter().zip(&rows) {
                let col = lazy.scan(&filter, projection, &pools[1].1);
                assert_eq!(bitwise(&row.patches), bitwise(&col.patches));
                assert_eq!(col.stats.rows_matched, matched);
                assert!(col.stats.used_columnar);
            }
            for (chunk_rows, columnar) in &columnars {
                for (threads, pool) in &pools {
                    let full = columnar.scan(&filter, Projection::Full, pool);
                    for (&projection, row) in projections.iter().zip(&rows) {
                        let col = columnar.scan(&filter, projection, pool);
                        assert_eq!(
                            bitwise(&row.patches),
                            bitwise(&col.patches),
                            "filter {:?}, {:?}, chunk_rows {}, threads {}",
                            filter,
                            projection,
                            chunk_rows,
                            threads
                        );
                        assert_eq!(row.stats.rows_matched, matched);
                        assert_eq!(
                            col.stats.rows_matched, matched,
                            "{:?} {:?}",
                            filter, projection
                        );
                        assert!(col.stats.used_columnar);
                        assert_eq!(col.stats, full.stats, "{:?} {:?}", filter, projection);
                        assert_eq!(
                            col.stats.chunks_pruned + col.stats.chunks_decoded,
                            col.stats.chunks_total
                        );
                    }
                }
            }
        }
    });
}

/// Zone maps are conservative, never wrong: a pruned chunk contributes
/// zero matches, so decoded chunks alone always reproduce the full
/// match count — and pruning is monotone in chunk count.
#[test]
fn pruning_is_conservative() {
    cases("pruning_is_conservative", 24, |g| {
        let patches = log_rows(g.next_u64(), g.range(1, 400) as usize);
        let columnar = ColumnarPatches::from_patches(&patches, g.range(1, 64) as usize);
        let pool = WorkerPool::new(1);
        for filter in filters_under_test() {
            let expect = patches.iter().filter(|p| filter.matches(p)).count();
            let got = columnar.scan(&filter, Projection::Count, &pool);
            assert_eq!(got.stats.rows_matched, expect, "filter {:?}", filter);
            assert_eq!(
                got.stats.chunks_pruned + got.stats.chunks_decoded,
                got.stats.chunks_total
            );
        }
    });
}

#[test]
fn selective_scan_on_sorted_column_decodes_strictly_fewer_chunks() {
    // 4096 patches, 3 per frame: frame numbers sorted. A <=10%-selectivity
    // window must decode strictly fewer chunks than the whole scan — the
    // ISSUE's acceptance criterion, asserted on the scan's own counters.
    let patches = log_rows(42, 4096);
    let columnar = ColumnarPatches::from_patches(&patches, 128);
    let pool = WorkerPool::new(1);
    let whole = columnar.scan(&ScanFilter::All, Projection::Count, &pool);
    assert_eq!(whole.stats.chunks_decoded, 32);
    assert_eq!(whole.stats.chunks_pruned, 0);

    // Frames run 0..=1365; a 100-frame window is ~7% of the rows.
    let window = ScanFilter::FrameRange { lo: 600, hi: 700 };
    let selective = columnar.scan(&window, Projection::Count, &pool);
    assert_eq!(selective.stats.rows_matched, 300);
    assert!(
        selective.stats.chunks_decoded < whole.stats.chunks_decoded,
        "selective scan must decode strictly fewer chunks ({} vs {})",
        selective.stats.chunks_decoded,
        whole.stats.chunks_decoded
    );
    // The bound is tight, not just "fewer": 300 rows span at most 4 of the
    // 128-row chunks (sorted column → contiguous), so the zone maps must
    // skip at least 28 of 32.
    assert!(
        selective.stats.chunks_decoded <= 4,
        "decoded {} chunks for a 300-row contiguous window",
        selective.stats.chunks_decoded
    );
}

#[test]
fn ops_pushdown_selections_match_iterator_filters() {
    let patches = log_rows(7, 500);
    let col = ColumnarPatches::from_patches(&patches, 64);
    let pool = WorkerPool::new(2);
    let select = |filter: ScanFilter| col.scan(&filter, Projection::Full, &pool).patches;

    let by_range = select(ScanFilter::FrameRange { lo: 10, hi: 40 });
    let expect: Vec<Patch> = patches
        .iter()
        .filter(|p| (10..40).contains(&p.img_ref.frame_no))
        .cloned()
        .collect();
    assert_eq!(bitwise(&by_range), bitwise(&expect));

    let by_label = select(ScanFilter::MetaEq {
        key: "label".into(),
        value: Value::Str("bike".into()),
    });
    let expect: Vec<Patch> = patches
        .iter()
        .filter(|p| p.get_str("label") == Some("bike"))
        .cloned()
        .collect();
    assert_eq!(bitwise(&by_label), bitwise(&expect));

    let by_score = select(ScanFilter::MetaRange {
        key: "score".into(),
        lo: 0.1,
        hi: 0.3,
    });
    let expect: Vec<Patch> = patches
        .iter()
        .filter(|p| {
            p.get_float("score")
                .is_some_and(|v| (0.1..0.3).contains(&v))
        })
        .cloned()
        .collect();
    assert_eq!(bitwise(&by_score), bitwise(&expect));
}

#[test]
fn columnar_backing_survives_cow_and_respects_snapshots() {
    // The chunks ride the shared catalog's copy-on-write protocol: a
    // snapshot taken before the build never grows them; index builds after
    // it keep them (Arc-shared, not recomputed).
    let catalog = Arc::new(SharedCatalog::new());
    let session = Session::ephemeral_attached(catalog.clone()).unwrap();
    catalog.materialize("c", log_rows(11, 200));
    let pre_build = catalog.snapshot("c").unwrap();
    catalog.build_columnar("c").unwrap();
    assert!(pre_build.columnar().is_none(), "old snapshot untouched");
    let built = catalog.snapshot("c").unwrap();
    // A fresh version: no scan cached before the build replays after it.
    assert!(built.version() > pre_build.version());
    let backing = built.columnar().expect("chunks published");
    assert_eq!(backing.len(), 200);
    catalog.build_hash_index("c", "by_label", "label").unwrap();
    let indexed = catalog.snapshot("c").unwrap();
    assert!(
        std::ptr::eq(indexed.columnar().unwrap(), backing),
        "index build shares the chunks"
    );
    // Replacing the collection carries no chunks: the new version's first
    // scan encodes its own, over the new rows — never the old ones.
    catalog.materialize("c", log_rows(12, 50));
    let replaced = catalog.snapshot("c").unwrap();
    assert!(replaced.columnar().is_none(), "chunks are not carried");
    let counted = replaced.scan(&ScanFilter::All, Projection::Count, &WorkerPool::new(1));
    assert_eq!(counted.stats.rows_matched, 50);
    assert_eq!(replaced.columnar().map(ColumnarPatches::len), Some(50));
    assert!(catalog.build_columnar("missing").is_err());
    drop(session);
}

#[test]
fn only_scans_encode_and_concurrent_first_scans_encode_once() {
    let session = Session::ephemeral().unwrap();
    let catalog = &session.catalog;
    let unencoded = |why: &str| {
        let snap = catalog.snapshot("c").unwrap();
        assert!(snap.columnar().is_none(), "{why} encoded the chunks");
    };
    // Joins and index builds need one feature dimension: keep the 2-d rows.
    let rows = |seed| -> Vec<Patch> {
        log_rows(seed, 800)
            .into_iter()
            .filter(|p| p.data.features().is_some_and(|f| f.len() == 2))
            .collect()
    };
    catalog.materialize("c", rows(21));
    unencoded("a materialize");
    assert!(!session.join_collections("c", "c", 0.5).unwrap().is_empty());
    unencoded("a join");
    assert!(!session.dedup_collection("c", 0.5).unwrap().is_empty());
    unencoded("a dedup");
    catalog.materialize("c", rows(22));
    unencoded("a re-materialize");
    session.build_ball_index("c", "feat").unwrap();
    let mut probe = session.batch();
    probe.push(BatchQuery::IndexProbe {
        collection: "c".into(),
        index: "feat".into(),
        probe: vec![50.0, 3.5],
        tau: 10.0,
    });
    assert!(matches!(&probe.run().unwrap()[..], [BatchResult::Hits(h)] if !h.is_empty()));
    unencoded("an index build or probe");

    // The first session scan encodes; a second reuses the same chunks.
    let filter = ScanFilter::FrameRange { lo: 20, hi: 90 };
    session.scan("c", &filter, Projection::Count).unwrap();
    let snap = catalog.snapshot("c").unwrap();
    let first = snap.columnar().expect("the scan encoded") as *const ColumnarPatches;
    snap.scan(&filter, Projection::Full, &WorkerPool::new(1));
    assert!(std::ptr::eq(snap.columnar().unwrap(), first));

    // Eight threads scan one never-scanned snapshot at once: all agree
    // with the oracle, and the snapshot is left with one encoding.
    catalog.materialize("c", rows(24));
    let snap = catalog.snapshot("c").unwrap();
    let expected = row_scan(&snap.patches, &filter, Projection::Full);
    let start = Barrier::new(8);
    let seen: Vec<usize> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    let got = snap.scan(&filter, Projection::Full, &WorkerPool::new(1));
                    assert_eq!(bitwise(&got.patches), bitwise(&expected.patches));
                    snap.columnar().unwrap() as *const ColumnarPatches as usize
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    assert!(seen.iter().all(|&p| p == seen[0]), "one encoding, shared");
}

/// Session scans of unbacked and backed logs: the first sighting scans
/// columnar either way, and the answer, the repeat, the replay and
/// `scan_count` equal `row_scan` bit for bit.
#[test]
fn session_scan_routes_through_columnar_backing() {
    cases("session_scan_routes_through_columnar_backing", 1, |g| {
        sweep_scans(g.next_u64())
    });
}

/// Session scans at 1, 2 and 4 threads equal `row_scan` bit for bit.
#[test]
fn scan_agrees_across_session_thread_budgets() {
    cases("scan_agrees_across_session_thread_budgets", 1, |g| {
        sweep_scans(g.next_u64())
    });
}
