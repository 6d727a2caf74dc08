//! Integration tests for the chunked-columnar patch layout: row/columnar
//! scan equivalence (byte-identical, across chunk sizes and thread counts),
//! zone-map skip counting, projection behaviour, and the session/catalog
//! plumbing around it.

use proptest::prelude::*;

use deeplens::core::scan::row_scan;
use deeplens::prelude::{
    ColumnarPatches, Device, ImgRef, Patch, PatchCollection, PatchId, Projection, ScanFilter,
    Session, SharedCatalog, Value, WorkerPool,
};

/// Deterministic LCG so proptest shrinks over the seed, not the rows.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 11
}

/// Scores that stress float comparisons: NaN of both signs, the
/// infinities and a negative zero.
const SPECIAL_SCORES: [f64; 5] = [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0];

/// 2^53: the first integer past which `i64 as f64` rounds.
const EXACT_F64_INTS: i64 = 1 << 53;

/// A collection exercising every column shape: sorted frame numbers, a
/// low-cardinality label, int/float/bool metadata (special floats among
/// the scores, integers past 2^53), rows missing keys — singly and in runs
/// of 8, so small chunks come out all-null — a per-chunk-mixed-type key,
/// and feature payloads of two dimensions.
fn random_patches(seed: u64, n: usize) -> Vec<Patch> {
    let mut s = seed;
    (0..n)
        .map(|i| {
            let r = lcg(&mut s);
            let in_gap = (i / 8) % 4 == 1;
            let mut p = Patch::features(
                PatchId(i as u64),
                ImgRef::frame("cam", (i / 3) as u64),
                if r.is_multiple_of(4) {
                    vec![(r % 100) as f32]
                } else {
                    vec![(r % 100) as f32, (r % 7) as f32 + 0.5]
                },
            );
            p = p.with_meta(
                "label",
                match r % 3 {
                    0 => "car",
                    1 => "person",
                    _ => "bike",
                },
            );
            if !r.is_multiple_of(5) && !in_gap {
                let score = if r.is_multiple_of(13) {
                    SPECIAL_SCORES[(r / 13 % 5) as usize]
                } else {
                    (r % 1000) as f64 / 1000.0
                };
                p = p.with_meta("score", score);
            }
            if !in_gap {
                let big = EXACT_F64_INTS + (r % 5) as i64;
                p = p.with_meta("big", if r.is_multiple_of(3) { -big } else { big });
            }
            if r.is_multiple_of(7) {
                p = p.with_meta("flagged", r.is_multiple_of(2));
            }
            // A key whose type depends on the row: chunks holding both
            // variants fall back to the unprunable mixed representation.
            p = if r.is_multiple_of(2) {
                p.with_meta("mixed", (r % 50) as i64)
            } else {
                p.with_meta("mixed", format!("s{}", r % 50))
            };
            if i % 11 == 0 {
                p = p.with_parent(PatchId((i as u64).saturating_sub(1)));
            }
            p
        })
        .collect()
}

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

/// The rows with every float metadata value replaced by its bit pattern,
/// so patches compare equal exactly when they are bit-identical (a NaN
/// score equals itself, `-0.0` differs from `0.0`).
fn bitwise(patches: &[Patch]) -> Vec<Patch> {
    patches
        .iter()
        .map(|p| {
            let mut p = p.clone();
            for v in p.meta.values_mut() {
                if let Value::Float(f) = v {
                    *v = Value::Str(format!("f64 bits {:#x}", f.to_bits()));
                }
            }
            p
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The tentpole equivalence: for any collection, every filter, every
    /// projection, chunk sizes 1/7/1024, and 1/2/4 threads, the columnar
    /// scan's output is bit-identical (every field, in order) to the row
    /// scan's; every projection matches the same rows, and the columnar
    /// projections prune and decode the same chunks.
    #[test]
    fn columnar_scan_equals_row_scan(
        seed in any::<u64>(),
        n in 0usize..300,
    ) {
        let patches = random_patches(seed, n);
        for filter in filters_under_test() {
            let matched = patches.iter().filter(|p| filter.matches(p)).count();
            for chunk_rows in [1usize, 7, 1024] {
                let columnar = ColumnarPatches::from_patches(&patches, chunk_rows);
                for threads in [1usize, 2, 4] {
                    let pool = WorkerPool::new(threads);
                    let full = columnar.scan(&filter, Projection::Full, &pool);
                    for projection in [Projection::Full, Projection::MetaOnly, Projection::Count] {
                        let row = row_scan(&patches, &filter, projection);
                        let col = columnar.scan(&filter, projection, &pool);
                        prop_assert_eq!(
                            bitwise(&row.patches),
                            bitwise(&col.patches),
                            "filter {:?}, {:?}, chunk_rows {}, threads {}",
                            filter,
                            projection,
                            chunk_rows,
                            threads
                        );
                        prop_assert_eq!(row.stats.rows_matched, matched);
                        prop_assert_eq!(col.stats.rows_matched, matched, "{:?} {:?}", filter, projection);
                        prop_assert!(col.stats.used_columnar);
                        prop_assert_eq!(col.stats, full.stats, "{:?} {:?}", filter, projection);
                        prop_assert_eq!(
                            col.stats.chunks_pruned + col.stats.chunks_decoded,
                            col.stats.chunks_total
                        );
                    }
                }
            }
        }
    }

    /// Zone maps are conservative, never wrong: a pruned chunk contributes
    /// zero matches, so decoded chunks alone always reproduce the full
    /// match count — and pruning is monotone in chunk count.
    #[test]
    fn pruning_is_conservative(
        seed in any::<u64>(),
        n in 1usize..400,
        chunk_rows in 1usize..64,
    ) {
        let patches = random_patches(seed, n);
        let columnar = ColumnarPatches::from_patches(&patches, chunk_rows);
        let pool = WorkerPool::new(1);
        for filter in filters_under_test() {
            let expect = patches.iter().filter(|p| filter.matches(p)).count();
            let got = columnar.scan(&filter, Projection::Count, &pool);
            prop_assert_eq!(got.stats.rows_matched, expect, "filter {:?}", filter);
            prop_assert_eq!(
                got.stats.chunks_pruned + got.stats.chunks_decoded,
                got.stats.chunks_total
            );
        }
    }
}

#[test]
fn selective_scan_on_sorted_column_decodes_strictly_fewer_chunks() {
    // 4096 patches, 3 per frame: frame numbers sorted. A <=10%-selectivity
    // window must decode strictly fewer chunks than the whole scan — the
    // ISSUE's acceptance criterion, asserted on the scan's own counters.
    let patches = random_patches(42, 4096);
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
    let patches = random_patches(7, 500);
    let mut col = PatchCollection::from_patches(patches.clone());
    col.build_columnar(64);
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
fn session_scan_routes_through_columnar_backing() {
    let session = Session::ephemeral().unwrap();
    let patches = random_patches(3, 600);
    session.catalog.materialize("dets", patches.clone());

    // Before the build: row fallback, same answers.
    let filter = ScanFilter::MetaEq {
        key: "label".into(),
        value: Value::Str("person".into()),
    };
    let before = session.scan("dets", &filter, Projection::Full).unwrap();
    assert!(!before.stats.used_columnar);

    session.build_columnar("dets").unwrap();
    let after = session.scan("dets", &filter, Projection::Full).unwrap();
    assert!(after.stats.used_columnar);
    assert_eq!(bitwise(&before.patches), bitwise(&after.patches));
    assert_eq!(
        session.scan_count("dets", &filter).unwrap(),
        after.patches.len()
    );
    assert!(session.scan("missing", &filter, Projection::Count).is_err());
}

#[test]
fn columnar_backing_survives_cow_and_respects_snapshots() {
    // The backing rides the shared catalog's copy-on-write protocol: a
    // snapshot taken before the build never grows one; index builds after
    // it keep it (Arc-shared, not recomputed).
    let catalog = std::sync::Arc::new(SharedCatalog::new());
    let session = Session::ephemeral_attached(catalog.clone()).unwrap();
    catalog.materialize("c", random_patches(11, 200));
    let pre_build = catalog.snapshot("c").unwrap();
    catalog.build_columnar_chunked("c", 32).unwrap();
    assert!(pre_build.columnar().is_none(), "old snapshot untouched");
    let built = catalog.snapshot("c").unwrap();
    let backing = built.columnar().expect("backing published");
    assert_eq!(backing.chunk_rows(), 32);
    assert_eq!(backing.len(), 200);
    catalog.build_hash_index("c", "by_label", "label").unwrap();
    let indexed = catalog.snapshot("c").unwrap();
    assert!(
        indexed.columnar().is_some(),
        "index build keeps the backing"
    );
    // Replacing the collection REBUILDS the backing over the new rows at
    // the old granularity (instead of silently dropping it) and counts the
    // rebuild.
    let rebuilt_before = deeplens_core::catalog::columnar_backings_rebuilt();
    catalog.materialize("c", random_patches(12, 50));
    let replaced = catalog.snapshot("c").unwrap();
    let carried = replaced.columnar().expect("backing rebuilt, not dropped");
    assert_eq!(carried.chunk_rows(), 32, "granularity carried forward");
    assert_eq!(carried.len(), 50, "rebuilt over the new rows — not stale");
    assert!(replaced.live_columnar().is_some());
    assert_eq!(
        deeplens_core::catalog::columnar_backings_rebuilt(),
        rebuilt_before + 1
    );
    assert!(catalog.build_columnar("missing").is_err());
    drop(session);
}

#[test]
fn scan_agrees_across_session_thread_budgets() {
    let patches = random_patches(99, 1000);
    let mut reference: Option<Vec<Patch>> = None;
    for device in [Device::Avx, Device::ParallelCpu(2), Device::ParallelCpu(8)] {
        let mut session = Session::ephemeral().unwrap();
        session.set_device(device);
        session.catalog.materialize("c", patches.clone());
        session.build_columnar("c").unwrap();
        let got = session
            .scan(
                "c",
                &ScanFilter::FrameRange { lo: 50, hi: 150 },
                Projection::Full,
            )
            .unwrap();
        assert!(got.stats.used_columnar);
        match &reference {
            None => reference = Some(got.patches),
            Some(r) => assert_eq!(bitwise(r), bitwise(&got.patches), "device {device:?}"),
        }
    }
}
