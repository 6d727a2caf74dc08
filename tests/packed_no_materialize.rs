//! The packed path's headline claim, held by a counter: a packed
//! `scan → join` never assembles a `Patch` row — and its predicate-filtered
//! variant assembles only the rows that appear in candidate pairs, never
//! the non-matching remainder.
//!
//! `rows_materialized` and `columnar_backing_hits` are process-global, so
//! every assertion lives in this one test function (integration test
//! binaries run their tests in threads; a second test in this file would
//! race the deltas).

use deeplens::core::catalog::columnar_backing_hits;
use deeplens::core::ops;
use deeplens::core::scan::rows_materialized;
use deeplens::prelude::{
    ColumnarPatches, ImgRef, Patch, PatchId, Projection, ScanFilter, Session, WorkerPool,
};

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
fn packed_path_never_materializes_non_matching_rows() {
    let n = 500;
    let left = patches(n);
    let right = patches(n);
    let lc = ColumnarPatches::from_patches(&left, 32);
    let rc = ColumnarPatches::from_patches(&right, 32);
    let pool = WorkerPool::new(2);
    let filter = ScanFilter::FrameRange { lo: 100, hi: 160 };
    let tau = 1.0f32;

    // Plain packed join: zero rows assembled, on any path.
    let before = rows_materialized();
    let pairs = ops::similarity_join_packed(&lc, &filter, &rc, &filter, tau, None, &pool);
    assert!(!pairs.is_empty(), "fixture must produce matches");
    assert_eq!(
        rows_materialized() - before,
        0,
        "packed join must not assemble any row"
    );

    // Packed dedup: same claim.
    let before = rows_materialized();
    let clusters = ops::dedup_similarity_packed(&lc, &filter, tau, &pool);
    assert!(!clusters.is_empty());
    assert_eq!(
        rows_materialized() - before,
        0,
        "packed dedup must not assemble any row"
    );

    // Predicate-filtered packed join: late materialization touches at most
    // the distinct rows named by candidate pairs — strictly fewer than the
    // rows the filter matched, which is itself fewer than the collection.
    let candidate_rows = {
        let l: std::collections::BTreeSet<u32> = pairs.iter().map(|(i, _)| *i).collect();
        let r: std::collections::BTreeSet<u32> = pairs.iter().map(|(_, j)| *j).collect();
        (l.len() + r.len()) as u64
    };
    let before = rows_materialized();
    let same_label = |a: &Patch, b: &Patch| a.get_str("label") == b.get_str("label");
    let filtered =
        ops::similarity_join_packed(&lc, &filter, &rc, &filter, tau, Some(&same_label), &pool);
    let assembled = rows_materialized() - before;
    assert!(!filtered.is_empty());
    assert!(
        filtered.len() < pairs.len(),
        "predicate must prune some pairs"
    );
    assert!(
        assembled <= candidate_rows,
        "assembled {assembled} > candidate rows {candidate_rows}"
    );
    assert!(
        assembled < 2 * n as u64,
        "late materialization touched rows the kernel never matched"
    );

    // Control: the materializing scan path does move the counter.
    let before = rows_materialized();
    let scanned = lc.scan(&filter, Projection::Full, &pool);
    assert_eq!(
        rows_materialized() - before,
        scanned.patches.len() as u64,
        "materializing scan counts each assembled row"
    );

    // Backing hits count uses, not looks. Two backed 600-row collections sit
    // past the packed/Ball-Tree crossover: the planner inspects both
    // backings, plans the tree, and reads no chunk — no hit. (It used to
    // report two for the join and one for the dedup.)
    let session = Session::ephemeral().unwrap();
    for (name, rows) in [("wide_a", 600), ("wide_b", 600), ("narrow", 16)] {
        session.catalog.materialize(name, patches(rows));
        session.build_columnar(name).unwrap();
    }
    let before = columnar_backing_hits();
    assert!(!session
        .join_collections("wide_a", "wide_b", tau)
        .unwrap()
        .is_empty());
    assert!(!session.dedup_collection("wide_a", tau).unwrap().is_empty());
    assert_eq!(
        columnar_backing_hits(),
        before,
        "a Ball-Tree-planned join read no backing"
    );
    // A 16-row pair plans packed and reads both backings; its dedup reads
    // one.
    assert!(!session
        .join_collections("narrow", "narrow", tau)
        .unwrap()
        .is_empty());
    assert_eq!(
        columnar_backing_hits() - before,
        1,
        "self-join: one backing"
    );
    session.catalog.materialize("narrow_b", patches(16));
    session.build_columnar("narrow_b").unwrap();
    session.join_collections("narrow", "narrow_b", tau).unwrap();
    assert_eq!(columnar_backing_hits() - before, 3, "two distinct backings");
    session.dedup_collection("narrow", tau).unwrap();
    assert_eq!(columnar_backing_hits() - before, 4);
}
