//! Columnar zone-map benchmark: scans over a chunked-columnar patch
//! collection with pruning on (`ColumnarPatches::scan`) vs pruning off
//! (`ColumnarPatches::scan_whole`, every chunk's filter column decoded), at
//! selectivities 1.0 / 0.1 / 0.01 over the sorted frame-number column.
//!
//! Like the other recording benches this harness writes its medians into
//! `BENCH_columnar.json` at the workspace root so the pruning win is
//! tracked across PRs (CI uploads the file and gates regressions against
//! the committed baseline). Set `BENCH_COLUMNAR_OUT` to redirect the
//! output file, `CRITERION_QUICK=1` for a smoke-sized run.
//!
//! The pool is single-threaded (`WorkerPool::new(1)`) on purpose: the gain
//! is algorithmic — chunks whose statistics cannot overlap the window are
//! never decoded — so it must survive on any host shape.
//!
//! Two row families per selectivity:
//!
//! * `*_count` — `Projection::Count`: the pure scan (zone-map probes +
//!   filter-column decode), the work pruning actually removes. This is the
//!   acceptance metric: at 10% and 1% the pruned scan must win >= 2x.
//! * `*_full` — `Projection::Full`: the same scan plus materializing every
//!   matching patch. Materialization is proportional to the *result* (paid
//!   identically by both sides), so these ratios approach 1 as selectivity
//!   grows — recorded for tracking, not for the speedup claim.
//!
//! At selectivity 1.0 both sides decode everything and the count ratio is
//! ~1: the zone maps' total overhead is the probe pass, bounded by the
//! chunk count.
//!
//! A second sweep times the **packed-vs-materialize join plans** over
//! frame windows of fixed absolute size: the packed plan feeds the
//! surviving feature chunks straight to the block-form threshold kernel
//! (`ops::similarity_join_packed`, no row assembled), the materialize plan
//! scans both sides to full patches and runs the row-path Ball-Tree join.
//! At selective windows the packed plan must win (row assembly + index
//! build dominate); as the window grows the Ball-Tree's sub-quadratic
//! probing overtakes the packed kernel's all-pairs work — the crossover
//! `CostModel::prefer_packed_join` models. A byte-identity guard holds the
//! two plans to the same pair set before any timing is recorded.

use deeplens_bench::report::{self, median_secs};
use deeplens_core::ops;
use deeplens_core::prelude::*;

/// Selectivities of the frame-window sweep, in percent of the rows.
const SELECTIVITY_PCT: [usize; 3] = [100, 10, 1];

/// A detection-log-shaped collection: rows arrive in frame order (the
/// natural ingest order), `per_frame` patches per frame, each carrying a
/// feature payload and the usual metadata keys.
fn detection_log(rows: usize, per_frame: usize) -> Vec<Patch> {
    (0..rows)
        .map(|i| {
            let frame = (i / per_frame) as u64;
            Patch::features(
                PatchId(i as u64),
                ImgRef::frame("cam", frame),
                vec![
                    (i % 251) as f32,
                    (i % 17) as f32,
                    (i % 5) as f32,
                    1.0,
                    (i % 29) as f32,
                    (i % 3) as f32,
                    0.5,
                    (i % 97) as f32,
                ],
            )
            .with_meta("label", if i % 3 == 0 { "car" } else { "person" })
            .with_meta("score", (i % 1000) as f64 / 1000.0)
            .with_meta("frameno", frame as i64)
        })
        .collect()
}

struct Record {
    name: &'static str,
    selectivity_pct: usize,
    median_s: f64,
}

fn main() {
    let quick = std::env::var("CRITERION_QUICK").is_ok_and(|v| v != "0");
    // Full sizing puts the whole-collection count scan over the regression
    // gate's 2 ms noise floor; the deeply pruned rows legitimately sit
    // under it (that speed is the point) and the gate skips them as noise.
    let (rows, reps) = if quick {
        (40_000usize, 3usize)
    } else {
        (500_000, 5)
    };
    let per_frame = 4usize;
    let chunk_rows = DEFAULT_CHUNK_ROWS;
    let patches = detection_log(rows, per_frame);
    let columnar = ColumnarPatches::from_patches(&patches, chunk_rows);
    let pool = WorkerPool::new(1);
    let frames = (rows / per_frame) as u64;

    let window = |pct: usize| {
        // A contiguous window of pct% of the frames, away from the edges.
        let span = (frames * pct as u64) / 100;
        let lo = (frames - span) / 2;
        ScanFilter::FrameRange { lo, hi: lo + span }
    };

    let mut records: Vec<Record> = Vec::new();
    for pct in SELECTIVITY_PCT {
        let filter = window(pct);

        // Byte-identity guard: pruned, unpruned, and row-layout scans must
        // answer identically before any timing means anything.
        let pruned = columnar.scan(&filter, Projection::Full, &pool);
        let whole = columnar.scan_whole(&filter, Projection::Full, &pool);
        let rows_ref = deeplens_core::scan::row_scan(&patches, &filter, Projection::Full);
        assert_eq!(
            pruned.patches, whole.patches,
            "pruning changed answers at {pct}%"
        );
        assert_eq!(
            pruned.patches, rows_ref.patches,
            "columnar diverged from rows at {pct}%"
        );
        assert!(
            pct == 100 || pruned.stats.chunks_pruned > 0,
            "selective window must skip chunks (decoded {}/{})",
            pruned.stats.chunks_decoded,
            pruned.stats.chunks_total
        );

        // Acceptance rows: Projection::Count isolates the scan itself
        // (zone-map probes + filter-column decode), the work pruning saves.
        let zone_count_s = median_secs(reps, || {
            columnar
                .scan(&filter, Projection::Count, &pool)
                .stats
                .rows_matched
        });
        let whole_count_s = median_secs(reps, || {
            columnar
                .scan_whole(&filter, Projection::Count, &pool)
                .stats
                .rows_matched
        });
        // Tracking rows: the same scans materializing every matching patch.
        let zone_full_s = median_secs(reps, || {
            columnar
                .scan(&filter, Projection::Full, &pool)
                .stats
                .rows_matched
        });
        let whole_full_s = median_secs(reps, || {
            columnar
                .scan_whole(&filter, Projection::Full, &pool)
                .stats
                .rows_matched
        });
        for (name, median_s) in [
            ("count_scan_zone_map", zone_count_s),
            ("count_scan_whole", whole_count_s),
            ("full_scan_zone_map", zone_full_s),
            ("full_scan_whole", whole_full_s),
        ] {
            records.push(Record {
                name,
                selectivity_pct: pct,
                median_s,
            });
        }
    }

    // Packed-vs-materialize join sweep over fixed-size frame windows.
    // The self-join makes the comparison symmetric and keeps one window
    // variable; tau is sized so matches are sparse (realistic dedup radii).
    let join_tau = 2.0f32;
    let join_windows: [usize; 3] = if quick {
        [64, 256, 1024]
    } else {
        [64, 512, 4096]
    };
    struct JoinRecord {
        name: &'static str,
        window_rows: usize,
        median_s: f64,
    }
    let mut join_records: Vec<JoinRecord> = Vec::new();
    for w in join_windows {
        let span = (w / per_frame).max(1) as u64;
        let lo = (frames - span.min(frames)) / 2;
        let filter = ScanFilter::FrameRange { lo, hi: lo + span };

        // Byte-identity guard: both plans must answer identically before
        // their wall-clocks mean anything.
        let packed_pairs = ops::similarity_join_packed(
            &columnar, &filter, &columnar, &filter, join_tau, None, &pool,
        );
        let mat_rows = columnar.scan(&filter, Projection::Full, &pool).patches;
        let mat_pairs = ops::similarity_join_balltree(&mat_rows, &mat_rows, join_tau, &pool);
        assert_eq!(
            packed_pairs, mat_pairs,
            "packed join diverged from the row path at window {w}"
        );

        let packed_s = median_secs(reps, || {
            ops::similarity_join_packed(
                &columnar, &filter, &columnar, &filter, join_tau, None, &pool,
            )
            .len()
        });
        let mat_s = median_secs(reps, || {
            let l = columnar.scan(&filter, Projection::Full, &pool).patches;
            let r = columnar.scan(&filter, Projection::Full, &pool).patches;
            ops::similarity_join_balltree(&l, &r, join_tau, &pool).len()
        });
        join_records.push(JoinRecord {
            name: "join_packed",
            window_rows: w,
            median_s: packed_s,
        });
        join_records.push(JoinRecord {
            name: "join_materialize",
            window_rows: w,
            median_s: mat_s,
        });
    }

    for r in &records {
        println!(
            "bench columnar/{:<24} selectivity {:>3}%   median {:>9.3} ms",
            r.name,
            r.selectivity_pct,
            r.median_s * 1e3
        );
    }
    for r in &join_records {
        println!(
            "bench columnar/{:<24} window {:>6} rows  median {:>9.3} ms",
            r.name,
            r.window_rows,
            r.median_s * 1e3
        );
    }

    let lookup = |name: &str, pct: usize| {
        records
            .iter()
            .find(|r| r.name == name && r.selectivity_pct == pct)
            .map(|r| r.median_s)
            .unwrap_or(f64::NAN)
    };

    let mut sections: Vec<(&str, String)> = vec![
        ("bench", "\"columnar\"".into()),
        ("quick", quick.to_string()),
        ("host", report::host_json(&[])),
        (
            "config",
            report::json_object(&[
                ("rows", rows.to_string()),
                ("per_frame", per_frame.to_string()),
                ("chunk_rows", chunk_rows.to_string()),
                ("reps", reps.to_string()),
            ]),
        ),
    ];
    let mut result_rows: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "{{\"name\": \"{}\", \"selectivity_pct\": {}, \"median_s\": {:.6}}}",
                r.name, r.selectivity_pct, r.median_s
            )
        })
        .collect();
    result_rows.extend(join_records.iter().map(|r| {
        format!(
            "{{\"name\": \"{}\", \"window_rows\": {}, \"median_s\": {:.6}}}",
            r.name, r.window_rows, r.median_s
        )
    }));
    sections.push(("results", report::json_array(&result_rows)));
    // The acceptance figure: at <=10% selectivity over the sorted column
    // the zone-map count scan must beat decoding every chunk by >= 2x
    // median. (The full-projection rows are dominated by materializing the
    // shared result set, so they are recorded but not the claim.)
    for pct in [10usize, 1] {
        let speedup = lookup("count_scan_whole", pct) / lookup("count_scan_zone_map", pct);
        println!("bench columnar/zone_vs_whole speedup at {pct}%: {speedup:.2}x");
        sections.push(if pct == 10 {
            ("zone_vs_whole_speedup_10pct", format!("{speedup:.3}"))
        } else {
            ("zone_vs_whole_speedup_1pct", format!("{speedup:.3}"))
        });
    }
    // The packed-join acceptance figure: at the smallest (most selective)
    // window the packed plan must beat materialize-then-join — that ratio
    // is the win this PR's scan → join path exists for. The largest window
    // documents the crossover (the Ball-Tree eventually wins; the planner's
    // `prefer_packed_join` models exactly that flip).
    let join_lookup = |name: &str, w: usize| {
        join_records
            .iter()
            .find(|r| r.name == name && r.window_rows == w)
            .map(|r| r.median_s)
            .unwrap_or(f64::NAN)
    };
    let selective = join_windows[0];
    let packed_speedup =
        join_lookup("join_materialize", selective) / join_lookup("join_packed", selective);
    println!(
        "bench columnar/packed_vs_materialize speedup at {selective} rows: {packed_speedup:.2}x"
    );
    sections.push((
        "packed_vs_materialize_speedup_selective",
        format!("{packed_speedup:.3}"),
    ));

    report::record_artifact(
        "BENCH_COLUMNAR_OUT",
        format!("{}/../../BENCH_columnar.json", env!("CARGO_MANIFEST_DIR")),
        &report::bench_json(&sections),
    );
}
