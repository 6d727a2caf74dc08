//! Figure 4 — DeepLens significantly speeds up "query time" with indexes;
//! image-matching queries gain the most (paper: up to 612×), lineage-backed
//! backtracing gains heavily (41×), and q5's substring predicate gains
//! nothing.
//!
//! Query time only: all ETL (detection, OCR, featurization) runs up front
//! and is excluded, mirroring §7.2's Query-time/ETL-time separation.

use deeplens_bench::etl::{football_etl, pc_etl, traffic_etl_default};
use deeplens_bench::queries::*;
use deeplens_bench::report::{ms, time, Table};
use deeplens_bench::{scale, WORLD_SEED};

fn main() {
    let s = scale();
    println!("Fig. 4 | DEEPLENS_SCALE={s} (ETL excluded from timings)");

    // ---- ETL (not timed in the figure) ----
    let pc = pc_etl(1.0, WORLD_SEED); // PC is small; run it at paper scale
    let traffic = traffic_etl_default(s, WORLD_SEED);
    let football = football_etl(s, WORLD_SEED);
    let people = q4_person_patches(&traffic);
    println!(
        "corpus: pc images={}, traffic detections={} (people={}), football detections={}",
        pc.image_patches.len(),
        traffic.detections.len(),
        people.len(),
        football.detections.len()
    );

    // Physical design for the optimized plans (indexes are built up front
    // here; Fig. 5 charges them to the query instead).
    traffic
        .catalog
        .build_hash_index("traffic_dets", "by_label", "label")
        .expect("materialized");
    let traffic_dets = traffic
        .catalog
        .snapshot("traffic_dets")
        .expect("materialized");
    let id_map = q3_build_id_map(&football);

    let mut table = Table::new(
        "Fig. 4 — query time: baseline (no index) vs hand-tuned physical design",
        &[
            "query",
            "baseline ms",
            "indexed ms",
            "speedup",
            "answers agree",
        ],
    );

    // Renders an "answers agree" cell and remembers the queries that don't.
    let mut disagree: Vec<&str> = Vec::new();
    let mut agree = |query: &'static str, same: bool| {
        if !same {
            disagree.push(query);
        }
        same.to_string()
    };

    // q1 — near-duplicates (Ball-Tree self-join).
    let (b1, tb1) = time(|| q1_baseline(&pc));
    let (o1, to1) = time(|| q1_optimized(&pc));
    table.row(&[
        "q1 near-dup (PC)".to_string(),
        ms(tb1),
        ms(to1),
        format!("{:.1}x", tb1.as_secs_f64() / to1.as_secs_f64()),
        agree("q1", b1 == o1),
    ]);

    // q2 — vehicle frames (hash index on label).
    let (b2, tb2) = time(|| q2_baseline(&traffic));
    let (o2, to2) = time(|| q2_optimized(&traffic_dets));
    table.row(&[
        "q2 vehicles (Traffic)".to_string(),
        ms(tb2),
        ms(to2),
        format!("{:.1}x", tb2.as_secs_f64() / to2.as_secs_f64()),
        agree("q2", b2 == o2),
    ]);

    // q3 — trajectory (lineage index).
    let (b3, tb3) = time(|| q3_baseline(&football, &football.dataset.target_jersey));
    let (o3, to3) = time(|| q3_optimized(&football, &id_map, &football.dataset.target_jersey));
    table.row(&[
        "q3 trajectory (Football)".to_string(),
        ms(tb3),
        ms(to3),
        format!("{:.1}x", tb3.as_secs_f64() / to3.as_secs_f64()),
        agree("q3", b3 == o3),
    ]);

    // q4 — distinct pedestrians (Ball-Tree dedup).
    let (b4, tb4) = time(|| q4_baseline(&people));
    let (o4, to4) = time(|| q4_optimized(&people));
    table.row(&[
        "q4 distinct peds (Traffic)".to_string(),
        ms(tb4),
        ms(to4),
        format!("{:.1}x", tb4.as_secs_f64() / to4.as_secs_f64()),
        agree("q4", b4 == o4),
    ]);

    // q5 — string lookup (no index helps a substring predicate). Warm the
    // scan once so both measurements see the same cache state.
    let _ = q5_scan(&pc, "DEEP");
    let (b5, tb5) = time(|| q5_scan(&pc, "DEEP"));
    let (o5, to5) = time(|| q5_scan(&pc, "DEEP"));
    table.row(&[
        "q5 string (PC)".to_string(),
        ms(tb5),
        ms(to5),
        format!("{:.1}x", tb5.as_secs_f64() / to5.as_secs_f64()),
        agree("q5", b5 == o5),
    ]);

    // q6 — depth pairs (hash on frame + sorted sweep).
    let (b6, tb6) = time(|| q6_baseline(&people));
    let (o6, to6) = time(|| q6_optimized(&people));
    table.row(&[
        "q6 behind-pairs (Traffic)".to_string(),
        ms(tb6),
        ms(to6),
        format!("{:.1}x", tb6.as_secs_f64() / to6.as_secs_f64()),
        agree("q6", b6 == o6),
    ]);

    table.emit("fig4_indexes");
    println!(
        "\nPaper shape: image-matching queries (q1, q4) gain the most; q3 gains via \
         lineage; q6 gains modestly; q5 gains nothing."
    );
    // The table above is the diagnostic; a disagreeing row is a wrong
    // answer, so the harness (and `run_all` over it) must not exit 0.
    if !disagree.is_empty() {
        eprintln!("fig4_indexes: baseline and indexed answers disagree for {disagree:?}");
        std::process::exit(1);
    }
}
