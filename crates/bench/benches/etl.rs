//! ETL shared-scan benchmark: K featurization pipelines ingesting one
//! encoded video, decode-once (`Session::ingest_batch`) vs per-pipeline
//! decode (serial issuance, the `run_serial` reference path).
//!
//! Like the other recording benches this harness writes its medians into
//! `BENCH_etl.json` at the workspace root so the amortization is tracked
//! across PRs (CI uploads the file and gates regressions against the
//! committed baseline). Set `BENCH_ETL_OUT` to redirect the output file,
//! `CRITERION_QUICK=1` for a smoke-sized run.
//!
//! The session is single-core (`Device::Avx`) on purpose: the figure of
//! merit is aggregate ingest throughput (K × work / wall-clock), and the
//! gain is algorithmic — one sequential decode serving K pipelines instead
//! of K decodes — so it survives on any host shape. The batched session's
//! frame cache is disabled (capacity 0) so every measured batch pays its
//! own decode: the sweep isolates in-batch sharing, not cross-batch
//! caching.

use deeplens_bench::report::{self, median_secs};
use deeplens_core::etl::{FeaturizeTransformer, TileGenerator, WholeImageGenerator};
use deeplens_core::prelude::*;

const KS: [usize; 4] = [1, 2, 4, 8];

/// Synthetic surveillance-ish clip: a textured background with moving
/// blocks, encoded as one sequential GOP (the paper's "Encoded File", the
/// decode-heaviest layout).
fn encoded_clip(frames: usize, w: u32, h: u32) -> Vec<u8> {
    let imgs: Vec<deeplens_codec::Image> = (0..frames)
        .map(|t| {
            let mut img = deeplens_codec::Image::new(w, h);
            for y in 0..h {
                for x in 0..w {
                    let v = ((x * 7 + y * 13) % 83) as u8;
                    img.set(x, y, [v, v.wrapping_mul(3), 128_u8.wrapping_sub(v)]);
                }
            }
            img.fill_rect(
                2 + (t as i64 * 3) % (w as i64 / 2),
                4,
                12,
                12,
                [220, 40, 40],
            );
            img.fill_rect(8, 2 + (t as i64 * 2) % (h as i64 / 2), 8, 8, [40, 220, 40]);
            img
        })
        .collect();
    deeplens_codec::video::encode_video(
        &imgs,
        deeplens_codec::video::VideoConfig::sequential(deeplens_codec::Quality::Medium),
    )
    .expect("encode clip")
}

/// The K distinct featurization pipelines of the sweep (the `i % 2` split
/// mirrors a real deployment mixing tile-level and frame-level features).
fn make_pipeline(i: usize) -> Pipeline {
    if i.is_multiple_of(2) {
        Pipeline::new(Box::new(TileGenerator { tile: 16 })).then(Box::new(FeaturizeTransformer {
            label: format!("mean-color-{i}"),
            dim: 3,
            f: Box::new(|img| img.mean_color().to_vec()),
        }))
    } else {
        Pipeline::new(Box::new(WholeImageGenerator)).then(Box::new(FeaturizeTransformer {
            label: format!("frame-mean-{i}"),
            dim: 3,
            f: Box::new(|img| img.mean_color().to_vec()),
        }))
    }
}

struct Record {
    name: &'static str,
    pipelines: usize,
    median_s: f64,
}

fn main() {
    let quick = std::env::var("CRITERION_QUICK").is_ok_and(|v| v != "0");
    // Quick sizing still clears the regression gate's 2 ms noise floor on
    // every row (including the fastest, shared-scan K=1) — a smoke row that
    // sits under the floor is skipped as noise and enforces nothing.
    let (n_frames, w, h, reps) = if quick {
        (24usize, 64u32, 64u32, 3usize)
    } else {
        (64, 96, 96, 5)
    };
    let bytes = encoded_clip(n_frames, w, h);
    let window = 0..n_frames as u64;

    // The serial side pays K decodes regardless of caching, so one session
    // serves every rep. The batched side gets a retention-free cache so
    // each measured batch performs its own (single) decode.
    let serial_session = Session::ephemeral().expect("session");
    let mut batched_session = Session::ephemeral().expect("session");
    batched_session.set_frame_cache_capacity(0);

    let mut records: Vec<Record> = Vec::new();
    for k in KS {
        // Byte-identity guard: the shared scan must answer exactly what
        // serial issuance answers before its timing means anything.
        {
            let fill = |s: &Session, serial: bool| {
                let mut b = s.ingest_batch();
                b.add_encoded_source("cam", bytes.clone()).unwrap();
                for i in 0..k {
                    b.ingest(make_pipeline(i), "cam", window.clone(), &format!("out_{i}"))
                        .unwrap();
                }
                if serial {
                    b.run_serial().unwrap()
                } else {
                    b.run().unwrap()
                }
            };
            let a = Session::ephemeral().expect("session");
            let b = Session::ephemeral().expect("session");
            assert_eq!(fill(&a, false), fill(&b, true), "counts diverged at K={k}");
            for i in 0..k {
                let name = format!("out_{i}");
                assert_eq!(
                    a.catalog.snapshot(&name).unwrap().patches,
                    b.catalog.snapshot(&name).unwrap().patches,
                    "shared-scan output diverged from serial at K={k} job {i}"
                );
            }
        }

        let serial_s = median_secs(reps, || {
            let mut b = serial_session.ingest_batch();
            b.add_encoded_source("cam", bytes.clone()).unwrap();
            for i in 0..k {
                b.ingest(make_pipeline(i), "cam", window.clone(), &format!("out_{i}"))
                    .unwrap();
            }
            b.run_serial().unwrap().iter().sum::<usize>()
        });
        let batched_s = median_secs(reps, || {
            let mut b = batched_session.ingest_batch();
            b.add_encoded_source("cam", bytes.clone()).unwrap();
            for i in 0..k {
                b.ingest(make_pipeline(i), "cam", window.clone(), &format!("out_{i}"))
                    .unwrap();
            }
            b.run().unwrap().iter().sum::<usize>()
        });
        records.push(Record {
            name: "etl_serial_ingest",
            pipelines: k,
            median_s: serial_s,
        });
        records.push(Record {
            name: "etl_shared_scan",
            pipelines: k,
            median_s: batched_s,
        });
    }

    for r in &records {
        println!(
            "bench etl/{:<20} pipelines {:>2}   median {:>9.3} ms",
            r.name,
            r.pipelines,
            r.median_s * 1e3
        );
    }

    let lookup = |name: &str, k: usize| {
        records
            .iter()
            .find(|r| r.name == name && r.pipelines == k)
            .map(|r| r.median_s)
            .unwrap_or(f64::NAN)
    };

    // Host-calibrated planner constants, recorded with the artifact
    // (`DevicePlanner::calibrated` measures units_per_us and
    // spawn_overhead_us at startup; under CRITERION_QUICK it returns the
    // defaults so smoke timings stay unperturbed).
    let planner = DevicePlanner::calibrated();

    let mut sections: Vec<(&str, String)> =
        vec![("bench", "\"etl\"".into()), ("quick", quick.to_string())];
    sections.push((
        "host",
        report::host_json(&[
            (
                "calibrated_units_per_us",
                format!("{:.3}", planner.units_per_us),
            ),
            (
                "calibrated_spawn_overhead_us",
                format!("{:.3}", planner.spawn_overhead_us),
            ),
        ]),
    ));
    sections.push((
        "config",
        report::json_object(&[
            ("n_frames", n_frames.to_string()),
            ("width", w.to_string()),
            ("height", h.to_string()),
            ("reps", reps.to_string()),
        ]),
    ));
    let rows: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "{{\"name\": \"{}\", \"pipelines\": {}, \"median_s\": {:.6}}}",
                r.name, r.pipelines, r.median_s
            )
        })
        .collect();
    sections.push(("results", report::json_array(&rows)));
    // Aggregate ingest-throughput gain of sharing the scan: both sides
    // complete the same K ingestions, so the wall-clock ratio is the
    // speedup directly. The 4-pipeline point is the acceptance figure
    // (>= 2x required).
    for k in [4usize, 8] {
        let speedup = lookup("etl_serial_ingest", k) / lookup("etl_shared_scan", k);
        println!("bench etl/shared_scan_vs_serial speedup K={k}: {speedup:.2}x");
        sections.push(if k == 4 {
            ("shared_scan_vs_serial_speedup_4p", format!("{speedup:.3}"))
        } else {
            ("shared_scan_vs_serial_speedup_8p", format!("{speedup:.3}"))
        });
    }

    report::record_artifact(
        "BENCH_ETL_OUT",
        format!("{}/../../BENCH_etl.json", env!("CARGO_MANIFEST_DIR")),
        &report::bench_json(&sections),
    );
}
