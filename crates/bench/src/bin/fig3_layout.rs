//! Figure 3 — Hybrid storage formats support coarse-grained filter pushdown
//! while keeping most of the sequential-compression benefit.
//!
//! Reproduces: end-to-end latency (including decode) of q2 restricted by a
//! temporal filter, across the Frame File (RAW and JPEG), the Encoded File,
//! and the Segmented File, plus each layout's storage footprint and the
//! number of frames it had to decode.

use deeplens_bench::report::{human_bytes, ms, time, Table};
use deeplens_bench::repro::storage::layout::{
    EncodedFile, FrameFile, FrameFormat, SegmentedFile, StorageAdvisor, VideoStore, WorkloadProfile,
};
use deeplens_bench::{scale, WORLD_SEED};
use deeplens_codec::Quality;
use deeplens_vision::datasets::TrafficDataset;

fn main() {
    let ds = TrafficDataset::generate(scale(), WORLD_SEED);
    let frames = ds.render_all();
    let n = frames.len() as u64;
    println!(
        "Fig. 3 | {} frames @ {}x{}",
        n, ds.scene.width, ds.scene.height
    );

    // Temporal predicate: a 2%-of-video window at 60% of the timeline.
    let start = n * 60 / 100;
    let end = start + (n / 50).max(4);
    println!("temporal filter: frames [{start}, {end})");

    let dir = std::env::temp_dir().join("deeplens-fig3");
    std::fs::create_dir_all(&dir).expect("temp dir");

    let mut table = Table::new(
        "Fig. 3 — temporal filter pushdown across physical layouts",
        &["layout", "bytes", "ingest ms", "scan ms", "decoded frames"],
    );

    let clip_len = (n / 40).clamp(4, 120);
    enum L {
        Raw,
        Jpeg,
        Encoded,
        Segmented,
    }
    for which in [L::Raw, L::Jpeg, L::Encoded, L::Segmented] {
        let (mut store, ingest): (Box<dyn VideoStore>, _) = match which {
            L::Raw => {
                let (s, d) = time(|| {
                    FrameFile::ingest(dir.join("raw.dlb"), &frames, FrameFormat::Raw)
                        .expect("ingest")
                });
                (Box::new(s), d)
            }
            L::Jpeg => {
                let (s, d) = time(|| {
                    FrameFile::ingest(
                        dir.join("jpeg.dlb"),
                        &frames,
                        FrameFormat::Intra(Quality::High),
                    )
                    .expect("ingest")
                });
                (Box::new(s), d)
            }
            L::Encoded => {
                let (s, d) = time(|| {
                    EncodedFile::ingest(dir.join("enc.dlv"), &frames, Quality::High)
                        .expect("ingest")
                });
                (Box::new(s), d)
            }
            L::Segmented => {
                let (s, d) = time(|| {
                    SegmentedFile::ingest(dir.join("seg.dlb"), &frames, clip_len, Quality::High)
                        .expect("ingest")
                });
                (Box::new(s), d)
            }
        };
        let (scanned, scan_t) = time(|| store.scan_range(start, end).expect("scan"));
        assert_eq!(
            scanned.len() as u64,
            end - start,
            "layouts must agree on the answer"
        );
        table.row(&[
            store.label(),
            human_bytes(store.byte_size()),
            ms(ingest),
            ms(scan_t),
            store.last_decoded_frames().to_string(),
        ]);
    }
    table.emit("fig3_layout");

    // Bonus: the future-work storage advisor's take on this workload.
    let profile = WorkloadProfile {
        num_frames: n,
        raw_frame_bytes: frames[0].byte_size() as u64,
        temporal_selectivity: (end - start) as f64 / n as f64,
        storage_weight: 0.5,
    };
    let mut advisor = Table::new(
        "Storage advisor ranking (paper §3 future work)",
        &["rank", "layout", "est. storage", "est. query cost"],
    );
    for (i, e) in StorageAdvisor::advise(&profile).iter().enumerate() {
        advisor.row(&[
            (i + 1).to_string(),
            e.layout.clone(),
            human_bytes(e.storage_bytes as u64),
            format!("{:.0}", e.query_cost),
        ]);
    }
    advisor.emit("fig3_advisor");
    println!(
        "\nPaper shape: Frame Files answer the range directly; the Encoded File must \
         sequentially decode the prefix; the Segmented File decodes only overlapping clips."
    );
}
