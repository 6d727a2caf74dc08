//! End-to-end integration: scene → physical layout → decode → detect →
//! patches → indexes → queries, validated against scene ground truth.

use deeplens::codec::Quality;
use deeplens::prelude::*;
use deeplens::vision::datasets::TrafficDataset;
use deeplens::vision::detector::ObjectDetector;
use deeplens::vision::features::joint_histogram;
use deeplens_bench::repro::storage::layout::{FrameFile, FrameFormat, SegmentedFile, VideoStore};

fn workdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("deeplens-e2e")
        .join(format!("{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The full DeepLens story on one feed: ingest encoded, scan a window,
/// detect, materialize, index, and answer q2 close to ground truth.
#[test]
fn ingest_detect_query_roundtrip() {
    let ds = TrafficDataset::generate(0.004, 11);
    let frames = ds.render_all();
    let dir = workdir("roundtrip");

    // Physical layout: segmented clips.
    let mut store =
        SegmentedFile::ingest(dir.join("feed.dlb"), &frames, 16, Quality::High).unwrap();
    assert_eq!(store.frame_count(), frames.len() as u64);

    // Decode everything back through the layout and run the detector.
    let decoded = store.scan_range(0, store.frame_count()).unwrap();
    let detector = ObjectDetector::default();
    let session = Session::ephemeral().unwrap();
    let mut patches = Vec::new();
    for (t, frame) in &decoded {
        for det in detector.detect(&ds.scene, *t, frame) {
            let crop = frame.crop(det.bbox.x, det.bbox.y, det.bbox.w, det.bbox.h);
            patches.push(
                Patch::features(
                    session.catalog.next_patch_id(),
                    ImgRef::frame("feed", *t),
                    joint_histogram(&crop, 4),
                )
                .with_meta("label", det.label.as_str())
                .with_meta("frameno", *t as i64),
            );
        }
    }
    assert!(!patches.is_empty(), "detector must fire on decoded frames");
    session.catalog.materialize("dets", patches);

    // Index and query: q2 via the hash index, against a consistent snapshot.
    session
        .catalog
        .build_hash_index("dets", "by_label", "label")
        .unwrap();
    let col = session.catalog.snapshot("dets").unwrap();
    let mut vehicle_frames = std::collections::HashSet::new();
    for label in ["car", "truck"] {
        for pos in col.lookup_eq("by_label", &Value::from(label)).unwrap() {
            vehicle_frames.insert(col.patches[pos as usize].get_int("frameno").unwrap());
        }
    }
    let truth = ds.frames_with_vehicle().len();
    let got = vehicle_frames.len();
    assert!(truth > 0);
    let rel_err = (got as f64 - truth as f64).abs() / truth as f64;
    assert!(
        rel_err < 0.25,
        "q2 through the full stack: got {got}, truth {truth}"
    );
}

/// The three layouts must return identical frame windows (modulo lossy
/// pixels) and exhibit the pushdown ordering of Fig. 3.
#[test]
fn layouts_agree_on_answers_and_order_on_decode_work() {
    let ds = TrafficDataset::generate(0.003, 23);
    let frames = ds.render_all();
    let n = frames.len() as u64;
    let dir = workdir("layouts");

    let mut raw = FrameFile::ingest(dir.join("raw.dlb"), &frames, FrameFormat::Raw).unwrap();
    let mut seg = SegmentedFile::ingest(dir.join("seg.dlb"), &frames, 10, Quality::High).unwrap();
    let mut enc = deeplens_bench::repro::storage::layout::EncodedFile::ingest(
        dir.join("enc.dlv"),
        &frames,
        Quality::High,
    )
    .unwrap();

    let (start, end) = (n / 2, n / 2 + 5);
    let a = raw.scan_range(start, end).unwrap();
    let b = seg.scan_range(start, end).unwrap();
    let c = enc.scan_range(start, end).unwrap();
    assert_eq!(a.len(), 5);
    assert_eq!(b.len(), 5);
    assert_eq!(c.len(), 5);
    for ((ta, fa), ((tb, fb), (tc, fc))) in a.iter().zip(b.iter().zip(c.iter())) {
        assert_eq!(ta, tb);
        assert_eq!(ta, tc);
        // Lossy layouts stay visually close to the raw truth.
        assert!(deeplens::codec::psnr(fa, fb) > 25.0);
        assert!(deeplens::codec::psnr(fa, fc) > 25.0);
    }
    // Pushdown ordering: raw decodes exactly the window, segmented decodes
    // whole clips, encoded decodes the full prefix.
    assert_eq!(raw.last_decoded_frames(), 5);
    assert!(seg.last_decoded_frames() >= 5);
    assert!(seg.last_decoded_frames() <= 20);
    assert!(enc.last_decoded_frames() >= end);

    // Storage ordering: encoded < segmented < raw.
    assert!(enc.byte_size() < seg.byte_size());
    assert!(seg.byte_size() < raw.byte_size());
}

/// Lineage backtrace works across the ETL pipeline boundary.
#[test]
fn lineage_backtrace_through_pipeline() {
    use deeplens::core::etl::{FeaturizeTransformer, Pipeline, WholeImageGenerator};

    let ds = TrafficDataset::generate(0.002, 31);
    let frames: Vec<_> = (0..10).map(|t| ds.scene.render_frame(t)).collect();
    let catalog = SharedCatalog::new();
    let pipe = Pipeline::new(Box::new(WholeImageGenerator)).then(Box::new(FeaturizeTransformer {
        label: "hist".into(),
        dim: 64,
        f: Box::new(|img| joint_histogram(img, 4)),
    }));
    pipe.run(
        frames.iter().enumerate().map(|(i, f)| (i as u64, f)),
        "cam0",
        &catalog,
        "feats",
        &WorkerPool::new(2),
    )
    .unwrap();

    let col = catalog.snapshot("feats").unwrap();
    assert_eq!(col.len(), 10);
    // Every derived patch backtraces to exactly its own source frame.
    for (i, p) in col.patches.iter().enumerate() {
        let roots = catalog.backtrace(p.id);
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].source, "cam0");
        assert_eq!(roots[0].frame_no, i as u64);
    }
    // And the lineage index agrees with a full scan.
    catalog.with_lineage_mut(|l| l.build_frame_index());
    let indexed = catalog.with_lineage(|l| l.patches_of_frame("cam0", 3).to_vec());
    let scanned = catalog.with_lineage(|l| l.patches_of_frame_scan("cam0", 3));
    assert_eq!(indexed, scanned);
    assert!(!indexed.is_empty());
}
