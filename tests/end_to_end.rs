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
    // Every derived patch backtraces to exactly its own source frame: the
    // `ImgRef` it carries.
    for (i, p) in col.patches.iter().enumerate() {
        assert_eq!(&*p.img_ref.source, "cam0");
        assert_eq!(p.img_ref.frame_no, i as u64);
    }
}

/// Assert that every patch of collection `name` carries the `ImgRef` of the
/// frame it came from: the collection is in frame order, `per_frame`
/// patches per frame, starting at frame `first` of `source`.
fn assert_from_frames(
    catalog: &SharedCatalog,
    name: &str,
    source: &str,
    first: u64,
    per_frame: usize,
    frames: usize,
) {
    let col = catalog.snapshot(name).unwrap();
    assert_eq!(col.len(), frames * per_frame, "'{name}' size");
    for (j, p) in col.patches.iter().enumerate() {
        let frame = ImgRef::frame(source, first + (j / per_frame) as u64);
        assert_eq!(p.img_ref, frame, "'{name}' row {j}");
    }
}

/// Every ETL route — `Pipeline::run` on one and four workers, and a
/// `PipelineBatch` over a DLV1 stream (shared scan and serial reference, two
/// jobs over overlapping windows) — stamps each output with the `ImgRef` of
/// the frame it came from, so a §5.1 backtrace is answered by the patch
/// itself. A served `Materialize` row is its own frame: its collection and
/// its id, so rows of two writes or of two collections never share one.
#[test]
fn every_etl_route_outputs_carry_their_frame() {
    use deeplens::codec::video::{encode_video, VideoConfig};
    use deeplens::codec::Image;
    use deeplens::core::etl::{FeaturizeTransformer, TileGenerator, WholeImageGenerator};
    use deeplens::serve::{serve, Client, ServerConfig};
    use std::sync::Arc;

    let tiles = || {
        Pipeline::new(Box::new(TileGenerator { tile: 16 })).then(Box::new(FeaturizeTransformer {
            label: "mean-color".into(),
            dim: 3,
            f: Box::new(|img| img.mean_color().to_vec()),
        }))
    };
    let whole = || Pipeline::new(Box::new(WholeImageGenerator));
    let frames: Vec<Image> = (0..10)
        .map(|t| {
            let mut img = Image::solid(32, 32, [40, 60, 80]);
            img.fill_rect(2 + t * 2, 4, 10, 10, [220, 40, 40]);
            img
        })
        .collect();

    // In-memory frames: 4 tiles per frame, on one and on four workers.
    for workers in [1, 4] {
        let catalog = SharedCatalog::new();
        tiles()
            .run(
                frames.iter().enumerate().map(|(t, f)| (t as u64, f)),
                "cam",
                &catalog,
                "tiles",
                &WorkerPool::new(workers),
            )
            .unwrap();
        assert_from_frames(&catalog, "tiles", "cam", 0, 4, frames.len());
    }

    // A DLV1 stream: two jobs over overlapping windows, through the shared
    // scan and through the serial reference.
    let bytes = encode_video(&frames, VideoConfig::sequential(Quality::High)).unwrap();
    for serial in [false, true] {
        let session = Session::ephemeral().unwrap();
        let mut batch = session.ingest_batch();
        batch.add_encoded_source("clip", bytes.clone()).unwrap();
        batch.ingest(tiles(), "clip", 2..7, "a").unwrap();
        batch.ingest(whole(), "clip", 4..10, "b").unwrap();
        let counts = if serial {
            batch.run_serial().unwrap()
        } else {
            batch.run().unwrap()
        };
        assert_eq!(counts, vec![20, 6]);
        assert_from_frames(&session.catalog, "a", "clip", 2, 4, 5);
        assert_from_frames(&session.catalog, "b", "clip", 4, 1, 6);
    }

    // Two served writes to one collection, and one to another.
    let catalog = Arc::new(SharedCatalog::new());
    let mut server = serve(catalog.clone(), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr().to_string()).unwrap();
    let rows: Vec<Vec<f32>> = (0..12).map(|i| vec![i as f32, 1.0]).collect();
    let mut served = Vec::new();
    for name in ["served", "served", "other"] {
        client.materialize(name, rows.clone()).unwrap();
        let col = catalog.snapshot(name).unwrap();
        assert_eq!(col.len(), rows.len(), "'{name}' size");
        for p in col.patches.iter() {
            assert_eq!(p.img_ref, ImgRef::frame(name, p.id.0), "'{name}' row");
            served.push(p.img_ref.clone());
        }
    }
    drop(client);
    server.stop();
    let distinct: std::collections::HashSet<_> = served.iter().collect();
    assert_eq!(
        distinct.len(),
        served.len(),
        "two served rows share an ImgRef"
    );
}
