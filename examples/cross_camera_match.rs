//! Cross-camera object matching (the paper's Example 2, §2.2.2 and the
//! introduction's motivating query): given two camera feeds, find the
//! vehicles that appear in BOTH — a similarity join whose predicate reads
//! pixel content, not just metadata.
//!
//! Run with: `cargo run --example cross_camera_match`

use deeplens::prelude::*;
use deeplens::vision::datasets::TrafficDataset;
use deeplens::vision::detector::ObjectDetector;
use deeplens::vision::features::joint_histogram;

/// ETL one camera into featurized vehicle patches.
fn etl_camera(ds: &TrafficDataset, name: &str, catalog: &SharedCatalog) -> Vec<Patch> {
    let detector = ObjectDetector::default();
    let mut patches = Vec::new();
    for t in 0..ds.num_frames {
        let frame = ds.scene.render_frame(t);
        for det in detector.detect(&ds.scene, t, &frame) {
            if !matches!(det.label.as_str(), "car" | "truck") {
                continue;
            }
            let crop = frame.crop(det.bbox.x, det.bbox.y, det.bbox.w, det.bbox.h);
            patches.push(
                Patch::features(
                    catalog.next_patch_id(),
                    ImgRef::frame(name, t),
                    joint_histogram(&crop, 4),
                )
                .with_meta("label", det.label.as_str())
                .with_meta("frameno", t as i64)
                .with_meta("gt", det.object_id.map(|v| v as i64).unwrap_or(-1)),
            );
        }
    }
    patches
}

fn main() {
    // Two cameras watching overlapping traffic: same world seed = the same
    // vehicle population, different viewpoints simulated by distinct frame
    // windows of the scene.
    let world = TrafficDataset::generate(0.006, 1234);
    let catalog = SharedCatalog::new();
    let cam_a = etl_camera(&world, "camA", &catalog);
    let cam_b = etl_camera(&world, "camB", &catalog);
    println!(
        "camA: {} vehicle patches, camB: {}",
        cam_a.len(),
        cam_b.len()
    );

    // The planner picks the physical join: a Ball-Tree over the smaller feed.
    let plan = JoinPlan::choose(&cam_a, &cam_b).expect("one histogram dimension");
    println!("join plan: {plan:?}");

    // Run that plan over the pixel-derived features, with index build +
    // probe phase fanned out over all hardware threads.
    let pool = WorkerPool::new(0);
    let pairs = plan
        .run(&cam_a, &cam_b, &[(0.22, None)], &pool)
        .expect("the plan chosen for these feeds")
        .remove(0);
    println!("similarity join produced {} candidate pairs", pairs.len());

    // Resolve candidate pairs into distinct shared identities and validate
    // against ground truth (available because the world is synthetic).
    let mut shared: std::collections::HashSet<i64> = std::collections::HashSet::new();
    let mut correct = 0usize;
    for &(i, j) in &pairs {
        let (a, b) = (&cam_a[i as usize], &cam_b[j as usize]);
        let (ga, gb) = (a.get_int("gt").unwrap_or(-1), b.get_int("gt").unwrap_or(-2));
        if ga >= 0 && ga == gb {
            correct += 1;
            shared.insert(ga);
        }
    }
    let precision = correct as f64 / pairs.len().max(1) as f64;
    println!("matched {} distinct vehicles across cameras", shared.len());
    println!("pair precision vs ground truth: {precision:.2}");
}
