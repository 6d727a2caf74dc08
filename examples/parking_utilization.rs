//! Parking-lot utilization (the paper's Example 1, §2.2.1).
//!
//! A CCTV feed watches a parking lot; we count the number of vehicles in
//! every frame with a filter + group-by aggregation over detector patches,
//! then report the utilization curve.
//!
//! Run with: `cargo run --example parking_utilization`

use deeplens::core::ops;
use deeplens::prelude::*;
use deeplens::vision::datasets::TrafficDataset;
use deeplens::vision::detector::ObjectDetector;
use deeplens_exec::Device;

fn main() {
    // The "parking lot camera": a traffic scene works structurally — cars
    // enter, sit in lanes, and leave.
    let ds = TrafficDataset::generate(0.004, 99);
    let detector = ObjectDetector::default_on(Device::Avx);
    let catalog = SharedCatalog::new();

    // ETL: SSD-style patches per frame (paper: SSDPatch(Frame, Bbox, ...)).
    let mut patches = Vec::new();
    for t in 0..ds.num_frames {
        let frame = ds.scene.render_frame(t);
        for det in detector.detect(&ds.scene, t, &frame) {
            patches.push(
                Patch::empty(catalog.next_patch_id(), ImgRef::frame("lot", t))
                    .with_meta("label", det.label.as_str())
                    .with_meta("frameno", t as i64),
            );
        }
    }
    println!(
        "ETL: {} detections over {} frames",
        patches.len(),
        ds.num_frames
    );

    // Query: SELECT frameno, COUNT(*) WHERE label IN (car, truck) GROUP BY frameno.
    let vehicles: Vec<Patch> = ops::select(patches.into_iter(), |p| {
        matches!(p.get_str("label"), Some("car") | Some("truck"))
    })
    .collect();
    let per_frame = ops::count_group_by_int(&vehicles, "frameno");

    // Report utilization statistics.
    let occupied = per_frame.len();
    let peak = per_frame.values().copied().max().unwrap_or(0);
    let total: usize = per_frame.values().sum();
    let mean = total as f64 / ds.num_frames as f64;
    println!("frames with ≥1 vehicle : {occupied} / {}", ds.num_frames);
    println!("peak vehicles in frame : {peak}");
    println!("mean vehicles per frame: {mean:.2}");

    // A small textual utilization histogram over time buckets.
    let buckets = 12u64;
    let bucket_len = (ds.num_frames / buckets).max(1);
    println!("\nutilization over time:");
    for b in 0..buckets {
        let lo = b * bucket_len;
        let hi = ((b + 1) * bucket_len).min(ds.num_frames);
        let count: usize = (lo..hi)
            .filter_map(|t| per_frame.get(&(t as i64)))
            .copied()
            .sum();
        let avg = count as f64 / (hi - lo).max(1) as f64;
        let bar = "#".repeat((avg * 8.0).round() as usize);
        println!("  frames {lo:>5}-{hi:<5} | {bar} {avg:.2}");
    }
}
