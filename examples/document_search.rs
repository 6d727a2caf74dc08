//! Document search over a personal image corpus (the paper's q5 workload):
//! OCR every image, store the recognized strings as patches, and find the
//! first image containing a target string — plus a near-duplicate sweep
//! (q1) over the same corpus.
//!
//! Run with: `cargo run --example document_search`

use deeplens::prelude::*;
use deeplens::vision::datasets::PcDataset;
use deeplens::vision::features::joint_histogram;
use deeplens::vision::ocr::OcrEngine;
use deeplens::vision::scene::BBox;

fn main() {
    let ds = PcDataset::generate(0.15, 4242);
    println!(
        "PC corpus: {} images, {} planted near-duplicate pairs",
        ds.images.len(),
        ds.duplicate_pairs.len()
    );
    let catalog = SharedCatalog::new();

    // ETL: whole-image feature patches + OCR string patches.
    let ocr = OcrEngine::default();
    let mut image_patches = Vec::new();
    let mut strings = Vec::new();
    for (i, img) in ds.images.iter().enumerate() {
        let img_patch = Patch::features(
            catalog.next_patch_id(),
            ImgRef::frame("pc", i as u64),
            joint_histogram(img, 4),
        )
        .with_meta("imgno", i as i64);
        for (line, truth) in ds.texts[i].iter().enumerate() {
            let region = BBox::new(0, line as i64 * 8, img.width(), 12);
            if let Some(res) = ocr.recognize(img, &region, truth, (i * 100 + line) as u64) {
                strings.push(
                    img_patch
                        .derive(catalog.next_patch_id(), PatchData::Empty)
                        .with_meta("text", res.text.as_str())
                        .with_meta("imgno", i as i64),
                );
            }
        }
        image_patches.push(img_patch);
    }
    println!("OCR extracted {} strings", strings.len());

    // q5: first image whose OCR output contains the needle.
    let needle = "DEEP";
    let hit = strings
        .iter()
        .filter(|p| {
            p.get_str("text")
                .map(|t| t.contains(needle))
                .unwrap_or(false)
        })
        .filter_map(|p| p.get_int("imgno"))
        .min();
    match hit {
        Some(img) => println!("q5: first image containing '{needle}': #{img}"),
        None => println!("q5: '{needle}' not found (OCR noise can corrupt the needle)"),
    }

    // q1: near-duplicate sweep over the whole corpus — a self-join under
    // the plan the planner picks, on all hardware threads.
    let plan = JoinPlan::choose(&image_patches, &image_patches).expect("one histogram dimension");
    let pairs: Vec<(u32, u32)> = plan
        .run(
            &image_patches,
            &image_patches,
            &[(0.22, None)],
            &WorkerPool::new(0),
        )
        .expect("the plan chosen for this corpus")
        .remove(0)
        .into_iter()
        .filter(|(a, b)| a < b)
        .collect();
    let truth: std::collections::HashSet<(u32, u32)> = ds.duplicate_pairs.iter().copied().collect();
    let found = pairs.iter().filter(|p| truth.contains(p)).count();
    println!(
        "q1: {} near-duplicate pairs reported; {}/{} planted pairs recovered",
        pairs.len(),
        found,
        truth.len()
    );

    // Lineage: every string patch backtraces to its source image — the
    // `ImgRef` `Patch::derive` carried over from it (§5.1).
    for p in &strings {
        let imgno = p.get_int("imgno").expect("every string names its image");
        assert_eq!(p.img_ref, ImgRef::frame("pc", imgno as u64));
    }
    let sample = &strings[0];
    let root = &sample.img_ref;
    println!(
        "lineage: string patch {:?} backtraces to 1 source image(s): {:?}",
        sample.get_str("text").unwrap_or("?"),
        Some((&*root.source, root.frame_no))
    );
}
