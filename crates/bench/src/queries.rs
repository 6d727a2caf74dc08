//! The six benchmark queries (§6.2), each as a baseline (no indexes, no
//! lineage) and an optimized (hand-tuned physical design) variant.
//!
//! | query | task | optimized physical design |
//! |---|---|---|
//! | q1 | near-duplicates in PC | on-the-fly Ball-Tree self-join |
//! | q2 | frames with ≥1 vehicle | hash index on `label` |
//! | q3 | player trajectory | lineage index (backtracing) |
//! | q4 | distinct pedestrians | Ball-Tree dedup join |
//! | q5 | string lookup | none helps (substring predicate) |
//! | q6 | p1-behind-p2 pairs | hash on frame + sorted sweep on depth |

use std::collections::{HashMap, HashSet};

use deeplens_core::ops;
use deeplens_core::prelude::*;

use crate::etl::{FootballEtl, PcEtl, TrafficEtl, GT_KEY, MATCH_TAU, Q1_TAU};

// --------------------------------------------------------------------------
// q1 — near-duplicate detection (PC)
// --------------------------------------------------------------------------

/// Deduplicated unordered near-duplicate pairs `(i, j)`, `i < j`.
fn self_pairs(pairs: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
    let mut out: Vec<(u32, u32)> = pairs.into_iter().filter(|(a, b)| a < b).collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Generic θ-join predicate for "features within tau": what the engine's
/// nested-loop operator evaluates per pair when no physical design exists.
fn within_tau(a: &Patch, b: &Patch, tau: f32) -> bool {
    match (a.data.features(), b.data.features()) {
        (Some(fa), Some(fb)) => {
            let mut acc = 0f32;
            for (x, y) in fa.iter().zip(fb) {
                let d = x - y;
                acc += d * d;
            }
            acc <= tau * tau
        }
        _ => false,
    }
}

/// Serial pool for the single-threaded baselines: the harness measures
/// physical-design effects (Fig. 4-5), so operator parallelism is pinned
/// off.
fn serial() -> WorkerPool {
    WorkerPool::new(1)
}

/// The engine's similarity self-join of `patches` within `tau` on the
/// serial pool, under the plan [`JoinPlan::choose`] picks (the on-the-fly
/// Ball-Tree for featurized corpora).
fn self_join(patches: &[Patch], tau: f32) -> Vec<(u32, u32)> {
    JoinPlan::choose(patches, patches)
        .and_then(|plan| plan.run(patches, patches, &[(tau, None)], &serial()))
        .expect("ETL features share one dimension")
        .remove(0)
}

/// q1 baseline: the generic nested-loop θ-join operator evaluating the
/// similarity predicate pair by pair (no physical design).
pub fn q1_baseline(etl: &PcEtl) -> Vec<(u32, u32)> {
    self_pairs(ops::nested_loop_join(
        &etl.image_patches,
        &etl.image_patches,
        |a, b| within_tau(a, b, Q1_TAU),
        &serial(),
    ))
}

/// q1 optimized: on-the-fly Ball-Tree self-join.
pub fn q1_optimized(etl: &PcEtl) -> Vec<(u32, u32)> {
    self_pairs(self_join(&etl.image_patches, Q1_TAU))
}

/// Recall/precision of predicted duplicate pairs against planted truth.
pub fn q1_accuracy(etl: &PcEtl, predicted: &[(u32, u32)]) -> (f64, f64) {
    let truth: HashSet<(u32, u32)> = etl.dataset.duplicate_pairs.iter().copied().collect();
    let pred: HashSet<(u32, u32)> = predicted.iter().copied().collect();
    let hit = truth.intersection(&pred).count() as f64;
    let recall = if truth.is_empty() {
        1.0
    } else {
        hit / truth.len() as f64
    };
    let precision = if pred.is_empty() {
        1.0
    } else {
        hit / pred.len() as f64
    };
    (recall, precision)
}

// --------------------------------------------------------------------------
// q2 — count frames with at least one vehicle (TrafficCam)
// --------------------------------------------------------------------------

/// q2 baseline: scan all detections, filter, count distinct frames.
pub fn q2_baseline(etl: &TrafficEtl) -> usize {
    let frames: HashSet<i64> = etl
        .detections
        .iter()
        .filter(|p| matches!(p.get_str("label"), Some("car") | Some("truck")))
        .filter_map(|p| p.get_int("frameno"))
        .collect();
    frames.len()
}

/// q2 optimized: hash-index lookups on the label (over a `traffic_dets`
/// snapshot with `by_label` built), then distinct frames.
pub fn q2_optimized(col: &PatchCollection) -> usize {
    let mut frames: HashSet<i64> = HashSet::new();
    for label in ["car", "truck"] {
        for pos in col
            .lookup_eq("by_label", &Value::from(label))
            .expect("by_label index built")
        {
            if let Some(f) = col.patches[pos as usize].get_int("frameno") {
                frames.insert(f);
            }
        }
    }
    frames.len()
}

/// Ground-truth q2 answer (frames with a vehicle actually present).
pub fn q2_truth(etl: &TrafficEtl) -> usize {
    etl.dataset.frames_with_vehicle().len()
}

// --------------------------------------------------------------------------
// q3 — track one player's trajectory in every play (Football)
// --------------------------------------------------------------------------

/// A trajectory point: (clip, frame, center-x, center-y).
pub type TrajPoint = (i64, i64, f64, f64);

fn bbox_center(p: &Patch) -> Option<(f64, f64)> {
    let (x, y, w, h) = p.bbox()?;
    Some((x as f64 + w as f64 / 2.0, y as f64 + h as f64 / 2.0))
}

/// q3 baseline: for every OCR hit of the target jersey, *rescan* the full
/// detection collection for the box on the same clip/frame that contains
/// the text region — no lineage used.
pub fn q3_baseline(etl: &FootballEtl, jersey: &str) -> Vec<TrajPoint> {
    let mut out = Vec::new();
    for hit in etl
        .ocr_patches
        .iter()
        .filter(|p| p.get_str("text") == Some(jersey))
    {
        let clip = hit.get_int("clip").unwrap_or(-1);
        let frame = hit.get_int("frameno").unwrap_or(-1);
        // Full scan of all detections for the matching source patch.
        for det in &etl.detections {
            if det.get_int("clip") == Some(clip)
                && det.get_int("frameno") == Some(frame)
                && det.id == *hit.parents.first().expect("ocr has parent")
            {
                if let Some((cx, cy)) = bbox_center(det) {
                    out.push((clip, frame, cx, cy));
                }
            }
        }
    }
    out.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)).then(a.2.total_cmp(&b.2)));
    out
}

/// q3 optimized: lineage backtrace — parent ids resolve through a patch-id
/// map built once as part of the physical design.
pub fn q3_optimized(
    etl: &FootballEtl,
    id_map: &HashMap<PatchId, usize>,
    jersey: &str,
) -> Vec<TrajPoint> {
    let mut out = Vec::new();
    for hit in etl
        .ocr_patches
        .iter()
        .filter(|p| p.get_str("text") == Some(jersey))
    {
        let parent = hit.parents.first().expect("ocr has parent");
        if let Some(&pos) = id_map.get(parent) {
            let det = &etl.detections[pos];
            if let Some((cx, cy)) = bbox_center(det) {
                out.push((
                    det.get_int("clip").unwrap_or(-1),
                    det.get_int("frameno").unwrap_or(-1),
                    cx,
                    cy,
                ));
            }
        }
    }
    out.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)).then(a.2.total_cmp(&b.2)));
    out
}

/// The lineage-side physical design for q3: patch-id → position map.
pub fn q3_build_id_map(etl: &FootballEtl) -> HashMap<PatchId, usize> {
    etl.detections
        .iter()
        .enumerate()
        .map(|(i, p)| (p.id, i))
        .collect()
}

// --------------------------------------------------------------------------
// q4 — count distinct pedestrians (TrafficCam)
// --------------------------------------------------------------------------

/// The person-labeled subset of the traffic detections.
pub fn q4_person_patches(etl: &TrafficEtl) -> Vec<Patch> {
    etl.detections
        .iter()
        .filter(|p| p.get_str("label") == Some("person"))
        .cloned()
        .collect()
}

/// q4 baseline: the generic nested-loop θ-join operator evaluates the
/// similarity predicate over all pairs, then clusters (no physical design).
pub fn q4_baseline(people: &[Patch]) -> usize {
    let pairs = ops::nested_loop_join(
        people,
        people,
        |a, b| within_tau(a, b, MATCH_TAU),
        &serial(),
    );
    ops::cluster_from_pairs(people.len(), &pairs).len()
}

/// q4 optimized: Ball-Tree dedup join.
pub fn q4_optimized(people: &[Patch]) -> usize {
    ops::cluster_from_pairs(people.len(), &self_join(people, MATCH_TAU)).len()
}

/// Pair-level accuracy of a clustering against ground-truth identities:
/// returns `(recall, precision)` over same-identity pairs.
pub fn clustering_pair_accuracy(patches: &[Patch], clusters: &[Vec<u32>]) -> (f64, f64) {
    let gt: Vec<i64> = patches
        .iter()
        .map(|p| p.get_int(GT_KEY).unwrap_or(-1))
        .collect();
    // Truth pairs: same non-negative ground-truth id.
    let mut truth = HashSet::new();
    for i in 0..gt.len() {
        for j in i + 1..gt.len() {
            if gt[i] >= 0 && gt[i] == gt[j] {
                truth.insert((i as u32, j as u32));
            }
        }
    }
    let mut pred = HashSet::new();
    for cluster in clusters {
        for a in 0..cluster.len() {
            for b in a + 1..cluster.len() {
                let (x, y) = (cluster[a].min(cluster[b]), cluster[a].max(cluster[b]));
                pred.insert((x, y));
            }
        }
    }
    let hit = truth.intersection(&pred).count() as f64;
    let recall = if truth.is_empty() {
        1.0
    } else {
        hit / truth.len() as f64
    };
    let precision = if pred.is_empty() {
        1.0
    } else {
        hit / pred.len() as f64
    };
    (recall, precision)
}

// --------------------------------------------------------------------------
// q5 — lookup the presence of a string (PC)
// --------------------------------------------------------------------------

/// q5: first image whose OCR output *contains* `needle` as a substring.
/// The predicate defeats every available index (the paper's point), so the
/// baseline and "optimized" plans are both scans in image order.
pub fn q5_scan(etl: &PcEtl, needle: &str) -> Option<i64> {
    let mut best: Option<i64> = None;
    for p in &etl.ocr_patches {
        if let (Some(text), Some(img)) = (p.get_str("text"), p.get_int("imgno")) {
            if text.contains(needle) && best.map(|b| img < b).unwrap_or(true) {
                best = Some(img);
            }
        }
    }
    best
}

// --------------------------------------------------------------------------
// q6 — pedestrian pairs (p1 behind p2) (TrafficCam)
// --------------------------------------------------------------------------

/// Depth margin in meters for "clearly behind".
pub const DEPTH_MARGIN: f64 = 1.0;

/// q6 baseline: the frame-equality part is a standard hash equijoin any
/// engine performs, but the depth predicate is evaluated by nested-loop
/// comparison within each frame (no depth index).
pub fn q6_baseline(people: &[Patch]) -> usize {
    let mut by_frame: HashMap<i64, Vec<&Patch>> = HashMap::new();
    for p in people {
        if let Some(f) = p.get_int("frameno") {
            by_frame.entry(f).or_default().push(p);
        }
    }
    let mut count = 0usize;
    for group in by_frame.values() {
        for a in group {
            for b in group {
                if a.id != b.id {
                    if let (Some(da), Some(db)) = (a.get_float("depth"), b.get_float("depth")) {
                        if da > db + DEPTH_MARGIN {
                            count += 1;
                        }
                    }
                }
            }
        }
    }
    count
}

/// q6 fully-unindexed variant (cross product with a θ predicate): the cost
/// the paper's nested-loop join would pay with no equijoin support at all.
pub fn q6_crossproduct(people: &[Patch]) -> usize {
    ops::nested_loop_join(
        people,
        people,
        |a, b| {
            a.id != b.id
                && a.get_int("frameno") == b.get_int("frameno")
                && match (a.get_float("depth"), b.get_float("depth")) {
                    (Some(da), Some(db)) => da > db + DEPTH_MARGIN,
                    _ => false,
                }
        },
        &serial(),
    )
    .len()
}

/// q6 optimized: group by frame (hash), then a sorted sweep on depth inside
/// each frame.
pub fn q6_optimized(people: &[Patch]) -> usize {
    let mut by_frame: HashMap<i64, Vec<f64>> = HashMap::new();
    for p in people {
        if let (Some(f), Some(d)) = (p.get_int("frameno"), p.get_float("depth")) {
            by_frame.entry(f).or_default().push(d);
        }
    }
    let mut count = 0usize;
    for depths in by_frame.values_mut() {
        depths.sort_by(|a, b| a.total_cmp(b));
        // For each p1, every element strictly below `p1 - margin` is a valid
        // p2; in the sorted run that is exactly the partition-point prefix.
        for &d in depths.iter() {
            count += depths.partition_point(|&x| x < d - DEPTH_MARGIN);
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use deeplens_exec::Device;

    fn traffic() -> TrafficEtl {
        crate::etl::traffic_etl_default(0.004, crate::WORLD_SEED, Device::Avx)
    }

    #[test]
    fn q1_variants_agree_and_find_duplicates() {
        let etl = crate::etl::pc_etl(0.08, crate::WORLD_SEED, Device::Avx);
        let base = q1_baseline(&etl);
        let opt = q1_optimized(&etl);
        assert_eq!(base, opt, "physical variants must agree");
        let (recall, _precision) = q1_accuracy(&etl, &opt);
        assert!(
            recall > 0.7,
            "planted duplicates mostly found, recall {recall}"
        );
    }

    #[test]
    fn q2_variants_agree_and_near_truth() {
        let etl = traffic();
        etl.catalog
            .build_hash_index("traffic_dets", "by_label", "label")
            .unwrap();
        let base = q2_baseline(&etl);
        let opt = q2_optimized(&etl.catalog.snapshot("traffic_dets").unwrap());
        assert_eq!(base, opt);
        let truth = q2_truth(&etl);
        assert!(truth > 0);
        let err = (base as f64 - truth as f64).abs() / truth as f64;
        assert!(err < 0.2, "q2 answer {base} too far from truth {truth}");
    }

    #[test]
    fn q3_variants_agree() {
        let etl = crate::etl::football_etl(0.008, crate::WORLD_SEED, Device::Avx);
        let base = q3_baseline(&etl, &etl.dataset.target_jersey);
        let id_map = q3_build_id_map(&etl);
        let opt = q3_optimized(&etl, &id_map, &etl.dataset.target_jersey);
        assert_eq!(base, opt);
        assert!(!opt.is_empty(), "target player must be tracked somewhere");
    }

    #[test]
    fn q4_variants_agree_and_near_truth() {
        let etl = traffic();
        let people = q4_person_patches(&etl);
        assert!(people.len() >= 10, "need enough person detections");
        let base = q4_baseline(&people);
        let opt = q4_optimized(&people);
        assert_eq!(base, opt);
        let truth = etl.dataset.distinct_pedestrians().len();
        assert!(truth > 0);
        // Dedup is approximate: bounding-box jitter fragments some identity
        // clusters, so allow a generous band around the true count.
        assert!(
            (opt as f64) < truth as f64 * 4.0 && (opt as f64) > truth as f64 * 0.3,
            "estimated {opt} vs true {truth}"
        );
    }

    #[test]
    fn q5_finds_needle() {
        let etl = crate::etl::pc_etl(0.08, crate::WORLD_SEED, Device::Avx);
        // Search by ground truth presence: OCR may corrupt the needle, so
        // check against the truth string when asserting.
        let truth_img = etl
            .ocr_patches
            .iter()
            .filter(|p| p.get_str("truth") == Some("DEEPLENS"))
            .filter_map(|p| p.get_int("imgno"))
            .min();
        assert!(truth_img.is_some(), "needle exists in corpus");
        // The scan may or may not find it depending on OCR noise; a partial
        // needle ("DEEP") is robust.
        let found = q5_scan(&etl, "DEEP");
        assert!(
            found.is_some(),
            "substring scan should hit the planted document"
        );
    }

    #[test]
    fn q6_variants_agree() {
        let etl = traffic();
        let people = q4_person_patches(&etl);
        let base = q6_baseline(&people);
        let opt = q6_optimized(&people);
        assert_eq!(base, opt, "sorted sweep must count the same pairs");
    }

    #[test]
    fn clustering_accuracy_bounds() {
        let etl = traffic();
        let people = q4_person_patches(&etl);
        let clusters = ops::cluster_from_pairs(people.len(), &self_join(&people, MATCH_TAU));
        let (recall, precision) = clustering_pair_accuracy(&people, &clusters);
        assert!((0.0..=1.0).contains(&recall));
        assert!((0.0..=1.0).contains(&precision));
        assert!(
            recall > 0.3,
            "same-identity patches should mostly cluster, r={recall}"
        );
    }
}
