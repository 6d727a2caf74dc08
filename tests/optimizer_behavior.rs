//! Integration: the optimizer's cost model and accuracy composition agree
//! with measured behaviour of the physical operators.

use deeplens::core::ops;
use deeplens::core::optimizer::CostModel;
use deeplens::prelude::*;

fn feature_patches(n: usize, dim: usize, seed: u64) -> Vec<Patch> {
    let mut s = seed;
    (0..n)
        .map(|i| {
            let f: Vec<f32> = (0..dim)
                .map(|_| {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (s >> 33) as f32 / (1u64 << 31) as f32 * 10.0
                })
                .collect();
            Patch::features(PatchId(i as u64), ImgRef::frame("opt", i as u64), f)
        })
        .collect()
}

/// When the planner says "index the small side", doing so must actually
/// do less work than brute force on an asymmetric join: a Ball-Tree over
/// the small side, probed by every large-side row, evaluates fewer
/// distances than the nested loop's `|small| × |large|`. Work is counted,
/// not timed, so the verdict does not depend on what else the host runs.
#[test]
fn planned_strategy_wins_on_asymmetric_join() {
    use deeplens::index::BallTree;

    let small = feature_patches(300, 16, 1);
    let large = feature_patches(12_000, 16, 2);
    let tau = 2.0f32;
    let plan = JoinPlan::choose(&small, &large).unwrap();
    assert_eq!(
        plan,
        JoinPlan::BallTree { index_left: true },
        "planner should index the small side"
    );

    let mut nested = ops::similarity_join_nested(&small, &large, tau).unwrap();
    let pool = WorkerPool::new(1);
    let ball = plan
        .run(&small, &large, &[(tau, None)], &pool)
        .unwrap()
        .remove(0);
    nested.sort_unstable();
    assert_eq!(nested, ball, "strategies must agree on the answer");

    let small_features: Vec<Vec<f32>> = small
        .iter()
        .map(|p| p.data.features().unwrap().to_vec())
        .collect();
    let tree = BallTree::from_vectors(&small_features);
    tree.take_distance_evals();
    for p in &large {
        tree.range_query(p.data.features().unwrap(), tau);
    }
    let tree_evals = tree.take_distance_evals();
    let nested_evals = (small.len() * large.len()) as u64;
    assert!(
        tree_evals < nested_evals,
        "indexed join should evaluate fewer distances: {tree_evals} vs {nested_evals}"
    );
}

/// The model's non-linear probe cost must rank low-dim below high-dim, as
/// the measured Ball-Tree distance-eval counters do.
#[test]
fn cost_model_tracks_dimension_effect() {
    use deeplens::index::BallTree;

    let model = CostModel::default();
    let n = 8_000usize;
    let make = |dim: usize, seed: u64| {
        let mut s = seed;
        let flat: Vec<f32> = (0..n * dim)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                (s >> 33) as f32 / (1u64 << 31) as f32 * 10.0
            })
            .collect();
        BallTree::build(dim, flat)
    };
    let lo = make(3, 5);
    let hi = make(48, 6);
    lo.take_distance_evals();
    hi.take_distance_evals();
    let q3 = vec![5.0f32; 3];
    let q48 = vec![5.0f32; 48];
    for _ in 0..50 {
        let _ = lo.range_query(&q3, 0.8);
        let _ = hi.range_query(&q48, 4.0);
    }
    let evals_lo = lo.take_distance_evals() as f64;
    let evals_hi = hi.take_distance_evals() as f64;
    let model_lo = model.probe_cost(n, 3);
    let model_hi = model.probe_cost(n, 48);
    assert!(evals_hi > evals_lo, "measured: high dim costs more");
    assert!(model_hi > model_lo, "modelled: high dim costs more");
}

/// Accuracy composition: pushing a lossy filter below a clustering join
/// must lose recall in practice, matching the optimizer's prediction
/// (the Table 1 phenomenon, end to end on real operators).
#[test]
fn filter_pushdown_loses_recall_on_lossy_labels() {
    // Build 40 identities with 10 noisy observations each; 20% of the
    // observations carry a wrong label (the detector's confusion).
    let mut patches = Vec::new();
    let mut s = 99u64;
    let mut rnd = move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
        (s >> 33) as f64 / (1u64 << 31) as f64
    };
    for identity in 0..40i64 {
        for obs in 0..10 {
            let base = identity as f32 * 20.0;
            let f: Vec<f32> = (0..8).map(|k| base + (k as f32) + rnd() as f32).collect();
            let mislabeled = rnd() < 0.2;
            patches.push(
                Patch::features(
                    PatchId((identity * 100 + obs) as u64),
                    ImgRef::frame("t", obs as u64),
                    f,
                )
                .with_meta("label", if mislabeled { "bicycle" } else { "person" })
                .with_meta("gt", identity),
            );
        }
    }
    let tau = 6.0;

    let pair_recall = |clusters: &[Vec<u32>], members: &[usize]| -> f64 {
        // Truth pairs over the global patch set.
        let gt: Vec<i64> = patches.iter().map(|p| p.get_int("gt").unwrap()).collect();
        let mut truth = 0usize;
        for i in 0..gt.len() {
            for j in i + 1..gt.len() {
                if gt[i] == gt[j] {
                    truth += 1;
                }
            }
        }
        let mut hit = 0usize;
        for c in clusters {
            for a in 0..c.len() {
                for b in a + 1..c.len() {
                    if gt[members[c[a] as usize]] == gt[members[c[b] as usize]] {
                        hit += 1;
                    }
                }
            }
        }
        hit as f64 / truth as f64
    };

    // Plan A: filter first.
    let filtered_pos: Vec<usize> = patches
        .iter()
        .enumerate()
        .filter(|(_, p)| p.get_str("label") == Some("person"))
        .map(|(i, _)| i)
        .collect();
    let filtered: Vec<Patch> = filtered_pos.iter().map(|&i| patches[i].clone()).collect();
    let session = Session::ephemeral().unwrap();
    let clusters_a = session.dedup(&filtered, tau).unwrap();
    let recall_a = pair_recall(&clusters_a, &filtered_pos);

    // Plan B: match first, keep clusters with a person.
    let all_pos: Vec<usize> = (0..patches.len()).collect();
    let clusters_b_all = session.dedup(&patches, tau).unwrap();
    let clusters_b: Vec<Vec<u32>> = clusters_b_all
        .into_iter()
        .filter(|c| {
            c.iter()
                .any(|&i| patches[i as usize].get_str("label") == Some("person"))
        })
        .collect();
    let recall_b = pair_recall(&clusters_b, &all_pos);

    assert!(
        recall_b > recall_a,
        "match-first must recover more same-identity pairs ({recall_b:.3} vs {recall_a:.3})"
    );
}
