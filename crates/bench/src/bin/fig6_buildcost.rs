//! Figure 6 — building multidimensional indexes is costly: construction
//! time vs tuple count for every index DeepLens supports. The paper found
//! the R-Tree ~20× slower to construct than a B+Tree.

use deeplens_bench::report::{ms, time, Table};
use deeplens_bench::repro::kdtree::KdTree;
use deeplens_bench::repro::lsh::{LshIndex, LshParams};
use deeplens_bench::repro::rtree::{RTree, Rect};
use deeplens_bench::repro::sorted::SortedRunIndex;
use deeplens_bench::repro::storage::btree::{keys, BTree};
use deeplens_index::BallTree;

/// Deterministic pseudo-random generator for the synthetic tuples.
struct Lcg(u64);

impl Lcg {
    fn next_f32(&mut self) -> f32 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as f32 / (1u64 << 31) as f32
    }
}

fn main() {
    let sizes = [1_000usize, 2_000, 5_000, 10_000, 20_000, 50_000];
    let dim_high = 64usize;
    let dir = std::env::temp_dir().join("deeplens-fig6");
    std::fs::create_dir_all(&dir).expect("temp dir");

    let mut table = Table::new(
        "Fig. 6 — index construction time (ms) vs number of tuples",
        &[
            "n",
            "Hash",
            "BTree (mem)",
            "B+Tree (disk)",
            "Sorted run",
            "KD-Tree (4d)",
            "Ball-Tree (64d)",
            "LSH (64d)",
            "R-Tree (insert)",
            "R-Tree (bulk)",
        ],
    );

    for &n in &sizes {
        let mut rng = Lcg(42);
        // Shared synthetic data.
        let bboxes: Vec<(Rect, u64)> = (0..n)
            .map(|i| {
                let x = rng.next_f32() * 1000.0;
                let y = rng.next_f32() * 1000.0;
                (Rect::new(x, y, x + 10.0, y + 10.0), i as u64)
            })
            .collect();
        let feats_high: Vec<f32> = (0..n * dim_high).map(|_| rng.next_f32() * 10.0).collect();
        let feats_low: Vec<f32> = (0..n * 4).map(|_| rng.next_f32() * 10.0).collect();
        let scalars: Vec<(f64, u64)> = (0..n)
            .map(|i| (rng.next_f32() as f64 * 1e6, i as u64))
            .collect();

        let (_, t_hash) = time(|| {
            let mut m = std::collections::HashMap::new();
            for (i, (k, _)) in scalars.iter().enumerate() {
                m.insert(k.to_bits(), i as u64);
            }
            m
        });

        let (_, t_btree_mem) = time(|| {
            let mut m = std::collections::BTreeMap::new();
            for (i, (k, _)) in scalars.iter().enumerate() {
                m.insert(k.to_bits(), i as u64);
            }
            m
        });

        let (_, t_btree) = time(|| {
            let mut t = BTree::create(dir.join(format!("bt-{n}.dlb"))).expect("create");
            for (i, (k, _)) in scalars.iter().enumerate() {
                t.insert(&keys::encode_f64(*k), &(i as u64).to_le_bytes())
                    .expect("insert");
            }
            t.flush().expect("flush");
        });

        let (_, t_sorted) = time(|| SortedRunIndex::build(scalars.clone()));

        let (_, t_kd) = time(|| KdTree::build(4, feats_low.clone()));

        let (_, t_ball) = time(|| BallTree::build(dim_high, feats_high.clone()));

        let (_, t_lsh) =
            time(|| LshIndex::build(dim_high, feats_high.clone(), LshParams::default()));

        let (_, t_rtree_ins) = time(|| {
            let mut t = RTree::new();
            for (r, id) in &bboxes {
                t.insert(*r, *id);
            }
            t
        });

        let (_, t_rtree_bulk) = time(|| RTree::bulk_load(bboxes.clone()));

        table.row(&[
            n.to_string(),
            ms(t_hash),
            ms(t_btree_mem),
            ms(t_btree),
            ms(t_sorted),
            ms(t_kd),
            ms(t_ball),
            ms(t_lsh),
            ms(t_rtree_ins),
            ms(t_rtree_bulk),
        ]);
        println!(
            "n={n}: R-Tree-insert/BTree(mem) ratio = {:.1}x",
            t_rtree_ins.as_secs_f64() / t_btree_mem.as_secs_f64().max(1e-9)
        );
    }

    table.emit("fig6_buildcost");
    println!(
        "\nPaper shape: single-dimensional structures build fastest; the incremental \
         R-Tree is by far the most expensive (paper: ~20x over a B+Tree); STR bulk \
         loading mitigates it; Ball-Tree construction scales superlinearly."
    );
}
