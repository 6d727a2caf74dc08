//! Property-based tests over the core invariants of the DeepLens stack:
//! codec round-trips, index/bruteforce agreement, B+Tree vs BTreeMap model,
//! and key-encoding order preservation. The KD-Tree, R-Tree and LSH cases
//! hold the figure harnesses' reproduction-only structures
//! (`deeplens_bench::repro`) to the same brute-force oracle as the
//! engine's Ball-Tree.

use std::collections::BTreeMap;
use std::ops::Bound;

use proptest::prelude::*;

use deeplens::codec::{decode_image, encode_image, psnr, Image, Quality};
use deeplens::exec::{kernels, Matrix};
use deeplens::index::{bruteforce, BallTree};
use deeplens::prelude::{ImgRef, Patch, PatchId, SharedCatalog};
use deeplens::storage::btree::{keys, BTree};
use deeplens_bench::repro::kdtree::KdTree;
use deeplens_bench::repro::lsh::{LshIndex, LshParams};
use deeplens_bench::repro::rtree::{RTree, Rect};

fn unique_tmp(tag: &str) -> std::path::PathBuf {
    static CTR: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = CTR.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join("deeplens-proptest");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}-{}-{n}.dlb", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Intra codec: any image round-trips with bounded distortion at
    /// high quality and always preserves dimensions.
    #[test]
    fn intra_codec_roundtrip(
        w in 1u32..80,
        h in 1u32..60,
        seed in any::<u64>(),
    ) {
        let mut img = Image::new(w, h);
        let mut s = seed;
        for y in 0..h {
            for x in 0..w {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                let v = (s >> 33) as u8;
                img.set(x, y, [v, v.wrapping_mul(3), v.wrapping_add(80)]);
            }
        }
        let bytes = encode_image(&img, Quality::High);
        let back = decode_image(&bytes).unwrap();
        prop_assert_eq!(back.width(), w);
        prop_assert_eq!(back.height(), h);
        // Random noise is the worst case for a DCT coder, and 4:2:0 chroma
        // subsampling legitimately wrecks sub-block images — only demand a
        // distortion floor once a full 8x8 block exists.
        if w >= 8 && h >= 8 {
            prop_assert!(psnr(&img, &back) > 12.0);
        }
    }

    /// Ball-Tree range queries agree exactly with brute force.
    #[test]
    fn balltree_matches_bruteforce(
        n in 1usize..200,
        dim in 1usize..12,
        tau in 0.1f32..8.0,
        seed in any::<u64>(),
    ) {
        let mut s = seed | 1;
        let pts: Vec<Vec<f32>> = (0..n)
            .map(|_| {
                (0..dim)
                    .map(|_| {
                        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                        (s >> 33) as f32 / (1u64 << 31) as f32 * 10.0
                    })
                    .collect()
            })
            .collect();
        let tree = BallTree::from_vectors(&pts);
        let q = &pts[n / 2];
        let mut got = tree.range_query(q, tau);
        let mut expect = bruteforce::range_query(&pts, q, tau);
        got.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    /// KD-Tree nearest neighbour agrees with brute force.
    #[test]
    fn kdtree_nearest_matches_bruteforce(
        n in 2usize..150,
        seed in any::<u64>(),
    ) {
        let mut s = seed | 1;
        let pts: Vec<Vec<f32>> = (0..n)
            .map(|_| {
                (0..3)
                    .map(|_| {
                        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                        (s >> 33) as f32 / (1u64 << 31) as f32 * 10.0
                    })
                    .collect()
            })
            .collect();
        let tree = KdTree::from_vectors(&pts);
        let q = vec![5.0f32, 5.0, 5.0];
        let (_, got_d) = tree.nearest(&q).unwrap();
        let (_, want_d) = bruteforce::knn(&pts, &q, 1)[0];
        prop_assert!((got_d - want_d).abs() < 1e-4);
    }

    /// R-Tree intersection queries agree with a linear filter.
    #[test]
    fn rtree_matches_linear_filter(
        n in 1usize..150,
        qx in 0f32..900.0,
        qy in 0f32..900.0,
        seed in any::<u64>(),
    ) {
        let mut s = seed | 1;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            (s >> 33) as f32 / (1u64 << 31) as f32 * 1000.0
        };
        let rects: Vec<(Rect, u64)> = (0..n as u64)
            .map(|i| {
                let x = next();
                let y = next();
                (Rect::new(x, y, x + next() / 20.0, y + next() / 20.0), i)
            })
            .collect();
        let mut tree = RTree::new();
        for (r, id) in &rects {
            tree.insert(*r, *id);
        }
        let window = Rect::new(qx, qy, qx + 120.0, qy + 120.0);
        let mut got = tree.intersecting(&window);
        got.sort_unstable();
        let mut expect: Vec<u64> = rects
            .iter()
            .filter(|(r, _)| window.intersects(r))
            .map(|(_, id)| *id)
            .collect();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    /// Numeric key encodings preserve order for arbitrary values.
    #[test]
    fn key_encodings_preserve_order(a in any::<i64>(), b in any::<i64>()) {
        prop_assert_eq!(a.cmp(&b), keys::encode_i64(a).cmp(&keys::encode_i64(b)));
        let (fa, fb) = (a as f64 / 1e6, b as f64 / 1e6);
        prop_assert_eq!(fa.total_cmp(&fb), keys::encode_f64(fa).cmp(&keys::encode_f64(fb)));
    }
}

/// Deterministic point cloud shared by the index-equivalence properties.
fn random_points(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            (0..dim)
                .map(|_| {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (s >> 33) as f32 / (1u64 << 31) as f32 * 10.0
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Ball-Tree kNN agrees with brute force: identical neighbour distances
    /// (ids may differ only where distances tie).
    #[test]
    fn balltree_knn_matches_bruteforce(
        n in 1usize..200,
        dim in 1usize..12,
        k in 1usize..12,
        seed in any::<u64>(),
    ) {
        let pts = random_points(n, dim, seed);
        let tree = BallTree::from_vectors(&pts);
        let q = &pts[n / 2];
        let got = tree.knn(q, k);
        let want = bruteforce::knn(&pts, q, k);
        prop_assert_eq!(got.len(), want.len());
        for (i, ((_, gd), (_, wd))) in got.iter().zip(&want).enumerate() {
            prop_assert!((gd - wd).abs() < 1e-4, "neighbour {} distance {} vs {}", i, gd, wd);
        }
    }

    /// KD-Tree range queries agree exactly with brute force in low
    /// dimension.
    #[test]
    fn kdtree_range_matches_bruteforce(
        n in 1usize..200,
        tau in 0.1f32..8.0,
        seed in any::<u64>(),
    ) {
        let pts = random_points(n, 3, seed);
        let tree = KdTree::from_vectors(&pts);
        let q = &pts[n / 2];
        let mut got = tree.range_query(q, tau);
        let mut want = bruteforce::range_query(&pts, q, tau);
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// LSH range queries: every returned id is a true neighbour (verified
    /// candidates), the query point always finds itself, and recall against
    /// brute force clears a bound when the bucket width comfortably exceeds
    /// the query radius.
    #[test]
    fn lsh_range_precision_exact_and_recall_bounded(
        clusters in 1usize..6,
        per_cluster in 2usize..12,
        seed in any::<u64>(),
    ) {
        // Tight clusters (spread ±1) queried at tau 3 with width 16: the
        // regime LSH is built for.
        let mut s = seed | 1;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            (s >> 33) as f32 / (1u64 << 31) as f32
        };
        let dim = 8usize;
        let mut pts: Vec<Vec<f32>> = Vec::new();
        for c in 0..clusters {
            let center: Vec<f32> =
                (0..dim).map(|_| next() * 100.0 + c as f32 * 40.0).collect();
            for _ in 0..per_cluster {
                pts.push(center.iter().map(|&v| v + next() * 2.0 - 1.0).collect());
            }
        }
        let idx = LshIndex::from_vectors(
            &pts,
            LshParams { tables: 12, projections: 4, width: 16.0, seed: 0xD1CE },
        );
        let tau = 3.0f32;
        let mut found = 0usize;
        let mut total = 0usize;
        for (qi, q) in pts.iter().enumerate() {
            let got = idx.range_query(q, tau);
            let truth = bruteforce::range_query(&pts, q, tau);
            // Precision is exact: candidates are distance-verified.
            for id in &got {
                prop_assert!(truth.contains(id), "false positive {}", id);
            }
            // A point always collides with itself in every table.
            prop_assert!(got.contains(&(qi as u32)), "query {} must find itself", qi);
            total += truth.len();
            found += truth.iter().filter(|t| got.contains(t)).count();
        }
        let recall = found as f64 / total.max(1) as f64;
        prop_assert!(recall >= 0.8, "recall {} below bound", recall);
    }

    /// The sharded threshold join equals brute-force all-pairs for any
    /// shape and thread count (the morsel pool drops no pair at shard
    /// boundaries).
    #[test]
    fn parallel_join_matches_bruteforce(
        n in 0usize..60,
        m in 0usize..60,
        dim in 1usize..10,
        threads in 1usize..9,
        tau in 0.5f32..10.0,
        seed in any::<u64>(),
    ) {
        let a = random_points(n, dim, seed);
        let b = random_points(m, dim, seed ^ 0xFFFF);
        let ma = Matrix::from_rows(&a);
        // Matrix::from_rows infers cols from the first row; pin the shape
        // for the empty case so the kernel's dimension check passes.
        let mb = if m == 0 {
            Matrix::zeros(0, dim)
        } else {
            Matrix::from_rows(&b)
        };
        let ma = if n == 0 { Matrix::zeros(0, dim) } else { ma };
        let mut got = kernels::threshold_join_sharded(&ma, &mb, &[tau], threads).remove(0);
        let mut want = Vec::new();
        for (i, pa) in a.iter().enumerate() {
            for (j, pb) in b.iter().enumerate() {
                let d2: f32 = pa.iter().zip(pb).map(|(x, y)| (x - y) * (x - y)).sum();
                if d2 <= tau * tau {
                    want.push((i as u32, j as u32));
                }
            }
        }
        got.sort_unstable();
        want.sort_unstable();
        // Norm-decomposition rounding can flip pairs sitting exactly on the
        // boundary; demand agreement away from it.
        let boundary = |p: &(u32, u32)| {
            let d2: f32 = a[p.0 as usize]
                .iter()
                .zip(&b[p.1 as usize])
                .map(|(x, y)| (x - y) * (x - y))
                .sum();
            (d2 - tau * tau).abs() < 1e-3 * tau * tau
        };
        let got_core: Vec<_> = got.iter().filter(|p| !boundary(p)).collect();
        let want_core: Vec<_> = want.iter().filter(|p| !boundary(p)).collect();
        prop_assert_eq!(got_core, want_core);
    }
}

/// Build `n` deterministic feature patches with ids from `alloc` (each
/// catalog under test allocates in the same order, so ids agree).
fn catalog_patches(alloc: impl Fn() -> PatchId, n: usize, tag: u64) -> Vec<Patch> {
    (0..n)
        .map(|i| {
            Patch::features(
                alloc(),
                ImgRef::frame("src", tag),
                vec![i as f32, tag as f32],
            )
            .with_meta("tag", tag as i64)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The sharded `SharedCatalog` behaves exactly like a reference model
    /// (an ordered map of rows, an id counter, a lineage-record count — no
    /// code shared with the engine) under an arbitrary interleaving of
    /// materialize, drop and query operations — and its behaviour is
    /// independent of the shard count (1, 2, and 4 shards all converge to
    /// the same end state).
    #[test]
    fn shared_catalog_matches_reference_model_across_shard_counts(
        ops in prop::collection::vec((0u8..4, 0usize..5, 1usize..12), 1..40),
    ) {
        let names = ["alpha", "beta", "gamma", "delta", "epsilon"];
        let mut model: BTreeMap<String, Vec<Patch>> = BTreeMap::new();
        let next_id = std::cell::Cell::new(0u64);
        let mut lineage_records = 0usize;
        let shared: Vec<SharedCatalog> =
            [1usize, 2, 4].iter().map(|&s| SharedCatalog::with_shards(s)).collect();

        for (op, name_i, size) in &ops {
            let name = names[*name_i];
            match op {
                0 | 3 => {
                    // Materialize (twice as likely as the others): identical
                    // patches built against each catalog's own allocator.
                    let tag = (*name_i * 1000 + *size) as u64;
                    let model_patches =
                        catalog_patches(|| PatchId(next_id.replace(next_id.get() + 1)), *size, tag);
                    lineage_records += model_patches.len();
                    let replaced_ref = model.insert(name.to_string(), model_patches).is_some();
                    for sc in &shared {
                        let replaced = sc
                            .materialize(name, catalog_patches(|| sc.next_patch_id(), *size, tag))
                            .is_some();
                        prop_assert_eq!(replaced, replaced_ref, "clobber visibility diverged");
                    }
                }
                1 => {
                    let dropped_ref = model.remove(name).is_some();
                    for sc in &shared {
                        prop_assert_eq!(sc.drop_collection(name).is_some(), dropped_ref);
                    }
                }
                _ => {
                    let want = model.get(name).cloned();
                    for sc in &shared {
                        let got = sc.snapshot(name).ok().map(|c| c.patches.clone());
                        prop_assert_eq!(&got, &want, "query diverged on '{}'", name);
                    }
                }
            }
        }

        // Equivalent end states across every shard count.
        let want_names: Vec<String> = model.keys().cloned().collect();
        for sc in &shared {
            prop_assert_eq!(sc.names(), want_names.clone(), "{} shards", sc.shard_count());
            for (name, rows) in &model {
                prop_assert_eq!(&sc.snapshot(name).unwrap().patches, rows);
            }
            prop_assert_eq!(sc.with_lineage(|l| l.len()), lineage_records);
            prop_assert_eq!(sc.next_patch_id(), PatchId(next_id.get()), "id allocators agree");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The on-disk B+Tree behaves exactly like a BTreeMap model under an
    /// arbitrary interleaving of inserts, deletes and lookups, including
    /// range scans.
    #[test]
    fn btree_matches_model(
        ops in prop::collection::vec(
            (0u8..3, prop::collection::vec(any::<u8>(), 1..24),
             prop::collection::vec(any::<u8>(), 0..600)),
            1..150,
        )
    ) {
        let path = unique_tmp("model");
        let mut tree = BTree::create(&path).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for (op, key, value) in &ops {
            match op {
                0 => {
                    tree.insert(key, value).unwrap();
                    model.insert(key.clone(), value.clone());
                }
                1 => {
                    let got = tree.delete(key).unwrap();
                    let want = model.remove(key).is_some();
                    prop_assert_eq!(got, want);
                }
                _ => {
                    let got = tree.get(key).unwrap();
                    let want = model.get(key).cloned();
                    prop_assert_eq!(got, want);
                }
            }
        }
        prop_assert_eq!(tree.len() as usize, model.len());
        // Full ordered scan equals the model.
        let scan: Vec<(Vec<u8>, Vec<u8>)> =
            tree.scan_all().unwrap().collect::<Result<_, _>>().unwrap();
        let want: Vec<(Vec<u8>, Vec<u8>)> =
            model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(scan, want);
        // A bounded range scan equals the model's range.
        if let (Some(first), Some(last)) = (model.keys().next(), model.keys().last()) {
            let got: Vec<_> = tree
                .scan(Bound::Included(first.as_slice()), Bound::Included(last.as_slice()))
                .unwrap()
                .collect::<Result<Vec<_>, _>>()
                .unwrap();
            prop_assert_eq!(got.len(), model.len());
        }
        std::fs::remove_file(path).ok();
    }
}
