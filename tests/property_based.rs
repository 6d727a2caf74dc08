//! Property-based tests over the core invariants of the DeepLens stack:
//! codec round-trips, index/bruteforce agreement, B+Tree and patch
//! metadata map vs BTreeMap models,
//! and key-encoding order preservation. The KD-Tree, R-Tree and LSH cases
//! hold the figure harnesses' reproduction-only structures
//! (`deeplens_bench::repro`) to the same brute-force oracle as the
//! engine's Ball-Tree.

use std::collections::BTreeMap;
use std::ops::Bound;

mod harness;

use deeplens::codec::{decode_image, encode_image, psnr, Image, Quality};
use deeplens::core::patch::MetaMap;
use deeplens::core::value::{encode_f64, encode_i64, Value};
use deeplens::exec::{kernels, Matrix};
use deeplens::index::{bruteforce, BallTree};
use deeplens::prelude::{ImgRef, Patch, PatchId, SharedCatalog};
use deeplens_bench::repro::kdtree::KdTree;
use deeplens_bench::repro::lsh::{LshIndex, LshParams};
use deeplens_bench::repro::rtree::{RTree, Rect};
use deeplens_bench::repro::storage::btree::BTree;
use harness::cases;

fn unique_tmp(tag: &str) -> std::path::PathBuf {
    static CTR: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = CTR.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join("deeplens-proptest");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}-{}-{n}.dlb", std::process::id()))
}

/// Intra codec: any image round-trips with bounded distortion at
/// high quality and always preserves dimensions.
#[test]
fn intra_codec_roundtrip() {
    cases("intra_codec_roundtrip", 24, |g| {
        let (w, h, seed) = (g.range(1, 80) as u32, g.range(1, 60) as u32, g.next_u64());
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
        assert_eq!(back.width(), w);
        assert_eq!(back.height(), h);
        // Random noise is the worst case for a DCT coder, and 4:2:0 chroma
        // subsampling legitimately wrecks sub-block images — only demand a
        // distortion floor once a full 8x8 block exists.
        if w >= 8 && h >= 8 {
            assert!(psnr(&img, &back) > 12.0);
        }
    });
}

/// Ball-Tree range queries agree exactly with brute force.
#[test]
fn balltree_matches_bruteforce() {
    cases("balltree_matches_bruteforce", 24, |g| {
        let (n, dim) = (g.range(1, 200) as usize, g.range(1, 12) as usize);
        let (tau, seed) = (g.range_f32(0.1, 8.0), g.next_u64());
        let pts = random_points(n, dim, seed);
        let tree = BallTree::from_vectors(&pts);
        let q = &pts[n / 2];
        let mut got = tree.range_query(q, tau);
        let mut expect = bruteforce::range_query(&pts, q, tau);
        got.sort_unstable();
        expect.sort_unstable();
        assert_eq!(got, expect);
    });
}

/// KD-Tree nearest neighbour agrees with brute force.
#[test]
fn kdtree_nearest_matches_bruteforce() {
    cases("kdtree_nearest_matches_bruteforce", 24, |g| {
        let (n, seed) = (g.range(2, 150) as usize, g.next_u64());
        let pts = random_points(n, 3, seed);
        let tree = KdTree::from_vectors(&pts);
        let q = vec![5.0f32, 5.0, 5.0];
        let (_, got_d) = tree.nearest(&q).unwrap();
        let (_, want_d) = bruteforce::knn(&pts, &q, 1)[0];
        assert!((got_d - want_d).abs() < 1e-4);
    });
}

/// R-Tree intersection queries agree with a linear filter.
#[test]
fn rtree_matches_linear_filter() {
    cases("rtree_matches_linear_filter", 24, |g| {
        let n = g.range(1, 150) as u64;
        let (qx, qy) = (g.range_f32(0.0, 900.0), g.range_f32(0.0, 900.0));
        let seed = g.next_u64();
        let mut s = seed | 1;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            (s >> 33) as f32 / (1u64 << 31) as f32 * 1000.0
        };
        let rects: Vec<(Rect, u64)> = (0..n)
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
        assert_eq!(got, expect);
    });
}

/// Numeric key encodings preserve order for arbitrary values.
#[test]
fn key_encodings_preserve_order() {
    cases("key_encodings_preserve_order", 24, |g| {
        let (a, b) = (g.next_u64() as i64, g.next_u64() as i64);
        assert_eq!(a.cmp(&b), encode_i64(a).cmp(&encode_i64(b)));
        let (fa, fb) = (a as f64 / 1e6, b as f64 / 1e6);
        assert_eq!(fa.total_cmp(&fb), encode_f64(fa).cmp(&encode_f64(fb)));
    });
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

/// KD-Tree range queries agree exactly with brute force in low
/// dimension.
#[test]
fn kdtree_range_matches_bruteforce() {
    cases("kdtree_range_matches_bruteforce", 24, |g| {
        let n = g.range(1, 200) as usize;
        let (tau, seed) = (g.range_f32(0.1, 8.0), g.next_u64());
        let pts = random_points(n, 3, seed);
        let tree = KdTree::from_vectors(&pts);
        let q = &pts[n / 2];
        let mut got = tree.range_query(q, tau);
        let mut want = bruteforce::range_query(&pts, q, tau);
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    });
}

/// LSH range queries: every returned id is a true neighbour (verified
/// candidates), the query point always finds itself, and recall against
/// brute force clears a bound when the bucket width comfortably exceeds
/// the query radius.
#[test]
fn lsh_range_precision_exact_and_recall_bounded() {
    cases("lsh_range_precision_exact_and_recall_bounded", 24, |g| {
        let (clusters, per_cluster) = (g.range(1, 6), g.range(2, 12));
        let seed = g.next_u64();
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
            let center: Vec<f32> = (0..dim).map(|_| next() * 100.0 + c as f32 * 40.0).collect();
            for _ in 0..per_cluster {
                pts.push(center.iter().map(|&v| v + next() * 2.0 - 1.0).collect());
            }
        }
        let idx = LshIndex::from_vectors(
            &pts,
            LshParams {
                tables: 12,
                projections: 4,
                width: 16.0,
                seed: 0xD1CE,
            },
        );
        let tau = 3.0f32;
        let mut found = 0usize;
        let mut total = 0usize;
        for (qi, q) in pts.iter().enumerate() {
            let got = idx.range_query(q, tau);
            let truth = bruteforce::range_query(&pts, q, tau);
            // Precision is exact: candidates are distance-verified.
            for id in &got {
                assert!(truth.contains(id), "false positive {}", id);
            }
            // A point always collides with itself in every table.
            assert!(got.contains(&(qi as u32)), "query {} must find itself", qi);
            total += truth.len();
            found += truth.iter().filter(|t| got.contains(t)).count();
        }
        let recall = found as f64 / total.max(1) as f64;
        assert!(recall >= 0.8, "recall {} below bound", recall);
    });
}

/// The sharded threshold join equals brute-force all-pairs for any
/// shape and thread count, pair for pair and in order (the morsel pool
/// drops no pair at shard boundaries, rounding flips none at τ).
#[test]
fn parallel_join_matches_bruteforce() {
    cases("parallel_join_matches_bruteforce", 24, |g| {
        let (n, m) = (g.below(60) as usize, g.below(60) as usize);
        let (dim, threads) = (g.range(1, 10) as usize, g.range(1, 9) as usize);
        let (tau, seed) = (g.range_f32(0.5, 10.0), g.next_u64());
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
        let got = kernels::threshold_join_sharded(&ma, &mb, &[tau], threads).remove(0);
        let mut want = Vec::new();
        for (i, pa) in a.iter().enumerate() {
            for (j, pb) in b.iter().enumerate() {
                let d2: f32 = pa.iter().zip(pb).map(|(x, y)| (x - y) * (x - y)).sum();
                if d2 <= tau * tau {
                    want.push((i as u32, j as u32));
                }
            }
        }
        // Row-major, and exact: boundary pairs are decided by the
        // element-wise sum, not the norm decomposition.
        assert_eq!(got, want);
    });
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

/// The sharded `SharedCatalog` behaves exactly like a reference model
/// (an ordered map of rows and an id counter — no code shared with the
/// engine) under an arbitrary interleaving of
/// materialize, drop and query operations — and its behaviour is
/// independent of the shard count (1, 2, and 4 shards all converge to
/// the same end state).
#[test]
fn shared_catalog_matches_reference_model_across_shard_counts() {
    cases(
        "shared_catalog_matches_reference_model_across_shard_counts",
        24,
        |g| {
            let ops: Vec<(u8, usize, usize)> = (0..g.range(1, 40))
                .map(|_| {
                    (
                        g.below(4) as u8,
                        g.below(5) as usize,
                        g.range(1, 12) as usize,
                    )
                })
                .collect();
            let names = ["alpha", "beta", "gamma", "delta", "epsilon"];
            let mut model: BTreeMap<String, Vec<Patch>> = BTreeMap::new();
            let next_id = std::cell::Cell::new(0u64);
            let shared: Vec<SharedCatalog> = [1usize, 2, 4]
                .iter()
                .map(|&s| SharedCatalog::with_shards(s))
                .collect();

            for (op, name_i, size) in &ops {
                let name = names[*name_i];
                match op {
                    0 | 3 => {
                        // Materialize (twice as likely as the others): identical
                        // patches built against each catalog's own allocator.
                        let tag = (*name_i * 1000 + *size) as u64;
                        let model_patches = catalog_patches(
                            || PatchId(next_id.replace(next_id.get() + 1)),
                            *size,
                            tag,
                        );
                        let replaced_ref = model.insert(name.to_string(), model_patches).is_some();
                        for sc in &shared {
                            let replaced = sc
                                .materialize(
                                    name,
                                    catalog_patches(|| sc.next_patch_id(), *size, tag),
                                )
                                .is_some();
                            assert_eq!(replaced, replaced_ref, "clobber visibility diverged");
                        }
                    }
                    1 => {
                        let dropped_ref = model.remove(name).is_some();
                        for sc in &shared {
                            assert_eq!(sc.drop_collection(name).is_some(), dropped_ref);
                        }
                    }
                    _ => {
                        let want = model.get(name).cloned();
                        for sc in &shared {
                            let got = sc.snapshot(name).ok().map(|c| c.patches.clone());
                            assert_eq!(&got, &want, "query diverged on '{}'", name);
                        }
                    }
                }
            }

            // Equivalent end states across every shard count.
            let want_names: Vec<String> = model.keys().cloned().collect();
            for sc in &shared {
                assert_eq!(
                    sc.names(),
                    want_names.clone(),
                    "{} shards",
                    sc.shard_count()
                );
                for (name, rows) in &model {
                    assert_eq!(&*sc.snapshot(name).unwrap().patches, rows);
                }
                assert_eq!(
                    sc.next_patch_id(),
                    PatchId(next_id.get()),
                    "id allocators agree"
                );
            }
        },
    );
}

/// The on-disk B+Tree behaves exactly like a BTreeMap model under an
/// arbitrary interleaving of inserts, deletes and lookups, including
/// range scans.
#[test]
fn btree_matches_model() {
    cases("btree_matches_model", 12, |g| {
        let mut bytes =
            |lo, hi| -> Vec<u8> { (0..g.range(lo, hi)).map(|_| g.next_u64() as u8).collect() };
        let ops: Vec<(u8, Vec<u8>, Vec<u8>)> = (0..bytes(1, 150).len())
            .map(|_| (bytes(0, 3).len() as u8, bytes(1, 24), bytes(0, 600)))
            .collect();
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
                    assert_eq!(got, want);
                }
                _ => {
                    let got = tree.get(key).unwrap();
                    let want = model.get(key).cloned();
                    assert_eq!(got, want);
                }
            }
        }
        assert_eq!(tree.len() as usize, model.len());
        // Full ordered scan equals the model.
        let scan: Vec<(Vec<u8>, Vec<u8>)> =
            tree.scan_all().unwrap().collect::<Result<_, _>>().unwrap();
        let want: Vec<(Vec<u8>, Vec<u8>)> =
            model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        assert_eq!(scan, want);
        // A bounded range scan equals the model's range.
        if let (Some(first), Some(last)) = (model.keys().next(), model.keys().last()) {
            let got: Vec<_> = tree
                .scan(
                    Bound::Included(first.as_slice()),
                    Bound::Included(last.as_slice()),
                )
                .unwrap()
                .collect::<Result<Vec<_>, _>>()
                .unwrap();
            assert_eq!(got.len(), model.len());
        }
        std::fs::remove_file(path).ok();
    });
}

/// Keys whose byte order differs from their length order, plus the empty
/// key and a multi-byte one.
const META_KEYS: [&str; 8] = ["", "a", "ab", "b", "frameno", "label", "x", "\u{e9}t\u{e9}"];

/// A value of each metadata type, picked by `kind`.
fn meta_value(kind: u8, n: i64) -> Value {
    match kind {
        0 => Value::Int(n),
        1 => Value::Float(n as f64 / 4.0),
        2 => Value::from(format!("v{n}")),
        _ => Value::Bool(n % 2 == 0),
    }
}

/// `map` against its model: lookups of every key, sorted iteration, size,
/// and the map-shaped `Debug` output.
fn assert_meta_matches(map: &MetaMap, model: &BTreeMap<String, Value>) {
    for key in META_KEYS {
        assert_eq!(map.get(key), model.get(key), "get {:?}", key);
    }
    let entries: Vec<(&str, &Value)> = map.iter().map(|(k, v)| (&**k, v)).collect();
    let want: Vec<(&str, &Value)> = model.iter().map(|(k, v)| (k.as_str(), v)).collect();
    assert_eq!(entries, want);
    let keys: Vec<&str> = map.keys().map(|k| &**k).collect();
    assert_eq!(keys, model.keys().map(String::as_str).collect::<Vec<_>>());
    assert_eq!(map.len(), model.len());
    assert_eq!(map.is_empty(), model.is_empty());
    assert_eq!(format!("{map:?}"), format!("{model:?}"));
}

/// A patch's sorted metadata map behaves like a `BTreeMap` model under
/// any sequence of inserts (overwrites included), lookups and in-place
/// value edits; and two maps are equal exactly when their models are,
/// whatever order their entries were inserted in.
#[test]
fn meta_map_matches_btreemap_model() {
    cases("meta_map_matches_btreemap_model", 64, |g| {
        let mut ops = || -> Vec<(u8, usize, u8, i64)> {
            (0..g.below(40))
                .map(|_| {
                    (
                        g.below(4) as u8,
                        g.below(8) as usize,
                        g.below(4) as u8,
                        g.range(-20, 20),
                    )
                })
                .collect()
        };
        let (a, b) = (ops(), ops());
        let mut maps = [MetaMap::default(), MetaMap::default()];
        let mut models = [BTreeMap::new(), BTreeMap::new()];
        for (side, ops) in [&a, &b].into_iter().enumerate() {
            let (map, model) = (&mut maps[side], &mut models[side]);
            for &(op, key, kind, n) in ops {
                let key = META_KEYS[key];
                match op {
                    // Insert through each accepted key type.
                    0 => assert_eq!(
                        map.insert(key, meta_value(kind, n)),
                        model.insert(key.to_string(), meta_value(kind, n))
                    ),
                    1 => assert_eq!(
                        map.insert(key.to_string(), meta_value(kind, n)),
                        model.insert(key.to_string(), meta_value(kind, n))
                    ),
                    2 => {
                        for v in map.values_mut() {
                            if let Value::Int(i) = v {
                                *i += n;
                            }
                        }
                        for v in model.values_mut() {
                            if let Value::Int(i) = v {
                                *i += n;
                            }
                        }
                    }
                    _ => assert_eq!(map.get(key), model.get(key)),
                }
                assert_meta_matches(map, model);
            }
        }
        let [map_a, map_b] = &maps;
        assert_eq!(map_a == map_b, models[0] == models[1]);
        // The same entries inserted in reverse order build an equal map.
        let mut reversed = MetaMap::default();
        for (k, v) in models[0].iter().rev() {
            reversed.insert(k.as_str(), v.clone());
        }
        assert_eq!(&reversed, map_a);
        assert_eq!(reversed.clone(), map_a.clone());
    });
}
