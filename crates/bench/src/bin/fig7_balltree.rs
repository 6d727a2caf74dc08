//! Figure 7 — Ball-Tree join execution time as a function of the indexed
//! relation's size, in the low- and high-dimensional cases. Growth is
//! non-linear and the non-linearity is stronger in high dimension — the
//! property that defeats naive linear cost models (§7.4.1).
//!
//! The first [`CHECKED_PROBES`] probes of every size are also answered by
//! brute force; the harness (and `run_all` over it) exits 1 when the tree
//! disagrees.

use deeplens_bench::report::{ms, time, Table};
use deeplens_core::optimizer::CostModel;
use deeplens_index::{bruteforce, BallTree};

/// Probes per configuration whose answers are checked against brute force.
const CHECKED_PROBES: usize = 32;

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

/// Adds one row per size to `table`, and `(dim, size)` to `disagree` where
/// the tree answered a checked probe unlike brute force.
fn run_dim(
    dim: usize,
    tau: f32,
    sizes: &[usize],
    probes: usize,
    table: &mut Table,
    disagree: &mut Vec<(usize, usize)>,
) {
    let mut rng = Lcg(7 + dim as u64);
    let probe_pts: Vec<Vec<f32>> = (0..probes)
        .map(|_| (0..dim).map(|_| rng.next_f32() * 10.0).collect())
        .collect();
    let model = CostModel::default();
    for &n in sizes {
        let flat: Vec<f32> = (0..n * dim).map(|_| rng.next_f32() * 10.0).collect();
        let points: Vec<Vec<f32>> = flat.chunks_exact(dim).map(<[f32]>::to_vec).collect();
        let (tree, build_t) = time(|| BallTree::build(dim, flat));
        tree.take_distance_evals();
        let (hits, join_t) = time(|| {
            let mut total = 0usize;
            for p in &probe_pts {
                total += tree.range_query(p, tau).len();
            }
            total
        });
        let evals = tree.take_distance_evals();
        let wrong = probe_pts[..CHECKED_PROBES].iter().any(|p| {
            let mut got = tree.range_query(p, tau);
            got.sort_unstable();
            got != bruteforce::range_query(&points, p, tau)
        });
        if wrong {
            disagree.push((dim, n));
        }
        table.row(&[
            dim.to_string(),
            n.to_string(),
            ms(build_t),
            ms(join_t),
            format!("{:.1}", join_t.as_secs_f64() * 1e6 / probes as f64),
            evals.to_string(),
            hits.to_string(),
            format!("{:.0}", probes as f64 * model.probe_cost(n, dim)),
        ]);
    }
}

fn main() {
    let sizes = [1_000usize, 2_000, 4_000, 8_000, 16_000, 32_000, 64_000];
    let probes = 2_000usize;
    println!("Fig. 7 | {probes} probe points per configuration");

    let mut table = Table::new(
        "Fig. 7 — Ball-Tree join time vs indexed-relation size (low vs high dim)",
        &[
            "dim",
            "n indexed",
            "build ms",
            "join ms",
            "us/probe",
            "dist evals",
            "matches",
            "model cost",
        ],
    );
    let mut disagree = Vec::new();
    // Low-dimensional: 3-d features (e.g. mean color).
    run_dim(3, 0.8, &sizes, probes, &mut table, &mut disagree);
    // High-dimensional: 64-d joint histograms.
    run_dim(64, 4.0, &sizes, probes, &mut table, &mut disagree);

    table.emit("fig7_balltree");
    println!(
        "\nPaper shape: execution time grows non-linearly with the indexed size and the \
         growth is steeper in high dimension; the cost-model column shows the optimizer's \
         non-linear estimate tracking the measured distance evaluations."
    );
    // The table above is the diagnostic; a disagreeing size is a wrong
    // answer, so the harness (and `run_all` over it) must not exit 0.
    if !disagree.is_empty() {
        eprintln!("fig7_balltree: the tree and brute force disagree at (dim, size) {disagree:?}");
        std::process::exit(1);
    }
}
