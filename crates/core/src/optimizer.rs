//! Cost-based and accuracy-aware plan selection (§7.4).
//!
//! Three optimizer components, one per subsection of the paper's
//! "Subtleties in Query Optimization":
//!
//! * [`CostModel`] — non-linear similarity-join cost estimation (§7.4.1):
//!   Ball-Tree probe cost grows super-linearly with the indexed relation's
//!   size, with a dimension-dependent exponent, so the optimizer must pick
//!   which side to index rather than apply a linear rule.
//! * [`DevicePlanner`] — CPU/GPU placement (§7.4.2): offload only when the
//!   estimated compute saving exceeds the launch + transfer overhead.
//! * [`AccuracyProfile`] — plan-order accuracy composition (§7.4.3):
//!   filter-then-match and match-then-filter have different recall/precision
//!   profiles, so the optimizer exposes both a cost-optimal and an
//!   accuracy-optimal ordering instead of always pushing filters down.

use deeplens_exec::{Device, GpuProfile};

/// Cost model for similarity joins over multidimensional features.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Cost units per distance evaluation.
    pub dist_eval_cost: f64,
    /// Build cost multiplier for Ball-Tree construction (per n·log n).
    pub build_factor: f64,
    /// Cost units per row a collection scan touches (predicate evaluation
    /// over already-decoded metadata).
    pub scan_row_cost: f64,
    /// Cost units per chunk a columnar scan *probes*: the zone-map lookup
    /// plus the per-chunk decode setup. This is the fixed overhead the
    /// chunked layout pays even for chunks it then skips.
    pub chunk_probe_cost: f64,
    /// Cost units to move one full `Patch` row between the row and columnar
    /// layouts: every column decoded (or encoded), strings and vectors
    /// allocated, metadata map rebuilt. An order of magnitude above
    /// [`CostModel::scan_row_cost`] (touching an already-decoded row).
    pub materialize_row_cost: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            dist_eval_cost: 1.0,
            build_factor: 1.5,
            scan_row_cost: 0.2,
            chunk_probe_cost: 4.0,
            materialize_row_cost: 2.0,
        }
    }
}

impl CostModel {
    /// Dimension penalty: the fraction of the tree a range query visits
    /// grows with dimension (curse of dimensionality). At `dim <= 3` pruning
    /// is near-ideal; by `dim ≈ 100` queries degenerate toward linear scans.
    fn dim_penalty(dim: usize) -> f64 {
        // Smooth interpolation between log-like and linear behaviour.
        let d = dim as f64;
        (d / (d + 12.0)).clamp(0.05, 0.98)
    }

    /// Estimated cost of one Ball-Tree range probe against an index of
    /// `n` points in `dim` dimensions. Non-linear in `n`: a blend of
    /// logarithmic descent and a dimension-scaled linear component — the
    /// shape Fig. 7 measures.
    pub fn probe_cost(&self, n: usize, dim: usize) -> f64 {
        if n == 0 {
            return 0.0;
        }
        let nf = n as f64;
        // Per-distance-evaluation cost scales with dimension (dim/8 matches
        // the nested-loop unit); the evaluation count blends a logarithmic
        // descent with a dimension-penalized linear leaf component, capped
        // by the full scan a degenerate tree would perform.
        let evals = (nf.log2().max(1.0) + Self::dim_penalty(dim) * nf).min(nf);
        self.dist_eval_cost * evals * dim as f64 / 8.0
    }

    /// Estimated Ball-Tree build cost over `n` points in `dim` dimensions.
    pub fn build_cost(&self, n: usize, dim: usize) -> f64 {
        if n == 0 {
            return 0.0;
        }
        let nf = n as f64;
        self.build_factor * nf * nf.log2().max(1.0) * dim as f64 / 8.0
    }

    /// Estimated cost of an all-pairs nested-loop join.
    pub fn nested_loop_cost(&self, n_left: usize, n_right: usize, dim: usize) -> f64 {
        self.dist_eval_cost * n_left as f64 * n_right as f64 * dim as f64 / 8.0
    }

    /// Estimated total cost of an on-the-fly index join that indexes `n_idx`
    /// and probes with `n_probe`.
    pub fn index_join_cost(&self, n_idx: usize, n_probe: usize, dim: usize) -> f64 {
        self.build_cost(n_idx, dim) + n_probe as f64 * self.probe_cost(n_idx, dim)
    }

    /// Estimated total cost of a **batched** on-the-fly index join: `k`
    /// compatible queries share one Ball-Tree build over `n_idx` and one
    /// probe pass of `n_probe` at the batch's outer radius; each additional
    /// member costs only the demultiplex residual
    /// ([`BATCH_RESIDUAL_FRACTION`] of a probe pass) instead of a full
    /// build + probe of its own. `k == 0` costs nothing; `k == 1`
    /// degenerates to [`CostModel::index_join_cost`].
    pub fn batched_index_join_cost(
        &self,
        n_idx: usize,
        n_probe: usize,
        dim: usize,
        k: usize,
    ) -> f64 {
        if k == 0 {
            return 0.0;
        }
        let probe_pass = n_probe as f64 * self.probe_cost(n_idx, dim);
        self.build_cost(n_idx, dim)
            + probe_pass
            + (k - 1) as f64 * BATCH_RESIDUAL_FRACTION * probe_pass
    }

    /// Estimated cost of a row-layout scan over `rows` patches: every row
    /// is touched regardless of the filter's selectivity.
    pub fn row_scan_cost(&self, rows: usize) -> f64 {
        rows as f64 * self.scan_row_cost
    }

    /// Estimated cost of a chunked-columnar scan over `rows` patches at
    /// `chunk_rows` rows per chunk, where the zone maps skip `skip_rate`
    /// of the chunks (0 = none skipped, 1 = all skipped). Every chunk pays
    /// the probe cost; only surviving chunks pay the per-row decode —
    /// which is why a selective scan over a sorted column undercuts
    /// [`CostModel::row_scan_cost`] while an unselective one runs slightly
    /// above it (the zone maps aren't free).
    pub fn columnar_scan_cost(&self, rows: usize, chunk_rows: usize, skip_rate: f64) -> f64 {
        if rows == 0 {
            return 0.0;
        }
        let chunk_rows = chunk_rows.max(1);
        let chunks = rows.div_ceil(chunk_rows) as f64;
        let surviving = chunks * (1.0 - skip_rate.clamp(0.0, 1.0));
        chunks * self.chunk_probe_cost + surviving * chunk_rows as f64 * self.scan_row_cost
    }

    /// Estimated cost of discarding a maintained Ball index and rebuilding
    /// it from scratch over the collection's current `n` rows — the
    /// alternative [`CostModel::incremental_index_cost`] is priced against.
    pub fn rebuild_cost(&self, n: usize, dim: usize) -> f64 {
        self.build_cost(n, dim)
    }

    /// Estimated cost of *keeping* a delta-maintained Ball index whose side
    /// structures cover `delta_rows` rows (tombstones + delta buffer) of an
    /// `n`-row collection: every one of the next ~[`DELTA_PROBE_HORIZON`]
    /// probes pays an exact distance evaluation per delta row on top of the
    /// base-tree descent, plus a once-off bookkeeping term for maintaining
    /// the side structures.
    ///
    /// Crossing [`CostModel::rebuild_cost`] is the merge trigger: with the
    /// default constants the break-even delta fraction is
    /// `build_factor * log2(n) / DELTA_PROBE_HORIZON` — roughly 15% at a
    /// thousand rows and 39% at a hundred thousand — so a ≤10% write
    /// trickle always stays on the incremental side.
    pub fn incremental_index_cost(&self, n: usize, delta_rows: usize, dim: usize) -> f64 {
        let _ = n; // the cost of *keeping* the delta is independent of n
        let d = delta_rows as f64;
        d * self.scan_row_cost + DELTA_PROBE_HORIZON * d * self.dist_eval_cost * dim as f64 / 8.0
    }

    /// Whether a freshly materialized collection of `rows` rows should get
    /// a chunked-columnar backing built eagerly, without waiting for an
    /// explicit `build_columnar` call: `true` when the zone-map scan win
    /// ([`CostModel::row_scan_cost`] minus [`CostModel::columnar_scan_cost`]
    /// at a nominal [`NOMINAL_ZONE_SKIP`] skip rate), amortized over
    /// [`COLUMNAR_AMORTIZE_SCANS`] scans, pays for encoding the columns
    /// (one [`CostModel::materialize_row_cost`] per row). Collections under
    /// [`COLUMNAR_AUTOBUILD_MIN_CHUNKS`] chunks never qualify — with
    /// nothing to skip, zone maps are pure overhead.
    pub fn prefer_columnar_backing(&self, rows: usize, chunk_rows: usize) -> bool {
        let chunk_rows = chunk_rows.max(1);
        if rows < COLUMNAR_AUTOBUILD_MIN_CHUNKS * chunk_rows {
            return false;
        }
        let win =
            self.row_scan_cost(rows) - self.columnar_scan_cost(rows, chunk_rows, NOMINAL_ZONE_SKIP);
        win * COLUMNAR_AMORTIZE_SCANS >= rows as f64 * self.materialize_row_cost
    }
}

/// Fraction of a full probe pass each additional member of a batched join
/// costs: candidates surfaced by the shared outer-radius pass are
/// demultiplexed against the member's own threshold and predicate (a
/// per-candidate comparison) instead of re-descending the tree per query.
pub const BATCH_RESIDUAL_FRACTION: f64 = 0.15;

/// Probes a maintained index is expected to serve between merge
/// opportunities (re-materializes): each pays an exact scan of the delta
/// buffer, so a larger horizon makes the model merge sooner.
pub const DELTA_PROBE_HORIZON: f64 = 64.0;

/// Scans an eagerly built columnar backing is amortized over when deciding
/// whether a fresh materialize should build one unprompted.
pub const COLUMNAR_AMORTIZE_SCANS: f64 = 16.0;

/// Nominal zone-map skip rate assumed for the auto-build decision: the
/// fraction of chunks a *selective* scan prunes (the workload the backing
/// exists for).
pub const NOMINAL_ZONE_SKIP: f64 = 0.9;

/// Minimum chunk count before an eager columnar build can pay off: below
/// this, zone maps have nothing to skip. At the default chunk granularity
/// this puts the auto-build floor at 4096 rows.
pub const COLUMNAR_AUTOBUILD_MIN_CHUNKS: usize = 4;

/// Device placement advisor over all four backends: scalar CPU, vectorized
/// CPU, multi-core parallel CPU, and GPU offload.
///
/// Placement follows the paper's §7.4.2 rule generalized to a device
/// lattice: each backend has a throughput model and a fixed per-kernel
/// overhead, and the planner picks the backend with the smallest estimated
/// wall-clock. The parallel CPU sits between one vectorized core and the
/// GPU: near-linear compute scaling across `cpu_threads` workers, a small
/// per-kernel thread-orchestration cost, and no transfer cost at all.
#[derive(Debug, Clone, Copy)]
pub struct DevicePlanner {
    /// The GPU's overhead profile.
    pub gpu: GpuProfile,
    /// Estimated GPU throughput advantage over single-core vectorized code.
    pub speedup: f64,
    /// Vectorized (AVX) throughput advantage over scalar code.
    pub vector_speedup: f64,
    /// Worker threads the parallel-CPU backend would use.
    pub cpu_threads: usize,
    /// Fraction of ideal scaling the morsel pool achieves (memory bandwidth
    /// and merge costs eat the rest).
    pub parallel_efficiency: f64,
    /// Fixed per-kernel cost of spawning and joining the scoped workers, in
    /// microseconds per thread.
    pub spawn_overhead_us: f64,
    /// [`CostModel`] cost units one microsecond of vectorized single-core
    /// work covers (the bridge between the abstract join cost model and the
    /// planner's wall-clock estimates).
    pub units_per_us: f64,
}

impl Default for DevicePlanner {
    fn default() -> Self {
        DevicePlanner {
            gpu: GpuProfile::default(),
            speedup: 8.0,
            vector_speedup: 4.0,
            // Auto-detected hardware threads, honoring DEEPLENS_THREADS.
            cpu_threads: deeplens_exec::configured_threads(),
            parallel_efficiency: 0.85,
            spawn_overhead_us: 30.0,
            units_per_us: 100.0,
        }
    }
}

impl DevicePlanner {
    /// A planner whose `units_per_us` and `spawn_overhead_us` were measured
    /// on the running host by a slim startup microbenchmark (a few
    /// milliseconds) instead of assuming the hardcoded defaults.
    ///
    /// * `units_per_us` — timed off the distance kernel exactly as
    ///   [`Device::Avx`] runs it (the sharded kernel at one worker, see
    ///   [`deeplens_exec::kernels::distances_sharded`]): the [`CostModel`]'s
    ///   cost unit is one dim-8 distance evaluation, so evaluations/µs *is*
    ///   the bridge constant.
    /// * `spawn_overhead_us` — the measured per-thread cost of spawning and
    ///   joining a scoped [`deeplens_exec::WorkerPool`] morsel pass over a
    ///   trivial kernel.
    ///
    /// In the library's own test builds the microbenchmark is skipped and
    /// the defaults are returned unchanged — calibration noise must not make
    /// placement tests host-dependent.
    pub fn calibrated() -> Self {
        Self::calibrated_inner(cfg!(test))
    }

    fn calibrated_inner(skip: bool) -> Self {
        let mut planner = Self::default();
        if skip {
            return planner;
        }
        if let Some(units) = Self::measure_units_per_us() {
            planner.units_per_us = units;
        }
        if let Some(spawn) = Self::measure_spawn_overhead_us() {
            planner.spawn_overhead_us = spawn;
        }
        planner
    }

    /// Cost-model units (dim-8 distance evaluations) one microsecond of
    /// vectorized single-core ([`Device::Avx`]) work covers on this host.
    /// `None` if the measurement degenerates (zero elapsed on a coarse clock).
    fn measure_units_per_us() -> Option<f64> {
        use std::time::Instant;
        const DIM: usize = 8;
        const ROWS: usize = 2_048;
        const REPS: usize = 8;
        let data: Vec<f32> = (0..ROWS * DIM).map(|i| (i % 97) as f32 * 0.1).collect();
        let matrix = deeplens_exec::Matrix::from_vec(ROWS, DIM, data);
        let query = [0.5f32; DIM];
        let avx = deeplens_exec::Executor::new(Device::Avx);
        // Warm caches, then take the best of REPS passes: calibration wants
        // the machine's attainable rate, not its scheduling jitter.
        std::hint::black_box(avx.distances(&matrix, &query));
        let mut best_us = f64::INFINITY;
        for _ in 0..REPS {
            let t0 = Instant::now();
            std::hint::black_box(avx.distances(&matrix, &query));
            best_us = best_us.min(t0.elapsed().as_secs_f64() * 1e6);
        }
        (best_us > 0.0).then(|| (ROWS as f64 / best_us).clamp(1.0, 1e6))
    }

    /// Measured per-thread spawn + join cost (µs) of one scoped morsel pass.
    fn measure_spawn_overhead_us() -> Option<f64> {
        use std::time::Instant;
        const THREADS: usize = 2;
        const REPS: usize = 16;
        let pool = deeplens_exec::WorkerPool::new(THREADS);
        let mut best_us = f64::INFINITY;
        for _ in 0..REPS {
            let t0 = Instant::now();
            // Two one-item morsels force a real scoped spawn (a single
            // morsel runs inline and would measure nothing).
            std::hint::black_box(pool.run_morsels(THREADS, 1, |r| r.len()));
            best_us = best_us.min(t0.elapsed().as_secs_f64() * 1e6);
        }
        (best_us > 0.0).then(|| (best_us / THREADS as f64).clamp(1.0, 500.0))
    }

    /// The candidate devices the planner ranks, cheapest-overhead first.
    pub fn candidates(&self) -> [Device; 4] {
        [
            Device::Cpu,
            Device::Avx,
            Device::ParallelCpu(self.cpu_threads.max(1)),
            Device::GpuSim,
        ]
    }

    /// Estimated wall-clock (µs) of running a kernel with `cpu_estimate_us`
    /// of *vectorized single-core* work moving `bytes` of data on `device`.
    pub fn estimate_us(&self, device: Device, cpu_estimate_us: f64, bytes: usize) -> f64 {
        match device {
            Device::Cpu => cpu_estimate_us * self.vector_speedup,
            Device::Avx => cpu_estimate_us,
            Device::ParallelCpu(threads) => {
                let threads = if threads == 0 {
                    self.cpu_threads
                } else {
                    threads
                } as f64;
                if threads <= 1.0 {
                    cpu_estimate_us
                } else {
                    cpu_estimate_us / (threads * self.parallel_efficiency)
                        + self.spawn_overhead_us * threads
                }
            }
            Device::GpuSim => {
                let overhead_us = self.gpu.offload_overhead(bytes).as_secs_f64() * 1e6;
                overhead_us + cpu_estimate_us / self.speedup
            }
        }
    }

    /// Choose a device for a kernel with `cpu_estimate_us` of single-core
    /// vectorized work moving `bytes` of data: the [`DevicePlanner::candidates`]
    /// entry with the smallest estimate, ties broken toward the
    /// lower-overhead device (candidates are ordered cheapest-overhead
    /// first).
    pub fn place(&self, cpu_estimate_us: f64, bytes: usize) -> Device {
        let mut best = Device::Cpu;
        let mut best_us = f64::INFINITY;
        for dev in self.candidates() {
            let us = self.estimate_us(dev, cpu_estimate_us, bytes);
            if us < best_us {
                best = dev;
                best_us = us;
            }
        }
        best
    }
}

/// Per-operator accuracy annotation: how an operator transforms the
/// (recall, precision) of the answer set flowing through it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyProfile {
    /// Fraction of true results the operator retains.
    pub recall: f64,
    /// Fraction of emitted results that are true.
    pub precision: f64,
}

impl AccuracyProfile {
    /// A perfect (exact) operator.
    pub fn exact() -> Self {
        AccuracyProfile {
            recall: 1.0,
            precision: 1.0,
        }
    }

    /// Compose with a downstream operator under an independence assumption:
    /// recalls multiply; precision is dominated by the last selective stage
    /// but degraded by upstream false positives surviving it.
    pub fn then(&self, next: &AccuracyProfile) -> AccuracyProfile {
        AccuracyProfile {
            recall: (self.recall * next.recall).clamp(0.0, 1.0),
            precision: (self.precision * next.precision).clamp(0.0, 1.0),
        }
    }

    /// F1 score of the composed profile.
    pub fn f1(&self) -> f64 {
        if self.recall + self.precision == 0.0 {
            0.0
        } else {
            2.0 * self.recall * self.precision / (self.recall + self.precision)
        }
    }
}

/// The two q4 plan orders of Table 1, with their estimated cost and
/// composed accuracy.
#[derive(Debug, Clone)]
pub struct PlanChoice {
    /// Human-readable operator order.
    pub order: &'static str,
    /// Estimated cost in model units.
    pub cost: f64,
    /// Composed accuracy estimate.
    pub accuracy: AccuracyProfile,
}

/// Enumerate the filter-pushdown alternatives for a
/// detect → filter → match pipeline (the paper's q4 study, §7.4.3).
///
/// * `n_total` — patches out of the detector;
/// * `filter_selectivity` — fraction surviving the label filter;
/// * `dim` — feature dimension of the matcher;
/// * `filter_acc` — the (noisy) label filter's own accuracy;
/// * `match_acc` — the matcher's own accuracy.
///
/// Filtering *before* matching is cheaper (the match input shrinks) but the
/// filter's recall errors remove patches the matcher could have clustered —
/// deduplication loses witnesses and recall drops. Matching first lets every
/// detection vote in the clustering; the filter then only has to be right
/// about whole clusters, modeled as one extra recall application at
/// cluster granularity (milder: square-root damping).
pub fn enumerate_filter_match_plans(
    n_total: usize,
    filter_selectivity: f64,
    dim: usize,
    filter_acc: AccuracyProfile,
    match_acc: AccuracyProfile,
) -> Vec<PlanChoice> {
    let model = CostModel::default();
    let n_filtered = (n_total as f64 * filter_selectivity).round() as usize;

    // Plan A: Patch, Filter, Match (classical pushdown).
    let cost_a = n_total as f64 // the filter scan
        + model.index_join_cost(n_filtered, n_filtered, dim);
    let acc_a = filter_acc.then(&match_acc);

    // Plan B: Patch, Match, Filter.
    let cost_b = model.index_join_cost(n_total, n_total, dim) + n_total as f64;
    // Matching over everything: the matcher's recall applies, and the filter
    // now operates on clusters, where a single surviving member keeps the
    // cluster alive — its effective recall penalty is damped.
    let cluster_filter = AccuracyProfile {
        recall: filter_acc.recall.sqrt(),
        precision: filter_acc.precision,
    };
    let acc_b = match_acc.then(&cluster_filter);

    vec![
        PlanChoice {
            order: "Patch, Filter, Match",
            cost: cost_a,
            accuracy: acc_a,
        },
        PlanChoice {
            order: "Patch, Match, Filter",
            cost: cost_b,
            accuracy: acc_b,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn probe_cost_nonlinear_in_n() {
        let m = CostModel::default();
        let c1 = m.probe_cost(1_000, 64);
        let c2 = m.probe_cost(2_000, 64);
        assert!(
            c2 > 1.9 * c1,
            "high-dim probe cost should be near-linear or worse"
        );
        // Low dimension is strongly sublinear.
        let l1 = m.probe_cost(1_000, 3);
        let l2 = m.probe_cost(2_000, 3);
        assert!(l2 < 2.2 * l1);
        assert!(l1 < c1, "low-dim probes are cheaper");
    }

    /// Planner fixture with deterministic (host-independent) CPU topology.
    fn planner_fixture() -> DevicePlanner {
        DevicePlanner {
            gpu: GpuProfile {
                launch_overhead: Duration::from_micros(500),
                bandwidth_gib_s: 8.0,
                workers: 8,
            },
            speedup: 8.0,
            vector_speedup: 4.0,
            cpu_threads: 4,
            parallel_efficiency: 0.85,
            spawn_overhead_us: 30.0,
            units_per_us: 100.0,
        }
    }

    #[test]
    fn device_planner_crossover() {
        let planner = planner_fixture();
        // Tiny kernel: stay on the single vectorized core.
        assert_eq!(planner.place(50.0, 1024), Device::Avx);
        // Huge kernel: offload (8x GPU speedup beats 4 threads at 85%).
        assert_eq!(planner.place(1_000_000.0, 1 << 20), Device::GpuSim);
    }

    #[test]
    fn device_planner_picks_parallel_cpu_in_the_middle() {
        let planner = planner_fixture();
        // Mid-size kernel: parallel CPU amortizes its spawn cost, while the
        // GPU's launch + transfer overhead still dominates its compute win.
        let placed = planner.place(2_000.0, 64 << 20);
        assert_eq!(placed, Device::ParallelCpu(4));
        // And the estimates are consistent with that pick.
        let par = planner.estimate_us(placed, 2_000.0, 64 << 20);
        assert!(par < planner.estimate_us(Device::Avx, 2_000.0, 64 << 20));
        assert!(par < planner.estimate_us(Device::GpuSim, 2_000.0, 64 << 20));
    }

    #[test]
    fn estimate_orders_scalar_above_vectorized() {
        let planner = planner_fixture();
        for work in [10.0, 1_000.0, 100_000.0] {
            assert!(
                planner.estimate_us(Device::Cpu, work, 0)
                    > planner.estimate_us(Device::Avx, work, 0)
            );
        }
    }

    #[test]
    fn single_threaded_parallel_degenerates_to_avx() {
        let planner = planner_fixture();
        assert_eq!(
            planner.estimate_us(Device::ParallelCpu(1), 500.0, 0),
            planner.estimate_us(Device::Avx, 500.0, 0)
        );
    }

    #[test]
    fn place_ranks_every_candidate() {
        // On SIMD-weak hardware (vector_speedup < 1) the scalar backend is
        // the planner's own minimum — place() must return it.
        let planner = DevicePlanner {
            vector_speedup: 0.8,
            ..planner_fixture()
        };
        assert_eq!(planner.place(50.0, 1024), Device::Cpu);
    }

    #[test]
    fn candidates_cover_the_lattice() {
        let c = planner_fixture().candidates();
        assert_eq!(c.len(), 4);
        assert!(matches!(c[2], Device::ParallelCpu(4)));
    }

    #[test]
    fn batched_cost_degenerates_and_grows_sublinearly() {
        let m = CostModel::default();
        assert_eq!(m.batched_index_join_cost(2_000, 50_000, 12, 0), 0.0);
        assert!(
            (m.batched_index_join_cost(2_000, 50_000, 12, 1)
                - m.index_join_cost(2_000, 50_000, 12))
            .abs()
                < 1e-9,
            "a batch of one is just the query"
        );
        // Each extra member adds only the demux residual: far cheaper than
        // another full build + probe, but never free.
        let c1 = m.batched_index_join_cost(2_000, 50_000, 12, 1);
        let c4 = m.batched_index_join_cost(2_000, 50_000, 12, 4);
        let c8 = m.batched_index_join_cost(2_000, 50_000, 12, 8);
        assert!(c4 > c1 && c8 > c4, "members are not free");
        assert!(
            c4 < 4.0 * c1 * 0.5,
            "4 members must cost well under 4 serial joins"
        );
        assert!(c8 < 8.0 * c1 * 0.5);
    }

    #[test]
    fn calibration_skips_in_test_builds_and_measures_otherwise() {
        // The skip path is exactly the defaults, field for field.
        let defaults = format!("{:?}", DevicePlanner::default());
        assert_eq!(
            format!("{:?}", DevicePlanner::calibrated_inner(true)),
            defaults
        );
        // The measuring path stays inside the sanity clamps.
        let measured = DevicePlanner::calibrated_inner(false);
        assert!(measured.units_per_us >= 1.0 && measured.units_per_us <= 1e6);
        assert!(measured.spawn_overhead_us >= 1.0 && measured.spawn_overhead_us <= 500.0);
        // `cfg!(test)` is the only condition under which the public entry
        // point skips, which keeps placement tests host-independent.
        assert_eq!(format!("{:?}", DevicePlanner::calibrated()), defaults);
    }

    #[test]
    fn columnar_scan_cost_rewards_selectivity() {
        let m = CostModel::default();
        assert_eq!(m.columnar_scan_cost(0, 1024, 0.5), 0.0);
        let rows = 100_000;
        let row = m.row_scan_cost(rows);
        // No chunks skipped: the columnar scan pays the zone-map probes on
        // top of touching every row — slightly worse than the row layout.
        let unselective = m.columnar_scan_cost(rows, 1024, 0.0);
        assert!(unselective > row);
        assert!(unselective < row * 1.2, "probe overhead stays small");
        // 99% of chunks skipped: an order of magnitude under the row scan.
        let selective = m.columnar_scan_cost(rows, 1024, 0.99);
        assert!(selective < row / 10.0, "{selective} vs {row}");
        // Monotone in skip rate; out-of-range rates clamp.
        assert!(m.columnar_scan_cost(rows, 1024, 0.5) < unselective);
        assert_eq!(
            m.columnar_scan_cost(rows, 1024, 2.0),
            m.columnar_scan_cost(rows, 1024, 1.0)
        );
        // Degenerate chunk size clamps to one row per chunk.
        assert!(m.columnar_scan_cost(10, 0, 0.0) > 0.0);
    }

    #[test]
    fn accuracy_composition() {
        let a = AccuracyProfile {
            recall: 0.9,
            precision: 0.95,
        };
        let b = AccuracyProfile {
            recall: 0.8,
            precision: 0.9,
        };
        let c = a.then(&b);
        assert!((c.recall - 0.72).abs() < 1e-9);
        assert!((c.precision - 0.855).abs() < 1e-9);
        assert!(c.f1() > 0.0 && c.f1() < 1.0);
        assert_eq!(AccuracyProfile::exact().then(&a), a);
    }

    #[test]
    fn table1_shape_filter_pushdown_hurts_recall() {
        // The Table 1 phenomenon: pushdown is faster but less accurate.
        let plans = enumerate_filter_match_plans(
            10_000,
            0.3,
            64,
            AccuracyProfile {
                recall: 0.85,
                precision: 0.97,
            },
            AccuracyProfile {
                recall: 0.9,
                precision: 0.99,
            },
        );
        let a = &plans[0]; // Filter, Match
        let b = &plans[1]; // Match, Filter
        assert!(a.cost < b.cost, "pushdown must be cheaper");
        assert!(
            b.accuracy.recall > a.accuracy.recall,
            "match-first must have higher recall ({} vs {})",
            b.accuracy.recall,
            a.accuracy.recall
        );
        assert!(b.accuracy.precision >= a.accuracy.precision * 0.95);
    }
}
