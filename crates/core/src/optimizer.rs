//! Cost-based plan selection (§7.4).
//!
//! Two optimizer components, for the first two subsections of the paper's
//! "Subtleties in Query Optimization":
//!
//! * [`CostModel`] — non-linear similarity-join cost estimation (§7.4.1):
//!   Ball-Tree probe cost grows super-linearly with the indexed relation's
//!   size, with a dimension-dependent exponent, so the optimizer must pick
//!   which side to index rather than apply a linear rule.
//! * [`DevicePlanner`] — the bridge from cost units to wall-clock on the
//!   worker count a plan runs with: what the server admits a request on.
//!
//! Neither the device placement of §7.4.2 (Fig. 8) nor the plan-order
//! accuracy composition of §7.4.3 (Table 1) is part of the engine: nothing
//! the server runs offloads to a GPU or enumerates plan orders, so both live
//! with their harnesses in `deeplens_bench::repro`.

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
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            dist_eval_cost: 1.0,
            build_factor: 1.5,
            scan_row_cost: 0.2,
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

    /// Estimated total cost of a **batched** index join: `k` compatible
    /// queries share one Ball-Tree over `n_idx` and one probe pass of
    /// `n_probe` at the batch's outer radius; each additional member costs
    /// only the demultiplex residual ([`BATCH_RESIDUAL_FRACTION`] of a probe
    /// pass) instead of a full build + probe of its own. `k == 0` costs
    /// nothing.
    ///
    /// `persisted_delta` says where the tree comes from. `None`: it is built
    /// on the fly, and a batch of one degenerates to
    /// [`CostModel::index_join_cost`]. `Some(delta_rows)`: a persisted,
    /// delta-maintained index is probed — no build, but every probe also
    /// scans its `delta_rows` exactly (the per-probe term of
    /// [`CostModel::incremental_index_cost`]).
    pub fn batched_index_join_cost(
        &self,
        n_idx: usize,
        n_probe: usize,
        dim: usize,
        k: usize,
        persisted_delta: Option<usize>,
    ) -> f64 {
        if k == 0 {
            return 0.0;
        }
        let (build, delta_rows) = match persisted_delta {
            None => (self.build_cost(n_idx, dim), 0),
            Some(delta_rows) => (0.0, delta_rows),
        };
        let per_probe = self.probe_cost(n_idx, dim)
            + delta_rows as f64 * self.dist_eval_cost * dim as f64 / 8.0;
        let probe_pass = n_probe as f64 * per_probe;
        build + probe_pass + (k - 1) as f64 * BATCH_RESIDUAL_FRACTION * probe_pass
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

/// Wall-clock pricing of a kernel on the host's workers.
///
/// A kernel with `cpu_estimate_us` of vectorized single-core work runs on
/// one worker in exactly that time; on `n > 1` workers it scales
/// near-linearly (at [`DevicePlanner::parallel_efficiency`]) and pays a
/// small per-thread orchestration cost
/// ([`DevicePlanner::spawn_overhead_us`]).
#[derive(Debug, Clone, Copy)]
pub struct DevicePlanner {
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
    /// * `units_per_us` — timed off the vectorized distance kernel at one
    ///   worker ([`deeplens_exec::kernels::distances_sharded`]): the [`CostModel`]'s
    ///   cost unit is one dim-8 distance evaluation, so evaluations/µs *is*
    ///   the bridge constant.
    /// * `spawn_overhead_us` — the measured per-thread cost of spawning and
    ///   joining a scoped [`deeplens_exec::WorkerPool`] morsel pass over a
    ///   trivial kernel.
    ///
    /// In the library's own test builds the microbenchmark is skipped and
    /// the defaults are returned unchanged — calibration noise must not make
    /// pricing tests host-dependent.
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
    /// vectorized single-core work (the distance kernel at one worker)
    /// covers on this host.
    /// `None` if the measurement degenerates (zero elapsed on a coarse clock).
    fn measure_units_per_us() -> Option<f64> {
        use deeplens_exec::kernels::distances_sharded;
        use std::time::Instant;
        const DIM: usize = 8;
        const ROWS: usize = 2_048;
        const REPS: usize = 8;
        let data: Vec<f32> = (0..ROWS * DIM).map(|i| (i % 97) as f32 * 0.1).collect();
        let matrix = deeplens_exec::Matrix::from_vec(ROWS, DIM, data);
        let query = [0.5f32; DIM];
        let pass = || distances_sharded(&matrix, &query, 1);
        // Warm caches, then take the best of REPS passes: calibration wants
        // the machine's attainable rate, not its scheduling jitter.
        std::hint::black_box(pass());
        let mut best_us = f64::INFINITY;
        for _ in 0..REPS {
            let t0 = Instant::now();
            std::hint::black_box(pass());
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

    /// Estimated wall-clock (µs) of running a kernel with `cpu_estimate_us`
    /// of *vectorized single-core* work on `workers` workers.
    pub fn estimate_us(&self, workers: usize, cpu_estimate_us: f64) -> f64 {
        if workers <= 1 {
            return cpu_estimate_us;
        }
        let workers = workers as f64;
        cpu_estimate_us / (workers * self.parallel_efficiency) + self.spawn_overhead_us * workers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn one_worker_prices_the_estimate_and_more_pay_their_spawns() {
        let planner = DevicePlanner::default();
        assert_eq!(planner.estimate_us(1, 500.0), 500.0);
        // Four workers at 85% divide the work by 3.4 and spawn for 120 µs.
        let four = planner.estimate_us(4, 100_000.0);
        assert!((four - (100_000.0 / 3.4 + 120.0)).abs() < 1e-6, "{four}");
    }

    #[test]
    fn batched_cost_degenerates_and_grows_sublinearly() {
        let m = CostModel::default();
        assert_eq!(m.batched_index_join_cost(2_000, 50_000, 12, 0, None), 0.0);
        assert!(
            (m.batched_index_join_cost(2_000, 50_000, 12, 1, None)
                - m.index_join_cost(2_000, 50_000, 12))
            .abs()
                < 1e-9,
            "a batch of one is just the query"
        );
        // Each extra member adds only the demux residual: far cheaper than
        // another full build + probe, but never free.
        let c1 = m.batched_index_join_cost(2_000, 50_000, 12, 1, None);
        let c4 = m.batched_index_join_cost(2_000, 50_000, 12, 4, None);
        let c8 = m.batched_index_join_cost(2_000, 50_000, 12, 8, None);
        assert!(c4 > c1 && c8 > c4, "members are not free");
        assert!(
            c4 < 4.0 * c1 * 0.5,
            "4 members must cost well under 4 serial joins"
        );
        assert!(c8 < 8.0 * c1 * 0.5);
    }

    #[test]
    fn persisted_index_join_pays_no_build_but_its_delta_per_probe() {
        let m = CostModel::default();
        // The served join's shape: 64 probes against a 20 000-row, 8-d
        // gallery. Probing the gallery's persisted index (~513k units)
        // undercuts an on-the-fly tree over the 64 probes (~633k).
        let indexed = m.batched_index_join_cost(20_000, 64, 8, 1, Some(0));
        let on_the_fly = m.batched_index_join_cost(64, 20_000, 8, 1, None);
        assert_eq!(indexed, 64.0 * m.probe_cost(20_000, 8));
        assert!((512_000.0..514_000.0).contains(&indexed), "{indexed}");
        assert!((632_000.0..634_000.0).contains(&on_the_fly), "{on_the_fly}");
        // The delta tax: one dim/8 evaluation per delta row per probe.
        let taxed = m.batched_index_join_cost(20_000, 64, 8, 1, Some(400));
        assert!((taxed - indexed - 64.0 * 400.0).abs() < 1e-6);
        // Against the same tree built on the fly, persistence saves the
        // build and nothing else.
        let saved = m.batched_index_join_cost(20_000, 64, 8, 3, None)
            - m.batched_index_join_cost(20_000, 64, 8, 3, Some(0));
        assert!((saved - m.build_cost(20_000, 8)).abs() < 1e-6);
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
        // point skips, which keeps pricing tests host-independent.
        assert_eq!(format!("{:?}", DevicePlanner::calibrated()), defaults);
    }
}
