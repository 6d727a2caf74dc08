//! The devices of Fig. 8: the engine's CPU and AVX, and a simulated GPU.
//!
//! The paper's §7.4.2 / Fig. 8 measures a crossover: offload overhead
//! (kernel launch + PCIe transfer) makes a GPU lose on small query-time
//! joins and win on large ones and on inference-heavy ETL. The reproduction
//! needs no GPU: [`GpuProfile`] simulates one. Its compute runs as the
//! engine's [`Device::ParallelCpu`] over [`GpuProfile::workers`] threads,
//! and every kernel launch first busy-waits the modelled overhead
//! ([`GpuProfile::pay_overhead`]). The crossover — the only thing the
//! figure depends on — holds by construction.
//!
//! [`Backend::fig8`] is the figure's device set, [`PlacementPlanner`] its
//! §7.4.2 placement rule, and [`feature_matrix`] stacks a relation for the
//! all-pairs kernel.

use std::time::Duration;

use deeplens_core::optimizer::DevicePlanner;
use deeplens_core::patch::Patch;
use deeplens_core::DlError;
use deeplens_exec::{configured_threads, Device, Executor, Matrix};

/// Overhead model of the simulated GPU.
///
/// Every kernel launch pays [`GpuProfile::launch_overhead`] once, plus
/// transfer time for all input/output bytes at
/// [`GpuProfile::bandwidth_gib_s`]. Compute itself runs on
/// [`GpuProfile::workers`] threads. These three parameters reproduce the
/// crossover in the paper's Fig. 8: small workloads lose to the overhead,
/// large workloads amortize it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuProfile {
    /// Fixed cost per kernel launch.
    pub launch_overhead: Duration,
    /// Host↔device transfer bandwidth in GiB/s.
    pub bandwidth_gib_s: f64,
    /// Data-parallel worker threads ("SM occupancy").
    pub workers: usize,
}

impl Default for GpuProfile {
    fn default() -> Self {
        GpuProfile {
            launch_overhead: Duration::from_micros(250),
            bandwidth_gib_s: 8.0,
            workers: configured_threads(),
        }
    }
}

impl GpuProfile {
    /// Time to move `bytes` across the simulated PCIe link.
    pub fn transfer_time(&self, bytes: usize) -> Duration {
        let secs = bytes as f64 / (self.bandwidth_gib_s * 1024.0 * 1024.0 * 1024.0);
        Duration::from_secs_f64(secs)
    }

    /// Total offload overhead for a kernel moving `bytes` in + out.
    pub fn offload_overhead(&self, bytes: usize) -> Duration {
        self.launch_overhead + self.transfer_time(bytes)
    }

    /// Busy-wait for the overhead duration. Sleeping is too coarse for
    /// sub-millisecond overheads on most schedulers, so we spin — the point
    /// is that wall-clock measurements include the cost.
    pub fn pay_overhead(&self, bytes: usize) {
        let d = self.offload_overhead(bytes);
        let start = std::time::Instant::now();
        while start.elapsed() < d {
            std::hint::spin_loop();
        }
    }
}

/// Where Fig. 8 runs a kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Backend {
    /// One of the engine's devices, run exactly as the engine runs it.
    Host(Device),
    /// The simulated GPU: [`Device::ParallelCpu`] over the profile's
    /// workers, behind its launch + transfer overhead.
    Gpu(GpuProfile),
}

impl Backend {
    /// The paper's three devices, in the order its Fig. 8 reports them.
    pub fn fig8() -> [Backend; 3] {
        [
            Backend::Host(Device::Cpu),
            Backend::Host(Device::Avx),
            Backend::Gpu(GpuProfile::default()),
        ]
    }

    /// Label used by the harness tables.
    pub fn label(&self) -> &'static str {
        match self {
            Backend::Host(Device::Cpu) => "CPU",
            Backend::Host(Device::Avx) => "AVX",
            Backend::Host(Device::ParallelCpu(_)) => "PAR",
            Backend::Gpu(_) => "GPU",
        }
    }

    /// The engine device the compute runs on.
    pub fn device(&self) -> Device {
        match self {
            Backend::Host(device) => *device,
            Backend::Gpu(gpu) => Device::ParallelCpu(gpu.workers),
        }
    }

    /// Pay the launch + transfer of a kernel moving `bytes`: the GPU spins
    /// for its overhead, a host device pays nothing.
    pub fn offload(&self, bytes: usize) {
        if let Backend::Gpu(gpu) = self {
            gpu.pay_overhead(bytes);
        }
    }

    /// [`Executor::threshold_join`] on this backend. The GPU pays its
    /// overhead **once per call**, whatever `taus.len()` — the amortization
    /// that makes offloaded batches win where single queries lose.
    pub fn threshold_join(&self, a: &Matrix, b: &Matrix, taus: &[f32]) -> Vec<Vec<(u32, u32)>> {
        self.offload(a.byte_size() + b.byte_size());
        Executor::new(self.device()).threshold_join(a, b, taus)
    }
}

/// Device placement over all four backends: scalar CPU, vectorized CPU,
/// multi-core parallel CPU, and GPU offload.
///
/// Placement follows the paper's §7.4.2 rule generalized to a device
/// lattice: each backend has a throughput model and a fixed per-kernel
/// overhead, and the planner picks the backend with the smallest estimated
/// wall-clock. The parallel CPU sits between one vectorized core and the
/// GPU: near-linear compute scaling across `cpu_threads` workers, a small
/// per-kernel thread-orchestration cost, and no transfer cost at all.
#[derive(Debug, Clone, Copy)]
pub struct PlacementPlanner {
    /// The engine's pricing of host workers.
    pub host: DevicePlanner,
    /// The GPU's overhead profile.
    pub gpu: GpuProfile,
    /// Estimated GPU throughput advantage over single-core vectorized code.
    pub speedup: f64,
    /// Vectorized (AVX) throughput advantage over scalar code.
    pub vector_speedup: f64,
    /// Worker threads the parallel-CPU backend would use.
    pub cpu_threads: usize,
}

impl Default for PlacementPlanner {
    fn default() -> Self {
        PlacementPlanner {
            host: DevicePlanner::default(),
            gpu: GpuProfile::default(),
            speedup: 8.0,
            vector_speedup: 4.0,
            // Auto-detected hardware threads, honoring DEEPLENS_THREADS.
            cpu_threads: configured_threads(),
        }
    }
}

impl PlacementPlanner {
    /// The candidate backends the planner ranks, cheapest-overhead first.
    pub fn candidates(&self) -> [Backend; 4] {
        [
            Backend::Host(Device::Cpu),
            Backend::Host(Device::Avx),
            Backend::Host(Device::ParallelCpu(self.cpu_threads.max(1))),
            Backend::Gpu(self.gpu),
        ]
    }

    /// Estimated wall-clock (µs) of running a kernel with `cpu_estimate_us`
    /// of *vectorized single-core* work moving `bytes` of data on `backend`.
    pub fn estimate_us(&self, backend: &Backend, cpu_estimate_us: f64, bytes: usize) -> f64 {
        match *backend {
            Backend::Host(Device::Cpu) => cpu_estimate_us * self.vector_speedup,
            Backend::Host(device) => self
                .host
                .estimate_us(device.resolved_threads(), cpu_estimate_us),
            Backend::Gpu(gpu) => {
                let overhead_us = gpu.offload_overhead(bytes).as_secs_f64() * 1e6;
                overhead_us + cpu_estimate_us / self.speedup
            }
        }
    }

    /// Choose a backend for a kernel with `cpu_estimate_us` of single-core
    /// vectorized work moving `bytes` of data: the
    /// [`PlacementPlanner::candidates`] entry with the smallest estimate,
    /// ties broken toward the lower-overhead backend (candidates are ordered
    /// cheapest-overhead first).
    pub fn place(&self, cpu_estimate_us: f64, bytes: usize) -> Backend {
        let mut best = Backend::Host(Device::Cpu);
        let mut best_us = f64::INFINITY;
        for backend in self.candidates() {
            let us = self.estimate_us(&backend, cpu_estimate_us, bytes);
            if us < best_us {
                best = backend;
                best_us = us;
            }
        }
        best
    }
}

/// Stack the feature vectors of a patch collection into a matrix.
///
/// Errors if any patch is not featurized or dimensions disagree.
pub fn feature_matrix(patches: &[Patch]) -> Result<Matrix, DlError> {
    let dim = patches
        .first()
        .and_then(|p| p.data.features())
        .map(|f| f.len())
        .unwrap_or(0);
    let mut flat = Vec::with_capacity(patches.len() * dim);
    for (i, p) in patches.iter().enumerate() {
        let f = p.data.features().ok_or_else(|| {
            DlError::SchemaMismatch(format!("patch {i} has no features for similarity join"))
        })?;
        if f.len() != dim {
            return Err(DlError::SchemaMismatch(format!(
                "patch {i} has dimension {} but expected {dim}",
                f.len()
            )));
        }
        flat.extend_from_slice(f);
    }
    Ok(Matrix::from_vec(patches.len(), dim, flat))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    use deeplens_core::patch::{ImgRef, PatchId};

    fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f32 / (1u64 << 31) as f32 * 10.0
        };
        Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| next()).collect())
    }

    fn gpu(launch_overhead: Duration, workers: usize) -> Backend {
        Backend::Gpu(GpuProfile {
            launch_overhead,
            bandwidth_gib_s: 8.0,
            workers,
        })
    }

    #[test]
    fn labels_and_order() {
        assert_eq!(Backend::fig8().map(|b| b.label()), ["CPU", "AVX", "GPU"]);
        assert_eq!(Backend::Host(Device::ParallelCpu(0)).label(), "PAR");
    }

    #[test]
    fn transfer_time_scales_linearly() {
        let p = GpuProfile {
            bandwidth_gib_s: 1.0,
            ..Default::default()
        };
        let t1 = p.transfer_time(1024 * 1024 * 1024);
        assert!((t1.as_secs_f64() - 1.0).abs() < 1e-9);
        let t2 = p.transfer_time(2 * 1024 * 1024 * 1024);
        assert!((t2.as_secs_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn overhead_includes_launch() {
        let p = GpuProfile {
            launch_overhead: Duration::from_micros(100),
            bandwidth_gib_s: 8.0,
            workers: 2,
        };
        assert!(p.offload_overhead(0) >= Duration::from_micros(100));
    }

    #[test]
    fn pay_overhead_takes_wallclock_time() {
        let p = GpuProfile {
            launch_overhead: Duration::from_micros(500),
            bandwidth_gib_s: 8.0,
            workers: 2,
        };
        let start = Instant::now();
        p.pay_overhead(0);
        assert!(start.elapsed() >= Duration::from_micros(500));
    }

    #[test]
    fn gpu_answers_equal_the_cpu() {
        let a = mat(40, 12, 5);
        let b = mat(50, 12, 6);
        let taus = [2.0f32, 8.0, 5.0];
        let base = Backend::Host(Device::Cpu).threshold_join(&a, &b, &taus);
        assert!(!base[1].is_empty());
        for backend in Backend::fig8().into_iter().chain([gpu(Duration::ZERO, 3)]) {
            assert_eq!(backend.threshold_join(&a, &b, &taus), base, "{backend:?}");
        }
    }

    #[test]
    fn gpu_batch_pays_one_overhead_for_k_members() {
        // K queries batched through the simulated GPU pay the launch +
        // transfer cost once; issued one at a time they pay it K times.
        let gpu = gpu(Duration::from_millis(2), 2);
        let a = mat(16, 8, 3);
        let b = mat(16, 8, 4);
        let taus = [1.0f32, 2.0, 3.0, 4.0];

        let t0 = Instant::now();
        let batched = gpu.threshold_join(&a, &b, &taus);
        let batch_time = t0.elapsed();

        let t1 = Instant::now();
        let serial: Vec<_> = taus
            .iter()
            .map(|&t| gpu.threshold_join(&a, &b, &[t]).remove(0))
            .collect();
        let serial_time = t1.elapsed();

        assert_eq!(batched, serial);
        assert!(
            batch_time < serial_time,
            "batch must amortize the offload overhead ({batch_time:?} vs {serial_time:?})"
        );
        assert!(
            serial_time >= Duration::from_millis(8),
            "4 launches at 2ms each"
        );
    }

    #[test]
    fn gpu_pays_overhead_on_tiny_input() {
        let a = mat(2, 4, 1);
        let b = mat(2, 4, 2);
        let cpu = Backend::Host(Device::Cpu);
        let gpu = gpu(Duration::from_millis(2), 4);

        let t0 = Instant::now();
        let _ = cpu.threshold_join(&a, &b, &[1.0]);
        let cpu_time = t0.elapsed();

        let t1 = Instant::now();
        let _ = gpu.threshold_join(&a, &b, &[1.0]);
        let gpu_time = t1.elapsed();

        assert!(
            gpu_time > cpu_time && gpu_time >= Duration::from_millis(2),
            "tiny workload must be slower on the simulated GPU ({cpu_time:?} vs {gpu_time:?})"
        );
    }

    /// Planner fixture with deterministic (host-independent) CPU topology.
    fn planner_fixture() -> PlacementPlanner {
        PlacementPlanner {
            host: DevicePlanner {
                parallel_efficiency: 0.85,
                spawn_overhead_us: 30.0,
                units_per_us: 100.0,
            },
            gpu: GpuProfile {
                launch_overhead: Duration::from_micros(500),
                bandwidth_gib_s: 8.0,
                workers: 8,
            },
            speedup: 8.0,
            vector_speedup: 4.0,
            cpu_threads: 4,
        }
    }

    const AVX: Backend = Backend::Host(Device::Avx);

    #[test]
    fn device_planner_crossover() {
        let planner = planner_fixture();
        // Tiny kernel: stay on the single vectorized core.
        assert_eq!(planner.place(50.0, 1024), AVX);
        // Huge kernel: offload (8x GPU speedup beats 4 threads at 85%).
        assert_eq!(
            planner.place(1_000_000.0, 1 << 20),
            Backend::Gpu(planner.gpu)
        );
    }

    #[test]
    fn device_planner_picks_parallel_cpu_in_the_middle() {
        let planner = planner_fixture();
        // Mid-size kernel: parallel CPU amortizes its spawn cost, while the
        // GPU's launch + transfer overhead still dominates its compute win.
        let placed = planner.place(2_000.0, 64 << 20);
        assert_eq!(placed, Backend::Host(Device::ParallelCpu(4)));
        // And the estimates are consistent with that pick.
        let par = planner.estimate_us(&placed, 2_000.0, 64 << 20);
        assert!(par < planner.estimate_us(&AVX, 2_000.0, 64 << 20));
        let gpu = Backend::Gpu(planner.gpu);
        assert!(par < planner.estimate_us(&gpu, 2_000.0, 64 << 20));
    }

    #[test]
    fn estimate_orders_scalar_above_vectorized() {
        let planner = planner_fixture();
        for work in [10.0, 1_000.0, 100_000.0] {
            assert!(
                planner.estimate_us(&Backend::Host(Device::Cpu), work, 0)
                    > planner.estimate_us(&AVX, work, 0)
            );
        }
    }

    #[test]
    fn single_threaded_parallel_degenerates_to_avx() {
        let planner = planner_fixture();
        assert_eq!(
            planner.estimate_us(&Backend::Host(Device::ParallelCpu(1)), 500.0, 0),
            planner.estimate_us(&AVX, 500.0, 0)
        );
    }

    #[test]
    fn place_ranks_every_candidate() {
        // On SIMD-weak hardware (vector_speedup < 1) the scalar backend is
        // the planner's own minimum — place() must return it.
        let planner = PlacementPlanner {
            vector_speedup: 0.8,
            ..planner_fixture()
        };
        assert_eq!(planner.place(50.0, 1024), Backend::Host(Device::Cpu));
    }

    #[test]
    fn candidates_cover_the_lattice() {
        let c = planner_fixture().candidates();
        assert_eq!(c.len(), 4);
        assert_eq!(c[2], Backend::Host(Device::ParallelCpu(4)));
        assert_eq!(c[3].label(), "GPU");
    }

    fn feat_patch(id: u64, f: Vec<f32>) -> Patch {
        Patch::features(PatchId(id), ImgRef::frame("t", id), f)
    }

    #[test]
    fn feature_matrix_validates() {
        let ok = vec![feat_patch(1, vec![1.0, 2.0]), feat_patch(2, vec![3.0, 4.0])];
        assert_eq!(feature_matrix(&ok).unwrap().rows(), 2);
        let bad = vec![
            feat_patch(1, vec![1.0, 2.0]),
            Patch::empty(PatchId(2), ImgRef::frame("t", 2)),
        ];
        assert!(matches!(
            feature_matrix(&bad),
            Err(DlError::SchemaMismatch(_))
        ));
        let mismatched = vec![feat_patch(1, vec![1.0]), feat_patch(2, vec![1.0, 2.0])];
        assert!(feature_matrix(&mismatched).is_err());
    }
}
