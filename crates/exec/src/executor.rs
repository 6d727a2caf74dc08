//! Device-dispatching executor.
//!
//! An [`Executor`] binds a [`Device`] to concrete kernel implementations and
//! charges the simulated GPU its offload overhead on every kernel call —
//! which is exactly what makes small query-time workloads slower on the GPU
//! (paper §7.4.2) while large ETL workloads win big.

use crate::device::{Device, GpuProfile};
use crate::kernels;
use crate::matrix::Matrix;
use crate::pool::WorkerPool;

/// Executes DeepLens compute kernels on a chosen device.
#[derive(Debug, Clone)]
pub struct Executor {
    device: Device,
    gpu: GpuProfile,
}

impl Executor {
    /// Executor for `device` with the default GPU profile.
    pub fn new(device: Device) -> Self {
        Executor {
            device,
            gpu: GpuProfile::default(),
        }
    }

    /// The device this executor runs on.
    pub fn device(&self) -> Device {
        self.device
    }

    /// All-pairs Euclidean threshold join between two feature matrices: one
    /// distance pass over `a × b` serves every threshold in `taus`, returning
    /// one `(row_in_a, row_in_b)` vector per entry, row-major (the
    /// multi-query-optimization kernel behind `QueryBatch`; a single query
    /// passes one threshold).
    ///
    /// Every device returns the same pairs. On the simulated GPU the launch +
    /// transfer overhead is paid **once per call**, whatever `taus.len()` —
    /// exactly the amortization that makes offloaded batches win where single
    /// queries lose to the overhead (paper §7.4.2).
    pub fn threshold_join(&self, a: &Matrix, b: &Matrix, taus: &[f32]) -> Vec<Vec<(u32, u32)>> {
        match self.device {
            Device::Cpu => kernels::threshold_join_scalar(a, b, taus),
            Device::Avx | Device::ParallelCpu(_) => {
                kernels::threshold_join_sharded(a, b, taus, self.device.resolved_threads())
            }
            Device::GpuSim => {
                self.gpu.pay_overhead(a.byte_size() + b.byte_size());
                kernels::threshold_join_sharded(a, b, taus, self.gpu.workers)
            }
        }
    }

    /// Euclidean distances from `query` to every row of `m` (the kNN /
    /// feature-scoring batch kernel).
    pub fn distances(&self, m: &Matrix, query: &[f32]) -> Vec<f32> {
        match self.device {
            Device::Cpu => kernels::distances_scalar(m, query),
            Device::Avx | Device::ParallelCpu(_) => {
                kernels::distances_sharded(m, query, self.device.resolved_threads())
            }
            Device::GpuSim => {
                self.gpu.pay_overhead(m.byte_size() + query.len() * 4);
                kernels::distances_sharded(m, query, self.gpu.workers)
            }
        }
    }

    /// The neural-network-inference stand-in: a stack of 3×3 conv + ReLU
    /// layers over a luma plane. Returns the final activation plane.
    pub fn conv_stack(&self, plane: &[f32], w: usize, h: usize, layers: usize) -> Vec<f32> {
        match self.device {
            Device::Cpu => kernels::conv_stack_scalar(plane, w, h, layers),
            Device::Avx => kernels::conv_stack_vectorized(plane, w, h, layers),
            Device::ParallelCpu(_) => {
                // Same occupancy guard as the GPU path: row-sharding only
                // pays off once each worker gets a real band.
                let workers = self.device.resolved_threads().min(h / 16).max(1);
                kernels::conv_stack_parallel(plane, w, h, layers, workers)
            }
            Device::GpuSim => {
                self.gpu.pay_overhead(plane.len() * 4 * 2);
                // Row-sharding only pays off when each worker gets a real
                // band; tiny planes run near-serial (occupancy limit).
                let workers = self.gpu.workers.min(h / 16).max(1);
                kernels::conv_stack_parallel(plane, w, h, layers, workers)
            }
        }
    }

    /// Batched inference: one conv stack per plane. The GPU pays a single
    /// launch + transfer for the whole batch (streaming inference), which is
    /// why it dominates the ETL phase.
    pub fn conv_stack_batch(
        &self,
        planes: &[(Vec<f32>, usize, usize)],
        layers: usize,
    ) -> Vec<Vec<f32>> {
        match self.device {
            Device::Cpu => planes
                .iter()
                .map(|(p, w, h)| kernels::conv_stack_scalar(p, *w, *h, layers))
                .collect(),
            Device::Avx => planes
                .iter()
                .map(|(p, w, h)| kernels::conv_stack_vectorized(p, *w, *h, layers))
                .collect(),
            Device::ParallelCpu(_) => {
                Self::conv_batch_parallel(planes, layers, self.device.resolved_threads())
            }
            Device::GpuSim => {
                let bytes: usize = planes.iter().map(|(p, _, _)| p.len() * 4 * 2).sum();
                self.gpu.pay_overhead(bytes);
                Self::conv_batch_parallel(planes, layers, self.gpu.workers)
            }
        }
    }

    /// Batch-level parallelism shared by the multi-core CPU and simulated
    /// GPU: workers claim morsels of whole planes.
    fn conv_batch_parallel(
        planes: &[(Vec<f32>, usize, usize)],
        layers: usize,
        workers: usize,
    ) -> Vec<Vec<f32>> {
        let pool = WorkerPool::new(workers);
        pool.run_morsels(planes.len(), pool.morsel_size(planes.len()), |r| {
            planes[r]
                .iter()
                .map(|(p, w, h)| kernels::conv_stack_vectorized(p, *w, *h, layers))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Histogram of `values` into `bins` cells over `[lo, hi)`.
    pub fn histogram(&self, values: &[f32], bins: usize, lo: f32, hi: f32) -> Vec<u32> {
        match self.device {
            Device::Cpu | Device::Avx => kernels::histogram_scalar(values, bins, lo, hi),
            Device::ParallelCpu(_) => {
                kernels::histogram_parallel(values, bins, lo, hi, self.device.resolved_threads())
            }
            Device::GpuSim => {
                self.gpu.pay_overhead(values.len() * 4);
                kernels::histogram_parallel(values, bins, lo, hi, self.gpu.workers)
            }
        }
    }
}

impl Default for Executor {
    fn default() -> Self {
        Executor::new(Device::Avx)
    }
}

#[cfg(test)]
impl Executor {
    /// Executor with an explicit GPU overhead profile, so offload-cost
    /// tests do not depend on the default profile.
    fn with_gpu_profile(device: Device, gpu: GpuProfile) -> Self {
        Executor { device, gpu }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f32 / (1u64 << 31) as f32 * 10.0
        };
        Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| next()).collect())
    }

    #[test]
    fn devices_agree_on_results() {
        let a = mat(40, 12, 5);
        let b = mat(50, 12, 6);
        let base = Executor::new(Device::Cpu).threshold_join(&a, &b, &[8.0]);
        assert!(!base[0].is_empty());
        for dev in [
            Device::Avx,
            Device::ParallelCpu(0),
            Device::ParallelCpu(1),
            Device::ParallelCpu(5),
            Device::GpuSim,
        ] {
            let got = Executor::new(dev).threshold_join(&a, &b, &[8.0]);
            assert_eq!(base, got, "device {dev:?} result mismatch");
        }
    }

    #[test]
    fn multi_join_matches_single_join_per_tau_on_every_device() {
        let a = mat(35, 12, 11);
        let b = mat(45, 12, 12);
        let taus = [2.0f32, 8.0, 5.0, 8.0]; // duplicates and out-of-order on purpose
        for dev in [
            Device::Cpu,
            Device::Avx,
            Device::ParallelCpu(1),
            Device::ParallelCpu(4),
            Device::GpuSim,
        ] {
            let exec = Executor::new(dev);
            let multi = exec.threshold_join(&a, &b, &taus);
            assert_eq!(multi.len(), taus.len());
            for (q, &tau) in taus.iter().enumerate() {
                assert_eq!(
                    multi[q],
                    exec.threshold_join(&a, &b, &[tau])[0],
                    "device {dev:?} member {q} (tau {tau}) diverged from single issuance"
                );
            }
        }
    }

    #[test]
    fn multi_join_empty_batch_and_empty_inputs() {
        let a = mat(5, 4, 1);
        let b = mat(0, 4, 2);
        let exec = Executor::new(Device::Avx);
        assert!(exec.threshold_join(&a, &a, &[]).is_empty());
        let res = exec.threshold_join(&a, &b, &[1.0, 2.0]);
        assert_eq!(res, vec![Vec::new(), Vec::new()]);
    }

    #[test]
    fn gpu_batch_pays_one_overhead_for_k_members() {
        // K queries batched through the simulated GPU pay the launch +
        // transfer cost once; issued one at a time they pay it K times.
        let profile = GpuProfile {
            launch_overhead: Duration::from_millis(2),
            bandwidth_gib_s: 8.0,
            workers: 2,
        };
        let a = mat(16, 8, 3);
        let b = mat(16, 8, 4);
        let gpu = Executor::with_gpu_profile(Device::GpuSim, profile);
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
    fn distances_device_agnostic() {
        let m = mat(64, 16, 9);
        let q: Vec<f32> = mat(1, 16, 10).row(0).to_vec();
        let base = Executor::new(Device::Cpu).distances(&m, &q);
        for dev in [Device::Avx, Device::ParallelCpu(3), Device::GpuSim] {
            let got = Executor::new(dev).distances(&m, &q);
            assert_eq!(base.len(), got.len());
            for (x, y) in base.iter().zip(&got) {
                assert!((x - y).abs() < 1e-3, "device {dev:?} distance mismatch");
            }
        }
    }

    #[test]
    fn parallel_cpu_pays_no_offload_overhead() {
        // Unlike the GPU, the parallel backend has no launch/transfer model:
        // a tiny input runs inline (single morsel) and completes quickly.
        let a = mat(2, 4, 1);
        let b = mat(2, 4, 2);
        let t0 = Instant::now();
        let _ = Executor::new(Device::ParallelCpu(8)).threshold_join(&a, &b, &[1.0]);
        assert!(t0.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn gpu_pays_overhead_on_tiny_input() {
        let profile = GpuProfile {
            launch_overhead: Duration::from_millis(2),
            bandwidth_gib_s: 8.0,
            workers: 4,
        };
        let a = mat(2, 4, 1);
        let b = mat(2, 4, 2);
        let cpu = Executor::new(Device::Cpu);
        let gpu = Executor::with_gpu_profile(Device::GpuSim, profile);

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

    #[test]
    fn conv_batch_matches_sequential() {
        let planes: Vec<(Vec<f32>, usize, usize)> = (0..5)
            .map(|s| {
                (
                    (0..20 * 16).map(|i| ((i * (s + 3)) % 50) as f32).collect(),
                    20,
                    16,
                )
            })
            .collect();
        let cpu = Executor::new(Device::Cpu).conv_stack_batch(&planes, 2);
        let gpu = Executor::new(Device::GpuSim).conv_stack_batch(&planes, 2);
        assert_eq!(cpu.len(), gpu.len());
        for (c, g) in cpu.iter().zip(&gpu) {
            for (x, y) in c.iter().zip(g) {
                assert!((x - y).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn histogram_device_agnostic() {
        let values: Vec<f32> = (0..5000).map(|i| (i % 100) as f32).collect();
        let a = Executor::new(Device::Cpu).histogram(&values, 10, 0.0, 100.0);
        let b = Executor::new(Device::GpuSim).histogram(&values, 10, 0.0, 100.0);
        assert_eq!(a, b);
    }
}
