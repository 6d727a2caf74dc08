//! Device-dispatching executor.
//!
//! An [`Executor`] binds a [`Device`] to concrete kernel implementations:
//! the scalar reference on [`Device::Cpu`], and one vectorized form sharded
//! over the worker pool on every other device — [`Device::Avx`] is that
//! form at one worker.

use crate::device::Device;
use crate::kernels;
use crate::matrix::Matrix;
use crate::pool::WorkerPool;

/// Executes DeepLens compute kernels on a chosen device.
#[derive(Debug, Clone)]
pub struct Executor {
    device: Device,
}

impl Executor {
    /// Executor for `device`.
    pub fn new(device: Device) -> Self {
        Executor { device }
    }

    /// All-pairs Euclidean threshold join between two feature matrices: one
    /// distance pass over `a × b` serves every threshold in `taus`, returning
    /// one `(row_in_a, row_in_b)` vector per entry, row-major (the
    /// multi-query-optimization kernel; a single query passes one
    /// threshold). Every device returns the same pairs.
    pub fn threshold_join(&self, a: &Matrix, b: &Matrix, taus: &[f32]) -> Vec<Vec<(u32, u32)>> {
        match self.device {
            Device::Cpu => kernels::threshold_join_scalar(a, b, taus),
            Device::Avx | Device::ParallelCpu(_) => {
                kernels::threshold_join_sharded(a, b, taus, self.device.resolved_threads())
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
        }
    }

    /// The neural-network-inference stand-in: a stack of 3×3 conv + ReLU
    /// layers over a luma plane. Returns the final activation plane.
    pub fn conv_stack(&self, plane: &[f32], w: usize, h: usize, layers: usize) -> Vec<f32> {
        match self.device {
            Device::Cpu => kernels::conv_stack_scalar(plane, w, h, layers),
            Device::Avx | Device::ParallelCpu(_) => {
                // Row-sharding only pays off once each worker gets a real
                // band; tiny planes run near-serial (occupancy limit).
                let workers = self.device.resolved_threads().min(h / 16).max(1);
                kernels::conv_stack_parallel(plane, w, h, layers, workers)
            }
        }
    }

    /// Batched inference: one conv stack per plane, the planes sharded over
    /// the device's workers as morsels of whole planes.
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
            Device::Avx | Device::ParallelCpu(_) => {
                let pool = WorkerPool::new(self.device.resolved_threads());
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
        }
    }

    /// Histogram of `values` into `bins` cells over `[lo, hi)`.
    pub fn histogram(&self, values: &[f32], bins: usize, lo: f32, hi: f32) -> Vec<u32> {
        match self.device {
            Device::Cpu => kernels::histogram_scalar(values, bins, lo, hi),
            Device::Avx | Device::ParallelCpu(_) => {
                kernels::histogram_parallel(values, bins, lo, hi, self.device.resolved_threads())
            }
        }
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
    fn distances_device_agnostic() {
        let m = mat(64, 16, 9);
        let q: Vec<f32> = mat(1, 16, 10).row(0).to_vec();
        let base = Executor::new(Device::Cpu).distances(&m, &q);
        for dev in [Device::Avx, Device::ParallelCpu(3)] {
            let got = Executor::new(dev).distances(&m, &q);
            assert_eq!(base.len(), got.len());
            for (x, y) in base.iter().zip(&got) {
                assert!((x - y).abs() < 1e-3, "device {dev:?} distance mismatch");
            }
        }
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
        let par = Executor::new(Device::ParallelCpu(2)).conv_stack_batch(&planes, 2);
        assert_eq!(cpu.len(), par.len());
        for (c, g) in cpu.iter().zip(&par) {
            for (x, y) in c.iter().zip(g) {
                assert!((x - y).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn histogram_device_agnostic() {
        let values: Vec<f32> = (0..5000).map(|i| (i % 100) as f32).collect();
        let a = Executor::new(Device::Cpu).histogram(&values, 10, 0.0, 100.0);
        let b = Executor::new(Device::ParallelCpu(3)).histogram(&values, 10, 0.0, 100.0);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_cpu_runs_a_tiny_join_inline() {
        // A tiny input runs inline as a single morsel and completes quickly.
        let a = mat(2, 4, 1);
        let b = mat(2, 4, 2);
        let t0 = Instant::now();
        let _ = Executor::new(Device::ParallelCpu(8)).threshold_join(&a, &b, &[1.0]);
        assert!(t0.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn avx_is_parallel_cpu_at_one_worker_bit_for_bit() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (avx, one) = (
            Executor::new(Device::Avx),
            Executor::new(Device::ParallelCpu(1)),
        );
        // Odd shapes: a single pixel, an unaligned plane, and planes under
        // the 16-row band the occupancy guard asks for.
        for (w, h) in [(1, 1), (17, 33), (9, 7), (40, 15)] {
            let plane: Vec<f32> = (0..w * h).map(|i| ((i * 29) % 97) as f32 * 0.37).collect();
            assert_eq!(
                bits(&avx.conv_stack(&plane, w, h, 3)),
                bits(&one.conv_stack(&plane, w, h, 3)),
                "conv_stack {w}x{h}"
            );
            let planes = vec![
                (plane.clone(), w, h),
                (plane.iter().map(|x| x * 2.0).collect(), w, h),
            ];
            let (a, b) = (
                avx.conv_stack_batch(&planes, 2),
                one.conv_stack_batch(&planes, 2),
            );
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(bits(x), bits(y), "conv_stack_batch {w}x{h}");
            }
            assert_eq!(
                avx.histogram(&plane, 7, 0.0, 36.0),
                one.histogram(&plane, 7, 0.0, 36.0),
                "histogram {w}x{h}"
            );
            let (m, q) = (mat(h, w, 3), mat(1, w, 4));
            assert_eq!(
                bits(&avx.distances(&m, q.row(0))),
                bits(&one.distances(&m, q.row(0))),
                "distances {h}x{w}"
            );
            let n = mat(w, w, 5);
            assert_eq!(
                avx.threshold_join(&m, &n, &[4.0, 9.0]),
                one.threshold_join(&m, &n, &[4.0, 9.0]),
                "threshold_join {h}x{w} by {w}x{w}"
            );
        }
    }
}
