//! # deeplens-exec
//!
//! Execution backends for DeepLens compute kernels.
//!
//! The paper's Fig. 8 varies the "execution architecture" of both the ETL
//! phase (neural-network inference) and the query phase (image matching)
//! across a vanilla CPU implementation, a vectorized implementation (AVX),
//! and a GPU. Its key observation: GPUs dominate the inference-heavy ETL
//! phase, but for query-time kernels the *offload overhead* (kernel launch +
//! PCIe transfer) can exceed the speedup on small inputs.
//!
//! We have no GPU in this environment, so [`device::Device::GpuSim`] is a
//! simulated accelerator: a data-parallel thread-pool execution (high
//! throughput) plus an explicit launch-latency and transfer-cost model
//! (the overhead). The crossover behaviour — the only thing the experiments
//! depend on — is preserved by construction.
//!
//! Alongside the paper's three devices, [`device::Device::ParallelCpu`] is a
//! real multi-core CPU backend: the vectorized kernels sharded over a
//! morsel-driven scoped-thread [`pool::WorkerPool`], with no offload
//! overhead. It fills the gap the paper's §7.4.2 device-placement story
//! leaves between one vectorized core and full GPU offload.
//!
//! * [`device`] — device descriptors and the offload cost model.
//! * [`matrix`] — dense row-major `f32` matrices (feature sets).
//! * [`pool`] — the morsel-driven scoped worker pool.
//! * [`kernels`] — distance batches, threshold joins, histograms and the
//!   convolution stack used to emulate NN inference: a scalar reference
//!   per kernel plus one vectorized form sharded over the worker pool (one
//!   worker is the AVX device).
//! * [`packed`] — the threshold join over *packed* feature blocks (flat
//!   values + row offsets), kept for the benchmark's layer probe.
//! * [`executor`] — ties a device to its kernel implementations.

#![deny(missing_docs)]

pub mod device;
pub mod executor;
pub mod kernels;
pub mod matrix;
pub mod packed;
pub mod pool;

pub use device::{configured_threads, Device, GpuProfile};
pub use executor::Executor;
pub use matrix::Matrix;
pub use pool::WorkerPool;
