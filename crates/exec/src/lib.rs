//! # deeplens-exec
//!
//! Execution backends for DeepLens compute kernels.
//!
//! The paper's Fig. 8 varies the "execution architecture" of both the ETL
//! phase (neural-network inference) and the query phase (image matching)
//! across a vanilla CPU implementation, a vectorized implementation (AVX),
//! and a GPU. This crate holds the devices that exist on the host: the
//! scalar [`device::Device::Cpu`], the vectorized [`device::Device::Avx`],
//! and [`device::Device::ParallelCpu`] — the vectorized kernels sharded over
//! a morsel-driven scoped-thread [`pool::WorkerPool`]. The simulated GPU
//! Fig. 8 also measures, with its launch and transfer overhead, lives with
//! the harness in `deeplens_bench::repro::devices`: nothing the engine
//! serves offloads.
//!
//! * [`device`] — device descriptors and the host's thread count.
//! * [`matrix`] — dense row-major `f32` matrices (feature sets).
//! * [`pool`] — the morsel-driven scoped worker pool.
//! * [`kernels`] — distance batches, threshold joins, histograms and the
//!   convolution stack used to emulate NN inference: a scalar reference
//!   per kernel plus one vectorized form sharded over the worker pool (one
//!   worker is the AVX device).
//! * [`packed`] — the threshold join over *packed* feature blocks (flat
//!   values + row offsets), kept for the benchmark's layer probe.
//! * [`Executor`] — ties a device to its kernel implementations.

#![deny(missing_docs)]

pub mod device;
mod executor;
pub mod kernels;
pub mod matrix;
pub mod packed;
pub mod pool;

pub use device::{configured_threads, Device};
pub use executor::Executor;
pub use matrix::Matrix;
pub use pool::WorkerPool;
