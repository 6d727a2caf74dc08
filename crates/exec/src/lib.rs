//! # deeplens-exec
//!
//! Compute kernels for DeepLens and the worker pool they shard over.
//!
//! Every kernel comes in two forms: a scalar reference (`*_scalar`, the
//! oracle the other form is held to) and a vectorized form that takes a
//! worker count and shards its rows — or, for the convolution stack, its
//! planes — over a morsel-driven scoped-thread [`pool::WorkerPool`]. The
//! output of the vectorized form is identical for every worker count, so a
//! caller picks a worker count and nothing else. The paper's Fig. 8
//! devices are built from these kernels in `deeplens_bench::repro::devices`:
//! its "CPU" is the scalar reference, its "AVX" the vectorized kernel at
//! one worker, and its simulated GPU the vectorized kernel behind a
//! modelled launch and transfer overhead. Nothing the engine serves
//! offloads.
//!
//! * [`matrix`] — dense row-major `f32` matrices (feature sets).
//! * [`pool`] — the morsel-driven scoped worker pool and the host's thread
//!   count ([`configured_threads`]).
//! * [`kernels`] — distance batches, threshold joins and the convolution
//!   stack used to emulate NN inference.
//! * [`packed`] — the threshold join over *packed* feature blocks (flat
//!   values + row offsets), kept for the benchmark's layer probe.

#![deny(missing_docs)]

pub mod kernels;
pub mod matrix;
pub mod packed;
pub mod pool;

pub use matrix::Matrix;
pub use pool::{configured_threads, WorkerPool};
