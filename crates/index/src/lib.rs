//! # deeplens-index
//!
//! The multidimensional index structures the DeepLens engine runs.
//!
//! The paper's §3.2 argues that every patch data type needs a specialized
//! index; the engine's similarity joins and the catalog's feature indexes
//! need exactly one family of them. This crate implements, from scratch and
//! with no dependencies:
//!
//! * [`balltree::BallTree`] — Euclidean threshold queries in high
//!   dimensions, over flat node arrays and leaf-ordered points; the
//!   structure behind image-matching similarity joins (and the subject of
//!   Fig. 7's non-linear cost study).
//! * [`delta::DeltaBallTree`] — a Ball-Tree plus tombstones and a
//!   position-ordered map of delta rows, maintaining threshold queries
//!   incrementally under writes (byte-identical to a fresh build, sorted
//!   by position).
//! * [`dist`] — the Euclidean distance kernels both share.
//! * [`bruteforce`] — linear-scan reference implementations used as the
//!   unindexed baseline and as ground truth in tests.
//!
//! The other structures the paper's figures measure (KD-Tree, LSH, R-Tree,
//! sorted runs) are reproduction-only and live in `deeplens_bench::repro`.

pub mod balltree;
pub mod bruteforce;
pub mod delta;
pub mod dist;

pub use balltree::BallTree;
pub use delta::DeltaBallTree;
