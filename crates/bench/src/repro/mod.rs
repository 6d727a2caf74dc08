//! Structures the paper's evaluation reproduces but the engine never runs.
//!
//! §3.1 stores video in three layouts over a B+Tree and Fig. 3 measures
//! them; §3.2 surveys one index per patch data type and Fig. 6 measures what
//! each costs to build; §7.4.2 (Fig. 8) places kernels on a CPU or a GPU;
//! §7.4.3 (Table 1) models how plan order trades recall for time. The figure
//! harnesses need all of them, yet no served or ingest path reads a page
//! file or a video layout, probes a KD-Tree, an LSH table, an R-Tree or a
//! sorted run, offloads to a GPU, or enumerates plan orders — so they live
//! here, outside the crates the server links. The engine's `deeplens-index`
//! keeps only the Ball-Tree family its joins and catalog use, and its
//! `deeplens-storage` only the columnar chunk format.
//!
//! * [`storage`] — the page stack (pages, pager, sharded buffer pool, WAL,
//!   B+Tree) and the Frame/Encoded/Segmented video layouts with the storage
//!   advisor: Fig. 3's layouts and advisor, Fig. 6's B+Tree.
//! * [`kdtree::KdTree`] — low-dimensional point index (the paper's example
//!   of a KD-tree over color histograms).
//! * [`lsh::LshIndex`] — locality-sensitive hashing, the paper's suggested
//!   approximate mitigation for costly exact multidimensional indexing.
//! * [`rtree::RTree`] — 2-D rectangles with insert, STR bulk load, and
//!   intersection/containment queries (the libspatialindex substitute;
//!   Fig. 6's expensive-to-build index).
//! * [`sorted::SortedRunIndex`] — binary-searchable sorted runs over a
//!   single `f64` attribute (the "sorted file" of §3.2).
//! * [`devices`] — Fig. 8's device set: the scalar kernels as its CPU, the
//!   sharded kernels on host workers (one worker is AVX), the simulated
//!   GPU with its launch + transfer overhead, and device placement over
//!   them.
//! * [`accuracy`] — per-operator (recall, precision) profiles and the two
//!   q4 plan orders of Table 1, priced by the engine's cost model.
//!
//! `deeplens_index::bruteforce` stays the ground truth every structure here
//! is tested against.

pub mod accuracy;
pub mod devices;
pub mod kdtree;
pub mod lsh;
pub mod rtree;
pub mod sorted;
pub mod storage;
