//! # DeepLens
//!
//! A from-scratch Rust reproduction of **"DeepLens: Towards a Visual Data
//! Management System"** (Krishnan, Dziedzic, Elmore — CIDR 2019).
//!
//! DeepLens manages the outputs of computer-vision models as first-class
//! database content: visual analytics are relational queries over unordered
//! collections of *patches* (featurized sub-images with metadata and
//! lineage), decoupled from physical design decisions — video encoding and
//! layout, device placement, and single-/multi-dimensional indexing.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] ([`deeplens_core`]) — patch model, type system, lineage, ETL,
//!   query operators, catalog, optimizer.
//! * [`storage`] ([`deeplens_storage`]) — chunked columnar patch columns
//!   with per-chunk zone maps. (The page stack, B+Tree and
//!   Frame/Encoded/Segmented video layouts Figs. 3 and 6 measure live in
//!   `deeplens-bench`, outside this facade.)
//! * [`codec`] ([`deeplens_codec`]) — block-DCT image codec and
//!   GOP-structured video codec with sequential decode semantics.
//! * [`index`] ([`deeplens_index`]) — Ball-Tree and delta-maintained
//!   Ball-Tree, distance kernels, brute-force ground truth. (The KD-Tree,
//!   LSH, R-Tree and sorted runs Fig. 6 measures live in the
//!   `deeplens-bench` reproduction crate, outside this facade.)
//! * [`exec`] ([`deeplens_exec`]) — compute kernels: a scalar reference
//!   and a vectorized form sharded over a worker count. (The CPU, AVX and
//!   simulated GPU Fig. 8 measures live in `deeplens-bench`, outside this
//!   facade.)
//! * [`serve`] ([`deeplens_serve`]) — TCP query-serving front end:
//!   connection-per-session dispatch over a shared catalog with
//!   cost-weighted admission control.
//! * [`vision`] ([`deeplens_vision`]) — synthetic scenes, the three
//!   benchmark corpora, and simulated detector / OCR / depth models.
//! * [`analyze`] ([`deeplens_analyze`]) — ranked lock wrappers (the lockdep
//!   checker behind every lock above) and the `tidy` workspace lint.
//!
//! See `ARCHITECTURE.md` at the repository root for the crate graph, the
//! life of a served query, the copy-on-write snapshot model, the lock
//! order, and the columnar chunk format.
//!
//! # Quickstart
//!
//! The same snippet as the README's quickstart, compile-checked here:
//!
//! ```
//! use deeplens::prelude::*;
//!
//! # fn main() -> Result<(), DlError> {
//! // One in-process engine: a session over a private catalog.
//! let session = Session::ephemeral()?;
//! let patches: Vec<Patch> = (0..64u64)
//!     .map(|i| {
//!         Patch::features(PatchId(i), ImgRef::frame("cam", i / 4), vec![(i % 8) as f32, 1.0])
//!             .with_meta("label", if i % 3 == 0 { "car" } else { "person" })
//!     })
//!     .collect();
//! session.catalog.materialize("dets", patches);
//!
//! // The first scan encodes the rows into column chunks; a selective scan
//! // prunes whole chunks via their zone maps.
//! let recent = session.scan(
//!     "dets",
//!     &ScanFilter::FrameRange { lo: 10, hi: 14 },
//!     Projection::Full,
//! )?;
//! assert_eq!(recent.patches.len(), 16);
//!
//! // A self-similarity join; the planner picks the Ball-Tree, all-pairs or
//! // nested plan — whichever it picks, the pairs are byte-identical.
//! let pairs = session.join_collections("dets", "dets", 1.0)?;
//! assert!(!pairs.is_empty());
//! # Ok(())
//! # }
//! ```

pub use deeplens_analyze as analyze;
pub use deeplens_codec as codec;
pub use deeplens_core as core;
pub use deeplens_exec as exec;
pub use deeplens_index as index;
pub use deeplens_serve as serve;
pub use deeplens_storage as storage;
pub use deeplens_vision as vision;

/// Common imports for DeepLens applications (re-export of
/// [`deeplens_core::prelude`]).
pub mod prelude {
    pub use deeplens_core::prelude::*;
}
