//! # deeplens-core
//!
//! The DeepLens visual data management system (CIDR 2019) — core library.
//!
//! DeepLens casts visual analytics as relational queries over unordered
//! collections of **patches**: featurized sub-images with a key-value
//! metadata dictionary and a lineage chain back to the frames that produced
//! them. Every operator is closed over patch collections ("collection of
//! patches in, collection of patches out", §2.2), which separates the
//! logical query from physical design decisions — video layout, device
//! placement, and single-/multi-dimensional indexing.
//!
//! Module map (paper section in parentheses):
//!
//! * [`patch`] — the `Patch(ImgRef, Data, MetaData)` abstract data type
//!   (§2.2); a patch's `ImgRef` answers §5.1's backtracing query.
//! * [`value`] — typed metadata values with order-preserving key encodings.
//! * [`types`] — the pipeline type system: payload kinds, resolutions and
//!   feature dimensions, checked stage to stage (§4.2).
//! * [`etl`] — patch generators, transformers and pipelines (§4.1).
//! * [`ops`] — dataflow query operators: select, aggregate, the
//!   nested-loop θ-join, and what similarity plans are built from: the
//!   Ball-Tree kernel (an on-the-fly build, and one probe pass over it or
//!   over a collection's persisted index), dedup clustering, and the
//!   brute-force oracles (§5).
//! * [`catalog`] — materialized patch collections and their secondary
//!   indexes (hash and Ball-Tree) (§3.2).
//! * [`scan`] — chunked-columnar patch layout with per-chunk statistics
//!   tables and zone-map scan pushdown (§3.1).
//! * [`shared`] — the sharded, copy-on-write [`shared::SharedCatalog`]:
//!   the one catalog, whether one session attaches to it or many.
//! * [`counters`] — the work counters each catalog owns: frames decoded,
//!   rows materialized, index carries, with the result cache's counts.
//! * [`cache`] — the snapshot-keyed result cache in front of session
//!   queries, invalidated for free by the catalog's version counters.
//! * [`optimizer`] — the cost model (non-linear join costs, §7.4.1) and
//!   its bridge to wall-clock on the session's workers.
//! * [`plan`] — the one way a similarity join or dedup executes: chosen
//!   (probing a live catalog index when that is cheaper than a build),
//!   priced and run as a [`plan::JoinPlan`].
//! * [`session`] — a facade tying a catalog attachment, a thread budget and
//!   ETL together.
//!
//! ```
//! use deeplens_core::prelude::*;
//!
//! # fn main() -> Result<(), DlError> {
//! // Build a tiny collection of feature patches and run a similarity join
//! // under the plan the planner picks (serial pool; `Session` supplies the
//! // pool of its thread budget).
//! let catalog = SharedCatalog::new();
//! let patches: Vec<Patch> = (0..10)
//!     .map(|i| {
//!         Patch::features(
//!             catalog.next_patch_id(),
//!             ImgRef::frame("demo", i),
//!             vec![i as f32, 0.0],
//!         )
//!     })
//!     .collect();
//! let plan = JoinPlan::choose(&patches, &patches)?;
//! let pairs = plan.run(&patches, &patches, &[(1.5, None)], &WorkerPool::new(1))?;
//! assert!(pairs[0].len() > 10); // each point matches itself and its neighbours
//! # Ok(())
//! # }
//! ```

pub mod batch;
pub mod cache;
pub mod catalog;
pub mod counters;
pub mod error;
pub mod etl;
pub mod ops;
pub mod optimizer;
pub mod patch;
pub mod plan;
pub mod scan;
pub mod session;
pub mod shared;
pub mod types;
pub mod value;

pub use error::DlError;

/// Result alias for core operations.
pub type Result<T> = std::result::Result<T, DlError>;

/// Common imports for DeepLens applications.
pub mod prelude {
    pub use crate::batch::{BatchQuery, BatchResult, JoinPredicate, QueryBatch};
    pub use crate::cache::{CachedResult, ResultCache};
    pub use crate::catalog::{PatchCollection, PatchIdRange, SecondaryIndex};
    pub use crate::counters::CounterSnapshot;
    pub use crate::error::DlError;
    pub use crate::etl::{Generator, Pipeline, PipelineBatch, Transformer};
    pub use crate::ops;
    pub use crate::optimizer::{CostModel, DevicePlanner};
    pub use crate::patch::{ImgRef, Patch, PatchData, PatchId};
    pub use crate::plan::JoinPlan;
    pub use crate::scan::{
        ColumnarPatches, Projection, ScanFilter, ScanResult, ScanRows, ScanStats,
        DEFAULT_CHUNK_ROWS,
    };
    pub use crate::session::Session;
    pub use crate::shared::SharedCatalog;
    pub use crate::types::{DataKind, PatchSchema};
    pub use crate::value::Value;
    pub use deeplens_exec::WorkerPool;
}
