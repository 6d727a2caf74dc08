//! The paper's BerkeleyDB-style page stack and its three video layouts.
//!
//! §3.1 stores video as a Frame File, an Encoded File or a Segmented File
//! over an embedded B+Tree, and Figs. 3 and 6 measure what it costs.
//! No served or ingest path reads any of it — the engine keeps collections
//! in memory and packs them with `deeplens_storage::columnar` — so the stack
//! lives here, next to the figures that measure it:
//!
//! * [`page`] / [`pager`] — 4 KiB checksummed pages over a single file with a
//!   free list.
//! * [`buffer`] — a single-owner LRU page cache between the access methods
//!   and the pager.
//! * [`btree`] — an on-disk B+Tree with variable-length byte keys/values,
//!   overflow pages for large values, and ordered range scans (the access
//!   method behind sorted Frame Files and Fig. 6's B+Tree build).
//! * [`layout`] — the paper's three video layouts behind one
//!   [`layout::VideoStore`] trait, plus the future-work *storage advisor*
//!   that picks a layout for a workload (Fig. 3).
//!
//! ```no_run
//! use deeplens_bench::repro::storage::btree::BTree;
//!
//! let dir = std::env::temp_dir().join("dl-doc");
//! std::fs::create_dir_all(&dir).unwrap();
//! let mut t = BTree::create(dir.join("t.dlb")).unwrap();
//! t.insert(b"frame/000041", b"payload").unwrap();
//! assert_eq!(t.get(b"frame/000041").unwrap().as_deref(), Some(&b"payload"[..]));
//! ```

pub mod btree;
pub mod buffer;
pub mod error;
pub mod layout;
pub mod page;
pub mod pager;

pub use error::StorageError;

/// Result alias used throughout the page stack.
pub type Result<T> = std::result::Result<T, StorageError>;
