//! # deeplens-storage
//!
//! Embedded storage engine for DeepLens.
//!
//! The DeepLens paper built its storage layer on BerkeleyDB; this crate is
//! the from-scratch substitute. It provides:
//!
//! * [`page`] / [`pager`] — 4 KiB checksummed pages over a single file with a
//!   free list.
//! * [`buffer`] — an LRU buffer pool (guarded by the ranked locks from
//!   `deeplens-analyze`) between the access methods and the pager.
//! * [`wal`] — a physical write-ahead log with commit records and replay.
//! * [`btree`] — an on-disk B+Tree with variable-length byte keys/values,
//!   overflow pages for large values, and ordered range scans (the engine
//!   behind sorted Frame Files and all single-dimensional secondary indexes).
//! * [`layout`] — the paper's three video layouts (Frame File, Encoded File,
//!   Segmented File) behind one [`layout::VideoStore`] trait, plus the
//!   future-work *storage advisor* that picks a layout for a workload.
//!
//! ```no_run
//! use deeplens_storage::btree::BTree;
//!
//! let dir = std::env::temp_dir().join("dl-doc");
//! std::fs::create_dir_all(&dir).unwrap();
//! let mut t = BTree::create(dir.join("t.dlb")).unwrap();
//! t.insert(b"frame/000041", b"payload").unwrap();
//! assert_eq!(t.get(b"frame/000041").unwrap().as_deref(), Some(&b"payload"[..]));
//! ```

pub mod btree;
pub mod buffer;
pub mod columnar;
pub mod error;
pub mod layout;
pub mod page;
pub mod pager;
pub mod wal;

pub use error::StorageError;

/// Result alias used throughout the storage crate.
pub type Result<T> = std::result::Result<T, StorageError>;
