//! # deeplens-storage
//!
//! The chunked columnar patch format of DeepLens, with no dependencies.
//!
//! [`columnar`] packs a collection's attributes into column chunks of
//! [`columnar::DEFAULT_CHUNK_ROWS`] rows, each with a statistics table
//! (count, nulls, min/max, sortedness) that selective scans consult to skip
//! whole chunks, and a lightweight lossless encoding (delta and
//! frame-of-reference bit-packing, dictionaries, quantized features).
//! `deeplens-core::scan` assembles these chunks into collections.
//!
//! The paper's BerkeleyDB-style page stack — pages, an LRU page cache, a
//! B+Tree and the Frame/Encoded/Segmented video layouts that Figs. 3 and
//! 6 measure — is not part of the engine: it lives in the reproduction crate
//! as `deeplens_bench::repro::storage`.

pub mod columnar;
