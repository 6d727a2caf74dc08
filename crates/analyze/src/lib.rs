//! # deeplens-analyze
//!
//! Analysis infrastructure for the DeepLens workspace, in two halves:
//!
//! * [`sync`] — the **runtime half**: ranked lock wrappers
//!   ([`sync::OrderedMutex`], [`sync::OrderedRwLock`],
//!   [`sync::OrderedCondvar`]) tagged with a [`sync::LockRank`]. Under
//!   `debug_assertions` a thread-local held-rank stack validates that every
//!   acquisition respects the workspace's documented lock partial order —
//!   and that at most one same-rank shard latch is held — panicking with
//!   both lock names and the held stack on an inversion. In release builds
//!   the wrappers compile to a zero-cost passthrough over `std::sync`.
//! * [`tidy`] — the **static half**: a hand-rolled line/token scanner over
//!   `crates/**/src/**/*.rs` (in the spirit of rust-lang/rust's `tidy`)
//!   enforcing the workspace hygiene rules: no raw lock types outside the
//!   [`sync`] module, no panicking calls in serving request paths, no
//!   `todo!`/`unimplemented!`/`dbg!` anywhere, justified `#[allow]`s,
//!   `//!` docs opening every module, and no engine-crate `pub` item that
//!   nothing outside its own unit tests uses. CI runs it as a blocking job
//!   via `cargo run -p deeplens-analyze --bin tidy`.
//!
//! This crate sits at the bottom of the workspace dependency graph (it
//! depends on nothing but `std`), so every locking crate — core, storage,
//! exec, serve — can adopt the wrappers without a cycle.

#![deny(missing_docs)]

pub mod sync;
pub mod tidy;

pub use sync::{LockRank, OrderedCondvar, OrderedMutex, OrderedRwLock};
