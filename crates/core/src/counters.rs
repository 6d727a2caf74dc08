//! The work counters of one catalog.
//!
//! Every [`SharedCatalog`](crate::shared::SharedCatalog) owns one
//! `Counters` registry and counts on it the work done against that
//! catalog: frames its ingest batches decoded, rows its scans materialized,
//! and Ball indexes its re-materializes carried by delta maintenance or
//! merged into a rebuild. Two catalogs in one process — and so two tests in
//! one binary — count apart, and a test reads exact deltas off its own
//! catalog without serializing against any other.
//!
//! Each site that does the work adds to the registry once per operation
//! with one relaxed atomic add. [`SharedCatalog::counters`] reads every
//! count, together with the result cache's own hit, miss and eviction
//! counts, into one plain [`CounterSnapshot`].
//!
//! [`SharedCatalog::counters`]: crate::shared::SharedCatalog::counters

use std::sync::atomic::{AtomicU64, Ordering};

use crate::cache::ResultCache;

/// The counters a catalog owns. Each is monotonic and only ever added to
/// with a relaxed atomic add; the registry orders nothing.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    frames_decoded: AtomicU64,
    rows_materialized: AtomicU64,
    index_deltas_maintained: AtomicU64,
    index_delta_merges: AtomicU64,
}

impl Counters {
    /// Count `n` frames an ingest batch decoded (a shared scan's frame-cache
    /// misses, or the serial path's private decodes).
    pub(crate) fn add_frames_decoded(&self, n: u64) {
        self.frames_decoded.fetch_add(n, Ordering::Relaxed);
    }

    /// Count `n` rows an executed scan materialized from column chunks.
    pub(crate) fn add_rows_materialized(&self, n: u64) {
        self.rows_materialized.fetch_add(n, Ordering::Relaxed);
    }

    /// Count one re-materialize's index carry: the Ball indexes it kept by
    /// delta maintenance and those whose delta it merged into a rebuild.
    pub(crate) fn add_index_carry(&self, maintained: u64, merged: u64) {
        self.index_deltas_maintained
            .fetch_add(maintained, Ordering::Relaxed);
        self.index_delta_merges.fetch_add(merged, Ordering::Relaxed);
    }

    /// Every count, with `cache`'s hit, miss and eviction counts read from
    /// the cache itself.
    pub(crate) fn snapshot(&self, cache: &ResultCache) -> CounterSnapshot {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        CounterSnapshot {
            frames_decoded: load(&self.frames_decoded),
            rows_materialized: load(&self.rows_materialized),
            index_deltas_maintained: load(&self.index_deltas_maintained),
            index_delta_merges: load(&self.index_delta_merges),
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
            cache_evictions: cache.evictions(),
        }
    }
}

/// One catalog's counts since it was built. Each field is read with its own
/// relaxed load, so a snapshot taken while work runs is per-field exact but
/// not one atomic cut across fields.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Frames decoded by this catalog's ingest batches: a shared scan counts
    /// its frame-cache misses, and the serial reference path every frame its
    /// private decoder returned.
    pub frames_decoded: u64,
    /// Rows materialized by executed `Session::scan`s over this catalog's
    /// collections; a result-cache hit materializes none, and a `Count`
    /// scan returns no row.
    pub rows_materialized: u64,
    /// Ball indexes this catalog's re-materializes carried by delta
    /// maintenance, without a rebuild.
    pub index_deltas_maintained: u64,
    /// Ball-index deltas this catalog's re-materializes merged into a full
    /// rebuild (the serve stats endpoint reports this as `delta_merges`).
    pub index_delta_merges: u64,
    /// Result-cache lookups served from cache.
    pub cache_hits: u64,
    /// Result-cache lookups that fell through to execution.
    pub cache_misses: u64,
    /// Result-cache entries evicted by the LRU bound.
    pub cache_evictions: u64,
}

#[cfg(test)]
mod tests {
    use deeplens_codec::video::{encode_video, VideoConfig};
    use deeplens_codec::Image;

    use super::CounterSnapshot;
    use crate::etl::{Pipeline, WholeImageGenerator};
    use crate::patch::{ImgRef, Patch, PatchId};
    use crate::scan::{Projection, ScanFilter};
    use crate::session::Session;

    /// `n` two-dimensional feature rows, frame `i` at `[i + shift, 0]`.
    fn rows(n: u64, shift: f32) -> Vec<Patch> {
        (0..n)
            .map(|i| {
                Patch::features(
                    PatchId(i),
                    ImgRef::frame("cam", i),
                    vec![i as f32 + shift, 0.0],
                )
            })
            .collect()
    }

    /// An ingest batch, three asks of one scan and a write of every row on
    /// catalog A count exactly their work on A, and nothing on catalog B,
    /// which holds the same collections.
    #[test]
    fn two_catalogs_count_apart() {
        let a = Session::ephemeral().unwrap();
        let b = Session::ephemeral().unwrap();
        for s in [&a, &b] {
            s.catalog.materialize("log", rows(200, 0.0));
            s.catalog.build_ball_index("log", "feat", 1).unwrap();
        }

        // A batch over frames 2..5 decodes the prefix 0..5 once.
        let frames: Vec<Image> = (0..6u8)
            .map(|t| Image::solid(16, 16, [t * 30, 80, 40]))
            .collect();
        let mut batch = a.ingest_batch();
        batch
            .add_encoded_source(
                "cam",
                encode_video(&frames, VideoConfig::default()).unwrap(),
            )
            .unwrap();
        batch
            .ingest(
                Pipeline::new(Box::new(WholeImageGenerator)),
                "cam",
                2..5,
                "frames",
            )
            .unwrap();
        assert_eq!(batch.run().unwrap(), vec![3]);
        assert_eq!(a.catalog.counters().frames_decoded, 5);

        // The cache stores the answer on its second ask and replays it on
        // the third: two executions count their rows, the hit none.
        let window = ScanFilter::FrameRange { lo: 10, hi: 60 };
        let rows_after_ask = (0..3)
            .map(|_| {
                let scanned = a.scan("log", &window, Projection::Full).unwrap();
                assert_eq!(scanned.patches.len(), 50);
                a.catalog.counters().rows_materialized
            })
            .collect::<Vec<_>>();
        assert_eq!(rows_after_ask, [50, 100, 100], "a hit adds no row");

        // A write of every row merges the index's delta into a rebuild.
        a.catalog.materialize("log", rows(200, 1000.0));
        assert_eq!(
            a.catalog.counters(),
            CounterSnapshot {
                frames_decoded: 5,
                rows_materialized: 100,
                index_deltas_maintained: 0,
                index_delta_merges: 1,
                cache_hits: 1,
                cache_misses: 2,
                cache_evictions: 0,
            }
        );
        assert_eq!(b.catalog.counters(), CounterSnapshot::default());
    }
}
