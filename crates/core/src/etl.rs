//! Visual ETL: patch generators, transformers, pipelines (§4.1).
//!
//! The ETL layer turns raw frames into patch collections. A [`Generator`]
//! maps one source image to a set of patches (object detection, whole-image,
//! tiling); a [`Transformer`] maps patch to patch (featurization,
//! compression). A [`Pipeline`] composes one generator with any number of
//! transformers, validates the stage schemas before running (§4.2), and
//! holds every stage to §2.2's lineage contract: each patch keeps the
//! `ImgRef` of the frame it came from, so that reference answers a §5.1
//! backtrace.
//!
//! [`Pipeline::run`] executes frames as morsels on a [`WorkerPool`]: each
//! frame generates and transforms with a *speculative* zero-based
//! [`PatchIdRange`], and the sequential epilogue rebases every frame onto a
//! real reservation from the catalog ([`SharedCatalog::reserve_patch_ids`]) in
//! frame order. Ids, parents, and patch payloads are therefore byte-
//! identical across thread counts — and identical to what the historical
//! serial implementation produced.
//!
//! [`PipelineBatch`] runs K pipelines over DLV1 streams with one shared
//! decode per stream; frames already in memory have no decode to share and
//! go through [`Session::run_pipeline`]. A stage that breaks its declared
//! schema at run time (a featurizer returning the wrong dimension) or the
//! lineage contract (a patch naming another frame) fails the run with
//! [`DlError::SchemaMismatch`] before anything is published.

use std::ops::Range;
use std::sync::Arc;

use deeplens_codec::video::VideoDecoder;
use deeplens_codec::Image;
use deeplens_exec::WorkerPool;

use crate::catalog::PatchIdRange;
use crate::patch::{ImgRef, MetaMap, Patch, PatchData, PatchId};
use crate::session::Session;
use crate::shared::SharedCatalog;
use crate::types::PatchSchema;
use crate::{DlError, Result};

/// Turns a source image into patches.
///
/// Implementations must be `Send + Sync`: the pipeline invokes them from
/// worker threads, one frame per call, with no shared mutable state.
pub trait Generator: Send + Sync {
    /// Human-readable stage name (for plans and error messages).
    fn name(&self) -> &str;

    /// Schema of the patches this generator emits.
    fn output_schema(&self) -> PatchSchema;

    /// Check configuration invariants before any frame runs (called by
    /// [`Pipeline::validate`]). The default accepts everything.
    fn validate(&self) -> Result<()> {
        Ok(())
    }

    /// Generate patches for one frame. `ids` hands out fresh patch ids from
    /// a pre-reserved range. Every patch must carry `img_ref`; a pipeline
    /// fails the run on one that does not.
    fn generate(&self, img_ref: &ImgRef, img: &Image, ids: &mut PatchIdRange)
        -> Result<Vec<Patch>>;
}

/// Maps patches to patches (featurize, compress, annotate).
///
/// Implementations must be `Send + Sync` (see [`Generator`]).
pub trait Transformer: Send + Sync {
    /// Human-readable stage name.
    fn name(&self) -> &str;

    /// Schema the transformer requires from its input.
    fn input_schema(&self) -> PatchSchema;

    /// Schema of its output.
    fn output_schema(&self) -> PatchSchema;

    /// Transform one patch, which the stage owns: the pipeline hands each
    /// patch to one transformer and keeps only what it returns. `ids` hands
    /// out fresh patch ids; the implementation must derive the output from
    /// the input so lineage is preserved (use [`Patch::into_derived`], which
    /// moves the source reference and metadata rather than cloning them). A
    /// pipeline fails the run on an output whose `img_ref` differs from the
    /// input's.
    fn transform(&self, patch: Patch, ids: &mut PatchIdRange) -> Result<Patch>;
}

/// The identity generator: each frame becomes one whole-image patch
/// (the paper's "whole-image patches" generator).
#[derive(Debug, Default)]
pub struct WholeImageGenerator;

impl Generator for WholeImageGenerator {
    fn name(&self) -> &str {
        "whole-image"
    }

    fn output_schema(&self) -> PatchSchema {
        PatchSchema::pixels()
    }

    fn generate(
        &self,
        img_ref: &ImgRef,
        img: &Image,
        ids: &mut PatchIdRange,
    ) -> Result<Vec<Patch>> {
        Ok(vec![Patch::pixels(
            ids.alloc(),
            img_ref.clone(),
            img.clone(),
        )
        .with_meta("frameno", img_ref.frame_no as i64)])
    }
}

/// A tiling generator: fixed-size grid patches (classical segmentation).
#[derive(Debug)]
pub struct TileGenerator {
    /// Tile edge length in pixels. Must be positive; a zero tile is a
    /// configuration error surfaced by [`Pipeline::validate`].
    pub tile: u32,
}

impl Generator for TileGenerator {
    fn name(&self) -> &str {
        "tile"
    }

    fn output_schema(&self) -> PatchSchema {
        PatchSchema::pixels().with_resolution(self.tile, self.tile)
    }

    fn validate(&self) -> Result<()> {
        if self.tile == 0 {
            return Err(DlError::TypeError(
                "tile generator: tile edge length must be positive".into(),
            ));
        }
        Ok(())
    }

    fn generate(
        &self,
        img_ref: &ImgRef,
        img: &Image,
        ids: &mut PatchIdRange,
    ) -> Result<Vec<Patch>> {
        // Guard direct (non-pipeline) callers against the step_by(0) panic.
        self.validate()?;
        // One allocation per key per frame; every tile shares them. In key
        // order, so each tile's map is filled by appending.
        let keys = ["frameno", "h", "w", "x", "y"].map(Arc::<str>::from);
        let t = self.tile;
        let mut out = Vec::with_capacity(((img.width() / t) * (img.height() / t)) as usize);
        for ty in (0..img.height()).step_by(t as usize) {
            for tx in (0..img.width()).step_by(t as usize) {
                let crop = img.crop(tx as i64, ty as i64, t, t);
                if crop.width() != t || crop.height() != t {
                    continue; // drop ragged border tiles to keep the schema exact
                }
                let values = [
                    img_ref.frame_no as i64,
                    t.into(),
                    t.into(),
                    tx.into(),
                    ty.into(),
                ];
                let mut meta = MetaMap::with_capacity(keys.len());
                for (key, value) in keys.iter().zip(values) {
                    meta.push_sorted(key.clone(), value.into());
                }
                out.push(Patch {
                    meta,
                    ..Patch::pixels(ids.alloc(), img_ref.clone(), crop)
                });
            }
        }
        Ok(out)
    }
}

/// Everything one frame produced: the final stage's patches with
/// frame-local ids, and how many ids every stage of the frame used.
struct FrameOutput {
    finals: Vec<Patch>,
    ids_used: u64,
}

impl FrameOutput {
    /// Rebase every frame-local id (and parent pointer) onto a real
    /// reservation starting at `base`.
    fn rebase(&mut self, base: u64) {
        for p in &mut self.finals {
            p.id = PatchId(base + p.id.0);
            for parent in p.parents.iter_mut() {
                *parent = PatchId(base + parent.0);
            }
        }
    }
}

/// The sequential epilogue [`Pipeline::run`] and [`PipelineBatch::run`]
/// share: rebase each frame onto a real id reservation **in frame order**
/// (so ids are deterministic and identical to serial issuance), and
/// publish the final stage under `output_name` with one materialize (one
/// atomic snapshot swap — concurrent readers never see it half
/// materialized).
///
/// Returns the number of patches materialized.
fn issue_frames(
    frame_outputs: Vec<FrameOutput>,
    catalog: &SharedCatalog,
    output_name: &str,
) -> usize {
    let mut patches = Vec::new();
    for mut frame in frame_outputs {
        let base = catalog.reserve_patch_ids(frame.ids_used).start();
        frame.rebase(base);
        patches.extend(frame.finals);
    }
    let n = patches.len();
    catalog.materialize(output_name, patches);
    n
}

/// §2.2's lineage contract for one stage's output: every patch of a frame
/// keeps that frame's `img_ref`.
fn check_img_refs(stage: &str, patches: &[Patch], img_ref: &ImgRef) -> Result<()> {
    match patches.iter().find(|p| p.img_ref != *img_ref) {
        Some(p) => Err(DlError::SchemaMismatch(format!(
            "stage '{stage}' gave patch {:?} the ImgRef {:?} of another frame than {:?}",
            p.id, p.img_ref, img_ref
        ))),
        None => Ok(()),
    }
}

/// A composed ETL pipeline: one generator, then transformers in order.
pub struct Pipeline {
    generator: Box<dyn Generator>,
    transformers: Vec<Box<dyn Transformer>>,
}

impl Pipeline {
    /// Start a pipeline from a generator.
    pub fn new(generator: Box<dyn Generator>) -> Self {
        Pipeline {
            generator,
            transformers: Vec::new(),
        }
    }

    /// Append a transformer stage.
    pub fn then(mut self, t: Box<dyn Transformer>) -> Self {
        self.transformers.push(t);
        self
    }

    /// Validate generator configuration and stage-to-stage schema
    /// compatibility (§4.2) without running.
    pub fn validate(&self) -> Result<PatchSchema> {
        self.generator.validate()?;
        let mut schema = self.generator.output_schema();
        for t in &self.transformers {
            schema.validate_into(&t.input_schema())?;
            schema = t.output_schema();
        }
        Ok(schema)
    }

    /// Run one frame through every stage with a frame-local speculative id
    /// range (ids start at 0 and are rebased by the caller), checking every
    /// stage's output against the frame's `ImgRef` ([`check_img_refs`]).
    fn run_frame(&self, source: &Arc<str>, frame_no: u64, img: &Image) -> Result<FrameOutput> {
        let img_ref = ImgRef::frame(source.clone(), frame_no);
        let mut ids = PatchIdRange::speculative();
        let mut current = self.generator.generate(&img_ref, img, &mut ids)?;
        check_img_refs(self.generator.name(), &current, &img_ref)?;
        for t in &self.transformers {
            current = current
                .into_iter()
                .map(|p| t.transform(p, &mut ids))
                .collect::<Result<_>>()?;
            check_img_refs(t.name(), &current, &img_ref)?;
        }
        Ok(FrameOutput {
            finals: current,
            ids_used: ids.used(),
        })
    }

    /// Run the pipeline over `(frame_no, image)` pairs from `source`,
    /// materializing the result into `catalog` under `output_name`. Frames
    /// generate + transform as morsels on `pool` with frame-local
    /// speculative ids; with no other session interleaving reservations,
    /// ids, payloads, and parents are identical for every thread count and
    /// shard count.
    ///
    /// Any stage error surfaces before the catalog is touched: a mid-run
    /// failure, a featurizer returning the wrong dimension, or a stage whose
    /// output names another frame than its input leaves no consumed ids
    /// or half-materialized output behind.
    ///
    /// Returns the number of patches materialized.
    pub fn run<'a>(
        &self,
        frames: impl Iterator<Item = (u64, &'a Image)>,
        source: &str,
        catalog: &SharedCatalog,
        output_name: &str,
        pool: &WorkerPool,
    ) -> Result<usize> {
        self.validate()?;
        // Every frame's patches share one source allocation.
        let source: Arc<str> = source.into();
        let frames: Vec<(u64, &Image)> = frames.collect();
        let morsel_results: Vec<Result<Vec<FrameOutput>>> =
            pool.run_morsels(frames.len(), pool.morsel_size(frames.len()), |range| {
                frames[range]
                    .iter()
                    .map(|&(frame_no, img)| self.run_frame(&source, frame_no, img))
                    .collect()
            });
        let mut frame_outputs: Vec<FrameOutput> = Vec::new();
        for morsel in morsel_results {
            frame_outputs.extend(morsel?);
        }
        Ok(issue_frames(frame_outputs, catalog, output_name))
    }
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Pipeline({}", self.generator.name())?;
        for t in &self.transformers {
            write!(f, " -> {}", t.name())?;
        }
        write!(f, ")")
    }
}

// --------------------------------------------------------------------------
// Batched ingestion: decode once, featurize many
// --------------------------------------------------------------------------

/// A named DLV1 stream registered with a [`PipelineBatch`].
struct IngestSource {
    name: Arc<str>,
    bytes: Vec<u8>,
}

/// One source's shared scan: the needed frames of its job windows, keyed
/// by frame number.
type ScannedFrames = std::collections::HashMap<u64, Arc<Image>>;

/// One enqueued ingestion: a pipeline over a frame window of a source,
/// materializing into the shared catalog under `output`.
struct IngestJob {
    pipeline: Pipeline,
    source: usize,
    window: Range<u64>,
    output: String,
}

/// A batch of ETL pipelines accepted by one [`Session`]
/// ([`Session::ingest_batch`]) — the ETL-side analogue of
/// [`crate::batch::QueryBatch`].
///
/// The paper's central ETL observation is that decoding and scanning raw
/// frames dominates ingestion, so a visual data system should amortize that
/// scan across every featurization pass that wants the same frames. A
/// `PipelineBatch` is that story at the session level: register sources,
/// enqueue K `(pipeline, source, frame window, output)` jobs, and
/// [`PipelineBatch::run`] plans them into **shared-scan groups** — jobs
/// over one source share a single sequential decode of the union of their
/// frame windows (through the session's bounded decoded-frame cache,
/// [`deeplens_codec::FrameCache`]), and all K generator + transformer
/// chains fan out over the shared frames as one interleaved morsel set on
/// the session's worker pool.
///
/// **Determinism**: every job's ids, payloads, and parents are
/// byte-identical to issuing the jobs one at a time through
/// [`Pipeline::run`] ([`PipelineBatch::run_serial`] is that
/// reference path, verbatim) — the speculative per-frame id ranges are
/// rebased job-major in frame order, exactly the serial reservation order.
///
/// **Atomicity**: any stage error surfaces before the batch touches the
/// catalog — no ids are consumed and no output collection (of *any* job)
/// is published.
///
/// **Admission**: the whole batch is one admission unit on the session's
/// thread slice (`Session::pool`), composing with the multi-session budget
/// split instead of multiplying it.
pub struct PipelineBatch<'s> {
    session: &'s Session,
    sources: Vec<IngestSource>,
    jobs: Vec<IngestJob>,
}

impl std::fmt::Debug for PipelineBatch<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("PipelineBatch");
        for s in &self.sources {
            d.field(&s.name, &s.bytes.len());
        }
        d.field("jobs", &self.jobs.len()).finish()
    }
}

impl<'s> PipelineBatch<'s> {
    pub(crate) fn new(session: &'s Session) -> Self {
        PipelineBatch {
            session,
            sources: Vec::new(),
            jobs: Vec::new(),
        }
    }

    /// Register an encoded video stream under `name`. Frames are decoded
    /// on demand — once per batch per shared window, and not at all when
    /// the session's frame cache still holds them from an earlier batch.
    pub fn add_encoded_source(&mut self, name: &str, bytes: Vec<u8>) -> Result<()> {
        if self.sources.iter().any(|s| &*s.name == name) {
            return Err(DlError::Conflict(format!(
                "source '{name}' already registered with this batch"
            )));
        }
        self.sources.push(IngestSource {
            name: name.into(),
            bytes,
        });
        Ok(())
    }

    /// Enqueue `pipeline` over `window` of `source`, materializing into the
    /// shared catalog under `output`. Returns the job's position in the
    /// batch (its result index). The pipeline is validated up front so a
    /// misconfigured stage is rejected before anything runs.
    pub fn ingest(
        &mut self,
        pipeline: Pipeline,
        source: &str,
        window: Range<u64>,
        output: &str,
    ) -> Result<usize> {
        pipeline.validate()?;
        let source = self
            .sources
            .iter()
            .position(|s| &*s.name == source)
            .ok_or_else(|| DlError::NotFound(format!("batch source '{source}'")))?;
        self.jobs.push(IngestJob {
            pipeline,
            source,
            window,
            output: output.to_string(),
        });
        Ok(self.jobs.len() - 1)
    }

    /// Number of enqueued jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the batch has no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The out-of-range error both [`PipelineBatch::run`] and
    /// [`PipelineBatch::run_serial`] surface for a job window past the end
    /// of its stream, empty windows included.
    fn window_overrun(window: &Range<u64>, available: u64) -> DlError {
        DlError::Codec(deeplens_codec::CodecError::InvalidHeader(format!(
            "frame window {}..{} exceeds stream length {available}",
            window.start, window.end
        )))
    }

    /// Resolve every source a job mentions to its frames, decoding each
    /// source's needed frames exactly once (shared scan). Returns, per
    /// source index, a `frame_no -> frame` map covering the union of that
    /// source's job windows (empty for sources no job touches). Every job
    /// window — empty ones included — is validated against its source
    /// first, so `run` rejects exactly the batches `run_serial` rejects.
    fn shared_scans(&self) -> Result<Vec<ScannedFrames>> {
        // A header parse per source, no decode.
        let lengths: Vec<u64> = self
            .sources
            .iter()
            .map(|s| Ok(u64::from(VideoDecoder::new(&s.bytes)?.header().frame_count)))
            .collect::<Result<_>>()?;
        for job in &self.jobs {
            let available = lengths[job.source];
            if job.window.end > available {
                return Err(Self::window_overrun(&job.window, available));
            }
        }
        // The needed-frame set per source: the union of its job windows,
        // sorted — gaps between disjoint windows are never retained (the
        // codec still decodes through them; an inter-coded stream's
        // reference chain admits no seeking).
        let mut needed: Vec<std::collections::BTreeSet<u64>> =
            vec![Default::default(); self.sources.len()];
        for job in &self.jobs {
            needed[job.source].extend(job.window.clone());
        }
        let mut scans = Vec::with_capacity(self.sources.len());
        for (source, needed) in self.sources.iter().zip(needed) {
            let frames: Vec<u64> = needed.into_iter().collect();
            // One sequential decode for every job over this source, served
            // through the session's bounded frame cache so a later batch
            // over the same stream can skip it too.
            let mut cache = self.session.frame_cache().lock();
            scans.push(
                cache
                    .scan_frames(&source.bytes, &frames)?
                    .into_iter()
                    .collect(),
            );
        }
        Ok(scans)
    }

    /// Execute the batch: one shared scan per source, all jobs' stages
    /// fanned over the shared frames as interleaved morsels, then the
    /// job-major sequential epilogue. Results are patch counts in job
    /// order, byte-identical to [`PipelineBatch::run_serial`].
    pub fn run(self) -> Result<Vec<usize>> {
        let pool = self.session.pool();
        let scans = self.shared_scans()?;

        // The interleaved multi-pipeline work list: every (job, frame) cell
        // in job-major frame order — the order the epilogue rebases in.
        struct WorkItem<'a> {
            job: usize,
            frame_no: u64,
            img: &'a Image,
        }
        let mut items: Vec<WorkItem<'_>> = Vec::new();
        for (ji, job) in self.jobs.iter().enumerate() {
            let scan = &scans[job.source];
            for t in job.window.clone() {
                items.push(WorkItem {
                    job: ji,
                    frame_no: t,
                    img: &scan[&t],
                });
            }
        }

        // Fan every cell out as pool morsels: cells are independent (each
        // runs with its own speculative zero-based id range), so pipelines
        // from different jobs interleave freely inside one morsel set.
        let morsel_results: Vec<Result<Vec<(usize, FrameOutput)>>> =
            pool.run_morsels(items.len(), pool.morsel_size(items.len()), |range| {
                items[range]
                    .iter()
                    .map(|item| {
                        let job = &self.jobs[item.job];
                        job.pipeline
                            .run_frame(&self.sources[job.source].name, item.frame_no, item.img)
                            .map(|out| (item.job, out))
                    })
                    .collect()
            });
        // Surface any stage error before the epilogue touches the catalog:
        // a mid-batch failure must leave every output collection and id
        // reservation of the whole batch unmade.
        let mut per_job: Vec<Vec<FrameOutput>> = (0..self.jobs.len()).map(|_| Vec::new()).collect();
        for morsel in morsel_results {
            for (ji, out) in morsel? {
                per_job[ji].push(out);
            }
        }

        // Job-major sequential epilogue: exactly the reservation order (and
        // therefore exactly the bytes) of issuing each job serially.
        let mut counts = Vec::with_capacity(self.jobs.len());
        for (job, frame_outputs) in self.jobs.iter().zip(per_job) {
            counts.push(issue_frames(
                frame_outputs,
                &self.session.catalog,
                &job.output,
            ));
        }
        Ok(counts)
    }

    /// The serial reference path: decode every job's frame window privately
    /// (paying the codec cost per job, never touching the shared cache) and
    /// issue each job one at a time through [`Pipeline::run`], in
    /// order. [`PipelineBatch::run`] is byte-identical to this when no
    /// concurrent session interleaves id reservations.
    pub fn run_serial(self) -> Result<Vec<usize>> {
        let pool = self.session.pool();
        let mut counts = Vec::with_capacity(self.jobs.len());
        for job in &self.jobs {
            let source = &self.sources[job.source];
            let mut decoder = VideoDecoder::new(&source.bytes)?;
            let available = u64::from(decoder.header().frame_count);
            if job.window.end > available {
                return Err(Self::window_overrun(&job.window, available));
            }
            let mut frames = Vec::new();
            for t in 0..job.window.end {
                let img = decoder
                    .next_frame()
                    .ok_or(DlError::Codec(deeplens_codec::CodecError::UnexpectedEof))??;
                if job.window.contains(&t) {
                    frames.push((t, img));
                }
            }
            counts.push(job.pipeline.run(
                frames.iter().map(|(t, img)| (*t, img)),
                &source.name,
                &self.session.catalog,
                &job.output,
                &pool,
            )?);
        }
        Ok(counts)
    }
}

/// A featurization function mapping an image to a feature vector.
///
/// `Send + Sync` because pipelines call it from worker threads.
pub type FeatureFn = Box<dyn Fn(&Image) -> Vec<f32> + Send + Sync>;

/// A transformer that replaces pixel payloads with feature vectors computed
/// by a caller-supplied function (color histograms, embeddings, ...).
pub struct FeaturizeTransformer {
    /// Stage name.
    pub label: String,
    /// Output feature dimension.
    pub dim: usize,
    /// The featurization function.
    pub f: FeatureFn,
}

impl Transformer for FeaturizeTransformer {
    fn name(&self) -> &str {
        &self.label
    }

    fn input_schema(&self) -> PatchSchema {
        PatchSchema::pixels()
    }

    fn output_schema(&self) -> PatchSchema {
        PatchSchema::features(self.dim)
    }

    fn transform(&self, patch: Patch, ids: &mut PatchIdRange) -> Result<Patch> {
        // Schema validation makes a non-pixel input unreachable through a
        // pipeline; surface the violation instead of fabricating an all-zero
        // feature vector that would silently poison similarity joins.
        let Some(img) = patch.data.pixels() else {
            return Err(DlError::SchemaMismatch(format!(
                "featurizer '{}' received a non-pixel patch (id {:?})",
                self.label, patch.id
            )));
        };
        // The declared dim is the schema `Pipeline::validate` checked the
        // next stage against; a ragged collection would only fail later, at
        // the first join over it.
        let features = (self.f)(img);
        if features.len() != self.dim {
            return Err(DlError::SchemaMismatch(format!(
                "featurizer '{}' declares dim {} but returned {} values (patch id {:?})",
                self.label,
                self.dim,
                features.len(),
                patch.id
            )));
        }
        Ok(patch.into_derived(ids.alloc(), PatchData::Features(features)))
    }
}

impl std::fmt::Debug for FeaturizeTransformer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FeaturizeTransformer({}, dim={})", self.label, self.dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patch::PatchId;

    fn frames(n: u64) -> Vec<Image> {
        (0..n)
            .map(|t| Image::solid(32, 32, [t as u8 * 20, 100, 50]))
            .collect()
    }

    fn serial() -> WorkerPool {
        WorkerPool::new(1)
    }

    #[test]
    fn whole_image_pipeline() {
        let imgs = frames(4);
        let catalog = SharedCatalog::new();
        let pipe = Pipeline::new(Box::new(WholeImageGenerator));
        let n = pipe
            .run(
                imgs.iter().enumerate().map(|(i, f)| (i as u64, f)),
                "vid",
                &catalog,
                "frames",
                &serial(),
            )
            .unwrap();
        assert_eq!(n, 4);
        let col = catalog.snapshot("frames").unwrap();
        assert_eq!(col.patches[2].get_int("frameno"), Some(2));
        assert!(col.patches[2].data.pixels().is_some());
    }

    #[test]
    fn tile_generator_counts() {
        let imgs = frames(1);
        let catalog = SharedCatalog::new();
        let pipe = Pipeline::new(Box::new(TileGenerator { tile: 16 }));
        let n = pipe
            .run(
                imgs.iter().map(|f| (0u64, f)),
                "vid",
                &catalog,
                "tiles",
                &serial(),
            )
            .unwrap();
        assert_eq!(n, 4, "32x32 tiles into 16x16 quarters");
        let col = catalog.snapshot("tiles").unwrap();
        assert_eq!(col.patches[3].bbox(), Some((16, 16, 16, 16)));
    }

    #[test]
    fn zero_tile_is_a_validation_error_not_a_panic() {
        let pipe = Pipeline::new(Box::new(TileGenerator { tile: 0 }));
        let err = pipe.validate().unwrap_err();
        assert!(matches!(err, DlError::TypeError(_)), "got: {err:?}");
        // And the run path reports the same error instead of panicking.
        let imgs = frames(1);
        let catalog = SharedCatalog::new();
        let res = pipe.run(
            imgs.iter().map(|f| (0u64, f)),
            "vid",
            &catalog,
            "tiles",
            &serial(),
        );
        assert!(matches!(res, Err(DlError::TypeError(_))));
        // Direct generate calls are guarded too.
        let gen = TileGenerator { tile: 0 };
        let mut ids = PatchIdRange::speculative();
        assert!(gen
            .generate(&ImgRef::frame("vid", 0), &imgs[0], &mut ids)
            .is_err());
    }

    #[test]
    fn featurize_composes_and_tracks_lineage() {
        let imgs = frames(2);
        let catalog = SharedCatalog::new();
        let pipe =
            Pipeline::new(Box::new(WholeImageGenerator)).then(Box::new(FeaturizeTransformer {
                label: "mean-color".into(),
                dim: 3,
                f: Box::new(|img| img.mean_color().to_vec()),
            }));
        pipe.run(
            imgs.iter().enumerate().map(|(i, f)| (i as u64, f)),
            "vid",
            &catalog,
            "feats",
            &serial(),
        )
        .unwrap();
        let col = catalog.snapshot("feats").unwrap();
        assert_eq!(col.len(), 2);
        let p = &col.patches[0];
        assert_eq!(p.data.features().map(<[f32]>::len), Some(3));
        assert_eq!(p.parents.len(), 1, "derived patch records its parent");
        assert_eq!(p.get_int("frameno"), Some(0), "metadata carried through");
    }

    #[test]
    fn featurizer_rejects_non_pixel_patches() {
        let t = FeaturizeTransformer {
            label: "hist".into(),
            dim: 4,
            f: Box::new(|_| vec![0.0; 4]),
        };
        let mut ids = PatchIdRange::speculative();
        let featureless = Patch::features(PatchId(9), ImgRef::frame("v", 0), vec![1.0]);
        let err = t.transform(featureless, &mut ids).unwrap_err();
        assert!(
            matches!(err, DlError::SchemaMismatch(_)),
            "non-pixel input must surface a schema violation, got {err:?}"
        );
        let empty = Patch::empty(PatchId(10), ImgRef::frame("v", 0));
        assert!(t.transform(empty, &mut ids).is_err());
    }

    #[test]
    fn parallel_run_matches_serial_ids_and_lineage() {
        let imgs = frames(9);
        let run_with = |shards: usize, threads: usize| {
            let catalog = SharedCatalog::with_shards(shards);
            tile_featurize(16)
                .run(
                    imgs.iter().enumerate().map(|(i, f)| (i as u64, f)),
                    "vid",
                    &catalog,
                    "feats",
                    &WorkerPool::new(threads),
                )
                .unwrap();
            catalog
        };
        let serial_cat = run_with(1, 1);
        let serial_patches = &serial_cat.snapshot("feats").unwrap().patches;
        for (shards, threads) in [(1usize, 2usize), (1, 4), (1, 8), (4, 1), (4, 4)] {
            let par_cat = run_with(shards, threads);
            let par_patches = &par_cat.snapshot("feats").unwrap().patches;
            assert_eq!(
                serial_patches, par_patches,
                "{shards} shards x {threads} threads: ids, payloads, metadata and lineage must be byte-identical"
            );
        }
    }

    /// A transformer that fails on one specific frame.
    struct FailOnFrame {
        frame: i64,
    }

    impl Transformer for FailOnFrame {
        fn name(&self) -> &str {
            "fail-on-frame"
        }
        fn input_schema(&self) -> PatchSchema {
            PatchSchema::pixels()
        }
        fn output_schema(&self) -> PatchSchema {
            PatchSchema::features(1)
        }
        fn transform(&self, patch: Patch, ids: &mut PatchIdRange) -> Result<Patch> {
            if patch.get_int("frameno") == Some(self.frame) {
                return Err(DlError::TypeError("injected stage failure".into()));
            }
            Ok(patch.into_derived(ids.alloc(), PatchData::Features(vec![1.0])))
        }
    }

    #[test]
    fn stage_error_leaves_catalog_untouched() {
        let imgs = frames(6);
        // A mid-run stage failure and an up-front validation failure.
        for pipe in [
            Pipeline::new(Box::new(WholeImageGenerator)).then(Box::new(FailOnFrame { frame: 4 })),
            Pipeline::new(Box::new(TileGenerator { tile: 0 })),
        ] {
            let catalog = SharedCatalog::new();
            let res = pipe.run(
                imgs.iter().enumerate().map(|(i, f)| (i as u64, f)),
                "vid",
                &catalog,
                "out",
                &serial(),
            );
            assert!(matches!(res, Err(DlError::TypeError(_))), "{pipe:?}");
            // No consumed ids, no half-materialized output.
            assert!(catalog.snapshot("out").is_err());
            assert_eq!(
                catalog.next_patch_id(),
                PatchId(0),
                "no ids consumed by the failed run"
            );
        }
    }

    #[test]
    fn validate_catches_kind_mismatch() {
        // Two featurizers in a row: the second expects pixels, gets features.
        let pipe = Pipeline::new(Box::new(WholeImageGenerator))
            .then(Box::new(FeaturizeTransformer {
                label: "f1".into(),
                dim: 3,
                f: Box::new(|img| img.mean_color().to_vec()),
            }))
            .then(Box::new(FeaturizeTransformer {
                label: "f2".into(),
                dim: 3,
                f: Box::new(|img| img.mean_color().to_vec()),
            }));
        let err = pipe.validate().unwrap_err();
        assert!(err.to_string().contains("Pixels"), "got: {err}");
    }

    #[test]
    fn pipeline_debug_format() {
        let pipe =
            Pipeline::new(Box::new(WholeImageGenerator)).then(Box::new(FeaturizeTransformer {
                label: "hist".into(),
                dim: 4,
                f: Box::new(|_| vec![0.0; 4]),
            }));
        assert_eq!(format!("{pipe:?}"), "Pipeline(whole-image -> hist)");
    }

    fn tile_featurize(tile: u32) -> Pipeline {
        Pipeline::new(Box::new(TileGenerator { tile })).then(Box::new(FeaturizeTransformer {
            label: "mean-color".into(),
            dim: 3,
            f: Box::new(|img| img.mean_color().to_vec()),
        }))
    }

    /// Serializes every test in this crate that decodes video:
    /// `ingest_batch_matches_serial_issuance_with_one_decode` asserts
    /// **exact** deltas of the process-global `frames_decoded` counter, so
    /// any concurrently decoding test would perturb it.
    static DECODE_COUNTER_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn ingest_batch_matches_serial_issuance_with_one_decode() {
        use deeplens_codec::video::frames_decoded;
        let _serialize = serialize_decodes();
        let bytes = encoded(10);

        let want = {
            let s = crate::session::Session::ephemeral().unwrap();
            let mut b = s.ingest_batch();
            b.add_encoded_source("cam", bytes.clone()).unwrap();
            b.ingest(tile_featurize(16), "cam", 0..10, "a").unwrap();
            b.ingest(tile_featurize(8), "cam", 2..9, "b").unwrap();
            b.ingest(
                Pipeline::new(Box::new(WholeImageGenerator)),
                "cam",
                4..10,
                "c",
            )
            .unwrap();
            let before = frames_decoded();
            let counts = b.run_serial().unwrap();
            assert_eq!(
                frames_decoded() - before,
                10 + 9 + 10,
                "serial issuance pays a prefix decode per job"
            );
            (counts, s)
        };

        let got = {
            let s = crate::session::Session::ephemeral().unwrap();
            let mut b = s.ingest_batch();
            b.add_encoded_source("cam", bytes).unwrap();
            b.ingest(tile_featurize(16), "cam", 0..10, "a").unwrap();
            b.ingest(tile_featurize(8), "cam", 2..9, "b").unwrap();
            b.ingest(
                Pipeline::new(Box::new(WholeImageGenerator)),
                "cam",
                4..10,
                "c",
            )
            .unwrap();
            let counts = b.run().unwrap();
            assert_eq!(
                s.frame_cache().lock().decoded(),
                10,
                "the shared scan decodes the union window exactly once"
            );
            (counts, s)
        };

        assert_eq!(got.0, want.0);
        for name in ["a", "b", "c"] {
            let g = got.1.catalog.snapshot(name).unwrap();
            let w = want.1.catalog.snapshot(name).unwrap();
            assert_eq!(g.patches, w.patches, "collection '{name}'");
        }
    }

    /// Hold [`DECODE_COUNTER_LOCK`] for the rest of a decoding test.
    fn serialize_decodes() -> std::sync::MutexGuard<'static, ()> {
        DECODE_COUNTER_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// `frames(n)` as a DLV1 stream.
    fn encoded(n: u64) -> Vec<u8> {
        use deeplens_codec::video::{encode_video, VideoConfig};
        encode_video(&frames(n), VideoConfig::default()).unwrap()
    }

    #[test]
    fn ingest_batch_encoded_source_jobs_share_the_scan() {
        let _serialize = serialize_decodes();
        let bytes = encoded(6);
        let s = crate::session::Session::ephemeral().unwrap();
        let mut b = s.ingest_batch();
        b.add_encoded_source("cam", bytes.clone()).unwrap();
        b.ingest(tile_featurize(16), "cam", 0..6, "x").unwrap();
        b.ingest(tile_featurize(16), "cam", 3..6, "y").unwrap();
        let counts = b.run().unwrap();
        assert_eq!(counts, vec![24, 12]);
        assert_eq!(s.frame_cache().lock().decoded(), 6, "one shared decode");
        // Reference: the plain session pipeline path over the decoded frames.
        let imgs = deeplens_codec::video::decode_video(&bytes).unwrap();
        let s2 = crate::session::Session::ephemeral().unwrap();
        s2.run_pipeline(
            &tile_featurize(16),
            imgs.iter().enumerate().map(|(i, f)| (i as u64, f)),
            "cam",
            "x",
        )
        .unwrap();
        s2.run_pipeline(
            &tile_featurize(16),
            imgs[3..].iter().enumerate().map(|(i, f)| (3 + i as u64, f)),
            "cam",
            "y",
        )
        .unwrap();
        for name in ["x", "y"] {
            assert_eq!(
                s.catalog.snapshot(name).unwrap().patches,
                s2.catalog.snapshot(name).unwrap().patches
            );
        }
    }

    #[test]
    fn ingest_batch_rejects_bad_configuration_up_front() {
        let _serialize = serialize_decodes();
        let s = crate::session::Session::ephemeral().unwrap();
        let mut b = s.ingest_batch();
        b.add_encoded_source("cam", encoded(2)).unwrap();
        // Duplicate source name.
        assert!(matches!(
            b.add_encoded_source("cam", encoded(2)),
            Err(DlError::Conflict(_))
        ));
        // Unknown source.
        assert!(matches!(
            b.ingest(tile_featurize(16), "missing", 0..2, "o"),
            Err(DlError::NotFound(_))
        ));
        // Invalid pipeline is rejected at enqueue, not at run.
        assert!(matches!(
            b.ingest(
                Pipeline::new(Box::new(TileGenerator { tile: 0 })),
                "cam",
                0..2,
                "o"
            ),
            Err(DlError::TypeError(_))
        ));
        // A window past the end of the stream fails the run, catalog
        // untouched.
        b.ingest(tile_featurize(16), "cam", 0..5, "o").unwrap();
        assert!(matches!(b.run(), Err(DlError::Codec(_))));
        assert!(s.catalog.snapshot("o").is_err());
        assert_eq!(s.catalog.next_patch_id(), PatchId(0));
        // Empty batches and empty windows are fine.
        let b = s.ingest_batch();
        assert!(b.is_empty());
        assert!(b.run().unwrap().is_empty());
        let mut b = s.ingest_batch();
        b.add_encoded_source("cam", encoded(2)).unwrap();
        b.ingest(tile_featurize(16), "cam", 1..1, "empty").unwrap();
        assert_eq!(b.run().unwrap(), vec![0]);
        assert_eq!(s.catalog.snapshot("empty").unwrap().len(), 0);
    }

    #[test]
    fn ingest_batch_run_and_serial_agree_on_window_overruns() {
        // An empty window past the end of the stream is still an overrun:
        // `run` must reject exactly the batches `run_serial` rejects
        // (regression: `run` once answered Ok(vec![0]) for a 9..9 window
        // over a 2-frame stream), and a non-empty overrun the same way.
        let _serialize = serialize_decodes();
        let bytes = encoded(2);
        let s = crate::session::Session::ephemeral().unwrap();
        let overrun = |window: Range<u64>, serial: bool| {
            let mut b = s.ingest_batch();
            b.add_encoded_source("cam", bytes.clone()).unwrap();
            b.add_encoded_source("idle", bytes.clone()).unwrap();
            b.ingest(tile_featurize(16), "cam", window, "o").unwrap();
            if serial {
                b.run_serial()
            } else {
                b.run()
            }
        };
        for window in [9..9, 5..5, 1..3] {
            assert!(matches!(
                overrun(window.clone(), false),
                Err(DlError::Codec(_))
            ));
            assert!(matches!(overrun(window, true), Err(DlError::Codec(_))));
        }
        // A stream whose header does not parse fails even an empty window.
        for serial in [false, true] {
            let mut b = s.ingest_batch();
            b.add_encoded_source("garbage", vec![1, 2, 3]).unwrap();
            b.ingest(tile_featurize(16), "garbage", 0..0, "o").unwrap();
            let res = if serial { b.run_serial() } else { b.run() };
            assert!(matches!(res, Err(DlError::Codec(_))), "serial={serial}");
        }
        assert!(s.catalog.snapshot("o").is_err(), "nothing published");
    }

    #[test]
    fn ingest_batch_stage_error_leaves_catalog_untouched() {
        // Job 0 is healthy, job 1 fails mid-stream: the whole batch must
        // surface the error with no collection (of either job) published
        // and no ids consumed.
        let _serialize = serialize_decodes();
        let s = crate::session::Session::ephemeral().unwrap();
        let mut b = s.ingest_batch();
        b.add_encoded_source("cam", encoded(6)).unwrap();
        b.ingest(tile_featurize(16), "cam", 0..6, "good").unwrap();
        b.ingest(
            Pipeline::new(Box::new(WholeImageGenerator)).then(Box::new(FailOnFrame { frame: 4 })),
            "cam",
            0..6,
            "bad",
        )
        .unwrap();
        let res = b.run();
        assert!(matches!(res, Err(DlError::TypeError(_))));
        assert!(s.catalog.snapshot("good").is_err(), "batch is atomic");
        assert!(s.catalog.snapshot("bad").is_err());
        assert_eq!(s.catalog.next_patch_id(), PatchId(0), "no ids consumed");
    }

    /// A transformer that breaks §2.2's lineage contract: its output names
    /// another frame than its input.
    struct Relabel;

    impl Transformer for Relabel {
        fn name(&self) -> &str {
            "relabel"
        }
        fn input_schema(&self) -> PatchSchema {
            PatchSchema::pixels()
        }
        fn output_schema(&self) -> PatchSchema {
            PatchSchema::features(1)
        }
        fn transform(&self, _patch: Patch, ids: &mut PatchIdRange) -> Result<Patch> {
            Ok(Patch::features(
                ids.alloc(),
                ImgRef::frame("elsewhere", 0),
                vec![1.0],
            ))
        }
    }

    /// A generator that breaks the same contract: its patches name the
    /// frame after theirs.
    struct NextFrame;

    impl Generator for NextFrame {
        fn name(&self) -> &str {
            "next-frame"
        }
        fn output_schema(&self) -> PatchSchema {
            PatchSchema::pixels()
        }
        fn generate(
            &self,
            img_ref: &ImgRef,
            img: &Image,
            ids: &mut PatchIdRange,
        ) -> Result<Vec<Patch>> {
            let next = ImgRef::frame(img_ref.source.clone(), img_ref.frame_no + 1);
            Ok(vec![Patch::pixels(ids.alloc(), next, img.clone())])
        }
    }

    #[test]
    fn featurizer_dim_mismatch_is_an_error_on_both_run_paths() {
        // A featurizer declaring dim 3 that returns 4 values, a transformer
        // whose output names another frame than its input, and a generator
        // whose patches name another frame than the one they came from.
        let lying = || {
            Pipeline::new(Box::new(WholeImageGenerator)).then(Box::new(FeaturizeTransformer {
                label: "lying".into(),
                dim: 3,
                f: Box::new(|_| vec![0.0; 4]),
            }))
        };
        let relabel = || Pipeline::new(Box::new(WholeImageGenerator)).then(Box::new(Relabel));
        let next_frame = || Pipeline::new(Box::new(NextFrame));
        let untouched = |catalog: &SharedCatalog| {
            assert!(catalog.snapshot("out").is_err(), "no collection");
            assert_eq!(catalog.next_patch_id(), PatchId(0), "no ids consumed");
        };

        let _serialize = serialize_decodes();
        let imgs = frames(3);
        let bytes = encoded(3);
        for make in [lying as fn() -> Pipeline, relabel, next_frame] {
            let catalog = SharedCatalog::new();
            let res = make().run(
                imgs.iter().enumerate().map(|(i, f)| (i as u64, f)),
                "vid",
                &catalog,
                "out",
                &serial(),
            );
            assert!(matches!(res, Err(DlError::SchemaMismatch(_))), "{res:?}");
            untouched(&catalog);

            let s = crate::session::Session::ephemeral().unwrap();
            let mut b = s.ingest_batch();
            b.add_encoded_source("cam", bytes.clone()).unwrap();
            b.ingest(make(), "cam", 0..3, "out").unwrap();
            let res = b.run();
            assert!(matches!(res, Err(DlError::SchemaMismatch(_))), "{res:?}");
            untouched(&s.catalog);
        }
    }

    #[test]
    fn session_frame_cache_spans_batches_and_is_boundable() {
        let _serialize = serialize_decodes();
        let bytes = encoded(8);
        let s = crate::session::Session::ephemeral().unwrap();
        let run_once = |s: &crate::session::Session, out: &str| {
            let mut b = s.ingest_batch();
            b.add_encoded_source("cam", bytes.clone()).unwrap();
            b.ingest(tile_featurize(16), "cam", 0..8, out).unwrap();
            b.run().unwrap()
        };
        let decoded = |s: &crate::session::Session| s.frame_cache().lock().decoded();
        run_once(&s, "first");
        assert_eq!(decoded(&s), 8);
        // Second batch over the same stream: served from the session cache.
        run_once(&s, "second");
        assert_eq!(decoded(&s), 8, "cache spans batches: no further decode");
        assert_eq!(
            s.catalog.snapshot("second").unwrap().len(),
            s.catalog.snapshot("first").unwrap().len()
        );
        // Disabling retention forces a re-decode.
        *s.frame_cache().lock() = deeplens_codec::FrameCache::new(0);
        run_once(&s, "third");
        assert_eq!(decoded(&s), 8, "capacity 0 retains nothing: full rescan");
    }
}
