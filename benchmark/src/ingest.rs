//! `ingest_video`: the ETL path, in-process. One operation is one
//! `PipelineBatch` — three pipelines over one encoded 48-frame clip — whose
//! outputs replace `out_0..2`; `out_0` carries a Ball-Tree index, so every
//! operation also runs the index carry. The clips cycle through a pool
//! larger than the session's frame cache, so every operation decodes.
//! DLV1 decode and generate/transform dominate; the query layers idle.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::api::{self, Session, SharedCatalog};
use crate::gen;
use crate::stats::Fnv;
use crate::trace::Tracer;
use crate::workload::{EngineCounters, Kind, Outcome, Spec, Verification, Workload};

pub struct IngestVideo {
    catalog: Arc<SharedCatalog>,
    /// The pool of encoded clips. Encoding them is input generation: it
    /// happens once per process and is charged to no metric.
    clips: &'static Vec<Vec<u8>>,
}

/// Patches per output of one operation: tiles × frames, frames, tiles ×
/// frames.
fn expected_counts() -> Vec<usize> {
    let tiles = ((gen::FRAME_EDGE / gen::TILE_EDGE) * (gen::FRAME_EDGE / gen::TILE_EDGE)) as usize;
    vec![
        tiles * gen::CLIP_FRAMES,
        gen::CLIP_FRAMES,
        tiles * gen::CLIP_FRAMES,
    ]
}

/// A session whose `out_0` already exists and carries the index every later
/// operation has to carry forward.
fn indexed_session(clip: &[u8], clock: &mut Duration) -> (Arc<SharedCatalog>, Session) {
    let catalog = Arc::new(SharedCatalog::new());
    let session = api::session(&catalog);
    api::on_clock(clock, || {
        api::ingest(&session, clip.to_vec(), false).expect("first ingest");
        session
            .build_ball_index(api::INGEST_OUTPUTS[0], api::BY_FEAT)
            .expect("index the first output");
    });
    (catalog, session)
}

fn digest(fnv: &mut Fnv, outputs: &[Vec<api::Patch>]) {
    for patch in outputs.iter().flatten() {
        fnv.u64(patch.id.0);
        fnv.u64(patch.img_ref.frame_no);
        for f in patch.data.features().unwrap_or_default() {
            fnv.u64(u64::from(f.to_bits()));
        }
    }
}

impl Workload for IngestVideo {
    type Inputs = Vec<Vec<u8>>;
    type Op = Vec<u8>;
    type Client = Session;

    fn spec() -> Spec {
        Spec {
            name: "ingest_video",
            warm_ops: 8,
            segment_ops: 20,
            replay_ops: 48,
            primary: Kind::Write,
            fresh_fixture_per_segment: true,
        }
    }

    fn inputs(seed: u64) -> Vec<Vec<u8>> {
        (0..gen::CLIPS)
            .map(|c| api::encode_clip(&gen::clip_frames(seed, c)))
            .collect()
    }

    fn build(clips: &'static Vec<Vec<u8>>) -> (Self, Vec<Session>, Duration) {
        let mut clock = Duration::ZERO;
        let (catalog, session) = indexed_session(&clips[0], &mut clock);
        (IngestVideo { catalog, clips }, vec![session], clock)
    }

    fn op(&self, _client: usize, _clients: usize, i: u64) -> Vec<u8> {
        self.clips[gen::ingest_clip(i)].clone()
    }

    fn exec(&self, session: &mut Session, clip: Vec<u8>) -> Outcome {
        Outcome {
            kind: Kind::Write,
            ok: api::ingest(session, clip, false).is_ok_and(|counts| counts == expected_counts()),
        }
    }

    /// Two fresh catalogs ingest the same clips, one through the batch path
    /// and one through the serial reference; ids, payloads and lineage
    /// parents must agree patch for patch.
    fn verify(&self, _clients: &mut [Session]) -> Verification {
        let mut v = Verification::default();
        let (batched_catalog, batched) = indexed_session(&self.clips[0], &mut Duration::default());
        let (serial_catalog, serial) = indexed_session(&self.clips[0], &mut Duration::default());
        for clip in &self.clips[1..4] {
            let counts = api::ingest(&batched, clip.clone(), false);
            let reference = api::ingest(&serial, clip.clone(), true);
            let expected = api::ingest_outputs(&serial_catalog);
            let mut fnv = Fnv::default();
            digest(&mut fnv, &expected);
            v.record(
                counts.is_ok()
                    && counts == reference
                    && api::ingest_outputs(&batched_catalog) == expected,
                &fnv.finish().to_le_bytes(),
            );
        }
        v
    }

    fn counters(&self, _clients: &mut [Session]) -> EngineCounters {
        api::engine_counters(&self.catalog)
    }

    /// The ingest stages one at a time: decode the clip, then run each
    /// pipeline over the decoded frames (generate → transform →
    /// materialize, which from outside is one call).
    fn replay(clips: &'static Vec<Vec<u8>>, ops: u64, tracer: &mut Tracer) -> Vec<(Kind, f64)> {
        let (_catalog, session) = indexed_session(&clips[0], &mut Duration::default());
        let pipelines = api::ingest_pipelines();
        (0..ops)
            .map(|i| {
                let clip = &clips[gen::ingest_clip(i)];
                let start = Instant::now();
                let root = tracer.open("op", None, i);
                let frames = tracer.span("codec.video.decode", root, i, || {
                    api::decode_video(clip).expect("decode a clip this harness encoded")
                });
                for (pipeline, output) in pipelines.iter().zip(api::INGEST_OUTPUTS) {
                    tracer.span("core.etl.pipeline_run", root, i, || {
                        api::ingest_decoded(&session, pipeline, &frames, output)
                    });
                }
                tracer.close(root);
                (Kind::Write, start.elapsed().as_secs_f64() * 1e3)
            })
            .collect()
    }
}
