//! Integration: shared-scan ETL batches (`Session::ingest_batch`) are
//! byte-identical to serial pipeline issuance for every thread count and
//! catalog shard count, each shared frame window is decoded exactly once
//! per batch (asserted via the codec decode counter), and a mid-batch
//! stage error leaves the shared catalog untouched.

mod harness;

use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock};

use deeplens::codec::video::{encode_video, frames_decoded, VideoConfig};
use deeplens::codec::{Image, Quality};
use deeplens::core::etl::{FeaturizeTransformer, TileGenerator, WholeImageGenerator};
use deeplens::prelude::*;
use harness::cases;

const CLIP_FRAMES: u64 = 10;

/// Serializes every test in this binary that decodes video: the k4 test
/// asserts **exact** deltas of the process-global decode counter, so any
/// concurrently decoding test would perturb it. Each test takes this lock
/// before its first decode.
static DECODE_COUNTER_LOCK: Mutex<()> = Mutex::new(());

/// One shared encoded clip for every test: a moving square over a textured
/// background, single sequential GOP (the decode-heaviest layout).
fn clip_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let frames: Vec<Image> = (0..CLIP_FRAMES)
            .map(|t| {
                let mut img = Image::solid(32, 32, [40, 60, 80]);
                img.fill_rect(2 + t as i64 * 2, 4, 10, 10, [220, 40, 40]);
                img.fill_rect(20, 2 + t as i64, 6, 6, [40, 220, 40]);
                img
            })
            .collect();
        encode_video(&frames, VideoConfig::sequential(Quality::High)).unwrap()
    })
}

/// The pipeline zoo the random batches draw from.
fn make_pipeline(kind: u8) -> Pipeline {
    match kind % 3 {
        0 => Pipeline::new(Box::new(TileGenerator { tile: 16 })).then(Box::new(
            FeaturizeTransformer {
                label: "mean-color".into(),
                dim: 3,
                f: Box::new(|img| img.mean_color().to_vec()),
            },
        )),
        1 => Pipeline::new(Box::new(WholeImageGenerator)).then(Box::new(FeaturizeTransformer {
            label: "frame-mean".into(),
            dim: 3,
            f: Box::new(|img| img.mean_color().to_vec()),
        })),
        _ => Pipeline::new(Box::new(TileGenerator { tile: 8 })),
    }
}

fn session(threads: usize, shards: usize) -> Session {
    let catalog = Arc::new(SharedCatalog::with_shards(shards));
    let mut s = Session::ephemeral_attached(catalog).unwrap();
    s.set_threads(threads);
    s
}

/// Enqueue the spec'd jobs; returns the output names used.
fn fill_batch(batch: &mut PipelineBatch<'_>, specs: &[(u8, u64, u64)]) -> Vec<String> {
    batch
        .add_encoded_source("cam", clip_bytes().to_vec())
        .unwrap();
    let mut outputs = Vec::new();
    for (i, &(kind, start, len)) in specs.iter().enumerate() {
        let start = start % CLIP_FRAMES;
        let window: Range<u64> = start..(start + 1 + len).min(CLIP_FRAMES);
        let out = format!("out_{i}");
        batch
            .ingest(make_pipeline(kind), "cam", window, &out)
            .unwrap();
        outputs.push(out);
    }
    outputs
}

/// A finished run: the session plus how many ids its batch consumed
/// (`next_patch_id` *allocates*, so consumption is captured exactly once,
/// right after the run).
struct RunResult {
    session: Session,
    ids_consumed: u64,
}

/// Run the spec'd batch on a fresh session (shared-scan or serial).
fn run_specs(threads: usize, shards: usize, specs: &[(u8, u64, u64)], serial: bool) -> RunResult {
    let s = session(threads, shards);
    let mut batch = s.ingest_batch();
    fill_batch(&mut batch, specs);
    let counts = if serial {
        batch.run_serial().unwrap()
    } else {
        batch.run().unwrap()
    };
    assert_eq!(counts.len(), specs.len());
    let ids_consumed = s.catalog.next_patch_id().0;
    RunResult {
        session: s,
        ids_consumed,
    }
}

/// Byte-level comparison of two runs over `outputs`: patches (ids,
/// payloads, metadata, `ImgRef`s, parents) and total id consumption must
/// agree.
fn assert_catalogs_identical(a: &RunResult, b: &RunResult, outputs: &[String], ctx: &str) {
    for name in outputs {
        let ca = a.session.catalog.snapshot(name).unwrap();
        let cb = b.session.catalog.snapshot(name).unwrap();
        assert_eq!(ca.patches, cb.patches, "{ctx}: collection '{name}'");
    }
    assert_eq!(a.ids_consumed, b.ids_consumed, "{ctx}: id consumption");
}

#[test]
fn k4_shared_scan_decodes_once_and_matches_serial() {
    // The acceptance shape: K=4 pipelines over overlapping windows of one
    // encoded source — one decode for the whole batch, K decodes serially,
    // identical bytes out.
    let _serialize = DECODE_COUNTER_LOCK
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let specs: [(u8, u64, u64); 4] = [(0, 0, 9), (1, 2, 7), (2, 4, 5), (0, 0, 5)];

    let before = frames_decoded();
    let shared = run_specs(2, 16, &specs, false);
    assert_eq!(
        frames_decoded() - before,
        CLIP_FRAMES,
        "the union frame window is decoded exactly once per batch"
    );

    let before = frames_decoded();
    let serial = run_specs(2, 16, &specs, true);
    assert_eq!(
        frames_decoded() - before,
        10 + 10 + 10 + 6,
        "serial issuance decodes each job's prefix privately"
    );

    let outputs: Vec<String> = (0..specs.len()).map(|i| format!("out_{i}")).collect();
    assert_catalogs_identical(&shared, &serial, &outputs, "k4 acceptance");
    assert!(!shared.session.catalog.snapshot("out_0").unwrap().is_empty());
}

#[test]
fn mid_batch_stage_error_leaves_shared_catalog_untouched() {
    // Job 0 is healthy; job 1 fails on a frame in the middle of its
    // window. The batch surfaces the error with *nothing* published — not
    // even the healthy job — and no ids consumed.
    struct FailOn {
        frame: i64,
    }
    impl Transformer for FailOn {
        fn name(&self) -> &str {
            "fail-on"
        }
        fn input_schema(&self) -> PatchSchema {
            PatchSchema::pixels()
        }
        fn output_schema(&self) -> PatchSchema {
            PatchSchema::features(1)
        }
        fn transform(&self, patch: Patch, ids: &mut PatchIdRange) -> deeplens::core::Result<Patch> {
            if patch.get_int("frameno") == Some(self.frame) {
                return Err(DlError::TypeError("injected mid-batch failure".into()));
            }
            Ok(patch.into_derived(ids.alloc(), PatchData::Features(vec![1.0])))
        }
    }
    let _serialize = DECODE_COUNTER_LOCK
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let s = session(4, 16);
    let mut batch = s.ingest_batch();
    batch
        .add_encoded_source("cam", clip_bytes().to_vec())
        .unwrap();
    batch
        .ingest(make_pipeline(0), "cam", 0..CLIP_FRAMES, "healthy")
        .unwrap();
    batch
        .ingest(
            Pipeline::new(Box::new(WholeImageGenerator)).then(Box::new(FailOn { frame: 7 })),
            "cam",
            0..CLIP_FRAMES,
            "failing",
        )
        .unwrap();
    let res = batch.run();
    assert!(matches!(res, Err(DlError::TypeError(_))), "got {res:?}");
    assert!(
        s.catalog.snapshot("healthy").is_err(),
        "the batch is atomic: the healthy job is rolled up with the failure"
    );
    assert!(s.catalog.snapshot("failing").is_err());
    assert_eq!(s.catalog.next_patch_id(), PatchId(0), "no ids consumed");
}

/// K random pipelines over random (overlapping) frame windows of one
/// encoded source produce catalogs byte-identical to serial issuance —
/// across 1/2/4 worker threads and 1/16 catalog shards, with every
/// configuration agreeing on the bytes.
#[test]
fn random_ingest_batches_byte_identical_to_serial() {
    cases("random_ingest_batches_byte_identical_to_serial", 12, |g| {
        let specs: Vec<(u8, u64, u64)> = (0..g.range(2, 6))
            .map(|_| (g.below(3) as u8, g.below(10), g.below(10)))
            .collect();
        let _serialize = DECODE_COUNTER_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let outputs: Vec<String> = (0..specs.len()).map(|i| format!("out_{i}")).collect();
        let reference = run_specs(1, 1, &specs, true);
        for shards in [1usize, 16] {
            for threads in [1usize, 2, 4] {
                let got = run_specs(threads, shards, &specs, false);
                assert_catalogs_identical(
                    &got,
                    &reference,
                    &outputs,
                    &format!("{threads} threads / {shards} shards"),
                );
            }
        }
    });
}
