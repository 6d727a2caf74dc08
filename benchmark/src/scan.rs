//! `scan_analytics`: selective scans over a 200 000-row detection log,
//! in-process. One operation is a bundle of four scans with windows no
//! earlier operation used: two counts (one over the sorted `frameno`
//! column, where zone maps prune; one over the unsorted `score` column,
//! where nothing prunes) and two narrow materializing scans (`Full` and
//! `MetaOnly`). Zone-map probing, chunk decode, row materialization and the
//! result cache's *insert* of large values dominate; there is no wire and
//! no join kernel. The 1 024-entry result cache fills with materialized
//! rows, which is where an entry-bounded cache shows in `peak_rss_mb`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::api::{self, CachedResult, Projection, ScanFilter, ScanResult, Session, SharedCatalog};
use crate::gen::{self, ScanBundle};
use crate::stats::Fnv;
use crate::trace::Tracer;
use crate::workload::{EngineCounters, Kind, Outcome, Spec, Verification, Workload};

pub struct ScanAnalytics {
    inputs: &'static ScanInputs,
    catalog: Arc<SharedCatalog>,
}

pub struct ScanInputs {
    seed: u64,
    log: Vec<gen::LogRow>,
}

fn log_session(inputs: &ScanInputs, clock: &mut Duration) -> (Arc<SharedCatalog>, Session) {
    let catalog = Arc::new(SharedCatalog::new());
    let session = api::session(&catalog);
    let patches = api::log_patches(&catalog, &inputs.log);
    api::on_clock(clock, || {
        catalog.materialize(api::LOG, patches);
        session
            .build_columnar(api::LOG)
            .expect("back the log that was just materialized");
    });
    (catalog, session)
}

fn digest(fnv: &mut Fnv, result: &ScanResult) {
    fnv.u64(result.stats.rows_matched as u64);
    for p in &result.patches {
        fnv.u64(p.id.0);
    }
}

impl Workload for ScanAnalytics {
    type Inputs = ScanInputs;
    type Op = ScanBundle;
    type Client = Session;

    fn spec() -> Spec {
        Spec {
            name: "scan_analytics",
            // 320 bundles insert 1 280 results: the 1 024-entry cache is
            // full, and evicting, before the first timed scan.
            warm_ops: 320,
            segment_ops: 120,
            replay_ops: 200,
            primary: Kind::Read,
            fresh_fixture_per_segment: false,
        }
    }

    fn inputs(seed: u64) -> ScanInputs {
        ScanInputs {
            seed,
            log: gen::log_rows(seed),
        }
    }

    fn build(inputs: &'static ScanInputs) -> (Self, Vec<Session>, Duration) {
        let mut clock = Duration::ZERO;
        let (catalog, session) = log_session(inputs, &mut clock);
        (ScanAnalytics { inputs, catalog }, vec![session], clock)
    }

    fn op(&self, _client: usize, _clients: usize, i: u64) -> ScanBundle {
        gen::scan_bundle(self.inputs.seed, i)
    }

    fn exec(&self, session: &mut Session, bundle: ScanBundle) -> Outcome {
        let ok = api::bundle_scans(&bundle)
            .iter()
            .all(|(filter, projection)| {
                session
                    .scan(api::LOG, filter, *projection)
                    .is_ok_and(|r| r.stats.used_columnar)
            });
        Outcome {
            kind: Kind::Read,
            ok,
        }
    }

    /// Every scan of bundles past anything a run reaches, against
    /// `row_scan` over the same snapshot's rows.
    fn verify(&self, clients: &mut [Session]) -> Verification {
        let mut v = Verification::default();
        let rows = self.catalog.snapshot(api::LOG).expect("log");
        for i in 0..8 {
            for (filter, projection) in
                api::bundle_scans(&gen::scan_bundle(self.inputs.seed, (1 << 14) + i))
            {
                let scanned = clients[0].scan(api::LOG, &filter, projection);
                let expected = api::row_scan(&rows.patches, &filter, projection);
                let mut fnv = Fnv::default();
                digest(&mut fnv, &expected);
                v.record(
                    scanned.is_ok_and(|s| {
                        s.patches == expected.patches
                            && s.stats.rows_matched == expected.stats.rows_matched
                    }),
                    &fnv.finish().to_le_bytes(),
                );
            }
        }
        v
    }

    fn counters(&self, _clients: &mut [Session]) -> EngineCounters {
        api::engine_counters(&self.catalog)
    }

    /// `Session::scan` taken apart: snapshot, cache key and lookup, the
    /// columnar scan itself, and the cache insert of the result.
    fn replay(inputs: &'static ScanInputs, ops: u64, tracer: &mut Tracer) -> Vec<(Kind, f64)> {
        let (catalog, session) = log_session(inputs, &mut Duration::default());
        let pool = session.pool();
        (0..ops)
            .map(|i| {
                let scans = api::bundle_scans(&gen::scan_bundle(inputs.seed, i));
                let start = Instant::now();
                let root = tracer.open("op", None, i);
                for (filter, projection) in &scans {
                    replay_scan(&catalog, &pool, filter, *projection, tracer, root, i);
                }
                tracer.close(root);
                (Kind::Read, start.elapsed().as_secs_f64() * 1e3)
            })
            .collect()
    }
}

fn replay_scan(
    catalog: &SharedCatalog,
    pool: &api::WorkerPool,
    filter: &ScanFilter,
    projection: Projection,
    tracer: &mut Tracer,
    root: Option<usize>,
    op: u64,
) {
    let snap = tracer.span("core.shared.snapshot", root, op, || {
        catalog.snapshot(api::LOG).expect("log")
    });
    let cache = catalog.result_cache();
    let (key, cached) = tracer.span("core.cache.get", root, op, || {
        let key = api::fingerprint::scan_key(snap.version(), filter, projection)
            .expect("a versioned snapshot has a key");
        let cached = cache.get(&key);
        (key, cached)
    });
    if cached.is_some() {
        return;
    }
    let result = tracer.span("core.scan.columnar_scan", root, op, || {
        snap.scan(filter, projection, pool)
    });
    tracer.span("core.cache.insert", root, op, || {
        cache.insert(key, CachedResult::Scan(result.clone()));
        std::hint::black_box(result);
    });
}
