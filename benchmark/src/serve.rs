//! The two served workloads. Both stand the server up in-process over
//! loopback, with every knob at its default, and drive it from
//! `min(nproc, 4)` connections in a closed loop; they differ only in
//! whether a read can repeat.
//!
//! * `serve_cold` — every read is new, so the result cache answers nothing
//!   and each request pays snapshot → plan → scan → kernel / Ball-Tree.
//! * `serve_mixed_rw` — reads come from a pool of 36 parameter sets, so
//!   most are cache replays, and one operation in twenty replaces `live`,
//!   which runs the carry / delta-index / columnar-rebuild path and
//!   invalidates exactly the `live` reads.

use std::sync::Arc;
use std::time::Duration;

use crate::api::{self, BatchQuery, BatchResult, Client, Request, Response, SharedCatalog};
use crate::gen::{self, MixedOp, ReadParams};
use crate::stats::Fnv;
use crate::trace::Tracer;
use crate::workload::{EngineCounters, Kind, Outcome, Spec, Verification, Workload};

/// Members of every read `Batch`: one join, one dedup, the index probes.
const READ_MEMBERS: usize = 2 + gen::PROBES_PER_READ;

/// Closed-loop connections: callers that each wait for their reply. More
/// than the host has cores would measure the scheduler, not the server.
pub fn connections() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

pub enum ServeOp {
    Read(Vec<BatchQuery>),
    Write(Vec<Vec<f32>>),
}

/// The generated side of a served workload. The read pool and the write
/// payloads stay empty for `serve_cold`, which draws every read afresh and
/// never writes.
pub struct ServeInputs {
    seed: u64,
    gallery: Vec<Vec<f32>>,
    probes: Vec<Vec<f32>>,
    pool: Vec<ReadParams>,
    payloads: Vec<Vec<Vec<f32>>>,
}

/// The payload `live` holds once a run has quiesced.
const FINAL_PAYLOAD: usize = 1;

impl ServeInputs {
    /// The catalog the workload serves, with `live` at `live_payload` when
    /// the workload writes. Engine time goes to `clock`.
    fn catalog(
        &self,
        live_payload: usize,
        cache: bool,
        clock: &mut Duration,
    ) -> Arc<SharedCatalog> {
        let live = self.payloads.get(live_payload).cloned();
        api::serve_catalog(
            self.gallery.clone(),
            self.probes.clone(),
            live,
            cache,
            clock,
        )
    }
}

/// The fixture both served workloads run on; `MIXED` selects the read pool
/// and the writes.
pub struct Served<const MIXED: bool> {
    inputs: &'static ServeInputs,
    catalog: Arc<SharedCatalog>,
    server: api::ServerHandle,
}

pub type ServeCold = Served<false>;
pub type ServeMixedRw = Served<true>;

/// Fold a reply into the checksum.
fn digest(fnv: &mut Fnv, results: &[BatchResult]) {
    for r in results {
        match r {
            BatchResult::Pairs(pairs) => {
                fnv.u64(1);
                for (l, r) in pairs {
                    fnv.u64(u64::from(*l) << 32 | u64::from(*r));
                }
            }
            BatchResult::Clusters(clusters) => {
                fnv.u64(2);
                for c in clusters {
                    fnv.u64(c.len() as u64);
                    c.iter().for_each(|m| fnv.u64(u64::from(*m)));
                }
            }
            BatchResult::Hits(hits) => {
                fnv.u64(3);
                hits.iter().for_each(|h| fnv.u64(u64::from(*h)));
            }
        }
    }
}

/// The request `client` sends as its `i`-th operation.
fn request<const MIXED: bool>(
    inputs: &ServeInputs,
    client: usize,
    clients: usize,
    i: u64,
) -> ServeOp {
    if !MIXED {
        return ServeOp::Read(api::read_queries(&gen::cold_read(
            inputs.seed,
            client,
            clients,
            i,
        )));
    }
    match gen::mixed_op(inputs.seed, client, clients, i) {
        MixedOp::Read { pool_index } => ServeOp::Read(api::read_queries(&inputs.pool[pool_index])),
        MixedOp::Write { payload } => ServeOp::Write(inputs.payloads[payload].clone()),
    }
}

impl<const MIXED: bool> Workload for Served<MIXED> {
    type Inputs = ServeInputs;
    type Op = ServeOp;
    type Client = Client;

    fn spec() -> Spec {
        if MIXED {
            Spec {
                name: "serve_mixed_rw",
                // The first 72 operations read every pool entry twice.
                warm_ops: 60,
                segment_ops: 500,
                replay_ops: 200,
                primary: Kind::Read,
                fresh_fixture_per_segment: true,
            }
        } else {
            Spec {
                name: "serve_cold",
                // 200 requests of six members overfill the 1 024-entry
                // result cache: it is evicting before the first timed read.
                warm_ops: 100,
                segment_ops: 40,
                replay_ops: 200,
                primary: Kind::Read,
                fresh_fixture_per_segment: false,
            }
        }
    }

    fn inputs(seed: u64) -> ServeInputs {
        ServeInputs {
            seed,
            gallery: gen::gallery_rows(seed),
            probes: gen::probe_rows(seed),
            pool: if MIXED {
                gen::read_pool(seed)
            } else {
                Vec::new()
            },
            payloads: (0..if MIXED { gen::LIVE_PAYLOADS } else { 0 })
                .map(|p| gen::live_rows(seed, p))
                .collect(),
        }
    }

    fn build(inputs: &'static ServeInputs) -> (Self, Vec<Client>, Duration) {
        let mut clock = Duration::ZERO;
        let catalog = inputs.catalog(0, true, &mut clock);
        let (server, clients) = api::on_clock(&mut clock, || {
            let server = api::serve(catalog.clone(), api::ServerConfig::default())
                .expect("bind a loopback port");
            let clients: Vec<Client> = (0..connections())
                .map(|_| {
                    let mut c = Client::connect(server.local_addr()).expect("connect");
                    c.ping().expect("ping a fresh connection");
                    c
                })
                .collect();
            (server, clients)
        });
        let fixture = Served {
            inputs,
            catalog,
            server,
        };
        (fixture, clients, clock)
    }

    fn op(&self, client: usize, clients: usize, i: u64) -> ServeOp {
        request::<MIXED>(self.inputs, client, clients, i)
    }

    fn exec(&self, client: &mut Client, op: ServeOp) -> Outcome {
        match op {
            ServeOp::Read(queries) => Outcome {
                kind: Kind::Read,
                ok: client
                    .batch(queries)
                    .is_ok_and(|results| results.len() == READ_MEMBERS),
            },
            ServeOp::Write(rows) => Outcome {
                kind: Kind::Write,
                ok: client.materialize(api::LIVE, rows).is_ok(),
            },
        }
    }

    /// Served replies against `run_serial` on a cache-disabled catalog with
    /// the same rows. `serve_cold` checks reads far past anything a run
    /// reaches, so they execute instead of replaying the cache;
    /// `serve_mixed_rw` checks its whole pool on the quiesced final state.
    fn verify(&self, clients: &mut [Client]) -> Verification {
        let mut v = Verification::default();
        if MIXED {
            // Quiesce: with every connection idle, one last write fixes the
            // state of `live` whatever order the measured writes landed in.
            let ok = clients[0]
                .materialize(api::LIVE, self.inputs.payloads[FINAL_PAYLOAD].clone())
                .is_ok();
            v.record(ok, &[]);
        }
        let reads: Vec<ReadParams> = if MIXED {
            self.inputs.pool.clone()
        } else {
            (0..32)
                .map(|i| gen::cold_read(self.inputs.seed, 0, 1, (1 << 18) + i))
                .collect()
        };
        let reference = self
            .inputs
            .catalog(FINAL_PAYLOAD, false, &mut Duration::default());
        let session = api::session(&reference);
        for (i, params) in reads.iter().enumerate() {
            let served = clients[i % clients.len()].batch(api::read_queries(params));
            let expected = api::run_batch_serial(&session, api::read_queries(params));
            let mut fnv = Fnv::default();
            digest(&mut fnv, &expected);
            v.record(
                served.is_ok_and(|s| s == expected),
                &fnv.finish().to_le_bytes(),
            );
        }
        v
    }

    fn counters(&self, clients: &mut [Client]) -> EngineCounters {
        EngineCounters {
            delta_merges: clients[0].stats().map_or(0, |s| s.delta_merges),
            shed: self.server.shed(),
            ..api::engine_counters(&self.catalog)
        }
    }

    /// One served operation, taken apart along the server's own dispatch
    /// (`Connection::handle`): the client encodes, the server decodes,
    /// prices the request (one snapshot and one cache peek per member),
    /// admits it, executes it, and encodes the reply, which the client
    /// decodes. Only the socket and the thread hand-off are missing — they
    /// are what coverage below 1 stands for.
    fn replay(inputs: &'static ServeInputs, ops: u64, tracer: &mut Tracer) -> Vec<(Kind, f64)> {
        let catalog = inputs.catalog(0, true, &mut Duration::default());
        let session = api::session(&catalog);
        let admission = api::AdmissionController::new(api::AdmissionConfig::default());
        let mut op_ms = Vec::with_capacity(ops as usize);
        for i in 0..ops {
            let request = match request::<MIXED>(inputs, 0, 1, i) {
                ServeOp::Read(queries) => Request::Batch(queries),
                ServeOp::Write(rows) => Request::Materialize {
                    name: api::LIVE.into(),
                    rows,
                },
            };
            let start = std::time::Instant::now();
            let root = tracer.open("op", None, i);
            let wire = tracer.span("serve.protocol.request_encode", root, i, || {
                request.encode().expect("encode a request")
            });
            let decoded = tracer.span("serve.protocol.request_decode", root, i, || {
                Request::decode(&wire).expect("decode a request")
            });
            let (kind, response) = match decoded {
                Request::Batch(queries) => {
                    tracer.span("core.shared.snapshot", root, i, || {
                        for q in &queries {
                            let names: Vec<&str> = match q {
                                BatchQuery::SimilarityJoin { left, right, .. } => {
                                    vec![left, right]
                                }
                                BatchQuery::Dedup { collection, .. }
                                | BatchQuery::IndexProbe { collection, .. } => vec![collection],
                            };
                            std::hint::black_box(
                                catalog.snapshot_many(&names).expect("collections exist"),
                            );
                        }
                    });
                    tracer.span("core.cache.peek", root, i, || {
                        for key in api::read_cache_keys(&catalog, &queries) {
                            std::hint::black_box(catalog.result_cache().peek(&key));
                        }
                    });
                    let permit = tracer.span("serve.admission.admit", root, i, || {
                        admission.admit(1_000.0).expect("an idle controller admits")
                    });
                    let results = tracer.span("core.batch.run", root, i, || {
                        api::run_batch(&session, queries)
                    });
                    tracer.span("serve.admission.release", root, i, || drop(permit));
                    (Kind::Read, Response::Results(results))
                }
                Request::Materialize { name, rows } => {
                    let permit = tracer.span("serve.admission.admit", root, i, || {
                        admission.admit(1_000.0).expect("an idle controller admits")
                    });
                    tracer.span("core.shared.materialize", root, i, || {
                        let patches = api::feature_patches(&catalog, "wire", rows);
                        catalog.materialize(&name, patches);
                    });
                    tracer.span("serve.admission.release", root, i, || drop(permit));
                    (Kind::Write, Response::Ack)
                }
                other => unreachable!("the workloads send reads and writes only: {other:?}"),
            };
            let wire = tracer.span("serve.protocol.response_encode", root, i, || {
                response.encode().expect("encode a reply")
            });
            tracer.span("serve.protocol.response_decode", root, i, || {
                std::hint::black_box(Response::decode(&wire).expect("decode a reply"));
            });
            tracer.close(root);
            op_ms.push((kind, start.elapsed().as_secs_f64() * 1e3));
        }
        op_ms
    }
}
