//! What a workload is, and the closed-loop runner all four share.
//!
//! A workload builds its fixture, hands out one client per closed-loop
//! caller, and maps `(client, operation index)` to an operation — a pure
//! function of the seed, so the sequence is fixed before anything is timed.
//! The runner executes that sequence in fixed-size segments: operations are
//! generated before a segment's clock starts, every client sends its next
//! operation only after the previous reply, and a segment ends when every
//! client has finished its share.

use std::time::{Duration, Instant};

use crate::stats::{self, Fnv};
use crate::trace::Tracer;

/// Whether an operation reads or changes the catalog. Latencies are kept
/// per kind; the workload names the kind its `op_p50_ms` reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read,
    Write,
}

/// What one executed operation reports back.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    pub kind: Kind,
    /// `false` for an error reply, a shed request, or a reply of the wrong
    /// shape — anything a caller would count as not served.
    pub ok: bool,
}

/// Replies compared against the reference path, outside any timing.
#[derive(Debug, Default, Clone, Copy)]
pub struct Verification {
    pub checked: u64,
    pub mismatched: u64,
    fnv: Fnv,
}

impl Verification {
    /// Record one comparison; `reference` (a digest of the reference
    /// reply) feeds the checksum.
    pub fn record(&mut self, matches: bool, reference: &[u8]) {
        self.checked += 1;
        self.mismatched += u64::from(!matches);
        self.fnv.bytes(reference);
    }

    /// FNV over the reference replies: one seed gives one checksum.
    pub fn checksum(&self) -> u64 {
        self.fnv.finish()
    }
}

/// Counters a workload reads off the engine after its measured phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineCounters {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub delta_merges: u64,
    pub shed: u64,
    pub rows_materialized: u64,
    pub frames_decoded: u64,
}

impl EngineCounters {
    fn zip(self, o: EngineCounters, f: impl Fn(u64, u64) -> u64) -> EngineCounters {
        EngineCounters {
            cache_hits: f(self.cache_hits, o.cache_hits),
            cache_misses: f(self.cache_misses, o.cache_misses),
            cache_evictions: f(self.cache_evictions, o.cache_evictions),
            delta_merges: f(self.delta_merges, o.delta_merges),
            shed: f(self.shed, o.shed),
            rows_materialized: f(self.rows_materialized, o.rows_materialized),
            frames_decoded: f(self.frames_decoded, o.frames_decoded),
        }
    }

    pub fn plus(self, other: EngineCounters) -> EngineCounters {
        self.zip(other, |a, b| a + b)
    }

    pub fn since(self, earlier: EngineCounters) -> EngineCounters {
        self.zip(earlier, |now, then| now - then)
    }
}

/// The fixed facts of a workload. `segment_ops` is sized so one segment
/// takes about a third of a second on the seed commit on the 2-core
/// reference host (see the README's sizing table) — a run then holds dozens
/// of segments to take its decile over — and is never changed afterwards:
/// later results stay comparable only if a segment stays the same work.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Untimed operations per client on a fresh fixture, enough to fill
    /// the engine's caches to the state the measured operations then see.
    pub warm_ops: u64,
    /// Timed operations per client per segment.
    pub segment_ops: u64,
    /// Operations the traced run replays, once with spans off and once with
    /// spans on: 200, or as many as take about a second each way.
    pub replay_ops: u64,
    /// The kind `op_p50_ms` reports: what the workload's callers wait for.
    pub primary: Kind,
    /// Build a fresh fixture before every segment instead of once per run.
    /// Set for the workloads that write: the engine's lineage store keeps a
    /// record per written patch for ever, and its rehashes stall a writer
    /// for seconds once it holds millions, so on a long-lived fixture each
    /// segment would be slower than the one before. Starting every segment
    /// from the same state makes segments repeat the same experiment.
    pub fresh_fixture_per_segment: bool,
}

pub trait Workload: Sized + Sync {
    /// Everything generated from the seed, made once per process.
    type Inputs: Sync + 'static;
    type Op: Send;
    type Client: Send;

    fn spec() -> Spec;

    fn inputs(seed: u64) -> Self::Inputs;

    /// Build a fresh fixture and connect its clients. The duration is the
    /// time spent inside engine calls; handling the inputs is excluded.
    fn build(inputs: &'static Self::Inputs) -> (Self, Vec<Self::Client>, Duration);

    /// The `i`-th operation of `client` (of `clients`).
    fn op(&self, client: usize, clients: usize, i: u64) -> Self::Op;

    fn exec(&self, client: &mut Self::Client, op: Self::Op) -> Outcome;

    /// Compare replies with the reference path. Runs after the measured
    /// phase, on the quiesced fixture.
    fn verify(&self, clients: &mut [Self::Client]) -> Verification;

    fn counters(&self, clients: &mut [Self::Client]) -> EngineCounters;

    /// Replay this workload's first `ops` operations in-process on a fresh
    /// fixture, one public engine call at a time, opening a span around
    /// each. Returns the kind and wall time (ms) of every operation.
    fn replay(inputs: &'static Self::Inputs, ops: u64, tracer: &mut Tracer) -> Vec<(Kind, f64)>;
}

/// Consecutive operations of one client timed as a unit. It equals the
/// write period of `serve_mixed_rw`, so every batch there holds exactly one
/// write and the reads around it; every `segment_ops` is a multiple of it.
pub const BATCH_OPS: u64 = 20;

/// One executed segment.
#[derive(Debug, Default)]
pub struct Segment {
    pub wall: Duration,
    pub clients: usize,
    pub read_ms: Vec<f64>,
    pub write_ms: Vec<f64>,
    /// Seconds each client took over each run of [`BATCH_OPS`] consecutive
    /// operations.
    pub batch_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl Segment {
    pub fn latencies(&self, kind: Kind) -> &[f64] {
        match kind {
            Kind::Read => &self.read_ms,
            Kind::Write => &self.write_ms,
        }
    }

    /// Throughput at the segment's median pace: every client completing
    /// [`BATCH_OPS`] operations per median batch time. Against operations
    /// over wall time this leaves out the batches a descheduled vCPU
    /// stretched, which on the shared reference host made throughput spread
    /// twice as wide as the latency medians; a batch still carries every
    /// kind of operation in the workload's own proportion.
    pub fn ops_per_s(&self) -> f64 {
        (self.clients as u64 * BATCH_OPS) as f64 / stats::median(&self.batch_s)
    }

    /// Operations completed over the segment's wall time, stalls included.
    pub fn wall_ops_per_s(&self) -> f64 {
        self.attempted as f64 / self.wall.as_secs_f64()
    }

    /// Median latency of `kind` in this segment, if it issued any.
    pub fn p50(&self, kind: Kind) -> Option<f64> {
        let mut v = self.latencies(kind).to_vec();
        if v.is_empty() {
            return None;
        }
        v.sort_by(f64::total_cmp);
        Some(stats::percentile_sorted(&v, 50.0))
    }

    fn absorb(&mut self, other: Segment) {
        self.clients += 1;
        self.read_ms.extend(other.read_ms);
        self.write_ms.extend(other.write_ms);
        self.batch_s.extend(other.batch_s);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

fn run_client<W: Workload>(w: &W, client: &mut W::Client, ops: Vec<W::Op>) -> Segment {
    let mut seg = Segment::default();
    let mut batch_start = Instant::now();
    for op in ops {
        let start = Instant::now();
        let outcome = w.exec(client, op);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        match outcome.kind {
            Kind::Read => seg.read_ms.push(ms),
            Kind::Write => seg.write_ms.push(ms),
        }
        seg.attempted += 1;
        seg.failed += u64::from(!outcome.ok);
        if seg.attempted % BATCH_OPS == 0 {
            seg.batch_s.push(batch_start.elapsed().as_secs_f64());
            batch_start = Instant::now();
        }
    }
    seg
}

/// Run `per_client` operations on every client, starting at each client's
/// operation `first`.
pub fn run_ops<W: Workload>(
    w: &W,
    clients: &mut [W::Client],
    first: u64,
    per_client: u64,
) -> Segment {
    let n = clients.len();
    let planned: Vec<Vec<W::Op>> = (0..n)
        .map(|c| (first..first + per_client).map(|i| w.op(c, n, i)).collect())
        .collect();
    let start = Instant::now();
    let parts: Vec<Segment> = if n == 1 {
        let ops = planned.into_iter().next().expect("one client");
        vec![run_client(w, &mut clients[0], ops)]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .zip(planned)
                .map(|(client, ops)| s.spawn(move || run_client(w, client, ops)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        })
    };
    let mut seg = Segment {
        wall: start.elapsed(),
        ..Segment::default()
    };
    for part in parts {
        seg.absorb(part);
    }
    seg
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
