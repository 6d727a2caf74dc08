//! The oracle harness: every route a query can take through DeepLens
//! answers as one brute-force oracle does.
//!
//! A physical choice must never change an answer. The routes swept here:
//! 1 or 16 catalog shards, column chunks encoded ahead of the first scan or
//! not, 1, 2 or 4 session workers, a fresh catalog or one whose Ball index
//! is delta-maintained across writes, a first sighting or a result-cache
//! replay, and in-process execution (a batch, batches of one, bare slices
//! under every join plan) or the wire (`serve` + two concurrent `Client`s).
//! One seeded generator draws the catalog, the writes and the queries. The
//! oracle is `ops::similarity_join_nested` (with `retain` for a
//! θ-predicate), `ops::dedup_bruteforce`, `bruteforce::range_query` and
//! `scan::row_scan`, the last compared bit for bit. Features sit on an
//! integer grid and most thresholds are whole, so distances land exactly
//! on τ and a `<=` read as `<` anywhere shows.
//!
//! `tests/oracle.rs` runs every drawn query ([`sweep`]) and scan
//! ([`sweep_scans`]); a layer suite may sweep only the queries that layer
//! answers for. A sweep reads the engine's own counters to assert that it
//! reached every route: a delta-maintained index, a cache replay of every
//! cacheable member, a post-write miss, an admitted served batch, a backed
//! scan, and joins that leave an unbacked collection unencoded. [`sweep`]
//! returns each join next to the plan chosen for it, so a caller can assert
//! which of the four plans it reached, and where.
//!
//! [`cases`] runs a property over seeded cases; `PROPTEST_SEED` draws a
//! different stream.

// Each suite that mounts the harness calls only part of it.
#![allow(dead_code)]

use std::sync::Arc;

use deeplens::core::scan::row_scan;
use deeplens::index::bruteforce;
use deeplens::prelude::*;
use deeplens::serve::{serve, AdmissionConfig, Client, ClientError, ServerConfig, ServerHandle};
use deeplens::vision::rng::SplitMix64;

/// The route sweep as `(shards, backed, threads)`: every pair of values of
/// any two axes is on some route.
const ROUTES: [(usize, bool, usize); 6] = [
    (1, false, 1),
    (16, true, 1),
    (1, true, 2),
    (16, false, 2),
    (1, false, 4),
    (16, true, 4),
];

const TAUS: [f32; 5] = [1.0, 1.5, 2.0, 2.5, 3.0];
const DIM: usize = 3;
/// Collections whose featured rows are `DIM`-dimensional, and those whose
/// rows are zero-dimensional; `bare` (featureless) and `empty` join both.
const GRID: [&str; 6] = ["wee", "odd", "mid", "big", "bare", "empty"];
const FLAT: [&str; 4] = ["flat", "gappy", "bare", "empty"];
/// The collections carrying a persisted Ball index `by_feat`.
const INDEXED: [&str; 2] = ["big", "flat"];
const PROJECTIONS: [Projection; 3] = [Projection::Count, Projection::MetaOnly, Projection::Full];

/// `n` log rows ([`Rng::log_row`]) drawn from `seed`.
pub fn log_rows(seed: u64, n: usize) -> Vec<Patch> {
    let mut g = Rng::new(seed);
    (0..n as u64).map(|id| g.log_row(id)).collect()
}

/// `n` rows with `dim` features each, uniform in `[0, 10)`, drawn from
/// `seed`; row `i` is frame `i`.
pub fn feature_rows(n: u64, dim: usize, seed: u64) -> Vec<Patch> {
    let mut g = Rng::new(seed);
    (0..n)
        .map(|i| {
            let f = (0..dim).map(|_| g.0.unit_f32() * 10.0);
            Patch::features(PatchId(i), ImgRef::frame("t", i), f.collect())
        })
        .collect()
}

/// The harness's draws over the one seeded generator, seeded by raw state.
struct Rng(SplitMix64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(SplitMix64::from_state(seed))
    }

    fn next(&mut self) -> u64 {
        self.0.next_u64()
    }

    fn below(&mut self, n: u64) -> u64 {
        self.0.below(n)
    }

    fn pick<'a, T>(&mut self, of: &'a [T]) -> &'a T {
        &of[self.below(of.len() as u64) as usize]
    }

    /// A point of the integer grid `[0, 8)^DIM`.
    fn point(&mut self) -> Vec<f32> {
        (0..DIM).map(|_| self.below(8) as f32).collect()
    }

    /// A featured row at a grid point.
    fn grid_row(&mut self, id: u64) -> Patch {
        Patch::features(PatchId(id), ImgRef::frame("grid", id), self.point())
    }

    /// A row without features.
    fn bare_row(&mut self, id: u64) -> Patch {
        Patch::empty(PatchId(id), ImgRef::frame("grid", id))
    }

    /// A row with zero-dimensional features.
    fn flat_row(&mut self, id: u64) -> Patch {
        Patch::features(PatchId(id), ImgRef::frame("flat", id), vec![])
    }

    /// A log row for scans: a sorted frame number, a low-cardinality label,
    /// scores with NaN of both signs, the infinities and `-0.0` among them,
    /// integers past 2^53, a key whose type depends on the row, rows missing
    /// keys singly and in runs of eight (so small chunks come out all-null),
    /// a lineage parent on every eleventh row, and features of one or two
    /// dimensions.
    fn log_row(&mut self, id: u64) -> Patch {
        let r = self.next();
        let mut features = vec![(r % 100) as f32, (r % 7) as f32 + 0.5];
        features.truncate(1 + !r.is_multiple_of(4) as usize);
        let mut p = Patch::features(PatchId(id), ImgRef::frame("log", id / 3), features)
            .with_meta("label", ["car", "person", "bike"][(r % 3) as usize]);
        if (id / 8) % 4 != 1 {
            if !r.is_multiple_of(5) {
                let score = match r % 13 {
                    0 => [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0]
                        [(r / 13 % 5) as usize],
                    _ => (r % 1000) as f64 / 1000.0,
                };
                p = p.with_meta("score", score);
            }
            let big = (1i64 << 53) + (r % 5) as i64;
            p = p.with_meta("big", if r.is_multiple_of(3) { -big } else { big });
        }
        if id.is_multiple_of(11) {
            p = p.with_parent(PatchId(id.saturating_sub(1)));
        }
        if r.is_multiple_of(7) {
            p = p.with_meta("flagged", r.is_multiple_of(2));
        }
        if r.is_multiple_of(2) {
            p.with_meta("mixed", (r % 50) as i64)
        } else {
            p.with_meta("mixed", format!("s{}", r % 50))
        }
    }

    /// One to four featureless rows, with fresh ids, at random positions
    /// of `rows`.
    fn holes(&mut self, rows: &mut Vec<Patch>) {
        for _ in 0..1 + self.below(4) {
            let id = rows.iter().map(|p| p.id.0 + 1).max().unwrap_or(0);
            let at = self.below(rows.len() as u64 + 1) as usize;
            rows.insert(at, self.bare_row(id));
        }
    }

    /// One write in place on `rows`: append a tail, replace a run, or
    /// truncate, each of at most eight rows.
    fn write(&mut self, rows: &mut Vec<Patch>, row: fn(&mut Rng, u64) -> Patch) {
        let n = 1 + self.below(8) as usize;
        match self.below(3) {
            0 => {
                let next = rows.iter().map(|p| p.id.0 + 1).max().unwrap_or(0);
                rows.extend((next..next + n as u64).map(|id| row(self, id)));
            }
            1 if !rows.is_empty() => {
                let start = self.below(rows.len() as u64) as usize;
                let end = (start + n).min(rows.len());
                for slot in &mut rows[start..end] {
                    *slot = row(self, slot.id.0);
                }
            }
            _ => rows.truncate(rows.len().saturating_sub(n)),
        }
    }

    /// A τ no plan may answer: negative or NaN.
    fn bad_tau(&mut self) -> f32 {
        [-0.5 * (1 + self.below(6)) as f32, f32::NAN][self.below(2) as usize]
    }
}

/// The θ-predicate of every filtered join.
fn even_id_sum(l: &Patch, r: &Patch) -> bool {
    (l.id.0 + r.id.0).is_multiple_of(2)
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    Join,
    Filtered,
    Dedup,
    Probe,
}

/// One drawn query: a join of `l × r` (θ-filtered by [`even_id_sum`] when
/// `Filtered`), a dedup of `l` (`r == l`), or a probe of `l`'s Ball index.
#[derive(Debug, Clone)]
pub struct Query {
    pub kind: Kind,
    pub l: &'static str,
    pub r: &'static str,
    tau: f32,
    probe: Vec<f32>,
}

impl Query {
    fn push(&self, batch: &mut QueryBatch<'_>) {
        let (l, r, tau) = (self.l, self.r, self.tau);
        match self.kind {
            Kind::Join => batch.similarity_join(l, r, tau),
            Kind::Filtered => batch.similarity_join_filtered(l, r, tau, Arc::new(even_id_sum)),
            Kind::Dedup => batch.dedup(l, tau),
            Kind::Probe => batch.index_probe(l, "by_feat", self.probe.clone(), tau),
        };
    }

    /// The answer a join pass's pairs over `n` rows make for this query.
    fn result(&self, n: usize, pairs: Vec<(u32, u32)>) -> Result<BatchResult, DlError> {
        Ok(match self.kind {
            Kind::Dedup => BatchResult::Clusters(ops::cluster_from_pairs(n, &pairs)?),
            _ => BatchResult::Pairs(pairs),
        })
    }
}

/// What one seed draws: the catalog, the writes published after the fresh
/// phase (in order), the queries, queries with a τ no plan may answer, and
/// the scan filters.
struct Case {
    collections: Vec<(&'static str, Vec<Patch>)>,
    writes: Vec<(&'static str, Vec<Patch>)>,
    queries: Vec<Query>,
    bad: Vec<Query>,
    filters: Vec<ScanFilter>,
}

impl Case {
    fn draw(seed: u64) -> Case {
        let mut g = Rng::new(seed);
        let log_rows = 150 + g.below(150);
        let mut rows = |base: u64, n: u64, row: fn(&mut Rng, u64) -> Patch| {
            (base..base + n)
                .map(|id| row(&mut g, id))
                .collect::<Vec<_>>()
        };
        let (mut odd, mut gappy) = (rows(1000, 25, Rng::grid_row), rows(6000, 10, Rng::flat_row));
        let (mut big, mut log) = (
            rows(3000, 200, Rng::grid_row),
            rows(0, log_rows, Rng::log_row),
        );
        let mut collections = vec![
            ("wee", rows(0, 16, Rng::grid_row)),
            ("mid", rows(2000, 64, Rng::grid_row)),
            ("bare", rows(4000, 6, Rng::bare_row)),
            ("flat", rows(5000, 12, Rng::flat_row)),
            ("empty", Vec::new()),
            ("big", big.clone()),
            ("log", log.clone()),
        ];
        g.holes(&mut odd);
        g.holes(&mut gappy);
        collections.extend([("odd", odd), ("gappy", gappy)]);

        let mut writes = Vec::new();
        for k in 0..2 + g.below(3) {
            if k % 2 == 0 {
                g.write(&mut big, Rng::grid_row);
                writes.push(("big", big.clone()));
            } else {
                g.write(&mut log, Rng::log_row);
                writes.push(("log", log.clone()));
            }
        }

        let query = |g: &mut Rng, kind, l, r, tau| {
            let (l, r) = match kind {
                Kind::Dedup => (l, l),
                Kind::Probe if FLAT.contains(&l) => ("flat", "flat"),
                Kind::Probe => ("big", "big"),
                _ => (l, r),
            };
            let probe = if l == "flat" { Vec::new() } else { g.point() };
            Query {
                kind,
                l,
                r,
                tau,
                probe,
            }
        };
        // Anchors reach every plan, four members sharing one pass over
        // `big`'s index, and every odd side (featureless rows, a
        // featureless side, an empty side, zero-dimensional rows with and
        // without featureless ones), on either side of a persisted index
        // too, whatever the random members draw.
        let mut queries = vec![
            query(&mut g, Kind::Join, "wee", "wee", 1.5),
            query(&mut g, Kind::Filtered, "mid", "odd", 2.0),
            query(&mut g, Kind::Join, "mid", "big", 1.0),
            query(&mut g, Kind::Join, "mid", "big", 2.0),
            query(&mut g, Kind::Join, "mid", "big", 2.5),
            query(&mut g, Kind::Join, "mid", "big", 3.0),
            query(&mut g, Kind::Dedup, "mid", "mid", 2.0),
            query(&mut g, Kind::Join, "big", "wee", 3.0),
            query(&mut g, Kind::Filtered, "bare", "odd", 2.0),
            query(&mut g, Kind::Filtered, "odd", "big", 2.5),
            query(&mut g, Kind::Join, "big", "bare", 1.0),
            query(&mut g, Kind::Join, "empty", "mid", 1.0),
            query(&mut g, Kind::Join, "flat", "gappy", 1.0),
            query(&mut g, Kind::Filtered, "gappy", "flat", 1.0),
            query(&mut g, Kind::Join, "bare", "flat", 1.0),
            query(&mut g, Kind::Join, "flat", "empty", 1.0),
            query(&mut g, Kind::Dedup, "flat", "flat", 1.0),
            query(&mut g, Kind::Dedup, "gappy", "gappy", 1.0),
            query(&mut g, Kind::Probe, "big", "big", 2.0),
            query(&mut g, Kind::Probe, "flat", "flat", 1.0),
        ];
        for _ in 0..3 + g.below(5) {
            let sides: &[&str] = [&GRID[..], &FLAT[..]][(g.below(8) == 0) as usize];
            let kind = *g.pick(&[Kind::Join, Kind::Filtered, Kind::Dedup, Kind::Probe]);
            let (l, r, tau) = (*g.pick(sides), *g.pick(sides), *g.pick(&TAUS));
            queries.push(query(&mut g, kind, l, r, tau));
        }
        let bad = [Kind::Join, Kind::Dedup, Kind::Probe]
            .map(|kind| {
                let (l, r, tau) = (*g.pick(&GRID), *g.pick(&GRID), g.bad_tau());
                query(&mut g, kind, l, r, tau)
            })
            .to_vec();

        let frames = |lo, hi| ScanFilter::FrameRange { lo, hi };
        let eq = |key: &str, value| {
            let key = key.into();
            ScanFilter::MetaEq { key, value }
        };
        let range = |key: &str, lo, hi| {
            let key = key.into();
            ScanFilter::MetaRange { key, lo, hi }
        };
        let (lo, big_int) = (g.below(120), (1i64 << 53) as f64);
        let special = *g.pick(&[f64::NAN, -0.0, f64::NEG_INFINITY]);
        let filters = vec![
            ScanFilter::All,
            frames(lo, lo + 1 + g.below(80)),
            frames(lo + 10, lo),
            eq("label", Value::from(*g.pick(&["car", "bike"]))),
            eq("flagged", Value::Bool(true)),
            eq("mixed", Value::Int(g.below(50) as i64)),
            eq("score", Value::Float(*g.pick(&[0.0, f64::NAN]))),
            eq("absent", Value::Float(1.0)),
            range("score", 0.25, 0.25 + g.below(75) as f64 / 100.0),
            range("score", special, f64::INFINITY),
            range("big", big_int, big_int + 2.0),
            range("mixed", 10.0, 20.0),
        ];
        Case {
            collections,
            writes,
            queries,
            bad,
            filters,
        }
    }
}

/// The catalog of one case at one route, with a session and a server on it.
struct Harness {
    catalog: Arc<SharedCatalog>,
    session: Session,
    server: ServerHandle,
    backed: bool,
    threads: usize,
}

impl Harness {
    fn new(case: &Case, (shards, backed, threads): (usize, bool, usize)) -> Harness {
        let catalog = Arc::new(SharedCatalog::with_shards(shards));
        let mut session = Session::ephemeral_attached(Arc::clone(&catalog)).unwrap();
        session.set_threads(threads);
        let admission = AdmissionConfig {
            max_inflight_cost_us: 1e12,
            max_queue_depth: 64,
        };
        let config = ServerConfig {
            threads,
            admission,
            ..ServerConfig::default()
        };
        let server = serve(Arc::clone(&catalog), config).unwrap();
        let h = Harness {
            catalog,
            session,
            server,
            backed,
            threads,
        };
        for (name, rows) in &case.collections {
            h.publish(name, rows);
        }
        for name in INDEXED {
            h.session.build_ball_index(name, "by_feat").unwrap();
        }
        h
    }

    /// Materialize `rows` as `name`, encoding its chunks when backed.
    fn publish(&self, name: &str, rows: &[Patch]) {
        self.catalog.materialize(name, rows.to_vec());
        if self.backed {
            self.session.build_columnar(name).unwrap();
        }
    }

    fn snap(&self, name: &str) -> Arc<PatchCollection> {
        self.catalog.snapshot(name).unwrap()
    }

    /// The brute-force answer to `q` over the current snapshots.
    fn oracle(&self, q: &Query) -> BatchResult {
        let (l, r) = (self.snap(q.l), self.snap(q.r));
        match q.kind {
            Kind::Probe => {
                let points: Vec<Vec<f32>> = l
                    .patches
                    .iter()
                    .map(|p| p.data.features().unwrap().to_vec())
                    .collect();
                BatchResult::Hits(bruteforce::range_query(&points, &q.probe, q.tau))
            }
            Kind::Dedup => BatchResult::Clusters(ops::dedup_bruteforce(&l.patches, q.tau).unwrap()),
            Kind::Join | Kind::Filtered => {
                let mut pairs = ops::similarity_join_nested(&l.patches, &r.patches, q.tau).unwrap();
                if q.kind == Kind::Filtered {
                    pairs.retain(|&(i, j)| {
                        even_id_sum(&l.patches[i as usize], &r.patches[j as usize])
                    });
                }
                BatchResult::Pairs(pairs)
            }
        }
    }

    fn batch<'a>(&self, queries: impl IntoIterator<Item = &'a Query>) -> QueryBatch<'_> {
        let mut batch = self.session.batch();
        for q in queries {
            q.push(&mut batch);
        }
        batch
    }

    /// `queries` over the wire from two concurrent connections.
    fn served(&self, queries: &[BatchQuery]) -> Vec<Result<Vec<BatchResult>, ClientError>> {
        let addr = self.server.local_addr();
        std::thread::scope(|scope| {
            let clients: Vec<_> = (0..2)
                .map(|_| scope.spawn(|| Client::connect(addr).unwrap().batch(queries.to_vec())))
                .collect();
            clients.into_iter().map(|c| c.join().unwrap()).collect()
        })
    }

    /// `q` on every in-process route but the batch: each join plan it can
    /// run under on its snapshots (the persisted index only where a side
    /// carries one), an unfiltered and a filtered member sharing each pass,
    /// then the session over bare slices; or the index lookup.
    fn direct_routes(&self, q: &Query) -> Vec<(String, Result<BatchResult, DlError>)> {
        let (l, r) = (self.snap(q.l), self.snap(q.r));
        if q.kind == Kind::Probe {
            let hits = l.lookup_similar("by_feat", &q.probe, q.tau);
            return vec![("lookup_similar".into(), hits.map(BatchResult::Hits))];
        }
        let mut plans = vec![
            JoinPlan::BallTree { index_left: true },
            JoinPlan::BallTree { index_left: false },
        ];
        for (index_left, side) in [(true, &l), (false, &r)] {
            if !side.index_names().is_empty() {
                plans.push(JoinPlan::Indexed { index_left });
            }
        }
        let pool = WorkerPool::new(self.threads);
        let members = [(q.tau, None), (q.tau, Some(&even_id_sum as _))];
        let member = (q.kind == Kind::Filtered) as usize;
        let mut out: Vec<_> = plans
            .into_iter()
            .map(|plan| {
                let got = plan.run(&*l, &*r, &members, &pool);
                let got = got.and_then(|mut pairs| q.result(l.len(), pairs.swap_remove(member)));
                (format!("{plan:?}"), got)
            })
            .collect();
        let (session, tau) = (&self.session, q.tau);
        match q.kind {
            Kind::Dedup => out.push((
                "Session::dedup".into(),
                session.dedup(&l.patches, tau).map(BatchResult::Clusters),
            )),
            Kind::Join => out.push((
                "Session::similarity_join".into(),
                session
                    .similarity_join(&l.patches, &r.patches, tau)
                    .map(BatchResult::Pairs),
            )),
            _ => {}
        }
        out
    }
}

/// The rows with every float metadata value replaced by its bit pattern, so
/// rows compare equal exactly when they are bit-identical (a NaN score
/// equals itself, `-0.0` differs from `0.0`).
pub fn bitwise(rows: &[Patch]) -> Vec<Patch> {
    let mut rows = rows.to_vec();
    for v in rows.iter_mut().flat_map(|p| p.meta.values_mut()) {
        if let Value::Float(f) = v {
            *v = Value::from(format!("f64 bits {:#x}", f.to_bits()));
        }
    }
    rows
}

/// Every query `keep` admits, of the case `seed` draws, on every route
/// ([`check_queries`]); returns each join (on the fresh catalog, then after
/// the writes) with the plan chosen for it.
pub fn sweep(seed: u64, keep: fn(&Query) -> bool) -> Vec<(Query, JoinPlan)> {
    let mut case = Case::draw(seed);
    case.queries.retain(keep);
    case.bad.retain(keep);
    assert!(!case.queries.is_empty(), "seed {seed:#x}: no query kept");
    run(seed, &case, check_queries)
}

/// Every scan of the case `seed` draws on every route ([`check_scans`]).
pub fn sweep_scans(seed: u64) {
    run(seed, &Case::draw(seed), check_scans);
}

/// What the first route of a phase found: the join plans chosen and the
/// oracle's answers, which every later route of the phase must match.
type First = Option<(Vec<JoinPlan>, Vec<BatchResult>)>;

type Check = fn(&Harness, &Case, &str, &mut First, &[&str]);

/// `check` at each route, on the fresh catalog and after the case's writes
/// (which must leave `big`'s index delta-maintained), returning each join
/// with the plan chosen for it.
fn run(seed: u64, case: &Case, check: Check) -> Vec<(Query, JoinPlan)> {
    let mut plans: [First; 2] = Default::default();
    for route in ROUTES {
        let h = Harness::new(case, route);
        let ctx = format!("seed {seed:#x}, (shards, backed, threads) {route:?}");
        check(&h, case, &format!("{ctx}, fresh"), &mut plans[0], &[]);
        let maintained = h.catalog.counters().index_deltas_maintained;
        for (name, rows) in &case.writes {
            h.publish(name, rows);
        }
        assert!(
            h.catalog.counters().index_deltas_maintained > maintained,
            "{ctx}: no index was delta-maintained"
        );
        let written: Vec<&str> = case.writes.iter().map(|(name, _)| *name).collect();
        let ctx = format!("{ctx}, after writes");
        check(&h, case, &ctx, &mut plans[1], &written);
    }
    let joins = case.queries.iter().filter(|q| q.kind != Kind::Probe);
    (plans.into_iter().flatten())
        .flat_map(|(plans, _)| joins.clone().cloned().zip(plans))
        .collect()
}

/// Runs `case` `cases` times, each on a generator of its own whose seed is
/// drawn from an FNV-1a hash of `name`, xored with `PROPTEST_SEED` (times
/// the golden ratio) when that is set: the same value replays the same
/// cases, another draws new ones. A failing case names its seed.
pub fn cases(name: &str, cases: u32, mut case: impl FnMut(&mut SplitMix64)) {
    let mut h = name.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    });
    if let Some(extra) = std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
    {
        h ^= extra.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    let mut seeds = SplitMix64::from_state(h);
    for i in 1..=cases {
        let seed = seeds.next_u64();
        let mut g = SplitMix64::from_state(seed);
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| case(&mut g)));
        if run.is_err() {
            panic!(
                "{name}: case {i}/{cases} failed; it draws from SplitMix64::from_state({seed:#x})"
            );
        }
    }
}

/// Joins, dedups and probes, in this order: a batch (first sighting), two
/// concurrent wire clients, batches of one (the repeat that stores the
/// answers, then the replay, in which every cacheable member hits), and
/// every plan and the session on bare slices; then the negative and NaN
/// thresholds, rejected on each of those routes (by the batch before it
/// reads the cache, and by a connection that keeps serving). The first
/// issue after a write must miss the cache for every cacheable member that
/// reads a `written` collection (every one on a fresh catalog).
fn check_queries(h: &Harness, case: &Case, ctx: &str, first: &mut First, written: &[&str]) {
    let chosen: Vec<JoinPlan> = (case.queries.iter())
        .filter(|q| q.kind != Kind::Probe)
        .map(|q| JoinPlan::choose(&*h.snap(q.l), &*h.snap(q.r)).unwrap())
        .collect();
    let (plans, want) = first.get_or_insert_with(|| {
        let want = case.queries.iter().map(|q| h.oracle(q)).collect();
        (chosen.clone(), want)
    });
    assert_eq!(*plans, chosen, "{ctx}: a route moved a plan");
    let want = &*want;
    let cacheable = |q: &&Query| q.kind != Kind::Filtered;
    let fresh = (case.queries.iter().filter(cacheable))
        .filter(|q| written.is_empty() || written.contains(&q.l) || written.contains(&q.r))
        .count() as u64;
    let cache = h.catalog.result_cache();

    let misses = cache.misses();
    let planned = h.batch(&case.queries).plan().unwrap();
    assert!(planned.estimate_us(&DevicePlanner::default()) >= 1.0);
    assert_eq!(planned.run().unwrap(), *want, "{ctx}: batch");
    let (wire, wire_want): (Vec<&Query>, Vec<BatchResult>) = (case.queries.iter().zip(want))
        .filter(|(q, _)| q.kind != Kind::Filtered)
        .map(|(q, w)| (q, w.clone()))
        .unzip();
    if !wire.is_empty() {
        let wire = h.batch(wire.iter().copied()).queries().to_vec();
        let admitted = h.server.admitted();
        for got in h.served(&wire) {
            assert_eq!(got.unwrap(), wire_want, "{ctx}: served");
        }
        assert_eq!(h.server.admitted(), admitted + 2, "{ctx}: served batches");
    }
    for round in ["repeat", "replay"] {
        let hits = cache.hits();
        let got = h.batch(&case.queries).run_serial().unwrap();
        assert_eq!(got, *want, "{ctx}: batches of one, {round}");
        let replayed = cache.hits() - hits;
        assert!(
            round == "repeat" || replayed >= wire.len() as u64,
            "{ctx}: a member missed"
        );
    }
    assert!(
        cache.misses() - misses >= fresh,
        "{ctx}: a first issue hit the cache"
    );
    for (q, w) in case.queries.iter().zip(want) {
        for (route, got) in h.direct_routes(q) {
            assert_eq!(&got.unwrap(), w, "{ctx}: {route} of {q:?}");
        }
    }
    if !h.backed {
        for name in GRID.iter().chain(&FLAT) {
            assert!(
                h.snap(name).columnar().is_none(),
                "{ctx}: a query encoded {name}"
            );
        }
    }

    fn rejected<T>(got: &Result<T, DlError>) -> bool {
        matches!(got, Err(DlError::SchemaMismatch(_)))
    }
    let good = &wire[..wire.len().min(1)];
    let mut client = Client::connect(h.server.local_addr()).unwrap();
    for bad in &case.bad {
        let with_good: Vec<&Query> = good.iter().copied().chain([bad]).collect();
        let (hits, misses) = (cache.hits(), cache.misses());
        let got = h.batch(with_good.iter().copied()).run();
        assert!(rejected(&got), "{ctx}: batch of {bad:?}");
        assert_eq!(
            (cache.hits(), cache.misses()),
            (hits, misses),
            "{ctx}: {bad:?} read the cache"
        );
        let got = h.batch(with_good.iter().copied()).run_serial();
        assert!(rejected(&got), "{ctx}: batches of one of {bad:?}");
        for (route, got) in h.direct_routes(bad) {
            assert!(rejected(&got), "{ctx}: {route} of {bad:?}");
        }
        match client.batch(h.batch(with_good).queries().to_vec()) {
            Err(ClientError::Server(msg)) => {
                assert!(msg.contains("negative or NaN"), "{ctx}: {msg}")
            }
            other => panic!("{ctx}: served {bad:?} answered {other:?}"),
        }
    }
    if let [good] = good {
        let served = client.batch(h.batch([*good]).queries().to_vec());
        assert_eq!(
            served.unwrap(),
            [h.oracle(good)],
            "{ctx}: served after errors"
        );
    }
}

/// Scans of the log under every filter and projection: the snapshot's own
/// scan, and the session's first sighting (a cache miss, columnar backed or
/// not), the repeat that stores it and the replay that hits, each
/// bit-identical to `row_scan`; and `scan_count`.
fn check_scans(h: &Harness, case: &Case, ctx: &str, _: &mut First, _: &[&str]) {
    let snap = h.snap("log");
    assert_eq!(snap.columnar().is_some(), h.backed, "{ctx}: log backing");
    let pool = WorkerPool::new(h.threads);
    let cache = h.catalog.result_cache();
    for filter in &case.filters {
        for projection in PROJECTIONS {
            let want = row_scan(&snap.patches, filter, projection);
            let mut got = vec![("snapshot scan", snap.scan(filter, projection, &pool))];
            for sighting in ["first sighting", "repeat", "replay"] {
                let (hits, misses) = (cache.hits(), cache.misses());
                let scan = h.session.scan("log", filter, projection).unwrap();
                if sighting == "first sighting" {
                    assert!(cache.misses() > misses, "{ctx}: a first sighting hit");
                    assert!(scan.stats.used_columnar, "{ctx}: a row scan ran");
                }
                assert!(
                    sighting != "replay" || cache.hits() > hits,
                    "{ctx}: not replayed"
                );
                got.push((sighting, scan));
            }
            for (route, got) in got {
                let what = format!("{ctx}: {route} of {filter:?} {projection:?}");
                assert_eq!(got.stats.rows_matched, want.stats.rows_matched, "{what}");
                assert_eq!(bitwise(&got.patches), bitwise(&want.patches), "{what}");
            }
        }
        let count = h.session.scan_count("log", filter).unwrap();
        let want = row_scan(&snap.patches, filter, Projection::Count);
        assert_eq!(count, want.stats.rows_matched, "{ctx}: {filter:?}");
    }
    assert!(h.session.scan_count("missing", &ScanFilter::All).is_err());
}
