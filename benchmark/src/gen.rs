//! Seeded input generation. Everything a workload feeds the engine — rows,
//! probe vectors, video frames, detection-log records and the operation
//! sequence itself — is a pure function of `--seed` and an operation index,
//! expressed in plain data; `api` turns it into engine types.

/// Feature dimensionality of every vector collection.
pub const DIM: usize = 8;
/// Rows of `gallery`, the indexed collection the served reads join against.
pub const GALLERY_ROWS: usize = 20_000;
/// Rows of `probes`, the small side of every served join and dedup.
pub const PROBE_ROWS: usize = 64;
/// Rows of `live`, the collection the served writes replace (8 000 × 8 × 4 B
/// = 256 KB, inside the server's 1 MiB frame cap).
pub const LIVE_ROWS: usize = 8_000;
/// Rows a write changes relative to the base version of `live` (2 %).
pub const LIVE_CHANGED_ROWS: usize = LIVE_ROWS / 50;
/// Centres the vector collections cluster around, so joins and probes
/// return real matches instead of the empty set uniform 8-d data gives.
pub const CLUSTERS: usize = 64;
/// Index probes per served read.
pub const PROBES_PER_READ: usize = 4;
/// Read parameter sets of `serve_mixed_rw` over `gallery` and over `live`.
pub const POOL_GALLERY: usize = 32;
pub const POOL_LIVE: usize = 4;
/// One served operation in twenty is a write (5 %).
pub const WRITE_EVERY: u64 = 20;
/// Distinct replacement payloads the writes cycle through (payload 0 is the
/// base version set-up materializes). A fixed pool keeps the generator's
/// memory flat however long a run lasts; the engine still sees every write
/// as a new snapshot version.
pub const LIVE_PAYLOADS: usize = 16;

/// Clips the ingest workload cycles through, frames per clip and frame
/// edge: 8 × 48 = 384 frames, more than the session's 256-frame cache, so
/// no operation finds its clip already decoded.
pub const CLIPS: usize = 8;
pub const CLIP_FRAMES: usize = 48;
pub const FRAME_EDGE: u32 = 96;
pub const TILE_EDGE: u32 = 16;

/// Rows of the detection log and detections per frame.
pub const LOG_ROWS: usize = 200_000;
pub const LOG_ROWS_PER_FRAME: usize = 4;
pub const LOG_FRAMES: u64 = (LOG_ROWS / LOG_ROWS_PER_FRAME) as u64;
pub const LOG_LABELS: [&str; 6] = ["car", "person", "truck", "bike", "bus", "sign"];

/// splitmix64: tiny, seedable, and good enough to decorrelate streams that
/// differ in one seed bit.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, stream)`: distinct streams of one seed are
    /// independent, the same pair always yields the same stream.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Roughly normal (sum of four uniforms), mean 0, standard deviation 1.
    fn normalish(&mut self) -> f64 {
        let s: f64 = (0..4).map(|_| self.unit()).sum();
        (s - 2.0) * 3f64.sqrt()
    }
}

// Stream numbers: one per independent input, so changing how many values one
// input draws never shifts another.
const S_CENTRES: u64 = 1;
const S_GALLERY: u64 = 2;
const S_PROBES: u64 = 3;
const S_LIVE: u64 = 4;
const S_LIVE_VERSION: u64 = 5;
const S_COLD_READ: u64 = 6;
const S_POOL: u64 = 7;
const S_MIXED_PICK: u64 = 8;
const S_CLIP: u64 = 9;
const S_LOG: u64 = 10;
const S_SCAN: u64 = 11;

fn centres(seed: u64) -> Vec<[f32; DIM]> {
    let mut rng = Rng::new(seed, S_CENTRES);
    (0..CLUSTERS)
        .map(|_| std::array::from_fn(|_| (rng.unit() * 10.0) as f32))
        .collect()
}

/// One vector near centre `c`.
fn near(rng: &mut Rng, centre: &[f32; DIM], sigma: f64) -> Vec<f32> {
    centre
        .iter()
        .map(|c| c + (rng.normalish() * sigma) as f32)
        .collect()
}

fn clustered_rows(seed: u64, stream: u64, n: usize) -> Vec<Vec<f32>> {
    let centres = centres(seed);
    let mut rng = Rng::new(seed, stream);
    (0..n)
        .map(|i| near(&mut rng, &centres[i % CLUSTERS], 0.6))
        .collect()
}

pub fn gallery_rows(seed: u64) -> Vec<Vec<f32>> {
    clustered_rows(seed, S_GALLERY, GALLERY_ROWS)
}

pub fn probe_rows(seed: u64) -> Vec<Vec<f32>> {
    clustered_rows(seed, S_PROBES, PROBE_ROWS)
}

/// Payload `payload` of `live`: payload 0 is the base; every other payload
/// is the base with [`LIVE_CHANGED_ROWS`] payload-chosen rows redrawn, so
/// any two payloads differ in at most 4 % of rows wherever they sit in the
/// write order.
pub fn live_rows(seed: u64, payload: usize) -> Vec<Vec<f32>> {
    let mut rows = clustered_rows(seed, S_LIVE, LIVE_ROWS);
    if payload > 0 {
        let centres = centres(seed);
        let mut rng = Rng::new(seed, S_LIVE_VERSION ^ ((payload as u64) << 8));
        for _ in 0..LIVE_CHANGED_ROWS {
            let pos = rng.below(LIVE_ROWS as u64) as usize;
            rows[pos] = near(&mut rng, &centres[pos % CLUSTERS], 0.6);
        }
    }
    rows
}

/// Which collection a served read joins and probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    Gallery,
    Live,
}

/// The parameters of one served read: a `Batch` of fixed shape
/// `[SimilarityJoin probes×target, Dedup probes, 4× IndexProbe target]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadParams {
    pub target: Target,
    pub join_tau: f32,
    pub dedup_tau: f32,
    pub probe_tau: f32,
    pub probes: Vec<Vec<f32>>,
}

/// The `k`-th distinct threshold at or above `base`: `k` is spread over the
/// 2^19 `f32` values following `base` by an odd multiplier, which is a
/// bijection, so no two `k < 2^19` share a threshold and no result-cache
/// key repeats. For `base` in `[1, 2)` the whole range is 0.0625 wide.
fn distinct_tau(base: f32, k: u64) -> f32 {
    const SPAN: u64 = 1 << 19;
    f32::from_bits(base.to_bits() + (k.wrapping_mul(0x9e37_79b1) % SPAN) as u32)
}

fn read_params(rng: &mut Rng, centres: &[[f32; DIM]], target: Target, k: u64) -> ReadParams {
    ReadParams {
        target,
        join_tau: distinct_tau(1.5, k),
        dedup_tau: distinct_tau(1.25, k),
        probe_tau: distinct_tau(1.5, k),
        probes: (0..PROBES_PER_READ)
            .map(|_| {
                let c = rng.below(CLUSTERS as u64) as usize;
                near(rng, &centres[c], 0.6)
            })
            .collect(),
    }
}

/// Global operation number of connection `conn`'s `i`-th operation: the
/// connections interleave, so they never share an operation.
fn global_index(conn: usize, conns: usize, i: u64) -> u64 {
    i * conns as u64 + conn as u64
}

/// `serve_cold`: every read is new — thresholds and probe vectors no earlier
/// request used — so the result cache cannot answer any member.
pub fn cold_read(seed: u64, conn: usize, conns: usize, i: u64) -> ReadParams {
    let k = global_index(conn, conns, i);
    let mut rng = Rng::new(seed, S_COLD_READ ^ (k << 8));
    read_params(&mut rng, &centres(seed), Target::Gallery, k)
}

/// The read pool of `serve_mixed_rw`: [`POOL_GALLERY`] parameter sets over
/// `gallery` followed by [`POOL_LIVE`] over `live`.
pub fn read_pool(seed: u64) -> Vec<ReadParams> {
    let centres = centres(seed);
    let mut rng = Rng::new(seed, S_POOL);
    (0..POOL_GALLERY + POOL_LIVE)
        .map(|p| {
            let target = if p < POOL_GALLERY {
                Target::Gallery
            } else {
                Target::Live
            };
            read_params(&mut rng, &centres, target, p as u64)
        })
        .collect()
}

/// What `serve_mixed_rw` does at one position of a connection's sequence:
/// a write every [`WRITE_EVERY`]-th operation, otherwise a read drawn
/// uniformly from the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixedOp {
    Read {
        pool_index: usize,
    },
    /// Replace `live` with [`live_rows`] of this payload (never 0).
    Write {
        payload: usize,
    },
}

pub fn mixed_op(seed: u64, conn: usize, conns: usize, i: u64) -> MixedOp {
    // Offset the connections so their writes do not land in lockstep.
    let slot = i + conn as u64 * (WRITE_EVERY / 2);
    if slot % WRITE_EVERY == WRITE_EVERY - 1 {
        // Connections take interleaved payloads, so two writes in a row —
        // from one connection or from two — never carry the same rows.
        let ordinal = (slot / WRITE_EVERY) * conns as u64 + conn as u64;
        MixedOp::Write {
            payload: 1 + (ordinal % (LIVE_PAYLOADS as u64 - 1)) as usize,
        }
    } else {
        // The first operations walk the pool twice over, so a short warm-up
        // leaves every parameter set in the result cache; after that reads
        // are drawn uniformly.
        const POOL: u64 = (POOL_GALLERY + POOL_LIVE) as u64;
        let k = global_index(conn, conns, i);
        let pool_index = if k < 2 * POOL {
            k % POOL
        } else {
            Rng::new(seed, S_MIXED_PICK ^ (k << 8)).below(POOL)
        };
        MixedOp::Read {
            pool_index: pool_index as usize,
        }
    }
}

/// One RGB frame, row-major, 3 bytes per pixel.
pub type FrameRgb = Vec<u8>;

/// Clip `clip` of the pool: a static gradient with five coloured squares
/// drifting across it, which gives the inter-frame coder motion to predict
/// and the tile featurizer colours that differ by tile. The seed picks
/// positions, directions and colours; the squares' size, their speed and
/// their wrap-around at the frame edge are fixed, so every clip of every
/// seed costs the codec about the same.
pub fn clip_frames(seed: u64, clip: usize) -> Vec<FrameRgb> {
    const SQUARE: i64 = 20;
    let mut rng = Rng::new(seed, S_CLIP ^ ((clip as u64) << 8));
    let edge = FRAME_EDGE as i64;
    let tint: [u64; 3] = std::array::from_fn(|_| rng.below(96));
    struct Square {
        x: i64,
        y: i64,
        dx: i64,
        dy: i64,
        rgb: [u8; 3],
    }
    let step = |rng: &mut Rng| [-2, -1, 1, 2][rng.below(4) as usize];
    let mut squares: Vec<Square> = (0..5)
        .map(|_| Square {
            x: rng.below(FRAME_EDGE as u64) as i64,
            y: rng.below(FRAME_EDGE as u64) as i64,
            dx: step(&mut rng),
            dy: step(&mut rng),
            rgb: std::array::from_fn(|_| rng.below(256) as u8),
        })
        .collect();
    (0..CLIP_FRAMES)
        .map(|_| {
            let mut px = Vec::with_capacity((edge * edge * 3) as usize);
            for y in 0..edge {
                for x in 0..edge {
                    let hit = squares.iter().rev().find(|s| {
                        (x - s.x).rem_euclid(edge) < SQUARE && (y - s.y).rem_euclid(edge) < SQUARE
                    });
                    match hit {
                        Some(s) => px.extend_from_slice(&s.rgb),
                        None => px.extend_from_slice(&[
                            (tint[0] + x as u64) as u8,
                            (tint[1] + y as u64) as u8,
                            (tint[2] + ((x + y) / 2) as u64) as u8,
                        ]),
                    }
                }
            }
            for s in &mut squares {
                s.x = (s.x + s.dx).rem_euclid(edge);
                s.y = (s.y + s.dy).rem_euclid(edge);
            }
            px
        })
        .collect()
}

/// The clip the `i`-th ingest operation reads.
pub fn ingest_clip(i: u64) -> usize {
    (i % CLIPS as u64) as usize
}

/// One detection-log record.
#[derive(Debug, Clone, PartialEq)]
pub struct LogRow {
    pub frame: u64,
    pub label: &'static str,
    pub score: f64,
    pub features: Vec<f32>,
}

/// The detection log: [`LOG_ROWS_PER_FRAME`] rows per frame in frame order
/// (so `frameno` is sorted and its zone maps prune), with `score` drawn
/// independently per row (so its zone maps cannot).
pub fn log_rows(seed: u64) -> Vec<LogRow> {
    let centres = centres(seed);
    let mut rng = Rng::new(seed, S_LOG);
    (0..LOG_ROWS)
        .map(|i| {
            let label = rng.below(LOG_LABELS.len() as u64) as usize;
            LogRow {
                frame: (i / LOG_ROWS_PER_FRAME) as u64,
                label: LOG_LABELS[label],
                score: rng.unit(),
                features: near(&mut rng, &centres[label], 0.6),
            }
        })
        .collect()
}

/// A half-open window over frame numbers or over scores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window<T> {
    pub lo: T,
    pub hi: T,
}

/// One analytics operation: four scans whose windows no earlier operation
/// used (window starts are spread by a multiplier coprime to their range).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanBundle {
    /// `Count` over 10 % of the frames.
    pub count_frames: Window<u64>,
    /// `Count` over 10 % of the score range.
    pub count_scores: Window<f64>,
    /// `Full` over 0.25 % of the frames (500 rows).
    pub full_frames: Window<u64>,
    /// `MetaOnly` over 0.25 % of the frames.
    pub meta_frames: Window<u64>,
}

pub fn scan_bundle(seed: u64, i: u64) -> ScanBundle {
    let k = Rng::new(seed, S_SCAN).below(1_000_000) + i;
    let frames = |one_in: u64, prime: u64| {
        let width = LOG_FRAMES / one_in;
        let lo = k * prime % (LOG_FRAMES - width);
        Window { lo, hi: lo + width }
    };
    let score_lo = (k * 7_919 % 900_000) as f64 / 1e6;
    ScanBundle {
        count_frames: frames(10, 7_907),
        count_scores: Window {
            lo: score_lo,
            hi: score_lo + 0.1,
        },
        full_frames: frames(400, 7_901),
        meta_frames: frames(400, 7_883),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(gallery_rows(7)[..50], gallery_rows(7)[..50]);
        assert_ne!(gallery_rows(7)[..50], gallery_rows(8)[..50]);
        assert_eq!(live_rows(7, 3), live_rows(7, 3));
        assert_eq!(clip_frames(7, 2), clip_frames(7, 2));
        assert_ne!(clip_frames(7, 2), clip_frames(8, 2));
        assert_ne!(clip_frames(7, 2), clip_frames(7, 3));
        assert_eq!(log_rows(7)[..100], log_rows(7)[..100]);
        assert_ne!(log_rows(7)[..100], log_rows(8)[..100]);
    }

    #[test]
    fn same_seed_same_operation_sequence() {
        let ops = |seed| -> Vec<ReadParams> { (0..40).map(|i| cold_read(seed, 1, 2, i)).collect() };
        assert_eq!(ops(42), ops(42));
        assert_ne!(ops(42), ops(43));
        let mixed = |seed| -> Vec<MixedOp> { (0..200).map(|i| mixed_op(seed, 0, 2, i)).collect() };
        assert_eq!(mixed(42), mixed(42));
        assert_ne!(mixed(42), mixed(43));
        let scans = |seed| -> Vec<ScanBundle> { (0..40).map(|i| scan_bundle(seed, i)).collect() };
        assert_eq!(scans(42), scans(42));
        assert_ne!(scans(42), scans(43));
    }

    #[test]
    fn live_versions_change_two_percent_of_rows() {
        let base = live_rows(9, 0);
        let v = live_rows(9, 7);
        let changed = base.iter().zip(&v).filter(|(a, b)| a != b).count();
        assert!(changed > LIVE_CHANGED_ROWS * 9 / 10 && changed <= LIVE_CHANGED_ROWS);
    }

    #[test]
    fn cold_reads_never_repeat_a_threshold() {
        let mut taus: Vec<u32> = (0..2)
            .flat_map(|conn| (0..5_000).map(move |i| (conn, i)))
            .map(|(conn, i)| cold_read(1, conn, 2, i).join_tau.to_bits())
            .collect();
        taus.sort_unstable();
        taus.dedup();
        assert_eq!(taus.len(), 10_000);
    }

    #[test]
    fn mixed_sequence_writes_one_in_twenty_and_never_repeats_a_payload_in_a_row() {
        // Merge both connections' writes in slot order: the order they
        // would land in if the connections ran in lockstep.
        let mut writes: Vec<(u64, usize)> = Vec::new();
        for conn in 0..2 {
            let mut count = 0;
            for i in 0..2_000 {
                if let MixedOp::Write { payload } = mixed_op(5, conn, 2, i) {
                    assert!((1..LIVE_PAYLOADS).contains(&payload));
                    writes.push((i, payload));
                    count += 1;
                }
            }
            assert_eq!(count, 100);
        }
        writes.sort_unstable();
        assert!(writes.windows(2).all(|w| w[0].1 != w[1].1));
    }

    #[test]
    fn the_first_mixed_operations_read_every_pool_entry() {
        let mut seen = std::collections::HashSet::new();
        for conn in 0..2 {
            for i in 0..40 {
                if let MixedOp::Read { pool_index } = mixed_op(5, conn, 2, i) {
                    seen.insert(pool_index);
                }
            }
        }
        assert_eq!(seen.len(), POOL_GALLERY + POOL_LIVE);
    }

    #[test]
    fn scan_windows_stay_inside_the_log_and_do_not_repeat() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..5_000 {
            let b = scan_bundle(3, i);
            assert!(b.count_frames.hi <= LOG_FRAMES && b.full_frames.hi <= LOG_FRAMES);
            assert_eq!(b.count_frames.hi - b.count_frames.lo, LOG_FRAMES / 10);
            assert_eq!(b.full_frames.hi - b.full_frames.lo, LOG_FRAMES / 400);
            assert!(b.count_scores.lo >= 0.0 && b.count_scores.hi <= 1.0);
            assert!(seen.insert((b.count_frames.lo, b.full_frames.lo)));
        }
    }
}
