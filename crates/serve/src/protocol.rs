//! The `deeplens-serve` wire protocol: length-prefixed frames carrying a
//! compact binary encoding of requests and responses.
//!
//! # Framing
//!
//! Every message is one **frame**: a 4-byte little-endian payload length
//! followed by that many payload bytes. A reader that sees a length above
//! its configured maximum rejects the frame without allocating — an
//! adversarial or corrupt peer cannot make the server reserve gigabytes.
//!
//! # Payloads
//!
//! The first payload byte is an opcode; the rest is the body. Scalars are
//! little-endian; strings are a `u16` byte length plus UTF-8 bytes; vectors
//! are a `u32` element count plus elements. Requests mirror
//! [`BatchQuery`] (θ-predicates are a host-language feature and do not
//! cross the wire); responses carry [`BatchResult`] losslessly, so a client
//! can compare served results byte-for-byte against direct [`Session`]
//! execution.
//!
//! [`Session`]: deeplens_core::session::Session

use std::io::{Read, Write};

use deeplens_core::batch::{BatchQuery, BatchResult};

/// Default cap on a single frame's payload size (1 MiB): large enough for
/// any realistic batch or result set, small enough that a hostile length
/// prefix cannot balloon server memory.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 1 << 20;

/// A protocol-level failure.
#[derive(Debug)]
pub enum WireError {
    /// The underlying transport failed (including a peer disconnecting
    /// mid-frame).
    Io(std::io::Error),
    /// A frame announced a payload larger than the configured maximum.
    FrameTooLarge {
        /// The announced payload length.
        len: usize,
        /// The reader's configured cap.
        max: usize,
    },
    /// The payload bytes do not decode as a valid message.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "io: {e}"),
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
            WireError::Malformed(msg) => write!(f, "malformed message: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Serving counters reported by [`Request::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Sessions currently attached to the served catalog (one per live
    /// connection, plus any in-process sessions).
    pub active_sessions: u32,
    /// Materialized collections in the catalog.
    pub collections: u32,
    /// Requests admitted (executed) since the server started.
    pub admitted: u64,
    /// Requests shed with [`Response::Overloaded`] since the server started.
    pub shed: u64,
    /// Result-cache lookups served from cache since the catalog was built
    /// (`SharedCatalog::result_cache`).
    pub cache_hits: u64,
    /// Result-cache lookups that fell through to execution.
    pub cache_misses: u64,
    /// Result-cache entries evicted by the LRU bound.
    pub cache_evictions: u64,
    /// Ball-index deltas the served catalog's writes collapsed into a full
    /// rebuild by the cost model's merge policy
    /// (`SharedCatalog::index_delta_merges`).
    pub delta_merges: u64,
}

/// A client request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`] and never admitted
    /// against the cost budget.
    Ping,
    /// Execute a batch of declarative queries on the connection's session
    /// ([`deeplens_core::session::Session::batch`]). One admission unit.
    Batch(Vec<BatchQuery>),
    /// Materialize a collection of feature patches under `name`.
    Materialize {
        /// Collection name to publish.
        name: String,
        /// One feature vector per patch.
        rows: Vec<Vec<f32>>,
    },
    /// Build a Ball-Tree index named `index` on `collection`.
    BuildIndex {
        /// Collection to index.
        collection: String,
        /// Name the index is registered under.
        index: String,
    },
    /// Fetch serving counters; never admitted against the cost budget.
    Stats,
}

/// A server reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// Batch results, in query order, lossless.
    Results(Vec<BatchResult>),
    /// A write request ([`Request::Materialize`], [`Request::BuildIndex`])
    /// completed.
    Ack,
    /// Reply to [`Request::Stats`].
    Stats(ServeStats),
    /// The request was **shed**: the in-flight cost budget is exhausted and
    /// the wait queue is at its configured depth. The request was not
    /// executed; the client may retry later.
    Overloaded,
    /// The request was admitted (or rejected before admission) and failed;
    /// the message is the error's display form.
    Error(String),
}

// Request opcodes.
const OP_PING: u8 = 0x01;
const OP_BATCH: u8 = 0x02;
const OP_MATERIALIZE: u8 = 0x03;
const OP_BUILD_INDEX: u8 = 0x04;
const OP_STATS: u8 = 0x05;

// Batch-member tags.
const Q_JOIN: u8 = 0x01;
const Q_DEDUP: u8 = 0x02;
const Q_PROBE: u8 = 0x03;

// Response tags.
const R_PONG: u8 = 0x01;
const R_RESULTS: u8 = 0x02;
const R_ACK: u8 = 0x03;
const R_STATS: u8 = 0x04;
const R_OVERLOADED: u8 = 0xFE;
const R_ERROR: u8 = 0xFF;

// Batch-result tags.
const B_PAIRS: u8 = 0x01;
const B_CLUSTERS: u8 = 0x02;
const B_HITS: u8 = 0x03;

/// Write one frame: 4-byte little-endian payload length, then the payload.
/// A payload whose length does not fit the `u32` prefix is rejected with
/// `InvalidInput` before anything is written.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "payload of {} bytes overflows the u32 frame length",
                payload.len()
            ),
        )
    })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame, rejecting payloads longer than `max_bytes` before
/// allocating. `Ok(None)` on a clean EOF at a frame boundary (the peer hung
/// up between requests); an EOF *inside* a frame is an error.
pub fn read_frame(r: &mut impl Read, max_bytes: usize) -> Result<Option<Vec<u8>>, WireError> {
    let mut len_buf = [0u8; 4];
    match r.read(&mut len_buf) {
        Ok(0) => return Ok(None),
        Ok(n) => r.read_exact(&mut len_buf[n..])?,
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > max_bytes {
        return Err(WireError::FrameTooLarge {
            len,
            max: max_bytes,
        });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_str(out: &mut Vec<u8>, s: &str) -> Result<(), WireError> {
    let len = u16::try_from(s.len())
        .map_err(|_| WireError::Malformed(format!("string of {} bytes too long", s.len())))?;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

fn put_f32s(out: &mut Vec<u8>, v: &[f32]) {
    out.extend_from_slice(&(v.len() as u32).to_le_bytes());
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

impl Request {
    /// Encode into a frame payload. Fails on a
    /// [`BatchQuery::SimilarityJoin`] carrying a θ-predicate — closures are
    /// host-language objects and do not cross the wire.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut out = Vec::new();
        match self {
            Request::Ping => out.push(OP_PING),
            Request::Batch(queries) => {
                out.push(OP_BATCH);
                let n = u16::try_from(queries.len()).map_err(|_| {
                    WireError::Malformed(format!("batch of {} queries too large", queries.len()))
                })?;
                out.extend_from_slice(&n.to_le_bytes());
                for q in queries {
                    match q {
                        BatchQuery::SimilarityJoin {
                            left,
                            right,
                            tau,
                            predicate,
                        } => {
                            if predicate.is_some() {
                                return Err(WireError::Malformed(
                                    "θ-predicates are not wire-encodable".into(),
                                ));
                            }
                            out.push(Q_JOIN);
                            put_str(&mut out, left)?;
                            put_str(&mut out, right)?;
                            out.extend_from_slice(&tau.to_le_bytes());
                        }
                        BatchQuery::Dedup { collection, tau } => {
                            out.push(Q_DEDUP);
                            put_str(&mut out, collection)?;
                            out.extend_from_slice(&tau.to_le_bytes());
                        }
                        BatchQuery::IndexProbe {
                            collection,
                            index,
                            probe,
                            tau,
                        } => {
                            out.push(Q_PROBE);
                            put_str(&mut out, collection)?;
                            put_str(&mut out, index)?;
                            out.extend_from_slice(&tau.to_le_bytes());
                            put_f32s(&mut out, probe);
                        }
                    }
                }
            }
            Request::Materialize { name, rows } => {
                let floats: usize = rows.iter().map(Vec::len).sum();
                out.reserve(1 + 2 + name.len() + 4 + 4 * (rows.len() + floats));
                out.push(OP_MATERIALIZE);
                put_str(&mut out, name)?;
                out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
                for row in rows {
                    put_f32s(&mut out, row);
                }
            }
            Request::BuildIndex { collection, index } => {
                out.push(OP_BUILD_INDEX);
                put_str(&mut out, collection)?;
                put_str(&mut out, index)?;
            }
            Request::Stats => out.push(OP_STATS),
        }
        Ok(out)
    }
}

impl Response {
    /// Encode into a frame payload.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut out = Vec::new();
        match self {
            Response::Pong => out.push(R_PONG),
            Response::Results(results) => {
                out.push(R_RESULTS);
                let n = u16::try_from(results.len()).map_err(|_| {
                    WireError::Malformed(format!("{} results too many", results.len()))
                })?;
                out.extend_from_slice(&n.to_le_bytes());
                for r in results {
                    match r {
                        BatchResult::Pairs(pairs) => {
                            out.push(B_PAIRS);
                            out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
                            for (l, r) in pairs {
                                out.extend_from_slice(&l.to_le_bytes());
                                out.extend_from_slice(&r.to_le_bytes());
                            }
                        }
                        BatchResult::Clusters(clusters) => {
                            out.push(B_CLUSTERS);
                            out.extend_from_slice(&(clusters.len() as u32).to_le_bytes());
                            for c in clusters {
                                out.extend_from_slice(&(c.len() as u32).to_le_bytes());
                                for m in c {
                                    out.extend_from_slice(&m.to_le_bytes());
                                }
                            }
                        }
                        BatchResult::Hits(hits) => {
                            out.push(B_HITS);
                            out.extend_from_slice(&(hits.len() as u32).to_le_bytes());
                            for h in hits {
                                out.extend_from_slice(&h.to_le_bytes());
                            }
                        }
                    }
                }
            }
            Response::Ack => out.push(R_ACK),
            Response::Stats(s) => {
                out.push(R_STATS);
                out.extend_from_slice(&s.active_sessions.to_le_bytes());
                out.extend_from_slice(&s.collections.to_le_bytes());
                out.extend_from_slice(&s.admitted.to_le_bytes());
                out.extend_from_slice(&s.shed.to_le_bytes());
                out.extend_from_slice(&s.cache_hits.to_le_bytes());
                out.extend_from_slice(&s.cache_misses.to_le_bytes());
                out.extend_from_slice(&s.cache_evictions.to_le_bytes());
                out.extend_from_slice(&s.delta_merges.to_le_bytes());
            }
            Response::Overloaded => out.push(R_OVERLOADED),
            Response::Error(msg) => {
                out.push(R_ERROR);
                let truncated: String = msg.chars().take(4096).collect();
                put_str(&mut out, &truncated)?;
            }
        }
        Ok(out)
    }

    /// Encode into a frame payload, degrading to an `Error` reply instead of
    /// failing: the server always has *something* well-formed to put on the
    /// wire, so a response that cannot encode (e.g. an oversized result set)
    /// is reported to the client rather than panicking or silently dropping
    /// the connection.
    pub fn encode_or_error(&self) -> Vec<u8> {
        if let Ok(payload) = self.encode() {
            return payload;
        }
        // Hand-rolled fallback frame: tag + 2-byte length + static message.
        // Infallible by construction (the message is short and ASCII).
        const MSG: &[u8] = b"unencodable response";
        let mut out = Vec::with_capacity(3 + MSG.len());
        out.push(R_ERROR);
        out.extend_from_slice(&(MSG.len() as u16).to_le_bytes());
        out.extend_from_slice(MSG);
        out
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Byte cursor over one frame payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                WireError::Malformed(format!(
                    "truncated: needed {n} bytes at offset {}, frame has {}",
                    self.pos,
                    self.buf.len()
                ))
            })?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Take exactly `N` bytes as an array — the infallible-by-construction
    /// form of `take(N).try_into()`, keeping the decode path panic-free.
    fn arr<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let slice = self.take(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(slice);
        Ok(out)
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.arr()?))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.arr()?))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.arr()?))
    }

    fn f32(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_le_bytes(self.arr()?))
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| WireError::Malformed(format!("invalid UTF-8 string: {e}")))
    }

    fn f32s(&mut self) -> Result<Vec<f32>, WireError> {
        let n = self.u32()? as usize;
        // The count must be consistent with the remaining frame before
        // allocating: a lying header cannot reserve more than the frame.
        if n.checked_mul(4)
            .is_none_or(|b| b > self.buf.len() - self.pos)
        {
            return Err(WireError::Malformed(format!(
                "vector of {n} floats exceeds the frame"
            )));
        }
        let (floats, _) = self.take(4 * n)?.as_chunks::<4>();
        Ok(floats.iter().map(|b| f32::from_le_bytes(*b)).collect())
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return Err(WireError::Malformed(format!(
                "{} trailing bytes after message",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

impl Request {
    /// Decode a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        let mut c = Cursor::new(payload);
        let req = match c.u8()? {
            OP_PING => Request::Ping,
            OP_BATCH => {
                let n = c.u16()? as usize;
                let mut queries = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    queries.push(match c.u8()? {
                        Q_JOIN => BatchQuery::SimilarityJoin {
                            left: c.string()?,
                            right: c.string()?,
                            tau: c.f32()?,
                            predicate: None,
                        },
                        Q_DEDUP => BatchQuery::Dedup {
                            collection: c.string()?,
                            tau: c.f32()?,
                        },
                        Q_PROBE => {
                            let collection = c.string()?;
                            let index = c.string()?;
                            let tau = c.f32()?;
                            let probe = c.f32s()?;
                            BatchQuery::IndexProbe {
                                collection,
                                index,
                                probe,
                                tau,
                            }
                        }
                        tag => {
                            return Err(WireError::Malformed(format!("unknown query tag {tag:#x}")))
                        }
                    });
                }
                Request::Batch(queries)
            }
            OP_MATERIALIZE => {
                let name = c.string()?;
                let n = c.u32()? as usize;
                let mut rows = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    rows.push(c.f32s()?);
                }
                Request::Materialize { name, rows }
            }
            OP_BUILD_INDEX => Request::BuildIndex {
                collection: c.string()?,
                index: c.string()?,
            },
            OP_STATS => Request::Stats,
            op => return Err(WireError::Malformed(format!("unknown request op {op:#x}"))),
        };
        c.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Decode a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        let mut c = Cursor::new(payload);
        let resp = match c.u8()? {
            R_PONG => Response::Pong,
            R_RESULTS => {
                let n = c.u16()? as usize;
                let mut results = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    results.push(match c.u8()? {
                        B_PAIRS => {
                            let n = c.u32()? as usize;
                            let mut pairs = Vec::with_capacity(n.min(1 << 16));
                            for _ in 0..n {
                                pairs.push((c.u32()?, c.u32()?));
                            }
                            BatchResult::Pairs(pairs)
                        }
                        B_CLUSTERS => {
                            let n = c.u32()? as usize;
                            let mut clusters = Vec::with_capacity(n.min(1 << 16));
                            for _ in 0..n {
                                let m = c.u32()? as usize;
                                let mut members = Vec::with_capacity(m.min(1 << 16));
                                for _ in 0..m {
                                    members.push(c.u32()?);
                                }
                                clusters.push(members);
                            }
                            BatchResult::Clusters(clusters)
                        }
                        B_HITS => {
                            let n = c.u32()? as usize;
                            let mut hits = Vec::with_capacity(n.min(1 << 16));
                            for _ in 0..n {
                                hits.push(c.u32()?);
                            }
                            BatchResult::Hits(hits)
                        }
                        tag => {
                            return Err(WireError::Malformed(format!(
                                "unknown result tag {tag:#x}"
                            )))
                        }
                    });
                }
                Response::Results(results)
            }
            R_ACK => Response::Ack,
            R_STATS => Response::Stats(ServeStats {
                active_sessions: c.u32()?,
                collections: c.u32()?,
                admitted: c.u64()?,
                shed: c.u64()?,
                cache_hits: c.u64()?,
                cache_misses: c.u64()?,
                cache_evictions: c.u64()?,
                delta_merges: c.u64()?,
            }),
            R_OVERLOADED => Response::Overloaded,
            R_ERROR => Response::Error(c.string()?),
            tag => {
                return Err(WireError::Malformed(format!(
                    "unknown response tag {tag:#x}"
                )))
            }
        };
        c.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: &Request) -> Request {
        Request::decode(&req.encode().unwrap()).unwrap()
    }

    #[test]
    fn requests_roundtrip() {
        let batch = Request::Batch(vec![
            BatchQuery::SimilarityJoin {
                left: "a".into(),
                right: "b".into(),
                tau: 1.5,
                predicate: None,
            },
            BatchQuery::Dedup {
                collection: "a".into(),
                tau: 0.25,
            },
            BatchQuery::IndexProbe {
                collection: "a".into(),
                index: "by_feat".into(),
                probe: vec![1.0, -2.5, 3.0],
                tau: 2.0,
            },
        ]);
        match roundtrip_request(&batch) {
            Request::Batch(qs) => {
                assert_eq!(qs.len(), 3);
                match &qs[2] {
                    BatchQuery::IndexProbe { probe, tau, .. } => {
                        assert_eq!(probe, &vec![1.0, -2.5, 3.0]);
                        assert_eq!(*tau, 2.0);
                    }
                    other => panic!("wrong member: {other:?}"),
                }
            }
            other => panic!("wrong request: {other:?}"),
        }
        assert!(matches!(roundtrip_request(&Request::Ping), Request::Ping));
        assert!(matches!(roundtrip_request(&Request::Stats), Request::Stats));
        let mat = Request::Materialize {
            name: "col".into(),
            rows: vec![vec![1.0, 2.0], vec![3.0, 4.0]],
        };
        match roundtrip_request(&mat) {
            Request::Materialize { name, rows } => {
                assert_eq!(name, "col");
                assert_eq!(rows, vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn responses_roundtrip_losslessly() {
        let resp = Response::Results(vec![
            BatchResult::Pairs(vec![(0, 1), (2, 3)]),
            BatchResult::Clusters(vec![vec![0, 1], vec![2]]),
            BatchResult::Hits(vec![7, 8, 9]),
        ]);
        assert_eq!(Response::decode(&resp.encode().unwrap()).unwrap(), resp);
        let stats = Response::Stats(ServeStats {
            active_sessions: 3,
            collections: 2,
            admitted: 100,
            shed: 7,
            cache_hits: 19,
            cache_misses: 23,
            cache_evictions: 1,
            delta_merges: 4,
        });
        assert_eq!(Response::decode(&stats.encode().unwrap()).unwrap(), stats);
        for r in [
            Response::Pong,
            Response::Ack,
            Response::Overloaded,
            Response::Error("boom".into()),
        ] {
            assert_eq!(Response::decode(&r.encode().unwrap()).unwrap(), r);
        }
    }

    #[test]
    fn predicates_do_not_cross_the_wire() {
        let pred: deeplens_core::batch::JoinPredicate = std::sync::Arc::new(|_, _| true);
        let req = Request::Batch(vec![BatchQuery::SimilarityJoin {
            left: "a".into(),
            right: "b".into(),
            tau: 1.0,
            predicate: Some(pred),
        }]);
        assert!(matches!(req.encode(), Err(WireError::Malformed(_))));
    }

    #[test]
    fn truncated_and_malformed_payloads_are_rejected() {
        let good = Request::Batch(vec![BatchQuery::Dedup {
            collection: "abc".into(),
            tau: 1.0,
        }])
        .encode()
        .unwrap();
        // Every strict prefix is a truncation error, never a panic.
        for cut in 0..good.len() {
            assert!(
                Request::decode(&good[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        // Trailing garbage is rejected too.
        let mut padded = good.clone();
        padded.push(0xAB);
        assert!(Request::decode(&padded).is_err());
        // Unknown opcodes and tags.
        assert!(Request::decode(&[0x77]).is_err());
        assert!(Response::decode(&[0x42]).is_err());
        // A lying vector count cannot over-allocate: rejected up front.
        let mut lying = Vec::new();
        lying.push(super::OP_BATCH);
        lying.extend_from_slice(&1u16.to_le_bytes());
        lying.push(super::Q_PROBE);
        lying.extend_from_slice(&1u16.to_le_bytes());
        lying.push(b'c');
        lying.extend_from_slice(&1u16.to_le_bytes());
        lying.push(b'i');
        lying.extend_from_slice(&1.0f32.to_le_bytes());
        lying.extend_from_slice(&u32::MAX.to_le_bytes()); // "4 billion floats"
        assert!(matches!(
            Request::decode(&lying),
            Err(WireError::Malformed(_))
        ));
    }

    /// SplitMix64 (the crate draws no generator from a dependency).
    struct Rng(u64);

    impl Rng {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next_u64() % n
        }

        /// A float bit pattern: ordinary values, ±0, ±∞, subnormals, and
        /// quiet and signalling NaNs with random payloads.
        fn f32_bits(&mut self) -> u32 {
            let r = self.next_u64() as u32;
            match self.below(6) {
                0 => (r & 0x8000_0000) | 0x7F80_0000 | (r & 0x007F_FFFF).max(1),
                1 => (r & 0x8000_0000) | 0x7F80_0000,
                2 => r & 0x8000_0000,
                3 => r & 0x807F_FFFF,
                _ => r,
            }
        }

        fn floats(&mut self, n: usize) -> Vec<f32> {
            (0..n).map(|_| f32::from_bits(self.f32_bits())).collect()
        }
    }

    impl Cursor<'_> {
        /// The per-float decode the bulk [`Cursor::f32s`] replaced.
        fn f32s_per_float(&mut self) -> Result<Vec<f32>, WireError> {
            let n = self.u32()? as usize;
            if n.checked_mul(4)
                .is_none_or(|b| b > self.buf.len() - self.pos)
            {
                return Err(WireError::Malformed(format!(
                    "vector of {n} floats exceeds the frame"
                )));
            }
            (0..n).map(|_| self.f32()).collect()
        }
    }

    #[test]
    fn bulk_f32s_equal_the_per_float_decode_bit_for_bit() {
        let mut rng = Rng(0xF32);
        for case in 0..4_000 {
            let n = rng.below(70) as usize;
            let mut payload = Vec::new();
            // A third of the counts lie, in either direction.
            let count = match rng.below(3) {
                0 => rng.below(80) as u32,
                _ => n as u32,
            };
            payload.extend_from_slice(&count.to_le_bytes());
            for _ in 0..n {
                payload.extend_from_slice(&rng.f32_bits().to_le_bytes());
            }
            payload.extend((0..rng.below(6)).map(|_| rng.next_u64() as u8));
            let (mut bulk, mut reference) = (Cursor::new(&payload), Cursor::new(&payload));
            match (bulk.f32s(), reference.f32s_per_float()) {
                (Ok(a), Ok(b)) => {
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&a), bits(&b), "case {case}");
                    assert_eq!(bulk.pos, reference.pos, "case {case}");
                }
                (Err(WireError::Malformed(_)), Err(WireError::Malformed(_))) => {}
                (a, b) => panic!("case {case}: bulk {a:?}, per-float {b:?}"),
            }
        }
    }

    /// Decode `bytes` as a request or a response: `Ok` or `Malformed`,
    /// never a panic or another error kind.
    fn decodes_or_malformed(bytes: &[u8], request: bool, what: &str) {
        let result = if request {
            Request::decode(bytes).map(drop)
        } else {
            Response::decode(bytes).map(drop)
        };
        assert!(
            matches!(result, Ok(()) | Err(WireError::Malformed(_))),
            "{what}: {result:?}"
        );
    }

    #[test]
    fn hostile_mutations_of_valid_messages_decode_or_fail_cleanly() {
        let mut rng = Rng(27);
        let rows: Vec<Vec<f32>> = (0..40).map(|_| rng.floats(8)).collect();
        let materialize = Request::Materialize {
            name: "live".into(),
            rows: rows.clone(),
        };
        let batch = Request::Batch(vec![
            BatchQuery::IndexProbe {
                collection: "gallery".into(),
                index: "by_feat".into(),
                probe: rng.floats(8),
                tau: 0.5,
            },
            BatchQuery::SimilarityJoin {
                left: "probes".into(),
                right: "gallery".into(),
                tau: 1.25,
                predicate: None,
            },
            BatchQuery::IndexProbe {
                collection: "live".into(),
                index: "by_feat".into(),
                probe: rng.floats(3),
                tau: 2.0,
            },
            BatchQuery::Dedup {
                collection: "probes".into(),
                tau: 0.75,
            },
        ]);
        let results = Response::Results(vec![
            BatchResult::Pairs((0..30).map(|i| (i, 3 * i + 1)).collect()),
            BatchResult::Clusters(vec![vec![0, 4, 9], vec![], vec![7]]),
            BatchResult::Hits((0..25).collect()),
        ]);
        let messages = [
            ("materialize", materialize.encode().unwrap(), true),
            ("batch", batch.encode().unwrap(), true),
            ("results", results.encode().unwrap(), false),
        ];
        for (name, good, request) in &messages {
            decodes_or_malformed(good, *request, name);
            // Every truncation.
            for cut in 0..good.len() {
                decodes_or_malformed(&good[..cut], *request, &format!("{name} cut {cut}"));
            }
            // Random single-bit flips.
            for _ in 0..3_000 {
                let mut bytes = good.clone();
                let bit = rng.below(8 * bytes.len() as u64) as usize;
                bytes[bit / 8] ^= 1 << (bit % 8);
                decodes_or_malformed(&bytes, *request, &format!("{name} bit {bit}"));
            }
            // A lying u32 at every offset covers each count field (rows,
            // floats, pairs, clusters, members, hits).
            for at in 0..good.len().saturating_sub(3) {
                let len = good.len() as u32;
                for lie in [0, 1, len / 4, len, len + 1, 1 << 30, u32::MAX] {
                    let mut bytes = good.clone();
                    bytes[at..at + 4].copy_from_slice(&lie.to_le_bytes());
                    decodes_or_malformed(&bytes, *request, &format!("{name} u32 {lie} at {at}"));
                }
            }
        }
        // The unmutated messages still round-trip exactly.
        match Request::decode(&messages[0].1).unwrap() {
            Request::Materialize { rows: decoded, .. } => {
                let bits = |r: &[Vec<f32>]| {
                    r.iter()
                        .flat_map(|v| v.iter().map(|x| x.to_bits()))
                        .collect::<Vec<_>>()
                };
                assert_eq!(bits(&decoded), bits(&rows));
            }
            other => panic!("wrong request: {other:?}"),
        }
        assert_eq!(Response::decode(&messages[2].1).unwrap(), results);
    }

    #[test]
    fn frames_roundtrip_and_oversize_is_rejected_before_allocating() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r, 64).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r, 64).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r, 64).unwrap().is_none(), "clean EOF");
        // An announced length beyond the cap fails without reading further.
        let huge = (u32::MAX).to_le_bytes();
        assert!(matches!(
            read_frame(&mut &huge[..], 64),
            Err(WireError::FrameTooLarge { .. })
        ));
        // EOF inside a frame is an error, not a silent None.
        let mut partial = Vec::new();
        partial.extend_from_slice(&10u32.to_le_bytes());
        partial.extend_from_slice(b"abc");
        assert!(matches!(
            read_frame(&mut &partial[..], 64),
            Err(WireError::Io(_))
        ));
    }
}
