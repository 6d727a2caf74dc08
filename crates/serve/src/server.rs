//! The serving loop: TCP accept → connection threads → session dispatch.
//!
//! [`serve`] binds a listener over an [`Arc<SharedCatalog>`] and returns a
//! [`ServerHandle`]. Each accepted connection gets its **own**
//! [`Session`] attached to the shared catalog — the connection *is* the
//! session, so the multi-session thread-budget split
//! ([`Session::effective_threads`]) and snapshot isolation apply to remote
//! clients exactly as they do to in-process ones.
//!
//! Every executing request passes **cost-weighted admission**
//! ([`crate::admission`]). A `Batch` is planned first
//! ([`QueryBatch::plan`](deeplens_core::batch::QueryBatch::plan)), admitted
//! on that plan's own
//! [`estimate_us`](deeplens_core::batch::PlannedBatch::estimate_us) —
//! queued to a bounded depth, shed with [`Response::Overloaded`] past it —
//! and then the same planned value runs: what is admitted is what executes,
//! on the snapshots it was priced on. Writes are priced by data volume,
//! index builds by [`Session::build_ball_index_estimate_us`].

use std::io::Read;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use deeplens_analyze::sync::{LockRank, OrderedMutex};

use deeplens_core::optimizer::DevicePlanner;
use deeplens_core::patch::{ImgRef, Patch};
use deeplens_core::session::Session;
use deeplens_core::shared::SharedCatalog;

use crate::admission::{AdmissionConfig, AdmissionController};
use crate::protocol::{
    write_frame, Request, Response, ServeStats, WireError, DEFAULT_MAX_FRAME_BYTES,
};

/// The per-connection read timeout: the granularity at which connection
/// threads notice a shutdown request. Also the pause after a failed
/// `accept`, so an error the listener keeps returning cannot spin.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// How long [`ServerHandle::stop`] waits for its wake-up connection to the
/// blocked accept loop before giving up on joining it.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see
    /// [`ServerHandle::local_addr`]).
    pub addr: String,
    /// Thread budget of every connection's session
    /// ([`Session::set_threads`]; `0` is one worker per hardware thread).
    pub threads: usize,
    /// Per-frame payload cap; larger announced frames are rejected without
    /// allocating and the connection is closed, and a reply that encodes
    /// larger is answered with an Error instead.
    pub max_frame_bytes: usize,
    /// Admission knobs (in-flight cost budget, queue depth).
    pub admission: AdmissionConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 1,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            admission: AdmissionConfig::default(),
        }
    }
}

/// Handle to a running server: address, counters, shutdown.
#[derive(Debug)]
pub struct ServerHandle {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    connections: Arc<OrderedMutex<Vec<JoinHandle<()>>>>,
    admission: Arc<AdmissionController>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Requests admitted (executed) so far.
    pub fn admitted(&self) -> u64 {
        self.admission.admitted()
    }

    /// Requests shed with [`Response::Overloaded`] so far.
    pub fn shed(&self) -> u64 {
        self.admission.shed()
    }

    /// Stop accepting, wake every connection thread, and join them all.
    /// Idempotent; also runs on drop.
    ///
    /// The accept loop blocks in `accept`, so `stop` wakes it with one
    /// loopback connection to the bound port. If that connection cannot be
    /// made, the accept thread is detached instead of joined: `stop` never
    /// hangs, and the thread exits on the next connection it accepts.
    pub fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            if TcpStream::connect_timeout(&wake_addr(self.local_addr), WAKE_TIMEOUT).is_ok() {
                let _ = t.join();
            }
        }
        let drained: Vec<JoinHandle<()>> = std::mem::take(&mut *self.connections.lock());
        for t in drained {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Start serving `catalog` per `config`. Returns once the listener is
/// bound; the accept loop and every connection run on background threads
/// until [`ServerHandle::stop`].
pub fn serve(catalog: Arc<SharedCatalog>, config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let local_addr = listener.local_addr()?;

    let shutdown = Arc::new(AtomicBool::new(false));
    let admission = Arc::new(AdmissionController::new(config.admission));
    let connections: Arc<OrderedMutex<Vec<JoinHandle<()>>>> = Arc::new(OrderedMutex::new(
        LockRank::ConnectionRegistry,
        "ServerHandle::connections",
        Vec::new(),
    ));
    // One calibration per server, not per request: the planner constants
    // are host properties.
    let planner = DevicePlanner::calibrated();

    let accept_thread = {
        let shutdown = shutdown.clone();
        let connections = connections.clone();
        let admission = admission.clone();
        std::thread::spawn(move || {
            loop {
                match listener.accept() {
                    // The wake-up connection of `stop` (or a client racing
                    // it): serve nothing more.
                    Ok(_) if shutdown.load(Ordering::SeqCst) => return,
                    Ok((stream, _peer)) => {
                        let conn = Connection {
                            catalog: catalog.clone(),
                            admission: admission.clone(),
                            shutdown: shutdown.clone(),
                            planner,
                            threads: config.threads,
                            max_frame_bytes: config.max_frame_bytes,
                        };
                        let handle = std::thread::spawn(move || conn.run(stream));
                        let mut registry = connections.lock();
                        // Join the connections that have hung up: a
                        // finished thread keeps its stack until joined.
                        for finished in registry.extract_if(.., |h| h.is_finished()) {
                            let _ = finished.join();
                        }
                        registry.push(handle);
                    }
                    Err(_) if shutdown.load(Ordering::SeqCst) => return,
                    Err(_) => std::thread::sleep(POLL_INTERVAL),
                }
            }
        })
    };

    Ok(ServerHandle {
        local_addr,
        shutdown,
        accept_thread: Some(accept_thread),
        connections,
        admission,
    })
}

/// Where [`ServerHandle::stop`] connects to wake the accept loop: the
/// bound address, with an unspecified IP (`0.0.0.0`, `::`) replaced by the
/// loopback address of its family.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// Per-connection state and dispatch.
struct Connection {
    catalog: Arc<SharedCatalog>,
    admission: Arc<AdmissionController>,
    shutdown: Arc<AtomicBool>,
    planner: DevicePlanner,
    threads: usize,
    max_frame_bytes: usize,
}

impl Connection {
    fn run(self, mut stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
        // The connection IS a session: remote clients enter the same
        // thread-budget split and snapshot isolation as in-process ones.
        let Ok(mut session) = Session::ephemeral_attached(self.catalog.clone()) else {
            return;
        };
        session.set_threads(self.threads);

        loop {
            let payload = match self.read_frame_interruptible(&mut stream) {
                Ok(Some(p)) => p,
                // Clean EOF or shutdown.
                Ok(None) => return,
                Err(WireError::FrameTooLarge { len, max }) => {
                    // Reject without allocating — and without consuming the
                    // oversized payload, so the stream cannot be resynced:
                    // reply, then close.
                    let _ = self.reply(
                        &mut stream,
                        &Response::Error(format!(
                            "frame of {len} bytes exceeds the {max}-byte limit"
                        )),
                    );
                    return;
                }
                // Disconnect mid-frame, or a transport error.
                Err(WireError::Io(_)) => return,
                Err(WireError::Malformed(msg)) => {
                    let _ = self.reply(&mut stream, &Response::Error(msg));
                    return;
                }
            };
            let request = match Request::decode(&payload) {
                Ok(r) => r,
                Err(e) => {
                    // The frame boundary is intact, so a malformed payload
                    // is answerable — report and keep serving.
                    if self
                        .reply(&mut stream, &Response::Error(e.to_string()))
                        .is_err()
                    {
                        return;
                    }
                    continue;
                }
            };
            let response = self.handle(&session, request);
            if self.reply(&mut stream, &response).is_err() {
                return;
            }
        }
    }

    fn reply(&self, stream: &mut TcpStream, response: &Response) -> Result<(), WireError> {
        let mut payload = response.encode_or_error();
        // A client reading with the same cap would reject the frame and
        // leave its payload in the socket; answer an Error instead so the
        // connection stays in sync.
        if payload.len() > self.max_frame_bytes {
            payload = Response::Error(format!(
                "reply of {} bytes exceeds the {}-byte frame limit",
                payload.len(),
                self.max_frame_bytes
            ))
            .encode_or_error();
        }
        write_frame(stream, &payload)?;
        Ok(())
    }

    /// Dispatch one request. Executing requests pass admission first; the
    /// permit spans execution so the in-flight budget reflects running
    /// work.
    fn handle(&self, session: &Session, request: Request) -> Response {
        match request {
            Request::Ping => Response::Pong,
            Request::Stats => {
                let counts = self.catalog.counters();
                Response::Stats(ServeStats {
                    active_sessions: self.catalog.active_sessions() as u32,
                    collections: self.catalog.names().len() as u32,
                    admitted: self.admission.admitted(),
                    shed: self.admission.shed(),
                    cache_hits: counts.cache_hits,
                    cache_misses: counts.cache_misses,
                    cache_evictions: counts.cache_evictions,
                    delta_merges: counts.index_delta_merges,
                })
            }
            Request::Batch(queries) => {
                let mut batch = session.batch();
                for q in queries {
                    batch.push(q);
                }
                // Plan, admit on the plan's own estimate, run that plan.
                let planned = match batch.plan() {
                    Ok(p) => p,
                    Err(e) => return Response::Error(e.to_string()),
                };
                self.admitted(planned.estimate_us(&self.planner), || match planned.run() {
                    Ok(results) => Response::Results(results),
                    Err(e) => Response::Error(e.to_string()),
                })
            }
            Request::Materialize { name, rows } => {
                // A write is a copy: charge the float volume at the
                // vectorized throughput bridge.
                let floats: usize = rows.iter().map(Vec::len).sum();
                self.admitted(floats as f64 / self.planner.units_per_us, || {
                    let mut ids = self.catalog.reserve_patch_ids(rows.len() as u64);
                    // A served row is its own source frame: the collection's
                    // name (one string shared by every row) and the row's
                    // id, so no two served rows share an `ImgRef`.
                    let source: Arc<str> = Arc::from(name.as_str());
                    let patches: Vec<Patch> = rows
                        .into_iter()
                        .map(|row| {
                            let id = ids.alloc();
                            Patch::features(id, ImgRef::frame(source.clone(), id.0), row)
                        })
                        .collect();
                    self.catalog.materialize(&name, patches);
                    Response::Ack
                })
            }
            Request::BuildIndex { collection, index } => self.admitted(
                session.build_ball_index_estimate_us(&collection, &self.planner),
                || match session.build_ball_index(&collection, &index) {
                    Ok(()) => Response::Ack,
                    Err(e) => Response::Error(e.to_string()),
                },
            ),
        }
    }

    /// Run `work` under an admission permit of `cost_us` (estimated µs on
    /// the connection's session), or shed it.
    fn admitted(&self, cost_us: f64, work: impl FnOnce() -> Response) -> Response {
        match self.admission.admit(cost_us) {
            Ok(_permit) => work(),
            Err(_) => Response::Overloaded,
        }
    }

    /// [`crate::protocol::read_frame`] semantics, tolerant of read
    /// timeouts — the shutdown flag is re-checked between attempts — while
    /// still treating EOF inside a frame as the error it is.
    fn read_frame_interruptible(
        &self,
        stream: &mut TcpStream,
    ) -> Result<Option<Vec<u8>>, WireError> {
        let mut header = [0u8; 4];
        let mut got = 0usize;
        while got < 4 {
            if self.shutdown.load(Ordering::SeqCst) {
                return Ok(None);
            }
            match stream.read(&mut header[got..]) {
                Ok(0) if got == 0 => return Ok(None),
                Ok(0) => {
                    return Err(WireError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "disconnect inside a frame header",
                    )))
                }
                Ok(n) => got += n,
                Err(e) if retryable(&e) => continue,
                Err(e) => return Err(e.into()),
            }
        }
        let len = u32::from_le_bytes(header) as usize;
        if len > self.max_frame_bytes {
            return Err(WireError::FrameTooLarge {
                len,
                max: self.max_frame_bytes,
            });
        }
        let mut payload = vec![0u8; len];
        let mut got = 0usize;
        while got < len {
            if self.shutdown.load(Ordering::SeqCst) {
                return Ok(None);
            }
            match stream.read(&mut payload[got..]) {
                Ok(0) => {
                    return Err(WireError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "disconnect inside a frame payload",
                    )))
                }
                Ok(n) => got += n,
                Err(e) if retryable(&e) => continue,
                Err(e) => return Err(e.into()),
            }
        }
        Ok(Some(payload))
    }
}

/// Read errors that mean "try again" rather than "connection failed".
fn retryable(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::Interrupted
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;

    #[test]
    fn stop_returns_with_no_client_and_with_a_connection_open() {
        let mut idle = serve(Arc::new(SharedCatalog::new()), ServerConfig::default()).unwrap();
        idle.stop();
        // The accept loop returned and dropped the listener.
        assert!(TcpStream::connect(idle.local_addr()).is_err());

        let mut busy = serve(Arc::new(SharedCatalog::new()), ServerConfig::default()).unwrap();
        let mut client = Client::connect(busy.local_addr()).unwrap();
        client.ping().unwrap();
        busy.stop();
        assert!(busy.connections.lock().is_empty());
        assert!(TcpStream::connect(busy.local_addr()).is_err());
        // Stopping again is a no-op.
        busy.stop();
        drop(client);
    }

    #[test]
    fn unspecified_bind_addresses_wake_through_loopback() {
        let v4: SocketAddr = "0.0.0.0:4000".parse().unwrap();
        assert_eq!(wake_addr(v4), "127.0.0.1:4000".parse().unwrap());
        let v6: SocketAddr = "[::]:4000".parse().unwrap();
        assert_eq!(wake_addr(v6), "[::1]:4000".parse().unwrap());
        let bound: SocketAddr = "10.1.2.3:4000".parse().unwrap();
        assert_eq!(wake_addr(bound), bound);
    }

    #[test]
    fn stop_on_an_unspecified_bind_address_returns() {
        let config = ServerConfig {
            addr: "0.0.0.0:0".into(),
            ..ServerConfig::default()
        };
        let mut server = serve(Arc::new(SharedCatalog::new()), config).unwrap();
        server.stop();
        assert!(TcpStream::connect(wake_addr(server.local_addr())).is_err());
    }

    #[test]
    fn finished_connections_leave_the_registry() {
        let mut server = serve(Arc::new(SharedCatalog::new()), ServerConfig::default()).unwrap();
        for _ in 0..200 {
            let mut client = Client::connect(server.local_addr()).unwrap();
            client.ping().unwrap();
        }
        let held = server.connections.lock().len();
        server.stop();
        assert!(
            held <= 8,
            "{held} handles held after 200 finished connections"
        );
    }
}
