//! Blocking client for the `deeplens-serve` wire protocol.
//!
//! One [`Client`] wraps one TCP connection — and therefore one server-side
//! [`Session`]: requests issued through it execute with that session's
//! thread slice and snapshot view. Requests are synchronous
//! (request → reply); sheds surface as [`ClientError::Overloaded`] so load
//! generators can count them without string-matching.
//!
//! [`Session`]: deeplens_core::session::Session

use std::net::{Shutdown, TcpStream, ToSocketAddrs};

use deeplens_core::batch::{BatchQuery, BatchResult};

use crate::protocol::{
    read_frame, write_frame, Request, Response, ServeStats, WireError, DEFAULT_MAX_FRAME_BYTES,
};

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or protocol failure.
    Wire(WireError),
    /// The server shed the request (admission queue full); retry later.
    Overloaded,
    /// The server executed (or rejected) the request and reported an error.
    Server(String),
    /// The server answered with a reply of the wrong kind.
    Unexpected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "wire: {e}"),
            ClientError::Overloaded => write!(f, "server overloaded: request shed"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
            ClientError::Unexpected(msg) => write!(f, "unexpected reply: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Wire(WireError::Io(e))
    }
}

/// A blocking connection to a `deeplens-serve` server.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    max_frame_bytes: usize,
}

impl Client {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
        })
    }

    /// One request → one reply.
    ///
    /// A reply over the frame cap leaves its payload unread in the socket,
    /// so the stream is shut: later calls fail cleanly instead of decoding
    /// payload bytes as frame lengths.
    fn roundtrip(&mut self, request: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, &request.encode()?)?;
        let payload = match read_frame(&mut self.stream, self.max_frame_bytes) {
            Err(e @ WireError::FrameTooLarge { .. }) => {
                let _ = self.stream.shutdown(Shutdown::Both);
                return Err(e.into());
            }
            read => read?,
        }
        .ok_or_else(|| {
            ClientError::Wire(WireError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )))
        })?;
        match Response::decode(&payload)? {
            Response::Overloaded => Err(ClientError::Overloaded),
            Response::Error(msg) => Err(ClientError::Server(msg)),
            other => Ok(other),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Execute a batch of declarative queries on this connection's session.
    /// Results come back in query order, losslessly — byte-identical to
    /// direct [`deeplens_core::session::Session::batch`] execution against
    /// the same snapshots.
    pub fn batch(&mut self, queries: Vec<BatchQuery>) -> Result<Vec<BatchResult>, ClientError> {
        match self.roundtrip(&Request::Batch(queries))? {
            Response::Results(results) => Ok(results),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Materialize a feature-patch collection under `name`.
    pub fn materialize(&mut self, name: &str, rows: Vec<Vec<f32>>) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Materialize {
            name: name.into(),
            rows,
        })? {
            Response::Ack => Ok(()),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Build a Ball-Tree index named `index` on `collection`.
    pub fn build_index(&mut self, collection: &str, index: &str) -> Result<(), ClientError> {
        match self.roundtrip(&Request::BuildIndex {
            collection: collection.into(),
            index: index.into(),
        })? {
            Response::Ack => Ok(()),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Fetch serving counters.
    pub fn stats(&mut self) -> Result<ServeStats, ClientError> {
        match self.roundtrip(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }
}
