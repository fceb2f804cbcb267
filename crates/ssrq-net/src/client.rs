//! The client side of shard connections: endpoint parsing, connect with
//! retry, framed request/response calls with byte accounting
//! ([`ShardClient`]) — and the per-endpoint [`ConnectionPool`] that hands
//! every concurrent caller a connection of its own.

use crate::error::NetError;
use crate::proto::Message;
use crate::wire::{parse_header, FrameHeader, HEADER_LEN};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Where a shard server listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix-domain socket path (`unix:/path/to.sock`).
    Unix(PathBuf),
    /// A TCP address (`tcp:host:port`).
    Tcp(String),
}

impl Endpoint {
    /// Parses `unix:<path>` or `tcp:<addr>`.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] for any other scheme.
    pub fn parse(s: &str) -> Result<Endpoint, NetError> {
        if let Some(path) = s.strip_prefix("unix:") {
            return Ok(Endpoint::Unix(PathBuf::from(path)));
        }
        if let Some(addr) = s.strip_prefix("tcp:") {
            return Ok(Endpoint::Tcp(addr.to_owned()));
        }
        Err(NetError::Protocol {
            shard: s.to_owned(),
            detail: "endpoint must start with unix: or tcp:".into(),
        })
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

/// One connected socket, Unix-domain or TCP.
#[derive(Debug)]
pub(crate) enum Stream {
    /// A Unix-domain connection.
    Unix(UnixStream),
    /// A TCP connection.
    Tcp(TcpStream),
}

impl Stream {
    pub(crate) fn connect(endpoint: &Endpoint) -> std::io::Result<Stream> {
        Ok(match endpoint {
            Endpoint::Unix(path) => Stream::Unix(UnixStream::connect(path)?),
            Endpoint::Tcp(addr) => {
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true).ok();
                Stream::Tcp(stream)
            }
        })
    }

    pub(crate) fn set_timeouts(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => {
                s.set_read_timeout(timeout)?;
                s.set_write_timeout(timeout)
            }
            Stream::Tcp(s) => {
                s.set_read_timeout(timeout)?;
                s.set_write_timeout(timeout)
            }
        }
    }

    /// Sets only the read timeout; writes stay blocking.
    pub(crate) fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_read_timeout(timeout),
            Stream::Tcp(s) => s.set_read_timeout(timeout),
        }
    }

    /// Connects with retry until `timeout` elapses — shard servers may
    /// still be binding their socket when the coordinator starts.
    fn connect_retry(endpoint: &Endpoint, timeout: Duration) -> Result<Stream, NetError> {
        let deadline = Instant::now() + timeout;
        loop {
            match Stream::connect(endpoint) {
                Ok(stream) => return Ok(stream),
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(NetError::Io(e));
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
    }
}

fn map_io_error(endpoint: &Endpoint, e: std::io::Error) -> NetError {
    use std::io::ErrorKind;
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => NetError::Timeout {
            shard: endpoint.to_string(),
        },
        ErrorKind::UnexpectedEof
        | ErrorKind::ConnectionReset
        | ErrorKind::ConnectionAborted
        | ErrorKind::BrokenPipe => NetError::Disconnected {
            shard: endpoint.to_string(),
        },
        _ => NetError::Io(e),
    }
}

/// Reads exactly `buf.len()` bytes, mapping EOF and timeouts to the
/// crate's typed errors.
fn read_full_stream(
    stream: &mut Stream,
    endpoint: &Endpoint,
    buf: &mut [u8],
) -> Result<(), NetError> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(NetError::Disconnected {
                    shard: endpoint.to_string(),
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(map_io_error(endpoint, e)),
        }
    }
    Ok(())
}

/// Reads one whole frame (fixed-size header, then payload), returning the
/// parsed header and payload bytes.
fn read_frame_stream(
    stream: &mut Stream,
    endpoint: &Endpoint,
) -> Result<(FrameHeader, Vec<u8>), NetError> {
    let mut header = [0u8; HEADER_LEN];
    read_full_stream(stream, endpoint, &mut header)?;
    let parsed = parse_header(&header)?;
    let mut payload = vec![0u8; parsed.payload_len as usize];
    read_full_stream(stream, endpoint, &mut payload)?;
    Ok((parsed, payload))
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// Bytes moved by one [`ShardClient::call`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireTraffic {
    /// Bytes written (frame header included).
    pub bytes_sent: usize,
    /// Bytes read (frame header included).
    pub bytes_received: usize,
}

/// A framed request/response connection to one shard server.
///
/// The connection is reused across calls (and across the queries of a
/// batch); it is **not** internally synchronized — one call at a time,
/// which is exactly what the sequential scatter needs.
#[derive(Debug)]
pub struct ShardClient {
    endpoint: Endpoint,
    stream: Stream,
    /// The frame id the next request carries; the response must echo it.
    next_id: u32,
    /// The deadline the socket currently has, so that setting the same
    /// one again costs no system call.
    deadline: Option<Duration>,
}

impl ShardClient {
    /// Connects to `endpoint`, retrying until `timeout` elapses — shard
    /// servers may still be binding their socket when the coordinator
    /// starts.
    ///
    /// # Errors
    ///
    /// The last connect failure once the timeout is exhausted.
    pub fn connect(endpoint: &Endpoint, timeout: Duration) -> Result<ShardClient, NetError> {
        Ok(ShardClient {
            endpoint: endpoint.clone(),
            stream: Stream::connect_retry(endpoint, timeout)?,
            next_id: 1,
            deadline: None,
        })
    }

    /// The endpoint this client talks to.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Sets the per-call deadline: both the write and the read of every
    /// subsequent [`ShardClient::call`] must complete within `deadline`.
    /// `None` waits indefinitely.
    ///
    /// # Errors
    ///
    /// The socket-level failure, if the timeout cannot be applied.
    pub fn set_deadline(&mut self, deadline: Option<Duration>) -> Result<(), NetError> {
        if self.deadline != deadline {
            self.stream.set_timeouts(deadline)?;
            self.deadline = deadline;
        }
        Ok(())
    }

    /// Sends one message under a fresh frame id and reads the response
    /// frame, returning the decoded response and the bytes moved.
    ///
    /// A [`Message::Fail`] response is surfaced as [`NetError::Remote`];
    /// the bytes a failed call moved are not reported.
    ///
    /// After any error but [`NetError::Remote`] the connection must not be
    /// called again: the response may still be on its way, and would be
    /// read as the next call's.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] past the deadline, [`NetError::Disconnected`]
    /// on EOF/reset, [`NetError::Wire`] for malformed frames,
    /// [`NetError::Protocol`] for a response that does not echo the
    /// request's frame id, [`NetError::Remote`] for a typed server
    /// refusal.
    pub fn call(&mut self, message: &Message) -> Result<(Message, WireTraffic), NetError> {
        let frame_id = self.next_id;
        self.next_id = frame_id.wrapping_add(1);
        let bytes = message.encode_with_id(frame_id);
        self.stream
            .write_all(&bytes)
            .and_then(|()| self.stream.flush())
            .map_err(|e| map_io_error(&self.endpoint, e))?;

        let (header, payload) = read_frame_stream(&mut self.stream, &self.endpoint)?;
        if header.frame_id != frame_id {
            return Err(NetError::Protocol {
                shard: self.endpoint.to_string(),
                detail: format!(
                    "response carries frame id {} but the request was sent under {frame_id}",
                    header.frame_id
                ),
            });
        }
        let response = Message::decode(header.tag, &payload)?;
        if let Message::Fail { kind, message } = response {
            return Err(NetError::Remote {
                shard: self.endpoint.to_string(),
                kind,
                message,
            });
        }
        let traffic = WireTraffic {
            bytes_sent: bytes.len(),
            bytes_received: header.header_len() + payload.len(),
        };
        Ok((response, traffic))
    }
}

/// A per-endpoint pool of idle [`ShardClient`]s.
///
/// A call takes an idle connection (or opens one), runs its one
/// request/response on it and puts it back, so every concurrent caller
/// has a socket of its own and the pool grows to the number of callers
/// that were ever in flight at once.  The pool is `Sync`: any number of
/// query threads may call concurrently.
#[derive(Debug)]
pub struct ConnectionPool {
    endpoint: Endpoint,
    connect_timeout: Duration,
    idle: Mutex<Vec<ShardClient>>,
}

impl ConnectionPool {
    /// An empty pool of connections to `endpoint`; sockets are opened on
    /// demand, each within `connect_timeout`.
    pub fn new(endpoint: Endpoint, connect_timeout: Duration) -> ConnectionPool {
        ConnectionPool {
            endpoint,
            connect_timeout,
            idle: Mutex::new(Vec::new()),
        }
    }

    /// The endpoint this pool serves.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// One request/response call through the pool, with the coordinator's
    /// one-immediate-reconnect semantics: a call that found its *pooled*
    /// connection dead ([`NetError::Disconnected`], [`NetError::Io`])
    /// drops every idle connection — they are as old as the dead one — and
    /// is retried once on a fresh socket.  Every other failure is returned
    /// as it is: after a [`NetError::Timeout`] or a typed refusal the
    /// server has the request, so a retry would only double a slow shard's
    /// load and the caller's deadline.
    ///
    /// # Errors
    ///
    /// The first attempt's failure, or the second's after a reconnect.
    pub fn call(
        &self,
        message: &Message,
        deadline: Option<Duration>,
    ) -> Result<(Message, WireTraffic), NetError> {
        let pooled = self.idle.lock().expect("pool lock").pop();
        if let Some(client) = pooled {
            match self.call_on(client, message, deadline) {
                Err(NetError::Disconnected { .. } | NetError::Io(_)) => self.close(),
                outcome => return outcome,
            }
        }
        let client = ShardClient::connect(&self.endpoint, self.connect_timeout)?;
        self.call_on(client, message, deadline)
    }

    /// Runs one call on `client` and returns it to the idle list only if
    /// the exchange completed (an answer or a typed refusal).  After a
    /// timeout or a frame that cannot be trusted the response may still
    /// arrive, and must never be read as the next call's — that
    /// connection is dropped.
    fn call_on(
        &self,
        mut client: ShardClient,
        message: &Message,
        deadline: Option<Duration>,
    ) -> Result<(Message, WireTraffic), NetError> {
        client.set_deadline(deadline)?;
        let outcome = client.call(message);
        if matches!(outcome, Ok(_) | Err(NetError::Remote { .. })) {
            self.idle.lock().expect("pool lock").push(client);
        }
        outcome
    }

    /// Drops every idle connection.
    pub fn close(&self) {
        self.idle.lock().expect("pool lock").clear();
    }
}
