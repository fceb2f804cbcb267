//! The client side of shard connections: endpoint parsing, connect with
//! retry, framed request/response calls with byte accounting — and the
//! multiplexing layer ([`MuxConnection`], [`ConnectionPool`]) that lets
//! many concurrent queries share a few sockets per endpoint.

use crate::error::NetError;
use crate::proto::Message;
use crate::wire::{parse_header, FrameHeader, HEADER_LEN};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
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

    /// Duplicates the socket handle.  Timeouts are a property of the
    /// shared socket, not the handle — a multiplexed connection therefore
    /// only ever sets the **write** timeout, so its blocking reader is
    /// not disturbed.
    pub(crate) fn try_clone(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
        })
    }

    /// Sets only the read timeout (shared by every handle of the socket);
    /// writes stay blocking.
    pub(crate) fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_read_timeout(timeout),
            Stream::Tcp(s) => s.set_read_timeout(timeout),
        }
    }

    /// Shuts the socket down in both directions, waking a reader blocked
    /// in `read` on another handle of the same socket.
    pub(crate) fn shutdown(&self) {
        match self {
            Stream::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            Stream::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
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
/// batch); it is **not** internally synchronized — one in-flight call at a
/// time, which is exactly what the sequential scatter needs.
#[derive(Debug)]
pub struct ShardClient {
    endpoint: Endpoint,
    stream: Stream,
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
        self.stream.set_timeouts(deadline)?;
        Ok(())
    }

    fn io_error(&self, e: std::io::Error) -> NetError {
        map_io_error(&self.endpoint, e)
    }

    /// Sends one message and reads the response frame, returning the
    /// decoded response and the bytes moved.
    ///
    /// A [`Message::Fail`] response is surfaced as [`NetError::Remote`];
    /// the traffic it cost is still accounted on the error path's caller
    /// via the request that triggered it being retried or dropped.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] past the deadline, [`NetError::Disconnected`]
    /// on EOF/reset, [`NetError::Wire`] for malformed frames,
    /// [`NetError::Remote`] for a typed server refusal.
    pub fn call(&mut self, message: &Message) -> Result<(Message, WireTraffic), NetError> {
        let bytes = message.encode();
        self.stream
            .write_all(&bytes)
            .map_err(|e| self.io_error(e))?;
        self.stream.flush().map_err(|e| self.io_error(e))?;
        let mut traffic = WireTraffic {
            bytes_sent: bytes.len(),
            bytes_received: 0,
        };

        let (header, payload) = read_frame_stream(&mut self.stream, &self.endpoint)?;
        traffic.bytes_received += header.header_len() + payload.len();
        let response = Message::decode(header.tag, &payload)?;
        if let Message::Fail { kind, message } = response {
            return Err(NetError::Remote {
                shard: self.endpoint.to_string(),
                kind,
                message,
            });
        }
        Ok((response, traffic))
    }
}

/// State shared between a [`MuxConnection`]'s callers and its reader
/// thread.  The reader holds only this (plus its socket handle), never
/// the connection itself — no `Arc` cycle, so dropping the last
/// connection handle reliably tears the reader down.
#[derive(Debug)]
struct MuxShared {
    /// In-flight calls awaiting their response, by frame id.
    pending: Mutex<HashMap<u32, mpsc::Sender<(Message, usize)>>>,
    /// Set when the socket failed or closed; a dead connection is never
    /// leased again and every waiter is woken (by dropping its sender).
    dead: AtomicBool,
    /// Calls started and not yet finished — the pool's load metric.
    in_flight: AtomicUsize,
    /// Next frame id; 0 is reserved as the one-in-flight sentinel.
    next_id: AtomicU32,
}

impl MuxShared {
    fn fail_all(&self) {
        self.dead.store(true, Ordering::Release);
        // Dropping the senders wakes every `recv_timeout` with a
        // disconnect, which the waiter maps to `NetError::Disconnected`.
        self.pending.lock().expect("mux pending lock").clear();
    }
}

/// One multiplexed connection to a shard server: many concurrent
/// request/response calls share the socket, matched up by frame id.
///
/// Writes go through an internal mutex (one frame at a time); a dedicated
/// reader thread dispatches response frames to their waiting callers.  A
/// response whose frame id no longer has a waiter (the call timed out) is
/// discarded — unlike the one-in-flight [`ShardClient`], a timeout does
/// **not** poison the connection.
#[derive(Debug)]
pub struct MuxConnection {
    endpoint: Endpoint,
    writer: Mutex<Stream>,
    /// A separate socket handle for waking the reader at drop time —
    /// avoids taking the writer lock (a blocked writer must not make the
    /// connection un-droppable).
    control: Stream,
    shared: Arc<MuxShared>,
    reader: Option<std::thread::JoinHandle<()>>,
}

impl MuxConnection {
    /// Connects (with retry until `timeout`) and starts the reader thread.
    ///
    /// # Errors
    ///
    /// The last connect failure once the timeout is exhausted.
    pub fn connect(endpoint: &Endpoint, timeout: Duration) -> Result<Arc<MuxConnection>, NetError> {
        let stream = Stream::connect_retry(endpoint, timeout)?;
        let reader_stream = stream.try_clone().map_err(NetError::Io)?;
        let control = stream.try_clone().map_err(NetError::Io)?;
        let shared = Arc::new(MuxShared {
            pending: Mutex::new(HashMap::new()),
            dead: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            next_id: AtomicU32::new(1),
        });
        let reader = {
            let shared = Arc::clone(&shared);
            let endpoint = endpoint.clone();
            std::thread::spawn(move || Self::read_loop(reader_stream, endpoint, shared))
        };
        Ok(Arc::new(MuxConnection {
            endpoint: endpoint.clone(),
            writer: Mutex::new(stream),
            control,
            shared,
            reader: Some(reader),
        }))
    }

    /// The endpoint this connection talks to.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Whether the socket has failed or closed.
    pub fn is_dead(&self) -> bool {
        self.shared.dead.load(Ordering::Acquire)
    }

    /// Calls currently in flight on this connection.
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::Acquire)
    }

    fn read_loop(mut stream: Stream, endpoint: Endpoint, shared: Arc<MuxShared>) {
        loop {
            let (header, payload) = match read_frame_stream(&mut stream, &endpoint) {
                Ok(frame) => frame,
                Err(_) => {
                    shared.fail_all();
                    return;
                }
            };
            let bytes = header.header_len() + payload.len();
            let message = match Message::decode(header.tag, &payload) {
                Ok(message) => message,
                Err(_) => {
                    // A frame we cannot decode means the stream framing
                    // can no longer be trusted.
                    shared.fail_all();
                    return;
                }
            };
            let waiter = shared
                .pending
                .lock()
                .expect("mux pending lock")
                .remove(&header.frame_id);
            if let Some(tx) = waiter {
                // A waiter that gave up (timed out) has dropped its
                // receiver; the late response is simply discarded.
                let _ = tx.send((message, bytes));
            }
        }
    }

    fn write_frame(&self, bytes: &[u8]) -> Result<(), NetError> {
        let mut writer = self.writer.lock().expect("mux writer lock");
        writer
            .write_all(bytes)
            .and_then(|()| writer.flush())
            .map_err(|e| {
                self.shared.fail_all();
                map_io_error(&self.endpoint, e)
            })
    }

    /// One blocking request/response call over the multiplexed socket,
    /// waiting until `deadline` (`None` waits indefinitely).  Many calls
    /// may be in flight at once.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] past the deadline (the connection stays
    /// usable), [`NetError::Disconnected`] if the connection is already
    /// dead or the socket dies under the call, the write failure, or
    /// [`NetError::Remote`] for a typed server refusal.
    pub fn call(
        &self,
        message: &Message,
        deadline: Option<Duration>,
    ) -> Result<(Message, WireTraffic), NetError> {
        let disconnected = || NetError::Disconnected {
            shard: self.endpoint.to_string(),
        };
        if self.is_dead() {
            return Err(disconnected());
        }
        let mut id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        if id == 0 {
            // u32 wrap: skip the one-in-flight sentinel.
            id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        }
        let (tx, rx) = mpsc::channel();
        self.shared
            .pending
            .lock()
            .expect("mux pending lock")
            .insert(id, tx);
        self.shared.in_flight.fetch_add(1, Ordering::AcqRel);

        let bytes = message.encode_with_id(id);
        let wait = deadline.unwrap_or(Duration::from_secs(3600));
        let received = self.write_frame(&bytes).and_then(|()| {
            rx.recv_timeout(wait).map_err(|e| match e {
                mpsc::RecvTimeoutError::Timeout => NetError::Timeout {
                    shard: self.endpoint.to_string(),
                },
                mpsc::RecvTimeoutError::Disconnected => disconnected(),
            })
        });
        if received.is_err() {
            // The reader removes the entry it delivers to; an abandoned
            // call removes its own, and its late response is discarded.
            self.shared
                .pending
                .lock()
                .expect("mux pending lock")
                .remove(&id);
        }
        self.shared.in_flight.fetch_sub(1, Ordering::AcqRel);

        let (response, bytes_received) = received?;
        if let Message::Fail { kind, message } = response {
            return Err(NetError::Remote {
                shard: self.endpoint.to_string(),
                kind,
                message,
            });
        }
        Ok((
            response,
            WireTraffic {
                bytes_sent: bytes.len(),
                bytes_received,
            },
        ))
    }
}

impl Drop for MuxConnection {
    fn drop(&mut self) {
        self.shared.fail_all();
        self.control.shutdown();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// Sockets a [`ConnectionPool`] opens at most: each carries any number of
/// concurrent calls, so the second only spreads writer-lock contention.
const POOL_CAPACITY: usize = 2;

/// A small per-endpoint pool of [`MuxConnection`]s.
///
/// Leases prefer the least-loaded live connection and only open a new
/// socket while all existing ones are busy and the pool is below
/// capacity; dead connections are pruned on the way.  The pool is `Sync`:
/// any number of query threads may lease concurrently.
#[derive(Debug)]
pub struct ConnectionPool {
    endpoint: Endpoint,
    connect_timeout: Duration,
    connections: Mutex<Vec<Arc<MuxConnection>>>,
}

impl ConnectionPool {
    /// An empty pool of connections to `endpoint`; sockets are opened on
    /// demand, each within `connect_timeout`.
    pub fn new(endpoint: Endpoint, connect_timeout: Duration) -> ConnectionPool {
        ConnectionPool {
            endpoint,
            connect_timeout,
            connections: Mutex::new(Vec::new()),
        }
    }

    /// The endpoint this pool serves.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Leases a live connection: the least-loaded one, or a freshly
    /// opened one while the pool is below capacity and everything is
    /// busy.
    ///
    /// # Errors
    ///
    /// The connect failure when a new socket is needed and cannot be
    /// opened.
    pub fn lease(&self) -> Result<Arc<MuxConnection>, NetError> {
        let mut connections = self.connections.lock().expect("pool lock");
        connections.retain(|c| !c.is_dead());
        let best = connections
            .iter()
            .min_by_key(|c| c.in_flight())
            .map(Arc::clone);
        match best {
            Some(conn) if conn.in_flight() == 0 || connections.len() >= POOL_CAPACITY => Ok(conn),
            _ => {
                let conn = MuxConnection::connect(&self.endpoint, self.connect_timeout)?;
                connections.push(Arc::clone(&conn));
                Ok(conn)
            }
        }
    }

    /// One request/response call through the pool, with the coordinator's
    /// one-immediate-reconnect semantics: a call that found its connection
    /// dead ([`NetError::Disconnected`], [`NetError::Io`]) is retried once
    /// on a fresh lease.  Every other failure is returned as it is — after
    /// a [`NetError::Timeout`] or a typed refusal the connection is fine
    /// and the server has the request, so a retry would only double a slow
    /// shard's load and the caller's deadline.
    ///
    /// # Errors
    ///
    /// The first attempt's failure, or the second's after a reconnect.
    pub fn call(
        &self,
        message: &Message,
        deadline: Option<Duration>,
    ) -> Result<(Message, WireTraffic), NetError> {
        match self.lease().and_then(|conn| conn.call(message, deadline)) {
            Err(NetError::Disconnected { .. } | NetError::Io(_)) => {
                self.lease()?.call(message, deadline)
            }
            outcome => outcome,
        }
    }

    /// Drops every pooled connection (their reader threads shut down as
    /// the last handles go).
    pub fn close(&self) {
        self.connections.lock().expect("pool lock").clear();
    }
}

/// A background health checker over a set of [`ConnectionPool`]s.
///
/// Every `interval` it sends [`Message::Ping`] to each endpoint through
/// its pool and records the outcome in the global metrics registry:
///
/// - `ssrq_ping_rtt_ns{endpoint}` — round-trip latency of the last
///   successful ping, in nanoseconds;
/// - `ssrq_ping_consecutive_failures{endpoint}` — failures since the
///   last successful ping;
/// - `ssrq_ping_unhealthy{endpoint}` — `1` once the consecutive-failure
///   count reaches the configured threshold, `0` otherwise.
///
/// Dropping the monitor stops the background thread and joins it.
#[derive(Debug)]
pub struct HealthMonitor {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl HealthMonitor {
    /// Spawns the monitor thread over `targets` (display label + pool per
    /// endpoint). `fail_threshold` is clamped to at least 1; `deadline`
    /// bounds each individual ping call.
    pub fn start(
        targets: Vec<(String, Arc<ConnectionPool>)>,
        interval: Duration,
        fail_threshold: u32,
        deadline: Option<Duration>,
    ) -> HealthMonitor {
        let fail_threshold = u64::from(fail_threshold.max(1));
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("ssrq-health".into())
            .spawn(move || {
                let registry = ssrq_obs::Registry::global();
                let mut failures: Vec<u64> = vec![0; targets.len()];
                while !stop_flag.load(Ordering::Acquire) {
                    for (i, (label, pool)) in targets.iter().enumerate() {
                        let labels = [("endpoint", label.as_str())];
                        let started = Instant::now();
                        let healthy =
                            matches!(pool.call(&Message::Ping, deadline), Ok((Message::Pong, _)));
                        if healthy {
                            failures[i] = 0;
                            registry
                                .gauge("ssrq_ping_rtt_ns", &labels)
                                .set(started.elapsed().as_nanos() as f64);
                        } else {
                            failures[i] = failures[i].saturating_add(1);
                        }
                        registry
                            .gauge("ssrq_ping_consecutive_failures", &labels)
                            .set(failures[i] as f64);
                        registry.gauge("ssrq_ping_unhealthy", &labels).set(
                            if failures[i] >= fail_threshold {
                                1.0
                            } else {
                                0.0
                            },
                        );
                    }
                    // Sleep in short slices so Drop never waits a full interval.
                    let wake = Instant::now() + interval;
                    while Instant::now() < wake && !stop_flag.load(Ordering::Acquire) {
                        std::thread::sleep(Duration::from_millis(10).min(interval));
                    }
                }
            })
            .expect("spawn health monitor thread");
        HealthMonitor {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for HealthMonitor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}
