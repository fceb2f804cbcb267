//! The server side: one process hosting one shard's
//! [`GeoSocialEngine`] behind the frame protocol.
//!
//! A [`ShardServer`] owns the engine for **one** shard (built over the
//! full social graph and the shard's restricted locations), a replica of
//! the deployment's [`ShardAssignment`] (so location reports can be
//! adopted or dropped without asking anyone), and a listening socket.
//!
//! # Concurrency model
//!
//! Each accepted connection gets one thread that reads a frame, answers
//! it, writes the response under the request's frame id and only then
//! reads the next frame — so a connection's requests are answered in the
//! order they were sent, and the engine runs at most one thread per
//! connection, which is one per request a coordinator has outstanding.
//! A connection thread sizes a [`QueryContext`](ssrq_core::QueryContext)
//! of its own at its first query.  Queries run under the engine's read
//! lock; mutations (relocations, assignment updates) take the write lock.
//!
//! The accept loop blocks in `accept`, so a connection is served the
//! moment it arrives.  Raising the shutdown flag cannot interrupt that
//! call, so one waker thread watches the flag and, once it is up, connects
//! to the server's own endpoint; the accept loop sees the flag and exits
//! without serving that connection.
//!
//! A frame the server cannot trust costs only its own connection: a bad
//! header (wrong magic or protocol version, oversized payload) closes it,
//! since the byte stream can no longer be re-synchronised, while a
//! well-framed payload that does not decode (unknown tag, malformed
//! fields) is answered with a typed [`Message::Fail`] and the connection
//! keeps serving.

use crate::client::{Endpoint, Stream};
use crate::error::NetError;
use crate::proto::{FailureKind, Message, ShardInfo};
use crate::wire::{parse_header, FrameHeader, HEADER_LEN};
use ssrq_core::{GeoSocialEngine, QueryContext, QueryRequest, QueryResult};
use ssrq_obs::{Counter, Histogram, Logger, ObsReport, Registry, SlowQueryLog, SpanLog, Trace};
use ssrq_shard::ShardAssignment;
use ssrq_spatial::Rect;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// How long the waker thread and idle connection threads wait before
/// re-checking the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

enum Listener {
    Unix(UnixListener, PathBuf),
    Tcp(TcpListener),
}

/// The server's observability handles: metric series registered once at
/// bind time (recording is pure atomics), the bounded span log, the
/// structured stderr logger and the optional slow-query log.
struct ServerObs {
    connections: Counter,
    disconnections: Counter,
    queries: Counter,
    query_ns: Histogram,
    worker_busy_ns: Histogram,
    relocations_adopted: Counter,
    relocations_dropped: Counter,
    spans: SpanLog,
    logger: Logger,
    slow_log: Option<SlowQueryLog>,
}

impl ServerObs {
    fn new(shard: u32) -> ServerObs {
        let registry = Registry::global();
        let shard = shard.to_string();
        let labels: &[(&str, &str)] = &[("shard", &shard)];
        ServerObs {
            connections: registry.counter("ssrq_server_connections_total", labels),
            disconnections: registry.counter("ssrq_server_disconnections_total", labels),
            queries: registry.counter("ssrq_server_queries_total", labels),
            query_ns: registry.histogram("ssrq_server_query_ns", labels),
            worker_busy_ns: registry.histogram("ssrq_server_worker_busy_ns", labels),
            relocations_adopted: registry.counter(
                "ssrq_server_relocations_total",
                &[("shard", &shard), ("outcome", "adopted")],
            ),
            relocations_dropped: registry.counter(
                "ssrq_server_relocations_total",
                &[("shard", &shard), ("outcome", "dropped")],
            ),
            spans: SpanLog::new(SPAN_LOG_CAPACITY),
            logger: Logger::default(),
            slow_log: None,
        }
    }
}

/// How many recent query span trees a server retains for `Metrics`
/// introspection.
const SPAN_LOG_CAPACITY: usize = 256;

/// How many slow-query offenders are retained.
const SLOW_LOG_CAPACITY: usize = 64;

/// One shard-serving process: engine + assignment replica + socket.
pub struct ShardServer {
    engine: RwLock<GeoSocialEngine>,
    assignment: RwLock<ShardAssignment>,
    shard: u32,
    listener: Listener,
    shutdown: Arc<AtomicBool>,
    obs: ServerObs,
}

impl std::fmt::Debug for ShardServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardServer")
            .field("shard", &self.shard)
            .field("endpoint", &self.endpoint().to_string())
            .finish()
    }
}

impl ShardServer {
    /// Binds the listening socket.
    ///
    /// `engine` must already be the **restricted** engine of shard
    /// `shard`: built over the full social graph but only this shard's
    /// resident locations (see
    /// [`GeoSocialDataset::restrict_locations`](ssrq_core::GeoSocialDataset::restrict_locations)).
    ///
    /// A Unix endpoint whose socket file already exists is probed first:
    /// if a server answers, the bind fails with `AddrInUse` (never steal
    /// a live socket); if nothing answers, the file is a **stale**
    /// leftover of a killed server and is unlinked so the restart
    /// succeeds.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when the socket cannot be bound.
    pub fn bind(
        endpoint: &Endpoint,
        engine: GeoSocialEngine,
        shard: usize,
        assignment: ShardAssignment,
    ) -> Result<ShardServer, NetError> {
        let listener = match endpoint {
            Endpoint::Unix(path) => {
                let listener = match UnixListener::bind(path) {
                    Ok(listener) => listener,
                    Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
                        if UnixStream::connect(path).is_ok() {
                            // A live server owns this socket.
                            return Err(NetError::Io(e));
                        }
                        std::fs::remove_file(path)?;
                        UnixListener::bind(path)?
                    }
                    Err(e) => return Err(NetError::Io(e)),
                };
                Listener::Unix(listener, path.clone())
            }
            Endpoint::Tcp(addr) => Listener::Tcp(TcpListener::bind(addr)?),
        };
        Ok(ShardServer {
            engine: RwLock::new(engine),
            assignment: RwLock::new(assignment),
            shard: shard as u32,
            listener,
            shutdown: Arc::new(AtomicBool::new(false)),
            obs: ServerObs::new(shard as u32),
        })
    }

    /// Installs a structured stderr logger; the default logger is silent,
    /// so the stdout readiness line stays the server's only default
    /// output.
    pub fn with_logger(mut self, logger: Logger) -> ShardServer {
        self.obs.logger = logger;
        self
    }

    /// Captures queries at or above `threshold` (request shape + span
    /// tree) in a bounded slow-query log, surfaced in `Metrics` span
    /// output and on the logger at `warn`.
    pub fn with_slow_query_threshold(mut self, threshold: Duration) -> ShardServer {
        self.obs.slow_log = Some(SlowQueryLog::new(threshold, SLOW_LOG_CAPACITY));
        self
    }

    /// The endpoint actually bound — for `tcp:127.0.0.1:0` this carries
    /// the kernel-assigned port.
    pub fn endpoint(&self) -> Endpoint {
        match &self.listener {
            Listener::Unix(_, path) => Endpoint::Unix(path.clone()),
            Listener::Tcp(listener) => Endpoint::Tcp(
                listener
                    .local_addr()
                    .map(|a| a.to_string())
                    .unwrap_or_default(),
            ),
        }
    }

    /// A handle that makes [`ShardServer::serve`] return: set it to `true`
    /// from any thread (a `Shutdown` frame sets it too).
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Serves connections until the shutdown flag is raised, one thread
    /// per accepted connection; returns within about 50 ms of the flag
    /// going up (see the module docs for how a blocked accept is woken).
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] for an accept-loop failure or an unreadable bound
    /// address (per-connection errors only terminate that connection).
    pub fn serve(&self) -> Result<(), NetError> {
        // Where the waker connects: a wildcard TCP bind is reached on
        // loopback.
        let wake = match &self.listener {
            Listener::Unix(_, path) => Endpoint::Unix(path.clone()),
            Listener::Tcp(listener) => {
                let mut addr = listener.local_addr()?;
                if addr.ip().is_unspecified() {
                    addr.set_ip(match addr {
                        SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                        SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                    });
                }
                Endpoint::Tcp(addr.to_string())
            }
        };
        let exited = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let waker = scope.spawn(|| {
                while !exited.load(Ordering::SeqCst) {
                    if self.shutdown.load(Ordering::SeqCst) {
                        // Unblocks the accept; a failed attempt is retried
                        // on the next tick.
                        let _ = Stream::connect(&wake);
                    }
                    std::thread::park_timeout(POLL_INTERVAL);
                }
            });
            let mut next_conn_id: u64 = 0;
            let result = loop {
                let accepted = match &self.listener {
                    Listener::Unix(listener, _) => {
                        listener.accept().map(|(stream, _)| Stream::Unix(stream))
                    }
                    Listener::Tcp(listener) => listener.accept().map(|(stream, _)| {
                        stream.set_nodelay(true).ok();
                        Stream::Tcp(stream)
                    }),
                };
                // A connection accepted after the flag went up (the
                // waker's among them) is closed unserved.
                if self.shutdown.load(Ordering::SeqCst) {
                    break Ok(());
                }
                match accepted {
                    Ok(stream) => {
                        let conn_id = next_conn_id;
                        next_conn_id += 1;
                        scope.spawn(move || self.serve_connection(conn_id, stream));
                    }
                    Err(e) => break Err(NetError::Io(e)),
                }
            };
            // Connection threads poll this flag; raising it on the error
            // path too lets the scope join instead of hanging.
            self.shutdown.store(true, Ordering::SeqCst);
            exited.store(true, Ordering::SeqCst);
            waker.thread().unpark();
            result
        })?;
        if let Listener::Unix(_, path) = &self.listener {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }

    /// One connection's thread: reads a frame, answers it, writes the
    /// response under the request's frame id, reads the next.
    fn serve_connection(&self, conn_id: u64, mut stream: Stream) {
        if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
            return;
        }
        self.obs.connections.inc();
        self.obs
            .logger
            .info(&format!("event=connection_accepted conn={conn_id}"));
        // Sized at the first query: the connections that only carry
        // pings, relocations or introspection never pay for one.
        let mut ctx: Option<QueryContext> = None;
        // Loop ends on clean EOF, shutdown, poisoned framing or a failed
        // write.
        while let Ok(Some((header, payload))) = self.read_frame(&mut stream) {
            let started = Instant::now();
            let response = match Message::decode(header.tag, &payload) {
                Ok(Message::Query { request, trace_id }) => {
                    let ctx = ctx.get_or_insert_with(|| {
                        self.engine.read().expect("engine lock").make_context()
                    });
                    let response = self.run_query(&request, trace_id, ctx);
                    if self.obs.logger.enabled(ssrq_obs::Level::Info) {
                        self.obs.logger.info(&format!(
                            "event=query_served conn={} frame={} trace={:#018x} duration_us={}",
                            conn_id,
                            header.frame_id,
                            trace_id,
                            started.elapsed().as_micros(),
                        ));
                    }
                    response
                }
                Ok(message) => self.handle(message),
                Err(e) => Message::Fail {
                    kind: FailureKind::InvalidRequest,
                    message: e.to_string(),
                },
            };
            self.obs.worker_busy_ns.observe_duration(started.elapsed());
            let bytes = response.encode_with_id(header.frame_id);
            if stream
                .write_all(&bytes)
                .and_then(|()| stream.flush())
                .is_err()
            {
                break;
            }
        }
        self.obs.disconnections.inc();
        self.obs
            .logger
            .info(&format!("event=connection_closed conn={conn_id}"));
    }

    /// Reads one frame, tolerating idle timeouts between frames (the
    /// shutdown flag is re-checked on every poll tick).  Returns
    /// `Ok(None)` on clean EOF or shutdown.
    fn read_frame(&self, stream: &mut Stream) -> Result<Option<(FrameHeader, Vec<u8>)>, NetError> {
        let mut header = [0u8; HEADER_LEN];
        if self.read_full(stream, &mut header)?.is_none() {
            return Ok(None);
        }
        let parsed = parse_header(&header)?;
        let mut payload = vec![0u8; parsed.payload_len as usize];
        if self.read_full(stream, &mut payload)?.is_none() {
            return Ok(None);
        }
        Ok(Some((parsed, payload)))
    }

    fn read_full(&self, stream: &mut Stream, buf: &mut [u8]) -> Result<Option<()>, NetError> {
        let mut filled = 0;
        while filled < buf.len() {
            if self.shutdown.load(Ordering::SeqCst) {
                return Ok(None);
            }
            match stream.read(&mut buf[filled..]) {
                Ok(0) => {
                    if filled == 0 {
                        return Ok(None); // clean EOF between frames
                    }
                    return Err(NetError::Disconnected {
                        shard: format!("shard {}", self.shard),
                    });
                }
                Ok(n) => filled += n,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock
                            | std::io::ErrorKind::TimedOut
                            | std::io::ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(NetError::Io(e)),
            }
        }
        Ok(Some(()))
    }

    /// Runs one query under the read lock by draining the engine's
    /// streaming path, which yields finalized entries in ascending score
    /// order.
    fn run_query(&self, request: &QueryRequest, trace_id: u64, ctx: &mut QueryContext) -> Message {
        let trace = Trace::new(trace_id);
        let root = trace.open("shard_query", None);
        let engine = self.engine.read().expect("engine lock");
        let begin = trace.open("begin_stream", Some(root));
        let stream = engine.stream_with(request, ctx);
        trace.close(begin);
        let mut stream = match stream {
            Ok(stream) => stream,
            Err(e) => {
                return Message::Fail {
                    kind: FailureKind::of(&e),
                    message: e.to_string(),
                }
            }
        };
        let drain = trace.open("drain_topk", Some(root));
        let ranked: Vec<_> = stream.by_ref().collect();
        trace.close(drain);
        if let Some(error) = stream.error() {
            return Message::Fail {
                kind: FailureKind::of(error),
                message: error.to_string(),
            };
        }
        let stats = stream.stats();
        trace.close(root);
        // The streaming path bypasses `run_with`, so the server records
        // the per-algorithm engine series itself.
        ssrq_core::obs::record_query_metrics(request.algorithm().name(), &stats);
        self.obs.queries.inc();
        self.obs.query_ns.observe_duration(stats.runtime);
        let spans = trace.finish();
        let total_ns = spans.total_ns();
        if let Some(slow_log) = &self.obs.slow_log {
            let captured = slow_log.offer(total_ns, &spans, || {
                format!(
                    "algorithm={} user={} k={} shard={}",
                    request.algorithm().name(),
                    request.user(),
                    request.k(),
                    self.shard,
                )
            });
            if captured {
                self.obs.logger.warn(&format!(
                    "event=slow_query trace={trace_id:#018x} total_us={}",
                    total_ns / 1_000
                ));
            }
        }
        self.obs.spans.push(spans);
        Message::Answer(QueryResult {
            ranked,
            k: request.k(),
            degraded: false,
            stats,
        })
    }

    /// The server's live observability snapshot: the process-wide metric
    /// registry plus the recent query span trees (slow-query offenders
    /// included) — what a `Metrics` frame and `--introspect` report.
    pub fn obs_report(&self) -> ObsReport {
        let mut spans = self.obs.spans.recent();
        if let Some(slow_log) = &self.obs.slow_log {
            for offender in slow_log.recent() {
                if !spans.contains(&offender.spans) {
                    spans.push(offender.spans);
                }
            }
        }
        ObsReport {
            metrics: Registry::global().snapshot(),
            spans,
        }
    }

    /// Answers one non-query message.
    fn handle(&self, message: Message) -> Message {
        match message {
            Message::Hello | Message::Refresh => Message::Info(self.info()),
            Message::Ping => Message::Pong,
            Message::MetricsRequest => Message::MetricsReport(self.obs_report()),
            Message::Locate(user) => {
                let engine = self.engine.read().expect("engine lock");
                Message::Located(engine.dataset().location(user))
            }
            Message::ListLocated => {
                let engine = self.engine.read().expect("engine lock");
                Message::LocatedUsers(engine.dataset().located_users().collect())
            }
            Message::Relocate { user, location } => {
                let mut engine = self.engine.write().expect("engine lock");
                let owner = location.map(|p| {
                    self.assignment
                        .read()
                        .expect("assignment lock")
                        .owner_for(user, Some(p))
                });
                let outcome = match location {
                    Some(p) if owner == Some(self.shard as usize) => {
                        engine.update_location(user, p).map(|()| true)
                    }
                    // Not (or no longer) ours: drop any stale copy.  The
                    // engine's removal is idempotent, so every non-owner
                    // in the broadcast answers cheaply.
                    _ => engine.remove_location(user).map(|()| false),
                };
                match outcome {
                    Ok(adopted) => {
                        if adopted {
                            self.obs.relocations_adopted.inc();
                            self.obs
                                .logger
                                .info(&format!("event=relocation_adopted user={user}"));
                        } else {
                            self.obs.relocations_dropped.inc();
                        }
                        Message::Relocated { adopted }
                    }
                    Err(e) => Message::Fail {
                        kind: FailureKind::of(&e),
                        message: e.to_string(),
                    },
                }
            }
            Message::SetAssignment { cell_to_shard } => {
                let mut assignment = self.assignment.write().expect("assignment lock");
                match assignment.set_cell_map(cell_to_shard) {
                    Ok(()) => Message::Ok,
                    Err(e) => Message::Fail {
                        kind: FailureKind::of(&e),
                        message: e.to_string(),
                    },
                }
            }
            Message::Shutdown => {
                self.shutdown.store(true, Ordering::SeqCst);
                Message::Ok
            }
            other => Message::Fail {
                kind: FailureKind::InvalidRequest,
                message: format!("unexpected message tag 0x{:02x}", other.tag()),
            },
        }
    }

    fn info(&self) -> ShardInfo {
        let engine = self.engine.read().expect("engine lock");
        let dataset = engine.dataset();
        ShardInfo {
            shard: self.shard,
            shards: self
                .assignment
                .read()
                .expect("assignment lock")
                .shard_count() as u32,
            user_count: dataset.user_count() as u64,
            located: dataset.located_user_count() as u64,
            rect: Rect::bounding(dataset.located_users().map(|(_, p)| p)),
            spatial_norm: dataset.spatial_norm(),
            social_norm: dataset.social_norm(),
        }
    }
}
