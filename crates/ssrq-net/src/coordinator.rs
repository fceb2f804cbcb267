//! The socket coordinator: the [`Coordinator`] over [`RemoteShard`]
//! links, one request/response frame per link operation, plus what only
//! sockets need — connect and handshake, per-shard deadlines, trace ids on
//! the wire and the coordinator's span tree, the slow-query log, the
//! coordinator's own metric series, remote metric fetches and shutdown.

use crate::client::{ConnectionPool, Endpoint, WireTraffic};
use crate::error::NetError;
use crate::proto::Message;
use ssrq_core::{CoreError, QueryRequest, QueryResult, UserId};
use ssrq_obs::{next_trace_id, ObsReport, QuerySpans, Registry, SlowQuery, SlowQueryLog, Trace};
use ssrq_shard::{Coordinator, LinkError, ShardAssignment, ShardInfo, ShardLink, ShardStats};
use ssrq_spatial::Point;
use std::time::{Duration, Instant};

/// How many slow-query offenders the coordinator retains.
const SLOW_LOG_CAPACITY: usize = 64;

impl LinkError for NetError {
    fn violation(shard: String, detail: String) -> Self {
        NetError::Protocol { shard, detail }
    }

    /// A refusal or a response outside the protocol is not a shard being
    /// unreachable.
    fn unreachable(&self) -> bool {
        !matches!(
            self,
            NetError::Core(_) | NetError::Remote { .. } | NetError::Protocol { .. }
        )
    }
}

/// One shard-server process as the coordinator reaches it: the socket
/// [`ShardLink`].  Every call is one pooled round trip under the
/// coordinator's per-shard deadline.
#[derive(Debug)]
pub struct RemoteShard {
    pool: ConnectionPool,
    deadline: Option<Duration>,
}

impl RemoteShard {
    /// One pooled request/response call (the pool reconnects once when
    /// it finds the connection dead) whose response must be the one
    /// `accept` takes; `expected` names it, as "X to Y", for the
    /// [`NetError::Protocol`] any other response becomes.
    fn call<T>(
        &self,
        message: &Message,
        expected: &str,
        accept: impl FnOnce(Message) -> Option<T>,
    ) -> Result<(T, WireTraffic), NetError> {
        let (response, traffic) = self.pool.call(message, self.deadline)?;
        let tag = response.tag();
        accept(response)
            .map(|reply| (reply, traffic))
            .ok_or_else(|| {
                NetError::violation(
                    self.describe(),
                    format!("expected {expected}, got tag 0x{tag:02x}"),
                )
            })
    }
}

impl ShardLink for RemoteShard {
    type Error = NetError;
    /// The trace id every `Query` frame of the scatter carries (`0`:
    /// untraced, byte-identical to the untraced encoding).
    type Context = u64;

    /// One `Query` round trip, its wire counters added to the answer's
    /// stats.
    fn query(
        &self,
        request: &QueryRequest,
        trace_id: &mut u64,
    ) -> Result<(QueryResult, Option<Point>), NetError> {
        let message = Message::Query {
            request: request.clone(),
            trace_id: *trace_id,
        };
        let ((mut result, origin), traffic) =
            self.call(&message, "Answer to Query", |response| match response {
                Message::Answer(result) => Some((result, None)),
                Message::AnswerFrom { origin, result } => Some((result, Some(origin))),
                _ => None,
            })?;
        result.stats.bytes_sent += traffic.bytes_sent;
        result.stats.bytes_received += traffic.bytes_received;
        result.stats.wire_round_trips += 1;
        Ok((result, origin))
    }

    fn relocate(
        &mut self,
        user: UserId,
        location: Option<Point>,
    ) -> Result<(bool, bool), NetError> {
        let message = Message::Relocate { user, location };
        let (reply, _) = self.call(
            &message,
            "Relocated to Relocate",
            |response| match response {
                Message::Relocated { adopted, held } => Some((adopted, held)),
                _ => None,
            },
        )?;
        Ok(reply)
    }

    fn list_located(&self) -> Result<Vec<(UserId, Point)>, NetError> {
        let (users, _) = self.call(
            &Message::ListLocated,
            "LocatedUsers to ListLocated",
            |response| match response {
                Message::LocatedUsers(users) => Some(users),
                _ => None,
            },
        )?;
        Ok(users)
    }

    fn refresh(&self) -> Result<ShardInfo, NetError> {
        let (info, _) = self.call(
            &Message::Refresh,
            "Info to Refresh",
            |response| match response {
                Message::Info(info) => Some(info),
                _ => None,
            },
        )?;
        Ok(info)
    }

    fn set_assignment(&mut self, cell_map: &[u32]) -> Result<(), NetError> {
        let message = Message::SetAssignment {
            cell_to_shard: cell_map.to_vec(),
        };
        let (reply, _) = self.call(&message, "Ok to SetAssignment", |response| {
            matches!(response, Message::Ok).then_some(())
        })?;
        Ok(reply)
    }

    fn describe(&self) -> String {
        self.pool.endpoint().to_string()
    }
}

/// Configures and connects a [`RemoteShardedEngine`];
/// see [`RemoteShardedEngine::builder`].
#[derive(Debug, Clone)]
pub struct RemoteEngineBuilder {
    endpoints: Vec<Endpoint>,
    deadline: Option<Duration>,
    connect_timeout: Duration,
    assignment: Option<ShardAssignment>,
    slow_query_threshold: Option<Duration>,
}

impl RemoteEngineBuilder {
    /// Captures queries at or above `threshold` (request shape + full
    /// span tree) in the coordinator's bounded slow-query log
    /// ([`RemoteShardedEngine::slow_queries`]).  Off by default.
    pub fn slow_query_threshold(mut self, threshold: Duration) -> Self {
        self.slow_query_threshold = Some(threshold);
        self
    }

    /// Bounds every per-shard round trip: a shard that does not answer
    /// within `deadline` counts as failed for that query (default: wait
    /// indefinitely).
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// How long [`RemoteEngineBuilder::connect`] keeps retrying each
    /// endpoint — shard servers may still be binding their sockets
    /// (default: 5 s).
    pub fn connect_timeout(mut self, timeout: Duration) -> Self {
        self.connect_timeout = timeout;
        self
    }

    /// Hands the coordinator the deployment's [`ShardAssignment`], which
    /// [`Coordinator::rebalance`] needs (everything else works without it
    /// — the servers hold their own replicas).
    pub fn assignment(mut self, assignment: ShardAssignment) -> Self {
        self.assignment = Some(assignment);
        self
    }

    /// Connects and handshakes every shard: each server must report the
    /// shard index matching its position in the endpoint list, the same
    /// shard count, and the same total user count.  Each shard's resident
    /// list (`ListLocated`) then fills the owner table.
    ///
    /// # Errors
    ///
    /// Connect/handshake failures, or [`NetError::Protocol`] when a server
    /// claims a different topology than the endpoint list implies.
    pub fn connect(self) -> Result<RemoteShardedEngine, NetError> {
        let n = self.endpoints.len();
        if n == 0 {
            return Err(NetError::Core(CoreError::InvalidParameter(
                "a remote sharded engine needs at least one endpoint".into(),
            )));
        }
        if let Some(assignment) = &self.assignment {
            if assignment.shard_count() != n {
                return Err(NetError::Core(CoreError::InvalidParameter(format!(
                    "assignment covers {} shards but {} endpoints were given",
                    assignment.shard_count(),
                    n
                ))));
            }
        }
        let mut shards: Vec<(RemoteShard, ShardInfo)> = Vec::with_capacity(n);
        for (index, endpoint) in self.endpoints.iter().enumerate() {
            // Reconnects inside the pool are a single immediate attempt
            // (a dead shard must fail fast mid-query); the *handshake*
            // retries here until `connect_timeout`, because servers may
            // still be binding their sockets.
            let shard = RemoteShard {
                pool: ConnectionPool::new(endpoint.clone(), Duration::ZERO),
                deadline: self.deadline,
            };
            let handshake_deadline = Instant::now() + self.connect_timeout;
            let info = loop {
                match shard.refresh() {
                    Ok(info) => break info,
                    Err(e) if !e.unreachable() || Instant::now() >= handshake_deadline => {
                        return Err(e)
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
            };
            let users = shards
                .first()
                .map_or(info.user_count, |(_, first)| first.user_count);
            if info.shard != index as u32 || info.shards != n as u32 || info.user_count != users {
                let detail = format!(
                    "server claims shard {}/{} of {} users but sits at position {index} of \
                     {n} endpoints, beside shards of {users} users",
                    info.shard, info.shards, info.user_count
                );
                return Err(NetError::violation(endpoint.to_string(), detail));
            }
            shards.push((shard, info));
        }
        Ok(RemoteShardedEngine {
            core: Coordinator::new(shards, self.assignment)?,
            slow_log: self
                .slow_query_threshold
                .map(|threshold| SlowQueryLog::new(threshold, SLOW_LOG_CAPACITY)),
        })
    }
}

/// Scatter-gather SSRQ engine over shard-server processes: the
/// [`Coordinator`] over [`RemoteShard`] links — it dereferences to it for
/// everything routing (`owner_of`, `update_location`, `remove_location`,
/// `refresh`, `rebalance`, `set_failure_policy`, …) — plus what only a
/// socket deployment has.  It returns the same ranked list as
/// [`ShardedEngine`](ssrq_shard::ShardedEngine) for the same deployment.
///
/// Connections persist across queries in per-endpoint pools, so a batch
/// pays the connect + handshake cost once, and queries take `&self`: any
/// number of threads may call [`query`](RemoteShardedEngine::query)
/// concurrently on one shared engine.  With a current owner-table entry a
/// relocation within the owner's cells costs one round trip and a query
/// one round trip per executed shard; a stale entry costs round trips,
/// never exactness, and a query for a user no shard holds costs one round
/// trip per shard.
pub struct RemoteShardedEngine {
    core: Coordinator<RemoteShard>,
    slow_log: Option<SlowQueryLog>,
}

impl std::ops::Deref for RemoteShardedEngine {
    type Target = Coordinator<RemoteShard>;

    fn deref(&self) -> &Coordinator<RemoteShard> {
        &self.core
    }
}

impl std::ops::DerefMut for RemoteShardedEngine {
    fn deref_mut(&mut self) -> &mut Coordinator<RemoteShard> {
        &mut self.core
    }
}

impl std::fmt::Debug for RemoteShardedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteShardedEngine")
            .field("core", &self.core)
            .finish_non_exhaustive()
    }
}

impl RemoteShardedEngine {
    /// Starts configuring a coordinator over `endpoints` (shard `i` is
    /// served at `endpoints[i]`).
    pub fn builder(endpoints: Vec<Endpoint>) -> RemoteEngineBuilder {
        RemoteEngineBuilder {
            endpoints,
            deadline: None,
            connect_timeout: Duration::from_secs(5),
            assignment: None,
            slow_query_threshold: None,
        }
    }

    /// Runs one query; see [`RemoteShardedEngine::query_detailed`].
    ///
    /// # Errors
    ///
    /// As [`Coordinator::run_with`].
    pub fn query(&self, request: &QueryRequest) -> Result<QueryResult, NetError> {
        self.query_detailed(request).map(|(result, _)| result)
    }

    /// Runs one scatter-gather query ([`Coordinator::run_with`]) and
    /// reports the per-shard [`ShardStats`] too.  The merged
    /// [`QueryStats`](ssrq_core::QueryStats) count the wire
    /// (`bytes_sent`, `bytes_received`, `wire_round_trips`), discarded
    /// answers of origin resolution included.
    ///
    /// # Errors
    ///
    /// As [`Coordinator::run_with`]: [`NetError::Core`] for an invalid
    /// request or unknown user, otherwise per the failure policy.
    pub fn query_detailed(
        &self,
        request: &QueryRequest,
    ) -> Result<(QueryResult, ShardStats), NetError> {
        // Trace id 0 = untraced: outbound frames carry no trace field,
        // and the span tree is recorded only for the slow-query log.
        let trace = Trace::new(0);
        let out = self.query_with_trace(request, &trace);
        self.offer_slow(request, &trace.finish(), out.is_ok());
        out
    }

    /// Runs one query under a freshly minted trace id: the id rides every
    /// outbound `Query` frame (so each shard server's span log and
    /// metrics carry it), and the coordinator's own span tree — origin
    /// resolution, per-shard round trips, merge — is returned alongside
    /// the result.
    ///
    /// # Errors
    ///
    /// As [`Coordinator::run_with`].
    pub fn query_traced(
        &self,
        request: &QueryRequest,
    ) -> Result<(QueryResult, ShardStats, QuerySpans), NetError> {
        let trace = Trace::new(next_trace_id());
        let out = self.query_with_trace(request, &trace);
        let spans = trace.finish();
        self.offer_slow(request, &spans, out.is_ok());
        out.map(|(result, stats)| (result, stats, spans))
    }

    fn query_with_trace(
        &self,
        request: &QueryRequest,
        trace: &Trace,
    ) -> Result<(QueryResult, ShardStats), NetError> {
        let started = Instant::now();
        let root = trace.open("coordinator_query", None);
        let out = self
            .core
            .run_with(request, &mut trace.trace_id(), Some((trace, root)));
        trace.close(root);
        if out.is_ok() {
            // The scatter series are the coordinator core's; these are the
            // socket coordinator's own tallies.
            let registry = Registry::global();
            registry
                .counter("ssrq_coordinator_queries_total", &[])
                .inc();
            registry
                .histogram("ssrq_coordinator_query_ns", &[])
                .observe_duration(started.elapsed());
        }
        out
    }

    fn offer_slow(&self, request: &QueryRequest, spans: &QuerySpans, completed: bool) {
        if let (Some(slow_log), true) = (&self.slow_log, completed) {
            slow_log.offer(spans.total_ns(), spans, || {
                format!(
                    "algorithm={} user={} k={} shards={}",
                    request.algorithm().name(),
                    request.user(),
                    request.k(),
                    self.shard_count(),
                )
            });
        }
    }

    /// The coordinator's retained slow-query offenders, oldest first
    /// (empty unless [`RemoteEngineBuilder::slow_query_threshold`] was
    /// set).
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.slow_log
            .as_ref()
            .map(|log| log.recent())
            .unwrap_or_default()
    }

    /// This coordinator process's observability snapshot: the global
    /// metric registry (engine and scatter series) plus the span trees of
    /// retained slow queries.
    pub fn coordinator_report(&self) -> ObsReport {
        ObsReport {
            metrics: Registry::global().snapshot(),
            spans: self.slow_queries().into_iter().map(|q| q.spans).collect(),
        }
    }

    /// Fetches shard `shard`'s live observability snapshot over the wire
    /// (`MetricsRequest` → `MetricsReport`): its metric registry and its
    /// recent query span trees, trace ids intact.
    ///
    /// # Errors
    ///
    /// Transport failures, or [`NetError::Protocol`] when the server
    /// answers with anything but a `MetricsReport`.
    pub fn remote_metrics(&self, shard: usize) -> Result<ObsReport, NetError> {
        let (report, _) = self.links()[shard].call(
            &Message::MetricsRequest,
            "MetricsReport to MetricsRequest",
            |response| match response {
                Message::MetricsReport(report) => Some(report),
                _ => None,
            },
        )?;
        Ok(report)
    }

    /// Broadcasts `Shutdown` to every shard server; continues past
    /// failures (a dead server is already shut down) and reports the first
    /// one.  The connection pools are closed afterwards.
    ///
    /// # Errors
    ///
    /// The first shard that failed to acknowledge, if any.
    pub fn shutdown(&mut self) -> Result<(), NetError> {
        let mut first_error = None;
        for shard in self.links() {
            let acknowledged = shard.call(&Message::Shutdown, "Ok to Shutdown", |response| {
                matches!(response, Message::Ok).then_some(())
            });
            if let Err(e) = acknowledged {
                first_error.get_or_insert(e);
            }
            shard.pool.close();
        }
        first_error.map_or(Ok(()), Err)
    }
}
