//! The coordinator: scatter-gather over shard-server *processes*.
//!
//! [`RemoteShardedEngine`] mirrors the in-process
//! [`ShardedEngine`](ssrq_shard::ShardedEngine) over sockets.  Each shard
//! is reached through a per-endpoint [`ConnectionPool`] (a connection per
//! concurrent caller), wrapped per query as a [`ShardTransport`], so the
//! coordinator runs the **same** threshold-forwarding scatter loop
//! ([`scatter_sequential`]) and the same deterministic merge
//! ([`merge_ranked`]) as the single-process deployment — the running `f_k`
//! crosses the wire bit-exactly inside each next request's
//! [`max_score`](ssrq_core::QueryRequest::max_score) cutoff.
//!
//! Because queries only *read* the coordinator's state (per-query
//! transports snapshot the cached shard infos; the pools are internally
//! synchronized), [`RemoteShardedEngine::query`] takes `&self` — any
//! number of threads can drive queries through one engine concurrently.
//! Mutations (relocations, rebalance, refresh) still take `&mut self`.
//!
//! Like the in-process engine, the coordinator keeps a user → shard owner
//! table, filled at connect from each shard's resident list and kept by
//! every relocation it routes.  The table only decides whom to ask
//! *first*: a location report goes to the cached owner, and a query
//! without a pinned origin is put to the cached owner without one, which
//! evaluates it from its own copy and names the origin it used.  Whenever
//! an answer shows the entry stale — another coordinator moved the user —
//! the coordinator falls back to asking every other shard, so answers and
//! the one-holder invariant never depend on the table being right.
//!
//! The extra failure modes of a multi-process deployment are explicit:
//! a per-shard deadline bounds how long one slow shard can stall a query,
//! and [`FailurePolicy`] decides whether a dead shard fails the query
//! (`Fail`, the default) or degrades it to a flagged partial answer
//! (`Degrade`).

use crate::client::{ConnectionPool, Endpoint, WireTraffic};
use crate::error::NetError;
use crate::proto::{Message, ShardInfo};
use ssrq_core::{CoreError, QueryRequest, QueryResult, QueryStats, UserId};
use ssrq_obs::{
    next_trace_id, ObsReport, QuerySpans, Registry, SlowQuery, SlowQueryLog, SpanId, Trace,
};
use ssrq_shard::{
    merge_ranked, scatter_sequential, shard_score_lower_bound, FailurePolicy, ShardAssignment,
    ShardOutcome, ShardStats, ShardTransport,
};
use ssrq_spatial::{Point, Rect};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::RwLock;
use std::time::{Duration, Instant};

/// The owner-table entry of a user no shard is known to hold.
const UNLOCATED: u32 = u32::MAX;

/// How many slow-query offenders the coordinator retains.
const SLOW_LOG_CAPACITY: usize = 64;

/// After how many adopted relocations a shard's cached bounding rectangle
/// is re-tightened with a `Refresh` round trip.  Growth-only rect
/// maintenance keeps bounds admissible but degrades rect-skip pruning
/// under churn; this bounds the staleness.
const RECT_REFRESH_RELOCATIONS: usize = 256;

/// One remote shard as the coordinator sees it: its endpoint, a pool of
/// connections to it, the cached handshake [`ShardInfo`] the score
/// lower bound is computed from, and the relocation churn since that
/// info was last refreshed.
struct RemoteShard {
    endpoint: Endpoint,
    pool: ConnectionPool,
    info: RwLock<ShardInfo>,
    /// Relocations adopted by this shard since its cached rect was last
    /// tightened — each one can only *grow* the rect, so churn measures
    /// how stale (over-approximated) the pruning bound may be.
    churn: AtomicUsize,
}

impl RemoteShard {
    fn protocol(&self, detail: String) -> NetError {
        NetError::Protocol {
            shard: self.endpoint.to_string(),
            detail,
        }
    }

    /// One pooled request/response call (the pool reconnects once when
    /// it finds the connection dead) whose response must be the one
    /// `accept` takes; `expected` names it, as "X to Y", for the
    /// [`NetError::Protocol`] any other response becomes.
    fn call<T>(
        &self,
        message: &Message,
        deadline: Option<Duration>,
        expected: &str,
        accept: impl FnOnce(Message) -> Option<T>,
    ) -> Result<(T, WireTraffic), NetError> {
        let (response, traffic) = self.pool.call(message, deadline)?;
        let tag = response.tag();
        match accept(response) {
            Some(reply) => Ok((reply, traffic)),
            None => Err(self.protocol(format!("expected {expected}, got tag 0x{tag:02x}"))),
        }
    }

    /// Reports `user`'s new `location` (`None`: no location any more);
    /// returns whether this shard hosts the user now, and whether it did
    /// before: `(adopted, held)`.
    fn relocate(
        &self,
        user: UserId,
        location: Option<Point>,
        deadline: Option<Duration>,
    ) -> Result<(bool, bool), NetError> {
        let accept = |response| match response {
            Message::Relocated { adopted, held } => Some((adopted, held)),
            _ => None,
        };
        let message = Message::Relocate { user, location };
        let (reply, _) = self.call(&message, deadline, "Relocated to Relocate", accept)?;
        Ok(reply)
    }

    /// Every located resident of this shard.
    fn list_located(&self, deadline: Option<Duration>) -> Result<Vec<(UserId, Point)>, NetError> {
        let (users, _) = self.call(
            &Message::ListLocated,
            deadline,
            "LocatedUsers to ListLocated",
            |response| match response {
                Message::LocatedUsers(users) => Some(users),
                _ => None,
            },
        )?;
        Ok(users)
    }
}

/// The owner table of a deployment of `user_count` users whose located
/// residents are `holders`, as `(user, shard)`.
fn owner_table(user_count: u64, holders: impl IntoIterator<Item = (UserId, usize)>) -> Vec<u32> {
    let mut owners = vec![UNLOCATED; user_count as usize];
    for (user, shard) in holders {
        if let Some(entry) = owners.get_mut(user as usize) {
            *entry = shard as u32;
        }
    }
    owners
}

/// Whether `error` means the shard answered but refused — as opposed to
/// being unreachable, which is what the failure policy is about.
fn refused(error: &NetError) -> bool {
    matches!(
        error,
        NetError::Core(_) | NetError::Remote { .. } | NetError::Protocol { .. }
    )
}

/// One shard's view for **one** query: a borrowed [`RemoteShard`] plus a
/// snapshot of its cached info and the query's settings.  Built fresh per
/// query so concurrent queries never contend on coordinator state.
struct QueryTransport<'a> {
    shard: &'a RemoteShard,
    rect: Option<Rect>,
    spatial_norm: f64,
    deadline: Option<Duration>,
    /// This query's trace: the id rides the outbound `Query` frame, and
    /// each shard round trip records a span under `root`.  A trace id of
    /// `0` keeps the wire bytes identical to the untraced encoding.
    trace: &'a Trace,
    root: SpanId,
}

impl QueryTransport<'_> {
    /// One `Query` round trip: the shard's answer, with the wire counters
    /// added to its stats, and the origin the shard resolved from its own
    /// copy when `request` carried none and the shard holds the user.
    fn query(&self, request: &QueryRequest) -> Result<(QueryResult, Option<Point>), NetError> {
        let span = self
            .trace
            .open(&format!("shard {}", self.shard.endpoint), Some(self.root));
        let exchange = self.shard.call(
            &Message::Query {
                request: request.clone(),
                trace_id: self.trace.trace_id(),
            },
            self.deadline,
            "Answer to Query",
            |response| match response {
                Message::Answer(result) => Some((result, None)),
                Message::AnswerFrom { origin, result } => Some((result, Some(origin))),
                _ => None,
            },
        );
        self.trace.close(span);
        let ((mut result, origin), traffic) = exchange?;
        result.stats.bytes_sent += traffic.bytes_sent;
        result.stats.bytes_received += traffic.bytes_received;
        result.stats.wire_round_trips += 1;
        Ok((result, origin))
    }
}

impl ShardTransport for QueryTransport<'_> {
    type Error = NetError;

    fn score_lower_bound(&self, request: &QueryRequest) -> f64 {
        shard_score_lower_bound(self.rect, request, request.origin(), self.spatial_norm)
    }

    fn execute(&mut self, request: &QueryRequest) -> Result<QueryResult, NetError> {
        self.query(request).map(|(result, _)| result)
    }

    fn describe(&self) -> String {
        self.shard.endpoint.to_string()
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
    /// [`RemoteShardedEngine::rebalance`] needs (everything else works
    /// without it — the servers hold their own replicas).
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
        let mut shards = Vec::with_capacity(n);
        let mut user_count = None;
        for (index, endpoint) in self.endpoints.iter().enumerate() {
            // Reconnects inside the pool are a single immediate attempt
            // (a dead shard must fail fast mid-query); the *handshake*
            // retries here until `connect_timeout`, because servers may
            // still be binding their sockets.
            let pool = ConnectionPool::new(endpoint.clone(), Duration::ZERO);
            let handshake_deadline = Instant::now() + self.connect_timeout;
            let info = loop {
                match pool.call(&Message::Hello, self.deadline) {
                    Ok((Message::Info(info), _)) => break info,
                    Ok((other, _)) => {
                        return Err(NetError::Protocol {
                            shard: endpoint.to_string(),
                            detail: format!(
                                "expected Info after Hello, got tag 0x{:02x}",
                                other.tag()
                            ),
                        })
                    }
                    Err(e @ NetError::Remote { .. }) => return Err(e),
                    Err(e) => {
                        if Instant::now() >= handshake_deadline {
                            return Err(e);
                        }
                        std::thread::sleep(Duration::from_millis(10));
                    }
                }
            };
            if info.shard != index as u32 || info.shards != n as u32 {
                return Err(NetError::Protocol {
                    shard: endpoint.to_string(),
                    detail: format!(
                        "server claims shard {}/{} but sits at position {} of {} endpoints",
                        info.shard, info.shards, index, n
                    ),
                });
            }
            match user_count {
                None => user_count = Some(info.user_count),
                Some(expected) if expected != info.user_count => {
                    return Err(NetError::Protocol {
                        shard: endpoint.to_string(),
                        detail: format!(
                            "server reports {} users but earlier shards report {expected}",
                            info.user_count
                        ),
                    });
                }
                Some(_) => {}
            }
            shards.push(RemoteShard {
                endpoint: endpoint.clone(),
                pool,
                info: RwLock::new(info),
                churn: AtomicUsize::new(0),
            });
        }
        let user_count = user_count.expect("at least one shard");
        let mut holders = Vec::new();
        for (index, shard) in shards.iter().enumerate() {
            let residents = shard.list_located(self.deadline)?;
            holders.extend(residents.into_iter().map(|(user, _)| (user, index)));
        }
        Ok(RemoteShardedEngine {
            owners: owner_table(user_count, holders),
            shards,
            policy: FailurePolicy::default(),
            deadline: self.deadline,
            user_count,
            assignment: self.assignment,
            slow_log: self
                .slow_query_threshold
                .map(|threshold| SlowQueryLog::new(threshold, SLOW_LOG_CAPACITY)),
        })
    }
}

/// Scatter-gather SSRQ engine over shard-server processes — the
/// multi-process counterpart of
/// [`ShardedEngine`](ssrq_shard::ShardedEngine), returning the same ranked
/// list for the same deployment.
///
/// Connections persist across queries in per-endpoint pools, so a batch
/// pays the connect + handshake cost once — and because every query
/// builds its own transports over those pools, queries take `&self`: any
/// number of threads may call [`query`](RemoteShardedEngine::query)
/// concurrently on one shared engine.
///
/// The coordinator's owner table ([`owner_of`](RemoteShardedEngine::owner_of))
/// routes location reports and origin resolution: with a current entry a
/// relocation within the owner's cells costs one round trip, and a query
/// one round trip per executed shard.  The table is a hint — a stale entry
/// costs round trips, never exactness.
pub struct RemoteShardedEngine {
    shards: Vec<RemoteShard>,
    /// User → shard that last reported holding the user's location
    /// ([`UNLOCATED`]: none), as this coordinator last saw it.
    owners: Vec<u32>,
    policy: FailurePolicy,
    deadline: Option<Duration>,
    user_count: u64,
    assignment: Option<ShardAssignment>,
    slow_log: Option<SlowQueryLog>,
}

impl std::fmt::Debug for RemoteShardedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteShardedEngine")
            .field(
                "endpoints",
                &self
                    .shards
                    .iter()
                    .map(|s| s.endpoint.to_string())
                    .collect::<Vec<_>>(),
            )
            .field("policy", &self.policy)
            .field("user_count", &self.user_count)
            .finish()
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

    /// Number of remote shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total users of the deployment (every shard holds the full graph).
    pub fn user_count(&self) -> u64 {
        self.user_count
    }

    /// The shard this coordinator's owner table names as holding `user`'s
    /// location (`None`: no shard, or an unknown user).  A hint only: a
    /// second coordinator on the same servers may have moved the user
    /// since; every operation that reads the table checks the shards'
    /// answers and falls back to asking all of them.
    pub fn owner_of(&self, user: UserId) -> Option<usize> {
        match self.owners.get(user as usize) {
            Some(&shard) if shard != UNLOCATED => Some(shard as usize),
            _ => None,
        }
    }

    /// A snapshot of the cached handshake info of shard `shard`.
    pub fn shard_info(&self, shard: usize) -> ShardInfo {
        self.shards[shard]
            .info
            .read()
            .expect("shard info lock")
            .clone()
    }

    /// Relocations shard `shard` has adopted since its cached rect was
    /// last tightened — the staleness the next opportunistic refresh (or
    /// [`refresh`](RemoteShardedEngine::refresh)) will reclaim.
    pub fn rect_churn(&self, shard: usize) -> usize {
        self.shards[shard].churn.load(Ordering::Relaxed)
    }

    /// Switches what a mid-query shard failure does for subsequent queries
    /// (default: [`FailurePolicy::Fail`]).
    pub fn set_failure_policy(&mut self, policy: FailurePolicy) {
        self.policy = policy;
    }

    /// Runs one query; see [`RemoteShardedEngine::query_detailed`] for the
    /// per-shard outcomes.
    ///
    /// # Errors
    ///
    /// As [`RemoteShardedEngine::query_detailed`].
    pub fn query(&self, request: &QueryRequest) -> Result<QueryResult, NetError> {
        self.query_detailed(request).map(|(result, _)| result)
    }

    /// Runs one scatter-gather query and additionally reports the
    /// per-shard [`ShardStats`].
    ///
    /// The coordinator validates locally, then visits the shards
    /// best-first, one at a time, with the running `f_k` forwarded in each
    /// next request ([`scatter_sequential`]).  When the request pins no
    /// origin, the first visit goes to the query user's cached owner
    /// ([`owner_of`](RemoteShardedEngine::owner_of)) without one: that
    /// shard evaluates the query from its own copy of the location and
    /// names it, and the other shards are bounded from it.  If the owner
    /// names no origin (a stale entry or an unlocated user), its answer is
    /// discarded and the other shards are asked the same in turn.  The
    /// merged [`QueryStats`] include the wire counters (`bytes_sent`,
    /// `bytes_received`, `wire_round_trips`), discarded answers included.
    ///
    /// # Errors
    ///
    /// [`NetError::Core`] for an invalid request or unknown user;
    /// otherwise per [`FailurePolicy`] — under `Fail`, the first shard
    /// failure (timeout, disconnect, typed refusal) aborts the query;
    /// under `Degrade`, transport failures yield a result flagged
    /// [`degraded`](QueryResult::degraded) with the failed shard named in
    /// the outcomes — including a shard that was unreachable while
    /// resolving the query user's origin, which may silently have held it
    /// — and only a refusal every shard repeats (e.g. an unknown
    /// algorithm) still errors.
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
    /// As [`RemoteShardedEngine::query_detailed`].
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

    fn offer_slow(&self, request: &QueryRequest, spans: &QuerySpans, completed: bool) {
        if let (Some(slow_log), true) = (&self.slow_log, completed) {
            slow_log.offer(spans.total_ns(), spans, || {
                format!(
                    "algorithm={} user={} k={} shards={}",
                    request.algorithm().name(),
                    request.user(),
                    request.k(),
                    self.shards.len(),
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
        let (report, _) = self.shards[shard].call(
            &Message::MetricsRequest,
            self.deadline,
            "MetricsReport to MetricsRequest",
            |response| match response {
                Message::MetricsReport(report) => Some(report),
                _ => None,
            },
        )?;
        Ok(report)
    }

    fn query_with_trace(
        &self,
        request: &QueryRequest,
        trace: &Trace,
    ) -> Result<(QueryResult, ShardStats), NetError> {
        let started = Instant::now();
        let root = trace.open("coordinator_query", None);
        request.validate().map_err(NetError::Core)?;
        if u64::from(request.user()) >= self.user_count {
            return Err(NetError::Core(CoreError::UnknownUser(request.user())));
        }
        let mut transports: Vec<QueryTransport<'_>> = self
            .shards
            .iter()
            .map(|shard| {
                let info = shard.info.read().expect("shard info lock");
                QueryTransport {
                    shard,
                    rect: info.rect,
                    spatial_norm: info.spatial_norm,
                    deadline: self.deadline,
                    trace,
                    root,
                }
            })
            .collect();
        // Origin resolution is the scatter's first visit, so the scatter
        // span and timer cover it.
        let scatter_span = trace.open("scatter", Some(root));
        let scatter_started = Instant::now();
        let mut lookups = QueryStats::default();
        let mut locate_failures: Vec<(usize, String)> = Vec::new();
        let (base, first_visit) = match request.origin() {
            Some(_) => (request.clone(), None),
            None => {
                let locate = trace.open("resolve_origin", Some(scatter_span));
                let resolved =
                    self.resolve_origin(request, &transports, &mut lookups, &mut locate_failures);
                trace.close(locate);
                resolved?
            }
        };
        let scatter = scatter_sequential(&mut transports, &base, self.policy, first_visit);
        let scatter_elapsed = scatter_started.elapsed();
        trace.close(scatter_span);
        let scatter = scatter.map_err(|failure| failure.error)?;
        let merge_span = trace.open("merge", Some(root));
        let merge_started = Instant::now();
        let ranked = merge_ranked(scatter.entries, base.k());
        let merge_elapsed = merge_started.elapsed();
        trace.close(merge_span);
        let mut outcomes = scatter.outcomes;
        let mut degraded = scatter.degraded;
        if base.origin().is_none() && !locate_failures.is_empty() {
            // The origin could not be resolved AND a shard was
            // unreachable while asking — that shard may silently have
            // held the user's location, so the "ran with no origin"
            // answer must not pass as exact.
            degraded = true;
            for (index, detail) in locate_failures {
                outcomes[index] = ShardOutcome::Failed {
                    shard: self.shards[index].endpoint.to_string(),
                    detail: format!("unreachable during origin resolution: {detail}"),
                };
            }
        }
        let mut stats = ShardStats::new(outcomes, started.elapsed());
        stats.merged.merge(&lookups);
        let result = QueryResult {
            ranked,
            k: base.k(),
            degraded,
            stats: stats.merged,
        };
        trace.close(root);
        // Same series names the in-process scatter records, plus the
        // coordinator's own query tallies.
        let registry = Registry::global();
        ssrq_shard::obs::record_scatter(registry, &stats, scatter_elapsed, merge_elapsed);
        registry
            .counter("ssrq_coordinator_queries_total", &[])
            .inc();
        registry
            .histogram("ssrq_coordinator_query_ns", &[])
            .observe_duration(started.elapsed());
        Ok((result, stats))
    }

    /// Resolves the broadcast form of `request`, which pins no origin, by
    /// putting it as it is to the user's cached owner first, then to the
    /// other shards in turn.  The first shard that names the origin it
    /// evaluated from ends the search: the request pinned to that origin
    /// is returned together with that shard and its answer — the
    /// scatter's first visit.  A shard that does not hold the user answers
    /// without a search; its answer is discarded and its round trip
    /// charged to `lookups`.  Transport failures follow the failure
    /// policy: under `Degrade` the unreachable shard is recorded in
    /// `failures` — the caller flags the query degraded if the origin
    /// stays unresolved, because the silent answer "not located" may be
    /// wrong.
    fn resolve_origin(
        &self,
        request: &QueryRequest,
        transports: &[QueryTransport<'_>],
        lookups: &mut QueryStats,
        failures: &mut Vec<(usize, String)>,
    ) -> Result<(QueryRequest, Option<(usize, QueryResult)>), NetError> {
        let owner = self.owner_of(request.user());
        let others = (0..transports.len()).filter(|&index| Some(index) != owner);
        for index in owner.into_iter().chain(others) {
            match transports[index].query(request) {
                Ok((result, Some(origin))) => {
                    return Ok((request.clone().with_origin(origin), Some((index, result))));
                }
                Ok((result, None)) => lookups.merge(&result.stats),
                // A refusal or a response outside the protocol is not a
                // shard being unreachable: the policy does not apply.
                Err(e) if refused(&e) => return Err(e),
                Err(e) => match self.policy {
                    FailurePolicy::Fail => return Err(e),
                    FailurePolicy::Degrade => failures.push((index, e.to_string())),
                },
            }
        }
        Ok((request.clone(), None))
    }

    /// Reports `user`'s new location (`None`: removal) and keeps the owner
    /// table current; returns the shard that adopted the user.
    ///
    /// The cached owner is asked first.  When it held the user, it was the
    /// one holder, so if it also adopts (or the report is a removal) no
    /// other shard can hold a copy and one round trip settles the report.
    /// Otherwise — it dropped the user for another shard's cells, it did
    /// not hold it (a stale entry), or there is no cached owner — every
    /// other shard is told too, each adopting or dropping per its own
    /// assignment replica.
    fn route_relocation(
        &mut self,
        user: UserId,
        location: Option<Point>,
    ) -> Result<Option<usize>, NetError> {
        let cached = self.owner_of(user);
        let mut adopter = None;
        let mut settled = false;
        if let Some(owner) = cached {
            let (adopted, held) = self.shards[owner].relocate(user, location, self.deadline)?;
            adopter = adopted.then_some(owner);
            settled = held && (adopted || location.is_none());
        }
        if !settled {
            for (index, shard) in self.shards.iter().enumerate() {
                if cached == Some(index) {
                    continue;
                }
                let (adopted, _) = shard.relocate(user, location, self.deadline)?;
                if adopted {
                    if let Some(first) = adopter {
                        return Err(shard.protocol(format!(
                            "shards {first} and {index} both adopted user {user}"
                        )));
                    }
                    adopter = Some(index);
                }
            }
        }
        // A rebalance routes ids taken from the servers' resident lists,
        // which nothing checked against `user_count`.
        if let Some(entry) = self.owners.get_mut(user as usize) {
            *entry = adopter.map_or(UNLOCATED, |shard| shard as u32);
        }
        Ok(adopter)
    }

    /// Moves `user` to `location`: the relocation goes to the user's cached
    /// owner, which adopts it and, having held the user, settles it in one
    /// round trip; when the owner changes or the entry is stale, every
    /// other shard is told too, so the shard owning the new location (per
    /// each server's assignment replica) adopts it and every other shard
    /// drops any stale copy.  Returns the adopting shard.
    ///
    /// The adopter's cached bounding rectangle is grown to cover the new
    /// location, keeping the coordinator's shard lower bounds admissible
    /// without a refresh round trip — and its churn counter ticks up;
    /// once it reaches 256 adoptions, that one shard is re-handshaken to
    /// tighten the rect back down (growth-only rects otherwise degrade
    /// rect-skip pruning forever).
    ///
    /// # Errors
    ///
    /// [`NetError::Core`] for an unknown user or a non-finite location,
    /// checked before any shard is contacted; any shard failure, the
    /// cached owner's included (relocations are exactness-critical, so
    /// the failure policy does not apply), or [`NetError::Protocol`] when
    /// not exactly one shard adopts.
    pub fn update_location(&mut self, user: UserId, location: Point) -> Result<usize, NetError> {
        if u64::from(user) >= self.user_count {
            return Err(NetError::Core(CoreError::UnknownUser(user)));
        }
        if !location.is_finite() {
            return Err(NetError::Core(CoreError::InvalidParameter(format!(
                "non-finite location {location}"
            ))));
        }
        let Some(adopter) = self.route_relocation(user, Some(location))? else {
            return Err(NetError::Protocol {
                shard: "coordinator".into(),
                detail: format!("no shard adopted the relocation of user {user}"),
            });
        };
        let shard = &self.shards[adopter];
        {
            let mut info = shard.info.write().expect("shard info lock");
            info.rect = Some(match info.rect {
                Some(rect) => rect.including(location),
                None => Rect::new(location, location),
            });
        }
        let churn = shard.churn.fetch_add(1, Ordering::Relaxed) + 1;
        if churn >= RECT_REFRESH_RELOCATIONS {
            self.refresh_shard(adopter)?;
        }
        Ok(adopter)
    }

    /// Removes `user`'s location: the removal goes to the user's cached
    /// owner, and to every other shard unless that one held the user
    /// (cached rectangles are left as conservative over-approximations —
    /// still valid lower bounds).
    ///
    /// # Errors
    ///
    /// [`NetError::Core`] for an unknown user; any shard failure the
    /// removal meets.
    pub fn remove_location(&mut self, user: UserId) -> Result<(), NetError> {
        if u64::from(user) >= self.user_count {
            return Err(NetError::Core(CoreError::UnknownUser(user)));
        }
        self.route_relocation(user, None)?;
        Ok(())
    }

    /// Re-handshakes one shard, replacing its cached info (tightened
    /// rect, fresh occupancy) and resetting its churn counter.
    fn refresh_shard(&self, index: usize) -> Result<(), NetError> {
        let shard = &self.shards[index];
        let (info, _) = shard.call(
            &Message::Refresh,
            self.deadline,
            "Info to Refresh",
            |response| match response {
                Message::Info(info) => Some(info),
                _ => None,
            },
        )?;
        if info.shard != index as u32 {
            return Err(shard.protocol(format!(
                "server now claims shard {} at position {index}",
                info.shard
            )));
        }
        *shard.info.write().expect("shard info lock") = info;
        shard.churn.store(0, Ordering::Relaxed);
        Ok(())
    }

    /// Re-handshakes every shard, tightening the cached bounding
    /// rectangles and counts that relocations loosened.
    ///
    /// # Errors
    ///
    /// Any shard failure, or a server whose reported topology changed.
    pub fn refresh(&mut self) -> Result<(), NetError> {
        for index in 0..self.shards.len() {
            self.refresh_shard(index)?;
        }
        Ok(())
    }

    /// Repacks the spatial assignment to the *current* location
    /// distribution and migrates every user whose owner changed, exactly
    /// as [`ShardedEngine::rebalance`](ssrq_shard::ShardedEngine::rebalance)
    /// does in-process: gather locations (and rebuild the owner table from
    /// them), [`ShardAssignment::repack`], broadcast the new cell map,
    /// relocate the moved users, refresh.  Returns how many users moved
    /// shards.
    ///
    /// # Errors
    ///
    /// [`NetError::Core`] when the coordinator was built without
    /// [`RemoteEngineBuilder::assignment`]; otherwise any shard failure
    /// (a rebalance must be all-or-nothing per shard round).
    pub fn rebalance(&mut self) -> Result<usize, NetError> {
        if self.assignment.is_none() {
            return Err(NetError::Core(CoreError::InvalidParameter(
                "rebalance needs the deployment's ShardAssignment \
                 (RemoteEngineBuilder::assignment)"
                    .into(),
            )));
        }
        let mut holders: Vec<(UserId, Point, usize)> = Vec::new();
        for (index, shard) in self.shards.iter().enumerate() {
            let users = shard.list_located(self.deadline)?;
            holders.extend(users.into_iter().map(|(user, point)| (user, point, index)));
        }
        self.owners = owner_table(
            self.user_count,
            holders.iter().map(|&(user, _, holder)| (user, holder)),
        );
        let assignment = self.assignment.as_mut().expect("checked above");
        let points: Vec<Point> = holders.iter().map(|&(_, point, _)| point).collect();
        assignment.repack(&points);
        let cell_map = assignment.cell_map().to_vec();
        let moves: Vec<(UserId, Point)> = holders
            .iter()
            .filter(|&&(user, point, holder)| assignment.owner_for(user, Some(point)) != holder)
            .map(|&(user, point, _)| (user, point))
            .collect();
        for shard in &self.shards {
            let message = Message::SetAssignment {
                cell_to_shard: cell_map.clone(),
            };
            shard.call(&message, self.deadline, "Ok to SetAssignment", |response| {
                matches!(response, Message::Ok).then_some(())
            })?;
        }
        for &(user, point) in &moves {
            self.route_relocation(user, Some(point))?;
        }
        self.refresh()?;
        Ok(moves.len())
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
        for shard in &self.shards {
            let acknowledged = shard.call(
                &Message::Shutdown,
                self.deadline,
                "Ok to Shutdown",
                |response| matches!(response, Message::Ok).then_some(()),
            );
            if let Err(e) = acknowledged {
                first_error.get_or_insert(e);
            }
            shard.pool.close();
        }
        match first_error {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }
}
