//! Deploying a workload and driving one round of it.
//!
//! A round is `set-up (timed) → warm-up (untimed) → timed window → timed
//! update burst` on a freshly generated dataset and a freshly built
//! deployment.  The harness calls only public functions of the `ssrq-*`
//! crates; every call into a layer is wrapped in a span of the benchmark's
//! own recorder (a no-op while tracing is off).

use crate::gen::{self, Deployment, Op, OpList, Spec};
use crate::trace::{Recorder, SpanId};
use ssrq_core::{
    Algorithm, GeoSocialDataset, GeoSocialEngine, PlannerSnapshot, QueryContext, QueryRequest,
    QueryResult, QueryStats, UserId,
};
use ssrq_net::{Endpoint, RemoteShardedEngine, ShardServer};
use ssrq_obs::{MetricValue, QuerySpans};
use ssrq_shard::{Partitioning, ShardAssignment, ShardOutcome, ShardStats, ShardedEngine};
use ssrq_spatial::Point;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What the planner of an `Auto` workload is pinned to in the timed rounds
/// (`QueryPlanner::pin`).  Unpinned, the planner re-probes every candidate
/// every 32nd decision of a bucket; the AIS-BID probes among them cost
/// 30 ms to 1.9 s each against a 0.15 ms median, so some ten probes carried
/// 74-88 % of a 2 500-op window and `qps` spread 31-77 % between seeds — no
/// bound can hold on that.  Pinned, the requests still go through request
/// classification, the hot-result cache and churn invalidation; what
/// exploration costs is measured by the `planner.*` probes, unpinned.
pub const AUTO_PIN: Algorithm = Algorithm::Ais;

/// The location-space tiling of both sharded deployments.
pub const PARTITIONING: Partitioning = Partitioning::SpatialGrid { cells_per_axis: 16 };

/// In-thread shard servers on Unix sockets.  Dropping the cluster raises
/// every shutdown flag, joins every server thread and removes the socket
/// directory — on every exit path, unwinding included.
pub struct Cluster {
    endpoints: Vec<Endpoint>,
    flags: Vec<Arc<AtomicBool>>,
    handles: Vec<JoinHandle<()>>,
    dir: PathBuf,
}

static CLUSTER_SEQ: AtomicUsize = AtomicUsize::new(0);

impl Cluster {
    /// Binds one server per engine under a fresh directory in `out_dir`
    /// (a short relative path: socket paths are capped near 100 bytes).
    fn launch(
        out_dir: &Path,
        engines: Vec<GeoSocialEngine>,
        assignment: &ShardAssignment,
    ) -> Cluster {
        let dir = out_dir.join(format!(
            "sock-{}-{}",
            std::process::id(),
            CLUSTER_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("socket directory is creatable");
        let mut cluster = Cluster {
            endpoints: Vec::new(),
            flags: Vec::new(),
            handles: Vec::new(),
            dir,
        };
        for (shard, engine) in engines.into_iter().enumerate() {
            let endpoint = Endpoint::Unix(cluster.dir.join(format!("{shard}.sock")));
            let server = ShardServer::bind(&endpoint, engine, shard, assignment.clone())
                .expect("shard server binds");
            cluster.flags.push(server.shutdown_flag());
            cluster.endpoints.push(endpoint);
            cluster.handles.push(std::thread::spawn(move || {
                server.serve().expect("shard server loop");
            }));
        }
        cluster
    }

    /// The servers' endpoints, by shard.
    pub fn endpoints(&self) -> &[Endpoint] {
        &self.endpoints
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for flag in &self.flags {
            flag.store(true, Ordering::SeqCst);
        }
        for handle in self.handles.drain(..) {
            // A server that panicked already failed the queries it served.
            let _ = handle.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A deployed workload.
pub enum System {
    /// One engine.
    Single(Box<GeoSocialEngine>),
    /// In-process scatter-gather.
    Sharded(Box<ShardedEngine>),
    /// Scatter-gather over sockets.  (`remote` is declared first so its
    /// connections close before the cluster joins its servers.)
    Remote {
        /// The coordinator.
        remote: Box<RemoteShardedEngine>,
        /// The servers behind it.
        cluster: Cluster,
    },
}

/// Builds the single-engine deployment of a dataset (also the oracle's and
/// the probes' reference engine).
pub fn build_engine(dataset: GeoSocialDataset) -> GeoSocialEngine {
    GeoSocialEngine::builder(dataset)
        .build()
        .expect("engine builds over a generated dataset")
}

/// Builds the in-process sharded deployment of a dataset.
pub fn build_sharded(dataset: GeoSocialDataset, shards: usize) -> ShardedEngine {
    ShardedEngine::builder(dataset)
        .shards(shards)
        .partitioning(PARTITIONING)
        .build()
        .expect("sharded engine builds over a generated dataset")
}

/// Generates the dataset and deploys `spec` on it, under a `setup` span
/// whose children are the calls into each layer.  Returns the deployment
/// and the set-up wall time in seconds.
pub fn set_up(spec: &Spec, out_dir: &Path, rec: &mut Recorder) -> (System, f64) {
    let started = Instant::now();
    let root = rec.open("setup", None, 0);
    let dataset = rec.time("data.generate", root, 0, || gen::dataset(spec));
    let system = match spec.deployment {
        Deployment::Single => {
            let engine = rec.time("core.build", root, 0, || build_engine(dataset));
            if spec.algorithm == Algorithm::Auto {
                engine.planner().pin(Some(AUTO_PIN));
            }
            System::Single(Box::new(engine))
        }
        Deployment::Sharded { shards } => {
            System::Sharded(Box::new(
                rec.time("shard.build", root, 0, || build_sharded(dataset, shards)),
            ))
        }
        Deployment::Remote { shards } => {
            let (assignment, owner) = rec.time("shard.assign", root, 0, || {
                let assignment = ShardAssignment::compute(&dataset, PARTITIONING, shards)
                    .expect("assignment computes");
                let owner = assignment.owners(&dataset);
                (assignment, owner)
            });
            let engines: Vec<GeoSocialEngine> = (0..shards)
                .map(|s| {
                    rec.time("core.build", root, 0, || {
                        build_engine(
                            dataset.restrict_locations(|u| owner[u as usize] as usize == s),
                        )
                    })
                })
                .collect();
            let cluster = rec.time("net.launch", root, 0, || {
                Cluster::launch(out_dir, engines, &assignment)
            });
            let remote = rec.time("net.connect", root, 0, || {
                RemoteShardedEngine::builder(cluster.endpoints().to_vec())
                    .connect_timeout(Duration::from_secs(10))
                    .deadline(Duration::from_secs(30))
                    .connect()
                    .expect("coordinator connects")
            });
            System::Remote {
                remote: Box::new(remote),
                cluster,
            }
        }
    };
    rec.close(root);
    (system, started.elapsed().as_secs_f64())
}

/// What one query call returned, as far as the harness keeps it.
struct Answer {
    result: QueryResult,
    /// Shards that ran / were pruned (0/0 on a single engine).
    executed: u64,
    skipped: u64,
}

fn shard_answer(result: QueryResult, stats: &ShardStats) -> Answer {
    Answer {
        result,
        executed: stats.executed_shards() as u64,
        skipped: stats.skipped_shards() as u64,
    }
}

/// Attaches a scatter's per-shard outcomes under the query's span.
fn attach_outcomes(
    rec: &mut Recorder,
    span: Option<SpanId>,
    op: u64,
    start_ns: u64,
    stats: &ShardStats,
) {
    for outcome in &stats.per_shard {
        match outcome {
            ShardOutcome::Executed(s) => rec.attach(
                "shard.executed",
                span,
                op,
                start_ns,
                s.runtime.as_nanos() as u64,
            ),
            ShardOutcome::Skipped { .. } => rec.attach("shard.skipped", span, op, start_ns, 0),
            ShardOutcome::Failed { .. } => rec.attach("shard.failed", span, op, start_ns, 0),
        };
    }
}

/// Attaches the coordinator's own span tree under the query's span.
fn attach_query_spans(
    rec: &mut Recorder,
    span: Option<SpanId>,
    op: u64,
    start_ns: u64,
    spans: &QuerySpans,
) {
    let mut ids: Vec<Option<SpanId>> = Vec::with_capacity(spans.spans.len());
    for record in &spans.spans {
        // "shard unix:/…" → "net.shard": one name per kind of span.
        let kind = record.name.split_whitespace().next().unwrap_or("span");
        let parent = record.parent.map_or(span, |p| ids[p as usize]);
        ids.push(rec.attach(
            &format!("net.{kind}"),
            parent,
            op,
            start_ns + record.start_ns,
            record.duration_ns,
        ));
    }
}

/// Everything measured in one round.
#[derive(Debug, Default)]
pub struct Round {
    /// Set-up wall time.
    pub setup_s: f64,
    /// Wall time of the timed window.
    pub window_s: f64,
    /// Caller-side latency of every window query, in window order.
    pub query_ns: Vec<u64>,
    /// Latency of every timed `update_location` call.
    pub update_ns: Vec<u64>,
    /// Timed operations that returned an error.
    pub failed: usize,
    /// Window results kept for the oracle, by window index.
    pub kept: Vec<(usize, QueryResult)>,
    /// Work counters summed over the window's queries.
    pub work: QueryStats,
    /// Shards executed / pruned, summed over the window's queries.
    pub executed: u64,
    /// See `executed`.
    pub skipped: u64,
    /// The engine's planner counters when the round ended (single-engine
    /// deployments).
    pub planner: Option<PlannerSnapshot>,
    /// Shard-server queue wait and worker busy time over the window,
    /// `(wait_ns, waits, busy_ns)` (remote deployment).
    pub server: Option<(u64, u64, u64)>,
}

impl Round {
    /// Timed operations attempted.
    pub fn attempted(&self) -> usize {
        self.query_ns.len() + self.update_ns.len()
    }

    /// Operations per second of the timed window.
    pub fn qps(&self, window_ops: usize) -> f64 {
        window_ops as f64 / self.window_s
    }
}

/// Tallies of a query phase, in window order.
#[derive(Default)]
struct Tally {
    latencies: Vec<u64>,
    kept: Vec<(usize, QueryResult)>,
    work: QueryStats,
    executed: u64,
    skipped: u64,
    failed: usize,
}

impl Tally {
    fn record(&mut self, index: usize, ns: u64, outcome: Result<Answer, String>, keep: bool) {
        self.latencies.push(ns);
        match outcome {
            Ok(answer) => {
                self.work.absorb(&answer.result.stats);
                self.executed += answer.executed;
                self.skipped += answer.skipped;
                if keep {
                    self.kept.push((index, answer.result));
                }
            }
            Err(error) => {
                if self.failed == 0 {
                    eprintln!("query {index} failed: {error}");
                }
                self.failed += 1;
            }
        }
    }

    fn merge_into(self, round: &mut Round) {
        round.query_ns.extend(self.latencies);
        round.kept.extend(self.kept);
        round.work.absorb(&self.work);
        round.executed += self.executed;
        round.skipped += self.skipped;
        round.failed += self.failed;
    }
}

/// One query through the remote coordinator, its span tree attached when
/// tracing is on.
fn remote_query(
    remote: &RemoteShardedEngine,
    request: &QueryRequest,
    index: usize,
    rec: &mut Recorder,
) -> (u64, Result<Answer, String>) {
    let op = index as u64 + 1;
    let start_ns = rec.now_ns();
    let span = rec.open("op.query", None, op);
    let started = Instant::now();
    let outcome = if rec.enabled() {
        remote.query_traced(request).map(|(result, stats, spans)| {
            attach_query_spans(rec, span, op, start_ns, &spans);
            shard_answer(result, &stats)
        })
    } else {
        remote
            .query_detailed(request)
            .map(|(result, stats)| shard_answer(result, &stats))
    };
    let ns = started.elapsed().as_nanos() as u64;
    rec.close(span);
    (ns, outcome.map_err(|e| e.to_string()))
}

/// Runs `queries` (window index, request) against `system`, closed loop from
/// this thread, and folds the outcome into `round` (`None` for the warm-up:
/// nothing is kept).
fn run_queries(
    system: &System,
    queries: &[(usize, &QueryRequest)],
    keep: &BTreeSet<usize>,
    rec: &mut Recorder,
    round: Option<&mut Round>,
) {
    let started = Instant::now();
    let mut tally = Tally::default();
    match system {
        System::Single(engine) => {
            let mut ctx = engine.make_context();
            for &(index, request) in queries {
                let (ns, outcome) = single_query(engine, &mut ctx, request, index, rec);
                tally.record(index, ns, outcome, keep.contains(&index));
            }
        }
        System::Sharded(engine) => {
            let mut session = engine.session();
            for &(index, request) in queries {
                let op = index as u64 + 1;
                let start_ns = rec.now_ns();
                let span = rec.open("op.query", None, op);
                let started = Instant::now();
                let outcome = session.run_with_stats(request);
                let ns = started.elapsed().as_nanos() as u64;
                rec.close(span);
                let outcome = outcome
                    .map(|(result, stats)| {
                        attach_outcomes(rec, span, op, start_ns, &stats);
                        shard_answer(result, &stats)
                    })
                    .map_err(|e| e.to_string());
                tally.record(index, ns, outcome, keep.contains(&index));
            }
        }
        System::Remote { remote, .. } => {
            for &(index, request) in queries {
                let (ns, outcome) = remote_query(remote, request, index, rec);
                tally.record(index, ns, outcome, keep.contains(&index));
            }
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    if let Some(round) = round {
        round.window_s = elapsed;
        tally.merge_into(round);
    }
}

fn single_engine(system: &System) -> &GeoSocialEngine {
    match system {
        System::Single(engine) => engine,
        _ => panic!("an interleaved window needs the single-engine deployment"),
    }
}

fn single_query(
    engine: &GeoSocialEngine,
    ctx: &mut QueryContext,
    request: &QueryRequest,
    index: usize,
    rec: &mut Recorder,
) -> (u64, Result<Answer, String>) {
    let span = rec.open("op.query", None, index as u64 + 1);
    let started = Instant::now();
    let outcome = engine.run_with(request, ctx);
    let ns = started.elapsed().as_nanos() as u64;
    rec.close(span);
    let outcome = outcome
        .map(|result| Answer {
            result,
            executed: 0,
            skipped: 0,
        })
        .map_err(|e| e.to_string());
    (ns, outcome)
}

/// One timed `update_location` call, folded into `round`.
fn timed_update(
    system: &mut System,
    user: UserId,
    to: Point,
    op: u64,
    rec: &mut Recorder,
    round: &mut Round,
) {
    let span = rec.open("op.update", None, op);
    let started = Instant::now();
    let outcome: Result<(), String> = match system {
        System::Single(engine) => engine.update_location(user, to).map_err(|e| e.to_string()),
        System::Sharded(engine) => engine.update_location(user, to).map_err(|e| e.to_string()),
        System::Remote { remote, .. } => remote
            .update_location(user, to)
            .map(|_adopter| ())
            .map_err(|e| e.to_string()),
    };
    let ns = started.elapsed().as_nanos() as u64;
    rec.close(span);
    round.update_ns.push(ns);
    if let Err(error) = outcome {
        if round.failed == 0 {
            eprintln!("update of user {user} failed: {error}");
        }
        round.failed += 1;
    }
}

/// The shard servers' cumulative `(queue wait ns, waits, worker busy ns)`,
/// summed over every shard label; `None` off the remote deployment.
fn server_totals(system: &System) -> Option<(u64, u64, u64)> {
    let System::Remote { remote, .. } = system else {
        return None;
    };
    // In-thread servers share one registry, so one shard's report already
    // carries every shard's series.
    let report = remote.remote_metrics(0).ok()?;
    let mut totals = (0u64, 0u64, 0u64);
    for sample in &report.metrics {
        if let MetricValue::Histogram(h) = &sample.value {
            match sample.name.as_str() {
                "ssrq_server_queue_wait_ns" => {
                    totals.0 += h.sum;
                    totals.1 += h.count;
                }
                "ssrq_server_worker_busy_ns" => totals.2 += h.sum,
                _ => {}
            }
        }
    }
    Some(totals)
}

/// Drives one full round of `spec`; `keep` lists the window indices whose
/// results are kept for the oracle.
pub fn run_round(
    spec: &Spec,
    ops: &OpList,
    keep: &BTreeSet<usize>,
    out_dir: &Path,
    rec: &mut Recorder,
) -> Round {
    let (mut system, setup_s) = set_up(spec, out_dir, rec);
    let mut round = Round {
        setup_s,
        ..Round::default()
    };
    let nothing = BTreeSet::new();
    let mut quiet = Recorder::new(false);
    let warmup: Vec<(usize, &QueryRequest)> = ops.warmup.iter().enumerate().collect();
    run_queries(&system, &warmup, &nothing, &mut quiet, None);

    let interleaved = ops.window.iter().any(|op| matches!(op, Op::Update(..)));
    if interleaved {
        // Writes beside reads on one engine, one thread.
        let mut ctx = single_engine(&system).make_context();
        let started = Instant::now();
        let mut tally = Tally::default();
        for (index, op) in ops.window.iter().enumerate() {
            match op {
                Op::Query(request) => {
                    let (ns, outcome) =
                        single_query(single_engine(&system), &mut ctx, request, index, rec);
                    tally.record(index, ns, outcome, keep.contains(&index));
                }
                Op::Update(user, to) => {
                    timed_update(&mut system, *user, *to, index as u64 + 1, rec, &mut round)
                }
            }
        }
        round.window_s = started.elapsed().as_secs_f64();
        tally.merge_into(&mut round);
    } else {
        let queries: Vec<(usize, &QueryRequest)> = ops
            .window
            .iter()
            .enumerate()
            .map(|(index, op)| match op {
                Op::Query(request) => (index, request),
                Op::Update(..) => unreachable!("checked above"),
            })
            .collect();
        let before = server_totals(&system);
        run_queries(&system, &queries, keep, rec, Some(&mut round));
        round.server = before
            .zip(server_totals(&system))
            .map(|(b, a)| (a.0 - b.0, a.1 - b.1, a.2 - b.2));
    }
    let first_burst_op = ops.window.len() as u64 + 1;
    for (i, &(user, to)) in ops.burst.iter().enumerate() {
        timed_update(
            &mut system,
            user,
            to,
            first_burst_op + i as u64,
            rec,
            &mut round,
        );
    }
    if let System::Single(engine) = &system {
        round.planner = Some(engine.planner().snapshot());
    }
    round
}

/// Replays the window on a fresh single engine with the exhaustive oracle
/// and counts kept results that differ from it: a different user list or
/// order, or a score further than 4 ulps (of 1.0) away.
pub fn oracle_mismatches(spec: &Spec, ops: &OpList, kept: &[(usize, QueryResult)]) -> usize {
    let mut engine = build_engine(gen::dataset(spec));
    let mut ctx = engine.make_context();
    let tolerance = 4.0 * f64::EPSILON;
    let mut kept = kept.iter().peekable();
    let mut mismatches = 0usize;
    for (index, op) in ops.window.iter().enumerate() {
        match op {
            Op::Update(user, to) => engine
                .update_location(*user, *to)
                .expect("generated moves are valid"),
            Op::Query(request) => {
                let Some((_, got)) = kept.next_if(|(at, _)| *at == index) else {
                    continue;
                };
                let oracle = request.clone().with_algorithm(Algorithm::Exhaustive);
                let same = engine
                    .run_with(&oracle, &mut ctx)
                    .is_ok_and(|expected| got.same_users_and_scores(&expected, tolerance));
                if !same {
                    if mismatches == 0 {
                        eprintln!("window op {index} differs from the exhaustive oracle");
                    }
                    mismatches += 1;
                }
            }
        }
    }
    mismatches + kept.count()
}
