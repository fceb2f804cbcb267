//! Per-layer metrics, measured from outside.
//!
//! Two sources only: the traced round (its spans and the public counters
//! the layers hand back — `QueryStats`, `ShardStats`, `PlannerSnapshot`,
//! server histograms), and direct timing of each layer's public functions
//! on the workload's own dataset and requests.  A layer the workload's
//! path never enters reports 0 for its metrics.

use crate::estimate::{mean, quantile, quiet_quartile, Better};
use crate::gen::{self, Deployment, Op, OpList, Spec};
use crate::trace::Recorder;
use crate::workloads::{self, Round, System};
use crate::Metric;
use ssrq_core::ais::AisIndex;
use ssrq_core::{
    Algorithm, GeoSocialEngine, PlannerConfig, QueryPlanner, QueryRequest, QueryResult, QueryStats,
    RankedUser, UserId,
};
use ssrq_graph::{
    dijkstra_distance, CsrLayout, GraphDistanceEngine, IncrementalDijkstra, LandmarkSet, NodeId,
    SearchScratch, SharingMode, SocialGraph,
};
use ssrq_net::{wire, Message, ShardClient};
use ssrq_obs::Registry;
use ssrq_shard::merge_ranked;
use ssrq_spatial::{Point, Rect, UniformGrid};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Every per-layer metric with its unit, in report order.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("data.generate_s", "s"),
    ("core.engine_build_s", "s"),
    ("graph.landmarks_build_s", "s"),
    ("spatial.grid_bulk_load_s", "s"),
    ("ais.index_build_s", "s"),
    ("shard.build_s", "s"),
    ("net.launch_connect_s", "s"),
    ("setup.residual_share", "share"),
    ("graph.settle_ns", "ns"),
    ("graph.relax_ns", "ns"),
    ("graph.compressed_over_standard", "ratio"),
    ("graph.distance_call_us", "us"),
    ("graph.p2p_dijkstra_us", "us"),
    ("spatial.nn_ns_per_neighbor", "ns"),
    ("spatial.range_query_us", "us"),
    ("spatial.grid_update_ns", "ns"),
    ("ais.index_update_ns", "ns"),
    ("core.social_pops_per_query", "count"),
    ("core.relaxed_edges_per_query", "count"),
    ("core.vertex_pops_per_query", "count"),
    ("core.evaluated_users_per_query", "count"),
    ("core.distance_calls_per_query", "count"),
    ("core.spatial_pops_per_query", "count"),
    ("core.graph_share", "share"),
    ("core.residual_share", "share"),
    ("core.update_location_us", "us"),
    ("planner.cache_hit_share", "share"),
    ("planner.cache_hit_us", "us"),
    ("planner.invalidations_per_update", "count"),
    ("planner.explore_share", "share"),
    ("planner.slow_probe_time_share", "share"),
    ("planner.choose_ns", "ns"),
    ("planner.unpinned_ops_per_s", "1/s"),
    ("shard.executed_per_query", "count"),
    ("shard.skipped_per_query", "count"),
    ("shard.relaxed_amplification", "ratio"),
    ("shard.overhead_ms", "ms"),
    ("shard.merge_us", "us"),
    ("shard.migrations_per_update", "count"),
    ("shard.update_us", "us"),
    ("net.bytes_per_query", "bytes"),
    ("net.round_trips_per_query", "count"),
    ("net.empty_rtt_us", "us"),
    ("net.encode_query_ns", "ns"),
    ("net.decode_result_ns", "ns"),
    ("net.queue_wait_us", "us"),
    ("net.worker_busy_share", "share"),
    ("net.wire_overhead_ms", "ms"),
    ("net.engine_share", "share"),
    ("net.update_us", "us"),
    ("obs.metric_op_ns", "ns"),
    ("obs.trace_overhead_share", "share"),
    ("host.calib_ms", "ms"),
    ("host.calib_after_ms", "ms"),
    ("host.unquiet", "count"),
];

/// Requests a micro-probe samples from the window.
const PROBE_REQUESTS: usize = 64;
/// Neighbours pulled per nearest-neighbour probe.
const NN_NEIGHBOURS: usize = 100;

/// What the probes work from.
pub struct Input<'a> {
    /// The workload.
    pub spec: &'a Spec,
    /// The run's op list.
    pub ops: &'a OpList,
    /// The untraced rounds of this run.
    pub quiet_rounds: &'a [Round],
    /// The traced round.
    pub traced: &'a Round,
    /// Its spans.
    pub recorder: &'a Recorder,
    /// Where sockets go.
    pub out_dir: &'a Path,
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed())
}

fn p50(ns: &[u64]) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    quantile(&ns.iter().map(|&n| n as f64).collect::<Vec<_>>(), 0.5)
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Collects named values and hands them out in [`PER_LAYER`] order.
#[derive(Default)]
struct Sheet(Vec<(&'static str, f64)>);

impl Sheet {
    fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// Settles `target` vertices around each source and returns
/// `(wall, settled, relaxations)`.
fn settle_loop(graph: &SocialGraph, sources: &[NodeId], target: usize) -> (Duration, u64, u64) {
    let mut scratch = SearchScratch::with_capacity(graph.node_count());
    let mut settled = 0u64;
    let mut relaxed = 0u64;
    let started = Instant::now();
    for &source in sources {
        let mut search = IncrementalDijkstra::new(graph, source, &mut scratch);
        while search.settled_count() < target {
            if search.next_settled(graph).is_none() {
                break;
            }
        }
        settled += search.settled_count() as u64;
        relaxed += search.relaxations() as u64;
    }
    (started.elapsed(), settled, relaxed)
}

/// Runs `requests` one by one on a single engine: per-query latencies,
/// summed work, and the answers.
fn run_single(
    engine: &GeoSocialEngine,
    requests: &[&QueryRequest],
) -> (Vec<u64>, QueryStats, Vec<QueryResult>) {
    let mut ctx = engine.make_context();
    let mut latencies = Vec::with_capacity(requests.len());
    let mut work = QueryStats::default();
    let mut answers = Vec::with_capacity(requests.len());
    for request in requests {
        let started = Instant::now();
        let result = engine.run_with(request, &mut ctx);
        latencies.push(started.elapsed().as_nanos() as u64);
        if let Ok(result) = result {
            work.absorb(&result.stats);
            answers.push(result);
        }
    }
    (latencies, work, answers)
}

/// The graph layer: the bare search loops the query algorithms are built
/// from, on the workload's graph and query users.
fn graph_probes(
    sheet: &mut Sheet,
    engine: &GeoSocialEngine,
    sample: &[&QueryRequest],
    answers: &[QueryResult],
    pops_per_search: usize,
) {
    let graph = engine.dataset().graph();
    let sources: Vec<NodeId> = sample.iter().map(|r| r.user()).collect();
    let standard = graph.with_layout(CsrLayout::Standard);
    let compressed = graph.with_layout(CsrLayout::Compressed);
    let (own, settled, relaxed) = settle_loop(graph, &sources, pops_per_search);
    sheet.set(
        "graph.settle_ns",
        ratio(own.as_nanos() as f64, settled as f64),
    );
    sheet.set(
        "graph.relax_ns",
        ratio(own.as_nanos() as f64, relaxed as f64),
    );
    let (on_standard, ..) = settle_loop(&standard, &sources, pops_per_search);
    let (on_compressed, ..) = settle_loop(&compressed, &sources, pops_per_search);
    sheet.set(
        "graph.compressed_over_standard",
        ratio(secs(on_compressed), secs(on_standard)),
    );

    // Point-to-point: the shared-forward-search module AIS evaluates its
    // candidates with, and a from-scratch Dijkstra, to the users each
    // sampled query reported (those were certainly evaluated).
    let mut scratch = SearchScratch::with_capacity(graph.node_count());
    let mut calls = 0u64;
    let started = Instant::now();
    for (request, answer) in sample.iter().zip(answers) {
        let mut distances = GraphDistanceEngine::new(
            graph,
            engine.landmarks(),
            request.user(),
            SharingMode::Shared,
            &mut scratch,
        );
        for entry in &answer.ranked {
            black_box(distances.distance(entry.user));
            calls += 1;
        }
    }
    sheet.set(
        "graph.distance_call_us",
        ratio(started.elapsed().as_nanos() as f64 / 1e3, calls as f64),
    );
    let pairs: Vec<(NodeId, NodeId)> = sample
        .iter()
        .zip(answers)
        .filter_map(|(r, a)| a.ranked.last().map(|e| (r.user(), e.user)))
        .take(16)
        .collect();
    let (_, p2p) = timed(|| {
        for &(s, t) in &pairs {
            black_box(dijkstra_distance(graph, s, t));
        }
    });
    sheet.set(
        "graph.p2p_dijkstra_us",
        ratio(p2p.as_nanos() as f64 / 1e3, pairs.len() as f64),
    );
}

/// The spatial layer and the AIS index: searches around the workload's
/// query users, maintenance under the workload's moves.  Returns the cost
/// of one spatial heap pop in nanoseconds (for the attribution).
fn spatial_probes(
    sheet: &mut Sheet,
    engine: &GeoSocialEngine,
    grid: &mut UniformGrid,
    ais: &mut AisIndex,
    landmarks: &LandmarkSet,
    sample: &[&QueryRequest],
    moves: &[(UserId, Point)],
) -> f64 {
    let dataset = engine.dataset();
    let origins: Vec<Point> = sample
        .iter()
        .filter_map(|r| dataset.location(r.user()))
        .collect();
    let mut neighbours = 0u64;
    let mut pops = 0u64;
    let started = Instant::now();
    for &origin in &origins {
        let mut search = engine.grid().nearest_neighbors(origin);
        neighbours += search.by_ref().take(NN_NEIGHBOURS).count() as u64;
        pops += search.pops() as u64;
    }
    let nn_ns = started.elapsed().as_nanos() as f64;
    sheet.set(
        "spatial.nn_ns_per_neighbor",
        ratio(nn_ns, neighbours as f64),
    );

    let bounds = dataset.bounds();
    let (_, range) = timed(|| {
        for &origin in &origins {
            let half = Point::new(bounds.width() * 0.1, bounds.height() * 0.1);
            let window = Rect::new(
                Point::new(origin.x - half.x, origin.y - half.y),
                Point::new(origin.x + half.x, origin.y + half.y),
            );
            black_box(engine.grid().range_query(window));
        }
    });
    sheet.set(
        "spatial.range_query_us",
        ratio(range.as_nanos() as f64 / 1e3, origins.len() as f64),
    );

    let (_, grid_moves) = timed(|| {
        for &(user, to) in moves {
            grid.insert(user, to);
        }
    });
    sheet.set(
        "spatial.grid_update_ns",
        ratio(grid_moves.as_nanos() as f64, moves.len() as f64),
    );
    let (_, ais_moves) = timed(|| {
        for &(user, to) in moves {
            ais.update_location(user, to, landmarks)
                .expect("generated moves are valid");
        }
    });
    sheet.set(
        "ais.index_update_ns",
        ratio(ais_moves.as_nanos() as f64, moves.len() as f64),
    );
    ratio(nn_ns, pops as f64)
}

/// The planner and its hot-result cache (`Auto` workloads only).  The
/// cache counters come from the traced round; what exploration costs comes
/// from one replay of the warm-up and the window on a fresh engine with the
/// planner left **unpinned**.
fn planner_probes(sheet: &mut Sheet, input: &Input<'_>, queries: &[&QueryRequest]) {
    let traced = input.traced;
    let Some(snapshot) = &traced.planner else {
        return;
    };
    let lookups = snapshot.cache_hits + snapshot.cache_misses;
    sheet.set(
        "planner.cache_hit_share",
        ratio(snapshot.cache_hits as f64, lookups as f64),
    );
    sheet.set(
        "planner.invalidations_per_update",
        ratio(
            snapshot.cache_invalidations as f64,
            traced.update_ns.len() as f64,
        ),
    );

    let mut engine = workloads::build_engine(gen::dataset(input.spec));
    let mut ctx = engine.make_context();
    for request in &input.ops.warmup {
        black_box(engine.run_with(request, &mut ctx).ok());
    }
    let mut query_ns: Vec<f64> = Vec::with_capacity(queries.len());
    let started = Instant::now();
    for op in &input.ops.window {
        match op {
            Op::Query(request) => {
                let asked = Instant::now();
                black_box(engine.run_with(request, &mut ctx).ok());
                query_ns.push(asked.elapsed().as_nanos() as f64);
            }
            Op::Update(user, to) => engine
                .update_location(*user, *to)
                .expect("generated moves are valid"),
        }
    }
    sheet.set(
        "planner.unpinned_ops_per_s",
        ratio(input.ops.window.len() as f64, secs(started.elapsed())),
    );
    let unpinned = engine.planner().snapshot();
    let explored: u64 = unpinned
        .choices
        .iter()
        .filter(|(_, reason, _)| *reason == "explore")
        .map(|(_, _, n)| n)
        .sum();
    sheet.set(
        "planner.explore_share",
        ratio(explored as f64, unpinned.decisions() as f64),
    );
    let slow_from = 10.0 * quantile(&query_ns, 0.5);
    let slow: f64 = query_ns.iter().filter(|&&n| n > slow_from).sum();
    sheet.set(
        "planner.slow_probe_time_share",
        ratio(slow, query_ns.iter().sum()),
    );

    // A repeat of an identical request on a quiescent engine is a hit.
    let mut hits = Vec::new();
    for request in queries.iter().take(200) {
        if engine.run_with(request, &mut ctx).is_ok() {
            let asked = Instant::now();
            black_box(engine.run_with(request, &mut ctx).ok());
            hits.push(asked.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    sheet.set("planner.cache_hit_us", mean(&hits));

    let planner = QueryPlanner::new(PlannerConfig::default());
    let (_, choosing) = timed(|| {
        for request in queries {
            black_box(planner.choose(&engine, request));
        }
    });
    sheet.set(
        "planner.choose_ns",
        ratio(choosing.as_nanos() as f64, queries.len() as f64),
    );
}

/// The scatter/merge layer, on the in-process twin of the deployment.
/// Returns the twin's p50 query latency in milliseconds.
fn shard_probes(
    sheet: &mut Sheet,
    input: &Input<'_>,
    shards: usize,
    queries: &[&QueryRequest],
    single_relaxed: usize,
    single_p50_ms: f64,
) -> f64 {
    let traced = input.traced;
    let n = traced.query_ns.len() as f64;
    sheet.set("shard.executed_per_query", ratio(traced.executed as f64, n));
    sheet.set("shard.skipped_per_query", ratio(traced.skipped as f64, n));
    sheet.set(
        "shard.relaxed_amplification",
        ratio(traced.work.relaxed_edges as f64, single_relaxed as f64),
    );

    // The twin scatters the way the deployment does: a session's parallel
    // arms for the sharded workload, the sequential best-first loop (the
    // one the remote coordinator runs) for the remote one.
    let mut twin = workloads::build_sharded(gen::dataset(input.spec), shards);
    let sequential = matches!(input.spec.deployment, Deployment::Remote { .. });
    let mut session = twin.session();
    let twin_ns: Vec<u64> = queries
        .iter()
        .map(|request| {
            let started = Instant::now();
            if sequential {
                black_box(twin.run_with_stats_threads(request, 1).ok());
            } else {
                black_box(session.run(request).ok());
            }
            started.elapsed().as_nanos() as u64
        })
        .collect();
    drop(session);
    let twin_p50_ms = p50(&twin_ns) / 1e6;
    sheet.set("shard.overhead_ms", twin_p50_ms - single_p50_ms);

    // Merge cost on the per-shard lists a scatter would gather.
    let mut ctx = twin.make_context();
    let gathered: Vec<(Vec<RankedUser>, usize)> = queries
        .iter()
        .take(PROBE_REQUESTS)
        .map(|request| {
            let entries = (0..twin.shard_count())
                .filter_map(|s| twin.shard_engine(s).run_with(request, &mut ctx).ok())
                .flat_map(|result| result.ranked)
                .collect();
            (entries, request.k())
        })
        .collect();
    let lists = gathered.len();
    let (_, merging) = timed(|| {
        for (entries, k) in gathered {
            black_box(merge_ranked(entries, k));
        }
    });
    sheet.set(
        "shard.merge_us",
        ratio(merging.as_nanos() as f64 / 1e3, lists as f64),
    );

    let mut update_ns = Vec::with_capacity(input.ops.burst.len());
    let mut migrations = 0u64;
    for &(user, to) in &input.ops.burst {
        let before = twin.owner_of(user);
        let started = Instant::now();
        let moved = twin.update_location(user, to);
        update_ns.push(started.elapsed().as_nanos() as u64);
        if moved.is_ok() && twin.owner_of(user) != before {
            migrations += 1;
        }
    }
    sheet.set(
        "shard.migrations_per_update",
        ratio(migrations as f64, update_ns.len() as f64),
    );
    sheet.set("shard.update_us", p50(&update_ns) / 1e3);
    twin_p50_ms
}

/// The wire: codec, socket and server queue, on a live deployment.
fn net_probes(
    sheet: &mut Sheet,
    input: &Input<'_>,
    queries: &[&QueryRequest],
    answers: &[QueryResult],
    single_mean_ns: f64,
    twin_p50_ms: f64,
) {
    let traced = input.traced;
    // Untraced frames: a traced query's frames carry its trace id.
    let untraced = &input.quiet_rounds[0];
    let n = untraced.query_ns.len() as f64;
    let work = &untraced.work;
    sheet.set(
        "net.bytes_per_query",
        ratio((work.bytes_sent + work.bytes_received) as f64, n),
    );
    sheet.set(
        "net.round_trips_per_query",
        ratio(work.wire_round_trips as f64, n),
    );
    if let Some((wait_ns, waits, busy_ns)) = traced.server {
        sheet.set(
            "net.queue_wait_us",
            ratio(wait_ns as f64 / 1e3, waits as f64),
        );
        let Deployment::Remote { shards } = input.spec.deployment else {
            unreachable!("only the remote deployment has servers")
        };
        // Every server runs the library-default pool: one worker per CPU.
        let worker_seconds = traced.window_s * (shards * crate::host::nproc()) as f64;
        sheet.set(
            "net.worker_busy_share",
            ratio(busy_ns as f64 / 1e9, worker_seconds),
        );
    }
    sheet.set("net.update_us", p50(&traced.update_ns) / 1e3);

    let quiet_p50: Vec<f64> = input
        .quiet_rounds
        .iter()
        .map(|r| p50(&r.query_ns) / 1e6)
        .collect();
    sheet.set(
        "net.wire_overhead_ms",
        quiet_quartile(&quiet_p50, Better::Lower) - twin_p50_ms,
    );
    let quiet_mean_ns = mean(
        &input
            .quiet_rounds
            .iter()
            .map(|r| mean(&r.query_ns.iter().map(|&n| n as f64).collect::<Vec<_>>()))
            .collect::<Vec<_>>(),
    );
    sheet.set("net.engine_share", ratio(single_mean_ns, quiet_mean_ns));

    let messages: Vec<Message> = queries
        .iter()
        .take(1_000)
        .map(|r| Message::query((*r).clone()))
        .collect();
    let (_, encoding) = timed(|| {
        for message in &messages {
            black_box(message.encode());
        }
    });
    sheet.set(
        "net.encode_query_ns",
        ratio(encoding.as_nanos() as f64, messages.len() as f64),
    );
    let frames: Vec<Vec<u8>> = answers
        .iter()
        .take(1_000)
        .map(|a| Message::Answer(a.clone()).encode())
        .collect();
    let (_, decoding) = timed(|| {
        for frame in &frames {
            let header = wire::parse_header(frame).expect("own frames parse");
            black_box(Message::decode(header.tag, &frame[header.header_len()..]).ok());
        }
    });
    sheet.set(
        "net.decode_result_ns",
        ratio(decoding.as_nanos() as f64, frames.len() as f64),
    );

    // The smallest request/response pair over one connection to a live,
    // otherwise idle server.
    let (system, _) = workloads::set_up(input.spec, input.out_dir, &mut Recorder::new(false));
    if let System::Remote { cluster, .. } = &system {
        if let Ok(mut client) =
            ShardClient::connect(&cluster.endpoints()[0], Duration::from_secs(10))
        {
            let pings = 2_000;
            let (answered, pinging) = timed(|| {
                (0..pings)
                    .filter(|_| client.call(&Message::Ping).is_ok())
                    .count()
            });
            sheet.set(
                "net.empty_rtt_us",
                ratio(pinging.as_nanos() as f64 / 1e3, answered as f64),
            );
        }
    }
}

/// Cost of recording one counter increment plus one histogram sample.
fn obs_probe() -> f64 {
    let registry = Registry::new();
    let counter = registry.counter("bench_probe_total", &[]);
    let histogram = registry.histogram("bench_probe_ns", &[]);
    let ops = 1_000_000u64;
    let (_, recording) = timed(|| {
        for i in 0..ops {
            counter.inc();
            histogram.observe(black_box(i));
        }
    });
    black_box(counter.get());
    recording.as_nanos() as f64 / ops as f64
}

/// Measures every per-layer metric but the `host.*` ones.
pub fn per_layer(input: &Input<'_>) -> Vec<Metric> {
    let spec = input.spec;
    let traced = input.traced;
    let recorder = input.recorder;
    let mut sheet = Sheet::default();

    // Set-up, from the traced round's spans.
    let span_s = |name: &str| recorder.total_ns(name) as f64 / 1e9;
    sheet.set("data.generate_s", span_s("data.generate"));
    sheet.set(
        "shard.build_s",
        span_s("shard.build") + span_s("shard.assign"),
    );
    sheet.set(
        "net.launch_connect_s",
        span_s("net.launch") + span_s("net.connect"),
    );
    let setup = recorder.totals().get("setup").copied().unwrap_or_default();
    sheet.set(
        "setup.residual_share",
        ratio(setup.self_ns as f64, setup.total_ns as f64),
    );

    // The reference single engine over the workload's dataset, and the
    // engine's three indexes built on their own through the same public
    // constructors the engine builder calls.
    let (engine, engine_build) = timed(|| workloads::build_engine(gen::dataset(spec)));
    let built_in_setup = span_s("core.build");
    sheet.set(
        "core.engine_build_s",
        if built_in_setup > 0.0 {
            built_in_setup
        } else {
            secs(engine_build) - span_s("data.generate")
        },
    );
    let params = *engine.index_params();
    let dataset = engine.dataset();
    let (landmarks, landmarks_build) = timed(|| {
        LandmarkSet::build(
            dataset.graph(),
            params.num_landmarks,
            params.landmark_selection,
            params.landmark_seed,
        )
        .expect("landmarks build as they did for the engine")
    });
    sheet.set("graph.landmarks_build_s", secs(landmarks_build));
    let (mut grid, grid_build) = timed(|| {
        UniformGrid::bulk_load(
            engine.grid().bounds(),
            params.spa_grid_side(),
            dataset.located_users(),
        )
        .expect("grid loads as it did for the engine")
    });
    sheet.set("spatial.grid_bulk_load_s", secs(grid_build));
    let (mut ais, ais_build) = timed(|| {
        AisIndex::build(dataset, &landmarks, params.granularity, params.ais_levels)
            .expect("AIS index builds as it did for the engine")
    });
    sheet.set("ais.index_build_s", secs(ais_build));

    // The workload's own requests and moves.
    let queries: Vec<&QueryRequest> = input
        .ops
        .window
        .iter()
        .filter_map(|op| match op {
            Op::Query(request) => Some(request),
            Op::Update(..) => None,
        })
        .collect();
    let moves: Vec<(UserId, Point)> = input
        .ops
        .window
        .iter()
        .filter_map(|op| match op {
            Op::Update(user, to) => Some((*user, *to)),
            Op::Query(_) => None,
        })
        .chain(input.ops.burst.iter().copied())
        .collect();
    let n = traced.query_ns.len() as f64;
    let work = &traced.work;
    sheet.set(
        "core.social_pops_per_query",
        ratio(work.social_pops as f64, n),
    );
    sheet.set(
        "core.relaxed_edges_per_query",
        ratio(work.relaxed_edges as f64, n),
    );
    sheet.set(
        "core.vertex_pops_per_query",
        ratio(work.vertex_pops as f64, n),
    );
    sheet.set(
        "core.evaluated_users_per_query",
        ratio(work.evaluated_users as f64, n),
    );
    sheet.set(
        "core.distance_calls_per_query",
        ratio(work.distance_calls as f64, n),
    );
    sheet.set(
        "core.spatial_pops_per_query",
        ratio(work.spatial_pops as f64, n),
    );

    // The same queries on the single engine: the base every sharded and
    // remote number is compared with.  `Auto` requests are pinned to AIS
    // here so the reference run never wanders through planner probes.
    let pinned: Vec<QueryRequest> = queries
        .iter()
        .map(|r| match spec.algorithm {
            Algorithm::Auto => (*r).clone().with_algorithm(Algorithm::Ais),
            _ => (*r).clone(),
        })
        .collect();
    let pinned: Vec<&QueryRequest> = pinned.iter().collect();
    let (single_ns, single_work, answers) = run_single(&engine, &pinned);
    let single_mean_ns = mean(&single_ns.iter().map(|&n| n as f64).collect::<Vec<_>>());

    let sample: Vec<&QueryRequest> = pinned.iter().copied().take(PROBE_REQUESTS).collect();
    let searches = (traced.executed as f64).max(n);
    let pops_per_search = (work.social_pops as f64 / searches).round().max(1.0) as usize;
    graph_probes(&mut sheet, &engine, &sample, &answers, pops_per_search);
    let spatial_pop_ns = spatial_probes(
        &mut sheet, &engine, &mut grid, &mut ais, &landmarks, &sample, &moves,
    );

    // Attribution: what the bare loops explain of a query's wall time.
    let mean_query_ns = mean(
        &traced
            .query_ns
            .iter()
            .map(|&n| n as f64)
            .collect::<Vec<_>>(),
    );
    let graph_share = ratio(
        sheet.get("core.social_pops_per_query") * sheet.get("graph.settle_ns"),
        mean_query_ns,
    );
    let spatial_share = ratio(
        sheet.get("core.spatial_pops_per_query") * spatial_pop_ns,
        mean_query_ns,
    );
    sheet.set("core.graph_share", graph_share);
    sheet.set("core.residual_share", 1.0 - graph_share - spatial_share);

    if spec.algorithm == Algorithm::Auto {
        planner_probes(&mut sheet, input, &queries);
    }
    match spec.deployment {
        Deployment::Single => {}
        Deployment::Sharded { shards } | Deployment::Remote { shards } => {
            let twin_p50_ms = shard_probes(
                &mut sheet,
                input,
                shards,
                &pinned,
                single_work.relaxed_edges,
                p50(&single_ns) / 1e6,
            );
            if matches!(spec.deployment, Deployment::Remote { .. }) {
                net_probes(
                    &mut sheet,
                    input,
                    &pinned,
                    &answers,
                    single_mean_ns,
                    twin_p50_ms,
                );
            }
        }
    }

    // Last, because it moves the reference engine's users.
    let mut engine = engine;
    let (_, updating) = timed(|| {
        for &(user, to) in &moves {
            engine
                .update_location(user, to)
                .expect("generated moves are valid");
        }
    });
    sheet.set(
        "core.update_location_us",
        ratio(updating.as_nanos() as f64 / 1e3, moves.len() as f64),
    );

    sheet.set("obs.metric_op_ns", obs_probe());
    let quiet_qps: Vec<f64> = input
        .quiet_rounds
        .iter()
        .map(|r| r.qps(spec.window_ops))
        .collect();
    sheet.set(
        "obs.trace_overhead_share",
        1.0 - ratio(
            traced.qps(spec.window_ops),
            quiet_quartile(&quiet_qps, Better::Higher),
        ),
    );

    PER_LAYER
        .iter()
        .filter(|(name, _)| !name.starts_with("host."))
        .map(|&(name, unit)| Metric {
            name,
            value: sheet.get(name),
            unit,
        })
        .collect()
}
