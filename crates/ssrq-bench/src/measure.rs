//! Workload execution and measurement aggregation.

use ssrq_core::{Algorithm, GeoSocialEngine, QueryRequest, UserId};
use std::time::{Duration, Instant};

/// Aggregated measurements of one algorithm over one workload — the
/// quantities the paper plots: average run-time per query and the pop ratio
/// `|V_pop| / |V|`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregateMeasurement {
    /// Number of queries executed.
    pub queries: usize,
    /// Average wall-clock time per query.
    pub avg_runtime: Duration,
    /// Average pop ratio (settled graph vertices / graph size).
    pub pop_ratio: f64,
    /// Average number of users whose exact score was computed.
    pub avg_evaluated: f64,
    /// Average number of exact graph-distance computations.
    pub avg_distance_calls: f64,
}

impl AggregateMeasurement {
    /// Average run-time in milliseconds (the unit of the paper's plots).
    pub fn avg_millis(&self) -> f64 {
        self.avg_runtime.as_secs_f64() * 1e3
    }
}

/// Runs `algorithm` for every `(user, k, alpha)` combination of the given
/// users and parameters, returning the aggregate measurement.
pub fn measure_algorithm(
    engine: &GeoSocialEngine,
    algorithm: Algorithm,
    users: &[UserId],
    k: usize,
    alpha: f64,
) -> AggregateMeasurement {
    let mut total_runtime = Duration::ZERO;
    let mut total_pops = 0usize;
    let mut total_evaluated = 0usize;
    let mut total_distance_calls = 0usize;
    let graph_size = engine.dataset().user_count().max(1);
    let mut executed = 0usize;

    // One reused context for the whole workload: measurements reflect the
    // per-query work of the algorithm, not repeated scratch allocation.
    let mut ctx = engine.make_context();
    for request in requests_for(users, k, alpha, algorithm) {
        let result = match engine.run_with(&request, &mut ctx) {
            Ok(result) => result,
            Err(_) => continue,
        };
        executed += 1;
        total_runtime += result.stats.runtime;
        total_pops += result.stats.social_pops;
        total_evaluated += result.stats.evaluated_users;
        total_distance_calls += result.stats.distance_calls;
    }
    let executed_f = executed.max(1) as f64;
    AggregateMeasurement {
        queries: executed,
        avg_runtime: total_runtime / executed.max(1) as u32,
        pop_ratio: total_pops as f64 / executed_f / graph_size as f64,
        avg_evaluated: total_evaluated as f64 / executed_f,
        avg_distance_calls: total_distance_calls as f64 / executed_f,
    }
}

/// Queries/second of one-thread execution with a reused context, returned
/// with the number of successful queries.
pub fn measure_sequential_qps(
    engine: &GeoSocialEngine,
    algorithm: Algorithm,
    users: &[UserId],
    k: usize,
    alpha: f64,
) -> (usize, f64) {
    let batch = requests_for(users, k, alpha, algorithm);
    // Context construction stays inside the clock: the figure covers a
    // cold start for the workload.
    let start = Instant::now();
    let mut ctx = engine.make_context();
    let mut executed = 0usize;
    for request in &batch {
        if engine.run_with(request, &mut ctx).is_ok() {
            executed += 1;
        }
    }
    let secs = start.elapsed().as_secs_f64();
    (executed, executed as f64 / secs.max(1e-9))
}

/// One request per user, all with the same `k`, `alpha` and `algorithm`.
pub(crate) fn requests_for(
    users: &[UserId],
    k: usize,
    alpha: f64,
    algorithm: Algorithm,
) -> Vec<QueryRequest> {
    users
        .iter()
        .map(|&user| {
            QueryRequest::for_user(user)
                .k(k)
                .alpha(alpha)
                .algorithm(algorithm)
                .build()
                .expect("measurement parameters are valid")
        })
        .collect()
}

/// Aggregated first-result (prefix) latency of one algorithm over one
/// workload: how quickly — and after how much search work — a pull-lazy
/// stream ([`QuerySession::stream`](ssrq_core::QuerySession::stream))
/// delivers its first `prefix` entries, compared against the eager full
/// run of the identical queries.
///
/// This is the figure the resumable-driver refactor is measured by: for the
/// incremental-threshold algorithms the prefix numbers should sit well
/// below the full-run numbers, because `stream(..).take(j)` stops stepping
/// the search as soon as the `j`-th entry finalizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyMeasurement {
    /// Number of queries measured (queries with fewer than `prefix`
    /// results still count — their stream simply ran to exhaustion).
    pub queries: usize,
    /// The prefix length `j` the stream was pulled for.
    pub prefix: usize,
    /// Average wall-clock time of the eager full run.
    pub avg_full: Duration,
    /// Average wall-clock time until the stream yielded `prefix` entries.
    pub avg_prefix: Duration,
    /// Average edge relaxations of the eager full run.
    pub full_relaxed: f64,
    /// Average edge relaxations performed when the `prefix`-th entry had
    /// been yielded.
    pub prefix_relaxed: f64,
}

/// Measures time-to-first-result: [`measure_prefix`] with `prefix = 1`.
pub fn measure_first_result(
    engine: &GeoSocialEngine,
    algorithm: Algorithm,
    users: &[UserId],
    k: usize,
    alpha: f64,
) -> LatencyMeasurement {
    measure_prefix(engine, algorithm, users, k, alpha, 1)
}

/// Runs every `(user, k, alpha)` query twice — once eagerly, once as a
/// stream pulled for only `prefix` entries — and aggregates runtime and
/// edge-relaxation counts of both modes.
///
/// Both modes reuse one context; failed queries are skipped (like
/// [`measure_algorithm`]).
pub fn measure_prefix(
    engine: &GeoSocialEngine,
    algorithm: Algorithm,
    users: &[UserId],
    k: usize,
    alpha: f64,
    prefix: usize,
) -> LatencyMeasurement {
    let mut executed = 0usize;
    let mut total_full = Duration::ZERO;
    let mut total_prefix = Duration::ZERO;
    let mut total_full_relaxed = 0usize;
    let mut total_prefix_relaxed = 0usize;
    let mut ctx = engine.make_context();
    for request in requests_for(users, k, alpha, algorithm) {
        let full = match engine.run_with(&request, &mut ctx) {
            Ok(result) => result,
            Err(_) => continue,
        };
        let start = Instant::now();
        let Ok(mut stream) = engine.stream_with(&request, &mut ctx) else {
            continue;
        };
        let mut pulled = 0usize;
        while pulled < prefix && stream.next().is_some() {
            pulled += 1;
        }
        let prefix_elapsed = start.elapsed();
        executed += 1;
        total_full += full.stats.runtime;
        total_prefix += prefix_elapsed;
        total_full_relaxed += full.stats.relaxed_edges;
        total_prefix_relaxed += stream.stats().relaxed_edges;
    }
    let executed_f = executed.max(1) as f64;
    LatencyMeasurement {
        queries: executed,
        prefix,
        avg_full: total_full / executed.max(1) as u32,
        avg_prefix: total_prefix / executed.max(1) as u32,
        full_relaxed: total_full_relaxed as f64 / executed_f,
        prefix_relaxed: total_prefix_relaxed as f64 / executed_f,
    }
}

/// Number of hops (edges on the weighted shortest path) between the query
/// user and the farthest member of the SSRQ result — the quantity of
/// Figure 7(a).  Returns `None` when the result is empty or a result user is
/// unreachable.
pub fn max_result_hops(
    engine: &GeoSocialEngine,
    request: &QueryRequest,
    ctx: &mut ssrq_core::QueryContext,
) -> Option<usize> {
    let result = engine.run_with(request, ctx).ok()?;
    if result.ranked.is_empty() {
        return None;
    }
    let graph = engine.dataset().graph();
    let mut search =
        ssrq_graph::IncrementalDijkstra::new(graph, request.user(), ctx.social_scratch());
    let mut max_hops = 0usize;
    for entry in &result.ranked {
        search.run_until_settled(graph, entry.user);
        let hops = search.path_to(entry.user)?.len().saturating_sub(1);
        max_hops = max_hops.max(hops);
    }
    Some(max_hops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssrq_data::{DatasetConfig, QueryWorkload};

    fn engine_for(users: usize) -> GeoSocialEngine {
        let dataset = DatasetConfig::gowalla_like(users).generate();
        GeoSocialEngine::builder(dataset).build().unwrap()
    }

    #[test]
    fn measurement_aggregates_over_the_workload() {
        let engine = engine_for(600);
        let workload = QueryWorkload::generate(engine.dataset(), 5, 1);
        let m = measure_algorithm(&engine, Algorithm::Ais, &workload.users, 10, 0.3);
        assert_eq!(m.queries, 5);
        assert!(m.avg_runtime > Duration::ZERO);
        assert!(m.pop_ratio >= 0.0 && m.pop_ratio <= 2.0);
        assert!(m.avg_millis() > 0.0);
        assert!(m.avg_evaluated >= 1.0);
    }

    #[test]
    fn max_result_hops_reports_a_positive_hop_count() {
        let engine = engine_for(400);
        let user = QueryWorkload::generate(engine.dataset(), 1, 2).users[0];
        let mut ctx = engine.make_context();
        let request = QueryRequest::for_user(user)
            .k(10)
            .alpha(0.3)
            .algorithm(Algorithm::Ais)
            .build()
            .unwrap();
        let hops = max_result_hops(&engine, &request, &mut ctx);
        assert!(hops.unwrap_or(0) >= 1);
    }

    #[test]
    fn prefix_measurement_shows_early_exit_doing_less_work() {
        let engine = engine_for(500);
        let workload = QueryWorkload::generate(engine.dataset(), 6, 9);
        let m = measure_first_result(&engine, Algorithm::Ais, &workload.users, 10, 0.3);
        assert_eq!(m.queries, 6);
        assert_eq!(m.prefix, 1);
        assert!(m.avg_full > Duration::ZERO);
        assert!(m.full_relaxed > 0.0);
        // A first-result stream never does more search work than the full
        // run, and on a typical workload it does strictly less.
        assert!(
            m.prefix_relaxed < m.full_relaxed,
            "prefix relaxed {} of {}",
            m.prefix_relaxed,
            m.full_relaxed
        );
    }

    #[test]
    fn failed_queries_are_skipped() {
        let engine = engine_for(300);
        // SfaCh requires a CH index that was never built: every query fails.
        let m = measure_algorithm(&engine, Algorithm::SfaCh, &[0, 1, 2], 5, 0.5);
        assert_eq!(m.queries, 0);
    }
}
