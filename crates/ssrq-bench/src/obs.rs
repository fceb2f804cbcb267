//! End-to-end observability measurement behind `experiments -- obs`
//! (persisted to `BENCH_obs.json`): traced queries over a real
//! multi-process deployment, trace-id propagation checked against every
//! shard server's remotely-snapshotted span log, metric registries
//! validated for internal consistency, and the instrumentation overhead
//! bounded deterministically.
//!
//! The overhead check is deliberately *not* an A/B throughput comparison
//! (those are noise-bound in CI): instead the cost of one metric
//! operation is calibrated on this machine, multiplied by a generous
//! upper bound on operations per query, and compared against the measured
//! mean query latency.  The acceptance bar is the issue's: instrumenting
//! the sequential RPC path must cost under 2% of a query.

use crate::json::Json;
use ssrq_core::QueryRequest;
use ssrq_net::{NetError, RemoteShardedEngine};
use ssrq_obs::{MetricValue, ObsReport, Registry};
use std::time::{Duration, Instant};

/// Observations per calibration loop: enough that per-call jitter
/// averages out, cheap enough to run in every CI smoke.
const CALIBRATION_OPS: u64 = 1_000_000;

/// Every histogram sample in `report`, checked for internal consistency
/// (bucket counts summing to the total, non-zero sums for non-zero
/// observations).
fn histograms_consistent(report: &ObsReport) -> bool {
    report.metrics.iter().all(|sample| match &sample.value {
        MetricValue::Histogram(snapshot) => snapshot.is_consistent(),
        _ => true,
    })
}

/// One observability run over a live deployment: trace propagation,
/// registry consistency, slow-query capture and instrumentation cost.
#[derive(Debug, Clone)]
pub struct ObsMeasurement {
    /// Shards of the deployment.
    pub shards: usize,
    /// Traced queries driven.
    pub queries: usize,
    /// Queries whose trace id was found, bit-identical, in **every**
    /// shard's remotely-snapshotted span log.
    pub trace_coverage: usize,
    /// `ssrq_coordinator_queries_total` after the run.
    pub coordinator_queries: u64,
    /// `ssrq_server_queries_total{shard=s}` per shard, from the remote
    /// snapshots.
    pub server_queries: Vec<u64>,
    /// Every histogram in every snapshot (coordinator and shards) was
    /// internally consistent.
    pub histograms_consistent: bool,
    /// Mean traced-query wall time (from the coordinator span trees).
    pub mean_query_latency: Duration,
    /// Offenders retained by the coordinator's slow-query log.
    pub slow_queries: usize,
    /// Calibrated cost of one histogram observation on this machine.
    pub metrics_ns_per_op: f64,
    /// Generous upper bound on metric operations per sequential query.
    pub instrument_ops_per_query: u64,
    /// `metrics_ns_per_op * instrument_ops_per_query / mean query ns` —
    /// the deterministic stand-in for the "< 2% qps regression" bar.
    pub overhead_fraction: f64,
    /// One rendered coordinator span tree (the last query's).
    pub sample_trace: String,
}

/// Drives every request through [`RemoteShardedEngine::query_traced`],
/// then snapshots the coordinator and every shard server and
/// cross-checks: each trace id present in each shard's span log, query
/// counters covering the workload, histograms consistent, and the
/// calibrated instrumentation cost under the mean query latency.
///
/// Requests should pin an origin and use a large `k` so the threshold
/// skips no shard — a skipped shard never sees the trace id, which would
/// read as a propagation failure.
///
/// # Errors
///
/// The first failing traced query or metrics snapshot.
///
/// # Panics
///
/// With more requests than the servers' span-log capacity (256), where
/// early trace ids would be legitimately evicted.
pub fn measure_obs(
    remote: &RemoteShardedEngine,
    requests: &[QueryRequest],
) -> Result<ObsMeasurement, NetError> {
    assert!(!requests.is_empty(), "nothing to measure");
    assert!(
        requests.len() <= 256,
        "more queries than the span-log capacity would evict early trace ids"
    );
    let shards = remote.shard_count();
    let mut trace_ids = Vec::with_capacity(requests.len());
    let mut total_ns = 0u64;
    let mut sample_trace = String::new();
    for request in requests {
        let (_result, _stats, spans) = remote.query_traced(request)?;
        total_ns += spans.total_ns();
        sample_trace = spans.render();
        trace_ids.push(spans.trace_id);
    }

    let shard_reports: Vec<ObsReport> = (0..shards)
        .map(|s| remote.remote_metrics(s))
        .collect::<Result<_, _>>()?;
    let trace_coverage = trace_ids
        .iter()
        .filter(|&&id| shard_reports.iter().all(|r| r.has_trace(id)))
        .count();

    let coordinator = remote.coordinator_report();
    let coordinator_queries = coordinator
        .counter("ssrq_coordinator_queries_total", &[])
        .unwrap_or(0);
    let server_queries: Vec<u64> = shard_reports
        .iter()
        .enumerate()
        .map(|(s, report)| {
            let shard = s.to_string();
            report
                .counter("ssrq_server_queries_total", &[("shard", &shard)])
                .unwrap_or(0)
        })
        .collect();
    let consistent =
        histograms_consistent(&coordinator) && shard_reports.iter().all(histograms_consistent);

    let mean_query_latency = Duration::from_nanos(total_ns / requests.len() as u64);
    let metrics_ns_per_op = calibrate_metric_op();
    // A generous bound: the coordinator's counters/histograms plus, per
    // shard, the server's busy/query/outcome series and the engine's
    // per-algorithm histograms — the real paths record far fewer.
    let instrument_ops_per_query = 32 + 32 * shards as u64;
    let overhead_fraction = metrics_ns_per_op * instrument_ops_per_query as f64
        / (mean_query_latency.as_nanos() as f64).max(1.0);

    Ok(ObsMeasurement {
        shards,
        queries: requests.len(),
        trace_coverage,
        coordinator_queries,
        server_queries,
        histograms_consistent: consistent,
        mean_query_latency,
        slow_queries: remote.slow_queries().len(),
        metrics_ns_per_op,
        instrument_ops_per_query,
        overhead_fraction,
        sample_trace,
    })
}

/// Calibrates one histogram observation (the most expensive metric op on
/// the query path) on a private registry: nanoseconds per
/// `Histogram::observe`.
pub fn calibrate_metric_op() -> f64 {
    let registry = Registry::default();
    let histogram = registry.histogram("calibration_ns", &[]);
    let started = Instant::now();
    for i in 0..CALIBRATION_OPS {
        // Vary the value so every bit-length bucket path is exercised.
        histogram.observe(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }
    let elapsed = started.elapsed();
    assert_eq!(histogram.count(), CALIBRATION_OPS);
    elapsed.as_nanos() as f64 / CALIBRATION_OPS as f64
}

impl ObsMeasurement {
    /// The artifact body persisted as `BENCH_obs.json`.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("experiment".into(), Json::str("obs")),
            ("shards".into(), Json::num(self.shards)),
            ("queries".into(), Json::num(self.queries)),
            ("trace_coverage".into(), Json::num(self.trace_coverage)),
            (
                "coordinator_queries".into(),
                Json::Num(self.coordinator_queries as f64),
            ),
            (
                "server_queries".into(),
                Json::Arr(
                    self.server_queries
                        .iter()
                        .map(|&n| Json::Num(n as f64))
                        .collect(),
                ),
            ),
            (
                "histograms_consistent".into(),
                Json::Bool(self.histograms_consistent),
            ),
            (
                "mean_query_us".into(),
                Json::Num(self.mean_query_latency.as_secs_f64() * 1e6),
            ),
            ("slow_queries".into(), Json::num(self.slow_queries)),
            (
                "metrics_ns_per_op".into(),
                Json::Num(self.metrics_ns_per_op),
            ),
            (
                "instrument_ops_per_query".into(),
                Json::Num(self.instrument_ops_per_query as f64),
            ),
            (
                "overhead_fraction".into(),
                Json::Num(self.overhead_fraction),
            ),
            ("sample_trace".into(), Json::str(self.sample_trace.clone())),
        ])
    }
}

/// Validates a re-parsed `BENCH_obs.json`: non-zero query counts on every
/// layer, full trace coverage, consistent histograms, a captured slow
/// query, and instrumentation overhead under the 2% bar.
///
/// # Errors
///
/// A description of the first violated invariant.
pub fn validate_obs_report(report: &Json) -> Result<(), String> {
    let queries = report
        .get("queries")
        .and_then(Json::as_usize)
        .ok_or("report lacks a numeric `queries`")?;
    if queries == 0 {
        return Err("report measured zero queries".into());
    }
    let shards = report
        .get("shards")
        .and_then(Json::as_usize)
        .ok_or("report lacks a numeric `shards`")?;
    if shards == 0 {
        return Err("report claims zero shards".into());
    }
    let coverage = report
        .get("trace_coverage")
        .and_then(Json::as_usize)
        .ok_or("report lacks `trace_coverage`")?;
    if coverage != queries {
        return Err(format!(
            "only {coverage} of {queries} trace ids reached every shard's span log"
        ));
    }
    let coordinator = report
        .get("coordinator_queries")
        .and_then(Json::as_usize)
        .ok_or("report lacks `coordinator_queries`")?;
    if coordinator < queries {
        return Err(format!(
            "the coordinator counted {coordinator} queries for a {queries}-query workload"
        ));
    }
    let servers = report
        .get("server_queries")
        .and_then(Json::as_array)
        .ok_or("report lacks a `server_queries` array")?;
    if servers.len() != shards {
        return Err(format!(
            "{} per-shard counts for {shards} shards",
            servers.len()
        ));
    }
    for (shard, count) in servers.iter().enumerate() {
        let count = count
            .as_usize()
            .ok_or(format!("shard {shard} count is not a number"))?;
        if count == 0 {
            return Err(format!("shard {shard} served zero queries"));
        }
    }
    if report.get("histograms_consistent") != Some(&Json::Bool(true)) {
        return Err("a histogram snapshot was internally inconsistent".into());
    }
    let mean_us = report
        .get("mean_query_us")
        .and_then(Json::as_f64)
        .ok_or("report lacks `mean_query_us`")?;
    if !mean_us.is_finite() || mean_us <= 0.0 {
        return Err("mean query latency must be positive".into());
    }
    let slow = report
        .get("slow_queries")
        .and_then(Json::as_usize)
        .ok_or("report lacks `slow_queries`")?;
    if slow == 0 {
        return Err("the zero-threshold slow-query log captured nothing".into());
    }
    let overhead = report
        .get("overhead_fraction")
        .and_then(Json::as_f64)
        .ok_or("report lacks `overhead_fraction`")?;
    if !overhead.is_finite() || overhead < 0.0 {
        return Err("overhead fraction must be a non-negative number".into());
    }
    if overhead >= 0.02 {
        return Err(format!(
            "instrumentation overhead bound {:.3}% breaches the 2% bar",
            overhead * 100.0
        ));
    }
    let sample = report
        .get("sample_trace")
        .and_then(Json::as_str)
        .ok_or("report lacks a `sample_trace`")?;
    if !sample.contains("coordinator_query") {
        return Err("the sample trace lacks the coordinator root span".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> Json {
        let measurement = ObsMeasurement {
            shards: 2,
            queries: 8,
            trace_coverage: 8,
            coordinator_queries: 8,
            server_queries: vec![8, 8],
            histograms_consistent: true,
            mean_query_latency: Duration::from_micros(900),
            slow_queries: 8,
            metrics_ns_per_op: 20.0,
            instrument_ops_per_query: 96,
            overhead_fraction: 20.0 * 96.0 / 900_000.0,
            sample_trace: "trace 0x...\n  coordinator_query 0us..900us\n".into(),
        };
        measurement.to_json()
    }

    #[test]
    fn a_measurement_renders_to_a_validating_report() {
        let reparsed = Json::parse(&sample_report().render()).expect("report re-parses");
        validate_obs_report(&reparsed).expect("report validates");
    }

    #[test]
    fn validation_rejects_broken_reports() {
        fn patch(report: &mut Json, key: &str, value: Json) {
            let Json::Obj(members) = report else {
                panic!("report is an object")
            };
            for (k, v) in members.iter_mut() {
                if k == key {
                    *v = value.clone();
                }
            }
        }

        assert!(validate_obs_report(&Json::Obj(vec![])).is_err());

        // A trace id that never reached some shard's span log.
        let mut partial = sample_report();
        patch(&mut partial, "trace_coverage", Json::num(7));
        let error = validate_obs_report(&partial).unwrap_err();
        assert!(error.contains("trace ids"), "unexpected error: {error}");

        // A shard that served nothing saw no queries at all.
        let mut idle = sample_report();
        patch(
            &mut idle,
            "server_queries",
            Json::Arr(vec![Json::num(8), Json::num(0)]),
        );
        let error = validate_obs_report(&idle).unwrap_err();
        assert!(error.contains("zero queries"), "unexpected error: {error}");

        // An inconsistent histogram means the registry miscounted.
        let mut torn = sample_report();
        patch(&mut torn, "histograms_consistent", Json::Bool(false));
        assert!(validate_obs_report(&torn).is_err());

        // Instrumentation at or above the 2% bar fails the acceptance
        // criterion.
        let mut heavy = sample_report();
        patch(&mut heavy, "overhead_fraction", Json::Num(0.02));
        let error = validate_obs_report(&heavy).unwrap_err();
        assert!(error.contains("2%"), "unexpected error: {error}");
    }

    #[test]
    fn the_calibrated_metric_op_is_cheap() {
        let ns = calibrate_metric_op();
        assert!(ns.is_finite() && ns > 0.0);
        // An atomic add plus a bit-length bucket index: if one observation
        // costs a microsecond, something is deeply wrong.
        assert!(ns < 1_000.0, "one metric op costs {ns}ns");
    }
}
