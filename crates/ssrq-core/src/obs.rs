//! Engine-level observability hooks.
//!
//! Every eagerly-driven query (the [`GeoSocialEngine::run_with`]
//! chokepoint) records its latency and work counters into the
//! process-wide [`Registry::global`], labelled by algorithm.  Streaming
//! callers that bypass `run_with` (e.g. a shard server draining
//! `stream_with`) call [`record_query_metrics`] themselves once the
//! stream completes.  Each hook takes the registry it records into, so
//! tests can pass a private one.
//!
//! [`GeoSocialEngine::run_with`]: crate::GeoSocialEngine::run_with

use crate::QueryStats;
use ssrq_obs::Registry;

/// Records one completed query into `registry` under `algorithm`:
///
/// | metric | type | what |
/// |---|---|---|
/// | `ssrq_engine_queries_total{algorithm}` | counter | completed queries |
/// | `ssrq_engine_query_ns{algorithm}` | histogram | end-to-end latency (`stats.runtime`) |
/// | `ssrq_engine_steps{algorithm}` | histogram | heap pops per query (the paper's `\|V_pop\|`) |
/// | `ssrq_engine_relaxed_edges{algorithm}` | histogram | edge relaxations per query |
pub fn record_query_metrics(registry: &Registry, algorithm: &str, stats: &QueryStats) {
    let labels = &[("algorithm", algorithm)];
    registry.counter("ssrq_engine_queries_total", labels).inc();
    registry
        .histogram("ssrq_engine_query_ns", labels)
        .observe_duration(stats.runtime);
    registry
        .histogram("ssrq_engine_steps", labels)
        .observe(stats.vertex_pops as u64);
    registry
        .histogram("ssrq_engine_relaxed_edges", labels)
        .observe(stats.relaxed_edges as u64);
}

/// Records one planner decision into `registry`:
/// `ssrq_planner_choices_total{algorithm,reason}` counts which concrete
/// algorithm [`Algorithm::Auto`](crate::Algorithm::Auto) delegated to and
/// why (`pinned` / `rule`).
pub fn record_planner_choice(registry: &Registry, algorithm: &str, reason: &str) {
    registry
        .counter(
            "ssrq_planner_choices_total",
            &[("algorithm", algorithm), ("reason", reason)],
        )
        .inc();
}

/// Records hot-result cache activity into `registry` as one of
/// `ssrq_cache_hits_total`, `ssrq_cache_misses_total` or
/// `ssrq_cache_invalidations_total` (`event` ∈ `hit` / `miss` /
/// `invalidation`; `n` supports bulk invalidations).
pub fn record_cache_event(registry: &Registry, event: &str, n: u64) {
    let name = match event {
        "hit" => "ssrq_cache_hits_total",
        "miss" => "ssrq_cache_misses_total",
        "invalidation" => "ssrq_cache_invalidations_total",
        other => panic!("unknown cache event {other:?}"),
    };
    registry.counter(name, &[]).add(n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn one_query_lands_in_every_engine_series() {
        let registry = Registry::new();
        let stats = QueryStats {
            vertex_pops: 12,
            relaxed_edges: 34,
            runtime: Duration::from_micros(5),
            ..QueryStats::default()
        };
        record_query_metrics(&registry, "ais", &stats);
        record_query_metrics(&registry, "ais", &stats);
        record_query_metrics(&registry, "sfa", &stats);
        let text = registry.render();
        assert!(text.contains("ssrq_engine_queries_total{algorithm=\"ais\"} 2"));
        assert!(text.contains("ssrq_engine_queries_total{algorithm=\"sfa\"} 1"));
        assert!(text.contains("ssrq_engine_query_ns_count{algorithm=\"ais\"} 2"));
        assert!(text.contains("ssrq_engine_steps_sum{algorithm=\"ais\"} 24"));
        assert!(text.contains("ssrq_engine_relaxed_edges_sum{algorithm=\"sfa\"} 34"));
    }

    #[test]
    fn planner_choices_land_labelled_by_algorithm_and_reason() {
        let registry = Registry::new();
        record_planner_choice(&registry, "AIS", "pinned");
        record_planner_choice(&registry, "AIS", "rule");
        record_planner_choice(&registry, "AIS", "rule");
        record_planner_choice(&registry, "SFA", "rule");
        let text = registry.render();
        assert!(text.contains("ssrq_planner_choices_total{algorithm=\"AIS\",reason=\"rule\"} 2"));
        assert!(text.contains("ssrq_planner_choices_total{algorithm=\"AIS\",reason=\"pinned\"} 1"));
        assert!(text.contains("ssrq_planner_choices_total{algorithm=\"SFA\",reason=\"rule\"} 1"));
    }

    #[test]
    fn cache_events_map_to_their_own_counters() {
        let registry = Registry::new();
        record_cache_event(&registry, "hit", 1);
        record_cache_event(&registry, "hit", 1);
        record_cache_event(&registry, "miss", 1);
        record_cache_event(&registry, "invalidation", 5);
        let text = registry.render();
        assert!(text.contains("ssrq_cache_hits_total 2"));
        assert!(text.contains("ssrq_cache_misses_total 1"));
        assert!(text.contains("ssrq_cache_invalidations_total 5"));
    }

    #[test]
    #[should_panic(expected = "unknown cache event")]
    fn unknown_cache_events_are_rejected() {
        record_cache_event(&Registry::new(), "evict", 1);
    }
}
