//! Scatter-gather observability hooks.
//!
//! Every scatter the [`Coordinator`](crate::Coordinator) runs records its
//! phase timings and per-shard outcomes into a [`ssrq_obs::Registry`] —
//! in process and over sockets alike, so a deployment's dashboards read
//! identically whichever serving tier answered.

use crate::stats::ShardStats;
use ssrq_obs::Registry;
use std::time::Duration;

/// Records one completed scatter into `registry`:
///
/// | metric | type | what |
/// |---|---|---|
/// | `ssrq_shard_scatter_ns` | histogram | scatter phase (visit + wait on all shards) |
/// | `ssrq_shard_merge_ns` | histogram | deterministic cross-shard merge |
/// | `ssrq_shard_outcomes_total{outcome}` | counter | per-shard `executed` / `skipped` / `failed` tallies |
pub fn record_scatter(registry: &Registry, stats: &ShardStats, scatter: Duration, merge: Duration) {
    registry
        .histogram("ssrq_shard_scatter_ns", &[])
        .observe_duration(scatter);
    registry
        .histogram("ssrq_shard_merge_ns", &[])
        .observe_duration(merge);
    let outcomes = registry.counter("ssrq_shard_outcomes_total", &[("outcome", "executed")]);
    outcomes.add(stats.executed_shards() as u64);
    registry
        .counter("ssrq_shard_outcomes_total", &[("outcome", "skipped")])
        .add(stats.skipped_shards() as u64);
    registry
        .counter("ssrq_shard_outcomes_total", &[("outcome", "failed")])
        .add(stats.failed_shards() as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ShardOutcome;
    use ssrq_core::QueryStats;

    #[test]
    fn outcomes_and_phases_land_in_the_registry() {
        let registry = Registry::new();
        let stats = ShardStats::new(
            vec![
                ShardOutcome::Executed(QueryStats::default()),
                ShardOutcome::Executed(QueryStats::default()),
                ShardOutcome::Skipped { lower_bound: 0.9 },
            ],
            Duration::from_micros(30),
        );
        record_scatter(
            &registry,
            &stats,
            Duration::from_micros(25),
            Duration::from_micros(5),
        );
        let text = registry.render();
        assert!(text.contains("ssrq_shard_outcomes_total{outcome=\"executed\"} 2"));
        assert!(text.contains("ssrq_shard_outcomes_total{outcome=\"skipped\"} 1"));
        assert!(text.contains("ssrq_shard_outcomes_total{outcome=\"failed\"} 0"));
        assert!(text.contains("ssrq_shard_scatter_ns_sum 25000"));
        assert!(text.contains("ssrq_shard_merge_ns_sum 5000"));
    }
}
