//! Sharded scatter-gather measurement: batch throughput and the
//! coordinator's pruning effectiveness, per shard count and partitioning
//! policy — the trajectory figure of the horizontal serving layer.

use ssrq_core::{Algorithm, GeoSocialDataset, QueryRequest, UserId};
use ssrq_shard::{Partitioning, ShardedEngine};
use std::time::{Duration, Instant};

/// Aggregated measurements of one sharded configuration over one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardingMeasurement {
    /// Shards in the configuration.
    pub shards: usize,
    /// Queries executed.
    pub queries: usize,
    /// Time to partition the dataset and build every shard engine.
    pub build_time: Duration,
    /// Queries per second through
    /// [`ShardedEngine::run_batch_with_threads`] (queries are the unit of
    /// parallelism; each visits its shards sequentially best-first).
    pub batch_qps: f64,
    /// Average shards skipped per query by the threshold / bounding-rect
    /// pruning (sequential best-first scatter).
    pub avg_skipped_shards: f64,
    /// Average shards that actually ran their search per query.
    pub avg_executed_shards: f64,
}

impl ShardingMeasurement {
    /// Fraction of shard visits the coordinator proved unnecessary.
    pub fn skip_ratio(&self) -> f64 {
        let total = self.avg_skipped_shards + self.avg_executed_shards;
        if total > 0.0 {
            self.avg_skipped_shards / total
        } else {
            0.0
        }
    }
}

/// Builds a [`ShardedEngine`] over (a clone of) `dataset` and measures it
/// on the workload `(users, k, alpha)` with [`Algorithm::Ais`]: batch
/// throughput at `threads` workers, plus per-query skip counts from
/// sequential best-first scatters.
///
/// With `with_ch` the shards declare a Contraction Hierarchies index and it
/// is built inside the timed region, so `build_time` includes exactly one
/// CH preprocessing — owned by shard 0 and held by every other shard, which
/// is what keeps the `*-CH` shard-build wall time flat in the shard count.
#[allow(clippy::too_many_arguments)] // flat call shape mirrors the other measure_* helpers
pub fn measure_sharding(
    dataset: &GeoSocialDataset,
    policy: Partitioning,
    shards: usize,
    users: &[UserId],
    k: usize,
    alpha: f64,
    threads: usize,
    with_ch: bool,
) -> ShardingMeasurement {
    let build_started = Instant::now();
    let mut builder = ShardedEngine::builder(dataset.clone())
        .shards(shards)
        .partitioning(policy);
    if with_ch {
        builder = builder.configure_engines(|b| b.with_ch());
    }
    let engine = builder.build().expect("sharded engine builds");
    if with_ch {
        engine
            .shard_engine(0)
            .require_contraction_hierarchy()
            .expect("CH builds");
    }
    let build_time = build_started.elapsed();

    let batch: Vec<QueryRequest> = users
        .iter()
        .map(|&user| {
            QueryRequest::for_user(user)
                .k(k)
                .alpha(alpha)
                .algorithm(Algorithm::Ais)
                .build()
                .expect("valid workload parameters")
        })
        .collect();

    let started = Instant::now();
    let results = engine.run_batch_with_threads(&batch, threads);
    let secs = started.elapsed().as_secs_f64();
    let ok = results.iter().filter(|r| r.is_ok()).count();

    let mut skipped = 0usize;
    let mut executed = 0usize;
    for request in &batch {
        if let Ok((_, stats)) = engine.run_with_stats(request) {
            skipped += stats.skipped_shards();
            executed += stats.executed_shards();
        }
    }
    let per_query = ok.max(1) as f64;
    ShardingMeasurement {
        shards,
        queries: ok,
        build_time,
        batch_qps: ok as f64 / secs.max(1e-9),
        avg_skipped_shards: skipped as f64 / per_query,
        avg_executed_shards: executed as f64 / per_query,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssrq_data::{DatasetConfig, QueryWorkload};

    #[test]
    fn sharding_measurement_accounts_for_every_shard() {
        let dataset = DatasetConfig::gowalla_like(500).generate();
        let workload = QueryWorkload::generate(&dataset, 6, 3);
        let m = measure_sharding(
            &dataset,
            Partitioning::SpatialGrid { cells_per_axis: 8 },
            3,
            &workload.users,
            10,
            0.3,
            2,
            false,
        );
        assert_eq!(m.shards, 3);
        assert_eq!(m.queries, 6);
        assert!(m.batch_qps > 0.0);
        assert!(m.build_time > Duration::ZERO);
        // Every query saw all 3 shards, each either executed or skipped.
        assert!((m.avg_skipped_shards + m.avg_executed_shards - 3.0).abs() < 1e-9);
        assert!(m.skip_ratio() >= 0.0 && m.skip_ratio() <= 1.0);
    }
}
