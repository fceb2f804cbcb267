//! Per-query scatter-gather accounting.

use ssrq_core::QueryStats;
use std::time::Duration;

/// What happened to one shard during a scatter-gather query.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardOutcome {
    /// The shard ran its bounded search; these are its work counters.
    Executed(QueryStats),
    /// The coordinator proved the shard could not contribute — its best
    /// possible score (`lower_bound`) was already at or above the running
    /// threshold (or its bounding rectangle missed the request's spatial
    /// filter) — and skipped it without running a search.
    Skipped {
        /// The score lower bound the skip decision was based on
        /// (`INFINITY` for an empty shard, a filter-disjoint shard, or an
        /// unlocated query origin).
        lower_bound: f64,
    },
    /// The shard failed mid-query and the coordinator degraded around it
    /// ([`FailurePolicy::Degrade`](crate::FailurePolicy::Degrade)) — its
    /// residents were **not** consulted and the merged result is flagged
    /// [`degraded`](ssrq_core::QueryResult::degraded).  Never produced
    /// in-process; only a remote transport can fail without failing the
    /// query.
    Failed {
        /// The failing shard's transport identity
        /// (e.g. `"unix:/tmp/ssrq-2.sock"`).
        shard: String,
        /// The failure the coordinator observed.
        detail: String,
    },
}

/// Coordinator-side statistics of one scatter-gather query: the per-shard
/// outcomes plus their aggregate — work counters sum across the executed
/// shards; `runtime` is the coordinator's own wall clock: the shards are
/// visited one after the other, and the time between visits (the merge,
/// and for a remote coordinator the wire) is something only the
/// coordinator observes.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStats {
    /// One outcome per shard, indexed by shard id.
    pub per_shard: Vec<ShardOutcome>,
    /// The executed shards' work counters summed, with
    /// `runtime == gather_runtime` — what the gathered
    /// [`QueryResult`](ssrq_core::QueryResult) carries as its `stats`.
    pub merged: QueryStats,
    /// Wall-clock time of the whole scatter-gather (including the merge),
    /// as observed by the coordinator.
    pub gather_runtime: Duration,
}

impl ShardStats {
    /// Builds the aggregate record from per-shard outcomes.
    pub fn new(per_shard: Vec<ShardOutcome>, gather_runtime: Duration) -> Self {
        let mut merged = QueryStats::default();
        for outcome in &per_shard {
            if let ShardOutcome::Executed(stats) = outcome {
                merged.merge(stats);
            }
        }
        merged.runtime = gather_runtime;
        ShardStats {
            per_shard,
            merged,
            gather_runtime,
        }
    }

    /// Number of shards that ran their search.
    pub fn executed_shards(&self) -> usize {
        self.per_shard
            .iter()
            .filter(|o| matches!(o, ShardOutcome::Executed(_)))
            .count()
    }

    /// Number of shards the threshold / bounding-rectangle pruning skipped.
    pub fn skipped_shards(&self) -> usize {
        self.per_shard
            .iter()
            .filter(|o| matches!(o, ShardOutcome::Skipped { .. }))
            .count()
    }

    /// Number of shards that failed mid-query (degraded gathers only).
    pub fn failed_shards(&self) -> usize {
        self.per_shard
            .iter()
            .filter(|o| matches!(o, ShardOutcome::Failed { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_stats_aggregate_executed_outcomes_only() {
        let executed = |pops: usize, ms: u64| {
            ShardOutcome::Executed(QueryStats {
                vertex_pops: pops,
                runtime: Duration::from_millis(ms),
                ..QueryStats::default()
            })
        };
        let stats = ShardStats::new(
            vec![
                executed(5, 10),
                ShardOutcome::Skipped { lower_bound: 0.9 },
                executed(7, 3),
                ShardOutcome::Failed {
                    shard: "unix:/tmp/ssrq-3.sock".into(),
                    detail: "connection reset".into(),
                },
            ],
            Duration::from_millis(12),
        );
        assert_eq!(stats.executed_shards(), 2);
        assert_eq!(stats.skipped_shards(), 1);
        assert_eq!(stats.failed_shards(), 1);
        assert_eq!(stats.merged.vertex_pops, 12);
        // Neither the slowest shard (10 ms) nor the shards' sum (13 ms):
        // the coordinator's wall clock.
        assert_eq!(stats.merged.runtime, Duration::from_millis(12));
        assert_eq!(stats.gather_runtime, Duration::from_millis(12));
    }
}
