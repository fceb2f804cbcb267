//! Sharded scatter-gather serving for the SSRQ engine.
//!
//! A single [`GeoSocialEngine`](ssrq_core::GeoSocialEngine) stops scaling
//! when the dataset no longer fits one machine's memory (or one NUMA
//! node's bandwidth).  This crate adds the horizontal layer: a
//! [`ShardedEngine`] partitions the dataset across N per-shard engines and
//! answers every [`QueryRequest`](ssrq_core::QueryRequest) **exactly** by
//! scatter-gather.
//!
//! # Design
//!
//! * **Partitioning** ([`Partitioning`]) — the social graph is replicated
//!   (social distances are global); *locations* are partitioned by
//!   spatial tiling, which gives every shard a compact rectangle for the
//!   coordinator to prune against.  Shard datasets inherit the global normalization
//!   constants, so per-shard scores are bit-identical to single-engine
//!   scores.
//! * **Scatter** — the coordinator resolves the query user's location once
//!   and broadcasts it as the request's
//!   [`origin`](ssrq_core::QueryRequest::origin), so a shard that does not
//!   host the query user still measures every spatial distance correctly.
//!   Shards run their ordinary bounded top-k one after the other through
//!   one [`QueryContext`](ssrq_core::QueryContext), sharing a single
//!   query-rooted social expansion
//!   ([`share_social_expansion`](ssrq_core::QueryContext::share_social_expansion));
//!   parallelism is across queries ([`ShardedEngine::run_batch`]).
//! * **Bounding** — shards are visited best-first by their score lower
//!   bound `(1 − α) · mindist(origin, rect) / norm`; once `k` results are
//!   gathered the running `f_k` is forwarded to later shards through the
//!   [`max_score`](ssrq_core::QueryRequest::max_score) admission cutoff,
//!   and shards whose bound cannot beat it are skipped outright
//!   ([`ShardStats`] counts both).
//! * **Gather** — the per-shard top-k lists (disjoint: every user lives on
//!   exactly one shard) merge into the global ascending `(score, user)`
//!   order, truncated at `k` — identical to the unpartitioned engine's
//!   answer for all twelve algorithms (oracle-tested).  For first-result
//!   latency, [`ShardedSession::stream`] instead heap-merges the shards'
//!   pull-lazy streams.
//! * **Updates** — [`ShardedEngine::update_location`] routes to the owning
//!   shard and migrates the user when a spatial partition boundary is
//!   crossed; [`ShardedEngine::rebalance`] re-packs drifted populations.
//!
//! ```
//! use ssrq_core::{Algorithm, GeoSocialDataset, QueryRequest};
//! use ssrq_graph::GraphBuilder;
//! use ssrq_shard::{Partitioning, ShardedEngine};
//! use ssrq_spatial::Point;
//!
//! let graph = GraphBuilder::from_edges(4, vec![(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap();
//! let locations = vec![
//!     Some(Point::new(0.1, 0.5)),
//!     Some(Point::new(0.9, 0.5)),
//!     Some(Point::new(0.2, 0.5)),
//!     Some(Point::new(0.8, 0.5)),
//! ];
//! let dataset = GeoSocialDataset::new(graph, locations).unwrap();
//! let sharded = ShardedEngine::builder(dataset)
//!     .shards(2)
//!     .partitioning(Partitioning::SpatialGrid { cells_per_axis: 4 })
//!     .build()
//!     .unwrap();
//! let request = QueryRequest::for_user(0)
//!     .k(2)
//!     .alpha(0.5)
//!     .algorithm(Algorithm::Ais)
//!     .build()
//!     .unwrap();
//! let (result, stats) = sharded.run_with_stats(&request).unwrap();
//! assert_eq!(result.ranked.len(), 2);
//! assert_eq!(stats.executed_shards() + stats.skipped_shards(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod engine;
pub mod obs;
mod partition;
mod session;
mod stats;
mod transport;

pub use engine::{RebalanceReport, ShardedEngine, ShardedEngineBuilder};
pub use partition::{Partitioning, ShardAssignment};
pub use session::{ShardedSession, ShardedStream};
pub use stats::{ShardOutcome, ShardStats};
pub use transport::{
    merge_ranked, scatter_sequential, shard_score_lower_bound, FailurePolicy, ScatterError,
    SequentialScatter, ShardTransport,
};
