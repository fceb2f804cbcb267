//! Sharded scatter-gather serving for the SSRQ engine.
//!
//! A single [`GeoSocialEngine`](ssrq_core::GeoSocialEngine) stops scaling
//! when the dataset no longer fits one machine's memory (or one NUMA
//! node's bandwidth).  This crate adds the horizontal layer: a
//! [`ShardedEngine`] partitions the dataset across N per-shard engines and
//! answers every [`QueryRequest`](ssrq_core::QueryRequest) **exactly** by
//! scatter-gather.
//!
//! # One coordinator over two links
//!
//! Everything decided centrally lives in one [`Coordinator`], generic over
//! a [`ShardLink`]: the operations of the shard wire protocol (relocate, an
//! origin-less query that names its origin, list residents, refresh,
//! install a cell map).  [`ShardedEngine`] is the coordinator over
//! in-process [`LocalShard`]s; `ssrq-net`'s socket coordinator is the same
//! type over pooled connections, and its shard server answers through a
//! [`LocalShard`] too — so "exactly one holder per located user" is
//! implemented, and tested, in one place.
//!
//! * **Partitioning** ([`Partitioning`]) — the social graph is replicated
//!   (social distances are global); *locations* are partitioned by spatial
//!   tiling, which gives every shard a compact rectangle to prune against.
//!   Shard datasets inherit the global normalization constants, so
//!   per-shard scores are bit-identical to single-engine scores.
//! * **Owner table** ([`Coordinator::owner_of`]) — the shard that last
//!   reported holding each user; a hint that decides whom to ask first,
//!   never what the answer is.
//! * **Scatter** — a request without a pinned origin goes first to the
//!   query user's owner, which evaluates it from its own copy of the
//!   location and names it; the coordinator pins it as the request's
//!   [`origin`](ssrq_core::QueryRequest::origin) for every other shard.
//!   Shards run their bounded top-k one after the other
//!   ([`scatter_sequential`]), the rest best-first by the lower bound
//!   `(1 − α) · mindist(origin, rect) / norm`, with the running `f_k`
//!   forwarded as each next request's
//!   [`max_score`](ssrq_core::QueryRequest::max_score) cutoff and shards
//!   that cannot beat it skipped ([`ShardStats`]).  In process, the arms
//!   share one [`QueryContext`](ssrq_core::QueryContext) and one social
//!   expansion; parallelism is across queries ([`ShardedEngine::run_batch`]).
//! * **Gather** — the per-shard lists (disjoint: every user lives on one
//!   shard) merge into the global `(score, user)` order, truncated at `k`
//!   — the unpartitioned engine's answer for all twelve algorithms.
//!   [`ShardedSession::stream`] heap-merges the shards' pull-lazy streams
//!   instead (in process only).
//! * **Updates** — [`ShardedEngine::update_location`] goes to the owning
//!   shard, which adopts the move or drops the user for the shard whose
//!   cells it entered; [`ShardedEngine::rebalance`] re-packs drifted
//!   populations.
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

mod coordinator;
mod engine;
pub mod obs;
mod partition;
mod session;
mod stats;
mod transport;

pub use coordinator::Coordinator;
pub use engine::{LocalShard, RebalanceReport, ShardedEngine, ShardedEngineBuilder};
pub use partition::{Partitioning, ShardAssignment};
pub use session::{ShardedSession, ShardedStream};
pub use stats::{ShardOutcome, ShardStats};
pub use transport::{
    merge_ranked, scatter_sequential, shard_score_lower_bound, FailurePolicy, LinkError,
    SequentialScatter, ShardInfo, ShardLink,
};
