//! Umbrella crate for the SSRQ (Social and Spatial Ranking Query) system.
//!
//! Re-exports the public APIs of the member crates so applications can use a
//! single dependency:
//!
//! * [`graph`] — social-graph substrate (CSR graph, Dijkstra, A*, landmarks,
//!   contraction hierarchies).
//! * [`spatial`] — spatial substrate (regular grid, multi-level grid,
//!   incremental nearest-neighbour search).
//! * [`data`] — synthetic geo-social dataset and workload generation.
//! * [`core`] — the SSRQ query itself and the processing algorithms
//!   (SFA, SPA, TSA, TSA-QC, AIS and variants).
//! * [`shard`] — the horizontal serving layer: partitioned engines with
//!   exact scatter-gather top-k and routed live updates.
//! * [`net`] — multi-process serving: shard servers behind a hand-rolled
//!   wire protocol over Unix-domain/TCP sockets and the remote
//!   scatter-gather coordinator.
//!
//! See the crate-level documentation of each module and `README.md` for a
//! quickstart.

pub use ssrq_core as core;
pub use ssrq_data as data;
pub use ssrq_graph as graph;
pub use ssrq_net as net;
pub use ssrq_shard as shard;
pub use ssrq_spatial as spatial;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use ssrq_core::{
        Algorithm, AlgorithmStrategy, EngineBuilder, GeoSocialEngine, QueryContext, QueryDriver,
        QueryRequest, QueryResult, QuerySession, QueryStream, RankedUser, StepOutcome,
        StrategyRegistry,
    };
    pub use ssrq_data::{DatasetConfig, GeoSocialDataset};
    pub use ssrq_graph::{EdgeWeight, NodeId as GraphNodeId, SearchScratch, SocialGraph};
    pub use ssrq_net::{Endpoint, RemoteShardedEngine, ShardServer};
    pub use ssrq_shard::{FailurePolicy, Partitioning, ShardStats, ShardedEngine, ShardedSession};
    pub use ssrq_spatial::{Point, Rect};
}
