//! The Social and Spatial Ranking Query (SSRQ) — core algorithms.
//!
//! This crate implements the primary contribution of *"Joint Search by
//! Social and Spatial Proximity"* (Mouratidis, Li, Tang, Mamoulis): given a
//! query user `u_q`, a preference parameter `α` and a result size `k`, the
//! SSRQ returns the `k` users minimizing
//!
//! ```text
//! f(u_q, u_i) = α · p(v_q, v_i) + (1 − α) · d(u_q, u_i)
//! ```
//!
//! where `p` is the normalized shortest-path distance in the social graph
//! and `d` the normalized Euclidean distance between current locations.
//!
//! # Service API
//!
//! The public API is built from four pieces:
//!
//! 1. **[`EngineBuilder`]** — fluent engine construction over a
//!    [`GeoSocialDataset`].  Expensive auxiliary indexes are *declared*
//!    ([`EngineBuilder::with_ch`], [`EngineBuilder::cache_social_neighbors`])
//!    and built on first use, behind `OnceLock` so the engine stays
//!    `Send + Sync`.
//! 2. **[`QueryRequest`]** — a typed, validated query: `u_q`, `k`, `α`, the
//!    algorithm, and per-query scenario options (spatial filter window,
//!    exclusion set, score cutoff) honoured by every algorithm.
//! 3. **[`Algorithm`]** — the closed set of the paper's twelve algorithms
//!    plus [`Algorithm::Auto`]; the engine runs a request with one `match`
//!    on the algorithm it names, and `Auto` goes to the [`QueryPlanner`].
//! 4. **[`QuerySession`]** — a per-worker handle (engine reference + owned
//!    [`QueryContext`]) with [`QuerySession::run`] and the **pull-lazy**
//!    finalization-order iterator [`QuerySession::stream`], backed by the
//!    resumable [`QueryDriver`] state machine every algorithm is
//!    implemented as.
//!
//! # Processing algorithms
//!
//! | [`Algorithm`] | Paper section | Idea |
//! |---|---|---|
//! | [`Algorithm::Exhaustive`] | — | brute-force oracle used for testing |
//! | [`Algorithm::Sfa`] | §4.1 | expand the social graph around `v_q` (Dijkstra) |
//! | [`Algorithm::Spa`] | §4.1 | incremental spatial NN search around `u_q` |
//! | [`Algorithm::Tsa`] | §4.2 | twofold (social + spatial) search, round-robin |
//! | [`Algorithm::TsaQc`] | §4.2 | TSA probing with the Quick Combine heuristic |
//! | [`Algorithm::AisBid`] | §5 / §6 | aggregate index search, plain bidirectional distances |
//! | [`Algorithm::AisMinus`] | §5.2 | AIS + computation sharing (no delayed evaluation) |
//! | [`Algorithm::Ais`] | §5.3 | AIS + computation sharing + delayed evaluation |
//! | [`Algorithm::SfaCh`], [`Algorithm::SpaCh`], [`Algorithm::TsaCh`] | §6 | the `*-CH` baselines (Contraction Hierarchies distance module) |
//! | [`Algorithm::SfaCached`] | §5.4 | pre-computed socially-closest lists with AIS fallback |
//!
//! ```
//! use ssrq_core::{Algorithm, GeoSocialDataset, GeoSocialEngine, QueryRequest};
//! use ssrq_graph::GraphBuilder;
//! use ssrq_spatial::Point;
//!
//! // Four users on a line, chained as friends.
//! let graph = GraphBuilder::from_edges(4, vec![(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap();
//! let locations = vec![
//!     Some(Point::new(0.1, 0.5)),
//!     Some(Point::new(0.9, 0.5)),
//!     Some(Point::new(0.2, 0.5)),
//!     Some(Point::new(0.8, 0.5)),
//! ];
//! let dataset = GeoSocialDataset::new(graph, locations).unwrap();
//! let engine = GeoSocialEngine::builder(dataset).build().unwrap();
//!
//! let mut session = engine.session();
//! let request = QueryRequest::for_user(0)
//!     .k(2)
//!     .alpha(0.5)
//!     .algorithm(Algorithm::Ais)
//!     .build()
//!     .unwrap();
//! let result = session.run(&request).unwrap();
//! assert_eq!(result.ranked.len(), 2);
//! ```
//!
//! # Shared immutable substrate
//!
//! [`GeoSocialDataset`] is an `Arc`-backed immutable core (graph, bounds,
//! normalization constants) plus per-instance locations: `Clone` and
//! [`GeoSocialDataset::restrict_locations`] never copy the graph.  The
//! graph-only indexes (landmarks, Contraction Hierarchies, social cache)
//! live in one cloneable handle per engine; clones of an engine and
//! siblings built with [`EngineBuilder::share_graph_artifacts_with`] hold
//! the same handle, so each index is built at most once among them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ais;
pub mod algorithms;
mod context;
mod dataset;
mod driver;
mod engine;
mod error;
pub mod obs;
mod planner;
mod query;
mod ranking;
mod request;
mod result;
mod session;
mod stats;

pub use algorithms::SocialNeighborCache;
pub use context::QueryContext;
pub use dataset::{GeoSocialDataset, UserId};
pub use driver::{QueryDriver, StepOutcome};
pub use engine::{Algorithm, EngineBuilder, EngineMemory, GeoSocialEngine, IndexParams};
pub use error::CoreError;
pub use planner::{ChoiceReason, PlannerConfig, PlannerSnapshot, QueryPlanner};
pub use query::{QueryResult, RankedUser};
pub use ranking::{combine, RankingContext};
pub use request::{QueryRequest, QueryRequestBuilder};
pub use result::TopK;
pub use session::{QuerySession, QueryStream};
pub use stats::QueryStats;
