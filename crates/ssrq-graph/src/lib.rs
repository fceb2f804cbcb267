//! Social-graph substrate for the SSRQ (Social and Spatial Ranking Query)
//! system.
//!
//! The paper ("Joint Search by Social and Spatial Proximity", Mouratidis et
//! al.) measures social proximity as the weighted shortest-path distance
//! between users in an undirected social graph.  Every SSRQ processing
//! algorithm (SFA, SPA, TSA, AIS) therefore needs fast graph primitives;
//! this crate provides them from scratch:
//!
//! * [`SocialGraph`] — a compact CSR (compressed sparse row) adjacency
//!   representation of the weighted, undirected social network, built via
//!   [`GraphBuilder`].
//! * [`IncrementalDijkstra`] — a resumable Dijkstra expansion that yields
//!   one settled vertex at a time.  SFA and the social repository of TSA use
//!   it directly; AIS shares one instance across all of its point-to-point
//!   computations (the *forward heap caching* of §5.2).
//! * [`LandmarkSet`] — landmark selection and per-vertex distance vectors,
//!   the basis of both the ALT heuristic and the AIS social summaries.
//! * [`GraphDistanceEngine`] — the bidirectional point-to-point module of
//!   §5.2 (Algorithm 3 *GraphDist*): a plain-Dijkstra forward search met
//!   by a per-call reverse Dijkstra from the target with ALT pruning,
//!   distance caching and forward-heap caching (the forward search is
//!   started over for every call in the no-sharing baseline).
//! * [`ContractionHierarchy`] — a Contraction Hierarchies implementation
//!   used by the `*-CH` baselines of the evaluation (Figure 8).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod builder;
mod ch;
mod diameter;
mod dijkstra;
mod distance_engine;
mod error;
mod graph;
mod landmarks;
mod queue;
mod scratch;

pub use builder::GraphBuilder;
pub use ch::{ChQueryScratch, ContractionHierarchy};
pub use diameter::pseudo_diameter;
pub use dijkstra::{dijkstra_all, dijkstra_all_with, dijkstra_distance, IncrementalDijkstra};
pub use distance_engine::{DistanceEngineStats, GraphDistanceEngine, SharingMode};
pub use error::GraphError;
pub use graph::{CsrLayout, Edge, Neighbors, NodeId, SocialGraph};
pub use landmarks::{LandmarkSelection, LandmarkSet};
pub use scratch::SearchScratch;

/// Weight of a social edge; smaller weights denote stronger friendships
/// (§3 of the paper).
pub type EdgeWeight = f64;

/// Distance value used throughout the graph substrate.  Unreachable vertices
/// have distance [`f64::INFINITY`].
pub type Distance = f64;
