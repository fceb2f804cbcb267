//! Spatial substrate for the SSRQ (Social and Spatial Ranking Query) system.
//!
//! The paper ("Joint Search by Social and Spatial Proximity", Mouratidis et
//! al.) keeps user locations in main memory and indexes them with a regular
//! grid (single-level for the SPA/TSA spatial search, multi-level for the
//! AIS aggregate index).  Here the two are one structure: the multi-level
//! grid's lowest level is the single-level grid, so every location is stored
//! once.  This crate provides those building blocks:
//!
//! * [`Point`] and [`Rect`] — plain 2-D Euclidean geometry.
//! * [`UniformGrid`] — a single-level regular grid over a bounding box with
//!   O(1) location updates, the index recommended for dynamic main-memory
//!   data in the paper (§4.1).
//! * [`IncrementalNn`] — best-first (branch-and-bound) incremental nearest
//!   neighbour search over a [`UniformGrid`]; yields items in strictly
//!   non-decreasing distance from the query point.
//! * [`MultiLevelGrid`] — the multi-level regular grid that underlies the
//!   AIS index (§5.1): every internal node is parent to `s × s` nodes of the
//!   immediately lower level, and the lowest level, a [`UniformGrid`], holds
//!   the actual items.
//! * [`IdMap`] — the `HashMap` the indexes key by bounded integer ids, under
//!   a fixed multiplicative [`IdHasher`] instead of SipHash.
//!
//! The crate is deliberately independent of the social-graph substrate; the
//! AIS index in `ssrq-core` composes a [`MultiLevelGrid`] with per-node
//! social summaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod error;
mod grid;
mod id_hash;
mod multigrid;
mod nn;
mod point;
mod rect;

pub use error::SpatialError;

pub use grid::{CellCoord, UniformGrid};
pub use id_hash::{IdHasher, IdMap};
pub use multigrid::{MultiLevelGrid, NodeId, NodeKind};
pub use nn::{IncrementalNn, Neighbor};
pub use point::Point;
pub use rect::Rect;

/// Identifier of an item (user) stored in a spatial index.
///
/// The SSRQ system uses dense `u32` identifiers for users; the spatial
/// indexes adopt the same convention so that ids can be used to address
/// parallel per-user arrays without hashing.
pub type ItemId = u32;
