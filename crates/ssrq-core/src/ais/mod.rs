//! The Aggregate Index Search (AIS) — the paper's primary contribution (§5).
//!
//! AIS summarizes both spatial and social information in a single index: a
//! multi-level regular grid whose nodes carry *social summaries* — per-node
//! aggregates of the landmark-distance vectors of the users underneath.
//! Combining the spatial lower bound `ď(u_q, C)` with the social lower bound
//! `p̌(v_q, C)` (Lemma 2) yields `MINF(u_q, C)` (Theorem 1), which drives a
//! best-first branch-and-bound search that quickly zooms into users close in
//! *both* domains.
//!
//! The engine runs three variants of the search (matching the evaluation of the
//! paper, Figure 10):
//!
//! * **AIS-BID** — the plain search with a bidirectional distance
//!   computation started over for every evaluated user;
//! * **AIS⁻** — adds the computation-sharing optimizations of §5.2
//!   (distance caching + forward heap caching);
//! * **AIS** — additionally applies the delayed-evaluation strategy of §5.3,
//!   here extended to index nodes, and scores each user its forward search
//!   settles as it settles (see `AisDriver`).

mod index;
mod search;

pub use index::{AisIndex, SocialSummary};
pub(crate) use search::{ais_query, AisDriver, AisVariant};
