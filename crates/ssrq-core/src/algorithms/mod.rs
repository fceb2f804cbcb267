//! SSRQ processing algorithms other than AIS (which lives in
//! [`crate::ais`]): the exhaustive oracle, the one-domain baselines SFA and
//! SPA (§4.1), the twofold search TSA and its variants (§4.2), and the
//! pre-computation method of §5.4.

/// Brute-force oracle (full Dijkstra + linear scan).
pub(crate) mod exhaustive;
/// Pre-computed socially-closest lists with AIS fallback (§5.4).
mod precompute;
/// Social First Approach over a Dijkstra or a CH-ranked order (§4.1).
mod sfa;
/// Spatial First Approach and its CH variant (§4.1).
mod spa;
/// Twofold Search Approach: round-robin, Quick Combine, landmarks, CH (§4.2).
mod tsa;

pub(crate) use exhaustive::ExhaustiveDriver;
pub(crate) use precompute::CachedDriver;
pub use precompute::SocialNeighborCache;
pub(crate) use sfa::{SfaDriver, SocialOrder};
pub(crate) use spa::SpaDriver;
pub(crate) use tsa::{TsaDriver, TsaOptions};
