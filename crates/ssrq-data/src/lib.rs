//! Synthetic geo-social datasets and query workloads for the SSRQ system.
//!
//! The paper evaluates on the Gowalla, Foursquare and Twitter-Singapore
//! snapshots, which are not redistributable.  This crate builds synthetic
//! substitutes that preserve the structural properties the SSRQ algorithms
//! are sensitive to:
//!
//! * scale-free social graphs with a configurable average degree
//!   (preferential attachment, [`generators`]);
//! * the paper's own degree-derived edge weights
//!   (`w(v_i, v_j) = deg(v_i)·deg(v_j) / max_deg²`, [`weights`]);
//! * clustered "check-in style" locations with partial coverage
//!   ([`locations`]), plus the correlation-controlled location assignment
//!   used by Figure 14(a) ([`correlation`]);
//! * structure-preserving Forest Fire Sampling for the scalability
//!   experiment of Figure 14(b) ([`sampling`]);
//! * dataset statistics (Table 2, [`stats`]), Jaccard set similarity
//!   (Figure 7(b), [`jaccard()`]) and random query workloads ([`workload`]).
//!
//! The ready-made presets ([`DatasetConfig::gowalla_like`],
//! [`DatasetConfig::foursquare_like`], [`DatasetConfig::twitter_like`])
//! mirror the three real datasets at a configurable scale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod config;
pub mod correlation;
pub mod generators;
pub mod jaccard;
pub mod locations;
pub mod sampling;
pub mod stats;
pub mod weights;
pub mod workload;

pub use config::DatasetConfig;
pub use correlation::{correlated_locations, Correlation};
pub use jaccard::jaccard;
pub use locations::{generate_locations, social_cluster_locations, LocationModel};
pub use sampling::forest_fire_sample;
pub use stats::DataStatistics;
pub use workload::QueryWorkload;

// Re-exported so downstream users of this crate get the container type
// without naming `ssrq-core` explicitly.
pub use ssrq_core::GeoSocialDataset;
