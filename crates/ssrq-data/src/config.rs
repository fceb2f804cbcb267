//! Dataset presets mirroring the paper's three real datasets at configurable
//! scale.

use crate::generators::preferential_attachment;
use crate::locations::{generate_locations, LocationModel};
use crate::weights::degree_weights;
use ssrq_core::GeoSocialDataset;
use ssrq_graph::SocialGraph;
use ssrq_spatial::Point;

/// Configuration for generating a synthetic geo-social dataset.
///
/// The presets reproduce the structural characteristics of Table 2 of the
/// paper (average degree, location coverage) at any requested scale:
///
/// | Preset | Mirrors | Avg. degree | Location coverage |
/// |---|---|---|---|
/// | [`DatasetConfig::gowalla_like`] | Gowalla (196K users) | ≈ 9.7 | 54.4 % |
/// | [`DatasetConfig::foursquare_like`] | Foursquare (1.88M users) | ≈ 9.5 | 60.3 % |
/// | [`DatasetConfig::twitter_like`] | Twitter-Singapore (124K users) | ≈ 57.7 | 100 % |
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetConfig {
    /// Label used in reports (e.g. "gowalla-like").
    pub name: String,
    /// Number of users `|V|`.
    pub num_users: usize,
    /// Target average vertex degree.
    pub target_degree: f64,
    /// Fraction of users with a known location.
    pub location_coverage: f64,
    /// Number of spatial clusters ("cities") locations concentrate around.
    pub spatial_clusters: usize,
    /// Standard deviation of the per-cluster scatter.
    pub cluster_spread: f64,
    /// RNG seed (graph topology, locations and coverage all derive from it).
    pub seed: u64,
}

impl DatasetConfig {
    /// A Gowalla-like dataset: average degree ≈ 9.7, 54.4 % located users.
    pub fn gowalla_like(num_users: usize) -> Self {
        DatasetConfig {
            name: "gowalla-like".into(),
            num_users,
            target_degree: 9.7,
            location_coverage: 0.544,
            spatial_clusters: 40,
            cluster_spread: 0.05,
            seed: 0xA11CE,
        }
    }

    /// A Foursquare-like dataset: average degree ≈ 9.5, 60.3 % located
    /// users.  The paper's Foursquare is ~10× larger than Gowalla; pick
    /// `num_users` accordingly.
    pub fn foursquare_like(num_users: usize) -> Self {
        DatasetConfig {
            name: "foursquare-like".into(),
            num_users,
            target_degree: 9.5,
            location_coverage: 0.603,
            spatial_clusters: 80,
            cluster_spread: 0.04,
            seed: 0xF0E5,
        }
    }

    /// A Twitter-Singapore-like dataset: high average degree ≈ 57.7, every
    /// user located, compact spatial extent (few clusters).
    pub fn twitter_like(num_users: usize) -> Self {
        DatasetConfig {
            name: "twitter-like".into(),
            num_users,
            target_degree: 57.7,
            location_coverage: 1.0,
            spatial_clusters: 8,
            cluster_spread: 0.08,
            seed: 0x7117,
        }
    }

    /// Overrides the RNG seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the social graph only (degree-derived weights applied).
    pub fn generate_graph(&self) -> SocialGraph {
        let edges_per_node = ((self.target_degree / 2.0).round() as usize).max(1);
        degree_weights(&preferential_attachment(
            self.num_users,
            edges_per_node,
            self.seed,
        ))
    }

    /// Generates a location list that ignores the social structure
    /// (independent clustered locations); mainly useful for ablations — the
    /// default pipeline uses socially-correlated locations instead.
    pub fn generate_locations(&self) -> Vec<Option<Point>> {
        generate_locations(
            self.num_users,
            LocationModel::Clustered {
                clusters: self.spatial_clusters,
                spread: self.cluster_spread,
            },
            self.location_coverage,
            self.seed ^ 0x10CA_7105,
        )
    }

    /// Generates locations that correlate with the friendship structure
    /// (friends tend to share a city), as observed in real location-based
    /// social networks.
    pub fn generate_social_locations(&self, graph: &SocialGraph) -> Vec<Option<Point>> {
        crate::locations::social_cluster_locations(
            graph,
            self.spatial_clusters,
            self.cluster_spread,
            self.location_coverage,
            self.seed ^ 0x10CA_7105,
        )
    }

    /// Generates the full dataset (graph + socially-correlated locations).
    ///
    /// # Panics
    ///
    /// Panics if the configuration produces a dataset without a single
    /// located user (e.g. `location_coverage = 0`); use
    /// [`GeoSocialDataset::new`] directly for full error control.
    pub fn generate(&self) -> GeoSocialDataset {
        let graph = self.generate_graph();
        let mut locations = self.generate_social_locations(&graph);
        if locations.iter().flatten().count() == 0 {
            // Guarantee at least one located user so the dataset constructor
            // succeeds even for extreme configurations.
            if let Some(slot) = locations.first_mut() {
                *slot = Some(Point::new(0.5, 0.5));
            }
        }
        GeoSocialDataset::new(graph, locations).expect("generated dataset is well-formed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gowalla_preset_matches_paper_characteristics() {
        let ds = DatasetConfig::gowalla_like(3_000).generate();
        assert_eq!(ds.user_count(), 3_000);
        let avg = ds.graph().average_degree();
        assert!((avg - 9.7).abs() < 2.0, "avg degree {avg}");
        let coverage = ds.located_user_count() as f64 / ds.user_count() as f64;
        assert!((coverage - 0.544).abs() < 0.05, "coverage {coverage}");
    }

    #[test]
    fn twitter_preset_has_high_degree_and_full_coverage() {
        let ds = DatasetConfig::twitter_like(1_500).generate();
        assert!(ds.graph().average_degree() > 40.0);
        assert_eq!(ds.located_user_count(), 1_500);
    }

    #[test]
    fn foursquare_preset_scales() {
        let small = DatasetConfig::foursquare_like(500).generate();
        let large = DatasetConfig::foursquare_like(2_000).generate();
        assert_eq!(small.user_count(), 500);
        assert_eq!(large.user_count(), 2_000);
        // Degree characteristics are preserved across scales.
        assert!((small.graph().average_degree() - large.graph().average_degree()).abs() < 3.0);
    }

    #[test]
    fn builders_override_seed_and_size() {
        let a = DatasetConfig::gowalla_like(400).with_seed(1).generate();
        let b = DatasetConfig::gowalla_like(400).with_seed(2).generate();
        assert_ne!(
            a.graph().edge_count() * 31 + a.located_user_count(),
            b.graph().edge_count() * 31 + b.located_user_count(),
            "different seeds should give different datasets"
        );
        let c = DatasetConfig {
            num_users: 250,
            ..DatasetConfig::gowalla_like(100)
        }
        .generate();
        assert_eq!(c.user_count(), 250);
    }

    #[test]
    fn generation_is_reproducible() {
        let a = DatasetConfig::foursquare_like(600).generate();
        let b = DatasetConfig::foursquare_like(600).generate();
        assert_eq!(a.graph().edge_count(), b.graph().edge_count());
        assert_eq!(a.located_user_count(), b.located_user_count());
        assert_eq!(a.location(17), b.location(17));
    }

    #[test]
    fn degenerate_coverage_still_produces_a_valid_dataset() {
        let mut cfg = DatasetConfig::gowalla_like(50);
        cfg.location_coverage = 0.0;
        let ds = cfg.generate();
        assert!(ds.located_user_count() >= 1);
    }
}
