//! Benchmark-scale dataset construction.

use ssrq_core::{EngineBuilder, GeoSocialDataset, GeoSocialEngine};
use ssrq_data::{DatasetConfig, QueryWorkload};

/// Experiment scale: how large the synthetic stand-ins for the paper's
/// datasets are and how many queries each measurement averages over.
///
/// The paper uses Gowalla (196K users), Foursquare (1.88M) and Twitter-SG
/// (124K) with 1,000 queries per measurement; the default benchmark scale is
/// reduced so the full suite completes in minutes, and can be raised with
/// `--scale` / [`Scale::full`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Users in the Gowalla-like dataset.
    pub gowalla_users: usize,
    /// Users in the Foursquare-like dataset.
    pub foursquare_users: usize,
    /// Users in the Twitter-like dataset.
    pub twitter_users: usize,
    /// Queries per measurement point.
    pub queries: usize,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            gowalla_users: 20_000,
            foursquare_users: 60_000,
            twitter_users: 12_000,
            queries: 100,
        }
    }
}

impl Scale {
    /// A quick scale for smoke runs (CI runs `all --quick --scale 0.2`).
    pub fn quick() -> Self {
        Scale {
            gowalla_users: 6_000,
            foursquare_users: 15_000,
            twitter_users: 4_000,
            queries: 25,
        }
    }

    /// A scale closer to the paper's datasets (slow: minutes per figure).
    pub fn full() -> Self {
        Scale {
            gowalla_users: 100_000,
            foursquare_users: 400_000,
            twitter_users: 60_000,
            queries: 300,
        }
    }

    /// Multiplies all dataset sizes by `factor` (queries unchanged).
    pub fn scaled_by(mut self, factor: f64) -> Self {
        let f = factor.max(0.01);
        self.gowalla_users = ((self.gowalla_users as f64) * f) as usize;
        self.foursquare_users = ((self.foursquare_users as f64) * f) as usize;
        self.twitter_users = ((self.twitter_users as f64) * f) as usize;
        self
    }
}

/// A fully built benchmark dataset: the generated data, the query engine and
/// a reusable workload of query users.
pub struct BenchDataset {
    /// Human-readable label ("gowalla-like", ...).
    pub name: String,
    /// The query engine with all default indexes built.
    pub engine: GeoSocialEngine,
    /// The query workload drawn for this dataset.
    pub workload: QueryWorkload,
}

impl BenchDataset {
    /// Builds a benchmark dataset from a generator configuration.
    /// `configure` customizes the [`EngineBuilder`] (pass the identity
    /// closure `|b| b` for defaults).
    pub fn from_config(
        config: DatasetConfig,
        queries: usize,
        configure: impl FnOnce(EngineBuilder) -> EngineBuilder,
    ) -> Self {
        let name = config.name.clone();
        let dataset = config.generate();
        Self::from_dataset(name, dataset, queries, configure)
    }

    /// Builds a benchmark dataset from an already-generated dataset.
    /// `configure` customizes the [`EngineBuilder`] (pass the identity
    /// closure `|b| b` for defaults).
    pub fn from_dataset(
        name: impl Into<String>,
        dataset: GeoSocialDataset,
        queries: usize,
        configure: impl FnOnce(EngineBuilder) -> EngineBuilder,
    ) -> Self {
        let engine = configure(GeoSocialEngine::builder(dataset))
            .build()
            .expect("engine builds");
        let workload = QueryWorkload::generate(engine.dataset(), queries, 0xBEEF);
        BenchDataset {
            name: name.into(),
            engine,
            workload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_compose() {
        let s = Scale::default().scaled_by(0.5);
        assert_eq!(s.gowalla_users, 10_000);
        assert!(Scale::quick().gowalla_users < Scale::default().gowalla_users);
        assert!(Scale::full().foursquare_users > Scale::default().foursquare_users);
    }

    #[test]
    fn bench_dataset_builds_and_draws_a_workload() {
        let bench = BenchDataset::from_config(DatasetConfig::gowalla_like(800), 10, |b| b);
        assert_eq!(bench.name, "gowalla-like");
        assert_eq!(bench.workload.len(), 10);
        assert_eq!(bench.engine.dataset().user_count(), 800);
    }
}
