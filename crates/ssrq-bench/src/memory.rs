//! Memory accounting for the shared immutable substrate: approximate
//! resident bytes of a sharded deployment, shared versus per-shard, and the
//! counterfactual cost of the pre-refactor per-shard cloning.

use ssrq_core::{EngineMemory, GeoSocialDataset};
use ssrq_shard::{Partitioning, ShardedEngine};
use std::time::{Duration, Instant};

/// Approximate resident bytes of one sharded configuration, attributed by
/// sharing class; see [`measure_memory`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryMeasurement {
    /// Shards in the configuration.
    pub shards: usize,
    /// Bytes of the `Arc`-shared graph-only artifacts (graph, landmarks,
    /// CH, social cache), resident **once** for the whole deployment.
    pub shared_bytes: usize,
    /// Sum of the per-shard bytes (locations, SPA/TSA grid, AIS index)
    /// across all shards.
    pub per_shard_bytes: usize,
    /// What the same configuration would cost if every shard cloned the
    /// graph-only artifacts instead of sharing them (the pre-refactor
    /// ownership model): `shards × shared + per-shard`.
    pub cloned_estimate_bytes: usize,
    /// Wall-clock time to partition the dataset and build every shard
    /// engine (graph-only indexes built once, thanks to sharing).
    pub build_time: Duration,
}

impl MemoryMeasurement {
    /// Total approximate resident bytes under the shared ownership model.
    pub fn total_bytes(&self) -> usize {
        self.shared_bytes + self.per_shard_bytes
    }

    /// How many times smaller the shared model is than per-shard cloning.
    pub fn savings_factor(&self) -> f64 {
        self.cloned_estimate_bytes as f64 / self.total_bytes().max(1) as f64
    }
}

/// Builds a [`ShardedEngine`] over (a clone of) `dataset` and attributes
/// its approximate resident bytes: shared (graph, landmarks, CH when
/// `with_ch` forces the build, social cache) versus per-shard (locations,
/// grids, AIS indexes), plus the pre-refactor cloning counterfactual.
///
/// The attribution is not an assumption: the function asserts — via
/// [`GeoSocialDataset::shares_core_with`] and pointer-equal indexes —
/// that every shard really references shard 0's instances before counting
/// them once.
pub fn measure_memory(
    dataset: &GeoSocialDataset,
    policy: Partitioning,
    shards: usize,
    with_ch: bool,
) -> MemoryMeasurement {
    let build_started = Instant::now();
    let mut builder = ShardedEngine::builder(dataset.clone())
        .shards(shards)
        .partitioning(policy);
    if with_ch {
        builder = builder.configure_engines(|b| b.with_ch());
    }
    let engine = builder.build().expect("sharded engine builds");
    if with_ch {
        // Force the lazy CH build so its bytes are visible.
        engine
            .shard_engine(0)
            .require_contraction_hierarchy()
            .expect("CH builds");
    }
    let build_time = build_started.elapsed();

    let first = engine.shard_engine(0);
    let shared = first.memory_breakdown();
    let mut per_shard_bytes = 0usize;
    for s in 0..engine.shard_count() {
        let shard = engine.shard_engine(s);
        // The shared attribution is only honest if the instances really are
        // shared — prove it before counting them once.
        assert!(
            shard.dataset().shares_core_with(first.dataset()),
            "shard {s} does not share the dataset core"
        );
        assert!(
            std::ptr::eq(shard.landmarks(), first.landmarks()),
            "shard {s} does not share the landmark set"
        );
        if with_ch {
            assert!(
                std::ptr::eq(
                    shard
                        .contraction_hierarchy()
                        .expect("CH built on every shard handle"),
                    first.contraction_hierarchy().expect("CH built"),
                ),
                "shard {s} does not share the CH index"
            );
        }
        per_shard_bytes += shard.memory_breakdown().per_engine_bytes();
    }
    let shared_bytes = shared.shared_bytes();
    MemoryMeasurement {
        shards: engine.shard_count(),
        shared_bytes,
        per_shard_bytes,
        cloned_estimate_bytes: shared_bytes * engine.shard_count() + per_shard_bytes,
        build_time,
    }
}

/// The sharing-class breakdown of a single (unsharded) engine, re-exported
/// for report rendering.
pub fn single_engine_breakdown(dataset: &GeoSocialDataset) -> EngineMemory {
    ssrq_core::GeoSocialEngine::builder(dataset.clone())
        .build()
        .expect("engine builds")
        .memory_breakdown()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssrq_data::DatasetConfig;

    #[test]
    fn shared_bytes_do_not_scale_with_shard_count() {
        let dataset = DatasetConfig::gowalla_like(400).generate();
        let two = measure_memory(
            &dataset,
            Partitioning::SpatialGrid { cells_per_axis: 8 },
            2,
            false,
        );
        let eight = measure_memory(
            &dataset,
            Partitioning::SpatialGrid { cells_per_axis: 8 },
            8,
            false,
        );
        assert_eq!(two.shared_bytes, eight.shared_bytes);
        assert!(eight.cloned_estimate_bytes > eight.total_bytes());
        assert!(eight.savings_factor() > two.savings_factor());
        // The counterfactual grows ~linearly in the shard count; the shared
        // model only adds per-shard location state.
        assert!(
            eight.cloned_estimate_bytes - two.cloned_estimate_bytes
                >= 5 * two.shared_bytes
                    + (eight.per_shard_bytes.saturating_sub(two.per_shard_bytes))
        );
    }

    #[test]
    fn ch_bytes_are_counted_once_when_forced() {
        let dataset = DatasetConfig::gowalla_like(120).generate();
        let without = measure_memory(&dataset, Partitioning::UserHash, 4, false);
        let with = measure_memory(&dataset, Partitioning::UserHash, 4, true);
        assert!(with.shared_bytes > without.shared_bytes);
        assert_eq!(with.per_shard_bytes, without.per_shard_bytes);
    }
}
