//! Regression suite for the memory-lean substrate: the sparse
//! (occupancy-aware) AIS layout and the compressed CSR adjacency must be
//! pure storage changes — every answer stays bit-identical to the oracle
//! and to the standard layout, under every request filter, and the indexes
//! of empty or fully-migrated engines must actually be cheap.

use geosocial_ssrq::core::{Algorithm, GeoSocialDataset, GeoSocialEngine, QueryRequest};
use geosocial_ssrq::data::{DatasetConfig, QueryWorkload};
use geosocial_ssrq::graph::CsrLayout;
use geosocial_ssrq::prelude::{Partitioning, Point, Rect, ShardedEngine};

/// The empty-index byte ceiling of the sparse AIS layout (the pre-refactor
/// dense layout cost ~2 MiB regardless of residency).
const EMPTY_AIS_BUDGET: usize = 16 * 1024;

/// Every processing algorithm, the exhaustive oracle included.
const ALL_TWELVE: [Algorithm; 12] = [
    Algorithm::Exhaustive,
    Algorithm::Sfa,
    Algorithm::Spa,
    Algorithm::Tsa,
    Algorithm::TsaQc,
    Algorithm::AisBid,
    Algorithm::AisMinus,
    Algorithm::Ais,
    Algorithm::SfaCh,
    Algorithm::SpaCh,
    Algorithm::TsaCh,
    Algorithm::SfaCached,
];

#[test]
fn all_twelve_algorithms_agree_under_filters_on_the_sparse_ais_index() {
    // Small graph so the CH baselines stay affordable (their witness search
    // blows up on hub-heavy synthetic networks).
    let dataset = DatasetConfig::gowalla_like(160).with_seed(77).generate();
    let workload = QueryWorkload::generate(&dataset, 3, 29);
    let engine = GeoSocialEngine::builder(dataset)
        .with_ch()
        .cache_social_neighbors(workload.users.clone(), 100)
        .build()
        .expect("engine builds");
    let window = Rect::new(Point::new(0.05, 0.05), Point::new(0.9, 0.95));
    for &user in &workload.users {
        let excluded: Vec<u32> = (0..engine.dataset().user_count() as u32)
            .filter(|u| u % 5 == user % 5)
            .collect();
        let base = QueryRequest::for_user(user)
            .k(12)
            .alpha(0.4)
            .within(window)
            .exclude(excluded)
            .max_score(0.6)
            .build()
            .expect("valid request");
        let oracle = engine
            .run(&base.clone().with_algorithm(Algorithm::Exhaustive))
            .expect("oracle runs");
        for algorithm in ALL_TWELVE {
            let result = engine
                .run(&base.clone().with_algorithm(algorithm))
                .expect("algorithm runs");
            assert!(
                result.same_users_and_scores(&oracle, 1e-9),
                "{} disagrees with the oracle under filters (user {user}):\n  got      {:?}\n  expected {:?}",
                algorithm.name(),
                result.users(),
                oracle.users()
            );
        }
    }
}

#[test]
fn compressed_layout_answers_are_bit_identical_through_the_full_engine() {
    // Same topology and locations, two physical graph layouts: every ranked
    // score must be exactly equal (==, not within-tolerance) — the layout
    // is storage, not semantics.
    let config = DatasetConfig::gowalla_like(700).with_seed(9);
    let graph = config.generate_graph();
    let locations = config.generate_social_locations(&graph);
    let standard = GeoSocialDataset::new(graph.clone(), locations.clone()).unwrap();
    let compressed =
        GeoSocialDataset::new(graph.with_layout(CsrLayout::Compressed), locations).unwrap();
    let a = GeoSocialEngine::builder(standard).build().unwrap();
    let b = GeoSocialEngine::builder(compressed).build().unwrap();
    let workload = QueryWorkload::generate(a.dataset(), 4, 41);
    for &user in &workload.users {
        for algorithm in [Algorithm::Sfa, Algorithm::Tsa, Algorithm::Ais] {
            let request = QueryRequest::for_user(user)
                .k(15)
                .alpha(0.3)
                .algorithm(algorithm)
                .build()
                .unwrap();
            let left = a.run(&request).unwrap();
            let right = b.run(&request).unwrap();
            assert_eq!(
                left.users(),
                right.users(),
                "{} user lists diverge across layouts",
                algorithm.name()
            );
            for (l, r) in left.ranked.iter().zip(&right.ranked) {
                assert!(
                    l.score == r.score,
                    "{} score for user {} differs across layouts: {} vs {}",
                    algorithm.name(),
                    l.user,
                    l.score,
                    r.score
                );
            }
        }
    }
}

#[test]
fn fully_migrated_engine_shrinks_and_keeps_answering_exactly() {
    let dataset = DatasetConfig::gowalla_like(400).with_seed(5).generate();
    let users: Vec<u32> = (0..dataset.user_count() as u32).collect();
    let mut engine = GeoSocialEngine::builder(dataset).build().unwrap();
    let populated = engine.memory_breakdown();
    assert!(populated.ais_occupied_cells > 0);

    // Migrate every resident away, as a shard drain would.
    for &user in &users {
        engine.remove_location(user).expect("removal succeeds");
    }
    let drained = engine.memory_breakdown();
    assert_eq!(drained.ais_occupied_cells, 0);
    assert!(
        drained.ais_bytes <= EMPTY_AIS_BUDGET,
        "drained AIS index still costs {} bytes",
        drained.ais_bytes
    );
    assert_eq!(drained.ais_occupancy_ratio(), 0.0);

    // With nobody located, every algorithm must agree on the empty answer.
    let query_user = users[7];
    let base = QueryRequest::for_user(query_user)
        .k(10)
        .alpha(0.3)
        .origin(Point::new(0.5, 0.5))
        .build()
        .unwrap();
    let oracle = engine
        .run(&base.clone().with_algorithm(Algorithm::Exhaustive))
        .unwrap();
    assert!(oracle.ranked.is_empty());
    for algorithm in [Algorithm::Spa, Algorithm::Tsa, Algorithm::Ais] {
        let result = engine.run(&base.clone().with_algorithm(algorithm)).unwrap();
        assert!(result.same_users_and_scores(&oracle, 1e-9));
    }

    // Re-populating recycles the vacated slots and restores exact answers.
    for &user in users.iter().take(60) {
        let x = 0.1 + (user as f64 % 9.0) / 10.0;
        let y = 0.1 + (user as f64 % 7.0) / 8.0;
        engine
            .update_location(user, Point::new(x, y))
            .expect("re-insert succeeds");
    }
    let repopulated = engine.memory_breakdown();
    assert!(repopulated.ais_occupied_cells > 0);
    let oracle = engine
        .run(&base.clone().with_algorithm(Algorithm::Exhaustive))
        .unwrap();
    assert!(!oracle.ranked.is_empty());
    for algorithm in [Algorithm::Spa, Algorithm::Tsa, Algorithm::Ais] {
        let result = engine.run(&base.clone().with_algorithm(algorithm)).unwrap();
        assert!(
            result.same_users_and_scores(&oracle, 1e-9),
            "{} disagrees after drain + re-populate",
            algorithm.name()
        );
    }
}

#[test]
fn restrict_locations_to_nothing_builds_a_featherweight_engine() {
    let dataset = DatasetConfig::gowalla_like(500).with_seed(13).generate();
    let empty = dataset.restrict_locations(|_| false);
    assert!(empty.shares_core_with(&dataset));
    assert_eq!(empty.located_user_count(), 0);

    let engine = GeoSocialEngine::builder(empty)
        .build()
        .expect("engine builds");
    let memory = engine.memory_breakdown();
    assert_eq!(memory.ais_occupied_cells, 0);
    // The AIS bytes include its leaf grid, the one SPA and TSA search.
    assert!(
        memory.ais_bytes <= EMPTY_AIS_BUDGET,
        "empty-view AIS index costs {} bytes",
        memory.ais_bytes
    );

    let request = QueryRequest::for_user(3)
        .k(5)
        .alpha(0.5)
        .origin(Point::new(0.4, 0.6))
        .algorithm(Algorithm::Ais)
        .build()
        .unwrap();
    let result = engine.run(&request).expect("query over empty view runs");
    assert!(result.ranked.is_empty());
}

#[test]
fn zero_resident_shards_stay_cheap_at_high_shard_counts() {
    // Confine all locations to one tight cluster: the spatial partitioner
    // balances *occupied* cells across shards, so with fewer occupied cells
    // than shards several shards must end up without residents.
    let base = DatasetConfig::gowalla_like(600).with_seed(21).generate();
    let locations: Vec<(u32, Point)> = base.located_users().collect();
    // Center the keep-window on the densest spot so enough users survive.
    let half = 0.05;
    let (center, _) = locations
        .iter()
        .map(|&(_, c)| {
            let inside = locations
                .iter()
                .filter(|&&(_, p)| (p.x - c.x).abs() <= half && (p.y - c.y).abs() <= half)
                .count();
            (c, inside)
        })
        .max_by_key(|&(_, inside)| inside)
        .unwrap();
    let window = Rect::new(
        Point::new(center.x - half, center.y - half),
        Point::new(center.x + half, center.y + half),
    );
    let kept: Vec<u32> = locations
        .iter()
        .filter(|&&(_, p)| window.contains(p))
        .map(|&(u, _)| u)
        .collect();
    assert!(kept.len() >= 10, "cluster too thin: {} users", kept.len());
    let dataset = base.restrict_locations(|u| kept.contains(&u));
    assert_eq!(dataset.located_user_count(), kept.len());

    let single = GeoSocialEngine::builder(dataset.clone()).build().unwrap();
    for shards in [12usize, 24] {
        let engine = ShardedEngine::builder(dataset.clone())
            .shards(shards)
            .partitioning(Partitioning::SpatialGrid { cells_per_axis: 16 })
            .build()
            .expect("sharded engine builds");
        let occupancy = engine.occupancy();
        assert_eq!(occupancy.iter().sum::<usize>(), kept.len());
        let empty_shards: Vec<usize> = (0..engine.shard_count())
            .filter(|&s| occupancy[s] == 0)
            .collect();
        assert!(
            !empty_shards.is_empty(),
            "expected zero-resident shards at {shards} shards, occupancy {occupancy:?}"
        );
        for &s in &empty_shards {
            let memory = engine.shard_engine(s).memory_breakdown();
            assert_eq!(memory.ais_occupied_cells, 0, "shard {s} occupancy");
            // Includes the leaf grid, the one SPA and TSA search.
            assert!(
                memory.ais_bytes <= EMPTY_AIS_BUDGET,
                "zero-resident shard {s} AIS index costs {} bytes",
                memory.ais_bytes
            );
        }
        // Cross-shard answers stay exact even though most shards are thin
        // or empty.
        for &user in kept.iter().take(4) {
            let request = QueryRequest::for_user(user)
                .k(10)
                .alpha(0.3)
                .algorithm(Algorithm::Ais)
                .build()
                .unwrap();
            let sharded = engine.run(&request).expect("sharded query runs");
            let reference = single.run(&request).expect("single query runs");
            assert!(
                sharded.same_users_and_scores(&reference, 1e-9),
                "sharded answer diverges at {shards} shards (user {user})"
            );
        }
    }
}
