//! Scatter-gather exactness: for every algorithm, spatial tiling and
//! shard count, `ShardedEngine::run` must return a ranked list identical to
//! the single unpartitioned `GeoSocialEngine::run` — same users, same
//! scores, same order — and the cross-shard stream must replay exactly the
//! gathered result.
//!
//! Shard datasets inherit the global normalization constants and the
//! coordinator broadcasts the query user's location as the request origin,
//! so the comparison is `assert_eq!` on the ranked vectors (bit-identical
//! scores), not a tolerance check.

use geosocial_ssrq::core::{Algorithm, GeoSocialEngine, QueryRequest};
use geosocial_ssrq::data::{DatasetConfig, QueryWorkload};
use geosocial_ssrq::prelude::{Point, Rect};
use geosocial_ssrq::shard::{Partitioning, ShardedEngine};

/// A fine tiling, and a coarse one whose four cells cannot balance three
/// shards.
const POLICIES: [Partitioning; 2] = [
    Partitioning::SpatialGrid { cells_per_axis: 2 },
    Partitioning::SpatialGrid { cells_per_axis: 8 },
];

fn request(user: u32, k: usize, alpha: f64, algorithm: Algorithm) -> QueryRequest {
    QueryRequest::for_user(user)
        .k(k)
        .alpha(alpha)
        .algorithm(algorithm)
        .build()
        .expect("valid request")
}

#[test]
fn sharded_run_is_identical_to_the_single_engine_for_the_main_algorithms() {
    let dataset = DatasetConfig::gowalla_like(900).with_seed(4242).generate();
    let workload = QueryWorkload::generate(&dataset, 3, 17);
    let single = GeoSocialEngine::builder(dataset.clone()).build().unwrap();
    let algorithms = [
        Algorithm::Exhaustive,
        Algorithm::Sfa,
        Algorithm::Spa,
        Algorithm::Tsa,
        Algorithm::TsaQc,
        Algorithm::AisBid,
        Algorithm::AisMinus,
        Algorithm::Ais,
    ];
    for policy in POLICIES {
        for shards in [1usize, 3] {
            let sharded = ShardedEngine::builder(dataset.clone())
                .shards(shards)
                .partitioning(policy)
                .build()
                .unwrap();
            assert_eq!(sharded.shard_count(), shards);
            // Every user is owned by exactly one shard and located users
            // are distributed accordingly.
            let occupancy: usize = sharded.occupancy().iter().sum();
            assert_eq!(occupancy, dataset.located_user_count());
            for &user in &workload.users {
                for algorithm in algorithms {
                    for &(k, alpha) in &[(1usize, 0.5), (20, 0.3), (20, 0.8)] {
                        let req = request(user, k, alpha, algorithm);
                        let expected = single.run(&req).unwrap();
                        let (got, stats) = sharded.run_with_stats(&req).unwrap();
                        assert_eq!(
                            got.ranked,
                            expected.ranked,
                            "{} differs from the single engine ({policy:?}, {shards} shards, user {user}, k {k}, alpha {alpha})",
                            algorithm.name()
                        );
                        assert_eq!(got.k, expected.k);
                        assert_eq!(
                            stats.executed_shards() + stats.skipped_shards(),
                            shards,
                            "every shard needs an outcome"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn sharded_run_honours_request_filters_identically() {
    let dataset = DatasetConfig::gowalla_like(700).with_seed(99).generate();
    let workload = QueryWorkload::generate(&dataset, 3, 5);
    let single = GeoSocialEngine::builder(dataset.clone()).build().unwrap();
    for policy in POLICIES {
        let sharded = ShardedEngine::builder(dataset.clone())
            .shards(4)
            .partitioning(policy)
            .build()
            .unwrap();
        for &user in &workload.users {
            let excluded: Vec<u32> = (0..dataset.user_count() as u32)
                .filter(|u| u % 5 == user % 5)
                .collect();
            let base = QueryRequest::for_user(user)
                .k(12)
                .alpha(0.4)
                .within(Rect::new(Point::new(0.1, 0.1), Point::new(0.7, 0.8)))
                .exclude(excluded)
                .max_score(0.6)
                .build()
                .unwrap();
            for algorithm in [Algorithm::Exhaustive, Algorithm::Tsa, Algorithm::Ais] {
                let req = base.clone().with_algorithm(algorithm);
                let expected = single.run(&req).unwrap();
                let got = sharded.run(&req).unwrap();
                assert_eq!(
                    got.ranked,
                    expected.ranked,
                    "{} differs under filters ({policy:?}, user {user})",
                    algorithm.name()
                );
            }
        }
    }
}

#[test]
fn spatial_partitioning_skips_shards_the_threshold_proves_useless() {
    // A tight score cutoff plus spatially compact shards: the query's own
    // neighbourhood answers the query and remote shards are skipped by the
    // rect / threshold pruning.
    let dataset = DatasetConfig::gowalla_like(1_500).with_seed(7).generate();
    let workload = QueryWorkload::generate(&dataset, 6, 3);
    let sharded = ShardedEngine::builder(dataset.clone())
        .shards(8)
        .partitioning(Partitioning::SpatialGrid { cells_per_axis: 16 })
        .build()
        .unwrap();
    let single = GeoSocialEngine::builder(dataset).build().unwrap();
    let mut total_skipped = 0usize;
    for &user in &workload.users {
        let req = QueryRequest::for_user(user)
            .k(5)
            .alpha(0.2) // spatial-heavy: rect bounds are informative
            .max_score(0.12)
            .algorithm(Algorithm::Ais)
            .build()
            .unwrap();
        let expected = single.run(&req).unwrap();
        let (got, stats) = sharded.run_with_stats(&req).unwrap();
        assert_eq!(got.ranked, expected.ranked, "user {user}");
        total_skipped += stats.skipped_shards();
    }
    assert!(
        total_skipped > 0,
        "expected the rect/threshold pruning to skip at least one shard"
    );
}

#[test]
fn sharded_ch_and_cached_variants_match_the_single_engine() {
    // CH construction is quadratic-ish on hub-heavy graphs, so this stays
    // tiny (each shard builds its own CH over the replicated graph).
    let dataset = DatasetConfig::gowalla_like(140).with_seed(77).generate();
    let workload = QueryWorkload::generate(&dataset, 2, 23);
    let cache_users = workload.users.clone();
    let single = GeoSocialEngine::builder(dataset.clone())
        .with_ch()
        .cache_social_neighbors(cache_users.clone(), 80)
        .build()
        .unwrap();
    let sharded = ShardedEngine::builder(dataset)
        .shards(2)
        .partitioning(Partitioning::SpatialGrid { cells_per_axis: 4 })
        .configure_engines(move |b| b.with_ch().cache_social_neighbors(cache_users.clone(), 80))
        .build()
        .unwrap();
    for &user in &workload.users {
        for algorithm in [
            Algorithm::SfaCh,
            Algorithm::SpaCh,
            Algorithm::TsaCh,
            Algorithm::SfaCached,
        ] {
            let req = request(user, 10, 0.4, algorithm);
            let expected = single.run(&req).unwrap();
            let got = sharded.run(&req).unwrap();
            // These algorithms mix *two* exact distance mechanisms (CH
            // point-to-point / cached lists alongside the live Dijkstra
            // expansion), and which mechanism evaluates a given user
            // depends on the candidate interleaving — which partitioning
            // legitimately changes.  Both mechanisms are exact but sum the
            // same path in different floating-point orders, so scores can
            // differ by an ulp; compare with the suite's standard
            // tolerance check instead of bitwise.
            assert!(
                got.same_users_and_scores(&expected, 1e-9),
                "{} differs from the single engine (user {user}):\n  got      {:?}\n  expected {:?}",
                algorithm.name(),
                got.users(),
                expected.users()
            );
        }
    }
    // The lazy per-shard CH indexes were built on demand.
    assert!(sharded.shard_engine(0).contraction_hierarchy().is_some());
}

#[test]
fn cross_shard_stream_replays_the_gathered_result_in_order() {
    let dataset = DatasetConfig::gowalla_like(800).with_seed(13).generate();
    let workload = QueryWorkload::generate(&dataset, 4, 29);
    for policy in POLICIES {
        let sharded = ShardedEngine::builder(dataset.clone())
            .shards(3)
            .partitioning(policy)
            .build()
            .unwrap();
        let mut session = sharded.session();
        for &user in &workload.users {
            for algorithm in [Algorithm::Sfa, Algorithm::Tsa, Algorithm::Ais] {
                let req = request(user, 15, 0.3, algorithm);
                let eager = session.run(&req).unwrap();
                // Full drain: identical entries, identical order.
                let streamed: Vec<_> = session.stream(&req).unwrap().collect();
                assert_eq!(
                    streamed,
                    eager.ranked,
                    "{} stream != run ({policy:?}, user {user})",
                    algorithm.name()
                );
                // Every prefix equals the eager top-j (the merge yields in
                // global ascending order, so this is a pure prefix check).
                let mut stream = session.stream(&req).unwrap();
                let prefix: Vec<_> = stream.by_ref().take(4).collect();
                assert_eq!(prefix.as_slice(), &eager.ranked[..prefix.len()]);
                // A truncated stream does no more search work than draining
                // it fully.  (The eager scatter is not the right baseline
                // here: its threshold forwarding may *skip* whole shards,
                // which the always-exact streaming merge cannot.)
                let prefix_work = stream.stats().relaxed_edges;
                let _rest: Vec<_> = stream.by_ref().collect();
                let drained_work = stream.stats().relaxed_edges;
                assert!(prefix_work <= drained_work);
            }
        }
    }
}

#[test]
fn single_shard_degenerates_to_the_plain_engine() {
    let dataset = DatasetConfig::gowalla_like(400).with_seed(1).generate();
    let single = GeoSocialEngine::builder(dataset.clone()).build().unwrap();
    let sharded = ShardedEngine::builder(dataset)
        .shards(1)
        .partitioning(Partitioning::SpatialGrid { cells_per_axis: 8 })
        .build()
        .unwrap();
    let workload = QueryWorkload::generate(single.dataset(), 3, 8);
    for &user in &workload.users {
        let req = request(user, 10, 0.3, Algorithm::Ais);
        assert_eq!(
            sharded.run(&req).unwrap().ranked,
            single.run(&req).unwrap().ranked
        );
    }
}

#[test]
fn sharded_batch_matches_per_query_runs_in_input_order() {
    let dataset = DatasetConfig::gowalla_like(600).with_seed(21).generate();
    let workload = QueryWorkload::generate(&dataset, 8, 2);
    let sharded = ShardedEngine::builder(dataset)
        .shards(3)
        .partitioning(Partitioning::SpatialGrid { cells_per_axis: 8 })
        .build()
        .unwrap();
    let batch: Vec<QueryRequest> = workload
        .users
        .iter()
        .map(|&u| request(u, 10, 0.3, Algorithm::Ais))
        .collect();
    let sequential: Vec<_> = batch.iter().map(|r| sharded.run(r).unwrap()).collect();
    for threads in [1usize, 2, 4] {
        let results = sharded.run_batch_with_threads(&batch, threads);
        assert_eq!(results.len(), batch.len());
        for (got, expected) in results.iter().zip(sequential.iter()) {
            assert_eq!(got.as_ref().unwrap().ranked, expected.ranked);
        }
    }
}
