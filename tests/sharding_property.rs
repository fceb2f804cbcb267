//! Property test: a `ShardedEngine` under random location churn (updates,
//! removals, re-appearances — including user migration across spatial
//! partition boundaries) must keep answering every query identically to a
//! single `GeoSocialEngine` receiving the same churn, across interleaved
//! rebalance passes.

use geosocial_ssrq::core::{Algorithm, GeoSocialEngine, QueryRequest};
use geosocial_ssrq::data::{DatasetConfig, QueryWorkload};
use geosocial_ssrq::prelude::Point;
use geosocial_ssrq::shard::{Partitioning, ShardedEngine};
use rand::prelude::*;
use rand::rngs::StdRng;

const ALGORITHMS: [Algorithm; 4] = [
    Algorithm::Exhaustive,
    Algorithm::Sfa,
    Algorithm::Tsa,
    Algorithm::Ais,
];

fn assert_agreement(sharded: &ShardedEngine, single: &GeoSocialEngine, users: &[u32], label: &str) {
    for &user in users {
        for algorithm in ALGORITHMS {
            let request = QueryRequest::for_user(user)
                .k(12)
                .alpha(0.4)
                .algorithm(algorithm)
                .build()
                .unwrap();
            let expected = single.run(&request).unwrap();
            let got = sharded.run(&request).unwrap();
            assert_eq!(
                got.ranked,
                expected.ranked,
                "{} diverged {label} (user {user})",
                algorithm.name()
            );
        }
    }
}

fn churn_round(
    rng: &mut StdRng,
    sharded: &mut ShardedEngine,
    single: &mut GeoSocialEngine,
    ops: usize,
) -> usize {
    let n = sharded.user_count() as u32;
    let mut migrations = 0usize;
    for _ in 0..ops {
        let user = rng.gen_range(0..n);
        if rng.gen_bool(0.15) {
            sharded.remove_location(user).unwrap();
            single.remove_location(user).unwrap();
        } else {
            // Uniform over the domain: most moves cross a tiling cell
            // boundary, so the spatial policy migrates users routinely.
            let p = Point::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
            // `None`: the user has no location, so nothing migrates.
            let before = sharded.owner_of(user);
            sharded.update_location(user, p).unwrap();
            single.update_location(user, p).unwrap();
            if before.is_some() && sharded.owner_of(user) != before {
                migrations += 1;
            }
        }
    }
    migrations
}

fn run_property(policy: Partitioning, shards: usize, seed: u64) -> usize {
    let dataset = DatasetConfig::gowalla_like(450).with_seed(321).generate();
    let workload = QueryWorkload::generate(&dataset, 3, seed);
    let mut single = GeoSocialEngine::builder(dataset.clone()).build().unwrap();
    let mut sharded = ShardedEngine::builder(dataset)
        .shards(shards)
        .partitioning(policy)
        .build()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut migrations = 0usize;
    assert_agreement(&sharded, &single, &workload.users, "before any churn");
    for round in 0..4 {
        migrations += churn_round(&mut rng, &mut sharded, &mut single, 40);
        assert_agreement(
            &sharded,
            &single,
            &workload.users,
            &format!("after churn round {round} ({policy:?})"),
        );
        if round == 2 {
            let report = sharded.rebalance();
            assert_eq!(
                report.occupancy.iter().sum::<usize>(),
                single.dataset().located_user_count(),
                "rebalance must not lose residents"
            );
            assert_agreement(
                &sharded,
                &single,
                &workload.users,
                &format!("after rebalance ({policy:?})"),
            );
        }
    }
    // Location state ends identical on both sides.
    for user in 0..sharded.user_count() as u32 {
        assert_eq!(sharded.location(user), single.dataset().location(user));
    }
    migrations
}

#[test]
fn spatial_partitioning_survives_random_churn_with_migration() {
    let migrations = run_property(Partitioning::SpatialGrid { cells_per_axis: 6 }, 3, 0xBEEF);
    assert!(
        migrations > 0,
        "uniform churn should push users across cell boundaries"
    );
}

#[test]
fn rebalance_repairs_heavy_skew() {
    // Start balanced, then crowd everyone into one corner: the spatial
    // partition skews badly; a rebalance pass spreads the hot cells again.
    let dataset = DatasetConfig::gowalla_like(400).with_seed(5).generate();
    let mut single = GeoSocialEngine::builder(dataset.clone()).build().unwrap();
    let mut sharded = ShardedEngine::builder(dataset)
        .shards(4)
        .partitioning(Partitioning::SpatialGrid { cells_per_axis: 8 })
        .build()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(9);
    let n = sharded.user_count() as u32;
    for user in 0..n {
        if user % 2 == 0 {
            let p = Point::new(rng.gen_range(0.0..0.05), rng.gen_range(0.0..0.05));
            sharded.update_location(user, p).unwrap();
            single.update_location(user, p).unwrap();
        }
    }
    let before = sharded.occupancy();
    let spread = |occ: &[usize]| occ.iter().max().unwrap() - occ.iter().min().unwrap();
    let report = sharded.rebalance();
    assert!(
        spread(&report.occupancy) <= spread(&before),
        "rebalance should not worsen the occupancy spread: {before:?} -> {:?}",
        report.occupancy
    );
    // Exactness is preserved through the mass migration.
    let workload = QueryWorkload::generate(single.dataset(), 3, 44);
    assert_agreement(&sharded, &single, &workload.users, "after skew rebalance");
}
