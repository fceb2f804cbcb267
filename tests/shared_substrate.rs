//! Shared-immutable-substrate regressions: a sharded deployment must hold
//! exactly **one** graph, one landmark set, one Contraction Hierarchies
//! index and one social neighbour cache across all shards (pointer
//! identity, not structural equality); sharing must survive churn,
//! migration and rebalancing; a sibling engine inherits its donor's
//! declarations with its indexes, while engines built independently own
//! independent indexes.  Lazy arm admission of the cross-shard stream is
//! covered at the end: truncated consumption must open strictly fewer shard
//! arms while full drains stay identical to the eager scatter-gather.

use geosocial_ssrq::core::{Algorithm, GeoSocialEngine, QueryRequest};
use geosocial_ssrq::data::{DatasetConfig, QueryWorkload};
use geosocial_ssrq::prelude::Point;
use geosocial_ssrq::shard::{Partitioning, ShardedEngine};

fn request(user: u32, k: usize, alpha: f64, algorithm: Algorithm) -> QueryRequest {
    QueryRequest::for_user(user)
        .k(k)
        .alpha(alpha)
        .algorithm(algorithm)
        .build()
        .expect("valid request")
}

/// The headline regression: an 8-shard build holds exactly one graph core,
/// one landmark set and — once a `*-CH` query ran — one CH instance.
#[test]
fn an_eight_shard_build_holds_one_graph_one_landmark_set_one_ch() {
    let dataset = DatasetConfig::gowalla_like(160).with_seed(99).generate();
    let workload = QueryWorkload::generate(&dataset, 2, 5);
    let sharded = ShardedEngine::builder(dataset.clone())
        .shards(8)
        .partitioning(Partitioning::SpatialGrid { cells_per_axis: 8 })
        .configure_engines(|b| b.with_ch())
        .build()
        .unwrap();

    let first = sharded.shard_engine(0);
    // One graph: every shard dataset shares the unpartitioned core (and so
    // does the caller's own handle).
    assert!(first.dataset().shares_core_with(&dataset));
    for s in 1..sharded.shard_count() {
        let shard = sharded.shard_engine(s);
        assert!(
            shard.dataset().shares_core_with(first.dataset()),
            "shard {s} holds its own graph core"
        );
        assert!(
            std::ptr::eq(shard.landmarks(), first.landmarks()),
            "shard {s} holds its own landmark set"
        );
        // The lazy CH has not been requested yet — nowhere.
        assert!(shard.contraction_hierarchy().is_none());
    }

    // One CH: the first *-CH query builds it once; every shard observes
    // the same instance.
    let user = workload.users[0];
    let got = sharded
        .run(&request(user, 8, 0.4, Algorithm::SfaCh))
        .unwrap();
    let oracle = sharded
        .run(&request(user, 8, 0.4, Algorithm::Exhaustive))
        .unwrap();
    assert!(got.same_users_and_scores(&oracle, 1e-9));
    let ch = first.contraction_hierarchy().expect("CH built");
    for s in 1..sharded.shard_count() {
        assert!(
            std::ptr::eq(
                ch,
                sharded
                    .shard_engine(s)
                    .contraction_hierarchy()
                    .expect("CH visible on every shard")
            ),
            "shard {s} holds its own CH instance"
        );
    }
}

/// The lazily built social neighbour cache is also built once and shared.
#[test]
fn shards_share_one_lazily_built_social_cache() {
    let dataset = DatasetConfig::gowalla_like(300).with_seed(7).generate();
    let users = QueryWorkload::generate(&dataset, 3, 11).users;
    let cache_users = users.clone();
    let sharded = ShardedEngine::builder(dataset)
        .shards(4)
        .configure_engines(move |b| b.cache_social_neighbors(cache_users.clone(), 60))
        .build()
        .unwrap();
    assert!(sharded.shard_engine(0).social_cache().is_none());
    sharded
        .run(&request(users[0], 10, 0.3, Algorithm::SfaCached))
        .unwrap();
    let cache = sharded.shard_engine(0).social_cache().expect("cache built");
    for s in 1..sharded.shard_count() {
        assert!(
            std::ptr::eq(
                cache,
                sharded
                    .shard_engine(s)
                    .social_cache()
                    .expect("cache visible on every shard")
            ),
            "shard {s} holds its own social cache"
        );
    }
}

/// Location churn, cross-shard migration and a full rebalance re-partition
/// locations only: the shared graph core and the graph-only indexes come
/// through untouched (same instances, not rebuilt equivalents).
#[test]
fn churn_migration_and_rebalance_preserve_the_shared_instances() {
    let dataset = DatasetConfig::gowalla_like(160).with_seed(31).generate();
    let mut sharded = ShardedEngine::builder(dataset)
        .shards(4)
        .partitioning(Partitioning::SpatialGrid { cells_per_axis: 8 })
        .configure_engines(|b| b.with_ch())
        .build()
        .unwrap();
    let user = QueryWorkload::generate(sharded.shard_engine(0).dataset(), 1, 3).users[0];
    sharded
        .run(&request(user, 6, 0.5, Algorithm::TsaCh))
        .unwrap();
    let core_witness = sharded.shard_engine(0).dataset().clone();
    // Addresses, not references: the engines are mutated below.
    let landmarks: *const _ = sharded.shard_engine(0).landmarks();
    let ch: *const _ = sharded.shard_engine(0).contraction_hierarchy().unwrap();

    // Drive users across cell boundaries (guaranteed migrations for the
    // spatial policy), drop some, then rebalance.
    for (i, u) in (0..sharded.user_count() as u32).step_by(3).enumerate() {
        let p = Point::new(
            ((i as f64) * 0.37 + 0.05) % 1.0,
            ((i as f64) * 0.61 + 0.11) % 1.0,
        );
        sharded.update_location(u, p).unwrap();
    }
    sharded
        .remove_location((user + 1) % sharded.user_count() as u32)
        .unwrap();
    let report = sharded.rebalance();
    assert_eq!(report.occupancy.len(), 4);

    for s in 0..sharded.shard_count() {
        let shard = sharded.shard_engine(s);
        assert!(shard.dataset().shares_core_with(&core_witness));
        assert!(std::ptr::eq(shard.landmarks(), landmarks));
        assert!(std::ptr::eq(shard.contraction_hierarchy().unwrap(), ch));
    }
    // And the engine still answers exactly after all of it.
    let oracle = sharded
        .run(&request(user, 6, 0.5, Algorithm::Exhaustive))
        .unwrap();
    let got = sharded
        .run(&request(user, 6, 0.5, Algorithm::TsaCh))
        .unwrap();
    assert!(got.same_users_and_scores(&oracle, 1e-9));
}

/// A sibling built with `share_graph_artifacts_with` and no declarations
/// of its own inherits the donor's: it answers `SFA-CH` and `AIS-Cache`
/// exactly, and the indexes it builds on the way are the donor's instances.
#[test]
fn a_sibling_inherits_the_donors_declarations_with_its_indexes() {
    let dataset = DatasetConfig::gowalla_like(150).with_seed(55).generate();
    let users = QueryWorkload::generate(&dataset, 2, 9).users;
    let donor = GeoSocialEngine::builder(dataset.clone())
        .with_ch()
        .cache_social_neighbors(users.clone(), 60)
        .build()
        .unwrap();
    let sibling = GeoSocialEngine::builder(dataset.clone())
        .share_graph_artifacts_with(&donor)
        .build()
        .unwrap();
    assert!(donor.contraction_hierarchy().is_none());
    assert!(donor.social_cache().is_none());

    for algorithm in [Algorithm::SfaCh, Algorithm::SfaCached] {
        let got = sibling.run(&request(users[0], 6, 0.4, algorithm)).unwrap();
        let oracle = sibling
            .run(&request(users[0], 6, 0.4, Algorithm::Exhaustive))
            .unwrap();
        assert!(
            got.same_users_and_scores(&oracle, 1e-9),
            "{} on the sibling",
            algorithm.name()
        );
    }
    // The sibling triggered both builds; the donor observes them.
    assert!(std::ptr::eq(donor.landmarks(), sibling.landmarks()));
    assert!(std::ptr::eq(
        donor.contraction_hierarchy().expect("built by the sibling"),
        sibling.contraction_hierarchy().unwrap()
    ));
    assert!(std::ptr::eq(
        donor.social_cache().expect("built by the sibling"),
        sibling.social_cache().unwrap()
    ));
}

/// Engines built independently over clones of one dataset share the graph
/// but not the indexes: ownership is the engine's, not the dataset's, so
/// each builds (and each answers from) its own CH.
#[test]
fn independent_engines_over_one_dataset_own_independent_chs() {
    let dataset = DatasetConfig::gowalla_like(150).with_seed(71).generate();
    let user = QueryWorkload::generate(&dataset, 1, 2).users[0];
    let make = || {
        GeoSocialEngine::builder(dataset.clone())
            .with_ch()
            .build()
            .unwrap()
    };
    let (e1, e2) = (make(), make());
    assert!(e1.dataset().shares_core_with(e2.dataset()));
    for engine in [&e1, &e2] {
        let got = engine
            .run(&request(user, 5, 0.5, Algorithm::SpaCh))
            .unwrap();
        let oracle = engine
            .run(&request(user, 5, 0.5, Algorithm::Exhaustive))
            .unwrap();
        assert!(got.same_users_and_scores(&oracle, 1e-9));
    }
    assert!(!std::ptr::eq(
        e1.contraction_hierarchy().unwrap(),
        e2.contraction_hierarchy().unwrap()
    ));
}

/// Lazy arm admission: a `take(1)` consumer on a spatially spread dataset
/// opens strictly fewer shard arms than the shard count, while a full
/// drain still replays exactly the eager scatter-gather result.
#[test]
fn lazy_arm_admission_saves_opens_and_stays_exact() {
    let dataset = DatasetConfig::gowalla_like(900).with_seed(123).generate();
    let workload = QueryWorkload::generate(&dataset, 4, 19);
    let sharded = ShardedEngine::builder(dataset)
        .shards(8)
        .partitioning(Partitioning::SpatialGrid { cells_per_axis: 16 })
        .build()
        .unwrap();
    let mut session = sharded.session();
    let mut saved_anywhere = false;
    for &user in &workload.users {
        for algorithm in [Algorithm::Sfa, Algorithm::Ais] {
            let req = request(user, 12, 0.3, algorithm);
            let eager = session.run(&req).unwrap();

            // Full drain: identical entries, identical order, and no arm
            // beyond the non-skipped set was opened.
            {
                let mut stream = session.stream(&req).unwrap();
                let drained: Vec<_> = stream.by_ref().collect();
                assert_eq!(drained, eager.ranked, "{} drain != run", algorithm.name());
                assert!(stream.opened_shards() + stream.skipped_shards() <= sharded.shard_count());
            }

            // Truncated consumption: opening every arm cannot be necessary
            // for the global minimum when the shards' rect lower bounds
            // separate them from the head.
            let mut stream = session.stream(&req).unwrap();
            let first = stream.next().expect("non-empty result");
            assert_eq!(first, eager.ranked[0]);
            if stream.opened_shards() + stream.skipped_shards() < sharded.shard_count() {
                saved_anywhere = true;
            }
        }
    }
    assert!(
        saved_anywhere,
        "take(1) never avoided opening a shard arm on a 16x16 spatial tiling"
    );
}
