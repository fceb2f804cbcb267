//! Integration test of the dynamic-location path: the engine's indexes must
//! stay exact while users move, appear and disappear.

use geosocial_ssrq::core::{Algorithm, GeoSocialEngine, QueryRequest};
use geosocial_ssrq::data::{DatasetConfig, QueryWorkload};
use geosocial_ssrq::spatial::Point;
use rand::prelude::*;
use rand::rngs::StdRng;

#[test]
fn indexes_stay_exact_under_random_location_churn() {
    let dataset = DatasetConfig::gowalla_like(1_500).with_seed(41).generate();
    let mut engine = GeoSocialEngine::builder(dataset).build().unwrap();
    let workload = QueryWorkload::generate(engine.dataset(), 5, 3);
    let mut rng = StdRng::seed_from_u64(99);

    for round in 0..8 {
        // Random churn: moves, fresh appearances, disappearances.
        for _ in 0..200 {
            let user = rng.gen_range(0..engine.dataset().user_count()) as u32;
            match rng.gen_range(0..10) {
                0 => engine.remove_location(user).unwrap(),
                _ => engine
                    .update_location(user, Point::new(rng.gen(), rng.gen()))
                    .unwrap(),
            }
        }
        for &user in &workload.users {
            // A query user may itself have lost its location; both the
            // oracle and the indexed algorithms must then agree on the
            // (possibly empty) answer.
            let request = QueryRequest::for_user(user)
                .k(12)
                .alpha(0.3)
                .build()
                .unwrap();
            let oracle = engine
                .run(&request.clone().with_algorithm(Algorithm::Exhaustive))
                .unwrap();
            for algorithm in [Algorithm::Spa, Algorithm::Tsa, Algorithm::Ais] {
                let result = engine
                    .run(&request.clone().with_algorithm(algorithm))
                    .unwrap();
                assert!(
                    result.same_users_and_scores(&oracle, 1e-9),
                    "{} diverged in round {round} for user {user}",
                    algorithm.name()
                );
            }
        }
    }
}

#[test]
fn moving_a_result_user_far_away_changes_the_answer() {
    let dataset = DatasetConfig::gowalla_like(1_000).with_seed(8).generate();
    let mut engine = GeoSocialEngine::builder(dataset).build().unwrap();
    let query_user = QueryWorkload::generate(engine.dataset(), 1, 17).users[0];
    let request = QueryRequest::for_user(query_user)
        .k(5)
        .alpha(0.2)
        .algorithm(Algorithm::Ais)
        .build()
        .unwrap();

    let before = engine.run(&request).unwrap();
    assert!(!before.ranked.is_empty());
    let top = before.ranked[0].user;

    // Push the current best companion to the opposite corner of the map.
    let query_loc = engine.dataset().location(query_user).unwrap();
    let far_corner = Point::new(
        if query_loc.x < 0.5 { 1.0 } else { 0.0 },
        if query_loc.y < 0.5 { 1.0 } else { 0.0 },
    );
    engine.update_location(top, far_corner).unwrap();

    let after = engine.run(&request).unwrap();
    let oracle = engine
        .run(&request.clone().with_algorithm(Algorithm::Exhaustive))
        .unwrap();
    assert!(after.same_users_and_scores(&oracle, 1e-9));
    // The moved user's spatial distance grew, so its score must be worse (or
    // it dropped out of the top-k entirely).
    let old_score = before.ranked[0].score;
    // The user may also have dropped out of the top-k entirely.
    if let Some(entry) = after.ranked.iter().find(|r| r.user == top) {
        assert!(entry.score > old_score);
    }
}

#[test]
fn removing_every_location_yields_empty_results() {
    let dataset = DatasetConfig::gowalla_like(300).with_seed(4).generate();
    let mut engine = GeoSocialEngine::builder(dataset).build().unwrap();
    let query_user = QueryWorkload::generate(engine.dataset(), 1, 2).users[0];
    let users: Vec<u32> = engine.dataset().graph().nodes().collect();
    for user in users {
        engine.remove_location(user).unwrap();
    }
    let request = QueryRequest::for_user(query_user)
        .k(10)
        .alpha(0.5)
        .build()
        .unwrap();
    for algorithm in [Algorithm::Exhaustive, Algorithm::Spa, Algorithm::Ais] {
        let result = engine
            .run(&request.clone().with_algorithm(algorithm))
            .unwrap();
        assert!(
            result.ranked.is_empty(),
            "{} returned results without any located user",
            algorithm.name()
        );
    }
}

#[test]
fn repeated_updates_of_the_same_user_are_idempotent_for_queries() {
    let dataset = DatasetConfig::gowalla_like(500).with_seed(21).generate();
    let mut engine = GeoSocialEngine::builder(dataset).build().unwrap();
    let query_user = QueryWorkload::generate(engine.dataset(), 1, 6).users[0];
    let request = QueryRequest::for_user(query_user)
        .k(8)
        .alpha(0.4)
        .algorithm(Algorithm::Ais)
        .build()
        .unwrap();

    // Thrash one user's location and finally park it at a fixed point; a
    // freshly built engine over the same final state must agree.
    let victim = (query_user + 1) % engine.dataset().user_count() as u32;
    for i in 0..50 {
        let p = Point::new((i as f64 * 0.019) % 1.0, (i as f64 * 0.037) % 1.0);
        engine.update_location(victim, p).unwrap();
    }
    let final_location = Point::new(0.123, 0.456);
    engine.update_location(victim, final_location).unwrap();

    let mut fresh_dataset = engine.dataset().clone();
    fresh_dataset
        .set_location(victim, Some(final_location))
        .unwrap();
    let fresh_engine = GeoSocialEngine::builder(fresh_dataset).build().unwrap();

    let incremental = engine.run(&request).unwrap();
    let rebuilt = fresh_engine.run(&request).unwrap();
    assert!(incremental.same_users_and_scores(&rebuilt, 1e-9));
}

#[test]
fn lazy_ch_and_social_cache_stay_fresh_across_location_churn() {
    // Staleness audit (regression test): the lazily-built Contraction
    // Hierarchies index and the pre-computed social neighbour cache are
    // functions of the social graph only, so location churn must never
    // invalidate them.  Exercise both orders — churn *before* the lazy
    // builds and churn *after* they exist — and require oracle agreement
    // each time.  (Kept tiny: CH construction is quadratic-ish on these
    // hub-heavy graphs.)
    let dataset = DatasetConfig::gowalla_like(150).with_seed(77).generate();
    let workload = QueryWorkload::generate(&dataset, 2, 61);
    let mut engine = GeoSocialEngine::builder(dataset)
        .with_ch()
        .cache_social_neighbors(workload.users.clone(), 80)
        .build()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(1717);
    let churn = |engine: &mut GeoSocialEngine, rng: &mut StdRng| {
        for _ in 0..60 {
            let user = rng.gen_range(0..engine.dataset().user_count()) as u32;
            if rng.gen_bool(0.2) {
                engine.remove_location(user).unwrap();
            } else {
                let p = Point::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
                engine.update_location(user, p).unwrap();
            }
        }
    };
    let verify = |engine: &GeoSocialEngine, label: &str| {
        for &user in &workload.users {
            let base = QueryRequest::for_user(user)
                .k(15)
                .alpha(0.4)
                .build()
                .unwrap();
            let oracle = engine
                .run(&base.clone().with_algorithm(Algorithm::Exhaustive))
                .unwrap();
            for algorithm in [
                Algorithm::SfaCh,
                Algorithm::SpaCh,
                Algorithm::TsaCh,
                Algorithm::SfaCached,
            ] {
                let result = engine.run(&base.clone().with_algorithm(algorithm)).unwrap();
                assert!(
                    result.same_users_and_scores(&oracle, 1e-9),
                    "{} went stale {label} (user {user})",
                    algorithm.name()
                );
            }
        }
    };

    // Churn first: the lazy indexes are built *after* the updates.
    churn(&mut engine, &mut rng);
    assert!(engine.contraction_hierarchy().is_none());
    verify(&engine, "when built after churn");
    assert!(engine.contraction_hierarchy().is_some());
    assert!(engine.social_cache().is_some());

    // Churn again with the indexes installed: location updates must leave
    // the graph-only indexes valid.
    churn(&mut engine, &mut rng);
    verify(&engine, "after churn on built indexes");
}
