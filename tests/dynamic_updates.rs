//! Integration test of the dynamic-location path: the engine's indexes must
//! stay exact while users move, appear and disappear.

use geosocial_ssrq::core::ais::AisIndex;
use geosocial_ssrq::core::{
    Algorithm, GeoSocialDataset, GeoSocialEngine, QueryRequest, QueryResult,
};
use geosocial_ssrq::data::{DatasetConfig, QueryWorkload};
use geosocial_ssrq::graph::{GraphBuilder, LandmarkSelection, LandmarkSet};
use geosocial_ssrq::shard::ShardedEngine;
use geosocial_ssrq::spatial::{NodeId, Point};
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
        // SPA and TSA search the AIS index's leaf level: the engine keeps
        // one spatial grid, so the churn above maintained one.
        assert!(std::ptr::eq(
            engine.grid(),
            engine.ais_index().grid().leaves()
        ));
        assert_eq!(engine.grid().len(), engine.dataset().located_user_count());
        // A query user may itself have lost its location; both the oracle
        // and the indexed algorithms must then agree on the (possibly
        // empty) answer.  α = 0.9 makes AIS price most of the grid, so the
        // cells the churn vacated and re-occupied go through its bound.
        for &user in &workload.users {
            for alpha in [0.3, 0.9] {
                let request = QueryRequest::for_user(user)
                    .k(12)
                    .alpha(alpha)
                    .build()
                    .unwrap();
                let oracle = engine
                    .run(&request.clone().with_algorithm(Algorithm::Exhaustive))
                    .unwrap();
                for algorithm in [Algorithm::Spa, Algorithm::Tsa, Algorithm::Ais] {
                    let result = engine
                        .run(&request.clone().with_algorithm(algorithm))
                        .unwrap();
                    assert_eq!(
                        score_bits(&result),
                        score_bits(&oracle),
                        "{} diverged in round {round} for user {user} at alpha {alpha}",
                        algorithm.name()
                    );
                }
            }
        }
    }
}

/// The answer as `(user, score bits)` pairs: exactness is bit for bit.
fn score_bits(result: &QueryResult) -> Vec<(u32, u64)> {
    result
        .ranked
        .iter()
        .map(|entry| (entry.user, entry.score.to_bits()))
        .collect()
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

#[test]
fn locations_outside_the_dataset_bounds_stay_exact() {
    // A user may move outside the bounding box the indexes were built over.
    // The grid files such a user in a boundary cell; its scores must still
    // use the true location, and no boundary cell's bound may exceed it.
    let dataset = DatasetConfig::gowalla_like(1_000).with_seed(8).generate();
    let bounds = dataset.bounds();
    let (w, h) = (bounds.width(), bounds.height());
    let mid = bounds.min.y + 0.5 * h;
    let (right, far) = (bounds.max.x + 0.5 * w, bounds.max.x + w);
    // (query user's location, its friend's location, k values, alphas):
    // both right of the bounds at mid-height; then the query user far right
    // of the bounds and the friend right of and above the top edge, nearer
    // to it than any user inside the bounds but filed in a corner cell that
    // is farther away.
    let geometries: [(Point, Point, &[usize], &[f64]); 2] = [
        (
            Point::new(right, mid),
            Point::new(right - 0.1 * w, mid),
            &[3],
            &[0.05, 0.3],
        ),
        (
            Point::new(far, mid),
            Point::new(far, bounds.max.y + 0.05 * h),
            &[1, 2],
            &[0.01, 0.05],
        ),
    ];
    let algorithms = [
        Algorithm::Sfa,
        Algorithm::Spa,
        Algorithm::Tsa,
        Algorithm::TsaQc,
        Algorithm::AisBid,
        Algorithm::AisMinus,
        Algorithm::Ais,
    ];
    let users = QueryWorkload::generate(&dataset, 6, 5).users;
    let mut single = GeoSocialEngine::builder(dataset.clone()).build().unwrap();
    let mut sharded = ShardedEngine::builder(dataset.clone())
        .shards(2)
        .build()
        .unwrap();
    for &user in &users {
        let friend = dataset.graph().neighbors(user).next().unwrap().to;
        for &(at, friend_at, ks, alphas) in &geometries {
            for (mover, to) in [(user, at), (friend, friend_at)] {
                single.update_location(mover, to).unwrap();
                sharded.update_location(mover, to).unwrap();
            }
            for &k in ks {
                for &alpha in alphas {
                    let base = QueryRequest::for_user(user)
                        .k(k)
                        .alpha(alpha)
                        .build()
                        .unwrap();
                    let oracle = single
                        .run(&base.clone().with_algorithm(Algorithm::Exhaustive))
                        .unwrap();
                    for algorithm in algorithms {
                        let request = base.clone().with_algorithm(algorithm);
                        for (engine, result) in [
                            ("single", single.run(&request).unwrap()),
                            ("2 shards", sharded.run(&request).unwrap()),
                        ] {
                            assert!(
                                result.same_users_and_scores(&oracle, 1e-9),
                                "{} ({engine}) diverged for user {user} at {at}, friend {friend} at {friend_at}, k {k}, alpha {alpha}:\n  got {:?}\n  expected {:?}",
                                algorithm.name(),
                                result.ranked,
                                oracle.ranked
                            );
                        }
                    }
                }
            }
        }
        for mover in [user, friend] {
            match dataset.location(mover) {
                Some(home) => {
                    single.update_location(mover, home).unwrap();
                    sharded.update_location(mover, home).unwrap();
                }
                None => {
                    single.remove_location(mover).unwrap();
                    sharded.remove_location(mover).unwrap();
                }
            }
        }
    }
}

/// Asserts that every node's summary is the minimum and maximum over the
/// landmark vectors of the users located below it, computed here from
/// `locations` alone, and that exactly the nodes with users below them are
/// materialised.
fn assert_summaries_match_reference(
    index: &AisIndex,
    landmarks: &LandmarkSet,
    locations: &[Option<Point>],
    label: &str,
) {
    let grid = index.grid();
    let m = landmarks.len();
    let nodes = grid.node_count() as usize;
    let mut min = vec![f64::INFINITY; nodes * m];
    let mut max = vec![f64::NEG_INFINITY; nodes * m];
    let mut occupied = vec![false; nodes];
    for (user, location) in locations.iter().enumerate() {
        let Some(location) = *location else { continue };
        let vector = landmarks.vector(user as u32);
        let mut node = Some(grid.leaf_of(location));
        while let Some(n) = node {
            let at = n.0 as usize;
            occupied[at] = true;
            for (j, &d) in vector.iter().enumerate() {
                min[at * m + j] = min[at * m + j].min(d);
                max[at * m + j] = max[at * m + j].max(d);
            }
            node = grid.parent(n);
        }
    }
    for at in 0..nodes {
        let summary = index.summary(NodeId(at as u32));
        for j in 0..m {
            assert!(
                summary.min_distance(j) == min[at * m + j]
                    && summary.max_distance(j) == max[at * m + j],
                "{label}: node {at}, landmark {j}: summary [{}, {}], reference [{}, {}]",
                summary.min_distance(j),
                summary.max_distance(j),
                min[at * m + j],
                max[at * m + j]
            );
        }
    }
    let expected = occupied.iter().filter(|&&o| o).count();
    assert_eq!(index.occupied_cells(), expected, "{label}: occupied cells");
}

/// Drives one index through seeded churn — small moves, leaf-crossing
/// moves, teleports (some outside the bounds), removals, re-insertions and
/// one full drain and refill — checking it against the reference
/// throughout.
fn churn_against_reference(dataset: &GeoSocialDataset, landmarks: &LandmarkSet, seed: u64) {
    let mut index = AisIndex::build(dataset, landmarks, 10, 2).unwrap();
    let mut locations: Vec<Option<Point>> = (0..dataset.user_count() as u32)
        .map(|u| dataset.location(u))
        .collect();
    assert_summaries_match_reference(&index, landmarks, &locations, "after build");
    let bounds = dataset.bounds();
    let (w, h) = (bounds.width(), bounds.height());
    let (leaf_w, leaf_h) = (w / 100.0, h / 100.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let n = locations.len() as u32;
    for step in 1..=3_000 {
        let user = rng.gen_range(0..n);
        let to = match (locations[user as usize], rng.gen_range(0..10)) {
            (Some(_), 0) => None,
            (Some(p), 1..=4) => Some(Point::new(
                p.x + rng.gen_range(-0.01..0.01) * w,
                p.y + rng.gen_range(-0.01..0.01) * h,
            )),
            (Some(p), 5..=7) => Some(match rng.gen_range(0..4) {
                0 => Point::new(p.x + leaf_w, p.y),
                1 => Point::new(p.x - leaf_w, p.y),
                2 => Point::new(p.x, p.y + leaf_h),
                _ => Point::new(p.x, p.y - leaf_h),
            }),
            _ => Some(Point::new(
                bounds.min.x + rng.gen_range(-0.05..1.05) * w,
                bounds.min.y + rng.gen_range(-0.05..1.05) * h,
            )),
        };
        match to {
            Some(p) => index.update_location(user, p, landmarks).unwrap(),
            None => index.remove_user(user, landmarks).unwrap(),
        }
        locations[user as usize] = to;
        if step % 50 == 0 {
            assert_summaries_match_reference(
                &index,
                landmarks,
                &locations,
                &format!("step {step}"),
            );
        }
        if step == 1_500 {
            for u in 0..n {
                if locations[u as usize].take().is_some() {
                    index.remove_user(u, landmarks).unwrap();
                }
            }
            assert_eq!(index.occupied_cells(), 0);
            assert_summaries_match_reference(&index, landmarks, &locations, "drained");
            for u in 0..n {
                let p = Point::new(
                    bounds.min.x + rng.gen::<f64>() * w,
                    bounds.min.y + rng.gen::<f64>() * h,
                );
                index.update_location(u, p, landmarks).unwrap();
                locations[u as usize] = Some(p);
            }
            assert_summaries_match_reference(&index, landmarks, &locations, "refilled");
        }
    }
}

#[test]
fn incremental_ais_summaries_equal_a_from_scratch_reference() {
    let dataset = DatasetConfig::gowalla_like(800).with_seed(13).generate();
    let landmarks =
        LandmarkSet::build(dataset.graph(), 8, LandmarkSelection::FarthestFirst, 3).unwrap();
    churn_against_reference(&dataset, &landmarks, 29);
}

#[test]
fn incremental_ais_summaries_keep_landmark_unreachable_cells() {
    // A second component, a ring of 200 users, that no landmark can reach:
    // its users' vectors are all infinite, and the cells holding only them
    // must stay materialised with `m̂ = +∞`.
    let base = DatasetConfig::gowalla_like(600).with_seed(17).generate();
    let n = base.user_count() as u32;
    let ring = 200u32;
    let mut builder = GraphBuilder::new((n + ring) as usize);
    for (u, v, weight) in base.graph().undirected_edges() {
        builder.add_edge(u, v, weight).unwrap();
    }
    for i in 0..ring {
        builder.add_edge(n + i, n + (i + 1) % ring, 1.0).unwrap();
    }
    let graph = builder.build();
    // The hubs, and so every landmark, sit in the first component.
    let landmarks = LandmarkSet::build(&graph, 6, LandmarkSelection::HighestDegree, 0).unwrap();
    assert!(landmarks.vector(n).iter().all(|d| d.is_infinite()));
    let mut rng = StdRng::seed_from_u64(71);
    let locations: Vec<Option<Point>> = (0..n)
        .map(|u| base.location(u))
        .chain((0..ring).map(|_| Some(Point::new(rng.gen(), rng.gen()))))
        .collect();
    let dataset = GeoSocialDataset::new(graph, locations).unwrap();
    churn_against_reference(&dataset, &landmarks, 31);
}
