//! Cross-crate integration test: every SSRQ processing algorithm must return
//! exactly the same result as the brute-force oracle on realistic generated
//! datasets, across the paper's parameter ranges — and under every request
//! scenario option (spatial filter, exclusions, score cutoff).
//!
//! `QueryResult::same_users_and_scores` compares the *user sets* of every
//! score-tie group (not just the score sequence), so two results can only
//! pass as interchangeable when they genuinely report the same users.

use geosocial_ssrq::core::{Algorithm, GeoSocialEngine, QueryRequest, QueryResult};
use geosocial_ssrq::data::{DatasetConfig, QueryWorkload};
use geosocial_ssrq::prelude::{Point, Rect, ShardedEngine};

fn build_engine(users: usize, granularity: u32) -> GeoSocialEngine {
    let dataset = DatasetConfig::gowalla_like(users).with_seed(77).generate();
    GeoSocialEngine::builder(dataset)
        .granularity(granularity)
        .build()
        .expect("engine builds")
}

fn request(user: u32, k: usize, alpha: f64) -> QueryRequest {
    QueryRequest::for_user(user)
        .k(k)
        .alpha(alpha)
        .build()
        .expect("valid request")
}

#[test]
fn indexed_algorithms_agree_with_the_oracle_across_k_and_alpha() {
    let engine = build_engine(1_200, 10);
    let workload = QueryWorkload::generate(engine.dataset(), 4, 11);
    let algorithms = [
        Algorithm::Sfa,
        Algorithm::Spa,
        Algorithm::Tsa,
        Algorithm::TsaQc,
        Algorithm::AisBid,
        Algorithm::AisMinus,
        Algorithm::Ais,
    ];
    for &user in &workload.users {
        for k in [1usize, 30] {
            for alpha in [0.1, 0.5, 0.9] {
                let base = request(user, k, alpha);
                let oracle = engine
                    .run(&base.clone().with_algorithm(Algorithm::Exhaustive))
                    .unwrap();
                for algorithm in algorithms {
                    let result = engine.run(&base.clone().with_algorithm(algorithm)).unwrap();
                    assert!(
                        result.same_users_and_scores(&oracle, 1e-9),
                        "{} disagrees with the oracle (user {user}, k {k}, alpha {alpha}):\n  got      {:?}\n  expected {:?}",
                        algorithm.name(),
                        result.users(),
                        oracle.users()
                    );
                }
            }
        }
    }
}

#[test]
fn request_scenario_options_agree_across_all_algorithms() {
    // The acceptance bar: spatial filters and exclusion sets must produce
    // identical answers across (at least) EXH, TSA and AIS.  We run the
    // whole non-auxiliary line-up, plus a score cutoff, for good measure.
    let engine = build_engine(900, 10);
    let workload = QueryWorkload::generate(engine.dataset(), 4, 51);
    let algorithms = [
        Algorithm::Sfa,
        Algorithm::Spa,
        Algorithm::Tsa,
        Algorithm::TsaQc,
        Algorithm::AisBid,
        Algorithm::AisMinus,
        Algorithm::Ais,
    ];
    let windows = [
        Rect::new(Point::new(0.0, 0.0), Point::new(0.5, 0.5)),
        Rect::new(Point::new(0.2, 0.1), Point::new(0.9, 0.8)),
    ];
    for &user in &workload.users {
        for window in windows {
            let excluded: Vec<u32> = (0..engine.dataset().user_count() as u32)
                .filter(|u| u % 7 == user % 7)
                .collect();
            let base = QueryRequest::for_user(user)
                .k(15)
                .alpha(0.4)
                .within(window)
                .exclude(excluded)
                .max_score(0.55)
                .build()
                .unwrap();
            let oracle = engine
                .run(&base.clone().with_algorithm(Algorithm::Exhaustive))
                .unwrap();
            // The oracle honours the filters itself.
            assert!(oracle.users().iter().all(|&u| u % 7 != user % 7));
            for entry in &oracle.ranked {
                let loc = engine.dataset().location(entry.user).unwrap();
                assert!(window.contains(loc));
                assert!(entry.score < 0.55);
            }
            for algorithm in algorithms {
                let result = engine.run(&base.clone().with_algorithm(algorithm)).unwrap();
                assert!(
                    result.same_users_and_scores(&oracle, 1e-9),
                    "{} disagrees under filters (user {user}, window {window}):\n  got      {:?}\n  expected {:?}",
                    algorithm.name(),
                    result.users(),
                    oracle.users()
                );
            }
        }
    }
}

#[test]
fn ch_and_cached_variants_agree_with_the_oracle() {
    // CH construction on the hub-heavy synthetic graphs is by far the most
    // expensive step of the suite (quadratic-ish witness-search blowup, as
    // the paper observes for social networks), so this test keeps the CH
    // engine small; tests/batch_query.rs covers the CH variants too.  The
    // auxiliary indexes are declared lazily: the first *-CH / cached query
    // triggers their construction.
    let dataset = DatasetConfig::gowalla_like(160).with_seed(77).generate();
    let workload = QueryWorkload::generate(&dataset, 3, 23);
    let engine = GeoSocialEngine::builder(dataset)
        .with_ch()
        .cache_social_neighbors(workload.users.clone(), 100)
        .build()
        .expect("engine builds");
    assert!(engine.contraction_hierarchy().is_none());
    assert!(engine.social_cache().is_none());
    for &user in &workload.users {
        for alpha in [0.3, 0.7] {
            let base = request(user, 20, alpha);
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
                    "{} disagrees with the oracle (user {user}, alpha {alpha})",
                    algorithm.name()
                );
            }
        }
    }
    // Both lazy indexes were built exactly when first needed.
    assert!(engine.contraction_hierarchy().is_some());
    assert!(engine.social_cache().is_some());
}

#[test]
fn different_index_granularities_do_not_change_results() {
    for granularity in [3u32, 6, 12] {
        let engine = build_engine(700, granularity);
        let workload = QueryWorkload::generate(engine.dataset(), 3, 5);
        for &user in &workload.users {
            let base = request(user, 15, 0.3);
            let oracle = engine
                .run(&base.clone().with_algorithm(Algorithm::Exhaustive))
                .unwrap();
            for algorithm in [Algorithm::Spa, Algorithm::Ais] {
                let result = engine.run(&base.clone().with_algorithm(algorithm)).unwrap();
                assert!(
                    result.same_users_and_scores(&oracle, 1e-9),
                    "{} disagrees at granularity {granularity}",
                    algorithm.name()
                );
            }
        }
    }
}

#[test]
fn different_landmark_configurations_do_not_change_results() {
    use geosocial_ssrq::graph::LandmarkSelection;
    for (m, selection) in [
        (1usize, LandmarkSelection::Random),
        (4, LandmarkSelection::HighestDegree),
        (12, LandmarkSelection::FarthestFirst),
    ] {
        let dataset = DatasetConfig::gowalla_like(700).with_seed(77).generate();
        let engine = GeoSocialEngine::builder(dataset)
            .landmarks(m)
            .landmark_selection(selection)
            .build()
            .expect("engine builds");
        let workload = QueryWorkload::generate(engine.dataset(), 3, 9);
        for &user in &workload.users {
            let base = request(user, 10, 0.5);
            let oracle = engine
                .run(&base.clone().with_algorithm(Algorithm::Exhaustive))
                .unwrap();
            for algorithm in [Algorithm::Tsa, Algorithm::Ais] {
                let result = engine.run(&base.clone().with_algorithm(algorithm)).unwrap();
                assert!(
                    result.same_users_and_scores(&oracle, 1e-9),
                    "{} disagrees with M = {m}, selection {selection:?}",
                    algorithm.name()
                );
            }
        }
    }
}

#[test]
fn an_unlocated_query_user_is_answered_without_a_search() {
    // Without an origin every candidate sits at infinite spatial distance,
    // so the answer is empty — and no algorithm but the oracle may sweep
    // the graph to find that out.  Small graph: the CH build is the
    // expensive part.
    let mut dataset = DatasetConfig::gowalla_like(200).with_seed(3).generate();
    let users = QueryWorkload::generate(&dataset, 3, 5).users;
    for &user in &users {
        dataset.set_location(user, None).unwrap();
    }
    let engine = GeoSocialEngine::builder(dataset.clone())
        .with_ch()
        .cache_social_neighbors(users.clone(), 50)
        .build()
        .unwrap();
    // The shards adopt the engine's graph indexes: one CH build in all.
    let donor = engine.clone();
    let sharded = ShardedEngine::builder(dataset)
        .shards(3)
        .configure_engines(move |builder| builder.share_graph_artifacts_with(&donor))
        .build()
        .unwrap();
    let bits = |result: &QueryResult| -> Vec<(u32, u64)> {
        result
            .ranked
            .iter()
            .map(|e| (e.user, e.score.to_bits()))
            .collect()
    };
    for &user in &users {
        for (k, alpha) in [(1usize, 0.5), (10, 0.3), (10, 0.9)] {
            let base = request(user, k, alpha);
            let oracle = engine
                .run(&base.clone().with_algorithm(Algorithm::Exhaustive))
                .unwrap();
            for algorithm in Algorithm::ALL
                .into_iter()
                .filter(|&a| a != Algorithm::Exhaustive)
                .chain([Algorithm::Auto])
            {
                let request = base.clone().with_algorithm(algorithm);
                for (path, result) in [
                    ("engine", engine.run(&request).unwrap()),
                    ("sharded", sharded.run(&request).unwrap()),
                ] {
                    let name = algorithm.name();
                    assert_eq!(bits(&result), bits(&oracle), "{name} ({path}, user {user})");
                    assert_eq!(
                        result.stats.social_pops, 0,
                        "{name} ({path}, user {user}) searched the graph"
                    );
                }
            }
        }
    }
}

#[test]
fn high_degree_network_results_stay_exact() {
    let dataset = DatasetConfig::twitter_like(900).with_seed(3).generate();
    let engine = GeoSocialEngine::builder(dataset).build().unwrap();
    let workload = QueryWorkload::generate(engine.dataset(), 3, 31);
    for &user in &workload.users {
        let base = request(user, 30, 0.3);
        let oracle = engine
            .run(&base.clone().with_algorithm(Algorithm::Exhaustive))
            .unwrap();
        for algorithm in [Algorithm::Sfa, Algorithm::Tsa, Algorithm::Ais] {
            let result = engine.run(&base.clone().with_algorithm(algorithm)).unwrap();
            assert!(result.same_users_and_scores(&oracle, 1e-9));
        }
    }
}

#[test]
fn stats_show_ais_settles_fewer_vertices_than_single_domain_baselines() {
    // The AIS advantage comes from locality: on larger graphs the one-domain
    // approaches expand most of the network while AIS touches a small
    // neighbourhood (Figure 8(c)/(d) of the paper).  Use a graph that is
    // large enough for the effect to be visible but still quick to query.
    let engine = build_engine(12_000, 10);
    let workload = QueryWorkload::generate(engine.dataset(), 3, 13);
    let mut sfa_pops = 0usize;
    let mut spa_pops = 0usize;
    let mut ais_pops = 0usize;
    let mut session = engine.session();
    for base in workload.requests(Algorithm::Sfa) {
        sfa_pops += session.run(&base).unwrap().stats.vertex_pops;
        spa_pops += session
            .run(&base.clone().with_algorithm(Algorithm::Spa))
            .unwrap()
            .stats
            .vertex_pops;
        ais_pops += session
            .run(&base.with_algorithm(Algorithm::Ais))
            .unwrap()
            .stats
            .vertex_pops;
    }
    // The headline claim of the paper: the aggregate index search expands
    // fewer vertices than the one-domain approaches.
    assert!(
        ais_pops < sfa_pops,
        "AIS settled {ais_pops} vs SFA {sfa_pops}"
    );
    assert!(
        ais_pops < spa_pops,
        "AIS settled {ais_pops} vs SPA {spa_pops}"
    );
}

#[test]
fn ais_scores_are_bit_identical_to_the_oracle() {
    // AIS, AIS⁻ and AIS-BID evaluate candidates with a reverse search that
    // meets a forward search from the query user (shared, or started over
    // per call in AIS-BID) and then recompute the survivor's distance in
    // forward arithmetic, so every score must equal the oracle's to the bit,
    // not merely to a tolerance.
    for users in [1_500, 6_000] {
        let engine = build_engine(users, 10);
        let workload = QueryWorkload::generate(engine.dataset(), 3, 57);
        for &user in &workload.users {
            for alpha in [0.05, 0.3, 0.9] {
                for k in [1usize, 10, 50] {
                    let base = request(user, k, alpha);
                    let bits = |result: QueryResult| -> Vec<(u32, u64)> {
                        result
                            .ranked
                            .iter()
                            .map(|entry| (entry.user, entry.score.to_bits()))
                            .collect()
                    };
                    let oracle = bits(
                        engine
                            .run(&base.clone().with_algorithm(Algorithm::Exhaustive))
                            .unwrap(),
                    );
                    for algorithm in [Algorithm::AisBid, Algorithm::AisMinus, Algorithm::Ais] {
                        let got =
                            bits(engine.run(&base.clone().with_algorithm(algorithm)).unwrap());
                        assert_eq!(
                            got,
                            oracle,
                            "{} on {users} users, user {user}, alpha {alpha}, k {k}",
                            algorithm.name()
                        );
                    }
                }
            }
        }
    }
}
