//! Integration tests of the service-grade query API: builder-configured
//! engines, typed requests, algorithm dispatch, sessions/streaming — and
//! every error path a service handler has to care about (typed errors, not
//! panics).

use geosocial_ssrq::core::{Algorithm, CoreError, GeoSocialEngine, QueryRequest};
use geosocial_ssrq::data::{DatasetConfig, QueryWorkload};
use geosocial_ssrq::prelude::{Point, Rect};
use geosocial_ssrq::shard::ShardedEngine;

// CH construction is ~quadratic on these hub-heavy synthetic graphs, so the
// engines that may build one stay at 160 users (same scale as
// tests/algorithm_agreement.rs).
fn engine_with(ch: bool) -> GeoSocialEngine {
    let dataset = DatasetConfig::gowalla_like(160).with_seed(9).generate();
    let builder = GeoSocialEngine::builder(dataset);
    if ch { builder.with_ch() } else { builder }
        .build()
        .unwrap()
}

fn query_user(engine: &GeoSocialEngine) -> u32 {
    QueryWorkload::generate(engine.dataset(), 1, 5).users[0]
}

// ---------------------------------------------------------------------------
// Error paths
// ---------------------------------------------------------------------------

#[test]
fn unknown_query_user_is_a_typed_error() {
    let engine = engine_with(false);
    let ghost = engine.dataset().user_count() as u32 + 7;
    let request = QueryRequest::for_user(ghost).build().unwrap();
    assert!(matches!(
        engine.run(&request),
        Err(CoreError::UnknownUser(u)) if u == ghost
    ));
}

#[test]
fn degenerate_parameters_fail_at_request_build_time() {
    assert!(matches!(
        QueryRequest::for_user(0).k(0).build(),
        Err(CoreError::InvalidParameter(_))
    ));
    for alpha in [0.0, 1.0, -0.2, 1.7, f64::NAN] {
        assert!(
            matches!(
                QueryRequest::for_user(0).alpha(alpha).build(),
                Err(CoreError::InvalidParameter(_))
            ),
            "alpha {alpha} must be rejected"
        );
    }
}

#[test]
fn ch_strategy_without_ch_is_a_typed_error_not_a_panic() {
    let engine = engine_with(false);
    let user = query_user(&engine);
    for algorithm in [Algorithm::SfaCh, Algorithm::SpaCh, Algorithm::TsaCh] {
        let request = QueryRequest::for_user(user)
            .algorithm(algorithm)
            .build()
            .unwrap();
        assert!(matches!(
            engine.run(&request),
            Err(CoreError::MissingIndex(_))
        ));
    }
    // Nothing was built as a side effect of the failures.
    assert!(engine.contraction_hierarchy().is_none());
}

#[test]
fn ch_strategy_with_lazy_ch_builds_and_answers() {
    let engine = engine_with(true);
    let user = query_user(&engine);
    let request = QueryRequest::for_user(user)
        .k(8)
        .alpha(0.4)
        .algorithm(Algorithm::SfaCh)
        .build()
        .unwrap();
    let oracle = engine
        .run(&request.clone().with_algorithm(Algorithm::Exhaustive))
        .unwrap();
    assert!(engine.contraction_hierarchy().is_none());
    let got = engine.run(&request).unwrap();
    assert!(engine.contraction_hierarchy().is_some());
    assert!(got.same_users_and_scores(&oracle, 1e-9));
}

#[test]
fn social_cache_plan_gates_the_cached_algorithm() {
    let dataset = DatasetConfig::gowalla_like(250).with_seed(3).generate();
    let users = QueryWorkload::generate(&dataset, 3, 8).users;
    let without = GeoSocialEngine::builder(dataset.clone()).build().unwrap();
    let request = QueryRequest::for_user(users[0])
        .k(10)
        .alpha(0.3)
        .algorithm(Algorithm::SfaCached)
        .build()
        .unwrap();
    assert!(matches!(
        without.run(&request),
        Err(CoreError::MissingIndex(_))
    ));

    let with = GeoSocialEngine::builder(dataset)
        .cache_social_neighbors(users.clone(), 80)
        .build()
        .unwrap();
    assert!(with.social_cache().is_none());
    let got = with.run(&request).unwrap();
    assert!(with.social_cache().is_some());
    let oracle = with
        .run(&request.clone().with_algorithm(Algorithm::Exhaustive))
        .unwrap();
    assert!(got.same_users_and_scores(&oracle, 1e-9));
}

#[test]
fn the_index_preflight_agrees_across_every_entry_point() {
    // Neither CH nor a social cache is declared on any engine here.
    let dataset = DatasetConfig::gowalla_like(160).with_seed(9).generate();
    let user = QueryWorkload::generate(&dataset, 1, 5).users[0];
    let engine = GeoSocialEngine::builder(dataset.clone()).build().unwrap();
    let sharded = ShardedEngine::builder(dataset).shards(2).build().unwrap();
    let mut session = sharded.session();
    let mut ctx = engine.make_context();
    for algorithm in Algorithm::ALL.into_iter().chain([Algorithm::Auto]) {
        let request = QueryRequest::for_user(user)
            .k(5)
            .alpha(0.4)
            .algorithm(algorithm)
            .build()
            .unwrap();
        let outcomes = [
            ("run", engine.run(&request).err()),
            ("stream_with", engine.stream_with(&request, &mut ctx).err()),
            ("sharded run", sharded.run(&request).err()),
            ("sharded stream", session.stream(&request).err()),
        ];
        let needs_index = algorithm.needs_ch() || algorithm.needs_social_cache();
        for (entry_point, error) in outcomes {
            if needs_index {
                assert!(
                    matches!(error, Some(CoreError::MissingIndex(_))),
                    "{} via {entry_point}: {error:?}",
                    algorithm.name()
                );
            } else {
                assert_eq!(error, None, "{} via {entry_point}", algorithm.name());
            }
        }
    }
    assert!(engine.contraction_hierarchy().is_none());
    assert!(engine.social_cache().is_none());
}

#[test]
fn empty_window_spatial_filters_return_empty_results() {
    let engine = engine_with(false);
    let user = query_user(&engine);
    // A window far outside the data bounds admits nobody.
    let nowhere = Rect::new(Point::new(40.0, 40.0), Point::new(41.0, 41.0));
    for algorithm in [
        Algorithm::Exhaustive,
        Algorithm::Sfa,
        Algorithm::Spa,
        Algorithm::Tsa,
        Algorithm::Ais,
    ] {
        let request = QueryRequest::for_user(user)
            .k(10)
            .alpha(0.5)
            .within(nowhere)
            .algorithm(algorithm)
            .build()
            .unwrap();
        let result = engine.run(&request).unwrap();
        assert!(
            result.ranked.is_empty(),
            "{} returned users from an empty window",
            algorithm.name()
        );
        assert!(result.is_complete());
    }
}

#[test]
fn invalid_filter_values_fail_at_build_time() {
    assert!(QueryRequest::for_user(0).max_score(-1.0).build().is_err());
    assert!(QueryRequest::for_user(0)
        .max_score(f64::NAN)
        .build()
        .is_err());
    // `Rect::new` normalizes corners through f64::min/max (which drop NaN),
    // so build the malformed rectangle directly.
    let bad_rect = Rect {
        min: Point::new(f64::NAN, 0.0),
        max: Point::new(1.0, 1.0),
    };
    assert!(QueryRequest::for_user(0).within(bad_rect).build().is_err());
}

// ---------------------------------------------------------------------------
// Sessions and streaming
// ---------------------------------------------------------------------------

#[test]
fn session_run_matches_engine_run() {
    let engine = engine_with(false);
    let user = query_user(&engine);
    let mut session = engine.session();
    for algorithm in [Algorithm::Sfa, Algorithm::Tsa, Algorithm::Ais] {
        let request = QueryRequest::for_user(user)
            .k(12)
            .alpha(0.4)
            .algorithm(algorithm)
            .build()
            .unwrap();
        let via_session = session.run(&request).unwrap();
        let via_engine = engine.run(&request).unwrap();
        assert_eq!(via_session.ranked, via_engine.ranked);
    }
    assert!(session.searches() > 0);
}

#[test]
fn streams_yield_the_full_result_in_rank_order() {
    let engine = engine_with(false);
    let user = query_user(&engine);
    let mut session = engine.session();
    for algorithm in Algorithm::ALL {
        if algorithm.needs_ch() || algorithm.needs_social_cache() {
            continue;
        }
        let request = QueryRequest::for_user(user)
            .k(10)
            .alpha(0.3)
            .algorithm(algorithm)
            .build()
            .unwrap();
        let expected = session.run(&request).unwrap();
        let mut stream = session.stream(&request).unwrap();
        let streamed: Vec<_> = stream.by_ref().collect();
        assert_eq!(streamed, expected.ranked, "{}", algorithm.name());
        assert!(stream.finalized_early() <= expected.ranked.len());
        assert!(stream.error().is_none());
    }
}

#[test]
fn incremental_threshold_algorithms_finalize_results_before_completion() {
    let engine = engine_with(false);
    let workload = QueryWorkload::generate(engine.dataset(), 5, 77);
    let mut session = engine.session();
    // The exhaustive oracle can never finalize early (drain-after-complete).
    for &user in &workload.users {
        let mut exh = session
            .stream(
                &QueryRequest::for_user(user)
                    .k(10)
                    .alpha(0.3)
                    .algorithm(Algorithm::Exhaustive)
                    .build()
                    .unwrap(),
            )
            .unwrap();
        let drained = exh.by_ref().count();
        assert!(drained <= 10);
        assert_eq!(exh.finalized_early(), 0);
    }
    // The incremental-threshold methods do, on a typical workload (summed
    // over several queries so a single degenerate query cannot flake).
    for algorithm in [Algorithm::Sfa, Algorithm::Tsa, Algorithm::Ais] {
        let mut finalized = 0usize;
        let mut total = 0usize;
        for &user in &workload.users {
            let mut stream = session
                .stream(
                    &QueryRequest::for_user(user)
                        .k(10)
                        .alpha(0.3)
                        .algorithm(algorithm)
                        .build()
                        .unwrap(),
                )
                .unwrap();
            total += stream.by_ref().count();
            finalized += stream.finalized_early();
        }
        assert!(
            finalized > 0,
            "{} never finalized a result before completion ({total} results)",
            algorithm.name()
        );
    }
}

#[test]
fn exhausted_streams_finalize_their_entire_result() {
    // When an algorithm's candidate stream runs dry (disconnected
    // component, every located user scanned, drained search heap), no
    // future candidate exists, so *every* entry must count as finalized —
    // consistently across the threshold algorithms.
    use geosocial_ssrq::graph::GraphBuilder;
    let graph =
        GraphBuilder::from_edges(6, vec![(0, 1, 1.0), (1, 2, 0.5), (3, 4, 1.0), (4, 5, 0.5)])
            .unwrap();
    let locations = vec![Some(Point::new(0.1, 0.1)); 6];
    let dataset = geosocial_ssrq::core::GeoSocialDataset::new(graph, locations).unwrap();
    let engine = GeoSocialEngine::builder(dataset)
        .granularity(2)
        .landmarks(2)
        .build()
        .unwrap();
    let mut session = engine.session();
    // k exceeds the query user's component: every stream exhausts before
    // the threshold condition can hold.
    for algorithm in [
        Algorithm::Sfa,
        Algorithm::Spa,
        Algorithm::Tsa,
        Algorithm::Ais,
    ] {
        let mut stream = session
            .stream(
                &QueryRequest::for_user(0)
                    .k(5)
                    .alpha(0.5)
                    .algorithm(algorithm)
                    .build()
                    .unwrap(),
            )
            .unwrap();
        let drained = stream.by_ref().count();
        assert_eq!(drained, 2, "{}", algorithm.name());
        assert_eq!(
            stream.finalized_early(),
            drained,
            "{} must finalize its whole result when the stream exhausts",
            algorithm.name()
        );
    }
}
