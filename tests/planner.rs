//! Planner exactness: `Algorithm::Auto` must be a pure *performance*
//! decision — whatever the planner picks, the answer must be the one every
//! concrete algorithm computes — and the pick itself is a fixed function of
//! the request's `k` and `α`.
//!
//! The pin knob steers `Auto` through each of the twelve algorithms under
//! every request scenario (plain, spatial window, exclusion set, score
//! cutoff): for single-mechanism paths the ranked vector must be
//! `assert_eq!`-identical to running the algorithm directly, for the
//! `*-CH` / `AIS-Cache` paths (whose scores are recombined from different
//! distance modules) `same_users_and_scores` against the oracle.  Unpinned
//! runs, streams, sharded scatters and hot-cache hits are all checked
//! against the same bar.

use geosocial_ssrq::core::{
    Algorithm, ChoiceReason, GeoSocialEngine, PlannerConfig, QueryPlanner, QueryRequest,
};
use geosocial_ssrq::data::{DatasetConfig, QueryWorkload};
use geosocial_ssrq::prelude::{Point, Rect};
use geosocial_ssrq::shard::{Partitioning, ShardedEngine};

/// The four request scenarios of the agreement sweep.
fn scenarios(user: u32) -> Vec<(&'static str, QueryRequest)> {
    let window = Rect::new(Point::new(0.1, 0.1), Point::new(0.8, 0.7));
    scenarios_at(user, 12, 0.4, window)
}

/// `user`'s request at `(k, α)` in the four filter shapes.
fn scenarios_at(
    user: u32,
    k: usize,
    alpha: f64,
    window: Rect,
) -> Vec<(&'static str, QueryRequest)> {
    let plain = QueryRequest::for_user(user).k(k).alpha(alpha);
    vec![
        ("plain", plain.clone().build().unwrap()),
        ("rect", plain.clone().within(window).build().unwrap()),
        (
            "exclusion",
            plain
                .clone()
                .exclude((0..40u32).filter(|u| *u != user))
                .build()
                .unwrap(),
        ),
        ("max_score", plain.max_score(0.6).build().unwrap()),
    ]
}

#[test]
fn pinned_auto_matches_every_single_mechanism_algorithm_exactly() {
    let dataset = DatasetConfig::gowalla_like(800).with_seed(101).generate();
    let workload = QueryWorkload::generate(&dataset, 3, 7);
    let engine = GeoSocialEngine::builder(dataset).build().unwrap();
    // Identical repeated requests must hit the concrete algorithms, not the
    // hot cache, for the ranked vectors to be freshly computed every time.
    engine.planner().set_cache_capacity(0);
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
    for &user in &workload.users {
        for (label, base) in scenarios(user) {
            for algorithm in algorithms {
                let fixed = engine.run(&base.clone().with_algorithm(algorithm)).unwrap();
                engine.planner().pin(Some(algorithm));
                let auto = engine
                    .run(&base.clone().with_algorithm(Algorithm::Auto))
                    .unwrap();
                // Same delegate, same engine, same request: the ranked
                // vector (users, scores, score components) is bit-identical.
                assert_eq!(
                    auto.ranked,
                    fixed.ranked,
                    "Auto pinned to {} diverged (user {user}, scenario {label})",
                    algorithm.name()
                );
            }
        }
    }
    let snapshot = engine.planner().snapshot();
    assert!(snapshot.decisions() > 0);
    assert!(snapshot
        .choices
        .iter()
        .all(|(_, reason, _)| *reason == "pinned"));
}

#[test]
fn pinned_auto_agrees_for_index_backed_algorithms() {
    // CH construction on hub-heavy synthetic graphs is expensive, so the
    // CH-capable engine stays small (mirrors tests/algorithm_agreement.rs).
    let dataset = DatasetConfig::gowalla_like(160).with_seed(77).generate();
    let workload = QueryWorkload::generate(&dataset, 3, 23);
    let engine = GeoSocialEngine::builder(dataset)
        .with_ch()
        .cache_social_neighbors(workload.users.clone(), 100)
        .build()
        .unwrap();
    engine.planner().set_cache_capacity(0);
    for &user in &workload.users {
        for (label, base) in scenarios(user) {
            let oracle = engine
                .run(&base.clone().with_algorithm(Algorithm::Exhaustive))
                .unwrap();
            for algorithm in [
                Algorithm::SfaCh,
                Algorithm::SpaCh,
                Algorithm::TsaCh,
                Algorithm::SfaCached,
            ] {
                engine.planner().pin(Some(algorithm));
                let auto = engine
                    .run(&base.clone().with_algorithm(Algorithm::Auto))
                    .unwrap();
                assert!(
                    auto.same_users_and_scores(&oracle, 1e-9),
                    "Auto pinned to {} disagrees with the oracle (user {user}, scenario {label})",
                    algorithm.name()
                );
            }
        }
    }
    // The pinned CH/cache choices built the lazy indexes on demand.
    assert!(engine.contraction_hierarchy().is_some());
    assert!(engine.social_cache().is_some());
}

#[test]
fn adaptive_auto_always_returns_the_exact_answer() {
    let dataset = DatasetConfig::gowalla_like(700).with_seed(55).generate();
    let workload = QueryWorkload::generate(&dataset, 4, 19);
    let engine = GeoSocialEngine::builder(dataset).build().unwrap();
    engine.planner().set_cache_capacity(0);
    let mut session = engine.session();
    for &user in &workload.users {
        for (label, base) in scenarios(user) {
            let oracle = session
                .run(&base.clone().with_algorithm(Algorithm::Exhaustive))
                .unwrap();
            // The cache is off, so every repeat is a fresh decision and a
            // fresh search.
            for round in 0..10 {
                let auto = session
                    .run(&base.clone().with_algorithm(Algorithm::Auto))
                    .unwrap();
                assert!(
                    auto.same_users_and_scores(&oracle, 1e-9),
                    "unpinned Auto disagrees (user {user}, scenario {label}, round {round})"
                );
            }
        }
    }
    let snapshot = engine.planner().snapshot();
    assert!(snapshot.decisions() >= 160);
    // The rule never names the oracle, and nothing but the rule chose.
    assert_eq!(snapshot.choices_for(Algorithm::Exhaustive), 0);
    assert!(snapshot
        .choices
        .iter()
        .all(|(_, reason, _)| *reason == "rule"));
}

#[test]
fn auto_streams_exactly_like_its_eager_execution() {
    let dataset = DatasetConfig::gowalla_like(500).with_seed(31).generate();
    let workload = QueryWorkload::generate(&dataset, 4, 3);
    let engine = GeoSocialEngine::builder(dataset).build().unwrap();
    engine.planner().set_cache_capacity(0);
    for &user in &workload.users {
        let base = QueryRequest::for_user(user)
            .k(15)
            .alpha(0.3)
            .algorithm(Algorithm::Auto)
            .build()
            .unwrap();
        let eager = engine.run(&base).unwrap();
        let mut ctx = engine.make_context();
        let streamed: Vec<_> = engine.stream_with(&base, &mut ctx).unwrap().collect();
        assert_eq!(
            streamed
                .iter()
                .map(|e| (e.user, e.score))
                .collect::<Vec<_>>(),
            eager
                .ranked
                .iter()
                .map(|e| (e.user, e.score))
                .collect::<Vec<_>>(),
            "streamed Auto diverged from eager Auto (user {user})"
        );
    }
}

#[test]
fn hot_cache_serves_repeats_and_survives_resizing() {
    let dataset = DatasetConfig::gowalla_like(600).with_seed(13).generate();
    let workload = QueryWorkload::generate(&dataset, 3, 29);
    let engine = GeoSocialEngine::builder(dataset).build().unwrap();
    let mut session = engine.session();
    for &user in &workload.users {
        let base = QueryRequest::for_user(user)
            .k(10)
            .alpha(0.5)
            .algorithm(Algorithm::Auto)
            .build()
            .unwrap();
        let cold = session.run(&base).unwrap();
        let warm = session.run(&base).unwrap();
        // A cache hit replaces the stats wholesale: no search work at all.
        assert_eq!(warm.stats.cache_hits, 1, "second identical query must hit");
        assert_eq!(warm.stats.vertex_pops, 0);
        assert_eq!(warm.ranked, cold.ranked);
        // Streamed repeats hit the cache too, and a hit is
        // drain-after-complete: the whole answer, nothing finalized early.
        let mut ctx = engine.make_context();
        let mut stream = engine.stream_with(&base, &mut ctx).unwrap();
        let streamed: Vec<_> = stream.by_ref().collect();
        assert_eq!(streamed, cold.ranked);
        assert_eq!(stream.finalized_early(), 0);
    }
    let snapshot = engine.planner().snapshot();
    assert!(snapshot.cache_hits >= 2 * workload.users.len() as u64);
    assert!(snapshot.cache_len > 0);
    // Shrinking to zero empties the cache and disables admission.
    engine.planner().set_cache_capacity(0);
    assert_eq!(engine.planner().cache_len(), 0);
    let base = QueryRequest::for_user(workload.users[0])
        .k(10)
        .alpha(0.5)
        .algorithm(Algorithm::Auto)
        .build()
        .unwrap();
    session.run(&base).unwrap();
    let hits_before = engine.planner().snapshot().cache_hits;
    session.run(&base).unwrap();
    assert_eq!(
        engine.planner().snapshot().cache_hits,
        hits_before,
        "disabled cache must not serve"
    );
}

#[test]
fn cloned_engines_get_independent_planners() {
    let dataset = DatasetConfig::gowalla_like(300).with_seed(2).generate();
    let engine = GeoSocialEngine::builder(dataset).build().unwrap();
    let base = QueryRequest::for_user(5)
        .k(5)
        .algorithm(Algorithm::Auto)
        .build()
        .unwrap();
    engine.run(&base).unwrap();
    engine.run(&base).unwrap();
    assert!(engine.planner().snapshot().cache_hits > 0);
    let clone = engine.clone();
    // The clone neither shares decision history nor cached results.
    let snapshot = clone.planner().snapshot();
    assert_eq!(snapshot.decisions(), 0);
    assert_eq!(snapshot.cache_len, 0);
    clone.run(&base).unwrap();
    let after = clone.planner().snapshot();
    // The clone's first query ran fresh — no hot-cache hit was possible.
    assert_eq!(after.cache_hits, 0);
    assert_eq!(after.decisions(), 1);
    // ...and it never bled into the original planner's counters (the
    // original made one decision — its second run was a cache hit, which
    // never reaches the choice logic).
    assert_eq!(engine.planner().snapshot().decisions(), 1);

    // A clone inherits the capacity the original has *now*: a cache
    // disabled after construction stays disabled on the clone.
    engine.planner().set_cache_capacity(0);
    let uncached = engine.clone();
    assert_eq!(uncached.planner().config().cache_capacity, 0);
    for _ in 0..2 {
        // A served hit would report no search work at all.
        assert!(uncached.run(&base).unwrap().stats.vertex_pops > 0);
    }
    assert_eq!(uncached.planner().snapshot().cache_hits, 0);
    assert_eq!(uncached.planner().cache_len(), 0);
}

#[test]
fn sharded_auto_agrees_with_the_single_engine_oracle() {
    let dataset = DatasetConfig::gowalla_like(600).with_seed(4242).generate();
    let workload = QueryWorkload::generate(&dataset, 3, 17);
    let single = GeoSocialEngine::builder(dataset.clone()).build().unwrap();
    for policy in [
        Partitioning::UserHash,
        Partitioning::SpatialGrid { cells_per_axis: 8 },
    ] {
        let sharded = ShardedEngine::builder(dataset.clone())
            .shards(3)
            .partitioning(policy)
            .build()
            .unwrap();
        for &user in &workload.users {
            let base = QueryRequest::for_user(user)
                .k(20)
                .alpha(0.3)
                .algorithm(Algorithm::Auto)
                .build()
                .unwrap();
            let reference = single
                .run(&base.clone().with_algorithm(Algorithm::Exhaustive))
                .unwrap();
            // Run the scatter repeatedly: repeats may come from per-shard
            // hot caches — the merged answer must never move.
            for round in 0..4 {
                let result = sharded.run(&base).unwrap();
                assert!(
                    result.same_users_and_scores(&reference, 1e-9),
                    "sharded Auto diverged (policy {policy:?}, user {user}, round {round})"
                );
            }
        }
    }
}

const A: Algorithm = Algorithm::Ais;
const S: Algorithm = Algorithm::Sfa;
/// The result sizes of [`RULE_ROWS`]' columns.
const RULE_KS: [usize; 5] = [1, 2, 3, 10, 50];
/// The planner's whole rule, one row per `α`: `SFA` when `α ≥ 0.4` or
/// (`k ≤ 2` and `α > 0.25`), else `AIS`.
const RULE_ROWS: [(f64, [Algorithm; 5]); 11] = [
    (0.01, [A, A, A, A, A]),
    (0.1, [A, A, A, A, A]),
    (0.25, [A, A, A, A, A]),
    (0.26, [S, S, A, A, A]),
    (0.3, [S, S, A, A, A]),
    (0.39, [S, S, A, A, A]),
    (0.4, [S, S, S, S, S]),
    (0.74, [S, S, S, S, S]),
    (0.75, [S, S, S, S, S]),
    (0.9, [S, S, S, S, S]),
    (0.99, [S, S, S, S, S]),
];

#[test]
fn planner_unit_behaviour_pins_explores_and_converges() {
    let planner = QueryPlanner::new(PlannerConfig { cache_capacity: 4 });
    assert_eq!(planner.config().cache_capacity, 4);
    assert_eq!(planner.cache_len(), 0);
    assert_eq!(planner.snapshot().decisions(), 0);
    assert_eq!(ChoiceReason::Pinned.as_str(), "pinned");
    assert_eq!(ChoiceReason::Rule.as_str(), "rule");

    // CH and the social cache are declared lazily: a pinned index-backed
    // choice would build them, the rule must never.
    let dataset = DatasetConfig::gowalla_like(160).with_seed(9).generate();
    let degree = |u: &u32| dataset.graph().degree(*u);
    let located: Vec<u32> = dataset.located_users().map(|(u, _)| u).collect();
    let users = [
        located.iter().copied().min_by_key(degree).unwrap(),
        located.iter().copied().max_by_key(degree).unwrap(),
    ];
    assert!(degree(&users[0]) < degree(&users[1]));
    let bounds = dataset.bounds();
    let engine = GeoSocialEngine::builder(dataset)
        .with_ch()
        .cache_social_neighbors(users.to_vec(), 100)
        .build()
        .unwrap();
    engine.planner().set_cache_capacity(0);

    // A selective window: the corner fifth of each axis, 4 % of the extent.
    let window = Rect::new(
        bounds.min,
        Point::new(
            bounds.min.x + 0.2 * bounds.width(),
            bounds.min.y + 0.2 * bounds.height(),
        ),
    );

    let mut decisions = 0;
    for user in users {
        for (alpha, row) in RULE_ROWS {
            for (k, expected) in RULE_KS.into_iter().zip(row) {
                for (_, request) in scenarios_at(user, k, alpha, window) {
                    let request = request.with_algorithm(Algorithm::Auto);
                    assert_eq!(
                        engine.planner().choose(&engine, &request),
                        (expected, ChoiceReason::Rule),
                        "{request:?}"
                    );
                    engine.run(&request).unwrap();
                    // One decision from `choose`, one from the run.
                    decisions += 2;
                }
            }
        }
    }
    assert!(engine.contraction_hierarchy().is_none());
    assert!(engine.social_cache().is_none());
    let snapshot = engine.planner().snapshot();
    assert_eq!(snapshot.decisions(), decisions);
    assert!(snapshot
        .choices
        .iter()
        .all(|(algorithm, reason, _)| *reason == "rule"
            && matches!(algorithm.as_str(), "AIS" | "SFA")));
    assert!(snapshot.choices_for(Algorithm::Ais) > 0 && snapshot.choices_for(Algorithm::Sfa) > 0);

    // A pin overrides the rule; lifting it restores the rule.
    let request = QueryRequest::for_user(users[0])
        .k(10)
        .alpha(0.3)
        .build()
        .unwrap();
    engine.planner().pin(Some(Algorithm::Spa));
    assert_eq!(
        engine.planner().choose(&engine, &request),
        (Algorithm::Spa, ChoiceReason::Pinned)
    );
    engine.planner().pin(None);
    assert_eq!(
        engine.planner().choose(&engine, &request),
        (Algorithm::Ais, ChoiceReason::Rule)
    );
}

#[test]
fn pinning_auto_to_itself_restores_the_rule() {
    let dataset = DatasetConfig::gowalla_like(300).with_seed(2).generate();
    let user = QueryWorkload::generate(&dataset, 1, 2).users[0];
    let engine = GeoSocialEngine::builder(dataset.clone()).build().unwrap();
    let sharded = ShardedEngine::builder(dataset).shards(2).build().unwrap();
    let planners = std::iter::once(engine.planner())
        .chain((0..sharded.shard_count()).map(|s| sharded.shard_engine(s).planner()));
    for planner in planners {
        planner.set_cache_capacity(0);
        planner.pin(Some(Algorithm::Auto));
    }
    for alpha in [0.2, 0.6] {
        let request = QueryRequest::for_user(user)
            .k(8)
            .alpha(alpha)
            .algorithm(Algorithm::Auto)
            .build()
            .unwrap();
        let (choice, reason) = engine.planner().choose(&engine, &request);
        assert_eq!(reason, ChoiceReason::Rule);
        assert_ne!(choice, Algorithm::Auto);
        let fixed = request.clone().with_algorithm(choice);

        let expected = engine.run(&fixed).unwrap();
        assert_eq!(engine.run(&request).unwrap().ranked, expected.ranked);
        let mut ctx = engine.make_context();
        let streamed: Vec<_> = engine.stream_with(&request, &mut ctx).unwrap().collect();
        assert_eq!(streamed, expected.ranked);
        assert_eq!(
            sharded.run(&request).unwrap().ranked,
            sharded.run(&fixed).unwrap().ranked
        );
    }
}

#[test]
fn pinning_an_index_backed_algorithm_without_its_index_errors() {
    let dataset = DatasetConfig::gowalla_like(200).with_seed(8).generate();
    // CH disabled entirely: a pinned *-CH choice must surface MissingIndex,
    // not panic or silently fall back.
    let engine = GeoSocialEngine::builder(dataset).build().unwrap();
    engine.planner().pin(Some(Algorithm::SfaCh));
    let request = QueryRequest::for_user(1)
        .k(5)
        .algorithm(Algorithm::Auto)
        .build()
        .unwrap();
    assert!(engine.run(&request).is_err());
    engine.planner().pin(None);
    assert!(engine.run(&request).is_ok());
}
