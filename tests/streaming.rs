//! Stream ≡ run equivalence for the pull-lazy query drivers.
//!
//! `QuerySession::stream` runs the same resumable state machine the eager
//! entry points drive, so for **all twelve** paper algorithms — and
//! under every request scenario option — a fully drained stream must be
//! bit-identical to `QuerySession::run` and count the same work, every
//! prefix of length `j` must equal the eager top-`j`, and an early-exited
//! stream (`take(1)`) can never do more search work than the full run.

use geosocial_ssrq::core::{Algorithm, GeoSocialEngine, QueryRequest, QueryStats};
use geosocial_ssrq::data::{DatasetConfig, QueryWorkload};
use geosocial_ssrq::spatial::{Point, Rect};

/// A small engine with every auxiliary index declared, so all twelve
/// algorithms are runnable (the CH build is quadratic-ish on hub-heavy
/// graphs — keep CH test engines at ≤ 160 users).
fn full_engine() -> (GeoSocialEngine, Vec<u32>) {
    let dataset = DatasetConfig::gowalla_like(160).with_seed(42).generate();
    let workload = QueryWorkload::generate(&dataset, 3, 7);
    let engine = GeoSocialEngine::builder(dataset)
        .with_ch()
        .cache_social_neighbors(workload.users.clone(), 40)
        .build()
        .expect("engine builds");
    (engine, workload.users)
}

/// The request scenario shapes of the equivalence matrix: plain,
/// rect-filtered, exclusion-filtered, and score-capped.
fn request_shapes(engine: &GeoSocialEngine, user: u32) -> Vec<(&'static str, QueryRequest)> {
    let bounds = engine.dataset().bounds();
    let window = Rect::new(
        Point::new(
            bounds.min.x + bounds.width() * 0.1,
            bounds.min.y + bounds.height() * 0.1,
        ),
        Point::new(
            bounds.min.x + bounds.width() * 0.8,
            bounds.min.y + bounds.height() * 0.85,
        ),
    );
    vec![
        (
            "plain",
            QueryRequest::for_user(user)
                .k(10)
                .alpha(0.3)
                .build()
                .unwrap(),
        ),
        (
            "rect-filter",
            QueryRequest::for_user(user)
                .k(10)
                .alpha(0.3)
                .within(window)
                .build()
                .unwrap(),
        ),
        (
            "exclusion",
            QueryRequest::for_user(user)
                .k(10)
                .alpha(0.3)
                .exclude([1, 2, 3, 5, 8, 13])
                .build()
                .unwrap(),
        ),
        (
            "max_score",
            QueryRequest::for_user(user)
                .k(10)
                .alpha(0.3)
                .max_score(0.4)
                .build()
                .unwrap(),
        ),
    ]
}

/// `stats` without the wall clock, the one counter two runs of the same
/// search may disagree on.
fn work(stats: QueryStats) -> QueryStats {
    QueryStats {
        runtime: Default::default(),
        ..stats
    }
}

#[test]
fn streamed_collection_is_bit_identical_to_run_for_all_algorithms_and_filters() {
    let (engine, users) = full_engine();
    let mut session = engine.session();
    for algorithm in Algorithm::ALL {
        for &user in &users {
            for (shape, base) in request_shapes(&engine, user) {
                let request = base.with_algorithm(algorithm);
                let expected = session.run(&request).unwrap();
                let mut stream = session.stream(&request).unwrap();
                let streamed: Vec<_> = stream.by_ref().collect();
                assert_eq!(
                    streamed,
                    expected.ranked,
                    "{} / {shape} (user {user}): stream order or scores diverge from run()",
                    algorithm.name()
                );
                assert!(stream.error().is_none());
                assert!(stream.finalized_early() <= streamed.len());
                assert_eq!(
                    work(stream.stats()),
                    work(expected.stats),
                    "{} / {shape} (user {user}): a drained stream counts other work than run()",
                    algorithm.name()
                );
            }
        }
    }
}

#[test]
fn every_stream_prefix_equals_the_eager_top_j() {
    let (engine, users) = full_engine();
    let mut session = engine.session();
    for algorithm in Algorithm::ALL {
        let user = users[0];
        for (shape, base) in request_shapes(&engine, user) {
            let request = base.with_algorithm(algorithm);
            let expected = session.run(&request).unwrap();
            for j in 1..=expected.ranked.len() {
                let prefix: Vec<_> = session.stream(&request).unwrap().take(j).collect();
                assert_eq!(
                    prefix,
                    expected.ranked[..j],
                    "{} / {shape}: prefix of length {j} diverges from the eager top-{j}",
                    algorithm.name()
                );
            }
        }
    }
}

#[test]
fn early_exit_take_one_does_strictly_fewer_relaxed_edges() {
    let (engine, users) = full_engine();
    let mut session = engine.session();
    for algorithm in Algorithm::ALL {
        // TSA and AIS finalize entries early enough that `take(1)` must
        // save work; every algorithm must at least never do more.
        let strict = matches!(algorithm, Algorithm::Tsa | Algorithm::Ais);
        let mut full_total = 0usize;
        let mut partial_total = 0usize;
        for &user in &users {
            let request = QueryRequest::for_user(user)
                .k(10)
                .alpha(0.3)
                .algorithm(algorithm)
                .build()
                .unwrap();
            let full = session.run(&request).unwrap();
            assert!(
                !strict || full.stats.relaxed_edges > 0,
                "{}: the full run must relax edges",
                algorithm.name()
            );
            let mut stream = session.stream(&request).unwrap();
            let first = stream.next();
            assert!(first.is_some(), "{}: query has results", algorithm.name());
            assert_eq!(first.as_ref(), full.ranked.first());
            let partial = stream.stats();
            let counters = |stats: &QueryStats| {
                [
                    ("relaxed_edges", stats.relaxed_edges),
                    ("social_pops", stats.social_pops),
                    ("evaluated_users", stats.evaluated_users),
                    ("distance_calls", stats.distance_calls),
                ]
            };
            for ((name, part), (_, whole)) in
                counters(&partial).into_iter().zip(counters(&full.stats))
            {
                assert!(
                    part <= whole,
                    "{}: a truncated stream can never do more work ({name}, user {user})",
                    algorithm.name()
                );
            }
            full_total += full.stats.relaxed_edges;
            partial_total += partial.relaxed_edges;
        }
        assert!(
            !strict || partial_total < full_total,
            "{}: take(1) must relax strictly fewer edges over the workload \
             ({partial_total} vs {full_total})",
            algorithm.name()
        );
    }
}

#[test]
fn truncated_streams_do_not_corrupt_later_session_queries() {
    let (engine, users) = full_engine();
    let mut session = engine.session();
    let request = QueryRequest::for_user(users[0])
        .k(10)
        .alpha(0.3)
        .algorithm(Algorithm::Tsa)
        .build()
        .unwrap();
    let baseline = engine.run(&request).unwrap();
    // Abandon a stream after one entry, then re-run eagerly on the same
    // (now dirty) session context.
    let _ = session.stream(&request).unwrap().next();
    let after_abandon = session.run(&request).unwrap();
    assert_eq!(after_abandon.ranked, baseline.ranked);
}
