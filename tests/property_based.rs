//! Randomized property tests over generated geo-social datasets.
//!
//! These cover the core invariants of the system:
//! * every processing algorithm returns the oracle answer on arbitrary
//!   (connected or disconnected) weighted graphs with arbitrary partial
//!   location assignments;
//! * landmark lower bounds never exceed true distances;
//! * the incremental spatial NN stream is sorted and complete;
//! * the resumable query drivers tolerate arbitrary `step()` suspension
//!   schedules, interleaved concurrent streams, and abandonment mid-search
//!   without ever changing an already-finalized prefix or a later query.
//!
//! The cases are drawn from a seeded RNG (no external property-testing
//! framework is available offline), so failures are reproducible: every
//! assertion message carries the case number, and the generator for case
//! `i` is fully determined by `BASE_SEED + i`.

use geosocial_ssrq::core::{
    Algorithm, GeoSocialDataset, GeoSocialEngine, QueryRequest, StepOutcome,
};
use geosocial_ssrq::graph::{
    dijkstra_all, GraphBuilder, LandmarkSelection, LandmarkSet, SocialGraph,
};
use geosocial_ssrq::spatial::{Point, Rect, UniformGrid};
use rand::prelude::*;
use rand::rngs::StdRng;

const BASE_SEED: u64 = 0x5542_0001;
const CASES: u64 = 24;

/// A random undirected weighted graph of 2..=40 vertices, possibly
/// disconnected, possibly with parallel-edge attempts and isolated vertices.
fn arb_graph(rng: &mut StdRng) -> SocialGraph {
    let n = rng.gen_range(2usize..40);
    let edge_count = rng.gen_range(0..n * 3);
    let mut builder = GraphBuilder::new(n);
    for _ in 0..edge_count {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        if u != v {
            let _ = builder.add_edge(u, v, rng.gen_range(0.05f64..2.0));
        }
    }
    builder.build()
}

/// A dataset pairing a random graph with partially-known locations (at least
/// one located user, ~80 % coverage).
fn arb_dataset(rng: &mut StdRng) -> GeoSocialDataset {
    loop {
        let graph = arb_graph(rng);
        let n = graph.node_count();
        let locations: Vec<Option<Point>> = (0..n)
            .map(|_| {
                if rng.gen_bool(0.8) {
                    Some(Point::new(rng.gen(), rng.gen()))
                } else {
                    None
                }
            })
            .collect();
        if locations.iter().all(Option::is_none) {
            continue;
        }
        match GeoSocialDataset::new(graph, locations) {
            Ok(dataset) => return dataset,
            Err(_) => continue,
        }
    }
}

#[test]
fn all_algorithms_match_the_oracle_on_arbitrary_datasets() {
    // Edges the line-up must keep reaching: an answer shorter than `k`
    // (few admissible users), and SFA-Cached's AIS fallback (a cached list
    // of `t = 3` that runs out before the threshold holds).
    let mut short_answers = 0;
    let mut fallbacks = 0;
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(BASE_SEED + case);
        let dataset = arb_dataset(&mut rng);
        let n = dataset.user_count() as u32;
        let user = rng.gen_range(0..dataset.user_count()) as u32;
        let k = rng.gen_range(1usize..8);
        let alpha = rng.gen_range(0.05f64..0.95);
        // Every fourth case excludes every candidate; the others a random
        // few or none.
        let exclude: Vec<u32> = if case % 4 == 3 {
            (0..n).filter(|&other| other != user).collect()
        } else {
            (0..n).filter(|_| rng.gen_bool(0.2)).collect()
        };
        let engine = GeoSocialEngine::builder(dataset)
            .granularity(3)
            .landmarks(3)
            .with_ch()
            .cache_social_neighbors((0..n).collect::<Vec<_>>(), 3)
            .build()
            .unwrap();
        let request = QueryRequest::for_user(user)
            .k(k)
            .alpha(alpha)
            .exclude(exclude.iter().copied())
            .build()
            .unwrap();
        let oracle = engine
            .run(&request.clone().with_algorithm(Algorithm::Exhaustive))
            .unwrap();
        if oracle.ranked.len() < k {
            short_answers += 1;
        }
        for algorithm in [
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
        ] {
            let result = engine
                .run(&request.clone().with_algorithm(algorithm))
                .unwrap();
            assert!(
                result.same_users_and_scores(&oracle, 1e-9),
                "case {case}: {} disagreed (user {user}, k {k}, alpha {alpha}, {} excluded): \
                 got {:?}, expected {:?}",
                algorithm.name(),
                exclude.len(),
                result.users(),
                oracle.users()
            );
            // Only the fallback pops the aggregate index.
            if algorithm == Algorithm::SfaCached && result.stats.index_pops > 0 {
                fallbacks += 1;
            }
        }
    }
    assert!(
        short_answers > 0,
        "no case drew k above the admissible users"
    );
    assert!(fallbacks > 0, "no case fell back from the cached lists");
}

#[test]
fn ranked_results_are_sorted_and_within_k() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64((BASE_SEED ^ 0xA5A5) + case);
        let dataset = arb_dataset(&mut rng);
        let k = rng.gen_range(1usize..10);
        let alpha = rng.gen_range(0.05f64..0.95);
        let user = 0u32;
        let engine = GeoSocialEngine::builder(dataset)
            .granularity(3)
            .landmarks(2)
            .build()
            .unwrap();
        let result = engine
            .run(
                &QueryRequest::for_user(user)
                    .k(k)
                    .alpha(alpha)
                    .algorithm(Algorithm::Ais)
                    .build()
                    .unwrap(),
            )
            .unwrap();
        assert!(result.ranked.len() <= k, "case {case}");
        for pair in result.ranked.windows(2) {
            assert!(pair[0].score <= pair[1].score + 1e-12, "case {case}");
        }
        for entry in &result.ranked {
            assert!(entry.user != user, "case {case}");
            assert!(entry.score.is_finite(), "case {case}");
            let expected = alpha * entry.social + (1.0 - alpha) * entry.spatial;
            assert!((entry.score - expected).abs() < 1e-9, "case {case}");
        }
    }
}

#[test]
fn landmark_lower_bounds_never_exceed_true_distances() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64((BASE_SEED ^ 0x1B1B) + case);
        let graph = arb_graph(&mut rng);
        let m = rng.gen_range(1usize..5);
        let seed = rng.gen_range(0u64..1_000);
        let Ok(landmarks) = LandmarkSet::build(&graph, m, LandmarkSelection::FarthestFirst, seed)
        else {
            continue;
        };
        let source = 0u32;
        let truth = dijkstra_all(&graph, source);
        for v in graph.nodes() {
            let lb = landmarks.lower_bound(source, v);
            if truth[v as usize].is_finite() {
                assert!(
                    lb <= truth[v as usize] + 1e-9,
                    "case {case}: lb {lb} exceeds d(0,{v}) = {}",
                    truth[v as usize]
                );
            }
        }
    }
}

#[test]
fn incremental_nn_is_sorted_and_complete() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64((BASE_SEED ^ 0x33CC) + case);
        let count = rng.gen_range(1usize..120);
        let items: Vec<(u32, Point)> = (0..count)
            .map(|i| (i as u32, Point::new(rng.gen(), rng.gen())))
            .collect();
        let side = rng.gen_range(1u32..12);
        let grid = UniformGrid::bulk_load(Rect::unit(), side, items.clone()).unwrap();
        let query = Point::new(rng.gen(), rng.gen());
        let stream: Vec<_> = grid.nearest_neighbors(query).collect();
        assert_eq!(stream.len(), items.len(), "case {case}");
        for pair in stream.windows(2) {
            assert!(pair[0].distance <= pair[1].distance + 1e-12, "case {case}");
        }
        // The first reported neighbour is a true nearest neighbour.
        let best = items
            .iter()
            .map(|(_, p)| p.distance(query))
            .fold(f64::INFINITY, f64::min);
        assert!((stream[0].distance - best).abs() < 1e-12, "case {case}");
    }
}

/// The algorithms whose drivers are exercised by the pause/resume
/// properties (no auxiliary-index requirements).
const STREAMABLE: [Algorithm; 8] = [
    Algorithm::Exhaustive,
    Algorithm::Sfa,
    Algorithm::Spa,
    Algorithm::Tsa,
    Algorithm::TsaQc,
    Algorithm::AisBid,
    Algorithm::AisMinus,
    Algorithm::Ais,
];

#[test]
fn driver_drains_are_stable_under_arbitrary_suspension_schedules() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64((BASE_SEED ^ 0x57E9) + case);
        let dataset = arb_dataset(&mut rng);
        let user = rng.gen_range(0..dataset.user_count()) as u32;
        let k = rng.gen_range(1usize..8);
        let alpha = rng.gen_range(0.05f64..0.95);
        let algorithm = STREAMABLE[rng.gen_range(0..STREAMABLE.len())];
        let engine = GeoSocialEngine::builder(dataset)
            .granularity(3)
            .landmarks(2)
            .build()
            .unwrap();
        let request = QueryRequest::for_user(user)
            .k(k)
            .alpha(alpha)
            .algorithm(algorithm)
            .build()
            .unwrap();
        let expected = engine.run(&request).unwrap();

        // Drive the raw state machine with a random schedule: bursts of
        // steps separated by suspension points, draining at arbitrary
        // moments.  Whatever the schedule, the concatenated drains must
        // form a stable prefix of the final result.
        let mut ctx = engine.make_context();
        let mut driver = engine.begin_stream(&request, &mut ctx).unwrap();
        let mut drained: Vec<_> = Vec::new();
        let mut out = Vec::new();
        loop {
            let burst = rng.gen_range(0usize..5);
            let mut complete = false;
            for _ in 0..burst {
                if let StepOutcome::Complete = driver.step() {
                    complete = true;
                    break;
                }
            }
            if rng.gen_bool(0.7) {
                out.clear();
                driver.drain_finalized(&mut out);
                // A drain after suspension never rewrites what was already
                // drained — it only appends.
                drained.extend(out.iter().copied());
                assert_eq!(
                    drained[..],
                    expected.ranked[..drained.len()],
                    "case {case}: {} drained a non-prefix under suspension",
                    algorithm.name()
                );
            }
            if complete {
                break;
            }
        }
        let result = driver.take_result().unwrap();
        assert_eq!(
            result.ranked,
            expected.ranked,
            "case {case}: {} step-driven result diverges from run()",
            algorithm.name()
        );
        assert!(drained.len() <= result.ranked.len(), "case {case}");
    }
}

#[test]
fn interleaved_streams_on_two_sessions_yield_identical_results() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64((BASE_SEED ^ 0x1E8A) + case);
        let dataset = arb_dataset(&mut rng);
        let n = dataset.user_count() as u32;
        let engine = GeoSocialEngine::builder(dataset)
            .granularity(3)
            .landmarks(2)
            .build()
            .unwrap();
        let request_a = QueryRequest::for_user(rng.gen_range(0..n))
            .k(rng.gen_range(1usize..8))
            .alpha(rng.gen_range(0.05f64..0.95))
            .algorithm(STREAMABLE[rng.gen_range(0..STREAMABLE.len())])
            .build()
            .unwrap();
        let request_b = QueryRequest::for_user(rng.gen_range(0..n))
            .k(rng.gen_range(1usize..8))
            .alpha(rng.gen_range(0.05f64..0.95))
            .algorithm(STREAMABLE[rng.gen_range(0..STREAMABLE.len())])
            .build()
            .unwrap();
        let expected_a = engine.run(&request_a).unwrap();
        let expected_b = engine.run(&request_b).unwrap();

        // Two concurrent streams on two sessions, pulled in a random
        // interleaving: each must deliver its own result untouched by the
        // other's progress.
        let mut session_a = engine.session();
        let mut session_b = engine.session();
        let mut stream_a = session_a.stream(&request_a).unwrap();
        let mut stream_b = session_b.stream(&request_b).unwrap();
        let mut got_a = Vec::new();
        let mut got_b = Vec::new();
        let (mut done_a, mut done_b) = (false, false);
        while !(done_a && done_b) {
            if !done_a && (done_b || rng.gen_bool(0.5)) {
                match stream_a.next() {
                    Some(entry) => got_a.push(entry),
                    None => done_a = true,
                }
            } else if !done_b {
                match stream_b.next() {
                    Some(entry) => got_b.push(entry),
                    None => done_b = true,
                }
            }
        }
        assert_eq!(got_a, expected_a.ranked, "case {case}: stream A diverged");
        assert_eq!(got_b, expected_b.ranked, "case {case}: stream B diverged");
    }
}

#[test]
fn abandoned_streams_leave_later_queries_bit_identical() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64((BASE_SEED ^ 0xAB4D) + case);
        let dataset = arb_dataset(&mut rng);
        let n = dataset.user_count() as u32;
        let engine = GeoSocialEngine::builder(dataset)
            .granularity(3)
            .landmarks(2)
            .build()
            .unwrap();
        let abandoned = QueryRequest::for_user(rng.gen_range(0..n))
            .k(rng.gen_range(1usize..8))
            .alpha(rng.gen_range(0.05f64..0.95))
            .algorithm(STREAMABLE[rng.gen_range(0..STREAMABLE.len())])
            .build()
            .unwrap();
        let followup = QueryRequest::for_user(rng.gen_range(0..n))
            .k(rng.gen_range(1usize..8))
            .alpha(rng.gen_range(0.05f64..0.95))
            .algorithm(STREAMABLE[rng.gen_range(0..STREAMABLE.len())])
            .build()
            .unwrap();
        let baseline = engine.run(&followup).unwrap();

        // Drop a stream mid-query (after a random number of pulls), then
        // reuse the same session context for the follow-up query.
        let mut session = engine.session();
        {
            let mut stream = session.stream(&abandoned).unwrap();
            for _ in 0..rng.gen_range(0usize..4) {
                if stream.next().is_none() {
                    break;
                }
            }
        }
        let result = session.run(&followup).unwrap();
        assert_eq!(
            result.ranked, baseline.ranked,
            "case {case}: an abandoned stream changed a later query"
        );
        // And an abandoned stream doesn't disturb a later *stream* either.
        {
            let mut stream = session.stream(&abandoned).unwrap();
            let _ = stream.next();
        }
        let streamed: Vec<_> = session.stream(&followup).unwrap().collect();
        assert_eq!(streamed, baseline.ranked, "case {case}");
    }
}

#[test]
fn query_results_are_deterministic() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64((BASE_SEED ^ 0x77EE) + case);
        let dataset = arb_dataset(&mut rng);
        let alpha = rng.gen_range(0.05f64..0.95);
        let engine = GeoSocialEngine::builder(dataset)
            .granularity(4)
            .landmarks(2)
            .build()
            .unwrap();
        let request = QueryRequest::for_user(0)
            .k(5)
            .alpha(alpha)
            .algorithm(Algorithm::Ais)
            .build()
            .unwrap();
        let a = engine.run(&request).unwrap();
        let b = engine.run(&request).unwrap();
        assert_eq!(a.ranked, b.ranked, "case {case}");
    }
}
