//! Churn-safety property test for the planner's hot-result cache.
//!
//! The invariant: **a cached answer is never stale.**  The cache's
//! score-delta admission test lets `update_location` keep entries whose
//! result provably cannot change — this test hammers that proof with
//! random location churn (moves, removals, moves of the query users
//! themselves) interleaved with repeated `Algorithm::Auto` queries, and
//! after *every* update compares each cached-or-fresh Auto answer against
//! a freshly computed exhaustive oracle.  The run also asserts the cache
//! actually served hits, so the property isn't vacuously true because
//! everything was invalidated.

use geosocial_ssrq::core::{Algorithm, GeoSocialEngine, QueryRequest, QueryResult};
use geosocial_ssrq::data::{DatasetConfig, QueryWorkload};
use geosocial_ssrq::graph::dijkstra_all;
use geosocial_ssrq::prelude::{Point, Rect};
use rand::{rngs::StdRng, Rng, SeedableRng};

fn repeated_requests(users: &[u32]) -> Vec<QueryRequest> {
    let mut requests = Vec::new();
    for (i, &user) in users.iter().enumerate() {
        let builder = QueryRequest::for_user(user)
            .k(8)
            .alpha(0.3 + 0.1 * (i % 3) as f64)
            .algorithm(Algorithm::Auto);
        let builder = if i % 2 == 0 {
            builder.within(Rect::new(Point::new(0.0, 0.0), Point::new(0.9, 0.9)))
        } else {
            builder
        };
        requests.push(builder.build().unwrap());
    }
    requests
}

#[test]
fn random_churn_never_serves_a_stale_cached_answer() {
    let dataset = DatasetConfig::gowalla_like(400).with_seed(404).generate();
    let workload = QueryWorkload::generate(&dataset, 5, 77);
    let user_count = dataset.user_count() as u32;
    let mut engine = GeoSocialEngine::builder(dataset).build().unwrap();
    let requests = repeated_requests(&workload.users);
    let mut rng = StdRng::seed_from_u64(2024);

    // Warm the cache once.
    for request in &requests {
        engine.run(request).unwrap();
    }

    for step in 0..60 {
        // One random churn event.  Bias moves toward the query users and
        // current result members occasionally, so the invalidation rules
        // (not just the admission bound) get exercised.
        let user = if rng.gen_bool(0.3) {
            workload.users[rng.gen_range(0..workload.users.len())]
        } else {
            rng.gen_range(0..user_count)
        };
        if rng.gen_bool(0.15) {
            engine.remove_location(user).unwrap();
        } else {
            let p = Point::new(rng.gen::<f64>(), rng.gen::<f64>());
            engine.update_location(user, p).unwrap();
        }

        // Every repeated request — whether served from the cache or
        // recomputed — must equal a fresh exhaustive answer.
        for request in &requests {
            let auto = engine.run(request).unwrap();
            let oracle = engine
                .run(&request.clone().with_algorithm(Algorithm::Exhaustive))
                .unwrap();
            assert!(
                auto.same_users_and_scores(&oracle, 1e-9),
                "stale cached answer after churn step {step} (user {}, served_from_cache={}):\n  \
                 got      {:?}\n  expected {:?}",
                request.user(),
                auto.stats.vertex_pops == 0,
                auto.users(),
                oracle.users()
            );
        }
    }

    let snapshot = engine.planner().snapshot();
    assert!(
        snapshot.cache_hits > 0,
        "the churn run never hit the cache — the property test is vacuous"
    );
    assert!(
        snapshot.cache_invalidations > 0,
        "the churn run never invalidated anything — the admission test was never exercised"
    );
}

#[test]
fn moving_the_query_user_always_invalidates_derived_origin_entries() {
    let dataset = DatasetConfig::gowalla_like(300).with_seed(11).generate();
    let mut engine = GeoSocialEngine::builder(dataset).build().unwrap();
    let user = 7u32;
    let request = QueryRequest::for_user(user)
        .k(5)
        .algorithm(Algorithm::Auto)
        .build()
        .unwrap();
    let before = engine.run(&request).unwrap();
    assert_eq!(engine.run(&request).unwrap().stats.cache_hits, 1);
    // Move the query user far away: the derived origin changed, so the next
    // query must recompute (and may legitimately differ from `before`).
    engine
        .update_location(user, Point::new(0.987, 0.012))
        .unwrap();
    let hits_before = engine.planner().snapshot().cache_hits;
    let after = engine.run(&request).unwrap();
    assert_eq!(
        engine.planner().snapshot().cache_hits,
        hits_before,
        "entry must have been dropped"
    );
    let oracle = engine
        .run(&request.clone().with_algorithm(Algorithm::Exhaustive))
        .unwrap();
    assert!(after.same_users_and_scores(&oracle, 1e-9));
    // Regression guard for the inverse direction: a cached entry for a far
    // away non-member mover may survive, but serving it must stay exact.
    let _ = before;
}

#[test]
fn irrelevant_churn_keeps_entries_hot() {
    // A mover that is excluded from the request can never change its
    // result, so the cached entry must survive and keep serving.
    let dataset = DatasetConfig::gowalla_like(300).with_seed(21).generate();
    let mut engine = GeoSocialEngine::builder(dataset).build().unwrap();
    let user = 3u32;
    let excluded = 200u32;
    let request = QueryRequest::for_user(user)
        .k(5)
        .exclude([excluded])
        .algorithm(Algorithm::Auto)
        .build()
        .unwrap();
    engine.run(&request).unwrap();
    engine
        .update_location(excluded, Point::new(0.5, 0.5))
        .unwrap();
    let warm = engine.run(&request).unwrap();
    assert_eq!(
        warm.stats.cache_hits, 1,
        "excluded-user churn must not evict the entry"
    );
    let oracle = engine
        .run(&request.clone().with_algorithm(Algorithm::Exhaustive))
        .unwrap();
    assert!(warm.same_users_and_scores(&oracle, 1e-9));
}

/// Request shapes per `(k, α)` in [`every_admitted_shape`].
const SHAPES: usize = 5;

/// One request of every shape the cache admits — plain, windowed, with
/// exclusions, with a `max_score` cutoff, with an explicit origin — at each
/// `(k, α)` of the benchmark's grid, plus one asking for more users than
/// exist (admission bound `+∞`).  Exclusion requests exclude the top two
/// of the unfiltered answer, so excluded users sit where churn matters.
fn every_admitted_shape(engine: &GeoSocialEngine, users: &[u32]) -> Vec<QueryRequest> {
    let window = Rect::new(Point::new(0.1, 0.1), Point::new(0.8, 0.8));
    let mut requests = Vec::new();
    for k in [1, 10, 50] {
        for alpha in [0.1, 0.3, 0.9] {
            for shape in 0..SHAPES {
                let user = users[requests.len() % users.len()];
                let builder = QueryRequest::for_user(user)
                    .k(k)
                    .alpha(alpha)
                    .algorithm(Algorithm::Auto);
                let builder = match shape {
                    0 => builder,
                    1 => builder.within(window),
                    2 => {
                        let plain = builder.clone().algorithm(Algorithm::Exhaustive);
                        let top = engine.run(&plain.build().unwrap()).unwrap().users();
                        builder.exclude(top.into_iter().take(2))
                    }
                    3 => builder.max_score(0.15),
                    _ => builder.origin(Point::new(0.5, 0.5)),
                };
                requests.push(builder.build().unwrap());
            }
        }
    }
    let everyone = engine.dataset().user_count() + 1;
    requests.push(
        QueryRequest::for_user(users[0])
            .k(everyone)
            .alpha(0.3)
            .algorithm(Algorithm::Auto)
            .build()
            .unwrap(),
    );
    requests
}

#[test]
fn every_cached_request_shape_matches_an_uncached_twin_under_churn() {
    let dataset = DatasetConfig::gowalla_like(400).with_seed(505).generate();
    let workload = QueryWorkload::generate(&dataset, 7, 78);
    let user_count = dataset.user_count() as u32;
    let mut engine = GeoSocialEngine::builder(dataset).build().unwrap();
    // A small cache, so LRU eviction and slot reuse interleave with
    // invalidation; the twin never caches and runs the same delegate.
    engine.planner().set_cache_capacity(8);
    let mut twin = engine.clone();
    twin.planner().set_cache_capacity(0);
    let requests = every_admitted_shape(&engine, &workload.users);
    let excluded: Vec<u32> = requests
        .iter()
        .flat_map(|r| r.excluded().iter().copied())
        .collect();
    let mut members: Vec<u32> = Vec::new();
    let mut served_by_shape = [0usize; SHAPES];
    let mut rng = StdRng::seed_from_u64(2025);

    for step in 0..120 {
        // A sliding window of ten requests, four new per step: the six
        // carried over were cached one step ago and now face one move.
        for i in 0..10 {
            let index = (step * 4 + i) % requests.len();
            let request = &requests[index];
            let auto = engine.run(request).unwrap();
            let uncached = twin.run(request).unwrap();
            let served_from_cache = auto.stats.cache_hits == 1;
            assert_eq!(
                auto.ranked, uncached.ranked,
                "step {step}, request {request:?}, served_from_cache={served_from_cache}"
            );
            let oracle = engine
                .run(&request.clone().with_algorithm(Algorithm::Exhaustive))
                .unwrap();
            assert!(
                auto.same_users_and_scores(&oracle, 1e-9),
                "stale answer at step {step} for {request:?}:\n  got      {:?}\n  expected {:?}",
                auto.users(),
                oracle.users()
            );
            if served_from_cache && index < requests.len() - 1 {
                served_by_shape[index % SHAPES] += 1;
            }
            members.extend(auto.users());
        }

        // One churn event, biased toward the users each clause of the
        // admission test is about: query users (explicit-origin ones
        // included), result members and excluded users.
        let user = match rng.gen_range(0..10) {
            0..=2 => workload.users[rng.gen_range(0..workload.users.len())],
            3 | 4 if !members.is_empty() => members[rng.gen_range(0..members.len())],
            5 => excluded[rng.gen_range(0..excluded.len())],
            _ => rng.gen_range(0..user_count),
        };
        members.clear();
        if rng.gen_bool(0.15) {
            engine.remove_location(user).unwrap();
            twin.remove_location(user).unwrap();
        } else {
            let p = Point::new(rng.gen::<f64>(), rng.gen::<f64>());
            engine.update_location(user, p).unwrap();
            twin.update_location(user, p).unwrap();
        }
    }

    let snapshot = engine.planner().snapshot();
    assert!(snapshot.cache_len <= 8);
    assert!(
        snapshot.cache_invalidations > 0,
        "the run never invalidated anything"
    );
    assert!(
        served_by_shape.iter().all(|&n| n > 0),
        "every request shape must be served from the cache at least once: {served_by_shape:?}"
    );
}

/// A result as `(user, score bits)`: what "bit for bit" compares.
fn bits(result: &QueryResult) -> Vec<(u32, u64)> {
    result
        .ranked
        .iter()
        .map(|r| (r.user, r.score.to_bits()))
        .collect()
}

/// An engine over a fresh 400-user dataset, an uncached twin, and a located
/// query user whose top-5 at `alpha` is full; the engine caches that
/// answer, which is returned with its request.
fn warm_entry(
    seed: u64,
    alpha: f64,
) -> (GeoSocialEngine, GeoSocialEngine, QueryRequest, QueryResult) {
    let dataset = DatasetConfig::gowalla_like(400).with_seed(seed).generate();
    let engine = GeoSocialEngine::builder(dataset).build().unwrap();
    let twin = engine.clone();
    twin.planner().set_cache_capacity(0);
    let (request, answer) = (0..engine.dataset().user_count() as u32)
        .filter(|&user| engine.dataset().location(user).is_some())
        .map(|user| {
            let request = QueryRequest::for_user(user)
                .k(5)
                .alpha(alpha)
                .algorithm(Algorithm::Auto)
                .build()
                .unwrap();
            let answer = engine.run(&request).unwrap();
            (request, answer)
        })
        .find(|(_, answer)| answer.ranked.len() == 5)
        .expect("a located user with five candidates");
    assert_eq!(hits_after(&engine, &request), 1);
    (engine, twin, request, answer)
}

/// Runs `request` once more and returns how many cache hits that added.
fn hits_after(engine: &GeoSocialEngine, request: &QueryRequest) -> u64 {
    let before = engine.planner().snapshot().cache_hits;
    engine.run(request).unwrap();
    engine.planner().snapshot().cache_hits - before
}

/// Applies one location change to both engines.
fn relocate(engines: [&mut GeoSocialEngine; 2], user: u32, to: Option<Point>) {
    for engine in engines {
        match to {
            Some(p) => engine.update_location(user, p).unwrap(),
            None => engine.remove_location(user).unwrap(),
        }
    }
}

/// Runs `request` on both engines, asserts the answers are bit-identical
/// and returns the cached engine's, with whether it was a cache hit.
fn run_both(
    engine: &GeoSocialEngine,
    twin: &GeoSocialEngine,
    request: &QueryRequest,
) -> (QueryResult, bool) {
    let before = engine.planner().snapshot().cache_hits;
    let cached = engine.run(request).unwrap();
    let hit = engine.planner().snapshot().cache_hits > before;
    assert_eq!(
        bits(&cached),
        bits(&twin.run(request).unwrap()),
        "{request:?}"
    );
    (cached, hit)
}

#[test]
fn a_socially_far_mover_near_the_origin_leaves_a_validated_hit() {
    let alpha = 0.3;
    let (mut engine, mut twin, request, answer) = warm_entry(606, alpha);
    let user = request.user();
    let ds = engine.dataset();
    let origin = ds.location(user).unwrap();
    let fk = answer.fk().unwrap();
    // Put the mover where its spatial term alone is half of f_k: its
    // replay search needs to reach f_k / (2α), normalized.
    let spatial = fk / (2.0 * (1.0 - alpha));
    let to = Point::new(origin.x + spatial * ds.spatial_norm(), origin.y);
    let budget = fk / (2.0 * alpha) * ds.social_norm();
    let social = dijkstra_all(ds.graph(), user);
    let within_budget = social.iter().filter(|&&d| d < 1.01 * budget).count();
    assert!(
        within_budget < answer.stats.social_pops,
        "the replay must stay cheaper than the cold search"
    );
    // A located non-member the landmarks cannot rule out, whose exact
    // score there is above f_k: only the replay's search clears it.
    let mover = (0..ds.user_count() as u32)
        .filter(|&m| m != user && ds.location(m).is_some() && !answer.users().contains(&m))
        .find(|&m| {
            social[m as usize].is_finite()
                && social[m as usize] > 1.01 * budget
                && engine.landmarks().lower_bound(user, m) < budget
        })
        .expect("a socially far user the landmarks cannot bound");
    relocate([&mut engine, &mut twin], mover, Some(to));
    let (served, hit) = run_both(&engine, &twin, &request);
    assert!(hit, "the replay keeps the entry");
    assert_eq!(served.stats.cache_hits, 1);
    assert_eq!(served.stats.distance_calls, 1);
    assert!(served.stats.social_pops > 0, "{:?}", served.stats);
    assert!(served.stats.relaxed_edges > 0, "{:?}", served.stats);
    assert_eq!(bits(&served), bits(&answer));
    assert_eq!(engine.planner().snapshot().cache_invalidations, 0);
}

#[test]
fn a_friend_moved_onto_the_origin_enters_the_answer() {
    let alpha = 0.3;
    let (mut engine, mut twin, request, answer) = warm_entry(606, alpha);
    let user = request.user();
    let ds = engine.dataset();
    let origin = ds.location(user).unwrap();
    let friend = ds
        .graph()
        .neighbors(user)
        .filter(|e| !answer.users().contains(&e.to))
        .find(|e| alpha * ds.normalize_social(e.weight) < answer.fk().unwrap())
        .expect("a close friend outside the answer")
        .to;
    relocate([&mut engine, &mut twin], friend, Some(origin));
    let misses = engine.planner().snapshot().cache_misses;
    let (fresh, hit) = run_both(&engine, &twin, &request);
    assert!(!hit);
    assert_eq!(engine.planner().snapshot().cache_misses, misses + 1);
    assert!(fresh.users().contains(&friend));
    assert_eq!(engine.planner().snapshot().cache_invalidations, 1);
}

#[test]
fn a_member_moving_or_leaving_and_the_query_user_moving_force_misses() {
    let (mut engine, mut twin, request, answer) = warm_entry(707, 0.3);
    let members = answer.users();
    let changes = [
        (members[0], Some(Point::new(0.5, 0.5))),
        (members[1], None),
        (request.user(), Some(Point::new(0.25, 0.75))),
    ];
    for (step, (mover, to)) in changes.into_iter().enumerate() {
        relocate([&mut engine, &mut twin], mover, to);
        let (_, hit) = run_both(&engine, &twin, &request);
        assert!(!hit, "change {step} must force a miss");
        assert!(run_both(&engine, &twin, &request).1);
    }
    assert_eq!(engine.planner().snapshot().cache_invalidations, 3);
}

#[test]
fn more_movers_than_slots_keep_the_log_bounded_and_answers_exact() {
    let dataset = DatasetConfig::gowalla_like(400).with_seed(808).generate();
    let workload = QueryWorkload::generate(&dataset, 4, 79);
    let user_count = dataset.user_count() as u32;
    let mut engine = GeoSocialEngine::builder(dataset).build().unwrap();
    engine.planner().set_cache_capacity(8);
    let mut twin = engine.clone();
    twin.planner().set_cache_capacity(0);
    let requests = repeated_requests(&workload.users);
    let mut rng = StdRng::seed_from_u64(2026);
    for round in 0..6 {
        for request in &requests {
            run_both(&engine, &twin, request);
        }
        // Twice the capacity between two lookups of each request.
        for _ in 0..16 {
            let user = rng.gen_range(0..user_count);
            let p = Point::new(rng.gen::<f64>(), rng.gen::<f64>());
            relocate([&mut engine, &mut twin], user, Some(p));
            let snapshot = engine.planner().snapshot();
            assert!(snapshot.churn_log_len <= 8, "round {round}: {snapshot:?}");
            assert_eq!(snapshot.cache_len == 0, snapshot.churn_log_len == 0);
        }
    }
    assert!(engine.planner().snapshot().cache_invalidations > 0);
}

#[test]
fn a_parallel_batch_over_a_churned_cache_equals_sequential_runs() {
    let dataset = DatasetConfig::gowalla_like(400).with_seed(909).generate();
    let workload = QueryWorkload::generate(&dataset, 6, 80);
    let user_count = dataset.user_count() as u32;
    let mut engine = GeoSocialEngine::builder(dataset).build().unwrap();
    let mut twin = engine.clone();
    twin.planner().set_cache_capacity(0);
    let requests = repeated_requests(&workload.users);
    // Each request four times, so threads replay the same entries at once.
    let batch: Vec<QueryRequest> = (0..4).flat_map(|_| requests.iter().cloned()).collect();
    let mut rng = StdRng::seed_from_u64(2027);
    for _ in 0..5 {
        engine.run_batch_with_threads(&requests, 1);
        for _ in 0..6 {
            let user = rng.gen_range(0..user_count);
            let p = Point::new(rng.gen::<f64>(), rng.gen::<f64>());
            relocate([&mut engine, &mut twin], user, Some(p));
        }
        let parallel = engine.run_batch_with_threads(&batch, 4);
        for (request, got) in batch.iter().zip(parallel) {
            let expected = twin.run(request).unwrap();
            assert_eq!(bits(&got.unwrap()), bits(&expected), "{request:?}");
        }
    }
    let snapshot = engine.planner().snapshot();
    assert!(snapshot.cache_hits > 0 && snapshot.cache_misses > 0);
}
