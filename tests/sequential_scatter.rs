//! The in-process scatter is one sequential best-first loop whose arms
//! share a single query-rooted social expansion.  Three consequences are
//! pinned here:
//!
//! * **one social search per query** — the scatter relaxes no more edges
//!   than its most expensive executed arm would on its own, where it used
//!   to relax about their sum.  A plain request whose `k` exceeds the
//!   located population makes every arm execute (no threshold ever prunes
//!   a shard: the worst case for re-expansion) and is held to the same
//!   bound;
//! * **sharing is invisible** — a query repeated inside
//!   `QueryContext::share_social_expansion` returns the same answer and,
//!   for the sorted-access algorithms, the same counters except
//!   `relaxed_edges`;
//! * **determinism** — no result and no counter depends on thread timing
//!   or core count: a session, the engine and a one-worker batch report
//!   identical `ShardStats` for the same request, run after run.
//!   `Algorithm::Auto` is held to the same bar: its planner's rule reads
//!   only the request, so every shard picks the same delegate on every
//!   run, and with the hot caches off a repeat is a recomputation.
//!
//! For the same reason `crates/ssrq-net/tests/planner_remote.rs`
//! (`remote_auto_is_bit_identical_to_in_process_auto`) compares like with
//! like: both sides pick the same delegate for the same request, so its
//! `assert_eq!` does not rest on which mechanism a shard happened to run.
//! That two *different* exact distance mechanisms may differ by one ulp is
//! still open (ROADMAP item 1).

use geosocial_ssrq::core::{
    Algorithm, GeoSocialEngine, QueryContext, QueryRequest, QueryRequestBuilder, QueryStats,
};
use geosocial_ssrq::data::{DatasetConfig, QueryWorkload};
use geosocial_ssrq::prelude::{Point, Rect};
use geosocial_ssrq::shard::{Partitioning, ShardOutcome, ShardStats, ShardedEngine};
use std::time::Duration;

/// The index-free algorithms built on the query-rooted forward expansion.
/// (`AIS-BID` starts its forward search over for every evaluation — the
/// paper's no-sharing baseline — and shares nothing.)
const FORWARD_EXPANSION: [Algorithm; 6] = [
    Algorithm::Sfa,
    Algorithm::Spa,
    Algorithm::Tsa,
    Algorithm::TsaQc,
    Algorithm::AisMinus,
    Algorithm::Ais,
];

/// The four request shapes of the benchmark's `sharded_mixed` traffic.
fn shapes(dataset_users: u32, user: u32, at: Point) -> Vec<(&'static str, QueryRequestBuilder)> {
    let base = || QueryRequest::for_user(user).k(10).alpha(0.3);
    let window = Rect::new(
        Point::new(at.x - 0.2, at.y - 0.2),
        Point::new(at.x + 0.2, at.y + 0.2),
    );
    let excluded: Vec<u32> = (0..dataset_users).filter(|u| u % 7 == user % 7).collect();
    vec![
        ("plain", base()),
        ("rect", base().within(window)),
        ("exclusion", base().exclude(excluded)),
        ("max_score", base().max_score(0.35)),
    ]
}

fn without_runtime(mut stats: QueryStats) -> QueryStats {
    stats.runtime = Duration::ZERO;
    stats
}

/// Runs `request` through the scatter and checks it against the single
/// engine and against its executed arms run alone; returns the edges the
/// scatter relaxed, the largest executed arm's edges alone, and how many
/// arms executed.
fn check_scatter(
    sharded: &ShardedEngine,
    single: &GeoSocialEngine,
    request: &QueryRequest,
    at: Point,
    what: &str,
) -> (usize, usize, usize) {
    let (result, stats) = sharded.run_with_stats(request).unwrap();
    assert_eq!(
        result.ranked,
        single.run(request).unwrap().ranked,
        "{what}: differs from the single engine"
    );
    // Each executed arm on its own: the same request (origin pinned, as
    // the coordinator broadcasts it) on the bare shard engine, a fresh
    // context each.
    //
    // The bound is on the forward (query-rooted) half, the one the arms
    // share; AIS and AIS⁻ also run a reverse search per evaluated
    // candidate, which is never shared.
    let forward = |stats: &QueryStats| stats.relaxed_edges - stats.reverse_relaxed_edges;
    let broadcast = request.clone().with_origin(at);
    let (mut largest_arm, mut arms_reverse) = (0, 0);
    for (s, outcome) in stats.per_shard.iter().enumerate() {
        if matches!(outcome, ShardOutcome::Executed(_)) {
            let arm = sharded.shard_engine(s).run(&broadcast).unwrap();
            largest_arm = largest_arm.max(forward(&arm.stats));
            arms_reverse += arm.stats.reverse_relaxed_edges;
        }
    }
    let relaxed = forward(&stats.merged);
    assert!(
        relaxed as f64 <= 1.05 * largest_arm as f64,
        "{what}: the scatter relaxed {relaxed} edges, its largest arm alone {largest_arm}"
    );
    let reverse = stats.merged.reverse_relaxed_edges;
    assert!(
        reverse <= arms_reverse,
        "{what}: the scatter relaxed {reverse} reverse edges, its executed arms alone {arms_reverse}"
    );
    let per_shard: usize = stats
        .per_shard
        .iter()
        .map(|outcome| match outcome {
            ShardOutcome::Executed(arm) => arm.relaxed_edges,
            _ => 0,
        })
        .sum();
    assert_eq!(
        per_shard, stats.merged.relaxed_edges,
        "{what}: the arms sum to the work done"
    );
    (relaxed, largest_arm, stats.executed_shards())
}

#[test]
fn a_scatter_relaxes_no_more_than_its_most_expensive_arm() {
    let dataset = DatasetConfig::gowalla_like(1500).with_seed(2016).generate();
    let workload = QueryWorkload::generate(&dataset, 3, 23);
    let single = GeoSocialEngine::builder(dataset.clone()).build().unwrap();
    let users = dataset.user_count() as u32;
    for shards in [4usize, 8] {
        let sharded = ShardedEngine::builder(dataset.clone())
            .shards(shards)
            .partitioning(Partitioning::SpatialGrid { cells_per_axis: 8 })
            .build()
            .unwrap();
        let (mut scattered, mut largest_arms) = (0usize, 0usize);
        for &user in &workload.users {
            let at = dataset.location(user).expect("workload users are located");
            for (shape, builder) in shapes(users, user, at) {
                for algorithm in FORWARD_EXPANSION {
                    let request = builder.clone().algorithm(algorithm).build().unwrap();
                    let what =
                        format!("{} {shape}, user {user}, {shards} shards", algorithm.name());
                    let (relaxed, largest_arm, _) =
                        check_scatter(&sharded, &single, &request, at, &what);
                    scattered += relaxed;
                    largest_arms += largest_arm;
                }
            }
        }
        // The worst case for re-expansion: a `k` above the located
        // population keeps `f_k` infinite, so no shard is pruned and every
        // arm executes.
        let user = workload.users[0];
        let at = dataset.location(user).expect("workload users are located");
        for algorithm in FORWARD_EXPANSION {
            let request = QueryRequest::for_user(user)
                .k(users as usize)
                .alpha(0.3)
                .algorithm(algorithm)
                .build()
                .unwrap();
            let what = format!(
                "{} plain k={users}, user {user}, {shards} shards",
                algorithm.name()
            );
            let (relaxed, largest_arm, executed) =
                check_scatter(&sharded, &single, &request, at, &what);
            assert_eq!(executed, shards, "{what}: every arm executes");
            scattered += relaxed;
            largest_arms += largest_arm;
        }
        assert!(largest_arms > 0, "the workload must exercise the expansion");
        println!(
            "SpatialGrid 8, {shards} shards: scatter relaxed {scattered} edges, \
             the largest arms alone {largest_arms} ({:.3}x)",
            scattered as f64 / largest_arms as f64
        );
    }
}

#[test]
fn a_shared_expansion_changes_no_answer_and_no_sorted_access_counter() {
    let dataset = DatasetConfig::gowalla_like(800).with_seed(77).generate();
    let workload = QueryWorkload::generate(&dataset, 3, 5);
    let engine = GeoSocialEngine::builder(dataset.clone()).build().unwrap();
    let mut ctx = QueryContext::new();
    for &user in &workload.users {
        for algorithm in FORWARD_EXPANSION {
            let request = QueryRequest::for_user(user)
                .k(8)
                .alpha(0.4)
                .algorithm(algorithm)
                .build()
                .unwrap();
            let what = format!("{}, user {user}", algorithm.name());
            let alone = engine.run_with(&request, &mut QueryContext::new()).unwrap();
            let (first, second, third) = ctx.share_social_expansion(|ctx| {
                (
                    engine.run_with(&request, ctx).unwrap(),
                    engine.run_with(&request, ctx).unwrap(),
                    engine.run_with(&request, ctx).unwrap(),
                )
            });
            assert_eq!(first.ranked, alone.ranked, "{what}: first run in the scope");
            assert_eq!(second.ranked, alone.ranked, "{what}: resumed run");
            assert_eq!(
                without_runtime(first.stats),
                without_runtime(alone.stats),
                "{what}: the first run in a scope is an ordinary run"
            );
            assert_eq!(
                second.stats.relaxed_edges - second.stats.reverse_relaxed_edges,
                0,
                "{what}: a full replay is free"
            );
            // The reverse half is never shared: what a resumed run does
            // depends on the forward expansion it resumes, not on reverse
            // work before it, so a second resume of the same expansion
            // repeats the first exactly.
            assert_eq!(third.ranked, alone.ranked, "{what}: resumed again");
            assert_eq!(
                without_runtime(third.stats),
                without_runtime(second.stats),
                "{what}: a second resume repeats the first"
            );
            let sorted_access = !matches!(algorithm, Algorithm::AisMinus | Algorithm::Ais);
            if sorted_access {
                let mut resumed = without_runtime(second.stats);
                resumed.relaxed_edges = alone.stats.relaxed_edges;
                assert_eq!(
                    resumed,
                    without_runtime(alone.stats),
                    "{what}: replaying must look like expanding"
                );
            }
            // Outside the scope the context starts every search afresh.
            let after = engine.run_with(&request, &mut ctx).unwrap();
            assert_eq!(after.ranked, alone.ranked, "{what}: after the scope");
            assert_eq!(
                without_runtime(after.stats),
                without_runtime(alone.stats),
                "{what}: nothing may be resumed outside a scope"
            );
        }
    }
}

#[test]
fn ais_bid_in_a_scope_neither_resumes_nor_corrupts_a_retained_expansion() {
    // AIS-BID resets the scope's forward scratch before every evaluation.
    // Run between two AIS queries from the same user, it must not pick up
    // the expansion the first one retained, and the second must still
    // answer as if run alone.
    let dataset = DatasetConfig::gowalla_like(800).with_seed(77).generate();
    let workload = QueryWorkload::generate(&dataset, 3, 5);
    let engine = GeoSocialEngine::builder(dataset.clone()).build().unwrap();
    let mut ctx = QueryContext::new();
    for &user in &workload.users {
        let request = |algorithm| {
            QueryRequest::for_user(user)
                .k(8)
                .alpha(0.4)
                .algorithm(algorithm)
                .build()
                .unwrap()
        };
        let (ais, bid) = (request(Algorithm::Ais), request(Algorithm::AisBid));
        let ais_alone = engine.run_with(&ais, &mut QueryContext::new()).unwrap();
        let bid_alone = engine.run_with(&bid, &mut QueryContext::new()).unwrap();
        let (first, between, last) = ctx.share_social_expansion(|ctx| {
            (
                engine.run_with(&ais, ctx).unwrap(),
                engine.run_with(&bid, ctx).unwrap(),
                engine.run_with(&ais, ctx).unwrap(),
            )
        });
        assert_eq!(first.ranked, ais_alone.ranked, "user {user}: first AIS");
        assert_eq!(between.ranked, bid_alone.ranked, "user {user}: AIS-BID");
        assert_eq!(
            last.ranked, ais_alone.ranked,
            "user {user}: AIS after AIS-BID"
        );
        assert_eq!(
            without_runtime(between.stats),
            without_runtime(bid_alone.stats),
            "user {user}: AIS-BID shares nothing"
        );
    }
}

/// A scatter's statistics with every wall-clock reading zeroed.
fn timeless(mut stats: ShardStats) -> ShardStats {
    stats.gather_runtime = Duration::ZERO;
    stats.merged.runtime = Duration::ZERO;
    for outcome in &mut stats.per_shard {
        if let ShardOutcome::Executed(arm) = outcome {
            arm.runtime = Duration::ZERO;
        }
    }
    stats
}

#[test]
fn scatter_statistics_do_not_depend_on_the_entry_point_or_the_run() {
    let dataset = DatasetConfig::gowalla_like(1200).with_seed(909).generate();
    let workload = QueryWorkload::generate(&dataset, 4, 41);
    for policy in [
        Partitioning::SpatialGrid { cells_per_axis: 2 },
        Partitioning::SpatialGrid { cells_per_axis: 8 },
    ] {
        let sharded = ShardedEngine::builder(dataset.clone())
            .shards(4)
            .partitioning(policy)
            .build()
            .unwrap();
        // With its hot cache off, a repeated `Auto` query is computed again.
        for s in 0..sharded.shard_count() {
            sharded.shard_engine(s).planner().set_cache_capacity(0);
        }
        let mut session = sharded.session();
        for &user in &workload.users {
            let at = dataset.location(user).expect("workload users are located");
            for (shape, builder) in shapes(dataset.user_count() as u32, user, at) {
                for algorithm in [
                    Algorithm::Sfa,
                    Algorithm::Tsa,
                    Algorithm::Ais,
                    Algorithm::Auto,
                ] {
                    let request = builder.clone().algorithm(algorithm).build().unwrap();
                    let what = format!("{} {shape}, user {user}, {policy:?}", algorithm.name());
                    let (result, stats) = session.run_with_stats(&request).unwrap();
                    let stats = timeless(stats);
                    let (again, stats_again) = session.run_with_stats(&request).unwrap();
                    assert_eq!(again.ranked, result.ranked, "{what}: session, second run");
                    assert_eq!(timeless(stats_again), stats, "{what}: session, second run");
                    let (direct, stats_direct) = sharded.run_with_stats(&request).unwrap();
                    assert_eq!(direct.ranked, result.ranked, "{what}: engine");
                    assert_eq!(timeless(stats_direct), stats, "{what}: engine");
                    let batch = sharded.run_batch_with_threads(std::slice::from_ref(&request), 1);
                    let batched = batch[0].as_ref().unwrap();
                    assert_eq!(batched.ranked, result.ranked, "{what}: batch");
                    assert_eq!(
                        without_runtime(batched.stats),
                        stats.merged,
                        "{what}: batch"
                    );
                }
            }
        }
    }
}
