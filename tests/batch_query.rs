//! Integration tests of the parallel batch-query path and the reusable
//! search-scratch substrate:
//!
//! * `run_batch` must return exactly the results of sequential `run`
//!   execution, for every algorithm, at any thread count — including when
//!   the first batch triggers *lazy* auxiliary-index initialization from
//!   multiple workers at once;
//! * reusing one `QueryContext` across queries must never change an answer
//!   (the stale-scratch regression guard).
//!
//! Contraction Hierarchies construction is expensive on the hub-heavy
//! synthetic graphs (the paper makes the same observation about CH on
//! social networks), so the fully-indexed engine is built once and shared
//! across tests — which `GeoSocialEngine: Send + Sync` makes trivially
//! safe.

use geosocial_ssrq::core::{Algorithm, GeoSocialEngine, QueryContext, QueryRequest};
use geosocial_ssrq::data::{DatasetConfig, QueryWorkload};
use std::sync::OnceLock;

const USERS: usize = 150;
const SEED: u64 = 7;

/// An engine with every auxiliary index *declared* (lazily), so all
/// `Algorithm::ALL` variants are runnable; nothing auxiliary is built until
/// first use.
fn full_engine() -> (GeoSocialEngine, Vec<u32>) {
    let dataset = DatasetConfig::gowalla_like(USERS)
        .with_seed(SEED)
        .generate();
    let workload = QueryWorkload::generate(&dataset, 6, SEED ^ 0xBA7C).users;
    let engine = GeoSocialEngine::builder(dataset)
        .with_ch()
        .cache_social_neighbors(workload.clone(), 60)
        .build()
        .unwrap();
    (engine, workload)
}

fn shared_engine() -> &'static (GeoSocialEngine, Vec<u32>) {
    static ENGINE: OnceLock<(GeoSocialEngine, Vec<u32>)> = OnceLock::new();
    ENGINE.get_or_init(full_engine)
}

fn mixed_batch(users: &[u32], algorithm: Algorithm) -> Vec<QueryRequest> {
    users
        .iter()
        .enumerate()
        .map(|(i, &user)| {
            QueryRequest::for_user(user)
                .k(3 + i % 5)
                .alpha([0.2, 0.5, 0.8][i % 3])
                .algorithm(algorithm)
                .build()
                .unwrap()
        })
        .collect()
}

#[test]
fn batch_results_are_identical_to_sequential_for_every_algorithm() {
    let (engine, users) = shared_engine();

    for algorithm in Algorithm::ALL {
        // A fresh engine per algorithm/thread-count pass would re-run the
        // expensive CH build; the shared engine's lazy indexes are instead
        // initialized by whichever path (sequential here, or a batch worker
        // below) first needs them — results must be unaffected either way.
        let batch = mixed_batch(users, algorithm);
        let sequential: Vec<_> = batch
            .iter()
            .map(|request| engine.run(request).unwrap())
            .collect();
        for threads in [1usize, 2, 4] {
            let parallel = engine.run_batch_with_threads(&batch, threads);
            assert_eq!(parallel.len(), batch.len());
            for (i, (seq, par)) in sequential.iter().zip(parallel.iter()).enumerate() {
                let par = par.as_ref().unwrap_or_else(|e| {
                    panic!("{} query {i} failed in batch mode: {e:?}", algorithm.name())
                });
                // Bit-exact: each query computes the same floating-point
                // operations in the same order regardless of which worker
                // runs it.
                assert_eq!(
                    seq.ranked,
                    par.ranked,
                    "{} query {i} differs between sequential and {threads}-thread batch",
                    algorithm.name()
                );
            }
        }
    }
}

#[test]
fn parallel_batch_triggers_lazy_ch_init_exactly_once_and_stays_exact() {
    // A dedicated engine whose very first queries are a *parallel* batch of
    // CH-requiring requests: the workers race into the lazy `OnceLock`
    // build, exactly one build runs, and every result matches a
    // sequentially-queried twin engine.
    let (engine, users) = full_engine();
    let (twin, _) = full_engine();
    assert!(engine.contraction_hierarchy().is_none());
    let batch = mixed_batch(&users, Algorithm::TsaCh);
    let parallel = engine.run_batch_with_threads(&batch, 4);
    assert!(engine.contraction_hierarchy().is_some());
    for (request, result) in batch.iter().zip(parallel) {
        let expected = twin.run(request).unwrap();
        assert_eq!(expected.ranked, result.unwrap().ranked);
    }
}

#[test]
fn run_batch_uses_default_parallelism_and_matches_sequential() {
    let (engine, users) = shared_engine();
    let batch = mixed_batch(users, Algorithm::Ais);
    let results = engine.run_batch(&batch);
    assert_eq!(results.len(), batch.len());
    for (request, result) in batch.iter().zip(&results) {
        let expected = engine.run(request).unwrap();
        assert_eq!(expected.ranked, result.as_ref().unwrap().ranked);
    }
}

#[test]
fn batch_reports_per_query_errors_in_place() {
    let (engine, users) = shared_engine();
    let unknown_user = engine.dataset().user_count() as u32 + 50;
    let valid = |user: u32| {
        QueryRequest::for_user(user)
            .k(5)
            .alpha(0.5)
            .algorithm(Algorithm::Ais)
            .build()
            .unwrap()
    };
    // `k = 0` cannot pass the request builder; smuggle it through the
    // non-validating constructor to exercise execution-time checks.
    let invalid_k = QueryRequest::for_user(users[1])
        .k(0)
        .alpha(0.5)
        .build_unvalidated();
    let batch = vec![
        valid(users[0]),
        valid(unknown_user), // unknown user
        invalid_k.with_algorithm(Algorithm::Ais),
        valid(users[2]),
    ];
    let results = engine.run_batch_with_threads(&batch, 2);
    assert_eq!(results.len(), 4);
    assert!(results[0].is_ok());
    assert!(results[1].is_err());
    assert!(results[2].is_err());
    assert!(results[3].is_ok());
}

#[test]
fn empty_batch_is_a_no_op() {
    let (engine, _) = shared_engine();
    assert!(engine.run_batch(&[]).is_empty());
    assert!(engine.run_batch_with_threads(&[], 8).is_empty());
}

/// The stale-scratch regression guard: run queries back-to-back through one
/// engine and one reused session, and require every answer to match a
/// freshly built engine queried with a fresh context.  Catches state
/// leaking between queries via the epoch-versioned scratch (distances,
/// settled marks, heap entries) for every algorithm, including algorithm
/// interleavings.
#[test]
fn reused_scratch_matches_fresh_engine_query_by_query() {
    let (engine, users) = shared_engine();
    // Same configuration and seed build an identical, independent engine.
    let (fresh_engine, _) = full_engine();
    let mut session = engine.session();

    // Query sequence chosen to stress reuse: same user twice, different
    // users, different alpha/k, and algorithm switches in between.
    let mut plan: Vec<QueryRequest> = Vec::new();
    for (i, &user) in users.iter().enumerate() {
        let alpha = [0.2, 0.5, 0.8][i % 3];
        for algorithm in Algorithm::ALL {
            plan.push(
                QueryRequest::for_user(user)
                    .k(4 + i % 5)
                    .alpha(alpha)
                    .algorithm(algorithm)
                    .build()
                    .unwrap(),
            );
        }
        // Back-to-back repeat of the same query through the dirty context.
        plan.push(
            QueryRequest::for_user(user)
                .k(4 + i % 5)
                .alpha(alpha)
                .algorithm(Algorithm::Ais)
                .build()
                .unwrap(),
        );
    }

    for (step, request) in plan.iter().enumerate() {
        let reused = session.run(request).unwrap();
        let fresh = fresh_engine
            .run_with(request, &mut fresh_engine.make_context())
            .unwrap();
        assert_eq!(
            reused.ranked,
            fresh.ranked,
            "step {step}: {} with a reused context diverged from a fresh engine \
             (user {}, k {}, alpha {})",
            request.algorithm().name(),
            request.user(),
            request.k(),
            request.alpha()
        );
    }
    assert!(
        session.searches() > plan.len() as u64 / 2,
        "the reused session should have backed most searches"
    );
}

#[test]
fn one_context_serves_queries_across_engines_of_different_sizes() {
    // A worker context outliving an engine (e.g. on re-shard) must keep
    // giving correct answers when the graph size changes under it.  No CH
    // indexes here — only scratch-backed algorithms are exercised.
    let small_dataset = DatasetConfig::gowalla_like(120).with_seed(31).generate();
    let small = GeoSocialEngine::builder(small_dataset).build().unwrap();
    let small_user = QueryWorkload::generate(small.dataset(), 1, 1).users[0];
    let large_dataset = DatasetConfig::gowalla_like(600).with_seed(37).generate();
    let large = GeoSocialEngine::builder(large_dataset).build().unwrap();
    let large_user = QueryWorkload::generate(large.dataset(), 1, 1).users[0];
    let mut ctx = QueryContext::new();

    let request_small = QueryRequest::for_user(small_user)
        .k(5)
        .alpha(0.4)
        .algorithm(Algorithm::Ais)
        .build()
        .unwrap();
    let request_large = QueryRequest::for_user(large_user)
        .k(5)
        .alpha(0.4)
        .algorithm(Algorithm::Tsa)
        .build()
        .unwrap();
    for _ in 0..3 {
        let a = small.run_with(&request_small, &mut ctx).unwrap();
        let b = small.run(&request_small).unwrap();
        assert_eq!(a.ranked, b.ranked);
        let a = large.run_with(&request_large, &mut ctx).unwrap();
        let b = large.run(&request_large).unwrap();
        assert_eq!(a.ranked, b.ranked);
    }
    assert!(ctx.capacity() >= 600);
}
