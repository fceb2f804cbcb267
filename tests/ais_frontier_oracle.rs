//! Property test: full AIS — which scores every user its forward search
//! settles as it settles and keys index nodes by the forward frontier `β` —
//! answers bit for bit as the exhaustive oracle, on one engine and on a
//! `ShardedEngine` at 1, 2 and 4 shards (where each shard's search resumes
//! the social expansion the previous shard left), over a grid of `α`, `k`
//! and filter shapes, with location updates and removals between rounds.

use geosocial_ssrq::core::{
    Algorithm, GeoSocialEngine, QueryContext, QueryRequest, QueryRequestBuilder, QueryResult,
};
use geosocial_ssrq::data::{DatasetConfig, QueryWorkload};
use geosocial_ssrq::prelude::{Point, Rect};
use geosocial_ssrq::shard::ShardedEngine;
use rand::prelude::*;
use rand::rngs::StdRng;

const ALPHAS: [f64; 5] = [0.1, 0.3, 0.5, 0.7, 0.9];
const KS: [usize; 3] = [1, 10, 50];

fn bits(result: &QueryResult) -> Vec<(u32, u64)> {
    result
        .ranked
        .iter()
        .map(|entry| (entry.user, entry.score.to_bits()))
        .collect()
}

/// The four filter shapes of one `(user, k, α)` cell, each built from the
/// plain oracle answer so that it bites: a window, the exclusion of the
/// plain answer's best users, and a score cutoff at its median.
fn shapes(
    user: u32,
    k: usize,
    alpha: f64,
    plain: &QueryResult,
) -> Vec<(&'static str, QueryRequest)> {
    let base = || -> QueryRequestBuilder { QueryRequest::for_user(user).k(k).alpha(alpha) };
    let window = Rect::new(Point::new(0.15, 0.2), Point::new(0.7, 0.85));
    let best: Vec<u32> = plain.ranked.iter().take(3).map(|e| e.user).collect();
    let cutoff = plain
        .ranked
        .get(plain.ranked.len() / 2)
        .map_or(0.5, |entry| entry.score);
    vec![
        ("plain", base().build().unwrap()),
        ("window", base().within(window).build().unwrap()),
        (
            "exclusions",
            base()
                .exclude(best.into_iter().chain([user + 1, user + 7]))
                .build()
                .unwrap(),
        ),
        ("max_score", base().max_score(cutoff).build().unwrap()),
    ]
}

fn assert_round(
    single: &GeoSocialEngine,
    sharded: &[ShardedEngine],
    users: &[u32],
    ctx: &mut QueryContext,
    round: usize,
) {
    for &user in users {
        for alpha in ALPHAS {
            for k in KS {
                let oracle = |request: &QueryRequest| {
                    single
                        .run(&request.clone().with_algorithm(Algorithm::Exhaustive))
                        .unwrap()
                };
                let plain = oracle(
                    &QueryRequest::for_user(user)
                        .k(k)
                        .alpha(alpha)
                        .build()
                        .unwrap(),
                );
                for (shape, request) in shapes(user, k, alpha, &plain) {
                    let ais = request.with_algorithm(Algorithm::Ais);
                    let expected = bits(&oracle(&ais));
                    let label = format!("round {round}, user {user}, α {alpha}, k {k}, {shape}");
                    assert_eq!(
                        bits(&single.run_with(&ais, ctx).unwrap()),
                        expected,
                        "{label}"
                    );
                    for engine in sharded {
                        assert_eq!(
                            bits(&engine.run(&ais).unwrap()),
                            expected,
                            "{label}, {} shards",
                            engine.shard_count()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn full_ais_matches_the_oracle_under_churn_on_one_and_on_sharded_engines() {
    let dataset = DatasetConfig::gowalla_like(500).with_seed(45).generate();
    let users = QueryWorkload::generate(&dataset, 3, 7).users;
    let mut single = GeoSocialEngine::builder(dataset.clone()).build().unwrap();
    let mut sharded: Vec<ShardedEngine> = [1, 2, 4]
        .into_iter()
        .map(|shards| {
            ShardedEngine::builder(dataset.clone())
                .shards(shards)
                .build()
                .unwrap()
        })
        .collect();
    // One context for every single-engine query: epoch reuse included.
    let mut ctx = single.make_context();
    let mut rng = StdRng::seed_from_u64(0xA15);
    let n = single.dataset().user_count() as u32;
    for round in 0..3 {
        assert_round(&single, &sharded, &users, &mut ctx, round);
        for _ in 0..40 {
            let user = rng.gen_range(0..n);
            if rng.gen_bool(0.2) {
                single.remove_location(user).unwrap();
                for engine in &mut sharded {
                    engine.remove_location(user).unwrap();
                }
            } else {
                let p = Point::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
                single.update_location(user, p).unwrap();
                for engine in &mut sharded {
                    engine.update_location(user, p).unwrap();
                }
            }
        }
    }
}
