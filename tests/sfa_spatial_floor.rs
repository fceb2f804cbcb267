//! SFA's stop test over both attributes: `θ = combine(α, p(v_q, v_last), d⁻)`,
//! where `d⁻` is the distance from the query's origin to the box every
//! admissible user of the engine lies in (the dataset view's located box
//! intersected with the request's window).
//!
//! The bound is only worth its cut if it never cuts an answer.  These tests
//! split generated datasets into location views (the shard construction,
//! `GeoSocialDataset::restrict_locations`), query each view from origins
//! inside and outside its box, through windows that overlap and miss it,
//! with a forwarded score cutoff and under moves into and out of the view,
//! and compare SFA and SFA-Cached with the exhaustive oracle on the same
//! view, bit for bit (SFA-CH: its users).

use geosocial_ssrq::core::{
    Algorithm, GeoSocialDataset, GeoSocialEngine, QueryRequest, QueryResult, RankingContext,
};
use geosocial_ssrq::data::{DatasetConfig, QueryWorkload};
use geosocial_ssrq::graph::GraphBuilder;
use geosocial_ssrq::prelude::{Point, Rect};
use rand::prelude::*;
use rand::rngs::StdRng;

/// `(user, score bits)` of every ranked entry: equality is exactness.
fn bits(result: &QueryResult) -> Vec<(u32, u64)> {
    result
        .ranked
        .iter()
        .map(|e| (e.user, e.score.to_bits()))
        .collect()
}

/// Splits the locations of `dataset` into `parts` vertical strips of equal
/// population (by x), one view per strip; unlocated users belong to none.
fn strips(dataset: &GeoSocialDataset, parts: usize) -> Vec<GeoSocialDataset> {
    let mut xs: Vec<f64> = dataset.located_users().map(|(_, p)| p.x).collect();
    xs.sort_by(f64::total_cmp);
    let cuts: Vec<f64> = (1..parts).map(|i| xs[i * xs.len() / parts]).collect();
    let strip_of = |p: Point| cuts.iter().filter(|&&c| p.x >= c).count();
    (0..parts)
        .map(|s| dataset.restrict_locations(|u| dataset.location(u).map(strip_of) == Some(s)))
        .collect()
}

/// One engine per view, all sharing the first view's graph indexes; the
/// social cache lists are short enough that SFA-Cached both terminates on
/// its list and falls back.
fn view_engines(views: &[GeoSocialDataset], users: &[u32], with_ch: bool) -> Vec<GeoSocialEngine> {
    let mut engines: Vec<GeoSocialEngine> = Vec::with_capacity(views.len());
    for view in views {
        let mut builder = GeoSocialEngine::builder(view.clone());
        builder = match engines.first() {
            Some(donor) => builder.share_graph_artifacts_with(donor),
            None if with_ch => builder.with_ch().cache_social_neighbors(users.to_vec(), 40),
            None => builder.cache_social_neighbors(users.to_vec(), 40),
        };
        engines.push(builder.build().expect("view engine builds"));
    }
    engines
}

/// The requests one view answers for `user`: the plain request, the
/// coordinator's broadcast form (origin = the user's location in the full
/// dataset), explicit origins inside and outside the view's box, windows
/// that overlap and miss the box, and a forwarded score cutoff.
fn requests(
    full: &GeoSocialEngine,
    view: &GeoSocialDataset,
    user: u32,
    k: usize,
    alpha: f64,
    rng: &mut StdRng,
) -> Vec<QueryRequest> {
    let base = || QueryRequest::for_user(user).k(k).alpha(alpha);
    let home = full
        .dataset()
        .location(user)
        .expect("query users are located");
    let mut out = vec![
        base().build().unwrap(),
        base().origin(home).build().unwrap(),
    ];
    let Some(rect) = view.located_bounds() else {
        return out;
    };
    let inside = Point::new(
        rect.min.x + rng.gen_range(0.0..1.0) * rect.width(),
        rect.min.y + rng.gen_range(0.0..1.0) * rect.height(),
    );
    let outside = Point::new(rect.min.x - 0.3, rect.max.y + rng.gen_range(0.0..0.4));
    let overlapping = Rect::new(
        Point::new(rect.min.x - 0.2, rect.min.y + 0.25 * rect.height()),
        Point::new(rect.center().x, rect.max.y + 0.2),
    );
    let missing = Rect::new(Point::new(2.0, 2.0), Point::new(3.0, 3.0));
    out.push(base().origin(inside).build().unwrap());
    out.push(base().origin(outside).build().unwrap());
    out.push(base().origin(home).within(overlapping).build().unwrap());
    out.push(base().origin(outside).within(overlapping).build().unwrap());
    out.push(base().origin(home).within(missing).build().unwrap());
    // The scatter forwards the running f_k to every later shard; the
    // global answer's is the tightest it can be.
    let global = full
        .run(&base().algorithm(Algorithm::Sfa).build().unwrap())
        .unwrap();
    if let Some(fk) = global.fk().filter(|&fk| fk > 0.0) {
        out.push(base().origin(home).max_score(fk).build().unwrap());
    }
    out
}

/// Runs every request of `user` on every view and compares `algorithms`
/// with the oracle on the same view.
fn check_views(
    full: &GeoSocialEngine,
    engines: &[GeoSocialEngine],
    user: u32,
    algorithms: &[Algorithm],
    rng: &mut StdRng,
) {
    for (v, engine) in engines.iter().enumerate() {
        for &(k, alpha) in &[(1usize, 0.5), (10, 0.3), (10, 0.9)] {
            for request in requests(full, engine.dataset(), user, k, alpha, rng) {
                let oracle = engine
                    .run(&request.clone().with_algorithm(Algorithm::Exhaustive))
                    .unwrap();
                for &algorithm in algorithms {
                    let got = engine
                        .run(&request.clone().with_algorithm(algorithm))
                        .unwrap();
                    // CH shortcuts sum a path's weights in another order than
                    // Dijkstra does, so SFA-CH's scores can sit an ulp off
                    // the oracle's (ROADMAP item 2); its users cannot.
                    let (got, expected) = if algorithm == Algorithm::SfaCh {
                        (
                            got.users().into_iter().map(|u| (u, 0)).collect(),
                            oracle.users().into_iter().map(|u| (u, 0)).collect(),
                        )
                    } else {
                        (bits(&got), bits(&oracle))
                    };
                    assert_eq!(
                        got,
                        expected,
                        "{} on view {v} differs from the oracle (user {user}, k {k}, alpha {alpha}, origin {:?}, within {:?}, max_score {:?})",
                        algorithm.name(),
                        request.origin(),
                        request.within(),
                        request.max_score()
                    );
                }
            }
        }
    }
}

#[test]
fn sfa_on_location_views_matches_the_oracle() {
    let mut rng = StdRng::seed_from_u64(5);
    for (seed, users, parts) in [(11u64, 500usize, 2usize), (12, 700, 3), (13, 600, 4)] {
        let full = DatasetConfig::gowalla_like(users)
            .with_seed(seed)
            .generate();
        let query_users = QueryWorkload::generate(&full, 4, seed).users;
        let engines = view_engines(&strips(&full, parts), &query_users, false);
        let full = GeoSocialEngine::builder(full).build().unwrap();
        for &user in &query_users {
            check_views(
                &full,
                &engines,
                user,
                &[Algorithm::Sfa, Algorithm::SfaCached],
                &mut rng,
            );
        }
    }
}

#[test]
fn sfa_ch_on_location_views_matches_the_oracle() {
    // Small graph: the CH build is the expensive part.
    let mut rng = StdRng::seed_from_u64(6);
    let full = DatasetConfig::gowalla_like(150).with_seed(21).generate();
    let query_users = QueryWorkload::generate(&full, 3, 21).users;
    let engines = view_engines(&strips(&full, 2), &query_users, true);
    let full = GeoSocialEngine::builder(full).build().unwrap();
    for &user in &query_users {
        check_views(
            &full,
            &engines,
            user,
            &[Algorithm::Sfa, Algorithm::SfaCached, Algorithm::SfaCh],
            &mut rng,
        );
    }
}

#[test]
fn moves_into_and_out_of_a_view_keep_sfa_exact() {
    let mut rng = StdRng::seed_from_u64(7);
    let full = DatasetConfig::gowalla_like(600).with_seed(31).generate();
    let query_users = QueryWorkload::generate(&full, 3, 31).users;
    let mut engines = view_engines(&strips(&full, 2), &query_users, false);
    let strangers: Vec<u32> = full
        .located_users()
        .map(|(u, _)| u)
        .filter(|&u| engines[0].dataset().location(u).is_none())
        .collect();
    let residents: Vec<u32> = engines[0]
        .dataset()
        .located_users()
        .map(|(u, _)| u)
        .collect();
    let full = GeoSocialEngine::builder(full).build().unwrap();
    for round in 0..4 {
        // Users move in, some beyond the box (it grows), and residents
        // leave (it does not shrink).
        for _ in 0..25 {
            let user = strangers[rng.gen_range(0..strangers.len())];
            let at = Point::new(rng.gen_range(-0.2..1.2), rng.gen_range(-0.2..1.2));
            engines[0].update_location(user, at).unwrap();
        }
        for _ in 0..25 {
            let user = residents[rng.gen_range(0..residents.len())];
            engines[0].remove_location(user).unwrap();
        }
        let view = engines[0].dataset();
        let rect = view.located_bounds().expect("the view holds locations");
        assert!(
            view.located_users().all(|(_, p)| rect.contains(p)),
            "round {round}: a location lies outside the located box"
        );
        for &user in &query_users {
            check_views(
                &full,
                &engines[..1],
                user,
                &[Algorithm::Sfa, Algorithm::SfaCached],
                &mut rng,
            );
        }
    }
}

#[test]
fn the_floor_is_zero_for_a_located_query_user_without_origin_or_window() {
    let full = DatasetConfig::gowalla_like(400).with_seed(41).generate();
    let mut views = strips(&full, 3);
    views.push(full.clone());
    let mut rng = StdRng::seed_from_u64(8);
    for view in &mut views {
        // Moves grow the box; it must still hold every resident.
        let located: Vec<u32> = view.located_users().map(|(u, _)| u).collect();
        for _ in 0..20 {
            let user = located[rng.gen_range(0..located.len())];
            let at = Point::new(rng.gen_range(-0.5..1.5), rng.gen_range(-0.5..1.5));
            view.set_location(user, Some(at)).unwrap();
        }
        for (user, _) in view.located_users() {
            for alpha in [0.1, 0.5, 0.9] {
                let request = QueryRequest::for_user(user).alpha(alpha).build().unwrap();
                let ctx = RankingContext::new(view, &request);
                assert_eq!(ctx.spatial_floor().to_bits(), 0.0f64.to_bits());
                // With d⁻ = 0 the stop test is the paper's α · p, bit for bit.
                for raw in [0.0, 0.37, 2.5, 1e6] {
                    assert_eq!(
                        ctx.stop_bound(raw).to_bits(),
                        (alpha * view.normalize_social(raw)).to_bits()
                    );
                }
            }
        }
    }
}

/// A coordinate of random sign and magnitude, from subnormal-adjacent to
/// large enough that squared differences stay finite.
fn extreme(rng: &mut StdRng) -> f64 {
    let magnitude = [1e-300, 1e-12, 1e-3, 1.0, 7.5, 1e8, 1e100, 1e150][rng.gen_range(0..8)];
    let sign = if rng.gen_range(0..2) == 0 { -1.0 } else { 1.0 };
    sign * magnitude * rng.gen_range(0.5..1.0)
}

#[test]
fn the_floor_never_exceeds_the_spatial_distance_of_an_admissible_user() {
    let mut rng = StdRng::seed_from_u64(9);
    let n = 40usize;
    let graph = GraphBuilder::from_edges(n, (0..n as u32 - 1).map(|i| (i, i + 1, 1.0))).unwrap();
    for trial in 0..200 {
        let locations: Vec<Option<Point>> = (0..n)
            .map(|_| Some(Point::new(extreme(&mut rng), extreme(&mut rng))))
            .collect();
        let full = GeoSocialDataset::new(graph.clone(), locations).unwrap();
        let keep_share = rng.gen_range(0.05..1.0);
        let keep: Vec<bool> = (0..n)
            .map(|_| rng.gen_range(0.0..1.0) < keep_share)
            .collect();
        let view = full.restrict_locations(|u| keep[u as usize]);
        let origins = [
            None,
            Some(Point::new(extreme(&mut rng), extreme(&mut rng))),
            full.location(rng.gen_range(0..n as u32)),
        ];
        let a = Point::new(extreme(&mut rng), extreme(&mut rng));
        let b = Point::new(extreme(&mut rng), extreme(&mut rng));
        let windows = [None, Some(Rect::new(a, b))];
        for origin in origins {
            for window in windows {
                let mut builder = QueryRequest::for_user(rng.gen_range(0..n as u32)).alpha(0.4);
                if let Some(origin) = origin {
                    builder = builder.origin(origin);
                }
                if let Some(window) = window {
                    builder = builder.within(window);
                }
                let request = builder.build().unwrap();
                let ctx = RankingContext::new(&view, &request);
                let floor = ctx.spatial_floor();
                for (user, _) in view.located_users() {
                    if !request.admits(&view, user) {
                        continue;
                    }
                    let exact = ctx.spatial(user);
                    assert!(
                        floor.to_bits() <= exact.to_bits(),
                        "trial {trial}: floor {floor:e} above the spatial distance {exact:e} of user {user}"
                    );
                }
            }
        }
    }
}

#[test]
fn the_view_without_the_origin_settles_fewer_vertices_than_the_owner() {
    // The scatter's shape: the owner view runs first, its f_k is forwarded
    // to the other view as the score cutoff, and both search from the same
    // origin.  The paper's θ = α · p stops both at the same radius; the
    // floor stops the view that does not hold the origin sooner.
    let full = DatasetConfig::gowalla_like(3_000).with_seed(51).generate();
    let views = strips(&full, 2);
    let engines = view_engines(&views, &[], false);
    let query_users = QueryWorkload::generate(&full, 8, 51).users;
    let mut checked = 0;
    for &user in &query_users {
        let owner = usize::from(views[0].location(user).is_none());
        let other = 1 - owner;
        let base = QueryRequest::for_user(user)
            .k(10)
            .alpha(0.9)
            .algorithm(Algorithm::Sfa)
            .origin(full.location(user).unwrap());
        let owned = engines[owner].run(&base.clone().build().unwrap()).unwrap();
        let Some(fk) = owned.fk() else { continue };
        let forwarded = base.max_score(fk).build().unwrap();
        let arm = engines[other].run(&forwarded).unwrap();
        let oracle = engines[other]
            .run(&forwarded.clone().with_algorithm(Algorithm::Exhaustive))
            .unwrap();
        assert_eq!(bits(&arm), bits(&oracle), "user {user}");
        assert!(
            arm.stats.social_pops < owned.stats.social_pops,
            "user {user}: the view without the origin settled {} vertices, the owner {}",
            arm.stats.social_pops,
            owned.stats.social_pops
        );
        checked += 1;
    }
    assert!(checked >= 4, "only {checked} users had a full owner answer");
}
