//! The ranking function (Equation 1) and the bounds built on it.
//!
//! [`combine`] is the paper's `f = α · p + (1 − α) · d`.  Every lower bound
//! in the system is `combine` over lower bounds of the two distances, and
//! the one that holds for a whole *region* of users — "no admissible user
//! located inside this rectangle scores below X" — is [`ScoreFloor`].  Two
//! places read it:
//!
//! * the scatter's shard skip (`ssrq_shard::shard_score_lower_bound`), with
//!   the shard's rectangle and a social bound of `0`;
//! * SFA's stop test (SFA, SFA-CH's scan, SFA-Cached), through
//!   [`RankingContext::stop_bound`], with the dataset view's
//!   [located box](GeoSocialDataset::located_bounds) and the social
//!   distance of the last settled vertex.
//!
//! The paper's SFA stops at `θ = α · p(v_q, v_last) ≥ f_k`, which is
//! Fagin, Lotem and Naor's TA threshold with the spatial attribute's bound
//! left at `0`; the floor supplies that bound (see the `sfa` module for why
//! the two agree bit for bit on one engine whose query user is located).

use crate::{GeoSocialDataset, QueryRequest, UserId};
use ssrq_spatial::{Point, Rect};

/// Combines a normalized social distance and a normalized spatial distance
/// into the SSRQ ranking value `f = α · p + (1 − α) · d` (Equation 1 of the
/// paper).
///
/// Either input may be `f64::INFINITY` (socially unreachable user or missing
/// location); since both coefficients are positive for the supported `α`
/// range, the result is then infinite as well and the user can never enter a
/// top-k result.
#[inline]
pub fn combine(alpha: f64, social_norm: f64, spatial_norm: f64) -> f64 {
    alpha * social_norm + (1.0 - alpha) * spatial_norm
}

/// A lower bound on the score of every admissible user located inside a
/// region: `combine(α, social_lb, d⁻)`, where `d⁻` is the normalized
/// distance from the origin to the part of the region the request's
/// `within` window leaves (`INFINITY` when there is no region, no origin or
/// no such part).
///
/// Users without a location score `INFINITY`, so the bound holds for them
/// too.  It is monotone in every input the way the exact score is: for a
/// user located at `p` inside the region, `spatial() ≤ origin.distance(p) /
/// spatial_norm` bit for bit, because [`Rect::min_distance`] rounds the
/// same differences the same way.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreFloor {
    alpha: f64,
    spatial: f64,
}

impl ScoreFloor {
    /// The floor of the admissible users of `request` inside `region`, seen
    /// from `origin`.
    pub fn new(
        request: &QueryRequest,
        region: Option<Rect>,
        origin: Option<Point>,
        spatial_norm: f64,
    ) -> Self {
        let admissible = match request.within() {
            Some(window) => region.and_then(|r| r.intersection(&window)),
            None => region,
        };
        let spatial = match (origin, admissible) {
            (Some(origin), Some(rect)) => rect.min_distance(origin) / spatial_norm,
            _ => f64::INFINITY,
        };
        ScoreFloor {
            alpha: request.alpha(),
            spatial,
        }
    }

    /// The spatial half `d⁻`, normalized.
    #[inline]
    pub fn spatial(&self) -> f64 {
        self.spatial
    }

    /// No admissible user of the region whose normalized social distance is
    /// at least `social_lb` scores below this.
    #[inline]
    pub fn at(&self, social_lb: f64) -> f64 {
        combine(self.alpha, social_lb, self.spatial)
    }
}

/// Per-query helper bundling the dataset, the query user and `α`, and
/// exposing the normalized distance/ranking computations every algorithm
/// needs.
///
/// All algorithm implementations go through this type so that normalization
/// and the handling of missing locations stay consistent.
#[derive(Debug, Clone, Copy)]
pub struct RankingContext<'a> {
    dataset: &'a GeoSocialDataset,
    query_user: UserId,
    /// The resolved spatial origin (request override, else the stored
    /// location); `None` when neither exists — every spatial distance is
    /// then infinite.
    origin: Option<Point>,
    alpha: f64,
    /// The floor of this dataset view's admissible users (its located box
    /// ∩ the request's window), resolved once per query.
    floor: ScoreFloor,
}

impl<'a> RankingContext<'a> {
    /// Creates a ranking context for one query, resolving the spatial
    /// origin once (see [`QueryRequest::resolved_origin`]).
    pub fn new(dataset: &'a GeoSocialDataset, request: &QueryRequest) -> Self {
        let origin = request.resolved_origin(dataset);
        RankingContext {
            dataset,
            query_user: request.user(),
            origin,
            alpha: request.alpha(),
            floor: ScoreFloor::new(
                request,
                dataset.located_bounds(),
                origin,
                dataset.spatial_norm(),
            ),
        }
    }

    /// The dataset the context refers to.
    pub fn dataset(&self) -> &'a GeoSocialDataset {
        self.dataset
    }

    /// The query user `u_q`.
    pub fn query_user(&self) -> UserId {
        self.query_user
    }

    /// The preference parameter `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The resolved spatial origin of the query.
    pub fn origin(&self) -> Option<Point> {
        self.origin
    }

    /// Normalized spatial distance between the query origin and `other`
    /// (`INFINITY` when either location is missing).
    #[inline]
    pub fn spatial(&self, other: UserId) -> f64 {
        match (self.origin, self.dataset.location(other)) {
            (Some(origin), Some(p)) => origin.distance(p) / self.dataset.spatial_norm(),
            _ => f64::INFINITY,
        }
    }

    /// Normalizes a raw social distance.
    #[inline]
    pub fn normalize_social(&self, raw: f64) -> f64 {
        self.dataset.normalize_social(raw)
    }

    /// Normalizes a raw spatial distance.
    #[inline]
    pub fn normalize_spatial(&self, raw: f64) -> f64 {
        self.dataset.normalize_spatial(raw)
    }

    /// Ranking value from a *raw* social distance and the stored locations.
    #[inline]
    pub fn score_from_raw_social(&self, other: UserId, raw_social: f64) -> (f64, f64, f64) {
        let social = self.normalize_social(raw_social);
        let spatial = self.spatial(other);
        (combine(self.alpha, social, spatial), social, spatial)
    }

    /// Ranking value from already-normalized distances.
    #[inline]
    pub fn score(&self, social_norm: f64, spatial_norm: f64) -> f64 {
        combine(self.alpha, social_norm, spatial_norm)
    }

    /// The normalized distance `d⁻` from the origin to the box every
    /// admissible user of this dataset view lies in: `0` when the origin is
    /// inside it, `INFINITY` without an origin or when the box misses the
    /// request's window.  Never above [`RankingContext::spatial`] of a
    /// located user.
    #[inline]
    pub fn spatial_floor(&self) -> f64 {
        self.floor.spatial()
    }

    /// SFA's stop test: no user socially at least `raw_social` away from
    /// the query user scores below this (`combine(α, p, d⁻)`; see the
    /// module notes).
    #[inline]
    pub fn stop_bound(&self, raw_social: f64) -> f64 {
        self.floor.at(self.normalize_social(raw_social))
    }

    /// Lower bound on `f` given lower bounds on the two normalized
    /// distances.
    #[inline]
    pub fn score_lower_bound(&self, social_lb: f64, spatial_lb: f64) -> f64 {
        combine(self.alpha, social_lb, spatial_lb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssrq_graph::GraphBuilder;

    fn dataset() -> GeoSocialDataset {
        let graph = GraphBuilder::from_edges(3, vec![(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let locations = vec![Some(Point::new(0.0, 0.0)), Some(Point::new(1.0, 0.0)), None];
        GeoSocialDataset::new(graph, locations).unwrap()
    }

    #[test]
    fn combine_is_a_convex_combination() {
        assert_eq!(combine(0.0, 5.0, 3.0), 3.0);
        assert_eq!(combine(1.0, 5.0, 3.0), 5.0);
        assert_eq!(combine(0.5, 4.0, 2.0), 3.0);
    }

    #[test]
    fn combine_propagates_infinity() {
        assert!(combine(0.3, f64::INFINITY, 0.2).is_infinite());
        assert!(combine(0.3, 0.2, f64::INFINITY).is_infinite());
    }

    #[test]
    fn context_normalizes_both_domains() {
        let ds = dataset();
        let request = QueryRequest::for_user(0).k(1).alpha(0.5).build().unwrap();
        let ctx = RankingContext::new(&ds, &request);
        assert_eq!(ctx.query_user(), 0);
        assert_eq!(ctx.alpha(), 0.5);
        // User 1: raw social 1.0 of diameter 2.0 -> 0.5; raw spatial 1.0 of
        // diagonal 1.0 -> 1.0.
        let (f, social, spatial) = ctx.score_from_raw_social(1, 1.0);
        assert!((social - 0.5).abs() < 1e-12);
        assert!((spatial - 1.0).abs() < 1e-12);
        assert!((f - 0.75).abs() < 1e-12);
    }

    #[test]
    fn missing_location_gives_infinite_score() {
        let ds = dataset();
        let request = QueryRequest::for_user(0).k(1).alpha(0.5).build().unwrap();
        let ctx = RankingContext::new(&ds, &request);
        let (f, _, spatial) = ctx.score_from_raw_social(2, 2.0);
        assert!(spatial.is_infinite());
        assert!(f.is_infinite());
    }

    #[test]
    fn score_floor_clips_the_region_to_the_window() {
        let region = Some(Rect::new(Point::new(1.0, 0.0), Point::new(2.0, 1.0)));
        let request = |within: Option<Rect>| {
            let builder = QueryRequest::for_user(0).alpha(0.5);
            match within {
                Some(w) => builder.within(w).build().unwrap(),
                None => builder.build().unwrap(),
            }
        };
        let at = |x, y| Some(Point::new(x, y));
        let floor = |within, origin| ScoreFloor::new(&request(within), region, origin, 2.0);
        // Inside the region the floor is the social half alone.
        assert_eq!(floor(None, at(1.5, 0.5)).spatial(), 0.0);
        assert_eq!(floor(None, at(1.5, 0.5)).at(0.4), 0.5 * 0.4);
        assert_eq!(floor(None, at(0.0, 0.0)).spatial(), 0.5);
        // The window leaves x ≥ 1.5 of the region.
        let window = Some(Rect::new(Point::new(1.5, -1.0), Point::new(9.0, 9.0)));
        assert_eq!(floor(window, at(0.0, 0.0)).spatial(), 0.75);
        // No origin, no region, or a window that misses it: nobody scores.
        let missing = Some(Rect::new(Point::new(5.0, 5.0), Point::new(6.0, 6.0)));
        assert_eq!(floor(None, None).at(0.0), f64::INFINITY);
        assert_eq!(floor(missing, at(0.0, 0.0)).at(0.0), f64::INFINITY);
        let nowhere = ScoreFloor::new(&request(None), None, at(0.0, 0.0), 2.0);
        assert_eq!(nowhere.at(0.0), f64::INFINITY);
    }

    #[test]
    fn score_lower_bound_matches_score_for_exact_inputs() {
        let ds = dataset();
        let request = QueryRequest::for_user(0).k(1).alpha(0.3).build().unwrap();
        let ctx = RankingContext::new(&ds, &request);
        assert_eq!(ctx.score(0.4, 0.6), ctx.score_lower_bound(0.4, 0.6));
        assert!(ctx.score_lower_bound(0.0, 0.0) <= ctx.score(0.4, 0.6));
    }
}
