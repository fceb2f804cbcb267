//! Typed query requests.
//!
//! A [`QueryRequest`] describes one SSRQ invocation: the core parameters of
//! Definition 1 (`u_q`, `k`, `α`), the algorithm to run it with, and the
//! per-query scenario options the flat parameter triple could never express
//! — a spatial filter window, an exclusion set, and a score cutoff.
//! Requests are built through [`QueryRequestBuilder`] and validated once at
//! [`QueryRequestBuilder::build`], so an executing algorithm can trust
//! every field.

use crate::{Algorithm, CoreError, GeoSocialDataset, UserId};
use ssrq_spatial::{Point, Rect};
use std::collections::HashSet;

/// A validated SSRQ query: who asks, how many results, the social/spatial
/// preference, the algorithm, and the scenario options.
///
/// Construct via [`QueryRequest::for_user`]:
///
/// ```
/// use ssrq_core::{Algorithm, QueryRequest};
///
/// let request = QueryRequest::for_user(42)
///     .k(10)
///     .alpha(0.4)
///     .algorithm(Algorithm::Ais)
///     .build()
///     .unwrap();
/// assert_eq!(request.k(), 10);
/// ```
///
/// All twelve built-in algorithms honour every option and return the exact
/// same answer for the same request — the filters restrict *which users are
/// admissible*, never how thoroughly the admissible ones are searched.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    user: UserId,
    k: usize,
    alpha: f64,
    algorithm: Algorithm,
    origin: Option<Point>,
    within: Option<Rect>,
    exclude: HashSet<UserId>,
    max_score: Option<f64>,
}

impl QueryRequest {
    /// Starts building a request for query user `user`.
    ///
    /// Defaults: `k = 10`, `α = 0.3` (the paper's default preference) and
    /// [`Algorithm::Ais`], no spatial filter, no exclusions, no cutoff.
    pub fn for_user(user: UserId) -> QueryRequestBuilder {
        QueryRequestBuilder {
            request: QueryRequest {
                user,
                k: 10,
                alpha: 0.3,
                algorithm: Algorithm::Ais,
                origin: None,
                within: None,
                exclude: HashSet::new(),
                max_score: None,
            },
        }
    }

    /// The query user `u_q`.
    pub fn user(&self) -> UserId {
        self.user
    }

    /// Number of users to report (`k`).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Preference parameter `α ∈ (0, 1)`: the weight of *social* proximity
    /// (`1 − α` weighs spatial proximity).
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The algorithm the request runs with.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The spatial-origin override, when set: the point spatial distances
    /// are measured from instead of the query user's *stored* location.
    pub fn origin(&self) -> Option<Point> {
        self.origin
    }

    /// The spatial origin this request is evaluated from: the explicit
    /// [`QueryRequest::origin`] override when set, otherwise the query
    /// user's stored location in `dataset` (`None` when neither exists —
    /// every candidate then sits at infinite spatial distance).
    ///
    /// Every algorithm resolves the origin through this method, which is
    /// what lets a sharded deployment evaluate a query on an engine whose
    /// partition does not hold the query user's location: the coordinator
    /// resolves the location once (from the owning shard) and broadcasts it
    /// as the override, and the per-shard computations stay bit-identical
    /// to a single engine holding all locations.
    #[inline]
    pub fn resolved_origin(&self, dataset: &GeoSocialDataset) -> Option<Point> {
        self.origin.or_else(|| dataset.location(self.user))
    }

    /// The spatial filter window, when set: only users currently located
    /// inside this rectangle are admissible.
    pub fn within(&self) -> Option<Rect> {
        self.within
    }

    /// The excluded user ids (never reported, e.g. already-contacted users).
    pub fn excluded(&self) -> &HashSet<UserId> {
        &self.exclude
    }

    /// The result-score cutoff, when set: only users with ranking value
    /// *strictly below* this bound are admissible.
    pub fn max_score(&self) -> Option<f64> {
        self.max_score
    }

    /// Returns a copy of the request with the algorithm replaced — for
    /// running one query through several methods.
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Returns a copy of the request with the spatial origin pinned to
    /// `origin` (see [`QueryRequest::resolved_origin`]).  Used by the
    /// sharded coordinator to broadcast the query user's location to
    /// engines whose partition does not hold it.
    pub fn with_origin(mut self, origin: Point) -> Self {
        self.origin = Some(origin);
        self
    }

    /// Returns a copy of the request whose score cutoff is the *tighter* of
    /// the existing [`QueryRequest::max_score`] and `cutoff` — the admission
    /// bound a scatter-gather coordinator forwards to later shards once it
    /// holds `k` gathered results (candidates scoring at or above the
    /// current global `f_k` can no longer enter the merged top-k, exactly
    /// as [`TopK::consider`](crate::TopK::consider) would reject them).
    ///
    /// Non-finite or non-positive cutoffs are ignored (a cutoff of `0` or
    /// below would reject every candidate, which no interim `f_k` implies).
    pub fn with_max_score_at_most(mut self, cutoff: f64) -> Self {
        if cutoff.is_finite() && cutoff > 0.0 {
            self.max_score = Some(match self.max_score {
                Some(existing) => existing.min(cutoff),
                None => cutoff,
            });
        }
        self
    }

    /// Returns `true` when the request carries any admissibility filter
    /// beyond the implicit "not the query user" rule.
    pub fn has_filters(&self) -> bool {
        self.within.is_some() || !self.exclude.is_empty() || self.max_score.is_some()
    }

    /// Returns `true` when `user` may appear in the result of this request:
    /// not the query user, not excluded, and (when a spatial filter is set)
    /// currently located inside the filter window.
    ///
    /// The score cutoff is enforced separately by
    /// [`TopK::for_request`](crate::TopK::for_request).
    #[inline]
    pub fn admits(&self, dataset: &GeoSocialDataset, user: UserId) -> bool {
        if user == self.user || self.exclude.contains(&user) {
            return false;
        }
        match self.within {
            None => true,
            Some(rect) => dataset
                .location(user)
                .map(|p| rect.contains(p))
                .unwrap_or(false),
        }
    }

    /// Re-checks the invariants [`QueryRequestBuilder::build`] established.
    ///
    /// Every algorithm calls this defensively so that a hand-rolled request
    /// (e.g. one deserialized by a downstream service) cannot put it into
    /// an undefined state.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.k == 0 {
            return Err(CoreError::InvalidParameter("k must be at least 1".into()));
        }
        if !(self.alpha > 0.0 && self.alpha < 1.0) {
            return Err(CoreError::InvalidParameter(format!(
                "alpha must lie strictly between 0 and 1, got {}",
                self.alpha
            )));
        }
        if let Some(cutoff) = self.max_score {
            if !(cutoff.is_finite() && cutoff > 0.0) {
                return Err(CoreError::InvalidParameter(format!(
                    "max_score must be a finite positive ranking value, got {cutoff}"
                )));
            }
        }
        if let Some(rect) = self.within {
            if !rect.min.is_finite() || !rect.max.is_finite() {
                return Err(CoreError::InvalidParameter(format!(
                    "spatial filter {rect} has non-finite corners"
                )));
            }
        }
        if let Some(origin) = self.origin {
            if !origin.is_finite() {
                return Err(CoreError::InvalidParameter(format!(
                    "non-finite query origin {origin}"
                )));
            }
        }
        Ok(())
    }
}

/// Builder for [`QueryRequest`]; see [`QueryRequest::for_user`].
#[derive(Debug, Clone)]
pub struct QueryRequestBuilder {
    request: QueryRequest,
}

impl QueryRequestBuilder {
    /// Sets the number of users to report.
    pub fn k(mut self, k: usize) -> Self {
        self.request.k = k;
        self
    }

    /// Sets the preference parameter `α ∈ (0, 1)`.
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.request.alpha = alpha;
        self
    }

    /// Sets the algorithm.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.request.algorithm = algorithm;
        self
    }

    /// Pins the spatial origin the query is evaluated from, overriding the
    /// query user's stored location — e.g. the live position reported by
    /// the user's device, or the location a sharded coordinator broadcasts
    /// to partitions that do not hold the query user.
    pub fn origin(mut self, origin: Point) -> Self {
        self.request.origin = Some(origin);
        self
    }

    /// Restricts the result to users currently located inside `rect`
    /// ("companions downtown only").  Users without a location never pass
    /// the filter.
    pub fn within(mut self, rect: Rect) -> Self {
        self.request.within = Some(rect);
        self
    }

    /// Excludes `users` from the result (in addition to any previously
    /// excluded ids).
    pub fn exclude(mut self, users: impl IntoIterator<Item = UserId>) -> Self {
        self.request.exclude.extend(users);
        self
    }

    /// Admits only users with ranking value strictly below `cutoff`
    /// ("nobody farther than this combined distance").  Also serves as an
    /// early-termination bound: every algorithm stops as soon as its domain
    /// lower bound reaches the cutoff.
    pub fn max_score(mut self, cutoff: f64) -> Self {
        self.request.max_score = Some(cutoff);
        self
    }

    /// Validates and returns the request.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] for `k = 0`, `α ∉ (0, 1)`, a
    /// non-positive or non-finite score cutoff, or a non-finite filter
    /// rectangle.  (Whether the query *user* exists is checked against the
    /// dataset at execution time.)
    pub fn build(self) -> Result<QueryRequest, CoreError> {
        self.request.validate()?;
        Ok(self.request)
    }

    /// Returns the request **without** validating it — the in-process
    /// counterpart of a request deserialized from an untrusted peer.
    ///
    /// Every algorithm re-checks [`QueryRequest::validate`] defensively at
    /// execution time, so an invalid request built this way produces a
    /// typed [`CoreError::InvalidParameter`] when run, never an undefined
    /// algorithm state.  The test-suite uses this to exercise exactly that
    /// path; service code should prefer [`QueryRequestBuilder::build`].
    pub fn build_unvalidated(self) -> QueryRequest {
        self.request
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssrq_graph::GraphBuilder;
    use ssrq_spatial::Point;

    fn dataset() -> GeoSocialDataset {
        let graph = GraphBuilder::from_edges(3, vec![(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let locations = vec![Some(Point::new(0.1, 0.1)), Some(Point::new(0.9, 0.9)), None];
        GeoSocialDataset::new(graph, locations).unwrap()
    }

    #[test]
    fn builder_applies_defaults_and_options() {
        let request = QueryRequest::for_user(7).build().unwrap();
        assert_eq!(request.user(), 7);
        assert_eq!(request.k(), 10);
        assert!((request.alpha() - 0.3).abs() < 1e-12);
        assert_eq!(request.algorithm(), Algorithm::Ais);
        assert!(!request.has_filters());

        let request = QueryRequest::for_user(7)
            .k(3)
            .alpha(0.6)
            .algorithm(Algorithm::Tsa)
            .within(Rect::unit())
            .exclude([1, 2])
            .max_score(0.8)
            .build()
            .unwrap();
        assert_eq!(request.k(), 3);
        assert_eq!(request.algorithm(), Algorithm::Tsa);
        assert_eq!(request.within(), Some(Rect::unit()));
        assert!(request.excluded().contains(&2));
        assert_eq!(request.max_score(), Some(0.8));
        assert!(request.has_filters());
    }

    #[test]
    fn build_rejects_degenerate_parameters() {
        assert!(QueryRequest::for_user(0).k(0).build().is_err());
        assert!(QueryRequest::for_user(0).alpha(0.0).build().is_err());
        assert!(QueryRequest::for_user(0).alpha(1.0).build().is_err());
        assert!(QueryRequest::for_user(0).alpha(-0.3).build().is_err());
        assert!(QueryRequest::for_user(0).alpha(f64::NAN).build().is_err());
        assert!(QueryRequest::for_user(0).max_score(0.0).build().is_err());
        assert!(QueryRequest::for_user(0)
            .max_score(f64::INFINITY)
            .build()
            .is_err());
    }

    #[test]
    fn admits_enforces_exclusions_and_spatial_filter() {
        let ds = dataset();
        let plain = QueryRequest::for_user(0).build().unwrap();
        assert!(!plain.admits(&ds, 0)); // never the query user
        assert!(plain.admits(&ds, 1));
        assert!(plain.admits(&ds, 2)); // no filter: location not required

        let filtered = QueryRequest::for_user(0)
            .within(Rect::new(Point::new(0.0, 0.0), Point::new(0.5, 0.5)))
            .exclude([1])
            .build()
            .unwrap();
        assert!(!filtered.admits(&ds, 1)); // excluded (and outside anyway)
        assert!(!filtered.admits(&ds, 2)); // no location => fails the window
    }

    #[test]
    fn origin_override_resolves_before_the_stored_location() {
        let ds = dataset();
        let stored = QueryRequest::for_user(0).build().unwrap();
        assert_eq!(stored.origin(), None);
        assert_eq!(stored.resolved_origin(&ds), Some(Point::new(0.1, 0.1)));
        let pinned = QueryRequest::for_user(0)
            .origin(Point::new(0.4, 0.6))
            .build()
            .unwrap();
        assert_eq!(pinned.resolved_origin(&ds), Some(Point::new(0.4, 0.6)));
        // User 2 has no stored location: the override is the only origin.
        let unlocated = QueryRequest::for_user(2).build().unwrap();
        assert_eq!(unlocated.resolved_origin(&ds), None);
        assert!(QueryRequest::for_user(0)
            .origin(Point::new(f64::NAN, 0.0))
            .build()
            .is_err());
    }

    #[test]
    fn max_score_at_most_only_tightens() {
        let request = QueryRequest::for_user(0).build().unwrap();
        assert_eq!(
            request.clone().with_max_score_at_most(0.7).max_score(),
            Some(0.7)
        );
        let capped = QueryRequest::for_user(0).max_score(0.5).build().unwrap();
        assert_eq!(
            capped.clone().with_max_score_at_most(0.7).max_score(),
            Some(0.5)
        );
        assert_eq!(
            capped.clone().with_max_score_at_most(0.2).max_score(),
            Some(0.2)
        );
        // Degenerate cutoffs (no interim f_k implies them) are ignored.
        assert_eq!(
            capped.clone().with_max_score_at_most(0.0).max_score(),
            Some(0.5)
        );
        assert_eq!(
            capped.with_max_score_at_most(f64::INFINITY).max_score(),
            Some(0.5)
        );
    }

    #[test]
    fn algorithm_names_resolve_to_their_variant() {
        for algorithm in Algorithm::ALL.into_iter().chain([Algorithm::Auto]) {
            assert_eq!(Algorithm::from_name(algorithm.name()), Some(algorithm));
        }
        assert_eq!(Algorithm::from_name("MY-ALGO"), None);
    }

    #[test]
    fn build_unvalidated_defers_validation_to_execution() {
        let request = QueryRequest::for_user(5)
            .k(0)
            .alpha(0.45)
            .build_unvalidated();
        assert_eq!(request.user(), 5);
        assert_eq!(request.k(), 0);
        assert!(request.validate().is_err());
    }
}
