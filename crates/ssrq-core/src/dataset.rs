use crate::CoreError;
use ssrq_graph::{pseudo_diameter, SocialGraph};
use ssrq_spatial::{Point, Rect};
use std::sync::Arc;

/// Identifier of a user.  User `i` is vertex `i` of the social graph and
/// item `i` of the spatial indexes (the paper's `u_i` / `v_i` convention).
pub type UserId = u32;

/// The immutable part of a [`GeoSocialDataset`], shared (behind an [`Arc`])
/// by every clone and every location-restricted view of the dataset.
///
/// The social graph and the normalization constants never change after
/// construction (social-network topology changes far less frequently than
/// user locations — §5.1), so they are the natural unit of sharing for a
/// partitioned deployment: N shards hold N location vectors but **one**
/// graph.
#[derive(Debug)]
struct DatasetCore {
    graph: SocialGraph,
    bounds: Rect,
    spatial_norm: f64,
    social_norm: f64,
}

/// A geo-social dataset: the social graph plus the current location of every
/// user (§3 of the paper).
///
/// * Users may lack a location (the paper's real datasets cover only 54–60 %
///   of users); such users are treated as **infinitely far away** in the
///   spatial domain, exactly as footnote 3 of the paper prescribes.
/// * Both proximities are normalized before being combined: spatial
///   distances are divided by the diagonal of the bounding rectangle of all
///   locations, social distances by an estimate of the weighted graph
///   diameter (computed by a double Dijkstra sweep at construction time).
///
/// # Ownership model
///
/// A dataset is an `Arc`-backed **immutable core** (graph, bounds, both
/// normalization constants) plus a per-instance **location vector**.
/// `Clone` and [`GeoSocialDataset::restrict_locations`] share the core —
/// they copy only the `O(|V|)` location entries, never the graph — so a
/// sharded deployment over N partitions holds exactly one graph in memory.
/// [`GeoSocialDataset::shares_core_with`] tests core identity.
///
/// # The located box
///
/// Each instance also keeps [`GeoSocialDataset::located_bounds`], a
/// rectangle that contains every location the instance holds.  It is exact
/// when the instance is made ([`GeoSocialDataset::new`],
/// [`GeoSocialDataset::restrict_locations`]) and only ever *grows*
/// afterwards: [`GeoSocialDataset::set_location`] widens it to take a new
/// location in and never shrinks it when one leaves.  So reading it is
/// `O(1)`, and it stays a valid region for a lower bound (no location of
/// the instance lies outside it) under any churn — the spatial half of
/// SFA's stop test (see [`RankingContext`](crate::RankingContext)).
#[derive(Debug, Clone)]
pub struct GeoSocialDataset {
    core: Arc<DatasetCore>,
    locations: Vec<Option<Point>>,
    /// Contains every `Some` of `locations`; `None` only while the instance
    /// has never held a location.  Grows on writes, never shrinks.
    located_bounds: Option<Rect>,
}

impl GeoSocialDataset {
    /// Creates a dataset from a social graph and per-user locations.
    ///
    /// `locations[i]` is the current location of user `i` (or `None`).  The
    /// vector must have exactly one entry per graph vertex.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidDataset`] when the location list length
    /// does not match the vertex count, when no user has a location, or when
    /// a location is not finite.
    pub fn new(graph: SocialGraph, locations: Vec<Option<Point>>) -> Result<Self, CoreError> {
        if locations.len() != graph.node_count() {
            return Err(CoreError::InvalidDataset(format!(
                "{} locations provided for {} users",
                locations.len(),
                graph.node_count()
            )));
        }
        if let Some(bad) = locations.iter().flatten().find(|p| !p.is_finite()) {
            return Err(CoreError::InvalidDataset(format!(
                "non-finite location {bad}"
            )));
        }
        let bounds = Rect::bounding(locations.iter().flatten().copied()).ok_or_else(|| {
            CoreError::InvalidDataset("at least one user must have a location".into())
        })?;
        let spatial_norm = if bounds.diagonal() > 0.0 {
            bounds.diagonal()
        } else {
            1.0
        };
        // The double-sweep pseudo-diameter: a lower bound on the diameter,
        // adequate as a normalization constant.
        let social_norm = pseudo_diameter(&graph).max(f64::MIN_POSITIVE);
        Ok(GeoSocialDataset {
            core: Arc::new(DatasetCore {
                graph,
                bounds,
                spatial_norm,
                social_norm,
            }),
            locations,
            located_bounds: Some(bounds),
        })
    }

    /// The underlying social graph.
    pub fn graph(&self) -> &SocialGraph {
        &self.core.graph
    }

    /// Returns `true` when `self` and `other` share the same immutable core
    /// (graph, bounds, normalization constants) — i.e. one is a clone or a
    /// [`GeoSocialDataset::restrict_locations`] view of the other, not an
    /// independently constructed copy.
    ///
    /// This is the memory-model invariant a sharded deployment relies on:
    /// all shard datasets of one `ShardedEngine` answer `true` pairwise,
    /// proving a single graph instance backs them.
    pub fn shares_core_with(&self, other: &GeoSocialDataset) -> bool {
        Arc::ptr_eq(&self.core, &other.core)
    }

    /// Number of users.
    pub fn user_count(&self) -> usize {
        self.core.graph.node_count()
    }

    /// Number of users that currently report a location.
    pub fn located_user_count(&self) -> usize {
        self.locations.iter().flatten().count()
    }

    /// The current location of `user`, if known.
    pub fn location(&self, user: UserId) -> Option<Point> {
        self.locations.get(user as usize).copied().flatten()
    }

    /// All `(user, location)` pairs for users with a known location.
    pub fn located_users(&self) -> impl Iterator<Item = (UserId, Point)> + '_ {
        self.locations
            .iter()
            .enumerate()
            .filter_map(|(u, p)| p.map(|p| (u as UserId, p)))
    }

    /// Bounding rectangle of all user locations.
    pub fn bounds(&self) -> Rect {
        self.core.bounds
    }

    /// A rectangle containing every location this instance holds: exact
    /// when the instance was made, grown by every later location write and
    /// never shrunk (see the type-level notes).  `None` when the instance
    /// has never held a location.
    pub fn located_bounds(&self) -> Option<Rect> {
        self.located_bounds
    }

    /// The spatial normalization constant (maximum possible pairwise
    /// Euclidean distance).
    pub fn spatial_norm(&self) -> f64 {
        self.core.spatial_norm
    }

    /// The social normalization constant (estimated maximum pairwise graph
    /// distance).
    pub fn social_norm(&self) -> f64 {
        self.core.social_norm
    }

    /// Returns `true` when `user` is a valid user id.
    pub fn contains(&self, user: UserId) -> bool {
        (user as usize) < self.user_count()
    }

    /// Validates a user id.
    pub fn check_user(&self, user: UserId) -> Result<(), CoreError> {
        if self.contains(user) {
            Ok(())
        } else {
            Err(CoreError::UnknownUser(user))
        }
    }

    /// Normalizes a raw spatial distance.
    #[inline]
    pub fn normalize_spatial(&self, d: f64) -> f64 {
        d / self.core.spatial_norm
    }

    /// Normalizes a raw social (graph) distance.
    #[inline]
    pub fn normalize_social(&self, p: f64) -> f64 {
        p / self.core.social_norm
    }

    /// Returns a dataset over the **same social graph** in which only users
    /// accepted by `keep` retain their location, while the bounding
    /// rectangle and both normalization constants are **inherited** from
    /// `self`.
    ///
    /// This is the shard-construction primitive of a partitioned
    /// deployment: each shard holds the full graph (social distances are
    /// global) but only its residents' locations, and because the
    /// normalization constants are shared, a score computed on any shard is
    /// bit-identical to the score the unpartitioned dataset produces —
    /// which is what makes an exact cross-shard top-k merge possible.
    ///
    /// Unlike [`GeoSocialDataset::new`], the restricted dataset may hold
    /// **zero** located users (an empty shard answers every query with an
    /// empty result); the empty view still shares the core — no path
    /// through this method ever copies the graph.
    ///
    /// The returned view **shares this dataset's immutable core** (see the
    /// type-level ownership notes): only the location vector is copied, so
    /// N shards cost `N · O(|V|)` location entries plus a single graph.
    pub fn restrict_locations(&self, mut keep: impl FnMut(UserId) -> bool) -> GeoSocialDataset {
        let locations: Vec<Option<Point>> = self
            .locations
            .iter()
            .enumerate()
            .map(|(u, p)| if keep(u as UserId) { *p } else { None })
            .collect();
        GeoSocialDataset {
            core: Arc::clone(&self.core),
            located_bounds: Rect::bounding(locations.iter().flatten().copied()),
            locations,
        }
    }

    /// Replaces the location of `user` (the "last reported location" of the
    /// problem setting).  Passing `None` removes the location.  A new
    /// location widens [`GeoSocialDataset::located_bounds`]; a removed one
    /// leaves it as it is.
    ///
    /// Note: this mutates only the dataset; engines built from a clone of
    /// the dataset maintain their own indexes via
    /// [`GeoSocialEngine::update_location`](crate::GeoSocialEngine::update_location).
    pub fn set_location(&mut self, user: UserId, location: Option<Point>) -> Result<(), CoreError> {
        self.check_user(user)?;
        if let Some(p) = location {
            if !p.is_finite() {
                return Err(CoreError::InvalidDataset(format!(
                    "non-finite location {p}"
                )));
            }
            self.located_bounds = Some(match self.located_bounds {
                Some(rect) => rect.including(p),
                None => Rect { min: p, max: p },
            });
        }
        self.locations[user as usize] = location;
        Ok(())
    }

    /// Approximate heap footprint in bytes of the per-instance location
    /// vector — the only part of a dataset **not** shared through the
    /// `Arc`-backed core.  Used by the memory experiment of `ssrq-bench` to
    /// attribute per-shard versus shared bytes.
    pub fn locations_heap_bytes(&self) -> usize {
        self.locations.capacity() * std::mem::size_of::<Option<Point>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssrq_graph::GraphBuilder;

    fn line_graph(n: usize) -> SocialGraph {
        GraphBuilder::from_edges(n, (0..n - 1).map(|i| (i as u32, i as u32 + 1, 1.0))).unwrap()
    }

    fn sample_dataset() -> GeoSocialDataset {
        let graph = line_graph(4);
        let locations = vec![
            Some(Point::new(0.0, 0.0)),
            Some(Point::new(3.0, 4.0)),
            None,
            Some(Point::new(6.0, 8.0)),
        ];
        GeoSocialDataset::new(graph, locations).unwrap()
    }

    #[test]
    fn rejects_mismatched_lengths() {
        let graph = line_graph(3);
        let err = GeoSocialDataset::new(graph, vec![Some(Point::ORIGIN)]);
        assert!(matches!(err, Err(CoreError::InvalidDataset(_))));
    }

    #[test]
    fn rejects_all_missing_locations() {
        let graph = line_graph(3);
        let err = GeoSocialDataset::new(graph, vec![None, None, None]);
        assert!(matches!(err, Err(CoreError::InvalidDataset(_))));
    }

    #[test]
    fn rejects_non_finite_locations() {
        let graph = line_graph(2);
        let err = GeoSocialDataset::new(graph, vec![Some(Point::new(f64::NAN, 0.0)), None]);
        assert!(matches!(err, Err(CoreError::InvalidDataset(_))));
    }

    #[test]
    fn normalization_constants_are_positive() {
        let ds = sample_dataset();
        assert!(ds.spatial_norm() > 0.0);
        assert!(ds.social_norm() > 0.0);
        // Line graph of 4 vertices with unit weights has diameter 3.
        assert_eq!(ds.social_norm(), 3.0);
        // Spatial diagonal of bounding box (0,0)-(6,8) is 10.
        assert_eq!(ds.spatial_norm(), 10.0);
    }

    #[test]
    fn accessors_work() {
        let ds = sample_dataset();
        assert_eq!(ds.user_count(), 4);
        assert_eq!(ds.located_user_count(), 3);
        assert!(ds.contains(3));
        assert!(!ds.contains(4));
        assert!(ds.check_user(4).is_err());
        assert_eq!(ds.location(2), None);
        assert_eq!(ds.located_users().count(), 3);
        assert!(ds.bounds().contains(Point::new(3.0, 4.0)));
    }

    #[test]
    fn set_location_updates_and_validates() {
        let mut ds = sample_dataset();
        ds.set_location(2, Some(Point::new(1.0, 1.0))).unwrap();
        assert_eq!(ds.location(2), Some(Point::new(1.0, 1.0)));
        ds.set_location(2, None).unwrap();
        assert_eq!(ds.location(2), None);
        assert!(ds.set_location(9, None).is_err());
        assert!(ds
            .set_location(1, Some(Point::new(f64::INFINITY, 0.0)))
            .is_err());
    }

    #[test]
    fn restrict_locations_inherits_normalization_and_allows_empty_shards() {
        let ds = sample_dataset();
        let shard = ds.restrict_locations(|u| u == 1);
        assert_eq!(shard.user_count(), ds.user_count());
        assert_eq!(shard.located_user_count(), 1);
        assert_eq!(shard.location(1), ds.location(1));
        assert_eq!(shard.location(0), None);
        // Normalization constants and bounds come from the parent, not from
        // the restricted location set — shard-side scores stay bit-identical.
        assert_eq!(shard.spatial_norm(), ds.spatial_norm());
        assert_eq!(shard.social_norm(), ds.social_norm());
        assert_eq!(shard.bounds(), ds.bounds());
        // A shard may end up with no located users at all.
        let empty = ds.restrict_locations(|_| false);
        assert_eq!(empty.located_user_count(), 0);
        assert_eq!(empty.spatial_norm(), ds.spatial_norm());
        // Restriction — including the empty-shard path — shares the
        // immutable core instead of deep-cloning the graph.
        assert!(shard.shares_core_with(&ds));
        assert!(empty.shares_core_with(&ds));
        assert!(shard.shares_core_with(&empty));
    }

    #[test]
    fn located_bounds_are_exact_when_made_and_only_grow() {
        let rect = |x0, y0, x1, y1| Rect::new(Point::new(x0, y0), Point::new(x1, y1));
        let mut ds = sample_dataset();
        assert_eq!(ds.located_bounds(), Some(ds.bounds()));
        let shard = ds.restrict_locations(|u| u == 1);
        assert_eq!(shard.located_bounds(), Some(rect(3.0, 4.0, 3.0, 4.0)));
        ds.set_location(2, Some(Point::new(-1.0, 9.0))).unwrap();
        assert_eq!(ds.located_bounds(), Some(rect(-1.0, 0.0, 6.0, 9.0)));
        // Removals and rejected writes leave it as it is.
        ds.set_location(2, None).unwrap();
        ds.set_location(3, None).unwrap();
        assert!(ds.set_location(0, Some(Point::new(f64::NAN, 0.0))).is_err());
        assert_eq!(ds.located_bounds(), Some(rect(-1.0, 0.0, 6.0, 9.0)));
        // An empty view has no box until its first location arrives.
        let mut empty = ds.restrict_locations(|_| false);
        assert_eq!(empty.located_bounds(), None);
        empty.set_location(0, Some(Point::new(2.0, 2.0))).unwrap();
        assert_eq!(empty.located_bounds(), Some(rect(2.0, 2.0, 2.0, 2.0)));
    }

    #[test]
    fn clones_share_the_core_but_not_the_locations() {
        let ds = sample_dataset();
        let mut cloned = ds.clone();
        assert!(cloned.shares_core_with(&ds));
        assert!(std::ptr::eq(cloned.graph(), ds.graph()));
        // Locations stay per-instance mutable state.
        cloned.set_location(0, None).unwrap();
        assert!(ds.location(0).is_some());
        assert!(cloned.location(0).is_none());
        // An independently constructed dataset has its own core even over a
        // structurally identical graph.
        let other = sample_dataset();
        assert!(!other.shares_core_with(&ds));
        assert!(ds.locations_heap_bytes() > 0);
    }

    #[test]
    fn diameter_of_disconnected_graph_ignores_infinities() {
        let graph = GraphBuilder::from_edges(5, vec![(0, 1, 2.0), (2, 3, 5.0)]).unwrap();
        let locations = vec![Some(Point::ORIGIN); 5];
        let ds = GeoSocialDataset::new(graph, locations).unwrap();
        assert!(ds.social_norm().is_finite());
        assert!(ds.social_norm() >= 2.0);
    }

    #[test]
    fn normalize_helpers_divide_by_constants() {
        let ds = sample_dataset();
        assert!((ds.normalize_spatial(5.0) - 0.5).abs() < 1e-12);
        assert!((ds.normalize_social(1.5) - 0.5).abs() < 1e-12);
    }
}
