//! User-location assignment.
//!
//! Check-in locations in real location-based social networks cluster around
//! cities and venues; the generators here produce comparable clustered
//! point sets inside the unit square, with a configurable fraction of users
//! lacking any location (the paper's Gowalla/Foursquare snapshots cover only
//! 54 % / 60 % of users — the rest are "infinitely far away").

use rand::prelude::*;
use rand::rngs::StdRng;
use rand_distr_normal::sample_normal;
use ssrq_spatial::Point;

/// The spatial distribution model for generated locations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LocationModel {
    /// Uniformly random inside the unit square.
    Uniform,
    /// Gaussian clusters ("cities"): cluster centres are uniform, users
    /// scatter around a randomly chosen centre with the given standard
    /// deviation.
    Clustered {
        /// Number of cluster centres.
        clusters: usize,
        /// Standard deviation of the per-cluster scatter.
        spread: f64,
    },
}

/// Generates locations for `n` users.
///
/// `coverage` is the fraction of users that receive a location (the rest get
/// `None`); which users are covered is decided uniformly at random.
pub fn generate_locations(
    n: usize,
    model: LocationModel,
    coverage: f64,
    seed: u64,
) -> Vec<Option<Point>> {
    let coverage = coverage.clamp(0.0, 1.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<Point> = match model {
        LocationModel::Uniform => Vec::new(),
        LocationModel::Clustered { clusters, .. } => (0..clusters.max(1))
            .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
            .collect(),
    };
    (0..n)
        .map(|_| {
            if !rng.gen_bool(coverage) {
                return None;
            }
            let p = match model {
                LocationModel::Uniform => Point::new(rng.gen::<f64>(), rng.gen::<f64>()),
                LocationModel::Clustered { spread, .. } => {
                    let c = centers[rng.gen_range(0..centers.len())];
                    Point::new(
                        (c.x + sample_normal(&mut rng) * spread).clamp(0.0, 1.0),
                        (c.y + sample_normal(&mut rng) * spread).clamp(0.0, 1.0),
                    )
                }
            };
            Some(p)
        })
        .collect()
}

/// Generates locations that correlate with the social structure, the way
/// real location-based social networks do (friends tend to live in the same
/// city — Cho et al., cited as \[19\] in the paper).
///
/// `clusters` random "cities" are placed in the unit square and seeded with
/// one random user each; every other user joins the city of whichever seed
/// reaches it first in a multi-source BFS over the social graph, then
/// scatters around that city's centre with standard deviation `spread`.
/// Users in components no seed reaches fall back to a random city.
/// `coverage` is the fraction of users that receive a location at all.
pub fn social_cluster_locations(
    graph: &ssrq_graph::SocialGraph,
    clusters: usize,
    spread: f64,
    coverage: f64,
    seed: u64,
) -> Vec<Option<Point>> {
    use std::collections::VecDeque;

    let n = graph.node_count();
    let coverage = coverage.clamp(0.0, 1.0);
    let clusters = clusters.max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<Point> = (0..clusters)
        .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
        .collect();

    // Multi-source BFS: each user inherits the city of the first seed that
    // reaches it through the friendship graph.
    let mut assignment: Vec<Option<usize>> = vec![None; n];
    let mut queue = VecDeque::new();
    if n > 0 {
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut rng);
        for (cluster, &user) in order.iter().take(clusters).enumerate() {
            assignment[user] = Some(cluster % clusters);
            queue.push_back(user);
        }
    }
    while let Some(user) = queue.pop_front() {
        let cluster = assignment[user].expect("queued users are assigned");
        for edge in graph.neighbors(user as u32) {
            let next = edge.to as usize;
            if assignment[next].is_none() {
                assignment[next] = Some(cluster);
                queue.push_back(next);
            }
        }
    }

    (0..n)
        .map(|user| {
            if !rng.gen_bool(coverage) {
                return None;
            }
            let cluster = assignment[user].unwrap_or_else(|| rng.gen_range(0..clusters));
            let c = centers[cluster];
            Some(Point::new(
                (c.x + sample_normal(&mut rng) * spread).clamp(0.0, 1.0),
                (c.y + sample_normal(&mut rng) * spread).clamp(0.0, 1.0),
            ))
        })
        .collect()
}

/// A tiny Box–Muller standard-normal sampler, avoiding an extra dependency
/// on `rand_distr`.
mod rand_distr_normal {
    use rand::Rng;

    /// Draws one sample from the standard normal distribution.
    pub(crate) fn sample_normal<R: Rng>(rng: &mut R) -> f64 {
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn social_cluster_locations_place_friends_closer_than_strangers() {
        // The defining property of the socially-derived assignment: friends
        // (adjacent vertices) are much closer in space, on average, than
        // random user pairs — the "friends share a city" effect of real
        // location-based social networks.
        let graph = crate::weights::degree_weights(&crate::generators::preferential_attachment(
            1_500, 5, 7,
        ));
        let locs = social_cluster_locations(&graph, 25, 0.03, 1.0, 5);
        let mut friend_total = 0.0;
        let mut friend_count = 0usize;
        for (u, v, _) in graph.undirected_edges() {
            if let (Some(a), Some(b)) = (locs[u as usize], locs[v as usize]) {
                friend_total += a.distance(b);
                friend_count += 1;
            }
        }
        let mut random_total = 0.0;
        let mut random_count = 0usize;
        for i in (0..1_400).step_by(7) {
            if let (Some(a), Some(b)) = (locs[i], locs[i + 53]) {
                random_total += a.distance(b);
                random_count += 1;
            }
        }
        let friend_avg = friend_total / friend_count.max(1) as f64;
        let random_avg = random_total / random_count.max(1) as f64;
        // On a hub-dominated scale-free graph many friendships run through
        // hubs sitting in other cities, so the gap is modest — but it must
        // be there.
        assert!(
            friend_avg < 0.95 * random_avg,
            "friends ({friend_avg:.3}) should be closer than random pairs ({random_avg:.3})"
        );
    }

    #[test]
    fn social_cluster_locations_respect_coverage_and_bounds() {
        let graph = crate::generators::preferential_attachment(2_000, 4, 3);
        let locs = social_cluster_locations(&graph, 20, 0.05, 0.6, 9);
        let covered = locs.iter().flatten().count() as f64 / 2_000.0;
        assert!((covered - 0.6).abs() < 0.05);
        for p in locs.into_iter().flatten() {
            assert!((0.0..=1.0).contains(&p.x) && (0.0..=1.0).contains(&p.y));
        }
    }

    #[test]
    fn coverage_fraction_is_respected() {
        let locs = generate_locations(10_000, LocationModel::Uniform, 0.6, 1);
        let covered = locs.iter().flatten().count();
        let ratio = covered as f64 / 10_000.0;
        assert!((ratio - 0.6).abs() < 0.03, "coverage {ratio}");
    }

    #[test]
    fn full_and_zero_coverage() {
        let all = generate_locations(500, LocationModel::Uniform, 1.0, 2);
        assert_eq!(all.iter().flatten().count(), 500);
        let none = generate_locations(500, LocationModel::Uniform, 0.0, 2);
        assert_eq!(none.iter().flatten().count(), 0);
    }

    #[test]
    fn all_points_lie_in_the_unit_square() {
        for model in [
            LocationModel::Uniform,
            LocationModel::Clustered {
                clusters: 5,
                spread: 0.3,
            },
        ] {
            for p in generate_locations(2_000, model, 1.0, 3)
                .into_iter()
                .flatten()
            {
                assert!((0.0..=1.0).contains(&p.x));
                assert!((0.0..=1.0).contains(&p.y));
                assert!(p.is_finite());
            }
        }
    }

    #[test]
    fn clustered_locations_are_more_concentrated_than_uniform() {
        let uniform = generate_locations(5_000, LocationModel::Uniform, 1.0, 4);
        let clustered = generate_locations(
            5_000,
            LocationModel::Clustered {
                clusters: 4,
                spread: 0.02,
            },
            1.0,
            4,
        );
        // Mean nearest-cluster-free proxy: the average pairwise distance of a
        // sample is clearly smaller for tightly clustered data.
        let avg = |pts: &[Option<Point>]| {
            let sample: Vec<Point> = pts.iter().flatten().take(300).copied().collect();
            let mut total = 0.0;
            let mut count = 0usize;
            for i in 0..sample.len() {
                for j in (i + 1)..sample.len() {
                    total += sample[i].distance(sample[j]);
                    count += 1;
                }
            }
            total / count as f64
        };
        assert!(avg(&clustered) < avg(&uniform));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = generate_locations(100, LocationModel::Uniform, 0.5, 9);
        let b = generate_locations(100, LocationModel::Uniform, 0.5, 9);
        assert_eq!(a, b);
        let c = generate_locations(100, LocationModel::Uniform, 0.5, 10);
        assert_ne!(a, c);
    }
}
