use crate::{dijkstra_all_with, Distance, GraphError, NodeId, SearchScratch, SocialGraph};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Landmark selection strategy (pre-processing of §2.3 / §4.2).
///
/// The paper uses the selection technique of Goldberg & Harrelson
/// ("A* search meets graph theory"), which is the farthest-first sweep; the
/// other strategies are provided for the ablation benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LandmarkSelection {
    /// Farthest-first traversal: each new landmark is the vertex farthest
    /// from all previously chosen landmarks (the strategy of \[25\]).
    FarthestFirst,
    /// Uniformly random vertices.
    Random,
    /// The vertices with the highest degree (hubs).
    HighestDegree,
}

/// A set of `M` landmarks together with the pre-computed distance from every
/// vertex to every landmark.
///
/// Landmark distances serve three purposes in the SSRQ system:
///
/// 1. triangle-inequality lower bounds on pairwise graph distances
///    ([`LandmarkSet::lower_bound`]), used to prune TSA candidates;
/// 2. the ALT pruning of the reverse search inside the bidirectional
///    graph-distance module (§5.2);
/// 3. the per-cell social summaries (`m̂`, `m̌`) of the AIS index (§5.1),
///    which aggregate the per-vertex vectors stored here.
#[derive(Debug, Clone)]
pub struct LandmarkSet {
    landmarks: Vec<NodeId>,
    /// Distance from vertex `v` to landmark `j`, stored vertex-major:
    /// `dist[v * M + j]`.  Unreachable pairs hold `f64::INFINITY`.
    dist: Vec<Distance>,
    node_count: usize,
}

impl LandmarkSet {
    /// Selects `m` landmarks with the given strategy and pre-computes the
    /// distance vectors (one single-source Dijkstra per landmark; farthest-
    /// first selection adds one more sweep to find its start, and its
    /// selection sweeps are the table's columns).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidConfiguration`] when `m` is zero or the
    /// graph has no vertices.
    pub fn build(
        graph: &SocialGraph,
        m: usize,
        strategy: LandmarkSelection,
        seed: u64,
    ) -> Result<Self, GraphError> {
        if m == 0 {
            return Err(GraphError::InvalidConfiguration(
                "at least one landmark is required".into(),
            ));
        }
        if graph.node_count() == 0 {
            return Err(GraphError::InvalidConfiguration(
                "cannot select landmarks on an empty graph".into(),
            ));
        }
        let node_count = graph.node_count();
        let m = m.min(node_count);
        // One scratch backs every single-source sweep.
        let mut scratch = SearchScratch::with_capacity(node_count);
        let (landmarks, dist) = match strategy {
            LandmarkSelection::FarthestFirst => farthest_first(graph, m, seed, &mut scratch),
            LandmarkSelection::Random | LandmarkSelection::HighestDegree => {
                let mut ids: Vec<NodeId> = graph.nodes().collect();
                if strategy == LandmarkSelection::Random {
                    ids.shuffle(&mut StdRng::seed_from_u64(seed));
                } else {
                    ids.sort_by_key(|&v| std::cmp::Reverse(graph.degree(v)));
                }
                ids.truncate(m);
                let mut dist = vec![f64::INFINITY; node_count * m];
                for (j, &lm) in ids.iter().enumerate() {
                    write_column(&mut dist, m, j, &dijkstra_all_with(graph, lm, &mut scratch));
                }
                (ids, dist)
            }
        };
        Ok(LandmarkSet {
            landmarks,
            dist,
            node_count,
        })
    }

    /// Number of landmarks `M`.
    pub fn len(&self) -> usize {
        self.landmarks.len()
    }

    /// Returns `true` when the set holds no landmarks (never the case for a
    /// successfully built set).
    pub fn is_empty(&self) -> bool {
        self.landmarks.is_empty()
    }

    /// The selected landmark vertices.
    pub fn landmarks(&self) -> &[NodeId] {
        &self.landmarks
    }

    /// The full landmark-distance vector of vertex `v`: entry `j` is its
    /// distance to landmark `j` (`m_{vj}` in the paper).
    #[inline]
    pub fn vector(&self, v: NodeId) -> &[Distance] {
        let m = self.landmarks.len();
        &self.dist[v as usize * m..(v as usize + 1) * m]
    }

    /// Triangle-inequality lower bound on the graph distance between `u` and
    /// `v`: `max_j |m_uj - m_vj|`.
    ///
    /// Pairs involving a vertex that cannot reach a landmark contribute no
    /// bound from that landmark (their difference would be `inf - inf`).
    pub fn lower_bound(&self, u: NodeId, v: NodeId) -> Distance {
        let m = self.landmarks.len();
        let ua = &self.dist[u as usize * m..u as usize * m + m];
        let va = &self.dist[v as usize * m..v as usize * m + m];
        let mut best = 0.0_f64;
        for j in 0..m {
            let (a, b) = (ua[j], va[j]);
            if a.is_finite() && b.is_finite() {
                let diff = (a - b).abs();
                if diff > best {
                    best = diff;
                }
            } else if a.is_finite() != b.is_finite() {
                // One side reaches the landmark, the other does not: the two
                // vertices are in different components.
                return f64::INFINITY;
            }
        }
        best
    }

    /// [`Self::lower_bound`] less the rounding the table may carry: each
    /// entry is an `f64` path sum within a factor `1 ± rel` of its real
    /// value, so `max_j (|m_uj − m_vj| − rel·(m_uj + m_vj))` is at most the
    /// real distance even where the plain bound overshoots it by ulps.
    pub(crate) fn strict_lower_bound(&self, u: NodeId, v: NodeId, rel: Distance) -> Distance {
        let mut best = 0.0_f64;
        for (&a, &b) in self.vector(u).iter().zip(self.vector(v)) {
            if a.is_finite() && b.is_finite() {
                best = best.max((a - b).abs() - rel * (a + b));
            } else if a.is_finite() != b.is_finite() {
                return f64::INFINITY;
            }
        }
        best
    }

    /// Number of vertices covered by the distance table.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Approximate heap footprint of the landmark tables in bytes (the
    /// `|V| × M` distance matrix dominates).  Like the graph, the set is
    /// immutable after construction and is shared behind an `Arc` by the
    /// engines of a partitioned deployment — these bytes are paid once.
    pub fn approx_heap_bytes(&self) -> usize {
        self.landmarks.capacity() * std::mem::size_of::<NodeId>()
            + self.dist.capacity() * std::mem::size_of::<Distance>()
    }
}

/// Farthest-first landmark sweep: start from a random vertex, repeatedly add
/// the vertex maximizing the distance to the closest already-chosen
/// landmark.  Vertices in unreachable components are skipped (they would
/// produce infinite, useless bounds for the main component).
///
/// Each landmark's selection sweep is written straight into its column of
/// the `|V| × m` table, so selection and table together cost `m + 1`
/// sweeps.  Returns the landmarks and the table, compacted to
/// `landmarks.len()` columns when selection stops early.
fn farthest_first(
    graph: &SocialGraph,
    m: usize,
    seed: u64,
    scratch: &mut SearchScratch,
) -> (Vec<NodeId>, Vec<Distance>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = graph.node_count();
    // An isolated vertex would be its own farthest vertex and end the
    // selection at one landmark, so advance cyclically from the random
    // draw to the first vertex of positive degree.
    let drawn = rng.gen_range(0..n);
    let first = (drawn..n)
        .chain(0..drawn)
        .map(|v| v as NodeId)
        .find(|&v| graph.degree(v) > 0)
        .unwrap_or(drawn as NodeId);

    // Replace the random seed vertex by the farthest reachable vertex from
    // it; this avoids a poor (central) first landmark.
    let start = farthest(&dijkstra_all_with(graph, first, scratch)).unwrap_or(first);

    let mut landmarks = vec![start];
    let mut dist = vec![f64::INFINITY; n * m];
    // Distance to the closest chosen landmark so far.
    let mut closest = dijkstra_all_with(graph, start, scratch);
    write_column(&mut dist, m, 0, &closest);
    while landmarks.len() < m {
        let Some(next) = farthest(&closest) else {
            break;
        };
        if landmarks.contains(&next) {
            break; // graph smaller than m reachable vertices
        }
        let d = dijkstra_all_with(graph, next, scratch);
        write_column(&mut dist, m, landmarks.len(), &d);
        landmarks.push(next);
        for v in 0..n {
            if d[v] < closest[v] {
                closest[v] = d[v];
            }
        }
    }

    let len = landmarks.len();
    if len < m {
        for v in 1..n {
            dist.copy_within(v * m..v * m + len, v * len);
        }
        dist.truncate(n * len);
        dist.shrink_to_fit();
    }
    (landmarks, dist)
}

/// The finite-distance vertex farthest from a sweep's source (the last one
/// among equals).
fn farthest(dist: &[Distance]) -> Option<NodeId> {
    dist.iter()
        .enumerate()
        .filter(|(_, d)| d.is_finite())
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(v, _)| v as NodeId)
}

/// Writes one landmark's sweep into column `j` of the vertex-major table
/// with `m` columns.
fn write_column(table: &mut [Distance], m: usize, j: usize, sweep: &[Distance]) {
    for (row, &d) in table.chunks_exact_mut(m).zip(sweep) {
        row[j] = d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dijkstra_all, dijkstra_distance, GraphBuilder};

    fn path_graph(n: usize) -> SocialGraph {
        GraphBuilder::from_edges(n, (0..n - 1).map(|i| (i as NodeId, i as NodeId + 1, 1.0)))
            .unwrap()
    }

    #[test]
    fn rejects_invalid_configurations() {
        let g = path_graph(5);
        assert!(LandmarkSet::build(&g, 0, LandmarkSelection::Random, 1).is_err());
        let empty = GraphBuilder::new(0).build();
        assert!(LandmarkSet::build(&empty, 2, LandmarkSelection::Random, 1).is_err());
    }

    #[test]
    fn farthest_first_on_a_path_picks_the_endpoints() {
        let g = path_graph(10);
        let lms = LandmarkSet::build(&g, 2, LandmarkSelection::FarthestFirst, 7).unwrap();
        let mut picked: Vec<NodeId> = lms.landmarks().to_vec();
        picked.sort_unstable();
        assert_eq!(picked, vec![0, 9]);
    }

    #[test]
    fn highest_degree_picks_the_hub() {
        // Star graph: vertex 0 is the hub.
        let g = GraphBuilder::from_edges(6, (1..6).map(|i| (0, i as NodeId, 1.0))).unwrap();
        let lms = LandmarkSet::build(&g, 1, LandmarkSelection::HighestDegree, 1).unwrap();
        assert_eq!(lms.landmarks(), &[0]);
    }

    #[test]
    fn lower_bound_never_exceeds_true_distance() {
        let g = path_graph(12);
        for strategy in [
            LandmarkSelection::Random,
            LandmarkSelection::FarthestFirst,
            LandmarkSelection::HighestDegree,
        ] {
            let lms = LandmarkSet::build(&g, 3, strategy, 42).unwrap();
            for u in g.nodes() {
                for v in g.nodes() {
                    let lb = lms.lower_bound(u, v);
                    let d = dijkstra_distance(&g, u, v);
                    assert!(
                        lb <= d + 1e-9,
                        "lb {lb} exceeds distance {d} for ({u}, {v}) with {strategy:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn lower_bound_is_exact_on_a_path_with_endpoint_landmark() {
        let g = path_graph(8);
        let lms = LandmarkSet::build(&g, 2, LandmarkSelection::FarthestFirst, 3).unwrap();
        // On a path with a landmark at an endpoint the triangle bound is
        // exact for every pair.
        for u in g.nodes() {
            for v in g.nodes() {
                let lb = lms.lower_bound(u, v);
                let d = dijkstra_distance(&g, u, v);
                assert!((lb - d).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn disconnected_vertices_get_infinite_bound() {
        let g = GraphBuilder::from_edges(5, vec![(0, 1, 1.0), (2, 3, 1.0)]).unwrap();
        let lms = LandmarkSet::build(&g, 2, LandmarkSelection::FarthestFirst, 9).unwrap();
        // Both landmarks end up in a single component (they are chosen as
        // the vertices farthest from each other among reachable ones).  A
        // pair where exactly one vertex can reach a landmark is provably
        // disconnected, so its bound must be infinite.
        let lm_component: Vec<NodeId> = if lms.landmarks().iter().all(|&l| l <= 1) {
            vec![0, 1]
        } else {
            vec![2, 3]
        };
        let other: NodeId = if lm_component[0] == 0 { 2 } else { 0 };
        assert!(lms.lower_bound(lm_component[0], other).is_infinite());
        assert!(lms.lower_bound(lm_component[0], 4).is_infinite());
        // Same-component bounds stay finite.
        assert!(lms
            .lower_bound(lm_component[0], lm_component[1])
            .is_finite());
    }

    #[test]
    fn vector_returns_m_entries_per_vertex() {
        let g = path_graph(6);
        let lms = LandmarkSet::build(&g, 3, LandmarkSelection::Random, 5).unwrap();
        assert_eq!(lms.len(), 3);
        assert_eq!(lms.node_count(), 6);
        for v in g.nodes() {
            assert_eq!(lms.vector(v).len(), 3);
        }
    }

    #[test]
    fn m_larger_than_graph_is_clamped() {
        let g = path_graph(3);
        let lms = LandmarkSet::build(&g, 10, LandmarkSelection::FarthestFirst, 1).unwrap();
        assert!(lms.len() <= 3);
        assert!(!lms.is_empty());
    }

    #[test]
    fn distance_to_landmark_matches_dijkstra() {
        let g = path_graph(7);
        let lms = LandmarkSet::build(&g, 2, LandmarkSelection::FarthestFirst, 11).unwrap();
        for (j, &lm) in lms.landmarks().iter().enumerate() {
            for v in g.nodes() {
                assert_eq!(lms.vector(v)[j], dijkstra_distance(&g, v, lm));
            }
        }
    }

    /// The landmark selection as it ran when a second round of sweeps
    /// built the table after selection: Random and HighestDegree as they
    /// still are, farthest-first verbatim.
    fn reference_landmarks(
        graph: &SocialGraph,
        m: usize,
        strategy: LandmarkSelection,
        seed: u64,
    ) -> Vec<NodeId> {
        let m = m.min(graph.node_count());
        let mut ids: Vec<NodeId> = graph.nodes().collect();
        match strategy {
            LandmarkSelection::Random => ids.shuffle(&mut StdRng::seed_from_u64(seed)),
            LandmarkSelection::HighestDegree => {
                ids.sort_by_key(|&v| std::cmp::Reverse(graph.degree(v)))
            }
            LandmarkSelection::FarthestFirst => return reference_farthest_first(graph, m, seed),
        }
        ids.truncate(m);
        ids
    }

    fn reference_farthest_first(graph: &SocialGraph, m: usize, seed: u64) -> Vec<NodeId> {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = graph.node_count();
        let first = rng.gen_range(0..n) as NodeId;
        let mut scratch = SearchScratch::with_capacity(n);

        // Distance to the closest chosen landmark so far.
        let mut closest = dijkstra_all_with(graph, first, &mut scratch);
        // Replace the random seed vertex by the farthest reachable vertex from
        // it; this avoids a poor (central) first landmark.
        let start = closest
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_finite())
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(v, _)| v as NodeId)
            .unwrap_or(first);

        let mut landmarks = vec![start];
        closest = dijkstra_all_with(graph, start, &mut scratch);
        while landmarks.len() < m {
            let next = closest
                .iter()
                .enumerate()
                .filter(|(_, d)| d.is_finite())
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(v, _)| v as NodeId);
            let Some(next) = next else { break };
            if landmarks.contains(&next) {
                break; // graph smaller than m reachable vertices
            }
            landmarks.push(next);
            let d = dijkstra_all_with(graph, next, &mut scratch);
            for v in 0..n {
                if d[v] < closest[v] {
                    closest[v] = d[v];
                }
            }
        }
        landmarks
    }

    /// A generated graph, rebuilt from its edge list as this crate's type.
    fn generated(config: ssrq_data::DatasetConfig) -> SocialGraph {
        let g = config.generate_graph();
        GraphBuilder::from_edges(g.node_count(), g.undirected_edges()).unwrap()
    }

    #[test]
    fn tables_are_bit_identical_to_a_sweep_per_landmark() {
        use ssrq_data::DatasetConfig;
        // A 5-vertex path and a triangle, no isolated vertex: farthest-first
        // exhausts its component before reaching 6 landmarks.
        let path = (0..4).map(|i| (i, i + 1, 0.3 + 0.2 * f64::from(i)));
        let triangle = [(5, 6, 0.2), (6, 7, 0.4), (5, 7, 0.5)];
        let split = GraphBuilder::from_edges(8, path.chain(triangle)).unwrap();
        let gowalla = generated(DatasetConfig::gowalla_like(1_500).with_seed(42));
        let twitter = generated(DatasetConfig::twitter_like(1_000).with_seed(7));
        let cases = [
            ("gowalla", gowalla, 8, 42),
            ("twitter", twitter, 8, 7),
            ("split", split, 6, 3),
        ];
        for (label, graph, m, seed) in cases {
            for strategy in [
                LandmarkSelection::FarthestFirst,
                LandmarkSelection::Random,
                LandmarkSelection::HighestDegree,
            ] {
                let lms = LandmarkSet::build(&graph, m, strategy, seed).unwrap();
                let expected = reference_landmarks(&graph, m, strategy, seed);
                assert_eq!(lms.landmarks(), &expected[..], "{label} {strategy:?}");
                if label == "split" && strategy == LandmarkSelection::FarthestFirst {
                    assert!(lms.len() < m, "selection stops early");
                }
                assert_eq!(lms.dist.len(), graph.node_count() * lms.len());
                for (j, &lm) in lms.landmarks().iter().enumerate() {
                    let sweep = dijkstra_all(&graph, lm);
                    for v in graph.nodes() {
                        assert_eq!(
                            lms.vector(v)[j].to_bits(),
                            sweep[v as usize].to_bits(),
                            "{label} {strategy:?}: landmark {j}, vertex {v}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn farthest_first_never_stops_at_an_isolated_start() {
        // A 50-vertex path followed by 50 isolated vertices.
        let g = GraphBuilder::from_edges(100, (0..49).map(|i| (i, i + 1, 1.0))).unwrap();
        let mut short_before = 0;
        for seed in 0..200 {
            let lms = LandmarkSet::build(&g, 4, LandmarkSelection::FarthestFirst, seed).unwrap();
            assert_eq!(lms.len(), 4, "seed {seed}");
            short_before += usize::from(reference_farthest_first(&g, 4, seed).len() < 4);
        }
        // The graph does trip the old selection.
        assert!(short_before > 0);
    }
}
