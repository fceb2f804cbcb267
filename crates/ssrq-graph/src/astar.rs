//! Point-to-point A* search with pluggable (consistent) heuristics.
//!
//! The SSRQ graph-distance module (§5.2) runs a *reverse* A* search from the
//! target vertex toward the query vertex, guided by landmark lower bounds
//! (the ALT heuristic of Goldberg & Harrelson).  The search here is
//! incremental — one settled vertex per call — so it can be interleaved with
//! the shared forward Dijkstra expansion.

use crate::queue::HeapItem;
use crate::{Distance, LandmarkSet, NodeId, SearchScratch, SocialGraph};
use std::collections::BinaryHeap;

/// A lower-bound estimator of the distance from a vertex to a fixed goal.
///
/// A* settles vertices with exact distances only if the heuristic is
/// *consistent* (`h(u) ≤ w(u, v) + h(v)`), which holds for the provided
/// implementations.
pub trait Heuristic {
    /// Lower bound on the graph distance from `v` to the goal.
    fn estimate(&self, v: NodeId) -> Distance;
}

/// The trivial heuristic (`h ≡ 0`); turns A* into plain Dijkstra.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZeroHeuristic;

impl Heuristic for ZeroHeuristic {
    #[inline]
    fn estimate(&self, _v: NodeId) -> Distance {
        0.0
    }
}

/// The landmark (ALT) heuristic: `h(v) = max_j |m_vj − m_gj|` where `g` is
/// the goal vertex.
#[derive(Debug, Clone, Copy)]
pub struct LandmarkHeuristic<'a> {
    landmarks: &'a LandmarkSet,
    goal: NodeId,
}

impl<'a> LandmarkHeuristic<'a> {
    /// Creates an ALT heuristic towards `goal`.
    pub fn new(landmarks: &'a LandmarkSet, goal: NodeId) -> Self {
        LandmarkHeuristic { landmarks, goal }
    }
}

impl Heuristic for LandmarkHeuristic<'_> {
    #[inline]
    fn estimate(&self, v: NodeId) -> Distance {
        let lb = self.landmarks.lower_bound(v, self.goal);
        // An infinite bound means "different components"; returning it would
        // poison the heap keys, so clamp to a large finite value — the
        // search will simply never reach the goal.
        if lb.is_finite() {
            lb
        } else {
            f64::MAX / 4.0
        }
    }
}

/// An incremental A* search from a fixed source, guided by a heuristic
/// toward a goal vertex.
///
/// Because the heuristics used here are consistent, a vertex's `g` value is
/// exact when it is settled, just like in Dijkstra.
///
/// The search borrows its dense state from a [`SearchScratch`], so starting
/// one is `O(1)`; reuse the same scratch across consecutive searches.
#[derive(Debug)]
pub struct AStar<'s, H> {
    source: NodeId,
    heuristic: H,
    scratch: &'s mut SearchScratch,
    /// The open list.  A binary heap, not the scratch's radix queue: `g + h`
    /// keys are monotone only up to rounding.
    heap: BinaryHeap<HeapItem>,
    pops: usize,
    settled_count: usize,
}

impl<'s, H: Heuristic> AStar<'s, H> {
    /// Starts an A* expansion at `source`, drawing state from `scratch`
    /// (which is reset first).
    ///
    /// # Panics
    ///
    /// Panics if `source` is not a vertex of `graph`.
    pub fn new(
        graph: &SocialGraph,
        source: NodeId,
        heuristic: H,
        scratch: &'s mut SearchScratch,
    ) -> Self {
        assert!(
            graph.contains(source),
            "source vertex {source} out of range"
        );
        scratch.begin(graph.node_count());
        scratch.set_tentative(source, 0.0, source);
        let mut heap = BinaryHeap::new();
        heap.push(HeapItem {
            key: heuristic.estimate(source),
            node: source,
        });
        AStar {
            source,
            heuristic,
            scratch,
            heap,
            pops: 0,
            settled_count: 0,
        }
    }

    /// The source vertex of the search.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Settles and returns the next vertex (with its exact distance from the
    /// source), or `None` when no reachable vertex remains.
    pub fn next_settled(&mut self, graph: &SocialGraph) -> Option<(NodeId, Distance)> {
        while let Some(HeapItem { node, .. }) = self.heap.pop() {
            self.pops += 1;
            if self.scratch.is_settled(node) {
                continue;
            }
            self.scratch.mark_settled(node);
            self.settled_count += 1;
            let g_node = self.scratch.tentative(node);
            for edge in graph.neighbors(node) {
                let cand = g_node + edge.weight;
                if cand < self.scratch.tentative(edge.to) {
                    self.scratch.set_tentative(edge.to, cand, node);
                    self.heap.push(HeapItem {
                        key: cand + self.heuristic.estimate(edge.to),
                        node: edge.to,
                    });
                }
            }
            return Some((node, g_node));
        }
        None
    }

    /// Runs until `target` is settled; returns its exact distance
    /// (`INFINITY` when unreachable).
    pub fn run_until_settled(&mut self, graph: &SocialGraph, target: NodeId) -> Distance {
        if self.scratch.is_settled(target) {
            return self.scratch.tentative(target);
        }
        while let Some((node, d)) = self.next_settled(graph) {
            if node == target {
                return d;
            }
        }
        f64::INFINITY
    }

    /// Exact distance of `v` from the source, if `v` has been settled.
    #[inline]
    pub fn settled_distance(&self, v: NodeId) -> Option<Distance> {
        if self.scratch.is_settled(v) {
            Some(self.scratch.tentative(v))
        } else {
            None
        }
    }

    /// Returns `true` when `v` has been settled.
    #[inline]
    pub fn is_settled(&self, v: NodeId) -> bool {
        self.scratch.is_settled(v)
    }

    /// The smallest key (`g + h`) in the open heap — a lower bound on the
    /// `f`-value of every vertex that is yet to be settled.  `None` when the
    /// search is exhausted.
    pub fn min_key(&self) -> Option<Distance> {
        self.heap.iter().map(|e| e.key).fold(None, |acc, k| {
            Some(match acc {
                None => k,
                Some(a) if k < a => k,
                Some(a) => a,
            })
        })
    }

    /// The key of the head of the heap (cheapest unexpanded entry), without
    /// scanning; may correspond to an already-settled (stale) vertex but is
    /// still a valid lower bound.
    pub fn peek_key(&self) -> Option<Distance> {
        self.heap.peek().map(|e| e.key)
    }

    /// Number of settled vertices.
    pub fn settled_count(&self) -> usize {
        self.settled_count
    }

    /// Number of heap pops.
    pub fn pops(&self) -> usize {
        self.pops
    }

    /// Returns `true` when the open heap is empty.
    pub fn exhausted(&self) -> bool {
        self.heap.is_empty()
    }
}

/// One-shot point-to-point A* distance with the ALT (landmark) heuristic.
pub fn alt_distance(
    graph: &SocialGraph,
    landmarks: &LandmarkSet,
    source: NodeId,
    target: NodeId,
) -> Distance {
    let heuristic = LandmarkHeuristic::new(landmarks, target);
    let mut scratch = SearchScratch::new();
    let mut search = AStar::new(graph, source, heuristic, &mut scratch);
    search.run_until_settled(graph, target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dijkstra_distance, GraphBuilder, LandmarkSelection};
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn random_graph(n: usize, extra_edges: usize, seed: u64) -> SocialGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(n);
        // Random spanning tree first so the graph is connected.
        for v in 1..n {
            let u = rng.gen_range(0..v);
            b.add_edge(u as NodeId, v as NodeId, rng.gen_range(0.1..2.0))
                .unwrap();
        }
        for _ in 0..extra_edges {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v {
                b.add_edge(u as NodeId, v as NodeId, rng.gen_range(0.1..2.0))
                    .unwrap();
            }
        }
        b.build()
    }

    #[test]
    fn zero_heuristic_equals_dijkstra() {
        let g = random_graph(60, 120, 1);
        let mut scratch = SearchScratch::new();
        for &(s, t) in &[(0u32, 59u32), (5, 42), (17, 17), (30, 2)] {
            let mut a = AStar::new(&g, s, ZeroHeuristic, &mut scratch);
            assert!((a.run_until_settled(&g, t) - dijkstra_distance(&g, s, t)).abs() < 1e-9);
        }
    }

    #[test]
    fn alt_distance_matches_dijkstra_on_random_graphs() {
        for seed in 0..3 {
            let g = random_graph(80, 160, seed);
            let lms = LandmarkSet::build(&g, 4, LandmarkSelection::FarthestFirst, seed).unwrap();
            let mut rng = StdRng::seed_from_u64(seed + 100);
            for _ in 0..20 {
                let s = rng.gen_range(0..80) as NodeId;
                let t = rng.gen_range(0..80) as NodeId;
                let expected = dijkstra_distance(&g, s, t);
                let got = alt_distance(&g, &lms, s, t);
                assert!(
                    (expected - got).abs() < 1e-9,
                    "seed {seed}: ALT {got} != Dijkstra {expected} for ({s}, {t})"
                );
            }
        }
    }

    #[test]
    fn alt_expands_no_more_vertices_than_dijkstra_on_average() {
        let g = random_graph(200, 500, 7);
        let lms = LandmarkSet::build(&g, 6, LandmarkSelection::FarthestFirst, 7).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let mut alt_pops = 0usize;
        let mut dij_pops = 0usize;
        let mut scratch = SearchScratch::new();
        for _ in 0..30 {
            let s = rng.gen_range(0..200) as NodeId;
            let t = rng.gen_range(0..200) as NodeId;
            let mut a = AStar::new(&g, s, LandmarkHeuristic::new(&lms, t), &mut scratch);
            a.run_until_settled(&g, t);
            alt_pops += a.settled_count();
            let mut d = AStar::new(&g, s, ZeroHeuristic, &mut scratch);
            d.run_until_settled(&g, t);
            dij_pops += d.settled_count();
        }
        assert!(
            alt_pops <= dij_pops,
            "ALT settled {alt_pops} vertices, plain Dijkstra {dij_pops}"
        );
    }

    #[test]
    fn unreachable_target_returns_infinity() {
        let g = GraphBuilder::from_edges(4, vec![(0, 1, 1.0), (2, 3, 1.0)]).unwrap();
        let lms = LandmarkSet::build(&g, 2, LandmarkSelection::FarthestFirst, 1).unwrap();
        assert!(alt_distance(&g, &lms, 0, 3).is_infinite());
    }

    #[test]
    fn incremental_interface_reports_state() {
        let g = random_graph(30, 40, 3);
        let lms = LandmarkSet::build(&g, 3, LandmarkSelection::FarthestFirst, 3).unwrap();
        let mut scratch = SearchScratch::new();
        let mut a = AStar::new(&g, 0, LandmarkHeuristic::new(&lms, 25), &mut scratch);
        assert_eq!(a.source(), 0);
        assert!(!a.exhausted());
        let (first, d0) = a.next_settled(&g).unwrap();
        assert_eq!(first, 0);
        assert_eq!(d0, 0.0);
        assert!(a.is_settled(0));
        assert_eq!(a.settled_distance(0), Some(0.0));
        assert!(a.peek_key().is_some());
        assert!(a.min_key().is_some());
        assert!(a.pops() >= 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_source_panics() {
        let g = random_graph(5, 0, 1);
        let mut scratch = SearchScratch::new();
        AStar::new(&g, 100, ZeroHeuristic, &mut scratch);
    }
}
