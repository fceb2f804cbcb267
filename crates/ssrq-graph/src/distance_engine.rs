use crate::queue::HeapItem;
use crate::{Distance, IncrementalDijkstra, LandmarkSet, NodeId, SearchScratch, SocialGraph};
use std::collections::{BinaryHeap, HashMap};

/// How much work the engine may reuse across point-to-point computations
/// from the same source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharingMode {
    /// No reuse: every call runs a fresh bidirectional search.  This is the
    /// behaviour of the paper's AIS-BID baseline (§6, Figure 10).
    None,
    /// Distance caching and forward-heap caching (§5.2): the forward
    /// Dijkstra expansion from the source is shared across calls, and
    /// every vertex it has settled is answered without further search.
    Shared,
}

/// Counters describing the work performed by a [`GraphDistanceEngine`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DistanceEngineStats {
    /// Number of `distance()` calls.
    pub distance_calls: usize,
    /// Calls answered directly from what the forward search had settled.
    pub cache_hits: usize,
    /// Vertices settled by the (shared or per-call) forward search.
    pub forward_settles: usize,
    /// Vertices settled by reverse A* searches.
    pub reverse_settles: usize,
    /// Edge relaxations attempted across every search the engine ran (the
    /// shared forward expansion plus all per-call bidirectional searches).
    pub edge_relaxations: usize,
}

/// A point-to-point search keyed by hash maps instead of dense vectors, so
/// that creating one per target stays cheap even on large graphs.  Used for
/// the reverse (ALT A*) direction and for the un-shared forward direction of
/// [`SharingMode::None`].
struct HashSearch<'a> {
    goal_heuristic: Option<(&'a LandmarkSet, NodeId)>,
    dist: HashMap<NodeId, Distance>,
    settled: HashMap<NodeId, Distance>,
    heap: BinaryHeap<HeapItem>,
    settles: usize,
    relaxations: usize,
}

impl<'a> HashSearch<'a> {
    fn new(source: NodeId, goal_heuristic: Option<(&'a LandmarkSet, NodeId)>) -> Self {
        let mut heap = BinaryHeap::new();
        let h0 = match goal_heuristic {
            Some((lms, goal)) => finite_or_large(lms.lower_bound(source, goal)),
            None => 0.0,
        };
        heap.push(HeapItem {
            key: h0,
            node: source,
        });
        let mut dist = HashMap::new();
        dist.insert(source, 0.0);
        HashSearch {
            goal_heuristic,
            dist,
            settled: HashMap::new(),
            heap,
            settles: 0,
            relaxations: 0,
        }
    }

    fn heuristic(&self, v: NodeId) -> Distance {
        match self.goal_heuristic {
            Some((lms, goal)) => finite_or_large(lms.lower_bound(v, goal)),
            None => 0.0,
        }
    }

    fn next_settled(&mut self, graph: &SocialGraph) -> Option<(NodeId, Distance)> {
        while let Some(HeapItem { node, .. }) = self.heap.pop() {
            if self.settled.contains_key(&node) {
                continue;
            }
            let g = *self.dist.get(&node).expect("heap entries have distances");
            self.settled.insert(node, g);
            self.settles += 1;
            for edge in graph.neighbors(node) {
                self.relaxations += 1;
                let cand = g + edge.weight;
                let better = self
                    .dist
                    .get(&edge.to)
                    .map(|&cur| cand < cur)
                    .unwrap_or(true);
                if better && !self.settled.contains_key(&edge.to) {
                    self.dist.insert(edge.to, cand);
                    self.heap.push(HeapItem {
                        key: cand + self.heuristic(edge.to),
                        node: edge.to,
                    });
                }
            }
            return Some((node, g));
        }
        None
    }

    fn settled_distance(&self, v: NodeId) -> Option<Distance> {
        self.settled.get(&v).copied()
    }

    /// Lower bound on the key of any vertex still to be settled.
    fn peek_key(&self) -> Option<Distance> {
        self.heap.peek().map(|e| e.key)
    }

    fn exhausted(&self) -> bool {
        self.heap.is_empty()
    }
}

#[inline]
fn finite_or_large(x: Distance) -> Distance {
    if x.is_finite() {
        x
    } else {
        f64::MAX / 4.0
    }
}

/// The graph-distance submodule of AIS (Algorithm 3, *GraphDist*).
///
/// The engine computes exact shortest-path distances from a fixed source
/// (the query user `v_q`) to arbitrary target vertices.
///
/// * With [`SharingMode::None`] (the AIS-BID baseline) every call runs a
///   fresh bidirectional search: a plain Dijkstra from the source and an A*
///   expansion from the target guided by the landmark (ALT) heuristic.
///   Nothing is reused between calls.
/// * With [`SharingMode::Shared`] the engine applies the §5.2 optimizations:
///   **distance caching** (targets already settled by the forward search —
///   which include every vertex on a previously reported shortest path, so
///   the paper's `T` table needs no storage of its own — are answered
///   without any traversal) and **forward heap caching** (a single
///   resumable Dijkstra expansion from the source is paused and resumed
///   across calls).  Because
///   every SSRQ evaluation shares the same source, resuming the forward
///   expansion until the target settles reuses *all* previous work, whereas
///   per-target reverse searches would be discarded; the shared mode
///   therefore leans entirely on the forward expansion — this is the
///   forward-heap-caching idea of the paper taken to its limit (the
///   trade-off is documented in `DESIGN.md`).
pub struct GraphDistanceEngine<'g, 's> {
    graph: &'g SocialGraph,
    landmarks: &'g LandmarkSet,
    source: NodeId,
    mode: SharingMode,
    forward: IncrementalDijkstra<'s>,
    stats: DistanceEngineStats,
    /// Relaxations performed by completed per-call [`HashSearch`]es (the
    /// live forward expansion reports its own count).
    hash_relaxations: usize,
}

impl<'g, 's> GraphDistanceEngine<'g, 's> {
    /// Creates an engine rooted at `source`, drawing the forward-search
    /// state from `scratch` (reset on construction, so the scratch may be
    /// reused across queries).
    ///
    /// Inside a sharing scope ([`SearchScratch::share_expansions`]) a
    /// [`SharingMode::Shared`] engine takes over the expansion an earlier
    /// search from `source` left in the scratch, whole: everything that
    /// search settled is a [`known_distance`](Self::known_distance) here and
    /// [`beta`](Self::beta) starts at its frontier.  The engine's counters
    /// cover only the work it adds.
    ///
    /// # Panics
    ///
    /// Panics if `source` is not a vertex of `graph`.
    pub fn new(
        graph: &'g SocialGraph,
        landmarks: &'g LandmarkSet,
        source: NodeId,
        mode: SharingMode,
        scratch: &'s mut SearchScratch,
    ) -> Self {
        let mut forward = IncrementalDijkstra::new(graph, source, scratch);
        if mode == SharingMode::Shared {
            forward.skip_replay();
        }
        GraphDistanceEngine {
            graph,
            landmarks,
            source,
            mode,
            forward,
            stats: DistanceEngineStats::default(),
            hash_relaxations: 0,
        }
    }

    /// The query (source) vertex.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The sharing mode the engine was created with.
    pub fn mode(&self) -> SharingMode {
        self.mode
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> DistanceEngineStats {
        let mut stats = self.stats;
        stats.edge_relaxations = self.forward.relaxations() + self.hash_relaxations;
        stats
    }

    /// The `β` bound of §5.3: the distance of the last vertex settled by the
    /// (shared) forward search.  Every vertex not yet visited by the forward
    /// search is at least this far from the source.  Zero until the forward
    /// search has made progress, and always zero in [`SharingMode::None`].
    pub fn beta(&self) -> Distance {
        match self.mode {
            SharingMode::Shared => self.forward.frontier_bound(),
            SharingMode::None => 0.0,
        }
    }

    /// Exact distance of `v` if it is already known without further search
    /// (settled by the forward expansion).
    pub fn known_distance(&self, v: NodeId) -> Option<Distance> {
        if v == self.source {
            return Some(0.0);
        }
        match self.mode {
            SharingMode::Shared => self.forward.settled_distance(v),
            SharingMode::None => None,
        }
    }

    /// Number of vertices settled by the shared forward search so far.
    pub fn forward_settled_count(&self) -> usize {
        self.forward.settled_count()
    }

    /// Computes the exact graph distance from the source to `target`
    /// (`f64::INFINITY` when unreachable).
    pub fn distance(&mut self, target: NodeId) -> Distance {
        self.stats.distance_calls += 1;
        if target == self.source {
            return 0.0;
        }
        match self.mode {
            SharingMode::Shared => {
                if let Some(d) = self.known_distance(target) {
                    self.stats.cache_hits += 1;
                    return d;
                }
                self.shared_forward(target)
            }
            SharingMode::None => self.fresh_bidirectional(target),
        }
    }

    /// Computes the distance to `target`, giving up as soon as the distance
    /// is provably at least `budget` (in which case `f64::INFINITY` is
    /// returned).
    ///
    /// This is the "evaluate or disqualify" primitive the AIS search needs:
    /// a candidate whose social distance reaches the budget can no longer
    /// enter the result, so there is no point computing its exact value.
    /// In [`SharingMode::Shared`] the check is essentially free — the shared
    /// forward expansion simply stops growing once its frontier passes the
    /// budget.  In [`SharingMode::None`] the budget is ignored and the full
    /// bidirectional search runs (the AIS-BID baseline has no such
    /// optimization).
    pub fn distance_within(&mut self, target: NodeId, budget: Distance) -> Distance {
        self.stats.distance_calls += 1;
        if target == self.source {
            return 0.0;
        }
        match self.mode {
            SharingMode::Shared => {
                if let Some(d) = self.known_distance(target) {
                    self.stats.cache_hits += 1;
                    return if d < budget { d } else { f64::INFINITY };
                }
                if self.landmarks.lower_bound(self.source, target) >= budget {
                    return f64::INFINITY;
                }
                let before = self.forward.settled_count();
                let mut result = f64::INFINITY;
                while !self.forward.is_settled(target) {
                    if self.forward.frontier_bound() >= budget {
                        break;
                    }
                    if self.forward.next_settled(self.graph).is_none() {
                        break;
                    }
                }
                if let Some(d) = self.forward.settled_distance(target) {
                    if d < budget {
                        result = d;
                    }
                }
                self.stats.forward_settles += self.forward.settled_count() - before;
                result
            }
            SharingMode::None => {
                let d = self.fresh_bidirectional(target);
                if d < budget {
                    d
                } else {
                    f64::INFINITY
                }
            }
        }
    }

    /// Resumes the shared forward expansion until `target` settles
    /// (distance caching + forward heap caching of §5.2).
    ///
    /// A target provably disconnected from the source (one of the two
    /// reaches a landmark the other cannot) is answered immediately, so the
    /// expansion never drains the whole component just to prove
    /// unreachability.
    fn shared_forward(&mut self, target: NodeId) -> Distance {
        if self
            .landmarks
            .lower_bound(self.source, target)
            .is_infinite()
        {
            return f64::INFINITY;
        }
        let before = self.forward.settled_count();
        let d = self.forward.run_until_settled(self.graph, target);
        self.stats.forward_settles += self.forward.settled_count() - before;
        d
    }

    /// Fresh, non-shared bidirectional search (forward Dijkstra + reverse
    /// ALT A*), used by [`SharingMode::None`].
    fn fresh_bidirectional(&mut self, target: NodeId) -> Distance {
        let mut forward = HashSearch::new(self.source, None);
        let mut reverse = HashSearch::new(target, Some((self.landmarks, self.source)));
        let mut min_dist = f64::INFINITY;

        loop {
            let fwd_key = forward.peek_key();
            let rev_key = reverse.peek_key();
            if let (None, None) = (fwd_key, rev_key) {
                break;
            }
            // Termination: no remaining meeting can beat min_dist.
            if let Some(rk) = rev_key {
                if min_dist <= rk + 1e-12 {
                    break;
                }
            } else if forward.exhausted() {
                break;
            }
            if let Some(fk) = fwd_key {
                if min_dist <= fk + 1e-12 {
                    break;
                }
            } else if reverse.exhausted() {
                break;
            }

            if let Some((vf, df)) = forward.next_settled(self.graph) {
                self.stats.forward_settles += 1;
                if let Some(dr) = reverse.settled_distance(vf) {
                    if df + dr < min_dist {
                        min_dist = df + dr;
                    }
                }
                if vf == target {
                    min_dist = df;
                    break;
                }
            }
            if let Some((vr, dr)) = reverse.next_settled(self.graph) {
                self.stats.reverse_settles += 1;
                if let Some(df) = forward.settled_distance(vr) {
                    if df + dr < min_dist {
                        min_dist = df + dr;
                    }
                }
                if vr == self.source {
                    min_dist = min_dist.min(dr);
                    break;
                }
            }
        }
        self.hash_relaxations += forward.relaxations + reverse.relaxations;
        min_dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dijkstra_all, GraphBuilder, LandmarkSelection};
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn random_graph(n: usize, extra_edges: usize, seed: u64) -> SocialGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(n);
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

    fn check_engine_against_dijkstra(mode: SharingMode, seed: u64) {
        let g = random_graph(120, 260, seed);
        let lms = LandmarkSet::build(&g, 4, LandmarkSelection::FarthestFirst, seed).unwrap();
        let mut rng = StdRng::seed_from_u64(seed + 77);
        let mut scratch = SearchScratch::new();
        for _ in 0..10 {
            let source = rng.gen_range(0..120) as NodeId;
            let truth = dijkstra_all(&g, source);
            let mut engine = GraphDistanceEngine::new(&g, &lms, source, mode, &mut scratch);
            // Ask for a mix of random targets, including repeats, in random
            // order, to stress the caches.
            for _ in 0..40 {
                let t = rng.gen_range(0..120) as NodeId;
                let got = engine.distance(t);
                assert!(
                    (got - truth[t as usize]).abs() < 1e-9,
                    "mode {mode:?}, seed {seed}: d({source},{t}) = {got}, want {}",
                    truth[t as usize]
                );
            }
        }
    }

    #[test]
    fn shared_mode_matches_dijkstra() {
        for seed in 0..4 {
            check_engine_against_dijkstra(SharingMode::Shared, seed);
        }
    }

    #[test]
    fn unshared_mode_matches_dijkstra() {
        for seed in 0..4 {
            check_engine_against_dijkstra(SharingMode::None, seed);
        }
    }

    #[test]
    fn source_distance_is_zero() {
        let g = random_graph(20, 30, 1);
        let lms = LandmarkSet::build(&g, 2, LandmarkSelection::FarthestFirst, 1).unwrap();
        let mut scratch = SearchScratch::new();
        let mut e = GraphDistanceEngine::new(&g, &lms, 5, SharingMode::Shared, &mut scratch);
        assert_eq!(e.distance(5), 0.0);
        assert_eq!(e.known_distance(5), Some(0.0));
    }

    #[test]
    fn disconnected_targets_are_infinite() {
        let g = GraphBuilder::from_edges(6, vec![(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)]).unwrap();
        let lms = LandmarkSet::build(&g, 2, LandmarkSelection::FarthestFirst, 1).unwrap();
        let mut scratch = SearchScratch::new();
        for mode in [SharingMode::Shared, SharingMode::None] {
            let mut e = GraphDistanceEngine::new(&g, &lms, 0, mode, &mut scratch);
            assert!(e.distance(4).is_infinite(), "mode {mode:?}");
            assert!(e.distance(5).is_infinite(), "mode {mode:?}");
            assert_eq!(e.distance(2), 2.0, "mode {mode:?}");
        }
    }

    #[test]
    fn shared_mode_hits_cache_on_repeat_queries() {
        let g = random_graph(80, 200, 3);
        let lms = LandmarkSet::build(&g, 4, LandmarkSelection::FarthestFirst, 3).unwrap();
        let mut scratch = SearchScratch::new();
        let mut e = GraphDistanceEngine::new(&g, &lms, 0, SharingMode::Shared, &mut scratch);
        let d1 = e.distance(42);
        let calls_before = e.stats().cache_hits;
        let d2 = e.distance(42);
        assert_eq!(d1, d2);
        assert_eq!(e.stats().cache_hits, calls_before + 1);
    }

    #[test]
    fn beta_is_monotone_and_bounds_unvisited_vertices() {
        let g = random_graph(100, 250, 5);
        let lms = LandmarkSet::build(&g, 4, LandmarkSelection::FarthestFirst, 5).unwrap();
        let truth = dijkstra_all(&g, 7);
        let mut scratch = SearchScratch::new();
        let mut e = GraphDistanceEngine::new(&g, &lms, 7, SharingMode::Shared, &mut scratch);
        let mut prev_beta = 0.0;
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..25 {
            let t = rng.gen_range(0..100) as NodeId;
            let _ = e.distance(t);
            let beta = e.beta();
            assert!(beta >= prev_beta);
            prev_beta = beta;
            for v in g.nodes() {
                if e.known_distance(v).is_none() {
                    assert!(
                        truth[v as usize] >= beta - 1e-9,
                        "beta {beta} exceeds distance {} of unvisited {v}",
                        truth[v as usize]
                    );
                }
            }
        }
    }

    #[test]
    fn stats_track_work() {
        let g = random_graph(60, 120, 9);
        let lms = LandmarkSet::build(&g, 3, LandmarkSelection::FarthestFirst, 9).unwrap();
        let mut scratch = SearchScratch::new();
        let mut e = GraphDistanceEngine::new(&g, &lms, 0, SharingMode::Shared, &mut scratch);
        assert_eq!(e.stats(), DistanceEngineStats::default());
        e.distance(30);
        e.distance(31);
        let s = e.stats();
        assert_eq!(s.distance_calls, 2);
        assert!(s.forward_settles + s.reverse_settles > 0);
        assert_eq!(e.mode(), SharingMode::Shared);
        assert_eq!(e.source(), 0);
    }

    #[test]
    fn distance_within_budget_is_exact_or_infinite() {
        let g = random_graph(100, 220, 21);
        let lms = LandmarkSet::build(&g, 4, LandmarkSelection::FarthestFirst, 21).unwrap();
        let truth = dijkstra_all(&g, 3);
        let mut scratch = SearchScratch::new();
        for mode in [SharingMode::Shared, SharingMode::None] {
            let mut e = GraphDistanceEngine::new(&g, &lms, 3, mode, &mut scratch);
            let mut rng = StdRng::seed_from_u64(5);
            for _ in 0..60 {
                let t = rng.gen_range(0..100) as NodeId;
                let budget = rng.gen_range(0.0..6.0);
                let got = e.distance_within(t, budget);
                if truth[t as usize] < budget {
                    assert!(
                        (got - truth[t as usize]).abs() < 1e-9,
                        "mode {mode:?}: expected exact distance below budget"
                    );
                } else {
                    assert!(
                        got.is_infinite(),
                        "mode {mode:?}: d({t}) = {} >= budget {budget}, got {got}",
                        truth[t as usize]
                    );
                }
            }
        }
    }

    #[test]
    fn distance_within_does_not_expand_past_the_budget() {
        let g = random_graph(200, 400, 33);
        let lms = LandmarkSet::build(&g, 4, LandmarkSelection::FarthestFirst, 33).unwrap();
        let mut scratch = SearchScratch::new();
        let mut e = GraphDistanceEngine::new(&g, &lms, 0, SharingMode::Shared, &mut scratch);
        let budget = 0.5;
        for t in [150u32, 160, 170, 180, 190] {
            let _ = e.distance_within(t, budget);
        }
        // The shared frontier never grows meaningfully past the budget: at
        // most one settle beyond it per call.
        assert!(
            e.beta() <= budget + 2.0,
            "beta {} grew past budget",
            e.beta()
        );
    }

    #[test]
    fn known_distance_reflects_forward_progress() {
        let g = random_graph(50, 100, 13);
        let lms = LandmarkSet::build(&g, 3, LandmarkSelection::FarthestFirst, 13).unwrap();
        let truth = dijkstra_all(&g, 2);
        let mut scratch = SearchScratch::new();
        let mut e = GraphDistanceEngine::new(&g, &lms, 2, SharingMode::Shared, &mut scratch);
        // Force plenty of forward progress.
        for t in [49, 48, 47, 46] {
            e.distance(t);
        }
        let mut known = 0;
        for v in g.nodes() {
            if let Some(d) = e.known_distance(v) {
                assert!((d - truth[v as usize]).abs() < 1e-9);
                known += 1;
            }
        }
        assert!(known > 1, "expected some cached distances");
        assert!(e.forward_settled_count() > 0);
    }
}
