//! The query-rooted Dijkstra expansion — the one social-side primitive of
//! the paper's algorithms: SFA/TSA's sorted access and the AIS *GraphDist*
//! module with forward heap caching (§5.2) are all an
//! [`IncrementalDijkstra`] over a [`SearchScratch`].
//!
//! Its priority queue is the scratch's monotone radix queue (`queue.rs`),
//! not a binary heap.  The queue's precondition — no key below the one
//! popped last, none NaN or negative — is Dijkstra's own invariant: the
//! source enters with key `0.0` and every later key is `key + w` for the
//! popped `key` and a builder-validated `w > 0`.  The queue pops in
//! ascending `(key, vertex)` order, the order the binary heap it replaced
//! popped in, so which vertex settles when, every distance bit and every
//! [`pops`](IncrementalDijkstra::pops) /
//! [`relaxations`](IncrementalDijkstra::relaxations) count are unchanged;
//! a settle costs about half the time.  (The distance engine's reverse
//! search orders by `g` alone and uses ALT only to prune, so it runs on a
//! radix queue too.)

use crate::{Distance, NodeId, SearchScratch, SocialGraph};

/// A resumable Dijkstra expansion from a fixed source vertex.
///
/// The expansion yields settled vertices one at a time in non-decreasing
/// distance order, which is exactly the "sorted access" on the social
/// repository that SFA and TSA require (§4).  The AIS graph-distance module
/// keeps one instance alive for the whole query and resumes it between
/// point-to-point computations (*forward heap caching*, §5.2) — possible
/// precisely because Dijkstra keys do not depend on the target vertex.
///
/// The search borrows its dense state from a [`SearchScratch`], so starting
/// one costs `O(1)` instead of `O(|V|)`: the scratch is reset by epoch bump,
/// not by reallocation.  Create the scratch once per worker and reuse it for
/// every query.
///
/// # Resuming across searches
///
/// Inside a sharing scope ([`SearchScratch::share_expansions`]) a search
/// over the same graph and source as the previous one *resumes* that
/// expansion.  To its consumer the resumed search is indistinguishable from
/// a fresh one: [`next_settled`](Self::next_settled) first replays the
/// retained settled order from the start — same vertices, same order, same
/// bits, because what Dijkstra settles and when does not depend on where
/// the expansion was paused — and every accessor
/// ([`is_settled`](Self::is_settled),
/// [`settled_distance`](Self::settled_distance),
/// [`frontier_bound`](Self::frontier_bound),
/// [`settled_count`](Self::settled_count), [`exhausted`](Self::exhausted))
/// answers for the replay position, not for what the scratch already
/// knows.  Only the work counters tell the difference:
/// [`pops`](Self::pops) and [`relaxations`](Self::relaxations) count fresh
/// work, and replaying costs none.  A random-access consumer that wants
/// everything already known calls [`skip_replay`](Self::skip_replay).
#[derive(Debug)]
pub struct IncrementalDijkstra<'s> {
    source: NodeId,
    scratch: &'s mut SearchScratch,
    last_settled: Distance,
    /// Vertices handed out so far — also the replay position in the
    /// scratch's retained settled order.
    settled_count: usize,
    pops: usize,
    relaxations: usize,
}

impl<'s> IncrementalDijkstra<'s> {
    /// Starts an expansion around `source`, drawing state from `scratch`:
    /// a new one (the scratch is reset first), or — inside a sharing scope,
    /// when the scratch retains an expansion from `source` over `graph` —
    /// that one, replayed from its beginning.
    ///
    /// # Panics
    ///
    /// Panics if `source` is not a vertex of `graph`.
    pub fn new(graph: &SocialGraph, source: NodeId, scratch: &'s mut SearchScratch) -> Self {
        assert!(
            graph.contains(source),
            "source vertex {source} out of range"
        );
        let resume = scratch.retains(graph, source);
        let mut search = IncrementalDijkstra {
            source,
            scratch,
            last_settled: 0.0,
            settled_count: 0,
            pops: 0,
            relaxations: 0,
        };
        if !resume {
            search.restart(graph);
            search.scratch.retain_from(graph, source);
        }
        search
    }

    /// Starts the expansion over from its source on a reset scratch, and
    /// does not retain it for a later search: the per-call forward search
    /// of an unshared distance engine.  The work counters keep counting.
    pub(crate) fn restart(&mut self, graph: &SocialGraph) {
        self.scratch.begin(graph.node_count());
        self.scratch.set_tentative(self.source, 0.0, self.source);
        self.scratch.queue.push(0.0, self.source);
        self.last_settled = 0.0;
        self.settled_count = 0;
    }

    /// The source vertex of the expansion.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Moves a resumed search to the end of the retained settled order, so
    /// everything earlier searches settled counts as settled here too.  For
    /// random-access consumers, which ask for distances of given vertices
    /// and do not care in which order the expansion met them.  A no-op on a
    /// fresh expansion.
    pub fn skip_replay(&mut self) {
        if let Some(&(_, d)) = self.scratch.order.last() {
            self.settled_count = self.scratch.order.len();
            self.last_settled = d;
        }
    }

    /// Settles and returns the next closest vertex, or `None` when every
    /// reachable vertex has been settled.
    pub fn next_settled(&mut self, graph: &SocialGraph) -> Option<(NodeId, Distance)> {
        if let Some(&(node, key)) = self.scratch.order.get(self.settled_count) {
            self.settled_count += 1;
            self.last_settled = key;
            return Some((node, key));
        }
        while let Some((key, node)) = self.scratch.queue.pop() {
            self.pops += 1;
            if self.scratch.is_settled(node) {
                continue; // stale queue entry (lazy deletion)
            }
            self.scratch.mark_settled(node);
            if self.scratch.records_order() {
                self.scratch.record_settled(node, key);
            }
            self.settled_count += 1;
            self.last_settled = key;
            for edge in graph.neighbors(node) {
                self.relaxations += 1;
                let cand = key + edge.weight;
                if cand < self.scratch.tentative(edge.to) {
                    self.scratch.set_tentative(edge.to, cand, node);
                    self.scratch.queue.push(cand, edge.to);
                }
            }
            return Some((node, key));
        }
        None
    }

    /// Runs the expansion until `target` is settled and returns its exact
    /// distance (`f64::INFINITY` if unreachable).
    pub fn run_until_settled(&mut self, graph: &SocialGraph, target: NodeId) -> Distance {
        if self.is_settled(target) {
            return self.scratch.tentative(target);
        }
        if self.scratch.is_settled(target) {
            // Ahead of the replay position: jump there, as replaying one
            // vertex at a time would.
            self.settled_count = self.scratch.rank(target) + 1;
            self.last_settled = self.scratch.tentative(target);
            return self.last_settled;
        }
        while let Some((node, d)) = self.next_settled(graph) {
            if node == target {
                return d;
            }
        }
        f64::INFINITY
    }

    /// Exact distance of a vertex if it has already been settled.
    #[inline]
    pub fn settled_distance(&self, v: NodeId) -> Option<Distance> {
        if self.is_settled(v) {
            Some(self.scratch.tentative(v))
        } else {
            None
        }
    }

    /// Returns `true` when `v` has been settled (its distance is exact).
    #[inline]
    pub fn is_settled(&self, v: NodeId) -> bool {
        self.scratch.is_settled(v)
            && (self.settled_count >= self.scratch.order.len()
                || self.scratch.rank(v) < self.settled_count)
    }

    /// Distance of the most recently settled vertex — a lower bound on the
    /// distance of every unsettled vertex (the `t_p` / `β` bound used by the
    /// algorithms).
    #[inline]
    pub fn frontier_bound(&self) -> Distance {
        self.last_settled
    }

    /// Returns `true` when the expansion has settled every vertex it can
    /// reach.
    pub fn exhausted(&self) -> bool {
        self.scratch.queue.is_empty() && self.settled_count >= self.scratch.order.len()
    }

    /// Number of vertices settled so far (replayed ones included).
    pub fn settled_count(&self) -> usize {
        self.settled_count
    }

    /// Number of queue pops this search performed (including stale entries;
    /// replayed settles pop nothing).
    pub fn pops(&self) -> usize {
        self.pops
    }

    /// Number of edge relaxations this search attempted (one per neighbour
    /// edge of every vertex it settled itself — replayed settles were paid
    /// for by the search that made them).  The expansion's run-time is
    /// dominated by these, which makes the counter a timing-free proxy for
    /// search effort.
    pub fn relaxations(&self) -> usize {
        self.relaxations
    }

    /// The scratch the expansion lives in — for a search that runs beside
    /// it (the distance engine's reverse half), reading the forward labels
    /// and keeping its own state in the scratch's reverse slots.
    #[inline]
    pub(crate) fn scratch(&self) -> &SearchScratch {
        self.scratch
    }

    /// Mutable access to the scratch, for the reverse slots (see
    /// [`Self::scratch`]); the forward state must be left as it is.
    #[inline]
    pub(crate) fn scratch_mut(&mut self) -> &mut SearchScratch {
        self.scratch
    }

    /// Reconstructs the shortest path from the source to `v` (inclusive of
    /// both endpoints).  Returns `None` if `v` has not been settled.
    pub fn path_to(&self, v: NodeId) -> Option<Vec<NodeId>> {
        if !self.is_settled(v) {
            return None;
        }
        let mut path = vec![v];
        let mut cur = v;
        while cur != self.source {
            cur = self.scratch.parent(cur);
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }

    /// The exact distances of every vertex settled so far, materialized as a
    /// dense vector (`INFINITY` for unsettled vertices).
    pub fn distances(&self, graph: &SocialGraph) -> Vec<Distance> {
        graph
            .nodes()
            .map(|v| {
                if self.is_settled(v) {
                    self.scratch.tentative(v)
                } else {
                    f64::INFINITY
                }
            })
            .collect()
    }
}

/// Computes the distances from `source` to every vertex (single-source
/// shortest paths).  Unreachable vertices get `f64::INFINITY`.
///
/// Allocates a fresh [`SearchScratch`] per call; use
/// [`dijkstra_all_with`] in loops that can reuse one.
pub fn dijkstra_all(graph: &SocialGraph, source: NodeId) -> Vec<Distance> {
    let mut scratch = SearchScratch::new();
    dijkstra_all_with(graph, source, &mut scratch)
}

/// [`dijkstra_all`] drawing state from a caller-provided scratch, for reuse
/// across many single-source computations (landmark construction, oracle
/// sweeps).
pub fn dijkstra_all_with(
    graph: &SocialGraph,
    source: NodeId,
    scratch: &mut SearchScratch,
) -> Vec<Distance> {
    let mut search = IncrementalDijkstra::new(graph, source, scratch);
    while search.next_settled(graph).is_some() {}
    search.distances(graph)
}

/// Computes the point-to-point distance between `source` and `target` with
/// plain Dijkstra, stopping as soon as the target is settled.
pub fn dijkstra_distance(graph: &SocialGraph, source: NodeId, target: NodeId) -> Distance {
    let mut scratch = SearchScratch::new();
    let mut search = IncrementalDijkstra::new(graph, source, &mut scratch);
    search.run_until_settled(graph, target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// The small example graph of Figure 5 in the paper.
    fn example_graph() -> SocialGraph {
        // vq=0, v1..v11 = 1..11
        GraphBuilder::from_edges(
            12,
            vec![
                (0, 1, 1.0),
                (0, 2, 2.0),
                (0, 3, 1.0),
                (2, 4, 1.0),
                (3, 4, 2.0),
                (4, 5, 1.0),
                (4, 6, 2.0),
                (5, 7, 1.0),
                (6, 8, 1.0),
                (7, 9, 5.0),
                (8, 9, 3.0),
                (9, 10, 1.0),
                (10, 11, 2.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn distances_match_hand_computation() {
        let g = example_graph();
        let d = dijkstra_all(&g, 0);
        assert_eq!(d[0], 0.0);
        assert_eq!(d[1], 1.0);
        assert_eq!(d[2], 2.0);
        assert_eq!(d[3], 1.0);
        assert_eq!(d[4], 3.0);
        assert_eq!(d[5], 4.0);
        assert_eq!(d[6], 5.0);
        assert_eq!(d[7], 5.0);
        assert_eq!(d[8], 6.0);
        assert_eq!(d[9], 9.0);
        assert_eq!(d[10], 10.0);
        assert_eq!(d[11], 12.0);
    }

    #[test]
    fn settled_order_is_nondecreasing() {
        let g = example_graph();
        let mut scratch = SearchScratch::new();
        let mut search = IncrementalDijkstra::new(&g, 0, &mut scratch);
        let mut prev = 0.0;
        while let Some((_, d)) = search.next_settled(&g) {
            assert!(d >= prev);
            prev = d;
        }
        assert_eq!(search.settled_count(), 12);
        assert!(search.exhausted());
    }

    #[test]
    fn point_to_point_early_termination() {
        let g = example_graph();
        assert_eq!(dijkstra_distance(&g, 0, 5), 4.0);
        assert_eq!(dijkstra_distance(&g, 11, 0), 12.0);
        assert_eq!(dijkstra_distance(&g, 3, 3), 0.0);
    }

    #[test]
    fn unreachable_vertices_are_infinite() {
        let g = GraphBuilder::from_edges(4, vec![(0, 1, 1.0)]).unwrap();
        let d = dijkstra_all(&g, 0);
        assert_eq!(d[1], 1.0);
        assert!(d[2].is_infinite());
        assert!(d[3].is_infinite());
        assert!(dijkstra_distance(&g, 0, 3).is_infinite());
    }

    #[test]
    fn resumable_expansion_can_be_interleaved() {
        let g = example_graph();
        let mut scratch = SearchScratch::new();
        let mut search = IncrementalDijkstra::new(&g, 0, &mut scratch);
        // Settle a few vertices, query the state, then continue.
        let first = search.next_settled(&g).unwrap();
        assert_eq!(first, (0, 0.0));
        let _ = search.next_settled(&g).unwrap();
        assert!(search.is_settled(0));
        assert!(!search.is_settled(11));
        let d5 = search.run_until_settled(&g, 5);
        assert_eq!(d5, 4.0);
        // Frontier bound equals distance of last settled vertex.
        assert_eq!(search.frontier_bound(), 4.0);
        // Continue to the end without issues.
        let d11 = search.run_until_settled(&g, 11);
        assert_eq!(d11, 12.0);
    }

    #[test]
    fn path_reconstruction_follows_shortest_path() {
        let g = example_graph();
        let mut scratch = SearchScratch::new();
        let mut search = IncrementalDijkstra::new(&g, 0, &mut scratch);
        search.run_until_settled(&g, 9);
        let path = search.path_to(9).unwrap();
        assert_eq!(path.first(), Some(&0));
        assert_eq!(path.last(), Some(&9));
        // Path length equals the computed distance.
        let mut total = 0.0;
        for w in path.windows(2) {
            total += g.neighbors(w[0]).find(|e| e.to == w[1]).unwrap().weight;
        }
        assert_eq!(total, 9.0);
        assert!(search.path_to(11).is_none());
    }

    #[test]
    fn frontier_bound_lower_bounds_unsettled_vertices() {
        let g = example_graph();
        let full = dijkstra_all(&g, 0);
        let mut scratch = SearchScratch::new();
        let mut search = IncrementalDijkstra::new(&g, 0, &mut scratch);
        for _ in 0..6 {
            search.next_settled(&g);
        }
        let bound = search.frontier_bound();
        for v in g.nodes() {
            if !search.is_settled(v) {
                assert!(full[v as usize] >= bound);
            }
        }
    }

    #[test]
    fn scratch_reuse_across_searches_gives_identical_results() {
        let g = example_graph();
        let mut scratch = SearchScratch::new();
        // Run a partial search to deliberately dirty the scratch.
        {
            let mut partial = IncrementalDijkstra::new(&g, 11, &mut scratch);
            partial.run_until_settled(&g, 9);
        }
        // A full search over the dirty scratch must match a fresh one.
        let reused = dijkstra_all_with(&g, 0, &mut scratch);
        let fresh = dijkstra_all(&g, 0);
        assert_eq!(reused, fresh);
        assert!(scratch.resets() >= 2);
    }

    #[test]
    fn one_scratch_serves_many_sources_without_reallocating() {
        let g = example_graph();
        let mut scratch = SearchScratch::with_capacity(g.node_count());
        for source in g.nodes() {
            let with_scratch = dijkstra_all_with(&g, source, &mut scratch);
            assert_eq!(with_scratch, dijkstra_all(&g, source), "source {source}");
        }
        assert_eq!(scratch.capacity(), g.node_count());
    }

    #[test]
    fn compressed_layout_is_bit_identical_including_counters() {
        let g = example_graph();
        let c = g.with_layout(crate::CsrLayout::Compressed);
        for source in g.nodes() {
            let mut s1 = SearchScratch::new();
            let mut s2 = SearchScratch::new();
            let mut a = IncrementalDijkstra::new(&g, source, &mut s1);
            let mut b = IncrementalDijkstra::new(&c, source, &mut s2);
            loop {
                let (x, y) = (a.next_settled(&g), b.next_settled(&c));
                // Identical settle order, identical exact distances.
                assert_eq!(x, y, "source {source}");
                assert_eq!(a.relaxations(), b.relaxations(), "source {source}");
                assert_eq!(a.pops(), b.pops(), "source {source}");
                if x.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_source_panics() {
        let g = example_graph();
        let mut scratch = SearchScratch::new();
        IncrementalDijkstra::new(&g, 99, &mut scratch);
    }
}
