use crate::queue::HeapItem;
use crate::{Distance, EdgeWeight, NodeId, SocialGraph};
use std::collections::{BinaryHeap, HashMap};

// The witness search of the preprocessing is limited in both settled
// vertices and hops: when it is cut short without finding a witness the
// shortcut is added anyway, so the limits trade preprocessing time and
// shortcut count against nothing — query results stay exact.

/// Maximum number of vertices a witness search may settle.
const WITNESS_SETTLE_LIMIT: usize = 500;
/// The settle limit of the cheap witness searches that estimate a vertex's
/// contraction priority.
const PRIORITY_SETTLE_LIMIT: usize = 50;
/// Maximum number of hops a witness path may have.
const WITNESS_HOP_LIMIT: usize = 16;

/// Reusable working storage for the witness searches of the preprocessing
/// phase.  One instance backs every witness search of a whole
/// [`ContractionHierarchy::new`] run: clearing hash maps keeps their
/// capacity, so the per-pair searches (there are `O(degree²)` of them per
/// contracted vertex) stop allocating after the first few.
#[derive(Debug, Clone, Default)]
struct WitnessScratch {
    dist: HashMap<NodeId, (Distance, usize)>,
    settled: HashMap<NodeId, Distance>,
    heap: BinaryHeap<HeapItem>,
    neighbors: Vec<(NodeId, EdgeWeight)>,
}

/// Reusable working storage for [`ContractionHierarchy::distance_with`]:
/// the two upward-search result maps, the shared tentative-distance map and
/// the heap.  Clearing hash maps keeps their capacity, so a scratch that
/// has served one query serves the next without allocating.
#[derive(Debug, Clone, Default)]
pub struct ChQueryScratch {
    forward: HashMap<NodeId, Distance>,
    backward: HashMap<NodeId, Distance>,
    dist: HashMap<NodeId, Distance>,
    heap: BinaryHeap<HeapItem>,
}

/// A Contraction Hierarchies (CH) index over a [`SocialGraph`].
///
/// The SSRQ paper compares its incremental-Dijkstra-based methods against
/// variants (SFA-CH, SPA-CH, TSA-CH) whose social-distance module is the
/// state-of-the-art pre-computation technique CH.  The paper observes (and
/// our benchmarks reproduce) that CH is poorly suited to dense social
/// graphs: contraction of hub vertices creates many shortcuts, and the
/// per-pair query cannot share work across the many distance computations a
/// single SSRQ query performs.
///
/// Preprocessing contracts vertices in increasing importance (lazy
/// edge-difference heuristic), inserting shortcuts that preserve all
/// pairwise distances.  Queries run a bidirectional upward Dijkstra and are
/// exact.
#[derive(Debug, Clone)]
pub struct ContractionHierarchy {
    /// Contraction order: `rank[v]` is the position of `v` in the order.
    rank: Vec<u32>,
    /// Upward adjacency: edges (original and shortcuts) from each vertex to
    /// higher-ranked vertices only.
    up: Vec<Vec<(NodeId, EdgeWeight)>>,
    /// Number of shortcut edges added during preprocessing.
    shortcut_count: usize,
}

impl ContractionHierarchy {
    /// Builds the hierarchy (this is the expensive pre-processing step).
    pub fn new(graph: &SocialGraph) -> Self {
        let n = graph.node_count();
        // Overlay adjacency, mutated as vertices are contracted.
        let mut adj: Vec<HashMap<NodeId, EdgeWeight>> = vec![HashMap::new(); n];
        for (u, v, w) in graph.undirected_edges() {
            let e = adj[u as usize].entry(v).or_insert(w);
            *e = e.min(w);
            let e = adj[v as usize].entry(u).or_insert(w);
            *e = e.min(w);
        }

        let mut contracted = vec![false; n];
        let mut deleted_neighbors = vec![0u32; n];
        let mut rank = vec![0u32; n];
        let mut all_edges: Vec<(NodeId, NodeId, EdgeWeight)> = graph.undirected_edges().collect();
        let mut shortcut_count = 0usize;

        // One scratch backs every witness search of the whole build; the
        // hash maps and heap retain their capacity between searches, so the
        // `O(degree²)` per-contraction witness probes stop allocating after
        // warm-up (the ROADMAP's scratch-reuse item).
        let mut scratch = WitnessScratch::default();

        // Lazy priority queue of (priority, node).
        let mut queue: BinaryHeap<HeapItem> = BinaryHeap::new();
        for v in 0..n as NodeId {
            let p = Self::priority(v, &adj, &contracted, &deleted_neighbors, &mut scratch);
            queue.push(HeapItem { key: p, node: v });
        }

        let mut next_rank = 0u32;
        while let Some(HeapItem { key, node }) = queue.pop() {
            if contracted[node as usize] {
                continue;
            }
            // Lazy update: recompute and re-insert if the priority became
            // stale (worse than the next candidate).
            let fresh = Self::priority(node, &adj, &contracted, &deleted_neighbors, &mut scratch);
            if let Some(next) = queue.peek() {
                if fresh > key + 1e-12 && fresh > next.key + 1e-12 {
                    queue.push(HeapItem { key: fresh, node });
                    continue;
                }
            }

            // Contract `node`: connect every pair of its remaining
            // neighbours whose shortest path runs through it.  Borrow the
            // scratch's neighbour buffer for the duration (same take/restore
            // pattern as `priority`, so `has_witness` can use the rest).
            let mut neighbors = std::mem::take(&mut scratch.neighbors);
            neighbors.clear();
            neighbors.extend(
                adj[node as usize]
                    .iter()
                    .filter(|(&u, _)| !contracted[u as usize])
                    .map(|(&u, &w)| (u, w)),
            );
            for i in 0..neighbors.len() {
                for j in (i + 1)..neighbors.len() {
                    let (u, wu) = neighbors[i];
                    let (w, ww) = neighbors[j];
                    let via = wu + ww;
                    if Self::has_witness(
                        &adj,
                        &contracted,
                        node,
                        u,
                        w,
                        via,
                        WITNESS_SETTLE_LIMIT,
                        &mut scratch,
                    ) {
                        continue;
                    }
                    // Insert / improve the shortcut u—w.
                    let improved_u = {
                        let e = adj[u as usize].entry(w).or_insert(f64::INFINITY);
                        if via < *e {
                            *e = via;
                            true
                        } else {
                            false
                        }
                    };
                    if improved_u {
                        let e = adj[w as usize].entry(u).or_insert(f64::INFINITY);
                        *e = (*e).min(via);
                        all_edges.push((u, w, via));
                        shortcut_count += 1;
                    }
                }
            }
            for &(u, _) in &neighbors {
                deleted_neighbors[u as usize] += 1;
            }
            scratch.neighbors = neighbors;
            contracted[node as usize] = true;
            rank[node as usize] = next_rank;
            next_rank += 1;
        }

        // Build the upward adjacency from the full (original + shortcut)
        // edge set, keeping the minimum weight per ordered pair.
        let mut up: Vec<HashMap<NodeId, EdgeWeight>> = vec![HashMap::new(); n];
        for (u, v, w) in all_edges {
            let (lo, hi) = if rank[u as usize] < rank[v as usize] {
                (u, v)
            } else {
                (v, u)
            };
            let e = up[lo as usize].entry(hi).or_insert(w);
            *e = e.min(w);
        }
        let up = up
            .into_iter()
            .map(|m| {
                let mut v: Vec<(NodeId, EdgeWeight)> = m.into_iter().collect();
                v.sort_by_key(|&(to, _)| to);
                v
            })
            .collect();

        ContractionHierarchy {
            rank,
            up,
            shortcut_count,
        }
    }

    /// Number of shortcut edges the preprocessing added.
    pub fn shortcut_count(&self) -> usize {
        self.shortcut_count
    }

    /// Contraction rank of a vertex (higher = more important).
    pub fn rank(&self, v: NodeId) -> u32 {
        self.rank[v as usize]
    }

    /// Number of vertices of the graph the hierarchy was built over.
    pub fn node_count(&self) -> usize {
        self.rank.len()
    }

    /// Approximate heap footprint of the hierarchy in bytes (rank table
    /// plus the upward adjacency, including shortcuts).
    ///
    /// A built hierarchy is immutable; share it across engines through an
    /// `Arc` (one build serves any number of concurrent queries) instead of
    /// re-running the expensive preprocessing per engine.
    pub fn approx_heap_bytes(&self) -> usize {
        self.rank.capacity() * std::mem::size_of::<u32>()
            + self.up.capacity() * std::mem::size_of::<Vec<(NodeId, EdgeWeight)>>()
            + self
                .up
                .iter()
                .map(|adj| adj.capacity() * std::mem::size_of::<(NodeId, EdgeWeight)>())
                .sum::<usize>()
    }

    /// Exact shortest-path distance between `s` and `t`
    /// (`f64::INFINITY` when disconnected).
    ///
    /// Allocates fresh search state per call; use
    /// [`ContractionHierarchy::distance_with`] in query loops that can
    /// reuse a [`ChQueryScratch`].
    pub fn distance(&self, s: NodeId, t: NodeId) -> Distance {
        let mut scratch = ChQueryScratch::default();
        self.distance_with(s, t, &mut scratch)
    }

    /// [`ContractionHierarchy::distance`] drawing its hash maps and heap
    /// from a caller-provided scratch, so repeated point-to-point queries
    /// (the `*-CH` SSRQ baselines issue hundreds per SSRQ query) reuse
    /// their allocations.
    pub fn distance_with(&self, s: NodeId, t: NodeId, scratch: &mut ChQueryScratch) -> Distance {
        if s == t {
            return 0.0;
        }
        let ChQueryScratch {
            forward,
            backward,
            dist,
            heap,
        } = scratch;
        self.upward_search_into(s, forward, dist, heap);
        self.upward_search_into(t, backward, dist, heap);
        let mut best = f64::INFINITY;
        // The meeting vertex of the two upward searches gives the distance.
        let (small, large) = if forward.len() <= backward.len() {
            (&*forward, &*backward)
        } else {
            (&*backward, &*forward)
        };
        for (&v, &df) in small {
            if let Some(&db) = large.get(&v) {
                if df + db < best {
                    best = df + db;
                }
            }
        }
        best
    }

    /// Dijkstra restricted to upward edges; fills `settled` with every
    /// settled vertex and its distance.  `dist` and `heap` are working
    /// storage, cleared on entry.
    fn upward_search_into(
        &self,
        source: NodeId,
        settled: &mut HashMap<NodeId, Distance>,
        dist: &mut HashMap<NodeId, Distance>,
        heap: &mut BinaryHeap<HeapItem>,
    ) {
        settled.clear();
        dist.clear();
        heap.clear();
        dist.insert(source, 0.0);
        heap.push(HeapItem {
            key: 0.0,
            node: source,
        });
        while let Some(HeapItem { key, node }) = heap.pop() {
            if settled.contains_key(&node) {
                continue;
            }
            settled.insert(node, key);
            for &(to, w) in &self.up[node as usize] {
                let cand = key + w;
                let better = dist.get(&to).map(|&d| cand < d).unwrap_or(true);
                if better && !settled.contains_key(&to) {
                    dist.insert(to, cand);
                    heap.push(HeapItem {
                        key: cand,
                        node: to,
                    });
                }
            }
        }
    }

    /// Limited Dijkstra in the overlay graph (skipping `skip` and contracted
    /// vertices) to decide whether a path from `u` to `w` of length at most
    /// `max_len` exists without going through `skip`.  All working storage
    /// comes from `scratch`, cleared on entry.
    #[allow(clippy::too_many_arguments)]
    fn has_witness(
        adj: &[HashMap<NodeId, EdgeWeight>],
        contracted: &[bool],
        skip: NodeId,
        u: NodeId,
        w: NodeId,
        max_len: f64,
        settle_limit: usize,
        scratch: &mut WitnessScratch,
    ) -> bool {
        let WitnessScratch {
            dist,
            settled,
            heap,
            ..
        } = scratch;
        dist.clear();
        settled.clear();
        heap.clear();
        let mut settled_count = 0usize;
        dist.insert(u, (0.0, 0));
        heap.push(HeapItem { key: 0.0, node: u });
        while let Some(HeapItem { key, node }) = heap.pop() {
            if settled.contains_key(&node) {
                continue;
            }
            settled.insert(node, key);
            settled_count += 1;
            if node == w {
                return key <= max_len + 1e-12;
            }
            if key > max_len || settled_count >= settle_limit {
                break;
            }
            let hops = dist.get(&node).map(|&(_, h)| h).unwrap_or(0);
            if hops >= WITNESS_HOP_LIMIT {
                continue;
            }
            for (&to, &weight) in &adj[node as usize] {
                if to == skip || contracted[to as usize] {
                    continue;
                }
                let cand = key + weight;
                let better = dist.get(&to).map(|&(d, _)| cand < d).unwrap_or(true);
                if better && !settled.contains_key(&to) {
                    dist.insert(to, (cand, hops + 1));
                    heap.push(HeapItem {
                        key: cand,
                        node: to,
                    });
                }
            }
        }
        settled
            .get(&w)
            .map(|&d| d <= max_len + 1e-12)
            .unwrap_or(false)
    }

    /// Contraction priority of a vertex: edge difference plus the number of
    /// already-contracted neighbours.  Smaller = contracted earlier.
    ///
    /// Note: the value is used as a *min*-ordered key through [`HeapItem`]
    /// (which reverses the comparison), so the heap pops the least important
    /// vertex first.
    fn priority(
        v: NodeId,
        adj: &[HashMap<NodeId, EdgeWeight>],
        contracted: &[bool],
        deleted_neighbors: &[u32],
        scratch: &mut WitnessScratch,
    ) -> f64 {
        // Borrow the scratch's neighbour buffer for the duration of the
        // estimate (it cannot stay borrowed while `has_witness` uses the
        // rest of the scratch, so take it out and put it back).
        let mut neighbors = std::mem::take(&mut scratch.neighbors);
        neighbors.clear();
        neighbors.extend(
            adj[v as usize]
                .iter()
                .filter(|(&u, _)| !contracted[u as usize])
                .map(|(&u, &w)| (u, w)),
        );
        let degree = neighbors.len();
        if degree == 0 {
            scratch.neighbors = neighbors;
            return -1000.0;
        }
        // Estimate the number of shortcuts a contraction would add.  For
        // efficiency the estimate uses a cheap witness search only for small
        // degrees and assumes the worst case otherwise.
        let mut shortcuts = 0usize;
        if degree <= 8 {
            for i in 0..degree {
                for j in (i + 1)..degree {
                    let (u, wu) = neighbors[i];
                    let (w, ww) = neighbors[j];
                    if !Self::has_witness(
                        adj,
                        contracted,
                        v,
                        u,
                        w,
                        wu + ww,
                        PRIORITY_SETTLE_LIMIT,
                        scratch,
                    ) {
                        shortcuts += 1;
                    }
                }
            }
        } else {
            shortcuts = degree * (degree - 1) / 2;
        }
        scratch.neighbors = neighbors;
        (shortcuts as f64 - degree as f64) + 2.0 * deleted_neighbors[v as usize] as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dijkstra_all, GraphBuilder};
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

    #[test]
    fn distances_match_dijkstra_on_path_graph() {
        let g = GraphBuilder::from_edges(
            8,
            (0..7).map(|i| (i as NodeId, i as NodeId + 1, (i + 1) as f64)),
        )
        .unwrap();
        let ch = ContractionHierarchy::new(&g);
        for s in g.nodes() {
            let truth = dijkstra_all(&g, s);
            for t in g.nodes() {
                assert!(
                    (ch.distance(s, t) - truth[t as usize]).abs() < 1e-9,
                    "d({s},{t})"
                );
            }
        }
    }

    #[test]
    fn distances_match_dijkstra_on_random_graphs() {
        for seed in 0..3 {
            let g = random_graph(70, 140, seed);
            let ch = ContractionHierarchy::new(&g);
            let mut rng = StdRng::seed_from_u64(seed + 50);
            for _ in 0..40 {
                let s = rng.gen_range(0..70) as NodeId;
                let t = rng.gen_range(0..70) as NodeId;
                let truth = dijkstra_all(&g, s)[t as usize];
                let got = ch.distance(s, t);
                assert!(
                    (got - truth).abs() < 1e-9,
                    "seed {seed}: CH d({s},{t}) = {got}, Dijkstra {truth}"
                );
            }
        }
    }

    #[test]
    fn handles_disconnected_components() {
        let g = GraphBuilder::from_edges(6, vec![(0, 1, 1.0), (1, 2, 2.0), (3, 4, 1.0)]).unwrap();
        let ch = ContractionHierarchy::new(&g);
        assert_eq!(ch.distance(0, 2), 3.0);
        assert_eq!(ch.distance(3, 4), 1.0);
        assert!(ch.distance(0, 4).is_infinite());
        assert!(ch.distance(5, 0).is_infinite());
        assert_eq!(ch.distance(5, 5), 0.0);
    }

    #[test]
    fn ranks_are_a_permutation() {
        let g = random_graph(40, 60, 9);
        let ch = ContractionHierarchy::new(&g);
        let mut ranks: Vec<u32> = g.nodes().map(|v| ch.rank(v)).collect();
        ranks.sort_unstable();
        let expected: Vec<u32> = (0..40).collect();
        assert_eq!(ranks, expected);
    }

    #[test]
    fn star_graph_contracts_leaves_first() {
        // Hub 0 with 10 leaves; the hub should be contracted last (highest
        // rank) because contracting it early would add many shortcuts.
        let g = GraphBuilder::from_edges(11, (1..11).map(|i| (0, i as NodeId, 1.0))).unwrap();
        let ch = ContractionHierarchy::new(&g);
        assert_eq!(ch.rank(0), 10);
        // Leaf-to-leaf distances go through the hub.
        assert_eq!(ch.distance(1, 2), 2.0);
        assert_eq!(ch.distance(5, 9), 2.0);
    }

    #[test]
    fn shortcut_count_is_reported() {
        let g = random_graph(50, 120, 3);
        let ch = ContractionHierarchy::new(&g);
        // A connected random graph of this density needs some shortcuts;
        // mostly we check the accessor is wired up and finite.
        assert!(ch.shortcut_count() < 50 * 50);
    }
}
