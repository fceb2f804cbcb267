use crate::{Distance, IncrementalDijkstra, LandmarkSet, NodeId, SearchScratch, SocialGraph};

/// How much work the engine may reuse across point-to-point computations
/// from the same source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharingMode {
    /// No reuse: every call runs the [`Shared`](Self::Shared) call on a
    /// forward search started over for it, with no budget.  This is the
    /// paper's AIS-BID baseline (§6, Figure 10).
    None,
    /// Distance caching and forward-heap caching (§5.2): one forward
    /// Dijkstra expansion from the source is shared across calls, and every
    /// vertex it has settled is answered without further search.  Every
    /// other target gets a per-call reverse search that meets the shared
    /// forward search; the reverse state is dropped when the call returns.
    Shared,
}

/// Counters describing the work performed by a [`GraphDistanceEngine`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DistanceEngineStats {
    /// Number of `distance()` calls.
    pub distance_calls: usize,
    /// Calls answered without a search: the target was forward-settled, or
    /// an earlier call computed it.
    pub cache_hits: usize,
    /// Vertices settled by the (shared or per-call) forward search.
    pub forward_settles: usize,
    /// Vertices settled by the per-call searches from the target's side:
    /// the reverse Dijkstra and its completion step.
    pub reverse_settles: usize,
    /// Edge relaxations attempted across every search the engine ran (the
    /// shared forward expansion plus all per-call searches).
    pub edge_relaxations: usize,
    /// The part of `edge_relaxations` done by the searches counted in
    /// `reverse_settles`.
    pub reverse_relaxed_edges: usize,
}

/// The graph-distance submodule of AIS (Algorithm 3, *GraphDist*).
///
/// The engine computes exact shortest-path distances from a fixed source
/// (the query user `v_q`) to arbitrary target vertices.  Both modes run the
/// paper's bidirectional search: a Dijkstra from the source meets a search
/// from the target (Goldberg & Harrelson, SODA 2005, for the landmark
/// bounds).
///
/// * With [`SharingMode::None`] (the AIS-BID baseline) every call runs the
///   shared-mode call below on a forward search started over for it, with
///   no budget.  Nothing is reused between calls.
/// * With [`SharingMode::Shared`] the engine applies the §5.2
///   optimizations.  **Forward heap caching:** one resumable Dijkstra
///   expansion from the source lives for the engine's whole life (and,
///   inside a sharing scope, for the query's), and each call moves it on
///   only as far as that call needs.  **Distance caching:** a target the
///   forward expansion has settled, or one an earlier call of this engine
///   computed (the paper's table `T`, a sorted list in the scratch), is
///   answered without any traversal.  Any other target gets
///   a per-call *reverse* Dijkstra from the target, interleaved with the
///   shared forward search, whose state lives in the scratch's reverse
///   slots and is dropped when the call returns.
///
/// # The shared-mode call
///
/// Write `β` for the forward frontier (the key settled last, a lower
/// bound on the forward label of every vertex not yet forward-settled),
/// `γ` for the smallest key in the reverse queue, and `δ = 8·|V|·ε` (see
/// below).  A call with budget `B` (`∞` for [`distance`](Self::distance))
/// repeats, while the reverse queue is not empty:
///
/// 1. `cap = min(μ, B)·(1+δ)`; stop if `β + γ ≥ cap`;
/// 2. if `γ < β/2` settle one reverse vertex, else one forward vertex.
///
/// `μ`, the shortest path seen, is met on edges: the reverse search relaxing
/// an edge into a forward-settled vertex `u` offers `d_f(u) + g + w`, and the
/// forward search settling a vertex the reverse search has labelled `r`
/// offers `d_f + r`.  The reverse search never expands a forward-settled
/// vertex (its forward label is exact, so every path through it is already
/// offered), and ALT prunes: a vertex whose `g + LB(v, v_q) ≥ cap` is not
/// queued.
///
/// **Why the stop is safe.**  The first step settles the source (`γ = β =
/// 0` steps forward).  Take a path `P` from the source to the target
/// shorter than `cap` and `u` its last forward-settled vertex; the
/// vertices after `u` were never forward-settled, so each one the reverse
/// search settled, it expanded.  If all of them were, the reverse search
/// relaxed the edge from `u`'s successor into `u`: it offered a meet then
/// (`u` already forward-settled), or labelled `u` and the forward search
/// offered one on settling `u`, or pruned `u` (`|P| ≥ cap`); either way
/// `μ ≤ |P|`.  Otherwise let `y` be the vertex nearest the target on `P`
/// that is not reverse-settled: it is after `u`, so its prefix is at least
/// `β`; its successor was expanded, so `y` is queued with a key at most its
/// suffix (or was pruned, and then `|P| ≥ cap`).  So `|P| ≥ β + γ ≥ cap`.
/// No path shorter than `cap` is missed, and a target whose `μ ≥ B·(1+δ)`
/// is at least `B` away.
///
/// **Why `δ`, and the completion step.**  `μ` adds `f64`s in another order
/// than the forward expansion would, so it can be some ulps off the
/// distance the forward search settles — which is what every caller
/// compares bits with (the AIS tests `assert_eq!` scores against the
/// exhaustive oracle).  An `h`-edge `f64` sum lies within `h·ε` of its
/// real value, in any order, and a shortest path has `h < |V|` edges; so
/// any two sums over the same or competing paths differ by less than a
/// factor `(1 + |V|·ε)²`, and `δ = 8·|V|·ε` covers the stop, the prune and
/// the region below with room.  A target that survives (`μ < B·(1+δ)`)
/// then gets its distance in forward arithmetic: a Dijkstra seeded with
/// the forward search's tentative labels, confined to the vertices the
/// reverse search settled with `β + g ≤ cap` that the forward search has
/// not.  Every path whose left-to-right sum could tie or beat `μ`'s runs
/// through forward-settled vertices and then only through that region, so
/// the step returns the minimum over paths of the left-to-right sum —
/// what the forward expansion would settle, bit for bit.  The prune and
/// the up-front budget check read the landmark bound with the table's own
/// rounding taken off (`|V|·ε` per entry, twice over), so a bound that
/// overshoots the distance by an ulp cannot prune the path that wins.
///
/// The forward expansion is resumed exactly as the forward-only engine
/// resumed it, so everything about sharing it — [`beta`](Self::beta),
/// [`known_distance`](Self::known_distance), resuming it in a sharing scope
/// — is unchanged; a call merely settles fewer forward vertices.
///
/// **Side selection: step the reverse side while `γ < β/2`.**  Forward
/// steps are the ones later calls inherit, and a wider forward ball also
/// raises the `β` that AIS's delayed evaluation prunes with; reverse steps
/// are thrown away.  Measured on `single_social` and `churn_auto` (whose
/// misses run AIS), seed 1 traced, as social pops per query
/// `single_social`/`churn_auto`, and `qps` over alternated 4 s runs on a
/// 2-vCPU Xeon @ 2.10 GHz:
///
/// | rule             | pops          | `single_social` q/s      | `churn_auto` q/s          |
/// |------------------|---------------|--------------------------|---------------------------|
/// | `γ < β`          | 3,449 / 970   | 345, 349, 402            | 1,428, 1,258, 1,348       |
/// | **`γ < β/2`**    | 3,320 / 568   | 561, 634, 557            | 2,403, 2,094, 2,456       |
/// | equal settles    | 2,376 / 522   | 504, 537, 580            | 1,944, 1,809, 2,208       |
/// | 2 forward : 1    | 2,337 / 494   | 675, 607, 665            | 2,008, 1,954, 2,589       |
/// | `γ < β/4`        | 8,685 / 1,132 | —                        | —                         |
/// | `γ < 2β`         | 20,465 / 5,846 | —                       | —                         |
///
/// (seeds 41–43).  On seeds 44–47 `γ < β/2` read 833, 625, 961, 823 and
/// 2,970, 3,130, 3,380, 2,620 q/s against 616, 907, 869, 588 and 2,260,
/// 3,290, 2,370, 2,140 for "2 forward : 1"; on seeds 51–54, 786, 672, 644,
/// 608 and 2,856, 2,428, 2,827, 2,888 against `γ < 0.6β` (2,547 / 527
/// pops; 698, 647, 817, 552 and 2,396, 2,671, 2,666, 2,313) and `γ < 0.7β`
/// (2,258 / 548; 609, 680, 708, 825 and 2,318, 2,763, 2,219, 2,681).
/// Ratios trade social pops against AIS heap pops (248 per query at `β/2`,
/// 339 at `β`, 427 for equal settles).  `β/2` had the best `churn_auto`
/// median in every set and was within the host's noise of the best
/// `single_social` median.  (The counters predate full AIS scoring the
/// users this search settles, which took the `β/2` row to 2,819 / 557
/// social pops and `single_social`'s heap pops to 224 per query.)
pub struct GraphDistanceEngine<'g, 's> {
    graph: &'g SocialGraph,
    landmarks: &'g LandmarkSet,
    source: NodeId,
    mode: SharingMode,
    forward: IncrementalDijkstra<'s>,
    /// Relative slack `δ = 8·|V|·ε` of the shared-mode stop (type docs).
    slack: Distance,
    stats: DistanceEngineStats,
    /// Relaxations performed by completed per-call searches (the live
    /// forward expansion reports its own count).
    call_relaxations: usize,
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
            forward.scratch_mut().record_order();
        }
        forward.scratch_mut().answers.clear();
        GraphDistanceEngine {
            graph,
            landmarks,
            source,
            mode,
            forward,
            slack: 8.0 * graph.node_count() as Distance * f64::EPSILON,
            stats: DistanceEngineStats::default(),
            call_relaxations: 0,
        }
    }

    /// The query (source) vertex.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> DistanceEngineStats {
        let mut stats = self.stats;
        stats.edge_relaxations = self.forward.relaxations() + self.call_relaxations;
        stats
    }

    /// The `β` bound of §5.3: the distance of the last vertex settled by the
    /// (shared) forward search.  Every vertex not yet visited by the forward
    /// search is at least this far from the source.  Zero until the forward
    /// search has made progress.
    pub fn beta(&self) -> Distance {
        self.forward.frontier_bound()
    }

    /// Exact distance of `v` if it is already known without further search
    /// (settled by the forward expansion, or computed by an earlier call).
    pub fn known_distance(&self, v: NodeId) -> Option<Distance> {
        if v == self.source {
            return Some(0.0);
        }
        self.forward.settled_distance(v).or_else(|| {
            let answers = &self.forward.scratch().answers;
            let at = answers.binary_search_by_key(&v, |&(t, _)| t).ok()?;
            Some(answers[at].1)
        })
    }

    /// The vertices the shared forward search has settled, with their exact
    /// distances, in settle order — inside a sharing scope, the resumed
    /// prefix first.  Read from the scratch's reused buffer: following it
    /// allocates nothing.  Empty in [`SharingMode::None`], whose forward
    /// searches are per call.
    pub fn settled_order(&self) -> &[(NodeId, Distance)] {
        match self.mode {
            SharingMode::Shared => &self.forward.scratch().order[..self.forward.settled_count()],
            SharingMode::None => &[],
        }
    }

    /// Number of vertices settled by the shared forward search so far.
    pub fn forward_settled_count(&self) -> usize {
        self.forward.settled_count()
    }

    /// Settles the next vertex of the shared forward search outside any
    /// call: it joins [`settled_order`](Self::settled_order), raises
    /// [`beta`](Self::beta) to its distance and counts in
    /// `forward_settles`.  Returns `false`, settling nothing, when the
    /// search is exhausted or in [`SharingMode::None`], which has no
    /// shared search.
    pub fn advance(&mut self) -> bool {
        if self.mode == SharingMode::None || self.forward.next_settled(self.graph).is_none() {
            return false;
        }
        self.stats.forward_settles += 1;
        true
    }

    /// Computes the exact graph distance from the source to `target`
    /// (`f64::INFINITY` when unreachable).
    pub fn distance(&mut self, target: NodeId) -> Distance {
        self.distance_within(target, f64::INFINITY)
    }

    /// Computes the distance to `target`, giving up as soon as the distance
    /// is provably at least `budget` (in which case `f64::INFINITY` is
    /// returned).
    ///
    /// This is the "evaluate or disqualify" primitive the AIS search needs:
    /// a candidate whose social distance reaches the budget can no longer
    /// enter the result, so there is no point computing its exact value.
    /// In [`SharingMode::Shared`] the budget caps both halves of the search
    /// (the stop `β + γ ≥ cap` and the ALT prune).  In
    /// [`SharingMode::None`] it caps only the result: the paper's AIS-BID
    /// searches without a budget.
    pub fn distance_within(&mut self, target: NodeId, budget: Distance) -> Distance {
        self.stats.distance_calls += 1;
        if target == self.source {
            return 0.0;
        }
        let search_budget = match self.mode {
            SharingMode::Shared => budget,
            SharingMode::None => {
                self.forward.restart(self.graph);
                self.forward.scratch_mut().answers.clear();
                f64::INFINITY
            }
        };
        let d = if let Some(d) = self.known_distance(target) {
            self.stats.cache_hits += 1;
            d
        } else if self.lower_bound(target, self.source) >= search_budget * (1.0 + self.slack) {
            // Includes the provably disconnected target (an infinite
            // bound), so no search drains a component.
            f64::INFINITY
        } else {
            self.shared_bidirectional(target, search_budget)
        };
        if d < budget {
            d
        } else {
            f64::INFINITY
        }
    }

    /// The landmark bound on `d(u, v)` with the table's rounding taken off
    /// (see [`LandmarkSet`]'s strict bound): `|V|·ε` per entry, twice over.
    fn lower_bound(&self, u: NodeId, v: NodeId) -> Distance {
        self.landmarks.strict_lower_bound(u, v, self.slack / 4.0)
    }

    /// The shared-mode call (see the type docs): the shared forward search
    /// and a reverse Dijkstra from `target` until `β + γ ≥ cap`, then the
    /// completion step for a target that survives.  Returns the exact
    /// distance, or something at least `budget`.
    fn shared_bidirectional(&mut self, target: NodeId, budget: Distance) -> Distance {
        let before = self.forward.settled_count();
        let scratch = self.forward.scratch_mut();
        scratch.begin_reverse(self.graph.node_count());
        scratch.set_reverse_dist(target, 0.0);
        scratch.reverse_queue.push(0.0, target);
        let slack = 1.0 + self.slack;
        let mut mu = f64::INFINITY;
        loop {
            let beta = self.forward.frontier_bound();
            let Some(gamma) = self.forward.scratch_mut().reverse_queue.min_key() else {
                break;
            };
            if beta + gamma >= mu.min(budget) * slack {
                break;
            }
            if gamma < 0.5 * beta {
                self.reverse_settle(&mut mu, budget * slack, slack);
            } else {
                let Some((v, d)) = self.forward.next_settled(self.graph) else {
                    break;
                };
                mu = mu.min(d + self.forward.scratch().reverse_dist(v));
            }
        }
        self.stats.forward_settles += self.forward.settled_count() - before;
        if let Some(d) = self.forward.settled_distance(target) {
            d
        } else if mu < budget * slack {
            let d = self.complete(target, mu.min(budget) * slack);
            if d < budget {
                // Exact (type docs): keep it for a repeated call.
                let answers = &mut self.forward.scratch_mut().answers;
                if let Err(at) = answers.binary_search_by_key(&target, |&(t, _)| t) {
                    answers.insert(at, (target, d));
                }
            }
            d
        } else {
            f64::INFINITY
        }
    }

    /// Settles the next reverse vertex (skipping stale queue entries and
    /// vertices the forward search settled meanwhile), offering a meet for
    /// each of its edges into a forward-settled vertex.  `budget_cap` is
    /// `B·(1+δ)`.
    fn reverse_settle(&mut self, mu: &mut Distance, budget_cap: Distance, slack: Distance) {
        let (graph, landmarks, source) = (self.graph, self.landmarks, self.source);
        let rounding = self.slack / 4.0;
        let scratch = self.forward.scratch_mut();
        let Some((g, x)) = scratch.reverse_queue.pop() else {
            return;
        };
        if scratch.is_reverse_settled(x) || scratch.is_settled(x) {
            return;
        }
        scratch.mark_reverse_settled(x);
        self.stats.reverse_settles += 1;
        let mut relaxed = 0;
        for edge in graph.neighbors(x) {
            relaxed += 1;
            let cand = g + edge.weight;
            let u = edge.to;
            if scratch.is_settled(u) {
                *mu = mu.min(scratch.tentative(u) + cand);
                continue;
            }
            if cand < scratch.reverse_dist(u) {
                let cap = (*mu * slack).min(budget_cap);
                if cap < f64::INFINITY
                    && cand + landmarks.strict_lower_bound(u, source, rounding) >= cap
                {
                    continue;
                }
                scratch.set_reverse_dist(u, cand);
                scratch.reverse_queue.push(cand, u);
            }
        }
        self.stats.reverse_relaxed_edges += relaxed;
        self.call_relaxations += relaxed;
    }

    /// The completion step (type docs): a Dijkstra in forward arithmetic
    /// over the reverse-settled, not forward-settled vertices within
    /// `cap − β` of the target, seeded with the forward tentative labels.
    /// Returns the target's label, or `INFINITY` if the region holds no
    /// path to it.
    fn complete(&mut self, target: NodeId, cap: Distance) -> Distance {
        let graph = self.graph;
        let beta = self.forward.frontier_bound();
        let scratch = self.forward.scratch_mut();
        let in_region = |scratch: &SearchScratch, v: NodeId| {
            scratch.is_reverse_settled(v)
                && !scratch.is_settled(v)
                && beta + scratch.reverse_dist(v) <= cap
        };
        scratch.reverse_queue.clear();
        for i in 0..scratch.reverse_settled.len() {
            let v = scratch.reverse_settled[i];
            if in_region(scratch, v) {
                let label = scratch.tentative(v);
                scratch.set_label(v, label);
                if label < f64::INFINITY {
                    scratch.reverse_queue.push(label, v);
                }
            }
        }
        let (mut settles, mut relaxed) = (0, 0);
        let mut found = f64::INFINITY;
        while let Some((key, v)) = scratch.reverse_queue.pop() {
            if key > scratch.label(v) {
                continue; // stale queue entry
            }
            settles += 1;
            if v == target {
                found = key;
                break;
            }
            for edge in graph.neighbors(v) {
                relaxed += 1;
                let u = edge.to;
                let cand = key + edge.weight;
                if cand < scratch.label(u) && in_region(scratch, u) {
                    scratch.set_label(u, cand);
                    scratch.reverse_queue.push(cand, u);
                }
            }
        }
        self.stats.reverse_settles += settles;
        self.stats.reverse_relaxed_edges += relaxed;
        self.call_relaxations += relaxed;
        found
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
                assert_eq!(
                    got.to_bits(),
                    truth[t as usize].to_bits(),
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
                    assert_eq!(
                        got.to_bits(),
                        truth[t as usize].to_bits(),
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
    fn settled_order_is_the_forward_settle_order_resumed_prefix_included() {
        let g = random_graph(150, 320, 17);
        let lms = LandmarkSet::build(&g, 4, LandmarkSelection::FarthestFirst, 17).unwrap();
        let mut fresh = SearchScratch::new();
        let mut reference = IncrementalDijkstra::new(&g, 4, &mut fresh);
        let mut order = Vec::new();
        while let Some(settled) = reference.next_settled(&g) {
            order.push(settled);
        }
        let bits = |settled: &[(NodeId, Distance)]| -> Vec<(NodeId, u64)> {
            settled.iter().map(|&(v, d)| (v, d.to_bits())).collect()
        };
        let mut scratch = SearchScratch::new();
        for scope in [false, true] {
            scratch.share_expansions(scope);
            let mut seen = 0;
            for targets in [[140u32, 20], [90, 75]] {
                let mut e =
                    GraphDistanceEngine::new(&g, &lms, 4, SharingMode::Shared, &mut scratch);
                // A resumed expansion starts with its prefix in place.
                assert_eq!(e.settled_order().len(), if scope { seen } else { 0 });
                for t in targets {
                    e.distance(t);
                    let settled = e.settled_order();
                    assert_eq!(settled.len(), e.forward_settled_count());
                    assert_eq!(
                        bits(settled),
                        bits(&order[..settled.len()]),
                        "scope {scope}"
                    );
                    seen = settled.len();
                }
            }
            let mut unshared =
                GraphDistanceEngine::new(&g, &lms, 4, SharingMode::None, &mut scratch);
            unshared.distance(140);
            assert!(unshared.settled_order().is_empty());
        }
    }

    #[test]
    fn advance_settles_the_next_vertex_of_the_shared_search() {
        let g = random_graph(150, 320, 23);
        let lms = LandmarkSet::build(&g, 4, LandmarkSelection::FarthestFirst, 23).unwrap();
        let mut fresh = SearchScratch::new();
        let mut reference = IncrementalDijkstra::new(&g, 9, &mut fresh);
        let mut order = Vec::new();
        while let Some((v, d)) = reference.next_settled(&g) {
            order.push((v, d.to_bits()));
        }
        let mut scratch = SearchScratch::new();
        for scope in [false, true] {
            scratch.share_expansions(scope);
            let mut resumed = 0;
            for (targets, budget) in [([120u32, 33], 1.5), ([71, 140], f64::INFINITY)] {
                let mut e =
                    GraphDistanceEngine::new(&g, &lms, 9, SharingMode::Shared, &mut scratch);
                assert_eq!(e.forward_settled_count(), resumed, "scope {scope}");
                for t in targets {
                    e.distance_within(t, budget);
                }
                for _ in 0..5 {
                    let (at, settles) = (e.forward_settled_count(), e.stats().forward_settles);
                    assert!(e.advance(), "scope {scope}");
                    let settled = e.settled_order();
                    assert_eq!(settled.len(), at + 1);
                    let (v, d) = settled[at];
                    assert_eq!((v, d.to_bits()), order[at], "scope {scope}");
                    assert_eq!(e.beta().to_bits(), d.to_bits());
                    assert_eq!(e.stats().forward_settles, settles + 1);
                }
                resumed = if scope { e.forward_settled_count() } else { 0 };
            }
        }
        let mut e = GraphDistanceEngine::new(&g, &lms, 9, SharingMode::Shared, &mut scratch);
        while e.advance() {}
        assert_eq!(e.forward_settled_count(), order.len());
        assert!(!e.advance(), "an exhausted search settles nothing");
        let mut unshared = GraphDistanceEngine::new(&g, &lms, 9, SharingMode::None, &mut scratch);
        unshared.distance(140);
        let before = unshared.stats();
        assert!(
            !unshared.advance(),
            "an unshared engine has no shared search"
        );
        assert_eq!(unshared.stats(), before);
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
