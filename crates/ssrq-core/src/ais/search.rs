use crate::ais::AisIndex;
use crate::driver::{AnswerBook, Driven, QueryDriver, Search, StepOutcome};
use crate::{
    CoreError, GeoSocialDataset, QueryContext, QueryRequest, QueryResult, QueryStats, RankedUser,
    RankingContext, UserId,
};
use ssrq_graph::{GraphDistanceEngine, LandmarkSet, SharingMode};
use ssrq_spatial::{NodeId, NodeKind, Point};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Which optimizations the AIS search applies — the three flavours evaluated
/// in Figure 10 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AisVariant {
    /// Sharing mode of the graph-distance submodule (§5.2).
    pub sharing: SharingMode,
    /// Whether the delayed-evaluation strategy (§5.3) is applied: users and
    /// index nodes are keyed by the forward frontier `β`, every user the
    /// forward search settles is scored as it settles, and that search
    /// takes turns of its own (see [`AisDriver`]).
    pub delayed_evaluation: bool,
}

impl AisVariant {
    /// AIS-BID: plain bidirectional distance computations, no sharing, no
    /// delayed evaluation.
    pub(crate) fn bid() -> Self {
        AisVariant {
            sharing: SharingMode::None,
            delayed_evaluation: false,
        }
    }

    /// AIS⁻: computation sharing but no delayed evaluation.
    pub(crate) fn minus() -> Self {
        AisVariant {
            sharing: SharingMode::Shared,
            delayed_evaluation: false,
        }
    }

    /// AIS: all optimizations.
    pub(crate) fn full() -> Self {
        AisVariant {
            sharing: SharingMode::Shared,
            delayed_evaluation: true,
        }
    }
}

/// An entry of the AIS search heap (Algorithm 2): an index node, or a user
/// awaiting exact evaluation.
#[derive(Debug, Clone, Copy)]
enum Item {
    /// A node with its raw social bound (the summary's, before `β`) and its
    /// normalized spatial bound, so re-keying it by a risen `β` needs no
    /// second look at the index.
    Node(NodeId, f64, f64),
    /// A user together with its normalized spatial distance from the query
    /// user (computed when the leaf cell was expanded).
    User(UserId, f64),
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    key: f64,
    item: Item,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.partial_cmp(&self.key).unwrap_or(Ordering::Equal)
    }
}

/// The Aggregate Index Search (Algorithm 2 of the paper) as a resumable
/// search.
///
/// Each step pops one entry from the search heap `H` and handles it —
/// expanding an index node, parking a user, or evaluating one exactly (or,
/// in full AIS, gives the forward search a turn; see below).
/// Every pop key is a finalization bound: the driver emits result entries
/// as soon as their score drops below the best key still in the heap.
///
/// # Delayed evaluation (full AIS only)
///
/// The shared forward search of the distance engine settles vertices in
/// distance order, so every vertex it has not settled is at least `β` (its
/// frontier) away — the bound §5.3 raises a parked user's key to.  Full AIS
/// applies it to index nodes too, and scores the settled side directly
/// (the threshold algorithm's step of scoring a candidate as soon as all
/// its values are known):
///
/// * at the top of every step, each user settled since the previous step
///   that the request admits and that has a location is offered to the
///   top-k at its exact score — its distance is the one the search
///   settled, so no distance call and no heap entry.  It counts as a cache
///   hit; if its user entry pops later, that pop is dropped and counts as
///   the evaluation it stands for, with no distance call;
/// * a node's key is `MINF` with its social bound raised to `β`, when it is
///   priced and again when it is popped (re-queued if `β` raised it); a
///   user's key likewise, and leaf expansion skips users already settled.
///
/// **Why it stays exact.**  At every pop, each user the forward search has
/// settled was offered at the top of the step, and each one it has not is
/// at least `β` ≥ the `β` its entry (or its ancestor's) was keyed with.  So
/// every user not yet offered scores at least the key of the heap entry
/// that holds it, or was pruned with a key at or above `f_k`: the popped
/// minimum is a lower bound on every candidate still to come, which is what
/// the finalization bound and the stop test need.  A user reaches the top-k
/// at most once: a popped user entry whose user has settled meanwhile is
/// dropped, and one evaluated through the heap before it settled is not
/// offered again while the top-k holds it (once evicted or rejected, it
/// scores at or above `f_k` and an offer is a no-op).
///
/// # The forward search's own turns (full AIS only)
///
/// GraphDist moves the shared forward search on only inside a distance
/// call, so at high α, where few users are near in space *and* socially,
/// AIS would rule users out one budgeted bidirectional call at a time
/// while the settles that score them in bulk wait.  Full AIS therefore
/// schedules the forward search against its other work, as the threshold
/// algorithm schedules its sorted accesses (Fagin, Lotem & Naor, PODS
/// 2001): after scoring the settled users, a step settles one more forward
/// vertex ([`GraphDistanceEngine::advance`]) instead of popping `H` while
///
/// `forward_settled_count() < (index_pops + reverse_settles) / 2`
///
/// (integer division): `index_pops` are this query's pops of `H`, and
/// `reverse_settles` this engine's.  The count includes the prefix a
/// sharing scope resumed, so a resumed search that is already ahead takes
/// no turns (counting only this engine's settles makes a resumed arm keep
/// expanding, and `tests/sequential_scatter.rs` fails).  The ratio ½ is
/// GraphDist's own `γ < β/2`.  The ratios tried, with the AIS pop ratio of
/// `experiments -- fig10 --quick --scale 0.2 --queries 4` (gowalla-like;
/// AIS⁻ reads 0.3454 / 0.4713 / 0.5306 at k = 20 / 40 / 50), and forward
/// settles and time per query on the `churn_auto` dataset (10 k users,
/// α = 0.9, k = 10 / 50; 150 queries, best of 5 passes, one 2-vCPU Xeon
/// @ 2.10 GHz; SFA settles 128 / 665 vertices there):
///
/// | turn while forward settles < …         | pop ratio, k = 20 / 40 / 50 | settles     | µs        |
/// |----------------------------------------|-----------------------------|-------------|-----------|
/// | **½ (`H` pops + reverse settles)**     | 0.2929 / 0.4396 / 0.4923    | 181 / 604   | 92 / 251  |
/// | `H` pops + reverse settles (1 : 1)     | 0.3577 / 0.5290 / 0.6029    | 205 / 641   | 68 / 190  |
/// | `H` pops (1 : 1)                       | 0.3300 / 0.4775 / 0.5458    | 205 / 640   | —         |
/// | (`H` pops + reverse settles) · α/(1−α) | —                           | 1,269/1,681 | 236 / 302 |
///
/// The two 1 : 1 rules lift AIS's pop ratio above AIS⁻'s (Fig. 10's
/// ordering; `experiments_cli.rs` checks it), although the first was the
/// fastest at α = 0.9; the α/(1−α) weight overshoots SFA's own stop.
///
/// **Why it stays exact.**  A turn only raises `β`, so every key already
/// in `H` stays a lower bound; every user a turn settles is offered by the
/// next step's scoring before `H` is popped again; and each step either
/// settles a new vertex or pops `H`, so the search terminates.
pub(crate) struct AisDriver<'a> {
    index: &'a AisIndex,
    landmarks: &'a LandmarkSet,
    variant: AisVariant,
    query_location: Point,
    query_vector: &'a [f64],
    distance_engine: GraphDistanceEngine<'a, 'a>,
    heap: BinaryHeap<Entry>,
    /// Entries of the engine's settled order already scored.
    scored: usize,
}

impl std::fmt::Debug for AisDriver<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AisDriver")
            .field("variant", &self.variant)
            .field("heap_len", &self.heap.len())
            .finish()
    }
}

impl<'a> AisDriver<'a> {
    /// An AIS search of the chosen variant from `origin`.
    pub(crate) fn new(
        ranking: &RankingContext<'a>,
        index: &'a AisIndex,
        landmarks: &'a LandmarkSet,
        origin: Point,
        variant: AisVariant,
        qctx: &'a mut QueryContext,
    ) -> Self {
        let user_q = ranking.query_user();
        let mut driver = AisDriver {
            distance_engine: GraphDistanceEngine::new(
                ranking.dataset().graph(),
                landmarks,
                user_q,
                variant.sharing,
                &mut qctx.social,
            ),
            heap: BinaryHeap::new(),
            query_location: origin,
            index,
            landmarks,
            variant,
            query_vector: landmarks.vector(user_q),
            scored: 0,
        };
        for node in index.grid().top_nodes() {
            driver.push_node(ranking, node, f64::INFINITY);
        }
        driver
    }

    /// A raw social lower bound of a user the forward search has not
    /// settled, raised to `β` under delayed evaluation.
    fn social_floor(&self, raw_lb: f64) -> f64 {
        if self.variant.delayed_evaluation {
            raw_lb.max(self.distance_engine.beta())
        } else {
            raw_lb
        }
    }

    /// The key of a node with bounds `(raw_social, spatial)`.
    fn node_key(&self, ctx: &RankingContext<'_>, raw_social: f64, spatial: f64) -> f64 {
        minf(ctx, self.social_floor(raw_social), spatial)
    }

    /// Prices `node` and queues it if its key is below `bound`.
    fn push_node(&mut self, ctx: &RankingContext<'_>, node: NodeId, bound: f64) {
        let Some((raw_social, spatial)) = node_bounds(
            self.index,
            ctx,
            node,
            self.query_location,
            self.query_vector,
        ) else {
            return;
        };
        let key = self.node_key(ctx, raw_social, spatial);
        if key < bound {
            self.heap.push(Entry {
                key,
                item: Item::Node(node, raw_social, spatial),
            });
        }
    }

    /// Offers each user settled since the last call at its exact score (see
    /// the type docs).
    fn score_settled(&mut self, book: &mut AnswerBook<'_>) {
        let settled = self.distance_engine.settled_order();
        for &(user, distance) in &settled[self.scored..] {
            let spatial = book.ctx.spatial(user);
            if spatial == f64::INFINITY || !book.request.admits(book.dataset(), user) {
                continue;
            }
            let social = book.ctx.normalize_social(distance);
            let score = book.ctx.score(social, spatial);
            if score < book.topk.fk() {
                if book.topk.contains(user) {
                    continue; // evaluated through the heap before it settled
                }
                book.topk.consider(RankedUser {
                    user,
                    score,
                    social,
                    spatial,
                });
            }
            book.stats.cache_hits += 1;
        }
        self.scored = settled.len();
    }
}

impl Search for AisDriver<'_> {
    fn step(&mut self, book: &mut AnswerBook<'_>) -> StepOutcome {
        if self.variant.delayed_evaluation {
            self.score_settled(book);
            // The forward search's own turn (type docs).
            let turns = book.stats.index_pops + self.distance_engine.stats().reverse_settles;
            if self.distance_engine.forward_settled_count() < turns / 2
                && self.distance_engine.advance()
            {
                return StepOutcome::Progress;
            }
        }
        let Some(Entry { key, item }) = self.heap.pop() else {
            // The search heap drained: every remaining user was pruned with
            // a key at or above `f_k`, so no held entry can be displaced —
            // the interim result is final.
            book.topk.raise_threshold(f64::INFINITY);
            return StepOutcome::Complete;
        };
        book.stats.index_pops += 1;
        // Every candidate still to come scores at least `key` (type docs),
        // so `key` is a finalization bound for the entries held.
        if book.raise(key) {
            return StepOutcome::Complete;
        }
        let ctx = book.ctx;
        match item {
            Item::Node(node, raw_social, spatial) => {
                if self.variant.delayed_evaluation {
                    // `β` may have risen since the node was priced.
                    let node_key = self.node_key(&ctx, raw_social, spatial);
                    if node_key > key {
                        if node_key < book.topk.fk() {
                            self.heap.push(Entry {
                                key: node_key,
                                item,
                            });
                        }
                        return StepOutcome::Progress;
                    }
                }
                match self.index.grid().node_kind(node) {
                    NodeKind::Internal => {
                        for child in self.index.grid().children(node) {
                            self.push_node(&ctx, child, book.topk.fk());
                        }
                    }
                    NodeKind::Leaf => {
                        for &user in self.index.grid().leaf_items(node) {
                            if !book.request.admits(book.dataset(), user) {
                                continue;
                            }
                            // Settled, so scored already.
                            if self.variant.delayed_evaluation
                                && self.distance_engine.known_distance(user).is_some()
                            {
                                continue;
                            }
                            let spatial = ctx.spatial(user);
                            let raw_lb = self.landmarks.lower_bound(ctx.query_user(), user);
                            let social_lb = ctx.normalize_social(self.social_floor(raw_lb));
                            let user_key = ctx.score_lower_bound(social_lb, spatial);
                            if user_key.is_finite() && user_key < book.topk.fk() {
                                self.heap.push(Entry {
                                    key: user_key,
                                    item: Item::User(user, spatial),
                                });
                            }
                        }
                    }
                }
            }
            Item::User(user, spatial) => {
                if self.variant.delayed_evaluation {
                    // Settled since it was queued: evaluated without a
                    // search when it was scored.
                    if self.distance_engine.known_distance(user).is_some() {
                        book.stats.evaluated_users += 1;
                        return StepOutcome::Progress;
                    }
                    // Delayed evaluation (§5.3): if the shared forward
                    // search has progressed beyond this user's key,
                    // re-insert it with the tighter β-based key instead of
                    // evaluating it now.
                    let beta_bound = ctx.normalize_social(self.distance_engine.beta());
                    let delayed_key = ctx.score_lower_bound(beta_bound, spatial);
                    if key < delayed_key - 1e-12 {
                        book.stats.delayed_reinsertions += 1;
                        self.heap.push(Entry {
                            key: delayed_key,
                            item,
                        });
                        return StepOutcome::Progress;
                    }
                }
                // Evaluate or disqualify: the exact social distance is only
                // needed up to the budget beyond which the user cannot beat
                // the current threshold f_k.
                let fk = book.topk.fk();
                let budget = if fk.is_finite() {
                    let alpha = book.request.alpha();
                    let social_budget = (fk - (1.0 - alpha) * spatial) / alpha;
                    book.dataset().social_norm() * social_budget
                } else {
                    f64::INFINITY
                };
                let raw_social = self.distance_engine.distance_within(user, budget);
                book.stats.distance_calls += 1;
                book.consider(user, ctx.normalize_social(raw_social), spatial);
            }
        }
        StepOutcome::Progress
    }

    /// Folds the distance-submodule counters into the query stats.
    fn fold_stats(&self, stats: &mut QueryStats) {
        let engine_stats = self.distance_engine.stats();
        stats.social_pops += engine_stats.forward_settles + engine_stats.reverse_settles;
        stats.reverse_settles += engine_stats.reverse_settles;
        stats.cache_hits += engine_stats.cache_hits;
        stats.relaxed_edges += engine_stats.edge_relaxations;
        stats.reverse_relaxed_edges += engine_stats.reverse_relaxed_edges;
        // |V_pop| for AIS is the number of entries popped from its own
        // search heap H (Algorithm 2), not the internal work of the distance
        // submodule.
        stats.vertex_pops = stats.index_pops;
    }
}

/// Runs the full AIS (Algorithm 2 of the paper) to completion on
/// `request`, already validated, from its resolved `origin` — the
/// SFA-Cached fallback.
pub(crate) fn ais_query(
    dataset: &GeoSocialDataset,
    index: &AisIndex,
    landmarks: &LandmarkSet,
    request: &QueryRequest,
    origin: Point,
    qctx: &mut QueryContext,
) -> Result<QueryResult, CoreError> {
    let book = AnswerBook::new(dataset, request);
    let search = AisDriver::new(
        &book.ctx,
        index,
        landmarks,
        origin,
        AisVariant::full(),
        qctx,
    );
    Driven::new(book, search).run_to_completion()
}

/// The two halves of `MINF(u_q, C)` of Theorem 1: the node's raw social
/// bound and its normalized spatial bound, or `None` when the social bound
/// is `+∞`.
///
/// The social bound is read first: it is `+∞` for every vacant node (see
/// [`AisIndex`]'s occupancy-first rule), and then so is the key for any
/// `α ∈ (0, 1)`, so the node's rectangle is never built.
fn node_bounds(
    index: &AisIndex,
    ctx: &RankingContext<'_>,
    node: NodeId,
    query_location: Point,
    query_vector: &[f64],
) -> Option<(f64, f64)> {
    let raw_social = index.social_lower_bound(node, query_vector);
    if raw_social == f64::INFINITY {
        return None;
    }
    let spatial_lb = ctx.normalize_spatial(index.spatial_lower_bound(node, query_location));
    Some((raw_social, spatial_lb))
}

/// `MINF(u_q, C)` in normalized/ranking units from a raw social bound and a
/// normalized spatial bound.
fn minf(ctx: &RankingContext<'_>, raw_social: f64, spatial_lb: f64) -> f64 {
    ctx.score_lower_bound(ctx.normalize_social(raw_social), spatial_lb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::exhaustive;
    use crate::{Algorithm, GeoSocialEngine, TopK};
    use ssrq_graph::{GraphBuilder, LandmarkSelection};

    /// One AIS run of `variant`.  A query user without a location never
    /// reaches the search: the engine answers it up front, so it runs
    /// through an engine.
    fn ais_query(
        dataset: &GeoSocialDataset,
        index: &AisIndex,
        landmarks: &LandmarkSet,
        request: &QueryRequest,
        variant: AisVariant,
        qctx: &mut QueryContext,
    ) -> Result<QueryResult, CoreError> {
        let book = AnswerBook::new(dataset, request);
        let Some(origin) = book.ctx.origin() else {
            let algorithm = if variant == AisVariant::bid() {
                Algorithm::AisBid
            } else if variant == AisVariant::minus() {
                Algorithm::AisMinus
            } else {
                Algorithm::Ais
            };
            let engine = GeoSocialEngine::builder(dataset.clone()).build()?;
            return engine.run(&request.clone().with_algorithm(algorithm));
        };
        let search = AisDriver::new(&book.ctx, index, landmarks, origin, variant, qctx);
        let mut driver = Driven::new(book, search);
        driver.run_to_completion()
    }

    fn req(user: u32, k: usize, alpha: f64) -> QueryRequest {
        QueryRequest::for_user(user)
            .k(k)
            .alpha(alpha)
            .build()
            .unwrap()
    }

    /// A deterministic 30-user dataset mixing two spatial clusters and a
    /// ring-with-chords social topology.
    fn dataset() -> (GeoSocialDataset, LandmarkSet) {
        let n = 30u32;
        let mut builder = GraphBuilder::new(n as usize);
        for i in 0..n {
            builder
                .add_edge(i, (i + 1) % n, 0.5 + (i % 5) as f64 * 0.3)
                .unwrap();
        }
        for i in (0..n).step_by(3) {
            builder
                .add_edge(i, (i + 7) % n, 1.0 + (i % 4) as f64 * 0.5)
                .unwrap();
        }
        let graph = builder.build();
        let locations: Vec<Option<Point>> = (0..n)
            .map(|i| {
                if i % 7 == 6 {
                    None
                } else if i % 2 == 0 {
                    Some(Point::new(
                        0.1 + (i as f64) * 0.01,
                        0.2 + (i as f64 % 5.0) * 0.05,
                    ))
                } else {
                    Some(Point::new(
                        0.8 - (i as f64) * 0.005,
                        0.7 + (i as f64 % 3.0) * 0.08,
                    ))
                }
            })
            .collect();
        let landmarks =
            LandmarkSet::build(&graph, 3, LandmarkSelection::FarthestFirst, 11).unwrap();
        let dataset = GeoSocialDataset::new(graph, locations).unwrap();
        (dataset, landmarks)
    }

    fn check_variant(variant: AisVariant) {
        let (dataset, landmarks) = dataset();
        let index = AisIndex::build(&dataset, &landmarks, 4, 2).unwrap();
        for &alpha in &[0.1, 0.3, 0.5, 0.7, 0.9] {
            for &k in &[1usize, 3, 5, 10] {
                for user in [0u32, 5, 13, 22] {
                    let request = req(user, k, alpha);
                    let expected = exhaustive::run(&dataset, &request).unwrap();
                    let got = ais_query(
                        &dataset,
                        &index,
                        &landmarks,
                        &request,
                        variant,
                        &mut QueryContext::new(),
                    )
                    .unwrap();
                    let bits = |result: &QueryResult| -> Vec<(UserId, u64)> {
                        result
                            .ranked
                            .iter()
                            .map(|entry| (entry.user, entry.score.to_bits()))
                            .collect()
                    };
                    assert_eq!(
                        bits(&got),
                        bits(&expected),
                        "variant {variant:?}, alpha {alpha}, k {k}, user {user}"
                    );
                }
            }
        }
    }

    /// `MINF` as the driver prices a node before `β` applies.
    fn node_lower_bound(
        index: &AisIndex,
        ctx: &RankingContext<'_>,
        node: NodeId,
        query_location: Point,
        query_vector: &[f64],
    ) -> f64 {
        node_bounds(index, ctx, node, query_location, query_vector)
            .map_or(f64::INFINITY, |(social, spatial)| {
                minf(ctx, social, spatial)
            })
    }

    /// `MINF` by its definition, the reference for the occupancy-first
    /// shortcut: both bounds for every node, the social one from the node's
    /// summary (the shared empty summary for a vacant node).
    fn minf_reference(
        index: &AisIndex,
        ctx: &RankingContext<'_>,
        node: NodeId,
        query_location: Point,
        query_vector: &[f64],
    ) -> f64 {
        let spatial_lb = ctx.normalize_spatial(index.spatial_lower_bound(node, query_location));
        let social_lb = ctx.normalize_social(index.summary(node).lower_bound(query_vector));
        ctx.score_lower_bound(social_lb, spatial_lb)
    }

    /// Asserts `node_lower_bound` equals [`minf_reference`] bit for bit on
    /// every node of `index`, for every user's landmark vector and a spread
    /// of query points (inside, on and beyond the bounds).
    fn assert_minf_matches_reference(
        dataset: &GeoSocialDataset,
        index: &AisIndex,
        landmarks: &LandmarkSet,
    ) {
        let points = [
            Point::new(0.05, 0.95),
            Point::new(0.5, 0.5),
            Point::new(1.0, 0.0),
            Point::new(-0.4, 1.7),
        ];
        for &alpha in &[0.05, 0.5, 0.95] {
            for q in 0..dataset.user_count() as UserId {
                let request = req(q, 3, alpha);
                let ctx = RankingContext::new(dataset, &request);
                let query_vector = landmarks.vector(q);
                for &point in &points {
                    for node in (0..index.grid().node_count()).map(NodeId) {
                        let got = node_lower_bound(index, &ctx, node, point, query_vector);
                        let want = minf_reference(index, &ctx, node, point, query_vector);
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "alpha {alpha}, user {q}, point {point:?}, node {node:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn occupancy_first_bound_is_bit_identical_on_a_churned_index() {
        let (dataset, landmarks) = dataset();
        let mut index = AisIndex::build(&dataset, &landmarks, 4, 2).unwrap();
        let occupied_at_build: Vec<NodeId> = (0..index.grid().node_count())
            .map(NodeId)
            .filter(|&node| !index.summary(node).is_empty())
            .collect();
        // Moves, removals and re-appearances, with every user first pulled
        // into the lower-left quarter so that cells elsewhere vacate.
        for user in 0..30u32 {
            let p = Point::new(
                0.05 + (user % 5) as f64 * 0.08,
                0.1 + (user / 10) as f64 * 0.1,
            );
            index.update_location(user, p, &landmarks).unwrap();
        }
        for step in 0..40u32 {
            let user = (step * 7) % 30;
            if step % 4 == 0 && index.grid().leaves().position(user).is_some() {
                index.remove_user(user, &landmarks).unwrap();
            } else if step % 3 == 0 {
                let p = Point::new((step as f64 * 0.037) % 0.5, (step as f64 * 0.061) % 0.5);
                index.update_location(user, p, &landmarks).unwrap();
            }
        }
        let vacated = occupied_at_build
            .iter()
            .filter(|&&node| index.summary(node).is_empty())
            .count();
        assert!(vacated > 0, "the churn must vacate some nodes");
        assert_minf_matches_reference(&dataset, &index, &landmarks);
    }

    #[test]
    fn occupancy_first_bound_is_bit_identical_for_landmark_unreachable_cells() {
        // {0, 1} and {2, 3} are separate components: the vertices of the
        // one without the landmarks have all-infinite vectors, and their
        // occupied cell has summary bound 0 for each other and `∞` for the
        // other component.
        let graph = GraphBuilder::from_edges(4, vec![(0, 1, 1.0), (2, 3, 1.0)]).unwrap();
        let landmarks = LandmarkSet::build(&graph, 2, LandmarkSelection::FarthestFirst, 1).unwrap();
        let locations = vec![
            Some(Point::new(0.1, 0.1)),
            Some(Point::new(0.2, 0.2)),
            Some(Point::new(0.8, 0.8)),
            Some(Point::new(0.85, 0.85)),
        ];
        let dataset = GeoSocialDataset::new(graph, locations).unwrap();
        let index = AisIndex::build(&dataset, &landmarks, 4, 2).unwrap();
        assert!((0..4).any(|v| landmarks.vector(v).iter().all(|d| d.is_infinite())));
        assert_minf_matches_reference(&dataset, &index, &landmarks);
    }

    #[test]
    fn ais_bid_matches_exhaustive() {
        check_variant(AisVariant::bid());
    }

    #[test]
    fn ais_minus_matches_exhaustive() {
        check_variant(AisVariant::minus());
    }

    #[test]
    fn ais_full_matches_exhaustive() {
        check_variant(AisVariant::full());
    }

    /// Whether the shared forward search has settled `user`.
    fn forward_settled(driver: &AisDriver<'_>, user: UserId) -> bool {
        driver
            .distance_engine
            .settled_order()
            .iter()
            .any(|&(v, _)| v == user)
    }

    #[test]
    fn a_user_evaluated_by_the_reverse_search_and_then_settled_enters_once() {
        let (dataset, landmarks) = dataset();
        let index = AisIndex::build(&dataset, &landmarks, 4, 2).unwrap();
        let mut witnessed = 0;
        for &alpha in &[0.3, 0.5, 0.7, 0.9] {
            for &k in &[3usize, 5, 10] {
                for user in 0..dataset.user_count() as UserId {
                    if dataset.location(user).is_none() {
                        continue;
                    }
                    let request = req(user, k, alpha);
                    let mut book = AnswerBook::new(&dataset, &request);
                    let origin = book.ctx.origin().unwrap();
                    let ranking = book.ctx;
                    let mut qctx = QueryContext::new();
                    let mut search = AisDriver::new(
                        &ranking,
                        &index,
                        &landmarks,
                        origin,
                        AisVariant::full(),
                        &mut qctx,
                    );
                    // Users held while their distance came from the reverse
                    // search (known, not forward-settled).
                    let mut reverse_evaluated = Vec::new();
                    while search.step(&mut book) == StepOutcome::Progress {
                        for v in 0..dataset.user_count() as UserId {
                            if !book.topk.contains(v) {
                                continue;
                            }
                            if forward_settled(&search, v) {
                                if reverse_evaluated.contains(&v) {
                                    witnessed += 1;
                                    reverse_evaluated.retain(|&u| u != v);
                                }
                            } else if search.distance_engine.known_distance(v).is_some()
                                && !reverse_evaluated.contains(&v)
                            {
                                reverse_evaluated.push(v);
                            }
                        }
                    }
                    let got = std::mem::replace(&mut book.topk, TopK::new(0)).into_sorted_vec();
                    let mut users: Vec<UserId> = got.iter().map(|e| e.user).collect();
                    users.sort_unstable();
                    users.dedup();
                    assert_eq!(users.len(), got.len(), "a user entered twice");
                    let expected = exhaustive::run(&dataset, &request).unwrap();
                    let bits = |ranked: &[crate::RankedUser]| -> Vec<(UserId, u64)> {
                        ranked.iter().map(|e| (e.user, e.score.to_bits())).collect()
                    };
                    assert_eq!(
                        bits(&got),
                        bits(&expected.ranked),
                        "alpha {alpha}, k {k}, user {user}"
                    );
                }
            }
        }
        assert!(
            witnessed > 0,
            "no held user was reverse-evaluated and then forward-settled"
        );
    }

    #[test]
    fn query_user_without_location_gets_empty_result() {
        let (dataset, _) = dataset();
        let engine = GeoSocialEngine::builder(dataset).build().unwrap();
        // User 6 has no location (6 % 7 == 6).
        let request = req(6, 5, 0.5).with_algorithm(Algorithm::Ais);
        let result = engine.run(&request).unwrap();
        assert!(result.ranked.is_empty());
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let (dataset, _) = dataset();
        let engine = GeoSocialEngine::builder(dataset).build().unwrap();
        let bad_alpha = QueryRequest::for_user(0)
            .k(5)
            .alpha(1.0)
            .algorithm(Algorithm::Ais)
            .build_unvalidated();
        assert!(engine.run(&bad_alpha).is_err());
        let bad_user = req(999, 5, 0.5).with_algorithm(Algorithm::Ais);
        assert!(engine.run(&bad_user).is_err());
    }

    #[test]
    fn stats_report_search_effort() {
        let (dataset, landmarks) = dataset();
        let index = AisIndex::build(&dataset, &landmarks, 4, 2).unwrap();
        let request = req(0, 5, 0.3);
        let result = ais_query(
            &dataset,
            &index,
            &landmarks,
            &request,
            AisVariant::full(),
            &mut QueryContext::new(),
        )
        .unwrap();
        assert!(result.stats.index_pops > 0);
        assert!(result.stats.evaluated_users >= result.ranked.len());
        assert!(result.stats.runtime.as_nanos() > 0);
    }

    #[test]
    fn full_variant_evaluates_no_more_users_than_bid() {
        let (dataset, landmarks) = dataset();
        let index = AisIndex::build(&dataset, &landmarks, 4, 2).unwrap();
        let request = req(3, 5, 0.5);
        let bid = ais_query(
            &dataset,
            &index,
            &landmarks,
            &request,
            AisVariant::bid(),
            &mut QueryContext::new(),
        )
        .unwrap();
        let full = ais_query(
            &dataset,
            &index,
            &landmarks,
            &request,
            AisVariant::full(),
            &mut QueryContext::new(),
        )
        .unwrap();
        // The optimizations must never *increase* the number of exact
        // distance evaluations.
        assert!(full.stats.evaluated_users <= bid.stats.evaluated_users + 1);
    }
}
