use crate::{CoreError, GeoSocialDataset, UserId};
use ssrq_graph::LandmarkSet;
use ssrq_spatial::{IdMap, MultiLevelGrid, NodeId, NodeKind, Point};

/// The social summary of an index node: for each landmark `j`, the minimum
/// (`m̌[j]`) and maximum (`m̂[j]`) graph distance between any user below the
/// node and that landmark (§5.1).
///
/// The pairs are interleaved in one vector, `[(m̌[0], m̂[0]), (m̌[1], m̂[1]),
/// …]`: the bound of Lemma 2 reads both ends of each landmark's interval, so
/// one allocation and one pointer chase serve a whole summary.
///
/// An empty node keeps `m̌ = +∞` and `m̂ = −∞`, which makes its social lower
/// bound infinite — empty cells are pruned automatically.
#[derive(Debug, Clone, PartialEq)]
pub struct SocialSummary {
    bounds: Vec<[f64; 2]>,
}

impl SocialSummary {
    /// Creates the summary of an empty node for `m` landmarks.
    pub fn empty(m: usize) -> Self {
        SocialSummary {
            bounds: vec![[f64::INFINITY, f64::NEG_INFINITY]; m],
        }
    }

    /// Folds one user's landmark-distance vector into the summary, widening
    /// it in place; returns whether any bound moved.
    pub fn absorb_vector(&mut self, vector: &[f64]) -> bool {
        debug_assert_eq!(vector.len(), self.bounds.len());
        let mut widened = false;
        for (pair, &d) in self.bounds.iter_mut().zip(vector) {
            if d < pair[0] {
                pair[0] = d;
                widened = true;
            }
            if d > pair[1] {
                pair[1] = d;
                widened = true;
            }
        }
        widened
    }

    /// Folds another summary (e.g. of a child node) into this one.
    pub fn absorb_summary(&mut self, other: &SocialSummary) {
        for (pair, other) in self.bounds.iter_mut().zip(&other.bounds) {
            if other[0] < pair[0] {
                pair[0] = other[0];
            }
            if other[1] > pair[1] {
                pair[1] = other[1];
            }
        }
    }

    /// Resets the summary to the empty one, keeping its buffer.
    fn clear(&mut self) {
        self.bounds.fill([f64::INFINITY, f64::NEG_INFINITY]);
    }

    /// Whether `parent` can change when this child summary narrows to
    /// `narrowed`: for some landmark the child held the parent's `m̌[j]` (or
    /// `m̂[j]`) and that bound of the child moved.
    fn releases_bound_of(&self, narrowed: &SocialSummary, parent: &SocialSummary) -> bool {
        self.bounds
            .iter()
            .zip(&narrowed.bounds)
            .zip(&parent.bounds)
            .any(|((old, new), held)| {
                (0..2).any(|end| old[end] == held[end] && new[end] != old[end])
            })
    }

    /// `m̌[j]`.
    pub fn min_distance(&self, j: usize) -> f64 {
        self.bounds[j][0]
    }

    /// `m̂[j]`.
    pub fn max_distance(&self, j: usize) -> f64 {
        self.bounds[j][1]
    }

    /// Returns `true` when no user has been folded in.
    ///
    /// The test is `m̂ = −∞`: absorbing any vector raises every `m̂[j]` to at
    /// least the vector's (non-negative, possibly infinite) entry.  Testing
    /// `m̌ = +∞` instead would misclassify a cell whose users are all
    /// unreachable from every landmark (their vectors are all-`∞`, leaving
    /// `m̌ = +∞` but pushing `m̂` to `+∞`) — such a cell is occupied and must
    /// yield bound 0, not `∞`, for a query vertex that also cannot reach the
    /// landmarks.
    pub fn is_empty(&self) -> bool {
        self.bounds.iter().all(|pair| pair[1] == f64::NEG_INFINITY)
    }

    /// Approximate heap footprint of the summary's interleaved aggregate
    /// vector in bytes.
    pub fn approx_heap_bytes(&self) -> usize {
        self.bounds.capacity() * std::mem::size_of::<[f64; 2]>()
    }

    /// The social lower bound `p̌(v_q, C)` of Lemma 2, given the query
    /// user's landmark-distance vector.
    ///
    /// For each landmark `j`:
    /// * if `m_qj < m̌[j]` the bound `m̌[j] − m_qj` applies,
    /// * if `m_qj > m̂[j]` the bound `m_qj − m̂[j]` applies,
    /// * otherwise the landmark yields no information.
    ///
    /// The tightest (largest) bound over all landmarks is returned.
    pub fn lower_bound(&self, query_vector: &[f64]) -> f64 {
        debug_assert_eq!(query_vector.len(), self.bounds.len());
        let mut best = 0.0_f64;
        for (pair, &mqj) in self.bounds.iter().zip(query_vector) {
            let bound = if mqj < pair[0] {
                pair[0] - mqj
            } else if mqj > pair[1] {
                mqj - pair[1]
            } else {
                0.0
            };
            if bound > best {
                best = bound;
            }
        }
        best
    }
}

/// The AIS aggregate index: a multi-level regular grid over user locations
/// with a [`SocialSummary`] attached to every **occupied** node.  The grid's
/// leaf level is the engine's only copy of the locations in a grid: SPA and
/// TSA search it too.
///
/// Summaries live in an occupancy-aware layout: a dense `Vec` holds the
/// summaries of occupied nodes only, behind a compact node→slot map, and
/// every unoccupied node shares one static empty summary whose lower bound
/// is infinite — the same infinite-lower-bound fast path the search already
/// uses to prune empty cells, so sparsification is admission-neutral (bounds
/// are bit-identical, never loosened or tightened).  An index over a shard
/// with few residents therefore costs kilobytes instead of the ~2 MiB a
/// dense per-cell layout needs at the default granularity.  The node→slot
/// map is an [`IdMap`]: its keys are node ids below
/// [`total_cells`](Self::total_cells), so the fixed multiplicative hash is
/// safe and spares every bound a SipHash.
///
/// # Occupancy first
///
/// [`social_lower_bound`](Self::social_lower_bound) answers `+∞` for a
/// vacant node from the slot lookup alone, and the search reads it before
/// any cell geometry: a node whose social bound is `+∞` has key
/// `combine(α, ∞, ·) = ∞` for every `α ∈ (0, 1)` and is never pushed, so
/// skipping its rectangle changes no key, push or pop.  At high `α`, where
/// Lemma 2's bound is loose and the search prices most of the grid, the
/// work per expanded node is thereby proportional to its occupied
/// children.
///
/// # Maintenance
///
/// A summary changes in exactly one of two ways, and [`AisIndex::build`]
/// bulk-loads the grid, then enters every located user through the first:
///
/// * **Enter.** A user's landmark vector is folded into its leaf, then into
///   each ancestor in turn, stopping at the first node the vector does not
///   widen: that node already covers the vector, and so does every node
///   above it.
/// * **Leave.** The user's old leaf is recomputed from the users it still
///   holds.  Its parent is recomputed from its children only when, for some
///   landmark, the leaf's old `m̌[j]` (or `m̂[j]`) was the parent's and has
///   now moved; the same rule climbs on, and the walk stops at the first
///   node whose summary did not change.
///
/// Both keep every summary equal to the minimum and maximum over the
/// vectors of the users below its node.  Minimum and maximum over `f64`
/// distances are exact and independent of order, so the summaries — and
/// with them every AIS key, work counter and answer — are bit-identical to
/// a rebuild from scratch after any sequence of updates.
#[derive(Debug, Clone)]
pub struct AisIndex {
    grid: MultiLevelGrid,
    /// Slot of each occupied node in `summaries`.
    slots: IdMap<u32, u32>,
    /// Summaries of occupied nodes; slots are recycled via `free_slots` as
    /// cells vacate, so the vector's length tracks the historical maximum of
    /// concurrently occupied nodes.
    summaries: Vec<SocialSummary>,
    /// Slots whose node vacated; reused before the vector grows.
    free_slots: Vec<u32>,
    /// The shared summary of every unoccupied node (`m̌ = +∞`, `m̂ = −∞`).
    empty_summary: SocialSummary,
    /// Buffer a leave recomputes summaries into, so the walk allocates
    /// nothing.
    scratch: SocialSummary,
    num_landmarks: usize,
}

impl AisIndex {
    /// Builds the index over every located user of `dataset`.
    ///
    /// * `branch` — the partitioning granularity `s` (each node has `s × s`
    ///   children).
    /// * `levels` — retained grid levels (the paper's default keeps two).
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the spatial substrate.
    pub fn build(
        dataset: &GeoSocialDataset,
        landmarks: &LandmarkSet,
        branch: u32,
        levels: u32,
    ) -> Result<Self, CoreError> {
        // Expand the bounds marginally so boundary points stay strictly
        // inside and the index tolerates small location drifts.
        let bounds = dataset.bounds();
        let margin = (bounds.width().max(bounds.height()) * 1e-6).max(1e-9);
        let bounds = bounds.expanded(margin);
        let num_landmarks = landmarks.len();
        let mut index = AisIndex {
            grid: MultiLevelGrid::bulk_load(bounds, branch, levels, dataset.located_users())?,
            slots: IdMap::default(),
            summaries: Vec::new(),
            free_slots: Vec::new(),
            empty_summary: SocialSummary::empty(num_landmarks),
            scratch: SocialSummary::empty(num_landmarks),
            num_landmarks,
        };
        for top in index.grid.top_nodes() {
            index.enter_below(top, landmarks);
        }
        Ok(index)
    }

    /// Enters the users below `node` leaf by leaf in depth-first order, so
    /// that the summaries of siblings, which the search reads together, are
    /// allocated together.
    fn enter_below(&mut self, node: NodeId, landmarks: &LandmarkSet) {
        match self.grid.node_kind(node) {
            NodeKind::Internal => {
                for child in self.grid.children(node) {
                    self.enter_below(child, landmarks);
                }
            }
            NodeKind::Leaf => {
                for i in 0..self.grid.leaf_items(node).len() {
                    let user = self.grid.leaf_items(node)[i];
                    self.enter(node, landmarks.vector(user));
                }
            }
        }
    }

    /// The underlying multi-level grid; its leaf level
    /// ([`MultiLevelGrid::leaves`]) is the grid the SPA/TSA spatial search
    /// runs on.
    pub fn grid(&self) -> &MultiLevelGrid {
        &self.grid
    }

    /// Number of landmarks per summary.
    pub fn num_landmarks(&self) -> usize {
        self.num_landmarks
    }

    /// Number of grid nodes (across all levels) that currently hold at least
    /// one user below them and therefore carry a materialised summary.
    pub fn occupied_cells(&self) -> usize {
        self.slots.len()
    }

    /// Total number of grid nodes of the geometry, occupied or not.
    pub fn total_cells(&self) -> usize {
        self.grid.node_count() as usize
    }

    /// Approximate heap footprint of the index in bytes: the multi-level
    /// grid, the node→slot map and the summaries of **occupied** nodes only
    /// (unoccupied nodes share one empty summary).  The index aggregates
    /// *locations*, so it is per-shard state in a partitioned deployment —
    /// and these bytes scale with shard occupancy, not with the geometry.
    pub fn approx_heap_bytes(&self) -> usize {
        self.grid.approx_heap_bytes()
            + self.slots.capacity() * (std::mem::size_of::<(u32, u32)>() + 1)
            + self.summaries.capacity() * std::mem::size_of::<SocialSummary>()
            + self.free_slots.capacity() * std::mem::size_of::<u32>()
            + self
                .summaries
                .iter()
                .map(SocialSummary::approx_heap_bytes)
                .sum::<usize>()
            + self.empty_summary.approx_heap_bytes()
            + self.scratch.approx_heap_bytes()
    }

    /// The social summary of a node (the shared empty summary for nodes with
    /// no users below them).
    pub fn summary(&self, node: NodeId) -> &SocialSummary {
        match self.slots.get(&node.0) {
            Some(&slot) => &self.summaries[slot as usize],
            None => &self.empty_summary,
        }
    }

    /// The raw (unnormalized) social lower bound `p̌(v_q, C)` for a node.
    /// An unoccupied node gets `+∞` from the slot lookup alone, which is
    /// what the shared empty summary's bound evaluates to (every landmark
    /// vector has at least one entry, and `∞ − m_qj = m_qj − (−∞) = ∞`).
    pub fn social_lower_bound(&self, node: NodeId, query_vector: &[f64]) -> f64 {
        match self.slots.get(&node.0) {
            Some(&slot) => self.summaries[slot as usize].lower_bound(query_vector),
            None => f64::INFINITY,
        }
    }

    /// The raw spatial lower bound `ď(u_q, C)` for a node.
    pub fn spatial_lower_bound(&self, node: NodeId, query_location: Point) -> f64 {
        self.grid.node_min_distance(node, query_location)
    }

    /// Moves a user to a new location, maintaining leaf membership and the
    /// social summaries along the affected paths (the update procedure of
    /// §5.1: a move is a deletion from the old cell plus an insertion into
    /// the new one; see the maintenance rule on [`AisIndex`]).
    pub fn update_location(
        &mut self,
        user: UserId,
        location: Point,
        landmarks: &LandmarkSet,
    ) -> Result<(), CoreError> {
        if self.grid.leaves().position(user).is_some() {
            let (old_leaf, new_leaf) = self.grid.update(user, location)?;
            if old_leaf != new_leaf {
                self.leave(old_leaf, landmarks);
                self.enter(new_leaf, landmarks.vector(user));
            }
        } else {
            let leaf = self.grid.insert(user, location);
            self.enter(leaf, landmarks.vector(user));
        }
        Ok(())
    }

    /// Removes a user (e.g. one whose location became unknown), updating the
    /// summaries along its former path.
    pub fn remove_user(&mut self, user: UserId, landmarks: &LandmarkSet) -> Result<(), CoreError> {
        let leaf = self.grid.remove(user)?;
        self.leave(leaf, landmarks);
        Ok(())
    }

    /// Folds a landmark vector into `leaf` and its ancestors, stopping at
    /// the first node it does not widen.
    fn enter(&mut self, leaf: NodeId, vector: &[f64]) {
        let mut node = Some(leaf);
        while let Some(n) = node {
            if !self.widen(n, vector) {
                break;
            }
            node = self.grid.parent(n);
        }
    }

    /// Folds a landmark vector into one node's summary, materialising it if
    /// the node was unoccupied; returns whether the summary changed.
    fn widen(&mut self, node: NodeId, vector: &[f64]) -> bool {
        if let Some(&slot) = self.slots.get(&node.0) {
            return self.summaries[slot as usize].absorb_vector(vector);
        }
        let mut summary = SocialSummary::empty(self.num_landmarks);
        summary.absorb_vector(vector);
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.summaries[slot as usize] = summary;
                slot
            }
            None => {
                self.summaries.push(summary);
                (self.summaries.len() - 1) as u32
            }
        };
        self.slots.insert(node.0, slot);
        true
    }

    /// Restores the summaries above `leaf` after a user left it: recomputes
    /// the leaf from its remaining users, then each ancestor from its
    /// children while the node below released one of its bounds.
    fn leave(&mut self, leaf: NodeId, landmarks: &LandmarkSet) {
        let mut fresh = std::mem::replace(&mut self.scratch, SocialSummary::empty(0));
        fresh.clear();
        for &user in self.grid.leaf_items(leaf) {
            fresh.absorb_vector(landmarks.vector(user));
        }
        let mut node = leaf;
        loop {
            let old = self.summary(node);
            if fresh == *old {
                break;
            }
            let parent = self
                .grid
                .parent(node)
                .filter(|&p| old.releases_bound_of(&fresh, self.summary(p)));
            fresh = self.replace(node, fresh);
            let Some(parent) = parent else { break };
            fresh.clear();
            for child in self.grid.children(parent) {
                fresh.absorb_summary(self.summary(child));
            }
            node = parent;
        }
        self.scratch = fresh;
    }

    /// Replaces the summary of an occupied node, returning a spare buffer
    /// of the same length.  An empty summary releases the node's slot — a
    /// node that loses its last user goes back to answering through the
    /// shared empty summary and costs nothing.
    ///
    /// "Empty" is [`SocialSummary::is_empty`]'s no-vector-ever-absorbed test
    /// (`m̂ = −∞`), **not** `m̌ = +∞`: a cell whose users all sit at infinite
    /// landmark distance stays materialised, because its stored summary
    /// (`m̂ = +∞`) yields bound 0 for an equally unreachable query vertex
    /// where the shared empty summary would wrongly yield `∞`.
    fn replace(&mut self, node: NodeId, summary: SocialSummary) -> SocialSummary {
        let slot = self.slots[&node.0];
        if !summary.is_empty() {
            return std::mem::replace(&mut self.summaries[slot as usize], summary);
        }
        self.slots.remove(&node.0);
        // A zero-capacity stub frees the vacated slot's landmark vectors
        // immediately.
        self.summaries[slot as usize] = SocialSummary::empty(0);
        self.free_slots.push(slot);
        if self.slots.is_empty() {
            // The last occupied node vacated: release the slot machinery
            // outright so a fully drained index returns to its empty
            // footprint instead of keeping stub capacity.
            self.slots = IdMap::default();
            self.summaries = Vec::new();
            self.free_slots = Vec::new();
        }
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssrq_graph::{dijkstra_all, GraphBuilder, LandmarkSelection, SocialGraph};

    fn small_dataset() -> (GeoSocialDataset, LandmarkSet) {
        // A ring of 8 users with unit weights, located on a 3x3-ish layout.
        let graph: SocialGraph =
            GraphBuilder::from_edges(8, (0..8).map(|i| (i as u32, ((i + 1) % 8) as u32, 1.0)))
                .unwrap();
        let locations = vec![
            Some(Point::new(0.1, 0.1)),
            Some(Point::new(0.9, 0.1)),
            Some(Point::new(0.5, 0.5)),
            Some(Point::new(0.1, 0.9)),
            Some(Point::new(0.9, 0.9)),
            Some(Point::new(0.3, 0.7)),
            Some(Point::new(0.7, 0.3)),
            None,
        ];
        let landmarks = LandmarkSet::build(&graph, 2, LandmarkSelection::FarthestFirst, 7).unwrap();
        let dataset = GeoSocialDataset::new(graph, locations).unwrap();
        (dataset, landmarks)
    }

    #[test]
    fn summary_lower_bound_is_valid_for_every_cell() {
        let (dataset, landmarks) = small_dataset();
        let index = AisIndex::build(&dataset, &landmarks, 3, 2).unwrap();
        // For every query user and every node, the social lower bound must
        // not exceed the true distance to any user stored below the node.
        for q in 0..8u32 {
            let truth = dijkstra_all(dataset.graph(), q);
            let qvec: Vec<f64> = landmarks.vector(q).to_vec();
            for node_id in 0..index.grid().node_count() {
                let node = NodeId(node_id);
                let bound = index.social_lower_bound(node, &qvec);
                let mut users: Vec<UserId> = Vec::new();
                collect_users(&index, node, &mut users);
                for u in users {
                    assert!(
                        bound <= truth[u as usize] + 1e-9,
                        "node {node_id}: bound {bound} exceeds d({q},{u}) = {}",
                        truth[u as usize]
                    );
                }
            }
        }
    }

    fn collect_users(index: &AisIndex, node: NodeId, out: &mut Vec<UserId>) {
        match index.grid().node_kind(node) {
            NodeKind::Leaf => out.extend_from_slice(index.grid().leaf_items(node)),
            NodeKind::Internal => {
                for child in index.grid().children(node) {
                    collect_users(index, child, out);
                }
            }
        }
    }

    #[test]
    fn empty_cells_get_infinite_bound() {
        let (dataset, landmarks) = small_dataset();
        let index = AisIndex::build(&dataset, &landmarks, 4, 2).unwrap();
        let qvec: Vec<f64> = landmarks.vector(0).to_vec();
        let mut found_empty = false;
        for node_id in 0..index.grid().node_count() {
            let node = NodeId(node_id);
            if index.grid().node_kind(node) == NodeKind::Leaf
                && index.grid().leaf_items(node).is_empty()
            {
                found_empty = true;
                assert!(index.social_lower_bound(node, &qvec).is_infinite());
                assert!(index.summary(node).is_empty());
            }
        }
        assert!(found_empty, "expected at least one empty leaf cell");
    }

    #[test]
    fn internal_summaries_cover_children() {
        let (dataset, landmarks) = small_dataset();
        let index = AisIndex::build(&dataset, &landmarks, 3, 2).unwrap();
        for top in index.grid().top_nodes() {
            let parent = index.summary(top);
            for child in index.grid().children(top) {
                let child_summary = index.summary(child);
                for j in 0..index.num_landmarks() {
                    if !child_summary.is_empty() {
                        assert!(parent.min_distance(j) <= child_summary.min_distance(j));
                        assert!(parent.max_distance(j) >= child_summary.max_distance(j));
                    }
                }
            }
        }
    }

    #[test]
    fn paper_figure4_example_bound() {
        // Figure 4 of the paper: cell containing v3, v4, v5 with distances
        // 4, 3, 1 to the single landmark; the query vertex v1 is at distance
        // 0 from the landmark... the paper derives p̌ = 1 for a query at
        // landmark distance 0.  Reproduce with a hand-built summary.
        let mut summary = SocialSummary::empty(1);
        summary.absorb_vector(&[4.0]);
        summary.absorb_vector(&[3.0]);
        summary.absorb_vector(&[1.0]);
        assert_eq!(summary.min_distance(0), 1.0);
        assert_eq!(summary.max_distance(0), 4.0);
        assert_eq!(summary.lower_bound(&[0.0]), 1.0);
        // A query vertex between min and max yields no bound.
        assert_eq!(summary.lower_bound(&[2.0]), 0.0);
        // A query vertex beyond the max yields mqj - max.
        assert_eq!(summary.lower_bound(&[6.0]), 2.0);
    }

    #[test]
    fn location_update_maintains_summaries() {
        let (dataset, landmarks) = small_dataset();
        let mut index = AisIndex::build(&dataset, &landmarks, 3, 2).unwrap();
        // Move user 0 to the opposite corner and verify the summaries match
        // a freshly built index over the updated dataset.
        let mut moved = dataset.clone();
        moved.set_location(0, Some(Point::new(0.85, 0.85))).unwrap();
        index
            .update_location(0, Point::new(0.85, 0.85), &landmarks)
            .unwrap();
        let fresh = AisIndex::build(&moved, &landmarks, 3, 2).unwrap();
        for node_id in 0..index.grid().node_count() {
            let node = NodeId(node_id);
            assert_eq!(
                index.summary(node),
                fresh.summary(node),
                "summary mismatch at node {node_id}"
            );
        }
    }

    #[test]
    fn inserting_a_previously_unlocated_user_works() {
        let (dataset, landmarks) = small_dataset();
        let mut index = AisIndex::build(&dataset, &landmarks, 3, 2).unwrap();
        assert_eq!(index.grid().len(), 7);
        index
            .update_location(7, Point::new(0.2, 0.2), &landmarks)
            .unwrap();
        assert_eq!(index.grid().len(), 8);
        let leaf = index.grid().leaf_of(Point::new(0.2, 0.2));
        assert!(index.grid().leaf_items(leaf).contains(&7));
        index.remove_user(7, &landmarks).unwrap();
        assert_eq!(index.grid().len(), 7);
    }

    #[test]
    fn summaries_are_materialised_only_for_occupied_nodes() {
        let (dataset, landmarks) = small_dataset();
        let index = AisIndex::build(&dataset, &landmarks, 10, 2).unwrap();
        // 7 located users in a 100 + 10,000 node geometry: at most
        // 7 leaves + 7 level-0 parents can be occupied.
        assert_eq!(index.total_cells(), 10_100);
        assert!(index.occupied_cells() <= 14);
        // The footprint reflects occupancy, not geometry: far below the
        // ~2 MiB a dense summary-per-cell layout would cost here.
        assert!(index.approx_heap_bytes() < 16 * 1024);
    }

    #[test]
    fn fully_migrated_index_returns_to_empty_footprint() {
        let (dataset, landmarks) = small_dataset();
        let mut index = AisIndex::build(&dataset, &landmarks, 10, 2).unwrap();
        assert!(index.occupied_cells() > 0);
        // Migrate every resident away (the shard-drain scenario).
        for u in 0..7u32 {
            index.remove_user(u, &landmarks).unwrap();
        }
        assert_eq!(index.grid().len(), 0);
        assert_eq!(index.occupied_cells(), 0);
        // Every node now answers through the shared empty summary.
        let qvec: Vec<f64> = landmarks.vector(0).to_vec();
        for node_id in 0..index.grid().node_count() {
            assert!(index
                .social_lower_bound(NodeId(node_id), &qvec)
                .is_infinite());
        }
        assert!(index.approx_heap_bytes() < 16 * 1024);
        // Cells re-occupy correctly after a drain: slots are recycled.
        index
            .update_location(3, Point::new(0.4, 0.4), &landmarks)
            .unwrap();
        assert!(index.occupied_cells() > 0);
        let leaf = index.grid().leaf_of(Point::new(0.4, 0.4));
        assert!(!index.summary(leaf).is_empty());
    }

    #[test]
    fn landmark_unreachable_cells_stay_materialised_with_zero_bound() {
        // Two components: {0, 1} holds the landmarks, {2, 3} is unreachable
        // from them, so vertices 2 and 3 have all-infinite landmark vectors.
        // The cell storing them must NOT be treated as empty: for a query
        // vertex that also cannot reach the landmarks (vertex 2 querying
        // towards 3) the bound must be 0 (no information), never infinite —
        // an infinite bound would wrongly prune a reachable candidate.
        let graph: SocialGraph =
            GraphBuilder::from_edges(4, vec![(0, 1, 1.0), (2, 3, 1.0)]).unwrap();
        let landmarks = LandmarkSet::build(&graph, 2, LandmarkSelection::FarthestFirst, 1).unwrap();
        let locations = vec![
            Some(Point::new(0.1, 0.1)),
            Some(Point::new(0.2, 0.2)),
            Some(Point::new(0.8, 0.8)),
            Some(Point::new(0.85, 0.85)),
        ];
        let dataset = GeoSocialDataset::new(graph, locations).unwrap();
        let index = AisIndex::build(&dataset, &landmarks, 4, 2).unwrap();
        // Landmarks live in one component; at least one of vertices 2/3 has
        // an all-infinite vector exactly when the landmarks are in {0, 1}.
        let far_vec: Vec<f64> = landmarks.vector(2).to_vec();
        if far_vec.iter().all(|d| d.is_infinite()) {
            let leaf = index.grid().leaf_of(Point::new(0.85, 0.85));
            assert!(!index.summary(leaf).is_empty());
            // Unreachable query vertex: no landmark information, bound 0.
            assert_eq!(index.social_lower_bound(leaf, &far_vec), 0.0);
            // Reachable query vertex: the cell is provably in another
            // component, so an infinite bound is correct there.
            let near_vec: Vec<f64> = landmarks.vector(0).to_vec();
            assert!(index.social_lower_bound(leaf, &near_vec).is_infinite());
        }
    }

    #[test]
    fn spatial_lower_bound_is_zero_inside_the_cell() {
        let (dataset, landmarks) = small_dataset();
        let index = AisIndex::build(&dataset, &landmarks, 3, 2).unwrap();
        let q = Point::new(0.5, 0.5);
        let leaf = index.grid().leaf_of(q);
        assert_eq!(index.spatial_lower_bound(leaf, q), 0.0);
    }
}
