use crate::grid::open_boundary_sides;
use crate::{CellCoord, ItemId, Point, Rect, SpatialError, UniformGrid};

/// Identifier of a node (internal node or leaf cell) of a
/// [`MultiLevelGrid`].  Node ids are dense and can be used to index parallel
/// per-node arrays (the AIS index keeps its social summaries this way).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// The kind of a multi-level grid node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// An internal node: parent to `s × s` nodes of the next lower level.
    Internal,
    /// A leaf cell: holds the actual items.
    Leaf,
}

/// A multi-level regular grid, the spatial skeleton of the AIS index
/// (§5.1 of the paper).
///
/// Every node of level `l` is parent to `s × s` nodes of level `l + 1`
/// (`s` is the *partitioning granularity*).  The top level has `s × s`
/// nodes, so level `l` has `s^(l+1)` cells per axis.  Only the lowest level
/// stores items; the structure "does not necessarily have a root" — the
/// search starts from all top-level nodes (the paper keeps the lowest two
/// levels of a three-level hierarchy, which is the default here:
/// `levels = 2`).
///
/// The lowest level *is* a [`UniformGrid`] of `s^levels` cells per axis
/// ([`MultiLevelGrid::leaves`]): it holds every item, its position and its
/// cell bucket, and the same grid serves the SPA/TSA nearest-neighbour
/// search (§4.1).  The internal levels are pure geometry.  A leaf's
/// [`NodeId`] is the leaf level's offset plus the row-major index of its
/// [`CellCoord`].
///
/// Items are stored at the point the caller gives, even outside the
/// bounds; a point is clamped into the bounds only to choose its leaf.  A
/// boundary cell can therefore hold items beyond its rectangle, so
/// [`MultiLevelGrid::node_min_distance`] opens each side of a node that
/// lies on the grid boundary out to infinity.
#[derive(Debug, Clone)]
pub struct MultiLevelGrid {
    branch: u32,
    levels: u32,
    /// Cells per axis for each level (index 0 = top level).
    level_sides: Vec<u32>,
    /// First flat node id of each level.
    level_offsets: Vec<u32>,
    total_nodes: u32,
    /// The lowest level, which holds the items.
    leaves: UniformGrid,
}

/// Hard cap on the total number of nodes, to protect against accidental
/// `branch`/`levels` combinations that would exhaust memory.
const MAX_NODES: u64 = 8_000_000;

impl MultiLevelGrid {
    /// Creates an empty multi-level grid.
    ///
    /// * `branch` — the partitioning granularity `s` (children per axis).
    /// * `levels` — number of retained levels (≥ 1); the paper's default
    ///   configuration corresponds to `levels = 2`.
    ///
    /// # Errors
    ///
    /// Returns [`SpatialError::InvalidConfiguration`] for zero `branch` or
    /// `levels`, degenerate bounds, or a configuration that would exceed the
    /// internal node cap.
    pub fn new(bounds: Rect, branch: u32, levels: u32) -> Result<Self, SpatialError> {
        if branch == 0 {
            return Err(SpatialError::InvalidConfiguration(
                "branch factor s must be at least 1".into(),
            ));
        }
        if levels == 0 {
            return Err(SpatialError::InvalidConfiguration(
                "a multi-level grid needs at least one level".into(),
            ));
        }
        let mut level_sides = Vec::with_capacity(levels as usize);
        let mut level_offsets = Vec::with_capacity(levels as usize);
        let mut total: u64 = 0;
        let mut side: u64 = 1;
        for _ in 0..levels {
            side = side.saturating_mul(branch as u64);
            level_offsets.push(total as u32);
            level_sides.push(side as u32);
            total += side * side;
            if total > MAX_NODES || side > u32::MAX as u64 {
                return Err(SpatialError::InvalidConfiguration(format!(
                    "branch={branch}, levels={levels} would create more than {MAX_NODES} nodes"
                )));
            }
        }
        Ok(MultiLevelGrid {
            branch,
            levels,
            leaves: UniformGrid::new(bounds, side as u32)?,
            level_sides,
            level_offsets,
            total_nodes: total as u32,
        })
    }

    /// Builds a multi-level grid from `(id, point)` pairs.
    pub fn bulk_load(
        bounds: Rect,
        branch: u32,
        levels: u32,
        items: impl IntoIterator<Item = (ItemId, Point)>,
    ) -> Result<Self, SpatialError> {
        let mut grid = MultiLevelGrid::new(bounds, branch, levels)?;
        for (id, p) in items {
            grid.insert(id, p);
        }
        Ok(grid)
    }

    /// The lowest level: the single-level grid that holds the items.
    pub fn leaves(&self) -> &UniformGrid {
        &self.leaves
    }

    /// Bounding rectangle covered by the grid.
    pub fn bounds(&self) -> Rect {
        self.leaves.bounds()
    }

    /// Partitioning granularity `s`.
    pub fn branch(&self) -> u32 {
        self.branch
    }

    /// Number of levels.
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Total number of nodes across all levels.
    pub fn node_count(&self) -> u32 {
        self.total_nodes
    }

    /// Number of stored items.
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// Returns `true` when no item is stored.
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// Total number of leaf cells of the geometry (occupied or not).
    pub fn leaf_cell_count(&self) -> usize {
        let side = self.leaves.side() as usize;
        side * side
    }

    /// Approximate heap footprint of the grid structure in bytes (per-level
    /// tables and the leaf grid).  Scales with the number of stored items,
    /// not with the cell count.
    pub fn approx_heap_bytes(&self) -> usize {
        self.level_sides.capacity() * std::mem::size_of::<u32>()
            + self.level_offsets.capacity() * std::mem::size_of::<u32>()
            + self.leaves.approx_heap_bytes()
    }

    /// The level (0 = top) a node belongs to.
    pub fn node_level(&self, node: NodeId) -> u32 {
        debug_assert!(node.0 < self.total_nodes);
        let mut level = self.levels - 1;
        for (l, &off) in self.level_offsets.iter().enumerate().skip(1) {
            if node.0 < off {
                level = l as u32 - 1;
                break;
            }
        }
        level
    }

    /// Whether a node is internal or a leaf cell.
    pub fn node_kind(&self, node: NodeId) -> NodeKind {
        if self.node_level(node) == self.levels - 1 {
            NodeKind::Leaf
        } else {
            NodeKind::Internal
        }
    }

    /// The node's level, the cells per axis of that level, and the node's
    /// column and row in it.
    fn cell(&self, node: NodeId) -> (usize, u32, u32, u32) {
        let level = self.node_level(node) as usize;
        let side = self.level_sides[level];
        let local = node.0 - self.level_offsets[level];
        (level, side, local % side, local / side)
    }

    /// Extent of cell `(cx, cy)` of a level with `side` cells per axis.
    fn cell_rect(&self, side: u32, cx: u32, cy: u32) -> Rect {
        let bounds = self.bounds();
        let w = bounds.width() / side as f64;
        let h = bounds.height() / side as f64;
        let x0 = bounds.min.x + cx as f64 * w;
        let y0 = bounds.min.y + cy as f64 * h;
        Rect::new(Point::new(x0, y0), Point::new(x0 + w, y0 + h))
    }

    /// A lower bound on the distance from `point` to every item stored
    /// below `node`: the distance to the node's rectangle, with each side
    /// on the grid boundary opened out to infinity (items outside the
    /// bounds are stored in the boundary cells).
    pub fn node_min_distance(&self, node: NodeId, point: Point) -> f64 {
        let (_, side, cx, cy) = self.cell(node);
        open_boundary_sides(self.cell_rect(side, cx, cy), side, cx, cy).min_distance(point)
    }

    /// Iterates over the nodes of the top (coarsest) level — the entry point
    /// of the AIS branch-and-bound search.
    pub fn top_nodes(&self) -> impl Iterator<Item = NodeId> {
        let side = self.level_sides[0] as u64;
        (0..side * side).map(|i| NodeId(i as u32))
    }

    /// Iterates over the children of an internal node (its `s × s` cells of
    /// the next lower level) in row-major order.  The AIS search pushes
    /// children in this order and breaks equal keys by push order, so the
    /// order is part of the contract.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `node` is a leaf.
    pub fn children(&self, node: NodeId) -> impl Iterator<Item = NodeId> {
        let (level, _, cx, cy) = self.cell(node);
        debug_assert!(
            level + 1 < self.levels as usize,
            "leaf nodes have no children (node {node:?})"
        );
        let branch = self.branch;
        let child_side = self.level_sides[level + 1];
        let first = self.level_offsets[level + 1] + cy * branch * child_side + cx * branch;
        (0..branch).flat_map(move |dy| {
            let row = first + dy * child_side;
            (row..row + branch).map(NodeId)
        })
    }

    /// Parent node of `node`; `None` for top-level nodes.
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        let level = self.node_level(node);
        if level == 0 {
            return None;
        }
        let side = self.level_sides[level as usize];
        let local = node.0 - self.level_offsets[level as usize];
        let cx = (local % side) / self.branch;
        let cy = (local / side) / self.branch;
        let parent_side = self.level_sides[(level - 1) as usize];
        Some(NodeId(
            self.level_offsets[(level - 1) as usize] + cy * parent_side + cx,
        ))
    }

    /// Items stored in a leaf cell.
    ///
    /// Returns an empty slice for internal nodes.
    pub fn leaf_items(&self, node: NodeId) -> &[ItemId] {
        match node.0.checked_sub(self.leaf_offset()) {
            Some(local) => self.leaves.items_at(local as u64),
            None => &[],
        }
    }

    /// First node id of the leaf level (the last level).
    fn leaf_offset(&self) -> u32 {
        *self.level_offsets.last().expect("levels >= 1")
    }

    /// The leaf node of a cell of the leaf grid.
    fn leaf_node(&self, cell: CellCoord) -> NodeId {
        NodeId(self.leaf_offset() + self.leaves.cell_index(cell) as u32)
    }

    /// The leaf cell `point` is stored in: the one containing it, or for a
    /// point outside the bounds, the one containing its clamped image.
    pub fn leaf_of(&self, point: Point) -> NodeId {
        self.leaf_node(self.leaves.cell_of(point))
    }

    /// Inserts `id` at `point` (or moves it there if already present).
    /// Returns the leaf cell the item now belongs to.
    pub fn insert(&mut self, id: ItemId, point: Point) -> NodeId {
        let cell = self.leaves.insert(id, point);
        self.leaf_node(cell)
    }

    /// Removes `id`, returning the leaf cell it was stored in.
    ///
    /// # Errors
    ///
    /// Returns [`SpatialError::UnknownItem`] if the item is not stored.
    pub fn remove(&mut self, id: ItemId) -> Result<NodeId, SpatialError> {
        let point = self.leaves.remove(id)?;
        Ok(self.leaf_of(point))
    }

    /// Moves `id` to `point`; returns `(old_leaf, new_leaf)` so callers can
    /// maintain per-node aggregates (the AIS index touches social
    /// summaries only when these differ).
    ///
    /// # Errors
    ///
    /// Returns [`SpatialError::UnknownItem`] if the item is not stored.
    pub fn update(&mut self, id: ItemId, point: Point) -> Result<(NodeId, NodeId), SpatialError> {
        let (old, new) = self.leaves.update(id, point)?;
        Ok((self.leaf_node(old), self.leaf_node(new)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(branch: u32, levels: u32) -> MultiLevelGrid {
        MultiLevelGrid::new(Rect::unit(), branch, levels).unwrap()
    }

    /// Spatial extent of a node.
    fn extent(g: &MultiLevelGrid, node: NodeId) -> Rect {
        let (_, side, cx, cy) = g.cell(node);
        g.cell_rect(side, cx, cy)
    }

    #[test]
    fn rejects_invalid_configurations() {
        assert!(MultiLevelGrid::new(Rect::unit(), 0, 2).is_err());
        assert!(MultiLevelGrid::new(Rect::unit(), 4, 0).is_err());
        assert!(MultiLevelGrid::new(Rect::unit(), 100, 4).is_err());
        let degenerate = Rect::new(Point::new(0.0, 0.0), Point::new(0.0, 1.0));
        assert!(MultiLevelGrid::new(degenerate, 4, 2).is_err());
    }

    #[test]
    fn node_counts_follow_geometry() {
        let g = grid(3, 2);
        // level 0: 3x3 = 9, level 1: 9x9 = 81.
        assert_eq!(g.node_count(), 90);
        assert_eq!(g.top_nodes().count(), 9);
    }

    #[test]
    fn levels_and_kinds() {
        let g = grid(2, 3);
        // sides: 2, 4, 8 -> offsets 0, 4, 20 -> total 84
        assert_eq!(g.node_count(), 4 + 16 + 64);
        assert_eq!(g.node_level(NodeId(0)), 0);
        assert_eq!(g.node_level(NodeId(3)), 0);
        assert_eq!(g.node_level(NodeId(4)), 1);
        assert_eq!(g.node_level(NodeId(19)), 1);
        assert_eq!(g.node_level(NodeId(20)), 2);
        assert_eq!(g.node_kind(NodeId(0)), NodeKind::Internal);
        assert_eq!(g.node_kind(NodeId(25)), NodeKind::Leaf);
    }

    #[test]
    fn children_tile_the_parent() {
        let g = grid(3, 2);
        for top in g.top_nodes() {
            let parent_rect = extent(&g, top);
            let children: Vec<NodeId> = g.children(top).collect();
            assert_eq!(children.len(), 9);
            let covered: f64 = children
                .iter()
                .map(|&c| extent(&g, c).width() * extent(&g, c).height())
                .sum();
            assert!((covered - parent_rect.width() * parent_rect.height()).abs() < 1e-9);
            for c in children {
                let r = extent(&g, c);
                assert!(parent_rect.contains(r.center()));
                assert_eq!(g.parent(c), Some(top));
            }
        }
    }

    #[test]
    fn parent_of_top_is_none() {
        let g = grid(4, 2);
        assert_eq!(g.parent(NodeId(0)), None);
    }

    #[test]
    fn leaf_of_agrees_with_rect_containment() {
        let g = grid(5, 2);
        for &p in &[
            Point::new(0.01, 0.01),
            Point::new(0.99, 0.99),
            Point::new(0.5, 0.25),
            Point::new(1.0, 1.0),
        ] {
            let leaf = g.leaf_of(p);
            assert_eq!(g.node_kind(leaf), NodeKind::Leaf);
            assert!(extent(&g, leaf).contains(p));
        }
    }

    #[test]
    fn insert_remove_update_cycle() {
        let mut g = grid(4, 2);
        let leaf_a = g.insert(7, Point::new(0.1, 0.1));
        assert_eq!(g.len(), 1);
        assert_eq!(g.leaf_items(leaf_a), &[7]);

        let (old, new) = g.update(7, Point::new(0.9, 0.9)).unwrap();
        assert_eq!(old, leaf_a);
        assert_ne!(old, new);
        assert!(g.leaf_items(old).is_empty());
        assert_eq!(g.leaf_items(new), &[7]);

        let removed_from = g.remove(7).unwrap();
        assert_eq!(removed_from, new);
        assert!(g.is_empty());
        assert!(matches!(g.remove(7), Err(SpatialError::UnknownItem(7))));
    }

    #[test]
    fn reinsert_acts_as_update() {
        let mut g = grid(4, 2);
        g.insert(1, Point::new(0.1, 0.1));
        let leaf = g.insert(1, Point::new(0.8, 0.8));
        assert_eq!(g.len(), 1);
        assert_eq!(g.leaf_items(leaf), &[1]);
    }

    #[test]
    fn children_are_row_major() {
        // The AIS search breaks equal keys by push order, so every `=` work
        // counter depends on this order.
        let (branch, g) = (3, grid(3, 3));
        let sides = [3, 9, 27];
        let offsets = [0, 9, 90];
        for level in 0..2 {
            let side = sides[level];
            for local in 0..side * side {
                let node = NodeId(offsets[level] + local);
                let (cx, cy) = (local % side, local / side);
                let mut expected = Vec::new();
                for dy in 0..branch {
                    for dx in 0..branch {
                        let child = (cy * branch + dy) * sides[level + 1] + cx * branch + dx;
                        expected.push(NodeId(offsets[level + 1] + child));
                    }
                }
                assert_eq!(g.children(node).collect::<Vec<_>>(), expected);
            }
        }
    }

    #[test]
    fn parent_chain_reaches_top() {
        let g = grid(3, 3);
        let leaf = g.leaf_of(Point::new(0.4, 0.6));
        let chain: Vec<NodeId> = std::iter::successors(Some(leaf), |&n| g.parent(n)).collect();
        assert_eq!(chain.len(), 3);
        assert_eq!(g.node_level(chain[0]), 2);
        assert_eq!(g.node_level(chain[1]), 1);
        assert_eq!(g.node_level(chain[2]), 0);
        // Every ancestor's rect contains the leaf's centre.
        let c = extent(&g, leaf).center();
        for n in chain {
            assert!(extent(&g, n).contains(c));
        }
    }

    #[test]
    fn bulk_load_distributes_items() {
        let pts: Vec<(ItemId, Point)> = (0..100)
            .map(|i| {
                (
                    i,
                    Point::new((i % 10) as f64 / 10.0 + 0.05, (i / 10) as f64 / 10.0 + 0.05),
                )
            })
            .collect();
        let g = MultiLevelGrid::bulk_load(Rect::unit(), 5, 2, pts).unwrap();
        assert_eq!(g.len(), 100);
        let total: usize = g
            .top_nodes()
            .flat_map(|n| g.children(n))
            .map(|c| g.leaf_items(c).len())
            .sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn empty_cells_cost_nothing() {
        let mut g = grid(10, 2);
        assert_eq!(g.leaf_cell_count(), 10_000);
        assert_eq!(g.leaves.occupied_cell_coords().count(), 0);
        // An empty grid's footprint is bounded by its per-level tables, not
        // by its 10k leaf cells.
        assert!(g.approx_heap_bytes() < 1024);
        g.insert(5, Point::new(0.55, 0.55));
        assert_eq!(g.leaves.occupied_cell_coords().count(), 1);
        // Vacating the only occupied cell drops its bucket again.
        g.remove(5).unwrap();
        assert_eq!(g.leaves.occupied_cell_coords().count(), 0);
        assert!(g.leaves.iter().next().is_none());
    }

    #[test]
    fn moving_the_last_item_vacates_the_old_cell() {
        let mut g = grid(4, 2);
        g.insert(1, Point::new(0.1, 0.1));
        g.insert(2, Point::new(0.1, 0.12));
        assert_eq!(g.leaves.occupied_cell_coords().count(), 1);
        g.update(1, Point::new(0.9, 0.9)).unwrap();
        assert_eq!(g.leaves.occupied_cell_coords().count(), 2);
        g.update(2, Point::new(0.9, 0.92)).unwrap();
        assert_eq!(g.leaves.occupied_cell_coords().count(), 1);
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn out_of_bounds_items_keep_their_point_and_a_valid_bound() {
        let mut g = grid(4, 2);
        let outside = Point::new(1.5, 2.0);
        let leaf = g.insert(3, outside);
        assert_eq!(g.leaves.position(3), Some(outside));
        assert_eq!(leaf, g.leaf_of(Point::new(1.0, 1.0)));
        // Neither the leaf nor its parent may bound the item away from a
        // query beside it, also outside the bounds.
        let query = Point::new(1.5, 1.9);
        let truth = outside.distance(query);
        for node in [leaf, g.parent(leaf).unwrap()] {
            assert!(extent(&g, node).min_distance(query) > truth);
            assert!(g.node_min_distance(node, query) <= truth);
        }
        // Inside the bounds the opened bound is the rectangle's.
        let inner = Point::new(0.3, 0.6);
        for node in 0..g.node_count() {
            let node = NodeId(node);
            assert_eq!(
                g.node_min_distance(node, inner),
                extent(&g, node).min_distance(inner)
            );
        }
        // Moving back inside and removing find the item where it is stored.
        let (old, new) = g.update(3, Point::new(0.1, 0.1)).unwrap();
        assert_eq!(old, leaf);
        assert_eq!(g.remove(3).unwrap(), new);
    }

    #[test]
    fn leaf_ids_name_the_leaf_grid_cell_that_holds_the_item() {
        let mut g = grid(3, 2);
        assert_eq!(g.leaves().side(), 9);
        let holds = |g: &MultiLevelGrid, leaf: NodeId, point: Point, id: ItemId| {
            assert_eq!(leaf, g.leaf_of(point));
            let cell = g.leaves().cell_of(point);
            assert!(g.leaves().cell_items(cell).contains(&id));
            assert_eq!(g.leaf_items(leaf), g.leaves().cell_items(cell));
        };
        let points = [
            Point::new(0.05, 0.05),
            Point::new(0.5, 0.95),
            Point::new(1.0, 0.0),
            Point::new(-0.5, 0.4),
            Point::new(1.7, 2.5),
        ];
        for (id, &p) in points.iter().enumerate() {
            let leaf = g.insert(id as ItemId, p);
            holds(&g, leaf, p, id as ItemId);
        }
        for (id, &p) in points.iter().rev().enumerate() {
            let (old, new) = g.update(id as ItemId, p).unwrap();
            assert_eq!(old, g.leaf_of(points[id]));
            holds(&g, new, p, id as ItemId);
        }
        let moved = Point::new(0.3, -4.0);
        let leaf = g.insert(0, moved);
        holds(&g, leaf, moved, 0);
        for id in 0..points.len() as ItemId {
            let p = g.leaves().position(id).unwrap();
            let cell = g.leaves().cell_of(p);
            assert_eq!(g.remove(id).unwrap(), g.leaf_of(p));
            assert!(!g.leaves().cell_items(cell).contains(&id));
        }
        assert!(g.is_empty());
    }

    #[test]
    fn single_level_grid_is_all_leaves() {
        let g = grid(4, 1);
        assert_eq!(g.node_count(), 16);
        for n in g.top_nodes() {
            assert_eq!(g.node_kind(n), NodeKind::Leaf);
        }
    }
}
