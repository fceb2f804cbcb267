use crate::{IdMap, ItemId, Point, Rect, SpatialError};
use std::collections::HashMap;

/// Coordinates of a grid cell (column, row), both zero-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellCoord {
    /// Column index (along x).
    pub cx: u32,
    /// Row index (along y).
    pub cy: u32,
}

impl CellCoord {
    /// Creates a new cell coordinate.
    pub const fn new(cx: u32, cy: u32) -> Self {
        CellCoord { cx, cy }
    }
}

/// A single-level regular grid over a bounding rectangle.
///
/// This is the index used by the Spatial First Approach (SPA) and the
/// spatial search of TSA (§4.1): the paper picks a regular grid with
/// branch-and-bound NN retrieval as "the most suitable \[combination\] for
/// dynamic spatial data kept in main memory".  Location updates are O(1)
/// amortized: remove the item from its old cell, append it to the new one.
/// It is also the lowest level of a [`MultiLevelGrid`](crate::MultiLevelGrid)
/// ([`leaves`](crate::MultiLevelGrid::leaves)), so one grid serves SPA, TSA
/// and AIS.
///
/// Both per-cell buckets and the position table are stored sparsely, so the
/// grid's heap footprint scales with the number of stored items rather than
/// with the `side × side` geometry or the largest item id.  A shard holding
/// few (or no) residents of a large deployment pays only for what it stores.
/// Both maps are [`IdMap`]s: their keys are item ids the caller validated
/// and cell indices below `side²`, so they hash with the fixed
/// [`IdHasher`](crate::IdHasher), not SipHash.
///
/// Items are stored at the point the caller gives, even outside the
/// bounds; a point is clamped into the bounds only to choose its cell.  A
/// boundary cell can therefore hold items beyond its rectangle, so the
/// search bound of a cell ([`IncrementalNn`](crate::IncrementalNn)'s key)
/// opens each side that lies on the grid boundary out to infinity.
#[derive(Debug, Clone)]
pub struct UniformGrid {
    bounds: Rect,
    side: u32,
    cell_w: f64,
    cell_h: f64,
    /// Items of each **occupied** cell, keyed by flat cell index.  Empty
    /// cells have no entry; buckets are removed as they empty.
    cells: IdMap<u64, Vec<ItemId>>,
    /// Position of each stored item.  Sparse: ids are global in a
    /// partitioned deployment, and a thin shard must not pay for a dense
    /// table up to the maximum resident id.
    positions: IdMap<ItemId, Point>,
}

impl UniformGrid {
    /// Creates an empty grid with `side × side` cells covering `bounds`.
    ///
    /// # Errors
    ///
    /// Returns [`SpatialError::InvalidConfiguration`] if `side` is zero, the
    /// bounds are degenerate (zero width or height) or not finite.
    pub fn new(bounds: Rect, side: u32) -> Result<Self, SpatialError> {
        if side == 0 {
            return Err(SpatialError::InvalidConfiguration(
                "grid side must be at least 1".into(),
            ));
        }
        if !(bounds.min.is_finite() && bounds.max.is_finite()) {
            return Err(SpatialError::InvalidConfiguration(
                "grid bounds must be finite".into(),
            ));
        }
        if bounds.width() <= 0.0 || bounds.height() <= 0.0 {
            return Err(SpatialError::InvalidConfiguration(
                "grid bounds must have positive width and height".into(),
            ));
        }
        Ok(UniformGrid {
            bounds,
            side,
            cell_w: bounds.width() / side as f64,
            cell_h: bounds.height() / side as f64,
            cells: IdMap::default(),
            positions: IdMap::default(),
        })
    }

    /// Builds a grid from an iterator of `(id, point)` pairs.
    pub fn bulk_load(
        bounds: Rect,
        side: u32,
        items: impl IntoIterator<Item = (ItemId, Point)>,
    ) -> Result<Self, SpatialError> {
        let mut grid = UniformGrid::new(bounds, side)?;
        for (id, p) in items {
            grid.insert(id, p);
        }
        Ok(grid)
    }

    /// Bounding rectangle covered by the grid.
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// Number of cells per axis.
    pub fn side(&self) -> u32 {
        self.side
    }

    /// Number of items currently stored.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Returns `true` when no item is stored.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Current position of `id`, if it is stored in the grid.
    pub fn position(&self, id: ItemId) -> Option<Point> {
        self.positions.get(&id).copied()
    }

    /// Approximate heap footprint of the grid in bytes (cell buckets plus
    /// the sparse position table).  The grid indexes *locations*, so in a
    /// partitioned deployment it is per-shard state — unlike the graph-only
    /// indexes, which are shared.
    pub fn approx_heap_bytes(&self) -> usize {
        hash_map_heap_bytes(&self.cells)
            + self
                .cells
                .values()
                .map(|c| c.capacity() * std::mem::size_of::<ItemId>())
                .sum::<usize>()
            + hash_map_heap_bytes(&self.positions)
    }

    /// Inserts `id` at `point`, or moves it there if it is already stored.
    /// Returns the cell the item now belongs to.
    pub fn insert(&mut self, id: ItemId, point: Point) -> CellCoord {
        if self.position(id).is_some() {
            // Re-insertion acts as an update.
            let (_, cell) = self.update(id, point).expect("item verified present");
            return cell;
        }
        let cell = self.cell_of(point);
        self.cells
            .entry(self.cell_index(cell))
            .or_default()
            .push(id);
        self.positions.insert(id, point);
        cell
    }

    /// Removes `id` from the grid.
    ///
    /// # Errors
    ///
    /// Returns [`SpatialError::UnknownItem`] if the item is not stored.
    pub fn remove(&mut self, id: ItemId) -> Result<Point, SpatialError> {
        let point = self.position(id).ok_or(SpatialError::UnknownItem(id))?;
        let idx = self.cell_index(self.cell_of(point));
        self.remove_from_bucket(idx, id);
        self.positions.remove(&id);
        if self.positions.is_empty() {
            // A fully drained grid (e.g. a shard whose residents were all
            // migrated away) must genuinely return to its empty footprint,
            // not keep the old capacity around.
            self.cells = IdMap::default();
            self.positions = IdMap::default();
        }
        Ok(point)
    }

    /// Removes `id` from an occupied cell bucket, dropping the bucket
    /// entirely when it empties (vacated cells go back to costing nothing).
    fn remove_from_bucket(&mut self, idx: u64, id: ItemId) {
        if let Some(cell) = self.cells.get_mut(&idx) {
            if let Some(pos) = cell.iter().position(|&x| x == id) {
                cell.swap_remove(pos);
            }
            if cell.is_empty() {
                self.cells.remove(&idx);
            }
        }
    }

    /// Moves `id` to `point`, updating cell membership only when the item
    /// crosses a cell boundary (as the paper notes, an intra-cell move needs
    /// no index maintenance).
    ///
    /// Returns the pair `(old_cell, new_cell)` so callers (such as the AIS
    /// index) can maintain per-cell aggregates.
    ///
    /// # Errors
    ///
    /// Returns [`SpatialError::UnknownItem`] if the item is not stored.
    pub fn update(
        &mut self,
        id: ItemId,
        point: Point,
    ) -> Result<(CellCoord, CellCoord), SpatialError> {
        let old = self.position(id).ok_or(SpatialError::UnknownItem(id))?;
        let old_cell = self.cell_of(old);
        let new_cell = self.cell_of(point);
        if old_cell != new_cell {
            let old_idx = self.cell_index(old_cell);
            self.remove_from_bucket(old_idx, id);
            let new_idx = self.cell_index(new_cell);
            self.cells.entry(new_idx).or_default().push(id);
        }
        self.positions.insert(id, point);
        Ok((old_cell, new_cell))
    }

    /// The cell `point` is stored in: the one containing it, or for a point
    /// outside the bounds, the one containing its clamped image.
    pub fn cell_of(&self, point: Point) -> CellCoord {
        let p = self.clamp(point);
        let cx = ((p.x - self.bounds.min.x) / self.cell_w) as u32;
        let cy = ((p.y - self.bounds.min.y) / self.cell_h) as u32;
        CellCoord::new(cx.min(self.side - 1), cy.min(self.side - 1))
    }

    /// Spatial extent of a cell.
    pub fn cell_rect(&self, cell: CellCoord) -> Rect {
        let x0 = self.bounds.min.x + cell.cx as f64 * self.cell_w;
        let y0 = self.bounds.min.y + cell.cy as f64 * self.cell_h;
        Rect::new(
            Point::new(x0, y0),
            Point::new(x0 + self.cell_w, y0 + self.cell_h),
        )
    }

    /// A lower bound on the distance from `point` to every item stored in
    /// `cell`: the distance to the cell's rectangle, with each side on the
    /// grid boundary opened out to infinity.
    pub(crate) fn cell_min_distance(&self, cell: CellCoord, point: Point) -> f64 {
        open_boundary_sides(self.cell_rect(cell), self.side, cell.cx, cell.cy).min_distance(point)
    }

    /// Items stored in a cell (empty slice for an unoccupied cell).
    pub fn cell_items(&self, cell: CellCoord) -> &[ItemId] {
        self.items_at(self.cell_index(cell))
    }

    /// Items stored in the cell with row-major index `index`.
    pub(crate) fn items_at(&self, index: u64) -> &[ItemId] {
        self.cells.get(&index).map_or(&[], Vec::as_slice)
    }

    /// Coordinates of the cells that currently hold at least one item, in
    /// unspecified order.  Searches that seed from the occupied cells (such
    /// as [`crate::IncrementalNn`]) stay proportional to occupancy instead
    /// of scanning the whole `side × side` geometry.
    pub fn occupied_cell_coords(&self) -> impl Iterator<Item = CellCoord> + '_ {
        let side = self.side as u64;
        self.cells
            .keys()
            .map(move |&idx| CellCoord::new((idx % side) as u32, (idx / side) as u32))
    }

    /// Iterates over all `(id, point)` pairs stored in the grid, in
    /// unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (ItemId, Point)> + '_ {
        self.positions.iter().map(|(&id, &p)| (id, p))
    }

    /// All items whose position lies inside `range` (boundary inclusive).
    pub fn range_query(&self, range: Rect) -> Vec<ItemId> {
        let mut out = Vec::new();
        let lo = self.cell_of(range.min);
        let hi = self.cell_of(range.max);
        for cy in lo.cy..=hi.cy {
            for cx in lo.cx..=hi.cx {
                for &id in self.cell_items(CellCoord::new(cx, cy)) {
                    let p = self.positions[&id];
                    if range.contains(p) {
                        out.push(id);
                    }
                }
            }
        }
        out
    }

    pub(crate) fn cell_index(&self, cell: CellCoord) -> u64 {
        cell.cy as u64 * self.side as u64 + cell.cx as u64
    }

    fn clamp(&self, p: Point) -> Point {
        Point::new(
            p.x.clamp(self.bounds.min.x, self.bounds.max.x),
            p.y.clamp(self.bounds.min.y, self.bounds.max.y),
        )
    }
}

/// Rough heap estimate for a `HashMap`: its capacity times the entry size
/// plus one SwissTable control byte.
fn hash_map_heap_bytes<K, V, S>(map: &HashMap<K, V, S>) -> usize {
    map.capacity() * (std::mem::size_of::<(K, V)>() + 1)
}

/// `rect`, the extent of cell `(cx, cy)` of a `side × side` grid, with each
/// side on the grid boundary moved out to infinity.  Whether a side is on
/// the boundary is read from the cell index: the last cell's computed edge
/// can fall an ulp short of the bound.
pub(crate) fn open_boundary_sides(mut rect: Rect, side: u32, cx: u32, cy: u32) -> Rect {
    if cx == 0 {
        rect.min.x = f64::NEG_INFINITY;
    }
    if cx + 1 == side {
        rect.max.x = f64::INFINITY;
    }
    if cy == 0 {
        rect.min.y = f64::NEG_INFINITY;
    }
    if cy + 1 == side {
        rect.max.y = f64::INFINITY;
    }
    rect
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_grid(side: u32) -> UniformGrid {
        UniformGrid::new(Rect::unit(), side).unwrap()
    }

    #[test]
    fn rejects_invalid_configuration() {
        assert!(matches!(
            UniformGrid::new(Rect::unit(), 0),
            Err(SpatialError::InvalidConfiguration(_))
        ));
        let degenerate = Rect::new(Point::new(0.0, 0.0), Point::new(0.0, 1.0));
        assert!(UniformGrid::new(degenerate, 4).is_err());
        let nan = Rect::new(Point::new(f64::NAN, 0.0), Point::new(1.0, 1.0));
        assert!(UniformGrid::new(nan, 4).is_err());
    }

    #[test]
    fn insert_and_lookup() {
        let mut g = unit_grid(4);
        g.insert(7, Point::new(0.1, 0.9));
        assert_eq!(g.len(), 1);
        assert_eq!(g.position(7), Some(Point::new(0.1, 0.9)));
        assert_eq!(g.position(8), None);
        let cell = g.cell_of(Point::new(0.1, 0.9));
        assert_eq!(g.cell_items(cell), &[7]);
    }

    #[test]
    fn reinsert_moves_item() {
        let mut g = unit_grid(4);
        g.insert(1, Point::new(0.1, 0.1));
        g.insert(1, Point::new(0.9, 0.9));
        assert_eq!(g.len(), 1);
        assert_eq!(g.position(1), Some(Point::new(0.9, 0.9)));
        let old_cell = g.cell_of(Point::new(0.1, 0.1));
        assert!(g.cell_items(old_cell).is_empty());
    }

    #[test]
    fn remove_clears_cell_and_position() {
        let mut g = unit_grid(4);
        g.insert(1, Point::new(0.5, 0.5));
        let p = g.remove(1).unwrap();
        assert_eq!(p, Point::new(0.5, 0.5));
        assert!(g.is_empty());
        assert!(matches!(g.remove(1), Err(SpatialError::UnknownItem(1))));
    }

    #[test]
    fn update_within_cell_keeps_membership() {
        let mut g = unit_grid(2);
        g.insert(3, Point::new(0.1, 0.1));
        let (old, new) = g.update(3, Point::new(0.2, 0.2)).unwrap();
        assert_eq!(old, new);
        assert_eq!(g.position(3), Some(Point::new(0.2, 0.2)));
    }

    #[test]
    fn update_across_cells_moves_membership() {
        let mut g = unit_grid(2);
        g.insert(3, Point::new(0.1, 0.1));
        let (old, new) = g.update(3, Point::new(0.9, 0.9)).unwrap();
        assert_ne!(old, new);
        assert!(g.cell_items(old).is_empty());
        assert_eq!(g.cell_items(new), &[3]);
    }

    #[test]
    fn update_unknown_item_errors() {
        let mut g = unit_grid(2);
        assert!(g.update(10, Point::new(0.5, 0.5)).is_err());
    }

    #[test]
    fn points_on_max_boundary_fall_in_last_cell() {
        let g = unit_grid(5);
        let cell = g.cell_of(Point::new(1.0, 1.0));
        assert_eq!(cell, CellCoord::new(4, 4));
    }

    #[test]
    fn out_of_bounds_points_are_stored_as_given() {
        let mut g = unit_grid(5);
        let outside = Point::new(2.0, -1.0);
        g.insert(1, outside);
        g.insert(2, Point::new(0.5, 0.5));
        assert_eq!(g.position(1), Some(outside));
        assert_eq!(g.cell_items(CellCoord::new(4, 0)), &[1]);
        // The NN stream reports the true distance, and in order.
        let query = Point::new(2.0, -0.5);
        let got: Vec<(ItemId, f64)> = g
            .nearest_neighbors(query)
            .map(|n| (n.id, n.distance))
            .collect();
        assert_eq!(
            got,
            vec![
                (1, outside.distance(query)),
                (2, Point::new(0.5, 0.5).distance(query))
            ]
        );
    }

    #[test]
    fn cell_rects_tile_the_bounds() {
        let g = unit_grid(3);
        let total_area: f64 = (0..3)
            .flat_map(|cy| (0..3).map(move |cx| CellCoord::new(cx, cy)))
            .map(|c| g.cell_rect(c).width() * g.cell_rect(c).height())
            .sum();
        assert!((total_area - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bulk_load_and_iter() {
        let pts = vec![
            (0, Point::new(0.1, 0.1)),
            (1, Point::new(0.9, 0.2)),
            (2, Point::new(0.5, 0.8)),
        ];
        let g = UniformGrid::bulk_load(Rect::unit(), 4, pts.clone()).unwrap();
        assert_eq!(g.len(), 3);
        let mut collected: Vec<_> = g.iter().collect();
        collected.sort_by_key(|(id, _)| *id);
        assert_eq!(collected, pts);
    }

    #[test]
    fn range_query_finds_exactly_contained_points() {
        let pts = (0..100).map(|i| {
            let x = (i % 10) as f64 / 10.0 + 0.05;
            let y = (i / 10) as f64 / 10.0 + 0.05;
            (i as ItemId, Point::new(x, y))
        });
        let g = UniformGrid::bulk_load(Rect::unit(), 7, pts).unwrap();
        let range = Rect::new(Point::new(0.0, 0.0), Point::new(0.5, 0.5));
        let mut found = g.range_query(range);
        found.sort_unstable();
        let expected: Vec<ItemId> = (0..100)
            .filter(|i| {
                let x = (i % 10) as f64 / 10.0 + 0.05;
                let y = (i / 10) as f64 / 10.0 + 0.05;
                x <= 0.5 && y <= 0.5
            })
            .map(|i| i as ItemId)
            .collect();
        assert_eq!(found, expected);
    }
}
