use crate::{grid::CellCoord, ItemId, Point, UniformGrid};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A neighbour produced by [`IncrementalNn`]: an item id together with its
/// Euclidean distance from the query point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// The item (user) id.
    pub id: ItemId,
    /// Euclidean distance from the query point.
    pub distance: f64,
}

#[derive(Debug, Clone, Copy)]
enum Entry {
    Cell(CellCoord),
    Item(ItemId),
}

#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    key: f64,
    entry: Entry,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering: BinaryHeap is a max-heap, we need a min-heap on
        // the distance key.  Keys are finite by construction.
        other.key.partial_cmp(&self.key).unwrap_or(Ordering::Equal)
    }
}

/// Incremental (best-first / branch-and-bound) nearest-neighbour search over
/// a [`UniformGrid`].
///
/// The iterator yields items in non-decreasing Euclidean distance from the
/// query point, fetching one neighbour at a time — exactly the "incremental
/// nearest neighbor search" that SPA and the spatial repository of TSA rely
/// on (§4.1 of the paper).  Grid cells enter a min-heap keyed by the minimum
/// distance between the query point and the cell rectangle (opened outward
/// on the grid boundary, where cells hold the items outside the bounds);
/// items are pushed with their exact distance when their cell is expanded.
///
/// The search takes an immutable snapshot of the grid via a shared borrow;
/// location updates must not happen while an incremental search is alive
/// (enforced by the borrow checker).
#[derive(Debug)]
pub struct IncrementalNn<'a> {
    grid: &'a UniformGrid,
    query: Point,
    heap: BinaryHeap<HeapEntry>,
    /// Statistics: how many heap entries (cells + items) were popped.
    pops: usize,
}

impl<'a> IncrementalNn<'a> {
    /// Starts an incremental NN search around `query`.
    ///
    /// Only the **occupied** cells seed the heap, so search start-up is
    /// proportional to occupancy rather than to the `side × side` geometry.
    /// The seed is sorted row-major first: the occupied-cell set hashes in
    /// unspecified order, and equal-distance ties must expand in the same
    /// order on every run.
    pub fn new(grid: &'a UniformGrid, query: Point) -> Self {
        let mut occupied: Vec<CellCoord> = grid.occupied_cell_coords().collect();
        occupied.sort_unstable_by_key(|c| (c.cy, c.cx));
        let mut heap = BinaryHeap::with_capacity(occupied.len() * 2);
        for cell in occupied {
            heap.push(HeapEntry {
                key: grid.cell_min_distance(cell, query),
                entry: Entry::Cell(cell),
            });
        }
        IncrementalNn {
            grid,
            query,
            heap,
            pops: 0,
        }
    }

    /// Number of heap pops performed so far (cells and items).  Used by the
    /// experiment harness to report search effort.
    pub fn pops(&self) -> usize {
        self.pops
    }
}

impl Iterator for IncrementalNn<'_> {
    type Item = Neighbor;

    fn next(&mut self) -> Option<Self::Item> {
        while let Some(HeapEntry { key, entry }) = self.heap.pop() {
            self.pops += 1;
            match entry {
                Entry::Cell(cell) => {
                    for &id in self.grid.cell_items(cell) {
                        let p = self
                            .grid
                            .position(id)
                            .expect("items listed in a cell have positions");
                        self.heap.push(HeapEntry {
                            key: p.distance(self.query),
                            entry: Entry::Item(id),
                        });
                    }
                }
                Entry::Item(id) => {
                    return Some(Neighbor { id, distance: key });
                }
            }
        }
        None
    }
}

impl UniformGrid {
    /// Convenience constructor for an incremental NN search (see
    /// [`IncrementalNn`]).
    pub fn nearest_neighbors(&self, query: Point) -> IncrementalNn<'_> {
        IncrementalNn::new(self, query)
    }

    /// The `k` nearest neighbours of `query` (ties broken arbitrarily).
    pub fn k_nearest(&self, query: Point, k: usize) -> Vec<Neighbor> {
        self.nearest_neighbors(query).take(k).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rect;

    fn grid_with(points: &[(ItemId, Point)], side: u32) -> UniformGrid {
        UniformGrid::bulk_load(Rect::unit(), side, points.iter().copied()).unwrap()
    }

    fn brute_force(points: &[(ItemId, Point)], q: Point) -> Vec<Neighbor> {
        let mut v: Vec<Neighbor> = points
            .iter()
            .map(|&(id, p)| Neighbor {
                id,
                distance: p.distance(q),
            })
            .collect();
        v.sort_by(|a, b| a.distance.partial_cmp(&b.distance).unwrap());
        v
    }

    #[test]
    fn empty_grid_yields_nothing() {
        let g = UniformGrid::new(Rect::unit(), 4).unwrap();
        assert_eq!(g.nearest_neighbors(Point::new(0.5, 0.5)).count(), 0);
    }

    #[test]
    fn yields_all_items_in_nondecreasing_distance() {
        let pts: Vec<(ItemId, Point)> = vec![
            (0, Point::new(0.1, 0.1)),
            (1, Point::new(0.2, 0.9)),
            (2, Point::new(0.8, 0.8)),
            (3, Point::new(0.55, 0.45)),
            (4, Point::new(0.99, 0.01)),
        ];
        let g = grid_with(&pts, 4);
        let q = Point::new(0.5, 0.5);
        let result: Vec<Neighbor> = g.nearest_neighbors(q).collect();
        assert_eq!(result.len(), pts.len());
        for w in result.windows(2) {
            assert!(w[0].distance <= w[1].distance + 1e-12);
        }
    }

    #[test]
    fn matches_brute_force_on_dense_grid() {
        // Deterministic pseudo-random points (no rand dependency needed).
        let mut state = 0x1234_5678_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let pts: Vec<(ItemId, Point)> = (0..500)
            .map(|i| (i as ItemId, Point::new(next(), next())))
            .collect();
        let g = grid_with(&pts, 10);
        for &q in &[
            Point::new(0.5, 0.5),
            Point::new(0.02, 0.97),
            Point::new(1.0, 0.0),
        ] {
            let expected = brute_force(&pts, q);
            let got: Vec<Neighbor> = g.nearest_neighbors(q).collect();
            assert_eq!(got.len(), expected.len());
            for (a, b) in got.iter().zip(expected.iter()) {
                assert!((a.distance - b.distance).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn k_nearest_truncates() {
        let pts: Vec<(ItemId, Point)> = (0..20)
            .map(|i| (i, Point::new(i as f64 / 20.0, 0.5)))
            .collect();
        let g = grid_with(&pts, 5);
        let q = Point::new(0.0, 0.5);
        let top3 = g.k_nearest(q, 3);
        assert_eq!(top3.len(), 3);
        assert_eq!(top3[0].id, 0);
        assert_eq!(top3[1].id, 1);
        assert_eq!(top3[2].id, 2);
    }

    #[test]
    fn lower_bound_never_exceeds_next_result() {
        let pts: Vec<(ItemId, Point)> = (0..50)
            .map(|i| {
                (
                    i,
                    Point::new((i as f64 * 0.37) % 1.0, (i as f64 * 0.61) % 1.0),
                )
            })
            .collect();
        let g = grid_with(&pts, 6);
        let q = Point::new(0.3, 0.7);
        let mut it = g.nearest_neighbors(q);
        loop {
            let bound = it.heap.peek().map(|e| e.key);
            match it.next() {
                Some(n) => {
                    assert!(bound.unwrap() <= n.distance + 1e-12);
                }
                None => break,
            }
        }
    }

    #[test]
    fn query_point_identical_to_item() {
        let pts = vec![(0, Point::new(0.25, 0.25)), (1, Point::new(0.75, 0.75))];
        let g = grid_with(&pts, 3);
        let first = g.nearest_neighbors(Point::new(0.25, 0.25)).next().unwrap();
        assert_eq!(first.id, 0);
        assert_eq!(first.distance, 0.0);
    }

    #[test]
    fn pops_counter_increases() {
        let pts: Vec<(ItemId, Point)> = (0..10)
            .map(|i| (i, Point::new(i as f64 / 10.0, i as f64 / 10.0)))
            .collect();
        let g = grid_with(&pts, 4);
        let mut it = g.nearest_neighbors(Point::new(0.0, 0.0));
        assert_eq!(it.pops(), 0);
        it.next();
        assert!(it.pops() > 0);
    }
}
