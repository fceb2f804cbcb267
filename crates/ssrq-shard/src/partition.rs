//! The partitioning policy: how users are assigned to shards.
//!
//! A [`Partitioning`] decides, for every user, which shard *owns* their
//! location (the full social graph is replicated to every shard — social
//! distances are global, locations are not).  The one policy,
//! [`Partitioning::SpatialGrid`], tiles the domain into
//! `cells_per_axis²` grid cells and packs whole cells onto shards
//! (contiguous, load-balanced runs of a serpentine cell walk).  Shards get
//! compact bounding rectangles, which is what lets the coordinator skip
//! shards whose best possible spatial score cannot beat the current
//! threshold — at the price of user *migration* when a location update
//! crosses a cell boundary, and of occupancy skew as users drift
//! (see [`ShardedEngine::rebalance`](crate::ShardedEngine::rebalance)).
//!
//! Users without a location are placed by a stable hash of their id
//! (they occupy no spatial index and never appear in results until they
//! report a location, at which point they are routed like any update).

use ssrq_core::{CoreError, GeoSocialDataset, UserId};
use ssrq_spatial::{Point, Rect};

/// How a [`ShardedEngine`](crate::ShardedEngine) assigns users to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partitioning {
    /// Tile the location domain into `cells_per_axis × cells_per_axis`
    /// cells and pack whole cells onto shards — spatially compact shards
    /// whose bounding rectangles enable coordinator-side pruning.
    SpatialGrid {
        /// Tiling resolution per axis (must be at least 1; a multiple of
        /// the shard count gives the packer room to balance).
        cells_per_axis: u32,
    },
}

impl Default for Partitioning {
    fn default() -> Self {
        Partitioning::SpatialGrid { cells_per_axis: 16 }
    }
}

/// Stable shard hash (Fibonacci multiplicative hashing) for users without
/// a location: deterministic across runs and platforms, uniform enough for
/// id-dense user sets.
#[inline]
pub(crate) fn hash_shard(user: UserId, shards: usize) -> usize {
    let h = (user as u64 ^ 0x5353_5251).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((h >> 32) as usize) % shards
}

/// The cell index of a location (clamped into the tiling bounds, like the
/// engine-side grids clamp drifting points).
fn cell_of(bounds: Rect, cells_per_axis: u32, p: Point) -> usize {
    let side = cells_per_axis as f64;
    let fx = ((p.x - bounds.min.x) / bounds.width().max(f64::MIN_POSITIVE)) * side;
    let fy = ((p.y - bounds.min.y) / bounds.height().max(f64::MIN_POSITIVE)) * side;
    let cx = (fx as i64).clamp(0, cells_per_axis as i64 - 1) as usize;
    let cy = (fy as i64).clamp(0, cells_per_axis as i64 - 1) as usize;
    cy * cells_per_axis as usize + cx
}

/// The materialized user→shard assignment of a sharded deployment.
///
/// This is the routing brain of a deployment: every
/// [`LocalShard`](crate::LocalShard) — in process or behind a
/// `shard-server` process, which computes an identical one from the same
/// dataset and policy (the computation is deterministic) — adopts or drops
/// relocations by its replica, and the [`Coordinator`](crate::Coordinator)
/// ships repacked cell maps to the shards through
/// [`ShardAssignment::cell_map`] / [`ShardAssignment::set_cell_map`].
#[derive(Debug, Clone)]
pub struct ShardAssignment {
    shards: usize,
    /// The domain rectangle the cells tile.
    bounds: Rect,
    cells_per_axis: u32,
    /// The shard each cell is packed onto.
    cell_to_shard: Vec<u32>,
}

impl ShardAssignment {
    /// Materializes the assignment for `dataset` under `policy`.
    ///
    /// Deterministic: every party that computes the assignment from the
    /// same dataset, policy and shard count gets byte-identical routing.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] for zero shards or a zero-resolution
    /// tiling.
    pub fn compute(
        dataset: &GeoSocialDataset,
        policy: Partitioning,
        shards: usize,
    ) -> Result<Self, CoreError> {
        if shards == 0 {
            return Err(CoreError::InvalidParameter(
                "a sharded engine needs at least one shard".into(),
            ));
        }
        let Partitioning::SpatialGrid { cells_per_axis } = policy;
        if cells_per_axis == 0 {
            return Err(CoreError::InvalidParameter(
                "spatial partitioning needs at least one cell per axis".into(),
            ));
        }
        let mut assignment = ShardAssignment {
            shards,
            bounds: dataset.bounds(),
            cells_per_axis,
            cell_to_shard: Vec::new(),
        };
        let located: Vec<Point> = dataset.located_users().map(|(_, p)| p).collect();
        assignment.repack(&located);
        Ok(assignment)
    }

    /// Number of shards the assignment routes onto.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The partitioning policy the assignment was materialized from.
    pub fn policy(&self) -> Partitioning {
        Partitioning::SpatialGrid {
            cells_per_axis: self.cells_per_axis,
        }
    }

    /// The shard owning a user currently at `location` (or without one).
    pub fn owner_for(&self, user: UserId, location: Option<Point>) -> usize {
        match location {
            Some(p) => self.cell_to_shard[cell_of(self.bounds, self.cells_per_axis, p)] as usize,
            None => hash_shard(user, self.shards),
        }
    }

    /// The owning shard of every user of `dataset`, indexed by user id.
    pub fn owners(&self, dataset: &GeoSocialDataset) -> Vec<u32> {
        (0..dataset.user_count() as UserId)
            .map(|u| self.owner_for(u, dataset.location(u)) as u32)
            .collect()
    }

    /// The tiling bounds.
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// The tiling resolution per axis.
    pub fn cells_per_axis(&self) -> u32 {
        self.cells_per_axis
    }

    /// The cell→shard map — what a rebalancing coordinator ships to its
    /// shard servers.
    pub fn cell_map(&self) -> &[u32] {
        &self.cell_to_shard
    }

    /// Installs a cell→shard map received from a coordinator.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] for a map of the wrong length, or
    /// one naming a shard out of range; the installed map is unchanged.
    pub fn set_cell_map(&mut self, map: Vec<u32>) -> Result<(), CoreError> {
        let expected = (self.cells_per_axis as usize).pow(2);
        if map.len() != expected {
            return Err(CoreError::InvalidParameter(format!(
                "cell map has {} entries, tiling has {expected} cells",
                map.len()
            )));
        }
        if let Some(&bad) = map.iter().find(|&&s| s as usize >= self.shards) {
            return Err(CoreError::InvalidParameter(format!(
                "cell map names shard {bad} of {}",
                self.shards
            )));
        }
        self.cell_to_shard = map;
        Ok(())
    }

    /// Re-packs the cells for the given located population (contiguous
    /// serpentine runs, as at construction).
    pub fn repack(&mut self, located: &[Point]) {
        let mut loads = vec![0usize; (self.cells_per_axis as usize).pow(2)];
        for &p in located {
            loads[cell_of(self.bounds, self.cells_per_axis, p)] += 1;
        }
        self.cell_to_shard = pack_cells(&loads, self.cells_per_axis, self.shards);
    }
}

/// Packs cells onto shards as **contiguous runs of a serpentine
/// (boustrophedon) cell walk**, each run carrying roughly `total / shards`
/// of the load.
///
/// Contiguity is the point: consecutive serpentine cells are spatially
/// adjacent, so every shard ends up a compact band of the domain with a
/// small bounding rectangle — which is what gives the coordinator's
/// `mindist(origin, rect)` pruning its teeth.  (A balance-only packer,
/// e.g. heaviest-cell-to-least-loaded, interleaves cells from all over the
/// domain and every shard rectangle degenerates to the full bounds.)
/// Balance is within one cell's load of even, deterministic.
pub(crate) fn pack_cells(cell_loads: &[usize], cells_per_axis: u32, shards: usize) -> Vec<u32> {
    let side = cells_per_axis as usize;
    debug_assert_eq!(cell_loads.len(), side * side);
    let total: usize = cell_loads.iter().sum();
    let mut cell_to_shard = vec![0u32; cell_loads.len()];
    let mut shard = 0usize;
    let mut assigned_load = 0usize; // load placed on shards 0..shard
    let mut current_load = 0usize; // load placed on `shard` so far
    for cy in 0..side {
        // Serpentine: even rows left-to-right, odd rows right-to-left, so
        // the walk never jumps across the domain.
        let columns: Box<dyn Iterator<Item = usize>> = if cy % 2 == 0 {
            Box::new(0..side)
        } else {
            Box::new((0..side).rev())
        };
        for cx in columns {
            let c = cy * side + cx;
            // Advance to the next shard when the current one reached its
            // fair share of what remains (never past the last shard).
            if shard + 1 < shards && current_load > 0 {
                let remaining_shards = shards - shard;
                let target = (total - assigned_load).div_ceil(remaining_shards);
                if current_load >= target {
                    assigned_load += current_load;
                    current_load = 0;
                    shard += 1;
                }
            }
            cell_to_shard[c] = shard as u32;
            current_load += cell_loads[c];
        }
    }
    cell_to_shard
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_shard_is_stable_and_in_range() {
        for user in 0..1000u32 {
            let s = hash_shard(user, 7);
            assert!(s < 7);
            assert_eq!(s, hash_shard(user, 7));
        }
        // Roughly uniform: no shard is starved on a dense id range.
        let mut counts = [0usize; 4];
        for user in 0..4000u32 {
            counts[hash_shard(user, 4)] += 1;
        }
        for &c in &counts {
            assert!(c > 500, "skewed hash distribution: {counts:?}");
        }
    }

    #[test]
    fn set_cell_map_rejects_bad_maps_and_keeps_the_installed_one() {
        let graph =
            ssrq_graph::GraphBuilder::from_edges(3, vec![(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let locations = vec![
            Some(Point::new(0.1, 0.1)),
            Some(Point::new(0.9, 0.9)),
            Some(Point::new(0.5, 0.5)),
        ];
        let dataset = GeoSocialDataset::new(graph, locations).unwrap();
        let policy = Partitioning::SpatialGrid { cells_per_axis: 2 };
        let mut assignment = ShardAssignment::compute(&dataset, policy, 2).unwrap();
        let installed = assignment.cell_map().to_vec();
        let owners = assignment.owners(&dataset);

        let wrong_length = assignment.set_cell_map(vec![0; 3]);
        assert!(matches!(wrong_length, Err(CoreError::InvalidParameter(_))));
        let out_of_range = assignment.set_cell_map(vec![0, 1, 2, 0]);
        assert!(matches!(out_of_range, Err(CoreError::InvalidParameter(_))));
        assert_eq!(assignment.cell_map(), installed.as_slice());
        assert_eq!(assignment.owners(&dataset), owners);

        // A valid map is installed and routes from then on.
        assignment.set_cell_map(vec![1, 1, 1, 1]).unwrap();
        assert_eq!(assignment.cell_map(), &[1, 1, 1, 1]);
        assert_eq!(assignment.owners(&dataset), vec![1, 1, 1]);
    }

    #[test]
    fn cell_of_clamps_out_of_bounds_points() {
        let bounds = Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        assert_eq!(cell_of(bounds, 4, Point::new(0.1, 0.1)), 0);
        assert_eq!(cell_of(bounds, 4, Point::new(0.9, 0.9)), 15);
        // Points outside the tiling land in the nearest boundary cell.
        assert_eq!(cell_of(bounds, 4, Point::new(-5.0, -5.0)), 0);
        assert_eq!(cell_of(bounds, 4, Point::new(9.0, 9.0)), 15);
    }

    #[test]
    fn pack_cells_balances_loads() {
        // A 4x4 tiling with one heavy cell; two shards.
        let mut loads = vec![1usize; 16];
        loads[0] = 10;
        let assignment = pack_cells(&loads, 4, 2);
        let mut per_shard = [0usize; 2];
        for (c, &s) in assignment.iter().enumerate() {
            per_shard[s as usize] += loads[c];
        }
        // Balance within one cell's weight of even.
        let diff = per_shard[0].abs_diff(per_shard[1]);
        assert!(diff <= 10, "loads {per_shard:?}");
        assert!(per_shard[0] > 0 && per_shard[1] > 0);
        // Deterministic.
        assert_eq!(assignment, pack_cells(&loads, 4, 2));
    }

    #[test]
    fn pack_cells_keeps_shards_contiguous_bands() {
        // Uniform load: each shard must be a contiguous run of the
        // serpentine walk (spatially compact bands), never interleaved.
        let loads = vec![1usize; 64];
        let assignment = pack_cells(&loads, 8, 4);
        let mut walk = Vec::new();
        for cy in 0..8usize {
            let cols: Vec<usize> = if cy % 2 == 0 {
                (0..8).collect()
            } else {
                (0..8).rev().collect()
            };
            for cx in cols {
                walk.push(assignment[cy * 8 + cx]);
            }
        }
        // Along the walk the shard id is non-decreasing.
        assert!(walk.windows(2).all(|w| w[0] <= w[1]), "{walk:?}");
        // All shards are used and each holds 16 cells.
        for s in 0..4u32 {
            assert_eq!(walk.iter().filter(|&&x| x == s).count(), 16);
        }
    }
}
