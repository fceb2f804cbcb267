//! The in-process sharded engine: the [`Coordinator`] over
//! [`LocalShard`] links.

use crate::coordinator::Coordinator;
use crate::partition::{Partitioning, ShardAssignment};
use crate::stats::ShardStats;
use crate::transport::{ShardInfo, ShardLink};
use ssrq_core::{
    run_batch_on_workers, CoreError, EngineBuilder, GeoSocialDataset, GeoSocialEngine,
    QueryContext, QueryRequest, QueryResult, UserId,
};
use ssrq_spatial::{Point, Rect};

/// One shard in process: a full [`GeoSocialEngine`] over the shared social
/// graph and this shard's resident locations, plus its replica of the
/// deployment's [`ShardAssignment`] — the in-process [`ShardLink`], and
/// what a shard server serves.
#[derive(Debug)]
pub struct LocalShard {
    engine: GeoSocialEngine,
    assignment: ShardAssignment,
    index: usize,
}

impl LocalShard {
    /// Shard `index` of a deployment routed by `assignment`, serving
    /// `engine` — which must already be restricted to the shard's residents
    /// (see [`GeoSocialDataset::restrict_locations`]).
    pub fn new(engine: GeoSocialEngine, index: usize, assignment: ShardAssignment) -> Self {
        LocalShard {
            engine,
            assignment,
            index,
        }
    }

    /// The shard's engine.
    pub fn engine(&self) -> &GeoSocialEngine {
        &self.engine
    }
}

impl ShardLink for LocalShard {
    type Error = CoreError;
    type Context = QueryContext;

    fn query(
        &self,
        request: &QueryRequest,
        ctx: &mut QueryContext,
    ) -> Result<(QueryResult, Option<Point>), CoreError> {
        let result = self.engine.run_with(request, ctx)?;
        // The origin the search ran from, when the request pinned none.
        let origin = match request.origin() {
            Some(_) => None,
            None => self.engine.dataset().location(request.user()),
        };
        Ok((result, origin))
    }

    fn relocate(
        &mut self,
        user: UserId,
        location: Option<Point>,
    ) -> Result<(bool, bool), CoreError> {
        if let Some(p) = location.filter(|p| !p.is_finite()) {
            // Before any state is touched: dropping the copy first would
            // lose the user.
            return Err(CoreError::InvalidParameter(format!(
                "non-finite location {p}"
            )));
        }
        let held = self.engine.dataset().location(user).is_some();
        match location {
            Some(p) if self.assignment.owner_for(user, Some(p)) == self.index => {
                self.engine.update_location(user, p)?;
                Ok((true, held))
            }
            // Not (or no longer) ours: drop any copy.  The engine's removal
            // is idempotent, so a shard that holds none answers cheaply.
            _ => {
                self.engine.remove_location(user)?;
                Ok((false, held))
            }
        }
    }

    fn list_located(&self) -> Result<Vec<(UserId, Point)>, CoreError> {
        Ok(self.engine.dataset().located_users().collect())
    }

    fn refresh(&self) -> Result<ShardInfo, CoreError> {
        let dataset = self.engine.dataset();
        Ok(ShardInfo {
            shard: self.index as u32,
            shards: self.assignment.shard_count() as u32,
            user_count: dataset.user_count() as u64,
            located: dataset.located_user_count() as u64,
            rect: Rect::bounding(dataset.located_users().map(|(_, p)| p)),
            spatial_norm: dataset.spatial_norm(),
            social_norm: dataset.social_norm(),
        })
    }

    fn set_assignment(&mut self, cell_map: &[u32]) -> Result<(), CoreError> {
        self.assignment.set_cell_map(cell_map.to_vec())
    }

    fn describe(&self) -> String {
        format!("local shard {}", self.index)
    }
}

/// Fluent construction of a [`ShardedEngine`]; see
/// [`ShardedEngine::builder`].
pub struct ShardedEngineBuilder {
    dataset: GeoSocialDataset,
    shards: usize,
    partitioning: Partitioning,
    #[allow(clippy::type_complexity)]
    configure: Option<Box<dyn Fn(EngineBuilder) -> EngineBuilder + Send + Sync>>,
}
impl std::fmt::Debug for ShardedEngineBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngineBuilder")
            .field("shards", &self.shards)
            .field("partitioning", &self.partitioning)
            .finish()
    }
}

impl ShardedEngineBuilder {
    /// Sets the number of shards (default 2).
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// Sets the partitioning policy (default
    /// [`Partitioning::SpatialGrid`] with 16 cells per axis).
    pub fn partitioning(mut self, policy: Partitioning) -> Self {
        self.partitioning = policy;
        self
    }

    /// Customizes every per-shard [`EngineBuilder`] (index parameters,
    /// auxiliary-index declarations, …).  The closure runs once per shard;
    /// shards `1..n` then take the graph-only indexes, and their
    /// declarations, from shard 0.
    pub fn configure_engines(
        mut self,
        configure: impl Fn(EngineBuilder) -> EngineBuilder + Send + Sync + 'static,
    ) -> Self {
        self.configure = Some(Box::new(configure));
        self
    }

    /// Partitions the dataset and builds one engine per shard.
    ///
    /// Every shard sees the **full social graph** (social distances are
    /// global) but only its residents' locations; the bounding rectangle
    /// and both normalization constants are inherited from the
    /// unpartitioned dataset ([`GeoSocialDataset::restrict_locations`]), so
    /// per-shard scores are bit-identical to the single-engine scores and
    /// the coordinator's merge is exact.
    ///
    /// # Memory model
    ///
    /// The shard datasets share the unpartitioned dataset's `Arc`-backed
    /// immutable core — **one** graph instance backs every shard — and
    /// shards `1..n` hold shard 0's graph-only indexes
    /// ([`EngineBuilder::share_graph_artifacts_with`]): one landmark set,
    /// at most one Contraction Hierarchies index (built by whichever shard
    /// first runs a `*-CH` query and observed by all), at most one social
    /// neighbour cache.  Only the per-shard location vector and AIS
    /// aggregate index (whose leaf level is the SPA/TSA grid) are
    /// replicated, so memory and graph-index build time stay flat in the
    /// shard count.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] for zero shards or a zero-resolution
    /// spatial tiling; otherwise whatever the per-shard
    /// [`EngineBuilder::build`] reports.
    pub fn build(self) -> Result<ShardedEngine, CoreError> {
        let n = self.shards;
        let assignment = ShardAssignment::compute(&self.dataset, self.partitioning, n)?;
        let owner = assignment.owners(&self.dataset);
        let mut shards: Vec<(LocalShard, ShardInfo)> = Vec::with_capacity(n);
        for s in 0..n {
            let shard_dataset = self
                .dataset
                .restrict_locations(|u| owner[u as usize] as usize == s);
            let builder = GeoSocialEngine::builder(shard_dataset);
            let mut builder = match &self.configure {
                Some(configure) => configure(builder),
                None => builder,
            };
            // Graph-only indexes (landmarks, CH, social cache) are pure
            // functions of the shared graph: shard 0 owns them and every
            // later shard holds its handle.
            if let Some((first, _)) = shards.first() {
                builder = builder.share_graph_artifacts_with(first.engine());
            }
            let shard = LocalShard::new(builder.build()?, s, assignment.clone());
            let info = shard.refresh()?;
            shards.push((shard, info));
        }
        Ok(ShardedEngine {
            core: Coordinator::new(shards, Some(assignment))?,
        })
    }
}

/// What one [`ShardedEngine::rebalance`] pass did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebalanceReport {
    /// Users migrated between shards.
    pub moved_users: usize,
    /// Located users per shard after the pass.
    pub occupancy: Vec<usize>,
}

/// A horizontally partitioned SSRQ serving engine: the [`Coordinator`]
/// over in-process [`LocalShard`]s (see the crate docs).
///
/// `ShardedEngine` partitions a [`GeoSocialDataset`] across N
/// [`GeoSocialEngine`]s (see [`Partitioning`]) and answers any
/// [`QueryRequest`] with the ranked list of the unpartitioned engine, for
/// every algorithm.  A request visits the shards one at a time — the query
/// user's owner first, the others best-first by their rectangle's score
/// bound, skipped once the forwarded `f_k` proves them useless — and all
/// arms run through one [`QueryContext`] and share **one query-rooted
/// social expansion** ([`QueryContext::share_social_expansion`]), so a
/// scatter relaxes the edges of one search however many shards execute.
/// *Queries*, not the arms of one query, are the unit of parallelism
/// ([`ShardedEngine::run_batch`], or one
/// [`ShardedSession`](crate::ShardedSession) per serving thread).
///
/// **Exactness.**  Each shard's result is the exact top-k over its own
/// residents with globally normalized scores (the shard datasets inherit
/// the unpartitioned normalization constants), and every candidate a skip
/// or forwarded cutoff discards scores at least the interim `f_k` — which
/// never falls below the final `f_k`, so [`TopK`](ssrq_core::TopK) would
/// reject it at gather time anyway.  On exact score ties at the
/// `k`-boundary the merge keeps the lexicographically smallest
/// `(score, user)` entries.
#[derive(Debug)]
pub struct ShardedEngine {
    pub(crate) core: Coordinator<LocalShard>,
}

// Queries take `&self` (scatter state is per-call); all mutation goes
// through `&mut self` routing — same contract as `GeoSocialEngine`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ShardedEngine>();
};

impl ShardedEngine {
    /// Starts fluent construction over `dataset`.
    pub fn builder(dataset: GeoSocialDataset) -> ShardedEngineBuilder {
        ShardedEngineBuilder {
            dataset,
            shards: 2,
            partitioning: Partitioning::default(),
            configure: None,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.core.shard_count()
    }

    /// The materialized user→shard assignment — what a multi-process
    /// deployment replicates to route updates and rebalances.
    pub fn assignment(&self) -> &ShardAssignment {
        self.core
            .assignment()
            .expect("the builder hands the coordinator its assignment")
    }

    /// The engine serving shard `s`.
    pub fn shard_engine(&self, s: usize) -> &GeoSocialEngine {
        self.core.links()[s].engine()
    }

    /// The shard holding `user`'s location — `None` once the user has no
    /// location (never located, or removed) and for an unknown user.  See
    /// [`Coordinator::owner_of`].
    pub fn owner_of(&self, user: UserId) -> Option<usize> {
        self.core.owner_of(user)
    }

    /// Total number of users (identical on every shard — all shards share
    /// one graph instance through the dataset core).
    pub fn user_count(&self) -> usize {
        self.core.user_count() as usize
    }

    /// The current location of `user`, resolved through the owning shard.
    pub fn location(&self, user: UserId) -> Option<Point> {
        let s = self.owner_of(user)?;
        self.shard_engine(s).dataset().location(user)
    }

    /// Located residents per shard (O(1) per shard, via the grid sizes).
    pub fn occupancy(&self) -> Vec<usize> {
        (0..self.shard_count())
            .map(|s| self.shard_engine(s).grid().len())
            .collect()
    }

    /// A [`ShardedSession`](crate::ShardedSession): per-worker handle with
    /// reusable [`QueryContext`]s and cross-shard streaming.
    pub fn session(&self) -> crate::ShardedSession<'_> {
        crate::ShardedSession::new(self)
    }

    /// Processes one request by best-first scatter-gather; see the
    /// type-level docs for the coordinator's bounding and the exactness
    /// argument.  A query for a user no shard holds asks every shard once
    /// (each answers without a search) before it returns the empty answer.
    ///
    /// # Errors
    ///
    /// Same classes as [`GeoSocialEngine::run`]; a per-shard failure fails
    /// the query.
    pub fn run(&self, request: &QueryRequest) -> Result<QueryResult, CoreError> {
        self.run_with_stats(request).map(|(result, _)| result)
    }

    /// [`ShardedEngine::run`] plus the coordinator's [`ShardStats`]
    /// (per-shard work, skip decisions, gather wall-clock).
    pub fn run_with_stats(
        &self,
        request: &QueryRequest,
    ) -> Result<(QueryResult, ShardStats), CoreError> {
        self.scatter(request, &mut self.make_context())
    }

    /// [`ShardedEngine::run_with_stats`]: there is one scatter loop, so the
    /// width is ignored.  Kept for callers of the former threaded scatter.
    #[doc(hidden)]
    pub fn run_with_stats_threads(
        &self,
        request: &QueryRequest,
        _threads: usize,
    ) -> Result<(QueryResult, ShardStats), CoreError> {
        self.run_with_stats(request)
    }

    /// A query context sized for the (shared) social graph; reusable
    /// across shards — the scratch resets per search.
    pub fn make_context(&self) -> QueryContext {
        QueryContext::with_capacity(self.user_count())
    }

    /// Processes a batch of requests in parallel across worker threads
    /// (queries are the unit of parallelism; each worker scatters its
    /// queries through one context of its own).  Results arrive in input
    /// order; per-element errors are reported in place.
    pub fn run_batch(&self, batch: &[QueryRequest]) -> Vec<Result<QueryResult, CoreError>> {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        self.run_batch_with_threads(batch, threads)
    }

    /// [`ShardedEngine::run_batch`] with an explicit worker count.
    pub fn run_batch_with_threads(
        &self,
        batch: &[QueryRequest],
        threads: usize,
    ) -> Vec<Result<QueryResult, CoreError>> {
        run_batch_on_workers(
            batch,
            threads,
            || self.make_context(),
            |request, ctx| self.scatter(request, ctx).map(|(result, _)| result),
        )
    }

    /// Routes a location report through the coordinator
    /// ([`Coordinator::update_location`]): the owning shard adopts it, and
    /// a move into a cell packed onto another shard migrates the user.
    pub fn update_location(&mut self, user: UserId, location: Point) -> Result<(), CoreError> {
        self.core.update_location(user, location).map(|_| ())
    }

    /// Routes a location removal to the owning shard; the user has no
    /// owner afterwards and is re-routed on their next report.
    pub fn remove_location(&mut self, user: UserId) -> Result<(), CoreError> {
        self.core.remove_location(user)
    }

    /// Re-packs the cells for the **current** locations, migrates the users
    /// whose cell moved and tightens every shard's rectangle
    /// ([`Coordinator::rebalance`]) — the skew-repair pass for a population
    /// that drifted since construction.  Only locations move: the shared
    /// graph and its `Arc`-held indexes are never rebuilt or copied.
    pub fn rebalance(&mut self) -> RebalanceReport {
        let moved_users = self
            .core
            .rebalance()
            .expect("in-process shards relocate their own residents without failing");
        RebalanceReport {
            moved_users,
            occupancy: self.occupancy(),
        }
    }

    /// Checks `request` against the deployment the way
    /// [`GeoSocialEngine::run`] would (validation, user id, index
    /// preflight), so errors keep their single-engine class and order.
    pub(crate) fn preflight(&self, request: &QueryRequest) -> Result<(), CoreError> {
        request.validate()?;
        let representative = self.shard_engine(0);
        representative.dataset().check_user(request.user())?;
        representative.ready(request.algorithm())
    }

    /// The scatter-gather: the coordinator's query over the local links,
    /// every shard executing through `ctx` inside one shared social
    /// expansion, so the arms resume one search.
    pub(crate) fn scatter(
        &self,
        request: &QueryRequest,
        ctx: &mut QueryContext,
    ) -> Result<(QueryResult, ShardStats), CoreError> {
        self.preflight(request)?;
        ctx.share_social_expansion(|ctx| self.core.run_with(request, ctx, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::RECT_REFRESH_CHURN;
    use ssrq_core::GeoSocialDataset;
    use ssrq_graph::GraphBuilder;

    fn clustered_engine() -> ShardedEngine {
        let graph =
            GraphBuilder::from_edges(4, vec![(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap();
        let locations = vec![
            Some(Point::new(0.10, 0.10)),
            Some(Point::new(0.20, 0.15)),
            Some(Point::new(0.30, 0.25)),
            Some(Point::new(0.15, 0.30)),
        ];
        let dataset = GeoSocialDataset::new(graph, locations).unwrap();
        ShardedEngine::builder(dataset)
            .shards(1)
            .partitioning(Partitioning::SpatialGrid { cells_per_axis: 4 })
            .build()
            .unwrap()
    }

    #[test]
    fn relocation_churn_retightens_the_grown_rect() {
        let mut engine = clustered_engine();

        // One excursion far outside the cluster grows the rect (it must —
        // the bound stays admissible without a recompute) …
        engine.update_location(0, Point::new(0.95, 0.95)).unwrap();
        assert_eq!(engine.core.rect_churn(0), 1);
        let grown = engine.core.shard_info(0).rect.unwrap();
        assert!(grown.max.x >= 0.95 && grown.max.y >= 0.95);

        // … and the slack persists under growth-only maintenance until the
        // churn threshold forces an exact recompute.
        engine.update_location(0, Point::new(0.12, 0.12)).unwrap();
        for i in 0..RECT_REFRESH_CHURN {
            let wiggle = 0.10 + 0.001 * (i % 7) as f64;
            engine
                .update_location(1, Point::new(wiggle, wiggle))
                .unwrap();
        }
        assert!(
            engine.core.rect_churn(0) < RECT_REFRESH_CHURN,
            "the opportunistic refresh resets the churn counter"
        );
        let tightened = engine.core.shard_info(0).rect.unwrap();
        assert!(
            tightened.max.x < 0.5 && tightened.max.y < 0.5,
            "the refreshed rect {tightened:?} still carries relocation slack"
        );
    }

    #[test]
    fn rebalance_resets_the_churn_counter() {
        let mut engine = clustered_engine();
        engine.update_location(0, Point::new(0.9, 0.9)).unwrap();
        assert_eq!(engine.core.rect_churn(0), 1);
        engine.rebalance();
        assert_eq!(engine.core.rect_churn(0), 0);
        let rect = engine.core.shard_info(0).rect.unwrap();
        assert!(rect.max.x >= 0.9, "the resident at (0.9, 0.9) is covered");
    }
}
