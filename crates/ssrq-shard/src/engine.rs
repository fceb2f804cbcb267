//! The sharded scatter-gather engine.

use crate::partition::{Partitioning, ShardAssignment};
use crate::stats::ShardStats;
use crate::transport::{self, shard_score_lower_bound, FailurePolicy, ShardTransport};
use ssrq_core::{
    run_batch_on_workers, CoreError, EngineBuilder, GeoSocialDataset, GeoSocialEngine,
    QueryContext, QueryRequest, QueryResult, UserId,
};
use ssrq_spatial::{Point, Rect};
use std::cell::RefCell;
use std::time::Instant;

/// One partition: a full [`GeoSocialEngine`] over the shared social graph
/// and this shard's resident locations, plus the conservative bounding
/// rectangle of those locations.
#[derive(Debug, Clone)]
pub(crate) struct Shard {
    pub(crate) engine: GeoSocialEngine,
    /// Bounding rectangle of the shard's resident locations — grown on
    /// every insert, never shrunk on removal (so it stays a sound
    /// lower-bound region without O(n) maintenance), re-tightened by
    /// [`ShardedEngine::rebalance`] and opportunistically after
    /// [`RECT_REFRESH_CHURN`] adopted relocations.
    pub(crate) rect: Option<Rect>,
    /// Relocations adopted since `rect` was last recomputed exactly —
    /// each one can only grow the rect, so churn measures how much
    /// rect-skip pruning power may have leaked away.
    pub(crate) churn: usize,
}

/// After how many adopted relocations a shard's bounding rectangle is
/// recomputed exactly ([`Rect::bounding`] over the actual residents)
/// instead of waiting for the next full rebalance.  Growth-only rect
/// maintenance is sound but monotonically degrades rect-skip pruning
/// under churn; this bounds the staleness at O(n) amortized over 64
/// updates.
pub(crate) const RECT_REFRESH_CHURN: usize = 64;

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
        let mut shards: Vec<Shard> = Vec::with_capacity(n);
        for s in 0..n {
            let shard_dataset = self
                .dataset
                .restrict_locations(|u| owner[u as usize] as usize == s);
            let rect = Rect::bounding(shard_dataset.located_users().map(|(_, p)| p));
            let builder = GeoSocialEngine::builder(shard_dataset);
            let mut builder = match &self.configure {
                Some(configure) => configure(builder),
                None => builder,
            };
            // Graph-only indexes (landmarks, CH, social cache) are pure
            // functions of the shared graph: shard 0 owns them and every
            // later shard holds its handle.
            if let Some(first) = shards.first() {
                builder = builder.share_graph_artifacts_with(&first.engine);
            }
            shards.push(Shard {
                engine: builder.build()?,
                rect,
                churn: 0,
            });
        }
        Ok(ShardedEngine {
            shards,
            owner,
            assignment,
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

/// A horizontally partitioned SSRQ serving engine.
///
/// `ShardedEngine` partitions a [`GeoSocialDataset`] across N
/// [`GeoSocialEngine`]s (see [`Partitioning`]) and answers any
/// [`QueryRequest`] by **best-first sequential scatter-gather**: the
/// request — with the query user's location resolved once and broadcast as
/// the request [`origin`](QueryRequest::origin) — visits the shards one at
/// a time, each runs its ordinary bounded top-k over its residents, and the
/// coordinator merges the per-shard results into an answer whose ranked
/// list is identical to the unpartitioned engine's for every algorithm.
/// There is one scatter loop, [`scatter_sequential`](crate::scatter_sequential)
/// — the loop a socket coordinator runs over remote shards — and *queries*,
/// not the arms of one query, are the unit of parallelism
/// ([`ShardedEngine::run_batch`], or one [`ShardedSession`](crate::ShardedSession)
/// per serving thread).
///
/// The coordinator is *bounded*, not just correct:
///
/// * shards are visited in ascending order of their best possible score
///   (`(1 − α) · mindist(origin, shard rect) / norm`), and a shard whose
///   bound cannot beat the running threshold is **skipped** outright;
/// * once `k` results are gathered, the running `f_k` is forwarded to
///   every later shard through the request's
///   [`max_score`](QueryRequest::max_score) admission cutoff, so its
///   search terminates early exactly like a single engine whose interim
///   result is already that good;
/// * the shards hold different *locations* but one *graph*, so the arms of
///   a scatter share a **single query-rooted social expansion**
///   ([`QueryContext::share_social_expansion`]): an arm resumes what the
///   arms before it settled instead of expanding from the query user again,
///   and the scatter's `relaxed_edges` stay those of one search however
///   many shards execute.
///
/// **Exactness.**  Each shard's result is the exact top-k over its own
/// residents with globally normalized scores (the shard datasets inherit
/// the unpartitioned normalization constants), and every candidate a skip
/// or forwarded cutoff discards scores at least the interim `f_k` — which
/// never falls below the final `f_k`, so [`TopK`](ssrq_core::TopK) would reject the
/// candidate at gather time anyway.  The merged list is therefore the
/// global top-k; on exact score ties at the `k`-boundary the merge keeps
/// the lexicographically smallest `(score, user)` entries (real-valued
/// scores make such ties measure-zero).
#[derive(Debug, Clone)]
pub struct ShardedEngine {
    pub(crate) shards: Vec<Shard>,
    /// Owning shard per user id.
    owner: Vec<u32>,
    assignment: ShardAssignment,
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
        self.shards.len()
    }

    /// The partitioning policy in effect.
    pub fn partitioning(&self) -> Partitioning {
        self.assignment.policy()
    }

    /// The materialized user→shard assignment — what a multi-process
    /// deployment replicates to route updates and rebalances.
    pub fn assignment(&self) -> &ShardAssignment {
        &self.assignment
    }

    /// The engine serving shard `s`.
    pub fn shard_engine(&self, s: usize) -> &GeoSocialEngine {
        &self.shards[s].engine
    }

    /// The shard currently owning `user`.
    pub fn owner_of(&self, user: UserId) -> Option<usize> {
        self.owner.get(user as usize).map(|&s| s as usize)
    }

    /// Total number of users (identical on every shard — all shards share
    /// one graph instance through the dataset core).
    pub fn user_count(&self) -> usize {
        self.owner.len()
    }

    /// The current location of `user`, resolved through the owning shard.
    pub fn location(&self, user: UserId) -> Option<Point> {
        let s = self.owner_of(user)?;
        self.shards[s].engine.dataset().location(user)
    }

    /// Located residents per shard (O(1) per shard, via the grid sizes).
    pub fn occupancy(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.engine.grid().len()).collect()
    }

    /// A [`ShardedSession`](crate::ShardedSession): per-worker handle with
    /// reusable [`QueryContext`]s and cross-shard streaming.
    pub fn session(&self) -> crate::ShardedSession<'_> {
        crate::ShardedSession::new(self)
    }

    /// Processes one request by best-first scatter-gather; see the
    /// type-level docs for the coordinator's bounding and the exactness
    /// argument.
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

    /// Routes a location report to the owning shard, migrating the user
    /// when the move crosses into a cell packed onto another shard.
    pub fn update_location(&mut self, user: UserId, location: Point) -> Result<(), CoreError> {
        self.shards[0].engine.dataset().check_user(user)?;
        if !location.is_finite() {
            return Err(CoreError::InvalidParameter(format!(
                "non-finite location {location}"
            )));
        }
        let new_owner = self.assignment.owner_for(user, Some(location));
        let old_owner = self.owner[user as usize] as usize;
        if new_owner != old_owner {
            self.shards[old_owner].engine.remove_location(user)?;
            self.owner[user as usize] = new_owner as u32;
        }
        self.shards[new_owner]
            .engine
            .update_location(user, location)?;
        let shard = &mut self.shards[new_owner];
        shard.rect = Some(match shard.rect {
            Some(rect) => rect.including(location),
            None => Rect::new(location, location),
        });
        shard.churn += 1;
        if shard.churn >= RECT_REFRESH_CHURN {
            // Enough growth-only slack accumulated: recompute the exact
            // bounding rectangle so rect-skip pruning recovers without
            // waiting for a full rebalance.
            shard.rect = Rect::bounding(shard.engine.dataset().located_users().map(|(_, p)| p));
            shard.churn = 0;
        }
        Ok(())
    }

    /// Routes a location removal to the owning shard (ownership is
    /// retained — an unlocated user is re-routed on their next report).
    pub fn remove_location(&mut self, user: UserId) -> Result<(), CoreError> {
        self.shards[0].engine.dataset().check_user(user)?;
        let owner = self.owner[user as usize] as usize;
        self.shards[owner].engine.remove_location(user)
    }

    /// Re-partitions for the **current** locations and tightens every
    /// shard's bounding rectangle.
    ///
    /// The cells are re-packed (contiguous, load-balanced serpentine runs)
    /// and users whose cell moved are migrated — the skew-repair pass for
    /// datasets whose population drifted since construction.  Every
    /// rectangle is re-tightened too (updates grow them conservatively and
    /// removals never shrink them).
    ///
    /// Re-partitioning moves **locations only**: the shared graph core and
    /// the `Arc`-held graph-only indexes (landmarks, CH, social cache) are
    /// never rebuilt or copied by a rebalance or a cross-shard migration —
    /// only the affected shards' grids and AIS indexes are updated.
    pub fn rebalance(&mut self) -> RebalanceReport {
        let located: Vec<(UserId, Point)> = self
            .shards
            .iter()
            .flat_map(|s| s.engine.dataset().located_users().collect::<Vec<_>>())
            .collect();
        let points: Vec<Point> = located.iter().map(|&(_, p)| p).collect();
        self.assignment.repack(&points);
        let mut moved_users = 0usize;
        for (user, p) in located {
            let new_owner = self.assignment.owner_for(user, Some(p));
            let old_owner = self.owner[user as usize] as usize;
            if new_owner != old_owner {
                self.shards[old_owner]
                    .engine
                    .remove_location(user)
                    .expect("migrating a resident user");
                self.shards[new_owner]
                    .engine
                    .update_location(user, p)
                    .expect("migrating a resident user");
                self.owner[user as usize] = new_owner as u32;
                moved_users += 1;
            }
        }
        for shard in &mut self.shards {
            shard.rect = Rect::bounding(shard.engine.dataset().located_users().map(|(_, p)| p));
            shard.churn = 0;
        }
        RebalanceReport {
            moved_users,
            occupancy: self.occupancy(),
        }
    }

    /// Lower bound on the score any admissible resident of `shard` can
    /// achieve: `(1 − α) · mindist(origin, rect) / norm` — `INFINITY` for
    /// an empty shard, an unlocated origin, or a bounding rectangle
    /// disjoint from the request's spatial filter window.
    pub(crate) fn shard_lower_bound(
        &self,
        shard: &Shard,
        request: &QueryRequest,
        origin: Option<Point>,
    ) -> f64 {
        let spatial_norm = self.shards[0].engine.dataset().spatial_norm();
        shard_score_lower_bound(shard.rect, request, origin, spatial_norm)
    }

    /// Validates the request against the sharded deployment and resolves
    /// the broadcast form: algorithm + index preflight (error parity with
    /// [`GeoSocialEngine::run`]) and the pinned query origin.
    pub(crate) fn prepare(&self, request: &QueryRequest) -> Result<QueryRequest, CoreError> {
        request.validate()?;
        let representative = &self.shards[0].engine;
        representative.dataset().check_user(request.user())?;
        representative.ready(request.algorithm())?;
        Ok(
            match request.origin().or_else(|| self.location(request.user())) {
                Some(origin) => request.clone().with_origin(origin),
                None => request.clone(),
            },
        )
    }

    /// The scatter-gather core: the transport layer's
    /// [`scatter_sequential`](crate::scatter_sequential) — the very loop a
    /// socket coordinator runs over remote shards, so both deployments
    /// share one visit order, threshold-forwarding rule and merge — over
    /// in-process shards that all execute through `ctx`, inside one
    /// [`QueryContext::share_social_expansion`] scope.
    pub(crate) fn scatter(
        &self,
        request: &QueryRequest,
        ctx: &mut QueryContext,
    ) -> Result<(QueryResult, ShardStats), CoreError> {
        let started = Instant::now();
        let base = self.prepare(request)?;
        // In-process shards fail the query on error — `Degrade` only makes
        // sense when a shard can fail independently (a process).
        let scatter = ctx
            .share_social_expansion(|ctx| {
                let ctx = RefCell::new(ctx);
                let mut transports: Vec<LocalShard<'_, '_>> = (0..self.shards.len())
                    .map(|index| LocalShard {
                        engine: self,
                        index,
                        ctx: &ctx,
                    })
                    .collect();
                transport::scatter_sequential(&mut transports, &base, FailurePolicy::Fail, None)
            })
            .map_err(|e| e.error)?;
        let scatter_elapsed = started.elapsed();
        let merge_started = Instant::now();
        let ranked = transport::merge_ranked(scatter.entries, base.k());
        let merge_elapsed = merge_started.elapsed();
        let shard_stats = ShardStats::new(scatter.outcomes, started.elapsed());
        crate::obs::record_scatter(
            ssrq_obs::Registry::global(),
            &shard_stats,
            scatter_elapsed,
            merge_elapsed,
        );
        let result = QueryResult {
            ranked,
            k: base.k(),
            degraded: scatter.degraded,
            stats: shard_stats.merged,
        };
        Ok((result, shard_stats))
    }
}

/// The in-process [`ShardTransport`]: one shard of a [`ShardedEngine`],
/// executing through the scatter's one (single-threaded, hence `RefCell`)
/// query context.
struct LocalShard<'a, 'b> {
    engine: &'a ShardedEngine,
    index: usize,
    ctx: &'a RefCell<&'b mut QueryContext>,
}

impl ShardTransport for LocalShard<'_, '_> {
    type Error = CoreError;

    fn score_lower_bound(&self, request: &QueryRequest) -> f64 {
        self.engine
            .shard_lower_bound(&self.engine.shards[self.index], request, request.origin())
    }

    fn execute(&mut self, request: &QueryRequest) -> Result<QueryResult, CoreError> {
        let mut ctx = self.ctx.borrow_mut();
        self.engine.shards[self.index]
            .engine
            .run_with(request, &mut ctx)
    }

    fn describe(&self) -> String {
        format!("local shard {}", self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(engine.shards[0].churn, 1);
        let grown = engine.shards[0].rect.unwrap();
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
            engine.shards[0].churn < RECT_REFRESH_CHURN,
            "the opportunistic refresh resets the churn counter"
        );
        let tightened = engine.shards[0].rect.unwrap();
        assert!(
            tightened.max.x < 0.5 && tightened.max.y < 0.5,
            "the refreshed rect {tightened:?} still carries relocation slack"
        );
    }

    #[test]
    fn rebalance_resets_the_churn_counter() {
        let mut engine = clustered_engine();
        engine.update_location(0, Point::new(0.9, 0.9)).unwrap();
        assert_eq!(engine.shards[0].churn, 1);
        engine.rebalance();
        assert_eq!(engine.shards[0].churn, 0);
        let rect = engine.shards[0].rect.unwrap();
        assert!(rect.max.x >= 0.9, "the resident at (0.9, 0.9) is covered");
    }
}
