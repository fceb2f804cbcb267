use crate::driver::{drain_new_finalized, QueryDriver, StepOutcome};
use crate::{
    CoreError, GeoSocialDataset, QueryContext, QueryRequest, QueryResult, QueryStats, RankedUser,
    RankingContext, TopK,
};
use ssrq_graph::{ContractionHierarchy, IncrementalDijkstra};
use ssrq_spatial::{IncrementalNn, UniformGrid};
use std::time::Instant;

/// How SPA computes the social distance of a spatially-encountered user.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SpaOptions<'a> {
    /// When set, social distances come from Contraction Hierarchies
    /// point-to-point queries (the SPA-CH baseline of Figure 8); otherwise a
    /// single incremental Dijkstra expansion rooted at the query vertex is
    /// reused across all evaluations.
    pub ch: Option<&'a ContractionHierarchy>,
}

/// The Spatial First Approach (SPA, §4.1) as a resumable state machine.
///
/// Each [`QueryDriver::step`] pulls one neighbour from the incremental
/// spatial NN stream and fully evaluates it; the spatial-only lower bound
/// `θ = (1 − α) · d(u_q, u_last)` finalizes result entries as it rises.
#[derive(Debug)]
pub(crate) struct SpaDriver<'a> {
    dataset: &'a GeoSocialDataset,
    request: QueryRequest,
    ctx: RankingContext<'a>,
    ch: Option<&'a ContractionHierarchy>,
    ch_scratch: &'a mut ssrq_graph::ChQueryScratch,
    /// Shared social expansion: all evaluations have the query vertex as
    /// the source, so one resumable Dijkstra serves every candidate (the
    /// computation reuse the paper credits the vanilla methods with).
    social: IncrementalDijkstra<'a>,
    /// `None` for an unlocated query user (the driver completes with an
    /// empty result on construction).
    nn: Option<IncrementalNn<'a>>,
    topk: TopK,
    stats: QueryStats,
    start: Instant,
    emitted: usize,
    result: Option<Result<QueryResult, CoreError>>,
    done: bool,
}

impl<'a> SpaDriver<'a> {
    /// Starts an SPA search over the engine's uniform grid.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] / [`CoreError::UnknownUser`] for an
    /// invalid request.
    pub(crate) fn new(
        dataset: &'a GeoSocialDataset,
        grid: &'a UniformGrid,
        request: &QueryRequest,
        options: SpaOptions<'a>,
        qctx: &'a mut QueryContext,
    ) -> Result<Self, CoreError> {
        request.validate()?;
        dataset.check_user(request.user())?;
        let start = Instant::now();
        let QueryContext { social, ch } = qctx;
        let mut driver = SpaDriver {
            ctx: RankingContext::new(dataset, request),
            topk: TopK::for_request(request),
            ch: options.ch,
            ch_scratch: ch,
            social: IncrementalDijkstra::new(dataset.graph(), request.user(), social),
            nn: request
                .resolved_origin(dataset)
                .map(|loc| grid.nearest_neighbors(loc)),
            dataset,
            request: request.clone(),
            stats: QueryStats::default(),
            start,
            emitted: 0,
            result: None,
            done: false,
        };
        if driver.nn.is_none() {
            // Without a query location every spatial distance is infinite
            // and no candidate can achieve a finite score (α < 1).
            driver.complete();
        }
        Ok(driver)
    }

    fn complete(&mut self) -> StepOutcome {
        self.stats.relaxed_edges = self.social.relaxations();
        self.stats.streamable_results = self.topk.finalized();
        self.stats.runtime = self.start.elapsed();
        let topk = std::mem::replace(&mut self.topk, TopK::new(0));
        self.result = Some(Ok(QueryResult {
            ranked: topk.into_sorted_vec(),
            k: self.request.k(),
            degraded: false,
            stats: self.stats,
        }));
        self.done = true;
        StepOutcome::Complete
    }
}

impl QueryDriver for SpaDriver<'_> {
    fn step(&mut self) -> StepOutcome {
        if self.done {
            return StepOutcome::Complete;
        }
        let nn = self
            .nn
            .as_mut()
            .expect("running SPA driver has an NN stream");
        let Some(neighbor) = nn.next() else {
            // The spatial stream is exhausted: users it never produced have
            // no location, hence an infinite spatial distance and (for
            // α < 1) an infinite score — the interim result is final.
            self.topk.raise_threshold(f64::INFINITY);
            return self.complete();
        };
        if neighbor.id == self.request.user() {
            return StepOutcome::Progress;
        }
        self.stats.vertex_pops += 1;
        self.stats.spatial_pops = nn.pops();
        let spatial_norm = self.ctx.normalize_spatial(neighbor.distance);
        if self.request.admits(self.dataset, neighbor.id) {
            let raw_social = match self.ch {
                Some(ch) => {
                    self.stats.distance_calls += 1;
                    ch.distance_with(self.request.user(), neighbor.id, self.ch_scratch)
                }
                None => {
                    let before = self.social.settled_count();
                    let d = self
                        .social
                        .run_until_settled(self.dataset.graph(), neighbor.id);
                    self.stats.social_pops += self.social.settled_count() - before;
                    self.stats.distance_calls += 1;
                    d
                }
            };
            let social_norm = self.ctx.normalize_social(raw_social);
            let score = self.ctx.score(social_norm, spatial_norm);
            self.stats.evaluated_users += 1;
            self.topk.consider(RankedUser {
                user: neighbor.id,
                score,
                social: social_norm,
                spatial: spatial_norm,
            });
        }
        let theta = (1.0 - self.request.alpha()) * spatial_norm;
        self.topk.raise_threshold(theta);
        if theta >= self.topk.fk() {
            return self.complete();
        }
        StepOutcome::Progress
    }

    fn drain_finalized(&mut self, out: &mut Vec<RankedUser>) {
        if !self.done {
            drain_new_finalized(&self.topk, &mut self.emitted, out);
        }
    }

    fn is_complete(&self) -> bool {
        self.done
    }

    fn stats(&self) -> QueryStats {
        let mut stats = self.stats;
        if !self.done {
            stats.relaxed_edges = self.social.relaxations();
            stats.streamable_results = self.topk.finalized();
            stats.runtime = self.start.elapsed();
        }
        stats
    }

    fn take_result(&mut self) -> Result<QueryResult, CoreError> {
        self.result
            .take()
            .expect("SpaDriver not complete or result already taken")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::exhaustive;
    use ssrq_graph::GraphBuilder;
    use ssrq_spatial::{Point, Rect};

    fn req(user: u32, k: usize, alpha: f64) -> QueryRequest {
        QueryRequest::for_user(user)
            .k(k)
            .alpha(alpha)
            .build()
            .unwrap()
    }

    fn dataset() -> GeoSocialDataset {
        let n = 36u32;
        let mut builder = GraphBuilder::new(n as usize);
        for i in 0..n {
            builder
                .add_edge(i, (i + 1) % n, 0.3 + (i % 5) as f64 * 0.25)
                .unwrap();
        }
        for i in (1..n).step_by(5) {
            builder
                .add_edge(i, (i + 13) % n, 0.9 + (i % 2) as f64 * 0.6)
                .unwrap();
        }
        let graph = builder.build();
        let locations: Vec<Option<Point>> = (0..n)
            .map(|i| {
                if i % 11 == 10 {
                    None
                } else {
                    Some(Point::new(
                        ((i as f64) * 0.381_966) % 1.0,
                        ((i as f64 + 3.0) * 0.272_19) % 1.0,
                    ))
                }
            })
            .collect();
        GeoSocialDataset::new(graph, locations).unwrap()
    }

    fn spa(
        dataset: &GeoSocialDataset,
        grid: &UniformGrid,
        request: &QueryRequest,
        options: SpaOptions<'_>,
    ) -> Result<QueryResult, CoreError> {
        let mut qctx = QueryContext::new();
        SpaDriver::new(dataset, grid, request, options, &mut qctx)?.run_to_completion()
    }

    fn grid_for(dataset: &GeoSocialDataset) -> UniformGrid {
        UniformGrid::bulk_load(Rect::unit(), 8, dataset.located_users()).unwrap()
    }

    #[test]
    fn matches_exhaustive_on_a_grid_of_parameters() {
        let dataset = dataset();
        let grid = grid_for(&dataset);
        for &alpha in &[0.1, 0.5, 0.9] {
            for &k in &[1usize, 5, 9] {
                for user in [0u32, 8, 17, 29] {
                    let request = req(user, k, alpha);
                    let expected = exhaustive::run(&dataset, &request).unwrap();
                    let got = spa(&dataset, &grid, &request, SpaOptions::default()).unwrap();
                    assert!(
                        got.same_users_and_scores(&expected, 1e-9),
                        "alpha {alpha}, k {k}, user {user}"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_exhaustive_under_request_filters() {
        let dataset = dataset();
        let grid = grid_for(&dataset);
        for user in [0u32, 17] {
            let request = QueryRequest::for_user(user)
                .k(5)
                .alpha(0.5)
                .within(Rect::new(Point::new(0.0, 0.0), Point::new(0.7, 0.7)))
                .exclude([4, 9])
                .max_score(0.7)
                .build()
                .unwrap();
            let expected = exhaustive::run(&dataset, &request).unwrap();
            let got = spa(&dataset, &grid, &request, SpaOptions::default()).unwrap();
            assert!(got.same_users_and_scores(&expected, 1e-9), "user {user}");
        }
    }

    #[test]
    fn ch_variant_matches_exhaustive() {
        let dataset = dataset();
        let grid = grid_for(&dataset);
        let ch = ContractionHierarchy::new(dataset.graph());
        for user in [3u32, 24] {
            let request = req(user, 5, 0.3);
            let expected = exhaustive::run(&dataset, &request).unwrap();
            let got = spa(&dataset, &grid, &request, SpaOptions { ch: Some(&ch) }).unwrap();
            assert!(got.same_users_and_scores(&expected, 1e-9), "user {user}");
        }
    }

    #[test]
    fn unlocated_query_user_gets_empty_result() {
        let dataset = dataset();
        let grid = grid_for(&dataset);
        // User 10 has no location (10 % 11 == 10).
        let result = spa(&dataset, &grid, &req(10, 5, 0.5), SpaOptions::default()).unwrap();
        assert!(result.ranked.is_empty());
    }

    #[test]
    fn spatially_led_queries_terminate_early() {
        let dataset = dataset();
        let grid = grid_for(&dataset);
        // Spatial-heavy alpha: the first few NNs dominate.
        let result = spa(&dataset, &grid, &req(0, 1, 0.1), SpaOptions::default()).unwrap();
        assert!(result.stats.evaluated_users < dataset.located_user_count());
    }

    #[test]
    fn stats_count_spatial_and_social_work() {
        let dataset = dataset();
        let grid = grid_for(&dataset);
        let result = spa(&dataset, &grid, &req(5, 3, 0.5), SpaOptions::default()).unwrap();
        assert!(result.stats.spatial_pops > 0);
        assert!(result.stats.social_pops > 0);
        assert!(result.stats.distance_calls >= result.stats.evaluated_users);
    }
}
