use crate::driver::{AnswerBook, Search, StepOutcome};
use crate::{QueryContext, QueryStats, RankingContext};
use ssrq_graph::{ChQueryScratch, ContractionHierarchy, IncrementalDijkstra};
use ssrq_spatial::{IncrementalNn, Point, UniformGrid};

/// The Spatial First Approach (SPA, §4.1) as a resumable search.
///
/// Each step pulls one neighbour from the incremental spatial NN stream and
/// fully evaluates it; the spatial-only lower bound
/// `θ = (1 − α) · d(u_q, u_last)` finalizes result entries as it rises.
#[derive(Debug)]
pub(crate) struct SpaDriver<'a> {
    /// When set, social distances come from Contraction Hierarchies
    /// point-to-point queries (the SPA-CH baseline of Figure 8).
    ch: Option<&'a ContractionHierarchy>,
    ch_scratch: &'a mut ChQueryScratch,
    /// Shared social expansion: all evaluations have the query vertex as
    /// the source, so one resumable Dijkstra serves every candidate (the
    /// computation reuse the paper credits the vanilla methods with).
    social: IncrementalDijkstra<'a>,
    nn: IncrementalNn<'a>,
}

impl<'a> SpaDriver<'a> {
    /// An SPA search from `origin` over the engine's uniform grid.
    pub(crate) fn new(
        ranking: &RankingContext<'a>,
        grid: &'a UniformGrid,
        origin: Point,
        ch: Option<&'a ContractionHierarchy>,
        qctx: &'a mut QueryContext,
    ) -> Self {
        let graph = ranking.dataset().graph();
        SpaDriver {
            ch,
            ch_scratch: &mut qctx.ch,
            social: IncrementalDijkstra::new(graph, ranking.query_user(), &mut qctx.social),
            nn: grid.nearest_neighbors(origin),
        }
    }
}

impl Search for SpaDriver<'_> {
    fn step(&mut self, book: &mut AnswerBook<'_>) -> StepOutcome {
        let Some(neighbor) = self.nn.next() else {
            // The spatial stream is exhausted: users it never produced have
            // no location, hence an infinite spatial distance and (for
            // α < 1) an infinite score — the interim result is final.
            book.topk.raise_threshold(f64::INFINITY);
            return StepOutcome::Complete;
        };
        let user_q = book.request.user();
        if neighbor.id == user_q {
            return StepOutcome::Progress;
        }
        book.stats.vertex_pops += 1;
        book.stats.spatial_pops = self.nn.pops();
        let spatial_norm = book.ctx.normalize_spatial(neighbor.distance);
        if book.request.admits(book.dataset(), neighbor.id) {
            let raw_social = match self.ch {
                Some(ch) => ch.distance_with(user_q, neighbor.id, self.ch_scratch),
                None => {
                    let before = self.social.settled_count();
                    let graph = book.dataset().graph();
                    let d = self.social.run_until_settled(graph, neighbor.id);
                    book.stats.social_pops += self.social.settled_count() - before;
                    d
                }
            };
            book.stats.distance_calls += 1;
            let social_norm = book.ctx.normalize_social(raw_social);
            book.consider(neighbor.id, social_norm, spatial_norm);
        }
        if book.raise((1.0 - book.request.alpha()) * spatial_norm) {
            StepOutcome::Complete
        } else {
            StepOutcome::Progress
        }
    }

    fn fold_stats(&self, stats: &mut QueryStats) {
        stats.relaxed_edges = self.social.relaxations();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::exhaustive;
    use crate::driver::{Driven, QueryDriver};
    use crate::{
        Algorithm, CoreError, GeoSocialDataset, GeoSocialEngine, QueryRequest, QueryResult,
    };
    use ssrq_graph::GraphBuilder;
    use ssrq_spatial::Rect;

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
        ch: Option<&ContractionHierarchy>,
    ) -> Result<QueryResult, CoreError> {
        let mut qctx = QueryContext::new();
        let book = AnswerBook::new(dataset, request);
        let origin = book.ctx.origin().expect("a located query user");
        let search = SpaDriver::new(&book.ctx, grid, origin, ch, &mut qctx);
        Driven::new(book, search).run_to_completion()
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
                    let got = spa(&dataset, &grid, &request, None).unwrap();
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
            let got = spa(&dataset, &grid, &request, None).unwrap();
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
            let got = spa(&dataset, &grid, &request, Some(&ch)).unwrap();
            assert!(got.same_users_and_scores(&expected, 1e-9), "user {user}");
        }
    }

    #[test]
    fn unlocated_query_user_gets_empty_result() {
        let engine = GeoSocialEngine::builder(dataset()).build().unwrap();
        // User 10 has no location (10 % 11 == 10).
        let request = req(10, 5, 0.5).with_algorithm(Algorithm::Spa);
        let result = engine.run(&request).unwrap();
        assert!(result.ranked.is_empty());
    }

    #[test]
    fn spatially_led_queries_terminate_early() {
        let dataset = dataset();
        let grid = grid_for(&dataset);
        // Spatial-heavy alpha: the first few NNs dominate.
        let result = spa(&dataset, &grid, &req(0, 1, 0.1), None).unwrap();
        assert!(result.stats.evaluated_users < dataset.located_user_count());
    }

    #[test]
    fn stats_count_spatial_and_social_work() {
        let dataset = dataset();
        let grid = grid_for(&dataset);
        let result = spa(&dataset, &grid, &req(5, 3, 0.5), None).unwrap();
        assert!(result.stats.spatial_pops > 0);
        assert!(result.stats.social_pops > 0);
        assert!(result.stats.distance_calls >= result.stats.evaluated_users);
    }
}
