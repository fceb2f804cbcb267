//! The Social First Approach (SFA, §4.1) and its CH baseline.
//!
//! SFA visits users in increasing social distance from the query user and
//! scores each one on the spot.  It stops when the threshold
//! `θ = combine(α, p(v_q, v_last), d⁻)` reaches `f_k`: every unseen user is
//! socially at least `p(v_q, v_last)` away and, if it is admissible and
//! located in this engine, spatially at least `d⁻` away — `d⁻` being the
//! distance from the origin to the engine's located box intersected with
//! the request's window
//! ([`RankingContext::stop_bound`](crate::RankingContext::stop_bound)).
//! This is Fagin, Lotem and Naor's threshold over both attributes.
//!
//! On one engine whose query user is located (and no window or explicit
//! origin lies elsewhere) `d⁻ = 0`, so `θ` is bit-identical to the paper's
//! `α · p(v_q, v_last)` and so are the answer, the settle order and every
//! counter.  On a shard that does not hold the origin, `d⁻ > 0` and the
//! search stops once no remaining user can score below `f_k`, instead of
//! repeating the owner's social search out to the same radius.  The same
//! test ends SFA-CH's scan and SFA-Cached's list walk.

use crate::driver::{drain_new_finalized, QueryDriver, StepOutcome};
use crate::{
    CoreError, GeoSocialDataset, QueryContext, QueryRequest, QueryResult, QueryStats, RankedUser,
    RankingContext, TopK, UserId,
};
use ssrq_graph::{ContractionHierarchy, IncrementalDijkstra};
use std::time::Instant;

/// The Social First Approach (SFA, §4.1) as a resumable state machine.
///
/// Each [`QueryDriver::step`] settles one vertex of the query-rooted social
/// Dijkstra expansion and evaluates it on the spot; the lower bound
/// `θ = combine(α, p(v_q, v_last), d⁻)` (see the module notes) finalizes
/// result entries as it rises, so the driver emits top-k entries long
/// before the search terminates.
#[derive(Debug)]
pub(crate) struct SfaDriver<'a> {
    dataset: &'a GeoSocialDataset,
    request: QueryRequest,
    ctx: RankingContext<'a>,
    social: IncrementalDijkstra<'a>,
    topk: TopK,
    stats: QueryStats,
    start: Instant,
    emitted: usize,
    result: Option<Result<QueryResult, CoreError>>,
    done: bool,
}

impl<'a> SfaDriver<'a> {
    /// Starts an SFA search, drawing all mutable search state from `qctx`.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] / [`CoreError::UnknownUser`] for an
    /// invalid request.
    pub(crate) fn new(
        dataset: &'a GeoSocialDataset,
        request: &QueryRequest,
        qctx: &'a mut QueryContext,
    ) -> Result<Self, CoreError> {
        request.validate()?;
        dataset.check_user(request.user())?;
        let start = Instant::now();
        Ok(SfaDriver {
            ctx: RankingContext::new(dataset, request),
            topk: TopK::for_request(request),
            social: IncrementalDijkstra::new(dataset.graph(), request.user(), &mut qctx.social),
            dataset,
            request: request.clone(),
            stats: QueryStats::default(),
            start,
            emitted: 0,
            result: None,
            done: false,
        })
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

impl QueryDriver for SfaDriver<'_> {
    fn step(&mut self) -> StepOutcome {
        if self.done {
            return StepOutcome::Complete;
        }
        let Some((vertex, raw_social)) = self.social.next_settled(self.dataset.graph()) else {
            // The expansion exhausted the component without reaching the
            // threshold: the remaining users are socially unreachable and
            // therefore have infinite ranking values (α > 0), so the
            // interim result is final — raise the bound accordingly.
            self.topk.raise_threshold(f64::INFINITY);
            return self.complete();
        };
        self.stats.social_pops += 1;
        self.stats.vertex_pops += 1;
        if self.request.admits(self.dataset, vertex) {
            let (score, social_norm, spatial_norm) =
                self.ctx.score_from_raw_social(vertex, raw_social);
            self.stats.evaluated_users += 1;
            self.topk.consider(RankedUser {
                user: vertex,
                score,
                social: social_norm,
                spatial: spatial_norm,
            });
        }
        // Termination: every unseen user is at least as far socially as the
        // last settled vertex, and at least `d⁻` away spatially if it can
        // score at all — which also makes θ a finalization bound for the
        // entries already held.
        let theta = self.ctx.stop_bound(raw_social);
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
            .expect("SfaDriver not complete or result already taken")
    }
}

/// The two phases of the SFA-CH machine: ranking every user by its CH
/// distance, then scanning the sorted order with the SFA termination test.
#[derive(Debug)]
enum SfaChPhase {
    /// One CH point-to-point distance per step; `next_user` walks the
    /// vertex range.
    Rank { next_user: UserId },
    /// One sorted candidate per step.
    Scan { idx: usize },
}

/// The SFA-CH baseline (§6, Figure 8) as a resumable state machine.
///
/// CH provides no incremental "next socially-closest user" primitive, so
/// the machine first computes the CH distance of every user (one
/// point-to-point query per [`QueryDriver::step`]), sorts once, and then
/// scans the sorted order with the SFA termination test — entries only
/// start finalizing in the scan phase, which is exactly why the paper finds
/// the `*-CH` variants unattractive on social networks.
#[derive(Debug)]
pub(crate) struct SfaChDriver<'a> {
    dataset: &'a GeoSocialDataset,
    ch: &'a ContractionHierarchy,
    ch_scratch: &'a mut ssrq_graph::ChQueryScratch,
    request: QueryRequest,
    ctx: RankingContext<'a>,
    order: Vec<(UserId, f64)>,
    phase: SfaChPhase,
    topk: TopK,
    stats: QueryStats,
    start: Instant,
    emitted: usize,
    result: Option<Result<QueryResult, CoreError>>,
    done: bool,
}

impl<'a> SfaChDriver<'a> {
    /// Starts an SFA-CH search against the given Contraction Hierarchies
    /// index.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] / [`CoreError::UnknownUser`] for an
    /// invalid request.
    pub(crate) fn new(
        dataset: &'a GeoSocialDataset,
        ch: &'a ContractionHierarchy,
        request: &QueryRequest,
        qctx: &'a mut QueryContext,
    ) -> Result<Self, CoreError> {
        request.validate()?;
        dataset.check_user(request.user())?;
        let start = Instant::now();
        Ok(SfaChDriver {
            ctx: RankingContext::new(dataset, request),
            topk: TopK::for_request(request),
            order: Vec::with_capacity(dataset.user_count().saturating_sub(1)),
            phase: SfaChPhase::Rank { next_user: 0 },
            dataset,
            ch,
            ch_scratch: &mut qctx.ch,
            request: request.clone(),
            stats: QueryStats::default(),
            start,
            emitted: 0,
            result: None,
            done: false,
        })
    }

    fn complete(&mut self) -> StepOutcome {
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

impl QueryDriver for SfaChDriver<'_> {
    fn step(&mut self) -> StepOutcome {
        if self.done {
            return StepOutcome::Complete;
        }
        match self.phase {
            SfaChPhase::Rank { next_user } => {
                if next_user as usize >= self.dataset.user_count() {
                    // All distances computed: sort once (ties broken on user
                    // id for determinism) and move to the scan phase.
                    self.order.sort_by(|a, b| {
                        a.1.partial_cmp(&b.1)
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then_with(|| a.0.cmp(&b.0))
                    });
                    self.phase = SfaChPhase::Scan { idx: 0 };
                    return StepOutcome::Progress;
                }
                self.phase = SfaChPhase::Rank {
                    next_user: next_user + 1,
                };
                if next_user == self.request.user() {
                    return StepOutcome::Progress;
                }
                let d = self
                    .ch
                    .distance_with(self.request.user(), next_user, self.ch_scratch);
                self.stats.distance_calls += 1;
                if d.is_finite() {
                    self.order.push((next_user, d));
                }
                StepOutcome::Progress
            }
            SfaChPhase::Scan { idx } => {
                let Some(&(user, raw_social)) = self.order.get(idx) else {
                    // Every finite-distance user was scanned; the rest are
                    // socially unreachable (infinite score for α > 0), so
                    // the result is final.
                    self.topk.raise_threshold(f64::INFINITY);
                    return self.complete();
                };
                self.phase = SfaChPhase::Scan { idx: idx + 1 };
                self.stats.social_pops += 1;
                self.stats.vertex_pops += 1;
                if self.request.admits(self.dataset, user) {
                    let (score, social_norm, spatial_norm) =
                        self.ctx.score_from_raw_social(user, raw_social);
                    self.stats.evaluated_users += 1;
                    self.topk.consider(RankedUser {
                        user,
                        score,
                        social: social_norm,
                        spatial: spatial_norm,
                    });
                }
                let theta = self.ctx.stop_bound(raw_social);
                self.topk.raise_threshold(theta);
                if theta >= self.topk.fk() {
                    return self.complete();
                }
                StepOutcome::Progress
            }
        }
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
            stats.streamable_results = self.topk.finalized();
            stats.runtime = self.start.elapsed();
        }
        stats
    }

    fn take_result(&mut self) -> Result<QueryResult, CoreError> {
        self.result
            .take()
            .expect("SfaChDriver not complete or result already taken")
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

    fn sfa(dataset: &GeoSocialDataset, request: &QueryRequest) -> QueryResult {
        let mut qctx = QueryContext::new();
        let mut driver = SfaDriver::new(dataset, request, &mut qctx).unwrap();
        driver.run_to_completion().unwrap()
    }

    fn sfa_ch(
        dataset: &GeoSocialDataset,
        ch: &ContractionHierarchy,
        request: &QueryRequest,
    ) -> QueryResult {
        let mut qctx = QueryContext::new();
        let mut driver = SfaChDriver::new(dataset, ch, request, &mut qctx).unwrap();
        driver.run_to_completion().unwrap()
    }

    fn dataset() -> GeoSocialDataset {
        let n = 40u32;
        let mut builder = GraphBuilder::new(n as usize);
        for i in 0..n {
            builder
                .add_edge(i, (i + 1) % n, 0.4 + (i % 7) as f64 * 0.2)
                .unwrap();
        }
        for i in (0..n).step_by(4) {
            builder
                .add_edge(i, (i + 11) % n, 0.8 + (i % 3) as f64 * 0.4)
                .unwrap();
        }
        let graph = builder.build();
        let locations: Vec<Option<Point>> = (0..n)
            .map(|i| {
                if i % 9 == 8 {
                    None
                } else {
                    Some(Point::new(
                        ((i as f64) * 0.618_033_9) % 1.0,
                        ((i as f64) * 0.414_213_5) % 1.0,
                    ))
                }
            })
            .collect();
        GeoSocialDataset::new(graph, locations).unwrap()
    }

    #[test]
    fn matches_exhaustive_on_a_grid_of_parameters() {
        let dataset = dataset();
        for &alpha in &[0.1, 0.5, 0.9] {
            for &k in &[1usize, 4, 12] {
                for user in [0u32, 7, 21, 33] {
                    let request = req(user, k, alpha);
                    let expected = exhaustive::run(&dataset, &request).unwrap();
                    let got = sfa(&dataset, &request);
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
        let window = Rect::new(Point::new(0.1, 0.1), Point::new(0.8, 0.9));
        for user in [0u32, 21] {
            let request = QueryRequest::for_user(user)
                .k(6)
                .alpha(0.4)
                .within(window)
                .exclude([1, 2, 3])
                .max_score(0.6)
                .build()
                .unwrap();
            let expected = exhaustive::run(&dataset, &request).unwrap();
            let got = sfa(&dataset, &request);
            assert!(got.same_users_and_scores(&expected, 1e-9), "user {user}");
        }
    }

    #[test]
    fn ch_variant_matches_exhaustive() {
        let dataset = dataset();
        let ch = ContractionHierarchy::new(dataset.graph());
        for &alpha in &[0.3, 0.7] {
            for user in [2u32, 19] {
                let request = req(user, 6, alpha);
                let expected = exhaustive::run(&dataset, &request).unwrap();
                let got = sfa_ch(&dataset, &ch, &request);
                assert!(
                    got.same_users_and_scores(&expected, 1e-9),
                    "alpha {alpha}, user {user}"
                );
            }
        }
    }

    #[test]
    fn terminates_before_scanning_everything_for_social_heavy_queries() {
        let dataset = dataset();
        // With a very social-heavy alpha the first few settled vertices
        // already dominate; SFA must not expand the whole graph.
        let result = sfa(&dataset, &req(0, 2, 0.9));
        assert!(result.stats.social_pops < dataset.user_count());
        // The incremental threshold finalizes the result before completion.
        assert_eq!(result.stats.streamable_results, result.ranked.len());
    }

    #[test]
    fn disconnected_query_user_yields_results_only_from_its_component() {
        let graph =
            GraphBuilder::from_edges(5, vec![(0, 1, 1.0), (2, 3, 1.0), (3, 4, 1.0)]).unwrap();
        let locations = vec![Some(Point::new(0.1, 0.1)); 5];
        let dataset = GeoSocialDataset::new(graph, locations).unwrap();
        let result = sfa(&dataset, &req(0, 4, 0.5));
        assert_eq!(result.users(), vec![1]);
    }
}
