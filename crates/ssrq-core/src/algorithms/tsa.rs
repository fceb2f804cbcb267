use crate::driver::{drain_new_finalized, QueryDriver, StepOutcome};
use crate::{
    CoreError, GeoSocialDataset, QueryContext, QueryRequest, QueryResult, QueryStats, RankedUser,
    RankingContext, TopK, UserId,
};
use ssrq_graph::{ContractionHierarchy, IncrementalDijkstra, LandmarkSet};
use ssrq_spatial::{IncrementalNn, UniformGrid};
use std::collections::HashMap;
use std::time::Instant;

/// Configuration of the Twofold Search Approach (TSA, §4.2).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TsaOptions<'a> {
    /// Probe the two searches with the Quick Combine heuristic instead of
    /// round-robin (the TSA-QC variant).
    pub quick_combine: bool,
    /// Landmark set used to prune candidates before the second phase (the
    /// "TSA with landmarks" enhancement); `None` disables pruning.
    pub landmarks: Option<&'a LandmarkSet>,
    /// When set, the second phase evaluates the surviving candidates with
    /// Contraction Hierarchies point-to-point queries instead of continuing
    /// the social expansion (the TSA-CH baseline of Figure 8).
    pub ch_phase2: Option<&'a ContractionHierarchy>,
}

/// Where the TSA machine currently is.
#[derive(Debug)]
enum TsaPhase {
    /// Phase 1: concurrent social + spatial search, one probe per step.
    Concurrent,
    /// Phase 2, CH flavour: the surviving candidates in ascending spatial
    /// order, one CH evaluation per step.
    EvalCh {
        order: Vec<(UserId, f64)>,
        idx: usize,
    },
    /// Phase 2, social flavour: the social expansion continues, one settled
    /// vertex per step; `t_d_prime` is the smallest spatial distance among
    /// the remaining candidates.
    EvalSocial { t_d_prime: f64 },
}

/// The Twofold Search Approach (TSA, Algorithm 1 of the paper) as a
/// resumable state machine.
///
/// **Phase 1** alternates between the social expansion (Dijkstra around
/// `v_q`) and the incremental spatial NN search around `u_q` — one probe
/// per [`QueryDriver::step`].  Socially encountered users are fully
/// evaluated on the spot (their Euclidean distance is cheap); spatially
/// encountered users that the social search has not yet reached are parked
/// in the candidate set `Q`.  The phase ends when
/// `θ = α·t_p + (1−α)·t_d ≥ f_k`.
///
/// **Phase 2** evaluates (or disqualifies) the candidates in `Q`, one
/// candidate/probe per step; only the social search continues, because
/// further spatial progress cannot tighten the bound
/// `θ' = α·t_p + (1−α)·t'_d` (Lemma 1 of the paper).
///
/// Throughout, the *pending-aware* bound
/// `α·t_p + (1−α)·min(t_d, min_pending_d)` finalizes result entries, so the
/// driver emits top-k entries while both searches are still running.
#[derive(Debug)]
pub(crate) struct TsaDriver<'a> {
    dataset: &'a GeoSocialDataset,
    request: QueryRequest,
    ctx: RankingContext<'a>,
    quick_combine: bool,
    landmarks: Option<&'a LandmarkSet>,
    ch_phase2: Option<&'a ContractionHierarchy>,
    ch_scratch: &'a mut ssrq_graph::ChQueryScratch,
    social: IncrementalDijkstra<'a>,
    spatial: Option<IncrementalNn<'a>>,
    /// Candidate set Q: user -> normalized spatial distance.
    candidates: HashMap<UserId, f64>,
    // Lower bounds on the next result from each domain (normalized).
    tp: f64,
    td: f64,
    social_exhausted: bool,
    spatial_exhausted: bool,
    /// A conservative lower bound on the spatial distance of every candidate
    /// ever parked in Q (the spatial stream delivers increasing distances,
    /// so this is the distance of the first parked candidate).  It feeds the
    /// finalization bound: a pending candidate scores at least
    /// `α·t_p + (1−α)·min_pending_d`.
    min_pending_d: f64,
    // Quick Combine bookkeeping: probes made and distance reached per
    // domain, to estimate how fast each repository's distances increase.
    social_probes: usize,
    spatial_probes: usize,
    probe_social_next: bool,
    phase: TsaPhase,
    topk: TopK,
    stats: QueryStats,
    start: Instant,
    emitted: usize,
    result: Option<Result<QueryResult, CoreError>>,
    done: bool,
}

impl<'a> TsaDriver<'a> {
    /// Starts a TSA search over the engine's uniform grid.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] / [`CoreError::UnknownUser`] for an
    /// invalid request.
    pub(crate) fn new(
        dataset: &'a GeoSocialDataset,
        grid: &'a UniformGrid,
        request: &QueryRequest,
        options: TsaOptions<'a>,
        qctx: &'a mut QueryContext,
    ) -> Result<Self, CoreError> {
        request.validate()?;
        dataset.check_user(request.user())?;
        let start = Instant::now();
        let QueryContext { social, ch } = qctx;
        let spatial = request
            .resolved_origin(dataset)
            .map(|loc| grid.nearest_neighbors(loc));
        Ok(TsaDriver {
            ctx: RankingContext::new(dataset, request),
            topk: TopK::for_request(request),
            quick_combine: options.quick_combine,
            landmarks: options.landmarks,
            ch_phase2: options.ch_phase2,
            ch_scratch: ch,
            social: IncrementalDijkstra::new(dataset.graph(), request.user(), social),
            spatial_exhausted: spatial.is_none(),
            spatial,
            candidates: HashMap::new(),
            tp: 0.0,
            td: 0.0,
            social_exhausted: false,
            min_pending_d: f64::INFINITY,
            social_probes: 0,
            spatial_probes: 0,
            probe_social_next: true,
            phase: TsaPhase::Concurrent,
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

    /// Phase-1 → phase-2 transition: landmark pruning of the candidate set,
    /// then the flavour-specific phase-2 setup.
    fn begin_phase2(&mut self) {
        if let Some(landmarks) = self.landmarks {
            let fk = self.topk.fk();
            let ctx = self.ctx;
            let user_q = self.request.user();
            self.candidates.retain(|&user, &mut spatial_norm| {
                let social_lb = ctx.normalize_social(landmarks.lower_bound(user_q, user));
                ctx.score_lower_bound(social_lb, spatial_norm) < fk
            });
        }
        if self.ch_phase2.is_some() {
            // CH-based evaluation: cheapest spatial distance first so that
            // f_k tightens early (ties broken on user id for determinism).
            let mut order: Vec<(UserId, f64)> = self.candidates.drain().collect();
            order.sort_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| a.0.cmp(&b.0))
            });
            self.phase = TsaPhase::EvalCh { order, idx: 0 };
        } else {
            self.phase = TsaPhase::EvalSocial {
                t_d_prime: min_value(&self.candidates),
            };
        }
    }

    /// One phase-1 probe (a loop iteration of Algorithm 1).
    fn step_concurrent(&mut self) -> StepOutcome {
        if self.social_exhausted && self.spatial_exhausted {
            self.begin_phase2();
            return StepOutcome::Progress;
        }
        let alpha = self.request.alpha();
        let probe_social = if self.social_exhausted {
            false
        } else if self.spatial_exhausted {
            true
        } else if self.quick_combine {
            // Quick Combine: probe the repository whose weighted distance
            // grows fastest *per probe*, because it raises the termination
            // threshold θ the quickest.  The rate is estimated from the
            // average increase so far; until both repositories have been
            // probed a few times, alternate.
            if self.social_probes < 2 || self.spatial_probes < 2 {
                self.probe_social_next
            } else {
                let social_gain = alpha * self.tp / self.social_probes as f64;
                let spatial_gain = (1.0 - alpha) * self.td / self.spatial_probes as f64;
                if (social_gain - spatial_gain).abs() < f64::EPSILON {
                    self.probe_social_next
                } else {
                    social_gain > spatial_gain
                }
            }
        } else {
            self.probe_social_next
        };
        self.probe_social_next = !probe_social;

        if probe_social {
            match self.social.next_settled(self.dataset.graph()) {
                Some((vertex, raw_social)) => {
                    self.stats.social_pops += 1;
                    self.stats.vertex_pops += 1;
                    self.social_probes += 1;
                    let social_norm = self.ctx.normalize_social(raw_social);
                    self.tp = social_norm;
                    if self.request.admits(self.dataset, vertex) {
                        let spatial_norm = self.ctx.spatial(vertex);
                        let score = self.ctx.score(social_norm, spatial_norm);
                        self.stats.evaluated_users += 1;
                        self.topk.consider(RankedUser {
                            user: vertex,
                            score,
                            social: social_norm,
                            spatial: spatial_norm,
                        });
                    }
                    // A candidate reached by the social search is now fully
                    // evaluated (or inadmissible) and must leave Q
                    // (lines 7–8).
                    self.candidates.remove(&vertex);
                }
                None => {
                    self.social_exhausted = true;
                    self.tp = f64::INFINITY;
                }
            }
        } else if let Some(nn) = self.spatial.as_mut() {
            match nn.next() {
                Some(neighbor) => {
                    self.stats.spatial_pops = nn.pops();
                    self.stats.vertex_pops += 1;
                    self.spatial_probes += 1;
                    let spatial_norm = self.ctx.normalize_spatial(neighbor.distance);
                    self.td = spatial_norm;
                    if self.request.admits(self.dataset, neighbor.id)
                        && !self.social.is_settled(neighbor.id)
                    {
                        self.candidates.insert(neighbor.id, spatial_norm);
                        self.min_pending_d = self.min_pending_d.min(spatial_norm);
                    }
                }
                None => {
                    self.spatial_exhausted = true;
                    self.td = f64::INFINITY;
                }
            }
        }

        let theta = alpha * self.tp + (1.0 - alpha) * self.td;
        // Entries below the *pending-aware* bound are final: future stream
        // deliveries score at least θ, parked candidates at least
        // `α·t_p + (1−α)·min_pending_d`.
        self.topk
            .raise_threshold(alpha * self.tp + (1.0 - alpha) * self.td.min(self.min_pending_d));
        if theta >= self.topk.fk() {
            self.begin_phase2();
        }
        StepOutcome::Progress
    }

    /// One CH-flavoured phase-2 candidate evaluation.
    fn step_eval_ch(&mut self, idx: usize) -> StepOutcome {
        let alpha = self.request.alpha();
        let order = match std::mem::replace(&mut self.phase, TsaPhase::Concurrent) {
            TsaPhase::EvalCh { order, .. } => order,
            _ => unreachable!("step_eval_ch called outside EvalCh"),
        };
        let entry = order.get(idx).copied();
        self.phase = TsaPhase::EvalCh {
            order,
            idx: idx + 1,
        };
        let Some((user, spatial_norm)) = entry else {
            return self.complete();
        };
        // θ' with this candidate's spatial distance as t'_d — a bound on
        // this and every later candidate (the order is ascending).
        let theta_prime = alpha * self.tp + (1.0 - alpha) * spatial_norm;
        self.topk.raise_threshold(theta_prime);
        if theta_prime >= self.topk.fk() {
            return self.complete();
        }
        let raw_social = self
            .ch_phase2
            .expect("EvalCh phase requires a CH index")
            .distance_with(self.request.user(), user, self.ch_scratch);
        self.stats.distance_calls += 1;
        self.stats.evaluated_users += 1;
        let social_norm = self.ctx.normalize_social(raw_social);
        let score = self.ctx.score(social_norm, spatial_norm);
        self.topk.consider(RankedUser {
            user,
            score,
            social: social_norm,
            spatial: spatial_norm,
        });
        StepOutcome::Progress
    }

    /// One social-flavoured phase-2 probe.
    fn step_eval_social(&mut self, t_d_prime: f64) -> StepOutcome {
        let alpha = self.request.alpha();
        if self.candidates.is_empty() {
            // Every candidate was resolved; only users beyond both streams
            // remain, and they score at least θ'.
            let theta_prime = alpha * self.tp + (1.0 - alpha) * t_d_prime;
            self.topk.raise_threshold(theta_prime);
            return self.complete();
        }
        let theta_prime = alpha * self.tp + (1.0 - alpha) * t_d_prime;
        self.topk.raise_threshold(theta_prime);
        if theta_prime >= self.topk.fk() {
            return self.complete();
        }
        match self.social.next_settled(self.dataset.graph()) {
            Some((vertex, raw_social)) => {
                self.stats.social_pops += 1;
                self.stats.vertex_pops += 1;
                let social_norm = self.ctx.normalize_social(raw_social);
                self.tp = social_norm;
                if let Some(spatial_norm) = self.candidates.remove(&vertex) {
                    let score = self.ctx.score(social_norm, spatial_norm);
                    self.stats.evaluated_users += 1;
                    self.topk.consider(RankedUser {
                        user: vertex,
                        score,
                        social: social_norm,
                        spatial: spatial_norm,
                    });
                    self.phase = TsaPhase::EvalSocial {
                        t_d_prime: min_value(&self.candidates),
                    };
                }
                StepOutcome::Progress
            }
            None => {
                // Remaining candidates are socially unreachable: the
                // interim result is final.
                self.topk.raise_threshold(f64::INFINITY);
                self.complete()
            }
        }
    }
}

impl QueryDriver for TsaDriver<'_> {
    fn step(&mut self) -> StepOutcome {
        if self.done {
            return StepOutcome::Complete;
        }
        match self.phase {
            TsaPhase::Concurrent => self.step_concurrent(),
            TsaPhase::EvalCh { idx, .. } => self.step_eval_ch(idx),
            TsaPhase::EvalSocial { t_d_prime } => self.step_eval_social(t_d_prime),
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
            stats.relaxed_edges = self.social.relaxations();
            stats.streamable_results = self.topk.finalized();
            stats.runtime = self.start.elapsed();
        }
        stats
    }

    fn take_result(&mut self) -> Result<QueryResult, CoreError> {
        self.result
            .take()
            .expect("TsaDriver not complete or result already taken")
    }
}

fn min_value(candidates: &HashMap<UserId, f64>) -> f64 {
    candidates.values().copied().fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::exhaustive;
    use ssrq_graph::{GraphBuilder, LandmarkSelection};
    use ssrq_spatial::{Point, Rect};

    fn req(user: u32, k: usize, alpha: f64) -> QueryRequest {
        QueryRequest::for_user(user)
            .k(k)
            .alpha(alpha)
            .build()
            .unwrap()
    }

    fn dataset() -> GeoSocialDataset {
        let n = 42u32;
        let mut builder = GraphBuilder::new(n as usize);
        for i in 0..n {
            builder
                .add_edge(i, (i + 1) % n, 0.2 + (i % 6) as f64 * 0.3)
                .unwrap();
        }
        for i in (0..n).step_by(3) {
            builder
                .add_edge(i, (i + 17) % n, 0.7 + (i % 5) as f64 * 0.35)
                .unwrap();
        }
        let graph = builder.build();
        let locations: Vec<Option<Point>> = (0..n)
            .map(|i| {
                if i % 13 == 12 {
                    None
                } else {
                    Some(Point::new(
                        ((i as f64) * 0.709_803) % 1.0,
                        ((i as f64 + 1.0) * 0.367_879) % 1.0,
                    ))
                }
            })
            .collect();
        GeoSocialDataset::new(graph, locations).unwrap()
    }

    fn tsa(
        dataset: &GeoSocialDataset,
        grid: &UniformGrid,
        request: &QueryRequest,
        options: TsaOptions<'_>,
    ) -> Result<QueryResult, CoreError> {
        let mut qctx = QueryContext::new();
        TsaDriver::new(dataset, grid, request, options, &mut qctx)?.run_to_completion()
    }

    fn grid_for(dataset: &GeoSocialDataset) -> UniformGrid {
        UniformGrid::bulk_load(Rect::unit(), 8, dataset.located_users()).unwrap()
    }

    #[test]
    fn plain_tsa_matches_exhaustive() {
        let dataset = dataset();
        let grid = grid_for(&dataset);
        for &alpha in &[0.1, 0.5, 0.9] {
            for &k in &[1usize, 5, 10] {
                for user in [0u32, 9, 20, 37] {
                    let request = req(user, k, alpha);
                    let expected = exhaustive::run(&dataset, &request).unwrap();
                    let got = tsa(&dataset, &grid, &request, TsaOptions::default()).unwrap();
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
        for user in [0u32, 20] {
            let request = QueryRequest::for_user(user)
                .k(6)
                .alpha(0.5)
                .within(Rect::new(Point::new(0.05, 0.05), Point::new(0.85, 0.9)))
                .exclude([2, 7, 11])
                .max_score(0.65)
                .build()
                .unwrap();
            let expected = exhaustive::run(&dataset, &request).unwrap();
            let got = tsa(&dataset, &grid, &request, TsaOptions::default()).unwrap();
            assert!(got.same_users_and_scores(&expected, 1e-9), "user {user}");
        }
    }

    #[test]
    fn quick_combine_matches_exhaustive() {
        let dataset = dataset();
        let grid = grid_for(&dataset);
        for &alpha in &[0.2, 0.8] {
            for user in [1u32, 14, 30] {
                let request = req(user, 6, alpha);
                let expected = exhaustive::run(&dataset, &request).unwrap();
                let got = tsa(
                    &dataset,
                    &grid,
                    &request,
                    TsaOptions {
                        quick_combine: true,
                        ..TsaOptions::default()
                    },
                )
                .unwrap();
                assert!(got.same_users_and_scores(&expected, 1e-9));
            }
        }
    }

    #[test]
    fn landmark_pruning_preserves_correctness() {
        let dataset = dataset();
        let grid = grid_for(&dataset);
        let landmarks =
            LandmarkSet::build(dataset.graph(), 4, LandmarkSelection::FarthestFirst, 5).unwrap();
        for &alpha in &[0.3, 0.6] {
            for user in [4u32, 26] {
                let request = req(user, 8, alpha);
                let expected = exhaustive::run(&dataset, &request).unwrap();
                let got = tsa(
                    &dataset,
                    &grid,
                    &request,
                    TsaOptions {
                        landmarks: Some(&landmarks),
                        ..TsaOptions::default()
                    },
                )
                .unwrap();
                assert!(got.same_users_and_scores(&expected, 1e-9));
            }
        }
    }

    #[test]
    fn ch_phase2_matches_exhaustive() {
        let dataset = dataset();
        let grid = grid_for(&dataset);
        let ch = ContractionHierarchy::new(dataset.graph());
        let landmarks =
            LandmarkSet::build(dataset.graph(), 4, LandmarkSelection::FarthestFirst, 5).unwrap();
        for user in [0u32, 11, 33] {
            let request = req(user, 5, 0.4);
            let expected = exhaustive::run(&dataset, &request).unwrap();
            let got = tsa(
                &dataset,
                &grid,
                &request,
                TsaOptions {
                    landmarks: Some(&landmarks),
                    ch_phase2: Some(&ch),
                    ..TsaOptions::default()
                },
            )
            .unwrap();
            assert!(got.same_users_and_scores(&expected, 1e-9), "user {user}");
        }
    }

    #[test]
    fn unlocated_query_user_falls_back_to_social_only_stream() {
        let dataset = dataset();
        let grid = grid_for(&dataset);
        // User 12 has no location: every candidate's spatial distance is
        // infinite, so only the social stream contributes and no finite
        // score exists (alpha < 1).
        let request = req(12, 5, 0.5);
        let expected = exhaustive::run(&dataset, &request).unwrap();
        let got = tsa(&dataset, &grid, &request, TsaOptions::default()).unwrap();
        assert!(got.same_users_and_scores(&expected, 1e-9));
        assert!(got.ranked.is_empty());
    }

    #[test]
    fn stats_reflect_twofold_search() {
        let dataset = dataset();
        let grid = grid_for(&dataset);
        let result = tsa(&dataset, &grid, &req(0, 5, 0.5), TsaOptions::default()).unwrap();
        assert!(result.stats.social_pops > 0);
        assert!(result.stats.spatial_pops > 0);
    }
}
