use crate::driver::{AnswerBook, Search, StepOutcome};
use crate::{QueryContext, QueryStats, RankingContext, UserId};
use ssrq_graph::{ChQueryScratch, ContractionHierarchy, IncrementalDijkstra, LandmarkSet};
use ssrq_spatial::{IncrementalNn, Point, UniformGrid};
use std::collections::HashMap;

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
    /// vertex per step.  `order` holds the candidates parked at the start of
    /// the phase in ascending spatial order; the social search has resolved
    /// every one before `next`.
    EvalSocial {
        order: Vec<(UserId, f64)>,
        next: usize,
    },
}

/// The Twofold Search Approach (TSA, Algorithm 1 of the paper) as a
/// resumable search.
///
/// **Phase 1** alternates between the social expansion (Dijkstra around
/// `v_q`) and the incremental spatial NN search around `u_q` — one probe
/// per step.  Socially encountered users are fully evaluated on the spot
/// (their Euclidean distance is cheap); spatially encountered users that
/// the social search has not yet reached are parked in the candidate set
/// `Q`.  The phase ends when `θ = α·t_p + (1−α)·t_d ≥ f_k`.
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
    quick_combine: bool,
    landmarks: Option<&'a LandmarkSet>,
    ch_phase2: Option<&'a ContractionHierarchy>,
    ch_scratch: &'a mut ChQueryScratch,
    social: IncrementalDijkstra<'a>,
    spatial: IncrementalNn<'a>,
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
}

impl<'a> TsaDriver<'a> {
    /// A TSA search from `origin` over the engine's uniform grid.
    pub(crate) fn new(
        ranking: &RankingContext<'a>,
        grid: &'a UniformGrid,
        origin: Point,
        options: TsaOptions<'a>,
        qctx: &'a mut QueryContext,
    ) -> Self {
        let graph = ranking.dataset().graph();
        TsaDriver {
            quick_combine: options.quick_combine,
            landmarks: options.landmarks,
            ch_phase2: options.ch_phase2,
            ch_scratch: &mut qctx.ch,
            social: IncrementalDijkstra::new(graph, ranking.query_user(), &mut qctx.social),
            spatial: grid.nearest_neighbors(origin),
            candidates: HashMap::new(),
            tp: 0.0,
            td: 0.0,
            social_exhausted: false,
            spatial_exhausted: false,
            min_pending_d: f64::INFINITY,
            social_probes: 0,
            spatial_probes: 0,
            probe_social_next: true,
            phase: TsaPhase::Concurrent,
        }
    }

    /// Phase-1 → phase-2 transition: landmark pruning of the candidate set,
    /// then the flavour-specific phase-2 setup.
    fn begin_phase2(&mut self, book: &AnswerBook<'_>) {
        if let Some(landmarks) = self.landmarks {
            let fk = book.topk.fk();
            let ctx = book.ctx;
            let user_q = book.request.user();
            self.candidates.retain(|&user, &mut spatial_norm| {
                let social_lb = ctx.normalize_social(landmarks.lower_bound(user_q, user));
                ctx.score_lower_bound(social_lb, spatial_norm) < fk
            });
        }
        // Cheapest spatial distance first (ties broken on user id for
        // determinism): CH evaluation tightens f_k early in this order, and
        // the social flavour reads t_d' off its front.
        let mut order: Vec<(UserId, f64)> = self
            .candidates
            .iter()
            .map(|(&user, &spatial)| (user, spatial))
            .collect();
        order.sort_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        if self.ch_phase2.is_some() {
            self.candidates.clear();
            self.phase = TsaPhase::EvalCh { order, idx: 0 };
        } else {
            self.phase = TsaPhase::EvalSocial { order, next: 0 };
        }
    }

    /// One phase-1 probe (a loop iteration of Algorithm 1).
    fn step_concurrent(&mut self, book: &mut AnswerBook<'_>) -> StepOutcome {
        if self.social_exhausted && self.spatial_exhausted {
            self.begin_phase2(book);
            return StepOutcome::Progress;
        }
        let alpha = book.request.alpha();
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
            match self.social.next_settled(book.dataset().graph()) {
                Some((vertex, raw_social)) => {
                    book.stats.social_pops += 1;
                    book.stats.vertex_pops += 1;
                    self.social_probes += 1;
                    self.tp = book.ctx.normalize_social(raw_social);
                    book.offer(vertex, raw_social);
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
        } else {
            match self.spatial.next() {
                Some(neighbor) => {
                    book.stats.spatial_pops = self.spatial.pops();
                    book.stats.vertex_pops += 1;
                    self.spatial_probes += 1;
                    let spatial_norm = book.ctx.normalize_spatial(neighbor.distance);
                    self.td = spatial_norm;
                    if book.request.admits(book.dataset(), neighbor.id)
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
        book.topk
            .raise_threshold(alpha * self.tp + (1.0 - alpha) * self.td.min(self.min_pending_d));
        if theta >= book.topk.fk() {
            self.begin_phase2(book);
        }
        StepOutcome::Progress
    }

    /// One CH-flavoured phase-2 candidate evaluation.
    fn step_eval_ch(&mut self, book: &mut AnswerBook<'_>, idx: usize) -> StepOutcome {
        let alpha = book.request.alpha();
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
            return StepOutcome::Complete;
        };
        // θ' with this candidate's spatial distance as t'_d — a bound on
        // this and every later candidate (the order is ascending).
        if book.raise(alpha * self.tp + (1.0 - alpha) * spatial_norm) {
            return StepOutcome::Complete;
        }
        let raw_social = self
            .ch_phase2
            .expect("EvalCh phase requires a CH index")
            .distance_with(book.request.user(), user, self.ch_scratch);
        book.stats.distance_calls += 1;
        book.consider(user, book.ctx.normalize_social(raw_social), spatial_norm);
        StepOutcome::Progress
    }

    /// One social-flavoured phase-2 probe.
    fn step_eval_social(&mut self, book: &mut AnswerBook<'_>) -> StepOutcome {
        let TsaPhase::EvalSocial { order, next } = &mut self.phase else {
            unreachable!("step_eval_social called outside EvalSocial")
        };
        // t'_d, the smallest spatial distance among the candidates still in
        // Q: the first one in `order` the social search has not resolved.
        while order
            .get(*next)
            .is_some_and(|c| !self.candidates.contains_key(&c.0))
        {
            *next += 1;
        }
        let t_d_prime = order.get(*next).map_or(f64::INFINITY, |c| c.1);
        let alpha = book.request.alpha();
        // Once every candidate is resolved, only users beyond both streams
        // remain, and they score at least θ'.
        if book.raise(alpha * self.tp + (1.0 - alpha) * t_d_prime) || self.candidates.is_empty() {
            return StepOutcome::Complete;
        }
        match self.social.next_settled(book.dataset().graph()) {
            Some((vertex, raw_social)) => {
                book.stats.social_pops += 1;
                book.stats.vertex_pops += 1;
                let social_norm = book.ctx.normalize_social(raw_social);
                self.tp = social_norm;
                if let Some(spatial_norm) = self.candidates.remove(&vertex) {
                    book.consider(vertex, social_norm, spatial_norm);
                }
                StepOutcome::Progress
            }
            None => {
                // Remaining candidates are socially unreachable: the
                // interim result is final.
                book.topk.raise_threshold(f64::INFINITY);
                StepOutcome::Complete
            }
        }
    }
}

impl Search for TsaDriver<'_> {
    fn step(&mut self, book: &mut AnswerBook<'_>) -> StepOutcome {
        match self.phase {
            TsaPhase::Concurrent => self.step_concurrent(book),
            TsaPhase::EvalCh { idx, .. } => self.step_eval_ch(book, idx),
            TsaPhase::EvalSocial { .. } => self.step_eval_social(book),
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
    use ssrq_graph::{GraphBuilder, LandmarkSelection};
    use ssrq_spatial::Rect;

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
        let book = AnswerBook::new(dataset, request);
        let origin = book.ctx.origin().expect("a located query user");
        let search = TsaDriver::new(&book.ctx, grid, origin, options, &mut qctx);
        Driven::new(book, search).run_to_completion()
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
        let engine = GeoSocialEngine::builder(dataset.clone()).build().unwrap();
        // User 12 has no location: every candidate's spatial distance is
        // infinite, so no finite score exists (alpha < 1) and the engine
        // answers before any search runs.
        let request = req(12, 5, 0.5);
        let expected = exhaustive::run(&dataset, &request).unwrap();
        let got = engine
            .run(&request.clone().with_algorithm(Algorithm::Tsa))
            .unwrap();
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
