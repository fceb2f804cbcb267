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
//! The social order is SFA's only moving part, so SFA-CH is the same loop
//! over a different [`SocialOrder`]: the query-rooted Dijkstra for SFA, or
//! for SFA-CH every user ranked by its CH distance and sorted once.
//!
//! On one engine whose query user is located (and no window or explicit
//! origin lies elsewhere) `d⁻ = 0`, so `θ` is bit-identical to the paper's
//! `α · p(v_q, v_last)` and so are the answer, the settle order and every
//! counter.  On a shard that does not hold the origin, `d⁻ > 0` and the
//! search stops once no remaining user can score below `f_k`, instead of
//! repeating the owner's social search out to the same radius.  The same
//! test ends SFA-Cached's list walk.

use crate::driver::{AnswerBook, Search, StepOutcome};
use crate::{QueryStats, UserId};
use ssrq_graph::{ChQueryScratch, ContractionHierarchy, IncrementalDijkstra};
use std::ops::Range;

/// Where SFA's users come from, in non-decreasing social distance.
#[derive(Debug)]
pub(crate) enum SocialOrder<'a> {
    /// The query-rooted Dijkstra expansion, one settled vertex per step
    /// (SFA).
    Dijkstra(IncrementalDijkstra<'a>),
    /// The SFA-CH order.  CH has no incremental "next socially-closest
    /// user" primitive, so every user is first ranked by one CH
    /// point-to-point query per step and the ranking is sorted once; only
    /// then does the scan start finalizing entries — which is exactly why
    /// the paper finds the `*-CH` variants unattractive on social networks.
    Ranked {
        ch: &'a ContractionHierarchy,
        scratch: &'a mut ChQueryScratch,
        /// The users still to rank.
        unranked: Range<UserId>,
        /// The users at a finite distance, sorted once `unranked` is empty.
        ranked: Vec<(UserId, f64)>,
        /// The next scan position in `ranked`.
        next: usize,
    },
}

impl<'a> SocialOrder<'a> {
    /// The SFA-CH order over `users` users.
    pub(crate) fn ranked_by(
        ch: &'a ContractionHierarchy,
        users: usize,
        scratch: &'a mut ChQueryScratch,
    ) -> Self {
        SocialOrder::Ranked {
            ch,
            scratch,
            unranked: 0..users as UserId,
            ranked: Vec::with_capacity(users.saturating_sub(1)),
            next: 0,
        }
    }
}

/// The Social First Approach (SFA, §4.1) as a resumable search.
///
/// Each step pulls the next user of its [`SocialOrder`] and evaluates it on
/// the spot; the lower bound `θ = combine(α, p(v_q, v_last), d⁻)` (see the
/// module notes) finalizes result entries as it rises, so the driver emits
/// top-k entries long before the search terminates.
#[derive(Debug)]
pub(crate) struct SfaDriver<'a> {
    order: SocialOrder<'a>,
}

impl<'a> SfaDriver<'a> {
    /// An SFA search over `order`.
    pub(crate) fn new(order: SocialOrder<'a>) -> Self {
        SfaDriver { order }
    }
}

impl Search for SfaDriver<'_> {
    fn step(&mut self, book: &mut AnswerBook<'_>) -> StepOutcome {
        let next = match &mut self.order {
            SocialOrder::Dijkstra(social) => social.next_settled(book.dataset().graph()),
            SocialOrder::Ranked {
                ch,
                scratch,
                unranked,
                ranked,
                next,
            } => {
                if let Some(user) = unranked.next() {
                    let user_q = book.request.user();
                    if user != user_q {
                        let d = ch.distance_with(user_q, user, scratch);
                        book.stats.distance_calls += 1;
                        if d.is_finite() {
                            ranked.push((user, d));
                        }
                    }
                    if unranked.start == unranked.end {
                        // Sort once, ties broken on user id for determinism.
                        ranked.sort_by(|a, b| {
                            a.1.partial_cmp(&b.1)
                                .unwrap_or(std::cmp::Ordering::Equal)
                                .then_with(|| a.0.cmp(&b.0))
                        });
                    }
                    return StepOutcome::Progress;
                }
                *next += 1;
                ranked.get(*next - 1).copied()
            }
        };
        let Some((user, raw_social)) = next else {
            // The order is exhausted without reaching the threshold: the
            // remaining users are socially unreachable and therefore have
            // infinite ranking values (α > 0), so the interim result is
            // final — raise the bound accordingly.
            book.topk.raise_threshold(f64::INFINITY);
            return StepOutcome::Complete;
        };
        book.stats.social_pops += 1;
        book.stats.vertex_pops += 1;
        book.offer(user, raw_social);
        // Termination: every unseen user is at least as far socially as the
        // last pulled one, and at least `d⁻` away spatially if it can score
        // at all — which also makes θ a finalization bound for the entries
        // already held.
        if book.raise(book.ctx.stop_bound(raw_social)) {
            StepOutcome::Complete
        } else {
            StepOutcome::Progress
        }
    }

    fn fold_stats(&self, stats: &mut QueryStats) {
        if let SocialOrder::Dijkstra(social) = &self.order {
            stats.relaxed_edges = social.relaxations();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::exhaustive;
    use crate::driver::{Driven, QueryDriver};
    use crate::{GeoSocialDataset, QueryContext, QueryRequest, QueryResult};
    use ssrq_graph::GraphBuilder;
    use ssrq_spatial::{Point, Rect};

    fn req(user: u32, k: usize, alpha: f64) -> QueryRequest {
        QueryRequest::for_user(user)
            .k(k)
            .alpha(alpha)
            .build()
            .unwrap()
    }

    fn run(
        dataset: &GeoSocialDataset,
        request: &QueryRequest,
        order: SocialOrder<'_>,
    ) -> QueryResult {
        let book = AnswerBook::new(dataset, request);
        Driven::new(book, SfaDriver::new(order))
            .run_to_completion()
            .unwrap()
    }

    fn sfa(dataset: &GeoSocialDataset, request: &QueryRequest) -> QueryResult {
        let mut qctx = QueryContext::new();
        let social = IncrementalDijkstra::new(dataset.graph(), request.user(), &mut qctx.social);
        run(dataset, request, SocialOrder::Dijkstra(social))
    }

    fn sfa_ch(
        dataset: &GeoSocialDataset,
        ch: &ContractionHierarchy,
        request: &QueryRequest,
    ) -> QueryResult {
        let mut qctx = QueryContext::new();
        let order = SocialOrder::ranked_by(ch, dataset.user_count(), &mut qctx.ch);
        run(dataset, request, order)
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
