use crate::driver::{AnswerBook, Search, StepOutcome};
use crate::{QueryStats, UserId};
use ssrq_graph::IncrementalDijkstra;

/// The two phases of the oracle machine: the full single-source Dijkstra,
/// then the linear scan.
#[derive(Debug)]
enum ExhaustivePhase {
    /// One settled vertex per step until the expansion drains.
    Expand,
    /// One scanned user per step.
    Scan { next_user: UserId },
}

/// The brute-force oracle as a resumable search: one full single-source
/// Dijkstra from the query vertex, then a linear scan over all users.
///
/// This is the correctness oracle used throughout the test suite and the
/// baseline "no index, no pruning" reference point; it is not part of the
/// paper's evaluated methods.  Being the oracle, its admission loop *defines*
/// the semantics of the request filters (spatial window, exclusions, score
/// cutoff) that every other algorithm must reproduce.
///
/// The oracle carries no incremental threshold — its scan order implies no
/// bound on unseen users — so it never finalizes an entry before
/// completion: it is *drain-after-complete*, and the whole result arrives
/// at [`QueryDriver::take_result`](crate::QueryDriver::take_result).  The
/// machine still steps one vertex/user at a time, so it can be suspended
/// and resumed like every other driver.
#[derive(Debug)]
pub(crate) struct ExhaustiveDriver<'a> {
    social: IncrementalDijkstra<'a>,
    phase: ExhaustivePhase,
}

impl<'a> ExhaustiveDriver<'a> {
    /// An exhaustive evaluation over the query-rooted expansion `social`.
    pub(crate) fn new(social: IncrementalDijkstra<'a>) -> Self {
        ExhaustiveDriver {
            social,
            phase: ExhaustivePhase::Expand,
        }
    }
}

impl Search for ExhaustiveDriver<'_> {
    const STREAMS: bool = false;

    fn step(&mut self, book: &mut AnswerBook<'_>) -> StepOutcome {
        let dataset = book.dataset();
        match self.phase {
            ExhaustivePhase::Expand => {
                if self.social.next_settled(dataset.graph()).is_none() {
                    book.stats.social_pops = self.social.settled_count();
                    book.stats.vertex_pops = dataset.user_count();
                    self.phase = ExhaustivePhase::Scan { next_user: 0 };
                }
            }
            ExhaustivePhase::Scan { next_user } => {
                if next_user as usize >= dataset.user_count() {
                    return StepOutcome::Complete;
                }
                self.phase = ExhaustivePhase::Scan {
                    next_user: next_user + 1,
                };
                let raw_social = self.social.settled_distance(next_user);
                book.offer(next_user, raw_social.unwrap_or(f64::INFINITY));
            }
        }
        StepOutcome::Progress
    }

    fn fold_stats(&self, stats: &mut QueryStats) {
        stats.relaxed_edges = self.social.relaxations();
    }
}

/// The oracle's answer to `request`, run to completion on a fresh context:
/// the reference the other algorithms' unit tests compare against.
#[cfg(test)]
pub(crate) fn run(
    dataset: &crate::GeoSocialDataset,
    request: &crate::QueryRequest,
) -> Result<crate::QueryResult, crate::CoreError> {
    use crate::driver::{Driven, QueryDriver};
    let book = AnswerBook::open(dataset, request)?;
    let mut qctx = crate::QueryContext::new();
    let social = IncrementalDijkstra::new(dataset.graph(), request.user(), &mut qctx.social);
    Driven::new(book, ExhaustiveDriver::new(social)).run_to_completion()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GeoSocialDataset, QueryRequest};
    use ssrq_graph::GraphBuilder;
    use ssrq_spatial::{Point, Rect};

    fn req(user: u32, k: usize, alpha: f64) -> QueryRequest {
        QueryRequest::for_user(user)
            .k(k)
            .alpha(alpha)
            .build()
            .unwrap()
    }

    fn tiny_dataset() -> GeoSocialDataset {
        // Figure 1 of the paper, roughly: u1 is the query user; u5 is the
        // spatially closest, u2 the socially closest, u4 a good compromise.
        let graph = GraphBuilder::from_edges(
            5,
            vec![
                (0, 1, 0.2), // u1 - u2: strong friendship
                (1, 2, 0.5),
                (2, 3, 0.5),
                (0, 3, 0.9),
                (3, 4, 0.5),
            ],
        )
        .unwrap();
        let locations = vec![
            Some(Point::new(0.5, 0.5)),  // u1 (query)
            Some(Point::new(0.95, 0.9)), // u2: far away spatially
            Some(Point::new(0.1, 0.9)),
            Some(Point::new(0.56, 0.55)), // u4: slightly farther than u5
            Some(Point::new(0.53, 0.52)), // u5: closest spatially
        ];
        GeoSocialDataset::new(graph, locations).unwrap()
    }

    #[test]
    fn balances_social_and_spatial_proximity() {
        let dataset = tiny_dataset();
        // With a balanced alpha the compromise user u4 (index 3) should beat
        // both the purely-social (u2) and purely-spatial (u5) favourites.
        let result = run(&dataset, &req(0, 1, 0.5)).unwrap();
        assert_eq!(result.ranked[0].user, 3);
        // With alpha -> social, the strong friend u2 (index 1) wins.
        let result = run(&dataset, &req(0, 1, 0.9)).unwrap();
        assert_eq!(result.ranked[0].user, 1);
        // With alpha -> spatial, the nearest user u5 (index 4) wins.
        let result = run(&dataset, &req(0, 1, 0.1)).unwrap();
        assert_eq!(result.ranked[0].user, 4);
    }

    #[test]
    fn excludes_the_query_user_and_respects_k() {
        let dataset = tiny_dataset();
        let result = run(&dataset, &req(0, 10, 0.5)).unwrap();
        assert_eq!(result.ranked.len(), 4);
        assert!(result.is_complete());
        assert!(result.users().iter().all(|&u| u != 0));
        let result = run(&dataset, &req(0, 2, 0.5)).unwrap();
        assert_eq!(result.ranked.len(), 2);
        // Scores are ascending.
        assert!(result.ranked[0].score <= result.ranked[1].score);
    }

    #[test]
    fn users_without_finite_score_are_excluded() {
        let graph = GraphBuilder::from_edges(4, vec![(0, 1, 1.0), (2, 3, 1.0)]).unwrap();
        let locations = vec![
            Some(Point::new(0.0, 0.0)),
            Some(Point::new(1.0, 1.0)),
            Some(Point::new(0.2, 0.2)),
            None,
        ];
        let dataset = GeoSocialDataset::new(graph, locations).unwrap();
        let result = run(&dataset, &req(0, 4, 0.5)).unwrap();
        // User 2 is socially unreachable, user 3 additionally lacks a
        // location: both have infinite scores and are excluded.
        assert_eq!(result.users(), vec![1]);
    }

    #[test]
    fn request_filters_restrict_the_result() {
        let dataset = tiny_dataset();
        // Exclusion set: drop the balanced winner u4 (index 3).
        let request = QueryRequest::for_user(0)
            .k(10)
            .alpha(0.5)
            .exclude([3])
            .build()
            .unwrap();
        let result = run(&dataset, &request).unwrap();
        assert!(!result.users().contains(&3));
        // Spatial window: only users in the lower-left quadrant qualify.
        let request = QueryRequest::for_user(0)
            .k(10)
            .alpha(0.5)
            .within(Rect::new(Point::new(0.0, 0.0), Point::new(0.6, 0.6)))
            .build()
            .unwrap();
        let result = run(&dataset, &request).unwrap();
        let mut users = result.users();
        users.sort_unstable();
        assert_eq!(users, vec![3, 4]);
        // Score cutoff below every ranking value: empty result.
        let request = QueryRequest::for_user(0)
            .k(10)
            .alpha(0.5)
            .max_score(1e-12)
            .build()
            .unwrap();
        let result = run(&dataset, &request).unwrap();
        assert!(result.ranked.is_empty());
    }

    #[test]
    fn rejects_invalid_input() {
        let dataset = tiny_dataset();
        // `build_unvalidated` deliberately skips validation, so the
        // execution-time validation path is reachable.
        let invalid = QueryRequest::for_user(0)
            .k(0)
            .alpha(0.5)
            .build_unvalidated();
        assert!(run(&dataset, &invalid).is_err());
        assert!(run(&dataset, &req(99, 1, 0.5)).is_err());
    }
}
