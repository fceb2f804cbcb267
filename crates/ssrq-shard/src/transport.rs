//! The coordinator↔shard boundary: [`ShardLink`] and the shared
//! sequential scatter.
//!
//! A coordinator does not care *where* a shard runs, only that it answers
//! the operations the wire protocol carries — [`ShardLink`] — so one
//! [`Coordinator`](crate::Coordinator) drives in-process shards
//! ([`LocalShard`](crate::LocalShard)) and socket-backed ones (`ssrq-net`)
//! through one best-first, threshold-forwarding visit loop
//! ([`scatter_sequential`]) and one deterministic merge ([`merge_ranked`]):
//! the exactness argument is proved once for both deployments.

use crate::stats::ShardOutcome;
use ssrq_core::{CoreError, QueryRequest, QueryResult, RankedUser, ScoreFloor, TopK, UserId};
use ssrq_spatial::{Point, Rect};

/// What a coordinator does when a shard fails mid-query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailurePolicy {
    /// The query fails with the shard's error (the default — exactness
    /// over availability).
    #[default]
    Fail,
    /// The coordinator merges what the surviving shards returned and flags
    /// the result [`degraded`](ssrq_core::QueryResult::degraded); the
    /// failed shard is named in the per-shard outcomes
    /// ([`ShardOutcome::Failed`]).
    Degrade,
}

/// What a shard reports about itself: its place in the deployment, its
/// population, the exact bounding rectangle of its residents and the
/// deployment-global normalization constants.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardInfo {
    /// The shard's index.
    pub shard: u32,
    /// Total number of shards in the deployment.
    pub shards: u32,
    /// Users in the (replicated) social graph.
    pub user_count: u64,
    /// Users located on this shard.
    pub located: u64,
    /// Bounding rectangle of this shard's resident locations (`None` when
    /// no resident is located) — what the coordinator's pruning runs on.
    pub rect: Option<Rect>,
    /// The deployment-global spatial normalization constant.
    pub spatial_norm: f64,
    /// The deployment-global social normalization constant.
    pub social_norm: f64,
}

/// The error type of a [`ShardLink`].
pub trait LinkError: std::fmt::Display + From<CoreError> {
    /// A shard (named `shard`) answered outside the protocol, e.g. a second
    /// shard adopted a user.
    fn violation(shard: String, detail: String) -> Self;

    /// Whether the shard could not be reached (rather than refusing): only
    /// then does the [`FailurePolicy`] apply.
    fn unreachable(&self) -> bool;
}

impl LinkError for CoreError {
    fn violation(shard: String, detail: String) -> Self {
        CoreError::InvalidDataset(format!("{shard}: {detail}"))
    }

    fn unreachable(&self) -> bool {
        false
    }
}

/// One shard as a [`Coordinator`](crate::Coordinator) sees it: the
/// operations of the shard wire protocol, wherever the shard runs.  Every
/// method may fail with whatever the engine or the wire reports.
pub trait ShardLink {
    /// The failure type ([`CoreError`] in-process, a wire error remotely).
    type Error: LinkError;
    /// What every query call of one scatter runs through: the one
    /// [`QueryContext`](ssrq_core::QueryContext) in-process, the trace id
    /// remotely.
    type Context;

    /// The shard's bounded top-k over its residents.  When `request` pins
    /// no origin, a shard holding the query user evaluates it from its own
    /// copy of the location and names that origin; any other shard answers
    /// without a search and names none.
    fn query(
        &self,
        request: &QueryRequest,
        ctx: &mut Self::Context,
    ) -> Result<(QueryResult, Option<Point>), Self::Error>;

    /// Reports `user`'s new `location` (`None`: no location any more): the
    /// shard adopts the user when its assignment replica places the
    /// location on it, drops any copy otherwise (a non-finite location is
    /// refused before any state is touched), and answers
    /// `(adopted, held before)`.
    fn relocate(
        &mut self,
        user: UserId,
        location: Option<Point>,
    ) -> Result<(bool, bool), Self::Error>;

    /// Every located resident of the shard.
    fn list_located(&self) -> Result<Vec<(UserId, Point)>, Self::Error>;

    /// The shard's current [`ShardInfo`], its rectangle exact.
    fn refresh(&self) -> Result<ShardInfo, Self::Error>;

    /// Installs a repacked cell→shard map in the shard's assignment replica.
    fn set_assignment(&mut self, cell_map: &[u32]) -> Result<(), Self::Error>;

    /// The shard's identity in failure reports and spans
    /// (e.g. `"local shard 2"`, `"unix:/tmp/ssrq-2.sock"`).
    fn describe(&self) -> String;
}

/// The score lower bound of one shard: the [`ScoreFloor`] of the shard's
/// rectangle at a social bound of `0` — `(1 − α) · mindist(origin, rect ∩
/// window) / spatial_norm`, or `INFINITY` for an empty shard (`rect` is
/// `None`), an unlocated origin, or a bounding rectangle disjoint from the
/// request's spatial filter.
///
/// Each shard's SFA stop test reads the same floor over its own located box,
/// so the skip here and the stop there share one arithmetic.
pub fn shard_score_lower_bound(
    rect: Option<Rect>,
    request: &QueryRequest,
    origin: Option<Point>,
    spatial_norm: f64,
) -> f64 {
    ScoreFloor::new(request, rect, origin, spatial_norm).at(0.0)
}

/// What a [`scatter_sequential`] pass gathered.
#[derive(Debug, Clone)]
pub struct SequentialScatter {
    /// Every entry the executed shards returned (unmerged, unsorted).
    pub entries: Vec<RankedUser>,
    /// One outcome per shard, indexed by shard id.
    pub outcomes: Vec<ShardOutcome>,
    /// `true` when at least one shard failed under
    /// [`FailurePolicy::Degrade`] — its residents were never consulted.
    pub degraded: bool,
}

/// The shared coordinator loop: visits shards **sequentially in ascending
/// lower-bound order** (`bounds[s]` is shard `s`'s
/// [`shard_score_lower_bound`]), forwards the running `f_k` threshold to
/// each next shard through the request's
/// [`max_score`](ssrq_core::QueryRequest::max_score) admission cutoff, and
/// skips shards whose bound cannot beat it.  `execute` runs shard `s`'s
/// bounded top-k; `describe` names a failed shard.
///
/// `base` must already be the broadcast form: validated, with the query
/// user's [`origin`](ssrq_core::QueryRequest::origin) resolved — the loop
/// never talks to a dataset.
///
/// `first_visit` is a shard the caller already executed, and its answer:
/// a coordinator asks the query user's owner first, because that shard
/// resolves the origin `base` carries.  The loop counts it as the first
/// shard visited, with the threshold it had then (none), and bounds and
/// visits the others after it.
///
/// Sequential visiting maximizes what the threshold can prune: each shard
/// sees the `f_k` of everything gathered so far, so what is already
/// gathered decides what is asked next — the threshold algorithm at shard
/// granularity — and a remote coordinator's forwarding is deterministic.
///
/// # Errors
///
/// Under [`FailurePolicy::Fail`], the first shard failure aborts the
/// scatter with that shard's error.  Under [`FailurePolicy::Degrade`]
/// failures are recorded as [`ShardOutcome::Failed`] and the scatter
/// completes with `degraded = true`.
pub fn scatter_sequential<E: std::fmt::Display>(
    bounds: &[f64],
    base: &QueryRequest,
    policy: FailurePolicy,
    mut first_visit: Option<(usize, QueryResult)>,
    mut execute: impl FnMut(usize, &QueryRequest) -> Result<QueryResult, E>,
    describe: impl Fn(usize) -> String,
) -> Result<SequentialScatter, E> {
    let n = bounds.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| bounds[a].total_cmp(&bounds[b]).then(a.cmp(&b)));
    if let Some((first, _)) = &first_visit {
        order.retain(|s| s != first);
        order.insert(0, *first);
    }

    let mut topk = TopK::for_request(base);
    let mut entries: Vec<RankedUser> = Vec::new();
    let mut outcomes: Vec<Option<ShardOutcome>> = vec![None; n];
    let mut degraded = false;
    for &s in &order {
        let threshold = topk.fk();
        // The shard already visited heads `order`, so it is taken here on
        // the first pass.
        let executed = match first_visit.take() {
            Some((_, result)) => Ok(result),
            None if bounds[s] >= threshold => {
                outcomes[s] = Some(ShardOutcome::Skipped {
                    lower_bound: bounds[s],
                });
                continue;
            }
            None => execute(s, &base.clone().with_max_score_at_most(threshold)),
        };
        match executed {
            Ok(result) => {
                for &entry in &result.ranked {
                    topk.consider(entry);
                }
                outcomes[s] = Some(ShardOutcome::Executed(result.stats));
                entries.extend(result.ranked);
            }
            Err(error) => match policy {
                FailurePolicy::Fail => return Err(error),
                FailurePolicy::Degrade => {
                    degraded = true;
                    outcomes[s] = Some(ShardOutcome::Failed {
                        shard: describe(s),
                        detail: error.to_string(),
                    });
                }
            },
        }
    }
    Ok(SequentialScatter {
        entries,
        outcomes: outcomes
            .into_iter()
            .map(|o| o.expect("every shard has an outcome"))
            .collect(),
        degraded,
    })
}

/// The deterministic gather merge: global ascending `(score, user)` order
/// over the (disjoint) per-shard entries, truncated at `k`.  Rebuilding the
/// list from scratch makes the answer independent of shard visit order and
/// worker scheduling.
pub fn merge_ranked(mut entries: Vec<RankedUser>, k: usize) -> Vec<RankedUser> {
    entries.sort_by(|a, b| {
        a.score
            .total_cmp(&b.score)
            .then_with(|| a.user.cmp(&b.user))
    });
    entries.truncate(k);
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssrq_core::{Algorithm, QueryStats};

    /// A scripted shard: fixed bound, canned entries, optional failure.
    struct FakeShard {
        bound: f64,
        entries: Vec<RankedUser>,
        fail: bool,
        /// The `max_score` cutoffs of the requests this shard executed.
        seen_cutoffs: Vec<Option<f64>>,
    }

    impl FakeShard {
        fn new(bound: f64, scores: &[(u32, f64)]) -> Self {
            FakeShard {
                bound,
                entries: scores
                    .iter()
                    .map(|&(user, score)| RankedUser {
                        user,
                        score,
                        social: score,
                        spatial: score,
                    })
                    .collect(),
                fail: false,
                seen_cutoffs: Vec::new(),
            }
        }

        fn failing(bound: f64) -> Self {
            let mut shard = FakeShard::new(bound, &[]);
            shard.fail = true;
            shard
        }

        fn execute(&mut self, request: &QueryRequest) -> Result<QueryResult, String> {
            self.seen_cutoffs.push(request.max_score());
            if self.fail {
                return Err(format!("scripted failure (bound {})", self.bound));
            }
            let cutoff = request.max_score().unwrap_or(f64::INFINITY);
            let ranked: Vec<RankedUser> = self
                .entries
                .iter()
                .copied()
                .filter(|e| e.score < cutoff)
                .take(request.k())
                .collect();
            Ok(QueryResult {
                ranked,
                k: request.k(),
                degraded: false,
                stats: QueryStats::default(),
            })
        }
    }

    /// [`scatter_sequential`] over scripted shards.
    fn scatter(
        shards: &mut [FakeShard],
        base: &QueryRequest,
        policy: FailurePolicy,
        first_visit: Option<(usize, QueryResult)>,
    ) -> Result<SequentialScatter, String> {
        let bounds: Vec<f64> = shards.iter().map(|s| s.bound).collect();
        scatter_sequential(
            &bounds,
            base,
            policy,
            first_visit,
            |s, request| shards[s].execute(request),
            |s| format!("fake shard {s}"),
        )
    }

    fn request(k: usize) -> QueryRequest {
        QueryRequest::for_user(0)
            .k(k)
            .alpha(0.5)
            .algorithm(Algorithm::Exhaustive)
            .build_unvalidated()
    }

    #[test]
    fn visits_best_first_and_forwards_the_threshold() {
        // Shard 1 has the better bound, so it runs first and its f_k is
        // forwarded to shard 0 as the admission cutoff.
        let mut shards = vec![
            FakeShard::new(0.15, &[(7, 0.45), (8, 0.9)]),
            FakeShard::new(0.0, &[(1, 0.1), (2, 0.2)]),
        ];
        let base = request(2);
        let scatter = scatter(&mut shards, &base, FailurePolicy::Fail, None).unwrap();
        assert_eq!(shards[1].seen_cutoffs, vec![None]);
        assert_eq!(shards[0].seen_cutoffs, vec![Some(0.2)]);
        assert!(!scatter.degraded);
        let ranked = merge_ranked(scatter.entries, 2);
        assert_eq!(
            ranked.iter().map(|e| (e.user, e.score)).collect::<Vec<_>>(),
            vec![(1, 0.1), (2, 0.2)]
        );
    }

    #[test]
    fn a_first_visit_heads_the_order_and_forwards_its_threshold() {
        // Shard 1 has the better bound, but shard 0 was already visited:
        // it is not executed again, and its f_k is what shard 1 sees.
        let mut shards = vec![
            FakeShard::new(0.15, &[(7, 0.45), (8, 0.9)]),
            FakeShard::new(0.0, &[(1, 0.1), (2, 0.2)]),
            FakeShard::new(0.95, &[(9, 0.96)]),
        ];
        let base = request(2);
        let visited = shards[0].execute(&base).unwrap();
        let scatter = scatter(&mut shards, &base, FailurePolicy::Fail, Some((0, visited))).unwrap();
        assert_eq!(
            shards[0].seen_cutoffs,
            vec![None],
            "visited once, by the caller"
        );
        assert_eq!(shards[1].seen_cutoffs, vec![Some(0.9)]);
        assert!(shards[2].seen_cutoffs.is_empty(), "shard 2 must be skipped");
        assert!(matches!(scatter.outcomes[0], ShardOutcome::Executed(_)));
        assert!(matches!(scatter.outcomes[2], ShardOutcome::Skipped { .. }));
        let ranked = merge_ranked(scatter.entries, 2);
        assert_eq!(
            ranked.iter().map(|e| (e.user, e.score)).collect::<Vec<_>>(),
            vec![(1, 0.1), (2, 0.2)]
        );
    }

    #[test]
    fn skips_shards_whose_bound_cannot_beat_the_threshold() {
        let mut shards = vec![
            FakeShard::new(0.0, &[(1, 0.1), (2, 0.2)]),
            FakeShard::new(0.5, &[(9, 0.55)]),
        ];
        let base = request(2);
        let scatter = scatter(&mut shards, &base, FailurePolicy::Fail, None).unwrap();
        assert!(shards[1].seen_cutoffs.is_empty(), "shard 1 must be skipped");
        assert!(matches!(
            scatter.outcomes[1],
            ShardOutcome::Skipped { lower_bound } if lower_bound == 0.5
        ));
    }

    #[test]
    fn fail_policy_aborts_with_the_shard_named() {
        let mut shards = vec![FakeShard::new(0.0, &[(1, 0.1)]), FakeShard::failing(0.01)];
        let err = scatter(&mut shards, &request(5), FailurePolicy::Fail, None).unwrap_err();
        // Shard 1's own error, which names it.
        assert_eq!(err, "scripted failure (bound 0.01)");
    }

    #[test]
    fn degrade_policy_records_the_failure_and_flags_the_scatter() {
        let mut shards = vec![FakeShard::new(0.0, &[(1, 0.1)]), FakeShard::failing(0.01)];
        let scatter = scatter(&mut shards, &request(5), FailurePolicy::Degrade, None).unwrap();
        assert!(scatter.degraded);
        assert!(matches!(
            &scatter.outcomes[1],
            ShardOutcome::Failed { detail, .. } if detail.contains("scripted failure")
        ));
        // The surviving shard's entries are still gathered.
        assert_eq!(scatter.entries.len(), 1);
    }

    #[test]
    fn merge_ranked_is_deterministic_on_score_ties() {
        let entry = |user, score| RankedUser {
            user,
            score,
            social: score,
            spatial: score,
        };
        let merged = merge_ranked(vec![entry(9, 0.2), entry(3, 0.2), entry(5, 0.1)], 2);
        assert_eq!(
            merged.iter().map(|e| e.user).collect::<Vec<_>>(),
            vec![5, 3]
        );
    }

    #[test]
    fn lower_bound_handles_empty_and_filtered_shards() {
        let base = request(2);
        let origin = Some(Point::new(0.0, 0.0));
        assert_eq!(
            shard_score_lower_bound(None, &base, origin, 1.0),
            f64::INFINITY
        );
        let rect = Some(Rect::new(Point::new(3.0, 4.0), Point::new(5.0, 6.0)));
        assert_eq!(
            shard_score_lower_bound(rect, &base, None, 1.0),
            f64::INFINITY
        );
        // (1 - 0.5) * mindist(origin, rect) / norm = 0.5 * 5 / 10.
        let bound = shard_score_lower_bound(rect, &base, origin, 10.0);
        assert!((bound - 0.25).abs() < 1e-12);
        // A window clips the rectangle before the distance is taken: the
        // nearest admissible point is (4, 4), not the corner (3, 4).
        let clipped = QueryRequest::for_user(0)
            .k(2)
            .alpha(0.5)
            .within(Rect::new(Point::new(4.0, 0.0), Point::new(9.0, 9.0)))
            .build_unvalidated();
        let bound = shard_score_lower_bound(rect, &clipped, origin, 10.0);
        assert_eq!(bound, 0.5 * (32.0_f64.sqrt() / 10.0));
        // A window that misses the rectangle rules the shard out.
        let missed = QueryRequest::for_user(0)
            .k(2)
            .alpha(0.5)
            .within(Rect::new(Point::new(6.0, 0.0), Point::new(9.0, 9.0)))
            .build_unvalidated();
        assert_eq!(
            shard_score_lower_bound(rect, &missed, origin, 10.0),
            f64::INFINITY
        );
    }
}
