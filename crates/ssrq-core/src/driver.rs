//! Resumable query drivers: the pull-lazy state machines behind
//! [`QuerySession::stream`](crate::QuerySession::stream).
//!
//! Every SSRQ algorithm in this crate is one threshold loop (Fagin, Lotem
//! and Naor): pull candidates in some order — socially for SFA, spatially
//! for SPA, both for TSA, through the aggregate index for AIS — score each
//! one, raise a bound on every candidate not yet pulled, and stop once the
//! bound reaches `f_k`.  The loop's bookkeeping is written once, here.  An
//! algorithm is a [`Search`] that knows only its own probe; the one
//! skeleton [`Driven`] pairs it with an [`AnswerBook`] — the interim top-k,
//! the work counters, the clock, the drain cursor and the final result —
//! and is the only implementation of [`QueryDriver`] a search runs behind.
//!
//! [`start`] is the one way in: it validates the request once, answers a
//! query without a spatial origin on the spot, and hands every other
//! search a resolved origin.  [`QuerySession::run`](crate::QuerySession::run)
//! is a thin `while step` loop over the same machines, so both execution
//! styles run the exact same probe sequence and a fully-drained stream is
//! bit-identical to the eager result.
//!
//! Drivers borrow the engine's immutable indexes and the caller's
//! [`QueryContext`] for their whole lifetime; dropping a driver (or the
//! [`QueryStream`](crate::QueryStream) wrapping it) mid-search simply
//! releases those borrows — the context's epoch-versioned scratch makes
//! later queries on the same context bit-identical to fresh ones (asserted
//! by `tests/property_based.rs`).

use crate::ais::{ais_query, AisDriver, AisVariant};
use crate::algorithms::{
    CachedDriver, ExhaustiveDriver, SfaDriver, SocialOrder, SpaDriver, TsaDriver, TsaOptions,
};
use crate::{
    Algorithm, CoreError, GeoSocialDataset, GeoSocialEngine, QueryContext, QueryRequest,
    QueryResult, QueryStats, RankedUser, RankingContext, TopK, UserId,
};
use ssrq_graph::IncrementalDijkstra;
use std::time::Instant;

/// What a single [`QueryDriver::step`] call achieved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The driver advanced by one probe; the search is not finished.
    Progress,
    /// The search has completed (or had already completed):
    /// [`QueryDriver::take_result`] is now available and further `step`
    /// calls are no-ops returning `Complete`.
    Complete,
}

/// A resumable SSRQ search: one algorithm execution, advanced probe by
/// probe.
///
/// Every built-in algorithm runs behind one shared skeleton that owns the
/// query's bookkeeping — the interim top-k, the work counters, the clock
/// and the drain cursor — while the algorithm supplies only its probe.  So
/// the contract below holds for all twelve by construction:
///
/// * [`step`](QueryDriver::step) performs one bounded unit of work (settle
///   one vertex, pop one heap entry, scan or rank one candidate).  Calling
///   it after completion is a no-op.
/// * [`drain_finalized`](QueryDriver::drain_finalized) appends the entries
///   whose membership *and* rank the incremental threshold has fixed since
///   the previous drain, in ascending `(score, user)` order.  Across the
///   driver's lifetime the drained entries form a stable prefix of the
///   final [`QueryResult::ranked`] — suspension (not stepping for a while)
///   can never change entries already drained.
/// * [`stats`](QueryDriver::stats) folds the counters the algorithm's own
///   searches keep into the skeleton's, so a snapshot at any step counts
///   the work done so far, and the snapshot after completion equals the
///   result's counters.
/// * [`take_result`](QueryDriver::take_result) is available once `step`
///   returned [`StepOutcome::Complete`] and yields the same result an
///   eager run computes.  It may be called at most once.
///
/// Obtain drivers through [`GeoSocialEngine::begin_stream`]; most callers
/// want the [`QueryStream`](crate::QueryStream) iterator instead, which
/// pulls a driver just far enough for each `next()`.
pub trait QueryDriver {
    /// Advances the search by one probe.
    fn step(&mut self) -> StepOutcome;

    /// Appends the entries newly finalized since the previous drain to
    /// `out`, in ascending `(score, user)` order.
    ///
    /// Drain-after-complete algorithms (the exhaustive oracle, the cached
    /// method while its fallback is still possible, a planner cache hit)
    /// never emit anything here; their whole result arrives through
    /// [`QueryDriver::take_result`].
    fn drain_finalized(&mut self, out: &mut Vec<RankedUser>);

    /// Returns `true` once the underlying search has completed.
    fn is_complete(&self) -> bool;

    /// A snapshot of the work counters accumulated so far.  While the
    /// search is running the snapshot reflects the work of the steps taken
    /// up to this point — this is how the early-exit tests and the
    /// `ssrq-bench` latency experiment quantify how much work a truncated
    /// stream saved.  (`runtime` spans driver construction to now, so for a
    /// lazily-pulled stream it includes consumer think-time.)
    fn stats(&self) -> QueryStats;

    /// Takes the final result.  Available exactly once, after
    /// [`QueryDriver::step`] returned [`StepOutcome::Complete`]; the
    /// drained entries are a prefix of `ranked`.
    ///
    /// # Errors
    ///
    /// The error of a deferred sub-query, e.g. the cached method's AIS
    /// fallback failing (impossible for the built-in configurations, which
    /// validate everything up front).
    ///
    /// # Panics
    ///
    /// Panics when the driver has not completed or the result was already
    /// taken.
    fn take_result(&mut self) -> Result<QueryResult, CoreError>;

    /// Runs the machine to completion and takes the result — the thin
    /// eager loop behind every eager run.
    fn run_to_completion(&mut self) -> Result<QueryResult, CoreError> {
        while let StepOutcome::Progress = self.step() {}
        self.take_result()
    }
}

/// Appends the entries of `topk` finalized since the last call (tracked by
/// `emitted`) to `out`.
fn drain_new_finalized(topk: &TopK, emitted: &mut usize, out: &mut Vec<RankedUser>) {
    if topk.finalized() > *emitted {
        let sorted = topk.finalized_sorted();
        out.extend_from_slice(&sorted[*emitted..]);
        *emitted = sorted.len();
    }
}

/// The bookkeeping of one query, shared by every search: the request and
/// its ranking function, the interim result, the counters, the clock, the
/// drain cursor and, once complete, the result.
#[derive(Debug)]
pub(crate) struct AnswerBook<'a> {
    /// The request being answered.
    pub(crate) request: QueryRequest,
    /// The request's ranking function over the engine's dataset.
    pub(crate) ctx: RankingContext<'a>,
    /// The interim result `R`, its `f_k` and its finalization bound.
    pub(crate) topk: TopK,
    /// The counters the search bumps itself; the ones its graph searches
    /// keep are folded in by [`Search::fold_stats`].
    pub(crate) stats: QueryStats,
    start: Instant,
    /// Finalized entries already drained.
    emitted: usize,
    result: Option<Result<QueryResult, CoreError>>,
    done: bool,
}

impl<'a> AnswerBook<'a> {
    /// An empty book for `request`, which the caller has validated.
    pub(crate) fn new(dataset: &'a GeoSocialDataset, request: &QueryRequest) -> Self {
        AnswerBook {
            request: request.clone(),
            ctx: RankingContext::new(dataset, request),
            topk: TopK::for_request(request),
            stats: QueryStats::default(),
            start: Instant::now(),
            emitted: 0,
            result: None,
            done: false,
        }
    }

    /// Validates `request` against `dataset`, then opens its book: the
    /// request's own invariants first, then its query user.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] / [`CoreError::UnknownUser`].
    pub(crate) fn open(
        dataset: &'a GeoSocialDataset,
        request: &QueryRequest,
    ) -> Result<Self, CoreError> {
        request.validate()?;
        dataset.check_user(request.user())?;
        Ok(AnswerBook::new(dataset, request))
    }

    /// The dataset the query runs on.
    pub(crate) fn dataset(&self) -> &'a GeoSocialDataset {
        self.ctx.dataset()
    }

    /// Admit, score, consider: when the request admits `user`, scores it at
    /// raw social distance `raw_social` and offers it to the interim result.
    pub(crate) fn offer(&mut self, user: UserId, raw_social: f64) {
        if self.request.admits(self.dataset(), user) {
            let social = self.ctx.normalize_social(raw_social);
            self.consider(user, social, self.ctx.spatial(user));
        }
    }

    /// Scores an evaluated candidate from its normalized distances and
    /// offers it to the interim result.
    pub(crate) fn consider(&mut self, user: UserId, social: f64, spatial: f64) {
        self.stats.evaluated_users += 1;
        self.topk.consider(RankedUser {
            user,
            score: self.ctx.score(social, spatial),
            social,
            spatial,
        });
    }

    /// Raises the finalization bound to `theta`, a lower bound on the score
    /// of every candidate not yet offered, and reports whether it reached
    /// `f_k` — the threshold algorithm's stop test.
    pub(crate) fn raise(&mut self, theta: f64) -> bool {
        self.topk.raise_threshold(theta);
        theta >= self.topk.fk()
    }

    /// Completes the query with `result`, stamping the wall clock on it;
    /// after this the book's counters are the result's.
    pub(crate) fn finish(&mut self, result: Result<QueryResult, CoreError>) -> StepOutcome {
        self.stats.runtime = self.start.elapsed();
        self.result = Some(result.map(|mut result| {
            result.stats.runtime = self.stats.runtime;
            self.stats = result.stats;
            result
        }));
        self.done = true;
        StepOutcome::Complete
    }

    /// Completes the query with the interim result as it stands.
    fn complete(&mut self, stats: QueryStats) {
        let topk = std::mem::replace(&mut self.topk, TopK::new(0));
        self.finish(Ok(QueryResult {
            ranked: topk.into_sorted_vec(),
            k: self.request.k(),
            degraded: false,
            stats,
        }));
    }
}

/// One algorithm's probe: everything its driver does that the shared
/// [`AnswerBook`] does not.
pub(crate) trait Search {
    /// `false` for a drain-after-complete search, whose interim entries are
    /// not final before it completes: the oracle's scan order bounds
    /// nothing, and the cached method's fallback replaces its interim
    /// result.
    const STREAMS: bool = true;

    /// Advances by one probe.  [`StepOutcome::Complete`] says the search
    /// has ended; the skeleton then completes the book with the interim
    /// result, unless the search already [finished](AnswerBook::finish) it.
    fn step(&mut self, book: &mut AnswerBook<'_>) -> StepOutcome;

    /// Folds the counters the search keeps outside the book (its graph
    /// searches' own) into a snapshot of the book's.
    fn fold_stats(&self, _stats: &mut QueryStats) {}
}

/// The one skeleton: a [`Search`] driven against its [`AnswerBook`] — the
/// implementation of [`QueryDriver`] behind every algorithm.
#[derive(Debug)]
pub(crate) struct Driven<'a, S> {
    book: AnswerBook<'a>,
    search: S,
}

impl<'a, S: Search> Driven<'a, S> {
    /// Pairs `search` with the book it answers into.
    pub(crate) fn new(book: AnswerBook<'a>, search: S) -> Self {
        Driven { book, search }
    }

    /// The live counters: the book's, the search's own, and the clock.
    fn snapshot(&self) -> QueryStats {
        let mut stats = self.book.stats;
        self.search.fold_stats(&mut stats);
        // A drain-after-complete search delivers nothing before it
        // completes, whatever its interim threshold finalized.
        stats.streamable_results = if S::STREAMS {
            self.book.topk.finalized()
        } else {
            0
        };
        stats.runtime = self.book.start.elapsed();
        stats
    }
}

impl<S: Search> QueryDriver for Driven<'_, S> {
    fn step(&mut self) -> StepOutcome {
        if self.book.done {
            return StepOutcome::Complete;
        }
        let outcome = self.search.step(&mut self.book);
        if outcome == StepOutcome::Complete && !self.book.done {
            let stats = self.snapshot();
            self.book.complete(stats);
        }
        outcome
    }

    fn drain_finalized(&mut self, out: &mut Vec<RankedUser>) {
        if S::STREAMS && !self.book.done {
            drain_new_finalized(&self.book.topk, &mut self.book.emitted, out);
        }
    }

    fn is_complete(&self) -> bool {
        self.book.done
    }

    fn stats(&self) -> QueryStats {
        if self.book.done {
            self.book.stats
        } else {
            self.snapshot()
        }
    }

    fn take_result(&mut self) -> Result<QueryResult, CoreError> {
        self.book
            .result
            .take()
            .expect("query not complete or result already taken")
    }
}

/// Boxes `search` behind the skeleton.
fn driven<'a, S: Search + 'a>(book: AnswerBook<'a>, search: S) -> Box<dyn QueryDriver + 'a> {
    Box::new(Driven::new(book, search))
}

/// Starts the driver of one concrete `algorithm` over `engine` — the one
/// place the twelve paper algorithms are told apart, and the one place a
/// request is validated.  An index-backed algorithm builds its declared
/// index here on first use.
///
/// A query with no spatial origin (no explicit origin, and a query user
/// without a location) sees every candidate at infinite spatial distance,
/// so no candidate has a finite score: it completes with the empty answer
/// before any search.  Only the [`Algorithm::Exhaustive`] oracle still
/// scans, so it keeps checking that claim; every other search is handed
/// the resolved origin.
///
/// # Errors
///
/// In this order: [`CoreError::MissingIndex`] for an index the engine does
/// not declare, then whatever [`QueryRequest::validate`] reports, then
/// [`CoreError::UnknownUser`].
///
/// # Panics
///
/// On [`Algorithm::Auto`], which names no driver: the engine hands it to
/// its planner, whose choice is never `Auto`.
pub(crate) fn start<'a>(
    algorithm: Algorithm,
    engine: &'a GeoSocialEngine,
    request: &QueryRequest,
    ctx: &'a mut QueryContext,
) -> Result<Box<dyn QueryDriver + 'a>, CoreError> {
    engine.ready(algorithm)?;
    let dataset = engine.dataset();
    let book = AnswerBook::open(dataset, request)?;
    let user = request.user();
    if algorithm == Algorithm::Exhaustive {
        let social = IncrementalDijkstra::new(dataset.graph(), user, &mut ctx.social);
        return Ok(driven(book, ExhaustiveDriver::new(social)));
    }
    let Some(origin) = book.ctx.origin() else {
        return Ok(Box::new(EagerDriver::new(QueryResult {
            ranked: Vec::new(),
            k: request.k(),
            degraded: false,
            stats: QueryStats::default(),
        })));
    };
    let ranking = book.ctx;
    let grid = engine.grid();
    let tsa = |quick_combine, ch_phase2, ctx| {
        let options = TsaOptions {
            quick_combine,
            landmarks: Some(engine.landmarks()),
            ch_phase2,
        };
        TsaDriver::new(&ranking, grid, origin, options, ctx)
    };
    let ais = |variant, ctx| {
        AisDriver::new(
            &ranking,
            engine.ais_index(),
            engine.landmarks(),
            origin,
            variant,
            ctx,
        )
    };
    Ok(match algorithm {
        Algorithm::Sfa => {
            let social = IncrementalDijkstra::new(dataset.graph(), user, &mut ctx.social);
            driven(book, SfaDriver::new(SocialOrder::Dijkstra(social)))
        }
        Algorithm::SfaCh => {
            let ch = engine.require_contraction_hierarchy()?;
            let order = SocialOrder::ranked_by(ch, dataset.user_count(), &mut ctx.ch);
            driven(book, SfaDriver::new(order))
        }
        Algorithm::Spa => driven(book, SpaDriver::new(&ranking, grid, origin, None, ctx)),
        Algorithm::SpaCh => {
            let ch = engine.require_contraction_hierarchy()?;
            driven(book, SpaDriver::new(&ranking, grid, origin, Some(ch), ctx))
        }
        Algorithm::Tsa => driven(book, tsa(false, None, ctx)),
        Algorithm::TsaQc => driven(book, tsa(true, None, ctx)),
        Algorithm::TsaCh => {
            let ch = engine.require_contraction_hierarchy()?;
            driven(book, tsa(false, Some(ch), ctx))
        }
        Algorithm::AisBid => driven(book, ais(AisVariant::bid(), ctx)),
        Algorithm::AisMinus => driven(book, ais(AisVariant::minus(), ctx)),
        Algorithm::Ais => driven(book, ais(AisVariant::full(), ctx)),
        Algorithm::SfaCached => {
            let cache = engine.require_social_cache()?;
            let fallback = move |fallback_request: &QueryRequest| {
                ais_query(
                    dataset,
                    engine.ais_index(),
                    engine.landmarks(),
                    fallback_request,
                    origin,
                    ctx,
                )
            };
            driven(book, CachedDriver::new(cache, user, fallback))
        }
        Algorithm::Exhaustive | Algorithm::Auto => {
            unreachable!("the oracle starts above; Algorithm::Auto is dispatched to the planner")
        }
    })
}

/// A driver over an already-computed result: completes on the first `step`
/// and delivers everything through [`QueryDriver::take_result`]
/// (drain-after-complete) — how a planner cache hit, and a query without an
/// origin, stream.
#[derive(Debug)]
pub(crate) struct EagerDriver {
    stats: QueryStats,
    result: Option<QueryResult>,
}

impl EagerDriver {
    /// Wraps an eagerly computed result.
    pub(crate) fn new(result: QueryResult) -> Self {
        EagerDriver {
            stats: result.stats,
            result: Some(result),
        }
    }
}

impl QueryDriver for EagerDriver {
    fn step(&mut self) -> StepOutcome {
        StepOutcome::Complete
    }

    fn drain_finalized(&mut self, _out: &mut Vec<RankedUser>) {}

    fn is_complete(&self) -> bool {
        true
    }

    fn stats(&self) -> QueryStats {
        self.stats
    }

    fn take_result(&mut self) -> Result<QueryResult, CoreError> {
        Ok(self
            .result
            .take()
            .expect("EagerDriver result already taken"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(user: u32, score: f64) -> RankedUser {
        RankedUser {
            user,
            score,
            social: score,
            spatial: score,
        }
    }

    #[test]
    fn eager_driver_completes_immediately_and_drains_nothing() {
        let result = QueryResult {
            ranked: vec![entry(1, 0.1), entry(2, 0.2)],
            k: 5,
            degraded: false,
            stats: QueryStats {
                evaluated_users: 2,
                ..QueryStats::default()
            },
        };
        let mut driver = EagerDriver::new(result.clone());
        assert!(driver.is_complete());
        assert_eq!(driver.step(), StepOutcome::Complete);
        let mut out = Vec::new();
        driver.drain_finalized(&mut out);
        assert!(out.is_empty());
        assert_eq!(driver.stats().evaluated_users, 2);
        assert_eq!(driver.take_result().unwrap(), result);
    }

    #[test]
    fn run_to_completion_is_a_single_step_for_eager_drivers() {
        let result = QueryResult {
            ranked: vec![],
            k: 1,
            degraded: false,
            stats: QueryStats::default(),
        };
        let mut driver = EagerDriver::new(result.clone());
        assert_eq!(driver.run_to_completion().unwrap(), result);
    }

    #[test]
    fn drain_new_finalized_emits_each_entry_once() {
        let mut topk = TopK::new(4);
        let mut emitted = 0usize;
        let mut out = Vec::new();
        topk.consider(entry(3, 0.3));
        topk.consider(entry(1, 0.1));
        drain_new_finalized(&topk, &mut emitted, &mut out);
        assert!(out.is_empty());
        topk.raise_threshold(0.2);
        drain_new_finalized(&topk, &mut emitted, &mut out);
        assert_eq!(out.iter().map(|e| e.user).collect::<Vec<_>>(), vec![1]);
        // No double emission on an unchanged threshold.
        drain_new_finalized(&topk, &mut emitted, &mut out);
        assert_eq!(out.len(), 1);
        topk.raise_threshold(f64::INFINITY);
        drain_new_finalized(&topk, &mut emitted, &mut out);
        assert_eq!(out.iter().map(|e| e.user).collect::<Vec<_>>(), vec![1, 3]);
    }
}
