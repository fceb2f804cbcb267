//! Query sessions: an engine handle bundled with reusable per-worker state.
//!
//! A [`QuerySession`] is the recommended way to issue queries: it pairs a
//! shared `&GeoSocialEngine` with an owned [`QueryContext`], so a service
//! handler (or a worker thread) holds one session and never pays the
//! per-query `O(|V|)` scratch allocation.  Besides [`QuerySession::run`],
//! sessions expose [`QuerySession::stream`], which runs the query as a
//! **pull-lazy** iterator: the underlying search only advances as far as
//! needed to finalize the next entry, so the first results arrive long
//! before — and a truncated stream costs much less than — a full run.

use crate::driver::{QueryDriver, StepOutcome};
use crate::{
    CoreError, GeoSocialEngine, QueryContext, QueryRequest, QueryResult, QueryStats, RankedUser,
};
use std::collections::VecDeque;

/// A query handle: engine reference plus owned, reusable scratch.
///
/// Create one per worker via [`GeoSocialEngine::session`]; the session can
/// issue any number of queries with any algorithm, in any order, and reuses
/// its context throughout (reuse never changes answers — the test-suite
/// asserts this, including across streams abandoned mid-query).
#[derive(Debug)]
pub struct QuerySession<'e> {
    engine: &'e GeoSocialEngine,
    ctx: QueryContext,
}

impl<'e> QuerySession<'e> {
    /// Creates a session for `engine` with a context pre-sized for its
    /// graph.
    pub fn new(engine: &'e GeoSocialEngine) -> Self {
        QuerySession {
            ctx: engine.make_context(),
            engine,
        }
    }

    /// The engine the session queries.
    pub fn engine(&self) -> &'e GeoSocialEngine {
        self.engine
    }

    /// How many graph searches have reused this session's context so far.
    pub fn searches(&self) -> u64 {
        self.ctx.searches()
    }

    /// Processes one request.
    pub fn run(&mut self, request: &QueryRequest) -> Result<QueryResult, CoreError> {
        self.engine.run_with(request, &mut self.ctx)
    }

    /// Processes one request **pull-lazily**, returning a [`QueryStream`]
    /// of [`RankedUser`]s in finalization order.
    ///
    /// The SSRQ algorithms differ in *when* a result entry becomes final.
    /// The incremental-threshold methods (SFA, SPA, TSA and the AIS
    /// variants) maintain a monotone lower bound on every not-yet-delivered
    /// candidate, so entries scoring below the bound are fixed — membership
    /// and rank — long before the search ends.  The stream exploits exactly
    /// that: each [`QueryStream::next`] advances the underlying resumable
    /// search ([`QueryDriver`]) only until the next entry finalizes.
    /// Consequently:
    ///
    /// * the first entry arrives after a fraction of the full query work —
    ///   genuine first-result latency, not a replay of a finished search;
    /// * `stream.take(j)` for `j < k` performs measurably less work than a
    ///   full run (compare [`QueryStream::stats`] against
    ///   [`QuerySession::run`]'s counters — the test-suite asserts strictly
    ///   fewer relaxed edges);
    /// * dropping the stream abandons the rest of the search at no cost,
    ///   and later queries on this session are unaffected.
    ///
    /// Algorithms without a usable mid-search bound — the exhaustive
    /// oracle and the cached method while its AIS fallback is still
    /// possible — and an `Auto` request served from the planner's cache
    /// fall back to **drain-after-complete**: the first `next()` runs the
    /// search to completion (or takes the cached result) and the entries
    /// are replayed from the finished result.
    ///
    /// A fully drained stream yields exactly [`QuerySession::run`]'s
    /// entries, in the same ascending-score order, and every prefix of
    /// length `j` equals the eager top-`j`.
    ///
    /// The stream borrows the session (its context hosts the search state),
    /// so one stream per session is live at a time; use two sessions for
    /// concurrent streams.
    ///
    /// # Errors
    ///
    /// Same as [`QuerySession::run`].
    pub fn stream(&mut self, request: &QueryRequest) -> Result<QueryStream<'_>, CoreError> {
        self.engine.stream_with(request, &mut self.ctx)
    }
}

/// The state a [`QueryStream`] is in.
#[derive(Debug)]
enum StreamState<'s> {
    /// The search is still running behind the buffered entries.
    Running(Box<dyn QueryDriver + 's>),
    /// The search completed; the full result backs the remaining entries.
    Finished(QueryResult),
    /// A deferred sub-query failed mid-stream (see [`QueryStream::error`]);
    /// `stats` preserves the work counters accumulated up to the failure.
    Failed { error: CoreError, stats: QueryStats },
}

impl std::fmt::Debug for dyn QueryDriver + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryDriver")
            .field("complete", &self.is_complete())
            .finish()
    }
}

/// A pull-lazy iterator over the [`RankedUser`]s of one query, in
/// finalization order; see [`QuerySession::stream`].
///
/// Each `next()` steps the underlying [`QueryDriver`] just far enough for
/// the incremental threshold to finalize another entry (or for the search
/// to complete).  The stream's length is therefore unknown until the search
/// finishes — there is deliberately no `ExactSizeIterator`.
#[derive(Debug)]
pub struct QueryStream<'s> {
    state: StreamState<'s>,
    buffer: VecDeque<RankedUser>,
    /// Entries pulled out of the driver so far (yielded + still buffered).
    received: usize,
    /// Entries that finalized strictly before the completing probe.
    finalized_pre_completion: usize,
    k: usize,
    /// Scratch for `drain_finalized`.
    drained: Vec<RankedUser>,
}

impl<'s> QueryStream<'s> {
    /// Wraps any [`QueryDriver`] as a stream of a `k`-entry query; this is
    /// what [`GeoSocialEngine::stream_with`](crate::GeoSocialEngine::stream_with)
    /// returns.
    pub fn new(driver: Box<dyn QueryDriver + 's>, k: usize) -> Self {
        QueryStream {
            state: StreamState::Running(driver),
            buffer: VecDeque::new(),
            received: 0,
            finalized_pre_completion: 0,
            k,
            drained: Vec::new(),
        }
    }

    /// Wraps an already-computed result as a (fully buffered) stream.
    pub fn from_result(result: QueryResult) -> QueryStream<'static> {
        QueryStream {
            buffer: result.ranked.iter().copied().collect(),
            received: result.ranked.len(),
            finalized_pre_completion: result.stats.streamable_results,
            k: result.k,
            state: StreamState::Finished(result),
            drained: Vec::new(),
        }
    }

    /// How many entries are known to have been final — membership and
    /// rank — before the underlying search completed.
    ///
    /// While the stream is being consumed this is the count of entries the
    /// incremental threshold has finalized so far (monotone as you pull);
    /// once the search has completed it settles at the final
    /// `streamable_results` counter.  Positive for the
    /// incremental-threshold algorithms on typical queries; always zero for
    /// drain-after-complete algorithms such as the exhaustive oracle.
    pub fn finalized_early(&self) -> usize {
        match &self.state {
            StreamState::Running(_) | StreamState::Failed { .. } => self.finalized_pre_completion,
            StreamState::Finished(result) => self
                .finalized_pre_completion
                .max(result.stats.streamable_results),
        }
    }

    /// The `k` the query asked for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Work counters of the underlying query **so far**.
    ///
    /// While the search is running this reflects only the steps actually
    /// taken — for a truncated stream (`take(j)`) it shows how much work
    /// the early exit saved relative to a full run.  After completion it
    /// equals the eager run's counters (`runtime` spans stream creation to
    /// completion, so it includes consumer think-time).
    pub fn stats(&self) -> QueryStats {
        match &self.state {
            StreamState::Running(driver) => driver.stats(),
            StreamState::Finished(result) => result.stats,
            StreamState::Failed { stats, .. } => *stats,
        }
    }

    /// The error a deferred sub-query reported mid-stream, if any.
    ///
    /// Only the cached method's lazily-invoked fallback can fail after
    /// [`QuerySession::stream`] already returned `Ok` — and not with the
    /// built-in configurations, which validate everything up front.  When
    /// an error does occur the stream ends early and records it here.
    pub fn error(&self) -> Option<&CoreError> {
        match &self.state {
            StreamState::Failed { error, .. } => Some(error),
            _ => None,
        }
    }

    /// Runs the rest of the search eagerly and returns the full
    /// [`QueryResult`] (identical to [`QuerySession::run`]'s), discarding
    /// any entries not yet yielded.
    ///
    /// # Errors
    ///
    /// A mid-stream sub-query error (see [`QueryStream::error`]).
    pub fn into_result(mut self) -> Result<QueryResult, CoreError> {
        match self.state {
            StreamState::Running(ref mut driver) => {
                let result = driver.run_to_completion()?;
                Ok(result)
            }
            StreamState::Finished(result) => Ok(result),
            StreamState::Failed { error, .. } => Err(error),
        }
    }

    /// Pulls the driver until a new entry is available or the search
    /// completes.
    fn refill(&mut self) {
        let StreamState::Running(driver) = &mut self.state else {
            return;
        };
        loop {
            self.drained.clear();
            driver.drain_finalized(&mut self.drained);
            if !self.drained.is_empty() {
                self.received += self.drained.len();
                self.finalized_pre_completion = self.received;
                self.buffer.extend(self.drained.drain(..));
                return;
            }
            if let StepOutcome::Complete = driver.step() {
                match driver.take_result() {
                    Ok(result) => {
                        self.buffer.extend(&result.ranked[self.received..]);
                        self.received = result.ranked.len();
                        self.state = StreamState::Finished(result);
                    }
                    Err(error) => {
                        let stats = driver.stats();
                        self.state = StreamState::Failed { error, stats };
                    }
                }
                return;
            }
        }
    }
}

impl Iterator for QueryStream<'_> {
    type Item = RankedUser;

    fn next(&mut self) -> Option<RankedUser> {
        if self.buffer.is_empty() {
            self.refill();
        }
        self.buffer.pop_front()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.state {
            // At most k entries total can still arrive.
            StreamState::Running(_) => (self.buffer.len(), Some(self.k.max(self.buffer.len()))),
            _ => (self.buffer.len(), Some(self.buffer.len())),
        }
    }
}
