//! Sharded sessions and cross-shard streaming.

use crate::engine::ShardedEngine;
use crate::stats::ShardStats;
use ssrq_core::{
    CoreError, QueryContext, QueryRequest, QueryResult, QueryStats, QueryStream, RankedUser,
};
use std::collections::VecDeque;

/// A per-worker handle on a [`ShardedEngine`]: reusable [`QueryContext`]s,
/// so a serving worker pays the `O(|V|)` scratch allocation once instead of
/// per query — and the only way to open a cross-shard [`ShardedStream`].
#[derive(Debug)]
pub struct ShardedSession<'e> {
    engine: &'e ShardedEngine,
    /// One context per shard, for [`ShardedSession::stream`]'s interleaved
    /// arms; a scatter visits its shards one at a time through the first.
    contexts: Vec<QueryContext>,
}

impl<'e> ShardedSession<'e> {
    pub(crate) fn new(engine: &'e ShardedEngine) -> Self {
        ShardedSession {
            contexts: (0..engine.shard_count())
                .map(|_| engine.make_context())
                .collect(),
            engine,
        }
    }

    /// The engine the session queries.
    pub fn engine(&self) -> &'e ShardedEngine {
        self.engine
    }

    /// Processes one request by best-first scatter-gather
    /// ([`ShardedEngine::run`]), reusing this session's context.
    pub fn run(&mut self, request: &QueryRequest) -> Result<QueryResult, CoreError> {
        self.run_with_stats(request).map(|(result, _)| result)
    }

    /// [`ShardedSession::run`] plus the coordinator's [`ShardStats`].
    pub fn run_with_stats(
        &mut self,
        request: &QueryRequest,
    ) -> Result<(QueryResult, ShardStats), CoreError> {
        // The builder rejects zero shards, so the first context exists.
        self.engine.scatter(request, &mut self.contexts[0])
    }

    /// Processes one request as a **cross-shard pull-lazy stream**: every
    /// participating shard contributes its own [`QueryStream`] (pull-lazy
    /// within the shard — see
    /// [`QuerySession::stream`](ssrq_core::QuerySession::stream)) and a
    /// k-way merge yields the globally smallest `(score, user)` head next.
    ///
    /// Shard arms are admitted **lazily**, in ascending order of their rect
    /// lower bound (`(1 − α) · mindist(origin, rect) / norm`): a shard's
    /// stream is not even *opened* until the merged head's score reaches
    /// that shard's bound — before that point the shard provably cannot
    /// contribute the next entry.  A `take(1)` consumer therefore typically
    /// touches only the shard(s) nearest the query origin;
    /// [`ShardedStream::opened_shards`] reports how many arms actually
    /// started.  Shards whose bound cannot beat the request's score cutoff
    /// (or that miss its filter window) are skipped outright —
    /// [`ShardedStream::skipped_shards`] counts them.
    ///
    /// Each `next()` then advances only the shard whose head was consumed,
    /// so the first results arrive after a fraction of the full scatter
    /// work.  A fully drained stream yields exactly
    /// [`ShardedSession::run`]'s ranked entries in order (each arm keeps a
    /// context, and a social expansion, of its own): an unopened arm
    /// only ever holds entries scoring at or above its bound, which is
    /// strictly above everything emitted while it stayed closed.
    ///
    /// # Errors
    ///
    /// Same as [`ShardedSession::run`] for everything detectable up front.
    /// An error a shard reports *mid-stream* — from a deferred sub-query
    /// (see [`QueryStream::error`]) or while opening a lazily admitted
    /// arm — ends the merge early instead: `next()` returns `None` and
    /// [`ShardedStream::error`] holds the cause.
    pub fn stream(&mut self, request: &QueryRequest) -> Result<ShardedStream<'_>, CoreError> {
        let base = self.engine.prepare(request)?;
        let origin = base.origin();
        let initial_threshold = base.max_score().unwrap_or(f64::INFINITY);
        let mut pending: Vec<PendingArm<'_>> = Vec::new();
        let mut skipped = 0usize;
        for (shard_idx, (shard, ctx)) in self
            .engine
            .shards
            .iter()
            .zip(self.contexts.iter_mut())
            .enumerate()
        {
            let lower_bound = self.engine.shard_lower_bound(shard, &base, origin);
            if lower_bound >= initial_threshold {
                skipped += 1;
                continue;
            }
            pending.push(PendingArm {
                shard: shard_idx,
                lower_bound,
                ctx,
            });
        }
        pending.sort_by(|a, b| {
            a.lower_bound
                .total_cmp(&b.lower_bound)
                .then_with(|| a.shard.cmp(&b.shard))
        });
        Ok(ShardedStream {
            engine: self.engine,
            remaining: base.k(),
            k: base.k(),
            base,
            pending: pending.into(),
            arms: Vec::new(),
            skipped,
            failed: false,
            open_error: None,
        })
    }
}

/// One shard's contribution to a [`ShardedStream`]: its pull-lazy stream
/// plus the buffered head entry the merge compares.
#[derive(Debug)]
struct Arm<'s> {
    stream: QueryStream<'s>,
    head: Option<RankedUser>,
    exhausted: bool,
}

/// A shard arm not yet admitted to the merge: its context is parked here
/// until the merged head's score reaches `lower_bound`.
#[derive(Debug)]
struct PendingArm<'s> {
    shard: usize,
    lower_bound: f64,
    ctx: &'s mut QueryContext,
}

/// A pull-lazy cross-shard result stream with lazy arm admission; see
/// [`ShardedSession::stream`].
#[derive(Debug)]
pub struct ShardedStream<'s> {
    engine: &'s ShardedEngine,
    /// The prepared (origin-resolved) broadcast request lazily admitted
    /// arms are opened with.
    base: QueryRequest,
    /// Unopened arms, ascending by lower bound.
    pending: VecDeque<PendingArm<'s>>,
    arms: Vec<Arm<'s>>,
    remaining: usize,
    skipped: usize,
    k: usize,
    /// A shard stream failed mid-query: the merge stops (an exact global
    /// order can no longer be proven) and [`ShardedStream::error`] reports
    /// the cause.
    failed: bool,
    /// An error raised while *opening* a lazily admitted arm.
    open_error: Option<CoreError>,
}

impl ShardedStream<'_> {
    /// The `k` the query asked for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Shards pruned up front (empty, filter-disjoint, or provably unable
    /// to beat the request's score cutoff).
    pub fn skipped_shards(&self) -> usize {
        self.skipped
    }

    /// Shards whose pull-lazy stream has actually been opened so far.
    ///
    /// Admission is lazy (see [`ShardedSession::stream`]), so after a
    /// truncated consumption this is typically smaller than
    /// `shard_count() - skipped_shards()`: the difference is shards that
    /// did **no** work at all for this query.
    pub fn opened_shards(&self) -> usize {
        self.arms.len()
    }

    /// The error a shard stream reported mid-query, if any: a deferred
    /// sub-query failure (see [`QueryStream::error`] for when that can
    /// happen — e.g. the cached method's fallback) or a failure while
    /// opening a lazily admitted arm.  When set, the merge has stopped
    /// yielding: a missing shard's candidates would make any further
    /// "global minimum" claim wrong, so the stream ends instead of
    /// silently returning an incomplete answer.  The same request through
    /// [`ShardedSession::run`] returns the error directly.
    pub fn error(&self) -> Option<&CoreError> {
        self.open_error
            .as_ref()
            .or_else(|| self.arms.iter().find_map(|arm| arm.stream.error()))
    }

    /// Work counters across the shard streams opened **so far**
    /// ([`QueryStats::merge`] semantics: work sums; the arms interleave, so
    /// runtime is the longest-lived arm's) — for a truncated stream this
    /// shows what the early exit and the lazy admission saved.
    pub fn stats(&self) -> QueryStats {
        let mut merged = QueryStats::default();
        for arm in &self.arms {
            merged.merge(&arm.stream.stats());
        }
        merged
    }

    /// Opens the next pending arm.  Returns `false` on failure (the stream
    /// flips to `failed` and records the error).
    fn open_next_pending(&mut self) -> bool {
        let Some(pending) = self.pending.pop_front() else {
            return true;
        };
        match self.engine.shards[pending.shard]
            .engine
            .stream_with(&self.base, pending.ctx)
        {
            Ok(stream) => {
                self.arms.push(Arm {
                    stream,
                    head: None,
                    exhausted: false,
                });
                true
            }
            Err(error) => {
                self.open_error = Some(error);
                self.failed = true;
                false
            }
        }
    }
}

impl Iterator for ShardedStream<'_> {
    type Item = RankedUser;

    fn next(&mut self) -> Option<RankedUser> {
        if self.remaining == 0 || self.failed {
            return None;
        }
        loop {
            // Refill: every open arm needs a buffered head before a global
            // minimum can be taken.  Pulling a head is pull-lazy within the
            // shard — the shard search advances only until its next entry
            // finalizes.
            for arm in self.arms.iter_mut() {
                if arm.head.is_none() && !arm.exhausted {
                    arm.head = arm.stream.next();
                    arm.exhausted = arm.head.is_none();
                }
            }
            // A shard stream that *failed* (rather than drained) leaves a
            // hole in the candidate space: no entry can be proven globally
            // minimal any more.  Stop yielding; `error()` reports the cause.
            if self
                .arms
                .iter()
                .any(|arm| arm.exhausted && arm.stream.error().is_some())
            {
                self.failed = true;
                return None;
            }
            let best = self
                .arms
                .iter()
                .enumerate()
                .filter_map(|(i, arm)| arm.head.map(|h| (i, h)))
                .min_by(|(_, a), (_, b)| {
                    a.score
                        .total_cmp(&b.score)
                        .then_with(|| a.user.cmp(&b.user))
                });
            // Lazy admission: the merged head is only provably the global
            // minimum while it scores strictly below every unopened arm's
            // lower bound (an unopened arm holds no entry below its bound).
            // Otherwise — or when nothing is open yet — open the nearest
            // pending arm and re-evaluate.
            let must_open = match (&best, self.pending.front()) {
                (_, None) => false,
                (None, Some(_)) => true,
                (Some((_, head)), Some(front)) => head.score >= front.lower_bound,
            };
            if must_open {
                if !self.open_next_pending() {
                    return None;
                }
                continue;
            }
            let (i, _) = best?;
            let entry = self.arms[i].head.take();
            self.remaining -= 1;
            return entry;
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.remaining))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssrq_core::{GeoSocialDataset, QueryDriver, QueryStats, StepOutcome};
    use ssrq_graph::GraphBuilder;
    use ssrq_spatial::Point;

    /// A driver that completes immediately but whose result is an error —
    /// the mid-stream failure shape only deferred sub-queries produce.
    struct FailingDriver;
    impl QueryDriver for FailingDriver {
        fn step(&mut self) -> StepOutcome {
            StepOutcome::Complete
        }
        fn drain_finalized(&mut self, _out: &mut Vec<RankedUser>) {}
        fn is_complete(&self) -> bool {
            true
        }
        fn stats(&self) -> QueryStats {
            QueryStats::default()
        }
        fn take_result(&mut self) -> Result<QueryResult, CoreError> {
            Err(CoreError::InvalidParameter("mid-stream failure".into()))
        }
    }

    #[test]
    fn a_mid_stream_shard_failure_ends_the_merge_and_is_reported() {
        let graph =
            GraphBuilder::from_edges(4, vec![(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap();
        let locations = (0..4)
            .map(|i| Some(Point::new(0.1 + 0.2 * i as f64, 0.5)))
            .collect();
        let dataset = GeoSocialDataset::new(graph, locations).unwrap();
        let engine = ShardedEngine::builder(dataset).shards(2).build().unwrap();
        let base = QueryRequest::for_user(0).k(3).build().unwrap();
        // One open arm whose shard search fails after the stream started:
        // the merge must not silently yield a truncated answer — it ends
        // and reports the error.
        let mut stream = ShardedStream {
            engine: &engine,
            base,
            pending: VecDeque::new(),
            arms: vec![Arm {
                stream: QueryStream::new(Box::new(FailingDriver), 3),
                head: None,
                exhausted: false,
            }],
            remaining: 3,
            skipped: 0,
            k: 3,
            failed: false,
            open_error: None,
        };
        assert!(stream.next().is_none());
        assert!(matches!(
            stream.error(),
            Some(CoreError::InvalidParameter(_))
        ));
    }
}
