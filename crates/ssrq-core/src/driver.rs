//! Resumable query drivers: the pull-lazy state machines behind
//! [`QuerySession::stream`](crate::QuerySession::stream).
//!
//! Every SSRQ algorithm in this crate is implemented as a **driver** — a
//! state machine that advances the search one probe at a time
//! ([`QueryDriver::step`]) and hands out result entries the moment the
//! incremental threshold finalizes them ([`QueryDriver::drain_finalized`]).
//! The eager entry points (`sfa_query`, `tsa_query`, …) are thin
//! `while step` loops over the same machines, so both execution styles run
//! the exact same probe sequence: bounds, admission gating and exactness are
//! shared, and a fully-drained stream is bit-identical to the eager result.
//!
//! Drivers borrow the engine's immutable indexes and the caller's
//! [`QueryContext`] for their whole lifetime; dropping a driver (or the
//! [`QueryStream`](crate::QueryStream) wrapping it) mid-search simply
//! releases those borrows — the context's epoch-versioned scratch makes
//! later queries on the same context bit-identical to fresh ones (asserted
//! by `tests/property_based.rs`).

use crate::ais::{ais_query, AisDriver, AisVariant};
use crate::algorithms::{
    CachedDriver, ExhaustiveDriver, SfaChDriver, SfaDriver, SpaDriver, SpaOptions, TsaDriver,
    TsaOptions,
};
use crate::{
    Algorithm, CoreError, GeoSocialEngine, QueryContext, QueryRequest, QueryResult, QueryStats,
    RankedUser, TopK,
};

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
/// The contract every implementation upholds:
///
/// * [`step`](QueryDriver::step) performs one bounded unit of work (settle
///   one vertex, pop one heap entry, scan one candidate).  Calling it after
///   completion is a no-op.
/// * [`drain_finalized`](QueryDriver::drain_finalized) appends the entries
///   whose membership *and* rank the incremental threshold has fixed since
///   the previous drain, in ascending `(score, user)` order.  Across the
///   driver's lifetime the drained entries form a stable prefix of the
///   final [`QueryResult::ranked`] — suspension (not stepping for a while)
///   can never change entries already drained.
/// * [`take_result`](QueryDriver::take_result) is available once `step`
///   returned [`StepOutcome::Complete`] and yields the same result the
///   eager entry point computes.  It may be called at most once.
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
    /// eager loop every `*_query` entry point is built from.
    fn run_to_completion(&mut self) -> Result<QueryResult, CoreError> {
        while let StepOutcome::Progress = self.step() {}
        self.take_result()
    }
}

/// Appends the entries of `topk` finalized since the last call (tracked by
/// `emitted`) to `out` — the shared emission primitive of the incremental
/// drivers.
pub(crate) fn drain_new_finalized(topk: &TopK, emitted: &mut usize, out: &mut Vec<RankedUser>) {
    if topk.finalized() > *emitted {
        let sorted = topk.finalized_sorted();
        out.extend_from_slice(&sorted[*emitted..]);
        *emitted = sorted.len();
    }
}

/// Starts the driver of one concrete `algorithm` over `engine` — the one
/// place the twelve paper algorithms are told apart.  An index-backed
/// algorithm builds its declared index here on first use.
///
/// # Errors
///
/// [`CoreError::MissingIndex`] for an index the engine does not declare;
/// otherwise whatever the driver's constructor reports for the request
/// (typically [`CoreError::InvalidParameter`] / [`CoreError::UnknownUser`]).
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
    let dataset = engine.dataset();
    let tsa = |quick_combine, ch_phase2| TsaOptions {
        quick_combine,
        landmarks: Some(engine.landmarks()),
        ch_phase2,
    };
    let ais = |variant, ctx| {
        AisDriver::new(
            dataset,
            engine.ais_index(),
            engine.landmarks(),
            request,
            variant,
            ctx,
        )
    };
    Ok(match algorithm {
        Algorithm::Exhaustive => Box::new(ExhaustiveDriver::new(dataset, request, ctx)?),
        Algorithm::Sfa => Box::new(SfaDriver::new(dataset, request, ctx)?),
        Algorithm::Spa => Box::new(SpaDriver::new(
            dataset,
            engine.grid(),
            request,
            SpaOptions::default(),
            ctx,
        )?),
        Algorithm::Tsa => Box::new(TsaDriver::new(
            dataset,
            engine.grid(),
            request,
            tsa(false, None),
            ctx,
        )?),
        Algorithm::TsaQc => Box::new(TsaDriver::new(
            dataset,
            engine.grid(),
            request,
            tsa(true, None),
            ctx,
        )?),
        Algorithm::AisBid => Box::new(ais(AisVariant::bid(), ctx)?),
        Algorithm::AisMinus => Box::new(ais(AisVariant::minus(), ctx)?),
        Algorithm::Ais => Box::new(ais(AisVariant::full(), ctx)?),
        Algorithm::SfaCh => {
            let ch = engine.require_contraction_hierarchy()?;
            Box::new(SfaChDriver::new(dataset, ch, request, ctx)?)
        }
        Algorithm::SpaCh => {
            let ch = engine.require_contraction_hierarchy()?;
            Box::new(SpaDriver::new(
                dataset,
                engine.grid(),
                request,
                SpaOptions { ch: Some(ch) },
                ctx,
            )?)
        }
        Algorithm::TsaCh => {
            let ch = engine.require_contraction_hierarchy()?;
            Box::new(TsaDriver::new(
                dataset,
                engine.grid(),
                request,
                tsa(false, Some(ch)),
                ctx,
            )?)
        }
        Algorithm::SfaCached => {
            let cache = engine.require_social_cache()?;
            Box::new(CachedDriver::new(
                dataset,
                cache,
                request,
                move |fallback_request: &QueryRequest| {
                    ais_query(
                        dataset,
                        engine.ais_index(),
                        engine.landmarks(),
                        fallback_request,
                        AisVariant::full(),
                        ctx,
                    )
                },
            )?)
        }
        Algorithm::Auto => unreachable!("Algorithm::Auto is dispatched to the planner"),
    })
}

/// A driver over an already-computed result: completes on the first `step`
/// and delivers everything through [`QueryDriver::take_result`]
/// (drain-after-complete) — how a planner cache hit streams.
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
