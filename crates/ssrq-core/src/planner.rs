//! The query planner behind [`Algorithm::Auto`]: a fixed rule that names
//! the algorithm, and a hot-result cache in front of it.
//!
//! The twelve paper algorithms return the exact same answer for the same
//! request, so choosing one per query is purely a cost decision — and the
//! cost is decided by two request fields, `k` and `α` (the paper's §6,
//! Figures 8–9).  [`QueryPlanner::choose`] therefore reads nothing but the
//! request: `SFA` when `α ≥ 0.4` or (`k ≤ 2` and `α > 0.25`), else `AIS`.
//! The rule's doc comment carries the measurements it rests on.  It never
//! names an index-backed algorithm, so an unpinned `Auto` query never
//! triggers a lazy Contraction Hierarchies or social-cache build; every
//! other algorithm stays reachable by naming it in the request or through
//! [`QueryPlanner::pin`].  No clock and no counter feeds the choice: the
//! same request gets the same delegate on every engine, shard and run.
//!
//! # Hot-result cache
//!
//! The planner layers a per-user hot-result cache over the choice logic:
//! a repeated identical request (same user, `k`, `α`, explicit origin
//! override and filters) is answered from the cache in microseconds.
//!
//! A location update does not touch the cache's entries: it appends the
//! mover to a **churn log**, in `O(1)`.  Each entry keeps a checkpoint, the
//! log position at the start of the query that computed it.  A hit first
//! replays the movers logged since its checkpoint and asks, in the manner
//! of Fagin's threshold algorithm, whether any of them could change the
//! answer.  The entry has a spatial origin `o` (the override, else the
//! query user's location at query start), a preference `α` and an
//! admission bound: `f_k` for a full result, else the `max_score` cutoff
//! (or `+∞`).  Per mover, at its location *now*:
//!
//! - **drop** when the mover is the query user and the origin was derived
//!   from their location, or when the mover is in the cached result (its
//!   own score changed, or it left the spatial domain or the window);
//! - **keep** when the mover has no location any more, is the query user
//!   of an explicit-origin entry, lies outside the filter window, is
//!   excluded, or when its spatial-only lower bound `(1 − α) · d(o, q)`
//!   lies strictly above the bound;
//! - otherwise decide **exactly**: one [`SharingMode::Shared`] distance
//!   engine rooted at the query user (its forward search shared by every
//!   such mover, a reverse search per mover) settles the mover's social
//!   distance or proves it at least
//!   `(bound − (1 − α) · d(o, q)) / α`, normalized back to raw units —
//!   the arithmetic AIS and SFA evaluate candidates with.  A mover whose
//!   exact score is at most the bound could enter (a tie could swap the
//!   canonical answer), so the entry is dropped.
//!
//! An entry every mover leaves untouched advances its checkpoint and is
//! served.  Social distances never change under location churn, so the
//! replay is exact: the churn tests compare every cached answer with an
//! uncached twin engine bit for bit.  A replay whose searches settle more
//! vertices, forward and reverse together, than the cached result's own
//! computation did drops the entry
//! instead, so validating never costs much more than recomputing.  The
//! search runs outside the cache lock, on the caller's [`QueryContext`].
//!
//! The log is empty while the cache is and never holds more movers than
//! the cache has slots.  When it is full, the entries holding its older
//! half are dropped and it forgets what precedes the oldest remaining
//! checkpoint.  An answer whose query started before a move that has since
//! left the log is not admitted.
//!
//! The planner is engine-local state: cloning a [`GeoSocialEngine`] gives
//! the clone a **fresh** planner with the same cache capacity, because
//! clones' location vectors diverge independently and a shared cache could
//! serve answers from the sibling's world.

use crate::driver::{self, EagerDriver, QueryDriver, StepOutcome};
use crate::ranking::combine;
use crate::{
    Algorithm, CoreError, GeoSocialEngine, QueryContext, QueryRequest, QueryResult, QueryStats,
    RankedUser, UserId,
};
use ssrq_graph::{GraphDistanceEngine, SharingMode};
use ssrq_spatial::{Point, Rect};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The one setting of a [`QueryPlanner`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannerConfig {
    /// Maximum number of hot results kept (least-recently-used eviction);
    /// `0` disables the cache entirely.
    pub cache_capacity: usize,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            cache_capacity: 1024,
        }
    }
}

/// Why the planner picked an algorithm for one query — the `reason` label
/// of the `ssrq_planner_choices_total` metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChoiceReason {
    /// A test/operator pin forced the choice ([`QueryPlanner::pin`]).
    Pinned,
    /// The fixed `(k, α)` rule picked.
    Rule,
}

impl ChoiceReason {
    /// The metric-label spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            ChoiceReason::Pinned => "pinned",
            ChoiceReason::Rule => "rule",
        }
    }
}

/// The whole choice: `SFA` when `α ≥ 0.4` or (`k ≤ 2` and `α > 0.25`),
/// else `AIS`.
///
/// All measurements: 2-vCPU Xeon @ 2.10 GHz, cold (no result cache), each
/// request's fastest of three runs per algorithm, requests drawn as the
/// repository benchmark's `churn_auto` workload draws them (half plain, the
/// rest windowed, with exclusions or with a `max_score`).
///
/// **On the benchmark's grid** k ∈ {1, 10, 50} × α ∈ {0.1, 0.3, 0.9}: mean
/// µs/query as a multiple of the per-query oracle (per-request minimum over
/// `AIS`, `AIS-`, `TSA-QC`, `TSA`, `SPA`, `SFA`), 360 distinct requests per
/// row:
///
/// | dataset preset, users, seed | always `AIS` | always `SFA` | this rule |
/// |---|---|---|---|
/// | gowalla-like 10 k, 44 | 1.96 | 1.29 | 1.08 |
/// | gowalla-like 10 k, 45 | 2.04 | 1.24 | 1.09 |
/// | gowalla-like 50 k, 46 (180 requests, 2 runs) | 1.65 | 1.30 | 1.11 |
/// | gowalla-like 4 k, 47 | 2.16 | 1.23 | 1.15 |
/// | foursquare-like 10 k, 48 | 2.01 | 1.23 | 1.08 |
/// | twitter-like 10 k, 49 | 2.02 | 1.22 | 1.13 |
///
/// Each cell's winner is the same in all six rows: α = 0.9 → `SFA` by
/// 10–400×; k = 1, α = 0.3 → `SFA` by 3–4×; k ≥ 10, α ≤ 0.3 → `AIS`.  The
/// filter shape, the query user's degree and the grid occupancy never
/// change a cell's winner, so the rule does not read them.
///
/// **Between the grid points** — where the two thresholds come from — the
/// time of `AIS` over the time of `SFA` (above 1, `SFA` is faster), 12–40
/// requests per cell:
///
/// | dataset preset, users (seed) | k | α = 0.2 | 0.3 | 0.4 | 0.5 | 0.6 | 0.7 |
/// |---|---|---|---|---|---|---|---|
/// | gowalla-like 4 k (81) | 10 | 0.99 | 1.27 | 1.63 | 2.88 | 4.21 | 7.94 |
/// | | 50 | 1.10 | 1.24 | 1.36 | 1.87 | 2.22 | 4.05 |
/// | gowalla-like 10 k (69) | 10 | 0.67 | 0.79 | 1.15 | 1.79 | 2.84 | 7.14 |
/// | | 50 | 0.79 | 0.89 | 0.93 | 1.03 | 1.45 | 2.07 |
/// | gowalla-like 50 k (84) | 10 | 0.77 | 0.96 | 1.41 | 1.65 | 2.49 | 6.13 |
/// | | 50 | 0.68 | 0.77 | 0.76 | 0.88 | 1.47 | 2.24 |
/// | foursquare-like 10 k (82) | 10 | 0.74 | 0.89 | 1.18 | 1.74 | 3.33 | 8.05 |
/// | | 50 | 0.85 | 0.90 | 0.96 | 1.22 | 1.47 | 2.58 |
/// | twitter-like 10 k (83) | 10 | 0.75 | 1.17 | 1.70 | 2.79 | 4.67 | 9.39 |
/// | | 50 | 0.96 | 0.91 | 1.18 | 1.41 | 2.26 | 3.44 |
///
/// The crossover in α rises with `k` and with the user count: `α ≥ 0.4` is
/// where `SFA` is ahead at k = 10 in every row, and what it gives away at
/// k = 50 stays under 1.32× (50 k users, α = 0.4).  At k = 2 `SFA` is ahead
/// from α = 0.3 up in all five rows (1.4–2.3× at 0.3, 21–38× at 0.7) and
/// level at 0.2 (0.77–1.32); k = 1 behaves the same with larger ratios.
///
/// No index-backed algorithm wins often enough to be named: a `*-CH`
/// method is fastest on 3 of 360 requests of a 400-user engine, and
/// `AIS-Cache` loses to plain `SFA` wherever its list is too short and wins
/// only microseconds where it is not.  `AIS-BID` and `TSA-QC` can be an
/// order of magnitude off (`AIS-BID` takes 5–9× `AIS`'s time on the quick
/// Fig. 10 grid, `experiments -- fig10 --quick --scale 0.2`; `TSA-QC` 27 ms
/// where `AIS` takes 1.4 ms at k = 50, α = 0.1), which is why nothing is
/// probed at run time.
fn rule(request: &QueryRequest) -> Algorithm {
    let (k, alpha) = (request.k(), request.alpha());
    if alpha >= 0.4 || (k <= 2 && alpha > 0.25) {
        Algorithm::Sfa
    } else {
        Algorithm::Ais
    }
}

#[derive(Debug, Default)]
struct PlannerState {
    pinned: Option<Algorithm>,
    choice_counts: HashMap<(Algorithm, ChoiceReason), u64>,
}

/// Identity of a request as a cache key: everything that determines the
/// exact answer except the algorithm (all algorithms agree) — user, `k`,
/// `α`, the explicit origin override and every admissibility filter.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    user: UserId,
    k: usize,
    alpha: u64,
    origin: Option<(u64, u64)>,
    within: Option<(u64, u64, u64, u64)>,
    exclude: Vec<UserId>,
    max_score: Option<u64>,
}

impl CacheKey {
    fn of(request: &QueryRequest) -> CacheKey {
        let mut exclude: Vec<UserId> = request.excluded().iter().copied().collect();
        exclude.sort_unstable();
        CacheKey {
            user: request.user(),
            k: request.k(),
            alpha: request.alpha().to_bits(),
            origin: request.origin().map(|p| (p.x.to_bits(), p.y.to_bits())),
            within: request.within().map(|r| {
                (
                    r.min.x.to_bits(),
                    r.min.y.to_bits(),
                    r.max.x.to_bits(),
                    r.max.y.to_bits(),
                )
            }),
            exclude,
            max_score: request.max_score().map(f64::to_bits),
        }
    }
}

/// One admitted answer and what its churn replay reads.  Immutable once
/// admitted, so a lookup can validate it outside the cache lock.
#[derive(Debug)]
struct Admitted {
    key: CacheKey,
    result: QueryResult,
    /// The spatial origin the result was evaluated from, resolved at query
    /// start (explicit override, else the query user's stored location —
    /// `None` when neither existed).
    origin: Option<Point>,
    within: Option<Rect>,
    /// Score a mover must stay *under* to change the result: `f_k` when the
    /// result is full, else the `max_score` cutoff (or `+∞`).
    bound: f64,
}

/// Relative slack on the bound when sizing an exact check's search: a
/// mover whose computed score ties the bound, whatever the rounding, is
/// searched to the end and so dropped.
const TIE_SLACK: f64 = 1e-9;

impl Admitted {
    /// Whether the answer is still exact after `movers` (sorted, distinct)
    /// changed location, and the work the exact checks did.
    fn survives(
        &self,
        movers: &[UserId],
        engine: &GeoSocialEngine,
        ctx: &mut QueryContext,
    ) -> (bool, QueryStats) {
        let key = &self.key;
        let moved = |user: &UserId| movers.binary_search(user).is_ok();
        if (key.origin.is_none() && moved(&key.user))
            || self.result.ranked.iter().any(|r| moved(&r.user))
        {
            return (false, QueryStats::default());
        }
        let Some(origin) = self.origin else {
            // Every candidate's spatial distance is infinite, and so is
            // every score: a mover's stays so too.
            return (true, QueryStats::default());
        };
        let dataset = engine.dataset();
        let alpha = f64::from_bits(key.alpha);
        let mut exact: Vec<(f64, UserId)> = movers
            .iter()
            .filter(|&&mover| mover != key.user)
            .filter_map(|&mover| {
                let at = dataset.location(mover)?;
                let spatial = dataset.normalize_spatial(origin.distance(at));
                let undecided = self.within.is_none_or(|window| window.contains(at))
                    && (1.0 - alpha) * spatial <= self.bound
                    && key.exclude.binary_search(&mover).is_err();
                undecided.then_some((spatial, mover))
            })
            .collect();
        if exact.is_empty() {
            return (true, QueryStats::default());
        }
        // Smallest budget first, so the cap trips before the widest search.
        exact.sort_unstable_by(|a, b| b.0.total_cmp(&a.0));
        let mut search = GraphDistanceEngine::new(
            dataset.graph(),
            engine.landmarks(),
            key.user,
            SharingMode::Shared,
            &mut ctx.social,
        );
        let bound = self.bound * (1.0 + TIE_SLACK);
        let mut fresh = true;
        for &(spatial, mover) in &exact {
            let budget = (bound - (1.0 - alpha) * spatial) / alpha * dataset.social_norm();
            let social = dataset.normalize_social(search.distance_within(mover, budget));
            let score = combine(alpha, social, spatial);
            let work = search.stats();
            if (score.is_finite() && score <= self.bound)
                || work.forward_settles + work.reverse_settles > self.result.stats.social_pops
            {
                fresh = false;
                break;
            }
        }
        let work = search.stats();
        let stats = QueryStats {
            social_pops: work.forward_settles + work.reverse_settles,
            distance_calls: work.distance_calls,
            relaxed_edges: work.edge_relaxations,
            reverse_settles: work.reverse_settles,
            reverse_relaxed_edges: work.reverse_relaxed_edges,
            ..QueryStats::default()
        };
        (fresh, stats)
    }
}

/// One occupied cache slot.
#[derive(Debug)]
struct Slot {
    admitted: Arc<Admitted>,
    /// Churn-log position up to which the answer is known exact: the start
    /// of the query that computed it, advanced by each replay that keeps it.
    checkpoint: u64,
    last_used: u64,
}

/// The users whose location changed, in order, since the oldest live
/// checkpoint.
#[derive(Debug, Default)]
struct ChurnLog {
    /// Position of `movers[0]`; the log ends at `start + movers.len()`.
    start: u64,
    movers: VecDeque<UserId>,
}

impl ChurnLog {
    fn end(&self) -> u64 {
        self.start + self.movers.len() as u64
    }

    /// Forgets every mover before position `to`.
    fn forget_before(&mut self, to: u64) {
        self.movers.drain(..(to - self.start) as usize);
        self.start = to;
    }
}

/// The hot-result cache: a slab of slots addressed by request identity,
/// and the churn log their checkpoints point into.
#[derive(Debug, Default)]
struct CacheState {
    /// Every key's slot; a slot is occupied exactly when a key maps to it.
    index: HashMap<CacheKey, usize>,
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    log: ChurnLog,
    tick: u64,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

/// Why indexing an occupied slot cannot fail.
const OCCUPIED: &str = "an indexed slot holds an entry";

/// Why locking the cache cannot fail: nothing panics while holding it.
const UNPOISONED: &str = "no cache lock holder panics";

impl CacheState {
    fn len(&self) -> usize {
        self.index.len()
    }

    /// Stores `slot` under its key, replacing an entry with the same key.
    fn insert(&mut self, slot: Slot) {
        let at = match self.index.get(&slot.admitted.key) {
            Some(&at) => at,
            None => {
                let at = self.free.pop().unwrap_or_else(|| {
                    self.slots.push(None);
                    self.slots.len() - 1
                });
                self.index.insert(slot.admitted.key.clone(), at);
                at
            }
        };
        self.slots[at] = Some(slot);
    }

    /// Frees an occupied slot; the last one out empties the log.
    fn release(&mut self, at: usize) {
        let slot = self.slots[at].take().expect(OCCUPIED);
        self.index.remove(&slot.admitted.key);
        self.free.push(at);
        if self.index.is_empty() {
            self.log.forget_before(self.log.end());
        }
    }

    fn evict_lru(&mut self) {
        let lru = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(at, slot)| Some((slot.as_ref()?.last_used, at)))
            .min();
        if let Some((_, at)) = lru {
            self.release(at);
        }
    }

    /// Appends `user` to the log, first making room when it holds
    /// `capacity` movers.  Returns the entries dropped for room.
    fn log_move(&mut self, user: UserId, capacity: usize) -> u64 {
        let dropped = if !self.index.is_empty() && self.log.movers.len() >= capacity {
            self.shrink_log(capacity / 2)
        } else {
            0
        };
        if self.index.is_empty() {
            // Nothing to replay it to; the position still advances, so an
            // answer whose query started before this move is not admitted.
            self.log.start += 1;
        } else {
            self.log.movers.push_back(user);
        }
        dropped
    }

    /// Drops the entries holding more than `keep` logged movers and forgets
    /// what precedes the oldest remaining checkpoint.  Returns the entries
    /// dropped.
    fn shrink_log(&mut self, keep: usize) -> u64 {
        let cutoff = self.log.end().saturating_sub(keep as u64);
        let mut dropped = 0;
        for at in 0..self.slots.len() {
            if self.slots[at]
                .as_ref()
                .is_some_and(|slot| slot.checkpoint < cutoff)
            {
                self.release(at);
                dropped += 1;
            }
        }
        let oldest = self
            .slots
            .iter()
            .flatten()
            .map(|slot| slot.checkpoint)
            .min();
        self.log.forget_before(oldest.unwrap_or(self.log.end()));
        dropped
    }
}

/// What a cache lookup found.
enum Lookup {
    /// A cached answer, exact now; its stats are the replay's work.
    Hit(QueryResult),
    /// No exact answer cached.  `checkpoint` is the log position the query
    /// starts from; `work` is what a replay that dropped the entry did.
    Miss { checkpoint: u64, work: QueryStats },
}

/// Aggregated planner introspection, for tests and the benchmark.
#[derive(Debug, Clone, Default)]
pub struct PlannerSnapshot {
    /// `(algorithm name, reason, count)` of every planner decision so far.
    pub choices: Vec<(String, &'static str, u64)>,
    /// Hot-result cache hits served.
    pub cache_hits: u64,
    /// Cache lookups that missed.
    pub cache_misses: u64,
    /// Entries dropped because location churn could have changed them:
    /// by the replay of a hit, or to keep the churn log within capacity.
    pub cache_invalidations: u64,
    /// Entries currently cached.
    pub cache_len: usize,
    /// Location changes logged and not yet replayed by every entry; at
    /// most the cache capacity, and zero while the cache is empty.
    pub churn_log_len: usize,
}

impl PlannerSnapshot {
    /// Total number of planner decisions recorded.
    pub fn decisions(&self) -> u64 {
        self.choices.iter().map(|(_, _, n)| n).sum()
    }

    /// Decisions that chose `algorithm`.
    pub fn choices_for(&self, algorithm: Algorithm) -> u64 {
        let name = algorithm.name();
        self.choices
            .iter()
            .filter(|(a, _, _)| a == name)
            .map(|(_, _, n)| n)
            .sum()
    }
}

/// The planner state: pin, choice counters and the churn-aware hot-result
/// cache.  One instance per [`GeoSocialEngine`] (see
/// [`GeoSocialEngine::planner`]); all methods take `&self` (interior
/// mutability) so the planner serves the parallel batch path.
#[derive(Debug)]
pub struct QueryPlanner {
    /// Hot-result cache capacity; set at construction and by
    /// [`QueryPlanner::set_cache_capacity`].
    cache_capacity: AtomicUsize,
    state: Mutex<PlannerState>,
    cache: Mutex<CacheState>,
}

impl Default for QueryPlanner {
    fn default() -> Self {
        QueryPlanner::new(PlannerConfig::default())
    }
}

impl QueryPlanner {
    /// A fresh planner with the given cache capacity.
    pub fn new(config: PlannerConfig) -> QueryPlanner {
        QueryPlanner {
            cache_capacity: AtomicUsize::new(config.cache_capacity),
            state: Mutex::new(PlannerState::default()),
            cache: Mutex::new(CacheState::default()),
        }
    }

    /// The planner's configuration as it stands now: the capacity reported
    /// is the one last set through [`QueryPlanner::set_cache_capacity`].
    pub fn config(&self) -> PlannerConfig {
        PlannerConfig {
            cache_capacity: self.capacity(),
        }
    }

    /// Forces every subsequent decision to `algorithm` (`None` restores
    /// the rule).  The agreement tests use this to steer `Auto` through
    /// each of the twelve algorithms; pinning an index-backed algorithm
    /// builds a lazily declared index on first use, and pinning one whose
    /// index is missing surfaces the usual [`CoreError::MissingIndex`].
    ///
    /// `Some(Algorithm::Auto)` means the same as `None`: `Auto` names no
    /// algorithm of its own, so [`QueryPlanner::choose`] never returns it.
    pub fn pin(&self, algorithm: Option<Algorithm>) {
        self.state.lock().unwrap().pinned = algorithm.filter(|&a| a != Algorithm::Auto);
    }

    /// Replaces the hot-result cache capacity (`0` disables caching) and
    /// drops entries beyond the new bound.
    pub fn set_cache_capacity(&self, capacity: usize) {
        self.cache_capacity.store(capacity, Ordering::Relaxed);
        let mut cache = self.cache.lock().unwrap();
        while cache.len() > capacity {
            cache.evict_lru();
        }
        if cache.log.movers.len() > capacity {
            let dropped = cache.shrink_log(capacity / 2);
            cache.invalidations += dropped;
            drop(cache);
            crate::obs::record_cache_event(ssrq_obs::Registry::global(), "invalidation", dropped);
        }
    }

    /// Number of currently cached hot results.
    pub fn cache_len(&self) -> usize {
        self.cache.lock().unwrap().len()
    }

    /// A copy of the planner's decision and cache counters.
    pub fn snapshot(&self) -> PlannerSnapshot {
        let state = self.state.lock().unwrap();
        let cache = self.cache.lock().unwrap();
        let mut choices: Vec<(String, &'static str, u64)> = state
            .choice_counts
            .iter()
            .map(|(&(algorithm, reason), &n)| (algorithm.name().to_owned(), reason.as_str(), n))
            .collect();
        choices.sort();
        PlannerSnapshot {
            choices,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_invalidations: cache.invalidations,
            cache_len: cache.len(),
            churn_log_len: cache.log.movers.len(),
        }
    }

    /// Picks the algorithm for one query — the pin if one is set, else the
    /// `(k, α)` rule; never [`Algorithm::Auto`] — and records the decision
    /// (and its `ssrq_planner_choices_total{algorithm,reason}` metric
    /// sample).  The engine is not read; the parameter is part of the
    /// signature the repository benchmark (`bench/`) calls.
    pub fn choose(
        &self,
        _engine: &GeoSocialEngine,
        request: &QueryRequest,
    ) -> (Algorithm, ChoiceReason) {
        let mut state = self.state.lock().unwrap();
        let (algorithm, reason) = match state.pinned {
            Some(pinned) => (pinned, ChoiceReason::Pinned),
            None => (rule(request), ChoiceReason::Rule),
        };
        *state.choice_counts.entry((algorithm, reason)).or_insert(0) += 1;
        drop(state);
        crate::obs::record_planner_choice(
            ssrq_obs::Registry::global(),
            algorithm.name(),
            reason.as_str(),
        );
        (algorithm, reason)
    }

    /// Looks the request up in the hot-result cache, counting the hit or
    /// miss.  An entry with movers logged since its checkpoint is replayed
    /// against them first (outside the cache lock), and dropped when one
    /// of them could change it.
    fn lookup(
        &self,
        engine: &GeoSocialEngine,
        request: &QueryRequest,
        ctx: &mut QueryContext,
    ) -> Lookup {
        let key = CacheKey::of(request);
        let mut guard = self.cache.lock().expect(UNPOISONED);
        let cache = &mut *guard;
        cache.tick += 1;
        let checkpoint = cache.log.end();
        let Some(&at) = cache.index.get(&key) else {
            cache.misses += 1;
            drop(guard);
            crate::obs::record_cache_event(ssrq_obs::Registry::global(), "miss", 1);
            return Lookup::Miss {
                checkpoint,
                work: QueryStats::default(),
            };
        };
        let slot = cache.slots[at].as_mut().expect(OCCUPIED);
        slot.last_used = cache.tick;
        let admitted = Arc::clone(&slot.admitted);
        let since = (slot.checkpoint - cache.log.start) as usize;
        let mut movers: Vec<UserId> = cache.log.movers.range(since..).copied().collect();
        drop(guard);
        movers.sort_unstable();
        movers.dedup();
        let (fresh, work) = admitted.survives(&movers, engine, ctx);
        self.settle_replay(at, &admitted, checkpoint, fresh);
        if !fresh {
            return Lookup::Miss { checkpoint, work };
        }
        let mut result = admitted.result.clone();
        result.stats = work;
        Lookup::Hit(result)
    }

    /// Records a replay's verdict on the entry in slot `at`, unless the
    /// slot was reassigned meanwhile: a kept entry's checkpoint advances to
    /// `checkpoint`, a changed one is dropped.
    fn settle_replay(&self, at: usize, admitted: &Arc<Admitted>, checkpoint: u64, fresh: bool) {
        let mut cache = self.cache.lock().expect(UNPOISONED);
        let slot = cache.slots[at]
            .as_mut()
            .filter(|slot| Arc::ptr_eq(&slot.admitted, admitted));
        let dropped = match slot {
            Some(slot) if fresh => {
                slot.checkpoint = slot.checkpoint.max(checkpoint);
                false
            }
            Some(_) => {
                cache.release(at);
                cache.invalidations += 1;
                true
            }
            None => false,
        };
        if fresh {
            cache.hits += 1;
        } else {
            cache.misses += 1;
        }
        drop(cache);
        let registry = ssrq_obs::Registry::global();
        crate::obs::record_cache_event(registry, if fresh { "hit" } else { "miss" }, 1);
        if dropped {
            crate::obs::record_cache_event(registry, "invalidation", 1);
        }
    }

    /// Admits a freshly computed result, whose query started at log
    /// position `checkpoint`.  Degraded results are never cached (their
    /// identity depends on how far the stream was driven), nor is a result
    /// some of whose unseen movers the log has already forgotten.
    fn admit(
        &self,
        request: &QueryRequest,
        origin: Option<Point>,
        checkpoint: u64,
        result: &QueryResult,
    ) {
        let capacity = self.capacity();
        if capacity == 0 || result.degraded {
            return;
        }
        let bound = if result.ranked.len() >= request.k() {
            result.fk().unwrap_or(f64::INFINITY)
        } else {
            request.max_score().unwrap_or(f64::INFINITY)
        };
        let admitted = Arc::new(Admitted {
            key: CacheKey::of(request),
            result: result.clone(),
            origin,
            within: request.within(),
            bound,
        });
        let mut cache = self.cache.lock().expect(UNPOISONED);
        if checkpoint < cache.log.start {
            return;
        }
        cache.tick += 1;
        let last_used = cache.tick;
        cache.insert(Slot {
            admitted,
            checkpoint,
            last_used,
        });
        while cache.len() > capacity {
            cache.evict_lru();
        }
    }

    /// Churn hook: `user` moved or lost its location.  Appends the mover to
    /// the churn log, which hits replay; see the module docs.
    pub(crate) fn note_location_change(&self, user: UserId) {
        let capacity = self.capacity();
        let mut cache = self.cache.lock().expect(UNPOISONED);
        let dropped = cache.log_move(user, capacity);
        cache.invalidations += dropped;
        drop(cache);
        if dropped > 0 {
            crate::obs::record_cache_event(ssrq_obs::Registry::global(), "invalidation", dropped);
        }
    }

    /// Begins one [`Algorithm::Auto`] query: a cache hit streams the
    /// cached result; otherwise the chosen algorithm's driver runs, wrapped
    /// so its completed result is admitted to the cache.
    pub(crate) fn begin<'a>(
        &'a self,
        engine: &'a GeoSocialEngine,
        request: &QueryRequest,
        ctx: &'a mut QueryContext,
    ) -> Result<Box<dyn QueryDriver + 'a>, CoreError> {
        request.validate()?;
        engine.dataset().check_user(request.user())?;
        let started = Instant::now();
        let (checkpoint, mut prior) = if self.capacity() == 0 {
            (0, QueryStats::default())
        } else {
            match self.lookup(engine, request, ctx) {
                Lookup::Hit(mut result) => {
                    result.stats.cache_hits = 1;
                    result.stats.runtime = started.elapsed();
                    return Ok(Box::new(EagerDriver::new(result)));
                }
                Lookup::Miss { checkpoint, work } => (checkpoint, work),
            }
        };
        prior.runtime = started.elapsed();
        let (algorithm, _reason) = self.choose(engine, request);
        Ok(Box::new(PlannedDriver {
            inner: driver::start(algorithm, engine, request, ctx)?,
            planner: self,
            request: request.clone(),
            origin: request.resolved_origin(engine.dataset()),
            checkpoint,
            prior,
        }))
    }

    fn capacity(&self) -> usize {
        self.cache_capacity.load(Ordering::Relaxed)
    }
}

/// Driver wrapper that admits the result to the planner's cache when a
/// delegated stream completes and its result is taken.  Streams abandoned
/// mid-search admit nothing.
struct PlannedDriver<'a> {
    inner: Box<dyn QueryDriver + 'a>,
    planner: &'a QueryPlanner,
    request: QueryRequest,
    origin: Option<Point>,
    /// The churn-log position when the query started.
    checkpoint: u64,
    /// The lookup's own work: a replay that dropped the entry, and time.
    prior: QueryStats,
}

impl QueryDriver for PlannedDriver<'_> {
    fn step(&mut self) -> StepOutcome {
        self.inner.step()
    }

    fn drain_finalized(&mut self, out: &mut Vec<RankedUser>) {
        self.inner.drain_finalized(out)
    }

    fn is_complete(&self) -> bool {
        self.inner.is_complete()
    }

    fn stats(&self) -> QueryStats {
        let mut stats = self.inner.stats();
        stats.absorb(&self.prior);
        stats
    }

    fn take_result(&mut self) -> Result<QueryResult, CoreError> {
        let mut result = self.inner.take_result()?;
        self.planner
            .admit(&self.request, self.origin, self.checkpoint, &result);
        result.stats.absorb(&self.prior);
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GeoSocialDataset, QueryRequestBuilder};
    use ssrq_graph::{GraphBuilder, LandmarkSelection};

    /// Six users on a social line, placed at x = 0, 0.2, …, 1 on the x axis:
    /// the bounds' diagonal is 1, so a normalized spatial distance equals
    /// the raw one.
    fn dataset() -> GeoSocialDataset {
        let graph = GraphBuilder::from_edges(6, (0..5).map(|i| (i, i + 1, 1.0))).unwrap();
        let locations = (0..6)
            .map(|i| Some(Point::new(f64::from(i) * 0.2, 0.0)))
            .collect();
        GeoSocialDataset::new(graph, locations).unwrap()
    }

    /// Where user 0, the query user of every request below, stands.
    const ORIGIN: Point = Point::ORIGIN;

    /// A result as if computed by a search that settled the whole graph, so
    /// the replay's cap never trips unless a test lowers it.
    fn result(k: usize, members: &[(UserId, f64)]) -> QueryResult {
        QueryResult {
            ranked: members
                .iter()
                .map(|&(user, score)| RankedUser {
                    user,
                    score,
                    social: 0.0,
                    spatial: 0.0,
                })
                .collect(),
            k,
            degraded: false,
            stats: QueryStats {
                social_pops: 6,
                ..QueryStats::default()
            },
        }
    }

    /// The true top-2 at α = 0.5, as far as the replay reads it: members 1
    /// and 2, admission bound `f_k` = 0.4.  A non-member's lower bound
    /// `(1 − α) · d` reaches it at distance 0.8.
    const FULL: [(UserId, f64); 2] = [(1, 0.2), (2, 0.4)];

    fn request() -> QueryRequestBuilder {
        QueryRequest::for_user(0).k(2).alpha(0.5)
    }

    fn at(x: f64) -> Option<Point> {
        Some(Point::new(x, 0.0))
    }

    /// An engine over [`dataset`] whose planner caches `answer` for
    /// `request`, evaluated from `origin`.
    fn engine_caching(
        request: &QueryRequest,
        origin: Option<Point>,
        answer: &QueryResult,
    ) -> GeoSocialEngine {
        let engine = GeoSocialEngine::builder(dataset()).build().unwrap();
        engine.planner().admit(request, origin, 0, answer);
        engine
    }

    fn relocate(engine: &mut GeoSocialEngine, mover: UserId, to: Option<Point>) {
        match to {
            Some(p) => engine.update_location(mover, p).unwrap(),
            None => engine.remove_location(mover).unwrap(),
        }
    }

    /// The cached answer to `request` with its replay's work, or `None`
    /// when the lookup missed.
    fn lookup(engine: &GeoSocialEngine, request: &QueryRequest) -> Option<QueryResult> {
        match engine
            .planner()
            .lookup(engine, request, &mut QueryContext::new())
        {
            Lookup::Hit(result) => Some(result),
            Lookup::Miss { .. } => None,
        }
    }

    /// Caches `members` as the answer to `request` evaluated from `origin`,
    /// applies one location change and returns the lookup's answer.
    fn replay(
        request: &QueryRequest,
        origin: Option<Point>,
        members: &[(UserId, f64)],
        mover: UserId,
        to: Option<Point>,
    ) -> Option<QueryResult> {
        let mut engine = engine_caching(request, origin, &result(request.k(), members));
        relocate(&mut engine, mover, to);
        lookup(&engine, request)
    }

    fn survives(
        request: &QueryRequest,
        origin: Option<Point>,
        members: &[(UserId, f64)],
        mover: UserId,
        to: Option<Point>,
    ) -> bool {
        replay(request, origin, members, mover, to).is_some()
    }

    #[test]
    fn query_user_move_drops_a_derived_origin_entry() {
        let request = request().build().unwrap();
        assert!(!survives(&request, Some(ORIGIN), &FULL, 0, at(0.1)));
    }

    #[test]
    fn query_user_move_keeps_an_explicit_origin_entry() {
        // The query user never appears in its own result, and the pinned
        // origin keeps every other distance.
        let request = request().origin(ORIGIN).build().unwrap();
        assert!(survives(&request, Some(ORIGIN), &FULL, 0, at(0.1)));
    }

    #[test]
    fn member_moving_far_away_or_losing_its_location_drops_the_entry() {
        let request = request().build().unwrap();
        assert!(!survives(&request, Some(ORIGIN), &FULL, 1, at(1.0)));
        assert!(!survives(&request, Some(ORIGIN), &FULL, 1, None));
    }

    #[test]
    fn excluded_mover_keeps_the_entry() {
        // At 0.05 user 3 scores 0.5 · 0.6 + 0.5 · 0.05 = 0.325 < 0.4: it
        // enters unless excluded.
        let excluding = request().exclude([3]).build().unwrap();
        assert!(survives(&excluding, Some(ORIGIN), &FULL, 3, at(0.05)));
        let plain = request().build().unwrap();
        assert!(!survives(&plain, Some(ORIGIN), &FULL, 3, at(0.05)));
    }

    #[test]
    fn mover_landing_outside_the_window_keeps_the_entry() {
        // A short answer: the bound is +∞, so only the window keeps it.
        let window = Rect::new(Point::new(0.0, -0.1), Point::new(0.5, 0.1));
        let request = request().within(window).build().unwrap();
        assert!(survives(&request, Some(ORIGIN), &FULL[..1], 4, at(0.6)));
        assert!(!survives(&request, Some(ORIGIN), &FULL[..1], 4, at(0.4)));
    }

    #[test]
    fn exact_score_tying_the_bound_drops_the_entry() {
        let request = request().build().unwrap();
        let ds = dataset();
        let tie = combine(0.5, ds.normalize_social(3.0), ds.normalize_spatial(0.1));
        assert!(!survives(
            &request,
            Some(ORIGIN),
            &[(1, 0.2), (2, tie)],
            3,
            at(0.1)
        ));
        let under = f64::from_bits(tie.to_bits() - 1);
        assert!(survives(
            &request,
            Some(ORIGIN),
            &[(1, 0.2), (2, under)],
            3,
            at(0.1)
        ));
    }

    #[test]
    fn lower_bound_strictly_above_the_bound_keeps_the_entry() {
        let request = request().build().unwrap();
        let hit = replay(&request, Some(ORIGIN), &FULL, 4, at(0.9)).unwrap();
        assert_eq!(hit.stats, QueryStats::default(), "no search was needed");
    }

    /// An engine caching `answer` for `request` whose one landmark is an
    /// inner vertex of the line, so it bounds user 0's distance to user 5
    /// by at most 3 of the 5 hops: deciding user 5 takes a search.
    fn engine_searching(request: &QueryRequest, answer: &QueryResult) -> GeoSocialEngine {
        let engine = GeoSocialEngine::builder(dataset())
            .landmarks(1)
            .landmark_selection(LandmarkSelection::HighestDegree)
            .build()
            .unwrap();
        engine.planner().admit(request, Some(ORIGIN), 0, answer);
        engine
    }

    #[test]
    fn socially_distant_mover_is_cleared_by_the_exact_check() {
        // Near the origin, but 5 hops away: 0.5 · 1 + 0.5 · 0.05 > 0.4.
        let request = request().build().unwrap();
        let mut engine = engine_searching(&request, &result(2, &FULL));
        relocate(&mut engine, 5, at(0.05));
        let hit = lookup(&engine, &request).unwrap();
        assert_eq!(hit.users(), vec![1, 2]);
        assert_eq!(hit.stats.distance_calls, 1);
        assert!(hit.stats.social_pops > 0 && hit.stats.relaxed_edges > 0);
    }

    #[test]
    fn a_replay_costlier_than_the_cached_search_drops_the_entry() {
        let request = request().build().unwrap();
        let mut cheap = result(2, &FULL);
        cheap.stats.social_pops = 1;
        let mut engine = engine_searching(&request, &cheap);
        relocate(&mut engine, 5, at(0.05));
        assert_eq!(lookup(&engine, &request), None);
        assert_eq!(engine.planner().snapshot().cache_invalidations, 1);
    }

    #[test]
    fn non_member_losing_its_location_keeps_the_entry() {
        let request = request().build().unwrap();
        assert!(survives(&request, Some(ORIGIN), &FULL, 4, None));
    }

    #[test]
    fn entry_without_an_origin_keeps() {
        let request = request().build().unwrap();
        assert!(survives(&request, None, &[], 4, at(0.05)));
    }

    fn log_end(engine: &GeoSocialEngine) -> u64 {
        engine.planner().cache.lock().unwrap().log.end()
    }

    #[test]
    fn a_reused_slot_misses_under_its_old_key() {
        let old = request().build().unwrap();
        let new = request().k(3).build().unwrap();
        let mut engine = engine_caching(&old, Some(ORIGIN), &result(2, &FULL));
        relocate(&mut engine, 0, at(0.1));
        assert_eq!(lookup(&engine, &old), None);
        let answer = result(3, &[(3, 0.1)]);
        let planner = engine.planner();
        planner.admit(&new, Some(ORIGIN), log_end(&engine), &answer);
        assert_eq!(planner.cache.lock().unwrap().slots.len(), 1, "slot reused");
        assert_eq!(lookup(&engine, &old), None);
        let hit = lookup(&engine, &new).unwrap();
        assert_eq!(hit.ranked, answer.ranked);
        assert_eq!(planner.cache_len(), 1);
    }

    #[test]
    fn the_log_is_empty_while_the_cache_is() {
        let request = request().build().unwrap();
        let mut engine = engine_caching(&request, Some(ORIGIN), &result(2, &FULL));
        relocate(&mut engine, 5, at(0.9));
        assert_eq!(engine.planner().snapshot().churn_log_len, 1);
        engine.planner().set_cache_capacity(0);
        engine.planner().set_cache_capacity(8);
        relocate(&mut engine, 5, at(1.0));
        let snapshot = engine.planner().snapshot();
        assert_eq!((snapshot.cache_len, snapshot.churn_log_len), (0, 0));
        // An answer whose query started before that move is not admitted.
        let started = log_end(&engine) - 1;
        let planner = engine.planner();
        planner.admit(&request, Some(ORIGIN), started, &result(2, &FULL));
        assert_eq!(planner.cache_len(), 0);
    }

    #[test]
    fn a_full_log_drops_the_entries_holding_its_older_half() {
        let stale = request().build().unwrap();
        let recent = request().k(3).build().unwrap();
        let mut engine = engine_caching(&stale, Some(ORIGIN), &result(2, &FULL));
        engine.planner().set_cache_capacity(4);
        relocate(&mut engine, 5, at(0.9));
        relocate(&mut engine, 5, at(1.0));
        let answer = result(3, &[(1, 0.2), (2, 0.4), (3, 0.6)]);
        let checkpoint = log_end(&engine);
        engine
            .planner()
            .admit(&recent, Some(ORIGIN), checkpoint, &answer);
        for step in 0..3 {
            relocate(&mut engine, 4, at(0.9 + 0.01 * f64::from(step)));
            assert!(engine.planner().snapshot().churn_log_len <= 4);
        }
        // The fifth move found the log full: the stale entry, holding all
        // five, went; the recent one holds only the last three.
        let snapshot = engine.planner().snapshot();
        assert_eq!(snapshot.cache_len, 1);
        assert_eq!(snapshot.churn_log_len, 3);
        assert_eq!(snapshot.cache_invalidations, 1);
        assert!(lookup(&engine, &recent).is_some());
        assert_eq!(lookup(&engine, &stale), None);
    }
}
