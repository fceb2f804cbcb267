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
//! a repeated identical request (same user, `k`, `α`, origin and filters)
//! is answered from the cache in microseconds.  Location churn invalidates
//! **only the entries whose result could actually change**, using a
//! score-delta admission test: when user `u` moves to point `q`, a cached
//! entry with spatial origin `o`, preference `α` and top-k threshold `f_k`
//! can only change if `u` was the (derived-origin) query user, appears in
//! the cached result, or could newly enter it — and `u` can enter only if
//! its spatial-only score lower bound `(1 − α) · d(o, q)` does not exceed
//! the entry's admission bound (`f_k` for a full result, the `max_score`
//! cutoff — or nothing — for a truncated one), and only if `q` lies inside
//! the entry's filter window.  Social distances never change under
//! location churn (the PR 4 staleness audit), so this test is exact up to
//! conservativeness: the churn property test asserts a cached answer is
//! never stale.
//!
//! The planner is engine-local state: cloning a [`GeoSocialEngine`] gives
//! the clone a **fresh** planner with the same cache capacity, because
//! clones' location vectors diverge independently and a shared cache could
//! serve answers from the sibling's world.

use crate::driver::{EagerDriver, QueryDriver, StepOutcome};
use crate::{
    Algorithm, AlgorithmStrategy, CoreError, GeoSocialDataset, GeoSocialEngine, IndexRequirements,
    QueryContext, QueryRequest, QueryResult, QueryStats, RankedUser, UserId,
};
use ssrq_spatial::Point;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The name the planner strategy is registered under — also
/// [`Algorithm::Auto`]'s [`Algorithm::name`].
pub const AUTO_STRATEGY_NAME: &str = "AUTO";

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
/// only microseconds where it is not.  `AIS-BID` and `TSA-QC` can be orders
/// of magnitude off (`AIS-BID` up to 6 s where `AIS` takes 1.2 ms; `TSA-QC`
/// 27 ms where `AIS` takes 1.4 ms at k = 50, α = 0.1), which is why nothing
/// is probed at run time.
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

#[derive(Debug, Clone)]
struct CacheEntry {
    /// The request this entry answers (identity fields only matter).
    request: QueryRequest,
    /// The spatial origin the result was evaluated from, resolved at
    /// admission time (explicit override, else the query user's stored
    /// location — `None` when neither existed).
    origin: Option<Point>,
    result: QueryResult,
    /// Score a new entrant must stay *under* to change the result: `f_k`
    /// when the result is full, else the `max_score` cutoff (or `+∞`).
    bound: f64,
    last_used: u64,
}

#[derive(Debug, Default)]
struct CacheState {
    entries: HashMap<CacheKey, CacheEntry>,
    tick: u64,
    hits: u64,
    misses: u64,
    invalidations: u64,
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
    /// Entries dropped by churn-aware invalidation.
    pub cache_invalidations: u64,
    /// Entries currently cached.
    pub cache_len: usize,
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
    pub fn pin(&self, algorithm: Option<Algorithm>) {
        self.state.lock().unwrap().pinned = algorithm;
    }

    /// Replaces the hot-result cache capacity (`0` disables caching) and
    /// drops entries beyond the new bound.
    pub fn set_cache_capacity(&self, capacity: usize) {
        self.cache_capacity.store(capacity, Ordering::Relaxed);
        let mut cache = self.cache.lock().unwrap();
        while cache.entries.len() > capacity {
            evict_lru(&mut cache.entries);
        }
    }

    /// Number of currently cached hot results.
    pub fn cache_len(&self) -> usize {
        self.cache.lock().unwrap().entries.len()
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
            cache_len: cache.entries.len(),
        }
    }

    /// Picks the algorithm for one query — the pin if one is set, else the
    /// `(k, α)` rule — and records the decision (and its
    /// `ssrq_planner_choices_total{algorithm,reason}` metric sample).  The
    /// engine is not read; the parameter is part of the signature the
    /// repository benchmark (`bench/`) calls.
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
        crate::obs::record_planner_choice(algorithm.name(), reason.as_str());
        (algorithm, reason)
    }

    /// Looks the request up in the hot-result cache, counting the hit or
    /// miss.  A hit returns a clone of the cached result (its `stats` are
    /// the original computation's; the serving strategy replaces them).
    pub fn cache_lookup(&self, request: &QueryRequest) -> Option<QueryResult> {
        if self.capacity() == 0 {
            return None;
        }
        let key = CacheKey::of(request);
        let mut cache = self.cache.lock().unwrap();
        cache.tick += 1;
        let tick = cache.tick;
        match cache.entries.get_mut(&key) {
            Some(entry) => {
                entry.last_used = tick;
                let result = entry.result.clone();
                cache.hits += 1;
                drop(cache);
                crate::obs::record_cache_event("hit", 1);
                Some(result)
            }
            None => {
                cache.misses += 1;
                drop(cache);
                crate::obs::record_cache_event("miss", 1);
                None
            }
        }
    }

    /// Admits a freshly computed result.  Degraded results are never
    /// cached (their identity depends on how far the stream was driven).
    pub fn cache_admit(&self, request: &QueryRequest, origin: Option<Point>, result: &QueryResult) {
        let capacity = self.capacity();
        if capacity == 0 || result.degraded {
            return;
        }
        let bound = if result.ranked.len() >= request.k() {
            result.fk().unwrap_or(f64::INFINITY)
        } else {
            request.max_score().unwrap_or(f64::INFINITY)
        };
        let key = CacheKey::of(request);
        let mut cache = self.cache.lock().unwrap();
        cache.tick += 1;
        let entry = CacheEntry {
            request: request.clone(),
            origin,
            result: result.clone(),
            bound,
            last_used: cache.tick,
        };
        cache.entries.insert(key, entry);
        while cache.entries.len() > capacity {
            evict_lru(&mut cache.entries);
        }
    }

    /// Churn hook: `user` moved to `location` (or lost its location when
    /// `None`).  Drops exactly the entries whose result could change; see
    /// the module docs for the admission test.  `dataset` provides the
    /// spatial normalization so the score lower bound matches what the
    /// algorithms would compute.
    pub fn note_location_change(
        &self,
        user: UserId,
        location: Option<Point>,
        dataset: &GeoSocialDataset,
    ) {
        if self.capacity() == 0 {
            return;
        }
        let mut cache = self.cache.lock().unwrap();
        let before = cache.entries.len();
        cache
            .entries
            .retain(|_, entry| entry_survives_churn(entry, user, location, dataset));
        let dropped = (before - cache.entries.len()) as u64;
        cache.invalidations += dropped;
        drop(cache);
        if dropped > 0 {
            crate::obs::record_cache_event("invalidation", dropped);
        }
    }

    fn capacity(&self) -> usize {
        self.cache_capacity.load(Ordering::Relaxed)
    }
}

/// Returns `true` when the cached entry provably cannot change because
/// `user` moved to `location` (`None` = location removed).
fn entry_survives_churn(
    entry: &CacheEntry,
    user: UserId,
    location: Option<Point>,
    dataset: &GeoSocialDataset,
) -> bool {
    // The query user moved and the entry's origin was derived from their
    // stored location: every spatial distance in the result changes.
    if entry.request.user() == user && entry.request.origin().is_none() {
        return false;
    }
    // The mover is in the cached result: its own score changed (or it left
    // the spatial domain / the filter window).
    if entry.result.ranked.iter().any(|r| r.user == user) {
        return false;
    }
    // From here on the question is only whether the mover could *enter*
    // the cached result.
    if entry.request.user() == user {
        // Explicit-origin entry of the mover's own query: the query user
        // never appears in its own result and the origin is pinned.
        return true;
    }
    if entry.request.excluded().contains(&user) {
        return true;
    }
    let Some(location) = location else {
        // Removal: the mover's spatial distance becomes infinite; a user
        // that was not in the result cannot enter by disappearing.
        return true;
    };
    if let Some(rect) = entry.request.within() {
        if !rect.contains(location) {
            return true;
        }
    }
    let Some(origin) = entry.origin else {
        // No origin at all: every candidate's spatial distance is infinite
        // and every score is infinite — the mover's stays so too.
        return true;
    };
    // Score lower bound of the mover at its new location: the social term
    // is non-negative, so f ≥ (1 − α) · d.  Strictly above the entry's
    // admission bound ⇒ the mover cannot displace anything; at or below it
    // (including score ties, where the canonical answer could swap the
    // tied user) ⇒ conservatively invalidate.
    let spatial = dataset.normalize_spatial(origin.distance(location));
    let lower_bound = (1.0 - entry.request.alpha()) * spatial;
    lower_bound > entry.bound
}

fn evict_lru(entries: &mut HashMap<CacheKey, CacheEntry>) {
    if let Some(key) = entries
        .iter()
        .min_by_key(|(_, e)| e.last_used)
        .map(|(k, _)| k.clone())
    {
        entries.remove(&key);
    }
}

/// The [`AlgorithmStrategy`] registered under `"AUTO"`: consult the
/// planner (cache first, then the rule) and delegate to the chosen
/// built-in strategy, admitting the completed result to the cache.
pub struct PlannerStrategy {
    planner: Arc<QueryPlanner>,
}

impl PlannerStrategy {
    /// A strategy dispatching through `planner` — the engine registers one
    /// over its own planner at construction time.
    pub fn new(planner: Arc<QueryPlanner>) -> PlannerStrategy {
        PlannerStrategy { planner }
    }

    /// A self-contained strategy with a private planner whose hot-result
    /// cache is **disabled** — the safe configuration for a strategy
    /// object detached from any engine's churn hooks (served by
    /// [`builtin_strategy`](crate::builtin_strategy) for
    /// [`Algorithm::Auto`]).  The algorithm is chosen by the same rule as
    /// on an engine; only result reuse is off.
    pub fn detached() -> PlannerStrategy {
        PlannerStrategy {
            planner: Arc::new(QueryPlanner::new(PlannerConfig { cache_capacity: 0 })),
        }
    }

    /// The planner the strategy consults.
    pub fn planner(&self) -> &Arc<QueryPlanner> {
        &self.planner
    }

    fn resolve_choice<'e>(
        &self,
        engine: &'e GeoSocialEngine,
        request: &QueryRequest,
    ) -> Result<&'e Arc<dyn AlgorithmStrategy>, CoreError> {
        let (algorithm, _reason) = self.planner.choose(engine, request);
        engine.ready_strategy(algorithm.name())
    }
}

impl std::fmt::Debug for PlannerStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlannerStrategy")
            .field("planner", &self.planner)
            .finish()
    }
}

impl AlgorithmStrategy for PlannerStrategy {
    fn name(&self) -> &str {
        AUTO_STRATEGY_NAME
    }

    fn requires(&self) -> IndexRequirements {
        // The rule names only index-free algorithms, and a pinned
        // index-backed choice checks (or lazily builds) its index when it
        // is resolved, so there are no up-front requirements.
        IndexRequirements::NONE
    }

    fn execute(
        &self,
        engine: &GeoSocialEngine,
        request: &QueryRequest,
        ctx: &mut QueryContext,
    ) -> Result<QueryResult, CoreError> {
        request.validate()?;
        engine.dataset().check_user(request.user())?;
        let started = Instant::now();
        if let Some(mut result) = self.planner.cache_lookup(request) {
            result.stats = QueryStats {
                cache_hits: 1,
                runtime: started.elapsed(),
                ..QueryStats::default()
            };
            return Ok(result);
        }
        let inner = self.resolve_choice(engine, request)?;
        let result = inner.execute(engine, request, ctx)?;
        self.planner
            .cache_admit(request, request.resolved_origin(engine.dataset()), &result);
        Ok(result)
    }

    fn begin_stream<'a>(
        &'a self,
        engine: &'a GeoSocialEngine,
        request: &QueryRequest,
        ctx: &'a mut QueryContext,
    ) -> Result<Box<dyn QueryDriver + 'a>, CoreError> {
        request.validate()?;
        engine.dataset().check_user(request.user())?;
        let started = Instant::now();
        if let Some(mut result) = self.planner.cache_lookup(request) {
            result.stats = QueryStats {
                cache_hits: 1,
                runtime: started.elapsed(),
                ..QueryStats::default()
            };
            return Ok(Box::new(EagerDriver::new(result)));
        }
        let inner = self.resolve_choice(engine, request)?;
        let driver = inner.begin_stream(engine, request, ctx)?;
        Ok(Box::new(PlannedDriver {
            inner: driver,
            planner: &self.planner,
            request: request.clone(),
            origin: request.resolved_origin(engine.dataset()),
        }))
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
        self.inner.stats()
    }

    fn take_result(&mut self) -> Result<QueryResult, CoreError> {
        let result = self.inner.take_result()?;
        self.planner
            .cache_admit(&self.request, self.origin, &result);
        Ok(result)
    }
}
