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
//! Location churn invalidates **only the entries whose result could
//! actually change**, using a score-delta admission test in the manner of
//! Fagin's threshold algorithm: when user `u` moves to point `q`, a cached
//! entry with spatial origin `o`, preference `α` and top-k threshold `f_k`
//! can only change if `u` was the (derived-origin) query user, appears in
//! the cached result, or could newly enter it — and `u` can enter only if
//! its spatial-only score lower bound `(1 − α) · d(o, q)` does not exceed
//! the entry's admission bound (`f_k` for a full result, the `max_score`
//! cutoff — or nothing — for a truncated one), only if `q` lies inside the
//! entry's filter window and only if `u` is not excluded.  The origin `o`
//! is the one the result was evaluated from (the override, else the query
//! user's location at admission); it is stored with the entry, not in the
//! key.  Social distances never change under location churn, so this test
//! is exact up to conservativeness: the churn property test asserts a
//! cached answer is never stale.
//!
//! Each cache slot is split by who reads it.  The cold half — key and
//! result — lives in a slab that a `HashMap` from request identity
//! addresses, so a hit or an admission costs one hash lookup.  The hot
//! half, a guard in a parallel dense array, holds exactly what the churn
//! test and LRU eviction read: query user, derived-origin flag, `α`,
//! resolved origin, window, admission bound, a has-exclusions flag, the
//! result's member ids and a 64-bit membership signature (one hashed bit
//! per member, so a clear bit proves the mover is no member without
//! reading the ids).  A location update walks only the guards and opens a
//! cold entry only to check the exclusions of a mover that could otherwise
//! enter.  Walking guards instead of whole entries took the repository
//! benchmark's `churn_auto` mean update from 33.1 to 17.9 µs
//! (2-vCPU Xeon @ 2.10 GHz, medians of ten alternated 30 s runs).
//!
//! The planner is engine-local state: cloning a [`GeoSocialEngine`] gives
//! the clone a **fresh** planner with the same cache capacity, because
//! clones' location vectors diverge independently and a shared cache could
//! serve answers from the sibling's world.

use crate::driver::{self, EagerDriver, QueryDriver, StepOutcome};
use crate::{
    Algorithm, CoreError, GeoSocialDataset, GeoSocialEngine, QueryContext, QueryRequest,
    QueryResult, QueryStats, RankedUser, UserId,
};
use ssrq_spatial::{Point, Rect};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
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

/// The cold half of one cache slot: the answer and the key that
/// addresses it (kept so a dropped slot can leave the index).
#[derive(Debug)]
struct CacheEntry {
    key: CacheKey,
    result: QueryResult,
}

/// The hot half of one cache slot: exactly what the churn test and LRU
/// eviction read, stored densely so a location update walks these and
/// not the cold entries with their results.
#[derive(Debug)]
struct Guard {
    user: UserId,
    /// The origin was derived from the query user's stored location (the
    /// request has no explicit override).
    derived_origin: bool,
    /// The request excludes someone; only then does the churn test open
    /// the cold entry, whose key lists the excluded users.
    has_exclusions: bool,
    alpha: f64,
    /// The spatial origin the result was evaluated from, resolved at
    /// admission time (explicit override, else the query user's stored
    /// location — `None` when neither existed).
    origin: Option<Point>,
    within: Option<Rect>,
    /// Score a new entrant must stay *under* to change the result: `f_k`
    /// when the result is full, else the `max_score` cutoff (or `+∞`).
    bound: f64,
    /// OR of [`signature_bit`] over `members`: a clear bit proves the
    /// mover is not a member without reading `members`.
    signature: u64,
    /// The result's user ids.
    members: Box<[UserId]>,
    last_used: u64,
}

/// The one bit a member sets in its entry's membership signature.
fn signature_bit(user: UserId) -> u64 {
    1 << (u64::from(user).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58)
}

/// The hot-result cache: a slab of slots addressed by request identity,
/// split into parallel cold (`entries`) and hot (`guards`) halves that are
/// `None` together exactly where the slot is free.
#[derive(Debug, Default)]
struct CacheState {
    /// Every key's slot; a slot is occupied exactly when a key maps to it.
    index: HashMap<CacheKey, usize>,
    entries: Vec<Option<CacheEntry>>,
    guards: Vec<Option<Guard>>,
    free: Vec<usize>,
    tick: u64,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

/// Why indexing an occupied slot's halves cannot fail.
const OCCUPIED: &str = "an indexed or guarded slot holds an entry";

impl CacheState {
    fn len(&self) -> usize {
        self.index.len()
    }

    /// The cached answer to `key`, marked as used now.
    fn get(&mut self, key: &CacheKey) -> Option<QueryResult> {
        self.tick += 1;
        let slot = *self.index.get(key)?;
        self.guards[slot].as_mut().expect(OCCUPIED).last_used = self.tick;
        Some(self.entries[slot].as_ref().expect(OCCUPIED).result.clone())
    }

    /// Stores `result` under `key`, replacing an entry with the same key.
    fn insert(&mut self, key: CacheKey, guard: Guard, result: QueryResult) {
        let slot = match self.index.get(&key) {
            Some(&slot) => slot,
            None => {
                let slot = self.free.pop().unwrap_or_else(|| {
                    self.entries.push(None);
                    self.guards.push(None);
                    self.entries.len() - 1
                });
                self.index.insert(key.clone(), slot);
                slot
            }
        };
        self.entries[slot] = Some(CacheEntry { key, result });
        self.guards[slot] = Some(guard);
    }

    /// Frees an occupied slot.
    fn release(&mut self, slot: usize) {
        self.guards[slot] = None;
        let entry = self.entries[slot].take().expect(OCCUPIED);
        self.index.remove(&entry.key);
        self.free.push(slot);
    }

    fn evict_lru(&mut self) {
        let lru = self
            .guards
            .iter()
            .enumerate()
            .filter_map(|(slot, guard)| Some((guard.as_ref()?.last_used, slot)))
            .min();
        if let Some((_, slot)) = lru {
            self.release(slot);
        }
    }

    /// Returns `true` when the entry in `slot` (or the free slot) provably
    /// cannot change because `user` moved to `location` (`None` = location
    /// removed).
    fn entry_survives_churn(
        &self,
        slot: usize,
        user: UserId,
        location: Option<Point>,
        dataset: &GeoSocialDataset,
    ) -> bool {
        let Some(guard) = &self.guards[slot] else {
            return true;
        };
        // The query user moved and the entry's origin was derived from
        // their stored location: every spatial distance in the result
        // changes.
        if guard.user == user && guard.derived_origin {
            return false;
        }
        // The mover is in the cached result: its own score changed (or it
        // left the spatial domain / the filter window).
        if guard.signature & signature_bit(user) != 0 && guard.members.contains(&user) {
            return false;
        }
        // From here on the question is only whether the mover could
        // *enter* the cached result.
        if guard.user == user {
            // Explicit-origin entry of the mover's own query: the query
            // user never appears in its own result and the origin is
            // pinned.
            return true;
        }
        let Some(location) = location else {
            // Removal: the mover's spatial distance becomes infinite; a
            // user that was not in the result cannot enter by
            // disappearing.
            return true;
        };
        if let Some(rect) = guard.within {
            if !rect.contains(location) {
                return true;
            }
        }
        let Some(origin) = guard.origin else {
            // No origin at all: every candidate's spatial distance is
            // infinite and every score is infinite — the mover's stays so
            // too.
            return true;
        };
        // Score lower bound of the mover at its new location: the social
        // term is non-negative, so f ≥ (1 − α) · d.  Strictly above the
        // entry's admission bound ⇒ the mover cannot displace anything; at
        // or below it (including score ties, where the canonical answer
        // could swap the tied user) ⇒ conservatively invalidate.
        let spatial = dataset.normalize_spatial(origin.distance(location));
        if (1.0 - guard.alpha) * spatial > guard.bound {
            return true;
        }
        // Last, and only for a mover that could enter: an excluded user
        // never does.
        guard.has_exclusions
            && (self.entries[slot].as_ref().expect(OCCUPIED).key.exclude)
                .binary_search(&user)
                .is_ok()
    }
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
    /// miss.  A hit returns a clone of the cached result (its `stats` are
    /// the original computation's; the `Auto` path replaces them).
    pub fn cache_lookup(&self, request: &QueryRequest) -> Option<QueryResult> {
        if self.capacity() == 0 {
            return None;
        }
        let key = CacheKey::of(request);
        let mut cache = self.cache.lock().unwrap();
        let result = cache.get(&key);
        let event = if result.is_some() {
            cache.hits += 1;
            "hit"
        } else {
            cache.misses += 1;
            "miss"
        };
        drop(cache);
        crate::obs::record_cache_event(ssrq_obs::Registry::global(), event, 1);
        result
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
        let guard = Guard {
            user: request.user(),
            derived_origin: request.origin().is_none(),
            has_exclusions: !request.excluded().is_empty(),
            alpha: request.alpha(),
            origin,
            within: request.within(),
            bound,
            signature: result
                .ranked
                .iter()
                .fold(0, |signature, r| signature | signature_bit(r.user)),
            members: result.ranked.iter().map(|r| r.user).collect(),
            last_used: cache.tick,
        };
        cache.insert(key, guard, result.clone());
        while cache.len() > capacity {
            cache.evict_lru();
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
        let mut dropped = 0;
        for slot in 0..cache.guards.len() {
            if !cache.entry_survives_churn(slot, user, location, dataset) {
                cache.release(slot);
                dropped += 1;
            }
        }
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
        if let Some(mut result) = self.cache_lookup(request) {
            result.stats = QueryStats {
                cache_hits: 1,
                runtime: started.elapsed(),
                ..QueryStats::default()
            };
            return Ok(Box::new(EagerDriver::new(result)));
        }
        let (algorithm, _reason) = self.choose(engine, request);
        Ok(Box::new(PlannedDriver {
            inner: driver::start(algorithm, engine, request, ctx)?,
            planner: self,
            request: request.clone(),
            origin: request.resolved_origin(engine.dataset()),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryRequestBuilder;
    use ssrq_graph::GraphBuilder;

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
            stats: QueryStats::default(),
        }
    }

    /// A full top-2 at α = 0.5: members 1 and 2, admission bound
    /// `f_k` = 0.25, which a non-member reaches at distance 0.5.
    const FULL: [(UserId, f64); 2] = [(1, 0.15), (2, 0.25)];

    fn request() -> QueryRequestBuilder {
        QueryRequest::for_user(0).k(2).alpha(0.5)
    }

    /// Admits `members` as the answer to `request` evaluated from `origin`,
    /// applies one location change and reports whether the entry is still
    /// served.
    fn survives(
        request: &QueryRequest,
        origin: Option<Point>,
        members: &[(UserId, f64)],
        mover: UserId,
        to: Option<Point>,
    ) -> bool {
        let planner = QueryPlanner::new(PlannerConfig { cache_capacity: 8 });
        planner.cache_admit(request, origin, &result(request.k(), members));
        planner.note_location_change(mover, to, &dataset());
        planner.cache_lookup(request).is_some()
    }

    fn at(x: f64) -> Option<Point> {
        Some(Point::new(x, 0.0))
    }

    #[test]
    fn query_user_move_drops_a_derived_origin_entry() {
        let request = request().build().unwrap();
        assert!(!survives(&request, Some(ORIGIN), &FULL, 0, at(0.1)));
    }

    #[test]
    fn query_user_move_keeps_an_explicit_origin_entry() {
        // At 0.1 the lower bound 0.05 is under the bound: only the pinned
        // origin keeps the entry.
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
        let request = request().exclude([3]).build().unwrap();
        assert!(survives(&request, Some(ORIGIN), &FULL, 3, at(0.05)));
        assert!(!survives(&request, Some(ORIGIN), &FULL, 4, at(0.05)));
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
    fn lower_bound_tying_the_bound_drops_the_entry() {
        let request = request().build().unwrap();
        let tie = (1.0 - 0.5) * dataset().normalize_spatial(0.5);
        assert_eq!(tie, FULL[1].1);
        assert!(!survives(&request, Some(ORIGIN), &FULL, 4, at(0.5)));
    }

    #[test]
    fn lower_bound_strictly_above_the_bound_keeps_the_entry() {
        let request = request().build().unwrap();
        assert!(survives(&request, Some(ORIGIN), &FULL, 4, at(0.6)));
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

    #[test]
    fn a_reused_slot_misses_under_its_old_key() {
        let planner = QueryPlanner::new(PlannerConfig { cache_capacity: 8 });
        let old = request().build().unwrap();
        let new = request().k(3).build().unwrap();
        planner.cache_admit(&old, Some(ORIGIN), &result(2, &FULL));
        planner.note_location_change(0, at(0.1), &dataset());
        let answer = result(3, &[(3, 0.1)]);
        planner.cache_admit(&new, Some(ORIGIN), &answer);
        assert_eq!(planner.cache.lock().unwrap().guards.len(), 1, "slot reused");
        assert_eq!(planner.cache_lookup(&old), None);
        assert_eq!(planner.cache_lookup(&new), Some(answer));
        assert_eq!(planner.cache_len(), 1);
    }
}
