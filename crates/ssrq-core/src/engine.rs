use crate::ais::AisIndex;
use crate::algorithms::SocialNeighborCache;
use crate::planner::QueryPlanner;
use crate::{
    CoreError, GeoSocialDataset, QueryContext, QueryRequest, QueryResult, QuerySession, UserId,
};
use ssrq_graph::{ContractionHierarchy, LandmarkSelection, LandmarkSet};
use ssrq_spatial::{Point, UniformGrid};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// The SSRQ processing algorithm to run for a query.
///
/// All algorithms return the same (exact) result set; they differ only in
/// how much work they perform — which is precisely what the paper's
/// evaluation measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Brute-force oracle: full Dijkstra plus a linear scan.
    Exhaustive,
    /// Social First Approach (§4.1).
    Sfa,
    /// Spatial First Approach (§4.1).
    Spa,
    /// Twofold Search Approach with round-robin probing and landmark-based
    /// candidate pruning (the "TSA" configuration of the evaluation).
    Tsa,
    /// TSA probing with the Quick Combine heuristic.
    TsaQc,
    /// Aggregate Index Search without computation sharing (Figure 10's
    /// AIS-BID).
    AisBid,
    /// AIS with computation sharing but without delayed evaluation (AIS⁻).
    AisMinus,
    /// AIS with all optimizations — the paper's best method.
    Ais,
    /// SFA with a Contraction Hierarchies distance module (Figure 8).
    SfaCh,
    /// SPA with a Contraction Hierarchies distance module (Figure 8).
    SpaCh,
    /// TSA with a Contraction Hierarchies distance module (Figure 8).
    TsaCh,
    /// SFA over pre-computed social neighbour lists with AIS fallback
    /// (§5.4, "AIS-Cache" in Figure 11).
    SfaCached,
    /// Planner choice: a fixed rule over the request's `k` and `α` names
    /// the concrete algorithm (`SFA` or `AIS`) per query, and repeated
    /// queries are served from a churn-aware hot-result cache.  Not a paper
    /// method (and therefore absent from [`Algorithm::ALL`]) — see
    /// [`QueryPlanner`](crate::QueryPlanner).
    Auto,
}

impl Algorithm {
    /// Every **paper** algorithm variant, in the order they appear in the
    /// paper.  [`Algorithm::Auto`] is deliberately not listed: it is a
    /// meta-algorithm that delegates to one of these twelve, and every
    /// exactness/agreement sweep iterating `ALL` should compare concrete
    /// methods.
    pub const ALL: [Algorithm; 12] = [
        Algorithm::Exhaustive,
        Algorithm::Sfa,
        Algorithm::Spa,
        Algorithm::Tsa,
        Algorithm::TsaQc,
        Algorithm::AisBid,
        Algorithm::AisMinus,
        Algorithm::Ais,
        Algorithm::SfaCh,
        Algorithm::SpaCh,
        Algorithm::TsaCh,
        Algorithm::SfaCached,
    ];

    /// Short display name (matches the labels used in the paper's figures
    /// and names the algorithm on the wire).
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Exhaustive => "EXH",
            Algorithm::Sfa => "SFA",
            Algorithm::Spa => "SPA",
            Algorithm::Tsa => "TSA",
            Algorithm::TsaQc => "TSA-QC",
            Algorithm::AisBid => "AIS-BID",
            Algorithm::AisMinus => "AIS-",
            Algorithm::Ais => "AIS",
            Algorithm::SfaCh => "SFA-CH",
            Algorithm::SpaCh => "SPA-CH",
            Algorithm::TsaCh => "TSA-CH",
            Algorithm::SfaCached => "AIS-Cache",
            Algorithm::Auto => "AUTO",
        }
    }

    /// Resolves a display name (as produced by [`Algorithm::name`]) back to
    /// the variant — the lookup the wire protocol decodes requests with,
    /// covering the twelve paper methods *and* [`Algorithm::Auto`].
    pub fn from_name(name: &str) -> Option<Algorithm> {
        if name == Algorithm::Auto.name() {
            return Some(Algorithm::Auto);
        }
        Algorithm::ALL.iter().copied().find(|a| a.name() == name)
    }

    /// Returns `true` when the algorithm needs a Contraction Hierarchies
    /// index (see [`EngineBuilder::with_ch`]).
    pub const fn needs_ch(&self) -> bool {
        matches!(self, Algorithm::SfaCh | Algorithm::SpaCh | Algorithm::TsaCh)
    }

    /// Returns `true` when the algorithm needs a pre-computed social
    /// neighbour cache (see [`EngineBuilder::cache_social_neighbors`]).
    pub const fn needs_social_cache(&self) -> bool {
        matches!(self, Algorithm::SfaCached)
    }
}

/// Index-construction parameters of a [`GeoSocialEngine`] (the system
/// parameters of Table 3 in the paper), as configured through
/// [`EngineBuilder`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexParams {
    /// Partitioning granularity `s`: every AIS index node has `s × s`
    /// children, and the AIS leaf level, which SPA/TSA search as their
    /// single-level grid, has `s^levels × s^levels` cells.
    pub granularity: u32,
    /// Number of retained AIS grid levels (the paper keeps 2).
    pub ais_levels: u32,
    /// Number of landmarks `M` (the paper fine-tunes M = 8).
    pub num_landmarks: usize,
    /// Landmark selection strategy.
    pub landmark_selection: LandmarkSelection,
    /// Seed for randomized landmark selection.
    pub landmark_seed: u64,
}

impl Default for IndexParams {
    fn default() -> Self {
        IndexParams {
            granularity: 10,
            ais_levels: 2,
            num_landmarks: 8,
            landmark_selection: LandmarkSelection::FarthestFirst,
            landmark_seed: 0x5537_2301,
        }
    }
}

impl IndexParams {
    /// Validates the parameters.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.granularity == 0 {
            return Err(CoreError::InvalidParameter(
                "granularity s must be at least 1".into(),
            ));
        }
        if self.ais_levels == 0 {
            return Err(CoreError::InvalidParameter(
                "the AIS index needs at least one level".into(),
            ));
        }
        if self.num_landmarks == 0 {
            return Err(CoreError::InvalidParameter(
                "at least one landmark is required".into(),
            ));
        }
        Ok(())
    }

    /// The side length (cells per axis) of the single-level grid used by the
    /// SPA/TSA spatial search: the AIS leaf level's `s^levels`.
    pub fn spa_grid_side(&self) -> u32 {
        self.granularity.saturating_pow(self.ais_levels)
    }
}

/// An engine's graph-only indexes together with their declarations: the
/// landmark tables (§5.2), the write-once Contraction Hierarchies slot
/// (present when declared with [`EngineBuilder::with_ch`]) and the
/// write-once social neighbour cache slot (present when declared with
/// [`EngineBuilder::cache_social_neighbors`]).
///
/// All three are functions of the social graph alone, so one built instance
/// serves every engine over that graph.  This handle is the only way they
/// travel: cloning a [`GeoSocialEngine`] and
/// [`EngineBuilder::share_graph_artifacts_with`] both clone it, so every
/// holder sees the same declarations and races into the same lazy builds.
#[derive(Debug, Clone)]
struct GraphIndexes {
    landmarks: Arc<LandmarkSet>,
    ch: Option<Arc<OnceLock<ContractionHierarchy>>>,
    social_cache: Option<Arc<SocialCacheSlot>>,
}

/// The social neighbour cache slot: the `(users, t)` it is lazily built
/// from (for an installed cache, the users it covers and its own `t`).
#[derive(Debug)]
struct SocialCacheSlot {
    users: Vec<UserId>,
    t: usize,
    cache: OnceLock<SocialNeighborCache>,
}

/// Fluent construction of a [`GeoSocialEngine`].
///
/// ```
/// use ssrq_core::{GeoSocialDataset, GeoSocialEngine};
/// use ssrq_graph::GraphBuilder;
/// use ssrq_spatial::Point;
///
/// let graph = GraphBuilder::from_edges(3, vec![(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
/// let locations = vec![
///     Some(Point::new(0.1, 0.5)),
///     Some(Point::new(0.9, 0.5)),
///     Some(Point::new(0.2, 0.5)),
/// ];
/// let dataset = GeoSocialDataset::new(graph, locations).unwrap();
/// let engine = GeoSocialEngine::builder(dataset)
///     .granularity(10)
///     .landmarks(4)
///     .with_ch()
///     .build()
///     .unwrap();
/// assert!(engine.contraction_hierarchy().is_none()); // not built yet
/// ```
///
/// # Graph-only indexes
///
/// The landmark tables, the Contraction Hierarchies index and the social
/// neighbour cache depend on the social graph but never on user locations.
/// The builder *declares* the two expensive ones
/// ([`EngineBuilder::with_ch`], [`EngineBuilder::cache_social_neighbors`])
/// and the engine builds each on first use, once; many engines over the
/// same graph (the shards of a partitioned deployment, a replica set) hold
/// **one** instance of all three through
/// [`EngineBuilder::share_graph_artifacts_with`].
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    dataset: GeoSocialDataset,
    params: IndexParams,
    ch: bool,
    social_cache: Option<(Vec<UserId>, usize)>,
    /// The donor's handle, or the error of a donor over a foreign core
    /// (reported by [`EngineBuilder::build`]).
    adopted: Option<Result<GraphIndexes, CoreError>>,
}

impl EngineBuilder {
    /// Starts a builder over `dataset` with [`IndexParams::default`], no CH
    /// index and no social cache.
    pub fn new(dataset: GeoSocialDataset) -> Self {
        EngineBuilder {
            dataset,
            params: IndexParams::default(),
            ch: false,
            social_cache: None,
            adopted: None,
        }
    }

    /// Sets the partitioning granularity `s`.
    pub fn granularity(mut self, s: u32) -> Self {
        self.params.granularity = s;
        self
    }

    /// Sets the number of retained AIS grid levels.
    pub fn ais_levels(mut self, levels: u32) -> Self {
        self.params.ais_levels = levels;
        self
    }

    /// Sets the number of landmarks `M`.
    pub fn landmarks(mut self, m: usize) -> Self {
        self.params.num_landmarks = m;
        self
    }

    /// Sets the landmark selection strategy.
    pub fn landmark_selection(mut self, selection: LandmarkSelection) -> Self {
        self.params.landmark_selection = selection;
        self
    }

    /// Sets the seed for randomized landmark selection.
    pub fn landmark_seed(mut self, seed: u64) -> Self {
        self.params.landmark_seed = seed;
        self
    }

    /// Replaces the full parameter record.
    pub fn index_params(mut self, params: IndexParams) -> Self {
        self.params = params;
        self
    }

    /// Declares the Contraction Hierarchies index required by the `*-CH`
    /// baselines.  It is built on first use — behind a `OnceLock`, so
    /// concurrent batch workers trigger exactly one build; call
    /// [`GeoSocialEngine::require_contraction_hierarchy`] after
    /// [`EngineBuilder::build`] to pay for it up front.
    ///
    /// CH preprocessing is by far the most expensive index build (and, per
    /// the paper, of little use on social networks), so an engine has none
    /// unless asked.
    pub fn with_ch(mut self) -> Self {
        self.ch = true;
        self
    }

    /// Declares the pre-computed social neighbour lists of §5.4 (required
    /// by [`Algorithm::SfaCached`]): the `t` socially closest vertices of
    /// each user in `users` (typically the query workload), materialized
    /// on first use like the CH index; call
    /// [`GeoSocialEngine::require_social_cache`] to build them up front.
    pub fn cache_social_neighbors(mut self, users: impl Into<Vec<UserId>>, t: usize) -> Self {
        self.social_cache = Some((users.into(), t));
        self
    }

    /// Makes the engine a sibling of `donor`: it holds the donor's
    /// graph-only indexes — landmark set, CH slot, social-cache slot — and
    /// their declarations **instead of** its own, so whatever the donor
    /// declared the sibling can answer, each lazy index is built at most
    /// once by whichever of them first needs it, and both observe the same
    /// instance.  This builder's own `with_ch` / `cache_social_neighbors`
    /// declarations and the landmark fields of its [`IndexParams`] are not
    /// consulted.
    ///
    /// This is the constructor the sharded coordinator uses: shard 0 builds
    /// the graph-only indexes and shards `1..n` adopt them.  The builder's
    /// dataset must share the donor's immutable core
    /// ([`GeoSocialDataset::shares_core_with`]); [`EngineBuilder::build`]
    /// fails with [`CoreError::InvalidParameter`] otherwise.
    pub fn share_graph_artifacts_with(mut self, donor: &GeoSocialEngine) -> Self {
        self.adopted = Some(if donor.dataset.shares_core_with(&self.dataset) {
            Ok(donor.graph_indexes.clone())
        } else {
            Err(CoreError::InvalidParameter(
                "share_graph_artifacts_with requires a dataset sharing the donor's \
                 immutable core (clone or restrict_locations view of the same dataset)"
                    .into(),
            ))
        });
        self
    }

    /// Builds the landmark tables (or adopts the donor's graph-only
    /// indexes) and the AIS aggregate index, whose leaf level is the SPA/TSA
    /// grid, and returns the engine.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] for invalid index parameters or a
    /// [`EngineBuilder::share_graph_artifacts_with`] donor whose dataset
    /// does not share this builder's core;
    /// [`CoreError::InvalidDataset`] for an empty dataset.
    pub fn build(self) -> Result<GeoSocialEngine, CoreError> {
        let EngineBuilder {
            dataset,
            params,
            ch,
            social_cache,
            adopted,
        } = self;
        params.validate()?;
        if let Some((_, 0)) = social_cache {
            return Err(CoreError::InvalidParameter(
                "the social cache list length t must be at least 1".into(),
            ));
        }
        if dataset.user_count() == 0 {
            return Err(CoreError::InvalidDataset("the dataset has no users".into()));
        }
        let graph_indexes = match adopted {
            Some(donor) => donor?,
            None => GraphIndexes {
                landmarks: Arc::new(LandmarkSet::build(
                    dataset.graph(),
                    params.num_landmarks,
                    params.landmark_selection,
                    params.landmark_seed,
                )?),
                ch: ch.then(Arc::default),
                social_cache: social_cache.map(|(users, t)| {
                    Arc::new(SocialCacheSlot {
                        users,
                        t,
                        cache: OnceLock::new(),
                    })
                }),
            },
        };
        let ais = AisIndex::build(
            &dataset,
            &graph_indexes.landmarks,
            params.granularity,
            params.ais_levels,
        )?;
        Ok(GeoSocialEngine {
            dataset,
            params,
            graph_indexes,
            ais,
            planner: QueryPlanner::default(),
        })
    }
}

/// The SSRQ query engine: owns the dataset, the spatial indexes, the
/// landmark tables and the (lazily built) auxiliary indexes, and runs each
/// [`QueryRequest`] with the [`Algorithm`] it names.
///
/// # Memory model
///
/// The engine separates **shared immutable** artifacts from **per-engine
/// mutable** state.  The social graph (through the dataset's `Arc`-backed
/// core) and the graph-only indexes — landmark set, Contraction
/// Hierarchies index, social neighbour cache, held together in one
/// cloneable handle — are shared: clones of the engine, and sibling engines
/// built with [`EngineBuilder::share_graph_artifacts_with`], reference one
/// instance of each.  The location vector and the AIS aggregate index
/// depend on locations and stay per-engine (they are what
/// [`GeoSocialEngine::update_location`] mutates).  The AIS index's leaf
/// level is the SPA/TSA grid, so each location is indexed once.
#[derive(Debug)]
pub struct GeoSocialEngine {
    dataset: GeoSocialDataset,
    params: IndexParams,
    graph_indexes: GraphIndexes,
    ais: AisIndex,
    /// The planner behind [`Algorithm::Auto`] — per-engine, like every
    /// location-dependent structure (its hot-result cache replays *this*
    /// engine's location updates).
    planner: QueryPlanner,
}

impl Clone for GeoSocialEngine {
    /// Cloning shares the graph-only indexes but gives the clone a
    /// **fresh planner**: the clones' location vectors diverge
    /// independently, and a shared hot-result cache would let one clone
    /// serve answers computed in the other's world.  The fresh planner
    /// starts unpinned, with empty counters and an empty cache of the
    /// original's current capacity (a cache disabled on the original stays
    /// disabled on the clone).
    fn clone(&self) -> GeoSocialEngine {
        GeoSocialEngine {
            dataset: self.dataset.clone(),
            params: self.params,
            graph_indexes: self.graph_indexes.clone(),
            ais: self.ais.clone(),
            planner: QueryPlanner::new(self.planner.config()),
        }
    }
}

// The engine holds no interior mutability beyond `OnceLock` (write-once
// lazy index initialization, which is `Sync`): queries take `&self` and
// draw their mutable scratch from a caller-owned `QueryContext`, while
// location updates go through the explicit `&mut self` API.  That makes
// `&engine` safely shareable across the batch-query worker threads; this
// assertion turns any future regression (e.g. an `Rc` or `RefCell`
// slipping into an index) into a compile error.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<GeoSocialEngine>();
};

impl GeoSocialEngine {
    /// Starts fluent engine construction; see [`EngineBuilder`].
    pub fn builder(dataset: GeoSocialDataset) -> EngineBuilder {
        EngineBuilder::new(dataset)
    }

    /// The dataset the engine operates on.
    pub fn dataset(&self) -> &GeoSocialDataset {
        &self.dataset
    }

    /// The index-construction parameters.
    pub fn index_params(&self) -> &IndexParams {
        &self.params
    }

    /// The landmark set shared by TSA and AIS.  Two engines hold the same
    /// instance exactly when `std::ptr::eq(a.landmarks(), b.landmarks())`.
    pub fn landmarks(&self) -> &LandmarkSet {
        &self.graph_indexes.landmarks
    }

    /// The AIS aggregate index.
    pub fn ais_index(&self) -> &AisIndex {
        &self.ais
    }

    /// The single-level grid used by the SPA/TSA spatial search: the AIS
    /// index's leaf level.
    pub fn grid(&self) -> &UniformGrid {
        self.ais.grid().leaves()
    }

    /// The Contraction Hierarchies index, when already built: it only
    /// exists after the first query that needed it (on this engine, a clone
    /// or a sibling); use
    /// [`GeoSocialEngine::require_contraction_hierarchy`] to force it.
    pub fn contraction_hierarchy(&self) -> Option<&ContractionHierarchy> {
        self.graph_indexes.ch.as_ref()?.get()
    }

    /// Returns the Contraction Hierarchies index, building it on the spot
    /// when it was declared ([`EngineBuilder::with_ch`]) and is not built
    /// yet.
    ///
    /// Concurrent callers — parallel batch workers, clones, and siblings
    /// built with [`EngineBuilder::share_graph_artifacts_with`] — trigger
    /// exactly one build and observe the same instance; the rest block
    /// until it is ready.
    ///
    /// # Errors
    ///
    /// [`CoreError::MissingIndex`] when no CH index was declared.
    pub fn require_contraction_hierarchy(&self) -> Result<&ContractionHierarchy, CoreError> {
        let slot = self.graph_indexes.ch.as_ref().ok_or_else(|| {
            CoreError::MissingIndex(
                "this algorithm needs a Contraction Hierarchies index; declare it \
                 with EngineBuilder::with_ch()"
                    .into(),
            )
        })?;
        Ok(slot.get_or_init(|| ContractionHierarchy::new(self.dataset.graph())))
    }

    /// The pre-computed social neighbour cache, when already built: it only
    /// exists after the first query that needed it (or after
    /// [`GeoSocialEngine::install_social_cache`]); use
    /// [`GeoSocialEngine::require_social_cache`] to force it.
    pub fn social_cache(&self) -> Option<&SocialNeighborCache> {
        self.graph_indexes.social_cache.as_ref()?.cache.get()
    }

    /// Returns the social neighbour cache, building it on the spot when it
    /// was declared ([`EngineBuilder::cache_social_neighbors`]) and is not
    /// built yet.  The build is shared exactly like
    /// [`GeoSocialEngine::require_contraction_hierarchy`]'s.
    ///
    /// # Errors
    ///
    /// [`CoreError::MissingIndex`] when no cache was declared or installed.
    pub fn require_social_cache(&self) -> Result<&SocialNeighborCache, CoreError> {
        let slot = self.graph_indexes.social_cache.as_ref().ok_or_else(|| {
            CoreError::MissingIndex(
                "Algorithm::SfaCached needs the pre-computed social neighbour lists; \
                 declare them with EngineBuilder::cache_social_neighbors(users, t)"
                    .into(),
            )
        })?;
        Ok(slot
            .cache
            .get_or_init(|| SocialNeighborCache::build(self.dataset.graph(), &slot.users, slot.t)))
    }

    /// Installs (or replaces) a pre-built social neighbour cache — e.g. one
    /// swapped while sweeping the list length `t` without rebuilding the
    /// base indexes (the Figure 11 experiment).
    ///
    /// Installing detaches this engine from any previously shared cache
    /// slot: clones and siblings holding the old slot keep (or lazily
    /// build) the old cache, unaffected.  For caches derived from this
    /// engine's own graph, prefer
    /// [`EngineBuilder::cache_social_neighbors`].
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] when the cache covers a user the
    /// dataset does not have (it was built over another graph); the engine
    /// keeps its previous slot.
    pub fn install_social_cache(&mut self, cache: SocialNeighborCache) -> Result<(), CoreError> {
        if let Some(bad) = cache.covered().find(|&u| !self.dataset.contains(u)) {
            return Err(CoreError::InvalidParameter(format!(
                "social cache covers user {bad} but the dataset has only {} users",
                self.dataset.user_count()
            )));
        }
        self.graph_indexes.social_cache = Some(Arc::new(SocialCacheSlot {
            users: cache.covered().collect(),
            t: cache.t(),
            cache: OnceLock::from(cache),
        }));
        Ok(())
    }

    /// Makes the auxiliary index `algorithm` needs ready, building a
    /// declared-but-unbuilt one on the spot — the preflight a sharded
    /// deployment runs once before scattering, so a missing index fails
    /// the query the way [`GeoSocialEngine::run`] does.
    ///
    /// # Errors
    ///
    /// [`CoreError::MissingIndex`] for a needed index the engine does not
    /// declare.
    pub fn ready(&self, algorithm: Algorithm) -> Result<(), CoreError> {
        if algorithm.needs_ch() {
            self.require_contraction_hierarchy()?;
        }
        if algorithm.needs_social_cache() {
            self.require_social_cache()?;
        }
        Ok(())
    }

    /// A query context pre-sized for this engine's graph.
    ///
    /// Reuse it across queries via [`GeoSocialEngine::run_with`] (or hold a
    /// [`QuerySession`], which does so for you) to avoid the per-query
    /// `O(|V|)` scratch allocation.
    pub fn make_context(&self) -> QueryContext {
        QueryContext::with_capacity(self.dataset.user_count())
    }

    /// A [`QuerySession`] over this engine: the recommended per-worker
    /// query handle (owned reusable context, streaming support).
    pub fn session(&self) -> QuerySession<'_> {
        QuerySession::new(self)
    }

    /// Processes one request.
    ///
    /// This convenience entry point allocates a fresh [`QueryContext`] per
    /// call; query loops should prefer [`GeoSocialEngine::run_with`] / a
    /// [`QuerySession`] (one reused context) or
    /// [`GeoSocialEngine::run_batch`] (one context per worker thread).
    ///
    /// # Errors
    ///
    /// * [`CoreError::MissingIndex`] when the algorithm needs an index the
    ///   engine was not configured to provide.
    /// * [`CoreError::InvalidParameter`] / [`CoreError::UnknownUser`] for
    ///   invalid request fields.
    pub fn run(&self, request: &QueryRequest) -> Result<QueryResult, CoreError> {
        self.run_with(request, &mut QueryContext::new())
    }

    /// Processes one request, drawing all search scratch from `ctx`.
    ///
    /// The context is reset before use, so reusing one across queries (of
    /// any algorithm, in any order) never changes results — it only removes
    /// the `O(|V|)` allocation from the per-query hot path.
    pub fn run_with(
        &self,
        request: &QueryRequest,
        ctx: &mut QueryContext,
    ) -> Result<QueryResult, CoreError> {
        let result = self.begin_stream(request, ctx)?.run_to_completion()?;
        crate::obs::record_query_metrics(
            ssrq_obs::Registry::global(),
            request.algorithm().name(),
            &result.stats,
        );
        Ok(result)
    }

    /// Starts a pull-lazy execution of one request, returning a resumable
    /// [`QueryDriver`](crate::QueryDriver) that borrows this engine and
    /// `ctx` for its lifetime.
    ///
    /// This is the low-level streaming primitive: the caller steps the
    /// machine and drains finalized entries at its own pace (the
    /// property-based test-suite drives it with arbitrary suspension
    /// schedules).  Most callers want [`GeoSocialEngine::stream_with`] or
    /// [`QuerySession::stream`], which wrap the driver in an iterator.
    ///
    /// [`Algorithm::Auto`] goes to the engine's planner, which serves a
    /// cache hit or starts the algorithm it chooses; every other algorithm
    /// starts its own driver.
    ///
    /// # Errors
    ///
    /// Same as [`GeoSocialEngine::run_with`].
    pub fn begin_stream<'a>(
        &'a self,
        request: &QueryRequest,
        ctx: &'a mut QueryContext,
    ) -> Result<Box<dyn crate::QueryDriver + 'a>, CoreError> {
        match request.algorithm() {
            Algorithm::Auto => self.planner.begin(self, request, ctx),
            algorithm => crate::driver::start(algorithm, self, request, ctx),
        }
    }

    /// Processes one request as a pull-lazy [`QueryStream`](crate::QueryStream)
    /// drawing all search scratch from `ctx`; see [`QuerySession::stream`]
    /// for the semantics.
    ///
    /// # Errors
    ///
    /// Same as [`GeoSocialEngine::run_with`].
    pub fn stream_with<'a>(
        &'a self,
        request: &QueryRequest,
        ctx: &'a mut QueryContext,
    ) -> Result<crate::QueryStream<'a>, CoreError> {
        Ok(crate::QueryStream::new(
            self.begin_stream(request, ctx)?,
            request.k(),
        ))
    }

    /// Processes a batch of requests in parallel across worker threads, one
    /// [`QueryContext`] per worker.
    ///
    /// Results arrive in input order and are identical to running
    /// [`GeoSocialEngine::run`] sequentially on each element — every query
    /// is computed independently from shared read-only indexes, so thread
    /// count and scheduling cannot affect answers (the test-suite asserts
    /// this, including under concurrent lazy index initialization).
    /// Per-element errors (e.g. an unknown user in the middle of a batch)
    /// are reported in place without failing the whole batch.
    ///
    /// Uses all available CPU parallelism; see
    /// [`GeoSocialEngine::run_batch_with_threads`] to pin the worker count.
    pub fn run_batch(&self, batch: &[QueryRequest]) -> Vec<Result<QueryResult, CoreError>> {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        self.run_batch_with_threads(batch, threads)
    }

    /// [`GeoSocialEngine::run_batch`] with an explicit worker count
    /// (clamped to the batch size; `0` and `1` run inline on the calling
    /// thread).
    pub fn run_batch_with_threads(
        &self,
        batch: &[QueryRequest],
        threads: usize,
    ) -> Vec<Result<QueryResult, CoreError>> {
        run_batch_on_workers(
            batch,
            threads,
            || self.make_context(),
            |request, ctx| self.run_with(request, ctx),
        )
    }

    /// Reports a new location for `user`, updating the dataset and the AIS
    /// index (its leaf grid, which SPA/TSA search, and its social
    /// summaries) — the location-update path of §5.1.
    ///
    /// # Auxiliary-index staleness
    ///
    /// The lazily-built Contraction Hierarchies index and the pre-computed
    /// social neighbour cache are functions of the **social graph only**
    /// (shortcuts and socially-closest lists never read a location), so
    /// location churn cannot invalidate them — whether they were built
    /// before or after the update.  `tests/dynamic_updates.rs` pins this
    /// down by checking `*-CH` and `AIS-Cache` queries against the
    /// exhaustive oracle across churn interleaved with lazy index builds.
    /// The same argument is why those indexes can be *shared* across the
    /// shards of a partitioned deployment: per-shard location churn and
    /// cross-shard migration never touch them.  Any future mutation that
    /// *does* touch the graph (edge insertion, re-weighting) must replace
    /// the dataset core and the `Arc`-held graph artifacts wholesale.
    pub fn update_location(&mut self, user: UserId, location: Point) -> Result<(), CoreError> {
        self.dataset.check_user(user)?;
        if !location.is_finite() {
            return Err(CoreError::InvalidParameter(format!(
                "non-finite location {location}"
            )));
        }
        self.dataset.set_location(user, Some(location))?;
        // A location outside the dataset's bounds stays exact: the grid
        // stores it as given, files it in the boundary cell its clamped image
        // falls in, and opens the search bounds of boundary cells outward.
        self.ais
            .update_location(user, location, &self.graph_indexes.landmarks)?;
        self.planner.note_location_change(user);
        Ok(())
    }

    /// Removes the location of `user` (the user becomes "infinitely far" in
    /// the spatial domain).
    ///
    /// Like [`GeoSocialEngine::update_location`], this refreshes every
    /// location-dependent index and leaves the graph-only auxiliary indexes
    /// (CH, social cache) untouched — they cannot go stale under location
    /// churn.
    pub fn remove_location(&mut self, user: UserId) -> Result<(), CoreError> {
        self.dataset.check_user(user)?;
        if self.dataset.location(user).is_some() {
            self.dataset.set_location(user, None)?;
            self.ais.remove_user(user, &self.graph_indexes.landmarks)?;
            self.planner.note_location_change(user);
        }
        Ok(())
    }

    /// The planner behind this engine's [`Algorithm::Auto`]: pin it to one
    /// algorithm, resize its hot-result cache, or read its decision/cache
    /// counters via [`QueryPlanner::snapshot`].
    pub fn planner(&self) -> &QueryPlanner {
        &self.planner
    }
}

impl GeoSocialEngine {
    /// Approximate heap footprint of this engine, split into the bytes that
    /// are **shared** through `Arc` handles (graph, landmarks, CH, social
    /// cache — paid once no matter how many engines hold them) and the
    /// bytes that are **per-engine** (locations, AIS index with its leaf
    /// grid).
    ///
    /// Capacity-based estimates; allocator overhead and the planner's
    /// hot-result cache are ignored.  This powers the `experiments -- memory`
    /// report of `ssrq-bench`.
    pub fn memory_breakdown(&self) -> EngineMemory {
        EngineMemory {
            graph_bytes: self.dataset.graph().approx_heap_bytes(),
            landmarks_bytes: self.landmarks().approx_heap_bytes(),
            ch_bytes: self
                .contraction_hierarchy()
                .map(|ch| ch.approx_heap_bytes())
                .unwrap_or(0),
            social_cache_bytes: self
                .social_cache()
                .map(|cache| cache.memory_bytes())
                .unwrap_or(0),
            locations_bytes: self.dataset.locations_heap_bytes(),
            ais_bytes: self.ais.approx_heap_bytes(),
            ais_occupied_cells: self.ais.occupied_cells(),
            ais_total_cells: self.ais.total_cells(),
        }
    }
}

/// Approximate heap footprint of a [`GeoSocialEngine`], split by sharing
/// class; see [`GeoSocialEngine::memory_breakdown`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineMemory {
    /// CSR social graph (shared through the dataset core).
    pub graph_bytes: usize,
    /// Landmark distance tables (shared through an `Arc`).
    pub landmarks_bytes: usize,
    /// Contraction Hierarchies index, when built (shared through an `Arc`).
    pub ch_bytes: usize,
    /// Social neighbour cache, when built (shared through an `Arc`).
    pub social_cache_bytes: usize,
    /// Per-engine location vector.
    pub locations_bytes: usize,
    /// Per-engine AIS aggregate index, including its leaf grid (the SPA/TSA
    /// grid).
    pub ais_bytes: usize,
    /// AIS grid nodes carrying a materialised social summary (occupancy
    /// numerator — empty nodes share one static summary and cost nothing).
    pub ais_occupied_cells: usize,
    /// Total AIS grid nodes of the geometry (occupancy denominator).
    pub ais_total_cells: usize,
}

impl EngineMemory {
    /// Bytes held behind shared `Arc` handles: whatever the deployment
    /// shape, these are resident **once** per distinct instance.
    pub fn shared_bytes(&self) -> usize {
        self.graph_bytes + self.landmarks_bytes + self.ch_bytes + self.social_cache_bytes
    }

    /// Bytes owned by this engine alone (replicated per shard in a
    /// partitioned deployment).
    pub fn per_engine_bytes(&self) -> usize {
        self.locations_bytes + self.ais_bytes
    }

    /// Fraction of AIS grid nodes carrying a materialised summary; 0 for an
    /// engine over an empty shard.  Per-shard AIS bytes are proportional to
    /// this ratio, not to the grid geometry.
    pub fn ais_occupancy_ratio(&self) -> f64 {
        if self.ais_total_cells == 0 {
            return 0.0;
        }
        self.ais_occupied_cells as f64 / self.ais_total_cells as f64
    }
}

/// Runs `batch` on `threads` worker threads and returns the results in
/// input order — the one worker loop behind
/// [`GeoSocialEngine::run_batch_with_threads`] and the sharded engine's.
///
/// Each worker makes its own context with `make_context` and pulls the
/// next request index from a shared counter (dynamic load balancing: query
/// cost varies wildly with the query user's neighbourhood).  `threads` is
/// clamped to the batch size; `0` and `1` run inline on the calling thread.
#[doc(hidden)]
pub fn run_batch_on_workers<C, T: Send>(
    batch: &[QueryRequest],
    threads: usize,
    make_context: impl Fn() -> C + Sync,
    run: impl Fn(&QueryRequest, &mut C) -> T + Sync,
) -> Vec<T> {
    let threads = threads.min(batch.len());
    if threads <= 1 {
        let mut ctx = make_context();
        return batch.iter().map(|request| run(request, &mut ctx)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut results: Vec<(usize, T)> = Vec::with_capacity(batch.len());
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut ctx = make_context();
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(request) = batch.get(i) else { break };
                        local.push((i, run(request, &mut ctx)));
                    }
                    local
                })
            })
            .collect();
        for worker in workers {
            results.extend(worker.join().expect("batch worker panicked"));
        }
    });
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssrq_graph::GraphBuilder;

    fn request(user: UserId, k: usize, alpha: f64, algorithm: Algorithm) -> QueryRequest {
        QueryRequest::for_user(user)
            .k(k)
            .alpha(alpha)
            .algorithm(algorithm)
            .build()
            .unwrap()
    }

    fn dataset() -> GeoSocialDataset {
        let n = 50u32;
        let mut builder = GraphBuilder::new(n as usize);
        for i in 0..n {
            builder
                .add_edge(i, (i + 1) % n, 0.3 + (i % 6) as f64 * 0.2)
                .unwrap();
        }
        for i in (0..n).step_by(4) {
            builder
                .add_edge(i, (i + 13) % n, 0.9 + (i % 3) as f64 * 0.4)
                .unwrap();
        }
        let graph = builder.build();
        let locations: Vec<Option<Point>> = (0..n)
            .map(|i| {
                if i % 10 == 9 {
                    None
                } else {
                    Some(Point::new(
                        ((i as f64) * 0.618) % 1.0,
                        ((i as f64) * 0.382) % 1.0,
                    ))
                }
            })
            .collect();
        GeoSocialDataset::new(graph, locations).unwrap()
    }

    fn engine() -> GeoSocialEngine {
        GeoSocialEngine::builder(dataset())
            .granularity(4)
            .build()
            .unwrap()
    }

    fn full_engine(query_users: &[UserId]) -> GeoSocialEngine {
        GeoSocialEngine::builder(dataset())
            .granularity(4)
            .with_ch()
            .cache_social_neighbors(query_users.to_vec(), 60)
            .build()
            .unwrap()
    }

    #[test]
    fn every_algorithm_agrees_with_the_oracle() {
        let query_users = [0u32, 7, 23, 41];
        let engine = full_engine(&query_users);
        for &user in &query_users {
            for &alpha in &[0.3, 0.7] {
                let expected = engine
                    .run(&request(user, 6, alpha, Algorithm::Exhaustive))
                    .unwrap();
                for algorithm in Algorithm::ALL {
                    let got = engine.run(&request(user, 6, alpha, algorithm)).unwrap();
                    assert!(
                        got.same_users_and_scores(&expected, 1e-9),
                        "{} disagrees with the oracle for user {user}, alpha {alpha}:\n  got {:?}\n  expected {:?}",
                        algorithm.name(),
                        got.users(),
                        expected.users()
                    );
                }
            }
        }
        // Both lazy indexes were built on demand.
        assert!(engine.contraction_hierarchy().is_some());
        assert!(engine.social_cache().is_some());
    }

    #[test]
    fn disabled_ch_yields_a_typed_missing_index_error() {
        let engine = engine();
        for algorithm in [Algorithm::SfaCh, Algorithm::SpaCh, Algorithm::TsaCh] {
            assert!(algorithm.needs_ch());
            assert!(matches!(
                engine.run(&request(0, 5, 0.5, algorithm)),
                Err(CoreError::MissingIndex(_))
            ));
        }
        assert!(engine.contraction_hierarchy().is_none());
    }

    #[test]
    fn lazy_ch_is_built_on_first_use_only() {
        let engine = GeoSocialEngine::builder(dataset())
            .granularity(4)
            .with_ch()
            .build()
            .unwrap();
        assert!(engine.contraction_hierarchy().is_none());
        let oracle = engine
            .run(&request(0, 5, 0.5, Algorithm::Exhaustive))
            .unwrap();
        // Non-CH queries must not trigger the build.
        assert!(engine.contraction_hierarchy().is_none());
        let got = engine.run(&request(0, 5, 0.5, Algorithm::SfaCh)).unwrap();
        assert!(engine.contraction_hierarchy().is_some());
        assert!(got.same_users_and_scores(&oracle, 1e-9));
    }

    #[test]
    fn disabled_social_cache_yields_a_typed_missing_index_error() {
        let engine = engine();
        assert!(Algorithm::SfaCached.needs_social_cache());
        assert!(matches!(
            engine.run(&request(0, 5, 0.5, Algorithm::SfaCached)),
            Err(CoreError::MissingIndex(_))
        ));
    }

    #[test]
    fn index_params_validation_and_derived_grid_side() {
        assert!(IndexParams::default().validate().is_ok());
        let bad = IndexParams {
            granularity: 0,
            ..IndexParams::default()
        };
        assert!(bad.validate().is_err());
        let bad = IndexParams {
            num_landmarks: 0,
            ..IndexParams::default()
        };
        assert!(bad.validate().is_err());
        let cfg = IndexParams {
            granularity: 20,
            ais_levels: 2,
            ..IndexParams::default()
        };
        assert_eq!(cfg.spa_grid_side(), 400); // the AIS leaf side, uncapped
        let cfg = IndexParams {
            granularity: 5,
            ais_levels: 2,
            ..IndexParams::default()
        };
        assert_eq!(cfg.spa_grid_side(), 25);
    }

    #[test]
    fn location_updates_keep_all_algorithms_consistent() {
        let mut engine = engine();
        // Move a handful of users around, including one that previously had
        // no location, then re-verify agreement between AIS and the oracle.
        engine.update_location(9, Point::new(0.42, 0.13)).unwrap();
        engine.update_location(3, Point::new(0.91, 0.88)).unwrap();
        engine.update_location(0, Point::new(0.05, 0.95)).unwrap();
        engine.remove_location(17).unwrap();
        for algorithm in [
            Algorithm::Sfa,
            Algorithm::Spa,
            Algorithm::Tsa,
            Algorithm::Ais,
        ] {
            let expected = engine
                .run(&request(0, 5, 0.5, Algorithm::Exhaustive))
                .unwrap();
            let got = engine.run(&request(0, 5, 0.5, algorithm)).unwrap();
            assert!(
                got.same_users_and_scores(&expected, 1e-9),
                "{} inconsistent after location updates",
                algorithm.name()
            );
        }
    }

    #[test]
    fn algorithm_names_are_unique() {
        let mut names: Vec<&str> = Algorithm::ALL.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Algorithm::ALL.len());
    }

    #[test]
    fn empty_dataset_is_rejected() {
        let graph = GraphBuilder::new(0).build();
        let err = GeoSocialDataset::new(graph, vec![]);
        // An empty dataset cannot even be constructed (no located user).
        assert!(err.is_err());
    }

    #[test]
    fn shared_artifacts_are_adopted_not_rebuilt() {
        let query_users = [0u32, 7, 23];
        let donor = GeoSocialEngine::builder(dataset())
            .granularity(4)
            .with_ch()
            .cache_social_neighbors(query_users.to_vec(), 60)
            .build()
            .unwrap();
        donor.require_contraction_hierarchy().unwrap();
        donor.require_social_cache().unwrap();
        let sibling = GeoSocialEngine::builder(donor.dataset().clone())
            .granularity(4)
            .share_graph_artifacts_with(&donor)
            .build()
            .unwrap();
        // One landmark set, one CH, one cache across both engines.
        assert!(std::ptr::eq(donor.landmarks(), sibling.landmarks()));
        assert!(std::ptr::eq(
            donor.contraction_hierarchy().unwrap(),
            sibling.contraction_hierarchy().unwrap()
        ));
        assert!(std::ptr::eq(
            donor.social_cache().unwrap(),
            sibling.social_cache().unwrap()
        ));
        // And identical answers, of course.
        for &user in &query_users {
            for algorithm in Algorithm::ALL {
                let a = donor.run(&request(user, 6, 0.4, algorithm)).unwrap();
                let b = sibling.run(&request(user, 6, 0.4, algorithm)).unwrap();
                assert_eq!(a.ranked, b.ranked, "{}", algorithm.name());
            }
        }
    }

    #[test]
    fn adopted_lazy_cache_slot_is_built_once_and_shared() {
        let query_users = [0u32, 7];
        let donor = GeoSocialEngine::builder(dataset())
            .granularity(4)
            .cache_social_neighbors(query_users.to_vec(), 60)
            .build()
            .unwrap();
        let sibling = GeoSocialEngine::builder(donor.dataset().clone())
            .granularity(4)
            .share_graph_artifacts_with(&donor)
            .build()
            .unwrap();
        assert!(donor.social_cache().is_none());
        assert!(sibling.social_cache().is_none());
        // The *sibling* triggers the lazy build; the donor observes it.
        sibling
            .run(&request(0, 5, 0.4, Algorithm::SfaCached))
            .unwrap();
        let built = sibling.social_cache().unwrap();
        assert!(std::ptr::eq(built, donor.social_cache().unwrap()));
        // install_social_cache detaches only the installing engine.
        let mut detached = sibling.clone();
        detached
            .install_social_cache(SocialNeighborCache::build(
                detached.dataset().graph(),
                &query_users,
                30,
            ))
            .unwrap();
        assert!(!std::ptr::eq(built, detached.social_cache().unwrap()));
        assert!(std::ptr::eq(built, donor.social_cache().unwrap()));
    }

    #[test]
    fn share_graph_artifacts_with_rejects_foreign_cores() {
        let donor = GeoSocialEngine::builder(dataset())
            .granularity(4)
            .build()
            .unwrap();
        // Structurally identical dataset, but an independent core.
        let err = GeoSocialEngine::builder(dataset())
            .granularity(4)
            .share_graph_artifacts_with(&donor)
            .build();
        assert!(matches!(err, Err(CoreError::InvalidParameter(_))));
    }

    #[test]
    fn installed_social_cache_must_cover_only_known_users() {
        let cache = SocialNeighborCache::build(dataset().graph(), &[0, 7, 49], 10);
        let small = {
            let graph = GraphBuilder::from_edges(3, vec![(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
            let locations = vec![Some(Point::new(0.1, 0.2)); 3];
            GeoSocialDataset::new(graph, locations).unwrap()
        };
        let mut engine = GeoSocialEngine::builder(small)
            .landmarks(2)
            .build()
            .unwrap();
        // The cache covers user 49; a 3-user engine must reject it and stay
        // without a cache.
        let err = engine.install_social_cache(cache);
        assert!(matches!(err, Err(CoreError::InvalidParameter(_))));
        assert!(engine.social_cache().is_none());
        assert!(matches!(
            engine.run(&request(0, 2, 0.5, Algorithm::SfaCached)),
            Err(CoreError::MissingIndex(_))
        ));
    }
}
