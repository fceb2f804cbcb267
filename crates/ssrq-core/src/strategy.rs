//! Pluggable algorithm strategies.
//!
//! Every SSRQ processing algorithm is packaged as an [`AlgorithmStrategy`]:
//! an object that names itself, declares which auxiliary indexes it needs
//! ([`AlgorithmStrategy::requires`]), and executes a [`QueryRequest`]
//! against an engine.  [`GeoSocialEngine`] dispatches every query through
//! its [`StrategyRegistry`], so downstream crates can add algorithms (or
//! wrap built-ins with instrumentation) without touching the engine core —
//! see [`GeoSocialEngine::register_strategy`].

use crate::ais::{ais_query, AisDriver, AisVariant};
use crate::algorithms::{
    CachedDriver, ExhaustiveDriver, SfaChDriver, SfaDriver, SpaDriver, SpaOptions, TsaDriver,
    TsaOptions,
};
use crate::driver::{EagerDriver, QueryDriver};
use crate::{Algorithm, CoreError, GeoSocialEngine, QueryContext, QueryRequest, QueryResult};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// The auxiliary indexes a strategy needs before it can execute.
///
/// The engine resolves these ahead of [`AlgorithmStrategy::execute`]: a
/// declared-but-unbuilt index is built on the spot (see
/// [`EngineBuilder::with_ch`](crate::EngineBuilder::with_ch) /
/// [`EngineBuilder::cache_social_neighbors`](crate::EngineBuilder::cache_social_neighbors)),
/// an undeclared one yields [`CoreError::MissingIndex`] instead of a panic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexRequirements {
    /// The strategy issues Contraction Hierarchies point-to-point queries.
    pub contraction_hierarchy: bool,
    /// The strategy reads the pre-computed social neighbour lists (§5.4).
    pub social_cache: bool,
}

impl IndexRequirements {
    /// No auxiliary index needed (the default for the vanilla algorithms).
    pub const NONE: IndexRequirements = IndexRequirements {
        contraction_hierarchy: false,
        social_cache: false,
    };

    /// Requirement set of the `*-CH` baselines.
    pub const CONTRACTION_HIERARCHY: IndexRequirements = IndexRequirements {
        contraction_hierarchy: true,
        social_cache: false,
    };

    /// Requirement set of the pre-computation method.
    pub const SOCIAL_CACHE: IndexRequirements = IndexRequirements {
        contraction_hierarchy: false,
        social_cache: true,
    };
}

/// One SSRQ processing algorithm, packaged for registry dispatch.
///
/// Implementations must be exact: for the same engine and request they must
/// return the same user set and scores as the exhaustive oracle (that is
/// the contract the paper's evaluation, and this crate's test-suite, is
/// built on).  `Send + Sync` is required so a registered strategy can serve
/// the parallel batch path.
pub trait AlgorithmStrategy: Send + Sync {
    /// The name the strategy is registered (and requested) under, e.g.
    /// `"AIS"`.
    fn name(&self) -> &str;

    /// The auxiliary indexes the strategy needs; the engine resolves them
    /// (lazily building declared ones) before calling
    /// [`AlgorithmStrategy::execute`].
    fn requires(&self) -> IndexRequirements {
        IndexRequirements::NONE
    }

    /// Processes one request, drawing all mutable search state from `ctx`.
    fn execute(
        &self,
        engine: &GeoSocialEngine,
        request: &QueryRequest,
        ctx: &mut QueryContext,
    ) -> Result<QueryResult, CoreError>;

    /// Starts a pull-lazy execution of one request, returning a resumable
    /// [`QueryDriver`] that borrows the engine's indexes and `ctx` for its
    /// lifetime.  A fully driven machine yields the exact result
    /// [`AlgorithmStrategy::execute`] computes.
    ///
    /// The default implementation executes the request **eagerly** and
    /// wraps the finished result in an [`EagerDriver`]
    /// (drain-after-complete), so custom strategies are streamable without
    /// writing a state machine — they just gain no first-result latency.
    /// The built-in strategies override this with genuinely incremental
    /// drivers.
    ///
    /// # Errors
    ///
    /// Whatever [`AlgorithmStrategy::execute`] (or driver construction)
    /// reports for the request — typically
    /// [`CoreError::InvalidParameter`] / [`CoreError::UnknownUser`].
    fn begin_stream<'a>(
        &'a self,
        engine: &'a GeoSocialEngine,
        request: &QueryRequest,
        ctx: &'a mut QueryContext,
    ) -> Result<Box<dyn QueryDriver + 'a>, CoreError> {
        Ok(Box::new(EagerDriver::new(
            self.execute(engine, request, ctx)?,
        )))
    }
}

/// The strategies an engine dispatches to, keyed by name.
///
/// A fresh registry ([`StrategyRegistry::with_builtins`]) holds the twelve
/// algorithms of the paper under their figure labels (`"EXH"`, `"SFA"`,
/// `"SPA"`, `"TSA"`, `"TSA-QC"`, `"AIS-BID"`, `"AIS-"`, `"AIS"`,
/// `"SFA-CH"`, `"SPA-CH"`, `"TSA-CH"`, `"AIS-Cache"`).
#[derive(Clone, Default)]
pub struct StrategyRegistry {
    by_name: HashMap<String, Arc<dyn AlgorithmStrategy>>,
}

impl StrategyRegistry {
    /// An empty registry (no algorithms at all — rarely what you want).
    pub fn empty() -> Self {
        StrategyRegistry::default()
    }

    /// A registry holding the twelve built-in algorithms.
    pub fn with_builtins() -> Self {
        let mut registry = StrategyRegistry::empty();
        for algorithm in Algorithm::ALL {
            registry.register(builtin_strategy(algorithm));
        }
        registry
    }

    /// Registers `strategy` under [`AlgorithmStrategy::name`], returning
    /// the strategy previously held under that name (so built-ins can be
    /// wrapped or replaced).
    pub fn register(
        &mut self,
        strategy: Arc<dyn AlgorithmStrategy>,
    ) -> Option<Arc<dyn AlgorithmStrategy>> {
        self.by_name.insert(strategy.name().to_owned(), strategy)
    }

    /// Looks a strategy up by name.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownAlgorithm`] when nothing is registered under
    /// `name`.
    pub fn resolve(&self, name: &str) -> Result<&Arc<dyn AlgorithmStrategy>, CoreError> {
        self.by_name
            .get(name)
            .ok_or_else(|| CoreError::UnknownAlgorithm(name.to_owned()))
    }

    /// Number of registered strategies.
    pub fn len(&self) -> usize {
        self.by_name.len()
    }

    /// Returns `true` when no strategy is registered.
    pub fn is_empty(&self) -> bool {
        self.by_name.is_empty()
    }

    /// The registered names, sorted.
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.by_name.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }
}

impl fmt::Debug for StrategyRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StrategyRegistry")
            .field("strategies", &self.names())
            .finish()
    }
}

/// The built-in strategy object for `algorithm`.
///
/// [`Algorithm::Auto`] yields a *detached* [`PlannerStrategy`]: one that
/// chooses by the planner's rule like any other, but whose private planner
/// has the hot-result cache disabled, because a free-standing strategy
/// object is not wired into any engine's location churn hooks.  Engines
/// register a cache-enabled planner strategy of their own at construction
/// time, so this arm only serves callers that build registries by hand.
///
/// [`PlannerStrategy`]: crate::PlannerStrategy
pub fn builtin_strategy(algorithm: Algorithm) -> Arc<dyn AlgorithmStrategy> {
    if algorithm == Algorithm::Auto {
        return Arc::new(crate::PlannerStrategy::detached());
    }
    Arc::new(BuiltinStrategy { algorithm })
}

/// Adapter packaging one built-in [`Algorithm`] as a strategy.
///
/// This is the *only* place that still distinguishes the built-in variants,
/// and it does so at registration time — the engine's dispatch path is a
/// pure name lookup.
struct BuiltinStrategy {
    algorithm: Algorithm,
}

impl AlgorithmStrategy for BuiltinStrategy {
    fn name(&self) -> &str {
        self.algorithm.name()
    }

    fn requires(&self) -> IndexRequirements {
        match self.algorithm {
            Algorithm::SfaCh | Algorithm::SpaCh | Algorithm::TsaCh => {
                IndexRequirements::CONTRACTION_HIERARCHY
            }
            Algorithm::SfaCached => IndexRequirements::SOCIAL_CACHE,
            _ => IndexRequirements::NONE,
        }
    }

    fn execute(
        &self,
        engine: &GeoSocialEngine,
        request: &QueryRequest,
        ctx: &mut QueryContext,
    ) -> Result<QueryResult, CoreError> {
        self.begin_stream(engine, request, ctx)?.run_to_completion()
    }

    fn begin_stream<'a>(
        &'a self,
        engine: &'a GeoSocialEngine,
        request: &QueryRequest,
        ctx: &'a mut QueryContext,
    ) -> Result<Box<dyn QueryDriver + 'a>, CoreError> {
        let dataset = engine.dataset();
        Ok(match self.algorithm {
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
                TsaOptions {
                    quick_combine: false,
                    landmarks: Some(engine.landmarks()),
                    ch_phase2: None,
                },
                ctx,
            )?),
            Algorithm::TsaQc => Box::new(TsaDriver::new(
                dataset,
                engine.grid(),
                request,
                TsaOptions {
                    quick_combine: true,
                    landmarks: Some(engine.landmarks()),
                    ch_phase2: None,
                },
                ctx,
            )?),
            Algorithm::AisBid => Box::new(AisDriver::new(
                dataset,
                engine.ais_index(),
                engine.landmarks(),
                request,
                AisVariant::bid(),
                ctx,
            )?),
            Algorithm::AisMinus => Box::new(AisDriver::new(
                dataset,
                engine.ais_index(),
                engine.landmarks(),
                request,
                AisVariant::minus(),
                ctx,
            )?),
            Algorithm::Ais => Box::new(AisDriver::new(
                dataset,
                engine.ais_index(),
                engine.landmarks(),
                request,
                AisVariant::full(),
                ctx,
            )?),
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
                    TsaOptions {
                        quick_combine: false,
                        landmarks: Some(engine.landmarks()),
                        ch_phase2: Some(ch),
                    },
                    ctx,
                )?)
            }
            Algorithm::SfaCached => {
                let cache = engine.require_social_cache()?;
                Box::new(CachedDriver::new(dataset, cache, request, {
                    move |fallback_request: &QueryRequest| {
                        ais_query(
                            dataset,
                            engine.ais_index(),
                            engine.landmarks(),
                            fallback_request,
                            AisVariant::full(),
                            ctx,
                        )
                    }
                })?)
            }
            Algorithm::Auto => {
                return Err(CoreError::UnknownAlgorithm(
                    "AUTO has no built-in executor; use PlannerStrategy".to_owned(),
                ))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_registry_holds_all_twelve_algorithms() {
        let registry = StrategyRegistry::with_builtins();
        assert_eq!(registry.len(), Algorithm::ALL.len());
        assert!(!registry.is_empty());
        for algorithm in Algorithm::ALL {
            let strategy = registry.resolve(algorithm.name()).unwrap();
            assert_eq!(strategy.name(), algorithm.name());
        }
        assert!(matches!(
            registry.resolve("NOPE"),
            Err(CoreError::UnknownAlgorithm(_))
        ));
    }

    #[test]
    fn builtin_requirements_match_algorithm_flags() {
        for algorithm in Algorithm::ALL {
            let strategy = builtin_strategy(algorithm);
            let requires = strategy.requires();
            assert_eq!(requires.contraction_hierarchy, algorithm.needs_ch());
            assert_eq!(requires.social_cache, algorithm.needs_social_cache());
        }
    }

    #[test]
    fn registry_register_replaces_and_reports_previous() {
        let mut registry = StrategyRegistry::with_builtins();
        let replaced = registry.register(builtin_strategy(Algorithm::Ais));
        assert!(replaced.is_some());
        assert_eq!(registry.len(), Algorithm::ALL.len());
    }

    #[test]
    fn names_are_sorted_and_unique() {
        let registry = StrategyRegistry::with_builtins();
        let names = registry.names();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(names, sorted);
    }
}
