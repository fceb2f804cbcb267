//! Per-worker reusable query state.
//!
//! Every SSRQ algorithm runs at least one graph search; [`QueryContext`]
//! owns the scratch buffers those searches draw from, so a worker that
//! processes many queries allocates the dense `O(|V|)` state once instead of
//! per query.  See [`SearchScratch`](ssrq_graph::SearchScratch) for the
//! epoch-versioning mechanics.

use ssrq_graph::{ChQueryScratch, SearchScratch};

/// Reusable per-worker state for query processing.
///
/// Create one per worker thread (or one for a single-threaded query loop)
/// and pass it to
/// [`GeoSocialEngine::run_with`](crate::GeoSocialEngine::run_with); the
/// batch API ([`GeoSocialEngine::run_batch`](crate::GeoSocialEngine::run_batch))
/// maintains one context per worker internally.
///
/// A context carries no query *results* — only working storage — and every
/// search resets its scratch before use, so reusing a context can never
/// change the answer of a query (the test-suite asserts this).  The one
/// place where searches deliberately build on each other is
/// [`QueryContext::share_social_expansion`].
#[derive(Debug, Clone, Default)]
pub struct QueryContext {
    /// Scratch for the query-rooted social expansion (Dijkstra / shared
    /// forward search) every algorithm performs.
    pub(crate) social: SearchScratch,
    /// Scratch for Contraction Hierarchies point-to-point queries (the
    /// `*-CH` baselines).
    pub(crate) ch: ChQueryScratch,
}

impl QueryContext {
    /// An empty context; buffers grow on first use.
    pub fn new() -> Self {
        QueryContext::default()
    }

    /// A context pre-sized for graphs of up to `n` vertices, avoiding the
    /// one-time growth on the first query.
    pub fn with_capacity(n: usize) -> Self {
        QueryContext {
            social: SearchScratch::with_capacity(n),
            ch: ChQueryScratch::default(),
        }
    }

    /// Number of vertices the social scratch currently covers.
    pub fn capacity(&self) -> usize {
        self.social.capacity()
    }

    /// The social-expansion scratch, for callers that run their own graph
    /// searches (e.g. path reconstruction after a query) and want to share
    /// this context's storage.
    pub fn social_scratch(&mut self) -> &mut SearchScratch {
        &mut self.social
    }

    /// How many graph searches have reused this context so far.
    pub fn searches(&self) -> u64 {
        self.social.resets()
    }

    /// Runs `f` with the query-rooted social expansion **shared** between
    /// the queries it issues through this context.
    ///
    /// This is for a coordinator that answers *one* request by running it
    /// several times over engines that hold different location subsets of
    /// one dataset (the arms of a sharded scatter).  Every such run expands
    /// the same graph from the same query user, so inside the scope the
    /// expansion the first run leaves behind is resumed by the next instead
    /// of being repeated: sorted-access algorithms (SFA, SPA, TSA, the
    /// oracle) replay the settled prefix and continue, AIS inherits every
    /// settled distance as a cache hit and meets the inherited expansion
    /// with its per-candidate reverse searches (those are never shared).
    /// Answers are exactly those of unshared runs, and so is every decision
    /// of the sorted-access algorithms — see
    /// [`IncrementalDijkstra`](ssrq_graph::IncrementalDijkstra) — only
    /// [`QueryStats::relaxed_edges`](crate::QueryStats::relaxed_edges)
    /// drops, to the edges each run relaxed itself.
    ///
    /// A query for a different user, or over a dataset with a different
    /// graph, simply starts (and then shares) its own expansion.  Nothing is
    /// carried into or out of the scope, panics included.
    pub fn share_social_expansion<R>(&mut self, f: impl FnOnce(&mut QueryContext) -> R) -> R {
        struct Scope<'a>(&'a mut QueryContext);
        impl Drop for Scope<'_> {
            fn drop(&mut self) {
                self.0.social.share_expansions(false);
            }
        }
        self.social.share_expansions(true);
        let scope = Scope(self);
        f(&mut *scope.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contexts_start_empty_and_grow() {
        let ctx = QueryContext::new();
        assert_eq!(ctx.capacity(), 0);
        assert_eq!(ctx.searches(), 0);
        let sized = QueryContext::with_capacity(64);
        assert_eq!(sized.capacity(), 64);
    }
}
