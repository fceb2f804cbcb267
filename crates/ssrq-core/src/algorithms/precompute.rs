use crate::driver::{AnswerBook, Search, StepOutcome};
use crate::{CoreError, QueryRequest, QueryResult, UserId};
use ssrq_graph::{IncrementalDijkstra, SearchScratch, SocialGraph};
use std::collections::HashMap;

/// Pre-computed lists of the `t` socially closest vertices per user (§5.4 of
/// the paper).
///
/// Materializing the lists for *every* user costs `Θ(t · |V|)` memory (the
/// paper notes that even the full all-pairs matrix would need ~16 TB for
/// Foursquare); since only query users ever read their list, the cache is
/// built for an explicit set of users — typically the query workload.
#[derive(Debug, Clone)]
pub struct SocialNeighborCache {
    t: usize,
    lists: HashMap<UserId, Vec<(UserId, f64)>>,
}

impl SocialNeighborCache {
    /// Pre-computes, for each user in `users`, its `t` socially closest
    /// vertices (excluding itself) in ascending distance order.
    pub fn build(graph: &SocialGraph, users: &[UserId], t: usize) -> Self {
        let mut lists = HashMap::with_capacity(users.len());
        // One scratch backs the expansion of every pre-computed user.
        let mut scratch = SearchScratch::with_capacity(graph.node_count());
        for &user in users {
            if !graph.contains(user) {
                continue;
            }
            let mut search = IncrementalDijkstra::new(graph, user, &mut scratch);
            let mut list = Vec::with_capacity(t);
            while list.len() < t {
                match search.next_settled(graph) {
                    Some((v, d)) if v != user => list.push((v, d)),
                    Some(_) => {}
                    None => break,
                }
            }
            lists.insert(user, list);
        }
        SocialNeighborCache { t, lists }
    }

    /// The configured list length `t`.
    pub fn t(&self) -> usize {
        self.t
    }

    /// The users the cache holds a list for (arbitrary order).
    pub fn covered(&self) -> impl Iterator<Item = UserId> + '_ {
        self.lists.keys().copied()
    }

    /// The pre-computed list of `user`, if it was built.
    pub fn neighbors(&self, user: UserId) -> Option<&[(UserId, f64)]> {
        self.lists.get(&user).map(|v| v.as_slice())
    }

    /// Approximate memory footprint of the cache in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.lists
            .values()
            .map(|v| v.len() * std::mem::size_of::<(UserId, f64)>())
            .sum()
    }
}

/// The pre-computation method (§5.4, "AIS-Cache" in Figure 11) as a
/// resumable search: the SFA loop over the cached, already-sorted social
/// neighbour list of the query user, one cached entry per step, with a lazy
/// fallback when the cache proves insufficient.
///
/// Because a mid-scan step cannot yet know whether the list will terminate
/// the search or exhaust into the fallback (which *replaces* the interim
/// result), this search is **drain-after-complete**: nothing is drained
/// early and the whole result arrives at
/// [`QueryDriver::take_result`](crate::QueryDriver::take_result).
#[derive(Debug)]
pub(crate) struct CachedDriver<'a, F> {
    /// The cached list of the query user; `None` when the cache does not
    /// cover the user (the fallback runs on the first step).
    list: Option<&'a [(UserId, f64)]>,
    /// The configured list length `t` of the cache the list came from.
    t: usize,
    idx: usize,
    fallback: Option<F>,
}

impl<'a, F> CachedDriver<'a, F>
where
    F: FnOnce(&QueryRequest) -> Result<QueryResult, CoreError>,
{
    /// A cached-list search for `user`; `fallback` is invoked lazily, only
    /// when the cache proves insufficient, and must produce a complete
    /// result.
    pub(crate) fn new(cache: &'a SocialNeighborCache, user: UserId, fallback: F) -> Self {
        CachedDriver {
            list: cache.neighbors(user),
            t: cache.t(),
            idx: 0,
            fallback: Some(fallback),
        }
    }

    /// Completes with the fallback's result, which absorbs the scan's
    /// counters (none when the list was missing).  Nothing reached the
    /// caller before completion, so no entry counts as streamable.
    fn fall_back(&mut self, book: &mut AnswerBook<'_>) -> StepOutcome {
        let fallback = self.fallback.take().expect("cached fallback invoked twice");
        let result = fallback(&book.request).map(|mut result| {
            book.stats.absorb(&result.stats);
            result.stats = book.stats;
            result.stats.streamable_results = 0;
            result
        });
        book.finish(result)
    }
}

impl<F> Search for CachedDriver<'_, F>
where
    F: FnOnce(&QueryRequest) -> Result<QueryResult, CoreError>,
{
    const STREAMS: bool = false;

    fn step(&mut self, book: &mut AnswerBook<'_>) -> StepOutcome {
        let Some(list) = self.list else {
            // No list for this user: defer to the fallback entirely.
            return self.fall_back(book);
        };
        let Some(&(user, raw_social)) = list.get(self.idx) else {
            // A list shorter than `t` means the whole component was
            // materialized — the remaining users are socially unreachable
            // and cannot qualify.
            if list.len() >= self.t {
                // The cache is exhausted but the termination condition never
                // held: the correct answer may involve users beyond the
                // cached horizon.
                return self.fall_back(book);
            }
            book.topk.raise_threshold(f64::INFINITY);
            return StepOutcome::Complete;
        };
        self.idx += 1;
        book.stats.cache_hits += 1;
        book.stats.vertex_pops += 1;
        book.offer(user, raw_social);
        if book.raise(book.ctx.stop_bound(raw_social)) {
            StepOutcome::Complete
        } else {
            StepOutcome::Progress
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::exhaustive;
    use crate::driver::{Driven, QueryDriver};
    use crate::GeoSocialDataset;
    use ssrq_graph::GraphBuilder;
    use ssrq_spatial::Point;

    fn cached(
        dataset: &GeoSocialDataset,
        cache: &SocialNeighborCache,
        request: &QueryRequest,
        fallback: impl FnOnce(&QueryRequest) -> Result<QueryResult, CoreError>,
    ) -> Result<QueryResult, CoreError> {
        let book = AnswerBook::open(dataset, request)?;
        let search = CachedDriver::new(cache, request.user(), fallback);
        Driven::new(book, search).run_to_completion()
    }

    fn req(user: u32, k: usize, alpha: f64) -> QueryRequest {
        QueryRequest::for_user(user)
            .k(k)
            .alpha(alpha)
            .build()
            .unwrap()
    }

    fn dataset() -> GeoSocialDataset {
        let n = 30u32;
        let mut builder = GraphBuilder::new(n as usize);
        for i in 0..n {
            builder
                .add_edge(i, (i + 1) % n, 0.5 + (i % 4) as f64 * 0.25)
                .unwrap();
        }
        for i in (0..n).step_by(5) {
            builder.add_edge(i, (i + 9) % n, 1.1).unwrap();
        }
        let graph = builder.build();
        let locations: Vec<Option<Point>> = (0..n)
            .map(|i| {
                Some(Point::new(
                    ((i as f64) * 0.55) % 1.0,
                    ((i as f64) * 0.31) % 1.0,
                ))
            })
            .collect();
        GeoSocialDataset::new(graph, locations).unwrap()
    }

    #[test]
    fn cache_lists_are_sorted_and_bounded() {
        let dataset = dataset();
        let cache = SocialNeighborCache::build(dataset.graph(), &[0, 5, 10], 7);
        assert_eq!(cache.t(), 7);
        assert_eq!(cache.covered().count(), 3);
        assert!(cache.memory_bytes() > 0);
        for user in [0u32, 5, 10] {
            let list = cache.neighbors(user).unwrap();
            assert!(list.len() <= 7);
            for w in list.windows(2) {
                assert!(w[0].1 <= w[1].1);
            }
            assert!(list.iter().all(|&(v, _)| v != user));
        }
        assert!(cache.neighbors(3).is_none());
    }

    #[test]
    fn large_cache_answers_without_fallback() {
        let dataset = dataset();
        // t as large as the graph: the cache can always terminate on its own.
        let cache = SocialNeighborCache::build(dataset.graph(), &[0, 12], 30);
        for user in [0u32, 12] {
            for &alpha in &[0.3, 0.7] {
                let request = req(user, 5, alpha);
                let expected = exhaustive::run(&dataset, &request).unwrap();
                let got = cached(&dataset, &cache, &request, |_| {
                    panic!("fallback must not be used when the cache suffices")
                })
                .unwrap();
                assert!(got.same_users_and_scores(&expected, 1e-9));
            }
        }
    }

    #[test]
    fn small_cache_falls_back_and_stays_correct() {
        let dataset = dataset();
        let cache = SocialNeighborCache::build(dataset.graph(), &[0], 2);
        let request = req(0, 8, 0.2);
        let expected = exhaustive::run(&dataset, &request).unwrap();
        let got = cached(&dataset, &cache, &request, |p| exhaustive::run(&dataset, p)).unwrap();
        assert!(got.same_users_and_scores(&expected, 1e-9));
    }

    #[test]
    fn uncovered_user_goes_straight_to_fallback() {
        let dataset = dataset();
        let cache = SocialNeighborCache::build(dataset.graph(), &[1], 5);
        let request = req(2, 3, 0.5);
        let expected = exhaustive::run(&dataset, &request).unwrap();
        let got = cached(&dataset, &cache, &request, |p| exhaustive::run(&dataset, p)).unwrap();
        assert!(got.same_users_and_scores(&expected, 1e-9));
    }

    #[test]
    fn exhausted_component_needs_no_fallback() {
        // Two components; the query user's component is smaller than t, so
        // the cached list covers it completely and no fallback is needed.
        let graph =
            GraphBuilder::from_edges(6, vec![(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0)])
                .unwrap();
        let locations = vec![Some(Point::new(0.1, 0.1)); 6];
        let dataset = GeoSocialDataset::new(graph, locations).unwrap();
        let cache = SocialNeighborCache::build(dataset.graph(), &[0], 10);
        let request = req(0, 5, 0.5);
        let expected = exhaustive::run(&dataset, &request).unwrap();
        let got = cached(&dataset, &cache, &request, |_| {
            panic!("fallback must not run when the component is exhausted")
        })
        .unwrap();
        assert!(got.same_users_and_scores(&expected, 1e-9));
    }
}
