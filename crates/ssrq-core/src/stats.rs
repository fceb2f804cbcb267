use std::time::Duration;

/// Work counters collected while processing one SSRQ query.
///
/// The paper's evaluation reports run-time and the *pop ratio*
/// `|V_pop| / |V|`, where `V_pop` are the vertices popped from the search
/// heaps; both are derivable from this structure.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueryStats {
    /// Users/vertices popped from the algorithm's *own* search heap(s) —
    /// the Dijkstra heap for SFA, the NN stream for SPA, both for TSA, and
    /// the aggregate-index heap `H` for AIS.  This matches the paper's
    /// `|V_pop|` definition and is the numerator of the pop ratio.
    pub vertex_pops: usize,
    /// Vertices popped (settled) by social-graph searches: the query-rooted
    /// Dijkstra expansions, forward searches and reverse searches
    /// (including the work done inside the AIS graph-distance submodule).
    pub social_pops: usize,
    /// Entries (cells and users) popped from spatial search heaps.
    pub spatial_pops: usize,
    /// Entries popped from the AIS aggregate-index heap.
    pub index_pops: usize,
    /// Users whose exact ranking value was computed.
    pub evaluated_users: usize,
    /// Exact point-to-point graph-distance computations requested.
    pub distance_calls: usize,
    /// Distance computations answered from a cache (distance caching /
    /// pre-computed lists).
    pub cache_hits: usize,
    /// Users re-inserted into the AIS heap by the delayed-evaluation
    /// strategy.
    pub delayed_reinsertions: usize,
    /// Edge relaxations attempted by the query's social-graph searches (the
    /// query-rooted Dijkstra expansions and the bidirectional searches of
    /// the AIS distance submodule; Contraction Hierarchies queries are not
    /// counted).  Fresh work only: a query that resumes the expansion of an
    /// earlier one ([`QueryContext::share_social_expansion`](crate::QueryContext::share_social_expansion))
    /// counts the edges it relaxed itself, so the arms of a sharded scatter
    /// sum to what was actually done.  Relaxations dominate graph-search
    /// run-time, so this is the timing-free effort metric the early-exit
    /// streaming tests compare between a full run and a `take(1)` stream.
    pub relaxed_edges: usize,
    /// The part of `social_pops` settled by per-call searches from a
    /// candidate's side: the reverse half of the AIS distance submodule,
    /// with its completion step.  Zero for every other algorithm.
    pub reverse_settles: usize,
    /// The part of `relaxed_edges` relaxed by the searches counted in
    /// `reverse_settles`; `relaxed_edges − reverse_relaxed_edges` is the
    /// query-rooted (forward) work.
    pub reverse_relaxed_edges: usize,
    /// Result entries whose membership *and* rank were already fixed before
    /// the search completed — the incremental-threshold property of the
    /// paper's algorithms that [`QuerySession::stream`](crate::QuerySession::stream)
    /// surfaces.  Zero for drain-after-complete algorithms (e.g. the
    /// exhaustive oracle).
    pub streamable_results: usize,
    /// Bytes written to remote shards while answering this query (frame
    /// headers included).  Zero on every in-process path — only a
    /// socket-backed coordinator (`ssrq-net`) moves bytes.
    pub bytes_sent: usize,
    /// Bytes read back from remote shards (frame headers included).  Zero
    /// on every in-process path.
    pub bytes_received: usize,
    /// Request/response round trips to remote shards (queries, origin
    /// lookups — every frame pair the query paid for).  Zero on every
    /// in-process path.
    pub wire_round_trips: usize,
    /// Wall-clock processing time.
    pub runtime: Duration,
}

impl QueryStats {
    /// The paper's pop ratio: popped vertices divided by `|V|`.
    pub fn pop_ratio(&self, graph_vertices: usize) -> f64 {
        if graph_vertices == 0 {
            return 0.0;
        }
        self.vertex_pops as f64 / graph_vertices as f64
    }

    /// Merges the counters of another query into this one (used when an
    /// algorithm falls back to another, e.g. the pre-computation method
    /// falling back to AIS).
    pub fn absorb(&mut self, other: &QueryStats) {
        self.add_work(other);
        self.runtime += other.runtime;
    }

    /// Merges the counters of a query that ran **concurrently** with this
    /// one — the interleaved arms of a cross-shard stream, a remote
    /// coordinator's origin lookups beside its scatter.
    ///
    /// The semantics differ from [`QueryStats::absorb`] (sequential
    /// composition) in one place: `runtime` becomes the **maximum** of the
    /// two, because overlapping searches share the wall clock.  (A
    /// scatter-gather coordinator sums its shards' work with this and then
    /// overwrites `runtime` with its own wall clock: its arms may not
    /// overlap at all.)  Every *work*
    /// counter still sums — total pops, evaluations, distance calls and
    /// `relaxed_edges` measure machine effort, which is additive across
    /// workers.  `streamable_results` also sums: each shard's finalized
    /// entries were final under that shard's own threshold, and the
    /// cross-shard streaming merge can emit an entry as soon as every
    /// shard's bound passes it, so the per-shard counts add up to the
    /// entries deliverable before full completion (capped at `k` by the
    /// merge itself).
    pub fn merge(&mut self, other: &QueryStats) {
        self.add_work(other);
        self.runtime = self.runtime.max(other.runtime);
    }

    fn add_work(&mut self, other: &QueryStats) {
        self.vertex_pops += other.vertex_pops;
        self.social_pops += other.social_pops;
        self.spatial_pops += other.spatial_pops;
        self.index_pops += other.index_pops;
        self.evaluated_users += other.evaluated_users;
        self.distance_calls += other.distance_calls;
        self.cache_hits += other.cache_hits;
        self.delayed_reinsertions += other.delayed_reinsertions;
        self.relaxed_edges += other.relaxed_edges;
        self.reverse_settles += other.reverse_settles;
        self.reverse_relaxed_edges += other.reverse_relaxed_edges;
        self.streamable_results += other.streamable_results;
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.wire_round_trips += other.wire_round_trips;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pop_ratio_divides_by_graph_size() {
        let stats = QueryStats {
            vertex_pops: 25,
            ..QueryStats::default()
        };
        assert!((stats.pop_ratio(100) - 0.25).abs() < 1e-12);
        assert_eq!(stats.pop_ratio(0), 0.0);
    }

    #[test]
    fn absorb_sums_counters() {
        let mut a = QueryStats {
            vertex_pops: 9,
            social_pops: 1,
            spatial_pops: 2,
            index_pops: 3,
            evaluated_users: 4,
            distance_calls: 5,
            cache_hits: 6,
            delayed_reinsertions: 7,
            relaxed_edges: 11,
            reverse_settles: 1,
            reverse_relaxed_edges: 5,
            streamable_results: 2,
            bytes_sent: 100,
            bytes_received: 200,
            wire_round_trips: 3,
            runtime: Duration::from_millis(10),
        };
        let b = a;
        a.absorb(&b);
        assert_eq!(a.vertex_pops, 18);
        assert_eq!(a.social_pops, 2);
        assert_eq!(a.spatial_pops, 4);
        assert_eq!(a.index_pops, 6);
        assert_eq!(a.evaluated_users, 8);
        assert_eq!(a.distance_calls, 10);
        assert_eq!(a.cache_hits, 12);
        assert_eq!(a.delayed_reinsertions, 14);
        assert_eq!(a.relaxed_edges, 22);
        assert_eq!(a.reverse_settles, 2);
        assert_eq!(a.reverse_relaxed_edges, 10);
        assert_eq!(a.streamable_results, 4);
        assert_eq!(a.bytes_sent, 200);
        assert_eq!(a.bytes_received, 400);
        assert_eq!(a.wire_round_trips, 6);
        assert_eq!(a.runtime, Duration::from_millis(20));
    }

    #[test]
    fn merge_sums_work_but_takes_the_runtime_maximum() {
        let mut a = QueryStats {
            vertex_pops: 9,
            social_pops: 1,
            relaxed_edges: 11,
            streamable_results: 2,
            bytes_sent: 10,
            wire_round_trips: 1,
            runtime: Duration::from_millis(10),
            ..QueryStats::default()
        };
        let b = QueryStats {
            vertex_pops: 4,
            social_pops: 6,
            relaxed_edges: 3,
            streamable_results: 5,
            bytes_sent: 30,
            bytes_received: 7,
            wire_round_trips: 2,
            runtime: Duration::from_millis(25),
            ..QueryStats::default()
        };
        a.merge(&b);
        // Work counters are additive across concurrent searches...
        assert_eq!(a.vertex_pops, 13);
        assert_eq!(a.social_pops, 7);
        assert_eq!(a.relaxed_edges, 14);
        assert_eq!(a.streamable_results, 7);
        // ...and so is the wire traffic the searches paid for.
        assert_eq!(a.bytes_sent, 40);
        assert_eq!(a.bytes_received, 7);
        assert_eq!(a.wire_round_trips, 3);
        // ...but overlapping wall-clock is bounded by the slowest worker.
        assert_eq!(a.runtime, Duration::from_millis(25));
        // Merging a faster worker leaves the runtime untouched.
        a.merge(&QueryStats {
            runtime: Duration::from_millis(1),
            ..QueryStats::default()
        });
        assert_eq!(a.runtime, Duration::from_millis(25));
    }

    #[test]
    fn merge_and_absorb_agree_on_everything_but_runtime() {
        let sample = QueryStats {
            vertex_pops: 3,
            evaluated_users: 2,
            distance_calls: 7,
            cache_hits: 1,
            delayed_reinsertions: 4,
            index_pops: 5,
            spatial_pops: 6,
            relaxed_edges: 8,
            reverse_settles: 3,
            reverse_relaxed_edges: 4,
            streamable_results: 1,
            bytes_sent: 12,
            bytes_received: 34,
            wire_round_trips: 2,
            runtime: Duration::from_millis(5),
            social_pops: 9,
        };
        let mut merged = sample;
        merged.merge(&sample);
        let mut absorbed = sample;
        absorbed.absorb(&sample);
        let strip = |mut s: QueryStats| {
            s.runtime = Duration::ZERO;
            s
        };
        assert_eq!(strip(merged), strip(absorbed));
        assert_eq!(merged.runtime, Duration::from_millis(5));
        assert_eq!(absorbed.runtime, Duration::from_millis(10));
    }

    #[test]
    fn default_stats_are_zeroed() {
        let stats = QueryStats::default();
        assert_eq!(stats.social_pops, 0);
        assert_eq!(stats.evaluated_users, 0);
        assert_eq!(stats.runtime, Duration::ZERO);
    }
}
