//! Reusable search state for the graph searches.
//!
//! Every SSRQ query runs at least one graph expansion (a Dijkstra, or the
//! shared forward search of the AIS distance module).  Allocating the dense
//! `dist` / `settled` / `parent` arrays per query costs `O(|V|)` work and
//! memory traffic *before the search settles a single vertex* — on large
//! graphs that dwarfs the work of a selective algorithm like AIS, whose
//! whole point is to touch a small neighbourhood.
//!
//! [`SearchScratch`] fixes this with epoch versioning: the arrays are
//! allocated once (per worker) and "cleared" by bumping a generation
//! counter.  An entry is valid only when its stored epoch matches the
//! current one, so starting a search is `O(1)` (amortized — the
//! arrays still grow when a larger graph is seen, and the epoch counter
//! wrap-around forces a full refresh every `u32::MAX` searches).
//!
//! The same storage makes an expansion *resumable across searches*: the
//! queue, distances and settled marks of a Dijkstra expansion all live here,
//! so inside a sharing scope ([`SearchScratch::share_expansions`]) a second
//! [`IncrementalDijkstra`](crate::IncrementalDijkstra) from the same source
//! picks the first one's expansion up where it paused instead of starting
//! over — the paper's §5.2 forward heap caching, stretched from the
//! evaluations of one search to the searches of one query.
//!
//! The Dijkstra expansion's priority queue is a monotone radix queue
//! (`queue.rs` has the mechanism and the measurements) that pops in the
//! ascending `(key, vertex)` order of the binary heap it replaced at about
//! half the cost per settle.  Its precondition — pushed keys are never
//! NaN, negative or below the key popped last — holds for Dijkstra over
//! positive weights and is a `debug_assert!`.
//!
//! Beside the forward state the scratch holds the shared-mode distance
//! engine's *reverse* state (a second radix queue, per-vertex reverse
//! distances and completion labels, the reverse-settled list) under an
//! epoch of its own: every call bumps it, so no reverse state crosses
//! calls, while the forward epoch — and with it a retained expansion —
//! stays put.  The reverse slots grow on the first reverse search only.

use crate::queue::RadixQueue;
use crate::{Distance, NodeId, SocialGraph};

/// Reusable storage for one graph search: tentative distances, settled
/// marks, shortest-path-tree parents and the Dijkstra priority queue, plus
/// the distance engine's per-call reverse search beside it.
///
/// Create one per worker (typically inside a per-query context bundle) and
/// pass it to [`IncrementalDijkstra::new`](crate::IncrementalDijkstra::new),
/// which resets it itself, so the same scratch can back any number of
/// consecutive searches without reallocating.
///
/// A scratch is exclusively borrowed by the search using it, so stale state
/// can never leak between two searches — the epoch check makes entries from
/// previous searches invisible.  The one deliberate exception is the
/// sharing scope of [`SearchScratch::share_expansions`].
#[derive(Debug, Clone, Default)]
pub struct SearchScratch {
    /// Current generation; entries are valid iff their epoch matches.
    epoch: u32,
    /// Generation in which `dist[v]` / `parent[v]` were last written.
    dist_epoch: Vec<u32>,
    /// Tentative distance of each touched vertex.
    dist: Vec<Distance>,
    /// Generation in which vertex `v` was settled.
    settled_epoch: Vec<u32>,
    /// Shortest-path-tree parent of each touched vertex.
    parent: Vec<NodeId>,
    /// The Dijkstra expansion's priority queue.
    pub(crate) queue: RadixQueue,
    /// Number of searches that have used this scratch (diagnostics).
    resets: u64,
    /// Whether a sharing scope is open (see
    /// [`SearchScratch::share_expansions`]).
    sharing: bool,
    /// `(source, graph address)` of the Dijkstra expansion whose state this
    /// scratch still holds for a same-source search to resume.  Only ever
    /// `Some` inside a sharing scope; cleared by every [`Self::begin`].
    retained: Option<(NodeId, usize)>,
    /// Whether the current expansion records its settled order although no
    /// later search resumes it (see [`Self::record_order`]).  Cleared by
    /// every [`Self::begin`].
    recording: bool,
    /// The current expansion's settled `(vertex, distance)` pairs in settle
    /// order — what a resumed sorted-access consumer replays.  Empty unless
    /// an expansion is retained or recorded.
    pub(crate) order: Vec<(NodeId, Distance)>,
    /// Position in `order` of each vertex settled by the retained expansion.
    rank: Vec<u32>,
    /// Generation of the per-call reverse search: bumped by every
    /// [`Self::begin_reverse`], independent of `epoch`, which a retained
    /// forward expansion keeps across calls.
    reverse_epoch: u32,
    /// Reverse-search state per vertex, valid iff its epochs match
    /// `reverse_epoch`.  Grown on the first reverse search, so scratches
    /// that only ever back forward expansions do not pay for it.
    reverse: Vec<ReverseSlot>,
    /// The reverse search's queue, reused by the completion step after it.
    pub(crate) reverse_queue: RadixQueue,
    /// The vertices the current reverse search settled, in settle order.
    pub(crate) reverse_settled: Vec<NodeId>,
    /// The shared-mode distance engine's table `T` (§5.2): the exact
    /// distances it computed with the reverse half, sorted by vertex.
    /// Cleared by every engine, so it lives exactly as long as one.
    pub(crate) answers: Vec<(NodeId, Distance)>,
}

/// One vertex's state in the shared-mode distance engine's per-call search
/// from the target (see `distance_engine.rs`).
#[derive(Debug, Clone, Copy, Default)]
struct ReverseSlot {
    /// Tentative (once settled: exact) distance to the target.
    dist: Distance,
    /// Forward-arithmetic label of the completion step (written for every
    /// vertex of its region before it starts).
    label: Distance,
    /// Generation in which `dist` was last written.
    touched: u32,
    /// Generation in which the vertex was settled.
    settled: u32,
}

impl SearchScratch {
    /// An empty scratch; arrays grow on first use.
    pub fn new() -> Self {
        SearchScratch::default()
    }

    /// A scratch pre-sized for graphs of up to `n` vertices.
    pub fn with_capacity(n: usize) -> Self {
        let mut scratch = SearchScratch::new();
        scratch.grow(n);
        scratch
    }

    /// Number of vertices the arrays currently cover.
    pub fn capacity(&self) -> usize {
        self.dist.len()
    }

    /// How many searches have reused this scratch so far.
    pub fn resets(&self) -> u64 {
        self.resets
    }

    /// Opens (`true`) or closes (`false`) a **sharing scope**.
    ///
    /// Inside the scope, a Dijkstra expansion started on this scratch is
    /// retained when its search is dropped, and the next
    /// [`IncrementalDijkstra::new`](crate::IncrementalDijkstra::new) over the
    /// same graph and source *resumes* it — it replays the settled prefix
    /// and then keeps expanding the retained queue — instead of starting
    /// from zero.  A search from another source or over another graph
    /// starts fresh and replaces what was retained.  Opening and closing
    /// both drop whatever was retained, so nothing crosses the scope's
    /// boundary; outside a scope every search starts fresh.
    ///
    /// The caller vouches that the graph is not mutated while the scope is
    /// open (shared borrows of an immutable graph guarantee that).
    pub fn share_expansions(&mut self, on: bool) {
        self.sharing = on;
        self.retained = None;
    }

    /// Whether this scratch holds a resumable expansion from `source` over
    /// `graph`.
    #[inline]
    pub(crate) fn retains(&self, graph: &SocialGraph, source: NodeId) -> bool {
        self.retained == Some((source, graph_address(graph)))
    }

    /// Whether the current expansion records its settled order: for later
    /// searches to resume, or for its consumer to read back.
    #[inline]
    pub(crate) fn records_order(&self) -> bool {
        self.recording || self.retained.is_some()
    }

    /// Makes the expansion just begun (or resumed) record its settled order
    /// in the reused `order` buffer, also outside a sharing scope.
    pub(crate) fn record_order(&mut self) {
        self.rank.resize(self.dist.len(), 0);
        self.recording = true;
    }

    /// Marks the expansion just begun from `source` over `graph` as one to
    /// retain — a no-op outside a sharing scope.
    pub(crate) fn retain_from(&mut self, graph: &SocialGraph, source: NodeId) {
        if self.sharing {
            self.rank.resize(self.dist.len(), 0);
            self.retained = Some((source, graph_address(graph)));
        }
    }

    /// Appends a freshly settled vertex to the retained settled order.
    #[inline]
    pub(crate) fn record_settled(&mut self, v: NodeId, d: Distance) {
        self.rank[v as usize] = self.order.len() as u32;
        self.order.push((v, d));
    }

    /// Position of `v` in the retained settled order (meaningful only for
    /// vertices settled by a retained expansion).
    #[inline]
    pub(crate) fn rank(&self, v: NodeId) -> usize {
        self.rank[v as usize] as usize
    }

    /// Starts a new search over a graph of `n` vertices: invalidates every
    /// entry (O(1) via the epoch bump), empties the queue and forgets any
    /// retained expansion.
    pub(crate) fn begin(&mut self, n: usize) {
        self.grow(n);
        self.queue.clear();
        self.order.clear();
        self.retained = None;
        self.recording = false;
        self.resets += 1;
        if self.epoch == u32::MAX {
            // Wrap-around: restart the generation sequence.  Epoch 0 must
            // not collide with old entries, so force-refresh the arrays.
            self.dist_epoch.fill(0);
            self.settled_epoch.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    fn grow(&mut self, n: usize) {
        if n > self.dist.len() {
            self.dist.resize(n, f64::INFINITY);
            self.dist_epoch.resize(n, 0);
            self.settled_epoch.resize(n, 0);
            self.parent.resize(n, 0);
        }
    }

    /// Tentative distance of `v` in the current search (`INFINITY` when the
    /// search has not touched `v`).
    #[inline]
    pub(crate) fn tentative(&self, v: NodeId) -> Distance {
        if self.dist_epoch[v as usize] == self.epoch {
            self.dist[v as usize]
        } else {
            f64::INFINITY
        }
    }

    /// Records a (tighter) tentative distance and tree parent for `v`.
    #[inline]
    pub(crate) fn set_tentative(&mut self, v: NodeId, d: Distance, parent: NodeId) {
        let slot = v as usize;
        self.dist[slot] = d;
        self.parent[slot] = parent;
        self.dist_epoch[slot] = self.epoch;
    }

    /// Whether `v` has been settled by the current search.
    #[inline]
    pub(crate) fn is_settled(&self, v: NodeId) -> bool {
        self.settled_epoch[v as usize] == self.epoch
    }

    /// Marks `v` as settled in the current search.
    #[inline]
    pub(crate) fn mark_settled(&mut self, v: NodeId) {
        self.settled_epoch[v as usize] = self.epoch;
    }

    /// Shortest-path-tree parent of `v` (meaningful only for vertices
    /// touched by the current search).
    #[inline]
    pub(crate) fn parent(&self, v: NodeId) -> NodeId {
        self.parent[v as usize]
    }

    /// Starts a reverse search over a graph of `n` vertices: invalidates
    /// the previous one's entries (O(1) via its own epoch bump) and empties
    /// its queue and settled list.  The forward state is untouched.
    pub(crate) fn begin_reverse(&mut self, n: usize) {
        if n > self.reverse.len() {
            self.reverse.resize(n, ReverseSlot::default());
        }
        self.reverse_queue.clear();
        self.reverse_settled.clear();
        if self.reverse_epoch == u32::MAX {
            self.reverse.fill(ReverseSlot::default());
            self.reverse_epoch = 1;
        } else {
            self.reverse_epoch += 1;
        }
    }

    /// Reverse tentative distance of `v` (`INFINITY` when untouched).
    #[inline]
    pub(crate) fn reverse_dist(&self, v: NodeId) -> Distance {
        let slot = &self.reverse[v as usize];
        if slot.touched == self.reverse_epoch {
            slot.dist
        } else {
            f64::INFINITY
        }
    }

    /// Records a (tighter) reverse tentative distance for `v`.
    #[inline]
    pub(crate) fn set_reverse_dist(&mut self, v: NodeId, d: Distance) {
        let slot = &mut self.reverse[v as usize];
        slot.dist = d;
        slot.touched = self.reverse_epoch;
    }

    /// Whether the current reverse search has settled `v`.
    #[inline]
    pub(crate) fn is_reverse_settled(&self, v: NodeId) -> bool {
        self.reverse[v as usize].settled == self.reverse_epoch
    }

    /// Marks `v` settled by the current reverse search and lists it.
    #[inline]
    pub(crate) fn mark_reverse_settled(&mut self, v: NodeId) {
        self.reverse[v as usize].settled = self.reverse_epoch;
        self.reverse_settled.push(v);
    }

    /// The completion step's label of `v` (meaningful only inside its
    /// region, where it is written before the step starts).
    #[inline]
    pub(crate) fn label(&self, v: NodeId) -> Distance {
        self.reverse[v as usize].label
    }

    /// Sets the completion step's label of `v`.
    #[inline]
    pub(crate) fn set_label(&mut self, v: NodeId, d: Distance) {
        self.reverse[v as usize].label = d;
    }
}

/// A graph's identity for the resume check: every search that shares one
/// expansion reads the same `SocialGraph` instance.
#[inline]
fn graph_address(graph: &SocialGraph) -> usize {
    graph as *const SocialGraph as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_invalidates_previous_entries_without_reallocating() {
        let mut s = SearchScratch::with_capacity(8);
        s.begin(8);
        s.set_tentative(3, 1.5, 0);
        s.mark_settled(3);
        assert_eq!(s.tentative(3), 1.5);
        assert!(s.is_settled(3));

        s.begin(8);
        assert!(s.tentative(3).is_infinite(), "stale distance leaked");
        assert!(!s.is_settled(3), "stale settled mark leaked");
        assert_eq!(s.capacity(), 8);
        assert_eq!(s.resets(), 2);
    }

    #[test]
    fn scratch_grows_to_the_largest_graph_seen() {
        let mut s = SearchScratch::new();
        assert_eq!(s.capacity(), 0);
        s.begin(4);
        assert_eq!(s.capacity(), 4);
        s.begin(2);
        assert_eq!(s.capacity(), 4, "capacity must not shrink");
        s.begin(100);
        assert_eq!(s.capacity(), 100);
        assert!(s.tentative(99).is_infinite());
    }

    #[test]
    fn a_reverse_search_starts_clean_and_leaves_the_forward_state_alone() {
        let mut s = SearchScratch::with_capacity(4);
        s.begin(4);
        s.set_tentative(1, 0.5, 1);
        s.mark_settled(1);
        s.reverse_epoch = u32::MAX - 2;
        for _ in 0..3 {
            // The last round wraps the reverse epoch around.
            s.begin_reverse(4);
            assert!(s.reverse_dist(2).is_infinite(), "stale reverse distance");
            assert!(!s.is_reverse_settled(2), "stale reverse mark");
            assert!(s.reverse_settled.is_empty());
            s.set_reverse_dist(2, 0.25);
            s.mark_reverse_settled(2);
            assert_eq!(s.reverse_dist(2), 0.25);
        }
        assert_eq!(s.reverse_epoch, 1);
        assert_eq!(s.tentative(1), 0.5);
        assert!(s.is_settled(1));
    }

    #[test]
    fn epoch_wraparound_refreshes_cleanly() {
        let mut s = SearchScratch::with_capacity(4);
        s.epoch = u32::MAX - 1;
        s.begin(4); // -> MAX
        s.set_tentative(1, 0.5, 1);
        s.mark_settled(1);
        s.begin(4); // wraps to 1
        assert!(s.tentative(1).is_infinite());
        assert!(!s.is_settled(1));
        s.set_tentative(2, 0.25, 2);
        assert_eq!(s.tentative(2), 0.25);
    }
}
