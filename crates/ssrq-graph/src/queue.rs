//! The crate's two priority queues.
//!
//! * [`RadixQueue`] — the monotone radix (bucket) queue under every
//!   [`IncrementalDijkstra`](crate::IncrementalDijkstra) expansion, and
//!   under the shared-mode distance engine's per-call reverse search and
//!   completion step (plain Dijkstra keys too: ALT only prunes there).
//! * [`HeapItem`] — the entry of the `std` binary heaps of `ch.rs`: its
//!   contraction ordering (whose priorities are not monotone), witness
//!   searches and upward query searches.
//!
//! # Why a radix queue, and why it changes nothing but time
//!
//! Dijkstra's queue is *monotone*: every key pushed is at least the key
//! popped last (`key + w ≥ key` for the builder-validated `w > 0`).  And
//! non-negative, non-NaN `f64`s order exactly as their `u64` bit patterns.
//! A monotone queue over integers needs no comparisons against other
//! entries on push: an entry's bucket is the position of the highest bit in
//! which its key differs from the last popped key (`last`), 64 buckets for
//! the 64 possible positions plus one — the *head* — for keys equal to
//! `last`.  Keys in a lower bucket are smaller than keys in a higher one, so
//! a pop takes the head; when the head is empty, the first non-empty bucket
//! is refilled from: its minimum becomes the new `last` and its entries are
//! redistributed, all of them into strictly lower buckets (they agree with
//! the minimum on every bit from the bucket's own upward).  Entries of
//! higher buckets do not move: `last` changed only below their bit.
//!
//! The head is kept ordered by vertex id, so pops come out in ascending
//! `(key, vertex)` order — the very total order [`HeapItem`] gives a binary
//! heap.  Stale (lazily deleted) entries are kept and popped like any other.
//! Same order in, same order out: every settle sequence, distance bit and
//! `pops()`/`relaxations()` count of an expansion is what the binary heap
//! produced; `queue::tests` model-checks that against `BinaryHeap<HeapItem>`
//! and `tests/dijkstra_reference.rs` against a binary-heap Dijkstra.
//!
//! What it buys: on the benchmark's 50 k-user graph a settle (pop + its
//! relaxations and pushes) cost ≈ 345 ns with `BinaryHeap<HeapItem>` and
//! ≈ 180 ns with this queue — the cost was the branch-mispredicting sift of
//! a ~16-level heap.  Tried on the same loop and measured **neutral**
//! (282–370 ns vs 286–358 ns), so not worth retrying: packing
//! `dist`/epoch/`parent` into one 16-byte slot, a 4-ary heap, and an indexed
//! decrease-key heap.

use crate::NodeId;
use std::cmp::Ordering;

/// A min-heap entry (key + vertex) for `std::collections::BinaryHeap`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HeapItem {
    pub key: f64,
    pub node: NodeId,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: the std heap is a max-heap, searches need a min-heap.
        // Ties broken on node id for determinism.  `total_cmp`, so a NaN key
        // has a place in the order instead of comparing equal to everything.
        other
            .key
            .total_cmp(&self.key)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// Number of buckets besides the head: one per bit of a key.
const BUCKETS: usize = u64::BITS as usize;

/// A monotone min-queue of `(key, vertex)` entries, popped in ascending
/// `(key, vertex)` order (see the module docs).
///
/// **Precondition** (a `debug_assert!`): a pushed key is not NaN, not
/// negative (`-0.0` included) and not below the key popped last.
#[derive(Debug, Clone)]
pub(crate) struct RadixQueue {
    /// Bit pattern of the key popped last (0 before the first pop).
    last: u64,
    /// The vertices queued with key `last`, descending, so that `Vec::pop`
    /// yields the smallest.
    head: Vec<NodeId>,
    /// `buckets[b]` holds the entries whose key's highest bit differing from
    /// `last` is bit `b`, in no particular order.
    buckets: [Vec<(u64, NodeId)>; BUCKETS],
    /// Bit `b` is set iff `buckets[b]` is non-empty.
    occupied: u64,
}

impl Default for RadixQueue {
    fn default() -> Self {
        RadixQueue {
            last: 0,
            head: Vec::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
        }
    }
}

impl RadixQueue {
    /// Empties the queue and resets `last` to zero; capacity is kept.
    pub(crate) fn clear(&mut self) {
        self.head.clear();
        while self.occupied != 0 {
            self.buckets[self.occupied.trailing_zeros() as usize].clear();
            self.occupied &= self.occupied - 1;
        }
        self.last = 0;
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.head.is_empty() && self.occupied == 0
    }

    #[inline]
    pub(crate) fn push(&mut self, key: f64, node: NodeId) {
        let bits = key.to_bits();
        // Negative keys have the sign bit set and NaNs lie above infinity,
        // so one range check covers the whole precondition.
        debug_assert!(
            self.last <= bits && bits <= f64::INFINITY.to_bits(),
            "radix queue: key {key} is NaN, negative or below the last popped key {}",
            f64::from_bits(self.last)
        );
        let diff = bits ^ self.last;
        if diff == 0 {
            // Rare (`key + w == key` for a tiny `w`, or a second source
            // entry): keep the head descending.
            let at = self.head.partition_point(|&queued| queued > node);
            self.head.insert(at, node);
        } else {
            let b = diff.ilog2() as usize;
            self.buckets[b].push((bits, node));
            self.occupied |= 1 << b;
        }
    }

    /// The smallest queued key, without removing its entry.  (Takes `&mut`
    /// because it may refill the head, which changes no pop.)
    #[inline]
    pub(crate) fn min_key(&mut self) -> Option<f64> {
        if self.head.is_empty() {
            if self.occupied == 0 {
                return None;
            }
            self.refill();
        }
        Some(f64::from_bits(self.last))
    }

    /// Removes and returns the entry with the smallest `(key, vertex)`.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<(f64, NodeId)> {
        if self.head.is_empty() {
            if self.occupied == 0 {
                return None;
            }
            self.refill();
        }
        let node = self.head.pop()?;
        Some((f64::from_bits(self.last), node))
    }

    /// Advances `last` to the smallest queued key and moves the entries of
    /// the bucket holding it down: those with that key into the head, the
    /// others into lower buckets.
    fn refill(&mut self) {
        let b = self.occupied.trailing_zeros() as usize;
        self.occupied &= self.occupied - 1;
        let (lower, rest) = self.buckets.split_at_mut(b);
        let bucket = &mut rest[0];
        let min = bucket
            .iter()
            .map(|&(bits, _)| bits)
            .min()
            .expect("an occupied bucket has entries");
        self.last = min;
        for &(bits, node) in bucket.iter() {
            let diff = bits ^ min;
            if diff == 0 {
                self.head.push(node);
            } else {
                let to = diff.ilog2() as usize;
                lower[to].push((bits, node));
                self.occupied |= 1 << to;
            }
        }
        bucket.clear();
        if self.head.len() > 1 {
            self.head.sort_unstable_by(|a, b| b.cmp(a));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;
    use std::collections::BinaryHeap;

    /// The queue under test beside the binary heap it replaced; every
    /// operation goes to both and every observable must agree.
    #[derive(Default)]
    struct Pair {
        radix: RadixQueue,
        heap: BinaryHeap<HeapItem>,
        /// Key popped last — the floor of what may be pushed next.
        last: f64,
    }

    impl Pair {
        fn push(&mut self, key: f64, node: NodeId) {
            self.radix.push(key, node);
            self.heap.push(HeapItem { key, node });
        }

        /// Pops both; asserts the same entry (compared by bit pattern).
        fn pop(&mut self, what: &str) -> Option<(f64, NodeId)> {
            assert_eq!(
                self.radix.min_key().map(f64::to_bits),
                self.heap.peek().map(|e| e.key.to_bits()),
                "{what}: min_key"
            );
            let got = self.radix.pop();
            let want = self.heap.pop().map(|e| (e.key, e.node));
            assert_eq!(
                got.map(|(k, v)| (k.to_bits(), v)),
                want.map(|(k, v)| (k.to_bits(), v)),
                "{what}: radix popped {got:?}, binary heap {want:?}"
            );
            assert_eq!(self.radix.is_empty(), self.heap.is_empty(), "{what}");
            if let Some((key, _)) = got {
                assert!(key >= self.last, "{what}: pops went backwards");
                self.last = key;
            }
            got
        }

        fn drain(&mut self, what: &str) {
            while self.pop(what).is_some() {}
        }

        fn clear(&mut self) {
            self.radix.clear();
            self.heap.clear();
            self.last = 0.0;
        }
    }

    /// A key a Dijkstra could push after popping `last`: `last + w` at every
    /// magnitude of `w`, including ones that leave `last` unchanged.
    fn next_key(rng: &mut StdRng, last: f64, extremes: bool) -> f64 {
        let key = match rng.gen_range(0..12) {
            0 => last,
            1 => last + last * 1e-17, // == last for every normal `last`
            2 => last + f64::MIN_POSITIVE,
            3 => last + f64::from_bits(rng.gen_range(1..1 << 20)), // subnormal step
            4 => f64::from_bits(last.to_bits() + rng.gen_range(1..4)), // next floats up
            5 => last + 0.25 * rng.gen_range(0..8) as f64,         // ties across pushes
            6 => last + rng.gen_range(1e-12..1e-9),
            7 if extremes => [f64::MAX, f64::INFINITY, last * 1e150][rng.gen_range(0..3)],
            8 if extremes => last + 10f64.powi(rng.gen_range(-300..300)),
            _ => last + rng.gen_range(0.05..2.0),
        };
        // Past `f64::MAX` a bit-pattern step is NaN; Dijkstra's sums stop at
        // infinity.
        if key.is_nan() {
            f64::INFINITY
        } else {
            key.max(last)
        }
    }

    #[test]
    fn pops_match_the_binary_heap_on_random_monotone_schedules() {
        for seed in 0..400 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut pair = Pair::default();
            // The same queue serves several schedules, cleared in between —
            // sometimes while still holding entries.
            for round in 0..3 {
                let what = format!("seed {seed} round {round}");
                let extremes = rng.gen_bool(0.3);
                let nodes = [2, 8, 1000][rng.gen_range(0..3)];
                let push_bias = rng.gen_range(0.4..0.8);
                pair.push(0.0, rng.gen_range(0..nodes));
                for _ in 0..rng.gen_range(1..400) {
                    if rng.gen_bool(push_bias) {
                        let key = next_key(&mut rng, pair.last, extremes);
                        let node = rng.gen_range(0..nodes);
                        pair.push(key, node);
                        if rng.gen_bool(0.1) {
                            pair.push(key, node); // exact duplicate entry
                        }
                        if rng.gen_bool(0.2) {
                            pair.push(key, rng.gen_range(0..nodes)); // same key, other vertex
                        }
                    } else {
                        pair.pop(&what);
                    }
                }
                if rng.gen_bool(0.7) {
                    pair.drain(&what);
                }
                pair.clear();
                assert!(pair.radix.is_empty());
                assert_eq!(pair.radix.pop(), None);
            }
        }
    }

    #[test]
    fn equal_keys_pop_by_vertex_even_when_pushed_between_pops() {
        let mut pair = Pair::default();
        pair.push(0.0, 9);
        pair.pop("source");
        for node in [7, 3, 5, 3] {
            pair.push(1.5, node);
        }
        pair.push(2.0, 1);
        // Pause in the middle of the 1.5s, add more of them — below, between
        // and above the vertices still queued — and resume.
        assert_eq!(pair.pop("first"), Some((1.5, 3)));
        assert_eq!(pair.pop("duplicate"), Some((1.5, 3)));
        for node in [6, 2, 8] {
            pair.push(1.5, node);
        }
        let rest: Vec<_> = std::iter::from_fn(|| pair.pop("rest")).collect();
        assert_eq!(
            rest,
            [(1.5, 2), (1.5, 5), (1.5, 6), (1.5, 7), (1.5, 8), (2.0, 1)]
        );
    }

    #[test]
    fn a_weight_too_small_to_move_the_key_is_queued_at_the_last_key() {
        let mut pair = Pair::default();
        pair.push(0.0, 0);
        pair.pop("source");
        pair.push(1.0, 4);
        pair.push(1.0 + f64::EPSILON, 2);
        assert_eq!(pair.pop("settle 4"), Some((1.0, 4)));
        let tiny = 1e-300;
        assert_eq!(1.0 + tiny, 1.0);
        pair.push(1.0 + tiny, 6);
        pair.push(1.0 + tiny, 5);
        assert_eq!(pair.pop("tiny 5"), Some((1.0, 5)));
        assert_eq!(pair.pop("tiny 6"), Some((1.0, 6)));
        assert_eq!(pair.pop("epsilon"), Some((1.0 + f64::EPSILON, 2)));
        assert_eq!(pair.pop("empty"), None);
    }

    #[test]
    fn zero_subnormals_and_the_largest_keys_keep_their_order() {
        let mut pair = Pair::default();
        let subnormal = f64::from_bits(1);
        for (key, node) in [
            (f64::INFINITY, 1),
            (f64::MAX, 2),
            (0.0, 3),
            (subnormal, 4),
            (f64::MIN_POSITIVE, 5),
            (f64::INFINITY, 0),
            (subnormal, 0),
            (1.0, 6),
        ] {
            pair.push(key, node);
        }
        let all: Vec<_> = std::iter::from_fn(|| pair.pop("extremes")).collect();
        assert_eq!(
            all,
            [
                (0.0, 3),
                (subnormal, 0),
                (subnormal, 4),
                (f64::MIN_POSITIVE, 5),
                (1.0, 6),
                (f64::MAX, 2),
                (f64::INFINITY, 0),
                (f64::INFINITY, 1),
            ]
        );
        // At the top of the range only the top itself can still be pushed.
        pair.push(f64::INFINITY, 7);
        assert_eq!(pair.pop("after infinity"), Some((f64::INFINITY, 7)));
    }

    #[test]
    fn a_nan_key_has_a_place_in_the_heap_item_order() {
        let nan = HeapItem {
            key: f64::NAN,
            node: 1,
        };
        for key in [0.0, 1.0, f64::INFINITY] {
            let other = HeapItem { key, node: 1 };
            // Above every number, so a min-heap pops it last.
            assert_eq!(nan.cmp(&other), Ordering::Less);
            assert_eq!(other.cmp(&nan), Ordering::Greater);
        }
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
    }

    #[cfg(debug_assertions)]
    mod precondition {
        use super::*;

        fn popped_to(key: f64) -> RadixQueue {
            let mut q = RadixQueue::default();
            q.push(key, 0);
            q.pop();
            q
        }

        #[test]
        #[should_panic(expected = "radix queue")]
        fn a_key_below_the_last_popped_is_rejected() {
            popped_to(2.0).push(1.0, 1);
        }

        #[test]
        #[should_panic(expected = "radix queue")]
        fn a_nan_key_is_rejected() {
            popped_to(2.0).push(f64::NAN, 1);
        }

        #[test]
        #[should_panic(expected = "radix queue")]
        fn a_negative_key_is_rejected() {
            popped_to(0.0).push(-0.0, 1);
        }
    }
}
