//! [`IncrementalDijkstra`] against a textbook binary-heap Dijkstra.
//!
//! The expansion's priority queue is a monotone radix queue; this test pins
//! the claim that the swap changed nothing observable.  A test-local
//! Dijkstra over `std::collections::BinaryHeap`, ordered by `(key, vertex)`
//! with lazy deletion — the loop the crate ran before — is the reference:
//! on random graphs the settle sequence, every distance bit and the
//! `pops()` / `relaxations()` counters after every settle must be equal, on
//! both CSR layouts.

use rand::prelude::*;
use rand::rngs::StdRng;
use ssrq_graph::{
    dijkstra_all_with, CsrLayout, Distance, GraphBuilder, IncrementalDijkstra, NodeId,
    SearchScratch, SocialGraph,
};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Min-heap entry ordered by key, ties by vertex id.
#[derive(PartialEq)]
struct Entry {
    key: Distance,
    node: NodeId,
}

impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .key
            .partial_cmp(&self.key)
            .expect("keys are never NaN")
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// One settle of the reference and the counters right after it.
#[derive(Debug, PartialEq)]
struct Step {
    node: NodeId,
    /// Bit pattern of the distance, so equality is bit equality.
    dist_bits: u64,
    pops: usize,
    relaxations: usize,
}

/// The reference expansion from `source`: every settle in order, the final
/// pop count (draining stale entries included) and the distance vector.
fn reference(graph: &SocialGraph, source: NodeId) -> (Vec<Step>, usize, Vec<Distance>) {
    let n = graph.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut settled = vec![false; n];
    let mut heap = BinaryHeap::new();
    let (mut pops, mut relaxations) = (0, 0);
    let mut steps = Vec::new();
    dist[source as usize] = 0.0;
    heap.push(Entry {
        key: 0.0,
        node: source,
    });
    while let Some(Entry { key, node }) = heap.pop() {
        pops += 1;
        if settled[node as usize] {
            continue;
        }
        settled[node as usize] = true;
        for edge in graph.neighbors(node) {
            relaxations += 1;
            let cand = key + edge.weight;
            if cand < dist[edge.to as usize] {
                dist[edge.to as usize] = cand;
                heap.push(Entry {
                    key: cand,
                    node: edge.to,
                });
            }
        }
        steps.push(Step {
            node,
            dist_bits: key.to_bits(),
            pops,
            relaxations,
        });
    }
    // Every touched vertex was queued with a finite key, so all of them
    // settled: `dist` holds exact distances and `INFINITY` elsewhere.
    (steps, pops, dist)
}

/// A random graph whose weights provoke what the queue must get right:
/// quantized weights (many equal keys on different vertices), weights too
/// small to move a key (`key + w == key`), weights whose sums overflow to
/// infinity, parallel edges, and vertices left unreachable.
fn random_graph(rng: &mut StdRng) -> SocialGraph {
    let n = rng.gen_range(2..120);
    let connected = rng.gen_range(1..n + 1);
    let style = rng.gen_range(0..4);
    let weight = |rng: &mut StdRng| match style {
        0 => rng.gen_range(0.05..2.0),
        1 => 0.25 * rng.gen_range(1..5) as f64,
        2 => [1e-300, 1e-18, 0.5, 1.0, 3.0][rng.gen_range(0..5)],
        _ => [f64::MIN_POSITIVE, 1.0, 1e200, f64::MAX][rng.gen_range(0..4)],
    };
    let mut b = GraphBuilder::new(n);
    for v in 1..connected {
        let u = rng.gen_range(0..v);
        b.add_edge(u as NodeId, v as NodeId, weight(rng)).unwrap();
    }
    for _ in 0..rng.gen_range(0..4 * connected) {
        let (u, v) = (rng.gen_range(0..connected), rng.gen_range(0..connected));
        if u != v {
            b.add_edge(u as NodeId, v as NodeId, weight(rng)).unwrap();
        }
    }
    b.build()
}

#[test]
fn settles_distances_and_counters_equal_a_binary_heap_dijkstra() {
    let mut rng = StdRng::seed_from_u64(0x5ad1);
    // One scratch for all 300 graphs and both layouts: the queue is reused
    // dirty, as a query worker reuses it.
    let mut scratch = SearchScratch::new();
    let mut equal_key_settles = 0usize;
    for case in 0..300 {
        let standard = random_graph(&mut rng);
        let compressed = standard.with_layout(CsrLayout::Compressed);
        let source = rng.gen_range(0..standard.node_count()) as NodeId;
        let (steps, total_pops, distances) = reference(&standard, source);
        equal_key_settles += steps
            .windows(2)
            .filter(|w| w[0].dist_bits == w[1].dist_bits)
            .count();

        for graph in [&standard, &compressed] {
            let what = format!("case {case} ({:?}, source {source})", graph.layout());
            let mut search = IncrementalDijkstra::new(graph, source, &mut scratch);
            // Stop part-way through some expansions, as a query does.
            let stop = if rng.gen_bool(0.3) {
                rng.gen_range(0..steps.len() + 1)
            } else {
                steps.len()
            };
            for want in &steps[..stop] {
                let (node, dist) = search.next_settled(graph).expect(&what);
                let got = Step {
                    node,
                    dist_bits: dist.to_bits(),
                    pops: search.pops(),
                    relaxations: search.relaxations(),
                };
                assert_eq!(&got, want, "{what}");
            }
            if stop == steps.len() {
                assert_eq!(search.next_settled(graph), None, "{what}");
                assert!(search.exhausted(), "{what}");
                assert_eq!(search.pops(), total_pops, "{what}: pops after draining");
                let got: Vec<u64> = search
                    .distances(graph)
                    .iter()
                    .map(|d| d.to_bits())
                    .collect();
                let want: Vec<u64> = distances.iter().map(|d| d.to_bits()).collect();
                assert_eq!(got, want, "{what}: distances");
            }
        }
        assert_eq!(
            dijkstra_all_with(&compressed, source, &mut scratch),
            distances,
            "case {case}: dijkstra_all_with"
        );
    }
    // The generator must actually produce the hard case.
    assert!(
        equal_key_settles > 1000,
        "only {equal_key_settles} consecutive settles shared a key"
    );
}
