//! Property test of the resumable forward expansion
//! ([`SearchScratch::share_expansions`]).
//!
//! Inside a sharing scope, any schedule of "start a search from the same
//! source, consume some of it, drop it" — sorted-access consumers that
//! replay the retained prefix, `run_until_settled` jumps, and
//! fast-forwarding [`GraphDistanceEngine`]s — must be indistinguishable,
//! bit for bit, from fresh expansions, while the relaxations of all
//! consumers together equal those of one uninterrupted run to the furthest
//! point any of them reached.  A different source, or a search after the
//! scope closed, always starts fresh.

use rand::prelude::*;
use rand::rngs::StdRng;
use ssrq_graph::{
    Distance, GraphBuilder, GraphDistanceEngine, IncrementalDijkstra, LandmarkSelection,
    LandmarkSet, NodeId, SearchScratch, SharingMode, SocialGraph,
};

/// A random graph: a tree over the first `connected` vertices plus chords;
/// the remaining vertices stay isolated (unreachable from the tree).
fn random_graph(rng: &mut StdRng, n: usize, connected: usize, chords: usize) -> SocialGraph {
    let mut b = GraphBuilder::new(n);
    for v in 1..connected {
        let u = rng.gen_range(0..v);
        b.add_edge(u as NodeId, v as NodeId, rng.gen_range(0.05..2.0))
            .unwrap();
    }
    for _ in 0..chords {
        let (u, v) = (rng.gen_range(0..connected), rng.gen_range(0..connected));
        if u != v {
            b.add_edge(u as NodeId, v as NodeId, rng.gen_range(0.05..2.0))
                .unwrap();
        }
    }
    b.build()
}

/// What a fresh, uninterrupted expansion does: the settled order, and the
/// relaxation count after each settle.
struct Reference {
    order: Vec<(NodeId, Distance)>,
    relaxations_after: Vec<usize>,
    /// Position of each vertex in `order` (`usize::MAX` if unreachable).
    rank: Vec<usize>,
}

fn reference(graph: &SocialGraph, source: NodeId) -> Reference {
    let mut scratch = SearchScratch::new();
    let mut search = IncrementalDijkstra::new(graph, source, &mut scratch);
    let mut order = Vec::new();
    let mut relaxations_after = Vec::new();
    let mut rank = vec![usize::MAX; graph.node_count()];
    while let Some((v, d)) = search.next_settled(graph) {
        rank[v as usize] = order.len();
        order.push((v, d));
        relaxations_after.push(search.relaxations());
    }
    Reference {
        order,
        relaxations_after,
        rank,
    }
}

/// Asserts that `search`, having handed out `consumed` vertices, answers
/// every accessor like a fresh expansion at that position.
fn assert_position(
    search: &IncrementalDijkstra<'_>,
    graph: &SocialGraph,
    reference: &Reference,
    consumed: usize,
    what: &str,
) {
    assert_eq!(search.settled_count(), consumed, "{what}: settled_count");
    let bound = if consumed == 0 {
        0.0
    } else {
        reference.order[consumed - 1].1
    };
    assert_eq!(
        search.frontier_bound().to_bits(),
        bound.to_bits(),
        "{what}: frontier_bound after {consumed}"
    );
    // (Stale heap entries may keep a finished expansion from noticing that
    // it is exhausted; the converse must never happen.)
    assert!(
        !search.exhausted() || consumed == reference.order.len(),
        "{what}: exhausted after {consumed}"
    );
    for v in graph.nodes() {
        let settled = reference.rank[v as usize] < consumed;
        assert_eq!(
            search.is_settled(v),
            settled,
            "{what}: is_settled({v}) after {consumed}"
        );
        let expected = settled.then(|| reference.order[reference.rank[v as usize]].1);
        assert_eq!(
            search.settled_distance(v).map(f64::to_bits),
            expected.map(f64::to_bits),
            "{what}: settled_distance({v}) after {consumed}"
        );
    }
}

#[test]
fn any_schedule_of_resumed_consumers_is_bit_identical_to_fresh_expansions() {
    for seed in 0..300u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(8..70);
        let connected = rng.gen_range(n / 2..n + 1);
        let chords = rng.gen_range(0..2 * n);
        let graph = random_graph(&mut rng, n, connected, chords);
        let landmarks =
            LandmarkSet::build(&graph, 3, LandmarkSelection::FarthestFirst, seed).unwrap();
        let source = rng.gen_range(0..connected) as NodeId;
        let fresh = reference(&graph, source);

        let mut scratch = SearchScratch::new();
        scratch.share_expansions(true);
        let mut furthest = 0usize;
        let mut relaxations = 0usize;
        for consumer in 0..rng.gen_range(2..7) {
            let what = format!("seed {seed}, consumer {consumer}");
            match rng.gen_range(0..3) {
                // Sorted access: replay from the start, entry by entry.
                0 => {
                    let mut search = IncrementalDijkstra::new(&graph, source, &mut scratch);
                    assert_position(&search, &graph, &fresh, 0, &what);
                    let take = rng.gen_range(0..fresh.order.len() + 2);
                    for i in 0..take {
                        let got = search.next_settled(&graph);
                        let want = fresh.order.get(i).copied();
                        assert_eq!(
                            got.map(|(v, d)| (v, d.to_bits())),
                            want.map(|(v, d)| (v, d.to_bits())),
                            "{what}: entry {i}"
                        );
                        if got.is_none() {
                            break;
                        }
                        if i % 5 == 0 || i + 1 == take {
                            assert_position(&search, &graph, &fresh, i + 1, &what);
                        }
                    }
                    furthest = furthest.max(search.settled_count());
                    relaxations += search.relaxations();
                }
                // Sorted access by jumps: `run_until_settled` on targets.
                1 => {
                    let mut search = IncrementalDijkstra::new(&graph, source, &mut scratch);
                    let mut consumed = 0usize;
                    for _ in 0..rng.gen_range(1..4) {
                        let target = rng.gen_range(0..connected) as NodeId;
                        let rank = fresh.rank[target as usize];
                        let got = search.run_until_settled(&graph, target);
                        assert_eq!(
                            got.to_bits(),
                            fresh.order[rank].1.to_bits(),
                            "{what}: run_until_settled({target})"
                        );
                        consumed = consumed.max(rank + 1);
                        assert_position(&search, &graph, &fresh, consumed, &what);
                    }
                    furthest = furthest.max(consumed);
                    relaxations += search.relaxations();
                }
                // Random access: the engine inherits the whole prefix.
                _ => {
                    let mut engine = GraphDistanceEngine::new(
                        &graph,
                        &landmarks,
                        source,
                        SharingMode::Shared,
                        &mut scratch,
                    );
                    assert_eq!(engine.forward_settled_count(), furthest, "{what}");
                    for v in graph.nodes() {
                        let known = v == source || fresh.rank[v as usize] < furthest;
                        assert_eq!(engine.known_distance(v).is_some(), known, "{what}: {v}");
                    }
                    for _ in 0..rng.gen_range(1..6) {
                        let target = rng.gen_range(0..n) as NodeId;
                        let want = match fresh.rank[target as usize] {
                            usize::MAX => f64::INFINITY,
                            rank => fresh.order[rank].1,
                        };
                        let got = if rng.gen_bool(0.5) {
                            engine.distance(target)
                        } else {
                            let budget = rng.gen_range(0.0..4.0);
                            let got = engine.distance_within(target, budget);
                            if want >= budget {
                                assert!(got.is_infinite(), "{what}: over budget");
                                continue;
                            }
                            got
                        };
                        assert_eq!(got.to_bits(), want.to_bits(), "{what}: d({target})");
                    }
                    furthest = engine.forward_settled_count();
                    // The forward half; the per-call reverse searches are
                    // never shared.
                    let stats = engine.stats();
                    relaxations += stats.edge_relaxations - stats.reverse_relaxed_edges;
                }
            }
        }
        // Nothing was expanded twice: all consumers together did the work
        // of one uninterrupted run to the furthest settle.
        let uninterrupted = match furthest {
            0 => 0,
            settled => fresh.relaxations_after[settled - 1],
        };
        assert_eq!(relaxations, uninterrupted, "seed {seed}: total relaxations");
    }
}

#[test]
fn another_source_or_a_closed_scope_always_starts_fresh() {
    let mut rng = StdRng::seed_from_u64(91);
    let graph = random_graph(&mut rng, 60, 60, 90);
    let (a, b) = (3 as NodeId, 41 as NodeId);
    let (fresh_a, fresh_b) = (reference(&graph, a), reference(&graph, b));
    let consume = |scratch: &mut SearchScratch, source: NodeId, take: usize| {
        let mut search = IncrementalDijkstra::new(&graph, source, scratch);
        let entries: Vec<(NodeId, u64)> = (0..take)
            .map_while(|_| search.next_settled(&graph))
            .map(|(v, d)| (v, d.to_bits()))
            .collect();
        (entries, search.relaxations())
    };
    let bits = |r: &Reference, take: usize| -> Vec<(NodeId, u64)> {
        r.order[..take]
            .iter()
            .map(|&(v, d)| (v, d.to_bits()))
            .collect()
    };

    let mut scratch = SearchScratch::new();
    scratch.share_expansions(true);
    assert_eq!(
        consume(&mut scratch, a, 30),
        (bits(&fresh_a, 30), fresh_a.relaxations_after[29])
    );
    // Same source: a free replay.
    assert_eq!(consume(&mut scratch, a, 30), (bits(&fresh_a, 30), 0));
    // Another source replaces what was retained ...
    assert_eq!(
        consume(&mut scratch, b, 20),
        (bits(&fresh_b, 20), fresh_b.relaxations_after[19])
    );
    // ... so the first source pays in full again.
    assert_eq!(
        consume(&mut scratch, a, 30),
        (bits(&fresh_a, 30), fresh_a.relaxations_after[29])
    );
    // A copy of the graph is another graph: equal, but not the instance
    // the retained expansion ran over.
    let copy = graph.clone();
    {
        let mut search = IncrementalDijkstra::new(&copy, a, &mut scratch);
        for _ in 0..30 {
            search.next_settled(&copy);
        }
        assert_eq!(search.relaxations(), fresh_a.relaxations_after[29]);
    }
    assert_eq!(consume(&mut scratch, a, 10).1, fresh_a.relaxations_after[9]);
    // Closing the scope forgets the expansion, outside it nothing is
    // retained, and so nothing is there for the next scope to resume.
    scratch.share_expansions(false);
    for _ in 0..2 {
        assert_eq!(
            consume(&mut scratch, a, 30),
            (bits(&fresh_a, 30), fresh_a.relaxations_after[29])
        );
    }
    scratch.share_expansions(true);
    assert_eq!(consume(&mut scratch, a, 5).1, fresh_a.relaxations_after[4]);
}
