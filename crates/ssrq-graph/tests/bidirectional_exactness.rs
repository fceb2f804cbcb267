//! Property test of the shared-mode [`GraphDistanceEngine`]: its
//! bidirectional calls must return what the forward Dijkstra expansion
//! settles, bit for bit.
//!
//! A call meets a per-call reverse search with the shared forward search,
//! and the meeting value adds the same weights in another order, so it can
//! be ulps off; the engine's completion step recomputes a surviving
//! target's distance in forward arithmetic.  Here every answer of
//! `distance` and `distance_within` is compared by bit pattern with
//! [`dijkstra_all`], on weights chosen to make the two orders disagree:
//! near-ties (`0.1 + k·2⁻⁵⁰`), weights too small to move a sum, and grids
//! whose many equal-length paths round differently.  Targets include
//! vertices no path reaches, and budgets sit just below, at and just above
//! the distance.  The engines run alone and inside a sharing scope, where
//! each resumes the forward expansion the previous one left.

use rand::prelude::*;
use rand::rngs::StdRng;
use ssrq_graph::{
    dijkstra_all, Distance, GraphBuilder, GraphDistanceEngine, IncrementalDijkstra,
    LandmarkSelection, LandmarkSet, NodeId, SearchScratch, SharingMode, SocialGraph,
};

/// How edge weights are drawn.
#[derive(Debug, Clone, Copy)]
enum Weights {
    Uniform,
    /// `0.1 + k·2⁻⁵⁰`: sums that tie in reals and differ in the last bits.
    NearTie,
    /// Mostly around 1, some far below one ulp of the sums they join.
    Tiny,
}

fn weight(rng: &mut StdRng, weights: Weights) -> Distance {
    match weights {
        Weights::Uniform => rng.gen_range(0.05..2.0),
        Weights::NearTie => 0.1 + rng.gen_range(0..8) as f64 * 2f64.powi(-50),
        Weights::Tiny => [1.0, 0.5, 0.75, 1e-16, 3e-17, 1e-300][rng.gen_range(0..6)],
    }
}

/// A tree over the first `connected` vertices plus chords; of the rest,
/// half form a second component and the others stay isolated.
fn random_graph(rng: &mut StdRng, n: usize, connected: usize, weights: Weights) -> SocialGraph {
    let mut b = GraphBuilder::new(n);
    for v in 1..connected {
        let u = rng.gen_range(0..v);
        b.add_edge(u as NodeId, v as NodeId, weight(rng, weights))
            .unwrap();
    }
    for _ in 0..rng.gen_range(0..2 * connected) {
        let (u, v) = (rng.gen_range(0..connected), rng.gen_range(0..connected));
        if u != v {
            b.add_edge(u as NodeId, v as NodeId, weight(rng, weights))
                .unwrap();
        }
    }
    let second = connected + (n - connected) / 2;
    for v in connected + 1..second {
        let u = rng.gen_range(connected..v);
        b.add_edge(u as NodeId, v as NodeId, weight(rng, weights))
            .unwrap();
    }
    b.build()
}

/// A `side × side` grid with weights from {0.1, 0.2, 0.3, 0.7}: many
/// shortest paths of one real length whose `f64` sums differ by order.
fn grid_graph(rng: &mut StdRng, side: usize) -> SocialGraph {
    let id = |r: usize, c: usize| (r * side + c) as NodeId;
    let mut b = GraphBuilder::new(side * side);
    let pick = |rng: &mut StdRng| [0.1, 0.2, 0.3, 0.7][rng.gen_range(0..4)];
    for r in 0..side {
        for c in 0..side {
            if c + 1 < side {
                b.add_edge(id(r, c), id(r, c + 1), pick(rng)).unwrap();
            }
            if r + 1 < side {
                b.add_edge(id(r, c), id(r + 1, c), pick(rng)).unwrap();
            }
        }
    }
    b.build()
}

/// The budgets a target's calls are checked with: just below, at and just
/// above its distance, and one at random.
fn budgets(rng: &mut StdRng, d: Distance) -> Vec<Distance> {
    let mut out = vec![rng.gen_range(0.0..4.0)];
    if d.is_finite() && d > 0.0 {
        out.extend([
            f64::from_bits(d.to_bits() - 1),
            d,
            f64::from_bits(d.to_bits() + 1),
        ]);
    }
    out
}

/// Asks `engine` for random targets (repeats included), with and without
/// budgets, and compares every answer with `truth` by bit pattern.
fn check_calls(
    engine: &mut GraphDistanceEngine<'_, '_>,
    truth: &[Distance],
    rng: &mut StdRng,
    calls: usize,
    what: &str,
) {
    let n = truth.len();
    for _ in 0..calls {
        let t = rng.gen_range(0..n) as NodeId;
        let want = truth[t as usize];
        if rng.gen_bool(0.4) {
            let got = engine.distance(t);
            assert_eq!(got.to_bits(), want.to_bits(), "{what}: d({t})");
        } else {
            for budget in budgets(rng, want) {
                let got = engine.distance_within(t, budget);
                let expected = if want < budget { want } else { f64::INFINITY };
                assert_eq!(
                    got.to_bits(),
                    expected.to_bits(),
                    "{what}: d({t}) = {want} within {budget}, got {got}"
                );
            }
        }
        if let Some(known) = engine.known_distance(t) {
            assert_eq!(known.to_bits(), want.to_bits(), "{what}: known({t})");
        }
    }
}

fn check_graph(graph: &SocialGraph, seed: u64, what: &str) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = graph.node_count();
    let landmarks = LandmarkSet::build(
        graph,
        rng.gen_range(1..5),
        LandmarkSelection::FarthestFirst,
        seed,
    )
    .unwrap();
    let mut scratch = SearchScratch::new();
    for round in 0..4 {
        let source = rng.gen_range(0..n) as NodeId;
        let truth = dijkstra_all(graph, source);
        // Outside a scope: every engine starts its own forward search.
        {
            let mut engine = GraphDistanceEngine::new(
                graph,
                &landmarks,
                source,
                SharingMode::Shared,
                &mut scratch,
            );
            let what = format!("{what}, round {round}, source {source}, alone");
            check_calls(&mut engine, &truth, &mut rng, 30, &what);
        }
        // Inside a scope: engines and sorted-access consumers take turns
        // on one forward expansion.
        scratch.share_expansions(true);
        for turn in 0..3 {
            if rng.gen_bool(0.3) {
                let mut search = IncrementalDijkstra::new(graph, source, &mut scratch);
                for _ in 0..rng.gen_range(0..n) {
                    search.next_settled(graph);
                }
            }
            let mut engine = GraphDistanceEngine::new(
                graph,
                &landmarks,
                source,
                SharingMode::Shared,
                &mut scratch,
            );
            let what = format!("{what}, round {round}, source {source}, shared turn {turn}");
            check_calls(&mut engine, &truth, &mut rng, 15, &what);
        }
        scratch.share_expansions(false);
    }
}

#[test]
fn shared_mode_answers_are_bit_identical_to_dijkstra() {
    for seed in 0..150u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let weights = [Weights::Uniform, Weights::NearTie, Weights::Tiny][seed as usize % 3];
        let n = rng.gen_range(4..90);
        let connected = rng.gen_range(n / 2..n + 1);
        let graph = random_graph(&mut rng, n, connected, weights);
        check_graph(&graph, seed, &format!("seed {seed}, {weights:?}"));
    }
}

#[test]
fn equal_length_grid_paths_are_bit_identical_to_dijkstra() {
    for seed in 0..30u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let side = rng.gen_range(3..12);
        let graph = grid_graph(&mut rng, side);
        check_graph(&graph, seed, &format!("grid seed {seed}"));
    }
}
