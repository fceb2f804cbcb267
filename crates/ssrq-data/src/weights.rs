//! Edge-weight assignment.
//!
//! Real social networks expose no explicit tie-strength information, so the
//! paper derives weights from vertex degrees (§6): the more friends a user
//! has, the looser each individual connection, i.e.
//! `w(v_i, v_j) = deg(v_i) · deg(v_j) / max_deg²`.

use ssrq_graph::{GraphBuilder, SocialGraph};

/// Smallest weight ever assigned; guards against zero-weight edges (the
/// graph substrate requires strictly positive weights and a zero weight
/// would let shortest paths traverse edges "for free").
pub const MIN_WEIGHT: f64 = 1e-9;

/// Reweights every edge of `graph` with the paper's degree product formula
/// `deg(v_i) · deg(v_j) / max_deg²`, returning a new graph with identical
/// topology.
pub fn degree_weights(graph: &SocialGraph) -> SocialGraph {
    let max_degree = graph.max_degree().max(1) as f64;
    let mut builder = GraphBuilder::new(graph.node_count());
    for (u, v, _) in graph.undirected_edges() {
        let w = (graph.degree(u) as f64 * graph.degree(v) as f64) / (max_degree * max_degree);
        builder
            .add_edge(u, v, w.max(MIN_WEIGHT))
            .expect("edge endpoints come from the source graph");
    }
    builder.build()
}

/// Reweights every edge with a constant weight (hop-count distances).
pub fn uniform_weights(graph: &SocialGraph, weight: f64) -> SocialGraph {
    let weight = weight.max(MIN_WEIGHT);
    let mut builder = GraphBuilder::new(graph.node_count());
    for (u, v, _) in graph.undirected_edges() {
        builder
            .add_edge(u, v, weight)
            .expect("edge endpoints come from the source graph");
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssrq_graph::GraphBuilder;

    /// Weight of the edge `u`–`v`, read off `u`'s adjacency.
    fn weight(g: &SocialGraph, u: u32, v: u32) -> Option<f64> {
        g.neighbors(u).find(|e| e.to == v).map(|e| e.weight)
    }

    fn star_plus_edge() -> SocialGraph {
        // Hub 0 with 4 leaves, plus an edge between two leaves.
        GraphBuilder::from_edges(
            5,
            vec![
                (0, 1, 1.0),
                (0, 2, 1.0),
                (0, 3, 1.0),
                (0, 4, 1.0),
                (1, 2, 1.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn degree_weights_follow_the_formula() {
        let g = star_plus_edge();
        let weighted = degree_weights(&g);
        // max_degree = 4 (the hub).
        // Edge (0, 1): deg 4 * deg 2 / 16 = 0.5.
        assert!((weight(&weighted, 0, 1).unwrap() - 0.5).abs() < 1e-12);
        // Edge (0, 3): deg 4 * deg 1 / 16 = 0.25.
        assert!((weight(&weighted, 0, 3).unwrap() - 0.25).abs() < 1e-12);
        // Edge (1, 2): deg 2 * deg 2 / 16 = 0.25.
        assert!((weight(&weighted, 1, 2).unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn topology_is_preserved() {
        let g = star_plus_edge();
        let weighted = degree_weights(&g);
        assert_eq!(weighted.node_count(), g.node_count());
        assert_eq!(weighted.edge_count(), g.edge_count());
        for (u, v, _) in g.undirected_edges() {
            assert!(weight(&weighted, u, v).is_some());
        }
    }

    #[test]
    fn hub_edges_are_weaker_than_leaf_edges() {
        // The formula makes connections of well-connected users weaker
        // (larger weight = weaker tie).
        let g = star_plus_edge();
        let weighted = degree_weights(&g);
        assert!(weight(&weighted, 0, 1).unwrap() > weight(&weighted, 0, 3).unwrap());
    }

    #[test]
    fn weights_are_strictly_positive() {
        let g = star_plus_edge();
        for (_, _, w) in degree_weights(&g).undirected_edges() {
            assert!(w >= MIN_WEIGHT);
        }
    }

    #[test]
    fn uniform_weights_assigns_constant() {
        let g = star_plus_edge();
        let w = uniform_weights(&g, 2.5);
        for (_, _, weight) in w.undirected_edges() {
            assert_eq!(weight, 2.5);
        }
        // Zero and negative weights are clamped to the minimum.
        let w = uniform_weights(&g, 0.0);
        for (_, _, weight) in w.undirected_edges() {
            assert_eq!(weight, MIN_WEIGHT);
        }
    }
}
