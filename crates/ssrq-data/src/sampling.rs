//! Structure-preserving graph sampling.
//!
//! Figure 14(b) of the paper studies scalability by extracting sub-networks
//! of different sizes from Foursquare with *Forest Fire Sampling* (Leskovec
//! & Faloutsos, "Sampling from large graphs"): a random ambassador vertex is
//! chosen, a "fire" burns a geometrically distributed number of its
//! neighbours, and spreads recursively from the burnt vertices; new fires
//! are started until the requested number of vertices has been collected.
//! The induced subgraph preserves degree distribution and community
//! structure far better than uniform vertex sampling.

use rand::prelude::*;
use rand::rngs::StdRng;
use ssrq_graph::{GraphBuilder, NodeId, SocialGraph};
use std::collections::VecDeque;

/// Extracts a Forest Fire sample of `target_nodes` vertices.
///
/// * `forward_prob` — the burning probability `p_f` (0.7 in the original
///   paper's recommended setting); the number of neighbours burnt from each
///   vertex is geometrically distributed with mean `p_f / (1 − p_f)`.
///
/// Returns the induced subgraph (with vertices re-labelled `0..sample_size`)
/// and the mapping `new id → original id`.
pub fn forest_fire_sample(
    graph: &SocialGraph,
    target_nodes: usize,
    forward_prob: f64,
    seed: u64,
) -> (SocialGraph, Vec<NodeId>) {
    let n = graph.node_count();
    let target = target_nodes.min(n);
    let mut rng = StdRng::seed_from_u64(seed);
    let p = forward_prob.clamp(0.0, 0.99);

    let mut burnt = vec![false; n];
    let mut order: Vec<NodeId> = Vec::with_capacity(target);

    while order.len() < target {
        // Pick a fresh ambassador.
        let mut ambassador = rng.gen_range(0..n) as NodeId;
        let mut guard = 0;
        while burnt[ambassador as usize] && guard < 10 * n {
            ambassador = rng.gen_range(0..n) as NodeId;
            guard += 1;
        }
        if burnt[ambassador as usize] {
            break; // everything is burnt already
        }
        burnt[ambassador as usize] = true;
        order.push(ambassador);

        let mut queue = VecDeque::from([ambassador]);
        while let Some(v) = queue.pop_front() {
            if order.len() >= target {
                break;
            }
            // Geometric number of neighbours to burn: keep "succeeding" with
            // probability p.
            let mut to_burn = 0usize;
            while rng.gen_bool(p) {
                to_burn += 1;
                if to_burn > 1_000 {
                    break;
                }
            }
            if to_burn == 0 {
                continue;
            }
            let mut unburnt: Vec<NodeId> = graph
                .neighbors(v)
                .map(|e| e.to)
                .filter(|&u| !burnt[u as usize])
                .collect();
            unburnt.shuffle(&mut rng);
            for u in unburnt.into_iter().take(to_burn) {
                if order.len() >= target {
                    break;
                }
                burnt[u as usize] = true;
                order.push(u);
                queue.push_back(u);
            }
        }
    }

    // Induced subgraph over the burnt vertices, relabelled consecutively.
    let mut new_id = vec![NodeId::MAX; n];
    for (new, &old) in order.iter().enumerate() {
        new_id[old as usize] = new as NodeId;
    }
    let mut builder = GraphBuilder::new(order.len());
    for &old in &order {
        for edge in graph.neighbors(old) {
            let other = new_id[edge.to as usize];
            if other != NodeId::MAX && new_id[old as usize] < other {
                let _ = builder.add_edge(new_id[old as usize], other, edge.weight);
            }
        }
    }
    (builder.build(), order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::preferential_attachment;

    #[test]
    fn sample_has_the_requested_size() {
        let g = preferential_attachment(5_000, 5, 3);
        let (sample, mapping) = forest_fire_sample(&g, 1_200, 0.7, 11);
        assert_eq!(sample.node_count(), 1_200);
        assert_eq!(mapping.len(), 1_200);
    }

    #[test]
    fn mapping_refers_to_distinct_original_vertices() {
        let g = preferential_attachment(2_000, 4, 5);
        let (_, mapping) = forest_fire_sample(&g, 800, 0.7, 7);
        let mut sorted = mapping.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), mapping.len());
        assert!(sorted.iter().all(|&v| (v as usize) < g.node_count()));
    }

    #[test]
    fn sampled_edges_exist_in_the_original_graph_with_same_weights() {
        let g = crate::weights::degree_weights(&preferential_attachment(1_500, 4, 9));
        let (sample, mapping) = forest_fire_sample(&g, 600, 0.7, 13);
        for (u, v, w) in sample.undirected_edges() {
            let ou = mapping[u as usize];
            let ov = mapping[v as usize];
            assert_eq!(
                g.neighbors(ou).find(|e| e.to == ov).map(|e| e.weight),
                Some(w)
            );
        }
    }

    #[test]
    fn sample_preserves_scale_free_shape_roughly() {
        let g = preferential_attachment(6_000, 5, 17);
        let (sample, _) = forest_fire_sample(&g, 2_000, 0.7, 19);
        // The sample should keep a meaningful share of edges and exhibit
        // hubs, unlike uniform node sampling which shatters the graph.
        assert!(sample.average_degree() > 2.0);
        assert!(sample.max_degree() > 4 * sample.average_degree() as usize);
    }

    #[test]
    fn requesting_more_nodes_than_available_returns_everything() {
        let g = preferential_attachment(300, 3, 23);
        let (sample, mapping) = forest_fire_sample(&g, 10_000, 0.7, 29);
        assert_eq!(sample.node_count(), 300);
        assert_eq!(mapping.len(), 300);
    }

    #[test]
    fn zero_forward_probability_still_terminates() {
        let g = preferential_attachment(200, 3, 31);
        let (sample, _) = forest_fire_sample(&g, 50, 0.0, 37);
        assert_eq!(sample.node_count(), 50);
    }
}
