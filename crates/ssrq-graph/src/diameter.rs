//! The double-sweep pseudo-diameter, the normalization constant of social
//! distances.

use crate::{dijkstra_all_with, NodeId, SearchScratch, SocialGraph};

/// Estimates the weighted diameter of the graph with the standard double
/// sweep: run single-source shortest paths from the first vertex of
/// positive degree, take the farthest reachable vertex, sweep again from
/// there and return the largest finite distance found.  Returns `1.0` for
/// graphs where the sweep finds no positive distance (empty or edgeless).
pub fn pseudo_diameter(graph: &SocialGraph) -> f64 {
    if graph.node_count() == 0 {
        return 1.0;
    }
    // Prefer a vertex with at least one edge as the sweep start.
    let start = graph
        .nodes()
        .find(|&v| graph.degree(v) > 0)
        .unwrap_or(0 as NodeId);
    let mut scratch = SearchScratch::with_capacity(graph.node_count());
    let (far, far_dist) = farthest_finite(&dijkstra_all_with(graph, start, &mut scratch));
    if far_dist <= 0.0 {
        return 1.0;
    }
    let (_, diameter) = farthest_finite(&dijkstra_all_with(graph, far, &mut scratch));
    if diameter > 0.0 {
        diameter
    } else {
        1.0
    }
}

/// The finite-distance vertex farthest from the sweep source (ties broken
/// towards the lowest id, deterministically).
fn farthest_finite(dist: &[f64]) -> (NodeId, f64) {
    let mut best = (0 as NodeId, 0.0);
    for (v, &d) in dist.iter().enumerate() {
        if d.is_finite() && d > best.1 {
            best = (v as NodeId, d);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn pseudo_diameter_degenerate_graphs() {
        let edgeless = GraphBuilder::from_edges(4, Vec::<(u32, u32, f64)>::new()).unwrap();
        assert_eq!(pseudo_diameter(&edgeless), 1.0);
        let line =
            GraphBuilder::from_edges(4, vec![(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap();
        assert_eq!(pseudo_diameter(&line), 3.0);
    }
}
