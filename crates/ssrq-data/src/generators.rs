//! Synthetic social-graph topology generators.
//!
//! The SSRQ algorithms are sensitive to the degree distribution (hubs make
//! Dijkstra frontiers explode) and to the hop diameter (how many hops a
//! top-k result may be away, Figure 7(a)).  Real location-based social
//! networks are scale-free with small diameter, which the preferential
//! attachment model reproduces.

use rand::prelude::*;
use rand::rngs::StdRng;
use ssrq_graph::{GraphBuilder, NodeId, SocialGraph};

/// Generates a scale-free graph with `n` vertices by preferential attachment
/// (Barabási–Albert): every new vertex attaches to `edges_per_node` distinct
/// existing vertices chosen with probability proportional to their degree.
///
/// The resulting average degree approaches `2 · edges_per_node`.  All edge
/// weights are 1.0; use [`crate::weights::degree_weights`] to assign the
/// paper's degree-derived weights afterwards.
pub fn preferential_attachment(n: usize, edges_per_node: usize, seed: u64) -> SocialGraph {
    let m = edges_per_node.max(1);
    if n <= 1 {
        return GraphBuilder::new(n).build();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::new(n);
    // Endpoint multiset: each vertex appears once per incident edge, so a
    // uniform draw from it is a degree-proportional draw.
    let mut endpoints: Vec<NodeId> = Vec::with_capacity(2 * n * m);

    // Seed clique/ring over the first `m0 = m + 1` vertices (or all of them
    // for tiny graphs).
    let m0 = (m + 1).min(n);
    for i in 0..m0 {
        let j = (i + 1) % m0;
        if i as NodeId != j as NodeId {
            let _ = builder.add_edge(i as NodeId, j as NodeId, 1.0);
            endpoints.push(i as NodeId);
            endpoints.push(j as NodeId);
        }
    }

    for v in m0..n {
        let v = v as NodeId;
        let mut targets: Vec<NodeId> = Vec::with_capacity(m);
        let mut guard = 0;
        while targets.len() < m.min(v as usize) && guard < 50 * m {
            guard += 1;
            let candidate = if endpoints.is_empty() || rng.gen_bool(0.05) {
                // Small uniform component keeps early vertices reachable and
                // avoids pathological star graphs for tiny seeds.
                rng.gen_range(0..v)
            } else {
                endpoints[rng.gen_range(0..endpoints.len())]
            };
            if candidate != v && !targets.contains(&candidate) {
                targets.push(candidate);
            }
        }
        for t in targets {
            let _ = builder.add_edge(v, t, 1.0);
            endpoints.push(v);
            endpoints.push(t);
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preferential_attachment_reaches_target_degree() {
        let g = preferential_attachment(2_000, 5, 42);
        assert_eq!(g.node_count(), 2_000);
        let avg = g.average_degree();
        assert!(
            (avg - 10.0).abs() < 1.5,
            "average degree {avg} not close to 10"
        );
    }

    #[test]
    fn preferential_attachment_produces_hubs() {
        let g = preferential_attachment(3_000, 4, 7);
        // Scale-free graphs have hubs far above the average degree.
        assert!(g.max_degree() > 5 * g.average_degree() as usize);
    }

    #[test]
    fn preferential_attachment_is_mostly_connected() {
        let g = preferential_attachment(1_000, 3, 9);
        let dist = ssrq_graph::dijkstra_all(&g, 0);
        let reachable = dist.iter().filter(|d| d.is_finite()).count();
        assert!(
            reachable as f64 > 0.99 * g.node_count() as f64,
            "only {reachable} vertices reachable"
        );
    }

    #[test]
    fn preferential_attachment_is_deterministic_per_seed() {
        let a = preferential_attachment(500, 4, 11);
        let b = preferential_attachment(500, 4, 11);
        assert_eq!(a.edge_count(), b.edge_count());
        let c = preferential_attachment(500, 4, 12);
        // Different seed virtually always gives a different topology.
        assert!(a.edge_count() != c.edge_count() || a.max_degree() != c.max_degree());
    }

    #[test]
    fn tiny_graphs_do_not_panic() {
        assert_eq!(preferential_attachment(0, 3, 1).node_count(), 0);
        assert_eq!(preferential_attachment(1, 3, 1).node_count(), 1);
        let g = preferential_attachment(2, 3, 1);
        assert_eq!(g.node_count(), 2);
        assert!(g.edge_count() <= 1);
    }
}
