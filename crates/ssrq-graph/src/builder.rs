use crate::{CsrLayout, Edge, EdgeWeight, GraphError, NodeId, SocialGraph};

/// Incremental builder for a [`SocialGraph`].
///
/// Edges are collected as `(u, v, w)` triples and converted into the CSR
/// layout by [`GraphBuilder::build`].  Duplicate edges are collapsed keeping
/// the smallest weight (the strongest friendship); self-loops are rejected
/// because they can never influence a shortest-path distance between two
/// distinct users.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    node_count: usize,
    edges: Vec<(NodeId, NodeId, EdgeWeight)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `node_count` vertices
    /// (ids `0 .. node_count`).
    pub fn new(node_count: usize) -> Self {
        GraphBuilder {
            node_count,
            edges: Vec::new(),
        }
    }

    /// Number of vertices the final graph will have.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Adds an undirected edge between `u` and `v` with weight `w`.
    ///
    /// # Errors
    ///
    /// * [`GraphError::UnknownNode`] if either endpoint is out of range.
    /// * [`GraphError::InvalidEdge`] for self-loops or non-positive /
    ///   non-finite weights.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: EdgeWeight) -> Result<(), GraphError> {
        if u as usize >= self.node_count {
            return Err(GraphError::UnknownNode(u));
        }
        if v as usize >= self.node_count {
            return Err(GraphError::UnknownNode(v));
        }
        if u == v {
            return Err(GraphError::InvalidEdge(format!("self loop on vertex {u}")));
        }
        if !w.is_finite() || w <= 0.0 {
            return Err(GraphError::InvalidEdge(format!(
                "edge ({u}, {v}) has non-positive or non-finite weight {w}"
            )));
        }
        self.edges.push((u, v, w));
        Ok(())
    }

    /// Convenience constructor: builds a graph directly from an edge list.
    pub fn from_edges(
        node_count: usize,
        edges: impl IntoIterator<Item = (NodeId, NodeId, EdgeWeight)>,
    ) -> Result<SocialGraph, GraphError> {
        let mut b = GraphBuilder::new(node_count);
        for (u, v, w) in edges {
            b.add_edge(u, v, w)?;
        }
        Ok(b.build())
    }

    /// Finalizes the builder into a CSR [`SocialGraph`] in the requested
    /// physical layout (see [`CsrLayout`]); topology, weights and iteration
    /// order are identical for every layout.
    pub fn build_with_layout(self, layout: CsrLayout) -> SocialGraph {
        let graph = self.build();
        match layout {
            CsrLayout::Standard => graph,
            CsrLayout::Compressed => graph.with_layout(CsrLayout::Compressed),
        }
    }

    /// Finalizes the builder into a CSR [`SocialGraph`].
    ///
    /// Duplicate undirected edges are merged keeping the minimum weight.
    pub fn build(self) -> SocialGraph {
        let n = self.node_count;
        // Canonicalize (u < v), sort, and deduplicate keeping the minimum
        // weight per pair.
        let mut canon: Vec<(NodeId, NodeId, EdgeWeight)> = self
            .edges
            .into_iter()
            .map(|(u, v, w)| if u < v { (u, v, w) } else { (v, u, w) })
            .collect();
        canon.sort_by(|a, b| {
            (a.0, a.1)
                .cmp(&(b.0, b.1))
                .then(a.2.partial_cmp(&b.2).unwrap_or(std::cmp::Ordering::Equal))
        });
        canon.dedup_by(|next, prev| {
            if next.0 == prev.0 && next.1 == prev.1 {
                // keep the smaller weight, which sorts first
                true
            } else {
                false
            }
        });

        // Count degrees for both directions.
        let mut degrees = vec![0u32; n];
        for &(u, v, _) in &canon {
            degrees[u as usize] += 1;
            degrees[v as usize] += 1;
        }
        let mut offsets = vec![0u32; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + degrees[i];
        }
        let total = offsets[n] as usize;
        let mut edges = vec![Edge { to: 0, weight: 0.0 }; total];
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        for &(u, v, w) in &canon {
            edges[cursor[u as usize] as usize] = Edge { to: v, weight: w };
            cursor[u as usize] += 1;
            edges[cursor[v as usize] as usize] = Edge { to: u, weight: w };
            cursor[v as usize] += 1;
        }
        SocialGraph::from_csr(offsets, edges, canon.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Weight of the edge `u`–`v`, read off `u`'s adjacency.
    fn weight(g: &SocialGraph, u: NodeId, v: NodeId) -> Option<EdgeWeight> {
        g.neighbors(u).find(|e| e.to == v).map(|e| e.weight)
    }

    #[test]
    fn builds_empty_graph() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn rejects_bad_edges() {
        let mut b = GraphBuilder::new(3);
        assert_eq!(b.add_edge(0, 3, 1.0), Err(GraphError::UnknownNode(3)));
        assert_eq!(b.add_edge(5, 0, 1.0), Err(GraphError::UnknownNode(5)));
        assert!(matches!(
            b.add_edge(1, 1, 1.0),
            Err(GraphError::InvalidEdge(_))
        ));
        assert!(matches!(
            b.add_edge(0, 1, 0.0),
            Err(GraphError::InvalidEdge(_))
        ));
        assert!(matches!(
            b.add_edge(0, 1, -2.0),
            Err(GraphError::InvalidEdge(_))
        ));
        assert!(matches!(
            b.add_edge(0, 1, f64::NAN),
            Err(GraphError::InvalidEdge(_))
        ));
    }

    #[test]
    fn duplicate_edges_keep_minimum_weight() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 5.0).unwrap();
        b.add_edge(1, 0, 2.0).unwrap();
        b.add_edge(0, 1, 7.0).unwrap();
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(weight(&g, 0, 1), Some(2.0));
    }

    #[test]
    fn from_edges_builds_symmetric_adjacency() {
        let g = GraphBuilder::from_edges(4, vec![(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)]).unwrap();
        assert_eq!(g.edge_count(), 3);
        for (u, v, w) in [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)] {
            assert_eq!(weight(&g, u, v), Some(w));
            assert_eq!(weight(&g, v, u), Some(w));
        }
    }
}
