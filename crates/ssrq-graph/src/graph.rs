use crate::EdgeWeight;

/// Identifier of a vertex in the social graph.
///
/// Vertex `i` corresponds to user `u_i` of the SSRQ problem setting; the
/// mapping between spatial items and graph vertices is by identity of the
/// numeric id.
pub type NodeId = u32;

/// A directed half-edge stored in the CSR adjacency: the neighbour vertex
/// and the edge weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Neighbour vertex.
    pub to: NodeId,
    /// Edge weight (strictly positive; smaller = stronger friendship).
    pub weight: EdgeWeight,
}

/// Physical storage layout of the CSR adjacency, selectable at build time
/// (see [`crate::GraphBuilder::build_with_layout`] and
/// [`SocialGraph::with_layout`]).
///
/// Both layouts expose the same iteration order and bit-identical weights,
/// so every algorithm (Dijkstra, A*, CH) produces byte-for-byte identical
/// results — including relaxation counters — regardless of layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CsrLayout {
    /// One 16-byte [`Edge`] per half-edge: fastest iteration, largest
    /// footprint.
    #[default]
    Standard,
    /// Delta/varint-compressed neighbour ids (lists are sorted ascending, so
    /// consecutive gaps are small) plus a weight store that uses an
    /// exact-`f64` dictionary when the graph has few distinct weights
    /// (degree-product weights repeat heavily) and falls back to one inline
    /// `f64` per half-edge otherwise.  No quantisation anywhere: decoded
    /// edges are bit-identical to the standard layout.
    Compressed,
}

/// Half-edge weights of the compressed layout.
#[derive(Debug, Clone)]
enum WeightStore {
    /// One exact `f64` per half-edge, in adjacency order.
    Inline(Vec<EdgeWeight>),
    /// Per-half-edge `u16` index into a dictionary of exact `f64` values;
    /// chosen when the graph has at most `u16::MAX + 1` distinct weights.
    Dict {
        indices: Vec<u16>,
        values: Vec<EdgeWeight>,
    },
    /// Per-half-edge `u32` index into the dictionary; the middle tier for
    /// graphs whose distinct-weight count overflows `u16` but still repeats
    /// enough for 4-byte indices to beat 8-byte inline values (degree-product
    /// weights on million-user graphs land here).
    DictWide {
        indices: Vec<u32>,
        values: Vec<EdgeWeight>,
    },
}

impl WeightStore {
    #[inline]
    fn get(&self, half_edge: usize) -> EdgeWeight {
        match self {
            WeightStore::Inline(w) => w[half_edge],
            WeightStore::Dict { indices, values } => values[indices[half_edge] as usize],
            WeightStore::DictWide { indices, values } => values[indices[half_edge] as usize],
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            WeightStore::Inline(w) => w.capacity() * std::mem::size_of::<EdgeWeight>(),
            WeightStore::Dict { indices, values } => {
                indices.capacity() * std::mem::size_of::<u16>()
                    + values.capacity() * std::mem::size_of::<EdgeWeight>()
            }
            WeightStore::DictWide { indices, values } => {
                indices.capacity() * std::mem::size_of::<u32>()
                    + values.capacity() * std::mem::size_of::<EdgeWeight>()
            }
        }
    }
}

/// The adjacency payload behind the shared `offsets` array.
#[derive(Debug, Clone)]
enum EdgeStore {
    Standard(Vec<Edge>),
    Compressed {
        /// Concatenated LEB128 varint streams: for each vertex, the first
        /// value is its smallest neighbour id, each following value the gap
        /// to the previous one (neighbour lists are strictly ascending).
        ids: Vec<u8>,
        /// Byte offset of each vertex's id stream (`n + 1` entries).
        id_offsets: Vec<u32>,
        weights: WeightStore,
    },
}

/// A weighted, undirected social graph in CSR (compressed sparse row) form.
///
/// The representation is immutable after construction (social-network
/// topology changes far less frequently than user locations — §5.1), keeps
/// both directions of every undirected edge, and stores adjacency behind a
/// flat `offsets` array for cache-friendly traversal.  Two physical layouts
/// are available (see [`CsrLayout`]); both decode to bit-identical edges in
/// identical order.
///
/// Use [`GraphBuilder`](crate::GraphBuilder) to construct one.
#[derive(Debug, Clone)]
pub struct SocialGraph {
    offsets: Vec<u32>,
    store: EdgeStore,
    /// Number of undirected edges (half of the stored half-edges).
    undirected_edges: usize,
}

impl SocialGraph {
    pub(crate) fn from_csr(offsets: Vec<u32>, edges: Vec<Edge>, undirected_edges: usize) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(*offsets.last().unwrap() as usize, edges.len());
        SocialGraph {
            offsets,
            store: EdgeStore::Standard(edges),
            undirected_edges,
        }
    }

    /// The physical layout of this graph's adjacency.
    pub fn layout(&self) -> CsrLayout {
        match self.store {
            EdgeStore::Standard(_) => CsrLayout::Standard,
            EdgeStore::Compressed { .. } => CsrLayout::Compressed,
        }
    }

    /// Returns a graph with identical topology and bit-identical weights in
    /// the requested layout (a cheap clone of the shared `offsets` plus a
    /// re-encode of the adjacency payload).
    pub fn with_layout(&self, layout: CsrLayout) -> SocialGraph {
        if self.layout() == layout {
            return self.clone();
        }
        match layout {
            CsrLayout::Standard => {
                let edges: Vec<Edge> = self.nodes().flat_map(|v| self.neighbors(v)).collect();
                SocialGraph {
                    offsets: self.offsets.clone(),
                    store: EdgeStore::Standard(edges),
                    undirected_edges: self.undirected_edges,
                }
            }
            CsrLayout::Compressed => {
                let half_edges = *self.offsets.last().unwrap() as usize;
                let mut ids = Vec::new();
                let mut id_offsets = Vec::with_capacity(self.offsets.len());
                let mut weights = Vec::with_capacity(half_edges);
                id_offsets.push(0u32);
                for v in self.nodes() {
                    let mut prev = 0u32;
                    for edge in self.neighbors(v) {
                        encode_varint(edge.to - prev, &mut ids);
                        prev = edge.to;
                        weights.push(edge.weight);
                    }
                    assert!(
                        ids.len() <= u32::MAX as usize,
                        "compressed id stream exceeds u32 offsets"
                    );
                    id_offsets.push(ids.len() as u32);
                }
                ids.shrink_to_fit();
                SocialGraph {
                    offsets: self.offsets.clone(),
                    store: EdgeStore::Compressed {
                        ids,
                        id_offsets,
                        weights: build_weight_store(weights),
                    },
                    undirected_edges: self.undirected_edges,
                }
            }
        }
    }

    /// Number of vertices.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.undirected_edges
    }

    /// Returns `true` when the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.node_count() == 0
    }

    /// Iterates over all vertex ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.node_count() as NodeId
    }

    /// Neighbours of `v` together with edge weights, in ascending order of
    /// neighbour id (identical for every layout).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range; use [`SocialGraph::contains`] to guard
    /// untrusted input.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> Neighbors<'_> {
        let start = self.offsets[v as usize] as usize;
        let end = self.offsets[v as usize + 1] as usize;
        let inner = match &self.store {
            EdgeStore::Standard(edges) => NeighborsInner::Slice(edges[start..end].iter()),
            EdgeStore::Compressed {
                ids,
                id_offsets,
                weights,
            } => NeighborsInner::Varint {
                bytes: &ids[id_offsets[v as usize] as usize..id_offsets[v as usize + 1] as usize],
                pos: 0,
                prev: 0,
                weights,
                half_edge: start,
                remaining: end - start,
            },
        };
        Neighbors { inner }
    }

    /// Degree (number of incident edges) of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Maximum vertex degree in the graph; 0 for an empty graph.
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Average vertex degree.
    pub fn average_degree(&self) -> f64 {
        if self.node_count() == 0 {
            return 0.0;
        }
        2.0 * self.undirected_edges as f64 / self.node_count() as f64
    }

    /// Returns `true` when `v` is a valid vertex id.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        (v as usize) < self.node_count()
    }

    /// Approximate heap footprint of the CSR representation in bytes
    /// (offsets plus the layout-dependent adjacency payload).
    ///
    /// This is the quantity a sharded deployment shares: N shards over one
    /// `Arc`-held graph pay these bytes once, not N times.  The estimate is
    /// capacity-based and ignores allocator overhead.
    pub fn approx_heap_bytes(&self) -> usize {
        let payload = match &self.store {
            EdgeStore::Standard(edges) => edges.capacity() * std::mem::size_of::<Edge>(),
            EdgeStore::Compressed {
                ids,
                id_offsets,
                weights,
            } => {
                ids.capacity()
                    + id_offsets.capacity() * std::mem::size_of::<u32>()
                    + weights.heap_bytes()
            }
        };
        self.offsets.capacity() * std::mem::size_of::<u32>() + payload
    }

    /// Iterates over every undirected edge exactly once as `(u, v, weight)`
    /// with `u < v` (self-loops are reported once).
    pub fn undirected_edges(&self) -> impl Iterator<Item = (NodeId, NodeId, EdgeWeight)> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u)
                .filter(move |e| u <= e.to)
                .map(move |e| (u, e.to, e.weight))
        })
    }
}

/// Iterator over the neighbours of one vertex (see
/// [`SocialGraph::neighbors`]); yields [`Edge`]s by value in ascending order
/// of neighbour id under every layout.
#[derive(Debug, Clone)]
pub struct Neighbors<'a> {
    inner: NeighborsInner<'a>,
}

#[derive(Debug, Clone)]
enum NeighborsInner<'a> {
    Slice(std::slice::Iter<'a, Edge>),
    Varint {
        bytes: &'a [u8],
        pos: usize,
        prev: u32,
        weights: &'a WeightStore,
        half_edge: usize,
        remaining: usize,
    },
}

impl Iterator for Neighbors<'_> {
    type Item = Edge;

    #[inline]
    fn next(&mut self) -> Option<Edge> {
        match &mut self.inner {
            NeighborsInner::Slice(it) => it.next().copied(),
            NeighborsInner::Varint {
                bytes,
                pos,
                prev,
                weights,
                half_edge,
                remaining,
            } => {
                if *remaining == 0 {
                    return None;
                }
                let (delta, next_pos) = decode_varint(bytes, *pos);
                *pos = next_pos;
                let to = *prev + delta;
                *prev = to;
                let weight = weights.get(*half_edge);
                *half_edge += 1;
                *remaining -= 1;
                Some(Edge { to, weight })
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.len();
        (n, Some(n))
    }
}

impl ExactSizeIterator for Neighbors<'_> {
    fn len(&self) -> usize {
        match &self.inner {
            NeighborsInner::Slice(it) => it.len(),
            NeighborsInner::Varint { remaining, .. } => *remaining,
        }
    }
}

/// Chooses the weight store for a compressed graph: an exact-`f64`
/// dictionary with `u16` indices when the distinct-weight count fits, `u32`
/// indices when it overflows `u16` but the dictionary still beats inline
/// storage, and inline `f64`s otherwise.  Whichever candidate is smallest
/// (ties favour inline) wins; all of them decode bit-identically.
fn build_weight_store(weights: Vec<EdgeWeight>) -> WeightStore {
    let mut distinct: Vec<u64> = weights.iter().map(|w| w.to_bits()).collect();
    distinct.sort_unstable();
    distinct.dedup();
    let value_bytes = distinct.len() * std::mem::size_of::<f64>();
    let dict16_bytes = weights.len() * std::mem::size_of::<u16>() + value_bytes;
    let dict32_bytes = weights.len() * std::mem::size_of::<u32>() + value_bytes;
    let inline_bytes = weights.len() * std::mem::size_of::<f64>();
    let values: Vec<EdgeWeight> = distinct.iter().map(|&b| f64::from_bits(b)).collect();
    let index_of = |w: &EdgeWeight| {
        distinct
            .binary_search(&w.to_bits())
            .expect("every weight is in the dictionary")
    };
    if distinct.len() <= u16::MAX as usize + 1 && dict16_bytes < inline_bytes {
        WeightStore::Dict {
            indices: weights.iter().map(|w| index_of(w) as u16).collect(),
            values,
        }
    } else if distinct.len() <= u32::MAX as usize + 1 && dict32_bytes < inline_bytes {
        WeightStore::DictWide {
            indices: weights.iter().map(|w| index_of(w) as u32).collect(),
            values,
        }
    } else {
        WeightStore::Inline(weights)
    }
}

/// LEB128 varint encoding of a `u32`.
fn encode_varint(mut x: u32, out: &mut Vec<u8>) {
    loop {
        let byte = (x & 0x7f) as u8;
        x >>= 7;
        if x == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decodes one LEB128 varint starting at `pos`; returns the value and the
/// position of the next varint.
#[inline]
fn decode_varint(bytes: &[u8], mut pos: usize) -> (u32, usize) {
    let mut x = 0u32;
    let mut shift = 0u32;
    loop {
        let byte = bytes[pos];
        pos += 1;
        x |= u32::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return (x, pos);
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// Weight of the edge `u`–`v`, read off `u`'s adjacency.
    fn weight(g: &SocialGraph, u: NodeId, v: NodeId) -> Option<EdgeWeight> {
        g.neighbors(u).find(|e| e.to == v).map(|e| e.weight)
    }

    fn triangle() -> SocialGraph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 2, 2.0).unwrap();
        b.add_edge(0, 2, 4.0).unwrap();
        b.build()
    }

    #[test]
    fn csr_counts() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert!(!g.is_empty());
        assert_eq!(g.nodes().count(), 3);
    }

    #[test]
    fn neighbors_are_symmetric() {
        let g = triangle();
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(2), 2);
        assert_eq!(weight(&g, 0, 1), Some(1.0));
        assert_eq!(weight(&g, 1, 0), Some(1.0));
        assert_eq!(weight(&g, 0, 2), Some(4.0));
        assert_eq!(weight(&g, 2, 2), None);
    }

    #[test]
    fn degree_statistics() {
        let g = triangle();
        assert_eq!(g.max_degree(), 2);
        assert!((g.average_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn undirected_edge_iteration_visits_each_edge_once() {
        let g = triangle();
        let mut edges: Vec<_> = g.undirected_edges().collect();
        edges.sort_by_key(|e| (e.0, e.1));
        assert_eq!(edges, vec![(0, 1, 1.0), (0, 2, 4.0), (1, 2, 2.0)]);
    }

    #[test]
    fn isolated_vertices_have_zero_degree() {
        let b = GraphBuilder::new(4);
        let g = b.build();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.degree(3), 0);
        assert_eq!(g.average_degree(), 0.0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        let values = [0u32, 1, 127, 128, 300, 16_383, 16_384, u32::MAX];
        for &v in &values {
            encode_varint(v, &mut buf);
        }
        let mut pos = 0;
        for &v in &values {
            let (decoded, next) = decode_varint(&buf, pos);
            assert_eq!(decoded, v);
            pos = next;
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn compressed_layout_decodes_identically() {
        let g = triangle();
        let c = g.with_layout(CsrLayout::Compressed);
        assert_eq!(c.layout(), CsrLayout::Compressed);
        assert_eq!(c.node_count(), g.node_count());
        assert_eq!(c.edge_count(), g.edge_count());
        for v in g.nodes() {
            let a: Vec<Edge> = g.neighbors(v).collect();
            let b: Vec<Edge> = c.neighbors(v).collect();
            assert_eq!(a, b);
            assert_eq!(c.degree(v), g.degree(v));
            assert_eq!(c.neighbors(v).len(), g.degree(v));
        }
        // Round-trip back to the standard layout.
        let back = c.with_layout(CsrLayout::Standard);
        assert_eq!(back.layout(), CsrLayout::Standard);
        for v in g.nodes() {
            let a: Vec<Edge> = g.neighbors(v).collect();
            let b: Vec<Edge> = back.neighbors(v).collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn with_layout_same_layout_is_identity() {
        let g = triangle();
        let same = g.with_layout(CsrLayout::Standard);
        assert_eq!(same.layout(), CsrLayout::Standard);
        assert_eq!(
            same.undirected_edges().collect::<Vec<_>>(),
            g.undirected_edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn compressed_layout_shrinks_repeated_weight_graphs() {
        // A graph large enough for the dictionary to pay for itself: 2000
        // vertices in a ring with unit weights.
        let n = 2000u32;
        let g =
            GraphBuilder::from_edges(n as usize, (0..n).map(|i| (i, (i + 1) % n, 1.0))).unwrap();
        let c = g.with_layout(CsrLayout::Compressed);
        let standard = g.approx_heap_bytes();
        let compressed = c.approx_heap_bytes();
        assert!(
            (compressed as f64) < 0.75 * standard as f64,
            "compressed {compressed} not ≥25% below standard {standard}"
        );
        // Results stay bit-identical.
        for v in g.nodes() {
            assert_eq!(
                g.neighbors(v).collect::<Vec<_>>(),
                c.neighbors(v).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn weight_store_falls_back_to_inline_for_many_distinct_weights() {
        // Every edge gets a unique weight: the dictionary cannot win and the
        // store must keep exact inline f64s.
        let n = 64u32;
        let g = GraphBuilder::from_edges(
            n as usize,
            (0..n - 1).map(|i| (i, i + 1, 1.0 + i as f64 * 1e-3)),
        )
        .unwrap();
        let c = g.with_layout(CsrLayout::Compressed);
        for v in g.nodes() {
            assert_eq!(
                g.neighbors(v).collect::<Vec<_>>(),
                c.neighbors(v).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn wide_dictionary_serves_graphs_with_many_repeated_weights() {
        // More distinct weights than u16 can index (70 000 > 65 536) but
        // each repeated across half-edges: the u32 dictionary must win over
        // inline f64s and still decode bit-identically.
        let n = 100_000u32;
        let g = GraphBuilder::from_edges(
            n as usize,
            (0..n).map(|i| (i, (i + 1) % n, 1.0 + (i % 70_000) as f64 * 1e-6)),
        )
        .unwrap();
        let c = g.with_layout(CsrLayout::Compressed);
        assert!(
            c.approx_heap_bytes() < g.approx_heap_bytes(),
            "compressed {} not below standard {}",
            c.approx_heap_bytes(),
            g.approx_heap_bytes()
        );
        for v in [0u32, 1, 69_999, 70_000, n - 1] {
            assert_eq!(
                g.neighbors(v).collect::<Vec<_>>(),
                c.neighbors(v).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn neighbors_iterator_is_exact_size() {
        let g = triangle().with_layout(CsrLayout::Compressed);
        let mut it = g.neighbors(0);
        assert_eq!(it.len(), 2);
        it.next();
        assert_eq!(it.len(), 1);
        it.next();
        assert_eq!(it.len(), 0);
        assert!(it.next().is_none());
    }
}
