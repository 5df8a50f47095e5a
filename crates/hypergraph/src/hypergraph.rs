//! The [`Hypergraph`] data structure and its builder.
//!
//! A circuit netlist defines a hypergraph `H = (V, E)`: vertices are
//! *modules* (cells, chips, blocks) and hyperedges are *signals* (nets),
//! each a subset of the modules it connects. This module stores `H` in
//! compressed sparse row (CSR) form in both directions — pins per edge and
//! incident edges per vertex — so that the partitioner's inner loops
//! (iterating pins of an edge, iterating edges of a vertex) touch contiguous
//! memory.

use crate::{BuildHypergraphError, EdgeId, VertexId};

/// An immutable weighted hypergraph in dual CSR representation.
///
/// Construct one with [`HypergraphBuilder`]. Vertices carry positive integer
/// weights (module areas); hyperedges carry positive integer weights (net
/// criticality — `1` for the plain min-cut objective).
///
/// # Examples
///
/// Build the triangle-with-a-tail hypergraph and query it:
///
/// ```
/// use fhp_hypergraph::{Hypergraph, HypergraphBuilder};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = HypergraphBuilder::new();
/// let v: Vec<_> = (0..4).map(|_| b.add_vertex()).collect();
/// let e0 = b.add_edge([v[0], v[1], v[2]])?;
/// let e1 = b.add_edge([v[2], v[3]])?;
/// let h: Hypergraph = b.build();
///
/// assert_eq!(h.num_vertices(), 4);
/// assert_eq!(h.num_edges(), 2);
/// assert_eq!(h.pins(e0), &[v[0], v[1], v[2]]);
/// assert_eq!(h.edges_of(v[2]), &[e0, e1]);
/// assert_eq!(h.edge_size(e1), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hypergraph {
    /// CSR over edges: pins of edge `e` are
    /// `edge_pins[edge_offsets[e] .. edge_offsets[e + 1]]`.
    edge_pins: Vec<VertexId>,
    edge_offsets: Vec<usize>,
    /// CSR over vertices: incident edges of vertex `v` are
    /// `vertex_edges[vertex_offsets[v] .. vertex_offsets[v + 1]]`.
    vertex_edges: Vec<EdgeId>,
    vertex_offsets: Vec<usize>,
    vertex_weights: Vec<u64>,
    edge_weights: Vec<u64>,
}

impl Hypergraph {
    /// Number of vertices (modules), `|V|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.vertex_weights.len()
    }

    /// Number of hyperedges (signals), `|E|`. The paper calls this `n`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edge_weights.len()
    }

    /// Total number of pins, `Σ_e |e|`.
    #[inline]
    pub fn num_pins(&self) -> usize {
        self.edge_pins.len()
    }

    /// The pins (member vertices) of hyperedge `e`, sorted ascending and
    /// duplicate-free.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[inline]
    pub fn pins(&self, e: EdgeId) -> &[VertexId] {
        // fhp-audit: allow(panic-site) — pin/vertex ids validated by HypergraphBuilder; documented `# Panics` contracts
        &self.edge_pins[self.edge_offsets[e.index()]..self.edge_offsets[e.index() + 1]]
    }

    /// The hyperedges incident to vertex `v`, sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn edges_of(&self, v: VertexId) -> &[EdgeId] {
        // fhp-audit: allow(panic-site) — pin/vertex ids validated by HypergraphBuilder; documented `# Panics` contracts
        &self.vertex_edges[self.vertex_offsets[v.index()]..self.vertex_offsets[v.index() + 1]]
    }

    /// Number of pins of edge `e` (the paper's *edge degree* `r`).
    #[inline]
    pub fn edge_size(&self, e: EdgeId) -> usize {
        self.edge_offsets[e.index() + 1] - self.edge_offsets[e.index()] // fhp-audit: allow(panic-site) — pin/vertex ids validated by HypergraphBuilder; documented `# Panics` contracts
    }

    /// Number of hyperedges incident to `v` (the paper's *node degree* `d`).
    #[inline]
    pub fn vertex_degree(&self, v: VertexId) -> usize {
        self.vertex_offsets[v.index() + 1] - self.vertex_offsets[v.index()] // fhp-audit: allow(panic-site) — pin/vertex ids validated by HypergraphBuilder; documented `# Panics` contracts
    }

    /// Weight (area) of vertex `v`.
    #[inline]
    pub fn vertex_weight(&self, v: VertexId) -> u64 {
        self.vertex_weights[v.index()] // fhp-audit: allow(panic-site) — pin/vertex ids validated by HypergraphBuilder; documented `# Panics` contracts
    }

    /// Weight of hyperedge `e` (its contribution to a weighted cut).
    #[inline]
    pub fn edge_weight(&self, e: EdgeId) -> u64 {
        self.edge_weights[e.index()] // fhp-audit: allow(panic-site) — pin/vertex ids validated by HypergraphBuilder; documented `# Panics` contracts
    }

    /// Sum of all vertex weights.
    pub fn total_vertex_weight(&self) -> u64 {
        self.vertex_weights.iter().sum()
    }

    /// Sum of all edge weights (a trivial upper bound on any weighted cut).
    pub fn total_edge_weight(&self) -> u64 {
        self.edge_weights.iter().sum()
    }

    /// Largest edge size, or 0 for an edgeless hypergraph.
    pub fn max_edge_size(&self) -> usize {
        (0..self.num_edges())
            .map(|e| self.edge_size(EdgeId::new(e)))
            .max()
            .unwrap_or(0)
    }

    /// Largest vertex degree, or 0 for a vertexless hypergraph.
    pub fn max_vertex_degree(&self) -> usize {
        (0..self.num_vertices())
            .map(|v| self.vertex_degree(VertexId::new(v)))
            .max()
            .unwrap_or(0)
    }

    /// Iterator over all vertex ids `0..num_vertices()`.
    pub fn vertices(&self) -> impl ExactSizeIterator<Item = VertexId> {
        (0..self.num_vertices()).map(VertexId::new)
    }

    /// Iterator over all edge ids `0..num_edges()`.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = EdgeId> {
        (0..self.num_edges()).map(EdgeId::new)
    }

    /// Connected components of the hypergraph, where two vertices are
    /// connected if some hyperedge contains both.
    ///
    /// Returns `(component_of, count)` with `component_of[v] ∈ 0..count`.
    /// Isolated vertices each form their own component. Component ids are
    /// assigned in order of first discovery by a scan over vertex ids.
    pub fn connected_components(&self) -> (Vec<u32>, usize) {
        const UNSEEN: u32 = u32::MAX;
        let mut comp = vec![UNSEEN; self.num_vertices()];
        let mut edge_seen = vec![false; self.num_edges()];
        let mut count = 0u32;
        let mut stack = Vec::new();
        for start in self.vertices() {
            // fhp-audit: allow(panic-site) — pin/vertex ids validated by HypergraphBuilder; documented `# Panics` contracts
            if comp[start.index()] != UNSEEN {
                continue;
            }
            comp[start.index()] = count; // fhp-audit: allow(panic-site) — pin/vertex ids validated by HypergraphBuilder; documented `# Panics` contracts
            stack.push(start);
            while let Some(v) = stack.pop() {
                for &e in self.edges_of(v) {
                    // fhp-audit: allow(panic-site) — pin/vertex ids validated by HypergraphBuilder; documented `# Panics` contracts
                    if edge_seen[e.index()] {
                        continue;
                    }
                    edge_seen[e.index()] = true; // fhp-audit: allow(panic-site) — pin/vertex ids validated by HypergraphBuilder; documented `# Panics` contracts
                    for &u in self.pins(e) {
                        // fhp-audit: allow(panic-site) — pin/vertex ids validated by HypergraphBuilder; documented `# Panics` contracts
                        if comp[u.index()] == UNSEEN {
                            // fhp-audit: allow(panic-site) — pin/vertex ids validated by HypergraphBuilder; documented `# Panics` contracts
                            comp[u.index()] = count; // fhp-audit: allow(panic-site) — pin/vertex ids validated by HypergraphBuilder; documented `# Panics` contracts
                            stack.push(u);
                        }
                    }
                }
            }
            count += 1;
        }
        (comp, count as usize)
    }
}

/// Incremental builder for [`Hypergraph`].
///
/// Vertices are added first (optionally weighted), then edges referencing
/// them. Pins passed to [`add_edge`](Self::add_edge) are deduplicated and
/// sorted; edge insertion order is preserved as edge ids.
///
/// # Examples
///
/// ```
/// use fhp_hypergraph::HypergraphBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = HypergraphBuilder::new();
/// let a = b.add_weighted_vertex(5);
/// let c = b.add_vertex(); // weight 1
/// b.add_edge([a, c, a])?; // duplicate pin collapsed
/// let h = b.build();
/// assert_eq!(h.edge_size(fhp_hypergraph::EdgeId::new(0)), 2);
/// assert_eq!(h.vertex_weight(a), 5);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct HypergraphBuilder {
    vertex_weights: Vec<u64>,
    edges: Vec<Vec<VertexId>>,
    edge_weights: Vec<u64>,
}

impl HypergraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder pre-populated with `n` unit-weight vertices.
    pub fn with_vertices(n: usize) -> Self {
        Self {
            vertex_weights: vec![1; n],
            edges: Vec::new(),
            edge_weights: Vec::new(),
        }
    }

    /// Adds a vertex of weight 1 and returns its id.
    pub fn add_vertex(&mut self) -> VertexId {
        self.add_weighted_vertex(1)
    }

    /// Adds a vertex of the given weight and returns its id.
    ///
    /// Weight 0 is accepted here and rejected at [`build`](Self::build) time
    /// via [`try_build`](Self::try_build); [`build`](Self::build) panics on it.
    pub fn add_weighted_vertex(&mut self, weight: u64) -> VertexId {
        let id = VertexId::new(self.vertex_weights.len());
        self.vertex_weights.push(weight);
        id
    }

    /// Replaces the weight of an existing vertex.
    ///
    /// # Panics
    ///
    /// Panics if `v` has not been added.
    pub fn set_vertex_weight(&mut self, v: VertexId, weight: u64) {
        self.vertex_weights[v.index()] = weight; // fhp-audit: allow(panic-site) — pin/vertex ids validated by HypergraphBuilder; documented `# Panics` contracts
    }

    /// Number of vertices added so far.
    pub fn num_vertices(&self) -> usize {
        self.vertex_weights.len()
    }

    /// Number of edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds a unit-weight hyperedge over the given pins and returns its id.
    ///
    /// Pins are deduplicated and sorted.
    ///
    /// # Errors
    ///
    /// Returns [`BuildHypergraphError::EmptyEdge`] if no pins are given
    /// (or all duplicates of nothing), and
    /// [`BuildHypergraphError::UnknownVertex`] if a pin id was never added.
    pub fn add_edge<I>(&mut self, pins: I) -> Result<EdgeId, BuildHypergraphError>
    where
        I: IntoIterator<Item = VertexId>,
    {
        self.add_weighted_edge(pins, 1)
    }

    /// Adds a hyperedge with an explicit weight.
    ///
    /// # Errors
    ///
    /// Same as [`add_edge`](Self::add_edge).
    pub fn add_weighted_edge<I>(
        &mut self,
        pins: I,
        weight: u64,
    ) -> Result<EdgeId, BuildHypergraphError>
    where
        I: IntoIterator<Item = VertexId>,
    {
        let id = EdgeId::new(self.edges.len());
        let mut pins: Vec<VertexId> = pins.into_iter().collect();
        pins.sort_unstable();
        pins.dedup();
        if pins.is_empty() {
            return Err(BuildHypergraphError::EmptyEdge { edge: id });
        }
        if let Some(&bad) = pins.iter().find(|p| p.index() >= self.vertex_weights.len()) {
            return Err(BuildHypergraphError::UnknownVertex {
                edge: id,
                vertex: bad,
            });
        }
        self.edges.push(pins);
        self.edge_weights.push(weight);
        Ok(id)
    }

    /// Finalizes the hypergraph.
    ///
    /// # Errors
    ///
    /// Returns [`BuildHypergraphError::ZeroVertexWeight`] if any vertex was
    /// given weight 0, and [`BuildHypergraphError::VertexWeightOverflow`]
    /// or [`BuildHypergraphError::EdgeWeightOverflow`] if the vertex or
    /// edge weights sum past `u64::MAX`.
    pub fn try_build(self) -> Result<Hypergraph, BuildHypergraphError> {
        if let Some(bad) = self.vertex_weights.iter().position(|&w| w == 0) {
            return Err(BuildHypergraphError::ZeroVertexWeight {
                vertex: VertexId::new(bad),
            });
        }
        let sums = |ws: &[u64]| {
            ws.iter()
                .try_fold(0u64, |acc, &w| acc.checked_add(w))
                .is_some()
        };
        if !sums(&self.vertex_weights) {
            return Err(BuildHypergraphError::VertexWeightOverflow);
        }
        if !sums(&self.edge_weights) {
            return Err(BuildHypergraphError::EdgeWeightOverflow);
        }
        let num_vertices = self.vertex_weights.len();

        let mut edge_offsets = Vec::with_capacity(self.edges.len() + 1);
        edge_offsets.push(0usize);
        let total_pins: usize = self.edges.iter().map(Vec::len).sum();
        let mut edge_pins = Vec::with_capacity(total_pins);
        for pins in &self.edges {
            edge_pins.extend_from_slice(pins);
            edge_offsets.push(edge_pins.len());
        }

        // Counting sort the transposed incidence (vertex -> edges). Because
        // edges are visited in ascending id order, each vertex's edge list
        // comes out sorted.
        let mut degree = vec![0usize; num_vertices];
        for &p in &edge_pins {
            degree[p.index()] += 1; // fhp-audit: allow(panic-site) — pin/vertex ids validated by HypergraphBuilder; documented `# Panics` contracts
        }
        let mut vertex_offsets = Vec::with_capacity(num_vertices + 1);
        vertex_offsets.push(0usize);
        let mut acc = 0usize;
        for &d in &degree {
            acc += d;
            vertex_offsets.push(acc);
        }
        let mut cursor = vertex_offsets.clone();
        let mut vertex_edges = vec![EdgeId::default(); total_pins];
        for (e, pins) in self.edges.iter().enumerate() {
            for &p in pins {
                vertex_edges[cursor[p.index()]] = EdgeId::new(e); // fhp-audit: allow(panic-site) — pin/vertex ids validated by HypergraphBuilder; documented `# Panics` contracts
                cursor[p.index()] += 1; // fhp-audit: allow(panic-site) — pin/vertex ids validated by HypergraphBuilder; documented `# Panics` contracts
            }
        }

        Ok(Hypergraph {
            edge_pins,
            edge_offsets,
            vertex_edges,
            vertex_offsets,
            vertex_weights: self.vertex_weights,
            edge_weights: self.edge_weights,
        })
    }

    /// Finalizes the hypergraph.
    ///
    /// # Panics
    ///
    /// Panics if any vertex has weight 0 or a weight total overflows; use
    /// [`try_build`](Self::try_build) to handle those cases as errors.
    pub fn build(self) -> Hypergraph {
        self.try_build().expect("invalid hypergraph") // fhp-audit: allow(panic-site) — pin/vertex ids validated by HypergraphBuilder; documented `# Panics` contracts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Hypergraph {
        // 5 vertices, edges: {0,1,2}, {2,3}, {3,4}, {0,4}
        let mut b = HypergraphBuilder::with_vertices(5);
        let v: Vec<_> = (0..5).map(VertexId::new).collect();
        b.add_edge([v[0], v[1], v[2]]).unwrap();
        b.add_edge([v[2], v[3]]).unwrap();
        b.add_edge([v[3], v[4]]).unwrap();
        b.add_edge([v[0], v[4]]).unwrap();
        b.build()
    }

    #[test]
    fn counts_and_sizes() {
        let h = small();
        assert_eq!(h.num_vertices(), 5);
        assert_eq!(h.num_edges(), 4);
        assert_eq!(h.num_pins(), 9);
        assert_eq!(h.edge_size(EdgeId::new(0)), 3);
        assert_eq!(h.vertex_degree(VertexId::new(0)), 2);
        assert_eq!(h.max_edge_size(), 3);
        assert_eq!(h.max_vertex_degree(), 2);
    }

    #[test]
    fn pins_are_sorted_and_deduped() {
        let mut b = HypergraphBuilder::with_vertices(4);
        let e = b
            .add_edge([VertexId::new(3), VertexId::new(1), VertexId::new(3)])
            .unwrap();
        let h = b.build();
        assert_eq!(h.pins(e), &[VertexId::new(1), VertexId::new(3)]);
    }

    #[test]
    fn incidence_is_transposed_correctly() {
        let h = small();
        for e in h.edges() {
            for &p in h.pins(e) {
                assert!(h.edges_of(p).contains(&e), "pin {p} missing edge {e}");
            }
        }
        for v in h.vertices() {
            for &e in h.edges_of(v) {
                assert!(h.pins(e).contains(&v));
            }
        }
    }

    #[test]
    fn edges_of_is_sorted() {
        let h = small();
        for v in h.vertices() {
            let es = h.edges_of(v);
            assert!(es.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn empty_edge_rejected() {
        let mut b = HypergraphBuilder::with_vertices(2);
        assert!(matches!(
            b.add_edge([]),
            Err(BuildHypergraphError::EmptyEdge { .. })
        ));
    }

    #[test]
    fn unknown_vertex_rejected() {
        let mut b = HypergraphBuilder::with_vertices(2);
        let err = b.add_edge([VertexId::new(5)]).unwrap_err();
        assert_eq!(
            err,
            BuildHypergraphError::UnknownVertex {
                edge: EdgeId::new(0),
                vertex: VertexId::new(5)
            }
        );
    }

    #[test]
    fn zero_weight_rejected_at_build() {
        let mut b = HypergraphBuilder::new();
        b.add_weighted_vertex(0);
        assert!(matches!(
            b.try_build(),
            Err(BuildHypergraphError::ZeroVertexWeight { .. })
        ));
    }

    #[test]
    fn weight_totals_past_u64_rejected_at_build() {
        let mut b = HypergraphBuilder::new();
        let a = b.add_weighted_vertex(u64::MAX);
        let c = b.add_weighted_vertex(1);
        b.add_edge([a, c]).unwrap();
        assert_eq!(
            b.try_build(),
            Err(BuildHypergraphError::VertexWeightOverflow)
        );
        let mut b = HypergraphBuilder::with_vertices(2);
        let pins = [VertexId::new(0), VertexId::new(1)];
        b.add_weighted_edge(pins, u64::MAX).unwrap();
        b.add_weighted_edge(pins, 1).unwrap();
        assert_eq!(b.try_build(), Err(BuildHypergraphError::EdgeWeightOverflow));
    }

    #[test]
    fn weights_accumulate() {
        let mut b = HypergraphBuilder::new();
        let a = b.add_weighted_vertex(3);
        let c = b.add_weighted_vertex(4);
        b.add_weighted_edge([a, c], 7).unwrap();
        b.set_vertex_weight(a, 10);
        let h = b.build();
        assert_eq!(h.total_vertex_weight(), 14);
        assert_eq!(h.total_edge_weight(), 7);
        assert_eq!(h.vertex_weight(a), 10);
        assert_eq!(h.edge_weight(EdgeId::new(0)), 7);
    }

    #[test]
    fn empty_hypergraph_is_fine() {
        let h = HypergraphBuilder::new().build();
        assert_eq!(h.num_vertices(), 0);
        assert_eq!(h.num_edges(), 0);
        assert_eq!(h.max_edge_size(), 0);
        assert_eq!(h.max_vertex_degree(), 0);
        assert_eq!(h.connected_components().1, 0);
    }

    #[test]
    fn components_single_connected() {
        let h = small();
        let (comp, count) = h.connected_components();
        assert_eq!(count, 1);
        assert!(comp.iter().all(|&c| c == 0));
    }

    #[test]
    fn components_disconnected_and_isolated() {
        let mut b = HypergraphBuilder::with_vertices(6);
        // component A: {0,1}; component B: {2,3,4}; vertex 5 isolated
        b.add_edge([VertexId::new(0), VertexId::new(1)]).unwrap();
        b.add_edge([VertexId::new(2), VertexId::new(3), VertexId::new(4)])
            .unwrap();
        let h = b.build();
        let (comp, count) = h.connected_components();
        assert_eq!(count, 3);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[2], comp[3]);
        assert_eq!(comp[3], comp[4]);
        assert_ne!(comp[0], comp[2]);
        assert_ne!(comp[5], comp[0]);
        assert_ne!(comp[5], comp[2]);
    }
}
