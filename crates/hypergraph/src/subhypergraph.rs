//! Induced sub-hypergraphs, with id mappings back to the parent.
//!
//! Recursive min-cut placement partitions a netlist, then recurses into
//! each side — which needs the hypergraph *induced* on a module subset:
//! keep those modules, restrict every signal to its pins inside the
//! subset, and drop signals left with fewer than two pins. The
//! [`Subhypergraph`] remembers both directions of the id mapping so
//! partitions of the child can be applied to the parent.

use crate::{BuildGraphError, EdgeId, Hypergraph, HypergraphBuilder, VertexId};

/// A hypergraph induced on a vertex subset, plus the id correspondence.
///
/// # Examples
///
/// ```
/// use fhp_hypergraph::{subhypergraph::Subhypergraph, intersection::paper_example, VertexId};
///
/// let h = paper_example();
/// // keep the first six modules
/// let keep: Vec<VertexId> = (0..6).map(VertexId::new).collect();
/// let sub = Subhypergraph::induce(&h, &keep);
/// assert_eq!(sub.hypergraph().num_vertices(), 6);
/// // every child signal is a restriction of some parent signal
/// for e in sub.hypergraph().edges() {
///     assert!(sub.parent_edge(e).index() < h.num_edges());
/// }
/// ```
#[derive(Clone, Debug)]
pub struct Subhypergraph {
    hypergraph: Hypergraph,
    /// Parent vertex of each child vertex.
    parent_vertex: Vec<VertexId>,
    /// Parent edge of each child edge.
    parent_edge: Vec<EdgeId>,
}

impl Subhypergraph {
    /// Induces the sub-hypergraph on `keep` (order defines the child's
    /// vertex ids). Signals are restricted to pins inside `keep`; signals
    /// with fewer than two remaining pins are dropped. Vertex and edge
    /// weights carry over.
    ///
    /// # Panics
    ///
    /// Panics if `keep` contains an out-of-range or duplicate vertex, or
    /// overflows `u32` child ids.
    pub fn induce(h: &Hypergraph, keep: &[VertexId]) -> Self {
        // fhp-audit: allow(panic-site) — dense remap arrays built in this function before use
        Self::try_induce(h, keep).expect("keep set overflows u32 child vertex ids")
    }

    /// Fallible form of [`Subhypergraph::induce`]: rejects keep sets whose
    /// size overflows the `u32` child vertex id space (one id is reserved
    /// as the "absent" sentinel) instead of panicking.
    ///
    /// # Panics
    ///
    /// Still panics if `keep` contains an out-of-range or duplicate
    /// vertex — those are caller bugs, not input-size conditions.
    fn try_induce(h: &Hypergraph, keep: &[VertexId]) -> Result<Self, BuildGraphError> {
        const ABSENT: u32 = u32::MAX;
        if u32::try_from(keep.len()).map_or(true, |n| n == ABSENT) {
            return Err(BuildGraphError::TooManyVertices { found: keep.len() });
        }
        let mut child_of = vec![ABSENT; h.num_vertices()];
        let mut b = HypergraphBuilder::new();
        for (i, &v) in keep.iter().enumerate() {
            assert!(
                child_of[v.index()] == ABSENT, // fhp-audit: allow(panic-site) — dense remap arrays built in this function before use
                "duplicate vertex {v} in keep set"
            );
            // fhp-audit: allow(as-cast-truncation) — child index bounded by the sub-vertex count, which fits u32
            // fhp-audit: allow(panic-site) — dense remap arrays built in this function before use
            child_of[v.index()] = i as u32;
            b.add_weighted_vertex(h.vertex_weight(v));
        }
        let mut parent_edge = Vec::new();
        for e in h.edges() {
            let pins: Vec<VertexId> = h
                .pins(e)
                .iter()
                .filter(|p| child_of[p.index()] != ABSENT) // fhp-audit: allow(panic-site) — dense remap arrays built in this function before use
                .map(|p| VertexId::new(child_of[p.index()] as usize)) // fhp-audit: allow(panic-site) — dense remap arrays built in this function before use
                .collect();
            if pins.len() >= 2 {
                b.add_weighted_edge(pins, h.edge_weight(e))
                    .expect("restricted pins are valid"); // fhp-audit: allow(panic-site) — dense remap arrays built in this function before use
                parent_edge.push(e);
            }
        }
        Ok(Self {
            hypergraph: b.build(),
            parent_vertex: keep.to_vec(),
            parent_edge,
        })
    }

    /// The induced hypergraph.
    pub fn hypergraph(&self) -> &Hypergraph {
        &self.hypergraph
    }

    /// The parent edge behind child edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn parent_edge(&self, e: EdgeId) -> EdgeId {
        self.parent_edge[e.index()] // fhp-audit: allow(panic-site) — dense remap arrays built in this function before use
    }

    /// The kept parent vertices, in child id order.
    pub fn parent_vertices(&self) -> &[VertexId] {
        &self.parent_vertex
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intersection::paper_example;

    #[test]
    fn induces_correct_shape() {
        let h = paper_example();
        let keep: Vec<VertexId> = (0..6).map(VertexId::new).collect();
        let sub = Subhypergraph::induce(&h, &keep);
        assert_eq!(sub.hypergraph().num_vertices(), 6);
        assert!(sub.hypergraph().num_edges() <= h.num_edges());
    }

    #[test]
    fn restriction_preserves_membership() {
        let h = paper_example();
        let keep: Vec<VertexId> = [0usize, 2, 3, 4, 5, 6]
            .iter()
            .map(|&i| VertexId::new(i))
            .collect();
        let sub = Subhypergraph::induce(&h, &keep);
        for e in sub.hypergraph().edges() {
            let parent = sub.parent_edge(e);
            for &p in sub.hypergraph().pins(e) {
                let pp = sub.parent_vertices()[p.index()];
                assert!(h.pins(parent).contains(&pp));
                assert!(keep.contains(&pp));
            }
        }
    }

    #[test]
    fn single_pin_remnants_dropped() {
        let h = paper_example();
        // signal d = {3, 5} (0-based 2, 4): keeping only module 3 drops it
        let keep = vec![VertexId::new(2), VertexId::new(0), VertexId::new(1)];
        let sub = Subhypergraph::induce(&h, &keep);
        for e in sub.hypergraph().edges() {
            assert!(sub.hypergraph().edge_size(e) >= 2);
        }
    }

    #[test]
    fn weights_carry_over() {
        let mut b = HypergraphBuilder::new();
        let v0 = b.add_weighted_vertex(5);
        let v1 = b.add_weighted_vertex(7);
        let v2 = b.add_weighted_vertex(9);
        b.add_weighted_edge([v0, v1, v2], 3).unwrap();
        let h = b.build();
        let sub = Subhypergraph::induce(&h, &[v2, v0]);
        assert_eq!(sub.hypergraph().vertex_weight(VertexId::new(0)), 9);
        assert_eq!(sub.hypergraph().vertex_weight(VertexId::new(1)), 5);
        assert_eq!(sub.hypergraph().edge_weight(EdgeId::new(0)), 3);
    }

    #[test]
    fn keep_order_defines_child_ids() {
        let h = paper_example();
        let keep = vec![VertexId::new(5), VertexId::new(1)];
        let sub = Subhypergraph::induce(&h, &keep);
        assert_eq!(sub.parent_vertices(), &[VertexId::new(5), VertexId::new(1)]);
    }

    #[test]
    fn empty_keep_is_empty() {
        let h = paper_example();
        let sub = Subhypergraph::induce(&h, &[]);
        assert_eq!(sub.hypergraph().num_vertices(), 0);
        assert_eq!(sub.hypergraph().num_edges(), 0);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_keep_panics() {
        let h = paper_example();
        let _ = Subhypergraph::induce(&h, &[VertexId::new(1), VertexId::new(1)]);
    }
}
