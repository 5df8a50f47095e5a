//! Descriptive statistics over hypergraphs.
//!
//! The paper's analysis is parameterized by the class `H(n, d, r, c)` —
//! `n` nodes, node degree ≤ `d`, edge degree ≤ `r`, minimum cutsize `c`.
//! These helpers report the empirical `d`, `r` and related shape data for
//! an instance, which the experiment harness prints alongside results.

use crate::Hypergraph;

/// Summary statistics of a hypergraph instance.
///
/// # Examples
///
/// ```
/// use fhp_hypergraph::{stats::HypergraphStats, intersection::paper_example};
///
/// let s = HypergraphStats::of(&paper_example());
/// assert_eq!(s.num_vertices, 12);
/// assert_eq!(s.num_edges, 9);
/// assert_eq!(s.max_edge_size, 4);
/// assert!(s.mean_edge_size > 2.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct HypergraphStats {
    /// `|V|` — module count.
    pub num_vertices: usize,
    /// `|E|` — signal count (the paper's `n`).
    pub num_edges: usize,
    /// Total pins.
    pub num_pins: usize,
    /// Paper's `d`: maximum vertex degree.
    pub max_vertex_degree: usize,
    /// Paper's `r`: maximum edge size.
    pub max_edge_size: usize,
    /// Mean pins per edge.
    pub mean_edge_size: f64,
    /// Mean incident edges per vertex.
    pub mean_vertex_degree: f64,
    /// Connected component count.
    pub num_components: usize,
    /// Total vertex weight.
    pub total_vertex_weight: u64,
}

impl HypergraphStats {
    /// Computes the summary for `h`.
    pub fn of(h: &Hypergraph) -> Self {
        let nv = h.num_vertices();
        let ne = h.num_edges();
        Self {
            num_vertices: nv,
            num_edges: ne,
            num_pins: h.num_pins(),
            max_vertex_degree: h.max_vertex_degree(),
            max_edge_size: h.max_edge_size(),
            mean_edge_size: if ne == 0 {
                0.0
            } else {
                h.num_pins() as f64 / ne as f64
            },
            mean_vertex_degree: if nv == 0 {
                0.0
            } else {
                h.num_pins() as f64 / nv as f64
            },
            num_components: h.connected_components().1,
            total_vertex_weight: h.total_vertex_weight(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intersection::paper_example;
    use crate::HypergraphBuilder;

    #[test]
    fn stats_of_paper_example() {
        let h = paper_example();
        let s = HypergraphStats::of(&h);
        assert_eq!(s.num_pins, h.num_pins());
        assert_eq!(s.num_components, 1);
        assert_eq!(s.total_vertex_weight, 12);
        assert!((s.mean_edge_size - h.num_pins() as f64 / 9.0).abs() < 1e-12);
        assert!((s.mean_vertex_degree - h.num_pins() as f64 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn empty_hypergraph_stats() {
        let s = HypergraphStats::of(&HypergraphBuilder::new().build());
        assert_eq!(s.mean_edge_size, 0.0);
        assert_eq!(s.mean_vertex_degree, 0.0);
        assert_eq!(s.num_components, 0);
    }
}
