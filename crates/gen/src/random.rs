//! Random hypergraphs `H(n, d, r)` — the paper's probabilistic model.
//!
//! The analysis in §3 considers hypergraphs with `n` nodes, node degree
//! ≤ `d` and edge degree ≤ `r`. This generator produces such instances
//! with uniform-random edges and optional guaranteed connectivity via an
//! initial covering chain.

use fhp_hypergraph::{Hypergraph, HypergraphBuilder, VertexId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::GenError;

/// Configuration for a uniform random hypergraph.
///
/// # Examples
///
/// ```
/// use fhp_gen::RandomHypergraph;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let h = RandomHypergraph::new(100, 150)
///     .edge_size_range(2, 4)
///     .connected(true)
///     .seed(7)
///     .generate()?;
/// assert_eq!(h.num_vertices(), 100);
/// assert_eq!(h.num_edges(), 150);
/// assert!(h.max_edge_size() <= 4);
/// assert_eq!(h.connected_components().1, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug)]
pub struct RandomHypergraph {
    num_vertices: usize,
    num_edges: usize,
    edge_size_min: usize,
    edge_size_max: usize,
    connected: bool,
    seed: u64,
}

impl RandomHypergraph {
    /// A generator for `num_vertices` modules and `num_edges` signals with
    /// sizes 2–4, connectivity not enforced, seed 0.
    pub fn new(num_vertices: usize, num_edges: usize) -> Self {
        Self {
            num_vertices,
            num_edges,
            edge_size_min: 2,
            edge_size_max: 4,
            connected: false,
            seed: 0,
        }
    }

    /// Sets the inclusive edge-size range (the paper's `r` is the max).
    pub fn edge_size_range(mut self, min: usize, max: usize) -> Self {
        self.edge_size_min = min;
        self.edge_size_max = max;
        self
    }

    /// Guarantees a connected instance by spending the first few edges on a
    /// covering chain over a random vertex order.
    pub fn connected(mut self, connected: bool) -> Self {
        self.connected = connected;
        self
    }

    /// Seeds the generator.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the instance.
    ///
    /// # Errors
    ///
    /// [`GenError::InvalidConfig`] if sizes are inconsistent (fewer than 2
    /// vertices, an empty/reversed size range, sizes exceeding the vertex
    /// count, or too few edges to build the connectivity chain).
    pub fn generate(&self) -> Result<Hypergraph, GenError> {
        self.validate()?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut b = HypergraphBuilder::with_vertices(self.num_vertices);
        let mut edges_left = self.num_edges;

        if self.connected {
            edges_left -= self.chain_edges(&mut b, &mut rng);
        }
        for _ in 0..edges_left {
            let size = rng.gen_range(self.edge_size_min..=self.edge_size_max);
            let pins = self.sample_pins(size, &mut rng);
            b.add_edge(pins).expect("sampled pins are valid");
        }
        Ok(b.build())
    }

    /// Chains all vertices in random order with overlapping edges of the
    /// maximum size; returns the number of edges spent.
    fn chain_edges(&self, b: &mut HypergraphBuilder, rng: &mut StdRng) -> usize {
        let mut order: Vec<VertexId> = (0..self.num_vertices).map(VertexId::new).collect();
        order.shuffle(rng);
        let span = self.edge_size_max;
        let mut used = 0;
        let mut i = 0;
        while i + 1 < order.len() {
            let end = (i + span).min(order.len());
            let pins: Vec<VertexId> = order[i..end].to_vec();
            b.add_edge(pins).expect("chain pins are valid");
            used += 1;
            i = end - 1; // overlap by one vertex to stay connected
        }
        used
    }

    /// Samples `size` distinct pins uniformly.
    fn sample_pins(&self, size: usize, rng: &mut StdRng) -> Vec<VertexId> {
        let mut pins = Vec::with_capacity(size);
        while pins.len() < size {
            let v = VertexId::new(rng.gen_range(0..self.num_vertices));
            if !pins.contains(&v) {
                pins.push(v);
            }
        }
        pins
    }

    fn validate(&self) -> Result<(), GenError> {
        if self.num_vertices < 2 {
            return Err(GenError::invalid("needs at least 2 vertices"));
        }
        if self.edge_size_min < 2 || self.edge_size_min > self.edge_size_max {
            return Err(GenError::invalid(
                "edge size range must satisfy 2 <= min <= max",
            ));
        }
        if self.edge_size_max > self.num_vertices {
            return Err(GenError::invalid("edge size exceeds vertex count"));
        }
        if self.connected {
            let span = self.edge_size_max;
            let chain = self.num_vertices.saturating_sub(1).div_ceil(span - 1);
            if chain > self.num_edges {
                return Err(GenError::invalid("too few edges to guarantee connectivity"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respects_counts_and_sizes() {
        let h = RandomHypergraph::new(50, 80)
            .edge_size_range(2, 5)
            .seed(1)
            .generate()
            .unwrap();
        assert_eq!(h.num_vertices(), 50);
        assert_eq!(h.num_edges(), 80);
        assert!(h.max_edge_size() <= 5);
        for e in h.edges() {
            assert!(h.edge_size(e) >= 2);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = RandomHypergraph::new(30, 40).seed(9).generate().unwrap();
        let b = RandomHypergraph::new(30, 40).seed(9).generate().unwrap();
        assert_eq!(a, b);
        let c = RandomHypergraph::new(30, 40).seed(10).generate().unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn connected_flag_connects() {
        for seed in 0..5 {
            let h = RandomHypergraph::new(60, 70)
                .connected(true)
                .seed(seed)
                .generate()
                .unwrap();
            assert_eq!(h.connected_components().1, 1, "seed {seed}");
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(RandomHypergraph::new(1, 5).generate().is_err());
        assert!(RandomHypergraph::new(10, 5)
            .edge_size_range(1, 3)
            .generate()
            .is_err());
        assert!(RandomHypergraph::new(10, 5)
            .edge_size_range(4, 3)
            .generate()
            .is_err());
        assert!(RandomHypergraph::new(3, 5)
            .edge_size_range(2, 8)
            .generate()
            .is_err());
        assert!(RandomHypergraph::new(100, 2)
            .connected(true)
            .generate()
            .is_err());
    }

    #[test]
    fn unit_weights() {
        let h = RandomHypergraph::new(20, 20).seed(2).generate().unwrap();
        assert_eq!(h.total_vertex_weight(), 20);
    }
}
