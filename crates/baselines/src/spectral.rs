//! Spectral bisection — the eigenvector family of partitioners.
//!
//! The paper's related work surveys "graph space mappings" (Fukunaga et
//! al., its ref. \[11\]) — continuous embeddings whose coordinates are
//! Laplacian eigenvectors. Spectral bisection is the canonical member:
//! compute the Fiedler vector (the eigenvector of the second-smallest
//! Laplacian eigenvalue) of the clique-expanded hypergraph and sweep a
//! split point along its sorted order, keeping the best actual hyperedge
//! cut.
//!
//! The Laplacian is never materialized: a hyperedge `e` of weight `w`
//! clique-expands to pairwise weights `w/(|e|−1)`, and its contribution to
//! the matrix-vector product is computable in `O(|e|)` from the pin sum.
//! The Fiedler vector comes from shifted power iteration with deflation
//! against the all-ones vector — dependency-free and `O(pins)` per
//! iteration.

use fhp_core::{metrics, Bipartition, Bipartitioner, PartitionError, Side};
use fhp_hypergraph::{Hypergraph, VertexId};

/// Spectral (Fiedler-vector) bisection with a sweep-cut rounding.
///
/// # Examples
///
/// ```
/// use fhp_baselines::SpectralBisection;
/// use fhp_core::{metrics, Bipartitioner};
/// use fhp_hypergraph::Netlist;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let nl = Netlist::parse("a: 1 2 3\nb: 3 4\nc: 4 5 6\n")?;
/// let bp = SpectralBisection::new().bipartition(nl.hypergraph())?;
/// assert_eq!(metrics::cut_size(nl.hypergraph(), &bp), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct SpectralBisection;

/// Power iterations towards the Fiedler vector.
const ITERATIONS: usize = 300;

/// Sweep positions are restricted to splits whose smaller side holds at
/// least this fraction of the vertices.
const MIN_SIDE_FRACTION: f64 = 0.25;

impl SpectralBisection {
    /// Spectral bisection with 300 power iterations and a 1/4 minimum side
    /// fraction.
    pub fn new() -> Self {
        Self
    }

    /// One Laplacian matvec of the clique expansion: for each hyperedge,
    /// `(L_e x)_v = w/(|e|−1) · (|e|·x_v − Σ_{u∈e} x_u)`.
    fn laplacian_apply(h: &Hypergraph, x: &[f64], out: &mut [f64]) {
        out.fill(0.0);
        for e in h.edges() {
            let pins = h.pins(e);
            if pins.len() < 2 {
                continue;
            }
            let w = h.edge_weight(e) as f64 / (pins.len() - 1) as f64;
            let sum: f64 = pins.iter().map(|p| x[p.index()]).sum();
            let k = pins.len() as f64;
            for &p in pins {
                out[p.index()] += w * (k * x[p.index()] - sum);
            }
        }
    }

    /// Approximates the Fiedler vector by power iteration on `cI − L`,
    /// deflating the trivial all-ones eigenvector.
    fn fiedler_vector(&self, h: &Hypergraph) -> Vec<f64> {
        let n = h.num_vertices();
        // Gershgorin bound: every eigenvalue ≤ 2 · max weighted degree,
        // where the clique-expanded weighted degree of v is Σ_{e∋v} w_e.
        let max_deg: f64 = h
            .vertices()
            .map(|v| {
                h.edges_of(v)
                    .iter()
                    .map(|&e| h.edge_weight(e) as f64)
                    .sum::<f64>()
            })
            .fold(0.0, f64::max);
        let shift = 2.0 * max_deg + 1.0;

        // Deterministic pseudo-random start (decorrelated from the all-ones
        // vector); no RNG needed, so the partitioner itself is seedless.
        let mut x: Vec<f64> = (0..n)
            .map(|i| {
                let t = (i as f64 + 1.0) * 2.399963; // golden-angle spacing
                t.sin()
            })
            .collect();
        let mut lx = vec![0.0; n];
        for _ in 0..ITERATIONS {
            // deflate: x ← x − mean(x)
            let mean = x.iter().sum::<f64>() / n as f64;
            for v in x.iter_mut() {
                *v -= mean;
            }
            // y = (shift·I − L) x
            Self::laplacian_apply(h, &x, &mut lx);
            for i in 0..n {
                lx[i] = shift * x[i] - lx[i];
            }
            // normalize
            let norm = lx.iter().map(|v| v * v).sum::<f64>().sqrt();
            if norm < 1e-12 {
                break; // degenerate (e.g. edgeless): keep the current x
            }
            for i in 0..n {
                x[i] = lx[i] / norm;
            }
        }
        x
    }
}

impl Bipartitioner for SpectralBisection {
    fn bipartition(&self, h: &Hypergraph) -> Result<Bipartition, PartitionError> {
        let n = h.num_vertices();
        if n < 2 {
            return Err(PartitionError::TooFewVertices { found: n });
        }
        let fiedler = self.fiedler_vector(h);
        let mut order: Vec<VertexId> = h.vertices().collect();
        order.sort_by(|a, b| {
            fiedler[a.index()]
                .partial_cmp(&fiedler[b.index()])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(b))
        });

        // Sweep cut: move vertices left-to-right in Fiedler order,
        // maintaining per-edge pin counts; record the best split.
        let bp = Bipartition::from_fn(n, |_| Side::Right);
        let mut counts = metrics::pin_counts(h, &bp);
        let mut cut = 0i64;
        let min_side = ((n as f64) * MIN_SIDE_FRACTION).floor() as usize;
        let lo = min_side.max(1);
        let hi = n - min_side.max(1);
        let mut best: Option<(i64, usize)> = None;
        for (placed, &v) in order.iter().enumerate() {
            for &e in h.edges_of(v) {
                let c = &mut counts[e.index()];
                let was_cut = c[0] > 0 && c[1] > 0;
                c[1] -= 1;
                c[0] += 1;
                let is_cut = c[0] > 0 && c[1] > 0;
                cut += is_cut as i64 - was_cut as i64;
            }
            let left_size = placed + 1;
            if (lo..=hi).contains(&left_size) && best.is_none_or(|(c, _)| cut < c) {
                best = Some((cut, left_size));
            }
        }
        let (_, split) = best.unwrap_or((0, n / 2));
        let mut result = Bipartition::from_fn(n, |_| Side::Right);
        for &v in &order[..split] {
            result.set(v, Side::Left);
        }
        Ok(result)
    }

    fn name(&self) -> &str {
        "Spectral"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhp_gen::PlantedBisection;
    use fhp_hypergraph::HypergraphBuilder;

    fn barbell(k: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::with_vertices(2 * k);
        for base in [0, k] {
            for i in 0..k {
                for j in (i + 1)..k {
                    b.add_edge([VertexId::new(base + i), VertexId::new(base + j)])
                        .unwrap();
                }
            }
        }
        b.add_edge([VertexId::new(0), VertexId::new(k)]).unwrap();
        b.build()
    }

    #[test]
    fn solves_barbell() {
        let h = barbell(6);
        let bp = SpectralBisection::new().bipartition(&h).unwrap();
        assert_eq!(metrics::cut_size(&h, &bp), 1);
        assert_eq!(bp.counts(), (6, 6));
    }

    #[test]
    fn finds_planted_cut() {
        let inst = PlantedBisection::new(120, 170)
            .cut_size(2)
            .edge_size_range(2, 2)
            .seed(1)
            .generate()
            .unwrap();
        let bp = SpectralBisection::new()
            .bipartition(inst.hypergraph())
            .unwrap();
        assert!(
            metrics::cut_size(inst.hypergraph(), &bp) <= 3 * inst.planted_cut(),
            "cut {}",
            metrics::cut_size(inst.hypergraph(), &bp)
        );
    }

    #[test]
    fn respects_side_fraction() {
        let h = barbell(8);
        let bp = SpectralBisection::new().bipartition(&h).unwrap();
        let (l, r) = bp.counts();
        assert!(l.min(r) >= 4);
    }

    #[test]
    fn deterministic_without_a_seed() {
        let h = barbell(5);
        let a = SpectralBisection::new().bipartition(&h).unwrap();
        let b = SpectralBisection::new().bipartition(&h).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn hyperedges_handled_via_clique_weights() {
        // two clusters joined by a single 4-pin hyperedge
        let mut b = HypergraphBuilder::with_vertices(8);
        for base in [0usize, 4] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    b.add_edge([VertexId::new(base + i), VertexId::new(base + j)])
                        .unwrap();
                }
            }
        }
        b.add_edge((1..=4).map(|i| VertexId::new(i + 1))).unwrap(); // spans both
        let h = b.build();
        let bp = SpectralBisection::new().bipartition(&h).unwrap();
        assert!(metrics::cut_size(&h, &bp) <= 2);
    }

    #[test]
    fn rejects_tiny() {
        let h = HypergraphBuilder::with_vertices(1).build();
        assert!(SpectralBisection::new().bipartition(&h).is_err());
    }

    #[test]
    fn edgeless_instance_still_splits() {
        let h = HypergraphBuilder::with_vertices(6).build();
        let bp = SpectralBisection::new().bipartition(&h).unwrap();
        assert!(bp.is_valid_cut());
    }
}
