//! k-way partitioning by recursive bisection.
//!
//! Min-cut *placement* needs more than one cut: a netlist is split into
//! `k` blocks (rows, slots, boards) by recursively bipartitioning. This
//! module provides the generic recursion over any [`Bipartitioner`],
//! producing a [`Multipartition`] scored by the standard k-way metrics:
//! hyperedge cut (nets spanning more than one block) and connectivity
//! (`Σ_e (λ(e) − 1)`, the sum over nets of the number of extra blocks
//! they touch).
//!
//! Block target sizes are split proportionally at every level, and a
//! light FM-style repair keeps each side within its capacity, so `k` need
//! not be a power of two.

use fhp_hypergraph::subhypergraph::Subhypergraph;
use fhp_hypergraph::{EdgeId, Hypergraph, VertexId};

use crate::{metrics, Bipartition, Bipartitioner, PartitionError, Side};

/// An assignment of every vertex to one of `k` blocks.
///
/// # Examples
///
/// ```
/// use fhp_core::multiway::{recursive_bisection, Multipartition};
/// use fhp_core::{Algorithm1, Bipartitioner, PartitionConfig};
/// use fhp_hypergraph::intersection::paper_example;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let h = paper_example();
/// let mp = recursive_bisection(&h, 4, |region| {
///     Box::new(Algorithm1::new(PartitionConfig::new().starts(4).seed(region)))
/// })?;
/// assert_eq!(mp.num_blocks(), 4);
/// assert!(mp.block_sizes().iter().all(|&s| s >= 2));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Multipartition {
    block_of: Vec<u32>,
    k: usize,
}

impl Multipartition {
    /// Number of blocks `k`.
    pub fn num_blocks(&self) -> usize {
        self.k
    }

    /// Block of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn block_of(&self, v: VertexId) -> u32 {
        self.block_of[v.index()] // fhp-audit: allow(panic-site) — block ids bounded by k, validated at entry
    }

    /// Number of covered vertices.
    pub fn len(&self) -> usize {
        self.block_of.len()
    }

    /// True if nothing is covered.
    pub fn is_empty(&self) -> bool {
        self.block_of.is_empty()
    }

    /// Vertex count of each block.
    pub fn block_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.k];
        for &b in &self.block_of {
            sizes[b as usize] += 1; // fhp-audit: allow(panic-site) — block ids bounded by k, validated at entry
        }
        sizes
    }

    /// Number of distinct blocks net `e` touches (its *connectivity*
    /// `λ(e)`).
    pub fn net_spread(&self, h: &Hypergraph, e: EdgeId) -> usize {
        let mut seen = vec![false; self.k];
        let mut spread = 0;
        for &p in h.pins(e) {
            let b = self.block_of(p) as usize;
            // fhp-audit: allow(panic-site) — block ids bounded by k, validated at entry
            if !seen[b] {
                // fhp-audit: allow(panic-site) — block ids bounded by k, validated at entry
                seen[b] = true; // fhp-audit: allow(panic-site) — block ids bounded by k, validated at entry
                spread += 1;
            }
        }
        spread
    }

    /// Nets touching more than one block (the k-way hyperedge cut).
    pub fn cut_size(&self, h: &Hypergraph) -> usize {
        h.edges().filter(|&e| self.net_spread(h, e) > 1).count()
    }

    /// The connectivity metric `Σ_e (λ(e) − 1)`, weighted.
    pub fn connectivity(&self, h: &Hypergraph) -> u64 {
        h.edges()
            .map(|e| (self.net_spread(h, e) as u64 - 1) * h.edge_weight(e))
            .sum()
    }
}

/// Splits `h` into `k` blocks of near-equal vertex count by recursive
/// bisection with the supplied partitioner factory (`region` ids make each
/// recursion level independently seeded yet reproducible).
///
/// # Errors
///
/// [`PartitionError::InvalidConfig`] if `k` is 0 or exceeds the vertex
/// count. Partitioner failures inside a region fall back to an even split
/// rather than aborting.
pub fn recursive_bisection<F>(
    h: &Hypergraph,
    k: usize,
    factory: F,
) -> Result<Multipartition, PartitionError>
where
    F: Fn(u64) -> Box<dyn Bipartitioner>,
{
    if k == 0 {
        return Err(PartitionError::InvalidConfig {
            reason: "k must be at least 1",
        });
    }
    if k > h.num_vertices() {
        return Err(PartitionError::InvalidConfig {
            reason: "k exceeds the vertex count",
        });
    }
    let mut block_of = vec![0u32; h.num_vertices()];
    let all: Vec<VertexId> = h.vertices().collect();
    split(h, &all, 0, k, 1, &factory, &mut block_of);
    Ok(Multipartition { block_of, k })
}

fn split<F>(
    h: &Hypergraph,
    cells: &[VertexId],
    first_block: u32,
    k: usize,
    region: u64,
    factory: &F,
    block_of: &mut [u32],
) where
    F: Fn(u64) -> Box<dyn Bipartitioner>,
{
    if k == 1 {
        for &v in cells {
            block_of[v.index()] = first_block; // fhp-audit: allow(panic-site) — block ids bounded by k, validated at entry
        }
        return;
    }
    let k_left = k / 2;
    let k_right = k - k_left;
    // Capacities proportional to block counts, each rounded up (one slot
    // of slack total, absorbed by the repair pass).
    let cap_left = (cells.len() * k_left).div_ceil(k);
    let cap_right = (cells.len() * k_right).div_ceil(k);

    let sub = Subhypergraph::induce(h, cells);
    let mut bp = if sub.hypergraph().num_vertices() >= 2 {
        match factory(region).bipartition(sub.hypergraph()) {
            Ok(bp) => bp,
            Err(_) => even_split(cells.len(), cap_left),
        }
    } else {
        Bipartition::all_left(cells.len())
    };
    repair(sub.hypergraph(), &mut bp, cap_left, cap_right);

    let mut left = Vec::new();
    let mut right = Vec::new();
    for (i, &v) in cells.iter().enumerate() {
        match bp.side(VertexId::new(i)) {
            Side::Left => left.push(v),
            Side::Right => right.push(v),
        }
    }
    split(h, &left, first_block, k_left, region * 2, factory, block_of);
    split(
        h,
        &right,
        first_block + k_left as u32, // fhp-audit: allow(as-cast-truncation) — k is a block count well below u32::MAX
        k_right,
        region * 2 + 1,
        factory,
        block_of,
    );
}

fn even_split(n: usize, cap_left: usize) -> Bipartition {
    Bipartition::from_fn(n, |v| {
        if v.index() < cap_left.min(n) {
            Side::Left
        } else {
            Side::Right
        }
    })
}

/// Moves min-damage cells off an over-capacity side (FM gains against live
/// pin counts) until both sides fit.
fn repair(sub: &Hypergraph, bp: &mut Bipartition, cap_left: usize, cap_right: usize) {
    let mut counts = metrics::pin_counts(sub, bp);
    loop {
        let (l, r) = bp.counts();
        let from = if l > cap_left {
            Side::Left
        } else if r > cap_right {
            Side::Right
        } else {
            return;
        };
        let mut best: Option<(i64, VertexId)> = None;
        for v in sub.vertices() {
            if bp.side(v) != from {
                continue;
            }
            let mut gain = 0i64;
            for &e in sub.edges_of(v) {
                let w = sub.edge_weight(e) as i64;
                let c = counts[e.index()]; // fhp-audit: allow(panic-site) — block ids bounded by k, validated at entry
                let (f, t) = (from.index(), from.opposite().index());
                // fhp-audit: allow(panic-site) — block ids bounded by k, validated at entry
                if c[f] == 1 && c[t] > 0 {
                    gain += w;
                // fhp-audit: allow(panic-site) — block ids bounded by k, validated at entry
                } else if c[t] == 0 && c[f] > 1 {
                    gain -= w;
                }
            }
            if best.is_none_or(|(g, _)| gain > g) {
                best = Some((gain, v));
            }
        }
        let Some((_, v)) = best else { return };
        let from_idx = from.index();
        for &e in sub.edges_of(v) {
            counts[e.index()][from_idx] -= 1; // fhp-audit: allow(panic-site) — block ids bounded by k, validated at entry
            counts[e.index()][1 - from_idx] += 1; // fhp-audit: allow(panic-site) — block ids bounded by k, validated at entry
        }
        bp.flip(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algorithm1, PartitionConfig};
    use fhp_hypergraph::intersection::paper_example;
    use fhp_hypergraph::HypergraphBuilder;

    fn factory(region: u64) -> Box<dyn Bipartitioner> {
        Box::new(Algorithm1::new(
            PartitionConfig::new().starts(4).seed(region),
        ))
    }

    fn clusters(k: usize, m: usize) -> Hypergraph {
        // k rings of m modules, adjacent rings joined by one bridge net
        let mut b = HypergraphBuilder::with_vertices(k * m);
        for c in 0..k {
            let base = c * m;
            for i in 0..m {
                b.add_edge([VertexId::new(base + i), VertexId::new(base + (i + 1) % m)])
                    .unwrap();
                b.add_edge([
                    VertexId::new(base + i),
                    VertexId::new(base + (i + m / 2) % m),
                ])
                .unwrap();
            }
            if c + 1 < k {
                b.add_edge([VertexId::new(base), VertexId::new(base + m)])
                    .unwrap();
            }
        }
        b.build()
    }

    #[test]
    fn four_clusters_recovered() {
        let h = clusters(4, 10);
        let mp = recursive_bisection(&h, 4, factory).unwrap();
        assert_eq!(mp.num_blocks(), 4);
        assert_eq!(mp.block_sizes(), vec![10, 10, 10, 10]);
        // only the 3 bridge nets may span blocks
        assert!(mp.cut_size(&h) <= 3, "cut {}", mp.cut_size(&h));
        assert!(mp.connectivity(&h) <= 3);
    }

    #[test]
    fn non_power_of_two_k() {
        let h = clusters(3, 8);
        let mp = recursive_bisection(&h, 3, factory).unwrap();
        assert_eq!(mp.num_blocks(), 3);
        let sizes = mp.block_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 24);
        assert!(sizes.iter().all(|&s| s == 8), "{sizes:?}");
    }

    #[test]
    fn k_equals_one_and_n() {
        let h = paper_example();
        let mp1 = recursive_bisection(&h, 1, factory).unwrap();
        assert_eq!(mp1.cut_size(&h), 0);
        assert_eq!(mp1.connectivity(&h), 0);
        let mpn = recursive_bisection(&h, 12, factory).unwrap();
        assert_eq!(mpn.block_sizes(), vec![1; 12]);
        assert_eq!(mpn.cut_size(&h), h.num_edges());
    }

    #[test]
    fn invalid_k_rejected() {
        let h = paper_example();
        assert!(recursive_bisection(&h, 0, factory).is_err());
        assert!(recursive_bisection(&h, 13, factory).is_err());
    }

    #[test]
    fn metrics_are_consistent() {
        let h = paper_example();
        let mp = recursive_bisection(&h, 4, factory).unwrap();
        // connectivity >= cut (every cut net has spread >= 2)
        assert!(mp.connectivity(&h) >= mp.cut_size(&h) as u64);
        for e in h.edges() {
            let s = mp.net_spread(&h, e);
            assert!((1..=4).contains(&s));
            assert!(s <= h.edge_size(e));
        }
        let (two_way, _) = (mp.cut_size(&h), ());
        assert!(two_way <= h.num_edges());
    }

    #[test]
    fn deterministic() {
        let h = clusters(4, 6);
        let a = recursive_bisection(&h, 4, factory).unwrap();
        let b = recursive_bisection(&h, 4, factory).unwrap();
        assert_eq!(a, b);
    }
}
