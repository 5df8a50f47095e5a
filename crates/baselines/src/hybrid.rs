//! Constructive + iterative hybrid: any partitioner refined by FM passes.
//!
//! The paper's era already understood the division of labour that the
//! multilevel partitioners later institutionalized: a *constructive*
//! method finds the global shape of the cut, an *iterative* method shaves
//! the last few crossings. Algorithm I is an unusually strong constructor
//! (its BFS geometry sees the whole graph), so `Refined::alg1(...)` —
//! Algorithm I followed by Fiduccia–Mattheyses refinement — is the
//! natural "best of both" configuration and a preview of the paper's
//! future-work direction.

use fhp_core::{Algorithm1, Bipartition, Bipartitioner, PartitionConfig, PartitionError};
use fhp_hypergraph::Hypergraph;

use crate::FiducciaMattheyses;

/// Wraps a constructive partitioner with FM refinement of its output.
///
/// # Examples
///
/// ```
/// use fhp_baselines::Refined;
/// use fhp_core::{metrics, Bipartitioner, PartitionConfig};
/// use fhp_hypergraph::Netlist;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let nl = Netlist::parse("a: 1 2 3\nb: 3 4\nc: 4 5 6\nd: 1 6\n")?;
/// let p = Refined::alg1(PartitionConfig::new().starts(4), 0);
/// let bp = p.bipartition(nl.hypergraph())?;
/// assert!(bp.is_valid_cut());
/// # Ok(())
/// # }
/// ```
pub struct Refined {
    inner: Box<dyn Bipartitioner>,
    fm: FiducciaMattheyses,
    name: String,
}

impl std::fmt::Debug for Refined {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Refined")
            .field("inner", &self.inner.name())
            .field("fm", &self.fm)
            .finish()
    }
}

impl Refined {
    /// Refines an arbitrary partitioner's output with FM passes (seeded
    /// with `seed` — FM refinement itself is deterministic given the
    /// start, the seed only matters for its internal tie behaviour).
    pub fn new(inner: Box<dyn Bipartitioner>, seed: u64) -> Self {
        let name = format!("{} + FM", inner.name());
        Self {
            inner,
            fm: FiducciaMattheyses::new(seed),
            name,
        }
    }

    /// The flagship hybrid: Algorithm I construction, FM polish.
    pub fn alg1(config: PartitionConfig, seed: u64) -> Self {
        Self::new(Box::new(Algorithm1::new(config.seed(seed))), seed)
    }
}

impl Bipartitioner for Refined {
    fn bipartition(&self, h: &Hypergraph) -> Result<Bipartition, PartitionError> {
        let constructed = self.inner.bipartition(h)?;
        Ok(self.fm.refine(h, constructed))
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RandomCut;
    use fhp_core::metrics;
    use fhp_gen::{CircuitNetlist, PlantedBisection, Technology};

    #[test]
    fn refinement_never_worsens_the_cut() {
        for seed in 0..5 {
            let h = CircuitNetlist::new(Technology::StdCell, 120, 200)
                .seed(seed)
                .generate()
                .unwrap();
            let raw = Algorithm1::new(PartitionConfig::new().starts(4).seed(seed))
                .bipartition(&h)
                .unwrap();
            let refined = Refined::alg1(PartitionConfig::new().starts(4), seed)
                .bipartition(&h)
                .unwrap();
            assert!(
                metrics::cut_size(&h, &refined) <= metrics::cut_size(&h, &raw),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn refining_random_reaches_reasonable_cuts() {
        let h = CircuitNetlist::new(Technology::StdCell, 120, 200)
            .seed(9)
            .generate()
            .unwrap();
        let random = RandomCut::balanced(1).bipartition(&h).unwrap();
        let refined = Refined::new(Box::new(RandomCut::balanced(1)), 1)
            .bipartition(&h)
            .unwrap();
        assert!(metrics::cut_size(&h, &refined) < metrics::cut_size(&h, &random) / 2);
    }

    #[test]
    fn keeps_planted_optimum() {
        let inst = PlantedBisection::new(200, 280)
            .cut_size(3)
            .edge_size_range(2, 2)
            .seed(4)
            .generate()
            .unwrap();
        let h = inst.hypergraph();
        let refined = Refined::alg1(PartitionConfig::paper(), 0)
            .bipartition(h)
            .unwrap();
        assert!(metrics::cut_size(h, &refined) <= inst.planted_cut() + 1);
    }

    #[test]
    fn name_reflects_composition() {
        let p = Refined::alg1(PartitionConfig::new(), 0);
        assert_eq!(p.name(), "Alg I + FM");
        let q = Refined::new(Box::new(RandomCut::balanced(0)), 0);
        assert_eq!(q.name(), "Random (balanced) + FM");
    }

    #[test]
    fn propagates_errors() {
        let h = fhp_hypergraph::HypergraphBuilder::with_vertices(1).build();
        assert!(Refined::alg1(PartitionConfig::new(), 0)
            .bipartition(&h)
            .is_err());
    }
}
