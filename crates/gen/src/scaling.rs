//! The large-instance scaling workload: the standard-cell circuit
//! profile at 10^5–10^7 signals, used by the `scaling` bench family and
//! the pair-capped dualizer acceptance checks.
//!
//! A thin preset over [`CircuitNetlist`] so every consumer (benches,
//! tests, ad-hoc experiments) agrees on the exact workload definition:
//! standard-cell technology, `modules = 0.6 × signals`, hierarchy and
//! pin-count distributions at their defaults. Deterministic given
//! `(signals, seed)`.

use fhp_hypergraph::Hypergraph;

use crate::circuit::{CircuitNetlist, Technology};
use crate::error::GenError;

/// The canonical signal counts of the scaling tiers: 10^5, 10^6, 10^7.
pub const SCALING_TIERS: [usize; 3] = [100_000, 1_000_000, 10_000_000];

/// Builds the scaling workload at `signals` signals.
///
/// # Errors
///
/// [`GenError::InvalidConfig`] for degenerate sizes (fewer than 7
/// signals — the smallest count whose module budget reaches the
/// 4-module floor of the circuit generator).
///
/// # Examples
///
/// ```
/// let h = fhp_gen::scaling_instance(1_000, 42)?;
/// assert_eq!(h.num_edges(), 1_000);
/// assert_eq!(h.num_vertices(), 600);
/// assert_eq!(h.connected_components().1, 1);
/// # Ok::<(), fhp_gen::GenError>(())
/// ```
pub fn scaling_instance(signals: usize, seed: u64) -> Result<Hypergraph, GenError> {
    CircuitNetlist::new(Technology::StdCell, (signals * 6) / 10, signals)
        .seed(seed)
        .generate()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiers_are_the_documented_powers_of_ten() {
        assert_eq!(SCALING_TIERS, [100_000, 1_000_000, 10_000_000]);
    }

    #[test]
    fn instance_is_deterministic_and_sized_as_promised() {
        let a = scaling_instance(2_000, 7).expect("valid");
        let b = scaling_instance(2_000, 7).expect("valid");
        assert_eq!(a.num_edges(), 2_000);
        assert_eq!(a.num_vertices(), 1_200);
        assert_eq!(a.num_pins(), b.num_pins());
        for e in a.edges() {
            assert_eq!(a.pins(e), b.pins(e));
        }
    }

    #[test]
    fn degenerate_sizes_are_rejected() {
        assert!(scaling_instance(6, 0).is_err());
        assert!(scaling_instance(7, 0).is_ok());
    }
}
