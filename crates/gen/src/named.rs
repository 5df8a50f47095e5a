//! The paper's named instance suite, synthesized at the published sizes.
//!
//! Table 2 evaluates on five industry netlists and three difficult random
//! inputs. The industry data is proprietary, so each instance is
//! regenerated synthetically at the paper's exact (modules, signals) size
//! with a technology profile matching its name (see DESIGN.md for the
//! substitution argument). The `Diff*` instances are planted bisections in
//! the Bui et al. difficult class, with increasing planted cut sizes.
//!
//! Bd2's size is illegible in the published scan; 175 modules / 301
//! signals interpolates between Bd1 and Bd3.

use fhp_core::Bipartition;
use fhp_hypergraph::Hypergraph;

use crate::{CircuitNetlist, PlantedBisection, Technology};

/// The eight instances of the paper's Table 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum PaperInstance {
    /// Board 1 — 103 modules, 211 signals (PCB).
    Bd1,
    /// Board 2 — 175 modules, 301 signals (PCB; size interpolated).
    Bd2,
    /// Board 3 — 242 modules, 502 signals (PCB).
    Bd3,
    /// IC 1 — 561 modules, 800 signals (standard cell).
    Ic1,
    /// IC 2 — 2471 modules, 3496 signals (standard cell).
    Ic2,
    /// Difficult random input 1 — 500 modules, 700 signals, planted cut 2.
    Diff1,
    /// Difficult random input 2 — 500 modules, 700 signals, planted cut 4.
    Diff2,
    /// Difficult random input 3 — 500 modules, 700 signals, planted cut 8.
    Diff3,
}

impl PaperInstance {
    /// All instances in Table 2 order.
    pub const ALL: [PaperInstance; 8] = [
        PaperInstance::Bd1,
        PaperInstance::Bd2,
        PaperInstance::Bd3,
        PaperInstance::Ic1,
        PaperInstance::Ic2,
        PaperInstance::Diff1,
        PaperInstance::Diff2,
        PaperInstance::Diff3,
    ];

    /// The instance's display name, as printed in Table 2.
    pub fn name(self) -> &'static str {
        match self {
            PaperInstance::Bd1 => "Bd1",
            PaperInstance::Bd2 => "Bd2",
            PaperInstance::Bd3 => "Bd3",
            PaperInstance::Ic1 => "IC1",
            PaperInstance::Ic2 => "IC2",
            PaperInstance::Diff1 => "Diff1",
            PaperInstance::Diff2 => "Diff2",
            PaperInstance::Diff3 => "Diff3",
        }
    }

    /// `(modules, signals)` as published.
    pub fn size(self) -> (usize, usize) {
        match self {
            PaperInstance::Bd1 => (103, 211),
            PaperInstance::Bd2 => (175, 301),
            PaperInstance::Bd3 => (242, 502),
            PaperInstance::Ic1 => (561, 800),
            PaperInstance::Ic2 => (2471, 3496),
            PaperInstance::Diff1 | PaperInstance::Diff2 | PaperInstance::Diff3 => (500, 700),
        }
    }

    /// The planted cut size for difficult instances, `None` otherwise.
    pub fn planted_cut(self) -> Option<usize> {
        match self {
            PaperInstance::Diff1 => Some(2),
            PaperInstance::Diff2 => Some(4),
            PaperInstance::Diff3 => Some(8),
            _ => None,
        }
    }

    /// Generates the instance (deterministic: every call returns the same
    /// hypergraph). For difficult instances the planted bisection is also
    /// returned.
    pub fn generate(self) -> NamedInstance {
        let (modules, signals) = self.size();
        match self {
            PaperInstance::Bd1 | PaperInstance::Bd2 | PaperInstance::Bd3 => NamedInstance {
                instance: self,
                hypergraph: CircuitNetlist::new(Technology::Pcb, modules, signals)
                    .seed(fixed_seed(self))
                    .generate()
                    .expect("static config is valid"),
                planted: None,
            },
            PaperInstance::Ic1 | PaperInstance::Ic2 => NamedInstance {
                instance: self,
                hypergraph: CircuitNetlist::new(Technology::StdCell, modules, signals)
                    .seed(fixed_seed(self))
                    .generate()
                    .expect("static config is valid"),
                planted: None,
            },
            PaperInstance::Diff1 | PaperInstance::Diff2 | PaperInstance::Diff3 => {
                let inst = PlantedBisection::new(modules, signals)
                    .cut_size(self.planted_cut().expect("difficult"))
                    // 2-pin signals: the sparse regime where move-based
                    // heuristics get stuck (Bui et al.'s hard class)
                    .edge_size_range(2, 2)
                    .seed(fixed_seed(self))
                    .generate()
                    .expect("static config is valid");
                let (hypergraph, planted, _) = inst.into_parts();
                NamedInstance {
                    instance: self,
                    hypergraph,
                    planted: Some(planted),
                }
            }
        }
    }
}

fn fixed_seed(i: PaperInstance) -> u64 {
    match i {
        PaperInstance::Bd1 => 1001,
        PaperInstance::Bd2 => 1002,
        PaperInstance::Bd3 => 1003,
        PaperInstance::Ic1 => 2001,
        PaperInstance::Ic2 => 2002,
        PaperInstance::Diff1 => 3001,
        PaperInstance::Diff2 => 3002,
        PaperInstance::Diff3 => 3003,
    }
}

/// A generated named instance.
#[derive(Clone, Debug)]
pub struct NamedInstance {
    instance: PaperInstance,
    hypergraph: Hypergraph,
    planted: Option<Bipartition>,
}

impl NamedInstance {
    /// Which Table 2 row this is.
    pub fn instance(&self) -> PaperInstance {
        self.instance
    }

    /// The hypergraph.
    pub fn hypergraph(&self) -> &Hypergraph {
        &self.hypergraph
    }

    /// The planted bisection (difficult instances only).
    pub fn planted(&self) -> Option<&Bipartition> {
        self.planted.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_table2() {
        for inst in PaperInstance::ALL {
            if inst == PaperInstance::Ic2 {
                continue; // large; covered by the experiment harness
            }
            let gen = inst.generate();
            let (m, s) = inst.size();
            assert_eq!(gen.hypergraph().num_vertices(), m, "{}", inst.name());
            assert_eq!(gen.hypergraph().num_edges(), s, "{}", inst.name());
        }
    }

    #[test]
    fn difficult_instances_carry_planted_cut() {
        for inst in [
            PaperInstance::Diff1,
            PaperInstance::Diff2,
            PaperInstance::Diff3,
        ] {
            let gen = inst.generate();
            let planted = gen.planted().expect("difficult instance");
            assert_eq!(
                fhp_core::metrics::cut_size(gen.hypergraph(), planted),
                inst.planted_cut().unwrap()
            );
        }
    }

    #[test]
    fn boards_have_no_planted_cut() {
        let gen = PaperInstance::Bd1.generate();
        assert!(gen.planted().is_none());
        assert!(PaperInstance::Bd1.planted_cut().is_none());
        assert!(PaperInstance::Diff1.planted_cut().is_some());
        assert_eq!(gen.instance(), PaperInstance::Bd1);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = PaperInstance::Bd1.generate();
        let b = PaperInstance::Bd1.generate();
        assert_eq!(a.hypergraph(), b.hypergraph());
    }

    #[test]
    fn names() {
        assert_eq!(PaperInstance::Ic1.name(), "IC1");
        assert_eq!(PaperInstance::ALL.len(), 8);
    }
}
