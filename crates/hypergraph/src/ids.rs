//! Strongly-typed identifiers for hypergraph vertices and edges.
//!
//! A netlist hypergraph has two distinct index spaces: *modules* (vertices)
//! and *signals* (hyperedges). Mixing the two is a classic source of bugs in
//! partitioning code, so each space gets its own newtype ([`VertexId`] and
//! [`EdgeId`]) per C-NEWTYPE. Both are thin wrappers over `u32`: partitioning
//! instances with more than four billion modules are outside this crate's
//! scope, and the narrow representation halves the memory traffic of the
//! CSR arrays that dominate the partitioner's working set.

use std::fmt;

/// Identifier of a hypergraph vertex (a *module* in netlist terms).
///
/// `VertexId`s are dense: a [`Hypergraph`](crate::Hypergraph) with `n`
/// vertices uses exactly the ids `0..n`.
///
/// # Examples
///
/// ```
/// use fhp_hypergraph::VertexId;
///
/// let v = VertexId::new(3);
/// assert_eq!(v.index(), 3);
/// assert_eq!(v.to_string(), "v3");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct VertexId(u32);

/// Identifier of a hyperedge (a *signal* or *net* in netlist terms).
///
/// `EdgeId`s are dense: a [`Hypergraph`](crate::Hypergraph) with `m`
/// hyperedges uses exactly the ids `0..m`.
///
/// # Examples
///
/// ```
/// use fhp_hypergraph::EdgeId;
///
/// let e = EdgeId::new(7);
/// assert_eq!(e.index(), 7);
/// assert_eq!(e.to_string(), "e7");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct EdgeId(u32);

macro_rules! impl_id {
    ($name:ident, $prefix:literal) => {
        impl $name {
            /// Creates an identifier from a dense index.
            ///
            /// # Panics
            ///
            /// Panics if `index` does not fit in `u32`.
            #[inline]
            pub fn new(index: usize) -> Self {
                Self(
                    u32::try_from(index).expect(concat!(stringify!($name), " index overflows u32")), // fhp-audit: allow(panic-site) — documented `# Panics` contract of id construction
                )
            }

            /// Returns the dense index as `usize`, suitable for array access.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Returns the raw `u32` value.
            #[inline]
            pub fn raw(self) -> u32 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$name> for usize {
            #[inline]
            fn from(id: $name) -> usize {
                id.index()
            }
        }
    };
}

impl_id!(VertexId, "v");
impl_id!(EdgeId, "e");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_id_round_trips() {
        let v = VertexId::new(42);
        assert_eq!(v.index(), 42);
        assert_eq!(v.raw(), 42);
        assert_eq!(usize::from(v), 42);
    }

    #[test]
    fn edge_id_round_trips() {
        let e = EdgeId::new(7);
        assert_eq!(e.index(), 7);
        assert_eq!(e.raw(), 7);
    }

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(VertexId::new(1) < VertexId::new(2));
        assert!(EdgeId::new(0) < EdgeId::new(10));
    }

    #[test]
    fn display_uses_domain_prefixes() {
        assert_eq!(VertexId::new(0).to_string(), "v0");
        assert_eq!(EdgeId::new(12).to_string(), "e12");
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn vertex_id_overflow_panics() {
        let _ = VertexId::new(usize::try_from(u64::from(u32::MAX) + 1).unwrap());
    }

    #[test]
    fn ids_hash_and_default() {
        use std::collections::HashSet; // fhp-audit: allow(nondet-iter) — tests the Hash impl; the set is len-checked, never iterated
        let set: HashSet<VertexId> = [VertexId::new(1), VertexId::new(1), VertexId::new(2)] // fhp-audit: allow(nondet-iter) — len-checked only; never iterated
            .into_iter()
            .collect();
        assert_eq!(set.len(), 2);
        assert_eq!(VertexId::default().index(), 0);
        assert_eq!(EdgeId::default().index(), 0);
    }
}
