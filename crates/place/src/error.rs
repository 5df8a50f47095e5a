//! Error type for placement construction and the min-cut placer.

use std::error::Error;
use std::fmt;

use fhp_hypergraph::VertexId;

use crate::Slot;

/// Why a placement could not be built or computed.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlaceError {
    /// More modules than slots.
    GridTooSmall {
        /// Modules to place.
        modules: usize,
        /// Slots available.
        slots: usize,
    },
    /// Two modules were assigned the same slot.
    SlotCollision {
        /// The second module claiming the slot.
        module: VertexId,
        /// The contested slot.
        slot: Slot,
    },
    /// A module was assigned a slot outside the grid.
    SlotOutOfRange {
        /// The module.
        module: VertexId,
        /// The bad slot.
        slot: Slot,
    },
}

impl fmt::Display for PlaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::GridTooSmall { modules, slots } => {
                write!(f, "{modules} modules do not fit in {slots} slots")
            }
            Self::SlotCollision { module, slot } => {
                write!(f, "module {module} collides at slot {slot}")
            }
            Self::SlotOutOfRange { module, slot } => {
                write!(f, "module {module} assigned out-of-range slot {slot}")
            }
        }
    }
}

impl Error for PlaceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = PlaceError::GridTooSmall {
            modules: 10,
            slots: 8,
        };
        assert!(e.to_string().contains("10"));
        assert!(e.source().is_none());
    }

    #[test]
    fn is_send_sync() {
        fn check<E: Error + Send + Sync + 'static>() {}
        check::<PlaceError>();
    }
}
