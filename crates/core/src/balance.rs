//! The weight-balance arithmetic every move-based refiner shares: FM
//! ([`FmRefiner`](crate::FmRefiner)), simulated annealing and the
//! engine's localized repair.
//!
//! Both helpers work in `u64` and saturate, so a vertex weight near
//! `u64::MAX` can neither wrap the floor to zero nor flip the sign of an
//! imbalance (a builder rejects weight totals above `u64::MAX`, so side
//! weights themselves never wrap).

use crate::Side;

/// The balance tolerance a refiner actually uses: the configured
/// `tolerance`, but never below twice the heaviest vertex weight — with a
/// smaller slack no single move might be legal.
///
/// # Examples
///
/// ```
/// use fhp_core::balance;
///
/// assert_eq!(balance::floor(10, 3), 10);
/// assert_eq!(balance::floor(0, 3), 6);
/// assert_eq!(balance::floor(0, 1 << 63), u64::MAX); // saturates, never wraps
/// ```
pub fn floor(tolerance: u64, heaviest: u64) -> u64 {
    tolerance.max(heaviest.saturating_mul(2))
}

/// `|w(V_L) − w(V_R)|` after moving a vertex of weight `w` off side
/// `from`, given the side weights `left` and `right` before the move.
///
/// # Examples
///
/// ```
/// use fhp_core::{balance, Side};
///
/// assert_eq!(balance::imbalance_after_move(5, 3, 1, Side::Left), 0);
/// assert_eq!(balance::imbalance_after_move(5, 3, 1, Side::Right), 4);
/// assert_eq!(balance::imbalance_after_move(1 << 63, 3, 1 << 63, Side::Left), (1 << 63) + 3);
/// ```
pub fn imbalance_after_move(left: u64, right: u64, w: u64, from: Side) -> u64 {
    let (source, target) = match from {
        Side::Left => (left, right),
        Side::Right => (right, left),
    };
    source.saturating_sub(w).abs_diff(target.saturating_add(w))
}
