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

/// The side to receive the next module given side weights `left` and
/// `right`: the lighter one, ties going Left. Algorithm I sends its
/// remaining modules there (§2.3), and every greedy balancer in the
/// workspace uses this one rule.
///
/// # Examples
///
/// ```
/// use fhp_core::{balance, Side};
///
/// assert_eq!(balance::lighter(3, 5), Side::Left);
/// assert_eq!(balance::lighter(4, 4), Side::Left);
/// assert_eq!(balance::lighter(5, 3), Side::Right);
/// ```
pub fn lighter(left: u64, right: u64) -> Side {
    if left <= right {
        Side::Left
    } else {
        Side::Right
    }
}

/// Deals weighted `items` in order, each onto the [`lighter`] side of the
/// running side weights (starting at `start`), and tells `place` where
/// each went. With the items biggest first this is the LPT rule.
///
/// # Examples
///
/// ```
/// use fhp_core::{balance, Side};
///
/// let mut sides = Vec::new();
/// balance::deal((0, 0), [('a', 5), ('b', 3), ('c', 2)], |item, side| {
///     sides.push((item, side))
/// });
/// assert_eq!(sides, [('a', Side::Left), ('b', Side::Right), ('c', Side::Right)]);
/// ```
pub fn deal<T>(
    start: (u64, u64),
    items: impl IntoIterator<Item = (T, u64)>,
    mut place: impl FnMut(T, Side),
) {
    let (mut left, mut right) = start;
    for (item, w) in items {
        let side = lighter(left, right);
        match side {
            Side::Left => left += w,
            Side::Right => right += w,
        }
        place(item, side);
    }
}
