//! Fiduccia–Mattheyses boundary refinement, the per-level improvement
//! engine of the multilevel V-cycle.
//!
//! This is the pass/rollback core of the classic FM heuristic (the
//! paper's ref. \[9\]), extracted so both the [`multilevel`](crate::multilevel)
//! engine and the `fhp-baselines` FM bipartitioner drive the identical
//! deterministic move loop: a lazy max-heap keyed on cached gains (stale
//! entries skipped), a balance criterion instead of strict alternation,
//! deferred moves re-queued when the balance state changes, and a
//! rollback to the best prefix after each pass. Refinement is
//! monotone — a pass never returns a worse cut than it started with —
//! which is what makes the V-cycle's per-level cuts non-increasing.

use std::collections::BinaryHeap;

use fhp_hypergraph::{Hypergraph, VertexId};

use crate::moves::{gain_term, MoveState};
use crate::{Bipartition, Side};

/// Deterministic FM refinement: improves an existing partition with
/// single-vertex moves under a weight-balance tolerance.
///
/// # Examples
///
/// ```
/// use fhp_core::{metrics, Bipartition, FmRefiner, Side};
/// use fhp_hypergraph::intersection::paper_example;
///
/// let h = paper_example();
/// // a deliberately bad split: first half left, second half right
/// let start = Bipartition::from_fn(h.num_vertices(), |v| {
///     if v.index() < 6 { Side::Left } else { Side::Right }
/// });
/// let refined = FmRefiner::new().refine(&h, start.clone());
/// assert!(metrics::weighted_cut(&h, &refined) <= metrics::weighted_cut(&h, &start));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FmRefiner {
    max_passes: usize,
    /// Maximum allowed `|w(V_L) − w(V_R)|` after any move; raised to twice
    /// the heaviest vertex if smaller (else no move might be legal).
    imbalance_tolerance: u64,
}

impl Default for FmRefiner {
    fn default() -> Self {
        Self::new()
    }
}

impl FmRefiner {
    /// Default tuning: up to 24 passes, tolerance of twice the heaviest
    /// vertex's weight (raised adaptively).
    pub fn new() -> Self {
        Self {
            max_passes: 24,
            imbalance_tolerance: 0, // raised adaptively in refine()
        }
    }

    /// Caps the improvement passes (default 24).
    pub fn max_passes(mut self, passes: usize) -> Self {
        self.max_passes = passes;
        self
    }

    /// Sets the weight-imbalance tolerance (the r-bipartition slack). The
    /// effective tolerance is never below twice the heaviest vertex weight.
    pub fn imbalance_tolerance(mut self, tolerance: u64) -> Self {
        self.imbalance_tolerance = tolerance;
        self
    }

    /// The configured pass cap.
    pub fn max_passes_value(&self) -> usize {
        self.max_passes
    }

    /// The tolerance actually used on `h`: the configured value, but never
    /// below twice the heaviest vertex weight.
    pub fn effective_tolerance(&self, h: &Hypergraph) -> u64 {
        let heaviest = h.vertices().map(|v| h.vertex_weight(v)).max().unwrap_or(1);
        self.imbalance_tolerance.max(2 * heaviest)
    }

    /// One FM pass: move every vertex once (balance permitting), then roll
    /// back to the best prefix. Returns the cut improvement (never makes
    /// the cut worse).
    pub fn pass(&self, st: &mut MoveState<'_>, tolerance: u64) -> u64 {
        self.pass_with(st, tolerance, &mut FmScratch::new())
    }

    /// [`pass`](Self::pass) with reusable buffers (which the plain method
    /// delegates to); a warm scratch runs the pass allocation-free. The
    /// pass's work is added to the scratch's [`FmWork`] tally.
    ///
    /// After each move only the *critical* nets of the moved vertex `v` —
    /// those whose term in a pin's gain changes on some side — touch the
    /// gain cache: each free pin of such a net gets its side's term delta
    /// added, in O(1). A refresh therefore costs O(deg v) plus the sizes
    /// of the critical nets, and every touched pin is pushed onto the heap
    /// once, after all of `v`'s nets — exactly the entries a full
    /// recompute of every pin on `v`'s nets would push.
    pub fn pass_with(
        &self,
        st: &mut MoveState<'_>,
        tolerance: u64,
        scratch: &mut FmScratch,
    ) -> u64 {
        let h = st.hypergraph();
        let n = h.num_vertices();
        let locked = &mut scratch.locked;
        locked.clear();
        locked.resize(n, false);
        let cache = &mut scratch.cache;
        cache.reset(st);
        let mut buf = std::mem::take(&mut scratch.heap_buf);
        buf.clear();
        buf.extend(cache.gains.iter().enumerate().map(|(i, &g)| (g, i as u32))); // fhp-audit: allow(as-cast-truncation) — pin index fits u32 by the VertexId representation
        let mut heap = BinaryHeap::from(buf);
        let start_cut = st.cut();
        let mut best_cut = start_cut;
        let mut best_prefix = 0usize;
        let moves = &mut scratch.moves;
        moves.clear();
        let deferred = &mut scratch.deferred;
        deferred.clear();
        let work = &mut scratch.work;
        work.passes += 1;
        let (mut left_count, mut right_count) = st.partition().counts();

        while let Some((g, i)) = heap.pop() {
            let idx = i as usize;
            let v = VertexId::new(idx);
            if locked.get(idx) != Some(&false) || cache.gains.get(idx) != Some(&g) {
                continue; // stale heap entry
            }
            // A move may never empty a side: a one-sided assignment is not
            // a cut, whatever its "cut size" says.
            let from = st.side(v);
            let source_count = match from {
                Side::Left => left_count,
                Side::Right => right_count,
            };
            if source_count == 1 {
                deferred.push((g, i));
                continue;
            }
            // Balance feasibility of moving v.
            let (wl, wr) = st.side_weights();
            let vw = h.vertex_weight(v) as i64;
            let imb = match from {
                Side::Left => (wl as i64 - vw) - (wr as i64 + vw),
                Side::Right => (wl as i64 + vw) - (wr as i64 - vw),
            };
            if imb.unsigned_abs() > tolerance {
                deferred.push((g, i));
                continue;
            }
            // Legal highest-gain move: apply it. Re-queue deferred entries —
            // the balance state just changed, they may be legal now.
            heap.extend(deferred.drain(..));
            match from {
                Side::Left => {
                    left_count -= 1;
                    right_count += 1;
                }
                Side::Right => {
                    right_count -= 1;
                    left_count += 1;
                }
            }
            st.apply_flip(v);
            if let Some(slot) = locked.get_mut(idx) {
                *slot = true;
            }
            moves.push(v);
            work.moves += 1;
            if st.cut() < best_cut {
                best_cut = st.cut();
                best_prefix = moves.len();
            }
            cache.apply_move(st, v, from, locked, work, |entry| heap.push(entry));
        }

        for &v in moves.iter().skip(best_prefix).rev() {
            st.apply_flip(v);
        }
        debug_assert_eq!(st.cut(), best_cut);
        scratch.heap_buf = heap.into_vec();
        start_cut - best_cut
    }

    /// Improves an existing partition in place with FM passes until a pass
    /// yields no gain. The weight-balance tolerance is widened to the
    /// start's own imbalance if that is larger, so refinement never has to
    /// destroy a deliberately unbalanced input to begin improving it — and
    /// the returned cut is never worse than `start`'s.
    ///
    /// # Panics
    ///
    /// Panics if `start` does not cover `h`'s vertices (via
    /// [`MoveState::new`]).
    pub fn refine(&self, h: &Hypergraph, start: Bipartition) -> Bipartition {
        self.refine_with(h, start, &mut FmScratch::new())
    }

    /// [`refine`](Self::refine) with reusable buffers (which the plain
    /// method delegates to). The multilevel V-cycle threads one scratch
    /// through every per-level refinement so the uncoarsening walk stops
    /// allocating once the finest level has warmed the buffers.
    pub fn refine_with(
        &self,
        h: &Hypergraph,
        start: Bipartition,
        scratch: &mut FmScratch,
    ) -> Bipartition {
        let start_imbalance = crate::metrics::weight_imbalance(h, &start);
        let tolerance = self.effective_tolerance(h).max(start_imbalance);
        self.run_passes_with(h, start, tolerance, scratch)
    }

    /// Runs passes until fixpoint (or the pass cap) at an explicit
    /// tolerance — [`refine`](Self::refine) without the adaptive widening,
    /// for callers that manage the balance envelope themselves.
    pub fn run_passes(&self, h: &Hypergraph, start: Bipartition, tolerance: u64) -> Bipartition {
        self.run_passes_with(h, start, tolerance, &mut FmScratch::new())
    }

    /// [`run_passes`](Self::run_passes) with reusable buffers (which the
    /// plain method delegates to). The passes run, moves and gain updates
    /// are added to the scratch's [`FmWork`] tally.
    pub fn run_passes_with(
        &self,
        h: &Hypergraph,
        start: Bipartition,
        tolerance: u64,
        scratch: &mut FmScratch,
    ) -> Bipartition {
        let mut st = MoveState::new_reusing(h, start, std::mem::take(&mut scratch.counts));
        for _ in 0..self.max_passes {
            if self.pass_with(&mut st, tolerance, scratch) == 0 {
                break;
            }
        }
        let (bp, counts) = st.into_parts();
        scratch.counts = counts;
        bp
    }
}

/// Reusable buffers for [`FmRefiner`]'s pass loop: the lock set, the gain
/// cache, the lazy heap's backing store, the move log, the deferred
/// queue, and the [`MoveState`] pin-count table. Every buffer is fully
/// reset at the start of each pass, so a scratch abandoned mid-pass
/// self-heals on reuse. The scratch also tallies the passes' [`FmWork`]
/// until [`take_work`](Self::take_work) collects it.
#[derive(Clone, Debug, Default)]
pub struct FmScratch {
    locked: Vec<bool>,
    cache: GainCache,
    heap_buf: Vec<(i64, u32)>,
    moves: Vec<VertexId>,
    deferred: Vec<(i64, u32)>,
    counts: Vec<[u32; 2]>,
    work: FmWork,
}

impl FmScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch pre-sized for hypergraphs of up to `n` vertices and `m`
    /// edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        Self {
            locked: Vec::with_capacity(n),
            cache: GainCache {
                gains: Vec::with_capacity(n),
                touched: Vec::with_capacity(n),
                is_touched: Vec::with_capacity(n),
            },
            heap_buf: Vec::with_capacity(2 * n),
            moves: Vec::with_capacity(n),
            deferred: Vec::with_capacity(n),
            counts: Vec::with_capacity(m),
            work: FmWork::default(),
        }
    }

    /// The work tallied since the last call (or since creation), resetting
    /// the tally to zero.
    pub fn take_work(&mut self) -> FmWork {
        std::mem::take(&mut self.work)
    }
}

/// FM's gain cache: every vertex's [`MoveState::gain`], kept exact across
/// moves by critical-net deltas, plus the per-move list of touched pins
/// with their membership flags.
#[derive(Clone, Debug, Default)]
struct GainCache {
    gains: Vec<i64>,
    /// Pins the current move updated.
    touched: Vec<u32>,
    is_touched: Vec<bool>,
}

impl GainCache {
    /// Recomputes every vertex's gain from `st`.
    fn reset(&mut self, st: &MoveState<'_>) {
        let n = st.hypergraph().num_vertices();
        self.gains.clear();
        self.gains.extend((0..n).map(|i| st.gain(VertexId::new(i))));
        self.touched.clear();
        self.is_touched.clear();
        self.is_touched.resize(n, false);
    }

    /// Updates the cache after `st` flipped `v` away from side `from`:
    /// for each net `e` of `v`, with pin counts `c0` before the flip and
    /// `c1` after, every pin `p` not `locked` gains
    /// `gain_term(c1, side(p)) − gain_term(c0, side(p))`; nets where that
    /// delta is zero on both sides are skipped. Then `push` receives
    /// `(gain, pin)` once per updated pin.
    ///
    /// Every updated pin's gain did change: on a net of `v`, the delta is
    /// never negative for pins on `from` (the net can only stop being
    /// internal to `from`, or leave a lone pin there) and never positive
    /// for pins on the other side, so a pin's deltas cannot cancel.
    fn apply_move(
        &mut self,
        st: &MoveState<'_>,
        v: VertexId,
        from: Side,
        locked: &[bool],
        work: &mut FmWork,
        mut push: impl FnMut((i64, u32)),
    ) {
        let h = st.hypergraph();
        for &e in h.edges_of(v) {
            work.move_pins += h.edge_size(e) as u64;
            let after = st.pin_count(e);
            let [l, r] = after;
            let before = match from {
                Side::Left => [l + 1, r - 1],
                Side::Right => [l - 1, r + 1],
            };
            let w = h.edge_weight(e) as i64;
            let delta = |side| gain_term(after, side, w) - gain_term(before, side, w);
            let (dl, dr) = (delta(Side::Left), delta(Side::Right));
            if dl == 0 && dr == 0 {
                continue;
            }
            for &p in h.pins(e) {
                let d = match st.side(p) {
                    Side::Left => dl,
                    Side::Right => dr,
                };
                let pi = p.index();
                if d == 0 || locked.get(pi) != Some(&false) {
                    continue;
                }
                if let (Some(gain), Some(seen)) =
                    (self.gains.get_mut(pi), self.is_touched.get_mut(pi))
                {
                    if !*seen {
                        *seen = true;
                        self.touched.push(pi as u32); // fhp-audit: allow(as-cast-truncation) — pin index fits u32 by the VertexId representation
                    }
                    *gain += d;
                    work.gain_updates += 1;
                }
            }
        }
        for p in self.touched.drain(..) {
            let pi = p as usize;
            if let (Some(&gain), Some(seen)) = (self.gains.get(pi), self.is_touched.get_mut(pi)) {
                *seen = false;
                push((gain, p));
            }
        }
    }
}

/// Work counters of FM passes, tallied in [`FmScratch`]. The refresh bound
/// `gain_updates ≤ move_pins` is what makes a move cost the sizes of its
/// critical nets rather than a full gain recompute of every neighbour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FmWork {
    /// Passes run.
    pub passes: u64,
    /// Vertex moves applied (rolled-back moves included).
    pub moves: u64,
    /// Gain-cache updates: one per free pin of a critical net of a moved
    /// vertex whose side's gain term changed.
    pub gain_updates: u64,
    /// Σ over moved `v` of Σ over `v`'s nets `e` of `|e|`.
    pub move_pins: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use fhp_hypergraph::intersection::paper_example;
    use fhp_hypergraph::HypergraphBuilder;

    fn halves(n: usize) -> Bipartition {
        Bipartition::from_fn(n, |v| {
            if v.index() < n / 2 {
                Side::Left
            } else {
                Side::Right
            }
        })
    }

    #[test]
    fn refine_never_worsens_the_cut() {
        let h = paper_example();
        for rotate in 0..4 {
            let start = Bipartition::from_fn(12, |v| {
                if (v.index() + rotate) % 2 == 0 {
                    Side::Left
                } else {
                    Side::Right
                }
            });
            let before = metrics::weighted_cut(&h, &start);
            let refined = FmRefiner::new().refine(&h, start);
            assert!(metrics::weighted_cut(&h, &refined) <= before);
            assert!(refined.is_valid_cut());
        }
    }

    #[test]
    fn finds_the_paper_optimum_from_a_plain_split() {
        let h = paper_example();
        let refined = FmRefiner::new().refine(&h, halves(12));
        assert!(metrics::cut_size(&h, &refined) <= 2);
    }

    #[test]
    fn pass_improvement_accounting_is_exact() {
        let h = paper_example();
        let fm = FmRefiner::new();
        let start = halves(12);
        let before = metrics::weighted_cut(&h, &start);
        let mut st = MoveState::new(&h, start);
        let imp = fm.pass(&mut st, fm.effective_tolerance(&h));
        assert_eq!(st.cut() + imp, before);
        st.verify().expect("state stays consistent");
    }

    #[test]
    fn respects_imbalance_tolerance() {
        let mut b = HypergraphBuilder::new();
        let vs: Vec<_> = (0..8).map(|i| b.add_weighted_vertex(1 + i % 3)).collect();
        for w in vs.windows(2) {
            b.add_edge([w[0], w[1]]).unwrap();
        }
        let h = b.build();
        let fm = FmRefiner::new().imbalance_tolerance(4);
        let refined = fm.refine(&h, halves(8));
        assert!(metrics::weight_imbalance(&h, &refined) <= fm.effective_tolerance(&h));
    }

    #[test]
    fn zero_passes_is_the_identity() {
        let h = paper_example();
        let start = halves(12);
        let out = FmRefiner::new().max_passes(0).refine(&h, start.clone());
        assert_eq!(out, start);
    }

    #[test]
    fn work_tally_counts_every_pass_call() {
        let h = paper_example();
        let fm = FmRefiner::new();
        let tol = fm.effective_tolerance(&h);
        let mut st = MoveState::new(&h, halves(12));
        let mut calls = 0;
        while calls < fm.max_passes_value() {
            calls += 1;
            if fm.pass(&mut st, tol) == 0 {
                break;
            }
        }
        let mut scratch = FmScratch::new();
        let out = fm.run_passes_with(&h, halves(12), tol, &mut scratch);
        assert_eq!(&out, st.partition());
        let work = scratch.take_work();
        assert_eq!(work.passes, calls as u64);
        assert!(work.moves > 0);
        assert!(work.gain_updates <= work.move_pins);
        assert_eq!(scratch.take_work(), FmWork::default(), "take resets");
    }

    /// The FM pass as it stood before the critical-net delta rule: after
    /// each move, every free pin on the moved vertex's nets gets its gain
    /// recomputed in full with [`MoveState::gain`]. Returns the
    /// improvement and the move sequence.
    fn reference_pass(st: &mut MoveState<'_>, tolerance: u64) -> (u64, Vec<VertexId>) {
        let h = st.hypergraph();
        let n = h.num_vertices();
        let mut locked = vec![false; n];
        let mut gains: Vec<i64> = (0..n).map(|i| st.gain(VertexId::new(i))).collect();
        let mut heap: BinaryHeap<(i64, u32)> = gains
            .iter()
            .enumerate()
            .map(|(i, &g)| (g, i as u32))
            .collect();
        let start_cut = st.cut();
        let mut best_cut = start_cut;
        let mut best_prefix = 0;
        let mut moves = Vec::new();
        let mut deferred = Vec::new();
        let (mut left_count, mut right_count) = st.partition().counts();
        while let Some((g, i)) = heap.pop() {
            let v = VertexId::new(i as usize);
            if locked[v.index()] || gains[v.index()] != g {
                continue;
            }
            let source_count = match st.side(v) {
                Side::Left => left_count,
                Side::Right => right_count,
            };
            let (wl, wr) = st.side_weights();
            let vw = h.vertex_weight(v) as i64;
            let imb = match st.side(v) {
                Side::Left => (wl as i64 - vw) - (wr as i64 + vw),
                Side::Right => (wl as i64 + vw) - (wr as i64 - vw),
            };
            if source_count == 1 || imb.unsigned_abs() > tolerance {
                deferred.push((g, i));
                continue;
            }
            heap.extend(deferred.drain(..));
            match st.side(v) {
                Side::Left => (left_count, right_count) = (left_count - 1, right_count + 1),
                Side::Right => (left_count, right_count) = (left_count + 1, right_count - 1),
            }
            st.apply_flip(v);
            locked[v.index()] = true;
            moves.push(v);
            if st.cut() < best_cut {
                best_cut = st.cut();
                best_prefix = moves.len();
            }
            for &e in h.edges_of(v) {
                for &p in h.pins(e) {
                    if locked[p.index()] {
                        continue;
                    }
                    let g2 = st.gain(p);
                    if gains[p.index()] != g2 {
                        gains[p.index()] = g2;
                        heap.push((g2, p.index() as u32));
                    }
                }
            }
        }
        for &v in moves[best_prefix..].iter().rev() {
            st.apply_flip(v);
        }
        (start_cut - best_cut, moves)
    }

    proptest::prop_compose! {
        /// A small hypergraph with weighted vertices, weighted edges
        /// (weight 0 included), duplicated pin sets and 1-pin nets, plus
        /// a start partition and a balance tolerance.
        fn arb_instance()(
            vertex_weights in proptest::collection::vec(1u64..4, 2..18),
            edges in proptest::collection::vec(
                (proptest::collection::vec(0usize..18, 1..6), 0u64..4),
                1..40,
            ),
            duplicates in proptest::collection::vec((0usize..40, 0u64..4), 0..8),
            sides in proptest::collection::vec(proptest::prelude::any::<bool>(), 18),
            tolerance in 0u64..12,
        ) -> (fhp_hypergraph::Hypergraph, Bipartition, u64) {
            let n = vertex_weights.len();
            let mut b = HypergraphBuilder::new();
            for &w in &vertex_weights {
                b.add_weighted_vertex(w);
            }
            let pin_sets: Vec<Vec<VertexId>> = edges
                .iter()
                .map(|(pins, _)| pins.iter().map(|&p| VertexId::new(p % n)).collect())
                .collect();
            for (pins, (_, w)) in pin_sets.iter().zip(&edges) {
                b.add_weighted_edge(pins.iter().copied(), *w).expect("valid pins");
            }
            for &(i, w) in &duplicates {
                let pins = &pin_sets[i % pin_sets.len()];
                b.add_weighted_edge(pins.iter().copied(), w).expect("valid pins");
            }
            let start = Bipartition::from_fn(n, |v| {
                if sides[v.index()] { Side::Right } else { Side::Left }
            });
            (b.build(), start, tolerance)
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn delta_refresh_matches_the_full_recompute_reference(
            (h, start, tolerance) in arb_instance(),
        ) {
            let fm = FmRefiner::new();
            let mut reference = MoveState::new(&h, start.clone());
            let mut st = MoveState::new(&h, start);
            let mut scratch = FmScratch::new();
            for _ in 0..fm.max_passes_value() {
                let (want, want_moves) = reference_pass(&mut reference, tolerance);
                let got = fm.pass_with(&mut st, tolerance, &mut scratch);
                proptest::prop_assert_eq!(got, want);
                proptest::prop_assert_eq!(&scratch.moves, &want_moves);
                proptest::prop_assert_eq!(st.partition(), reference.partition());
                if got == 0 {
                    break;
                }
            }
            let work = scratch.take_work();
            proptest::prop_assert!(work.gain_updates <= work.move_pins);
        }

        #[test]
        fn cached_gains_stay_exact_after_every_move(
            (h, start, tolerance) in arb_instance(),
        ) {
            // record one pass's move sequence, then replay it move by move
            // beside the reference's full recompute
            let mut scratch = FmScratch::new();
            FmRefiner::new().pass_with(&mut MoveState::new(&h, start.clone()), tolerance, &mut scratch);
            let mut st = MoveState::new(&h, start);
            let mut cache = GainCache::default();
            cache.reset(&st);
            let mut reference_gains = cache.gains.clone();
            let mut locked = vec![false; h.num_vertices()];
            let mut work = FmWork::default();
            for &v in &scratch.moves {
                let from = st.side(v);
                st.apply_flip(v);
                locked[v.index()] = true;
                let mut pushed = Vec::new();
                cache.apply_move(&st, v, from, &locked, &mut work, |entry| pushed.push(entry));
                for u in h.vertices().filter(|u| !locked[u.index()]) {
                    proptest::prop_assert_eq!(cache.gains[u.index()], st.gain(u), "vertex {} after moving {}", u, v);
                }
                // the heap entries the full recompute pushes for this move
                let mut want_pushed = Vec::new();
                for &e in h.edges_of(v) {
                    for &p in h.pins(e).iter().filter(|p| !locked[p.index()]) {
                        let g = st.gain(p);
                        if reference_gains[p.index()] != g {
                            reference_gains[p.index()] = g;
                            want_pushed.push((g, p.index() as u32));
                        }
                    }
                }
                pushed.sort_unstable();
                want_pushed.sort_unstable();
                proptest::prop_assert_eq!(pushed, want_pushed, "heap entries after moving {}", v);
            }
            proptest::prop_assert!(work.gain_updates <= work.move_pins);
        }
    }

    #[test]
    fn builders_and_accessors() {
        let fm = FmRefiner::new().max_passes(7).imbalance_tolerance(3);
        assert_eq!(fm.max_passes_value(), 7);
        assert_eq!(fm, fm); // Copy + Eq
        assert_eq!(FmRefiner::default(), FmRefiner::new());
    }
}
