//! The multilevel V-cycle engine: coarsen → initial partition → uncoarsen
//! with per-level refinement, as a first-class Algorithm I mode.
//!
//! The flat Algorithm I is the paper's contribution; the multilevel line
//! that followed it (hMETIS, MLPart, KaHyPar) wins at both speed and
//! quality by sandwiching refinement between coarsening and uncoarsening.
//! This module assembles that V-cycle from the workspace's own parts:
//!
//! 1. **Coarsen** — heavy-edge rated greedy matching
//!    ([`heavy_pair_clustering`]: rating `w(e)/(|e|−1)`, ties to the
//!    lowest vertex id) drives [`Contraction`]-based coarsening until the
//!    hypergraph has at most [`MultilevelConfig::max_coarse_size`]
//!    vertices or a level keeps at least 95% of its fine level's
//!    vertices (the clustering stalled).
//! 2. **Initial partition** — flat Algorithm I multi-start on the
//!    coarsest hypergraph (same seed/starts/objective as the host
//!    config), polished with FM.
//! 3. **Uncoarsen** — project the partition through each level's
//!    explicit projection map (projection preserves the weighted cut
//!    exactly) and refine with [`FmRefiner`] on every level.
//!
//! Extra V-cycles re-coarsen *partition-respecting* (only same-side pairs
//! merge, so the incumbent survives projection verbatim) and keep the
//! result only if it strictly beats the incumbent under the host
//! objective — so cycles never regress. A final *flat guard* (always on)
//! runs flat Algorithm I on the original hypergraph and returns its
//! partition only if it strictly beats the V-cycle's, which makes
//! `multilevel cut ≤ flat cut` an invariant the `fhp-verify`
//! `check_multilevel` oracle enforces rather than a hope.
//!
//! Determinism: coarsening and refinement are sequential and seed-free
//! (pure functions of the hypergraph), the inner Algorithm I runs are
//! thread-count invariant by the runner's contract, and the V-cycle's
//! trace scopes are emitted in a fixed order ([`order::ml`]) from the
//! calling thread — so the whole mode inherits the same
//! seed ⇒ byte-identical fingerprint guarantee at any `--threads`.

use fhp_hypergraph::contract::{heavy_pair_clustering, heavy_pair_clustering_within, Contraction};
use fhp_hypergraph::Hypergraph;
use fhp_obs::{names, order, Collector, Gauge, Progress, Scope};

use crate::metrics::{self, CutReport, Objective};
use crate::refine::{FmRefiner, FmScratch, FmWork};
use crate::{
    Algorithm1, Bipartition, Bipartitioner, PartitionConfig, PartitionError, PartitionOutcome, Side,
};

/// Coarsening stops when a level keeps at least this share of its fine
/// level's vertex count: the clustering stalled.
const MIN_SHRINK: f64 = 0.95;

/// FM pass cap per refinement level.
const REFINE_PASSES: usize = 24;

/// Tuning knobs of the multilevel V-cycle, threaded through
/// [`PartitionConfig::multilevel`].
///
/// # Examples
///
/// ```
/// use fhp_core::{Algorithm1, MultilevelConfig, PartitionConfig};
/// use fhp_hypergraph::intersection::paper_example;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = PartitionConfig::paper()
///     .seed(42)
///     .multilevel(Some(MultilevelConfig::new().max_coarse_size(6)));
/// let out = Algorithm1::new(config).run(&paper_example())?;
/// assert!(out.stats.multilevel.is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MultilevelConfig {
    max_coarse_size: usize,
    vcycles: usize,
}

impl Default for MultilevelConfig {
    fn default() -> Self {
        Self::new()
    }
}

impl MultilevelConfig {
    /// The defaults: coarsen to ≤ 60 vertices and run one V-cycle.
    pub fn new() -> Self {
        Self {
            max_coarse_size: 60,
            vcycles: 1,
        }
    }

    /// Stop coarsening at or below this many vertices (default 60; must
    /// be at least 2).
    pub fn max_coarse_size(mut self, size: usize) -> Self {
        self.max_coarse_size = size;
        self
    }

    /// Number of V-cycles (default 1; must be at least 1). Cycles after
    /// the first re-coarsen respecting the incumbent partition and only
    /// replace it when strictly better.
    pub fn vcycles(mut self, cycles: usize) -> Self {
        self.vcycles = cycles;
        self
    }

    /// The configured coarsening stop size.
    pub fn max_coarse_size_value(&self) -> usize {
        self.max_coarse_size
    }

    /// The configured V-cycle count.
    pub fn vcycles_value(&self) -> usize {
        self.vcycles
    }

    pub(crate) fn validate(&self) -> Result<(), PartitionError> {
        if self.max_coarse_size < 2 {
            return Err(PartitionError::InvalidConfig {
                reason: "multilevel max coarse size must be at least 2",
            });
        }
        if self.vcycles == 0 {
            return Err(PartitionError::InvalidConfig {
                reason: "multilevel vcycles must be at least 1",
            });
        }
        Ok(())
    }
}

/// What the V-cycle did, attached to [`RunStats`](crate::RunStats) as
/// `stats.multilevel` when the multilevel mode ran.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub struct MultilevelStats {
    /// Coarsening levels the first cycle built (0 = the input was already
    /// at or below the stop size).
    pub levels: usize,
    /// Vertex counts fine → coarse, starting with the input hypergraph
    /// (`levels + 1` entries).
    pub level_sizes: Vec<usize>,
    /// Unweighted cut of the refined coarsest-level partition
    /// (`level_cuts[0]`).
    pub coarsest_cut: usize,
    /// The first cycle's refined partition at every level, coarsest →
    /// finest (`levels + 1` entries; the last covers the input
    /// hypergraph).
    pub level_partitions: Vec<Bipartition>,
    /// Unweighted cut of each entry of `level_partitions`, recounted on
    /// that level's hypergraph.
    pub level_cuts: Vec<usize>,
    /// V-cycles executed.
    pub vcycles: usize,
    /// Finest-level cut after each cycle (never increases under the run's
    /// objective thanks to the keep-if-strictly-better rule).
    pub cycle_cuts: Vec<usize>,
    /// The flat guard run's cut size.
    pub flat_cut: usize,
    /// True if the flat guard's partition strictly beat the V-cycle's and
    /// was returned instead.
    pub used_flat_guard: bool,
}

/// The cluster weight cap the coarsener uses for `h` under `ml`: a fair
/// share of the total vertex weight per coarse vertex, never below 2.
pub fn coarsen_cap(h: &Hypergraph, ml: &MultilevelConfig) -> u64 {
    (h.total_vertex_weight() / ml.max_coarse_size.max(1) as u64).max(2)
}

/// One coarsening step: `None` when `current` is already at the stop size
/// or the clustering stalled (shrink ratio at or above [`MIN_SHRINK`]).
fn next_level(
    current: &Hypergraph,
    ml: &MultilevelConfig,
    cap: u64,
    groups: Option<&[u32]>,
) -> Result<Option<Contraction>, PartitionError> {
    if current.num_vertices() <= ml.max_coarse_size {
        return Ok(None);
    }
    let clusters = match groups {
        Some(g) => heavy_pair_clustering_within(current, cap, g),
        None => heavy_pair_clustering(current, cap),
    };
    let c = Contraction::try_contract(current, &clusters)?;
    if (c.coarse().num_vertices() as f64) >= MIN_SHRINK * current.num_vertices() as f64 {
        return Ok(None); // clustering stalled; partition what we have
    }
    Ok(Some(c))
}

/// The exact deterministic coarsening sequence the engine's first cycle
/// builds for `(h, ml)`: level `i`'s fine hypergraph is `h` for `i = 0`,
/// else level `i − 1`'s coarse hypergraph. Exposed so the verify oracle
/// and the golden V-cycle test can reconstruct and recount every level
/// independently of the engine.
///
/// # Errors
///
/// Propagates [`PartitionError::Contract`] if a level's cluster map is
/// rejected (unreachable for the dense maps the clustering produces).
pub fn coarsen_sequence(
    h: &Hypergraph,
    ml: &MultilevelConfig,
) -> Result<Vec<Contraction>, PartitionError> {
    let cap = coarsen_cap(h, ml);
    let mut levels = Vec::new();
    let mut current = h.clone();
    while let Some(c) = next_level(&current, ml, cap, None)? {
        current = c.coarse().clone();
        levels.push(c);
    }
    Ok(levels)
}

/// `a` strictly beats `b` under `obj`: lower score, or equal score and
/// strictly lower weight imbalance — the same preference order the
/// multi-start reduction uses, so ties keep the incumbent.
fn strictly_beats(obj: Objective, h: &Hypergraph, a: &Bipartition, b: &Bipartition) -> bool {
    // fhp-audit: allow(float-in-ordering) — objective values are deterministic sums; total_cmp gives the total order
    match obj.evaluate(h, a).total_cmp(&obj.evaluate(h, b)) {
        std::cmp::Ordering::Less => true,
        std::cmp::Ordering::Equal => {
            metrics::weight_imbalance(h, a) < metrics::weight_imbalance(h, b)
        }
        std::cmp::Ordering::Greater => false,
    }
}

/// Runs the full multilevel mode for [`Algorithm1::run`]. `config` is the
/// host configuration (`config.multilevel_value()` is `ml`); inner engine
/// runs strip the multilevel field and a disabled collector, so their
/// scope keys never collide with the V-cycle's own `order::ml` scopes.
pub(crate) fn run_vcycle(
    h: &Hypergraph,
    config: &PartitionConfig,
    ml: &MultilevelConfig,
    collector: &Collector,
    progress: Option<&Progress>,
) -> Result<PartitionOutcome, PartitionError> {
    ml.validate()?;
    let flat_config = config.multilevel(None);
    let refiner = FmRefiner::new().max_passes(REFINE_PASSES);
    // One FM scratch serves every refinement in the V-cycle: the finest
    // level bounds every coarser one, so after the first (finest-sized)
    // warm-up the per-level refinements stop allocating.
    let mut fm = FmScratch::with_capacity(h.num_vertices(), h.num_edges());
    let obj = config.objective_value();
    let cap = coarsen_cap(h, ml);
    let mut seq = 0usize;
    let mut next_scope = || {
        let key = order::ml(seq);
        seq += 1;
        key
    };

    // ---- cycle 1: free coarsening ------------------------------------
    let mut fines: Vec<Hypergraph> = Vec::new(); // fine side of levels[i]
    let mut levels: Vec<Contraction> = Vec::new();
    let mut level_sizes = vec![h.num_vertices()];
    let mut current = h.clone();
    loop {
        let scope = collector.scope(next_scope(), None);
        let span = scope.span(names::ML_COARSEN);
        let Some(c) = next_level(&current, ml, cap, None)? else {
            drop(span);
            break; // scope dropped unadopted: no trailing empty level
        };
        let coarse = c.coarse().clone();
        scope.counter(names::ML_LEVEL_SIZE, coarse.num_vertices() as u64);
        scope.counter(names::ML_LEVEL_EDGES, coarse.num_edges() as u64);
        level_sizes.push(coarse.num_vertices());
        fines.push(std::mem::replace(&mut current, coarse));
        levels.push(c);
        drop(span);
        collector.adopt(scope.finish());
        if let Some(p) = progress {
            p.record_max(Gauge::MlLevels, levels.len() as u64);
        }
    }

    // ---- coarsest-level initial partition ----------------------------
    let scope = collector.scope(next_scope(), None);
    let span = scope.span(names::ML_INITIAL);
    let coarse_out = Algorithm1::new(flat_config).run(&current)?;
    let mut bp = refiner.refine_with(&current, coarse_out.bipartition, &mut fm);
    drop(span);
    let coarsest_cut = metrics::cut_size(&current, &bp);
    record_fm_work(&scope, fm.take_work());
    scope.counter(names::ML_COARSEST_CUT, coarsest_cut as u64);
    collector.adopt(scope.finish());

    let mut level_partitions = vec![bp.clone()];
    let mut level_cuts = vec![coarsest_cut];

    // ---- uncoarsen: project + refine level by level ------------------
    for (c, fine) in levels.iter().zip(fines.iter()).rev() {
        let scope = collector.scope(next_scope(), None);
        let span = scope.span(names::ML_REFINE);
        bp = Bipartition::from_sides(c.project(bp.as_slice()));
        bp = refiner.refine_with(fine, bp, &mut fm);
        drop(span);
        let cut = metrics::cut_size(fine, &bp);
        scope.counter(names::ML_LEVEL_SIZE, fine.num_vertices() as u64);
        record_fm_work(&scope, fm.take_work());
        scope.counter(names::ML_LEVEL_CUT, cut as u64);
        collector.adopt(scope.finish());
        level_partitions.push(bp.clone());
        level_cuts.push(cut);
    }
    let first_cycle_cut = metrics::cut_size(h, &bp);
    let mut cycle_cuts = vec![first_cycle_cut];
    if let Some(p) = progress {
        p.add(Gauge::MlVcyclesDone, 1);
        p.record_min(Gauge::BestCut, first_cycle_cut as u64);
    }

    // ---- extra V-cycles: partition-respecting re-coarsening ----------
    for _ in 1..ml.vcycles {
        let scope = collector.scope(next_scope(), None);
        let span = scope.span(names::ML_CYCLE);
        let candidate = respecting_cycle(h, ml, cap, &bp, &refiner, &mut fm)?;
        if strictly_beats(obj, h, &candidate, &bp) {
            bp = candidate;
        }
        drop(span);
        let cut = metrics::cut_size(h, &bp);
        scope.counter(names::ML_CYCLE_CUT, cut as u64);
        collector.adopt(scope.finish());
        cycle_cuts.push(cut);
        if let Some(p) = progress {
            p.add(Gauge::MlVcyclesDone, 1);
            p.record_min(Gauge::BestCut, cut as u64);
        }
    }

    // ---- flat guard --------------------------------------------------
    let flat_out = Algorithm1::new(flat_config).run(h)?;
    let flat_cut = flat_out.report.cut_size;
    let used_flat_guard = strictly_beats(obj, h, &flat_out.bipartition, &bp);
    let mut base_stats = coarse_out.stats;
    if used_flat_guard {
        bp = flat_out.bipartition;
        base_stats = flat_out.stats;
    }

    let report = CutReport::new(h, &bp);
    let summary = collector.scope(order::SUMMARY, None);
    summary.counter(names::ML_LEVELS, levels.len() as u64);
    summary.counter(names::ML_VCYCLES, ml.vcycles as u64);
    summary.counter(names::ML_FLAT_GUARD_CUT, flat_cut as u64);
    summary.counter(names::ML_USED_FLAT_GUARD, u64::from(used_flat_guard));
    summary.counter(names::ALG1_BEST_CUT, report.cut_size as u64);
    collector.adopt(summary.finish());

    base_stats.multilevel = Some(MultilevelStats {
        levels: levels.len(),
        level_sizes,
        coarsest_cut,
        level_partitions,
        level_cuts,
        vcycles: ml.vcycles,
        cycle_cuts,
        flat_cut,
        used_flat_guard,
    });
    Ok(PartitionOutcome {
        bipartition: bp,
        report,
        stats: base_stats,
    })
}

/// Records one refinement's FM work counters into its scope.
fn record_fm_work(scope: &Scope, work: FmWork) {
    scope.counter(names::ML_FM_MOVES, work.moves);
    scope.counter(names::ML_FM_GAIN_UPDATES, work.gain_updates);
    scope.counter(names::ML_FM_MOVE_PINS, work.move_pins);
}

/// One partition-respecting V-cycle: coarsen merging only same-side
/// pairs (so the incumbent projects through every level with its weighted
/// cut intact), carry the incumbent down as the coarsest start, refine on
/// the way back up. The result's weighted cut is never worse than the
/// incumbent's because every step is cut-preserving or FM-monotone.
fn respecting_cycle(
    h: &Hypergraph,
    ml: &MultilevelConfig,
    cap: u64,
    incumbent: &Bipartition,
    refiner: &FmRefiner,
    fm: &mut FmScratch,
) -> Result<Bipartition, PartitionError> {
    let mut fines: Vec<Hypergraph> = Vec::new();
    let mut levels: Vec<Contraction> = Vec::new();
    let mut sides: Vec<Side> = incumbent.as_slice().to_vec();
    let mut current = h.clone();
    loop {
        let groups: Vec<u32> = sides.iter().map(|s| s.index() as u32).collect(); // fhp-audit: allow(as-cast-truncation) — side index is 0 or 1
        let Some(c) = next_level(&current, ml, cap, Some(&groups))? else {
            break;
        };
        // every cluster is same-side by construction; its coarse vertex
        // inherits that side
        let mut coarse_sides = vec![Side::Left; c.coarse().num_vertices()];
        for (&cl, &s) in c.projection_map().iter().zip(sides.iter()) {
            if let Some(slot) = coarse_sides.get_mut(cl as usize) {
                *slot = s;
            }
        }
        sides = coarse_sides;
        fines.push(std::mem::replace(&mut current, c.coarse().clone()));
        levels.push(c);
    }
    let mut bp = refiner.refine_with(&current, Bipartition::from_sides(sides), fm);
    for (c, fine) in levels.iter().zip(fines.iter()).rev() {
        bp = Bipartition::from_sides(c.project(bp.as_slice()));
        bp = refiner.refine_with(fine, bp, fm);
    }
    Ok(bp)
}

/// Multilevel V-cycle bipartitioner: [`Algorithm1`] with the multilevel
/// mode enabled on the paper's preset, packaged as a [`Bipartitioner`]
/// for the experiment tables.
///
/// # Examples
///
/// ```
/// use fhp_core::{multilevel::Multilevel, Bipartitioner};
/// use fhp_hypergraph::Netlist;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let nl = Netlist::parse("a: 1 2 3\nb: 3 4\nc: 4 5 6\nd: 1 6\n")?;
/// let bp = Multilevel::new(0).bipartition(nl.hypergraph())?;
/// assert!(bp.is_valid_cut());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Multilevel {
    config: PartitionConfig,
}

impl Multilevel {
    /// A V-cycle with the defaults that matter: coarsen to ≤ 60 vertices,
    /// Algorithm I (paper preset) on the coarsest level, FM refinement at
    /// every level, flat guard on.
    pub fn new(seed: u64) -> Self {
        Self {
            config: PartitionConfig::paper()
                .seed(seed)
                .multilevel(Some(MultilevelConfig::new())),
        }
    }
}

impl Bipartitioner for Multilevel {
    fn bipartition(&self, h: &Hypergraph) -> Result<Bipartition, PartitionError> {
        Algorithm1::new(self.config).run(h).map(|o| o.bipartition)
    }

    fn name(&self) -> &str {
        "Multilevel"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhp_hypergraph::{HypergraphBuilder, VertexId};

    /// A ~80-module pseudo-random netlist (tiny LCG, fixed seed) — big
    /// enough that coarsening builds real levels under the default stop
    /// size when asked for a small coarsest level.
    fn instance() -> Hypergraph {
        let mut b = HypergraphBuilder::with_vertices(80);
        let mut state: u64 = 0x243f_6a88_85a3_08d3;
        let mut next = move |bound: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % bound
        };
        for _ in 0..130 {
            let size = 2 + next(3);
            let mut pins = Vec::with_capacity(size);
            while pins.len() < size {
                let v = VertexId::new(next(80));
                if !pins.contains(&v) {
                    pins.push(v);
                }
            }
            b.add_edge(pins).expect("valid pins");
        }
        b.build()
    }

    fn ml_config() -> PartitionConfig {
        PartitionConfig::new()
            .starts(8)
            .seed(11)
            .multilevel(Some(MultilevelConfig::new().max_coarse_size(16)))
    }

    #[test]
    fn vcycle_produces_a_valid_cut_with_stats() {
        let h = instance();
        let out = Algorithm1::new(ml_config()).run(&h).unwrap();
        assert!(out.bipartition.is_valid_cut());
        let ml = out.stats.multilevel.as_ref().expect("multilevel ran");
        assert!(ml.levels >= 1, "80 modules must coarsen below 16");
        assert_eq!(ml.level_sizes.len(), ml.levels + 1);
        assert!(
            ml.level_sizes.windows(2).all(|w| w[1] < w[0]),
            "coarsening monotone: {:?}",
            ml.level_sizes
        );
        assert_eq!(ml.level_partitions.len(), ml.levels + 1);
        assert_eq!(ml.level_cuts.len(), ml.levels + 1);
        assert_eq!(ml.coarsest_cut, ml.level_cuts[0]);
        assert_eq!(ml.cycle_cuts.first(), ml.level_cuts.last());
        assert_eq!(ml.vcycles, 1);
    }

    #[test]
    fn never_worse_than_flat_by_construction() {
        let h = instance();
        for seed in [1u64, 7, 42] {
            let base = PartitionConfig::new().starts(6).seed(seed);
            let flat = Algorithm1::new(base).run(&h).unwrap();
            let ml =
                Algorithm1::new(base.multilevel(Some(MultilevelConfig::new().max_coarse_size(16))))
                    .run(&h)
                    .unwrap();
            assert!(
                ml.report.cut_size <= flat.report.cut_size,
                "seed {seed}: ml {} vs flat {}",
                ml.report.cut_size,
                flat.report.cut_size
            );
            assert_eq!(
                ml.stats.multilevel.as_ref().map(|m| m.flat_cut),
                Some(flat.report.cut_size)
            );
        }
    }

    #[test]
    fn extra_vcycles_never_regress() {
        let h = instance();
        let out = Algorithm1::new(
            PartitionConfig::new()
                .starts(6)
                .seed(3)
                .multilevel(Some(MultilevelConfig::new().max_coarse_size(16).vcycles(3))),
        )
        .run(&h)
        .unwrap();
        let ml = out.stats.multilevel.as_ref().unwrap();
        assert_eq!(ml.cycle_cuts.len(), 3);
        // unweighted instance + cut-size objective: the keep rule makes
        // the per-cycle cut sequence non-increasing
        assert!(
            ml.cycle_cuts.windows(2).all(|w| w[1] <= w[0]),
            "{:?}",
            ml.cycle_cuts
        );
    }

    #[test]
    fn deterministic_fingerprints_across_threads_and_runs() {
        let h = instance();
        let run = |threads| {
            Algorithm1::new(ml_config().threads(threads))
                .run(&h)
                .unwrap()
                .fingerprint()
        };
        let one = run(1);
        assert_eq!(one, run(1), "repeat run diverged");
        assert_eq!(one, run(2), "threads=2 diverged");
        assert_eq!(one, run(8), "threads=8 diverged");
    }

    #[test]
    fn small_inputs_skip_coarsening() {
        let mut b = HypergraphBuilder::with_vertices(6);
        for i in 0..5 {
            b.add_edge([VertexId::new(i), VertexId::new(i + 1)])
                .unwrap();
        }
        let h = b.build();
        let out = Algorithm1::new(
            PartitionConfig::new()
                .starts(4)
                .multilevel(Some(MultilevelConfig::new())),
        )
        .run(&h)
        .unwrap();
        assert!(out.bipartition.is_valid_cut());
        let ml = out.stats.multilevel.as_ref().unwrap();
        assert_eq!(ml.levels, 0);
        assert_eq!(ml.level_sizes, vec![6]);
    }

    #[test]
    fn stalled_clustering_stops_coarsening() {
        // 100 modules of weight 10 give the cluster cap 1000 / 60 = 16, so
        // no pair (weight 20) may merge: the first level keeps every
        // vertex and the stall rule, not the stop size, ends coarsening
        let mut b = HypergraphBuilder::new();
        let vs: Vec<_> = (0..100).map(|_| b.add_weighted_vertex(10)).collect();
        for w in vs.windows(2) {
            b.add_edge([w[0], w[1]]).unwrap();
        }
        let h = b.build();
        let ml = MultilevelConfig::new();
        assert_eq!(coarsen_cap(&h, &ml), 16);
        assert!(h.num_vertices() > ml.max_coarse_size_value());
        assert!(coarsen_sequence(&h, &ml).unwrap().is_empty());
        let out = Algorithm1::new(PartitionConfig::new().starts(4).multilevel(Some(ml)))
            .run(&h)
            .unwrap();
        assert!(out.bipartition.is_valid_cut());
        assert_eq!(out.stats.multilevel.as_ref().unwrap().levels, 0);
    }

    #[test]
    fn projection_preserves_weighted_cut_per_level() {
        let h = instance();
        let ml = MultilevelConfig::new().max_coarse_size(16);
        let levels = coarsen_sequence(&h, &ml).unwrap();
        assert!(!levels.is_empty());
        // any labelling of a coarse level projects with an identical
        // weighted cut on its fine level
        for (i, c) in levels.iter().enumerate() {
            let coarse = c.coarse();
            let bp = Bipartition::from_fn(coarse.num_vertices(), |v| {
                if v.index() % 2 == 0 {
                    Side::Left
                } else {
                    Side::Right
                }
            });
            let fine_h = if i == 0 { &h } else { levels[i - 1].coarse() };
            let projected = Bipartition::from_sides(c.project(bp.as_slice()));
            assert_eq!(
                metrics::weighted_cut(coarse, &bp),
                metrics::weighted_cut(fine_h, &projected),
                "level {i}"
            );
        }
    }

    #[test]
    fn invalid_multilevel_configs_rejected() {
        let h = instance();
        for bad in [
            MultilevelConfig::new().max_coarse_size(1),
            MultilevelConfig::new().vcycles(0),
        ] {
            let r = Algorithm1::new(PartitionConfig::new().multilevel(Some(bad))).run(&h);
            assert!(
                matches!(r, Err(PartitionError::InvalidConfig { .. })),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn wrapper_is_a_bipartitioner() {
        let h = instance();
        let ml = Multilevel::new(5);
        assert_eq!(ml.name(), "Multilevel");
        let bp = ml.bipartition(&h).unwrap();
        assert!(bp.is_valid_cut());
        let tiny = HypergraphBuilder::with_vertices(1).build();
        assert!(Multilevel::new(0).bipartition(&tiny).is_err());
    }

    #[test]
    fn config_defaults_and_accessors() {
        let c = MultilevelConfig::default();
        assert_eq!(c, MultilevelConfig::new());
        assert_eq!(c.max_coarse_size_value(), 60);
        assert_eq!(c.vcycles_value(), 1);
    }
}
