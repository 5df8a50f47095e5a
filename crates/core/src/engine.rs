//! The long-lived partition engine: a netlist held warm under edits.
//!
//! [`PartitionEngine`] owns a [`DynamicNetlist`] (pin lists plus a
//! module → net incidence, patched per edit — see
//! [`fhp_hypergraph::incremental`]) plus the current side assignment and
//! weighted cut, and exposes [`apply`](PartitionEngine::apply) over a
//! typed [`Edit`] set. Each edit is repaired at the cheapest tier that
//! preserves quality:
//!
//! - **Trivial** — fewer than two live modules, or no live nets: the cut
//!   is forced (0) and no search runs.
//! - **Incremental** — the damaged region (pins of the touched net, the
//!   touched module) is small relative to the instance: the cut is
//!   maintained by delta and a single localized FM pass over the damaged
//!   modules repairs it, with no Algorithm I re-run. The fingerprint
//!   terms, the side weights, the heaviest module weight and the per-net
//!   side counts are kept by delta, so apart from the netlist's own
//!   pin-list edit the cost is the damaged region's incidence times the
//!   number of moves ([`EngineStats::work`] counts it). On the
//!   10^5-signal engine bench (one core of a 2-vCPU VM) a single-net
//!   edit takes about 2 µs; recomputing the fingerprint from scratch
//!   took about 3 ms.
//! - **Full** — the damage fraction exceeds
//!   [`EngineConfig::damage_permille`]: the live netlist is
//!   re-partitioned from scratch with [`Algorithm1`]. Fallbacks are
//!   counted ([`EngineStats::full_recomputes`], the
//!   `engine.full_recomputes` gauge), never silent.
//!
//! Determinism-under-edits contract: the same initial instance plus the
//! same edit sequence yields the same
//! [`fingerprint`](PartitionEngine::fingerprint) after every edit, for
//! every thread count — both repair tiers are built from components that
//! already honor the workspace determinism contract.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;

use fhp_hypergraph::{DynamicNetlist, Hypergraph, IncrementalError, VertexId};
use fhp_obs::{Gauge, Progress};

use crate::balance;
use crate::error::PartitionError;
use crate::moves::gain_term;
use crate::{Algorithm1, PartitionConfig, Side};

/// One structural edit of the live netlist. Ids are the engine's stable
/// ids (never reused; new ids come back in [`Delta::new_id`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Edit {
    /// Add a net over existing modules.
    AddNet {
        /// Pin modules (distinct, live).
        pins: Vec<u32>,
        /// Net weight (positive).
        weight: u64,
    },
    /// Remove a live net.
    RemoveNet {
        /// The net to remove.
        net: u32,
    },
    /// Add an isolated module.
    AddModule {
        /// Module weight (positive).
        weight: u64,
    },
    /// Remove an isolated module.
    RemoveModule {
        /// The module to remove.
        module: u32,
    },
    /// Change a module's weight.
    ReweightModule {
        /// The module to reweight.
        module: u32,
        /// The new weight (positive).
        weight: u64,
    },
    /// Add (`add == true`) or remove one pin of a net.
    PinChange {
        /// The net whose pin set changes.
        net: u32,
        /// The module being attached/detached.
        module: u32,
        /// `true` to add the pin, `false` to remove it.
        add: bool,
    },
}

/// Which repair tier an edit took.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepairKind {
    /// Degenerate state (fewer than two live modules or no live nets):
    /// the cut is forced, no search ran.
    Trivial,
    /// Localized FM refinement seeded from the previous assignment.
    Incremental,
    /// Full from-scratch re-partition of the live netlist.
    Full,
}

impl RepairKind {
    /// Stable lowercase label (the serve protocol's `repair` field).
    pub const fn as_str(self) -> &'static str {
        match self {
            RepairKind::Trivial => "trivial",
            RepairKind::Incremental => "incremental",
            RepairKind::Full => "full",
        }
    }
}

/// What one applied edit did to the engine state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delta {
    /// 0-based index of this edit since load.
    pub edit_index: u64,
    /// Weighted cut before the edit.
    pub cut_before: u64,
    /// Weighted cut after repair.
    pub cut_after: u64,
    /// The repair tier that ran.
    pub repair: RepairKind,
    /// Modules in the damaged region the repair was seeded from.
    pub damaged_modules: usize,
    /// State fingerprint after the edit (see
    /// [`PartitionEngine::fingerprint`]).
    pub fingerprint: u64,
    /// The stable id allocated by `AddNet` / `AddModule`.
    pub new_id: Option<u32>,
}

/// Monotonic engine counters, mirrored into the `engine.*` gauges when a
/// [`Progress`] registry is attached.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Edits applied since load.
    pub edits: u64,
    /// Edits repaired incrementally.
    pub incremental_hits: u64,
    /// Edits that fell back to a full recompute.
    pub full_recomputes: u64,
    /// Work units spent on the derived state: fingerprint terms
    /// updated, per-net side-count updates, and incident nets visited by
    /// the localized repair's gain evaluations. Load and the full and
    /// trivial tiers add their from-scratch rebuild.
    pub work: u64,
}

/// Engine tuning: the inner [`PartitionConfig`] (used at load and for
/// full recomputes) and the damage threshold that picks the repair tier.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    partition: PartitionConfig,
    damage_permille: u32,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self::new()
    }
}

impl EngineConfig {
    /// Defaults: 8 starts, damage threshold 250‰ (an edit touching more
    /// than a quarter of the live modules goes straight to a full
    /// recompute).
    pub fn new() -> Self {
        Self {
            partition: PartitionConfig::new().starts(8),
            damage_permille: 250,
        }
    }

    /// Replaces the inner partition configuration.
    pub fn partition(mut self, config: PartitionConfig) -> Self {
        self.partition = config;
        self
    }

    /// Sets the damage threshold in permille of live modules. An edit
    /// whose damaged region exceeds it falls back to a full recompute;
    /// `0` forces full recompute on every edit, `1000` never falls back.
    pub fn damage_permille(mut self, permille: u32) -> Self {
        self.damage_permille = permille.min(1000);
        self
    }

    /// The inner partition configuration.
    pub fn partition_value(&self) -> &PartitionConfig {
        &self.partition
    }

    /// The damage threshold in permille.
    pub fn damage_permille_value(&self) -> u32 {
        self.damage_permille
    }
}

/// An engine operation that could not proceed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// No instance is loaded yet ([`PartitionEngine::load`] first).
    NotLoaded,
    /// The structural edit was rejected; engine state is unchanged.
    Structure(IncrementalError),
    /// The (re)partition itself failed (e.g. instance over the size cap).
    Partition(PartitionError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NotLoaded => write!(f, "no instance loaded"),
            Self::Structure(e) => write!(f, "edit rejected: {e}"),
            Self::Partition(e) => write!(f, "partition failed: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<IncrementalError> for EngineError {
    fn from(e: IncrementalError) -> Self {
        Self::Structure(e)
    }
}

/// What the structural half of an edit did: the damage extent, the cut
/// delta under the unchanged assignment, and the seed set for localized
/// repair.
struct StructuralOutcome {
    /// Modules in the damaged region (drives the repair-tier choice).
    damaged: usize,
    /// Stable id allocated by `AddNet` / `AddModule`.
    new_id: Option<u32>,
    /// Weight newly entering the cut.
    cut_add: u64,
    /// Weight leaving the cut.
    cut_sub: u64,
    /// Modules whose incidence changed — the localized repair's seeds.
    touched: Vec<u32>,
}

/// A long-lived partitioner: loads an instance once, absorbs edits, and
/// answers cut/fingerprint queries without re-running the batch pipeline
/// unless the damage threshold says so. See the module docs for the
/// repair tiers and the determinism contract.
#[derive(Debug)]
pub struct PartitionEngine {
    config: EngineConfig,
    /// `None` until [`load`](PartitionEngine::load).
    nl: Option<DynamicNetlist>,
    /// Side per module **slot** (tombstoned slots keep their last side;
    /// only live slots are meaningful).
    sides: Vec<Side>,
    /// Current weighted cut of the live netlist.
    cut: u64,
    /// Fingerprint terms, side weights and per-net side counts, kept by
    /// delta.
    derived: Derived,
    stats: EngineStats,
    progress: Option<Arc<Progress>>,
}

impl PartitionEngine {
    /// An empty engine; [`load`](Self::load) an instance before editing.
    pub fn new(config: EngineConfig) -> Self {
        Self {
            config,
            nl: None,
            sides: Vec::new(),
            cut: 0,
            derived: Derived::default(),
            stats: EngineStats::default(),
            progress: None,
        }
    }

    /// Attaches a live gauge registry; the engine keeps the `engine.*`
    /// gauges current on every apply.
    pub fn progress(mut self, progress: Option<Arc<Progress>>) -> Self {
        self.progress = progress;
        self
    }

    /// Whether an instance is loaded.
    pub fn is_loaded(&self) -> bool {
        self.nl.is_some()
    }

    /// Loads an instance and computes the initial partition with the
    /// configured [`Algorithm1`] run (not counted as a full recompute).
    /// Replaces any previously loaded state and resets the edit counters.
    ///
    /// # Errors
    ///
    /// [`EngineError::Partition`] if the initial partition fails for a
    /// non-benign reason (too-few-vertices degenerates to the trivial
    /// partition instead).
    pub fn load(&mut self, h: &Hypergraph) -> Result<Delta, EngineError> {
        let Ok(nl) = DynamicNetlist::from_hypergraph(h);
        let mut sides = vec![Side::Left; h.num_vertices()];
        let mut cut = 0;
        if h.num_vertices() >= 2 && h.num_edges() > 0 {
            match Algorithm1::new(self.config.partition)
                .progress(self.progress.clone())
                .run(h)
            {
                Ok(outcome) => {
                    sides.copy_from_slice(outcome.bipartition.as_slice());
                    cut = outcome.report.weighted_cut;
                }
                Err(PartitionError::TooFewVertices { .. }) => {}
                Err(e) => return Err(EngineError::Partition(e)),
            }
        }
        self.nl = Some(nl);
        self.sides = sides;
        self.cut = cut;
        self.stats = EngineStats::default();
        self.rebuild_derived();
        self.sync_gauges();
        Ok(Delta {
            edit_index: 0,
            cut_before: cut,
            cut_after: cut,
            repair: RepairKind::Full,
            damaged_modules: h.num_vertices(),
            fingerprint: self.fingerprint(),
            new_id: None,
        })
    }

    /// Applies one edit and repairs the cut at the cheapest adequate
    /// tier. On error the engine state is unchanged.
    ///
    /// # Errors
    ///
    /// [`EngineError::NotLoaded`] before [`load`](Self::load);
    /// [`EngineError::Structure`] when the netlist rejects the edit;
    /// [`EngineError::Partition`] if a full recompute fails.
    pub fn apply(&mut self, edit: &Edit) -> Result<Delta, EngineError> {
        if self.nl.is_none() {
            return Err(EngineError::NotLoaded);
        }
        let cut_before = self.cut;
        let outcome = self.apply_structural(edit)?;
        // The edit is in; everything from here is repair, which cannot
        // fail structurally. The structural cut delta lands first so
        // every repair tier starts from an exact cut.
        self.cut = self
            .cut
            .saturating_sub(outcome.cut_sub)
            .saturating_add(outcome.cut_add);
        let nl = self.nl.as_ref().ok_or(EngineError::NotLoaded)?;
        let live = nl.num_live_modules();
        let repair = if live < 2 || nl.num_live_nets() == 0 {
            for side in &mut self.sides {
                *side = Side::Left;
            }
            self.cut = 0;
            self.rebuild_derived();
            RepairKind::Trivial
        } else if outcome.damaged.saturating_mul(1000)
            > (self.config.damage_permille as usize).saturating_mul(live)
        {
            self.repair_full()?;
            self.rebuild_derived();
            RepairKind::Full
        } else {
            self.repair_incremental(&outcome.touched);
            RepairKind::Incremental
        };
        self.stats.edits += 1;
        match repair {
            RepairKind::Incremental => self.stats.incremental_hits += 1,
            RepairKind::Full => self.stats.full_recomputes += 1,
            RepairKind::Trivial => {}
        }
        self.sync_gauges();
        Ok(Delta {
            edit_index: self.stats.edits - 1,
            cut_before,
            cut_after: self.cut,
            repair,
            damaged_modules: outcome.damaged,
            fingerprint: self.fingerprint(),
            new_id: outcome.new_id,
        })
    }

    /// Applies the structural half of an edit and patches the derived
    /// state for exactly the entities it touches, returning the damaged
    /// module count, any freshly allocated id, the exact cut delta the
    /// edit caused under the unchanged assignment, and the modules whose
    /// incidence changed (the localized repair's seed set). Leaves
    /// `sides` sized to the slot count (new slots join the lighter side).
    fn apply_structural(&mut self, edit: &Edit) -> Result<StructuralOutcome, EngineError> {
        let nl = self.nl.as_mut().ok_or(EngineError::NotLoaded)?;
        let derived = &mut self.derived;
        match edit {
            Edit::AddNet { pins, weight } => {
                let id = nl.add_net(pins, *weight)?;
                self.stats.work += derived.add_net(id, *weight, pins, &self.sides);
                Ok(StructuralOutcome {
                    damaged: pins.len(),
                    new_id: Some(id),
                    cut_add: if derived.spans(id) { *weight } else { 0 },
                    cut_sub: 0,
                    touched: pins.clone(),
                })
            }
            Edit::RemoveNet { net } => {
                let touched = nl.net_pins(*net).map(<[u32]>::to_vec).unwrap_or_default();
                let weight = nl.net_weight(*net).unwrap_or(0);
                let cut_sub = if derived.spans(*net) { weight } else { 0 };
                nl.remove_net(*net)?;
                self.stats.work += derived.remove_net(*net, weight, &touched);
                Ok(StructuralOutcome {
                    damaged: touched.len(),
                    new_id: None,
                    cut_add: 0,
                    cut_sub,
                    touched,
                })
            }
            Edit::AddModule { weight } => {
                let lighter = derived.lighter_side();
                let id = nl.add_module(*weight)?;
                self.sides.push(lighter);
                self.stats.work += derived.add_module(id, *weight, lighter);
                Ok(StructuralOutcome {
                    damaged: 1,
                    new_id: Some(id),
                    cut_add: 0,
                    cut_sub: 0,
                    touched: Vec::new(),
                })
            }
            Edit::RemoveModule { module } => {
                // Only isolated modules are removable, so no net's
                // spanning status can change.
                let weight = nl.module_weight(*module).unwrap_or(0);
                nl.remove_module(*module)?;
                let side = side_in(&self.sides, *module);
                self.stats.work += derived.remove_module(*module, weight, side);
                Ok(StructuralOutcome {
                    damaged: 0,
                    new_id: None,
                    cut_add: 0,
                    cut_sub: 0,
                    touched: Vec::new(),
                })
            }
            Edit::ReweightModule { module, weight } => {
                // A weight change never moves a net across the cut.
                let old = nl.module_weight(*module).unwrap_or(0);
                nl.reweight_module(*module, *weight)?;
                let side = side_in(&self.sides, *module);
                self.stats.work += derived.update_module(*module, (old, side), (*weight, side));
                Ok(StructuralOutcome {
                    damaged: 1,
                    new_id: None,
                    cut_add: 0,
                    cut_sub: 0,
                    touched: Vec::new(),
                })
            }
            Edit::PinChange { net, module, add } => {
                let weight = nl.net_weight(*net).unwrap_or(0);
                let spanned_before = derived.spans(*net);
                nl.pin_change(*net, *module, *add)?;
                let side = side_in(&self.sides, *module);
                self.stats.work += derived.pin_change(*net, *module, side, *add);
                let spans_after = derived.spans(*net);
                let mut touched = nl.net_pins(*net).map(<[u32]>::to_vec).unwrap_or_default();
                let damaged = touched.len() + 1;
                if !touched.contains(module) {
                    touched.push(*module);
                }
                Ok(StructuralOutcome {
                    damaged,
                    new_id: None,
                    cut_add: if spans_after && !spanned_before {
                        weight
                    } else {
                        0
                    },
                    cut_sub: if spanned_before && !spans_after {
                        weight
                    } else {
                        0
                    },
                    touched,
                })
            }
        }
    }

    /// Recomputes the derived state from scratch: load and the
    /// full-recompute and trivial tiers, which are O(instance) anyway.
    fn rebuild_derived(&mut self) {
        if let Some(nl) = self.nl.as_ref() {
            let (derived, work) = Derived::scan(nl, &self.sides);
            self.derived = derived;
            self.stats.work += work;
        }
    }

    /// Localized repair: one FM pass over the damaged modules only. The
    /// cut arrives already exact (maintained by delta in
    /// [`apply`](Self::apply)); this pass then greedily flips damaged
    /// modules whose move strictly lowers the cut, under the same
    /// adaptive balance slack [`FmRefiner`](crate::refine::FmRefiner)
    /// uses (twice the heaviest live module), each module at most once.
    /// The side weights, the heaviest weight and the per-net side counts
    /// are kept by delta, so the cost is the damaged modules' incidence
    /// times the number of moves.
    fn repair_incremental(&mut self, touched: &[u32]) {
        let Some(nl) = self.nl.as_ref() else { return };
        let mut candidates: Vec<u32> = touched
            .iter()
            .copied()
            .filter(|&m| nl.module_weight(m).is_some())
            .collect();
        candidates.sort_unstable();
        candidates.dedup();
        if candidates.is_empty() {
            return;
        }
        // The balance slack mirrors FmRefiner's adaptive floor.
        let [left, right] = self.derived.side_weight;
        let tolerance = balance::floor(left.abs_diff(right), self.derived.heaviest());
        let mut moved = vec![false; candidates.len()];
        loop {
            let [left, right] = self.derived.side_weight;
            let mut best: Option<(u64, usize)> = None;
            for (i, (&m, &done)) in candidates.iter().zip(&moved).enumerate() {
                if done {
                    continue;
                }
                let w = nl.module_weight(m).unwrap_or(0);
                let from = side_in(&self.sides, m);
                if balance::imbalance_after_move(left, right, w, from) > tolerance {
                    continue;
                }
                let nets = nl.incident_nets(m).unwrap_or(&[]);
                self.stats.work += nets.len() as u64;
                let gain = self.derived.flip_gain(nl, nets, from);
                if gain <= 0 {
                    continue;
                }
                let gain = gain as u64; // fhp-audit: allow(as-cast-truncation) — checked positive above
                if best.is_none_or(|(g, _)| gain > g) {
                    best = Some((gain, i));
                }
            }
            let Some((gain, i)) = best else { break };
            let m = candidates[i]; // fhp-audit: allow(panic-site) — i was produced by enumerate() over candidates
            let w = nl.module_weight(m).unwrap_or(0);
            let from = side_in(&self.sides, m);
            if let Some(slot) = self.sides.get_mut(m as usize) {
                *slot = from.opposite();
            }
            let nets = nl.incident_nets(m).unwrap_or(&[]);
            self.stats.work += self.derived.flip(m, w, from, nets);
            self.cut = self.cut.saturating_sub(gain);
            moved[i] = true; // fhp-audit: allow(panic-site) — i was produced by enumerate() over the same-length moved
        }
    }

    /// Fallback repair: re-partition the compacted live netlist from
    /// scratch with the configured [`Algorithm1`] run.
    fn repair_full(&mut self) -> Result<(), EngineError> {
        let Some(nl) = self.nl.as_ref() else {
            return Err(EngineError::NotLoaded);
        };
        let (h, module_ids, _nets) = nl.materialize();
        match Algorithm1::new(self.config.partition)
            .progress(self.progress.clone())
            .run(&h)
        {
            Ok(outcome) => {
                self.cut = outcome.report.weighted_cut;
                for (compact, &stable) in module_ids.iter().enumerate() {
                    if let Some(slot) = self.sides.get_mut(stable as usize) {
                        *slot = outcome.bipartition.side(VertexId::new(compact));
                    }
                }
                Ok(())
            }
            Err(PartitionError::TooFewVertices { .. }) => {
                for side in &mut self.sides {
                    *side = Side::Left;
                }
                self.cut = 0;
                Ok(())
            }
            Err(e) => Err(EngineError::Partition(e)),
        }
    }

    fn sync_gauges(&self) {
        if let Some(p) = &self.progress {
            p.set(Gauge::EngineEdits, self.stats.edits);
            p.set(Gauge::EngineIncrementalHits, self.stats.incremental_hits);
            p.set(Gauge::EngineFullRecomputes, self.stats.full_recomputes);
            p.record_min(Gauge::BestCut, self.cut);
        }
    }

    /// Current weighted cut of the live netlist.
    pub fn cut(&self) -> u64 {
        self.cut
    }

    /// The engine counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// The side of a live module, `None` if unknown/dead or not loaded.
    pub fn side_of(&self, module: u32) -> Option<Side> {
        let nl = self.nl.as_ref()?;
        nl.module_weight(module)?;
        self.sides.get(module as usize).copied()
    }

    /// The live netlist, `None` before load.
    pub fn netlist(&self) -> Option<&DynamicNetlist> {
        self.nl.as_ref()
    }

    /// Compacts the live state into an ordinary [`Hypergraph`] plus the
    /// compact → stable id maps, `None` before load. The same shape as
    /// [`DynamicNetlist::materialize`].
    pub fn materialize(&self) -> Option<(Hypergraph, Vec<u32>, Vec<u32>)> {
        self.nl.as_ref().map(DynamicNetlist::materialize)
    }

    /// The state fingerprint: an order-independent wrapping sum of one
    /// hash term per live module (id, weight, side), per live net (id,
    /// weight) and per pin (net, module), mixed with the current cut. The
    /// pin lists determine every derived structure (the incidence, and
    /// the dual graph `G` a recompute builds), so the fingerprint covers
    /// all observable state. Every edit and repair flip updates only the
    /// terms it touches, so this is O(1). Equal fingerprints after the
    /// same edit sequence at different thread counts is the
    /// determinism-under-edits contract.
    pub fn fingerprint(&self) -> u64 {
        if self.nl.is_none() {
            return 0;
        }
        mix64(self.derived.terms ^ mix64(self.cut))
    }

    /// Recomputes the derived state — the fingerprint term sum, the side
    /// weights, the heaviest live module weight and every net's per-side
    /// pin counts — from the pin lists and the side assignment, and
    /// compares it against the state kept by delta; the first divergence
    /// is returned as a description. The verification path of the
    /// `incremental` oracle and the unit tests, modelled on
    /// [`DynamicNetlist::verify_incidence`].
    pub fn verify_derived(&self) -> Result<(), String> {
        let Some(nl) = self.nl.as_ref() else {
            return Ok(());
        };
        let (want, _) = Derived::scan(nl, &self.sides);
        let got = &self.derived;
        if got.terms != want.terms {
            return Err(format!(
                "fingerprint term sum {:#x}, recomputed {:#x}",
                got.terms, want.terms
            ));
        }
        if got.side_weight != want.side_weight {
            return Err(format!(
                "side weights {:?}, recomputed {:?}",
                got.side_weight, want.side_weight
            ));
        }
        if got.weights != want.weights {
            return Err(format!(
                "heaviest module weight {} ({:?}), recomputed {} ({:?})",
                got.heaviest(),
                got.weights,
                want.heaviest(),
                want.weights
            ));
        }
        if got.pins_on.len() != want.pins_on.len() {
            return Err(format!(
                "side counts cover {} net slots, recomputed {}",
                got.pins_on.len(),
                want.pins_on.len()
            ));
        }
        for (e, (g, w)) in got.pins_on.iter().zip(&want.pins_on).enumerate() {
            if g != w {
                return Err(format!(
                    "side counts of net {e}: maintained {g:?}, recomputed {w:?}"
                ));
            }
        }
        Ok(())
    }
}

/// The engine state derived from the netlist and the side assignment,
/// kept by delta: each structural edit and each repair flip updates only
/// the entries of the entities it touches. Every update returns the work
/// units it spent (one per fingerprint term, one per side-count update)
/// for [`EngineStats::work`].
#[derive(Debug, Default)]
struct Derived {
    /// Wrapping sum of the fingerprint terms of every live module, live
    /// net and pin.
    terms: u64,
    /// Live module weight per side, indexed by [`Side::index`].
    side_weight: [u64; 2],
    /// Live module weight → number of live modules of that weight; the
    /// last key is the heaviest.
    weights: BTreeMap<u64, u32>,
    /// Net slot → its pins per side, indexed by [`Side::index`]; dead
    /// slots hold `[0, 0]`.
    pins_on: Vec<[u32; 2]>,
}

impl Derived {
    /// The derived state of `nl` under `sides`, from scratch, and the
    /// work units spent.
    fn scan(nl: &DynamicNetlist, sides: &[Side]) -> (Self, u64) {
        let mut derived = Self {
            pins_on: vec![[0; 2]; nl.net_slots()],
            ..Self::default()
        };
        let mut work = 0;
        for m in nl.live_modules() {
            let weight = nl.module_weight(m).unwrap_or(0);
            work += derived.add_module(m, weight, side_in(sides, m));
        }
        for e in nl.live_nets() {
            let weight = nl.net_weight(e).unwrap_or(0);
            work += derived.add_net(e, weight, nl.net_pins(e).unwrap_or(&[]), sides);
        }
        (derived, work)
    }

    /// The heaviest live module weight (0 with no live module).
    fn heaviest(&self) -> u64 {
        self.weights.keys().next_back().copied().unwrap_or(0)
    }

    /// The side with the smaller live weight (ties go Left) — the
    /// deterministic placement of freshly added modules.
    fn lighter_side(&self) -> Side {
        let [left, right] = self.side_weight;
        if right < left {
            Side::Right
        } else {
            Side::Left
        }
    }

    /// Whether a net has pins on both sides (dead nets never do).
    fn spans(&self, e: u32) -> bool {
        let [left, right] = self.pins_on.get(e as usize).copied().unwrap_or([0; 2]);
        left > 0 && right > 0
    }

    fn add_module(&mut self, m: u32, weight: u64, side: Side) -> u64 {
        self.terms = self.terms.wrapping_add(module_term(m, weight, side));
        *on_side(&mut self.side_weight, side) += weight;
        *self.weights.entry(weight).or_insert(0) += 1;
        1
    }

    fn remove_module(&mut self, m: u32, weight: u64, side: Side) -> u64 {
        self.terms = self.terms.wrapping_sub(module_term(m, weight, side));
        *on_side(&mut self.side_weight, side) -= weight;
        if let Entry::Occupied(mut count) = self.weights.entry(weight) {
            *count.get_mut() -= 1;
            if *count.get() == 0 {
                count.remove();
            }
        }
        1
    }

    /// Replaces a live module's (weight, side): a reweight or a flip
    /// updates its one fingerprint term.
    fn update_module(&mut self, m: u32, from: (u64, Side), to: (u64, Side)) -> u64 {
        self.remove_module(m, from.0, from.1);
        self.add_module(m, to.0, to.1);
        1
    }

    /// Adds a live net: its term, one term per pin and its side counts.
    fn add_net(&mut self, e: u32, weight: u64, pins: &[u32], sides: &[Side]) -> u64 {
        self.terms = self.terms.wrapping_add(net_term(e, weight));
        let mut counts = [0u32; 2];
        for &m in pins {
            self.terms = self.terms.wrapping_add(pin_term(e, m));
            *on_side(&mut counts, side_in(sides, m)) += 1;
        }
        let slot = e as usize;
        if self.pins_on.len() <= slot {
            self.pins_on.resize(slot + 1, [0; 2]);
        }
        if let Some(entry) = self.pins_on.get_mut(slot) {
            *entry = counts;
        }
        1 + 2 * pins.len() as u64
    }

    /// Drops a removed net's term, its pin terms and its side counts.
    fn remove_net(&mut self, e: u32, weight: u64, pins: &[u32]) -> u64 {
        self.terms = self.terms.wrapping_sub(net_term(e, weight));
        for &m in pins {
            self.terms = self.terms.wrapping_sub(pin_term(e, m));
        }
        if let Some(entry) = self.pins_on.get_mut(e as usize) {
            *entry = [0; 2];
        }
        2 + pins.len() as u64
    }

    /// Adds or drops one pin's term and side count.
    fn pin_change(&mut self, e: u32, m: u32, side: Side, add: bool) -> u64 {
        if let Some(entry) = self.pins_on.get_mut(e as usize) {
            let count = on_side(entry, side);
            if add {
                *count += 1;
            } else {
                *count -= 1;
            }
        }
        self.terms = if add {
            self.terms.wrapping_add(pin_term(e, m))
        } else {
            self.terms.wrapping_sub(pin_term(e, m))
        };
        2
    }

    /// Moves module `m` (weight `w`, incident `nets`) off side `from`.
    fn flip(&mut self, m: u32, w: u64, from: Side, nets: &[u32]) -> u64 {
        let work = self.update_module(m, (w, from), (w, from.opposite()));
        for &e in nets {
            if let Some(entry) = self.pins_on.get_mut(e as usize) {
                *on_side(entry, from) -= 1;
                *on_side(entry, from.opposite()) += 1;
            }
        }
        work + nets.len() as u64
    }

    /// The cut reduction from moving a module with incident `nets` off
    /// `side` (negative when the move would worsen the cut): for each
    /// net, moving the last pin on `side` away uncuts it, moving any pin
    /// out of a one-sided net cuts it. O(incident nets) from the side
    /// counts.
    fn flip_gain(&self, nl: &DynamicNetlist, nets: &[u32], side: Side) -> i64 {
        nets.iter()
            .map(|&e| {
                let counts = self.pins_on.get(e as usize).copied().unwrap_or([0; 2]);
                let w = nl.net_weight(e).unwrap_or(0) as i64; // fhp-audit: allow(as-cast-truncation) — net weights are far below i64::MAX
                gain_term(counts, side, w)
            })
            .sum()
    }
}

/// The recorded side of a module slot (`Left` for unknown slots).
fn side_in(sides: &[Side], m: u32) -> Side {
    sides.get(m as usize).copied().unwrap_or(Side::Left)
}

/// The entry of a per-side pair that belongs to `side`.
fn on_side<T>(pair: &mut [T; 2], side: Side) -> &mut T {
    let [left, right] = pair;
    match side {
        Side::Left => left,
        Side::Right => right,
    }
}

/// Domain tags keeping the module, net and pin fingerprint terms apart
/// (the hex digits of pi, as tradition demands).
const MODULE_TAG: u64 = 0x243f_6a88_85a3_08d3;
const NET_TAG: u64 = 0x1319_8a2e_0370_7344;
const PIN_TAG: u64 = 0xa409_3822_299f_31d0;

fn module_term(m: u32, weight: u64, side: Side) -> u64 {
    mix64(mix64(MODULE_TAG ^ u64::from(m) ^ (side.index() as u64) << 32) ^ weight)
}

fn net_term(e: u32, weight: u64) -> u64 {
    mix64(mix64(NET_TAG ^ u64::from(e)) ^ weight)
}

fn pin_term(e: u32, m: u32) -> u64 {
    mix64(PIN_TAG ^ (u64::from(e) << 32 | u64::from(m)))
}

/// SplitMix64's finalizer (the same avalanche the workspace fingerprints
/// use).
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Bipartition;
    use fhp_hypergraph::intersection::paper_example;

    fn loaded_engine() -> PartitionEngine {
        let mut engine = PartitionEngine::new(EngineConfig::new());
        engine.load(&paper_example()).expect("paper example loads");
        engine
    }

    /// The engine's cut must always equal a recount on the materialized
    /// instance.
    fn assert_cut_consistent(engine: &PartitionEngine) {
        let (h, module_ids, _nets) = engine.materialize().expect("loaded");
        let bp = Bipartition::from_fn(h.num_vertices(), |v| {
            engine
                .side_of(module_ids[v.index()])
                .expect("live module has a side")
        });
        assert_eq!(
            engine.cut(),
            crate::metrics::weighted_cut(&h, &bp),
            "engine cut vs recount"
        );
    }

    #[test]
    fn apply_before_load_is_rejected() {
        let mut engine = PartitionEngine::new(EngineConfig::new());
        assert_eq!(
            engine.apply(&Edit::AddModule { weight: 1 }),
            Err(EngineError::NotLoaded)
        );
        assert!(!engine.is_loaded());
        assert_eq!(engine.fingerprint(), 0);
    }

    #[test]
    fn load_then_single_net_edits_stay_consistent() {
        let mut engine = loaded_engine();
        assert!(engine.is_loaded());
        assert_cut_consistent(&engine);
        let d = engine
            .apply(&Edit::AddNet {
                pins: vec![0, 11],
                weight: 2,
            })
            .expect("valid edit");
        assert_eq!(d.repair, RepairKind::Incremental);
        let net = d.new_id.expect("AddNet allocates an id");
        assert_cut_consistent(&engine);
        let d = engine.apply(&Edit::RemoveNet { net }).expect("live net");
        assert_eq!(d.repair, RepairKind::Incremental);
        assert_cut_consistent(&engine);
        assert_eq!(engine.stats().edits, 2);
        assert_eq!(engine.stats().incremental_hits, 2);
        assert_eq!(engine.stats().full_recomputes, 0);
    }

    #[test]
    fn rejected_edit_leaves_state_unchanged() {
        let mut engine = loaded_engine();
        let fp = engine.fingerprint();
        let cut = engine.cut();
        let err = engine
            .apply(&Edit::RemoveNet { net: 999 })
            .expect_err("unknown net");
        assert_eq!(
            err,
            EngineError::Structure(IncrementalError::UnknownNet(999))
        );
        assert_eq!(engine.fingerprint(), fp);
        assert_eq!(engine.cut(), cut);
        assert_eq!(engine.stats().edits, 0);
    }

    #[test]
    fn zero_damage_threshold_forces_full_recompute() {
        let mut engine = PartitionEngine::new(EngineConfig::new().damage_permille(0));
        engine.load(&paper_example()).expect("loads");
        let d = engine
            .apply(&Edit::AddNet {
                pins: vec![0, 1],
                weight: 1,
            })
            .expect("valid edit");
        assert_eq!(d.repair, RepairKind::Full);
        assert_eq!(engine.stats().full_recomputes, 1);
        assert_cut_consistent(&engine);
    }

    #[test]
    fn shrinking_to_degenerate_state_is_trivial_repair() {
        let mut engine = PartitionEngine::new(EngineConfig::new());
        let h = fhp_hypergraph::Netlist::parse("a: 1 2\n")
            .expect("parses")
            .hypergraph()
            .clone();
        engine.load(&h).expect("loads");
        let d = engine.apply(&Edit::RemoveNet { net: 0 }).expect("live net");
        assert_eq!(d.repair, RepairKind::Trivial);
        assert_eq!(engine.cut(), 0);
        assert_eq!(d.fingerprint, engine.fingerprint());
    }

    #[test]
    fn fingerprint_hashes_pin_lists() {
        // Module 3 joins net d = {4, 5} on its own side: the cut and every
        // side stay put, so only the pin list can move the fingerprint.
        let mut engine = PartitionEngine::new(EngineConfig::new().damage_permille(1000));
        let h = fhp_hypergraph::Netlist::parse("a: 1 2 3\nb: 1 2\nc: 4 5 6\nd: 5 6\ne: 3 4\n")
            .expect("parses")
            .hypergraph()
            .clone();
        let fp = engine.load(&h).expect("loads").fingerprint;
        let sides = |e: &PartitionEngine| (0..6).map(|m| e.side_of(m)).collect::<Vec<_>>();
        let before = sides(&engine);
        let d = engine
            .apply(&Edit::PinChange {
                net: 3,
                module: 3,
                add: true,
            })
            .expect("valid edit");
        assert_eq!(d.repair, RepairKind::Incremental);
        assert_eq!(d.cut_after, d.cut_before, "the cut must not move");
        assert_eq!(sides(&engine), before, "no side may move");
        assert_ne!(d.fingerprint, fp, "the pin list changed");
    }

    /// The engine's balance slack, `max(imbalance, 2·heaviest)`, from a
    /// full scan of the live modules.
    fn scanned_slack(engine: &PartitionEngine) -> u64 {
        let nl = engine.netlist().expect("loaded");
        let mut weights = [0u64; 2];
        let mut heaviest = 0;
        for m in nl.live_modules() {
            let w = nl.module_weight(m).expect("live");
            weights[engine.side_of(m).expect("live").index()] += w;
            heaviest = heaviest.max(w);
        }
        weights[0].abs_diff(weights[1]).max(2 * heaviest)
    }

    fn kept_slack(engine: &PartitionEngine) -> u64 {
        let [left, right] = engine.derived.side_weight;
        left.abs_diff(right).max(2 * engine.derived.heaviest())
    }

    #[test]
    fn random_edit_walk_keeps_derived_state() {
        use rand::rngs::SplitMix64;
        use rand::{Rng, SeedableRng};

        let h = fhp_gen::scaling_instance(2_000, 5).expect("generates");
        let mut engine = PartitionEngine::new(
            EngineConfig::new().partition(PartitionConfig::new().starts(2).seed(5)),
        );
        engine.load(&h).expect("loads");
        engine.verify_derived().expect("derived state after load");
        // Restart from an alternating split: its many cut nets and small
        // imbalance let the localized repair flip modules both ways.
        for (m, side) in engine.sides.iter_mut().enumerate() {
            *side = Side::from_index(m % 2);
        }
        let bp = Bipartition::from_fn(h.num_vertices(), |v| Side::from_index(v.index() % 2));
        engine.cut = crate::metrics::weighted_cut(&h, &bp);
        engine.rebuild_derived();
        let mut rng = SplitMix64::seed_from_u64(0x5eed);
        // Accepted edits per kind (pin additions and removals apart), and
        // the modules the localized repair flipped.
        let mut kinds = [0usize; 7];
        let mut flips = 0;
        for step in 0..300 {
            let nl = engine.netlist().expect("loaded");
            let modules: Vec<u32> = nl.live_modules().collect();
            let nets: Vec<u32> = nl.live_nets().collect();
            let module = modules[rng.gen_range(0..modules.len())];
            let net = nets[rng.gen_range(0..nets.len())];
            let pins = nl.net_pins(net).expect("live net");
            let kind = rng.gen_range(0..7);
            let edit = match kind {
                0 => {
                    let mut pins: Vec<u32> = (0..rng.gen_range(2..6))
                        .map(|_| modules[rng.gen_range(0..modules.len())])
                        .collect();
                    pins.sort_unstable();
                    pins.dedup();
                    Edit::AddNet {
                        pins,
                        weight: rng.gen_range(1..20),
                    }
                }
                1 => Edit::RemoveNet { net },
                2 => Edit::AddModule {
                    weight: rng.gen_range(1..5),
                },
                3 => match modules
                    .iter()
                    .find(|&&m| nl.incident_nets(m).is_some_and(<[u32]>::is_empty))
                {
                    Some(&module) => Edit::RemoveModule { module },
                    None => Edit::AddModule { weight: 1 },
                },
                4 => Edit::ReweightModule {
                    module,
                    weight: rng.gen_range(1..7),
                },
                5 => Edit::PinChange {
                    net,
                    module,
                    add: !pins.contains(&module),
                },
                _ => Edit::PinChange {
                    net,
                    module: pins[rng.gen_range(0..pins.len())],
                    add: false,
                },
            };
            let before: Vec<_> = modules.iter().map(|&m| engine.side_of(m)).collect();
            // A refused edit (the last pin of a net) must leave the
            // derived state as consistent as an accepted one.
            if let Ok(d) = engine.apply(&edit) {
                kinds[kind] += 1;
                if d.repair == RepairKind::Incremental {
                    flips += modules
                        .iter()
                        .zip(&before)
                        .filter(|&(&m, &side)| {
                            engine.side_of(m).is_some_and(|now| Some(now) != side)
                        })
                        .count();
                }
            }
            engine
                .verify_derived()
                .unwrap_or_else(|e| panic!("step {step} ({edit:?}): {e}"));
            assert_cut_consistent(&engine);
            assert_eq!(kept_slack(&engine), scanned_slack(&engine), "step {step}");
        }
        assert!(
            kinds.iter().all(|&k| k > 0),
            "every edit kind ran: {kinds:?}"
        );
        assert!(flips > 0, "the localized repair flipped modules");
    }

    #[test]
    fn fingerprint_is_independent_of_edit_order() {
        // Reweights commute, and an added-then-removed net leaves only its
        // consumed id behind: both orders reach the same live state.
        let script = [
            Edit::ReweightModule {
                module: 2,
                weight: 5,
            },
            Edit::AddNet {
                pins: vec![0, 11],
                weight: 2,
            },
            Edit::RemoveNet { net: 7 },
            Edit::ReweightModule {
                module: 9,
                weight: 3,
            },
        ];
        let run = |order: &[usize]| {
            let mut engine = loaded_engine();
            for &i in order {
                engine.apply(&script[i]).expect("scripted edit");
            }
            let sides: Vec<_> = (0..12).map(|m| engine.side_of(m)).collect();
            (engine.fingerprint(), engine.cut(), sides)
        };
        let forward = run(&[0, 1, 2, 3]);
        let backward = run(&[3, 2, 1, 0]);
        assert_eq!(forward.1, backward.1, "same cut");
        assert_eq!(forward.2, backward.2, "same sides");
        assert_eq!(forward.0, backward.0, "same live state, same fingerprint");
        assert_ne!(forward.0, loaded_engine().fingerprint(), "the edits show");
    }

    #[test]
    fn heaviest_module_survives_reweight_down_and_removal() {
        let mut engine = loaded_engine();
        let slack = scanned_slack(&engine);
        let mut heavy = Vec::new();
        for _ in 0..2 {
            let d = engine
                .apply(&Edit::AddModule { weight: 40 })
                .expect("valid");
            heavy.push(d.new_id.expect("AddModule allocates an id"));
            assert_eq!(kept_slack(&engine), scanned_slack(&engine));
        }
        assert_eq!(engine.derived.heaviest(), 40);
        // One of the two heaviest goes down to weight 1, then away: the
        // other still carries the maximum.
        engine
            .apply(&Edit::ReweightModule {
                module: heavy[0],
                weight: 1,
            })
            .expect("live");
        assert_eq!(kept_slack(&engine), scanned_slack(&engine));
        engine
            .apply(&Edit::RemoveModule { module: heavy[0] })
            .expect("isolated");
        assert_eq!(engine.derived.heaviest(), 40);
        assert_eq!(kept_slack(&engine), scanned_slack(&engine));
        // The last heavy module goes the same way: the maximum falls back
        // to the loaded instance's.
        engine
            .apply(&Edit::ReweightModule {
                module: heavy[1],
                weight: 1,
            })
            .expect("live");
        assert_eq!(kept_slack(&engine), scanned_slack(&engine));
        engine
            .apply(&Edit::RemoveModule { module: heavy[1] })
            .expect("isolated");
        assert_eq!(kept_slack(&engine), scanned_slack(&engine));
        assert_eq!(kept_slack(&engine), slack, "back to the loaded balance");
        engine.verify_derived().expect("derived state");
    }

    #[test]
    fn same_edit_sequence_same_fingerprints_across_thread_counts() {
        let script = [
            Edit::AddNet {
                pins: vec![0, 4, 9],
                weight: 2,
            },
            Edit::AddModule { weight: 3 },
            Edit::PinChange {
                net: 0,
                module: 9,
                add: true,
            },
            Edit::ReweightModule {
                module: 2,
                weight: 5,
            },
            Edit::RemoveNet { net: 3 },
            Edit::PinChange {
                net: 0,
                module: 9,
                add: false,
            },
        ];
        let run = |threads: usize| -> Vec<u64> {
            let config =
                EngineConfig::new().partition(PartitionConfig::new().starts(8).threads(threads));
            let mut engine = PartitionEngine::new(config);
            let mut fps = vec![engine.load(&paper_example()).expect("loads").fingerprint];
            for edit in &script {
                fps.push(engine.apply(edit).expect("scripted edit").fingerprint);
            }
            fps
        };
        let t1 = run(1);
        assert_eq!(t1, run(2));
        assert_eq!(t1, run(8));
    }

    #[test]
    fn gauges_mirror_engine_stats() {
        let progress = Arc::new(Progress::new());
        let mut engine =
            PartitionEngine::new(EngineConfig::new()).progress(Some(Arc::clone(&progress)));
        engine.load(&paper_example()).expect("loads");
        engine
            .apply(&Edit::AddNet {
                pins: vec![0, 1],
                weight: 1,
            })
            .expect("valid");
        engine.apply(&Edit::AddModule { weight: 2 }).expect("valid");
        assert_eq!(progress.get(Gauge::EngineEdits), 2);
        assert_eq!(
            progress.get(Gauge::EngineIncrementalHits) + progress.get(Gauge::EngineFullRecomputes),
            2
        );
    }
}
