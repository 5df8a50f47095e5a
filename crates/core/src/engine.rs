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
//!   modules repairs it, with no Algorithm I re-run. The structural edit
//!   and the gain evaluations scale with the damaged region's incidence,
//!   but each edit still pays two O(instance) scans: the side-weight
//!   scan that sets the balance slack, and the state
//!   [`fingerprint`](PartitionEngine::fingerprint).
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

use std::sync::Arc;

use fhp_hypergraph::{DynamicNetlist, Hypergraph, IncrementalError, VertexId};
use fhp_obs::{Gauge, Progress};

use crate::error::PartitionError;
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
            RepairKind::Trivial
        } else if outcome.damaged.saturating_mul(1000)
            > (self.config.damage_permille as usize).saturating_mul(live)
        {
            self.repair_full()?;
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

    /// Whether a pin set spans both sides under the current assignment.
    fn spans(&self, pins: &[u32]) -> bool {
        let Some((&first, rest)) = pins.split_first() else {
            return false;
        };
        let side = self.side_at(first);
        rest.iter().any(|&p| self.side_at(p) != side)
    }

    /// The recorded side of a module slot (`Left` for unknown slots).
    fn side_at(&self, m: u32) -> Side {
        self.sides.get(m as usize).copied().unwrap_or(Side::Left)
    }

    /// Applies the structural half of an edit, returning the damaged
    /// module count, any freshly allocated id, the exact cut delta the
    /// edit caused under the unchanged assignment, and the modules whose
    /// incidence changed (the localized repair's seed set). Leaves
    /// `sides` sized to the slot count (new slots join the lighter side).
    fn apply_structural(&mut self, edit: &Edit) -> Result<StructuralOutcome, EngineError> {
        if self.nl.is_none() {
            return Err(EngineError::NotLoaded);
        }
        match edit {
            Edit::AddNet { pins, weight } => {
                let nl = self.nl.as_mut().ok_or(EngineError::NotLoaded)?;
                let id = nl.add_net(pins, *weight)?;
                let cut_add = if self.spans(pins) { *weight } else { 0 };
                Ok(StructuralOutcome {
                    damaged: pins.len(),
                    new_id: Some(id),
                    cut_add,
                    cut_sub: 0,
                    touched: pins.clone(),
                })
            }
            Edit::RemoveNet { net } => {
                let nl = self.nl.as_ref().ok_or(EngineError::NotLoaded)?;
                let touched = nl.net_pins(*net).map(<[u32]>::to_vec).unwrap_or_default();
                let weight = nl.net_weight(*net).unwrap_or(0);
                let cut_sub = if self.spans(&touched) { weight } else { 0 };
                self.nl
                    .as_mut()
                    .ok_or(EngineError::NotLoaded)?
                    .remove_net(*net)?;
                Ok(StructuralOutcome {
                    damaged: touched.len(),
                    new_id: None,
                    cut_add: 0,
                    cut_sub,
                    touched,
                })
            }
            Edit::AddModule { weight } => {
                let lighter = self.lighter_side();
                let nl = self.nl.as_mut().ok_or(EngineError::NotLoaded)?;
                let id = nl.add_module(*weight)?;
                self.sides.push(lighter);
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
                let nl = self.nl.as_mut().ok_or(EngineError::NotLoaded)?;
                nl.remove_module(*module)?;
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
                let nl = self.nl.as_mut().ok_or(EngineError::NotLoaded)?;
                nl.reweight_module(*module, *weight)?;
                Ok(StructuralOutcome {
                    damaged: 1,
                    new_id: None,
                    cut_add: 0,
                    cut_sub: 0,
                    touched: Vec::new(),
                })
            }
            Edit::PinChange { net, module, add } => {
                let nl = self.nl.as_ref().ok_or(EngineError::NotLoaded)?;
                let before = nl.net_pins(*net).map(<[u32]>::to_vec).unwrap_or_default();
                let weight = nl.net_weight(*net).unwrap_or(0);
                let spanned_before = self.spans(&before);
                let nl = self.nl.as_mut().ok_or(EngineError::NotLoaded)?;
                nl.pin_change(*net, *module, *add)?;
                let mut touched = nl.net_pins(*net).map(<[u32]>::to_vec).unwrap_or_default();
                let damaged = touched.len() + 1;
                if !touched.contains(module) {
                    touched.push(*module);
                }
                let spans_after = self.spans(
                    self.nl
                        .as_ref()
                        .and_then(|nl| nl.net_pins(*net))
                        .unwrap_or(&[]),
                );
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

    /// The live weight on each side (indexed by [`Side::index`]) and the
    /// heaviest live module, from one scan of the live modules.
    fn side_weights(&self) -> ([u64; 2], u64) {
        let mut weights = [0u64; 2];
        let mut heaviest = 0u64;
        let Some(nl) = self.nl.as_ref() else {
            return (weights, heaviest);
        };
        for m in nl.live_modules() {
            let w = nl.module_weight(m).unwrap_or(0);
            weights[self.side_at(m).index()] += w; // fhp-audit: allow(panic-site) — Side::index() is 0 or 1, within the fixed [u64; 2]
            heaviest = heaviest.max(w);
        }
        (weights, heaviest)
    }

    /// The side with the smaller live weight (ties go Left) — the
    /// deterministic placement of freshly added modules.
    fn lighter_side(&self) -> Side {
        let ([left, right], _) = self.side_weights();
        if right < left {
            Side::Right
        } else {
            Side::Left
        }
    }

    /// Localized repair: one FM pass over the damaged modules only. The
    /// cut arrives already exact (maintained by delta in
    /// [`apply`](Self::apply)); this pass then greedily flips damaged
    /// modules whose move strictly lowers the cut, under the same
    /// adaptive balance slack [`FmRefiner`](crate::refine::FmRefiner)
    /// uses (twice the heaviest live module), each module at most once.
    /// Besides one O(live modules) side-weight scan, the cost is the
    /// damaged modules' incidence times the number of moves.
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
        let (mut side_weight, heaviest) = self.side_weights();
        let imbalance = side_weight[0].abs_diff(side_weight[1]); // fhp-audit: allow(panic-site) — literal indices into the fixed [u64; 2]
        let tolerance = imbalance.max(heaviest.saturating_mul(2));
        let mut moved = vec![false; candidates.len()];
        loop {
            let mut best: Option<(u64, usize)> = None;
            for (i, &m) in candidates.iter().enumerate() {
                // fhp-audit: allow(panic-site) — i comes from enumerate() over the same-length candidates
                if moved[i] {
                    continue;
                }
                let w = nl.module_weight(m).unwrap_or(0);
                let from = self.side_at(m).index();
                // fhp-audit: allow(panic-site) — from is Side::index() (0 or 1), both indices within the fixed [u64; 2]
                let new_imbalance = (side_weight[from] - w).abs_diff(side_weight[1 - from] + w);
                if new_imbalance > tolerance {
                    continue;
                }
                let gain = self.flip_gain(nl, m);
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
            let from = self.side_at(m).index();
            side_weight[from] -= w; // fhp-audit: allow(panic-site) — from is Side::index() (0 or 1)
            side_weight[1 - from] += w; // fhp-audit: allow(panic-site) — from is Side::index() (0 or 1)
            if let Some(slot) = self.sides.get_mut(m as usize) {
                *slot = if from == 0 { Side::Right } else { Side::Left };
            }
            self.cut = self.cut.saturating_sub(gain);
            moved[i] = true; // fhp-audit: allow(panic-site) — i was produced by enumerate() over the same-length moved
        }
    }

    /// The cut reduction from flipping module `m` to the other side
    /// (negative when the flip would worsen the cut): for each incident
    /// net, moving the last same-side pin away uncuts it, moving any pin
    /// out of a one-sided net cuts it.
    fn flip_gain(&self, nl: &DynamicNetlist, m: u32) -> i64 {
        let mut gain = 0i64;
        let my_side = self.side_at(m);
        for &e in nl.incident_nets(m).unwrap_or(&[]) {
            let Some(pins) = nl.net_pins(e) else { continue };
            if pins.len() < 2 {
                continue;
            }
            let same = pins.iter().filter(|&&p| self.side_at(p) == my_side).count();
            let w = nl.net_weight(e).unwrap_or(0) as i64; // fhp-audit: allow(as-cast-truncation) — net weights are far below i64::MAX
            if same == pins.len() {
                gain -= w; // was uncut, the flip cuts it
            } else if same == 1 {
                gain += w; // m is the lone pin on its side: the flip uncuts it
            }
        }
        gain
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

    /// The state fingerprint: an order-independent mix over every live
    /// module (id, weight, side), every live net (id, weight, pins), and
    /// the current cut. The pin lists determine every derived structure
    /// (the incidence, and the dual graph `G` a recompute builds), so
    /// the fingerprint covers all observable state. Equal fingerprints
    /// after the same edit sequence at different thread counts is the
    /// determinism-under-edits contract.
    pub fn fingerprint(&self) -> u64 {
        let Some(nl) = self.nl.as_ref() else {
            return 0;
        };
        let mut acc = 0x243f_6a88_85a3_08d3u64; // pi, as tradition demands
        for m in nl.live_modules() {
            let side = self.sides.get(m as usize).copied().unwrap_or(Side::Left);
            acc = mix64(
                acc ^ mix64(u64::from(m))
                    ^ nl.module_weight(m).unwrap_or(0)
                    ^ (side.index() as u64) << 63,
            );
        }
        for e in nl.live_nets() {
            acc = mix64(acc ^ mix64(u64::from(e) | 1 << 32) ^ nl.net_weight(e).unwrap_or(0));
            if let Some(pins) = nl.net_pins(e) {
                for &p in pins {
                    acc = mix64(acc ^ u64::from(p));
                }
            }
        }
        mix64(acc ^ self.cut)
    }
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
