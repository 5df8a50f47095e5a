//! Incremental engine vs from-scratch recompute: single-net edit latency
//! on the std-cell scaling profile, written to `BENCH_engine.json` at the
//! workspace root.
//!
//! Two engines replay the same deterministic add/remove edit script on
//! the same instance: one at the default damage threshold (every edit
//! repairs incrementally) and one with the threshold forced to zero
//! permille (every edit is a full Algorithm I recompute — the fallback
//! path, deliberately exercised and counted). The headline number is the
//! ratio of the two median edit latencies.
//!
//! Hard assertions run even in smoke mode (`--test`, or
//! `FHP_BENCH_SMOKE=1`):
//!
//! - every edit on the default engine takes the incremental path and
//!   every edit on the zero-threshold engine takes the full path, with
//!   `EngineStats` counting both exactly;
//! - the full edit history fingerprints identically at 1, 2 and 8
//!   worker threads;
//! - every incremental edit's work (`EngineStats::work`: fingerprint
//!   terms updated, per-net side-count updates, incident nets visited by
//!   the repair's gain evaluations) stays within the O(damage) bound
//!   `|pins of the edited net| + (|C| + 1) · Σ_{m∈C}(deg(m) + 1)`, where
//!   `C` is the set of live touched modules, computed from the netlist
//!   after the edit. The largest per-edit work is the gated count
//!   `incr_work_max`.
//!
//! The ≥ 5× incremental-vs-full speedup acceptance gate is asserted in
//! the full run only (`cargo bench -p fhp-bench --bench engine`), at the
//! 10^5-signal tier — smoke instances are too small for the asymmetry to
//! show reliably.

use std::fmt::Write as _;
use std::time::Instant;

use fhp_core::{Edit, EngineConfig, PartitionConfig, PartitionEngine, RepairKind};
use fhp_gen::scaling_instance;
use fhp_hypergraph::Hypergraph;

const SEED: u64 = 42;
const SPEEDUP_FLOOR: f64 = 5.0;

fn median_ns(samples: &mut [u128]) -> u128 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn config(damage_permille: u32, threads: usize) -> EngineConfig {
    EngineConfig::new()
        .partition(PartitionConfig::new().starts(4).seed(SEED).threads(threads))
        .damage_permille(damage_permille)
}

/// The deterministic single-net edit script: `pairs` rounds of add-net /
/// remove-net against distinct module pairs. Net ids are stable and never
/// reused, so the removal ids are computable up front.
fn edit_script(h: &Hypergraph, pairs: usize) -> Vec<Edit> {
    let modules = h.num_vertices() as u64;
    let base = h.num_edges() as u32;
    let mut script = Vec::with_capacity(pairs * 2);
    for i in 0..pairs as u64 {
        let a = (i.wrapping_mul(7919)) % modules;
        let mut b = (i.wrapping_mul(104_729).wrapping_add(1)) % modules;
        if b == a {
            b = (b + 1) % modules;
        }
        script.push(Edit::AddNet {
            pins: vec![a as u32, b as u32], // fhp-audit: allow(as-cast-truncation) — module count is far below u32::MAX
            weight: 1,
        });
        script.push(Edit::RemoveNet {
            net: base + i as u32, // fhp-audit: allow(as-cast-truncation) — pairs is a small constant
        });
    }
    script
}

/// The O(damage) bound on one incremental edit's work units, from the
/// netlist after the edit: the edited net's pins, plus at most
/// `|C| + 1` gain-evaluation rounds over the incidence of the touched
/// modules `C` and one flip per module.
fn work_bound(engine: &PartitionEngine, net_pins: &[u32]) -> u64 {
    let nl = engine.netlist().expect("loaded");
    let degrees: Vec<u64> = net_pins
        .iter()
        .filter_map(|&m| nl.incident_nets(m))
        .map(|nets| nets.len() as u64 + 1)
        .collect();
    net_pins.len() as u64 + (degrees.len() as u64 + 1) * degrees.iter().sum::<u64>()
}

/// Replays the script, timing each `apply`; returns the per-edit wall
/// times, the observed repair kinds and the largest work of an
/// incremental edit, asserting each against [`work_bound`].
fn replay(engine: &mut PartitionEngine, script: &[Edit]) -> (Vec<u128>, Vec<RepairKind>, u64) {
    let mut walls = Vec::with_capacity(script.len());
    let mut repairs = Vec::with_capacity(script.len());
    let mut work_max = 0;
    for edit in script {
        let net_pins = match edit {
            Edit::AddNet { pins, .. } => pins.clone(),
            Edit::RemoveNet { net } => engine
                .netlist()
                .and_then(|nl| nl.net_pins(*net))
                .expect("the script removes live nets")
                .to_vec(),
            other => unreachable!("the script never emits {other:?}"),
        };
        let work_before = engine.stats().work;
        let started = Instant::now();
        let delta = engine.apply(edit).expect("bench edits are valid");
        walls.push(started.elapsed().as_nanos());
        repairs.push(delta.repair);
        if delta.repair == RepairKind::Incremental {
            let work = engine.stats().work - work_before;
            let bound = work_bound(engine, &net_pins);
            assert!(
                work <= bound,
                "{edit:?}: {work} work units exceed the O(damage) bound {bound}"
            );
            work_max = work_max.max(work);
        }
    }
    (walls, repairs, work_max)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test")
        || std::env::var("FHP_BENCH_SMOKE").is_ok_and(|v| v != "0");
    let signals = if smoke { 2_000 } else { 100_000 };
    let incr_pairs = if smoke { 12 } else { 20 };
    let full_pairs = if smoke { 4 } else { 3 };

    let h = scaling_instance(signals, SEED).expect("scaling instance generates");
    println!(
        "engine/instance: {} modules, {} signals",
        h.num_vertices(),
        h.num_edges()
    );

    // --- Determinism: the whole edit history fingerprints identically
    //     across thread counts (run on a reduced instance so the check
    //     stays cheap at the full tier too). ---
    let h_small = scaling_instance(2_000, SEED).expect("valid");
    let inv_script = edit_script(&h_small, 6);
    let mut fps = Vec::new();
    for threads in [1usize, 2, 8] {
        let mut e = PartitionEngine::new(config(250, threads));
        e.load(&h_small).expect("loads");
        for edit in &inv_script {
            e.apply(edit).expect("applies");
        }
        fps.push(e.fingerprint());
    }
    assert!(
        fps.windows(2).all(|w| w[0] == w[1]),
        "edit-history fingerprints differ across thread counts: {fps:?}"
    );
    println!("engine/invariance: edit history fingerprints identical across threads [1, 2, 8]");

    // --- Incremental engine: default damage threshold. ---
    let mut incr = PartitionEngine::new(config(250, 2));
    let started = Instant::now();
    let loaded = incr.load(&h).expect("instance loads");
    let load_ns = started.elapsed().as_nanos();
    println!(
        "engine/load: cut {} in {:.2} ms",
        loaded.cut_after,
        load_ns as f64 / 1e6
    );
    let script = edit_script(&h, incr_pairs);
    let (mut incr_walls, incr_repairs, incr_work_max) = replay(&mut incr, &script);
    assert!(
        incr_repairs.iter().all(|&r| r == RepairKind::Incremental),
        "default threshold must keep single-net edits on the incremental path: {incr_repairs:?}"
    );
    let stats = incr.stats();
    assert_eq!(stats.edits, script.len() as u64);
    assert_eq!(stats.incremental_hits, script.len() as u64);
    assert_eq!(stats.full_recomputes, 0);
    let incr_ns = median_ns(&mut incr_walls);

    // --- Fallback engine: zero threshold forces a full recompute per
    //     edit, which is exactly the from-scratch cost being compared. ---
    let mut full = PartitionEngine::new(config(0, 2));
    full.load(&h).expect("instance loads");
    let full_script = edit_script(&h, full_pairs);
    let (mut full_walls, full_repairs, _) = replay(&mut full, &full_script);
    assert!(
        full_repairs.iter().all(|&r| r == RepairKind::Full),
        "zero threshold must force the full path: {full_repairs:?}"
    );
    let fstats = full.stats();
    assert_eq!(fstats.edits, full_script.len() as u64);
    assert_eq!(fstats.full_recomputes, full_script.len() as u64);
    assert_eq!(fstats.incremental_hits, 0);
    let full_ns = median_ns(&mut full_walls);

    let speedup = full_ns as f64 / (incr_ns.max(1)) as f64;
    println!("engine/work: largest incremental edit {incr_work_max} work units, within the O(damage) bound");
    println!(
        "engine/edit: incremental median {:.3} ms, full-recompute median {:.2} ms ({speedup:.1}x)",
        incr_ns as f64 / 1e6,
        full_ns as f64 / 1e6
    );
    if !smoke {
        assert!(
            speedup >= SPEEDUP_FLOOR,
            "acceptance: incremental single-net edits must be at least {SPEEDUP_FLOOR}x \
             faster than full recompute at the 10^5 tier, measured {speedup:.1}x"
        );
    }

    // --- BENCH_engine.json at the workspace root ---
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"engine\",");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"seed\": {SEED},");
    let _ = writeln!(json, "  \"signals\": {},", h.num_edges());
    let _ = writeln!(json, "  \"modules\": {},", h.num_vertices());
    let _ = writeln!(json, "  \"load_cut\": {},", loaded.cut_after);
    let _ = writeln!(json, "  \"edits\": {},", stats.edits);
    let _ = writeln!(json, "  \"incremental_hits\": {},", stats.incremental_hits);
    let _ = writeln!(json, "  \"full_recomputes\": {},", fstats.full_recomputes);
    let _ = writeln!(json, "  \"incr_work_max\": {incr_work_max},");
    let _ = writeln!(json, "  \"load_wall_ns\": {load_ns},");
    let _ = writeln!(json, "  \"incr_edit_wall_ns\": {incr_ns},");
    let _ = writeln!(json, "  \"full_edit_wall_ns\": {full_ns},");
    let _ = writeln!(json, "  \"speedup_ratio\": {speedup:.3}");
    json.push_str("}\n");

    let out = std::env::var("FHP_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json").to_string()
    });
    std::fs::write(&out, &json).expect("can write BENCH_engine.json");
    println!("wrote {out}");
}
