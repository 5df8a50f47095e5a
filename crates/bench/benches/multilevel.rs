//! Flat Algorithm I vs the multilevel V-cycle: cut quality and wall time
//! on the hub adversary and the std-cell circuit profile, written to
//! `BENCH_multilevel.json` at the workspace root.
//!
//! Two hard assertions run even in smoke mode (`--test`, or
//! `FHP_BENCH_SMOKE=1`):
//!
//! - on every instance timed here the multilevel cut is never worse than
//!   the flat cut at the same seed — the flat guard makes this hold by
//!   construction, and the bench re-checks it end to end;
//! - the V-cycle outcome is bit-identical across 1/2/8 worker threads;
//! - FM's gain-cache updates, summed over every refinement of a traced
//!   V-cycle run, stay within Σ over moved `v` of Σ over `v`'s nets of
//!   `|e|` — the critical-net refresh bound. The counts are recorded per
//!   instance as `ml_fm_moves`, `ml_fm_gain_updates` and
//!   `ml_fm_move_pins`.
//!
//! Smoke mode times one sample of the smallest circuit size plus a
//! reduced hub instance so CI stays fast; the full run
//! (`cargo bench -p fhp-bench --bench multilevel`) takes the median of
//! several samples per instance.

use std::fmt::Write as _;
use std::time::Instant;

use fhp_bench::{bench_instance, hub_instance, SIZES};
use fhp_core::refine::FmWork;
use fhp_core::{Algorithm1, MultilevelConfig, MultilevelStats, PartitionConfig};
use fhp_hypergraph::Hypergraph;
use fhp_obs::{counter_total, names, Collector};

const SEED: u64 = 42;
const HUB_MODULES: usize = 8;

struct Row {
    name: String,
    modules: usize,
    signals: usize,
    flat_cut: usize,
    flat_ns: u128,
    ml_cut: usize,
    ml_ns: u128,
    ml_levels: usize,
    ml_coarsest_size: usize,
    ml_used_flat_guard: bool,
    fm: FmWork,
}

/// Runs the config once with tracing on and sums the FM work counters
/// over its refinements (the trace carries no pass count).
fn traced_fm_work(h: &Hypergraph, config: PartitionConfig) -> FmWork {
    let collector = Collector::enabled();
    Algorithm1::new(config)
        .collector(collector.clone())
        .run(h)
        .expect("bench instance partitions");
    let events = collector.snapshot();
    FmWork {
        moves: counter_total(&events, names::ML_FM_MOVES),
        gain_updates: counter_total(&events, names::ML_FM_GAIN_UPDATES),
        move_pins: counter_total(&events, names::ML_FM_MOVE_PINS),
        ..FmWork::default()
    }
}

fn median_ns(samples: &mut [u128]) -> u128 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Times `samples` runs of the config and returns the median wall time,
/// the cut, and the multilevel stats (when the mode was enabled).
fn time_runs(
    h: &Hypergraph,
    config: PartitionConfig,
    samples: usize,
) -> (u128, usize, Option<MultilevelStats>) {
    let engine = Algorithm1::new(config);
    let mut walls = Vec::with_capacity(samples);
    let mut last = None;
    for _ in 0..samples {
        let started = Instant::now();
        let out = engine.run(h).expect("bench instance partitions");
        walls.push(started.elapsed().as_nanos());
        last = Some(out);
    }
    let out = last.expect("at least one sample");
    (
        median_ns(&mut walls),
        out.report.cut_size,
        out.stats.multilevel,
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test")
        || std::env::var("FHP_BENCH_SMOKE").is_ok_and(|v| v != "0");
    let samples = if smoke { 1 } else { 5 };
    let hub_signals = if smoke { 64 } else { 256 };

    let flat_config = PartitionConfig::paper().seed(SEED).threads(2);
    let ml_config = flat_config.multilevel(Some(MultilevelConfig::new()));

    // --- Thread invariance of the V-cycle outcome ---
    let h_small = bench_instance(SIZES[0]);
    let base = Algorithm1::new(ml_config.threads(1))
        .run(&h_small)
        .expect("valid");
    for threads in [2usize, 8] {
        let other = Algorithm1::new(ml_config.threads(threads))
            .run(&h_small)
            .expect("valid");
        assert_eq!(
            other.fingerprint(),
            base.fingerprint(),
            "threads = {threads} changed the V-cycle outcome"
        );
    }
    println!("multilevel/invariance: outcomes identical across threads [1, 2, 8]");

    // --- Flat vs V-cycle grid: hub adversary + circuit profile ---
    let mut instances: Vec<(String, Hypergraph)> = vec![(
        format!("hub/{hub_signals}x{HUB_MODULES}"),
        hub_instance(hub_signals, HUB_MODULES),
    )];
    let sizes: &[usize] = if smoke { &SIZES[..1] } else { &SIZES };
    for &n in sizes {
        instances.push((format!("circuit/{n}"), bench_instance(n)));
    }

    let mut rows = Vec::new();
    for (name, h) in &instances {
        let (flat_ns, flat_cut, _) = time_runs(h, flat_config, samples);
        let (ml_ns, ml_cut, ml_stats) = time_runs(h, ml_config, samples);
        let ml_stats = ml_stats.expect("multilevel mode records stats");
        let fm = traced_fm_work(h, ml_config);
        assert!(
            fm.gain_updates <= fm.move_pins,
            "acceptance: {} FM gain updates exceed the refresh bound {} on {name}",
            fm.gain_updates,
            fm.move_pins
        );
        assert!(
            ml_cut <= flat_cut,
            "acceptance: multilevel cut {ml_cut} must not exceed flat cut {flat_cut} on {name}"
        );
        println!(
            "multilevel/{name}: flat cut {flat_cut} in {:.2} ms, v-cycle cut {ml_cut} in \
             {:.2} ms ({} level(s), coarsest {}, guard {}; {} FM moves, {} gain updates \
             <= bound {})",
            flat_ns as f64 / 1e6,
            ml_ns as f64 / 1e6,
            ml_stats.levels,
            ml_stats.level_sizes.last().copied().unwrap_or(0),
            ml_stats.used_flat_guard,
            fm.moves,
            fm.gain_updates,
            fm.move_pins,
        );
        rows.push(Row {
            name: name.clone(),
            modules: h.num_vertices(),
            signals: h.num_edges(),
            flat_cut,
            flat_ns,
            ml_cut,
            ml_ns,
            ml_levels: ml_stats.levels,
            ml_coarsest_size: ml_stats.level_sizes.last().copied().unwrap_or(0),
            ml_used_flat_guard: ml_stats.used_flat_guard,
            fm,
        });
    }

    // --- BENCH_multilevel.json at the workspace root ---
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"multilevel\",");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"seed\": {SEED},");
    let _ = writeln!(json, "  \"instances\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"modules\": {}, \"signals\": {}, \
             \"flat_cut\": {}, \"flat_wall_ns\": {}, \"ml_cut\": {}, \"ml_wall_ns\": {}, \
             \"ml_levels\": {}, \"ml_coarsest_size\": {}, \"ml_used_flat_guard\": {}, \
             \"ml_fm_moves\": {}, \"ml_fm_gain_updates\": {}, \"ml_fm_move_pins\": {}}}{comma}",
            r.name,
            r.modules,
            r.signals,
            r.flat_cut,
            r.flat_ns,
            r.ml_cut,
            r.ml_ns,
            r.ml_levels,
            r.ml_coarsest_size,
            r.ml_used_flat_guard,
            r.fm.moves,
            r.fm.gain_updates,
            r.fm.move_pins,
        );
    }
    json.push_str("  ]\n}\n");

    let out = std::env::var("FHP_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_multilevel.json").to_string()
    });
    std::fs::write(&out, &json).expect("can write BENCH_multilevel.json");
    println!("wrote {out}");
}
