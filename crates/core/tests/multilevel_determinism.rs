//! The multilevel V-cycle's determinism contract: same seed ⇒
//! byte-identical outcome fingerprint and byte-identical canonical trace
//! at `--threads 1/2/8` and across repeated runs, on instances from the
//! `fhp-verify` generator families (circuit, planted, hub, grid).
//!
//! This is the `trace_determinism.rs` battery re-aimed at the V-cycle:
//! the inner engine runs are thread-count invariant by the runner's
//! contract, the V-cycle's own scopes are emitted sequentially at
//! `order::ml` keys, and nothing downstream may depend on scheduling.

use fhp_core::{Algorithm1, MultilevelConfig, OutcomeFingerprint, PartitionConfig};
use fhp_hypergraph::Hypergraph;
use fhp_obs::{canonical_line, names, Collector};
use fhp_verify::gen::Family;

const FAMILIES: [Family; 4] = [Family::Circuit, Family::Planted, Family::Hub, Family::Grid];
const THREADS: [usize; 3] = [1, 2, 8];

fn ml_config(threads: usize) -> PartitionConfig {
    PartitionConfig::new()
        .starts(8)
        .seed(42)
        .threads(threads)
        .multilevel(Some(MultilevelConfig::new().max_coarse_size(16).vcycles(2)))
}

fn instance(family: Family) -> Hypergraph {
    family
        .generate(42, 0)
        .unwrap_or_else(|e| panic!("{family:?} failed to generate: {e}"))
        .hypergraph
}

fn run(h: &Hypergraph, threads: usize) -> (OutcomeFingerprint, Vec<String>) {
    let collector = Collector::enabled();
    let out = Algorithm1::new(ml_config(threads))
        .collector(collector.clone())
        .run(h)
        .expect("family instances partition");
    assert!(out.stats.multilevel.is_some(), "multilevel mode must run");
    let trace = collector.snapshot().iter().map(canonical_line).collect();
    (out.fingerprint(), trace)
}

#[test]
fn fingerprints_identical_across_thread_counts() {
    for family in FAMILIES {
        let h = instance(family);
        let (base, _) = run(&h, 1);
        for threads in THREADS {
            let (fp, _) = run(&h, threads);
            assert_eq!(fp, base, "{family:?} diverged at {threads} threads");
        }
    }
}

#[test]
fn canonical_traces_identical_across_thread_counts() {
    for family in FAMILIES {
        let h = instance(family);
        let (_, base) = run(&h, 1);
        assert!(!base.is_empty(), "{family:?} produced an empty trace");
        for threads in THREADS {
            let (_, trace) = run(&h, threads);
            assert_eq!(
                trace, base,
                "{family:?} trace diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn repeated_runs_are_byte_identical() {
    for family in FAMILIES {
        let h = instance(family);
        let first = run(&h, 2);
        let second = run(&h, 2);
        assert_eq!(first, second, "{family:?} repeat run diverged");
    }
}

#[test]
fn trace_carries_the_vcycle_phases_in_order() {
    let h = instance(Family::Circuit);
    let (_, lines) = run(&h, 4);
    let pos = |needle: &str| {
        lines
            .iter()
            .position(|l| l.contains(&format!("\"name\":\"{needle}\"")))
            .unwrap_or_else(|| panic!("missing {needle}"))
    };
    let count = |needle: &str| {
        lines
            .iter()
            .filter(|l| l.contains(&format!("\"name\":\"{needle}\"")))
            .count()
    };
    // coarsen levels, then the initial partition, then refinement, then
    // the second cycle, then the run summary
    assert!(count(names::ML_COARSEN) >= 1);
    assert_eq!(count(names::ML_INITIAL), 1);
    assert_eq!(count(names::ML_REFINE), count(names::ML_COARSEN));
    assert_eq!(count(names::ML_CYCLE), 1, "vcycles(2) adds one extra cycle");
    assert!(pos(names::ML_COARSEN) < pos(names::ML_INITIAL));
    assert!(pos(names::ML_INITIAL) < pos(names::ML_REFINE));
    assert!(pos(names::ML_REFINE) < pos(names::ML_CYCLE));
    assert!(pos(names::ML_CYCLE) < pos(names::ML_LEVELS));
    assert_eq!(count(names::ML_LEVELS), 1);
    assert_eq!(count(names::ML_VCYCLES), 1);
    assert_eq!(count(names::ALG1_BEST_CUT), 1);
    // the flat guard records its cut in the summary
    assert_eq!(count(names::ML_FLAT_GUARD_CUT), 1);
    // the coarsest polish and every uncoarsening step report their FM work
    for name in [
        names::ML_FM_MOVES,
        names::ML_FM_GAIN_UPDATES,
        names::ML_FM_MOVE_PINS,
    ] {
        assert_eq!(count(name), count(names::ML_REFINE) + 1, "{name}");
    }
}

#[test]
fn seeds_sweep_without_violating_the_flat_guard() {
    // the acceptance sweep in miniature: ml <= flat at three seeds on
    // every family here, plus fingerprint stability per seed
    for family in FAMILIES {
        let h = instance(family);
        for seed in [42u64, 43, 44] {
            let base = PartitionConfig::new().starts(8).seed(seed);
            let flat = Algorithm1::new(base).run(&h).expect("flat run");
            let ml =
                Algorithm1::new(base.multilevel(Some(MultilevelConfig::new().max_coarse_size(16))))
                    .run(&h)
                    .expect("ml run");
            assert!(
                ml.report.cut_size <= flat.report.cut_size,
                "{family:?} seed {seed}: ml {} vs flat {}",
                ml.report.cut_size,
                flat.report.cut_size
            );
        }
    }
}
