//! Benchmark-file workflow: write an `.hgr`, read it back, race every
//! partitioner on it.
//!
//! The hMETIS `.hgr` format is how partitioning benchmarks circulate
//! (ISPD98 etc.). This example generates a gate-array netlist, round-trips
//! it through a temporary `.hgr` file exactly as an external benchmark
//! would arrive, and compares all partitioners — including the modern
//! multilevel V-cycle — on cutsize and runtime.
//!
//! Run with `cargo run --release --example hgr_benchmark`.
//! Pass a path to run on your own benchmark: `… --example hgr_benchmark -- ibm01.hgr`.

use fhp::baselines::{
    FiducciaMattheyses, KernighanLin, RandomCut, Refined, SimulatedAnnealing, SpectralBisection,
};
use fhp::core::{metrics, Algorithm1, Bipartitioner, Multilevel, PartitionConfig};
use fhp::gen::{CircuitNetlist, Technology};
use fhp::hypergraph::hgr;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let h = match std::env::args().nth(1) {
        Some(path) => {
            println!("loading {path}");
            hgr::parse_hgr(&std::fs::read_to_string(&path)?)?
        }
        None => {
            // no file given: synthesize one and round-trip it through disk
            let h = CircuitNetlist::new(Technology::GateArray, 500, 820)
                .seed(33)
                .generate()?;
            let path = std::env::temp_dir().join("fhp_demo.hgr");
            std::fs::write(&path, hgr::write_hgr(&h))?;
            println!("wrote synthetic benchmark to {}", path.display());
            hgr::parse_hgr(&std::fs::read_to_string(&path)?)?
        }
    };
    println!(
        "instance: {} vertices, {} hyperedges, {} pins\n",
        h.num_vertices(),
        h.num_edges(),
        h.num_pins()
    );

    let alg1 = Algorithm1::new(PartitionConfig::paper().seed(0));
    let hybrid = Refined::alg1(PartitionConfig::paper(), 0);
    let ml = Multilevel::new(0);
    let fm = FiducciaMattheyses::new(0);
    let kl = KernighanLin::new(0);
    let sa = SimulatedAnnealing::thorough(0);
    let spectral = SpectralBisection::new();
    let random = RandomCut::balanced(0);
    let entries: [&dyn Bipartitioner; 8] = [&alg1, &hybrid, &ml, &spectral, &fm, &kl, &sa, &random];

    println!(
        "{:<22} {:>8} {:>12} {:>12}",
        "algorithm", "cut", "|L|/|R|", "time"
    );
    for p in entries {
        let started = std::time::Instant::now();
        let bp = p.bipartition(&h)?;
        let elapsed = started.elapsed();
        let (l, r) = bp.counts();
        println!(
            "{:<22} {:>8} {:>12} {:>12}",
            p.name(),
            metrics::cut_size(&h, &bp),
            format!("{l}/{r}"),
            format!("{elapsed:.2?}")
        );
    }
    Ok(())
}
