//! Cross-crate contract tests: every partitioner, every generator family.
//!
//! The `Bipartitioner` trait promises a valid two-sided cut (or a precise
//! error) for any well-formed instance; these tests sweep the full
//! algorithm × workload matrix.

use fhp::baselines::{
    Exhaustive, FiducciaMattheyses, KernighanLin, RandomCut, Refined, SimulatedAnnealing,
    SpectralBisection,
};
use fhp::core::{metrics, Algorithm1, Bipartitioner, Multilevel, PartitionConfig, PartitionError};
use fhp::gen::{
    CircuitNetlist, DisconnectedClusters, PlantedBisection, RandomHypergraph, Technology,
};
use fhp::hypergraph::{Hypergraph, HypergraphBuilder};

fn partitioners() -> Vec<Box<dyn Bipartitioner>> {
    vec![
        Box::new(Algorithm1::new(PartitionConfig::new().starts(3).seed(1))),
        Box::new(Algorithm1::paper()),
        Box::new(FiducciaMattheyses::new(1)),
        Box::new(KernighanLin::new(1)),
        Box::new(SimulatedAnnealing::fast(1)),
        Box::new(RandomCut::balanced(1)),
        Box::new(RandomCut::unbalanced(1)),
        Box::new(SpectralBisection::new()),
        Box::new(Multilevel::new(1)),
        Box::new(Refined::alg1(PartitionConfig::new().starts(2), 1)),
    ]
}

fn workloads() -> Vec<(String, Hypergraph)> {
    let mut w = Vec::new();
    w.push((
        "random".into(),
        RandomHypergraph::new(60, 90).seed(1).generate().unwrap(),
    ));
    w.push((
        "random-connected".into(),
        RandomHypergraph::new(60, 90)
            .connected(true)
            .seed(2)
            .generate()
            .unwrap(),
    ));
    w.push((
        "planted".into(),
        PlantedBisection::new(60, 100)
            .cut_size(3)
            .seed(3)
            .generate()
            .unwrap()
            .into_parts()
            .0,
    ));
    for tech in Technology::ALL {
        w.push((
            format!("circuit-{}", tech.name()),
            CircuitNetlist::new(tech, 80, 140)
                .seed(4)
                .generate()
                .unwrap(),
        ));
    }
    w.push((
        "disconnected".into(),
        DisconnectedClusters::new(3, 12).seed(5).generate().unwrap(),
    ));
    // degenerate but legal: two vertices, one signal
    let mut b = HypergraphBuilder::with_vertices(2);
    b.add_edge([
        fhp::hypergraph::VertexId::new(0),
        fhp::hypergraph::VertexId::new(1),
    ])
    .unwrap();
    w.push(("pair".into(), b.build()));
    w
}

#[test]
fn every_partitioner_yields_a_valid_cut_on_every_workload() {
    for (wname, h) in workloads() {
        for p in partitioners() {
            let bp = p
                .bipartition(&h)
                .unwrap_or_else(|e| panic!("{} on {wname}: {e}", p.name()));
            assert_eq!(bp.len(), h.num_vertices(), "{} on {wname}", p.name());
            assert!(bp.is_valid_cut(), "{} on {wname}", p.name());
            // metrics must be internally consistent
            let cut = metrics::cut_size(&h, &bp);
            assert_eq!(cut, metrics::crossing_edges(&h, &bp).len());
            assert!(cut <= h.num_edges());
        }
    }
}

#[test]
fn every_partitioner_is_deterministic_per_seed() {
    let h = CircuitNetlist::new(Technology::StdCell, 70, 120)
        .seed(9)
        .generate()
        .unwrap();
    for p in partitioners() {
        let a = p.bipartition(&h).unwrap();
        let b = p.bipartition(&h).unwrap();
        assert_eq!(a, b, "{} not deterministic", p.name());
    }
}

#[test]
fn every_partitioner_rejects_tiny_inputs() {
    for found in [0usize, 1] {
        let h = HypergraphBuilder::with_vertices(found).build();
        for p in partitioners() {
            assert_eq!(
                p.bipartition(&h).unwrap_err(),
                PartitionError::TooFewVertices { found },
                "{}",
                p.name()
            );
        }
    }
}

#[test]
fn exhaustive_is_a_lower_bound_for_everyone() {
    let h = RandomHypergraph::new(12, 20)
        .connected(true)
        .seed(6)
        .generate()
        .unwrap();
    let opt = Exhaustive::unconstrained().min_cut_size(&h).unwrap();
    for p in partitioners() {
        let cut = metrics::cut_size(&h, &p.bipartition(&h).unwrap());
        assert!(cut >= opt, "{} beat the optimum?!", p.name());
    }
    // and the good heuristics should be close on a tiny instance
    let alg1 = Algorithm1::paper().bipartition(&h).unwrap();
    assert!(metrics::cut_size(&h, &alg1) <= opt + 3);
}

#[test]
fn names_are_distinct_and_nonempty() {
    let names: Vec<String> = partitioners()
        .iter()
        .map(|p| p.name().to_string())
        .collect();
    for n in &names {
        assert!(!n.is_empty());
    }
    let unique: std::collections::HashSet<_> =
        names.iter().filter(|n| !n.starts_with("Alg I")).collect();
    assert_eq!(unique.len(), 7);
}

#[test]
fn weighted_instances_respect_weighted_metrics() {
    let mut b = HypergraphBuilder::new();
    let vs: Vec<_> = (0..20)
        .map(|i| b.add_weighted_vertex(1 + (i % 7)))
        .collect();
    for w in vs.windows(2) {
        b.add_weighted_edge([w[0], w[1]], 3).unwrap();
    }
    let h = b.build();
    for p in partitioners() {
        let bp = p.bipartition(&h).unwrap();
        assert_eq!(
            metrics::weighted_cut(&h, &bp),
            3 * metrics::cut_size(&h, &bp) as u64,
            "{}",
            p.name()
        );
        let (l, r) = bp.weights(&h);
        assert_eq!(l + r, h.total_vertex_weight());
    }
}
