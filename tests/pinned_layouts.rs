//! Exact k-way and placement outputs, pinned. The proptests check only
//! validity and balance; these pins catch any change to the region
//! bisection, the capacity repair or the terminal alignment that moves a
//! single module.

use fhp::baselines::RandomCut;
use fhp::core::multiway::recursive_bisection;
use fhp::core::{Algorithm1, Bipartitioner, PartitionConfig};
use fhp::gen::{CircuitNetlist, Technology};
use fhp::hypergraph::intersection::paper_example;
use fhp::hypergraph::Hypergraph;
use fhp::place::{MinCutPlacer, Placement, SlotGrid};

fn alg1(region: u64) -> Box<dyn Bipartitioner> {
    Box::new(Algorithm1::new(
        PartitionConfig::new().starts(4).seed(region),
    ))
}

fn random(region: u64) -> Box<dyn Bipartitioner> {
    Box::new(RandomCut::balanced(region))
}

fn unbalanced(region: u64) -> Box<dyn Bipartitioner> {
    Box::new(RandomCut::unbalanced(region))
}

fn circuit() -> Hypergraph {
    CircuitNetlist::new(Technology::StdCell, 60, 100)
        .seed(7)
        .generate()
        .expect("static config")
}

/// Block of every module as one digit each, in module order.
fn blocks(h: &Hypergraph, k: usize, factory: fn(u64) -> Box<dyn Bipartitioner>) -> String {
    let mp = recursive_bisection(h, k, factory).expect("valid k");
    h.vertices().map(|v| mp.block_of(v).to_string()).collect()
}

/// Slot of every module as `row.col`, in module order.
fn slots(placement: &Placement, h: &Hypergraph) -> String {
    h.vertices()
        .map(|v| {
            let s = placement.slot_of(v);
            format!("{}.{}", s.row, s.col)
        })
        .collect::<Vec<_>>()
        .join(" ")
}

fn place(h: &Hypergraph, factory: fn(u64) -> Box<dyn Bipartitioner>) -> String {
    let placement = MinCutPlacer::new(factory)
        .place(h, SlotGrid::new(3, 4))
        .expect("fits");
    slots(&placement, h)
}

#[test]
fn recursive_bisection_of_the_paper_example_is_pinned() {
    let h = paper_example();
    assert_eq!(blocks(&h, 3, alg1), "001211212200");
    assert_eq!(blocks(&h, 4, alg1), "101033232201");
    assert_eq!(blocks(&h, 5, alg1), "102024343301");
}

#[test]
fn recursive_bisection_of_a_circuit_is_pinned() {
    let h = circuit();
    assert_eq!(
        blocks(&h, 3, alg1),
        "202000202222222200000000000000021121221211111111211111112221"
    );
    assert_eq!(
        blocks(&h, 4, alg1),
        "300000000000030011110111111111113232332322333322322222223332"
    );
    assert_eq!(
        blocks(&h, 5, alg1),
        "211111102212222200000000010110114424224443444444233333333333"
    );
    // an unbalanced random split makes the capacity repair move cells
    assert_eq!(
        blocks(&h, 4, unbalanced),
        "232112231213020133310101102213220002233033023301200111102033"
    );
}

#[test]
fn placement_of_the_paper_example_is_pinned() {
    let h = paper_example();
    assert_eq!(
        place(&h, alg1),
        "1.0 0.0 1.1 2.0 1.3 2.2 1.2 2.3 0.2 0.3 0.1 2.1"
    );
    assert_eq!(
        place(&h, random),
        "0.3 1.3 0.2 0.1 1.0 1.2 2.1 1.1 2.2 2.0 2.3 0.0"
    );
}

#[test]
fn placement_with_spare_slots_is_pinned() {
    // 10 modules in 12 slots: the halves' capacities differ from an even
    // split, so repair and terminal alignment both have room to act
    let h = CircuitNetlist::new(Technology::StdCell, 10, 16)
        .seed(3)
        .generate()
        .expect("static config");
    assert_eq!(place(&h, alg1), "0.1 2.3 1.3 2.2 0.0 1.0 1.1 1.2 0.2 0.3");
    assert_eq!(place(&h, random), "2.3 1.1 0.0 1.2 1.0 0.3 1.3 0.2 0.1 2.1");
    assert_eq!(
        place(&h, unbalanced),
        "0.0 0.2 1.3 1.1 1.0 2.3 0.3 2.2 2.1 1.2"
    );
}
