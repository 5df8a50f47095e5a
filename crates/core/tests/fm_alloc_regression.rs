//! Allocation regression for FM refinement: once an [`FmScratch`] has
//! served a refinement, another `refine_with` on a hypergraph of equal or
//! smaller size must not touch the heap at all. The start partition is
//! built before the measured call and moved through it, so the returned
//! `Bipartition` costs no allocation either — the count must be zero.
//!
//! This is deliberately a single `#[test]` in its own integration binary:
//! the allocation counter is process-global, and a sibling test thread
//! would bleed its allocations into the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use fhp_core::refine::FmScratch;
use fhp_core::{Bipartition, FmRefiner, Side};
use fhp_hypergraph::{Hypergraph, HypergraphBuilder, VertexId};

/// Counts every heap acquisition (alloc, alloc_zeroed, realloc) routed
/// through the global allocator.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// A pseudo-random circuit-like netlist on `n` modules (tiny LCG seeded
/// by `seed`): a backbone chain plus `2n` weighted 2–5-pin signals over
/// modules of weight 1–3.
fn circuit(n: usize, seed: u64) -> Hypergraph {
    let mut state = seed;
    let mut next = move |bound: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as usize) % bound
    };
    let mut b = HypergraphBuilder::new();
    for _ in 0..n {
        b.add_weighted_vertex(1 + next(3) as u64);
    }
    for i in 0..n - 1 {
        b.add_edge([VertexId::new(i), VertexId::new(i + 1)])
            .expect("chain edge");
    }
    for _ in 0..2 * n {
        let pins: Vec<VertexId> = (0..2 + next(4)).map(|_| VertexId::new(next(n))).collect();
        b.add_weighted_edge(pins, next(3) as u64)
            .expect("valid pins");
    }
    b.build()
}

/// The first half of the modules left, the rest right.
fn halves(n: usize) -> Bipartition {
    Bipartition::from_fn(n, |v| {
        if v.index() < n / 2 {
            Side::Left
        } else {
            Side::Right
        }
    })
}

/// `refine_with` on `(h, start)`, returning the result and the number of
/// heap acquisitions the call made.
fn measured(h: &Hypergraph, start: Bipartition, scratch: &mut FmScratch) -> (Bipartition, u64) {
    let before = ALLOCS.load(Ordering::SeqCst);
    let out = FmRefiner::new().refine_with(h, start, scratch);
    let after = ALLOCS.load(Ordering::SeqCst);
    (out, after - before)
}

#[test]
fn warm_scratch_refines_without_allocating() {
    let big = circuit(600, 0x9E37_79B9_7F4A_7C15);
    let small = circuit(150, 7);

    let mut scratch = FmScratch::new();
    let (cold_out, cold_allocs) = measured(&big, halves(600), &mut scratch);
    assert!(cold_allocs > 0, "a cold scratch must grow its buffers");
    assert!(
        scratch.take_work().moves > 0,
        "the instance must exercise the move loop"
    );

    let (warm_out, warm_allocs) = measured(&big, halves(600), &mut scratch);
    assert_eq!(warm_out, cold_out, "a warm scratch changes no result");
    assert_eq!(
        warm_allocs, 0,
        "second refinement at equal size allocated {warm_allocs} times"
    );

    let (_, smaller_allocs) = measured(&small, halves(150), &mut scratch);
    assert_eq!(
        smaller_allocs, 0,
        "refinement at a smaller size allocated {smaller_allocs} times"
    );
}
