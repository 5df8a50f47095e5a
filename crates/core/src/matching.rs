//! Maximum bipartite matching and minimum vertex cover.
//!
//! The optimum completion of a partial bipartition minimizes the number of
//! *losers* on the boundary graph `G′`. Winners must form an independent
//! set of `G′` (a winner's neighbours are all losers), so the minimum loser
//! set is a minimum vertex cover — and `G′` is bipartite, so König's
//! theorem applies: a minimum vertex cover can be read off a maximum
//! matching, computed here with Hopcroft–Karp in `O(m·√n)`.
//!
//! The paper itself uses the min-degree greedy (within 1 of optimal for
//! connected `G′`); this module supplies the exact optimum both as an
//! alternative [`CompletionStrategy`](crate::complete_cut::CompletionStrategy)
//! and as the reference the within-1 theorem is verified against.

use fhp_hypergraph::Graph;

use crate::Side;

/// A maximum matching of a bipartite graph: `mate[v]` is `v`'s partner.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Matching {
    mate: Vec<Option<u32>>,
    size: usize,
}

impl Matching {
    /// Partner of `v`, if matched.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn mate(&self, v: u32) -> Option<u32> {
        self.mate[v as usize] // fhp-audit: allow(panic-site) — match/queue arrays sized to the graph at entry; ids in-range by construction
    }

    /// Number of matched edges.
    pub fn size(&self) -> usize {
        self.size
    }
}

const INF: u32 = u32::MAX;
const NIL: u32 = u32::MAX;

/// Computes a maximum matching of the bipartite graph `g` whose two sides
/// are given by `side` (Hopcroft–Karp).
///
/// # Panics
///
/// Panics if `side.len() != g.num_vertices()`. Debug-asserts that no edge
/// joins two vertices of the same side.
pub fn hopcroft_karp(g: &Graph, side: &[Side]) -> Matching {
    assert_eq!(side.len(), g.num_vertices(), "side labels mismatch");
    #[cfg(debug_assertions)]
    for (u, v) in g.edges() {
        debug_assert_ne!(
            side[u as usize], // fhp-audit: allow(panic-site) — match/queue arrays sized to the graph at entry; ids in-range by construction
            side[v as usize], // fhp-audit: allow(panic-site) — match/queue arrays sized to the graph at entry; ids in-range by construction
            "graph is not bipartite w.r.t. side labels"
        );
    }

    let n = g.num_vertices();
    let lefts: Vec<u32> = (0..n as u32) // fhp-audit: allow(as-cast-truncation) — vertex count fits u32 by the VertexId representation
        .filter(|&v| side[v as usize] == Side::Left) // fhp-audit: allow(panic-site) — match/queue arrays sized to the graph at entry; ids in-range by construction
        .collect();
    let mut mate: Vec<u32> = vec![NIL; n];
    let mut dist: Vec<u32> = vec![INF; n];
    let mut queue: Vec<u32> = Vec::new();
    let mut size = 0usize;

    loop {
        // BFS layering from free left vertices.
        queue.clear();
        for &u in &lefts {
            // fhp-audit: allow(panic-site) — match/queue arrays sized to the graph at entry; ids in-range by construction
            if mate[u as usize] == NIL {
                // fhp-audit: allow(panic-site) — match/queue arrays sized to the graph at entry; ids in-range by construction
                dist[u as usize] = 0; // fhp-audit: allow(panic-site) — match/queue arrays sized to the graph at entry; ids in-range by construction
                queue.push(u);
            } else {
                dist[u as usize] = INF; // fhp-audit: allow(panic-site) — match/queue arrays sized to the graph at entry; ids in-range by construction
            }
        }
        let mut found_augmenting_layer = false;
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head]; // fhp-audit: allow(panic-site) — match/queue arrays sized to the graph at entry; ids in-range by construction
            head += 1;
            for &v in g.neighbors(u) {
                let w = mate[v as usize]; // fhp-audit: allow(panic-site) — match/queue arrays sized to the graph at entry; ids in-range by construction
                if w == NIL {
                    found_augmenting_layer = true;
                // fhp-audit: allow(panic-site) — match/queue arrays sized to the graph at entry; ids in-range by construction
                } else if dist[w as usize] == INF {
                    // fhp-audit: allow(panic-site) — match/queue arrays sized to the graph at entry; ids in-range by construction
                    dist[w as usize] = dist[u as usize] + 1; // fhp-audit: allow(panic-site) — match/queue arrays sized to the graph at entry; ids in-range by construction
                    queue.push(w);
                }
            }
        }
        if !found_augmenting_layer {
            break;
        }
        // DFS phase: vertex-disjoint shortest augmenting paths.
        fn try_augment(g: &Graph, u: u32, mate: &mut [u32], dist: &mut [u32]) -> bool {
            for i in 0..g.neighbors(u).len() {
                let v = g.neighbors(u)[i]; // fhp-audit: allow(panic-site) — match/queue arrays sized to the graph at entry; ids in-range by construction
                let w = mate[v as usize]; // fhp-audit: allow(panic-site) — match/queue arrays sized to the graph at entry; ids in-range by construction
                let ok = if w == NIL {
                    true
                // fhp-audit: allow(panic-site) — match/queue arrays sized to the graph at entry; ids in-range by construction
                } else if dist[w as usize] == dist[u as usize] + 1 {
                    try_augment(g, w, mate, dist)
                } else {
                    false
                };
                if ok {
                    mate[v as usize] = u; // fhp-audit: allow(panic-site) — match/queue arrays sized to the graph at entry; ids in-range by construction
                    mate[u as usize] = v; // fhp-audit: allow(panic-site) — match/queue arrays sized to the graph at entry; ids in-range by construction
                    return true;
                }
            }
            dist[u as usize] = INF; // fhp-audit: allow(panic-site) — match/queue arrays sized to the graph at entry; ids in-range by construction
            false
        }
        for &u in &lefts {
            // fhp-audit: allow(panic-site) — match/queue arrays sized to the graph at entry; ids in-range by construction
            if mate[u as usize] == NIL && try_augment(g, u, &mut mate, &mut dist) {
                size += 1;
            }
        }
    }

    Matching {
        mate: mate.into_iter().map(|m| (m != NIL).then_some(m)).collect(),
        size,
    }
}

/// Extracts a minimum vertex cover from a maximum matching by König's
/// construction: starting from the unmatched left vertices, alternate
/// unmatched edges (left→right) and matched edges (right→left); the cover
/// is (unreached left) ∪ (reached right).
///
/// Returns `in_cover[v]` per vertex. The cover size equals the matching
/// size (König's theorem), which the unit tests assert.
///
/// # Panics
///
/// Panics if the matching or side labels do not fit `g`.
pub fn konig_cover(g: &Graph, side: &[Side], matching: &Matching) -> Vec<bool> {
    assert_eq!(side.len(), g.num_vertices());
    assert_eq!(matching.mate.len(), g.num_vertices());
    let n = g.num_vertices();
    let mut reached = vec![false; n];
    let mut queue: Vec<u32> = (0..n as u32) // fhp-audit: allow(as-cast-truncation) — vertex count fits u32 by the VertexId representation
        .filter(|&v| side[v as usize] == Side::Left && matching.mate(v).is_none()) // fhp-audit: allow(panic-site) — match/queue arrays sized to the graph at entry; ids in-range by construction
        .collect();
    for &v in &queue {
        reached[v as usize] = true; // fhp-audit: allow(panic-site) — match/queue arrays sized to the graph at entry; ids in-range by construction
    }
    let mut head = 0;
    while head < queue.len() {
        // fhp-audit: allow(panic-site) — match/queue arrays sized to the graph at entry; ids in-range by construction
        let u = queue[head]; // u is on the left
        head += 1;
        for &v in g.neighbors(u) {
            // follow only unmatched edges left→right
            // fhp-audit: allow(panic-site) — match/queue arrays sized to the graph at entry; ids in-range by construction
            if matching.mate(u) == Some(v) || reached[v as usize] {
                continue;
            }
            reached[v as usize] = true; // fhp-audit: allow(panic-site) — match/queue arrays sized to the graph at entry; ids in-range by construction
                                        // follow matched edge right→left
            if let Some(w) = matching.mate(v) {
                // fhp-audit: allow(panic-site) — match/queue arrays sized to the graph at entry; ids in-range by construction
                if !reached[w as usize] {
                    // fhp-audit: allow(panic-site) — match/queue arrays sized to the graph at entry; ids in-range by construction
                    reached[w as usize] = true; // fhp-audit: allow(panic-site) — match/queue arrays sized to the graph at entry; ids in-range by construction
                    queue.push(w);
                }
            }
        }
    }
    (0..n)
        // fhp-audit: allow(panic-site) — match/queue arrays sized to the graph at entry; ids in-range by construction
        .map(|v| match side[v] {
            // fhp-audit: allow(panic-site) — match/queue arrays sized to the graph at entry; ids in-range by construction
            Side::Left => !reached[v], // fhp-audit: allow(panic-site) — match/queue arrays sized to the graph at entry; ids in-range by construction
            Side::Right => reached[v], // fhp-audit: allow(panic-site) — match/queue arrays sized to the graph at entry; ids in-range by construction
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sides(pattern: &str) -> Vec<Side> {
        pattern
            .chars()
            .map(|c| if c == 'L' { Side::Left } else { Side::Right })
            .collect()
    }

    fn check_cover(g: &Graph, cover: &[bool]) {
        for (u, v) in g.edges() {
            assert!(
                cover[u as usize] || cover[v as usize],
                "edge ({u},{v}) uncovered"
            );
        }
    }

    #[test]
    fn perfect_matching_on_even_cycle() {
        // C4 with alternating sides
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        let s = sides("LRLR");
        let m = hopcroft_karp(&g, &s);
        assert_eq!(m.size(), 2);
        for v in 0..4u32 {
            assert_eq!(m.mate(m.mate(v).unwrap()), Some(v));
        }
        let cover = konig_cover(&g, &s, &m);
        assert_eq!(cover.iter().filter(|&&c| c).count(), 2);
        check_cover(&g, &cover);
    }

    #[test]
    fn star_needs_single_cover_vertex() {
        // center 0 (L) joined to 1..=4 (R)
        let g = Graph::from_edges(5, (1..5).map(|i| (0, i)));
        let s = sides("LRRRR");
        let m = hopcroft_karp(&g, &s);
        assert_eq!(m.size(), 1);
        let cover = konig_cover(&g, &s, &m);
        assert_eq!(cover.iter().filter(|&&c| c).count(), 1);
        assert!(cover[0]);
        check_cover(&g, &cover);
    }

    #[test]
    fn path_of_five() {
        // P5: 0-1-2-3-4, sides LRLRL; max matching 2, min cover 2 ({1,3})
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]);
        let s = sides("LRLRL");
        let m = hopcroft_karp(&g, &s);
        assert_eq!(m.size(), 2);
        let cover = konig_cover(&g, &s, &m);
        assert_eq!(cover.iter().filter(|&&c| c).count(), 2);
        check_cover(&g, &cover);
    }

    #[test]
    fn empty_graph_has_empty_matching() {
        let g = Graph::empty(3);
        let s = sides("LLR");
        let m = hopcroft_karp(&g, &s);
        assert_eq!(m.size(), 0);
        let cover = konig_cover(&g, &s, &m);
        assert!(cover.iter().all(|&c| !c));
    }

    #[test]
    fn matching_size_equals_cover_size_randomized() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..50 {
            let nl = rng.gen_range(1..8usize);
            let nr = rng.gen_range(1..8usize);
            let n = nl + nr;
            let s: Vec<Side> = (0..n)
                .map(|i| if i < nl { Side::Left } else { Side::Right })
                .collect();
            let mut edges = Vec::new();
            for u in 0..nl as u32 {
                for v in nl as u32..n as u32 {
                    if rng.gen_bool(0.3) {
                        edges.push((u, v));
                    }
                }
            }
            let g = Graph::from_edges(n, edges);
            let m = hopcroft_karp(&g, &s);
            let cover = konig_cover(&g, &s, &m);
            check_cover(&g, &cover);
            assert_eq!(
                cover.iter().filter(|&&c| c).count(),
                m.size(),
                "König violated on trial {trial}"
            );
            // matching is consistent
            for v in 0..n as u32 {
                if let Some(w) = m.mate(v) {
                    assert_eq!(m.mate(w), Some(v));
                    assert!(g.has_edge(v, w));
                    assert_ne!(s[v as usize], s[w as usize]);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn side_length_mismatch_panics() {
        let g = Graph::empty(2);
        let _ = hopcroft_karp(&g, &[Side::Left]);
    }
}
