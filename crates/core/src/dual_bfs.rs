//! The initial graph cut in the intersection graph `G`.
//!
//! Algorithm I's first two steps (paper §2.3):
//!
//! 1. pick an arbitrary vertex and BFS to a furthest vertex `u`, then BFS
//!    again to a furthest vertex `v` — the *longest BFS path* standing in
//!    for a true diameter (which would cost `O(nm)`);
//! 2. "generate an initial cut in G using BFS from u and v" — grow two BFS
//!    fronts simultaneously until the expanding sets meet, which defines a
//!    cutline through `G`.
//!
//! Both steps are `O(n²)` in the worst case and linear in edges per BFS.

use fhp_hypergraph::bfs;
use fhp_hypergraph::Graph;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::Side;

/// A two-sided labelling of every vertex of a graph, produced by growing
/// BFS fronts from two seed vertices.
///
/// # Examples
///
/// ```
/// use fhp_core::dual_bfs::two_front_bfs;
/// use fhp_core::Side;
/// use fhp_hypergraph::Graph;
///
/// let path = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]);
/// let cut = two_front_bfs(&path, 0, 4);
/// assert_eq!(cut.side_of(0), Side::Left);
/// assert_eq!(cut.side_of(4), Side::Right);
/// assert_eq!(cut.side_of(1), Side::Left);
/// assert_eq!(cut.side_of(3), Side::Right);
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphCut {
    side_of: Vec<Side>,
}

impl GraphCut {
    /// The side each graph vertex landed on.
    #[inline]
    pub fn side_of(&self, v: u32) -> Side {
        self.side_of[v as usize] // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
    }

    /// The per-vertex side slice.
    pub fn sides(&self) -> &[Side] {
        &self.side_of
    }

    /// Number of vertices labelled.
    pub fn len(&self) -> usize {
        self.side_of.len()
    }

    /// True for the zero-vertex graph.
    pub fn is_empty(&self) -> bool {
        self.side_of.is_empty()
    }
}

/// How the two BFS fronts take turns expanding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum FrontPolicy {
    /// Try [`SmallerFirst`](Self::SmallerFirst) *and*
    /// [`Alternate`](Self::Alternate) on every start and keep whichever cut
    /// scores better. Costs one extra sweep per start (the bound stays
    /// `O(n²)`) and combines the strengths of both: smaller-first recovers
    /// planted waists on dumbbell-shaped intersection graphs, alternation
    /// tracks the level geometry of hierarchical circuit netlists. The
    /// default.
    #[default]
    Both,
    /// Expand whichever front currently holds fewer vertices (ties go to
    /// the left). The meeting line then gravitates toward narrow waists of
    /// the graph — on "dumbbell"-shaped intersection graphs (two clusters
    /// joined by few signals) this lands the cut on the bridge signals,
    /// which is what lets Algorithm I recover planted minimum cuts.
    SmallerFirst,
    /// Strict level alternation: left level, right level, right, left, …
    /// The fronts meet at the *equidistant* line between the seeds, which
    /// may slice through a cluster when the seeds sit at unequal depths,
    /// but follows the level geometry of long-diameter graphs closely.
    Alternate,
}

impl FrontPolicy {
    /// The concrete sweep policies this configuration runs per start.
    pub fn sweeps(self) -> &'static [FrontPolicy] {
        match self {
            FrontPolicy::Both => &[FrontPolicy::SmallerFirst, FrontPolicy::Alternate],
            FrontPolicy::SmallerFirst => &[FrontPolicy::SmallerFirst],
            FrontPolicy::Alternate => &[FrontPolicy::Alternate],
        }
    }
}

/// Grows BFS fronts from `u` (left) and `v` (right) simultaneously under
/// [`FrontPolicy::SmallerFirst`] until every vertex reachable from either
/// seed is claimed by the front that got there first. Vertices in
/// components containing neither seed are then assigned — whole components
/// at a time — to whichever side currently has fewer vertices.
///
/// # Panics
///
/// Panics if `u == v` or either is out of range.
pub fn two_front_bfs(g: &Graph, u: u32, v: u32) -> GraphCut {
    two_front_bfs_with_policy(g, u, v, FrontPolicy::SmallerFirst)
}

/// [`two_front_bfs`] with an explicit expansion policy.
/// [`FrontPolicy::Both`] runs as smaller-first here — a single sweep can
/// only follow one rule; the multi-start driver expands `Both` into the
/// two concrete sweeps via [`FrontPolicy::sweeps`].
///
/// # Panics
///
/// Panics if `u == v` or either is out of range.
pub fn two_front_bfs_with_policy(g: &Graph, u: u32, v: u32, policy: FrontPolicy) -> GraphCut {
    let mut scratch = TwoFrontScratch::new();
    scratch.run(g, u, v, policy);
    scratch.cut
}

/// Reusable buffers for [`two_front_bfs_with_policy`]. Once warmed to a
/// graph's vertex count, repeated [`run`](Self::run) calls allocate
/// nothing — the multi-start engine keeps one of these per worker. Every
/// buffer is fully reset at the start of `run`, so a scratch that was
/// abandoned mid-sweep (e.g. by a contained panic) self-heals on reuse.
#[derive(Clone, Debug, Default)]
pub struct TwoFrontScratch {
    owner: Vec<u8>,
    fronts: [Vec<u32>; 2],
    next: Vec<u32>,
    stack: Vec<u32>,
    cut: GraphCut,
}

impl TwoFrontScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch pre-sized for graphs of up to `n` vertices.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            owner: Vec::with_capacity(n),
            fronts: [Vec::with_capacity(n), Vec::with_capacity(n)],
            next: Vec::with_capacity(n),
            stack: Vec::with_capacity(n),
            cut: GraphCut {
                side_of: Vec::with_capacity(n),
            },
        }
    }

    /// The cut produced by the most recent [`run`](Self::run).
    pub fn cut(&self) -> &GraphCut {
        &self.cut
    }

    /// Runs the dual-front sweep into this scratch's buffers; read the
    /// result with [`cut`](Self::cut). Identical output to
    /// [`two_front_bfs_with_policy`] (which delegates here).
    ///
    /// # Panics
    ///
    /// Panics if `u == v` or either is out of range.
    pub fn run(&mut self, g: &Graph, u: u32, v: u32, policy: FrontPolicy) {
        assert_ne!(u, v, "the two BFS seeds must differ");
        let n = g.num_vertices();
        assert!((u as usize) < n && (v as usize) < n, "seed out of range");

        const UNCLAIMED: u8 = u8::MAX;
        let owner = &mut self.owner;
        owner.clear();
        owner.resize(n, UNCLAIMED);
        owner[u as usize] = 0; // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
        owner[v as usize] = 1; // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
        let fronts = &mut self.fronts;
        fronts[0].clear(); // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
        fronts[0].push(u); // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
        fronts[1].clear(); // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
        fronts[1].push(v); // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
        let mut claimed = [1usize, 1usize];
        let next = &mut self.next;
        next.clear();
        let mut round = 0usize;
        // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
        while !fronts[0].is_empty() || !fronts[1].is_empty() {
            let order = match policy {
                // Alternate which side expands first each round to keep the
                // boundary tie-breaking symmetric.
                FrontPolicy::Alternate => {
                    if round.is_multiple_of(2) {
                        [0usize, 1]
                    } else {
                        [1, 0]
                    }
                }
                // The smaller side expands; if it stalls (empty front), the
                // other side finishes the sweep.
                FrontPolicy::SmallerFirst | FrontPolicy::Both => {
                    let smaller = usize::from(
                        claimed[1] < claimed[0] || (claimed[1] == claimed[0] && round % 2 == 1), // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
                    );
                    [smaller, 1 - smaller]
                }
            };
            let single_step = policy != FrontPolicy::Alternate;
            for side in order {
                // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
                if fronts[side].is_empty() {
                    continue;
                }
                next.clear();
                // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
                for &w in &fronts[side] {
                    for &x in g.neighbors(w) {
                        // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
                        if owner[x as usize] == UNCLAIMED {
                            // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
                            // fhp-audit: allow(as-cast-truncation) — vertex count fits u32 by the VertexId representation
                            // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
                            owner[x as usize] = side as u8;
                            claimed[side] += 1; // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
                            next.push(x);
                        }
                    }
                }
                std::mem::swap(&mut fronts[side], next); // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
                                                         // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
                if single_step && !fronts[0].is_empty() && !fronts[1].is_empty() {
                    break; // re-evaluate which side is smaller
                }
            }
            round += 1;
        }

        // Components reached by neither seed: assign whole components to the
        // currently smaller side.
        let mut counts = [0usize; 2];
        for &o in owner.iter() {
            if o != UNCLAIMED {
                counts[o as usize] += 1; // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
            }
        }
        let stack = &mut self.stack;
        stack.clear();
        // fhp-audit: allow(as-cast-truncation) — vertex count fits u32 by the VertexId representation
        for s in 0..n as u32 {
            // fhp-audit: allow(as-cast-truncation) — vertex count fits u32 by the VertexId representation
            // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
            if owner[s as usize] != UNCLAIMED {
                continue;
            }
            let side = if counts[0] <= counts[1] { 0u8 } else { 1u8 }; // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
            owner[s as usize] = side; // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
            counts[side as usize] += 1; // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
            stack.push(s);
            while let Some(w) = stack.pop() {
                for &x in g.neighbors(w) {
                    // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
                    if owner[x as usize] == UNCLAIMED {
                        // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
                        owner[x as usize] = side; // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
                        counts[side as usize] += 1; // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
                        stack.push(x);
                    }
                }
            }
        }

        self.cut.side_of.clear();
        self.cut.side_of.extend(
            owner
                .iter()
                .map(|&o| if o == 0 { Side::Left } else { Side::Right }),
        );
    }
}

/// Picks a random longest-BFS-path endpoint pair: a random start vertex,
/// BFS to the set of deepest vertices and pick one at random as `u`, then
/// BFS from `u` and pick a random deepest vertex as `v`.
///
/// Randomizing among *all* deepest vertices (not just the last visited) is
/// what makes the paper's multi-start extension ("50 random longest paths")
/// explore genuinely different cuts.
///
/// Returns `None` if the graph has fewer than 2 vertices or the random
/// start's component is a single vertex.
pub fn random_longest_path_endpoints<R: Rng + ?Sized>(
    g: &Graph,
    rng: &mut R,
) -> Option<(u32, u32)> {
    EndpointScratch::new().pick(g, rng).map(|(u, v, _)| (u, v))
}

/// Reusable buffers for the longest-BFS-path endpoint draw. Once warmed
/// to a graph's vertex count, repeated [`pick`](Self::pick) calls
/// allocate nothing. The RNG draw sequence is byte-identical to
/// [`random_longest_path_endpoints`] (which delegates here): one
/// `gen_range` for the start vertex, one `choose` over the deepest level
/// of the first BFS, one `choose` over the deepest level of the second —
/// so swapping the scratch path in cannot perturb any seeded run.
#[derive(Clone, Debug)]
pub struct EndpointScratch {
    first: bfs::BfsLevels,
    second: bfs::BfsLevels,
    deepest: Vec<u32>,
}

impl Default for EndpointScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl EndpointScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self {
            first: bfs::BfsLevels::empty(),
            second: bfs::BfsLevels::empty(),
            deepest: Vec::new(),
        }
    }

    /// A scratch pre-sized for graphs of up to `n` vertices.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            first: bfs::BfsLevels::with_capacity(n),
            second: bfs::BfsLevels::with_capacity(n),
            deepest: Vec::with_capacity(n),
        }
    }

    /// Draws a random longest-path endpoint pair, returning
    /// `(u, v, path_length)` where `path_length = dist(u, v)` — the depth
    /// of the second BFS, saving the separate distance BFS callers used
    /// to run. `None` under the same conditions as
    /// [`random_longest_path_endpoints`].
    pub fn pick<R: Rng + ?Sized>(&mut self, g: &Graph, rng: &mut R) -> Option<(u32, u32, u32)> {
        let n = g.num_vertices();
        if n < 2 {
            return None;
        }
        let start = rng.gen_range(0..n as u32); // fhp-audit: allow(as-cast-truncation) — vertex count fits u32 by the VertexId representation
        bfs::bfs_into(g, start, &mut self.first);
        if self.first.num_reached() < 2 {
            // isolated start: fall back to any vertex with an edge
            let fallback = g.vertices().find(|&v| g.degree(v) > 0)?;
            bfs::bfs_into(g, fallback, &mut self.first);
            if self.first.num_reached() < 2 {
                return None; // unreachable: the fallback has an edge
            }
        }
        fill_deepest(&self.first, &mut self.deepest);
        let u = *self.deepest.choose(rng).expect("nonempty"); // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
        bfs::bfs_into(g, u, &mut self.second);
        fill_deepest(&self.second, &mut self.deepest);
        let v = *self.deepest.choose(rng).expect("nonempty"); // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
        if u == v {
            // start's component had a single vertex at positive depth 0 — can
            // only happen if u is isolated, which num_reached() >= 2 rules out.
            return None;
        }
        Some((u, v, self.second.depth()))
    }
}

/// Collects the deepest BFS level into `out` (the singleton source when
/// the search reached nothing else), preserving visit order so a `choose`
/// over the buffer matches one over a freshly collected `Vec`.
fn fill_deepest(levels: &bfs::BfsLevels, out: &mut Vec<u32>) {
    out.clear();
    let depth = levels.depth();
    if depth == 0 {
        out.push(levels.source());
        return;
    }
    out.extend(
        levels
            .visit_order()
            .iter()
            .copied()
            .filter(|&v| levels.dist(v) == Some(depth)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, (0..n as u32 - 1).map(|i| (i, i + 1)))
    }

    #[test]
    fn fronts_meet_in_the_middle() {
        let g = path(10);
        let cut = two_front_bfs(&g, 0, 9);
        let left: usize = (0..10).filter(|&i| cut.side_of(i) == Side::Left).count();
        assert_eq!(left, 5);
        // contiguity: all left vertices precede all right vertices
        let first_right = (0..10).position(|i| cut.side_of(i) == Side::Right).unwrap();
        assert!((first_right as u32..10).all(|i| cut.side_of(i) == Side::Right));
    }

    #[test]
    fn asymmetric_seeds_split_by_distance() {
        let g = path(10);
        let cut = two_front_bfs(&g, 0, 3);
        // vertices 4.. are closer to 3; the right side should dominate
        assert_eq!(cut.side_of(0), Side::Left);
        assert_eq!(cut.side_of(1), Side::Left);
        for i in 3..10 {
            assert_eq!(cut.side_of(i), Side::Right, "vertex {i}");
        }
    }

    #[test]
    fn every_vertex_claimed_even_disconnected() {
        let mut edges = vec![(0u32, 1u32), (1, 2)]; // component A
        edges.push((3, 4)); // component B, no seed
        let g = Graph::from_edges(5, edges);
        let cut = two_front_bfs(&g, 0, 2);
        assert_eq!(cut.len(), 5);
        // component B goes wholesale to one side
        assert_eq!(cut.side_of(3), cut.side_of(4));
        assert!(!cut.is_empty());
    }

    #[test]
    fn orphan_component_balances_counts() {
        // seeds claim 1 vertex each; orphan pair should go to... either side,
        // but wholesale.
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]);
        let cut = two_front_bfs(&g, 0, 1);
        assert_eq!(cut.side_of(2), cut.side_of(3));
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn equal_seeds_panic() {
        let g = path(3);
        let _ = two_front_bfs(&g, 1, 1);
    }

    #[test]
    fn random_endpoints_are_far_apart_on_path() {
        let g = path(20);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10 {
            let (u, v) = random_longest_path_endpoints(&g, &mut rng).unwrap();
            assert!(u == 0 || u == 19);
            assert!(v == 0 || v == 19);
            assert_ne!(u, v);
        }
    }

    #[test]
    fn random_endpoints_tiny_graphs() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(random_longest_path_endpoints(&Graph::empty(0), &mut rng).is_none());
        assert!(random_longest_path_endpoints(&Graph::empty(1), &mut rng).is_none());
        assert!(random_longest_path_endpoints(&Graph::empty(5), &mut rng).is_none());
        let pair = Graph::from_edges(2, [(0, 1)]);
        let (u, v) = random_longest_path_endpoints(&pair, &mut rng).unwrap();
        assert!((u == 0 && v == 1) || (u == 1 && v == 0));
    }

    #[test]
    fn random_endpoints_with_isolated_vertices() {
        // vertex 3 isolated; restarts from a connected vertex
        let g = Graph::from_edges(4, [(0, 1), (1, 2)]);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let (u, v) = random_longest_path_endpoints(&g, &mut rng).unwrap();
            assert_ne!(u, 3);
            assert_ne!(v, 3);
            assert_ne!(u, v);
        }
    }

    #[test]
    fn scratch_pick_matches_free_function_draw_for_draw() {
        let graphs = [
            path(20),
            Graph::from_edges(4, [(0, 1), (1, 2)]), // vertex 3 isolated
            Graph::from_edges(12, (0..12u32).map(|i| (i, (i + 1) % 12))),
            Graph::empty(5),
        ];
        let mut scratch = EndpointScratch::with_capacity(20);
        for (gi, g) in graphs.iter().enumerate() {
            let mut rng_a = StdRng::seed_from_u64(99 + gi as u64);
            let mut rng_b = StdRng::seed_from_u64(99 + gi as u64);
            for round in 0..15 {
                let free = random_longest_path_endpoints(g, &mut rng_a);
                let picked = scratch.pick(g, &mut rng_b);
                assert_eq!(
                    picked.map(|(u, v, _)| (u, v)),
                    free,
                    "graph {gi} round {round}"
                );
                if let Some((u, v, len)) = picked {
                    assert_eq!(bfs::bfs(g, u).dist(v), Some(len), "graph {gi}");
                }
            }
        }
    }

    #[test]
    fn two_front_scratch_reuse_matches_fresh_runs() {
        let g1 = path(10);
        let g2 = Graph::from_edges(4, [(0, 1), (2, 3)]);
        let mut scratch = TwoFrontScratch::with_capacity(10);
        for policy in [
            FrontPolicy::SmallerFirst,
            FrontPolicy::Alternate,
            FrontPolicy::Both,
        ] {
            for (g, u, v) in [(&g1, 0u32, 9u32), (&g2, 0, 1), (&g1, 0, 3)] {
                scratch.run(g, u, v, policy);
                let fresh = two_front_bfs_with_policy(g, u, v, policy);
                assert_eq!(scratch.cut().sides(), fresh.sides(), "{policy:?}");
            }
        }
    }

    #[test]
    fn multi_start_varies_endpoints_on_cycle() {
        // every vertex of a cycle is a valid longest-path endpoint; with
        // randomization we should see variety.
        let n = 12u32;
        let g = Graph::from_edges(n as usize, (0..n).map(|i| (i, (i + 1) % n)));
        let mut rng = StdRng::seed_from_u64(42);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..40 {
            let (u, _) = random_longest_path_endpoints(&g, &mut rng).unwrap();
            seen.insert(u);
        }
        assert!(seen.len() > 3, "expected endpoint diversity, saw {seen:?}");
    }
}
