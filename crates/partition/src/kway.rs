//! Multilevel k-way graph partitioning — the ParMETIS-family algorithm
//! HemeLB delegates its domain decomposition to.
//!
//! Three phases, exactly as in the METIS literature the paper cites:
//!
//! 1. **Coarsening** by heavy-edge matching until the graph is small.
//!    A coarse vertex has at most two members, so contraction needs no
//!    member lists: each coarse row is gathered through a dense slot
//!    table (METIS's `htable`) and sorted by coarse id.
//! 2. **Initial partitioning** of the coarsest graph by BFS-ordered
//!    weight chunking (a greedy graph-growing variant);
//! 3. **Uncoarsening** with greedy boundary Kernighan–Lin refinement at
//!    every level, under a balance constraint. Each vertex's external
//!    degree (neighbours owned by another part) is kept up to date
//!    across moves, so a pass skips interior vertices in O(1) instead
//!    of scanning their edges. Debug builds check it against a fresh
//!    recount after every pass.
//!
//! The finest level borrows the [`SiteGraph`]'s CSR arrays, with unit
//! edge weights implied rather than stored.
//!
//! **Bit-identity invariant.** All of the above are speed-ups of the
//! plain algorithm (hashed row accumulation, a full edge scan per
//! refinement pass) that keep its visit orders, `f64` summation orders
//! and tie rules, so the owner map is bit-identical to it for every
//! input. The golden digests in `tests/kway_golden.rs` pin the owner
//! maps of a set of graphs; a change that moves one must say why.

use std::borrow::Cow;

use crate::graph::SiteGraph;
use crate::Partitioner;

/// Weighted CSR graph used internally across coarsening levels. The
/// finest level borrows the site graph's arrays; coarser levels own
/// theirs.
#[derive(Debug, Clone)]
struct Level<'g> {
    xadj: Cow<'g, [usize]>,
    adjncy: Cow<'g, [u32]>,
    /// Edge weights, parallel to `adjncy`; `None` means every edge
    /// weighs 1.0 (the finest level).
    adjwgt: Option<Vec<f64>>,
    vwgt: Cow<'g, [f64]>,
    /// Map from this level's vertices to the *next coarser* level.
    coarse_map: Vec<u32>,
}

impl<'g> Level<'g> {
    /// The site graph itself, with unit edge weights.
    fn base(graph: &'g SiteGraph) -> Self {
        Level {
            xadj: Cow::Borrowed(&graph.xadj),
            adjncy: Cow::Borrowed(&graph.adjncy),
            adjwgt: None,
            vwgt: Cow::Borrowed(&graph.vwgt),
            coarse_map: Vec::new(),
        }
    }
    fn len(&self) -> usize {
        self.vwgt.len()
    }
    fn neighbours(&self, v: u32) -> impl Iterator<Item = (u32, f64)> + '_ {
        let r = self.xadj[v as usize]..self.xadj[v as usize + 1];
        r.map(move |e| {
            let w = self.adjwgt.as_ref().map_or(1.0, |w| w[e]);
            (self.adjncy[e], w)
        })
    }
}

/// Deterministic multilevel k-way partitioner.
#[derive(Debug, Clone)]
pub struct MultilevelKWay {
    /// Stop coarsening when at most `coarsen_factor * k` vertices remain.
    pub coarsen_factor: usize,
    /// Maximum refinement passes per level.
    pub refine_passes: usize,
    /// Allowed load imbalance (`max ≤ (1+ε)·mean`).
    pub epsilon: f64,
    /// RNG seed for the matching order.
    pub seed: u64,
}

impl Default for MultilevelKWay {
    fn default() -> Self {
        MultilevelKWay {
            coarsen_factor: 30,
            refine_passes: 8,
            epsilon: 0.05,
            seed: 0x5EED_1234_ABCD,
        }
    }
}

impl MultilevelKWay {
    /// Phase 1: the level hierarchy, finest first, each level's
    /// `coarse_map` pointing into the next.
    ///
    /// Coarsening has an explicit stall guard. Heavy-edge matching makes
    /// no real progress on adversarial topologies — a star graph
    /// collapses only one pair per round, an edgeless graph not at all —
    /// so a level shrinking by less than 5% breaks straight to initial
    /// partitioning + refinement on what we have. Without the guard
    /// such a level could be re-coarsened forever while never
    /// approaching the target size.
    fn coarsen_levels<'g>(&self, graph: &'g SiteGraph, k: usize) -> Vec<Level<'g>> {
        let mut levels = vec![Level::base(graph)];
        let target = (self.coarsen_factor * k).max(64);
        let mut rng = self.seed | 1;
        loop {
            let last = levels.last().expect("nonempty");
            if last.len() <= target {
                break;
            }
            let (coarse, map) = coarsen(last, &mut rng);
            let stalled = coarse.len() >= last.len() * 95 / 100;
            let reached_target = coarse.len() <= target;
            levels.last_mut().expect("nonempty").coarse_map = map;
            levels.push(coarse);
            if stalled || reached_target {
                break;
            }
        }
        levels
    }
}

impl Partitioner for MultilevelKWay {
    fn partition(&self, graph: &SiteGraph, k: usize) -> Vec<usize> {
        assert!(k > 0);
        if k == 1 {
            return vec![0; graph.len()];
        }
        let levels = self.coarsen_levels(graph, k);

        // Phase 2: initial partition of the coarsest level.
        let coarsest = levels.last().expect("nonempty");
        let mut owner = initial_partition(coarsest, k);
        refine(coarsest, &mut owner, k, self.epsilon, self.refine_passes);

        // Phase 3: project back, refining at each level.
        for li in (0..levels.len() - 1).rev() {
            let fine = &levels[li];
            owner = fine.coarse_map.iter().map(|&c| owner[c as usize]).collect();
            refine(fine, &mut owner, k, self.epsilon, self.refine_passes);
        }
        owner
    }

    fn name(&self) -> &'static str {
        "kway"
    }
}

/// xorshift64* step for deterministic tie-breaking.
fn next_rand(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545F4914F6CDD1D)
}

/// Heavy-edge matching coarsening. Returns the coarse level and the
/// fine→coarse map.
fn coarsen<'g>(fine: &Level<'_>, rng: &mut u64) -> (Level<'g>, Vec<u32>) {
    let n = fine.len();
    // Random visit order (Fisher–Yates with the deterministic RNG).
    let mut order: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = (next_rand(rng) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }

    let unmatched = u32::MAX;
    let mut mate = vec![unmatched; n];
    for &v in &order {
        if mate[v as usize] != unmatched {
            continue;
        }
        // Heaviest unmatched neighbour, the first one on ties.
        let mut best: Option<(u32, f64)> = None;
        for (u, w) in fine.neighbours(v) {
            if mate[u as usize] == unmatched && u != v {
                match best {
                    Some((_, bw)) if bw >= w => {}
                    _ => best = Some((u, w)),
                }
            }
        }
        match best {
            Some((u, _)) => {
                mate[v as usize] = u;
                mate[u as usize] = v;
            }
            None => mate[v as usize] = v, // matched with itself
        }
    }
    drop(order);

    // Assign coarse ids in ascending order of each pair's smaller
    // member, so coarse vertex `cv`'s members are `v` and `mate[v]` for
    // the `v` that takes id `cv`.
    let mut coarse_map = vec![u32::MAX; n];
    let mut next_id = 0u32;
    for v in 0..n as u32 {
        if coarse_map[v as usize] != u32::MAX {
            continue;
        }
        coarse_map[v as usize] = next_id;
        coarse_map[mate[v as usize] as usize] = next_id;
        next_id += 1;
    }

    // Build the coarse graph: combine vertex weights, collapse edges.
    let nc = next_id as usize;
    let mut vwgt = vec![0.0f64; nc];
    for v in 0..n {
        vwgt[coarse_map[v] as usize] += fine.vwgt[v];
    }
    // Every fine entry yields at most one coarse entry, and each matched
    // pair drops at least the two (symmetric) entries joining it:
    // reserving that bound means the arrays never regrow, and only the
    // pages written become resident before the tail is released.
    let pairs = n - nc;
    let bound = fine.adjncy.len().saturating_sub(2 * pairs);
    let mut xadj = Vec::with_capacity(nc + 1);
    xadj.push(0usize);
    let mut adjncy: Vec<u32> = Vec::with_capacity(bound);
    let mut adjwgt: Vec<f64> = Vec::with_capacity(bound);
    // Each row is gathered through a dense slot table: `slot[cu]` is
    // `cu`'s index in `keys`/`weights` while the row is being built.
    // Entries appear in traversal order (members ascending, then CSR
    // order), each weight summing from 0.0 in that order; the row is
    // then emitted sorted by coarse id.
    let none = u32::MAX;
    let mut slot = vec![none; nc];
    let mut keys: Vec<u32> = Vec::new();
    let mut weights: Vec<f64> = Vec::new();
    for v in 0..n as u32 {
        let m = mate[v as usize];
        if m < v {
            continue; // the pair's row was built at its smaller member
        }
        let cv = coarse_map[v as usize];
        let pair = [v, m];
        let members = if m == v { &pair[..1] } else { &pair[..] };
        for &x in members {
            for (u, w) in fine.neighbours(x) {
                let cu = coarse_map[u as usize];
                if cu == cv {
                    continue;
                }
                let s = &mut slot[cu as usize];
                if *s == none {
                    *s = keys.len() as u32;
                    keys.push(cu);
                    weights.push(0.0);
                }
                weights[*s as usize] += w;
            }
        }
        keys.sort_unstable();
        for &cu in &keys {
            let s = std::mem::replace(&mut slot[cu as usize], none);
            adjncy.push(cu);
            adjwgt.push(weights[s as usize]);
        }
        keys.clear();
        weights.clear();
        xadj.push(adjncy.len());
    }
    adjncy.shrink_to_fit();
    adjwgt.shrink_to_fit();
    (
        Level {
            xadj: Cow::Owned(xadj),
            adjncy: Cow::Owned(adjncy),
            adjwgt: Some(adjwgt),
            vwgt: Cow::Owned(vwgt),
            coarse_map: Vec::new(),
        },
        coarse_map,
    )
}

/// Initial partition: BFS order from vertex 0 (component by component),
/// chunked by weight.
fn initial_partition(level: &Level<'_>, k: usize) -> Vec<usize> {
    let n = level.len();
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    for start in 0..n as u32 {
        if seen[start as usize] {
            continue;
        }
        let mut queue = std::collections::VecDeque::from([start]);
        seen[start as usize] = true;
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for (u, _) in level.neighbours(v) {
                if !seen[u as usize] {
                    seen[u as usize] = true;
                    queue.push_back(u);
                }
            }
        }
    }
    let total: f64 = level.vwgt.iter().sum();
    let target = total / k as f64;
    let mut owner = vec![0usize; n];
    let mut current = 0usize;
    let mut acc = 0.0;
    for &v in &order {
        owner[v as usize] = current;
        acc += level.vwgt[v as usize];
        if current + 1 < k && acc >= target * (current as f64 + 1.0) {
            current += 1;
        }
    }
    owner
}

/// Greedy boundary KL refinement under a balance constraint: up to
/// `max_passes` passes over the vertices in ascending order, moving
/// each boundary vertex to the adjacent part of best gain when that
/// keeps the balance.
fn refine(level: &Level<'_>, owner: &mut [usize], k: usize, epsilon: f64, max_passes: usize) {
    let n = level.len();
    let total: f64 = level.vwgt.iter().sum();
    let mean = total / k as f64;
    let max_load = mean * (1.0 + epsilon);
    let mut loads = vec![0.0f64; k];
    for (&o, &w) in owner.iter().zip(level.vwgt.iter()) {
        loads[o] += w;
    }
    // `ext[v]`: neighbours of `v` owned by a part other than `v`'s,
    // kept exact across moves.
    let mut ext = external_degrees(level, owner);
    let mut link = vec![0.0f64; k];
    let mut touched: Vec<usize> = Vec::with_capacity(8);
    for _pass in 0..max_passes {
        let mut moves = 0usize;
        for v in 0..n as u32 {
            if ext[v as usize] == 0 {
                continue; // not a boundary vertex
            }
            let src = owner[v as usize];
            // Weight of edges into each adjacent part.
            touched.clear();
            let mut internal = 0.0;
            for (u, w) in level.neighbours(v) {
                let ou = owner[u as usize];
                if ou == src {
                    internal += w;
                } else {
                    if link[ou] == 0.0 {
                        touched.push(ou);
                    }
                    link[ou] += w;
                }
            }
            // Best destination by gain, then by load (deterministic).
            let w_v = level.vwgt[v as usize];
            let mut best: Option<(usize, f64)> = None;
            for &dst in &touched {
                let gain = link[dst] - internal;
                if loads[dst] + w_v > max_load {
                    continue;
                }
                let better = match best {
                    None => gain > 0.0 || (gain == 0.0 && loads[dst] + w_v < loads[src]),
                    Some((bd, bg)) => gain > bg || (gain == bg && loads[dst] < loads[bd]),
                };
                if better {
                    best = Some((dst, gain));
                }
            }
            for &t in &touched {
                link[t] = 0.0;
            }
            if let Some((dst, gain)) = best {
                // Do not empty the source part.
                if loads[src] - w_v <= 0.0 {
                    continue;
                }
                if gain > 0.0 || (gain == 0.0 && loads[dst] + w_v < loads[src]) {
                    owner[v as usize] = dst;
                    loads[src] -= w_v;
                    loads[dst] += w_v;
                    moves += 1;
                    // `v` now borders every neighbour outside `dst`;
                    // its neighbours in `src` gain an external
                    // neighbour, those in `dst` lose one.
                    let mut in_dst = 0;
                    for (u, _) in level.neighbours(v) {
                        let ou = owner[u as usize];
                        if ou == src {
                            ext[u as usize] += 1;
                        } else if ou == dst {
                            ext[u as usize] -= 1;
                            in_dst += 1;
                        }
                    }
                    let degree = level.xadj[v as usize + 1] - level.xadj[v as usize];
                    ext[v as usize] = degree as u32 - in_dst;
                }
            }
        }
        debug_assert_eq!(ext, external_degrees(level, owner), "ext drifted");
        if moves == 0 {
            break;
        }
    }
}

/// Number of neighbours of each vertex owned by another part.
fn external_degrees(level: &Level<'_>, owner: &[usize]) -> Vec<u32> {
    (0..level.len() as u32)
        .map(|v| {
            let src = owner[v as usize];
            level
                .neighbours(v)
                .filter(|&(u, _)| owner[u as usize] != src)
                .count() as u32
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Connectivity;
    use crate::metrics::quality;
    use crate::SiteGraph;
    use hemelb_geometry::VesselBuilder;

    fn demo_graph() -> SiteGraph {
        let geo = VesselBuilder::aneurysm(28.0, 4.0, 6.0).voxelise(1.0);
        SiteGraph::from_geometry(&geo, Connectivity::D3Q15)
    }

    #[test]
    fn kway_respects_balance_constraint() {
        let g = demo_graph();
        for k in [2, 4, 8] {
            let owner = MultilevelKWay::default().partition(&g, k);
            let q = quality(&g, &owner, k);
            assert!(
                q.imbalance <= 1.0 + 0.05 + 1e-9,
                "k={k} imbalance {}",
                q.imbalance
            );
        }
    }

    #[test]
    fn kway_is_deterministic() {
        let g = demo_graph();
        let a = MultilevelKWay::default().partition(&g, 4);
        let b = MultilevelKWay::default().partition(&g, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn kway_beats_random_assignment_on_cut() {
        let g = demo_graph();
        let k = 4;
        let owner = MultilevelKWay::default().partition(&g, k);
        let q = quality(&g, &owner, k);
        // Random assignment cuts ~ (1 - 1/k) of all edges.
        let total_edges = (g.directed_edge_count() / 2) as f64;
        let random_cut = total_edges * (1.0 - 1.0 / k as f64);
        assert!(
            (q.edge_cut as f64) < random_cut / 4.0,
            "cut {} vs random {}",
            q.edge_cut,
            random_cut
        );
    }

    #[test]
    fn refinement_never_worsens_cut() {
        let g = demo_graph();
        let k = 4;
        let level = Level::base(&g);
        let mut owner = initial_partition(&level, k);
        let before = quality(&g, &owner, k).edge_cut;
        refine(&level, &mut owner, k, 0.05, 8);
        let after = quality(&g, &owner, k).edge_cut;
        assert!(after <= before, "refine worsened cut: {before} -> {after}");
    }

    #[test]
    fn coarsening_preserves_total_weight() {
        let g = demo_graph();
        let level = Level::base(&g);
        let mut rng = 42u64;
        let (coarse, map) = coarsen(&level, &mut rng);
        assert!(coarse.len() < level.len());
        assert!(coarse.len() >= level.len() / 2, "matching halves at most");
        let fine_w: f64 = level.vwgt.iter().sum();
        let coarse_w: f64 = coarse.vwgt.iter().sum();
        assert!((fine_w - coarse_w).abs() < 1e-9);
        assert!(map.iter().all(|&c| (c as usize) < coarse.len()));
    }

    /// A level as a `SiteGraph`, for its structural checks.
    fn as_site_graph(level: &Level<'_>) -> SiteGraph {
        SiteGraph {
            xadj: level.xadj.to_vec(),
            adjncy: level.adjncy.to_vec(),
            vwgt: level.vwgt.to_vec(),
            vwgt2: None,
            coords: vec![[0.0; 3]; level.len()],
        }
    }

    #[test]
    fn every_coarse_level_is_valid_and_keeps_its_weights() {
        let mut weighted = demo_graph();
        for (v, w) in weighted.vwgt.iter_mut().enumerate() {
            *w = 1.0 + (v % 3) as f64;
        }
        for g in [demo_graph(), weighted] {
            let levels = MultilevelKWay::default().coarsen_levels(&g, 2);
            assert!(levels.len() >= 4, "only {} levels", levels.len());
            for (li, pair) in levels.windows(2).enumerate() {
                let (fine, coarse) = (&pair[0], &pair[1]);
                as_site_graph(coarse)
                    .validate()
                    .unwrap_or_else(|e| panic!("level {}: {e}", li + 1));
                let weights = coarse.adjwgt.as_ref().expect("coarse levels carry weights");
                assert_eq!(weights.len(), coarse.adjncy.len());
                for v in 0..coarse.len() {
                    let row = &coarse.adjncy[coarse.xadj[v]..coarse.xadj[v + 1]];
                    assert!(row.windows(2).all(|p| p[0] < p[1]), "row {v} unsorted");
                }
                // Vertex weights and the weight of edges between distinct
                // coarse vertices are conserved (all sums are of small
                // integers, so exact).
                let fine_w: f64 = fine.vwgt.iter().sum();
                let coarse_w: f64 = coarse.vwgt.iter().sum();
                assert_eq!(fine_w, coarse_w, "level {}", li + 1);
                let mut cross = 0.0;
                for v in 0..fine.len() as u32 {
                    for (u, w) in fine.neighbours(v) {
                        if fine.coarse_map[v as usize] != fine.coarse_map[u as usize] {
                            cross += w;
                        }
                    }
                }
                assert_eq!(cross, weights.iter().sum::<f64>(), "level {}", li + 1);
            }
        }
    }

    /// A star: vertex 0 joined to every other vertex, no other edges.
    /// Heavy-edge matching collapses exactly one pair per round (the hub
    /// and one spoke; every other spoke's only neighbour is then
    /// matched), the worst case for coarsening progress.
    fn star_graph(n: usize) -> SiteGraph {
        let mut xadj = vec![0usize];
        let mut adjncy = Vec::new();
        for v in 0..n {
            if v == 0 {
                adjncy.extend(1..n as u32);
            } else {
                adjncy.push(0);
            }
            xadj.push(adjncy.len());
        }
        SiteGraph {
            xadj,
            adjncy,
            vwgt: vec![1.0; n],
            vwgt2: None,
            coords: (0..n).map(|v| [v as f64, 0.0, 0.0]).collect(),
        }
    }

    #[test]
    fn coarsening_terminates_on_a_star_graph() {
        // Stall-guard regression: matching shrinks a star by one vertex
        // per level, so coarsening can never reach the target size; the
        // progress guard must break to refinement instead of spinning.
        let g = star_graph(400);
        let owner = MultilevelKWay::default().partition(&g, 4);
        assert_eq!(owner.len(), 400);
        assert!(owner.iter().all(|&o| o < 4));
        let q = quality(&g, &owner, 4);
        assert!(q.imbalance < 1.5, "imbalance {}", q.imbalance);
    }

    #[test]
    fn coarsening_terminates_on_an_edgeless_graph() {
        // Every vertex self-matches, so a level does not shrink at all —
        // the zero-progress extreme of the stall case.
        let n = 300;
        let g = SiteGraph {
            xadj: vec![0; n + 1],
            adjncy: Vec::new(),
            vwgt: vec![1.0; n],
            vwgt2: None,
            coords: (0..n).map(|v| [v as f64, 0.0, 0.0]).collect(),
        };
        let owner = MultilevelKWay::default().partition(&g, 3);
        assert_eq!(owner.len(), n);
        assert!(owner.iter().all(|&o| o < 3));
        let q = quality(&g, &owner, 3);
        assert!(
            (q.imbalance - 1.0).abs() < 0.05,
            "imbalance {}",
            q.imbalance
        );
        assert_eq!(q.edge_cut, 0);
    }

    #[test]
    fn k_equals_one_short_circuits() {
        let g = demo_graph();
        let owner = MultilevelKWay::default().partition(&g, 1);
        assert!(owner.iter().all(|&o| o == 0));
    }
}
