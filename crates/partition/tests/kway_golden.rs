//! Golden owner maps for the multilevel k-way partitioner.
//!
//! Each case pins an FNV-1a digest of the owner map
//! `MultilevelKWay::default().partition` returns. The digests were
//! recorded before the coarsening and refinement internals were
//! rewritten for speed; they prove that the rewrite moved nothing but
//! time. A change that alters any partition on purpose must say so and
//! re-pin them.

use hemelb_geometry::VesselBuilder;
use hemelb_partition::graph::{Connectivity, SiteGraph};
use hemelb_partition::{MultilevelKWay, Partitioner};

/// FNV-1a over the owner map: its length, then each owner as a
/// little-endian `u32`.
fn digest(owner: &[usize]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let len = (owner.len() as u64).to_le_bytes();
    let ids = owner.iter().flat_map(|&o| (o as u32).to_le_bytes());
    for b in len.into_iter().chain(ids) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The aneurysm the partition crate's unit tests use.
fn aneurysm() -> SiteGraph {
    let geo = VesselBuilder::aneurysm(28.0, 4.0, 6.0).voxelise(1.0);
    SiteGraph::from_geometry(&geo, Connectivity::D3Q15)
}

/// The same aneurysm at a finer spacing (~34 k sites), so the
/// partitioner coarsens through about nine levels.
fn aneurysm_fine() -> SiteGraph {
    let geo = VesselBuilder::aneurysm(28.0, 4.0, 6.0).voxelise(0.4);
    SiteGraph::from_geometry(&geo, Connectivity::D3Q15)
}

fn bifurcation_d3q19() -> SiteGraph {
    let geo = VesselBuilder::bifurcation(16.0, 12.0, 3.5, 0.5).voxelise(0.75);
    SiteGraph::from_geometry(&geo, Connectivity::D3Q19)
}

/// The aneurysm with deterministic, non-dyadic vertex weights in
/// [1.0, 1.6], so load sums depend on summation order.
fn aneurysm_weighted() -> SiteGraph {
    let mut g = aneurysm();
    for (v, w) in g.vwgt.iter_mut().enumerate() {
        *w = 1.0 + 0.1 * ((v as u64).wrapping_mul(2_654_435_761) % 7) as f64;
    }
    g
}

/// Vertex 0 joined to every other vertex, no other edges.
fn star(n: usize) -> SiteGraph {
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

fn edgeless(n: usize) -> SiteGraph {
    SiteGraph {
        xadj: vec![0; n + 1],
        adjncy: Vec::new(),
        vwgt: vec![1.0; n],
        vwgt2: None,
        coords: (0..n).map(|v| [v as f64, 0.0, 0.0]).collect(),
    }
}

fn check(cases: &[(&str, &SiteGraph, usize, u64)]) {
    let mut wrong = Vec::new();
    for &(name, g, k, pinned) in cases {
        let got = digest(&MultilevelKWay::default().partition(g, k));
        if got != pinned {
            wrong.push(format!(
                "{name} k={k}: got {got:#018x}, pinned {pinned:#018x}"
            ));
        }
    }
    assert!(wrong.is_empty(), "owner maps moved:\n{}", wrong.join("\n"));
}

#[test]
fn aneurysm_owner_maps_are_pinned() {
    let g = aneurysm();
    check(&[
        ("aneurysm", &g, 2, 0x2fda_817d_4f03_7315),
        ("aneurysm", &g, 3, 0xea98_3d2f_4c61_d905),
        ("aneurysm", &g, 4, 0x7b22_21fe_5170_4835),
        ("aneurysm", &g, 8, 0x015a_69c4_e80f_eb85),
    ]);
}

#[test]
fn fine_aneurysm_owner_maps_are_pinned() {
    let g = aneurysm_fine();
    check(&[
        ("aneurysm-fine", &g, 2, 0x406b_bae3_c049_e118),
        ("aneurysm-fine", &g, 4, 0x06bf_66e6_91c9_02eb),
    ]);
}

#[test]
fn bifurcation_d3q19_owner_maps_are_pinned() {
    let g = bifurcation_d3q19();
    check(&[
        ("bifurcation-d3q19", &g, 3, 0x2cae_fbdf_03b4_7e95),
        ("bifurcation-d3q19", &g, 6, 0x9c4f_21d1_7d67_90c2),
    ]);
}

#[test]
fn weighted_owner_maps_are_pinned() {
    let g = aneurysm_weighted();
    check(&[
        ("aneurysm-weighted", &g, 4, 0x3abb_4a7a_c38e_3697),
        ("aneurysm-weighted", &g, 5, 0x7b7e_45c8_3c3b_3a13),
    ]);
}

#[test]
fn degenerate_owner_maps_are_pinned() {
    let s = star(400);
    let e = edgeless(300);
    check(&[
        ("star", &s, 4, 0xd145_b74f_ae3d_4bcb),
        ("edgeless", &e, 3, 0xb846_8a7d_046b_91ae),
    ]);
}
