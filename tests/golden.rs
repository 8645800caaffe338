//! Golden regression fixtures: tiny deterministic runs whose per-field
//! bit-pattern checksums are pinned under `tests/golden/`.
//!
//! Any change to the collide/stream arithmetic — even a one-ULP
//! reordering — changes a digest and fails the suite. To re-bless after
//! an *intentional* numerical change:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test --test golden
//! ```
//!
//! Each case is run on the site-major reference oracle, the production
//! SoA `Solver` and the chunk-parallel `ParallelSolver`; all must match
//! the *same* fixture, which pins the bit-exact determinism contract to
//! stored bytes. (The fixtures were blessed against the site-major
//! kernels and have never changed since, so they still certify the
//! original arithmetic.)

mod common;

use hemelb::core::collision::CollisionKind;
use hemelb::core::reference::ReferenceSolver;
use hemelb::core::solver::ModelKind;
use hemelb::core::{FieldSnapshot, ParallelSolver, Solver, SolverConfig};
use hemelb::geometry::VesselBuilder;
use std::path::PathBuf;
use std::sync::Arc;

struct GoldenCase {
    name: &'static str,
    steps: u64,
    build: fn() -> (Arc<hemelb::geometry::SparseGeometry>, SolverConfig),
}

const CASES: &[GoldenCase] = &[
    GoldenCase {
        name: "cylinder_bgk_pressure_d3q15",
        steps: 50,
        build: || {
            (
                Arc::new(VesselBuilder::straight_tube(12.0, 3.0).voxelise(1.0)),
                SolverConfig::pressure_driven(1.01, 0.99),
            )
        },
    },
    GoldenCase {
        name: "aneurysm_trt_velocity_d3q19",
        steps: 50,
        build: || {
            (
                Arc::new(VesselBuilder::aneurysm(12.0, 2.5, 3.5).voxelise(1.0)),
                SolverConfig::velocity_driven(0.03)
                    .with_model(ModelKind::D3Q19)
                    .with_collision(CollisionKind::trt_magic()),
            )
        },
    },
    GoldenCase {
        name: "porous_mrt_pressure_d3q15",
        steps: 50,
        build: || {
            let spec = common::GeoSpec::Porous {
                nx: 8,
                ny: 6,
                nz: 6,
                seed: 7,
            };
            (
                spec.build(),
                SolverConfig::pressure_driven(1.005, 0.995)
                    .with_collision(CollisionKind::Mrt { omega_ghost: 1.2 }),
            )
        },
    },
];

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

/// Digest lines for one finished run: per-field checksums plus the raw
/// distribution array, all over IEEE-754 bit patterns.
fn digest_lines(snap: &FieldSnapshot, f: &[f64], steps: u64) -> String {
    let (rho, u, shear) = common::snapshot_digests(snap);
    let f = common::fnv1a_bits(f.iter().copied());
    format!("steps={steps}\nrho={rho:016x}\nu={u:016x}\nshear={shear:016x}\nf={f:016x}\n")
}

fn run_case(case: &GoldenCase) {
    let (geo, cfg) = (case.build)();

    // The site-major oracle is the reference the fixtures were blessed
    // against.
    let mut oracle = ReferenceSolver::new(geo.clone(), cfg.clone());
    oracle.step_n(case.steps);
    let got = digest_lines(&oracle.snapshot(), oracle.raw_distributions(), case.steps);

    // The production solver must reproduce the oracle bit-for-bit.
    let mut solver = Solver::new(geo.clone(), cfg.clone());
    solver.step_n(case.steps);
    assert_eq!(
        got,
        digest_lines(&solver.snapshot(), &solver.raw_distributions(), case.steps),
        "{}: Solver diverged from the oracle",
        case.name
    );

    // The parallel solver must produce the *same* fixture.
    let mut par = ParallelSolver::new(geo, cfg, 3);
    par.step_n(case.steps);
    let got_par = digest_lines(&par.snapshot(), &par.raw_distributions(), case.steps);
    assert_eq!(
        got, got_par,
        "{}: parallel kernel diverged from serial",
        case.name
    );

    let path = fixture_path(case.name);
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: missing fixture {} ({e}); run GOLDEN_BLESS=1 cargo test --test golden",
            case.name,
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "{}: digests changed — if the numerical change is intentional, re-bless with \
         GOLDEN_BLESS=1 cargo test --test golden",
        case.name
    );
}

#[test]
fn golden_cylinder_bgk_pressure_d3q15() {
    run_case(&CASES[0]);
}

#[test]
fn golden_aneurysm_trt_velocity_d3q19() {
    run_case(&CASES[1]);
}

#[test]
fn golden_porous_mrt_pressure_d3q15() {
    run_case(&CASES[2]);
}

/// Long soak: 500 steps at 8 threads must stay bit-identical to serial.
/// Run with `cargo test --test golden -- --ignored` (wired into ci.sh).
#[test]
#[ignore = "long soak; run via cargo test -- --ignored"]
fn soak_500_steps_8_threads_bit_exact() {
    let geo = Arc::new(VesselBuilder::aneurysm(14.0, 3.0, 4.0).voxelise(1.0));
    let cfg = SolverConfig::pressure_driven(1.005, 0.995);
    let mut serial = Solver::new(geo.clone(), cfg.clone());
    let mut par = ParallelSolver::new(geo, cfg, 8);
    serial.step_n(500);
    par.step_n(500);
    assert!(
        common::bits_eq(&serial.raw_distributions(), &par.raw_distributions()),
        "8-thread soak diverged from serial after 500 steps"
    );
}
