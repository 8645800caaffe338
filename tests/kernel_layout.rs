//! Kernel-layout equivalence suite: the production SoA fluid-site list
//! (serial `Solver` and chunk-parallel `ParallelSolver`) must be
//! **bit-identical** to the site-major reference oracle — per field, per
//! step — over random geometries × velocity sets × collision operators
//! × boundary-condition families. Checkpoints written mid-run must
//! restore and continue on the oracle's uninterrupted trajectory, and a
//! single corrupted streaming-index entry must break the golden digest
//! (the negative control that the digests actually watch the streaming
//! table).

mod common;

use hemelb::core::collision::CollisionKind;
use hemelb::core::reference::ReferenceSolver;
use hemelb::core::solver::ModelKind;
use hemelb::core::{ParallelSolver, Solver, SolverConfig};
use hemelb::geometry::{SparseGeometry, VesselBuilder};
use proptest::prelude::*;
use std::sync::Arc;

/// Step the oracle, the serial solver and a 3-thread parallel solver
/// together, asserting full bit equality of the distribution array and
/// of every macroscopic field after *each* step (not just at the end —
/// divergence must be caught at the step it first appears).
fn assert_lockstep_equal(
    geo: &Arc<SparseGeometry>,
    cfg: &SolverConfig,
    steps: u64,
    ctx: &dyn std::fmt::Debug,
) -> Result<(), TestCaseError> {
    let mut oracle = ReferenceSolver::new(geo.clone(), cfg.clone());
    let mut serial = Solver::new(geo.clone(), cfg.clone());
    let mut par = ParallelSolver::new(geo.clone(), cfg.clone(), 3);
    for step in 1..=steps {
        oracle.step_n(1);
        serial.step_n(1);
        par.step_n(1);
        let want_f = oracle.raw_distributions();
        let want_snap = common::snapshot_digests(&oracle.snapshot());
        for (name, f, snap) in [
            ("Solver", serial.raw_distributions(), serial.snapshot()),
            ("ParallelSolver(3)", par.raw_distributions(), par.snapshot()),
        ] {
            prop_assert!(
                common::bits_eq(want_f, &f),
                "{name} f diverged from the oracle at step {step} for {ctx:?}"
            );
            prop_assert_eq!(
                want_snap,
                common::snapshot_digests(&snap),
                "{} (rho,u,shear) diverged at step {} for {:?}",
                name,
                step,
                ctx
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random geometries × {D3Q15, D3Q19} × {BGK, TRT, MRT} ×
    /// {pressure, velocity}: oracle == Solver == ParallelSolver(3) by
    /// `to_bits`, per field, per step.
    #[test]
    fn layouts_agree_bitwise_per_step(case in common::case_strategy()) {
        let geo = case.geo.build();
        assert_lockstep_equal(&geo, &case.config(), 12, &case)?;
    }
}

/// Exhaustive operator sweep the random cases only sample: both velocity
/// sets × three collision operators × both BC families, on a cylinder
/// and a porous block, oracle and SoA solvers bit-identical every step.
#[test]
fn layouts_agree_across_all_operator_combinations() {
    let geos = [
        common::GeoSpec::Cylinder {
            len: 10.0,
            radius: 2.5,
        },
        common::GeoSpec::Porous {
            nx: 7,
            ny: 5,
            nz: 5,
            seed: 42,
        },
    ];
    for geo_spec in &geos {
        let geo = geo_spec.build();
        for model in [ModelKind::D3Q15, ModelKind::D3Q19] {
            for collision in [
                CollisionKind::Bgk,
                CollisionKind::trt_magic(),
                CollisionKind::Mrt { omega_ghost: 1.2 },
            ] {
                for velocity_inlet in [false, true] {
                    let case = common::CaseSpec {
                        geo: geo_spec.clone(),
                        model,
                        collision,
                        velocity_inlet,
                    };
                    assert_lockstep_equal(&geo, &case.config(), 10, &case).unwrap();
                }
            }
        }
    }
}

/// Mid-run checkpoint/restore: state written by the SoA solver at step
/// 10 restores into a fresh serial solver and into a thread-parallel one
/// and both continue on exactly the oracle's uninterrupted trajectory.
#[test]
fn checkpoint_round_trips_across_layouts_mid_run() {
    let geo = Arc::new(VesselBuilder::aneurysm(12.0, 2.5, 3.5).voxelise(1.0));
    let cfg = SolverConfig::pressure_driven(1.005, 0.995);
    let dir = std::env::temp_dir().join(format!("hlb_layout_chkp_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Uninterrupted 20-step reference on the oracle.
    let mut oracle = ReferenceSolver::new(geo.clone(), cfg.clone());
    oracle.step_n(20);
    let want = oracle.raw_distributions();

    let path = dir.join("mid_run.chkp");
    let mut w = Solver::new(geo.clone(), cfg.clone());
    w.step_n(10);
    w.checkpoint(&path).unwrap();

    let mut serial = Solver::new(geo.clone(), cfg.clone());
    serial.restore(&path).unwrap();
    assert_eq!(serial.step_count(), 10, "restored step count");
    let mut restored = Solver::new(geo.clone(), cfg.clone());
    restored.restore(&path).unwrap();
    let mut par = ParallelSolver::from_solver(restored, 3);
    serial.step_n(10);
    par.step_n(10);
    for (name, f) in [
        ("Solver", serial.raw_distributions()),
        ("ParallelSolver(3)", par.raw_distributions()),
    ] {
        assert!(
            common::bits_eq(want, &f),
            "checkpoint at step 10 + 10 more steps under {name} diverged from the \
             uninterrupted oracle run"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Negative control for the golden fixtures: swapping one pair of
/// streaming-index entries (a single-direction source mix-up between two
/// sites) must change the blessed `f` digest of the
/// `cylinder_bgk_pressure_d3q15` case. If this test ever passes with an
/// *unchanged* digest, the fixtures have stopped watching the streaming
/// table.
#[test]
fn corrupted_streaming_index_fails_golden_digest() {
    let geo = Arc::new(VesselBuilder::straight_tube(12.0, 3.0).voxelise(1.0));
    let cfg = SolverConfig::pressure_driven(1.01, 0.99);
    let fixture = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/cylinder_bgk_pressure_d3q15.txt");
    let blessed = std::fs::read_to_string(&fixture)
        .expect("golden fixture must exist (GOLDEN_BLESS=1 cargo test --test golden)");
    let blessed_f = blessed
        .lines()
        .find_map(|l| l.strip_prefix("f="))
        .expect("fixture has an f= digest line")
        .to_string();

    let mut solver = Solver::new(geo.clone(), cfg);
    // Find a swappable pair: distinct sources for the same non-rest
    // direction at two different lattice positions.
    let n = geo.fluid_count();
    let q = solver.model().q;
    let mut swapped = false;
    'search: for dir in 1..q {
        for b in 1..n {
            if geo.position(0) != geo.position(b as u32)
                && solver.debug_swap_stream_entries(dir, 0, b)
            {
                swapped = true;
                break 'search;
            }
        }
    }
    assert!(swapped, "no swappable streaming-index pair found");
    solver.step_n(50);
    let got_f = format!(
        "{:016x}",
        common::fnv1a_bits(solver.raw_distributions().iter().copied())
    );
    assert_ne!(
        got_f, blessed_f,
        "a corrupted streaming index reproduced the blessed f digest — \
         the golden fixtures are not sensitive to the streaming table"
    );
}

/// Long SoA soak: 500 steps; the oracle, the serial solver and the
/// solver at 8 threads must all stay bit-identical. Run with
/// `cargo test --test kernel_layout -- --ignored` (nightly ci.sh soak).
#[test]
#[ignore = "long soak; run via cargo test -- --ignored"]
fn soak_500_steps_soa_bit_exact() {
    let geo = Arc::new(VesselBuilder::aneurysm(14.0, 3.0, 4.0).voxelise(1.0));
    let cfg = SolverConfig::pressure_driven(1.005, 0.995);
    let mut oracle = ReferenceSolver::new(geo.clone(), cfg.clone());
    let mut serial = Solver::new(geo.clone(), cfg.clone());
    let mut par = ParallelSolver::new(geo, cfg, 8);
    oracle.step_n(500);
    serial.step_n(500);
    par.step_n(500);
    assert!(
        common::bits_eq(oracle.raw_distributions(), &serial.raw_distributions()),
        "serial SoA solver diverged from the oracle after 500 steps"
    );
    assert!(
        common::bits_eq(oracle.raw_distributions(), &par.raw_distributions()),
        "8-thread soak diverged from the oracle after 500 steps"
    );
}
