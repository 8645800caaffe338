//! The adaptive driver calibrates its cost model from measured window
//! timings of a real 2-rank run.
//!
//! The fit reads wall-clock timings, so this test lives in a binary of
//! its own: the test harness runs it alone, with no sibling test
//! competing for the cores it is timing.

use hemelb_core::{DistSolver, SolverConfig};
use hemelb_geometry::VesselBuilder;
use hemelb_parallel::run_spmd;
use hemelb_partition::AdaptiveLbConfig;
use hemelb_steering::AdaptiveDriver;
use std::sync::Arc;

#[test]
fn driver_self_calibrates_from_window_measurements() {
    let geo = Arc::new(VesselBuilder::straight_tube(16.0, 3.0).voxelise(1.0));
    let geo2 = geo.clone();
    let results = run_spmd(2, move |comm| {
        let owner: Vec<usize> = (0..geo2.fluid_count() as u32)
            .map(|s| {
                (geo2.position(s)[0] as usize * comm.size() / geo2.shape()[0]).min(comm.size() - 1)
            })
            .collect();
        let cfg = SolverConfig::pressure_driven(1.005, 0.995);
        let mut ds = DistSolver::new(geo2.clone(), owner, cfg, comm).unwrap();
        let mut driver = AdaptiveDriver::new(&geo2, AdaptiveLbConfig::default());
        assert!(!driver.is_calibrated());
        let preset = *driver.pricing_model();
        // A few windows of real stepping provide both pure-compute
        // and pure-comm samples; the fit should become usable.
        for _ in 0..4 {
            ds.step_n(10).unwrap();
            driver.end_window(comm, &mut ds, 10, 100).unwrap();
        }
        let calibrated = driver.is_calibrated();
        let model = *driver.pricing_model();
        (calibrated, preset, model)
    });
    for (calibrated, preset, model) in &results {
        assert!(
            *calibrated,
            "driver never produced a usable calibrated model"
        );
        // The fitted model is usable and is not the fallback preset.
        assert!(model.gamma.is_finite() && model.gamma > 0.0);
        assert!(model.beta.is_finite() && model.beta > 0.0);
        assert!(model.alpha.is_finite() && model.alpha >= 0.0);
        assert!(
            (model.alpha, model.beta, model.gamma) != (preset.alpha, preset.beta, preset.gamma),
            "calibrated model identical to the preset — fit never took over"
        );
    }
    // Collective consistency: the fit is a pure function of the
    // all-reduced inputs, so both ranks hold bit-identical models.
    let (_, _, m0) = &results[0];
    let (_, _, m1) = &results[1];
    assert_eq!(m0.alpha.to_bits(), m1.alpha.to_bits());
    assert_eq!(m0.beta.to_bits(), m1.beta.to_bits());
    assert_eq!(m0.gamma.to_bits(), m1.gamma.to_bits());
}
