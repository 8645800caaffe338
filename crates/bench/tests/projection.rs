//! The E20 projection run end to end: calibrate the cost model on
//! measured worlds, validate it against them and project the scale-out
//! curves.
//!
//! The validation band compares wall-clock measurements with the
//! model's predictions, so this test lives in a binary of its own: the
//! test harness runs it alone, with no sibling test competing for the
//! cores it is timing.

use hemelb_bench::projection::{run, KEEP, PROJECTED_RANKS};
use hemelb_bench::workloads::{self, Size};

#[test]
fn projection_calibrates_validates_and_scales_out() {
    let result = run(Size::Tiny, 3, 4);
    // The fit consumed every world's rounds.
    assert!(result.calibration.samples >= 3 * KEEP);
    assert!(result.model.gamma.is_finite() && result.model.gamma > 0.0);
    // Validation covered the multi-rank worlds and passed (run()
    // itself asserts the band; this pins the export flag).
    assert_eq!(result.validation.len(), 2, "worlds at 2 and 4 ranks");
    assert!(result.within_band);
    // Scale-out curves: one row per projected rank count, with
    // compute falling and direct-send compositing rising in P.
    assert_eq!(result.curves.len(), PROJECTED_RANKS.len());
    for pair in result.curves.windows(2) {
        assert!(pair[1].compute_secs < pair[0].compute_secs);
        // α ≥ 0, so direct-send can only grow with P (flat when the
        // calibrated latency came out zero).
        assert!(pair[1].composite_direct_secs >= pair[0].composite_direct_secs);
    }
    for c in &result.curves {
        // Overlap can only hide cost, never add it.
        assert!(c.halo_overlap_secs <= c.halo_sync_secs + 1e-15);
        assert!(
            c.step_secs(true, false) <= c.step_secs(false, false) + 1e-15,
            "overlapped schedule cannot cost more than synchronous"
        );
        assert!(c.composite_direct_secs > 0.0 && c.composite_swap_secs > 0.0);
    }
    assert!(workloads::out_dir().join("BENCH_projection.json").exists());
}
