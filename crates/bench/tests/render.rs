//! The E13 render comparison end to end: the macrocell-accelerated
//! march against the naive one, and sparse against dense compositing.
//!
//! "Faster" is a wall-clock comparison, so this test lives in a binary
//! of its own: the test harness runs it alone, with no sibling test
//! competing for the cores it is timing.

use hemelb_bench::render::run;
use hemelb_bench::workloads::Size;
use hemelb_obs::ObsReport;

#[test]
fn accelerated_render_is_faster_and_exact() {
    // Small, not Tiny: at Tiny scale the brick is only ~24
    // macrocells and the 8^3 grid is too coarse to expose the
    // empty cross-section corridors the skip optimisation targets.
    let r = run(Size::Small, 2, 160, 120);
    assert!(r.bit_identical, "macrocell render must match naive");
    assert!(r.stats.samples_skipped > 0, "aneurysm box must skip");
    assert!(r.skippable_frac > 0.0);
    assert!(
        r.accel_secs < r.naive_secs,
        "macrocell skipping must win on the aneurysm: {} vs {}",
        r.accel_secs,
        r.naive_secs
    );
    assert!(
        r.composite_wire > 0 && r.composite_wire < r.composite_dense,
        "sparse compositing must beat dense: {} vs {}",
        r.composite_wire,
        r.composite_dense
    );
    // The JSON export round-trips through the obs codec.
    let back = ObsReport::from_json(&r.report.to_json()).expect("valid JSON");
    assert_eq!(back.counters["render.bit_identical"], 1);
}
