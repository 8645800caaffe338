//! Experiment E16 — kernel memory-layout ablation: the production SoA
//! fluid-site list with its chunked-lane (SIMD-style) BGK collision
//! against the site-major two-buffer oracle, on the standard aneurysm
//! workload.
//!
//! The co-design claim being measured: the lattice-Boltzmann inner loop
//! is memory-bound, so a structure-of-arrays walk (one contiguous lane
//! per velocity direction, streaming resolved through a precomputed
//! index table, boundary work hoisted out of the bulk loop) buys
//! site-updates/sec *without* touching the arithmetic — the production
//! solver is bit-identical to the oracle, which the run re-verifies
//! inline. The oracle row keeps its historical name, `legacy`.
//!
//! Methodology: both solvers stepped in interleaved rounds (oracle
//! steps, then the SoA solver, repeat), best-of-`reps` per-step time
//! kept per row, so cache warm-up and machine noise hit both alike.
//! Results export to `out/BENCH_kernel.json`.

use crate::workloads::{self, Size};
use hemelb_core::reference::ReferenceSolver;
use hemelb_core::{Solver, SolverConfig};
use hemelb_obs::Recorder;
use std::fmt;
use std::time::Instant;

/// Row names in reporting order: the site-major oracle, then the
/// production SoA solver.
const ROWS: [&str; 2] = ["legacy", "soa-simd"];

/// One layout measurement.
#[derive(Debug, Clone)]
pub struct LayoutRow {
    /// "legacy" (the site-major oracle) or "soa-simd".
    pub layout: &'static str,
    /// Best-of-`reps` wall seconds per LB step.
    pub seconds_per_step: f64,
    /// Fluid-site updates per second at that rate.
    pub site_updates_per_sec: f64,
    /// Throughput relative to the legacy row.
    pub speedup_vs_legacy: f64,
    /// Whether the final distributions matched the oracle bit-for-bit.
    pub bit_identical: bool,
}

/// The E16 result.
pub struct KernelResult {
    /// Fluid sites in the workload.
    pub sites: usize,
    /// Steps per timed round.
    pub steps: u64,
    /// Timed rounds per row (best kept).
    pub reps: usize,
    /// Fraction of sites on the branch-free bulk path of the SoA
    /// streaming table.
    pub bulk_fraction: f64,
    /// One row per solver.
    pub rows: Vec<LayoutRow>,
}

/// Run E16: interleaved best-of-5 timing of the oracle and the SoA
/// solver on the standard aneurysm, with inline bit-identity
/// verification.
pub fn run(size: Size, steps: u64) -> KernelResult {
    let geo = workloads::aneurysm(size);
    let cfg = SolverConfig::pressure_driven(1.005, 0.995);
    let sites = geo.fluid_count();

    let mut oracle = ReferenceSolver::new(geo.clone(), cfg.clone());
    let mut solver = Solver::new(geo, cfg);
    let bulk_fraction = solver.bulk_fraction();

    // Warm-up round (untimed): touches every lane and settles the flow
    // off the uniform initial state.
    oracle.step_n(steps.min(5));
    solver.step_n(steps.min(5));

    // Interleaved best-of-`reps`: every round steps each solver once,
    // so thermal/cache drift cannot favour whichever ran last.
    let reps = 5usize;
    let per_step = |t0: Instant| t0.elapsed().as_secs_f64() / steps as f64;
    let mut best = [f64::INFINITY; ROWS.len()];
    for _ in 0..reps {
        let t0 = Instant::now();
        oracle.step_n(steps);
        best[0] = best[0].min(per_step(t0));
        let t0 = Instant::now();
        solver.step_n(steps);
        best[1] = best[1].min(per_step(t0));
    }

    // Inline bit-identity: both solvers have taken the same total step
    // count, so their states must agree exactly.
    let soa_identical = solver
        .raw_distributions()
        .iter()
        .zip(oracle.raw_distributions())
        .all(|(a, b)| a.to_bits() == b.to_bits());
    let rows: Vec<LayoutRow> = ROWS
        .iter()
        .zip([true, soa_identical])
        .enumerate()
        .map(|(k, (&name, bit_identical))| LayoutRow {
            layout: name,
            seconds_per_step: best[k],
            site_updates_per_sec: sites as f64 / best[k],
            speedup_vs_legacy: best[0] / best[k],
            bit_identical,
        })
        .collect();

    // Export through the obs codec.
    let mut rec = Recorder::new();
    for row in &rows {
        rec.record_secs(&format!("kernel.{}.step", row.layout), row.seconds_per_step);
        rec.count(
            &format!("kernel.{}.site_updates_per_sec", row.layout),
            row.site_updates_per_sec as u64,
        );
        rec.count(
            &format!("kernel.{}.bit_identical", row.layout),
            u64::from(row.bit_identical),
        );
    }
    rec.count("kernel.sites", sites as u64);
    rec.count("kernel.bulk_permille", (bulk_fraction * 1000.0) as u64);
    let path = workloads::out_dir().join("BENCH_kernel.json");
    std::fs::write(&path, rec.report().to_json()).expect("BENCH_kernel.json written");

    KernelResult {
        sites,
        steps,
        reps,
        bulk_fraction,
        rows,
    }
}

impl fmt::Display for KernelResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Kernel memory-layout ablation — {} sites, {} steps/round, best of {} \
             interleaved rounds",
            self.sites, self.steps, self.reps
        )?;
        writeln!(
            f,
            "bulk (all-local-links) fraction of the SoA streaming table: {:.1}%",
            self.bulk_fraction * 100.0
        )?;
        writeln!(
            f,
            "{:<12} {:>12} {:>16} {:>9} {:>10}",
            "layout", "ms/step", "site-updates/s", "speedup", "bit-exact"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<12} {:>12.3} {:>16.0} {:>8.2}x {:>10}",
                r.layout,
                r.seconds_per_step * 1e3,
                r.site_updates_per_sec,
                r.speedup_vs_legacy,
                r.bit_identical,
            )?;
        }
        writeln!(f, "JSON: out/BENCH_kernel.json")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_ablation_measures_and_stays_bit_exact() {
        let result = run(Size::Tiny, 3);
        assert_eq!(result.rows.len(), 2);
        assert_eq!(result.rows[0].layout, "legacy");
        assert!((result.rows[0].speedup_vs_legacy - 1.0).abs() < 1e-12);
        for r in &result.rows {
            assert!(r.bit_identical, "{} diverged from the oracle", r.layout);
            assert!(r.site_updates_per_sec > 0.0);
        }
        assert!(result.bulk_fraction > 0.0 && result.bulk_fraction <= 1.0);
        assert!(workloads::out_dir().join("BENCH_kernel.json").exists());
    }
}
