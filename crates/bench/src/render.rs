//! Experiment E13 — in situ rendering performance: macrocell
//! empty-space skipping and run-length sparse compositing.
//!
//! The render→composite path is where the paper's opening concern —
//! data movement — bites the visualisation half of the pipeline: a
//! sparse vessel fills a small fraction of its brick's bounding box,
//! and lights a small fraction of the image it composites. E13
//! quantifies both fixes on the standard aneurysm:
//!
//! * px/sec of the naive marcher vs the macrocell-skipping marcher vs
//!   the LUT-shaded marcher, on the same brick, camera and transfer
//!   function (naive and macrocell outputs are asserted bit-identical);
//! * macrocell skip rate and skippable-cell fraction;
//! * compositing bytes on the wire (run-length sparse) vs what the
//!   dense 20 B/px format would have shipped, from a real distributed
//!   binary-swap over `ranks` ranks.
//!
//! The fleet report is also written as `out/BENCH_render.json` via the
//! obs JSON codec.

use crate::workloads::{self, Size};
use hemelb_geometry::Vec3;
use hemelb_insitu::camera::Camera;
use hemelb_insitu::compositing::binary_swap;
use hemelb_insitu::field::Scalar;
use hemelb_insitu::volume::{render_brick_opts, Brick, RenderOptions, RenderStats};
use hemelb_insitu::TransferFunction;
use hemelb_obs::{fmt_secs, ObsReport, Recorder};
use hemelb_parallel::{run_spmd_with_stats, TagClass};
use std::fmt;
use std::time::Instant;

/// Everything E13 measures.
pub struct RenderResult {
    /// Image width.
    pub width: u32,
    /// Image height.
    pub height: u32,
    /// Ranks in the compositing run.
    pub ranks: usize,
    /// Best-of-3 seconds for the naive full-step marcher.
    pub naive_secs: f64,
    /// Best-of-3 seconds with macrocell skipping.
    pub accel_secs: f64,
    /// Best-of-3 seconds with macrocell skipping + transfer LUT.
    pub lut_secs: f64,
    /// Work counters of the accelerated render.
    pub stats: RenderStats,
    /// Macrocells in the full-domain brick.
    pub macrocells: usize,
    /// Fraction of macrocells skippable under the transfer function.
    pub skippable_frac: f64,
    /// Whether naive and macrocell renders agreed bit for bit.
    pub bit_identical: bool,
    /// Compositing bytes actually sent (run-length sparse), all ranks.
    pub composite_wire: u64,
    /// Bytes the dense 20 B/px format would have sent.
    pub composite_dense: u64,
    /// The exported report (timings + counters), also written to
    /// `out/BENCH_render.json`.
    pub report: ObsReport,
}

/// An end-on view down the vessel axis (+x). Rays outside the tube's
/// cross-section traverse the brick's whole length through non-fluid
/// macrocells — the workload where empty-space skipping matters most,
/// and a common steering viewpoint (looking upstream into an inlet).
fn camera_for(geo: &hemelb_geometry::SparseGeometry, width: u32, height: u32) -> Camera {
    let s = geo.shape();
    Camera::framing(
        Vec3::ZERO,
        Vec3::new(s[0] as f64, s[1] as f64, s[2] as f64),
        Vec3::new(1.0, 0.12, 0.2),
        width,
        height,
    )
}

fn timed<R>(mut f: impl FnMut() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64(), r)
}

fn partials_bit_eq(
    a: &hemelb_insitu::image::PartialImage,
    b: &hemelb_insitu::image::PartialImage,
) -> bool {
    a.image
        .pixels
        .iter()
        .zip(&b.image.pixels)
        .all(|(pa, pb)| (0..4).all(|c| pa[c].to_bits() == pb[c].to_bits()))
        && a.depth
            .iter()
            .zip(&b.depth)
            .all(|(da, db)| da.to_bits() == db.to_bits())
}

/// Run E13 on the standard aneurysm with a developed flow field.
pub fn run(size: Size, ranks: usize, width: u32, height: u32) -> RenderResult {
    let geo = workloads::aneurysm(size);
    let snap = workloads::developed_flow(&geo, 50);
    let cam = camera_for(&geo, width, height);

    // Heat transfer function over the global speed range, as the closed
    // loop uses.
    let max_speed = (0..snap.len())
        .map(|i| snap.speed(i))
        .fold(0.0f64, f64::max);
    let tf = TransferFunction::heat(0.0, max_speed.max(1e-9));

    let all: Vec<u32> = (0..geo.fluid_count() as u32).collect();
    let brick = Brick::from_sites(&geo, &snap, Scalar::Speed, &all).expect("non-empty geometry");
    let macrocells = brick.macrocell_count();
    let skippable_frac = brick.skippable_fraction(&tf);

    let naive_opts = RenderOptions {
        macrocells: false,
        lut_size: None,
    };
    let lut_opts = RenderOptions {
        macrocells: true,
        lut_size: Some(1024),
    };
    // Interleave the three modes round-robin (after a warmup of each)
    // and keep the best time per mode, so transient load — e.g. other
    // tests' thread pools — penalises every mode equally instead of
    // whichever happened to run in a back-to-back block.
    let accel_opts = RenderOptions::default();
    for opts in [&naive_opts, &accel_opts, &lut_opts] {
        render_brick_opts(&brick, &cam, &tf, 0.5, opts);
    }
    let mut naive_secs = f64::INFINITY;
    let mut accel_secs = f64::INFINITY;
    let mut lut_secs = f64::INFINITY;
    let mut naive_img = None;
    let mut accel = None;
    for _ in 0..3 {
        let (t, (img, _)) = timed(|| render_brick_opts(&brick, &cam, &tf, 0.5, &naive_opts));
        naive_secs = naive_secs.min(t);
        naive_img = Some(img);
        let (t, r) = timed(|| render_brick_opts(&brick, &cam, &tf, 0.5, &accel_opts));
        accel_secs = accel_secs.min(t);
        accel = Some(r);
        let (t, _) = timed(|| render_brick_opts(&brick, &cam, &tf, 0.5, &lut_opts));
        lut_secs = lut_secs.min(t);
    }
    let (accel_img, stats) = accel.expect("three runs");
    let bit_identical = partials_bit_eq(&naive_img.expect("three runs"), &accel_img);

    // Distributed compositing traffic: every rank renders its slab's
    // brick and binary-swap composites, with the sparse encoding
    // recording wire-vs-dense counters.
    let owner = workloads::slab_owner(&geo, ranks);
    let geo2 = geo.clone();
    let snap2 = snap.clone();
    let cam2 = cam;
    let tf2 = tf.clone();
    let out = run_spmd_with_stats(ranks, move |comm| {
        let mine: Vec<u32> = (0..geo2.fluid_count() as u32)
            .filter(|&s| owner[s as usize] == comm.rank())
            .collect();
        let partial = match Brick::from_sites(&geo2, &snap2, Scalar::Speed, &mine) {
            Some(b) => render_brick_opts(&b, &cam2, &tf2, 0.5, &RenderOptions::default()).0,
            None => hemelb_insitu::image::PartialImage::new(cam2.width, cam2.height),
        };
        binary_swap(comm, partial).expect("composite");
    });
    let merged = out.merged_obs();
    let counter = |name: &str| merged.counters.get(name).copied().unwrap_or(0);
    let composite_wire = counter("vis.composite.bytes_wire");
    let composite_dense = counter("vis.composite.bytes_dense");
    debug_assert_eq!(
        composite_wire,
        out.summary.total.bytes(TagClass::Compositing)
    );

    // Export through the obs codec.
    let mut rec = Recorder::new();
    rec.record_secs("render.naive", naive_secs);
    rec.record_secs("render.macrocell", accel_secs);
    rec.record_secs("render.macrocell_lut", lut_secs);
    rec.count("render.samples_shaded", stats.samples_shaded);
    rec.count("render.samples_skipped", stats.samples_skipped);
    rec.count("render.jumps", stats.jumps);
    rec.count("render.macrocells", macrocells as u64);
    rec.count("render.bit_identical", u64::from(bit_identical));
    rec.count("composite.bytes_wire", composite_wire);
    rec.count("composite.bytes_dense", composite_dense);
    let report = rec.report();
    let path = workloads::out_dir().join("BENCH_render.json");
    std::fs::write(&path, report.to_json()).expect("BENCH_render.json written");

    RenderResult {
        width,
        height,
        ranks,
        naive_secs,
        accel_secs,
        lut_secs,
        stats,
        macrocells,
        skippable_frac,
        bit_identical,
        composite_wire,
        composite_dense,
        report,
    }
}

impl RenderResult {
    /// Pixels per second at a given wall time.
    fn px_per_sec(&self, secs: f64) -> f64 {
        (self.width as u64 * self.height as u64) as f64 / secs.max(1e-12)
    }
}

impl fmt::Display for RenderResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "In situ rendering performance ({}x{} image, best of 3):",
            self.width, self.height
        )?;
        writeln!(
            f,
            "{:>22} {:>10} {:>14} {:>9}",
            "mode", "time", "px/sec", "speedup"
        )?;
        for (label, secs) in [
            ("naive march", self.naive_secs),
            ("macrocell skip", self.accel_secs),
            ("macrocell + LUT", self.lut_secs),
        ] {
            writeln!(
                f,
                "{:>22} {:>10} {:>14.0} {:>8.2}x",
                label,
                fmt_secs(secs),
                self.px_per_sec(secs),
                self.naive_secs / secs.max(1e-12),
            )?;
        }
        writeln!(
            f,
            "macrocells: {} ({:.1}% skippable under the heat TF); \
             samples: {} shaded + {} skipped ({:.1}% skip rate, {} jumps)",
            self.macrocells,
            100.0 * self.skippable_frac,
            self.stats.samples_shaded,
            self.stats.samples_skipped,
            100.0 * self.stats.skip_fraction(),
            self.stats.jumps,
        )?;
        writeln!(
            f,
            "bit-identical to naive march: {}",
            if self.bit_identical { "yes" } else { "NO" }
        )?;
        let ratio = if self.composite_wire == 0 {
            0.0
        } else {
            self.composite_dense as f64 / self.composite_wire as f64
        };
        writeln!(
            f,
            "compositing over {} ranks (binary swap): {} on wire vs {} dense ({:.2}x smaller)",
            self.ranks,
            workloads::fmt_bytes(self.composite_wire),
            workloads::fmt_bytes(self.composite_dense),
            ratio,
        )?;
        writeln!(f, "JSON: out/BENCH_render.json")
    }
}
