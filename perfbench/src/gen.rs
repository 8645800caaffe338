//! Seeded input generator.
//!
//! Every input a workload feeds the program is a pure function of the
//! `--seed`: the vessel geometry (serialised as a `.sgmy` file), the
//! flow drive, the steering command script the single client thread
//! plays, and the farm sweep. Sizes stay fixed across seeds; only
//! parameters, views and a few farm vessels move. Each input has a
//! canonical byte form, so "same seed, same bytes" is testable.

use hemelb_farm::{Drive, GeometryKind, JobSpec, Scenario};
use hemelb_geometry::format::write_sgmy;
use hemelb_geometry::{SparseGeometry, VesselBuilder};
use std::fmt::Write as _;

/// The workspace's deterministic generator with the few draws the
/// inputs need.
#[derive(Debug, Clone)]
pub struct Rng(rand::Rng);

impl Rng {
    /// A generator for one input kind (`salt`) of one seed, so adding a
    /// draw to one input never shifts another.
    pub fn new(seed: u64, salt: u64) -> Self {
        Rng(rand::Rng::seed_from_u64(
            seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93),
        ))
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.0.gen_f64()
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        self.0.gen_range_u64(0, n as u64) as usize
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.0.gen_f64() < p
    }
}

const SALT_SCRIPT: u64 = 2;
const SALT_SWEEP: u64 = 3;
const SALT_DRIVE: u64 = 4;

/// Lattice spacing of the `aneurysm-sim` vessel (about 1.09 M sites).
pub const ANEURYSM_SIM_DX: f64 = 0.125;
/// Lattice spacing of the `steered-insitu` vessel (the "Small"
/// aneurysm, about 17 k sites).
pub const STEERED_DX: f64 = 0.5;
/// Block edge of the generated `.sgmy` files.
const SGMY_BLOCK: usize = 8;

/// The standard aneurysm vessel: a parent tube of length 28 and radius
/// 4 with a sac of radius 6. Both vessel workloads use it for every
/// seed: the k-way partition of a vessel jittered by only ±1 % scatters
/// each rank's sites into up to four times as many runs, which moved the
/// step time by up to a quarter and the compositing time by more, so the
/// seeds drive the flow and the views instead.
pub fn standard_vessel(dx: f64) -> SparseGeometry {
    VesselBuilder::aneurysm(28.0, 4.0, 6.0).voxelise(dx)
}

/// The seeded flow drive of `aneurysm-sim`: inlet and outlet densities
/// and the relaxation time.
pub fn aneurysm_sim_drive(seed: u64) -> (f64, f64, f64) {
    let mut rng = Rng::new(seed, SALT_DRIVE);
    (
        rng.range(1.005, 1.015),
        rng.range(0.985, 0.995),
        rng.range(0.7, 0.9),
    )
}

/// The `.sgmy` bytes of a geometry.
pub fn sgmy_bytes(geo: &SparseGeometry) -> Vec<u8> {
    let mut buf = Vec::new();
    write_sgmy(geo, SGMY_BLOCK, &mut buf).expect("writing to memory cannot fail");
    buf
}

/// A camera pose in lattice coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct View {
    /// Eye position.
    pub eye: [f64; 3],
    /// Look-at target.
    pub target: [f64; 3],
    /// Vertical field of view, radians.
    pub fov_y: f64,
}

/// One entry of the driver's command script. Every `Live` and
/// `Revisit` entry is one `RequestFrame → Image` round trip.
#[derive(Debug, Clone, PartialEq)]
pub enum ScriptStep {
    /// Move the camera along the orbit (optionally writing a new inlet
    /// pressure first) and request a frame while the flow advances.
    Live {
        /// The orbit pose.
        view: View,
        /// New inlet density, if this step steers the flow.
        inlet_rho: Option<f64>,
    },
    /// Suspend time stepping.
    Pause,
    /// Return to the bookmark of this index and request a frame (paused).
    Revisit(usize),
    /// Resume time stepping.
    Resume,
}

/// The seeded steering script: bookmarked views plus one cycle of
/// steps, which the client replays until its time is up.
#[derive(Debug, Clone, PartialEq)]
pub struct Script {
    /// Views the paused phase returns to.
    pub bookmarks: Vec<View>,
    /// One live-orbit phase followed by one paused-revisit phase.
    pub cycle: Vec<ScriptStep>,
}

/// Live orbit frames per script cycle.
pub const LIVE_FRAMES: usize = 18;
/// Bookmarked views per script cycle.
pub const BOOKMARKS: usize = 3;
/// Visits of each bookmark per paused phase (the first renders, the
/// rest are cache replays).
pub const VISITS_PER_BOOKMARK: usize = 2;

/// Camera elevation above the vessel's plane, radians. Fixed: how much
/// of the vessel a frame shows, and so what it costs to render, depends
/// strongly on it.
const ELEVATION: f64 = 0.25;

fn orbit_view(centre: [f64; 3], radius: f64, azimuth: f64, elevation: f64) -> View {
    View {
        eye: [
            centre[0] + radius * azimuth.cos() * elevation.cos(),
            centre[1] + radius * azimuth.sin() * elevation.cos(),
            centre[2] + radius * elevation.sin(),
        ],
        target: centre,
        fov_y: 45f64.to_radians(),
    }
}

/// The driver script for a vessel of lattice shape `shape`.
///
/// The live phase orbits the vessel once per cycle in equal azimuth
/// steps from a seeded starting angle and writes a new inlet pressure on
/// about one frame in six. The bookmarks are
/// spread evenly around the vessel from their own seeded angle. The
/// paused phase visits each bookmark twice in a seeded order (every
/// bookmark's first visit comes before its revisit). Every seed thus
/// renders the same mix of views up to a rotation, so render cost does
/// not depend on the seed.
pub fn steering_script(seed: u64, shape: [usize; 3]) -> Script {
    use std::f64::consts::TAU;
    let mut rng = Rng::new(seed, SALT_SCRIPT);
    let centre = shape.map(|s| s as f64 / 2.0);
    let radius = 1.6 * centre.iter().map(|c| c * c).sum::<f64>().sqrt();
    let phase = rng.range(0.0, TAU);
    let bookmarks: Vec<View> = (0..BOOKMARKS)
        .map(|b| {
            let azimuth = phase + TAU * b as f64 / BOOKMARKS as f64;
            orbit_view(centre, radius, azimuth, ELEVATION)
        })
        .collect();
    let mut cycle = Vec::new();
    let start = rng.range(0.0, TAU);
    for k in 0..LIVE_FRAMES {
        let azimuth = start + TAU * k as f64 / LIVE_FRAMES as f64;
        let inlet_rho = rng.chance(1.0 / 6.0).then(|| rng.range(1.004, 1.012));
        cycle.push(ScriptStep::Live {
            view: orbit_view(centre, radius, azimuth, ELEVATION),
            inlet_rho,
        });
    }
    cycle.push(ScriptStep::Pause);
    let mut order: Vec<usize> = (0..BOOKMARKS).collect();
    shuffle(&mut rng, &mut order);
    for _ in 0..VISITS_PER_BOOKMARK {
        cycle.extend(order.iter().map(|&b| ScriptStep::Revisit(b)));
    }
    cycle.push(ScriptStep::Resume);
    Script { bookmarks, cycle }
}

/// Fisher–Yates shuffle.
fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

impl Script {
    /// Canonical text form (one command per line, floats as IEEE bits).
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        let v = |s: &mut String, view: &View| {
            for x in view.eye.iter().chain(&view.target) {
                let _ = write!(s, " {:016x}", x.to_bits());
            }
            let _ = write!(s, " {:016x}", view.fov_y.to_bits());
        };
        for b in &self.bookmarks {
            s.push_str("bookmark");
            v(&mut s, b);
            s.push('\n');
        }
        for step in &self.cycle {
            match step {
                ScriptStep::Live { view, inlet_rho } => {
                    s.push_str("live");
                    v(&mut s, view);
                    if let Some(rho) = inlet_rho {
                        let _ = write!(s, " inlet {:016x}", rho.to_bits());
                    }
                }
                ScriptStep::Pause => s.push_str("pause"),
                ScriptStep::Revisit(b) => {
                    let _ = write!(s, "revisit {b}");
                }
                ScriptStep::Resume => s.push_str("resume"),
            }
            s.push('\n');
        }
        s
    }
}

/// Jobs in one farm sweep: 10 per (vessel family, dx, ranks) cell.
pub const SWEEP_JOBS: usize = 120;
/// Jobs of each sweep that get a vessel of their own.
pub const SWEEP_UNIQUE: usize = 15;
/// LB steps each farm job runs.
pub const SWEEP_STEPS: u64 = 30;

/// The seeded farm sweep: [`SWEEP_JOBS`] fault-free jobs, submitted
/// cycling through the 12 cells of {tube, bifurcation, aneurysm} × dx
/// {0.5, 0.4} × ranks {1, 2} and through the tenants three `clinic` to
/// two `research` (their fair-share weights are 2 : 1). The seed draws
/// each job's τ and drive and which [`SWEEP_UNIQUE`] jobs get a vessel of
/// their own (radius moved by up to ±5 %: pre-processing cache misses;
/// every other job shares its cell's vessel: hits). The work per sweep,
/// and where in the queue it sits, is thus the same for every seed up to
/// those few vessels.
pub fn farm_sweep(seed: u64) -> Vec<JobSpec> {
    let mut rng = Rng::new(seed, SALT_SWEEP);
    let mut unique = vec![false; SWEEP_JOBS];
    unique[..SWEEP_UNIQUE].fill(true);
    shuffle(&mut rng, &mut unique);
    let mut jobs = Vec::with_capacity(SWEEP_JOBS);
    for (i, &unique) in unique.iter().enumerate() {
        let scale = if unique { rng.range(0.95, 1.05) } else { 1.0 };
        let geometry = match i % 3 {
            0 => GeometryKind::Tube {
                length: 10.0,
                radius: 2.4 * scale,
            },
            1 => GeometryKind::Bifurcation {
                parent_len: 8.0,
                child_len: 6.0,
                radius: 2.0 * scale,
                half_angle: 0.5,
            },
            _ => GeometryKind::Aneurysm {
                length: 12.0,
                radius: 2.2 * scale,
                sac_radius: 3.0,
            },
        };
        let dx = [0.5, 0.4][i / 3 % 2];
        let ranks = 1 + i / 6 % 2;
        let tau = [0.6, 0.7, 0.8, 0.9, 1.0][rng.below(5)];
        let drive = if rng.chance(0.7) {
            Drive::Pressure {
                rho_in: rng.range(1.004, 1.02),
                rho_out: 0.995,
            }
        } else {
            Drive::Pulsatile {
                peak: rng.range(0.01, 0.04),
                amplitude: 0.3,
                period: 20,
            }
        };
        let tenant = if i % 5 < 3 { "clinic" } else { "research" };
        jobs.push(JobSpec::new(
            format!("job{i:03}"),
            tenant,
            Scenario {
                geometry,
                dx,
                drive,
                tau,
                steps: SWEEP_STEPS,
                ranks,
            },
        ));
    }
    jobs
}

/// Fair-share weights of the sweep's tenants.
pub const TENANT_WEIGHTS: [(&str, f64); 2] = [("clinic", 2.0), ("research", 1.0)];

/// Canonical text form of a sweep, one job per line:
/// `name tenant priority geometry dx tau drive steps ranks`, with every
/// float written as its IEEE bits in hex, so "same seed, same sweep" is
/// a byte comparison.
pub fn sweep_text(jobs: &[JobSpec]) -> String {
    let h = |v: f64| format!("{:016x}", v.to_bits());
    let mut s = String::new();
    for j in jobs {
        let sc = &j.scenario;
        let geometry = match sc.geometry {
            GeometryKind::Tube { length, radius } => format!("tube:{}:{}", h(length), h(radius)),
            GeometryKind::Bifurcation {
                parent_len,
                child_len,
                radius,
                half_angle,
            } => format!(
                "bifurcation:{}:{}:{}:{}",
                h(parent_len),
                h(child_len),
                h(radius),
                h(half_angle)
            ),
            GeometryKind::Aneurysm {
                length,
                radius,
                sac_radius,
            } => format!("aneurysm:{}:{}:{}", h(length), h(radius), h(sac_radius)),
        };
        let drive = match sc.drive {
            Drive::Pressure { rho_in, rho_out } => format!("pressure:{}:{}", h(rho_in), h(rho_out)),
            Drive::Pulsatile {
                peak,
                amplitude,
                period,
            } => format!("pulsatile:{}:{}:{period}", h(peak), h(amplitude)),
        };
        let _ = writeln!(
            s,
            "{} {} {} {geometry} {} {} {drive} {} {}",
            j.name,
            j.tenant,
            j.priority,
            h(sc.dx),
            h(sc.tau),
            sc.steps,
            sc.ranks
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        let shape = standard_vessel(1.0).shape();
        assert_eq!(
            sgmy_bytes(&standard_vessel(1.0)),
            sgmy_bytes(&standard_vessel(1.0)),
            ".sgmy"
        );
        for seed in [0u64, 1, 42, u64::MAX] {
            assert_eq!(aneurysm_sim_drive(seed), aneurysm_sim_drive(seed));
            assert_eq!(
                steering_script(seed, shape).to_text(),
                steering_script(seed, shape).to_text(),
                "seed {seed}: script"
            );
            assert_eq!(
                sweep_text(&farm_sweep(seed)),
                sweep_text(&farm_sweep(seed)),
                "seed {seed}: sweep"
            );
        }
    }

    #[test]
    fn different_seeds_give_different_inputs_of_the_same_size() {
        assert_ne!(aneurysm_sim_drive(1), aneurysm_sim_drive(2));
        assert_ne!(sweep_text(&farm_sweep(1)), sweep_text(&farm_sweep(2)));
        assert_eq!(farm_sweep(1).len(), farm_sweep(2).len());
        let (sa, sb) = (steering_script(1, [50; 3]), steering_script(2, [50; 3]));
        assert_ne!(sa.to_text(), sb.to_text());
        assert_eq!(sa.cycle.len(), sb.cycle.len());
    }

    #[test]
    fn script_revisits_every_bookmark_after_pausing() {
        let s = steering_script(7, [60, 30, 40]);
        let pause = s
            .cycle
            .iter()
            .position(|c| *c == ScriptStep::Pause)
            .unwrap();
        assert_eq!(pause, LIVE_FRAMES);
        let revisits: Vec<usize> = s.cycle[pause..]
            .iter()
            .filter_map(|c| match c {
                ScriptStep::Revisit(b) => Some(*b),
                _ => None,
            })
            .collect();
        assert_eq!(revisits.len(), BOOKMARKS * VISITS_PER_BOOKMARK);
        for b in 0..BOOKMARKS {
            assert_eq!(revisits.iter().filter(|&&r| r == b).count(), 2);
        }
        assert_eq!(s.cycle.last(), Some(&ScriptStep::Resume));
    }

    #[test]
    fn sweep_repeats_prep_keys_and_has_unique_ones() {
        let jobs = farm_sweep(3);
        let mut keys = std::collections::BTreeMap::new();
        for j in &jobs {
            *keys
                .entry(j.scenario.geometry.cache_key(j.scenario.dx))
                .or_insert(0) += 1;
        }
        assert!(keys.values().any(|&n| n > 1), "some keys repeat");
        assert_eq!(keys.values().filter(|&&n| n == 1).count(), SWEEP_UNIQUE);
        assert_eq!(
            jobs.iter().filter(|j| j.scenario.ranks == 1).count(),
            SWEEP_JOBS / 2
        );
        assert_eq!(
            jobs.iter().filter(|j| j.scenario.dx == 0.5).count(),
            SWEEP_JOBS / 2
        );
        assert!(jobs.iter().any(|j| j.tenant == "clinic"));
        assert!(jobs.iter().any(|j| j.tenant == "research"));
    }
}
