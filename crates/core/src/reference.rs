//! The site-major reference solver: the bitwise test oracle.
//!
//! Distributions are stored site-major (`f[site][dir]`, one contiguous
//! block per site) in two full buffers, and streaming pulls through a
//! site-major source table built straight from geometry queries — the
//! plainest possible form of the algorithm, sharing no memory layout,
//! table construction or loop structure with the production kernels in
//! [`crate::layout`]. Only the per-site arithmetic (collision operators,
//! boundary rules, moment extraction) is common, so agreement by
//! `f64::to_bits` between this oracle and [`crate::Solver`],
//! [`crate::ParallelSolver`] and [`crate::DistSolver`] certifies the
//! layout, the streaming plan, the chunking and the halo exchange.
//!
//! Not a production path: it exists for the equivalence suites, the
//! golden fixtures and the E16 kernel bench's reference row.

use crate::collision::{collide, CollisionKind};
use crate::equilibrium::{feq_all, moments as site_moments, pi_neq, shear_rate_magnitude};
use crate::fields::FieldSnapshot;
use crate::layout::LINK_BOUNDARY;
use crate::model::LatticeModel;
use crate::mrt::MrtOperator;
use crate::solver::{boundary_rule, precompute_bc_velocities, SolverConfig};
use hemelb_geometry::SparseGeometry;
use std::sync::Arc;

/// Build the pull-streaming source table: `table[s*q + i]` is the fluid
/// site found at `pos(s) − c_i`, or [`LINK_BOUNDARY`].
fn build_pull_table(geo: &SparseGeometry, model: &LatticeModel) -> Vec<u32> {
    let n = geo.fluid_count();
    let q = model.q;
    let mut table = vec![LINK_BOUNDARY; n * q];
    for s in 0..n as u32 {
        let [x, y, z] = geo.position(s);
        for i in 0..q {
            let c = model.c[i];
            let src = geo.site_at(
                x as i64 - c[0] as i64,
                y as i64 - c[1] as i64,
                z as i64 - c[2] as i64,
            );
            if let Some(src) = src {
                table[s as usize * q + i] = src;
            }
        }
    }
    table
}

/// Collide every site of `f` (site-major) in place, recording each
/// site's pre-collision moments.
fn collide_span(
    model: &LatticeModel,
    collision: CollisionKind,
    tau: f64,
    mut mrt: Option<&mut MrtOperator>,
    f: &mut [f64],
    moments: &mut [(f64, [f64; 3])],
) {
    let q = model.q;
    debug_assert_eq!(f.len(), moments.len() * q);
    let mut scratch = vec![0.0; q];
    for (s, m) in moments.iter_mut().enumerate() {
        let fs = &mut f[s * q..(s + 1) * q];
        *m = match mrt.as_deref_mut() {
            Some(op) => op.collide(model, tau, fs),
            None => collide(model, collision, tau, fs, &mut scratch),
        };
    }
}

/// Pull-stream every site into `out`, reading only the previous-step
/// buffer `f_old`.
#[allow(clippy::too_many_arguments)]
fn stream_span(
    model: &LatticeModel,
    cfg: &SolverConfig,
    geo: &SparseGeometry,
    f_old: &[f64],
    moments: &[(f64, [f64; 3])],
    bc_velocity: &[[f64; 3]],
    pull: &[u32],
    step: u64,
    out: &mut [f64],
) {
    let q = model.q;
    debug_assert_eq!(out.len() % q, 0);
    for s in 0..out.len() / q {
        let kind = geo.kind(s as u32);
        for i in 0..q {
            let src = pull[s * q + i];
            out[s * q + i] = if src != LINK_BOUNDARY {
                f_old[src as usize * q + i]
            } else {
                boundary_rule(
                    model,
                    cfg,
                    kind,
                    bc_velocity[s],
                    i,
                    f_old[s * q + model.opp[i]],
                    moments[s],
                    step,
                )
            };
        }
    }
}

/// Macroscopic fields of every site: density, velocity and shear-rate
/// magnitude.
fn macroscopics_span(
    model: &LatticeModel,
    tau: f64,
    f: &[f64],
    rho: &mut [f64],
    u: &mut [[f64; 3]],
    shear: &mut [f64],
) {
    let q = model.q;
    debug_assert_eq!(f.len(), rho.len() * q);
    for s in 0..rho.len() {
        let fs = &f[s * q..(s + 1) * q];
        let (r, v) = site_moments(model, fs);
        let pi = pi_neq(model, fs, r, v);
        rho[s] = r;
        u[s] = v;
        shear[s] = shear_rate_magnitude(pi, r, tau);
    }
}

/// The site-major serial solver the bitwise suites compare against.
#[doc(hidden)]
pub struct ReferenceSolver {
    geo: Arc<SparseGeometry>,
    cfg: SolverConfig,
    model: LatticeModel,
    /// Current distributions, `[site][direction]`.
    f: Vec<f64>,
    /// Double buffer for streaming.
    f_next: Vec<f64>,
    pull: Vec<u32>,
    moments: Vec<(f64, [f64; 3])>,
    bc_velocity: Vec<[f64; 3]>,
    mrt: Option<MrtOperator>,
    step: u64,
}

impl ReferenceSolver {
    /// Initialise at rest (`ρ = 1`, `u = 0`) on the given geometry.
    pub fn new(geo: Arc<SparseGeometry>, cfg: SolverConfig) -> Self {
        let model = cfg.model.build();
        let n = geo.fluid_count();
        let q = model.q;
        let mut f = vec![0.0; n * q];
        for s in 0..n {
            feq_all(&model, 1.0, [0.0; 3], &mut f[s * q..(s + 1) * q]);
        }
        let mrt = match cfg.collision {
            CollisionKind::Mrt { omega_ghost } => Some(MrtOperator::new(&model, omega_ghost)),
            _ => None,
        };
        ReferenceSolver {
            pull: build_pull_table(&geo, &model),
            bc_velocity: precompute_bc_velocities(&geo, &cfg),
            moments: vec![(1.0, [0.0; 3]); n],
            f_next: f.clone(),
            f,
            mrt,
            geo,
            cfg,
            model,
            step: 0,
        }
    }

    /// Advance `count` steps (collide, then pull-stream, per step).
    pub fn step_n(&mut self, count: u64) {
        for _ in 0..count {
            collide_span(
                &self.model,
                self.cfg.collision,
                self.cfg.tau,
                self.mrt.as_mut(),
                &mut self.f,
                &mut self.moments,
            );
            stream_span(
                &self.model,
                &self.cfg,
                &self.geo,
                &self.f,
                &self.moments,
                &self.bc_velocity,
                &self.pull,
                self.step,
                &mut self.f_next,
            );
            std::mem::swap(&mut self.f, &mut self.f_next);
            self.step += 1;
        }
    }

    /// The whole distribution array, site-major.
    pub fn raw_distributions(&self) -> &[f64] {
        &self.f
    }

    /// Macroscopic snapshot of the current state.
    pub fn snapshot(&self) -> FieldSnapshot {
        let n = self.geo.fluid_count();
        let mut rho = vec![0.0; n];
        let mut u = vec![[0.0; 3]; n];
        let mut shear = vec![0.0; n];
        macroscopics_span(
            &self.model,
            self.cfg.tau,
            &self.f,
            &mut rho,
            &mut u,
            &mut shear,
        );
        FieldSnapshot {
            step: self.step,
            rho,
            u,
            shear,
        }
    }
}
