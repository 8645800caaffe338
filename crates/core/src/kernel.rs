//! The chunk-parallel drivers of the SoA kernels and the rayon-parallel
//! solver.
//!
//! The serial [`Solver`], the [`ParallelSolver`] here, and the
//! distributed solver all execute the *same* per-site code path — the
//! span primitives of [`crate::layout`]. Pull streaming reads only the
//! previous-step buffer and every site writes only its own `f_next`
//! entries, so partitioning a site range into contiguous chunks and
//! running them on worker threads is race-free **and** bit-exact by
//! construction: no atomics, no reductions, no operation reordering.
//! The determinism proptests in `tests/properties.rs` assert
//! `serial == parallel(1) == parallel(4)` via `f64::to_bits`.

use crate::boundary::IoletBc;
use crate::collision::CollisionKind;
use crate::fields::FieldSnapshot;
use crate::layout::{collide_span_soa, macroscopics_span_soa, stream_span_soa, StreamPlan};
use crate::model::LatticeModel;
use crate::mrt::MrtOperator;
use crate::solver::{Solver, SolverConfig};
use hemelb_geometry::{SiteKind, SparseGeometry};
use std::sync::Arc;

/// One SoA collide work item: the same site span of every lane plus the
/// matching moments span.
type SoaCollideWork<'a> = (Vec<&'a mut [f64]>, &'a mut [(f64, [f64; 3])]);

/// Split each SoA lane at `len`, collecting the heads into one per-lane
/// chunk bundle and leaving the tails in `rest` — the safe-Rust way to
/// hand disjoint site spans of every lane to a worker.
fn take_lane_chunk<'a>(rest: &mut [&'a mut [f64]], len: usize) -> Vec<&'a mut [f64]> {
    rest.iter_mut()
        .map(|lane| {
            let taken = std::mem::take(lane);
            let (head, tail) = taken.split_at_mut(len);
            *lane = tail;
            head
        })
        .collect()
}

/// Execute `work` items across at most one scoped worker per rayon
/// thread, preserving item order within each worker. With a single
/// thread — or a single item — everything runs inline on the caller's
/// thread with no spawn at all. The grouping can never affect results
/// (items write disjoint spans; order within a worker is the global
/// order); it exists to bound thread churn, which matters when site
/// ranges are fragmented and chunks far outnumber workers.
pub(crate) fn run_grouped<W, F>(work: Vec<W>, run: F)
where
    W: Send,
    F: Fn(W) + Sync,
{
    let threads = rayon::current_num_threads().max(1);
    if threads <= 1 || work.len() <= 1 {
        for w in work {
            run(w);
        }
        return;
    }
    let per = work.len().div_ceil(threads);
    let mut groups: Vec<Vec<W>> = Vec::with_capacity(threads);
    let mut items = work.into_iter();
    loop {
        let group: Vec<W> = items.by_ref().take(per).collect();
        if group.is_empty() {
            break;
        }
        groups.push(group);
    }
    let run = &run;
    rayon::scope(|sc| {
        for group in groups {
            sc.spawn(move |_| {
                for w in group {
                    run(w);
                }
            });
        }
    });
}

/// Split a list of ascending, disjoint `(start, len)` site ranges into
/// `(first_site, len)` chunks of at most ⌈total/threads⌉ sites, each
/// contained in one source range (one full range `[(0, n)]` splits into
/// one contiguous chunk per worker). The subdivision never affects
/// results — collide is per-site independent and stream
/// writes disjoint outputs — only which thread computes which sites.
pub(crate) fn range_chunks(ranges: &[(u32, u32)]) -> Vec<(usize, usize)> {
    let total: usize = ranges.iter().map(|&(_, len)| len as usize).sum();
    if total == 0 {
        return Vec::new();
    }
    let threads = rayon::current_num_threads().max(1);
    let chunk = total.div_ceil(threads).max(1);
    let mut out = Vec::new();
    for &(start, len) in ranges {
        let mut first = start as usize;
        let mut rem = len as usize;
        while rem > 0 {
            let take = chunk.min(rem);
            out.push((first, take));
            first += take;
            rem -= take;
        }
    }
    out
}

/// Chunk-parallel collide restricted to `ranges` over SoA lanes (each
/// worker gets the same site span of every lane plus its moments span);
/// sites outside the ranges are untouched. The chunked BGK path is
/// chunk-offset-invariant, so restricting to ranges cannot change any
/// site's value.
pub(crate) fn par_collide_soa_ranges(
    model: &LatticeModel,
    collision: CollisionKind,
    tau: f64,
    mrt: Option<&MrtOperator>,
    f: &mut [Vec<f64>],
    moments: &mut [(f64, [f64; 3])],
    ranges: &[(u32, u32)],
) {
    let mut lane_rest: Vec<&mut [f64]> = f.iter_mut().map(|l| l.as_mut_slice()).collect();
    let mut m_rest = moments;
    let mut cursor = 0usize;
    let mut work: Vec<SoaCollideWork<'_>> = Vec::new();
    for (first, len) in range_chunks(ranges) {
        let gap = first - cursor;
        if gap > 0 {
            drop(take_lane_chunk(&mut lane_rest, gap));
        }
        let chunk = take_lane_chunk(&mut lane_rest, len);
        let (_, m_tail) = m_rest.split_at_mut(gap);
        let (m_chunk, m_tail) = m_tail.split_at_mut(len);
        m_rest = m_tail;
        cursor = first + len;
        work.push((chunk, m_chunk));
    }
    run_grouped(work, |(mut chunk, m_chunk)| {
        let mut op = mrt.cloned();
        collide_span_soa(model, collision, tau, op.as_mut(), &mut chunk, m_chunk);
    });
}

/// Chunk-parallel pull-stream restricted to `ranges` over SoA lanes:
/// only the listed destination sites of `f_next` are written.
#[allow(clippy::too_many_arguments)]
pub(crate) fn par_stream_soa_ranges(
    model: &LatticeModel,
    cfg: &SolverConfig,
    kinds: &[SiteKind],
    f_old: &[Vec<f64>],
    plan: &StreamPlan,
    moments: &[(f64, [f64; 3])],
    bc_velocity: &[[f64; 3]],
    halo: &[f64],
    step: u64,
    ranges: &[(u32, u32)],
    f_next: &mut [Vec<f64>],
) {
    let mut lane_rest: Vec<&mut [f64]> = f_next.iter_mut().map(|l| l.as_mut_slice()).collect();
    let mut cursor = 0usize;
    let mut work: Vec<(usize, Vec<&mut [f64]>)> = Vec::new();
    for (first, len) in range_chunks(ranges) {
        let gap = first - cursor;
        if gap > 0 {
            drop(take_lane_chunk(&mut lane_rest, gap));
        }
        let chunk = take_lane_chunk(&mut lane_rest, len);
        cursor = first + len;
        work.push((first, chunk));
    }
    run_grouped(work, |(first, mut chunk)| {
        stream_span_soa(
            model,
            cfg,
            kinds,
            f_old,
            plan,
            moments,
            bc_velocity,
            halo,
            step,
            first,
            &mut chunk,
        );
    });
}

/// Chunk-parallel macroscopic-field extraction from SoA lanes.
pub(crate) fn par_macroscopics_soa(
    model: &LatticeModel,
    tau: f64,
    f: &[Vec<f64>],
    rho: &mut [f64],
    u: &mut [[f64; 3]],
    shear: &mut [f64],
) {
    type SoaMacroWork<'a> = (usize, &'a mut [f64], &'a mut [[f64; 3]], &'a mut [f64]);
    let mut work: Vec<SoaMacroWork<'_>> = Vec::new();
    let mut rho_rest = rho;
    let mut u_rest = u;
    let mut sh_rest = shear;
    for (first, len) in range_chunks(&[(0, rho_rest.len() as u32)]) {
        let (rho_c, rho_t) = rho_rest.split_at_mut(len);
        let (u_c, u_t) = u_rest.split_at_mut(len);
        let (sh_c, sh_t) = sh_rest.split_at_mut(len);
        rho_rest = rho_t;
        u_rest = u_t;
        sh_rest = sh_t;
        work.push((first, rho_c, u_c, sh_c));
    }
    run_grouped(work, |(first, rho_c, u_c, sh_c)| {
        macroscopics_span_soa(model, tau, f, first, rho_c, u_c, sh_c)
    });
}

/// The thread-parallel solver: the serial [`Solver`]'s state stepped by
/// the chunked kernels above inside a dedicated rayon pool.
///
/// Because pull streaming reads only the old buffer and chunk writes are
/// disjoint, the result is **bit-for-bit identical** to [`Solver`] at
/// any thread count — asserted by the determinism suite and the golden
/// fixtures under `tests/golden/`.
pub struct ParallelSolver {
    inner: Solver,
    pool: rayon::ThreadPool,
    threads: usize,
}

impl ParallelSolver {
    /// Initialise at rest on `geo` with `threads` worker threads.
    pub fn new(geo: Arc<SparseGeometry>, cfg: SolverConfig, threads: usize) -> Self {
        Self::from_solver(Solver::new(geo, cfg), threads)
    }

    /// Wrap an existing solver (mid-run states carry over unchanged).
    pub fn from_solver(inner: Solver, threads: usize) -> Self {
        let threads = threads.max(1);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool");
        ParallelSolver {
            inner,
            pool,
            threads,
        }
    }

    /// Worker thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The wrapped serial solver (read-only access to geometry, config,
    /// distributions, …).
    pub fn solver(&self) -> &Solver {
        &self.inner
    }

    /// Unwrap back into the serial solver, preserving the state.
    pub fn into_inner(self) -> Solver {
        self.inner
    }

    /// Completed steps.
    pub fn step_count(&self) -> u64 {
        self.inner.step_count()
    }

    /// Advance one time step (collide + stream), chunk-parallel.
    pub fn step(&mut self) {
        let s = &mut self.inner;
        self.pool.install(|| s.step_impl(true));
    }

    /// Advance `count` steps.
    pub fn step_n(&mut self, count: u64) {
        for _ in 0..count {
            self.step();
        }
    }

    /// Macroscopic snapshot, extracted chunk-parallel. Bit-identical to
    /// [`Solver::snapshot`] on the same state.
    pub fn snapshot(&self) -> FieldSnapshot {
        let s = &self.inner;
        self.pool.install(|| s.snapshot_impl(true))
    }

    /// Total mass (delegates to the serial implementation).
    pub fn mass(&self) -> f64 {
        self.inner.mass()
    }

    /// Raw distributions, canonical site-major order.
    pub fn raw_distributions(&self) -> Vec<f64> {
        self.inner.raw_distributions()
    }

    /// Replace the BC of inlet `id` at runtime (steering).
    pub fn set_inlet_bc(&mut self, id: usize, bc: IoletBc) {
        self.inner.set_inlet_bc(id, bc);
    }

    /// Replace the BC of outlet `id` at runtime.
    pub fn set_outlet_bc(&mut self, id: usize, bc: IoletBc) {
        self.inner.set_outlet_bc(id, bc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::ModelKind;
    use hemelb_geometry::VesselBuilder;

    fn bit_eq(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let geo = Arc::new(VesselBuilder::straight_tube(16.0, 3.5).voxelise(1.0));
        let cfg = SolverConfig::pressure_driven(1.01, 0.99);
        let mut serial = Solver::new(geo.clone(), cfg.clone());
        let mut par1 = ParallelSolver::new(geo.clone(), cfg.clone(), 1);
        let mut par4 = ParallelSolver::new(geo, cfg, 4);
        for _ in 0..25 {
            serial.step();
            par1.step();
            par4.step();
        }
        assert!(bit_eq(
            &serial.raw_distributions(),
            &par1.raw_distributions()
        ));
        assert!(bit_eq(
            &serial.raw_distributions(),
            &par4.raw_distributions()
        ));
        let ss = serial.snapshot();
        let ps = par4.snapshot();
        assert!(bit_eq(&ss.rho, &ps.rho));
        assert!(bit_eq(&ss.shear, &ps.shear));
        for (a, b) in ss.u.iter().zip(&ps.u) {
            assert!(bit_eq(a, b));
        }
    }

    #[test]
    fn range_chunks_respect_range_bounds() {
        let ranges = [(2u32, 5u32), (10, 1), (20, 7)];
        let chunks = range_chunks(&ranges);
        let sites: Vec<usize> = chunks
            .iter()
            .flat_map(|&(first, len)| first..first + len)
            .collect();
        let expect: Vec<usize> = ranges
            .iter()
            .flat_map(|&(s, l)| s as usize..(s + l) as usize)
            .collect();
        assert_eq!(sites, expect, "chunks must tile the ranges in order");
        for (first, len) in chunks {
            assert!(ranges
                .iter()
                .any(|&(s, l)| first >= s as usize && first + len <= (s + l) as usize));
        }
        assert!(range_chunks(&[]).is_empty());
    }

    /// Collide over a two-piece range split is bit-identical on covered
    /// sites to a per-site scalar collide, and leaves uncovered sites
    /// untouched — the invariant the overlapped step's frontier/interior
    /// phases rely on (the chunked BGK path must be offset-invariant
    /// across the range seams).
    #[test]
    fn range_collide_matches_full_collide_on_covered_sites() {
        let model = LatticeModel::d3q15();
        let q = model.q;
        let n = 23usize;
        let init: Vec<f64> = (0..n * q).map(|k| 0.05 + (k as f64).cos().abs()).collect();

        let mut full = init.clone();
        let mut m_full = vec![(0.0, [0.0; 3]); n];
        let mut scratch = vec![0.0; q];
        for (s, m) in m_full.iter_mut().enumerate() {
            let fs = &mut full[s * q..(s + 1) * q];
            *m = crate::collision::collide(&model, CollisionKind::Bgk, 0.9, fs, &mut scratch);
        }

        // Cover sites 0..4 and 9..23, leaving 4..9 untouched.
        let ranges = [(0u32, 4u32), (9, 14)];
        let mut lanes: Vec<Vec<f64>> = (0..q)
            .map(|i| (0..n).map(|s| init[s * q + i]).collect())
            .collect();
        let mut m_soa = vec![(0.0, [0.0; 3]); n];
        par_collide_soa_ranges(
            &model,
            CollisionKind::Bgk,
            0.9,
            None,
            &mut lanes,
            &mut m_soa,
            &ranges,
        );

        for s in 0..n {
            let covered = ranges
                .iter()
                .any(|&(st, l)| s >= st as usize && s < (st + l) as usize);
            for (i, lane) in lanes.iter().enumerate() {
                let want = if covered {
                    full[s * q + i]
                } else {
                    init[s * q + i]
                };
                assert_eq!(lane[s].to_bits(), want.to_bits(), "site {s} dir {i}");
            }
            if covered {
                assert_eq!(m_soa[s].0.to_bits(), m_full[s].0.to_bits());
            }
        }
    }

    #[test]
    fn parallel_matches_serial_with_mrt_and_d3q19() {
        let geo = Arc::new(VesselBuilder::straight_tube(12.0, 3.0).voxelise(1.0));
        let cfg = SolverConfig::velocity_driven(0.03)
            .with_model(ModelKind::D3Q19)
            .with_collision(CollisionKind::Mrt { omega_ghost: 1.2 });
        let mut serial = Solver::new(geo.clone(), cfg.clone());
        let mut par = ParallelSolver::new(geo, cfg, 3);
        serial.step_n(20);
        par.step_n(20);
        assert!(bit_eq(
            &serial.raw_distributions(),
            &par.raw_distributions()
        ));
    }
}
