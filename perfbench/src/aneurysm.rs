//! `aneurysm-sim`: a pressure-driven aneurysm at dx 0.125 (about 1.09 M
//! sites, one D3Q15 population buffer about 125 MiB) on 2 ranks with a
//! k-way partition and no visualisation — the core and parallel layers
//! in the memory-bound regime. The seed picks the pressure drop and τ
//! (see [`gen::standard_vessel`] for why not the vessel).
//!
//! Setup (read `.sgmy`, build the site graph, k-way partition, construct
//! the distributed solver) runs [`SETUP_REPS`] times; the last solver is
//! stepped for the measured phase. The final distributions must be
//! bit-identical to a serial `Solver` run of the same number of steps,
//! split by the same owner map; that reference run also gives
//! `core.serial_mlups`.

use crate::common::{
    combine_digests, digest_bits, peak_rss_mib, phase_secs, split_digest, Ctx, Outcome, RANKS,
};
use crate::gen;
use crate::stats::{median, percentile};
use hemelb_core::{DistSolver, Solver, SolverConfig};
use hemelb_geometry::format::read_sgmy;
use hemelb_geometry::SparseGeometry;
use hemelb_parallel::{run_spmd_with_stats, CommStats, Communicator, TagClass};
use hemelb_partition::graph::{Connectivity, SiteGraph};
use hemelb_partition::{quality, MultilevelKWay, Partitioner};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Setup repetitions; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Bytes one site update moves through memory by the two-buffer kernel,
/// computed from array sizes: collide reads and writes the `q`
/// populations, stream reads them and writes the next buffer (8 bytes
/// each). Index tables and cache misses are not counted.
pub fn bytes_per_site_update(cfg: &SolverConfig) -> f64 {
    (4 * cfg.model.build().q * 8) as f64
}

/// Maximal runs of consecutive site ids with one owner: how scattered
/// each rank's share of the site list is.
pub fn fragments(owner: &[usize]) -> usize {
    owner.windows(2).filter(|w| w[0] != w[1]).count() + usize::from(!owner.is_empty())
}

/// Read a `.sgmy` file through the geometry layer.
pub fn read_geometry(path: &Path) -> SparseGeometry {
    let file = std::fs::File::open(path).expect("generated .sgmy file exists");
    read_sgmy(&mut std::io::BufReader::new(file)).expect("generated .sgmy file parses")
}

/// One measured phase, as seen by one rank.
struct PhaseRec {
    traced: bool,
    wall: f64,
    step_secs: Vec<f64>,
    comm: CommStats,
}

/// What each rank returns from the world.
struct RankRec {
    new_secs: Vec<f64>,
    phases: Vec<PhaseRec>,
    step_errors: u64,
    digest: u64,
    steps: u64,
}

fn rank_main(
    ctx: &Ctx,
    comm: &Communicator,
    geo: &Arc<SparseGeometry>,
    owner: &[usize],
    cfg: &SolverConfig,
) -> RankRec {
    let tr = ctx.tracer;
    let mut new_secs = Vec::with_capacity(SETUP_REPS);
    let mut solver = None;
    for rep in 0..SETUP_REPS {
        drop(solver.take()); // free the previous repetition's buffers first
        comm.barrier().expect("barrier");
        let t = Instant::now();
        let ds = tr.span("core.dist_new", rep as u64, || {
            DistSolver::new(geo.clone(), owner.to_vec(), cfg.clone(), comm)
        });
        new_secs.push(t.elapsed().as_secs_f64());
        solver = Some(ds.expect("distributed solver construction"));
    }
    let mut ds = solver.expect("at least one setup repetition");
    let mut phases = Vec::new();
    let mut step_errors = 0;
    for (traced, len) in ctx.phases() {
        comm.barrier().expect("barrier");
        if comm.is_master() {
            tr.set_enabled(traced);
        }
        comm.set_obs_enabled(traced);
        comm.barrier().expect("barrier");
        let comm0 = comm.stats();
        let t0 = Instant::now();
        let mut step_secs = Vec::new();
        loop {
            let t = Instant::now();
            let ok = tr.span("core.step", ds.step_count(), || ds.step()).is_ok();
            step_secs.push(t.elapsed().as_secs_f64());
            step_errors += u64::from(!ok);
            // Every rank stops after the same step.
            let done = u64::from(!ok || t0.elapsed() >= len);
            if comm.all_reduce_u64(done, u64::max).expect("stop vote") == 1 {
                break;
            }
        }
        phases.push(PhaseRec {
            traced,
            wall: t0.elapsed().as_secs_f64(),
            step_secs,
            comm: comm.stats().delta_since(&comm0),
        });
    }
    RankRec {
        new_secs,
        phases,
        step_errors,
        digest: digest_bits(&ds.raw_distributions()),
        steps: ds.step_count(),
    }
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let tr = ctx.tracer;
    let mut out = Outcome::default();
    tr.set_enabled(ctx.trace);
    let path = ctx.workdir.join("aneurysm-sim.sgmy");
    let bytes = gen::sgmy_bytes(&gen::standard_vessel(gen::ANEURYSM_SIM_DX));
    std::fs::write(&path, &bytes).expect("write generated .sgmy");

    // Pre-processing, repeated: read, graph, k-way.
    let (mut read_s, mut kway_s, mut pre_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut prepared = None;
    for rep in 0..SETUP_REPS as u64 {
        drop(prepared.take());
        let t = Instant::now();
        let geo = tr.span("geometry.read_sgmy", rep, || read_geometry(&path));
        read_s.push(t.elapsed().as_secs_f64());
        let graph = tr.span("partition.graph", rep, || {
            SiteGraph::from_geometry(&geo, Connectivity::D3Q15)
        });
        let tk = Instant::now();
        let owner = tr.span("partition.kway", rep, || {
            MultilevelKWay::default().partition(&graph, RANKS)
        });
        kway_s.push(tk.elapsed().as_secs_f64());
        pre_s.push(t.elapsed().as_secs_f64());
        prepared = Some((geo, graph, owner));
    }
    let (geo, graph, owner) = prepared.expect("at least one setup repetition");
    let q = quality(&graph, &owner, RANKS);
    drop(graph);
    let geo = Arc::new(geo);
    let sites = geo.fluid_count() as f64;
    let (rho_in, rho_out, tau) = gen::aneurysm_sim_drive(ctx.seed);
    let cfg = SolverConfig::pressure_driven(rho_in, rho_out).with_tau(tau);

    let world = tr.span("bench.world", 0, || {
        let parent = tr.current();
        run_spmd_with_stats(RANKS, |comm| {
            tr.adopt(parent, || rank_main(ctx, comm, &geo, &owner, &cfg))
        })
    });
    let ranks = &world.results;
    let peak_rss = peak_rss_mib();

    // Serial reference of the same number of steps.
    let steps = ranks[0].steps;
    let mut serial = tr.span("core.serial_new", 0, || {
        Solver::new(geo.clone(), cfg.clone())
    });
    serial.set_obs_enabled(false);
    let t = Instant::now();
    for i in 0..steps {
        tr.span("core.serial_step", i, || serial.step());
    }
    let serial_wall = t.elapsed().as_secs_f64();
    let qn = serial.model().q;
    let reference = split_digest(&serial.raw_distributions(), qn, &owner, RANKS);
    drop(serial);
    let digest = combine_digests(&ranks.iter().map(|r| r.digest).collect::<Vec<_>>());
    let step_errors: u64 = ranks.iter().map(|r| r.step_errors).sum();
    out.tally.ops(steps, step_errors);
    out.tally.check(digest == reference, || {
        format!("final state digest {digest:016x} != serial reference {reference:016x} after {steps} steps")
    });

    // Setup: read + graph + k-way, plus the slowest rank's construction.
    let setup: Vec<f64> = (0..SETUP_REPS)
        .map(|i| pre_s[i] + ranks.iter().map(|r| r.new_secs[i]).fold(0.0, f64::max))
        .collect();
    let m = &mut out.metrics;
    m.set("setup_s", median(&setup).unwrap_or(0.0), "s");
    m.set("peak_rss_mib", peak_rss, "MiB");

    for (idx, phase) in ranks[0].phases.iter().enumerate() {
        // A step finishes when its slowest rank does.
        let step_secs: Vec<f64> = (0..phase.step_secs.len())
            .map(|i| {
                ranks
                    .iter()
                    .map(|r| r.phases[idx].step_secs[i])
                    .fold(0.0, f64::max)
            })
            .collect();
        let n = step_secs.len() as f64;
        if !phase.traced {
            m.set("sim_mlups", sites * n / phase.wall / 1e6, "MLUPS");
            m.set(
                "op_p50_ms",
                percentile(&step_secs, 0.5).unwrap_or(0.0) * 1e3,
                "ms",
            );
            m.set(
                "op_p90_ms",
                percentile(&step_secs, 0.9).unwrap_or(0.0) * 1e3,
                "ms",
            );
            m.set("ops_per_s", n / phase.wall, "1/s");
            m.set("op_samples", n, "count");
            continue;
        }
        let untraced = &ranks[0].phases[0];
        let per_step = |secs: f64| secs / (RANKS as f64 * n);
        let obs = world.merged_obs();
        let comm = world
            .results
            .iter()
            .map(|r| r.phases[idx].comm.clone())
            .fold(CommStats::new(), |a, b| a.merged_with(&b));
        m.set(
            "obs.trace_overhead_ratio",
            (phase.wall / n) / (untraced.wall / untraced.step_secs.len() as f64),
            "ratio",
        );
        m.set("core.step_s", step_secs.iter().sum::<f64>() / n, "s");
        m.set(
            "core.collide_s",
            per_step(phase_secs(&obs, "lb.collide") + phase_secs(&obs, "lb.collide-frontier")),
            "s",
        );
        m.set(
            "core.stream_s",
            per_step(phase_secs(&obs, "lb.stream")),
            "s",
        );
        m.set("core.site_updates", sites * n, "count");
        m.set(
            "core.bytes_moved_computed",
            sites * n * bytes_per_site_update(&cfg),
            "bytes",
        );
        m.set(
            "parallel.halo_msgs",
            comm.msgs(TagClass::Halo) as f64 / n,
            "count",
        );
        m.set(
            "parallel.halo_bytes",
            comm.bytes(TagClass::Halo) as f64 / n,
            "bytes",
        );
        m.set(
            "parallel.halo_wait_s",
            per_step(comm.recv_wait_secs(TagClass::Halo)),
            "s",
        );
        m.set(
            "parallel.overlap_efficiency",
            comm.overlap_efficiency(),
            "ratio",
        );
    }
    let dist_new: Vec<f64> = (0..SETUP_REPS)
        .map(|i| ranks.iter().map(|r| r.new_secs[i]).fold(0.0, f64::max))
        .collect();
    m.set("geometry.read_s", median(&read_s).unwrap_or(0.0), "s");
    m.set("geometry.read_bytes", bytes.len() as f64, "bytes");
    m.set("partition.kway_s", median(&kway_s).unwrap_or(0.0), "s");
    m.set("partition.edge_cut", q.edge_cut as f64, "count");
    m.set("partition.imbalance", q.imbalance, "ratio");
    m.set("partition.fragments", fragments(&owner) as f64, "count");
    m.set("core.dist_new_s", median(&dist_new).unwrap_or(0.0), "s");
    m.set(
        "core.serial_mlups",
        sites * steps as f64 / serial_wall / 1e6,
        "MLUPS",
    );
    m.set("sites", sites, "count");
    let buffer_mib = sites * qn as f64 * 8.0 / (1024.0 * 1024.0);
    m.set("population_buffer_mib", buffer_mib, "MiB");
    out.notes.push(format!(
        "one population buffer is {buffer_mib:.1} MiB (the reference machine's LLC is 105 MiB)"
    ));
    out.notes
        .push("no cache is on this path, so there is no hit share".into());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fragments_count_owner_runs() {
        assert_eq!(fragments(&[]), 0);
        assert_eq!(fragments(&[1]), 1);
        assert_eq!(fragments(&[0, 0, 1, 1, 0]), 3);
    }
}
