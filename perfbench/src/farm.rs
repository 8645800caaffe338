//! `farm-sweep`: rounds of a seeded sweep of short fault-free jobs from
//! two weighted tenants, scheduled by `FarmScheduler` over 2 rank slots.
//! Jobs mix three vessel families, two resolutions, τ, pressure and
//! pulsatile drives and 1 or 2 ranks; repeated prep keys hit the
//! pre-processing cache and unique ones miss. Each round gets a fresh
//! scheduler and cache, so every round does the same work.
//!
//! `setup_s` is a round's time to its first result: building the
//! scheduler, setting the tenants' weights and submitting every job,
//! then the first job's submission to commit (its pre-processing and
//! run), as the farm records it. Submission alone takes tens of
//! microseconds, and its median moved by half between processes of the
//! same seed, so on its own it could not be compared between runs.
//!
//! Before the measured rounds every job is run standalone — prep through
//! a fresh `PrepCache`, physics on a serial `Solver` — and every digest
//! the farm records must equal that run's digest, split by the same
//! owner map. Only the standalone digests, site counts and times outlive
//! that pass, so the peak RSS is the farm's own.

use crate::aneurysm::bytes_per_site_update;
use crate::common::{peak_rss_mib, phase_secs, ratio, split_digest, Ctx, Outcome, RANKS};
use crate::gen::{self, TENANT_WEIGHTS};
use crate::stats::{median, percentile};
use hemelb_core::Solver;
use hemelb_farm::{FarmConfig, FarmReport, FarmScheduler, JobSpec, JobStatus, PrepCache};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Pre-processing passes of a traced run; `farm.prep_s` is their median.
const PREP_REPS: usize = 5;

/// Queue every job of the sweep on a fresh scheduler.
fn accept(jobs: &[JobSpec], workdir: &Path) -> FarmScheduler {
    let mut farm = FarmScheduler::new(FarmConfig {
        slots: RANKS,
        threads_per_rank: 1,
        workdir: workdir.to_path_buf(),
        ..FarmConfig::default()
    });
    for (tenant, weight) in TENANT_WEIGHTS {
        farm.set_tenant_weight(tenant, weight);
    }
    for job in jobs {
        farm.submit(job.clone());
    }
    farm
}

/// Build every job's geometry and owner map through `cache`, in
/// submission order.
fn prep(ctx: &Ctx, cache: &PrepCache, jobs: &[JobSpec]) {
    for (i, job) in jobs.iter().enumerate() {
        let sc = &job.scenario;
        ctx.tracer.span("farm.prep_geometry", i as u64, || {
            cache.geometry(&sc.geometry, sc.dx)
        });
        ctx.tracer.span("farm.prep_owner", i as u64, || {
            cache.owner(&sc.geometry, sc.dx, sc.ranks.max(1))
        });
    }
}

/// The standalone result of one job: its digest in the farm's format,
/// its site count, and the serial stepping time.
struct Standalone {
    digest: u64,
    sites: f64,
    step_secs: f64,
}

/// Prep every scenario through a fresh cache and step it on a serial
/// `Solver`; the cache is dropped on return.
fn standalone(ctx: &Ctx, jobs: &[JobSpec]) -> BTreeMap<String, Standalone> {
    let tr = ctx.tracer;
    let cache = PrepCache::new();
    prep(ctx, &cache, jobs);
    let mut out = BTreeMap::new();
    for (i, job) in jobs.iter().enumerate() {
        let sc = &job.scenario;
        let ranks = sc.ranks.max(1);
        let (geo, owner) = (
            cache.geometry(&sc.geometry, sc.dx),
            cache.owner(&sc.geometry, sc.dx, ranks),
        );
        let mut solver = tr.span("core.serial_new", i as u64, || {
            Solver::new(geo.clone(), sc.solver_config())
        });
        solver.set_obs_enabled(false);
        if let Some(bc) = sc.inlet_override() {
            solver.set_inlet_bc(0, bc);
        }
        let t = Instant::now();
        tr.span("core.serial_step", i as u64, || solver.step_n(sc.steps));
        let step_secs = t.elapsed().as_secs_f64();
        let q = solver.model().q;
        let digest = split_digest(&solver.raw_distributions(), q, &owner, ranks);
        out.insert(
            job.name.clone(),
            Standalone {
                digest,
                sites: geo.fluid_count() as f64,
                step_secs,
            },
        );
    }
    out
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let tr = ctx.tracer;
    let mut out = Outcome::default();
    tr.set_enabled(ctx.trace);
    let jobs = gen::farm_sweep(ctx.seed);
    let farm_dir = ctx.workdir.join("farm");

    // The standalone references come first: they need only the sweep,
    // and running them warms the process before the rounds are timed.
    let reference = standalone(ctx, &jobs);

    // Measured phases: whole rounds until the phase length has passed.
    let mut phases: Vec<(bool, Vec<FarmReport>, f64)> = Vec::new();
    let mut first_result = Vec::new();
    let mut round = 0u64;
    for (traced, len) in ctx.phases() {
        tr.set_enabled(traced);
        let t0 = Instant::now();
        let mut reports = Vec::new();
        while reports.is_empty() || t0.elapsed() < len {
            let t = Instant::now();
            let farm = tr.span("farm.accept", round, || accept(&jobs, &farm_dir));
            let accept_s = t.elapsed().as_secs_f64();
            let report = tr.span("farm.run", round, || farm.run());
            if !traced {
                first_result
                    .push(accept_s + report.records.first().map_or(0.0, |r| r.latency_secs));
            }
            reports.push(report);
            round += 1;
        }
        phases.push((traced, reports, t0.elapsed().as_secs_f64()));
    }
    let peak_rss = peak_rss_mib();
    // One round's pre-processing cost, off the measured path.
    let prep_s: Vec<f64> = if ctx.trace {
        (0..PREP_REPS)
            .map(|_| {
                let t = Instant::now();
                prep(ctx, &PrepCache::new(), &jobs);
                t.elapsed().as_secs_f64()
            })
            .collect()
    } else {
        Vec::new()
    };

    for (_, reports, _) in &phases {
        for rec in reports.iter().flat_map(|r| &r.records) {
            let completed = rec.status == JobStatus::Completed;
            out.tally.check(completed, || {
                format!("job {} did not complete: {:?}", rec.name, rec.error)
            });
            if !completed {
                continue;
            }
            let want = reference.get(&rec.name).map(|s| s.digest);
            out.tally.check(rec.digest == want, || {
                format!(
                    "job {}: farm digest {:?} != standalone {:?}",
                    rec.name, rec.digest, want
                )
            });
        }
    }

    let m = &mut out.metrics;
    m.set("setup_s", median(&first_result).unwrap_or(0.0), "s");
    m.set("peak_rss_mib", peak_rss, "MiB");
    let spec_of = |name: &str| jobs.iter().find(|j| j.name == name);
    let sites_of = |name: &str| reference.get(name).map_or(0.0, |s| s.sites);
    let bytes_of = |name: &str| {
        spec_of(name).map_or(0.0, |j| bytes_per_site_update(&j.scenario.solver_config()))
    };
    let untraced_per_job = {
        let (_, reports, wall) = &phases[0];
        wall / reports.iter().map(|r| r.records.len()).sum::<usize>() as f64
    };
    for (traced, reports, wall) in &phases {
        let records: Vec<_> = reports.iter().flat_map(|r| &r.records).collect();
        let completed: Vec<_> = records
            .iter()
            .filter(|r| r.status == JobStatus::Completed)
            .collect();
        let site_updates: f64 = completed
            .iter()
            .map(|r| sites_of(&r.name) * r.steps as f64)
            .sum();
        let bytes_moved: f64 = completed
            .iter()
            .map(|r| sites_of(&r.name) * r.steps as f64 * bytes_of(&r.name))
            .sum();
        let n = records.len() as f64;
        let (hits, misses) = reports
            .iter()
            .fold((0, 0), |(h, m), r| (h + r.cache_hits, m + r.cache_misses));
        let hit_share = ratio(hits as f64, (hits + misses) as f64);
        if !traced {
            let latency: Vec<f64> = completed.iter().map(|r| r.latency_secs).collect();
            let p90 = percentile(&latency, 0.9).unwrap_or(0.0);
            m.set("sim_mlups", site_updates / wall / 1e6, "MLUPS");
            m.set(
                "op_p50_ms",
                percentile(&latency, 0.5).unwrap_or(0.0) * 1e3,
                "ms",
            );
            m.set("op_p90_ms", p90 * 1e3, "ms");
            m.set("ops_per_s", completed.len() as f64 / wall, "1/s");
            m.set(
                "jobs_per_hour",
                completed.len() as f64 / wall * 3600.0,
                "1/h",
            );
            m.set("job_latency_p90_s", p90, "s");
            m.set("op_samples", latency.len() as f64, "count");
            m.set("hit_share", hit_share, "ratio");
            continue;
        }
        let waits: Vec<f64> = records.iter().map(|r| r.queue_wait_secs).collect();
        let rank_steps: f64 = completed
            .iter()
            .map(|r| {
                let ranks = spec_of(&r.name).map_or(1, |j| j.scenario.ranks.max(1));
                (ranks as u64 * r.steps) as f64
            })
            .sum();
        let obs = hemelb_obs::ObsReport::merged(
            &completed.iter().map(|r| r.obs.clone()).collect::<Vec<_>>(),
        );
        let kernel = [
            "lb.collide",
            "lb.collide-frontier",
            "lb.stream",
            "lb.halo-pack",
            "lb.halo-wait",
        ]
        .iter()
        .map(|p| phase_secs(&obs, p))
        .sum::<f64>();
        let per_step = |secs: f64| ratio(secs, rank_steps);
        m.set(
            "obs.trace_overhead_ratio",
            (wall / n) / untraced_per_job,
            "ratio",
        );
        m.set("farm.prep_s", median(&prep_s).unwrap_or(0.0), "s");
        m.set("farm.prep_hit_ratio", hit_share, "ratio");
        m.set(
            "farm.queue_wait_p90_s",
            percentile(&waits, 0.9).unwrap_or(0.0),
            "s",
        );
        m.set(
            "farm.run_s",
            ratio(records.iter().map(|r| r.run_secs).sum(), n),
            "s",
        );
        m.set(
            "farm.retries",
            records
                .iter()
                .map(|r| r.attempts.saturating_sub(1) as f64)
                .sum(),
            "count",
        );
        m.set(
            "farm.failed",
            records
                .iter()
                .filter(|r| r.status == JobStatus::Failed)
                .count() as f64,
            "count",
        );
        m.set("core.step_s", per_step(kernel), "s");
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
        m.set("core.site_updates", site_updates, "count");
        m.set("core.bytes_moved_computed", bytes_moved, "bytes");
        m.set(
            "parallel.halo_wait_s",
            per_step(phase_secs(&obs, "lb.halo-wait")),
            "s",
        );
    }
    let (serial_updates, serial_secs) = jobs.iter().fold((0.0, 0.0), |(u, s), j| {
        let r = &reference[&j.name];
        (u + r.sites * j.scenario.steps as f64, s + r.step_secs)
    });
    m.set(
        "core.serial_mlups",
        serial_updates / serial_secs / 1e6,
        "MLUPS",
    );
    out
}
