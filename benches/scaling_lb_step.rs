//! E7 bench: the distributed LB time step across rank counts and
//! partitioners — the core strong-scaling measurement — plus the
//! serial-vs-thread-parallel kernel comparison (site-updates/sec via
//! the element throughput). Note: parallel numbers only beat serial
//! when the host actually has spare cores; on a single-core box the
//! thread-count sweep measures pure overhead, which is itself a useful
//! number. Results are bit-identical either way.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hemelb::core::reference::ReferenceSolver;
use hemelb::core::{DistSolver, ParallelSolver, Solver, SolverConfig};
use hemelb::parallel::run_spmd;
use hemelb_bench::workloads::{self, Size};

fn bench(c: &mut Criterion) {
    let geo = workloads::aneurysm(Size::Tiny);
    let sites = geo.fluid_count() as u64;

    let mut g = c.benchmark_group("lb_step");
    g.sample_size(10);
    g.throughput(Throughput::Elements(sites));
    g.bench_function("serial", |b| {
        let mut oracle =
            ReferenceSolver::new(geo.clone(), SolverConfig::pressure_driven(1.01, 0.99));
        b.iter(|| oracle.step_n(1));
    });
    g.bench_function("serial_soa_simd", |b| {
        let mut solver = Solver::new(geo.clone(), SolverConfig::pressure_driven(1.01, 0.99));
        b.iter(|| solver.step());
    });
    for t in [1usize, 2, 4] {
        g.bench_with_input(BenchmarkId::new("threaded", t), &t, |b, &t| {
            let mut solver =
                ParallelSolver::new(geo.clone(), SolverConfig::pressure_driven(1.01, 0.99), t);
            b.iter(|| solver.step());
        });
    }
    for p in [2usize, 4, 8] {
        for (name, owner) in [
            ("slab", workloads::slab_owner(&geo, p)),
            ("kway", workloads::kway_owner(&geo, p)),
        ] {
            let geo2 = geo.clone();
            g.bench_with_input(BenchmarkId::new(format!("dist_{name}"), p), &p, |b, &p| {
                b.iter(|| {
                    let geo3 = geo2.clone();
                    let owner3 = owner.clone();
                    // 10 steps per iteration amortise construction.
                    run_spmd(p, move |comm| {
                        let mut s = DistSolver::new(
                            geo3.clone(),
                            owner3.clone(),
                            SolverConfig::pressure_driven(1.01, 0.99),
                            comm,
                        )
                        .unwrap();
                        s.step_n(10).unwrap();
                    })
                })
            });
        }
        // Overlapped vs synchronous halo exchange at the same
        // decomposition (E18 measures the wait breakdown; this row
        // tracks the raw step-time difference).
        for (name, overlap) in [("dist_overlap", true), ("dist_sync", false)] {
            let geo2 = geo.clone();
            let owner = workloads::slab_owner(&geo, p);
            g.bench_with_input(BenchmarkId::new(name, p), &p, |b, &p| {
                b.iter(|| {
                    let geo3 = geo2.clone();
                    let owner3 = owner.clone();
                    run_spmd(p, move |comm| {
                        let cfg = SolverConfig::pressure_driven(1.01, 0.99).with_overlap(overlap);
                        let mut s =
                            DistSolver::new(geo3.clone(), owner3.clone(), cfg, comm).unwrap();
                        s.step_n(10).unwrap();
                    })
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
