//! Ablation bench: design choices the DESIGN.md calls out — collision
//! kernel (LBGK vs TRT), velocity set (D3Q15 vs D3Q19), kernel memory
//! layout (site-major oracle vs the production SoA site list) and
//! lattice resolution — measured on the LB step they affect.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hemelb::core::collision::CollisionKind;
use hemelb::core::reference::ReferenceSolver;
use hemelb::core::solver::ModelKind;
use hemelb::core::{Solver, SolverConfig};
use hemelb_bench::workloads::{self, Size};

fn bench(c: &mut Criterion) {
    let geo = workloads::aneurysm(Size::Tiny);
    let sites = geo.fluid_count() as u64;

    let mut g = c.benchmark_group("ablation");
    g.sample_size(10);
    g.throughput(Throughput::Elements(sites));

    for (name, kind) in [
        ("bgk", CollisionKind::Bgk),
        ("trt", CollisionKind::trt_magic()),
        ("mrt", CollisionKind::Mrt { omega_ghost: 1.2 }),
    ] {
        g.bench_with_input(BenchmarkId::new("collision", name), &kind, |b, &kind| {
            let mut solver = Solver::new(
                geo.clone(),
                SolverConfig::pressure_driven(1.01, 0.99).with_collision(kind),
            );
            b.iter(|| solver.step());
        });
    }

    g.bench_function(BenchmarkId::new("layout", "legacy"), |b| {
        let mut oracle =
            ReferenceSolver::new(geo.clone(), SolverConfig::pressure_driven(1.01, 0.99));
        b.iter(|| oracle.step_n(1));
    });
    g.bench_function(BenchmarkId::new("layout", "soa_simd"), |b| {
        let mut solver = Solver::new(geo.clone(), SolverConfig::pressure_driven(1.01, 0.99));
        b.iter(|| solver.step());
    });

    for (name, model) in [("d3q15", ModelKind::D3Q15), ("d3q19", ModelKind::D3Q19)] {
        g.bench_with_input(BenchmarkId::new("lattice", name), &model, |b, &model| {
            let mut solver = Solver::new(
                geo.clone(),
                SolverConfig::pressure_driven(1.01, 0.99).with_model(model),
            );
            b.iter(|| solver.step());
        });
    }
    g.finish();

    let mut g = c.benchmark_group("ablation_resolution");
    g.sample_size(10);
    for size in [Size::Tiny, Size::Small] {
        let geo = workloads::aneurysm(size);
        g.throughput(Throughput::Elements(geo.fluid_count() as u64));
        g.bench_with_input(
            BenchmarkId::new("lb_step", geo.fluid_count()),
            &geo,
            |b, geo| {
                let mut solver =
                    Solver::new(geo.clone(), SolverConfig::pressure_driven(1.01, 0.99));
                b.iter(|| solver.step());
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
