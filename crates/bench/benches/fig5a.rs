//! Criterion bench for Fig 5(a): k-resilient observability verification
//! time vs problem size, sat and unsat series.
//!
//! 118-bus instances run in the `experiments` harness (single-shot);
//! here the criterion statistics cover 14/30/57.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use scada_analyzer::{Property, QueryCtx, ResiliencySpec};
use scada_bench::{measure, resiliency_boundary, Workload};
use std::hint::black_box;

fn bench_fig5a(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5a_observability");
    group.sample_size(10);
    for buses in [14usize, 30, 57] {
        let input = Workload {
            buses,
            density: 0.9,
            hierarchy: 1,
            secure_fraction: 0.9,
            seed: 0,
        }
        .build();
        let Some((k_unsat, k_sat)) = resiliency_boundary(&input, Property::Observability, 8) else {
            continue;
        };
        group.bench_with_input(BenchmarkId::new("unsat", buses), &buses, |b, _| {
            b.iter(|| {
                measure(
                    black_box(&input),
                    Property::Observability,
                    ResiliencySpec::total(k_unsat),
                    &QueryCtx::default(),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("sat", buses), &buses, |b, _| {
            b.iter(|| {
                measure(
                    black_box(&input),
                    Property::Observability,
                    ResiliencySpec::total(k_sat),
                    &QueryCtx::default(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig5a);
criterion_main!(benches);
