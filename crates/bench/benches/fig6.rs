//! Criterion bench for Fig 6: verification time vs RTU hierarchy level,
//! 14-bus (a) and 57-bus (b). Expected shapes: sat times fall with
//! hierarchy (bigger threat space → earlier hits), unsat times mostly
//! rise (more paths to refute).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use scada_analyzer::{Property, QueryCtx, ResiliencySpec};
use scada_bench::{measure, resiliency_boundary, Workload};
use std::hint::black_box;

fn bench_fig6(c: &mut Criterion) {
    for buses in [14usize, 57] {
        let mut group = c.benchmark_group(format!("fig6_{buses}bus"));
        group.sample_size(10);
        for hierarchy in 1..=4usize {
            let input = Workload {
                buses,
                density: 0.9,
                hierarchy,
                secure_fraction: 0.9,
                seed: 0,
            }
            .build();
            let Some((k_unsat, k_sat)) = resiliency_boundary(&input, Property::Observability, 8)
            else {
                continue;
            };
            group.bench_with_input(BenchmarkId::new("unsat", hierarchy), &hierarchy, |b, _| {
                b.iter(|| {
                    measure(
                        black_box(&input),
                        Property::Observability,
                        ResiliencySpec::total(k_unsat),
                        &QueryCtx::default(),
                    )
                })
            });
            group.bench_with_input(BenchmarkId::new("sat", hierarchy), &hierarchy, |b, _| {
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
}

criterion_group!(benches, bench_fig6);
criterion_main!(benches);
