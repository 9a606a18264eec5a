//! Criterion bench for Fig 7(b): complete threat-space enumeration on
//! the 14-bus system across hierarchy levels — higher hierarchy means
//! more minimal vectors, hence more blocking-clause iterations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use scada_analyzer::{enumerate_threats, Property, QueryCtx, ResiliencySpec};
use scada_bench::Workload;
use std::hint::black_box;

fn bench_fig7b(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7b_threat_space");
    group.sample_size(10);
    for hierarchy in 1..=3usize {
        let input = Workload {
            buses: 14,
            density: 0.7,
            hierarchy,
            secure_fraction: 0.9,
            seed: 100,
        }
        .build();
        group.bench_with_input(
            BenchmarkId::new("enumerate_2_1", hierarchy),
            &hierarchy,
            |b, _| {
                b.iter(|| {
                    enumerate_threats(
                        black_box(&input),
                        Property::Observability,
                        ResiliencySpec::split(2, 1),
                        2000,
                        &QueryCtx::default(),
                    )
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_fig7b);
criterion_main!(benches);
