//! Criterion bench: security-index distribution times, IEEE 14 → 118.
//!
//! Two series per grid size answer "what does each implementation pay
//! to price every measurement": `sat/ieeeN` runs the incremental SAT
//! engine (one shared `UnaryCounter`, assumption-guided descent) over
//! the full measurement set; `mincut/ieeeN` runs the combinatorial
//! min-cut pricer from Hendrickx et al. on the same set. The absolute
//! numbers feed the EXPERIMENTS.md index-distribution figure; the two
//! series must of course agree on every index (the differential test
//! suite enforces that — here we only measure).

use criterion::{criterion_group, criterion_main, Criterion};
use powergrid::measurement::MeasurementSet;
use scada_analyzer::SecurityIndexAnalyzer;
use std::hint::black_box;

/// Full (flow + injection) measurement set over an IEEE-shaped grid.
fn grid(buses: usize) -> MeasurementSet {
    let system = if buses == 14 {
        powergrid::ieee::ieee14()
    } else {
        powergrid::synthetic::ieee_sized(buses, 0)
    };
    MeasurementSet::full(system)
}

fn bench_security_index(c: &mut Criterion) {
    let mut group = c.benchmark_group("security_index");
    group.sample_size(10);

    for buses in [14, 30, 57, 118] {
        let ms = grid(buses);
        group.bench_function(format!("sat/ieee{buses}"), |bench| {
            bench.iter(|| {
                let mut engine = SecurityIndexAnalyzer::new(&ms).expect("full sets are indexable");
                black_box(engine.distribution())
            })
        });
        group.bench_function(format!("mincut/ieee{buses}"), |bench| {
            bench.iter(|| black_box(powergrid::securityindex::security_indices(&ms)))
        });
    }

    group.finish();
}

criterion_group!(benches, bench_security_index);
criterion_main!(benches);
