//! Enumerate the complete threat space of a synthetic SCADA system.
//!
//! ```text
//! cargo run --release --example threat_enumeration [buses] [hierarchy] [seed]
//! ```
//!
//! Generates a SCADA network over an IEEE-sized grid, then enumerates
//! every minimal threat vector for observability and secured
//! observability at a (2,1) specification — the analysis behind the
//! paper's Fig 7(b) threat-space study.

use scada_analysis::analyzer::{
    enumerate_threats, AnalysisInput, Property, QueryCtx, ResiliencySpec,
};
use scada_analysis::power::ieee::ieee14;
use scada_analysis::power::synthetic::ieee_sized;
use scada_analysis::scada::{generate, ScadaGenConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let buses: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(14);
    let hierarchy: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(2);
    let seed: u64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(7);

    let system = if buses == 14 {
        ieee14()
    } else {
        ieee_sized(buses, seed)
    };
    let scada = generate(
        system,
        &ScadaGenConfig {
            measurement_density: 0.6,
            hierarchy_level: hierarchy,
            secure_fraction: 0.7,
            seed,
            ..Default::default()
        },
    );
    println!(
        "generated SCADA: {} measurements, {} IEDs, {} RTUs, hierarchy {}",
        scada.measurements.len(),
        scada.topology.ieds().count(),
        scada.topology.rtus().count(),
        hierarchy,
    );
    let input = AnalysisInput::new(scada.measurements, scada.topology, scada.ied_measurements);

    let spec = ResiliencySpec::split(2, 1);
    for property in [Property::Observability, Property::SecuredObservability] {
        let space = enumerate_threats(&input, property, spec, 500, &QueryCtx::default());
        println!(
            "\n{property} at {spec}: {} minimal threat vector(s){}",
            space.len(),
            if space.truncated { " (truncated)" } else { "" },
        );
        for (i, v) in space.vectors.iter().enumerate().take(20) {
            println!("  #{:<3} {v}", i + 1);
        }
        if space.len() > 20 {
            println!("  … and {} more", space.len() - 20);
        }
    }
}
