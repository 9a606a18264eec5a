//! Security-configuration synthesis — the paper's future-work item,
//! implemented: find the minimal set of hop upgrades that restores a
//! failed secured-observability specification.
//!
//! ```text
//! cargo run --release --example security_repair
//! ```

use scada_analysis::analyzer::casestudy::five_bus_case_study;
use scada_analysis::analyzer::synthesis::{
    apply_upgrades, synthesize_upgrades, upgradable_hops, SynthesisOptions, SynthesisResult,
};
use scada_analysis::analyzer::{Analyzer, Property, QueryCtx, ResiliencySpec, Verdict};

fn main() {
    let input = five_bus_case_study();
    let property = Property::SecuredObservability;
    let spec = ResiliencySpec::split(1, 1);

    println!("Scenario 2 recap: the case study fails (1,1)-resilient secured observability.");
    let mut analyzer = Analyzer::new(&input);
    match analyzer.verify(property, spec) {
        Verdict::Threat(v) => println!("  counterexample: {v}"),
        other => unreachable!("the paper and our tests say otherwise: {other:?}"),
    }

    let hops = upgradable_hops(&input);
    println!("\nhops with insufficient security (upgrade candidates):");
    for (a, b) in &hops {
        println!("  {} ↔ {}", a.one_based(), b.one_based());
    }

    println!("\nsynthesizing a minimal upgrade set…");
    match synthesize_upgrades(
        &input,
        property,
        spec,
        &SynthesisOptions::default(),
        &QueryCtx::default(),
    ) {
        SynthesisResult::Upgrades(upgrades) => {
            for (a, b) in &upgrades {
                println!(
                    "  → upgrade {} ↔ {} to CHAP-64 + SHA-2-256",
                    a.one_based(),
                    b.one_based()
                );
            }
            let fixed = apply_upgrades(
                &input,
                &upgrades,
                scada_analysis::analyzer::synthesis::UpgradeSuite::ChapSha2,
            );
            let mut analyzer = Analyzer::new(&fixed);
            let verdict = analyzer.verify(property, spec);
            println!(
                "\nre-verification after repair: {}",
                if verdict.is_resilient() {
                    "RESILIENT — the specification now holds"
                } else {
                    "still failing (unexpected)"
                }
            );
        }
        SynthesisResult::AlreadyResilient => println!("  nothing to do"),
        SynthesisResult::Infeasible => {
            println!("  infeasible: no crypto upgrade can compensate the topology")
        }
        // Only reachable under resource limits; this example runs unbounded.
        SynthesisResult::Undecided => println!("  undecided: a resource limit cut the search"),
    }
}
