//! Scenario 2: secured observability on the 5-bus case study.
//!
//! ```text
//! cargo run --example secured_observability
//! ```
//!
//! The same system that is (1,1)-resilient *observable* is NOT
//! (1,1)-resilient *securely* observable: two hops (IED1→RTU9,
//! RTU10→RTU11) carry only HMAC-128 — authenticated but not
//! integrity-protected — and IED4's hop has no profile at all, so their
//! measurements cannot be trusted against false-data injection. This
//! example walks through the per-hop classification, the verdicts, and
//! the Fig-4 rewiring that makes RTU 12 a single point of (secured)
//! failure.

use scada_analysis::analyzer::casestudy::{five_bus_case_study, five_bus_fig4};
use scada_analysis::analyzer::{
    enumerate_threats, Analyzer, Property, QueryCtx, ResiliencySpec, Verdict,
};
use scada_analysis::scada::SecurityPolicy;

fn main() {
    let input = five_bus_case_study();
    let policy = SecurityPolicy::dsn16();

    println!("security profile classification (DSN'16 policy):");
    let mut entries: Vec<_> = input.topology.pair_security_entries().collect();
    entries.sort_by_key(|&(a, b, _)| (a, b));
    for (a, b, profiles) in entries {
        let auth = policy.hop_authenticated(profiles);
        let integ = policy.hop_integrity_protected(profiles);
        let rendered: Vec<String> = profiles.iter().map(|p| p.to_string()).collect();
        println!(
            "  {:>2} ↔ {:<2} [{}]  auth={} integrity={}{}",
            a.one_based(),
            b.one_based(),
            rendered.join(", "),
            auth,
            integ,
            if auth && integ { "  ✓ secured" } else { "" },
        );
    }

    let mut analyzer = Analyzer::new(&input);
    for (k1, k2) in [(1, 1), (1, 0), (0, 1)] {
        let spec = ResiliencySpec::split(k1, k2);
        let verdict = analyzer.verify(Property::SecuredObservability, spec);
        match verdict {
            Verdict::Resilient => println!("[{spec}] secured observability: RESILIENT"),
            Verdict::Threat(v) => println!("[{spec}] secured observability: THREAT {v}"),
            Verdict::Unknown { .. } => unreachable!("unlimited query"),
        }
    }

    // All threat vectors at (1,1) — the paper reports five.
    let space = enumerate_threats(
        &input,
        Property::SecuredObservability,
        ResiliencySpec::split(1, 1),
        32,
        &QueryCtx::default(),
    );
    println!("\nall minimal (1,1) secured-observability threat vectors:");
    for v in &space.vectors {
        println!("  {v}");
    }

    // Fig 4: RTU 9 rewired to RTU 12 — one device now carries the data
    // of six of the eight IEDs.
    let fig4 = five_bus_fig4();
    let space = enumerate_threats(
        &fig4,
        Property::SecuredObservability,
        ResiliencySpec::split(0, 1),
        32,
        &QueryCtx::default(),
    );
    println!(
        "\nFig-4 variant (RTU9 → RTU12): single-RTU secured threat vectors: {:?}",
        space
            .vectors
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
    );
}
