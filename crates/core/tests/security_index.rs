//! Cross-validation of the two security-index implementations.
//!
//! The SAT engine (`scada_analyzer::security_index`, cardinality
//! descent over the CNF encoding) and the min-cut engine
//! (`powergrid::securityindex`, max-flow over the sparsity gadget
//! graph) compute the same quantity by entirely different means and
//! share no code — so any disagreement, on any measurement, is a bug in
//! one of them. The differential tests sweep every measurement of the
//! four IEEE systems; the proptest fuzzes random measurement subsets at
//! random densities.

use powergrid::measurement::{MeasurementKind, MeasurementSet};
use powergrid::securityindex::{security_index, security_indices};
use powergrid::{BusId, MeasurementId, PowerSystem};
use proptest::prelude::*;
use scada_analyzer::{Certificate, CertifyOptions, SecurityIndexAnalyzer, UnindexableMeasurement};

/// SAT-vs-min-cut agreement on every measurement of one system.
fn assert_engines_agree(ms: &MeasurementSet, label: &str) {
    let mincut = security_indices(ms);
    let sat = SecurityIndexAnalyzer::new(ms).unwrap().distribution();
    assert_eq!(mincut, sat.indices, "engines disagree on {label}");
    assert!(sat.indices.iter().all(|&i| i >= 1), "{label} index below 1");
}

#[test]
fn engines_agree_on_ieee14_and_30() {
    assert_engines_agree(&MeasurementSet::full(powergrid::ieee::ieee14()), "ieee14");
    assert_engines_agree(
        &MeasurementSet::full(powergrid::synthetic::ieee_sized(30, 0)),
        "ieee30",
    );
}

#[test]
fn engines_agree_on_ieee57() {
    assert_engines_agree(
        &MeasurementSet::full(powergrid::synthetic::ieee_sized(57, 0)),
        "ieee57",
    );
}

#[test]
fn engines_agree_on_ieee118() {
    assert_engines_agree(
        &MeasurementSet::full(powergrid::synthetic::ieee_sized(118, 0)),
        "ieee118",
    );
}

/// Sampled (partial) measurement sets exercise zero-weight lines and
/// boundary buses without measured injections — the gadget cases a full
/// set never hits.
#[test]
fn engines_agree_on_sampled_sets() {
    for (density, seed) in [(0.4, 7), (0.6, 11), (0.8, 13)] {
        let ms = MeasurementSet::sampled(powergrid::ieee::ieee14(), density, seed);
        assert_engines_agree(&ms, &format!("ieee14 density {density} seed {seed}"));
    }
}

/// Certified distribution: every per-component verdict checks (the
/// final unsat bound DRAT-replays, the optimal model re-validates), and
/// the indices still match the min-cut oracle.
#[test]
fn certified_distribution_agrees_and_checks() {
    let ms = MeasurementSet::full(powergrid::ieee::ieee14());
    let certify = CertifyOptions::enabled();
    let mut analyzer = SecurityIndexAnalyzer::with_certification(&ms, &certify).unwrap();
    let sat = analyzer.distribution();
    assert_eq!(sat.cert_failures, 0);
    assert_eq!(certify.log.failures(), 0);
    assert!(certify.log.checks() > 0);
    assert_eq!(security_indices(&ms), sat.indices);
}

/// An above-floor verdict certifies with a real DRAT refutation: the
/// tightened bound must be refuted by the replayed proof, not assumed.
#[test]
fn unsat_bound_is_drat_certified() {
    // Path 1–2, full measurements: attacking the single line affects
    // both its flows and both injections (index 4 for every target).
    let sys = powergrid::PowerSystem::new(
        "pair",
        2,
        vec![powergrid::Branch::new(
            powergrid::BusId(0),
            powergrid::BusId(1),
            1.0,
        )],
    );
    let ms = MeasurementSet::full(sys);
    let certify = CertifyOptions::enabled();
    let mut analyzer = SecurityIndexAnalyzer::with_certification(&ms, &certify).unwrap();
    let report = analyzer.index_of(powergrid::MeasurementId(0));
    assert_eq!(report.index, 4);
    match report.certificate {
        Some(Certificate::Proof { .. }) => {}
        other => panic!("expected a DRAT-backed proof certificate, got {other:?}"),
    }
}

/// IEEE-14 with one extra bus (bus 15) that no line reaches.
fn ieee14_with_isolated_bus() -> PowerSystem {
    let sys = powergrid::ieee::ieee14();
    PowerSystem::new("ieee14+isolated", 15, sys.branches().to_vec())
}

/// Both engines reject a model with an injection at a bus that has no
/// line, with the same typed error naming the measurement and its bus —
/// for every target, reachable ones included.
#[test]
fn engines_reject_an_isolated_bus_injection_alike() {
    let sys = ieee14_with_isolated_bus();
    let mut kinds = MeasurementSet::full(powergrid::ieee::ieee14())
        .kinds()
        .to_vec();
    let measurement = MeasurementId(kinds.len());
    kinds.push(MeasurementKind::Injection(BusId(14)));
    let ms = MeasurementSet::new(sys, kinds);
    let want = UnindexableMeasurement {
        measurement,
        bus: BusId(14),
    };
    assert_eq!(SecurityIndexAnalyzer::new(&ms).err(), Some(want));
    assert_eq!(
        SecurityIndexAnalyzer::with_certification(&ms, &CertifyOptions::enabled()).err(),
        Some(want)
    );
    for id in [MeasurementId(0), measurement] {
        assert_eq!(security_index(&ms, id), Err(want), "{id}");
    }
    let message = want.to_string();
    assert!(
        message.contains(&measurement.to_string()) && message.contains("bus15"),
        "{message}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random measurement subsets of the 14-bus system: the engines
    /// must agree on every member, at any density.
    #[test]
    fn engines_agree_on_random_subsets(density in 0.2f64..1.0, seed in 0u64..10_000) {
        let ms = MeasurementSet::sampled(powergrid::ieee::ieee14(), density, seed);
        if ms.is_empty() {
            return;
        }
        let mincut = security_indices(&ms);
        let sat = SecurityIndexAnalyzer::new(&ms).unwrap().distribution();
        prop_assert_eq!(
            mincut,
            sat.indices,
            "engines disagree at density {} seed {}",
            density,
            seed
        );
    }

    /// The same with bus 15 isolated: a sampled set either measures its
    /// injection, and both engines reject the model with the same error,
    /// or it does not, and both agree on every index.
    #[test]
    fn engines_agree_with_an_isolated_bus(density in 0.2f64..1.0, seed in 0u64..10_000) {
        let ms = MeasurementSet::sampled(ieee14_with_isolated_bus(), density, seed);
        if ms.is_empty() {
            return;
        }
        let sat = SecurityIndexAnalyzer::new(&ms).map(|mut a| a.distribution().indices);
        let mincut = ms
            .ids()
            .map(|id| security_index(&ms, id).map(|r| r.index))
            .collect::<Result<Vec<_>, _>>();
        prop_assert_eq!(
            sat,
            mincut,
            "engines disagree at density {} seed {}",
            density,
            seed
        );
    }
}
