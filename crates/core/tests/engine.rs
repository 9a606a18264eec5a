//! Engine-level tests: the encoder's lazy chains, budget assumptions,
//! enumeration on hand-built topologies, and the resiliency frontier.

use std::collections::HashSet;

use powergrid::ieee::case5;
use powergrid::{BusId, MeasurementId, MeasurementKind, MeasurementSet};
use scada_analyzer::casestudy::five_bus_case_study;
use scada_analyzer::encode::ModelEncoder;
use scada_analyzer::{
    enumerate_threats, AnalysisInput, Analyzer, BudgetAxis, Property, QueryCtx, ResiliencySpec,
};
use scadasim::{Device, DeviceId, DeviceKind, Link, Topology};

/// Two IEDs on one RTU, one IED on another; five injection measurements.
fn two_rtu_input() -> AnalysisInput {
    let sys = case5();
    let kinds: Vec<MeasurementKind> = (0..5)
        .map(|b| MeasurementKind::Injection(BusId(b)))
        .collect();
    let ms = MeasurementSet::new(sys, kinds);
    let devices = vec![
        Device::new(DeviceId(0), DeviceKind::Ied),
        Device::new(DeviceId(1), DeviceKind::Ied),
        Device::new(DeviceId(2), DeviceKind::Ied),
        Device::new(DeviceId(3), DeviceKind::Rtu),
        Device::new(DeviceId(4), DeviceKind::Rtu),
        Device::new(DeviceId(5), DeviceKind::Mtu),
    ];
    let links = vec![
        Link::new(DeviceId(0), DeviceId(3)),
        Link::new(DeviceId(1), DeviceId(3)),
        Link::new(DeviceId(2), DeviceId(4)),
        Link::new(DeviceId(3), DeviceId(5)),
        Link::new(DeviceId(4), DeviceId(5)),
    ];
    let topo = Topology::new(devices, links);
    AnalysisInput::new(
        ms,
        topo,
        vec![
            (DeviceId(0), vec![MeasurementId(0), MeasurementId(1)]),
            (DeviceId(1), vec![MeasurementId(2), MeasurementId(3)]),
            (DeviceId(2), vec![MeasurementId(4)]),
        ],
    )
}

#[test]
fn encoder_chains_are_lazy() {
    let input = five_bus_case_study();
    let mut encoder = ModelEncoder::new(&input);
    let base = encoder.stats();
    assert!(base.variables > 0);
    // Building the plain chain grows the encoding …
    let _ = encoder.delivered_lits(&input);
    let with_plain = encoder.stats();
    assert!(with_plain.clauses > base.clauses);
    // … and asking again does not.
    let _ = encoder.delivered_lits(&input);
    assert_eq!(encoder.stats(), with_plain);
    // The secured chain adds more on top.
    let _ = encoder.secured_lits(&input);
    assert!(encoder.stats().clauses > with_plain.clauses);
}

#[test]
fn find_violation_matches_evaluator_on_small_topology() {
    let input = two_rtu_input();
    let mut encoder = ModelEncoder::new(&input);
    let analyzer = Analyzer::new(&input);
    let eval = analyzer.evaluator();
    for k in 0..=3 {
        let spec = ResiliencySpec::total(k);
        let outcome = encoder.find_violation(&input, Property::Observability, spec);
        let has_reference = eval
            .find_threat_exhaustive(Property::Observability, spec)
            .is_some();
        assert_eq!(outcome.is_violation(), has_reference, "k={k}");
        if let Some(v) = outcome.violation() {
            let failed: HashSet<DeviceId> = v.devices.iter().copied().collect();
            assert!(failed.len() <= k, "budget respected");
            assert!(eval.violates(Property::Observability, 1, &failed));
        }
    }
}

#[test]
fn enumeration_on_crafted_topology_is_exact() {
    // Boolean observability needs 5 unique delivered components here
    // (5 injections = 5 components). Any single IED loss drops below 5:
    // minimal vectors at (1,1) are the three IEDs and the two RTUs.
    let input = two_rtu_input();
    let space = enumerate_threats(
        &input,
        Property::Observability,
        ResiliencySpec::split(1, 1),
        64,
        &QueryCtx::default(),
    );
    assert!(!space.truncated);
    let rendered: HashSet<String> = space.vectors.iter().map(|v| v.to_string()).collect();
    let expected: HashSet<String> = ["{IED 1}", "{IED 2}", "{IED 3}", "{RTU 4}", "{RTU 5}"]
        .into_iter()
        .map(String::from)
        .collect();
    assert_eq!(rendered, expected);
}

#[test]
fn frontier_is_monotone_and_consistent() {
    let input = five_bus_case_study();
    let mut analyzer = Analyzer::new(&input);
    let frontier = analyzer.resiliency_frontier(Property::Observability, 1);
    assert!(!frontier.is_empty());
    // k2 bounds weakly decrease as k1 grows.
    for w in frontier.windows(2) {
        let (k1a, b1) = w[0];
        let (k1b, b2) = w[1];
        assert_eq!(k1b, k1a + 1);
        match (b1, b2) {
            (Some(x), Some(y)) => assert!(y <= x, "frontier not monotone"),
            (None, Some(_)) => panic!("frontier regained resiliency"),
            _ => {}
        }
    }
    // Each frontier point is certified, and the next k2 is refuted.
    for &(k1, best) in &frontier {
        if let Some(k2) = best {
            assert!(analyzer
                .verify(Property::Observability, ResiliencySpec::split(k1, k2))
                .is_resilient());
            assert!(!analyzer
                .verify(Property::Observability, ResiliencySpec::split(k1, k2 + 1))
                .is_resilient());
        }
    }
    // The paper's (1,1) point is on or below the frontier.
    let at_one = frontier.iter().find(|&&(k1, _)| k1 == 1).map(|&(_, b)| b);
    assert!(matches!(at_one, Some(Some(k2)) if k2 >= 1));
}

#[test]
fn max_resiliency_axes_agree_with_bruteforce() {
    let input = two_rtu_input();
    let mut analyzer = Analyzer::new(&input);
    // Any IED loss is fatal (component count drops below 5).
    assert_eq!(
        analyzer.max_resiliency(Property::Observability, BudgetAxis::IedsOnly, 1),
        Some(0)
    );
    assert_eq!(
        analyzer.max_resiliency(Property::Observability, BudgetAxis::RtusOnly, 1),
        Some(0)
    );
    assert_eq!(
        analyzer.max_resiliency(Property::Observability, BudgetAxis::Total, 1),
        Some(0)
    );
}

/// The incrementality claim of `encode/resilience.rs`, checked rather
/// than asserted in a comment: a `max_resiliency` sweep re-verifies at
/// every budget `k`, but each rung is an assumption set against one
/// shared `UnaryCounter` — the clause count must not grow with `k`.
#[test]
fn max_resiliency_ladder_keeps_clause_count_flat() {
    let input = five_bus_case_study();
    let mut analyzer = Analyzer::new(&input);
    for (axis, spec_of) in [
        (
            BudgetAxis::Total,
            (|k| ResiliencySpec::total(k).with_corrupted(1)) as fn(usize) -> ResiliencySpec,
        ),
        (BudgetAxis::IedsOnly, |k| {
            ResiliencySpec::split(k, 0).with_corrupted(1)
        }),
        (BudgetAxis::RtusOnly, |k| {
            ResiliencySpec::split(0, k).with_corrupted(1)
        }),
    ] {
        // The k = 0 rung may lazily grow the encoding (first touch of a
        // chain or counter); every later rung must reuse it untouched.
        let baseline = analyzer
            .verify_with_report(Property::Observability, spec_of(0))
            .encoding;
        let mut ladder = Vec::new();
        for k in 1..=4 {
            let report = analyzer.verify_with_report(Property::Observability, spec_of(k));
            ladder.push((k, report.encoding.clauses));
        }
        assert!(
            ladder.iter().all(|&(_, c)| c == baseline.clauses),
            "{axis:?}: clause count moved across the k-ladder \
             (baseline {}, ladder {ladder:?})",
            baseline.clauses
        );
        // The sweep itself walks the same rungs: running it end to end
        // must leave the encoding exactly where the ladder left it.
        analyzer.max_resiliency(Property::Observability, axis, 1);
        let after = analyzer
            .verify_with_report(Property::Observability, spec_of(0))
            .encoding;
        assert_eq!(
            after.clauses, baseline.clauses,
            "{axis:?}: max_resiliency sweep re-encoded its budget bound"
        );
    }
}

#[test]
fn budget_wider_than_device_count_is_unconstrained() {
    let input = two_rtu_input();
    let mut analyzer = Analyzer::new(&input);
    // k = 100 ≫ 5 field devices: equivalent to "everything may fail" —
    // certainly a threat exists.
    assert!(!analyzer
        .verify(Property::Observability, ResiliencySpec::total(100))
        .is_resilient());
}

#[test]
fn verification_reports_count_conflicts_monotonically() {
    let input = five_bus_case_study();
    let mut analyzer = Analyzer::new(&input);
    let r1 = analyzer.verify_with_report(Property::Observability, ResiliencySpec::split(2, 1));
    let r2 = analyzer.verify_with_report(Property::Observability, ResiliencySpec::split(3, 1));
    // Conflicts are per-query (deltas), not cumulative.
    assert!(r1.conflicts < 100_000);
    assert!(r2.conflicts < 100_000);
}
