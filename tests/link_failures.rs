//! The link-failure extension: specifications may grant a budget of
//! downed links in addition to the paper's device budgets
//! (`ResiliencySpec::with_link_failures`). With a zero link budget the
//! semantics are exactly the paper's.

use std::collections::HashSet;

use scada_analysis::analyzer::casestudy::five_bus_case_study;
use scada_analysis::analyzer::{
    enumerate_threats, Analyzer, Property, QueryCtx, ResiliencySpec, Verdict,
};
use scada_analysis::scada::DeviceId;

const OBS: Property = Property::Observability;

#[test]
fn zero_link_budget_matches_paper_semantics() {
    let input = five_bus_case_study();
    let mut analyzer = Analyzer::new(&input);
    // Exactly the Scenario-1 outcomes, via specs that mention links
    // explicitly set to zero.
    assert!(analyzer
        .verify(OBS, ResiliencySpec::split(1, 1).with_link_failures(0))
        .is_resilient());
    assert!(!analyzer
        .verify(OBS, ResiliencySpec::split(2, 1).with_link_failures(0))
        .is_resilient());
}

#[test]
fn single_link_cut_can_blind_the_system() {
    // With no device failures but one link cut, severing the
    // router→MTU uplink (13–14) loses every measurement.
    let input = five_bus_case_study();
    let mut analyzer = Analyzer::new(&input);
    let spec = ResiliencySpec::split(0, 0).with_link_failures(1);
    match analyzer.verify(OBS, spec) {
        Verdict::Threat(v) => {
            assert!(v.ieds.is_empty() && v.rtus.is_empty());
            assert_eq!(v.links.len(), 1, "one cut suffices: {v}");
        }
        other => panic!("a single link cut must be fatal somewhere, got {other:?}"),
    }
}

#[test]
fn link_vectors_enumerate_and_are_minimal() {
    let input = five_bus_case_study();
    let spec = ResiliencySpec::split(0, 0).with_link_failures(1);
    let space = enumerate_threats(&input, OBS, spec, 64, &QueryCtx::default());
    assert!(!space.truncated);
    assert!(!space.is_empty());
    let analyzer = Analyzer::new(&input);
    let eval = analyzer.evaluator();
    let link_index = |a: usize, b: usize| -> usize {
        input
            .topology
            .link_index_between(DeviceId::from_one_based(a), DeviceId::from_one_based(b))
            .expect("link exists")
    };
    for v in &space.vectors {
        assert!(v.devices().count() == 0, "device budget is zero: {v}");
        assert_eq!(v.links.len(), 1);
        let (a, b) = v.links[0];
        let li = link_index(a.one_based(), b.one_based());
        let links: HashSet<usize> = [li].into_iter().collect();
        assert!(eval.violates_full(OBS, 1, &HashSet::new(), &links), "{v}");
    }
    // The uplink 13-14 must be among them.
    assert!(
        space
            .vectors
            .iter()
            .any(|v| { v.links[0].0.one_based() == 13 && v.links[0].1.one_based() == 14 }),
        "router uplink cut missing: {:?}",
        space.vectors
    );
}

#[test]
fn sat_matches_bruteforce_with_link_budget() {
    // Exhaustive reference over (≤1 device, ≤1 link) failure sets.
    let input = five_bus_case_study();
    let analyzer = Analyzer::new(&input);
    let eval = analyzer.evaluator();
    let n_links = input.topology.links().len();
    let field = input.field_devices();
    for property in [OBS, Property::SecuredObservability] {
        for (k, l) in [(0, 1), (1, 1), (0, 2)] {
            // Reference: any violating combination?
            let mut reference_threat = false;
            let device_sets: Vec<Vec<DeviceId>> = std::iter::once(Vec::new())
                .chain(field.iter().map(|&d| vec![d]))
                .take(if k == 0 { 1 } else { field.len() + 1 })
                .collect();
            'outer: for ds in &device_sets {
                // link subsets of size ≤ l
                let mut link_sets: Vec<Vec<usize>> = vec![Vec::new()];
                for a in 0..n_links {
                    link_sets.push(vec![a]);
                    if l >= 2 {
                        for b in (a + 1)..n_links {
                            link_sets.push(vec![a, b]);
                        }
                    }
                }
                for ls in &link_sets {
                    let dset: HashSet<_> = ds.iter().copied().collect();
                    let lset: HashSet<_> = ls.iter().copied().collect();
                    if eval.violates_full(property, 1, &dset, &lset) {
                        reference_threat = true;
                        break 'outer;
                    }
                }
            }
            let mut analyzer = Analyzer::new(&input);
            let spec = ResiliencySpec::total(k).with_link_failures(l);
            let verdict = analyzer.verify(property, spec);
            assert_eq!(
                !verdict.is_resilient(),
                reference_threat,
                "{property} k={k} links={l}"
            );
        }
    }
}

#[test]
fn link_and_device_failures_combine() {
    // (1 device, 1 link) is at least as strong as either alone.
    let input = five_bus_case_study();
    let mut analyzer = Analyzer::new(&input);
    let combined = ResiliencySpec::split(1, 0).with_link_failures(1);
    let device_only = ResiliencySpec::split(1, 0);
    let resilient_combined = analyzer.verify(OBS, combined).is_resilient();
    let resilient_device = analyzer.verify(OBS, device_only).is_resilient();
    assert!(
        resilient_device || !resilient_combined,
        "combined budget cannot be easier than device-only"
    );
}
