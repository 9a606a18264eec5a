//! Acceptance test for resource-bounded sweeps on the synthetic IEEE-57
//! workload: a tightly limited query degrades to `unknown` (or finishes
//! early) without hanging or panicking, and the unlimited run still
//! produces the seed verdicts.

use std::time::{Duration, Instant};

use scada_analyzer::{Property, QueryCtx, QueryLimits, ResiliencySpec, RetryPolicy};
use scada_bench::{measure, Workload};

fn ieee57() -> Workload {
    Workload {
        buses: 57,
        density: 0.7,
        hierarchy: 2,
        secure_fraction: 0.8,
        seed: 7,
    }
}

fn bounded(limits: QueryLimits) -> QueryCtx {
    QueryCtx {
        limits,
        ..QueryCtx::default()
    }
}

/// A 100ms wall-clock allowance on an IEEE-57 query returns promptly —
/// either `unknown` or a verdict it happened to reach in time — instead
/// of hanging or panicking.
#[test]
fn ieee57_timeout_returns_promptly() {
    let input = ieee57().build();
    let limits = QueryLimits::none().with_timeout(Duration::from_millis(100));
    let started = Instant::now();
    let m = measure(
        &input,
        Property::SecuredObservability,
        ResiliencySpec::total(4),
        &bounded(limits),
    );
    // Generous slack for encoding time (the deadline only bounds the
    // solver's search): the point is "no hang", not a hard 100ms.
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "bounded query must not hang"
    );
    if m.outcome.is_unknown() {
        // Degraded, as expected for a hard query on a tight clock.
        assert!(!m.outcome.is_resilient());
    }
}

/// An already-expired deadline is the deterministic worst case: the
/// solve aborts on entry with `unknown` and the sweep survives.
#[test]
fn ieee57_expired_deadline_is_unknown() {
    let input = ieee57().build();
    let limits = QueryLimits::none().with_deadline(Instant::now());
    let m = measure(
        &input,
        Property::Observability,
        ResiliencySpec::total(2),
        &bounded(limits),
    );
    assert!(m.outcome.is_unknown(), "expired deadline must degrade");
    assert!(m.variables > 0, "encoding statistics still reported");
}

/// The same IEEE-57 query unlimited matches the seed verdict, and an
/// escalating conflict budget converges to it too.
#[test]
fn ieee57_unlimited_matches_seed_and_escalation_converges() {
    let input = ieee57().build();
    let property = Property::Observability;
    let spec = ResiliencySpec::total(0);
    let reference = measure(&input, property, spec, &QueryCtx::default());
    assert!(
        !reference.outcome.is_unknown(),
        "unlimited queries always decide"
    );
    let escalated = QueryLimits::none()
        .with_conflict_budget(1)
        .with_retry(RetryPolicy::escalating(32));
    let escalated = measure(&input, property, spec, &bounded(escalated));
    assert!(!escalated.outcome.is_unknown(), "escalation must converge");
    assert_eq!(escalated.outcome, reference.outcome);
}
