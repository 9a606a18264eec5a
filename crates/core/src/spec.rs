//! Properties, resiliency specifications, and per-query resource limits.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::certify::CertifyOptions;
use crate::obs::Obs;

/// The property whose resiliency is being verified.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Property {
    /// k-resilient observability (§III-C).
    Observability,
    /// k-resilient *secured* observability (§III-D): only measurements
    /// delivered over authenticated and integrity-protected hops count.
    SecuredObservability,
    /// (k, r)-resilient bad-data detectability (§III-E): every state must
    /// be covered by at least `r + 1` secured measurements.
    BadDataDetectability,
}

impl fmt::Display for Property {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Property::Observability => "observability",
            Property::SecuredObservability => "secured observability",
            Property::BadDataDetectability => "bad-data detectability",
        };
        f.write_str(s)
    }
}

/// How device failures are budgeted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureBudget {
    /// At most `k` field devices (IEDs and RTUs together) fail — the
    /// paper's `k`-resiliency.
    Total(usize),
    /// At most `k1` IEDs and `k2` RTUs fail — the paper's
    /// `(k1, k2)`-resiliency.
    Split {
        /// Maximum IED failures.
        ieds: usize,
        /// Maximum RTU failures.
        rtus: usize,
    },
}

impl fmt::Display for FailureBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureBudget::Total(k) => write!(f, "k={k}"),
            FailureBudget::Split { ieds, rtus } => write!(f, "(k1={ieds}, k2={rtus})"),
        }
    }
}

/// A resiliency specification: a failure budget plus (for bad-data
/// detectability) the number of simultaneously corrupted measurements.
///
/// # Examples
///
/// ```
/// use scada_analyzer::ResiliencySpec;
/// let spec = ResiliencySpec::split(1, 1).with_corrupted(1);
/// assert_eq!(spec.corrupted, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResiliencySpec {
    /// The failure budget.
    pub budget: FailureBudget,
    /// The paper's `r`: tolerated corrupted measurements (only used by
    /// [`Property::BadDataDetectability`]).
    pub corrupted: usize,
    /// Additional budget of *link* failures (cut wires / jammed media),
    /// an extension beyond the paper's device-only budgets; 0 keeps the
    /// paper's semantics.
    pub link_failures: usize,
}

impl ResiliencySpec {
    /// `k`-resiliency over all field devices.
    pub fn total(k: usize) -> ResiliencySpec {
        ResiliencySpec {
            budget: FailureBudget::Total(k),
            corrupted: 1,
            link_failures: 0,
        }
    }

    /// `(k1, k2)`-resiliency: separate IED and RTU budgets.
    pub fn split(ieds: usize, rtus: usize) -> ResiliencySpec {
        ResiliencySpec {
            budget: FailureBudget::Split { ieds, rtus },
            corrupted: 1,
            link_failures: 0,
        }
    }

    /// Sets `r` for bad-data detectability.
    pub fn with_corrupted(mut self, r: usize) -> ResiliencySpec {
        self.corrupted = r;
        self
    }

    /// Additionally tolerates up to `l` link failures.
    pub fn with_link_failures(mut self, l: usize) -> ResiliencySpec {
        self.link_failures = l;
        self
    }
}

impl fmt::Display for ResiliencySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}, r={}", self.budget, self.corrupted)?;
        if self.link_failures > 0 {
            write!(f, ", links={}", self.link_failures)?;
        }
        Ok(())
    }
}

/// Escalation policy for queries stopped by their conflict budget.
///
/// The verification problems here are NP-hard; a query that exhausts its
/// budget returns `Unknown` rather than hanging. When a conflict budget
/// (not a deadline or interrupt) caused the `Unknown`, the analyzer may
/// retry with a geometrically grown budget — a Luby-style ×2 escalation —
/// up to `attempts` total attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total solve attempts (1 = no retry).
    pub attempts: u32,
    /// Budget multiplier applied on each retry (≥ 1; default 2).
    pub growth: u32,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 1,
            growth: 2,
        }
    }
}

impl RetryPolicy {
    /// Up to `attempts` attempts with ×2 budget growth.
    pub fn escalating(attempts: u32) -> RetryPolicy {
        RetryPolicy {
            attempts: attempts.max(1),
            growth: 2,
        }
    }

    /// The conflict budget of attempt `attempt` (0-based) for a base
    /// budget, saturating on overflow.
    pub fn budget_for(&self, base: u64, attempt: u32) -> u64 {
        let factor = (self.growth.max(1) as u64).saturating_pow(attempt);
        base.saturating_mul(factor)
    }
}

/// Resource limits for verification queries: a wall-clock deadline, a
/// per-solve conflict budget with an escalating [`RetryPolicy`], and a
/// cooperative interrupt flag (used by the parallel fleet to cancel
/// in-flight sibling solves when one job fails).
///
/// An unlimited query ([`QueryLimits::none`]) can never come back
/// `Unknown`; with limits, `Unknown` is a first-class verdict and is
/// **never** conflated with `Resilient` (see DESIGN.md, "Degradation
/// semantics").
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use scada_analyzer::{QueryLimits, RetryPolicy};
///
/// let limits = QueryLimits::none()
///     .with_timeout(Duration::from_millis(100))
///     .with_conflict_budget(10_000)
///     .with_retry(RetryPolicy::escalating(3));
/// assert!(!limits.is_unbounded());
/// ```
#[derive(Debug, Clone, Default)]
pub struct QueryLimits {
    /// Hard wall-clock bound for the whole query (including retries).
    pub deadline: Option<Instant>,
    /// Per-query wall-clock allowance, anchored when each query starts —
    /// in a batch or sweep, every query gets its own deadline. Combines
    /// with `deadline` (whichever comes first wins).
    pub timeout: Option<Duration>,
    /// Base conflict budget per solve attempt.
    pub conflict_budget: Option<u64>,
    /// Escalation policy when the conflict budget is exhausted.
    pub retry: RetryPolicy,
    /// Cooperative cancellation flag shared with other threads.
    interrupt: Option<Arc<AtomicBool>>,
}

impl QueryLimits {
    /// No limits: queries run to a definite verdict.
    pub fn none() -> QueryLimits {
        QueryLimits::default()
    }

    /// Bounds each query to `timeout` of wall-clock time from its start.
    pub fn with_timeout(mut self, timeout: Duration) -> QueryLimits {
        self.timeout = Some(timeout);
        self
    }

    /// Bounds the query to finish by `deadline` (an absolute instant —
    /// a whole batch sharing these limits shares the deadline).
    pub fn with_deadline(mut self, deadline: Instant) -> QueryLimits {
        self.deadline = Some(deadline);
        self
    }

    /// These limits with the per-query `timeout` (if any) anchored at
    /// `start`, folded into the absolute deadline.
    pub(crate) fn anchored(&self, start: Instant) -> QueryLimits {
        let mut anchored = self.clone();
        if let Some(timeout) = anchored.timeout.take() {
            let per_query = start + timeout;
            anchored.deadline = Some(anchored.deadline.map_or(per_query, |d| d.min(per_query)));
        }
        anchored
    }

    /// Bounds each solve attempt to `conflicts` conflicts.
    pub fn with_conflict_budget(mut self, conflicts: u64) -> QueryLimits {
        self.conflict_budget = Some(conflicts);
        self
    }

    /// Sets the budget-escalation retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> QueryLimits {
        self.retry = retry;
        self
    }

    /// Installs a cooperative interrupt flag; raising it from another
    /// thread cancels in-flight solves with an `Unknown` verdict.
    pub fn with_interrupt(mut self, flag: Arc<AtomicBool>) -> QueryLimits {
        self.interrupt = Some(flag);
        self
    }

    /// Whether no limit of any kind is set.
    pub fn is_unbounded(&self) -> bool {
        self.deadline.is_none()
            && self.timeout.is_none()
            && self.conflict_budget.is_none()
            && self.interrupt.is_none()
    }

    /// Whether the deadline (if any) has passed.
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Whether the interrupt flag (if any) is raised.
    pub fn interrupted(&self) -> bool {
        self.interrupt
            .as_ref()
            .is_some_and(|f| f.load(Ordering::Relaxed))
    }

    /// Whether an interrupt flag is installed.
    pub fn has_interrupt(&self) -> bool {
        self.interrupt.is_some()
    }

    /// Arms `solver` for solve attempt `attempt` (0-based) under these
    /// limits. [`crate::Analyzer`] clears the solver again after the
    /// query so unlimited queries on the same incremental session are
    /// unaffected.
    pub(crate) fn arm(&self, solver: &mut satcore::Solver, attempt: u32) {
        solver.set_conflict_budget(
            self.conflict_budget
                .map(|base| self.retry.budget_for(base, attempt)),
        );
        solver.set_deadline(self.deadline);
        solver.set_interrupt(self.interrupt.clone());
    }

    /// Removes all limits from `solver`.
    pub(crate) fn disarm(solver: &mut satcore::Solver) {
        solver.set_conflict_budget(None);
        solver.set_deadline(None);
        solver.set_interrupt(None);
    }
}

/// How to run a query, as opposed to *what* to ask: the resource
/// limits, the observability handle, and the certification policy.
///
/// Every query family takes one of these — [`crate::verify_batch`],
/// [`crate::par_max_resiliency`], [`crate::enumerate_threats`],
/// [`crate::synthesize_upgrades`] — and the default runs unbounded,
/// untraced and uncertified.
///
/// # Examples
///
/// ```
/// use scada_analyzer::casestudy::five_bus_case_study;
/// use scada_analyzer::{enumerate_threats, Property, QueryCtx, QueryLimits, ResiliencySpec};
///
/// let input = five_bus_case_study();
/// let ctx = QueryCtx {
///     limits: QueryLimits::none().with_conflict_budget(10_000),
///     ..QueryCtx::default()
/// };
/// let space = enumerate_threats(
///     &input,
///     Property::Observability,
///     ResiliencySpec::split(2, 1),
///     64,
///     &ctx,
/// );
/// assert_eq!(space.len(), 9);
/// ```
#[derive(Clone, Debug, Default)]
pub struct QueryCtx {
    /// Resource limits; see [`QueryLimits`].
    pub limits: QueryLimits,
    /// Trace events and metrics; see [`Obs`].
    pub obs: Obs,
    /// Verdict certification; see [`CertifyOptions`].
    pub certify: CertifyOptions,
}

/// Parses a human-friendly duration: `150ms`, `5s`, `2m`, or a bare
/// number of seconds (`5`). Used by the CLI `--timeout` flags.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use scada_analyzer::parse_duration;
///
/// assert_eq!(parse_duration("150ms"), Some(Duration::from_millis(150)));
/// assert_eq!(parse_duration("5s"), Some(Duration::from_secs(5)));
/// assert_eq!(parse_duration("2m"), Some(Duration::from_secs(120)));
/// assert_eq!(parse_duration("7"), Some(Duration::from_secs(7)));
/// assert_eq!(parse_duration("fast"), None);
/// ```
pub fn parse_duration(s: &str) -> Option<Duration> {
    let s = s.trim();
    let (digits, unit) = match s.find(|c: char| !c.is_ascii_digit()) {
        Some(i) => s.split_at(i),
        None => (s, ""),
    };
    let value: u64 = digits.parse().ok()?;
    match unit {
        "ms" => Some(Duration::from_millis(value)),
        "s" | "" => Some(Duration::from_secs(value)),
        "m" => Some(Duration::from_secs(value.checked_mul(60)?)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(ResiliencySpec::total(3).budget, FailureBudget::Total(3));
        assert_eq!(
            ResiliencySpec::split(1, 2).budget,
            FailureBudget::Split { ieds: 1, rtus: 2 }
        );
        assert_eq!(ResiliencySpec::split(0, 0).corrupted, 1);
        assert_eq!(ResiliencySpec::total(1).with_corrupted(2).corrupted, 2);
    }

    #[test]
    fn display() {
        assert_eq!(ResiliencySpec::split(2, 1).to_string(), "(k1=2, k2=1), r=1");
        assert_eq!(ResiliencySpec::total(4).to_string(), "k=4, r=1");
        assert_eq!(
            Property::SecuredObservability.to_string(),
            "secured observability"
        );
    }
}
