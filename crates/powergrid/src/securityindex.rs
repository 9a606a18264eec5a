//! Security index by min-cut (Hendrickx et al., arXiv:1204.6174).
//!
//! The *security index* of measurement `k` is the size of the sparsest
//! undetectable false-data attack that touches `k`: a state perturbation
//! `c` whose measurement image `a = H·c` has `a_k ≠ 0`, minimizing
//! `‖a‖₀`. For the DC measurement model, where every Jacobian entry has
//! the sign structure of the incidence matrix and all susceptances are
//! positive, Hendrickx et al. prove *binary* perturbations
//! (`c ∈ {0, 1}^buses`) are optimal: an injection's attack component is
//! a same-sign sum over its cut incident lines, so no cancellation is
//! possible. The problem becomes combinatorial — choose a bus set `S`
//! (`c_i = 1 ⟺ i ∈ S`) and pay
//!
//! * one per *measured flow* on a line with exactly one endpoint in `S`
//!   (its flow changes), and
//! * one per *measured injection* at a bus incident to such a cut line
//!   (its net injection changes),
//!
//! minimized over all `S` separating the target's endpoints. That is a
//! minimum `s`–`t` cut, computed here by max-flow over a gadget graph:
//!
//! * each line carries antiparallel arcs with capacity = its measured
//!   flow count (0, 1, or 2);
//! * each injection-measured bus `v` gets two auxiliary nodes charging
//!   one unit exactly when `v` lies on the cut boundary: `p_v` with
//!   `v → p_v` (capacity 1) and `p_v → u` (∞) for each neighbor `u`
//!   (fires when `v ∈ S` has a neighbor outside), and `q_v` with
//!   `q_v → v` (capacity 1) and `u → q_v` (∞) for each neighbor
//!   (fires when `v ∉ S` has a neighbor inside).
//!
//! A flow-target on line `(x, y)` forces `x ∈ S, y ∉ S` (one orientation
//! suffices — the cost is invariant under complementing `S`); an
//! injection-target at `v` needs *some* incident line cut, so it is the
//! minimum over `v`'s neighbors of the corresponding flow cut.
//!
//! An injection measured at a bus with no incident line has a
//! structurally zero Jacobian row: no attack touches it, so it has no
//! index. Both engines reject such a measurement set up front with an
//! [`UnindexableMeasurement`] ([`check_indexable`]).
//!
//! This module is the SAT-free half of the engine's cross-validated
//! pair; `scada_analyzer::security_index` implements the same quantity
//! by cardinality-minimizing SAT and the two must agree everywhere.

use std::fmt;

use crate::measurement::{MeasurementId, MeasurementKind, MeasurementSet};
use crate::system::{BranchId, BusId};

/// A measurement no attack can reach: an injection at a bus with no
/// incident line. A measurement set holding one has no security-index
/// distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnindexableMeasurement {
    /// The unreachable injection measurement.
    pub measurement: MeasurementId,
    /// Its bus, which has no incident line.
    pub bus: BusId,
}

impl fmt::Display for UnindexableMeasurement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "measurement {} is an injection at {}, which has no incident line: \
             no attack can reach it, so it has no security index",
            self.measurement, self.bus
        )
    }
}

impl std::error::Error for UnindexableMeasurement {}

/// Rejects a measurement set that holds an injection at a bus with no
/// incident line, naming the first such measurement.
///
/// # Errors
///
/// The first [`UnindexableMeasurement`] in measurement order.
pub fn check_indexable(ms: &MeasurementSet) -> Result<(), UnindexableMeasurement> {
    let sys = ms.system();
    for measurement in ms.ids() {
        if let MeasurementKind::Injection(bus) = ms.kind(measurement) {
            if sys.branches_at(bus).is_empty() {
                return Err(UnindexableMeasurement { measurement, bus });
            }
        }
    }
    Ok(())
}

/// One measurement's security index with an optimal attack witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecurityIndex {
    /// `‖a‖₀` of the sparsest undetectable attack touching the target
    /// (counts the target itself, so always ≥ 1).
    pub index: usize,
    /// The attacked bus set `S` (the binary perturbation's support).
    pub attack_buses: Vec<BusId>,
    /// The measurements the optimal attack perturbs (the target is one
    /// of them); `affected.len() == index`.
    pub affected: Vec<MeasurementId>,
}

/// Arc of the gadget flow network (paired with its reverse).
#[derive(Debug, Clone, Copy)]
struct Arc {
    to: usize,
    cap: usize,
    /// Index of the reverse arc in `to`'s adjacency list.
    rev: usize,
}

/// A unit-ish-capacity flow network with Dinic's algorithm.
#[derive(Debug, Clone)]
struct FlowNet {
    adj: Vec<Vec<Arc>>,
}

impl FlowNet {
    fn new(nodes: usize) -> FlowNet {
        FlowNet {
            adj: vec![Vec::new(); nodes],
        }
    }

    fn add_arc(&mut self, from: usize, to: usize, cap: usize) {
        let rev_from = self.adj[to].len();
        let rev_to = self.adj[from].len();
        self.adj[from].push(Arc {
            to,
            cap,
            rev: rev_from,
        });
        self.adj[to].push(Arc {
            to: from,
            cap: 0,
            rev: rev_to,
        });
    }

    /// BFS level graph; `None` when `t` is unreachable in the residual.
    fn levels(&self, s: usize, t: usize) -> Option<Vec<u32>> {
        let mut level = vec![u32::MAX; self.adj.len()];
        let mut queue = std::collections::VecDeque::new();
        level[s] = 0;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for arc in &self.adj[u] {
                if arc.cap > 0 && level[arc.to] == u32::MAX {
                    level[arc.to] = level[u] + 1;
                    queue.push_back(arc.to);
                }
            }
        }
        (level[t] != u32::MAX).then_some(level)
    }

    /// DFS blocking-flow step along the level graph.
    fn augment(
        &mut self,
        u: usize,
        t: usize,
        pushed: usize,
        level: &[u32],
        iter: &mut [usize],
    ) -> usize {
        if u == t {
            return pushed;
        }
        while iter[u] < self.adj[u].len() {
            let Arc { to, cap, rev } = self.adj[u][iter[u]];
            if cap > 0 && level[to] == level[u] + 1 {
                let flowed = self.augment(to, t, pushed.min(cap), level, iter);
                if flowed > 0 {
                    self.adj[u][iter[u]].cap -= flowed;
                    self.adj[to][rev].cap += flowed;
                    return flowed;
                }
            }
            iter[u] += 1;
        }
        0
    }

    /// Max flow from `s` to `t` (equivalently, the min-cut value).
    fn max_flow(&mut self, s: usize, t: usize) -> usize {
        let mut flow = 0;
        while let Some(level) = self.levels(s, t) {
            let mut iter = vec![0usize; self.adj.len()];
            loop {
                let pushed = self.augment(s, t, usize::MAX, &level, &mut iter);
                if pushed == 0 {
                    break;
                }
                flow += pushed;
            }
        }
        flow
    }

    /// Nodes reachable from `s` in the residual graph (the min cut's
    /// source side, once `max_flow` has run).
    fn residual_reachable(&self, s: usize) -> Vec<bool> {
        let mut seen = vec![false; self.adj.len()];
        let mut stack = vec![s];
        seen[s] = true;
        while let Some(u) = stack.pop() {
            for arc in &self.adj[u] {
                if arc.cap > 0 && !seen[arc.to] {
                    seen[arc.to] = true;
                    stack.push(arc.to);
                }
            }
        }
        seen
    }
}

/// The measurement structure the cuts are priced against.
struct Sparsity {
    /// Measured flow count per branch (0, 1, or 2).
    flow_weight: Vec<usize>,
    /// Whether each bus's injection is measured.
    injection: Vec<bool>,
}

impl Sparsity {
    fn of(ms: &MeasurementSet) -> Sparsity {
        let sys = ms.system();
        let mut flow_weight = vec![0usize; sys.num_branches()];
        let mut injection = vec![false; sys.num_buses()];
        for id in ms.ids() {
            match ms.kind(id) {
                MeasurementKind::FlowForward(b) | MeasurementKind::FlowBackward(b) => {
                    flow_weight[b.index()] += 1;
                }
                MeasurementKind::Injection(v) => injection[v.index()] = true,
            }
        }
        Sparsity {
            flow_weight,
            injection,
        }
    }
}

/// Builds the gadget network for one measurement set. Node layout:
/// buses `0..B`, then a `p_v`/`q_v` pair per injection-measured bus.
fn build_network(ms: &MeasurementSet, sparsity: &Sparsity) -> FlowNet {
    let sys = ms.system();
    let buses = sys.num_buses();
    let measured_injections = sparsity.injection.iter().filter(|&&i| i).count();
    let mut net = FlowNet::new(buses + 2 * measured_injections);
    // Any capacity strictly above the largest finite cut acts as ∞.
    let infinite = ms.len() + 1;

    for (bi, branch) in sys.branches().iter().enumerate() {
        let w = sparsity.flow_weight[bi];
        if w > 0 {
            net.add_arc(branch.from.index(), branch.to.index(), w);
            net.add_arc(branch.to.index(), branch.from.index(), w);
        }
    }
    let mut aux = buses;
    for v in sys.buses() {
        if !sparsity.injection[v.index()] {
            continue;
        }
        let (p, q) = (aux, aux + 1);
        aux += 2;
        net.add_arc(v.index(), p, 1);
        net.add_arc(q, v.index(), 1);
        for u in sys.neighbors(v) {
            net.add_arc(p, u.index(), infinite);
            net.add_arc(u.index(), q, infinite);
        }
    }
    net
}

/// The measurements perturbed by the binary attack `S` (bus support),
/// priced directly from the measurement list — this is the cut value
/// recomputed without the flow network, used to cross-check the witness.
fn affected_by(ms: &MeasurementSet, in_s: &[bool]) -> Vec<MeasurementId> {
    let sys = ms.system();
    let cut = |b: BranchId| {
        let branch = sys.branch(b);
        in_s[branch.from.index()] != in_s[branch.to.index()]
    };
    ms.ids()
        .filter(|&id| match ms.kind(id) {
            MeasurementKind::FlowForward(b) | MeasurementKind::FlowBackward(b) => cut(b),
            MeasurementKind::Injection(v) => sys.branches_at(v).iter().any(|&b| cut(b)),
        })
        .collect()
}

/// Min cut separating `s` from `t`, with the witness bus set.
fn cut_between(ms: &MeasurementSet, sparsity: &Sparsity, s: BusId, t: BusId) -> (usize, Vec<bool>) {
    let mut net = build_network(ms, sparsity);
    let value = net.max_flow(s.index(), t.index());
    let reachable = net.residual_reachable(s.index());
    let in_s: Vec<bool> = (0..ms.system().num_buses()).map(|b| reachable[b]).collect();
    (value, in_s)
}

/// The security index of one measurement, by min-cut.
///
/// # Errors
///
/// The measurement set is rejected ([`check_indexable`]) if it holds an
/// injection at a bus with no incident line — whichever the target.
///
/// # Panics
///
/// Panics if `target` is out of range for `ms`, or if the witness cut
/// disagrees with the max-flow value (which would mean the gadget
/// construction is wrong — checked on every query by design).
pub fn security_index(
    ms: &MeasurementSet,
    target: MeasurementId,
) -> Result<SecurityIndex, UnindexableMeasurement> {
    check_indexable(ms)?;
    Ok(min_cut_index(ms, target))
}

/// [`security_index`] on a measurement set [`check_indexable`] accepted.
fn min_cut_index(ms: &MeasurementSet, target: MeasurementId) -> SecurityIndex {
    let sys = ms.system();
    let best = match ms.kind(target) {
        MeasurementKind::FlowForward(b) | MeasurementKind::FlowBackward(b) => {
            let branch = sys.branch(b);
            let sparsity = Sparsity::of(ms);
            cut_between(ms, &sparsity, branch.from, branch.to)
        }
        MeasurementKind::Injection(v) => {
            // The injection changes iff some incident line is cut:
            // minimize over which neighbor ends up across the cut.
            let sparsity = Sparsity::of(ms);
            sys.neighbors(v)
                .into_iter()
                .map(|u| cut_between(ms, &sparsity, v, u))
                .min_by_key(|(value, _)| *value)
                .expect("check_indexable admits no injection without an incident line")
        }
    };
    let (value, in_s) = best;
    let affected = affected_by(ms, &in_s);
    assert_eq!(
        affected.len(),
        value,
        "min-cut witness prices differently from the max-flow value for {target}"
    );
    assert!(
        affected.contains(&target),
        "min-cut witness does not touch the target {target}"
    );
    let attack_buses = (0..sys.num_buses())
        .filter(|&b| in_s[b])
        .map(BusId)
        .collect();
    SecurityIndex {
        index: value,
        attack_buses,
        affected,
    }
}

/// The full index distribution: the security index of every measurement
/// in `ms`, in measurement order.
///
/// # Panics
///
/// Panics with the [`UnindexableMeasurement`] message on a measurement
/// set [`check_indexable`] rejects; call that (or [`security_index`])
/// first on input that may hold an isolated injection.
pub fn security_indices(ms: &MeasurementSet) -> Vec<usize> {
    if let Err(e) = check_indexable(ms) {
        panic!("{e}");
    }
    ms.ids().map(|id| min_cut_index(ms, id).index).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ieee::{case5, ieee14};
    use crate::system::{Branch, PowerSystem};

    /// A path 1–2–3 with both flows on each line and all injections.
    fn path3_full() -> MeasurementSet {
        let sys = PowerSystem::new(
            "path3",
            3,
            vec![
                Branch::new(BusId(0), BusId(1), 1.0),
                Branch::new(BusId(1), BusId(2), 1.0),
            ],
        );
        MeasurementSet::full(sys)
    }

    #[test]
    fn path_indices_by_hand() {
        let ms = path3_full();
        // Measurements: P(l1) P(l2) P'(l1) P'(l2) inj1 inj2 inj3.
        // Attacking line 1 alone (S = {bus1}): both its flows change,
        // plus injections at buses 1 and 2 → 4. Cutting both lines
        // (S = {bus2}) costs 4 + all three injections = 7, and cutting
        // nothing affects nothing, so 4 is optimal for every target
        // touching line 1.
        let l1_fwd = MeasurementId(0);
        let got = security_index(&ms, l1_fwd).unwrap();
        assert_eq!(got.index, 4);
        assert_eq!(got.affected.len(), 4);
        assert!(got.affected.contains(&l1_fwd));
        // The end-bus injection shares line 1's optimum; the middle
        // injection can pick either line, also 4.
        for inj in [MeasurementId(4), MeasurementId(5), MeasurementId(6)] {
            assert_eq!(security_index(&ms, inj).unwrap().index, 4, "{inj}");
        }
    }

    #[test]
    fn flow_only_indices_are_edge_connectivities() {
        // With no injections, the cost of S is just the number of
        // measured-flow arcs cut: for a triangle with one flow per
        // line, separating any two buses costs exactly 2.
        let sys = PowerSystem::new(
            "triangle",
            3,
            vec![
                Branch::new(BusId(0), BusId(1), 1.0),
                Branch::new(BusId(1), BusId(2), 1.0),
                Branch::new(BusId(0), BusId(2), 1.0),
            ],
        );
        let kinds = (0..3).map(|i| MeasurementKind::FlowForward(BranchId(i)));
        let ms = MeasurementSet::new(sys, kinds.collect());
        for id in ms.ids() {
            assert_eq!(security_index(&ms, id).unwrap().index, 2, "{id}");
        }
    }

    #[test]
    fn unmeasured_lines_are_free_to_cut() {
        // Square 1-2-3-4-1; only line 1-2 measured. Cutting around the
        // square's other lines costs nothing, so the index is 1.
        let sys = PowerSystem::new(
            "square",
            4,
            vec![
                Branch::new(BusId(0), BusId(1), 1.0),
                Branch::new(BusId(1), BusId(2), 1.0),
                Branch::new(BusId(2), BusId(3), 1.0),
                Branch::new(BusId(3), BusId(0), 1.0),
            ],
        );
        let ms = MeasurementSet::new(sys, vec![MeasurementKind::FlowForward(BranchId(0))]);
        let got = security_index(&ms, MeasurementId(0)).unwrap();
        assert_eq!(got.index, 1);
        assert_eq!(got.affected, vec![MeasurementId(0)]);
    }

    #[test]
    fn witness_invariants_hold_on_ieee_cases() {
        for sys in [case5(), ieee14()] {
            let ms = MeasurementSet::full(sys);
            let m = ms.len();
            for id in ms.ids() {
                let got = security_index(&ms, id).unwrap();
                assert!(got.index >= 1, "{id} index 0");
                assert!(got.index <= m, "{id} index above m");
                assert!(got.affected.contains(&id), "{id} not in own attack");
                assert!(!got.attack_buses.is_empty(), "{id} empty support");
            }
        }
    }

    /// Buses 1–2 joined by one line, bus 3 isolated: flow on the line
    /// plus an injection at bus 3.
    fn isolated_injection() -> MeasurementSet {
        let sys = PowerSystem::new("isolated", 3, vec![Branch::new(BusId(0), BusId(1), 16.9)]);
        MeasurementSet::new(
            sys,
            vec![
                MeasurementKind::FlowForward(BranchId(0)),
                MeasurementKind::Injection(BusId(2)),
            ],
        )
    }

    #[test]
    fn isolated_injection_rejects_the_model() {
        let ms = isolated_injection();
        let want = UnindexableMeasurement {
            measurement: MeasurementId(1),
            bus: BusId(2),
        };
        assert_eq!(check_indexable(&ms), Err(want));
        // The model is rejected whichever the target, the reachable
        // flow included.
        for id in ms.ids() {
            assert_eq!(security_index(&ms, id), Err(want), "{id}");
        }
        let message = want.to_string();
        assert!(
            message.contains("z2") && message.contains("bus3"),
            "{message}"
        );
    }

    #[test]
    #[should_panic(expected = "measurement z2 is an injection at bus3")]
    fn distribution_of_a_rejected_model_panics_with_the_error() {
        security_indices(&isolated_injection());
    }

    #[test]
    fn forward_and_backward_flows_share_an_index() {
        let ms = MeasurementSet::full(ieee14());
        let branches = ms.system().num_branches();
        let all = security_indices(&ms);
        for b in 0..branches {
            // full() lays out forwards then backwards, branch order.
            assert_eq!(all[b], all[branches + b], "line{}", b + 1);
        }
    }
}
