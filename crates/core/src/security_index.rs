//! Security index by cardinality-minimizing SAT (MaxSAT-style descent).
//!
//! The security index of measurement `k` is `min ‖a‖₀` over undetectable
//! attacks `a = H·c` with `a_k ≠ 0` (Sou et al., arXiv:1201.5019). For
//! the DC model's Jacobian sign structure, binary state perturbations
//! `c ∈ {0, 1}^buses` are optimal (Hendrickx et al., arXiv:1204.6174):
//! a flow measurement is perturbed iff its line crosses the support's
//! boundary, and an injection iff any incident line does — no
//! cancellation is possible because every term has the same sign. That
//! makes the condition propositional:
//!
//! * one variable `c_b` per bus (the perturbation support),
//! * one Tseitin difference literal `d_l ⟺ c_x ⊕ c_y` per line,
//! * one *affected* literal `y_m` per measurement — the line's `d_l`
//!   for a flow, `⋁ d_l` over incident lines for an injection,
//! * one [`UnaryCounter`] over all `y_m`, built **once per measurement
//!   set**: every target and every bound is an assumption, never an
//!   asserted clause, so the whole index distribution runs on a single
//!   incremental encoding with all learned clauses shared.
//!
//! A query assumes `y_target` and walks the bound down MaxSAT-style:
//! solve, count the model's affected measurements, assume `Σ y ≤
//! count − 1`, repeat until unsat. The final unsat answer is what makes
//! the minimality claim — so under certification it is DRAT-certified:
//! the solver's proof is replayed by an independent [`RupChecker`] that
//! must refute the final assumptions, the optimal model is re-checked
//! against the mirrored clauses, and the extracted attack is re-priced
//! directly from the measurement list.
//!
//! A measurement set with an injection at a bus that has no incident
//! line has no index distribution; the constructor rejects it with an
//! [`UnindexableMeasurement`], as the min-cut engine does.
//!
//! This module is the SAT half of a cross-validated pair;
//! [`powergrid::securityindex`] computes the same quantity by min-cut
//! over the sparsity graph, sharing no code with this encoding.

use boolexpr::UnaryCounter;
use powergrid::securityindex::check_indexable;
pub use powergrid::securityindex::UnindexableMeasurement;
use powergrid::{BusId, MeasurementId, MeasurementKind, MeasurementSet};
use satcore::{
    check_model, CnfSink as _, LBool, Lit, ProofBuffer, ProofStep, RupChecker, SolveResult, Solver,
};

use crate::certify::{CertFault, Certificate, CertifyOptions};

/// One measurement's security index with its optimal attack witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecurityIndexReport {
    /// The queried measurement.
    pub target: MeasurementId,
    /// `‖a‖₀` of the sparsest undetectable attack touching the target
    /// (counts the target itself, so always ≥ 1).
    pub index: usize,
    /// The perturbed bus set (support of the binary attack).
    pub attack_buses: Vec<BusId>,
    /// The measurements the optimal attack perturbs.
    pub affected: Vec<MeasurementId>,
    /// Incremental solver calls the descent needed.
    pub solves: usize,
    /// The verdict's certificate when certification is enabled.
    pub certificate: Option<Certificate>,
}

/// The index of every measurement plus the summary the service and the
/// benchmarks report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecurityIndexDistribution {
    /// Per-measurement indices, in measurement order.
    pub indices: Vec<usize>,
    /// The sparsest attack anywhere (the system's weakest point).
    pub min: usize,
    /// The best-protected measurement's index.
    pub max: usize,
    /// Total incremental solver calls across the distribution.
    pub solves: usize,
    /// Certification failures across the distribution (0 when
    /// certification is off or everything checked).
    pub cert_failures: usize,
}

/// Incremental certification state: one RUP checker audits the whole
/// descending-bound session, consuming mirror/proof deltas per query.
struct CertState {
    checker: RupChecker,
    buffer: ProofBuffer,
    mirrored: usize,
    seq: u64,
    options: CertifyOptions,
}

/// The SAT-side engine: one encoding per measurement set, every query
/// answered by assumptions against it.
pub struct SecurityIndexAnalyzer {
    solver: Solver,
    /// Per-bus perturbation variables.
    c: Vec<Lit>,
    /// Per-measurement affected literals (flow = its line's difference
    /// literal; injection = a fresh OR definition).
    y: Vec<Lit>,
    counter: UnaryCounter,
    ms: MeasurementSet,
    cert: Option<CertState>,
}

impl SecurityIndexAnalyzer {
    /// Builds the encoding for a measurement set (uncertified).
    ///
    /// # Errors
    ///
    /// As [`with_certification`](Self::with_certification).
    pub fn new(ms: &MeasurementSet) -> Result<SecurityIndexAnalyzer, UnindexableMeasurement> {
        SecurityIndexAnalyzer::with_certification(ms, &CertifyOptions::default())
    }

    /// Builds the encoding; with `certify.enabled` every query's final
    /// unsat bound is DRAT-replayed and its optimal model re-checked,
    /// outcomes tallied into `certify.log`.
    ///
    /// # Errors
    ///
    /// Rejects a measurement set holding an injection at a bus with no
    /// incident line (no attack reaches it, so it has no index).
    pub fn with_certification(
        ms: &MeasurementSet,
        certify: &CertifyOptions,
    ) -> Result<SecurityIndexAnalyzer, UnindexableMeasurement> {
        check_indexable(ms)?;
        let mut solver = Solver::new();
        let cert = certify.enabled.then(|| {
            let buffer = ProofBuffer::new();
            solver.set_clause_mirror(true);
            solver.set_proof_sink(Some(Box::new(buffer.clone())));
            CertState {
                checker: RupChecker::new(),
                buffer,
                mirrored: 0,
                seq: 0,
                options: certify.clone(),
            }
        });

        let sys = ms.system();
        let c: Vec<Lit> = (0..sys.num_buses())
            .map(|_| solver.new_var().positive())
            .collect();
        // The cost of a support is invariant under complementing it, and
        // so is every y literal — pin bus 1 out of the support to halve
        // the search space.
        if let Some(&first) = c.first() {
            solver.add_clause(&[!first]);
        }
        // d_l ⟺ c_x ⊕ c_y per line.
        let d: Vec<Lit> = sys
            .branches()
            .iter()
            .map(|branch| {
                let dl = solver.new_var().positive();
                let (cx, cy) = (c[branch.from.index()], c[branch.to.index()]);
                solver.add_clause(&[!dl, cx, cy]);
                solver.add_clause(&[!dl, !cx, !cy]);
                solver.add_clause(&[dl, !cx, cy]);
                solver.add_clause(&[dl, cx, !cy]);
                dl
            })
            .collect();
        let y: Vec<Lit> = ms
            .ids()
            .map(|id| match ms.kind(id) {
                MeasurementKind::FlowForward(b) | MeasurementKind::FlowBackward(b) => d[b.index()],
                MeasurementKind::Injection(v) => {
                    let ym = solver.new_var().positive();
                    let incident = sys.branches_at(v);
                    let mut or: Vec<Lit> = Vec::with_capacity(incident.len() + 1);
                    for &b in incident {
                        solver.add_clause(&[!d[b.index()], ym]);
                        or.push(d[b.index()]);
                    }
                    or.push(!ym);
                    solver.add_clause(&or);
                    ym
                }
            })
            .collect();
        let counter = UnaryCounter::build(&mut solver, &y);
        Ok(SecurityIndexAnalyzer {
            solver,
            c,
            y,
            counter,
            ms: ms.clone(),
            cert,
        })
    }

    /// The measurement set the encoding was built for.
    pub fn measurements(&self) -> &MeasurementSet {
        &self.ms
    }

    /// Solver clauses in the encoding — flat across every query, since
    /// targets and bounds are assumptions only.
    pub fn clauses(&self) -> usize {
        self.solver.num_original_clauses()
    }

    /// The security index of one measurement.
    ///
    /// # Panics
    ///
    /// Panics if `target` is out of range for the measurement set.
    pub fn index_of(&mut self, target: MeasurementId) -> SecurityIndexReport {
        let yt = self.y[target.index()];
        let mut solves = 0;

        // Opening solve, pre-bounded by a concrete single-bus attack:
        // perturbing one endpoint (or the injection bus / a neighbor)
        // always touches the target, and pricing that support in plain
        // code gives a feasible upper bound, so the solver starts its
        // descent near the optimum instead of from an arbitrary model.
        let opening_bound = self.single_bus_bound(target);
        let mut assumptions = vec![yt];
        if let Some(bound) = self.counter.leq_lit(opening_bound) {
            assumptions.push(bound);
        }
        solves += 1;
        let mut outcome = self.solver.solve_with_assumptions(&assumptions);
        assert_eq!(
            outcome,
            SolveResult::Sat,
            "{target} unattackable in a model the constructor accepted"
        );
        let mut best = self.snapshot();
        let mut final_assumptions = vec![yt];

        // MaxSAT-style descent: tighten Σy ≤ best−1 by assumption until
        // the bound refutes. `leq_lit` is Some for every bound we try
        // (best ≤ m, so best − 1 < m).
        while best.count > 1 {
            let bound = self
                .counter
                .leq_lit(best.count - 1)
                .expect("descending bound within counter range");
            solves += 1;
            outcome = self.solver.solve_with_assumptions(&[yt, bound]);
            if outcome != SolveResult::Sat {
                final_assumptions = vec![yt, bound];
                break;
            }
            let next = self.snapshot();
            assert!(next.count < best.count, "descent must strictly tighten");
            best = next;
        }
        // `best.count == 1` needs no refutation: the index counts the
        // target itself, so 1 is the unconditional floor.
        let proved_unsat = outcome == SolveResult::Unsat;

        let certificate = self
            .cert
            .is_some()
            .then(|| self.certify(target, &best, proved_unsat.then_some(&final_assumptions)));

        let affected: Vec<MeasurementId> = best
            .y_values
            .iter()
            .enumerate()
            .filter(|(_, &v)| v)
            .map(|(i, _)| MeasurementId(i))
            .collect();
        debug_assert!(affected.contains(&target));
        SecurityIndexReport {
            target,
            index: best.count,
            attack_buses: best
                .support
                .iter()
                .enumerate()
                .filter(|(_, &s)| s)
                .map(|(b, _)| BusId(b))
                .collect(),
            affected,
            solves,
            certificate,
        }
    }

    /// The full distribution, one descent per *electrical component*:
    /// forward and backward flow on a line share the same difference
    /// literal, hence the same index, so each line is solved once.
    pub fn distribution(&mut self) -> SecurityIndexDistribution {
        let mut indices = vec![0usize; self.ms.len()];
        let mut solves = 0;
        let mut cert_failures = 0;
        for group in self.ms.unique_components() {
            let report = self.index_of(group[0]);
            solves += report.solves;
            if report.certificate.as_ref().is_some_and(|c| c.is_failure()) {
                cert_failures += 1;
            }
            for id in group {
                indices[id.index()] = report.index;
            }
        }
        let min = indices.iter().copied().min().unwrap_or(0);
        let max = indices.iter().copied().max().unwrap_or(0);
        SecurityIndexDistribution {
            indices,
            min,
            max,
            solves,
            cert_failures,
        }
    }

    /// The cheapest single-bus attack that touches `target`, priced in
    /// plain code: a feasible solution, hence an upper bound that lets
    /// the descent skip the unconstrained opening model.
    fn single_bus_bound(&self, target: MeasurementId) -> usize {
        let sys = self.ms.system();
        let candidates: Vec<BusId> = match self.ms.kind(target) {
            MeasurementKind::FlowForward(b) | MeasurementKind::FlowBackward(b) => {
                let branch = sys.branch(b);
                vec![branch.from, branch.to]
            }
            MeasurementKind::Injection(v) => {
                let mut around = sys.neighbors(v);
                around.push(v);
                around
            }
        };
        candidates
            .into_iter()
            .map(|bus| {
                let mut support = vec![false; sys.num_buses()];
                support[bus.index()] = true;
                priced_affected(&self.ms, &support).len()
            })
            .min()
            .expect("the constructor admits no injection without an incident line")
    }

    /// Captures the current model's support and affected set.
    fn snapshot(&self) -> Witness {
        let support: Vec<bool> = self
            .c
            .iter()
            .map(|l| self.solver.value_of(l.var()) == Some(l.is_positive()))
            .collect();
        let y_values: Vec<bool> = self
            .y
            .iter()
            .map(|l| self.solver.value_of(l.var()) == Some(l.is_positive()))
            .collect();
        Witness {
            count: y_values.iter().filter(|&&v| v).count(),
            support,
            y_values,
            model: self.solver.model_values().to_vec(),
        }
    }

    /// Certifies one query: replay the proof delta, refute the final
    /// bound (when one was proven), re-check the optimal model, and
    /// re-price the extracted attack from the measurement list.
    fn certify(
        &mut self,
        target: MeasurementId,
        best: &Witness,
        unsat_assumptions: Option<&Vec<Lit>>,
    ) -> Certificate {
        let start = std::time::Instant::now();
        let cert = self.cert.as_mut().expect("certification state");
        let before = cert.checker.stats();

        let mut steps = cert.buffer.take_steps();
        if cert.options.fault == Some(CertFault::CorruptProof) {
            steps.insert(0, ProofStep::Add(Vec::new()));
        }
        let certificate = (|| {
            let mirror = self
                .solver
                .mirror()
                .ok_or_else(|| "certification enabled but solver mirror missing".to_string())?;
            for clause in &mirror.clauses[cert.mirrored.min(mirror.clauses.len())..] {
                cert.checker.add_axiom(clause);
            }
            cert.mirrored = mirror.clauses.len();
            for step in &steps {
                cert.checker
                    .apply(step)
                    .map_err(|e| format!("proof replay failed: {e}"))?;
            }

            // The minimality half: the final bound must propagate to a
            // conflict in the independent engine.
            if let Some(assumptions) = unsat_assumptions {
                if !cert.checker.refutes(assumptions) {
                    return Err(format!(
                        "proof does not refute the final bound for {target}"
                    ));
                }
            }

            // The witness half: the optimal model satisfies the mirrored
            // clauses and the target assumption …
            let mut model = best.model.clone();
            if cert.options.fault == Some(CertFault::CorruptModel) {
                if let Some(v) = model.iter_mut().find(|v| v.is_defined()) {
                    *v = v.negate();
                }
            }
            check_model(mirror, &model).map_err(|e| format!("model check failed: {e}"))?;
            let yt = self.y[target.index()];
            let value = model.get(yt.var().index()).copied().unwrap_or(LBool::Undef);
            if value != LBool::from_bool(yt.is_positive()) {
                return Err(format!(
                    "model does not satisfy the target literal for {target}"
                ));
            }

            // … and the extracted attack re-prices to the claimed index
            // directly from the measurement list (no solver, no flow
            // network).
            let repriced = priced_affected(&self.ms, &best.support);
            if repriced.len() != best.count {
                return Err(format!(
                    "extracted attack re-prices to {} measurements, claimed {}",
                    repriced.len(),
                    best.count
                ));
            }
            if !repriced.contains(&target) {
                return Err(format!("extracted attack does not perturb {target}"));
            }
            Ok(())
        })();

        let seq = cert.seq;
        cert.seq += 1;
        let certificate = match certificate.and_then(|()| {
            let Some(dir) = cert.options.proof_dir.as_ref() else {
                return Ok(());
            };
            let path = dir.join(format!("secidx-{seq:04}.drat"));
            let mut bytes = Vec::new();
            satcore::write_drat(&steps, &mut bytes)
                .map_err(|e| format!("serializing proof for {target}: {e}"))?;
            std::fs::write(&path, bytes)
                .map_err(|e| format!("writing proof file {}: {e}", path.display()))
        }) {
            Err(reason) => Certificate::Failed { reason },
            Ok(()) => {
                let stats = cert.checker.stats();
                if unsat_assumptions.is_some() {
                    Certificate::Proof {
                        steps: stats.steps - before.steps,
                        propagations: stats.propagations - before.propagations,
                        elapsed: start.elapsed(),
                    }
                } else {
                    Certificate::Threat {
                        steps: stats.steps - before.steps,
                        elapsed: start.elapsed(),
                    }
                }
            }
        };
        cert.options.log.record(&certificate);
        certificate
    }
}

/// One satisfying assignment of the descent, with enough state captured
/// to certify it after later (unsat) solves overwrite the solver model.
struct Witness {
    count: usize,
    support: Vec<bool>,
    y_values: Vec<bool>,
    model: Vec<LBool>,
}

/// Prices a binary attack support directly against the measurement
/// list — the certification-side evaluator, independent of both the CNF
/// encoding and the min-cut network.
fn priced_affected(ms: &MeasurementSet, support: &[bool]) -> Vec<MeasurementId> {
    let sys = ms.system();
    let cut = |b: powergrid::BranchId| {
        let branch = sys.branch(b);
        support[branch.from.index()] != support[branch.to.index()]
    };
    ms.ids()
        .filter(|&id| match ms.kind(id) {
            MeasurementKind::FlowForward(b) | MeasurementKind::FlowBackward(b) => cut(b),
            MeasurementKind::Injection(v) => sys.branches_at(v).iter().any(|&b| cut(b)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use powergrid::ieee::{case5, ieee14};

    #[test]
    fn matches_hand_computed_path() {
        // Path 1–2–3, full measurements: every index is 4 (see the
        // min-cut module's derivation).
        let sys = powergrid::PowerSystem::new(
            "path3",
            3,
            vec![
                powergrid::Branch::new(BusId(0), BusId(1), 1.0),
                powergrid::Branch::new(BusId(1), BusId(2), 1.0),
            ],
        );
        let ms = MeasurementSet::full(sys);
        let mut analyzer = SecurityIndexAnalyzer::new(&ms).unwrap();
        for id in ms.ids() {
            assert_eq!(analyzer.index_of(id).index, 4, "{id}");
        }
    }

    #[test]
    fn clause_count_flat_across_queries() {
        let ms = MeasurementSet::full(case5());
        let mut analyzer = SecurityIndexAnalyzer::new(&ms).unwrap();
        let before = analyzer.clauses();
        let distribution = analyzer.distribution();
        assert_eq!(
            analyzer.clauses(),
            before,
            "descending bounds must be assumptions, not clauses"
        );
        assert!(distribution.solves >= distribution.indices.len() / 2);
        assert!(distribution.min >= 1);
    }

    #[test]
    fn witness_prices_to_the_index() {
        let ms = MeasurementSet::full(ieee14());
        let mut analyzer = SecurityIndexAnalyzer::new(&ms).unwrap();
        for id in ms.ids().take(8) {
            let report = analyzer.index_of(id);
            let support: Vec<bool> = (0..ms.system().num_buses())
                .map(|b| report.attack_buses.contains(&BusId(b)))
                .collect();
            assert_eq!(priced_affected(&ms, &support).len(), report.index, "{id}");
            assert!(report.affected.contains(&id), "{id}");
        }
    }

    #[test]
    fn certified_queries_check_and_fault_injection_is_caught() {
        let ms = MeasurementSet::full(case5());
        let certify = CertifyOptions::enabled();
        let mut analyzer = SecurityIndexAnalyzer::with_certification(&ms, &certify).unwrap();
        let report = analyzer.index_of(MeasurementId(0));
        match report.certificate {
            Some(Certificate::Proof { .. }) | Some(Certificate::Threat { .. }) => {}
            other => panic!("expected a passing certificate, got {other:?}"),
        }
        assert_eq!(certify.log.failures(), 0);

        for fault in [CertFault::CorruptProof, CertFault::CorruptModel] {
            let mut options = CertifyOptions::enabled();
            options.fault = Some(fault);
            let mut analyzer = SecurityIndexAnalyzer::with_certification(&ms, &options).unwrap();
            let report = analyzer.index_of(MeasurementId(0));
            assert!(
                report.certificate.as_ref().is_some_and(|c| c.is_failure()),
                "{fault:?} must be rejected, got {:?}",
                report.certificate
            );
            assert_eq!(options.log.failures(), 1, "{fault:?}");
        }
    }
}
