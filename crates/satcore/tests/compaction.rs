//! Learnt-clause deletion and arena compaction under certification.
//!
//! Short conflict budgets split the search into many solve calls; every
//! call starts from the same learnt-clause limit, so the database is
//! reduced (and the clause arena compacted) again and again. Every
//! verdict along the way is checked independently against the mirrored
//! formula, and after compaction the solver must keep answering exactly
//! like a fresh solver given the same clauses.

mod common;

use common::{pigeonhole, random_3sat, SplitMix};
use satcore::{
    check_model, check_unsat_proof, Cnf, CnfSink, Lit, ProofBuffer, ProofStep, SolveResult, Solver,
};

/// A solver with a proof sink and the clause mirror armed, holding `cnf`.
fn armed(cnf: &Cnf) -> (Solver, ProofBuffer) {
    let mut s = Solver::new();
    let buffer = ProofBuffer::new();
    s.set_proof_sink(Some(Box::new(buffer.clone())));
    s.set_clause_mirror(true);
    cnf.load_into(&mut s);
    (s, buffer)
}

/// Checks a verdict: a sat model against the mirror, an unsat verdict
/// by replaying the whole proof so far. Returns whether it was decided.
fn certify(s: &Solver, r: SolveResult, proof: &[ProofStep], assumptions: &[Lit]) -> bool {
    let mirror = s.mirror().expect("mirror armed");
    match r {
        SolveResult::Sat => {
            assert_eq!(check_model(mirror, s.model_values()), Ok(()));
            true
        }
        SolveResult::Unsat => {
            check_unsat_proof(mirror, proof, assumptions).expect("unsat verdict must certify");
            true
        }
        SolveResult::Unknown => false,
    }
}

#[test]
fn reductions_compact_the_arena_and_verdicts_still_certify() {
    let mut rng = SplitMix(0xc0_4ac7);
    let n = 200;
    let (mut s, buffer) = armed(&random_3sat(&mut rng, n));
    let mut proof: Vec<ProofStep> = Vec::new();
    let mut shrank = false;
    let mut decided = 0;
    s.set_conflict_budget(Some(150));
    for _ in 0..100 {
        if s.stats().reductions >= 3 && shrank && decided >= 2 {
            break;
        }
        let assumptions = rng.lits(n, 3);
        let (words, reductions) = (s.arena_words(), s.stats().reductions);
        let r = s.solve_with_assumptions(&assumptions);
        proof.extend(buffer.take_steps());
        shrank |= s.stats().reductions > reductions && s.arena_words() < words;
        decided += usize::from(certify(&s, r, &proof, &assumptions));
    }
    assert!(s.stats().reductions >= 3, "{:?}", s.stats());
    assert!(shrank, "no reduction shrank the arena");
    assert!(decided >= 2, "only {decided} verdicts before the limit");

    // New clauses and queries after compaction: the same answers as a
    // fresh solver built from every clause given so far.
    s.set_conflict_budget(None);
    for _ in 0..30 {
        s.add_clause(&rng.lits(n, 3));
    }
    for _ in 0..6 {
        let assumptions = rng.lits(n, 4);
        let r = s.solve_with_assumptions(&assumptions);
        proof.extend(buffer.take_steps());
        assert!(certify(&s, r, &proof, &assumptions));
        let mut fresh = Solver::new();
        s.mirror().expect("mirror armed").load_into(&mut fresh);
        assert_eq!(fresh.solve_with_assumptions(&assumptions), r);
    }
}

/// One uninterrupted refutation with many reductions: the DRAT proof,
/// deletions of compacted-away clauses included, still replays.
#[test]
fn refutation_across_reductions_certifies() {
    let cnf = pigeonhole(7);
    let (mut s, buffer) = armed(&cnf);
    assert_eq!(s.solve(), SolveResult::Unsat);
    assert!(s.stats().reductions >= 3, "{:?}", s.stats());
    check_unsat_proof(&cnf, &buffer.take_steps(), &[]).expect("proof must check");
}
