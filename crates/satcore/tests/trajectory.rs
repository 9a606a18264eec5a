//! Search-trajectory pins: exact [`SolverStats`] counters, models and
//! unsat cores on fixed instances.
//!
//! The numbers below are what the solver produced before its clause
//! storage moved to a flat arena with inline binary watchers. Storage
//! and propagation-speed work must keep them *identical*: any change to
//! the order in which literals are visited, clauses are learnt or
//! variables are bumped shows up here as a different conflict,
//! decision or propagation count. An intentional change to the search
//! itself (a new heuristic) re-records them.

mod common;

use common::{pigeonhole, random_3sat, SplitMix};
use satcore::{CnfSink, Lit, SolveResult, Solver, SolverStats};

/// What one solve call is pinned to.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    result: &'static str,
    /// Cumulative `(conflicts, decisions, propagations, restarts,
    /// reductions)` after the call.
    stats: (u64, u64, u64, u64, u64),
    /// FNV-1a hash of the model (one byte per variable: 0 false, 1
    /// true, 2 unassigned); 0 when the call was not `Sat`.
    model: u64,
    /// The unsat core in DIMACS numbering; empty unless `Unsat` under
    /// assumptions.
    core: Vec<i64>,
}

fn dimacs(l: Lit) -> i64 {
    let v = l.var().index() as i64 + 1;
    if l.is_positive() {
        v
    } else {
        -v
    }
}

fn model_hash(s: &Solver) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in s.model() {
        let b = match v {
            Some(false) => 0u8,
            Some(true) => 1,
            None => 2,
        };
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn solve_pinned(s: &mut Solver, assumptions: &[Lit]) -> Pin {
    let r = s.solve_with_assumptions(assumptions);
    let SolverStats {
        conflicts,
        decisions,
        propagations,
        restarts,
        reductions,
        ..
    } = s.stats();
    Pin {
        result: match r {
            SolveResult::Sat => "sat",
            SolveResult::Unsat => "unsat",
            SolveResult::Unknown => "unknown",
        },
        stats: (conflicts, decisions, propagations, restarts, reductions),
        model: if r == SolveResult::Sat {
            model_hash(s)
        } else {
            0
        },
        core: s.unsat_core().iter().map(|&l| dimacs(l)).collect(),
    }
}

/// Sinz's sequential counter for `Σ lits ≤ k` (`1 ≤ k < lits.len()`).
fn sequential_at_most(s: &mut Solver, lits: &[Lit], k: usize) {
    let n = lits.len();
    let rows = n - 1;
    let reg: Vec<Vec<Lit>> = (0..rows)
        .map(|_| (0..k).map(|_| s.new_var().positive()).collect())
        .collect();
    s.add_clause(&[!lits[0], reg[0][0]]);
    for r in &reg[0][1..] {
        s.add_clause(&[!*r]);
    }
    for i in 1..rows {
        s.add_clause(&[!lits[i], reg[i][0]]);
        for (prev, cur) in reg[i - 1].iter().zip(&reg[i]) {
            s.add_clause(&[!*prev, *cur]);
        }
        for j in 1..k {
            s.add_clause(&[!lits[i], !reg[i - 1][j - 1], reg[i][j]]);
        }
        s.add_clause(&[!lits[i], !reg[i - 1][k - 1]]);
    }
    s.add_clause(&[!lits[n - 1], !reg[rows - 1][k - 1]]);
}

#[test]
fn pigeonhole_7_trajectory() {
    let mut s = Solver::new();
    pigeonhole(7).load_into(&mut s);
    assert_eq!(
        solve_pinned(&mut s, &[]),
        Pin {
            result: "unsat",
            stats: (3250, 3970, 42404, 15, 4),
            model: 0,
            core: vec![],
        }
    );
}

#[test]
fn pigeonhole_8_trajectory() {
    let mut s = Solver::new();
    pigeonhole(8).load_into(&mut s);
    assert_eq!(
        solve_pinned(&mut s, &[]),
        Pin {
            result: "unsat",
            stats: (27773, 33848, 371810, 98, 18),
            model: 0,
            core: vec![],
        }
    );
}

/// A seeded random 3-SAT formula at clause/variable ratio 4.26 (the
/// hardness peak), queried incrementally under a series of assumption
/// sets so learnt clauses, restarts and reductions carry across calls.
#[test]
fn random_3sat_under_assumptions_trajectory() {
    let mut rng = SplitMix(0x5eed_0426);
    let mut s = Solver::new();
    let n = 200;
    random_3sat(&mut rng, n).load_into(&mut s);
    let pins: Vec<Pin> = (0..8)
        .map(|_| {
            let assumptions = rng.lits(n, 6);
            solve_pinned(&mut s, &assumptions)
        })
        .collect();
    let expected = vec![
        Pin {
            result: "unsat",
            stats: (617, 781, 22092, 5, 0),
            model: 0,
            core: vec![-133, 171, 1, -106, 40, 155],
        },
        Pin {
            result: "unsat",
            stats: (762, 979, 28016, 6, 0),
            model: 0,
            core: vec![-95, -65, -35, 18, 178, 57],
        },
        Pin {
            result: "unsat",
            stats: (1583, 2048, 59677, 12, 1),
            model: 0,
            core: vec![159, 150, -163, -170, 134, -158],
        },
        Pin {
            result: "unsat",
            stats: (2356, 3010, 88846, 17, 3),
            model: 0,
            core: vec![-103, 12, -180, -165, 153, -132],
        },
        Pin {
            result: "sat",
            stats: (3024, 3894, 113929, 22, 4),
            model: 9265530336369329784,
            core: vec![],
        },
        Pin {
            result: "sat",
            stats: (3388, 4384, 128168, 24, 5),
            model: 18344043877358451558,
            core: vec![],
        },
        Pin {
            result: "unsat",
            stats: (3890, 4995, 146725, 28, 6),
            model: 0,
            core: vec![-149, 167, 114, -161, -60, 5],
        },
        Pin {
            result: "unsat",
            stats: (4025, 5172, 151675, 29, 6),
            model: 0,
            core: vec![-112, -34, -106, 137, -46, 72],
        },
    ];
    assert_eq!(pins, expected);
}

/// An at-most-k sequential counter forced to k + 1: once by an
/// at-least-(k + 1) counter over the negations (a refutation that needs
/// search), and once by assuming k + 1 of the literals (a core).
#[test]
fn sequential_counter_forced_over_k_trajectory() {
    let (n, k) = (24, 8);
    let mut s = Solver::new();
    let xs: Vec<Lit> = (0..n).map(|_| s.new_var().positive()).collect();
    sequential_at_most(&mut s, &xs, k);
    let free = solve_pinned(&mut s, &[]);
    let forced_lits: Vec<Lit> = xs.iter().step_by(2).take(k + 1).copied().collect();
    let assumed = solve_pinned(&mut s, &forced_lits);
    let negated: Vec<Lit> = xs.iter().map(|&l| !l).collect();
    sequential_at_most(&mut s, &negated, n - k - 1);
    let refuted = solve_pinned(&mut s, &[]);
    assert_eq!(
        vec![free, assumed, refuted],
        vec![
            Pin {
                result: "sat",
                stats: (0, 10, 208, 0, 0),
                model: 12820045184218878821,
                core: vec![],
            },
            Pin {
                result: "unsat",
                stats: (0, 18, 409, 0, 0),
                model: 0,
                core: vec![17, 15, 13, 11, 9, 7, 5, 3, 1],
            },
            Pin {
                result: "unsat",
                stats: (567, 812, 76954, 4, 0),
                model: 0,
                core: vec![],
            },
        ]
    );
}
