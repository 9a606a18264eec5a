//! Seeded instance generators shared by the solver's integration tests.

use satcore::{Cnf, Lit, Var};

/// SplitMix64: a fixed generator, so the instances cannot drift with a
/// dependency's RNG.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A uniformly random literal over the first `num_vars` variables.
    pub fn lit(&mut self, num_vars: usize) -> Lit {
        let v = Var::from_index(self.below(num_vars));
        v.lit(self.next() & 1 == 0)
    }

    /// `count` random literals over the first `num_vars` variables.
    pub fn lits(&mut self, num_vars: usize, count: usize) -> Vec<Lit> {
        (0..count).map(|_| self.lit(num_vars)).collect()
    }
}

/// A random 3-SAT formula over `num_vars` variables at clause/variable
/// ratio 4.26, the satisfiability threshold where instances are hardest.
pub fn random_3sat(rng: &mut SplitMix, num_vars: usize) -> Cnf {
    let num_clauses = (4.26 * num_vars as f64).round() as usize;
    Cnf {
        num_vars,
        clauses: (0..num_clauses).map(|_| rng.lits(num_vars, 3)).collect(),
    }
}

/// Pigeonhole principle: `holes + 1` pigeons into `holes` holes
/// (unsat). Variable `p * holes + h` means pigeon `p` sits in hole `h`.
pub fn pigeonhole(holes: usize) -> Cnf {
    let pigeons = holes + 1;
    let v = |p: usize, h: usize| Var::from_index(p * holes + h);
    let mut clauses: Vec<Vec<Lit>> = (0..pigeons)
        .map(|p| (0..holes).map(|h| v(p, h).positive()).collect())
        .collect();
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in (p1 + 1)..pigeons {
                clauses.push(vec![v(p1, h).negative(), v(p2, h).negative()]);
            }
        }
    }
    Cnf {
        num_vars: pigeons * holes,
        clauses,
    }
}
