//! Clause storage: one flat arena.
//!
//! Every clause lives in a single `Vec<Lit>` ([`ClauseDb`]) and is
//! addressed by the offset of its header word ([`ClauseRef`]):
//!
//! ```text
//! original: [header][lit 0][lit 1] … [lit n-1]
//! learnt:   [header][lit 0][lit 1] … [lit n-1][lbd][activity lo][activity hi]
//! ```
//!
//! The header packs the length with a learnt bit and a deleted bit;
//! non-literal words are stored through [`Lit::from_code`]. The learnt
//! metadata (literal block distance and an `f64` activity, kept at full
//! precision so the deletion order is exact) trails the literals, so a
//! clause's literals always start right after its header. Deleting a
//! clause only sets its bit: its words stay in place, counted as wasted,
//! until [`ClauseDb::compact`] copies the live records into a fresh
//! arena in their existing order.

use crate::lit::Lit;

/// An offset into the clause arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ClauseRef(pub(crate) u32);

impl ClauseRef {
    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }
}

const DELETED: u32 = 1;
const LEARNT: u32 = 2;
const LEN_SHIFT: u32 = 2;
/// Words after the literals of a learnt clause: LBD, activity lo/hi.
const LEARNT_EXTRA: usize = 3;
/// Arena offsets stay below this bit, which watchers use as a tag.
pub(crate) const MAX_ARENA_WORDS: usize = 1 << 31;

#[inline]
fn word(w: u32) -> Lit {
    Lit::from_code(w as usize)
}

#[inline]
fn unword(l: Lit) -> u32 {
    l.code() as u32
}

/// The clause arena.
#[derive(Debug, Default)]
pub(crate) struct ClauseDb {
    arena: Vec<Lit>,
    /// Words held by deleted records, reclaimed by [`ClauseDb::compact`].
    wasted: usize,
    /// Number of live (not deleted) original clauses.
    pub(crate) num_original: usize,
    /// Number of live (not deleted) learnt clauses.
    pub(crate) num_learnt: usize,
}

/// The arena a [`ClauseDb::compact`] replaced, each live record's first
/// literal overwritten with the record's new offset.
pub(crate) struct Relocation(Vec<Lit>);

impl Relocation {
    /// Where `old` moved, or `None` if it was a deleted clause.
    #[inline]
    pub(crate) fn get(&self, old: ClauseRef) -> Option<ClauseRef> {
        if unword(self.0[old.index()]) & DELETED != 0 {
            None
        } else {
            Some(ClauseRef(unword(self.0[old.index() + 1])))
        }
    }
}

impl ClauseDb {
    pub(crate) fn new() -> ClauseDb {
        ClauseDb::default()
    }

    #[inline]
    fn header(&self, r: ClauseRef) -> u32 {
        unword(self.arena[r.index()])
    }

    /// Words the record starting with `header` occupies.
    #[inline]
    fn record_words(header: u32) -> usize {
        let len = (header >> LEN_SHIFT) as usize;
        let extra = if header & LEARNT != 0 {
            LEARNT_EXTRA
        } else {
            0
        };
        1 + len + extra
    }

    /// Appends a clause of at least two literals.
    pub(crate) fn push(&mut self, lits: &[Lit], learnt: bool) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let extra = if learnt { LEARNT_EXTRA } else { 0 };
        assert!(
            lits.len() < 1 << (32 - LEN_SHIFT)
                && self.arena.len() + 1 + lits.len() + extra < MAX_ARENA_WORDS,
            "clause arena exceeds 2^31 words"
        );
        let header = ((lits.len() as u32) << LEN_SHIFT) | if learnt { LEARNT } else { 0 };
        let r = ClauseRef(self.arena.len() as u32);
        self.arena.push(word(header));
        self.arena.extend_from_slice(lits);
        if learnt {
            self.num_learnt += 1;
            self.arena.extend([word(0); LEARNT_EXTRA]);
        } else {
            self.num_original += 1;
        }
        r
    }

    /// Number of literals of `r`.
    #[inline]
    pub(crate) fn len(&self, r: ClauseRef) -> usize {
        (self.header(r) >> LEN_SHIFT) as usize
    }

    #[inline]
    pub(crate) fn is_learnt(&self, r: ClauseRef) -> bool {
        self.header(r) & LEARNT != 0
    }

    #[inline]
    pub(crate) fn is_deleted(&self, r: ClauseRef) -> bool {
        self.header(r) & DELETED != 0
    }

    /// The literals of `r`.
    #[inline]
    pub(crate) fn lits(&self, r: ClauseRef) -> &[Lit] {
        let start = r.index() + 1;
        &self.arena[start..start + self.len(r)]
    }

    #[inline]
    pub(crate) fn lits_mut(&mut self, r: ClauseRef) -> &mut [Lit] {
        let start = r.index() + 1;
        let len = self.len(r);
        &mut self.arena[start..start + len]
    }

    /// Offset of the learnt metadata of `r`.
    #[inline]
    fn extra(&self, r: ClauseRef) -> usize {
        debug_assert!(self.is_learnt(r));
        r.index() + 1 + self.len(r)
    }

    pub(crate) fn lbd(&self, r: ClauseRef) -> u32 {
        unword(self.arena[self.extra(r)])
    }

    pub(crate) fn set_lbd(&mut self, r: ClauseRef, lbd: u32) {
        let at = self.extra(r);
        self.arena[at] = word(lbd);
    }

    pub(crate) fn activity(&self, r: ClauseRef) -> f64 {
        let at = self.extra(r);
        let lo = u64::from(unword(self.arena[at + 1]));
        let hi = u64::from(unword(self.arena[at + 2]));
        f64::from_bits(hi << 32 | lo)
    }

    pub(crate) fn set_activity(&mut self, r: ClauseRef, activity: f64) {
        let at = self.extra(r);
        let bits = activity.to_bits();
        self.arena[at + 1] = word(bits as u32);
        self.arena[at + 2] = word((bits >> 32) as u32);
    }

    pub(crate) fn delete(&mut self, r: ClauseRef) {
        let header = self.header(r);
        if header & DELETED == 0 {
            self.arena[r.index()] = word(header | DELETED);
            self.wasted += ClauseDb::record_words(header);
            if header & LEARNT != 0 {
                self.num_learnt -= 1;
            } else {
                self.num_original -= 1;
            }
        }
    }

    /// Words in the arena, live and wasted.
    pub(crate) fn words(&self) -> usize {
        self.arena.len()
    }

    /// Every record in arena order, deleted ones included.
    pub(crate) fn refs(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        let mut at = 0;
        std::iter::from_fn(move || {
            (at < self.arena.len()).then(|| {
                let r = ClauseRef(at as u32);
                at += ClauseDb::record_words(self.header(r));
                r
            })
        })
    }

    /// Whether deleted records hold more than a fifth of the arena.
    pub(crate) fn wants_compaction(&self) -> bool {
        self.wasted * 5 > self.arena.len()
    }

    /// Copies the live records, in their existing order, into a fresh
    /// arena without the wasted words. The caller must remap every
    /// [`ClauseRef`] it holds through the returned [`Relocation`].
    pub(crate) fn compact(&mut self) -> Relocation {
        let mut fresh = Vec::with_capacity(self.arena.len() - self.wasted);
        let mut at = 0;
        while at < self.arena.len() {
            let header = unword(self.arena[at]);
            let size = ClauseDb::record_words(header);
            if header & DELETED == 0 {
                let to = fresh.len();
                fresh.extend_from_slice(&self.arena[at..at + size]);
                self.arena[at + 1] = word(to as u32);
            }
            at += size;
        }
        self.wasted = 0;
        Relocation(std::mem::replace(&mut self.arena, fresh))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;

    fn lits(idxs: &[i32]) -> Vec<Lit> {
        idxs.iter()
            .map(|&i| {
                let v = Var::from_index(i.unsigned_abs() as usize);
                v.lit(i >= 0)
            })
            .collect()
    }

    #[test]
    fn push_and_get() {
        let mut db = ClauseDb::new();
        let r = db.push(&lits(&[0, 1, -2]), false);
        assert_eq!(db.lits(r), lits(&[0, 1, -2]));
        assert_eq!(db.num_original, 1);
        assert_eq!(db.num_learnt, 0);
        assert!(!db.is_learnt(r));
    }

    #[test]
    fn learnt_metadata_round_trips() {
        let mut db = ClauseDb::new();
        let r = db.push(&lits(&[3, -4]), true);
        assert_eq!((db.lbd(r), db.activity(r)), (0, 0.0));
        db.set_lbd(r, 7);
        db.set_activity(r, 1.25e-17);
        assert_eq!((db.lbd(r), db.activity(r)), (7, 1.25e-17));
        assert_eq!(db.lits(r), lits(&[3, -4]));
    }

    #[test]
    fn delete_updates_counts_once() {
        let mut db = ClauseDb::new();
        let r1 = db.push(&lits(&[0, 1]), false);
        let r2 = db.push(&lits(&[1, 2]), true);
        db.delete(r2);
        db.delete(r2); // idempotent
        assert_eq!(db.num_original, 1);
        assert_eq!(db.num_learnt, 0);
        assert!(db.is_deleted(r2));
        assert!(!db.is_deleted(r1));
        assert_eq!(db.refs().collect::<Vec<_>>(), vec![r1, r2]);
    }

    #[test]
    fn compaction_keeps_order_and_relocates() {
        let mut db = ClauseDb::new();
        let a = db.push(&lits(&[0, 1, 2]), false);
        let b = db.push(&lits(&[1, -2, 3, 4]), true);
        let c = db.push(&lits(&[-5, 6]), true);
        db.set_activity(c, 3.5);
        db.set_lbd(c, 2);
        db.delete(b);
        assert!(db.wants_compaction());
        let before = db.words();
        let moved = db.compact();
        assert_eq!(db.words(), before - (1 + 4 + LEARNT_EXTRA));
        assert_eq!(moved.get(b), None);
        let (a2, c2) = (moved.get(a).unwrap(), moved.get(c).unwrap());
        assert_eq!(db.refs().collect::<Vec<_>>(), vec![a2, c2]);
        assert_eq!(db.lits(a2), lits(&[0, 1, 2]));
        assert_eq!(db.lits(c2), lits(&[-5, 6]));
        assert_eq!((db.lbd(c2), db.activity(c2)), (2, 3.5));
        assert!(!db.wants_compaction());
    }
}
