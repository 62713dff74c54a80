//! Clause storage for the CDCL solver.
//!
//! Every clause is a slot, named by a dense [`ClauseRef`]. The literals
//! of all clauses live back to back in one flat vector; a dense
//! per-slot span table (start, length) locates them, so `propagate`
//! reaches a clause's literals with two array reads and no per-clause
//! allocation. The cold per-slot fields (activity, LBD, learnt and
//! deleted flags) sit in a table of their own, apart from the spans.
//!
//! Deleting a clause tombstones its slot and puts the slot on a free
//! list; the next allocation recycles it, so references stay dense and
//! stable across database reductions. A deleted clause's literals stay
//! in the flat vector as waste. After a database reduction, once waste
//! exceeds a fifth of the vector, the live literals are copied into a
//! fresh vector in slot order and the spans rewritten. Slots never
//! move, so no watcher or reason needs fixing.

use crate::types::Lit;

/// Stable handle to a clause in the solver's clause arena.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct ClauseRef(pub(crate) u32);

impl ClauseRef {
    /// Returns the dense arena index of the clause.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Where a slot's literals live in the flat literal vector.
#[derive(Clone, Copy, Debug, Default)]
struct Span {
    start: u32,
    len: u32,
}

/// The cold per-slot fields, read by conflict analysis and database
/// reduction but never by `propagate`.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ClauseMeta {
    pub activity: f32,
    /// Literal block distance at learning time (Glucose-style quality).
    pub lbd: u32,
    pub learnt: bool,
    pub deleted: bool,
}

/// Arena of clauses: flat literals, per-slot spans and metadata, slot
/// recycling and occasional compaction of the literal vector.
#[derive(Clone, Debug, Default)]
pub(crate) struct ClauseDb {
    lits: Vec<Lit>,
    spans: Vec<Span>,
    meta: Vec<ClauseMeta>,
    free: Vec<u32>,
    /// Literals in `lits` that belong to deleted clauses.
    wasted: usize,
    pub num_learnt: usize,
    pub learnt_literals: u64,
}

impl ClauseDb {
    pub fn new() -> ClauseDb {
        ClauseDb::default()
    }

    /// Reserves room for `clauses` more clauses with `lits` literals in
    /// total.
    pub fn reserve(&mut self, clauses: usize, lits: usize) {
        self.lits.reserve(lits);
        self.spans.reserve(clauses);
        self.meta.reserve(clauses);
    }

    pub fn alloc(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> ClauseRef {
        debug_assert!(
            !lits.is_empty(),
            "empty clauses are represented by the ok flag"
        );
        if learnt {
            self.num_learnt += 1;
            self.learnt_literals += lits.len() as u64;
        }
        let span = Span {
            start: u32::try_from(self.lits.len()).expect("clause arena exceeds u32 literals"),
            len: lits.len() as u32,
        };
        self.lits.extend_from_slice(lits);
        let meta = ClauseMeta {
            activity: 0.0,
            lbd,
            learnt,
            deleted: false,
        };
        if let Some(slot) = self.free.pop() {
            self.spans[slot as usize] = span;
            self.meta[slot as usize] = meta;
            ClauseRef(slot)
        } else {
            self.spans.push(span);
            self.meta.push(meta);
            ClauseRef((self.spans.len() - 1) as u32)
        }
    }

    pub fn free(&mut self, cref: ClauseRef) {
        let meta = &mut self.meta[cref.index()];
        debug_assert!(!meta.deleted);
        let len = self.spans[cref.index()].len as usize;
        if meta.learnt {
            self.num_learnt -= 1;
            self.learnt_literals -= len as u64;
        }
        meta.deleted = true;
        self.spans[cref.index()] = Span::default();
        self.free.push(cref.0);
        self.wasted += len;
    }

    /// Once deleted clauses waste more than a fifth of the literal
    /// vector, copies the live literals into a fresh vector in slot
    /// order and rewrites the spans; slot ids are unchanged.
    pub fn collect_garbage(&mut self) {
        if self.wasted * 5 <= self.lits.len() {
            return;
        }
        let mut lits = Vec::with_capacity(self.lits.len() - self.wasted);
        for (span, meta) in self.spans.iter_mut().zip(&self.meta) {
            if meta.deleted {
                continue;
            }
            let start = span.start as usize;
            span.start = lits.len() as u32;
            lits.extend_from_slice(&self.lits[start..start + span.len as usize]);
        }
        self.lits = lits;
        self.wasted = 0;
    }

    /// The literals of a clause.
    #[inline]
    pub fn lits(&self, cref: ClauseRef) -> &[Lit] {
        let Span { start, len } = self.spans[cref.index()];
        &self.lits[start as usize..(start + len) as usize]
    }

    /// The literals of a clause, for in-place reordering.
    #[inline]
    pub fn lits_mut(&mut self, cref: ClauseRef) -> &mut [Lit] {
        let Span { start, len } = self.spans[cref.index()];
        &mut self.lits[start as usize..(start + len) as usize]
    }

    #[inline]
    pub fn meta(&self, cref: ClauseRef) -> &ClauseMeta {
        &self.meta[cref.index()]
    }

    #[inline]
    pub fn meta_mut(&mut self, cref: ClauseRef) -> &mut ClauseMeta {
        &mut self.meta[cref.index()]
    }

    /// Iterates over the refs of all live learnt clauses.
    pub fn learnt_refs(&self) -> Vec<ClauseRef> {
        self.meta
            .iter()
            .enumerate()
            .filter(|(_, m)| m.learnt && !m.deleted)
            .map(|(i, _)| ClauseRef(i as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Var;

    fn lits(ids: &[i32]) -> Vec<Lit> {
        ids.iter()
            .map(|&i| Var::from_index(i.unsigned_abs() as usize).lit(i < 0))
            .collect()
    }

    #[test]
    fn alloc_and_get_roundtrip() {
        let mut db = ClauseDb::new();
        let c = db.alloc(&lits(&[1, -2, 3]), false, 0);
        assert_eq!(db.lits(c), lits(&[1, -2, 3]));
        assert!(!db.meta(c).learnt);
    }

    #[test]
    fn free_recycles_slots() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&lits(&[1, 2]), true, 2);
        assert_eq!(db.num_learnt, 1);
        db.free(a);
        assert_eq!(db.num_learnt, 0);
        let b = db.alloc(&lits(&[3, 4]), false, 0);
        assert_eq!(a.0, b.0, "slot should be recycled");
        assert_eq!(db.lits(b), lits(&[3, 4]));
    }

    #[test]
    fn learnt_refs_filters_deleted_and_original() {
        let mut db = ClauseDb::new();
        let _orig = db.alloc(&lits(&[1, 2]), false, 0);
        let l1 = db.alloc(&lits(&[2, 3]), true, 2);
        let l2 = db.alloc(&lits(&[3, 4]), true, 2);
        db.free(l1);
        assert_eq!(db.learnt_refs(), vec![l2]);
    }

    #[test]
    fn learnt_literal_accounting() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&lits(&[1, 2, 3]), true, 3);
        let _b = db.alloc(&lits(&[4, 5]), true, 2);
        assert_eq!(db.learnt_literals, 5);
        db.free(a);
        assert_eq!(db.learnt_literals, 2);
    }

    #[test]
    fn compaction_keeps_slots_and_literals() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&lits(&[1, 2, 3]), true, 3);
        let b = db.alloc(&lits(&[4, -5]), false, 0);
        let c = db.alloc(&lits(&[6, 7, -8, 9]), true, 2);
        db.collect_garbage();
        assert_eq!(db.lits.len(), 9, "nothing wasted, nothing moved");
        db.free(a);
        db.collect_garbage();
        assert_eq!(db.lits.len(), 6, "a third wasted is compacted");
        assert_eq!(db.lits(c), lits(&[6, 7, -8, 9]));
        db.free(c);
        db.collect_garbage();
        assert_eq!(db.wasted, 0);
        assert_eq!(db.lits.len(), 2);
        assert_eq!(db.lits(b), lits(&[4, -5]));
        let d = db.alloc(&lits(&[10, 11, 12]), false, 0);
        assert!(d == a || d == c, "freed slots are recycled");
        assert_eq!(db.lits(d), lits(&[10, 11, 12]));
        assert_eq!(db.lits(b), lits(&[4, -5]));
    }
}
