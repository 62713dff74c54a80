//! Simulation-guided equivalence-candidate detection (the front half of
//! a fraig/SAT-sweeping engine, after FRAIG-BMC).
//!
//! A deterministic [`PatternPool`] drives the 64-way bit-parallel
//! simulator; nodes whose signatures agree (up to complementation) land
//! in the same [`CandidateClasses`] class. Classes are *candidates*
//! only: proving members equivalent (and merging them) is the SAT
//! half, which lives in the `eco-core` sweep layer so the governed
//! solver applies. Counterexamples from failed proofs are fed back via
//! [`PatternPool::add_pattern`], refining the partition CEGAR-style.

use crate::aig::Aig;
use crate::lit::{AigLit, NodeId};
use crate::splitmix::splitmix64;
use std::collections::HashMap;

/// A deterministic pool of simulation patterns for an `n`-input AIG,
/// stored column-wise: 64 patterns per word, one word stream per input.
///
/// The pool starts from seeded pseudo-random words (the same seed
/// always produces the same pool, keeping swept runs reproducible)
/// and grows by appending concrete counterexample patterns from failed
/// sweep proofs.
#[derive(Clone, Debug)]
pub struct PatternPool {
    num_inputs: usize,
    /// `columns[i][w]` = 64 values of input `i` in pattern word `w`.
    columns: Vec<Vec<u64>>,
    /// Bits used in the last (counterexample) word, 0 when the last
    /// word is a full random word.
    extra_fill: usize,
    /// Words present at construction (the seeded random prefix).
    seed_words: usize,
    /// Counterexample patterns appended so far.
    appended: usize,
}

impl PatternPool {
    /// Builds a pool of `words` random 64-pattern words (at least one)
    /// from the given seed.
    pub fn new(num_inputs: usize, words: usize, seed: u64) -> PatternPool {
        let words = words.max(1);
        let mut state = seed ^ 0x5EED_5EED_5EED_5EEDu64;
        let columns = (0..num_inputs)
            .map(|_| (0..words).map(|_| splitmix64(&mut state)).collect())
            .collect();
        PatternPool {
            num_inputs,
            columns,
            extra_fill: 0,
            seed_words: words,
            appended: 0,
        }
    }

    /// Number of inputs the pool feeds.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of 64-pattern words per input.
    pub fn num_words(&self) -> usize {
        if self.num_inputs == 0 {
            return 1;
        }
        self.columns[0].len()
    }

    /// The input-word column for pattern word `w`, in the shape
    /// [`Aig::simulate`] expects.
    pub fn input_words(&self, w: usize) -> Vec<u64> {
        self.columns.iter().map(|c| c[w]).collect()
    }

    /// Appends one concrete pattern (a counterexample from a failed
    /// sweep proof). Unused bits of a partially filled word replay the
    /// all-zero pattern, which is harmless — signatures only gain rows.
    ///
    /// Duplicates of a pattern appended earlier are dropped: prune and
    /// minimize can both learn the same counterexample, and storing it
    /// twice wastes a pool slot without distinguishing anything new.
    /// Only appended slots are checked — the seeded random prefix is
    /// left alone so pool growth stays deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != self.num_inputs()`.
    pub fn add_pattern(&mut self, bits: &[bool]) {
        assert_eq!(bits.len(), self.num_inputs, "one bit per input required");
        if self.appended_contains(bits) {
            return;
        }
        if self.extra_fill == 0 {
            for c in &mut self.columns {
                c.push(0);
            }
        }
        let bit = self.extra_fill as u32;
        for (c, &b) in self.columns.iter_mut().zip(bits) {
            if b {
                let last = c.last_mut().expect("pool has at least one word");
                *last |= 1u64 << bit;
            }
        }
        self.extra_fill = (self.extra_fill + 1) % 64;
        self.appended += 1;
    }

    /// True when `bits` matches a previously appended counterexample
    /// slot (the seeded random words are not consulted).
    fn appended_contains(&self, bits: &[bool]) -> bool {
        (0..self.appended).any(|k| {
            let w = self.seed_words + k / 64;
            let r = (k % 64) as u32;
            self.columns
                .iter()
                .zip(bits)
                .all(|(c, &b)| ((c[w] >> r) & 1 == 1) == b)
        })
    }

    /// Simulates the AIG over the whole pool and returns one signature
    /// per node, flattened node-major: the signature of node `i` is
    /// `sigs[i * num_words .. (i + 1) * num_words]`.
    ///
    /// # Panics
    ///
    /// Panics if `aig.num_inputs() != self.num_inputs()`.
    pub fn signatures(&self, aig: &Aig) -> Vec<u64> {
        assert_eq!(aig.num_inputs(), self.num_inputs, "pool/AIG input mismatch");
        let num_words = self.num_words();
        let mut sigs = vec![0u64; aig.num_nodes() * num_words];
        for w in 0..num_words {
            let col = self.input_words(w);
            let words = aig.simulate(&col);
            for (node, &word) in words.iter().enumerate() {
                sigs[node * num_words + w] = word;
            }
        }
        sigs
    }
}

/// One member of a candidate class: a node plus the phase relating it
/// to the class representative (`complement == true` means the member
/// is a candidate for the representative's *negation*).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepCandidate {
    /// The member node.
    pub node: NodeId,
    /// Phase relative to the class representative.
    pub complement: bool,
}

/// A partition of an AIG's nodes into equivalence-candidate classes
/// under a [`PatternPool`], up to complementation.
///
/// Each class lists its members in topological order; the first member
/// is the representative (always with `complement == false`). Only
/// classes with two or more members are kept — singletons cannot be
/// merged. The constant-0 node participates, so a class led by it
/// contains candidates for constant nodes.
#[derive(Clone, Debug, Default)]
pub struct CandidateClasses {
    /// The candidate classes, ordered by representative node index.
    pub classes: Vec<Vec<SweepCandidate>>,
}

impl CandidateClasses {
    /// Partitions `aig`'s nodes by their pool signatures.
    ///
    /// Signatures are canonicalized by phase: a signature whose first
    /// pattern bit is 1 is complemented and the member flagged, so a
    /// node and its negation land in the same class. Because nodes are
    /// visited in topological order, every member's representative has
    /// a strictly smaller node index — merging a member into its
    /// representative can therefore never create a cycle.
    pub fn compute(aig: &Aig, pool: &PatternPool) -> CandidateClasses {
        let num_words = pool.num_words();
        let sigs = pool.signatures(aig);
        let mut by_sig: HashMap<Vec<u64>, usize> = HashMap::new();
        // Raw classes: (node, phase of its signature vs the canonical).
        let mut raw: Vec<Vec<(NodeId, bool)>> = Vec::new();
        for id in aig.iter_nodes() {
            let sig = &sigs[id.index() * num_words..(id.index() + 1) * num_words];
            let complement = sig[0] & 1 == 1;
            let canonical: Vec<u64> = if complement {
                sig.iter().map(|w| !w).collect()
            } else {
                sig.to_vec()
            };
            match by_sig.get(&canonical) {
                Some(&class) => raw[class].push((id, complement)),
                None => {
                    by_sig.insert(canonical, raw.len());
                    raw.push(vec![(id, complement)]);
                }
            }
        }
        // Re-express member phases relative to each class representative
        // and drop singleton classes (nothing to merge).
        let classes = raw
            .into_iter()
            .filter(|class| class.len() >= 2)
            .map(|class| {
                let rep_phase = class[0].1;
                class
                    .into_iter()
                    .map(|(node, phase)| SweepCandidate {
                        node,
                        complement: phase != rep_phase,
                    })
                    .collect()
            })
            .collect();
        CandidateClasses { classes }
    }

    /// Candidate merge pairs `(member, representative-literal-phase)`:
    /// for each non-representative member, the representative literal
    /// it is a candidate to be replaced by.
    pub fn merge_candidates(&self) -> impl Iterator<Item = (NodeId, AigLit)> + '_ {
        self.classes.iter().flat_map(|class| {
            let rep = class[0].node;
            class[1..]
                .iter()
                .map(move |m| (m.node, rep.lit().xor_complement(m.complement)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// a, b inputs; two structurally distinct but equivalent functions:
    /// or(a,b) and !(and(!a,!b)) collapse via strash, so build
    /// or(a, and(a,b)) == a instead, plus a xor pair.
    fn redundant_aig() -> (Aig, AigLit, AigLit) {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let ab = g.and(a, b);
        let redundant = g.or(a, ab); // == a
        let x1 = g.xor(a, b);
        g.add_output(redundant);
        g.add_output(x1);
        (g, a, redundant)
    }

    #[test]
    fn pool_is_deterministic_and_growable() {
        let mut p1 = PatternPool::new(3, 4, 7);
        let p2 = PatternPool::new(3, 4, 7);
        assert_eq!(p1.input_words(2), p2.input_words(2));
        let other = PatternPool::new(3, 4, 8);
        assert_ne!(p1.input_words(0), other.input_words(0));
        assert_eq!(p1.num_words(), 4);
        p1.add_pattern(&[true, false, true]);
        assert_eq!(p1.num_words(), 5);
        let col = p1.input_words(4);
        assert_eq!(col, vec![1, 0, 1]);
        // A second pattern fills bit 1 of the same word.
        p1.add_pattern(&[true, true, false]);
        assert_eq!(p1.num_words(), 5);
        assert_eq!(p1.input_words(4), vec![3, 2, 1]);
    }

    #[test]
    fn duplicate_counterexamples_are_not_stored_twice() {
        let mut p = PatternPool::new(3, 4, 7);
        p.add_pattern(&[true, false, true]);
        p.add_pattern(&[true, true, false]);
        let before = p.input_words(4);
        // Re-learning either pattern (prune and minimize can both hit
        // the same witness) must leave the pool byte-identical.
        p.add_pattern(&[true, false, true]);
        p.add_pattern(&[true, true, false]);
        assert_eq!(p.num_words(), 5);
        assert_eq!(p.input_words(4), before);
        // A genuinely new pattern still lands in the next slot — dedup
        // consults only the appended slots, never the seeded prefix,
        // so a pattern already present among the random words is kept.
        p.add_pattern(&[false, true, true]);
        assert_eq!(p.num_words(), 5);
        assert_eq!(p.input_words(4), vec![3, 6, 5]);
        // All eight 3-bit patterns appended repeatedly occupy exactly
        // eight slots — still within the single counterexample word.
        for _ in 0..3 {
            for k in 0..8u8 {
                let bits = [k & 1 == 1, k & 2 == 2, k & 4 == 4];
                p.add_pattern(&bits);
            }
        }
        assert_eq!(p.num_words(), 5);
        assert_eq!(p.input_words(4).iter().map(|w| w >> 8).sum::<u64>(), 0);
    }

    #[test]
    fn equivalent_nodes_share_a_class() {
        let (g, a, redundant) = redundant_aig();
        let pool = PatternPool::new(2, 2, 1);
        let classes = CandidateClasses::compute(&g, &pool);
        // redundant ≡ a, so its underlying node computes a in the
        // redundant literal's phase.
        let expect = a.xor_complement(redundant.is_complement());
        let found = classes
            .merge_candidates()
            .any(|(node, rep)| node == redundant.node() && rep == expect);
        assert!(found, "or(a, a&b) must be a candidate for a: {classes:?}");
    }

    #[test]
    fn complemented_pairs_share_a_class() {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let x = g.xor(a, b);
        let nx = g.xnor(a, b);
        g.add_output(x);
        g.add_output(nx);
        let pool = PatternPool::new(2, 2, 3);
        let classes = CandidateClasses::compute(&g, &pool);
        // xnor output shares xor's node complemented (strash), or the
        // two land in one complemented class; either way the pair must
        // be relatable through the classes or literal identity.
        if nx == !x {
            return; // structural hashing already related them
        }
        let found = classes
            .merge_candidates()
            .any(|(node, rep)| node == nx.node() && rep.node() == x.node());
        assert!(found, "xnor must be a candidate for !xor: {classes:?}");
    }

    #[test]
    fn constants_join_the_const0_class() {
        let mut g = Aig::new();
        let a = g.add_input();
        // and(a, !a) folds structurally; build and(and(a,b), and(a,!b))
        // with distinct b... still folds? No: and(a,b) & and(a,!b) == 0
        // but is structurally irreducible.
        let b = g.add_input();
        let t1 = g.and(a, b);
        let t2 = g.and(a, !b);
        let z = g.and(t1, t2); // constant 0, not folded by strash
        g.add_output(z);
        let pool = PatternPool::new(2, 2, 5);
        let classes = CandidateClasses::compute(&g, &pool);
        let found = classes
            .merge_candidates()
            .any(|(node, rep)| node == z.node() && rep == AigLit::FALSE);
        assert!(found, "and(a,b)&and(a,!b) must be a const-0 candidate");
    }

    #[test]
    fn refinement_splits_false_candidates() {
        // With a tiny pool, or(a,b) and xor(a,b) may collide; feeding
        // the distinguishing pattern (1,1) must split them.
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let o = g.or(a, b);
        let x = g.xor(a, b);
        g.add_output(o);
        g.add_output(x);
        // A pool whose random words happen to distinguish them is fine;
        // force the degenerate case with an all-zero-free pool of one
        // narrow word by adding only patterns that agree.
        let mut pool = PatternPool::new(2, 1, 11);
        pool.add_pattern(&[true, true]); // or=1, xor=0: distinguishes
        let classes = CandidateClasses::compute(&g, &pool);
        let collided = classes
            .merge_candidates()
            .any(|(node, rep)| node == x.node() && rep.node() == o.node());
        assert!(!collided, "pattern (1,1) must split or from xor");
    }
}
