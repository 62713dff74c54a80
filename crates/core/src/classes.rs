//! Test-equivalence-class pruning for `SAT_prune`: simulation-first
//! answers to the subset-feasibility probes of the exact support
//! search, so SAT calls are spent only on queries whose verdict is not
//! already forced.
//!
//! Two pieces live here:
//!
//! - [`EquivClasses`]: the per-target class layer over the two-copy
//!   support instance of expression (2). It keeps an A/B witness store
//!   (satisfiable answers replayed from stored pattern pairs) and a
//!   feasible-set store (UNSAT answers inherited by supersets of a
//!   proven-feasible subset — a monotonicity argument, see
//!   [`EquivClasses::proves_feasible`]). Witness models from real SAT
//!   calls refine the stores CEGAR-style, and both stores carry
//!   across quantification-refinement rounds ([`EquivClasses::carry`]).
//! - [`MinimizeHook`]: the *learn-only* observation point
//!   `minimize_assumptions` exposes so the class layer can harvest
//!   witnesses and feasible sets from the recursion's real calls.
//!   Deliberately not an answer source: the recursion prunes by the
//!   solver's final conflict, and a conflict's content depends on the
//!   learned-clause state every earlier solve left behind — skipping
//!   even one solve (with a semantically correct verdict) changes
//!   later conflict sets and therefore the minimized result.
//!   Inheritance is confined to verdict-only consumers:
//!   [`SupportSolver::subset_feasible`](crate::support::SupportSolver::subset_feasible)
//!   and the `CEGAR_min` equivalence checks.
//!
//! Everything here is *verdict-preserving*: an answer the layer
//! short-circuits is one the SAT solver would have returned, so
//! patches, costs, dispositions, and exit codes are exactly those of a
//! run without the layer — only the observed SAT calls drop, and the
//! drop is auditable as `sat_calls - observed_sat_calls ==
//! sweep.oracle_hits + classes.inherited_answers`.

use crate::miter::QuantifiedMiter;
use crate::observe::ClassesCounters;
use eco_aig::{splitmix64, Aig, AigLit, NodeId};
use eco_sat::{Lit, ResourceGovernor, Solver};
use std::collections::{HashMap, HashSet};

/// Random 64-pattern words per input in the initial witness pool.
const POOL_WORDS: usize = 4;

/// Cap on witness patterns stored per side; beyond it the layer stays
/// sound, just less sharp.
const MAX_WITNESS_PATTERNS: usize = 1024;

/// Cap on raw witness pairs carried across refinement rounds.
const MAX_CARRIED_WITNESSES: usize = 1024;

/// Cap on stored feasible (UNSAT-proven) subsets.
const MAX_FEASIBLE_SETS: usize = 512;

/// The per-target test-equivalence-class layer over the support
/// instance of expression (2).
///
/// A subset `S` of divisors is *infeasible* exactly when the instance
/// `M(0, x1) ∧ M(1, x2) ∧ (d(x1) = d(x2) for d ∈ S)` is satisfiable.
/// The layer keeps two signature sets — `A` for patterns with
/// `M(0, x) = 1`, `B` for `M(1, x) = 1` — and a pair whose divisor
/// signatures agree on `S` is a ready-made model, so the `Sat` answer
/// is replayed without a call. On top it stores subsets proven
/// *feasible* (UNSAT): activations are constraints, so every superset
/// of a feasible subset is feasible too and the UNSAT answer is
/// inherited without a call. Quantification refinement only
/// strengthens the miter (`M_new = M_old ∧ extra`), so carried feasible
/// sets stay valid; carried infeasibility witnesses are re-verified by
/// simulation before being trusted.
#[derive(Debug)]
pub(crate) struct EquivClasses {
    miter: Aig,
    output: AigLit,
    x_count: usize,
    divisor_lits: Vec<AigLit>,
    /// Divisor signatures of patterns where `M(0, x) = 1`.
    a_sigs: Vec<Vec<u64>>,
    /// Divisor signatures of patterns where `M(1, x) = 1`.
    b_sigs: Vec<Vec<u64>>,
    /// Raw witness pairs, for carry across refinement rounds.
    witnesses: Vec<(Vec<bool>, Vec<bool>)>,
    /// Canonical (sorted) divisor-index sets proven feasible (UNSAT).
    feasible: Vec<Vec<usize>>,
    /// `Sat` answers replayed from stored witness pairs.
    oracle_hits: u64,
    stats: ClassesCounters,
    /// The run's governor: once it has interfered, every lookup and
    /// learn is off, degrading the layer to the identity (zero
    /// inherited answers).
    governor: ResourceGovernor,
}

impl EquivClasses {
    /// Builds the class layer for one quantified miter and its divisor
    /// list, seeding the pattern pool deterministically (identical
    /// inputs produce an identical layer).
    pub(crate) fn build(
        qm: &QuantifiedMiter,
        divisors: &[NodeId],
        seed: u64,
        governor: ResourceGovernor,
    ) -> EquivClasses {
        let x_count = qm.x_inputs.len();
        let divisor_lits: Vec<AigLit> = divisors.iter().map(|d| qm.impl_map[d.index()]).collect();
        let mut classes = EquivClasses {
            miter: qm.aig.clone(),
            output: qm.output,
            x_count,
            divisor_lits,
            a_sigs: Vec::new(),
            b_sigs: Vec::new(),
            witnesses: Vec::new(),
            feasible: Vec::new(),
            oracle_hits: 0,
            stats: ClassesCounters::default(),
            governor,
        };
        // Harvest initial A/B patterns from seeded random words over the
        // x inputs (input-major, `POOL_WORDS` per input), simulating the
        // miter under both cofactors of n.
        let mut state = seed ^ 0x5EED_5EED_5EED_5EEDu64;
        let columns: Vec<Vec<u64>> = (0..x_count)
            .map(|_| (0..POOL_WORDS).map(|_| splitmix64(&mut state)).collect())
            .collect();
        for w in 0..POOL_WORDS {
            let x_words: Vec<u64> = columns.iter().map(|c| c[w]).collect();
            for n_value in [false, true] {
                let mut cols = x_words.clone();
                cols.push(if n_value { !0u64 } else { 0u64 });
                let words = classes.miter.simulate(&cols);
                let out_word = word_of(&words, classes.output);
                for r in 0..64u32 {
                    if out_word >> r & 1 == 0 {
                        continue;
                    }
                    let sig = signature_at(&words, &classes.divisor_lits, r);
                    classes.store(n_value, sig);
                }
            }
        }
        classes
    }

    fn active(&self) -> bool {
        !self.governor.interfered()
    }

    fn store(&mut self, n_value: bool, sig: Vec<u64>) {
        let side = if n_value {
            &mut self.b_sigs
        } else {
            &mut self.a_sigs
        };
        if side.len() < MAX_WITNESS_PATTERNS && !side.contains(&sig) {
            side.push(sig);
        }
    }

    /// `true` if a stored pattern pair already witnesses that the
    /// divisor subset (by index) is infeasible — a SAT call would
    /// return `Sat`.
    pub(crate) fn proves_infeasible(&mut self, indices: &[usize]) -> bool {
        if !self.active() || self.a_sigs.is_empty() || self.b_sigs.is_empty() {
            return false;
        }
        let project = |sig: &Vec<u64>| -> Vec<u64> {
            let mut out = vec![0u64; indices.len().div_ceil(64).max(1)];
            for (k, &d) in indices.iter().enumerate() {
                if sig[d / 64] >> (d % 64) & 1 == 1 {
                    out[k / 64] |= 1u64 << (k % 64);
                }
            }
            out
        };
        let (small, large) = if self.a_sigs.len() <= self.b_sigs.len() {
            (&self.a_sigs, &self.b_sigs)
        } else {
            (&self.b_sigs, &self.a_sigs)
        };
        let keys: HashSet<Vec<u64>> = small.iter().map(project).collect();
        let hit = large.iter().any(|sig| keys.contains(&project(sig)));
        if hit {
            self.oracle_hits += 1;
        }
        hit
    }

    /// `true` if a stored feasible subset proves this subset feasible —
    /// a SAT call would return `Unsat`. Sound by monotonicity:
    /// activation literals are constraints, so `S ⊇ F` with `F`
    /// UNSAT-proven keeps the instance UNSAT.
    pub(crate) fn proves_feasible(&mut self, indices: &[usize]) -> bool {
        if !self.active() || self.feasible.is_empty() {
            return false;
        }
        let have: HashSet<usize> = indices.iter().copied().collect();
        let hit = self
            .feasible
            .iter()
            .any(|f| f.iter().all(|d| have.contains(d)));
        if hit {
            self.stats.inherited_answers += 1;
        }
        hit
    }

    /// Records a subset proven feasible (UNSAT) by a real SAT call.
    pub(crate) fn learn_feasible(&mut self, indices: &[usize]) {
        if self.active() {
            self.store_feasible(indices);
        }
    }

    /// Stores a feasible subset. Subsets subsume their supersets, so
    /// subsumed entries are pruned.
    fn store_feasible(&mut self, indices: &[usize]) {
        let mut canon: Vec<usize> = indices.to_vec();
        canon.sort_unstable();
        canon.dedup();
        let new_set: HashSet<usize> = canon.iter().copied().collect();
        if self
            .feasible
            .iter()
            .any(|f| f.iter().all(|d| new_set.contains(d)))
        {
            return; // an existing subset already subsumes it
        }
        self.feasible
            .retain(|f| !canon.iter().all(|d| f.contains(d)));
        if self.feasible.len() < MAX_FEASIBLE_SETS {
            self.feasible.push(canon);
        }
    }

    /// Learns an infeasibility witness from a real SAT model: `x1`
    /// satisfies `M(0, x1) = 1` and `x2` satisfies `M(1, x2) = 1`.
    /// Each side is re-verified by evaluation before being stored, so
    /// a bogus witness can degrade sharpness but never soundness.
    pub(crate) fn learn_witness(&mut self, x1: &[bool], x2: &[bool]) {
        if !self.active() {
            return;
        }
        if self.absorb_witness(x1, x2) {
            self.stats.refinement_rounds += 1;
        }
    }

    /// Carries the knowledge of the previous refinement round's layer
    /// into this one: witnesses are replayed (re-verified by simulation
    /// against the refined miter, counted separately from fresh
    /// learning), feasible sets adopted directly (refinement only
    /// strengthens the miter, so UNSAT answers persist). Unconditional:
    /// the lookups stay gated by the governor.
    pub(crate) fn carry(&mut self, prev: &EquivClasses) {
        for (x1, x2) in &prev.witnesses {
            if self.absorb_witness(x1, x2) {
                self.stats.witness_replays += 1;
            }
        }
        for f in &prev.feasible {
            self.store_feasible(f);
        }
    }

    fn absorb_witness(&mut self, x1: &[bool], x2: &[bool]) -> bool {
        let added = self.absorb_side(x1, false) | self.absorb_side(x2, true);
        if added && self.witnesses.len() < MAX_CARRIED_WITNESSES {
            let pair = (x1.to_vec(), x2.to_vec());
            if !self.witnesses.contains(&pair) {
                self.witnesses.push(pair);
            }
        }
        added
    }

    fn absorb_side(&mut self, x: &[bool], n_value: bool) -> bool {
        if x.len() != self.x_count {
            return false;
        }
        let side_len = if n_value {
            self.b_sigs.len()
        } else {
            self.a_sigs.len()
        };
        if side_len >= MAX_WITNESS_PATTERNS {
            return false;
        }
        let mut cols: Vec<u64> = x.iter().map(|&b| u64::from(b)).collect();
        cols.push(u64::from(n_value));
        let words = self.miter.simulate(&cols);
        if word_of(&words, self.output) & 1 == 0 {
            return false; // not actually a witness; drop it
        }
        let sig = signature_at(&words, &self.divisor_lits, 0);
        let before = side_len;
        self.store(n_value, sig);
        let after = if n_value {
            self.b_sigs.len()
        } else {
            self.a_sigs.len()
        };
        after > before
    }

    /// The accumulated counters: `Sat` answers replayed from stored
    /// witness pairs, and the class counters (whose
    /// `inherited_answers` are the `Unsat` answers).
    pub(crate) fn stats(&self) -> (u64, ClassesCounters) {
        (self.oracle_hits, self.stats)
    }
}

/// The simulated value of `lit` in a node-word vector produced by
/// [`Aig::simulate`].
fn word_of(words: &[u64], lit: AigLit) -> u64 {
    let w = words[lit.node().index()];
    if lit.is_complement() {
        !w
    } else {
        w
    }
}

/// Packs the divisor values of pattern slot `r` into a bitset.
fn signature_at(words: &[u64], divisor_lits: &[AigLit], r: u32) -> Vec<u64> {
    let mut sig = vec![0u64; divisor_lits.len().div_ceil(64).max(1)];
    for (d, &dl) in divisor_lits.iter().enumerate() {
        if word_of(words, dl) >> r & 1 == 1 {
            sig[d / 64] |= 1u64 << (d % 64);
        }
    }
    sig
}

/// Learn-only observation point for `minimize_assumptions` recursion
/// queries.
///
/// The hook never *answers* a query — the recursion prunes by the
/// solver's final conflict, whose content depends on the learned-clause
/// state every earlier solve left behind, so skipping a solve (even
/// with a semantically correct verdict) would change later conflict
/// sets and the minimized result with them. `learn` runs after every
/// real call so the class layer can refine itself from the verdict and
/// (on `Sat`) the solver's model; the knowledge pays off at the
/// verdict-only inheritance sites instead.
pub(crate) trait MinimizeHook {
    /// Observes the verdict (and model, via `solver`) of a real call.
    fn learn(&mut self, fixed: &[Lit], extra: &[Lit], unsat: bool, solver: &Solver);
}

/// [`MinimizeHook`] over an [`EquivClasses`] layer for the support
/// instance: assumption literals map to divisor indices through the
/// activation-literal table, and real-call verdicts and models feed
/// the class layer as feasible sets / infeasibility witnesses for the
/// verdict-only inheritance sites to use later.
pub(crate) struct SupportClassesHook<'a> {
    pub classes: &'a mut EquivClasses,
    /// Activation literal → divisor index.
    pub aux_index: &'a HashMap<Lit, usize>,
    /// Primary-input literals of the two miter copies, for witness
    /// extraction from `Sat` models.
    pub x1: &'a [Lit],
    pub x2: &'a [Lit],
}

impl MinimizeHook for SupportClassesHook<'_> {
    fn learn(&mut self, fixed: &[Lit], extra: &[Lit], unsat: bool, solver: &Solver) {
        if unsat {
            let indices: Vec<usize> = fixed
                .iter()
                .chain(extra)
                .filter_map(|l| self.aux_index.get(l).copied())
                .collect();
            self.classes.learn_feasible(&indices);
        } else {
            let read = |lits: &[Lit]| -> Vec<bool> {
                lits.iter()
                    .map(|&l| solver.model_value(l).to_option().unwrap_or(false))
                    .collect()
            };
            let (x1, x2) = (read(self.x1), read(self.x2));
            self.classes.learn_witness(&x1, &x2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::EcoProblem;
    use crate::support::support_solver_for;
    use crate::window::compute_window;
    use eco_sat::GovernorLimits;

    #[test]
    fn feasible_set_inheritance_is_superset_monotone() {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let n = g.add_input();
        let ab = g.and(a, b);
        let o = g.or(ab, n);
        g.add_output(o);
        let qm = QuantifiedMiter {
            aig: g.clone(),
            output: o,
            n_input: n,
            x_inputs: vec![a, b],
            impl_map: (0..g.num_nodes())
                .map(|i| NodeId::from_index(i).lit())
                .collect(),
        };
        let divisors: Vec<NodeId> = vec![a.node(), b.node()];
        let unlimited = ResourceGovernor::new(GovernorLimits::default());
        let mut c = EquivClasses::build(&qm, &divisors, 3, unlimited);
        c.learn_feasible(&[0]);
        assert!(c.proves_feasible(&[0, 1]), "superset inherits UNSAT");
        assert!(!c.proves_feasible(&[1]));
        // learning the superset afterwards is subsumed away
        c.learn_feasible(&[0, 1]);
        assert_eq!(c.feasible.len(), 1);
        assert_eq!(c.stats().1.inherited_answers, 1);
    }

    #[test]
    fn witness_store_agrees_with_the_support_solver() {
        // impl: y = a & b (target); spec: y = a | b. Divisors: a, b.
        let mut im = Aig::new();
        let a = im.add_input();
        let b = im.add_input();
        let t = im.and(a, b);
        im.add_output(t);
        let mut sp = Aig::new();
        let a2 = sp.add_input();
        let b2 = sp.add_input();
        let o = sp.or(a2, b2);
        sp.add_output(o);
        let p = EcoProblem::with_unit_weights(im, sp, vec![t.node()]).expect("valid");
        let qm = QuantifiedMiter::build(&p, 0, &[], None);
        let divisors = compute_window(&p).divisors;
        let unlimited = ResourceGovernor::new(GovernorLimits::default());
        let mut classes = EquivClasses::build(&qm, &divisors, 1, unlimited.clone());
        let mut ss = support_solver_for(&p, &qm, &divisors, None, &unlimited);
        // Every subset the store calls infeasible must be Sat for the
        // real instance (soundness).
        for mask in 0u32..1 << divisors.len().min(4) {
            let subset: Vec<usize> = (0..divisors.len())
                .filter(|&i| mask >> i & 1 == 1)
                .collect();
            let feasible = ss.subset_feasible(&subset).expect("no budget");
            if classes.proves_infeasible(&subset) {
                assert!(!feasible, "store claimed infeasible for {subset:?}");
            }
        }
        // The empty subset cannot express a non-constant patch; both
        // sides must agree it is infeasible.
        assert!(!ss.subset_feasible(&[]).expect("no budget"));
        assert!(
            classes.proves_infeasible(&[]),
            "256 random patterns must find an A/B pair for the empty subset"
        );
        assert!(classes.stats().0 >= 1);
    }
}
