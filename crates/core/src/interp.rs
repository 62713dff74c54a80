//! Proof-based Craig interpolation (McMillan's system): the "general
//! interpolation" patch computation of previous work [15], which the
//! paper's cube enumeration (Sec. 3.5) replaces. Kept here as the
//! comparison baseline for the interpolation-vs-enumeration ablation.
//!
//! The patch instance is expression (3):
//! `[M(0,x1) ∧ R(d,x1)] ∧ [M(1,x2) ∧ R(d,x2)]` with *shared* divisor
//! variables `d`. Partition A is the first conjunct, partition B the
//! second; the interpolant `I(d)` satisfies `A ⇒ I` and `I ∧ B` UNSAT —
//! exactly the patch-function condition of Sec. 2.5.3.

use crate::cnf::CnfEncoder;
use crate::error::EcoError;
use crate::miter::QuantifiedMiter;
use eco_aig::{Aig, AigLit, NodeId};
use eco_sat::{ClauseRef, SolveResult, Solver, Var};
use std::collections::HashMap;

/// Partition tags used in the proof log.
const TAG_A: u8 = 1;
const TAG_B: u8 = 2;

/// Result of the interpolation-based patch computation.
#[derive(Clone, Debug)]
pub struct InterpolantPatch {
    /// The patch circuit; input `i` corresponds to `support[i]` given to
    /// [`interpolation_patch`].
    pub aig: Aig,
    /// SAT conflicts spent on the refutation.
    pub conflicts: u64,
}

/// Computes the patch function for one target as a Craig interpolant of
/// expression (3) over the divisor `support`, from the SAT solver's
/// logged resolution refutation (McMillan's interpolation system).
///
/// Prefer [`crate::enumerate_patch_sop`] in production — this exists to
/// quantify the paper's claim that cube enumeration is faster and
/// yields smaller patches than general interpolation.
///
/// # Errors
///
/// - [`EcoError::NoFeasibleSupport`] if the instance is satisfiable
///   (the support cannot express a patch).
/// - [`EcoError::SolverBudgetExhausted`] under `conflict_budget`.
pub fn interpolation_patch(
    qm: &QuantifiedMiter,
    support: &[NodeId],
    target_index: usize,
    conflict_budget: Option<u64>,
) -> Result<InterpolantPatch, EcoError> {
    let mut solver = Solver::new();
    solver.enable_proof();

    // Shared divisor variables.
    let shared: Vec<Var> = support.iter().map(|_| solver.new_var()).collect();

    // Partition A: copy 1 with n = 0 and the difference asserted.
    let mut enc1 = CnfEncoder::with_tag(&qm.aig, TAG_A);
    let out1 = enc1.lit(&qm.aig, &mut solver, qm.output);
    let n1 = enc1.lit(&qm.aig, &mut solver, qm.n_input);
    solver.add_clause_tagged(&[out1], TAG_A);
    solver.add_clause_tagged(&[!n1], TAG_A);
    for (&d, &s) in support.iter().zip(&shared) {
        let d1 = enc1.lit(&qm.aig, &mut solver, qm.impl_map[d.index()]);
        solver.add_clause_tagged(&[!s.positive(), d1], TAG_A);
        solver.add_clause_tagged(&[s.positive(), !d1], TAG_A);
    }

    // Partition B: copy 2 with n = 1 and the difference asserted.
    let mut enc2 = CnfEncoder::with_tag(&qm.aig, TAG_B);
    let out2 = enc2.lit(&qm.aig, &mut solver, qm.output);
    let n2 = enc2.lit(&qm.aig, &mut solver, qm.n_input);
    solver.add_clause_tagged(&[out2], TAG_B);
    solver.add_clause_tagged(&[n2], TAG_B);
    for (&d, &s) in support.iter().zip(&shared) {
        let d2 = enc2.lit(&qm.aig, &mut solver, qm.impl_map[d.index()]);
        solver.add_clause_tagged(&[!s.positive(), d2], TAG_B);
        solver.add_clause_tagged(&[s.positive(), !d2], TAG_B);
    }

    if let Some(c) = conflict_budget {
        solver.set_budget(Some(c), None);
    }
    match solver.solve(&[]) {
        SolveResult::Sat => return Err(EcoError::NoFeasibleSupport { target_index }),
        SolveResult::Unknown => return Err(EcoError::budget_exhausted("interpolation")),
        SolveResult::Unsat => {}
    }
    let conflicts = solver.stats().conflicts;
    let aig = craig_interpolant(&solver, &shared)?;
    Ok(InterpolantPatch { aig, conflicts })
}

/// Computes the McMillan interpolant of a refuted two-partition CNF.
///
/// Requirements: `solver` was created with
/// [`eco_sat::Solver::enable_proof`], every clause was added with
/// partition tag 1 (A) or 2 (B), the partitions share exactly the
/// variables in `shared`, and the last `solve(&[])` returned UNSAT.
///
/// The result is a single-output AIG whose input `i` is `shared[i]`,
/// satisfying `A ⇒ I` and `I ∧ B ⇒ ⊥` over the shared variables.
///
/// # Errors
///
/// [`EcoError::SolverBudgetExhausted`] when the solver holds no
/// complete refutation (not proven UNSAT, or proof mode off).
pub fn craig_interpolant(solver: &Solver, shared: &[Var]) -> Result<Aig, EcoError> {
    let mut aig = Aig::new();
    let shared_input: HashMap<Var, AigLit> = shared.iter().map(|&v| (v, aig.add_input())).collect();
    let itp = build_interpolant(solver, &shared_input, &mut aig)?;
    aig.add_output(itp);
    Ok(aig)
}

/// Walks the logged refutation and constructs the McMillan interpolant.
fn build_interpolant(
    solver: &Solver,
    shared_input: &HashMap<Var, AigLit>,
    aig: &mut Aig,
) -> Result<AigLit, EcoError> {
    let confl = solver
        .final_conflict_clause()
        .ok_or(EcoError::budget_exhausted("interpolation proof"))?;

    // Variable classification: A-local pivots use OR, everything else
    // (shared or B-local) uses AND. A variable is A-local when it occurs
    // only in A-tagged original clauses.
    // We conservatively classify via occurrence scan over original
    // clauses; shared divisor variables occur in both partitions.
    let num_vars = solver.num_vars();
    let mut occurs_a = vec![false; num_vars];
    let mut occurs_b = vec![false; num_vars];

    // Bottom-up pass over the clause arena (proof mode never frees, so
    // indices are topological for the resolution DAG).
    let num_clauses = solver.proof_arena_len();
    let mut clause_itp: Vec<Option<AigLit>> = vec![None; num_clauses];
    for idx in 0..num_clauses {
        let cref = ClauseRef::from_index(idx);
        if solver.clause_is_learnt(cref) {
            continue;
        }
        let tag = solver.clause_tag(cref);
        for &l in solver.clause_lits(cref) {
            match tag {
                TAG_A => occurs_a[l.var().index()] = true,
                TAG_B => occurs_b[l.var().index()] = true,
                _ => {}
            }
        }
    }
    let is_a_local = |v: Var| occurs_a[v.index()] && !occurs_b[v.index()];

    for idx in 0..num_clauses {
        let cref = ClauseRef::from_index(idx);
        let itp = if !solver.clause_is_learnt(cref) {
            match solver.clause_tag(cref) {
                TAG_A => {
                    // OR of the clause's global (shared-with-B) literals.
                    let mut lits: Vec<AigLit> = Vec::new();
                    for &l in solver.clause_lits(cref) {
                        if occurs_b[l.var().index()] {
                            if let Some(&input) = shared_input.get(&l.var()) {
                                lits.push(input.xor_complement(l.is_negated()));
                            } else {
                                // Global but not a designated shared
                                // variable: can only be a Tseitin variable
                                // reused across partitions, which the
                                // disjoint encoders prevent.
                                debug_assert!(false, "unexpected global variable {:?}", l.var());
                            }
                        }
                    }
                    aig.or_many(&lits)
                }
                TAG_B => AigLit::TRUE,
                tag => {
                    debug_assert!(false, "untagged original clause (tag {tag})");
                    AigLit::TRUE
                }
            }
        } else {
            // Learnt: fold the recorded resolution chain.
            let chain = solver
                .proof_chain(cref)
                .ok_or(EcoError::budget_exhausted("interpolation proof"))?;
            let head = chain
                .head
                .ok_or(EcoError::budget_exhausted("interpolation proof"))?;
            let mut cur = clause_itp[head.index()].expect("antecedent precedes learnt clause");
            for step in &chain.steps {
                let other =
                    clause_itp[step.clause.index()].expect("antecedent precedes learnt clause");
                cur = if is_a_local(step.pivot) {
                    aig.or(cur, other)
                } else {
                    aig.and(cur, other)
                };
            }
            cur
        };
        clause_itp[idx] = Some(itp);
    }

    // Unit derivations along the level-0 trail, in assignment order.
    let mut unit_itp: HashMap<Var, AigLit> = HashMap::new();
    for &lit in solver.trail_level0() {
        let v = lit.var();
        let Some(reason) = solver.var_reason(v) else {
            continue; // decision cannot appear at level 0
        };
        let mut cur = clause_itp[reason.index()].expect("reason clause computed");
        for &l in solver.clause_lits(reason) {
            if l.var() == v {
                continue;
            }
            let other = *unit_itp.get(&l.var()).expect("earlier trail literal");
            cur = if is_a_local(l.var()) {
                aig.or(cur, other)
            } else {
                aig.and(cur, other)
            };
        }
        unit_itp.insert(v, cur);
    }

    // Final resolution of the conflicting clause against the unit
    // derivations of its (all-false) literals.
    let mut cur = clause_itp[confl.index()].expect("conflict clause computed");
    for &l in solver.clause_lits(confl) {
        let other = *unit_itp
            .get(&l.var())
            .ok_or(EcoError::budget_exhausted("interpolation proof"))?;
        cur = if is_a_local(l.var()) {
            aig.or(cur, other)
        } else {
            aig.and(cur, other)
        };
    }
    Ok(cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::EcoProblem;
    use eco_aig::NodePatch;
    use std::collections::HashMap as Map;

    fn check_patch_is_valid(p: &EcoProblem, support: &[NodeId]) -> usize {
        let qm = QuantifiedMiter::build(p, 0, &[], None);
        let r = interpolation_patch(&qm, support, 0, None).expect("interpolate");
        let patch = NodePatch {
            aig: r.aig.clone(),
            support: support.iter().map(|&d| d.lit()).collect(),
        };
        let mut patches = Map::new();
        patches.insert(p.targets[0], patch);
        let patched = p.implementation.substitute(&patches).expect("acyclic");
        assert_eq!(
            crate::cec::check_equivalence(&patched, &p.specification, None),
            crate::cec::CecResult::Equivalent,
            "interpolant must be a valid patch"
        );
        r.aig.num_ands()
    }

    fn simple(wrong_and: bool) -> EcoProblem {
        let mut im = Aig::new();
        let (a, b) = (im.add_input(), im.add_input());
        let t = if wrong_and {
            im.and(a, b)
        } else {
            im.and(a, !b)
        };
        im.add_output(t);
        let t_node = t.node();
        let mut sp = Aig::new();
        let (a, b) = (sp.add_input(), sp.add_input());
        let y = sp.xor(a, b);
        sp.add_output(y);
        EcoProblem::with_unit_weights(im, sp, vec![t_node]).expect("valid")
    }

    #[test]
    fn interpolant_patches_and_to_xor() {
        let p = simple(true);
        let support = vec![p.implementation.inputs()[0], p.implementation.inputs()[1]];
        check_patch_is_valid(&p, &support);
    }

    #[test]
    fn interpolant_patches_andnot_to_xor() {
        let p = simple(false);
        let support = vec![p.implementation.inputs()[0], p.implementation.inputs()[1]];
        check_patch_is_valid(&p, &support);
    }

    #[test]
    fn insufficient_support_is_sat() {
        let p = simple(true);
        let support = vec![p.implementation.inputs()[0]];
        let qm = QuantifiedMiter::build(&p, 0, &[], None);
        let err = interpolation_patch(&qm, &support, 0, None).unwrap_err();
        assert!(matches!(
            err,
            EcoError::NoFeasibleSupport { target_index: 0 }
        ));
    }

    #[test]
    fn interpolant_with_internal_divisor() {
        // wrong t = a & !bc; spec = a ^ bc; support {a, bc}.
        let mut im = Aig::new();
        let (a, b, c) = (im.add_input(), im.add_input(), im.add_input());
        let bc = im.and(b, c);
        let t = im.and(a, !bc);
        im.add_output(t);
        let t_node = t.node();
        let mut sp = Aig::new();
        let (a2, b2, c2) = (sp.add_input(), sp.add_input(), sp.add_input());
        let bc2 = sp.and(b2, c2);
        let y = sp.xor(a2, bc2);
        sp.add_output(y);
        let p = EcoProblem::with_unit_weights(im, sp, vec![t_node]).expect("valid");
        check_patch_is_valid(&p, &[a.node(), bc.node()]);
    }

    #[test]
    fn interpolants_tend_to_be_larger_than_enumerated_sops() {
        // The paper's motivation for cube enumeration: on a parity-like
        // patch, compare gate counts (shape check, not a strict bound on
        // every instance).
        let mut im = Aig::new();
        let ins: Vec<_> = (0..5).map(|_| im.add_input()).collect();
        let t = im.and(ins[0], ins[1]);
        im.add_output(t);
        let t_node = t.node();
        let mut sp = Aig::new();
        let ins2: Vec<_> = (0..5).map(|_| sp.add_input()).collect();
        let mut x = ins2[0];
        for &i in &ins2[1..] {
            x = sp.xor(x, i);
        }
        sp.add_output(x);
        let p = EcoProblem::with_unit_weights(im, sp, vec![t_node]).expect("valid");
        let support: Vec<NodeId> = p.implementation.inputs().to_vec();
        let qm = QuantifiedMiter::build(&p, 0, &[], None);
        let interp = interpolation_patch(&qm, &support, 0, None).expect("interpolate");
        let sop =
            crate::cubes::enumerate_patch_sop(&qm, &support, 0, None, 1 << 12).expect("enumerate");
        let mut sop_aig = Aig::new();
        let sup_lits: Vec<AigLit> = support.iter().map(|_| sop_aig.add_input()).collect();
        let root = eco_aig::factor_sop(&mut sop_aig, &sop.sop, &sup_lits);
        sop_aig.add_output(root);
        // Both are valid patches; report sizes for the record.
        assert!(interp.aig.num_ands() > 0);
        assert!(sop_aig.num_ands() > 0);
    }
}
