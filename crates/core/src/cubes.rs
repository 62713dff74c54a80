//! Patch function computation by cube enumeration (Sec. 3.5): derive an
//! irredundant prime SOP over the chosen divisors from the extended
//! miter, instead of computing a general interpolant.

use crate::cnf::CnfEncoder;
use crate::error::EcoError;
use crate::miter::QuantifiedMiter;
use crate::observe::{ObserverHandle, SatCallKind};
use crate::support::minimize_assumptions_observed;
use eco_aig::{Cube, CubeLit, NodeId, Sop};
use eco_sat::{GovernorLimits, Lit, ResourceGovernor, SolveResult, Solver};

/// Result of the cube-enumeration patch computation.
#[derive(Clone, Debug)]
pub struct PatchSop {
    /// Prime, irredundant onset cover of the patch over the support
    /// divisors (variable `i` = `support[i]`).
    pub sop: Sop,
    /// Number of onset satisfying assignments enumerated.
    pub minterms: u64,
    /// SAT calls spent (enumeration plus expansion).
    pub sat_calls: u64,
}

/// Enumerates the patch function for the quantified miter over the
/// divisor `support` (Sec. 3.5):
///
/// 1. Get a satisfying assignment with `n = 0` and the miter output
///    asserted (an onset point of the patch in divisor space).
/// 2. Assert the divisor literals at their satisfying values under
///    `n = 1`: the expected UNSAT certifies the cube avoids the offset;
///    `minimize_assumptions` shrinks it to a prime cube.
/// 3. Block the cube for the `n = 0` enumeration and repeat until the
///    onset is exhausted.
///
/// Requires that `support` is a feasible patch support (expression (2)
/// is UNSAT under it) — otherwise step 2 can fail, which is reported as
/// [`EcoError::NoFeasibleSupport`] for `target_index`.
///
/// # Errors
///
/// - [`EcoError::SolverBudgetExhausted`] under `per_call_conflicts`.
/// - [`EcoError::NoFeasibleSupport`] if the support turns out to be
///   insufficient (internal inconsistency).
pub fn enumerate_patch_sop(
    qm: &QuantifiedMiter,
    support: &[NodeId],
    target_index: usize,
    per_call_conflicts: Option<u64>,
    max_cubes: usize,
) -> Result<PatchSop, EcoError> {
    let mut calls = 0u64;
    enumerate_patch_sop_observed(
        qm,
        support,
        target_index,
        per_call_conflicts,
        max_cubes,
        &ObserverHandle::default(),
        &mut calls,
        &ResourceGovernor::new(GovernorLimits::default()),
    )
}

/// [`enumerate_patch_sop`] with event emission: enumeration and
/// disjointness queries report as [`SatCallKind::CubeEnumeration`], the
/// prime-expansion shrink calls as [`SatCallKind::Minimize`], all
/// attributed to `target_index`. `calls` is incremented eagerly so the
/// caller's tally stays exact across budget aborts.
///
/// Deliberately outside the test-equivalence-class layer: prime
/// expansion prunes by the solver's final conflict, so inheriting even
/// a correct `Sat` verdict here would perturb later conflict sets and
/// change the enumerated cubes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn enumerate_patch_sop_observed(
    qm: &QuantifiedMiter,
    support: &[NodeId],
    target_index: usize,
    per_call_conflicts: Option<u64>,
    max_cubes: usize,
    obs: &ObserverHandle,
    calls: &mut u64,
    governor: &ResourceGovernor,
) -> Result<PatchSop, EcoError> {
    let start_calls = *calls;
    let mut solver = Solver::new();
    solver.set_governor(governor.clone());
    CnfEncoder::reserve_copies(&mut solver, &qm.aig, 1);
    let mut enc = CnfEncoder::new(&qm.aig);
    let out = enc.lit(&qm.aig, &mut solver, qm.output);
    let n = enc.lit(&qm.aig, &mut solver, qm.n_input);
    let d_lits: Vec<Lit> = support
        .iter()
        .map(|&d| enc.lit(&qm.aig, &mut solver, qm.impl_map[d.index()]))
        .collect();
    let mut sop = Sop::zero(support.len());
    let mut minterms = 0u64;
    let onset_base = [out, !n];
    let offset_base = vec![out, n];

    loop {
        if sop.len() > max_cubes {
            return Err(EcoError::budget_exhausted("cube enumeration"));
        }
        if let Some(c) = per_call_conflicts {
            solver.set_budget(Some(c));
        }
        *calls += 1;
        match obs.solve(
            &mut solver,
            &onset_base,
            SatCallKind::CubeEnumeration,
            Some(target_index),
        ) {
            SolveResult::Unsat => break,
            SolveResult::Unknown => return Err(EcoError::budget_exhausted("cube enumeration")),
            SolveResult::Sat => {
                minterms += 1;
                // Divisor literals at their satisfying values.
                let mut lits: Vec<Lit> = d_lits
                    .iter()
                    .map(|&l| {
                        if solver.model_value(l).is_true() {
                            l
                        } else {
                            !l
                        }
                    })
                    .collect();
                // The full minterm must be disjoint from the offset.
                if let Some(c) = per_call_conflicts {
                    solver.set_budget(Some(c));
                }
                *calls += 1;
                let mut check = offset_base.clone();
                check.extend_from_slice(&lits);
                match obs.solve(
                    &mut solver,
                    &check,
                    SatCallKind::CubeEnumeration,
                    Some(target_index),
                ) {
                    SolveResult::Sat => return Err(EcoError::NoFeasibleSupport { target_index }),
                    SolveResult::Unknown => {
                        return Err(EcoError::budget_exhausted("cube expansion"))
                    }
                    SolveResult::Unsat => {}
                }
                // Expand to a prime cube: minimal literal subset still
                // avoiding the offset.
                if let Some(c) = per_call_conflicts {
                    solver.set_budget(Some(c.saturating_mul(32)));
                }
                let kept = minimize_assumptions_observed(
                    &mut solver,
                    &offset_base,
                    &mut lits,
                    obs,
                    SatCallKind::Minimize,
                    Some(target_index),
                    calls,
                    None,
                )?;
                let cube_lits: Vec<CubeLit> = lits[..kept]
                    .iter()
                    .map(|&l| {
                        let di = d_lits
                            .iter()
                            .position(|&d| d.var() == l.var())
                            .expect("literal belongs to the support");
                        // The cube literal is positive when the divisor was
                        // true in the onset point.
                        CubeLit::new(di as u32, l != d_lits[di])
                    })
                    .collect();
                // Block the cube in the onset: (n ∨ ¬cube).
                let mut block: Vec<Lit> = lits[..kept].iter().map(|&l| !l).collect();
                block.push(n);
                solver.add_clause(&block);
                sop.push(Cube::new(cube_lits));
            }
        }
    }
    Ok(PatchSop {
        sop,
        minterms,
        sat_calls: *calls - start_calls,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::EcoProblem;
    use eco_aig::{factor_sop, Aig, AigLit};

    /// Builds a problem where the implementation's target computes
    /// `wrong` and the specification computes `right`, both over the
    /// same three inputs, with side logic available as divisors.
    fn simple_problem(
        wrong: fn(&mut Aig, AigLit, AigLit, AigLit) -> AigLit,
        right: fn(&mut Aig, AigLit, AigLit, AigLit) -> AigLit,
    ) -> EcoProblem {
        let mut im = Aig::new();
        let (a, b, c) = (im.add_input(), im.add_input(), im.add_input());
        let t = wrong(&mut im, a, b, c);
        im.add_output(t);
        let t_node = t.node();
        let mut sp = Aig::new();
        let (a, b, c) = (sp.add_input(), sp.add_input(), sp.add_input());
        let o = right(&mut sp, a, b, c);
        sp.add_output(o);
        EcoProblem::with_unit_weights(im, sp, vec![t_node]).expect("valid")
    }

    /// Enumerates the patch over the given support and checks that
    /// substituting it makes the onset/offset behaviour correct on all
    /// inputs.
    fn check_patch(p: &EcoProblem, support: &[NodeId]) -> Sop {
        let qm = crate::miter::QuantifiedMiter::build(p, 0, &[], None);
        let result = enumerate_patch_sop(&qm, support, 0, None, 1 << 16).expect("enumerate");
        // Build the patch AIG and substitute.
        let mut patch_aig = Aig::new();
        let sup_lits: Vec<AigLit> = support.iter().map(|_| patch_aig.add_input()).collect();
        let root = factor_sop(&mut patch_aig, &result.sop, &sup_lits);
        patch_aig.add_output(root);
        let patch = eco_aig::NodePatch {
            aig: patch_aig,
            support: support.iter().map(|&d| d.lit()).collect(),
        };
        let mut patches = std::collections::HashMap::new();
        patches.insert(p.targets[0], patch);
        let patched = p.implementation.substitute(&patches).expect("acyclic");
        assert_eq!(
            crate::cec::check_equivalence(&patched, &p.specification, None),
            crate::cec::CecResult::Equivalent,
            "patched implementation must match the spec; sop = {:?}",
            result.sop
        );
        result.sop
    }

    #[test]
    fn and_to_or_patch_over_inputs() {
        let p = simple_problem(|g, a, b, _| g.and(a, b), |g, a, b, _| g.or(a, b));
        let support = vec![p.implementation.inputs()[0], p.implementation.inputs()[1]];
        let sop = check_patch(&p, &support);
        // The patch is exactly OR: two single-literal cubes.
        assert_eq!(sop.len(), 2);
        assert!(sop.cubes().iter().all(|c| c.len() == 1));
    }

    #[test]
    fn xor_patch_needs_two_literal_cubes() {
        let p = simple_problem(|g, a, b, _| g.and(a, b), |g, a, b, _| g.xor(a, b));
        let support = vec![p.implementation.inputs()[0], p.implementation.inputs()[1]];
        let sop = check_patch(&p, &support);
        assert_eq!(sop.len(), 2);
        assert!(sop.cubes().iter().all(|c| c.len() == 2));
    }

    #[test]
    fn constant_patch_when_spec_forces_one() {
        // Spec output is constant true: the patch is the constant-1 cover.
        let mut im = Aig::new();
        let (a, b, _c) = (im.add_input(), im.add_input(), im.add_input());
        let t = im.and(a, b);
        im.add_output(t);
        let t_node = t.node();
        let mut sp = Aig::new();
        let (_a, _b, _c) = (sp.add_input(), sp.add_input(), sp.add_input());
        sp.add_output(AigLit::TRUE);
        let p2 = EcoProblem::with_unit_weights(im, sp, vec![t_node]).expect("valid");
        let qm = crate::miter::QuantifiedMiter::build(&p2, 0, &[], None);
        let result = enumerate_patch_sop(&qm, &[], 0, None, 64).expect("enumerate");
        // With empty support the patch must be the constant-1 cover (one
        // empty cube) because every input needs fixing to 1.
        assert_eq!(result.sop.len(), 1);
        assert!(result.sop.cubes()[0].is_empty());
    }

    #[test]
    fn constant_zero_patch_has_empty_sop() {
        // Implementation already equals spec: onset empty.
        let mut im = Aig::new();
        let (a, b) = (im.add_input(), im.add_input());
        let t = im.and(a, b);
        im.add_output(t);
        let t_node = t.node();
        let sp = im.clone();
        let p = EcoProblem::with_unit_weights(im, sp, vec![t_node]).expect("valid");
        let qm = crate::miter::QuantifiedMiter::build(&p, 0, &[], None);
        // Even with no divisors: the patch "always 0"... here n=0 gives
        // difference whenever a&b=1, so the onset over an EMPTY support
        // would be a tautology cube — supply the inputs as support.
        let support = vec![p.implementation.inputs()[0], p.implementation.inputs()[1]];
        let result = enumerate_patch_sop(&qm, &support, 0, None, 64).expect("enumerate");
        // Patch must be exactly a&b: one two-literal cube.
        assert_eq!(result.sop.len(), 1);
        assert_eq!(result.sop.cubes()[0].len(), 2);
    }

    #[test]
    fn insufficient_support_is_reported() {
        // Patch for xor cannot be expressed over input a alone.
        let p = simple_problem(|g, a, b, _| g.and(a, b), |g, a, b, _| g.xor(a, b));
        let support = vec![p.implementation.inputs()[0]];
        let qm = crate::miter::QuantifiedMiter::build(&p, 0, &[], None);
        let err = enumerate_patch_sop(&qm, &support, 0, None, 64).unwrap_err();
        assert!(matches!(
            err,
            EcoError::NoFeasibleSupport { target_index: 0 }
        ));
    }

    #[test]
    fn internal_divisors_shrink_cubes() {
        // wrong t = a & !bc; right output = a ^ bc; divisor bc is an
        // internal implementation node.
        let mut im = Aig::new();
        let (a, b, c) = (im.add_input(), im.add_input(), im.add_input());
        let bc = im.and(b, c);
        let t = im.and(a, !bc);
        im.add_output(t);
        let t_node = t.node();
        let mut sp = Aig::new();
        let (a, b, c) = (sp.add_input(), sp.add_input(), sp.add_input());
        let bc = sp.and(b, c);
        let o = sp.xor(a, bc);
        sp.add_output(o);
        let p = EcoProblem::with_unit_weights(im, sp, vec![t_node]).expect("valid");
        let support = vec![a.node(), bc.node()];
        let qm = crate::miter::QuantifiedMiter::build(&p, 0, &[], None);
        let result = enumerate_patch_sop(&qm, &support, 0, None, 64).expect("enumerate");
        // xor over {a, bc}: two cubes of two literals.
        assert_eq!(result.sop.len(), 2);
        assert!(result.sop.cubes().iter().all(|c| c.len() == 2));
    }
}
