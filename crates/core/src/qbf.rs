//! Target-sufficiency check (Sec. 3.2) via CEGAR-based 2QBF solving of
//! expression (1), `∃x ∀n M(n, x)`, with certificate extraction: the
//! counterexample target assignments whose miter copies jointly prove
//! UNSAT are exactly the cofactors needed by the structural multi-target
//! patch construction (Sec. 3.6.2).

use crate::cnf::CnfEncoder;
use crate::miter::EcoMiter;
use crate::observe::{EcoEvent, ObserverHandle, SatCallKind};
use crate::problem::EcoProblem;
use eco_aig::{Aig, AigLit};
use eco_sat::{GovernorLimits, Lit, ResourceGovernor, SolveResult, Solver};

/// Iteration cap for the 2QBF sufficiency check, in the engine and in
/// target detection.
pub(crate) const QBF_MAX_ITERATIONS: usize = 512;

/// Outcome of the 2QBF sufficiency check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QbfOutcome {
    /// Expression (1) is UNSAT: the targets can rectify the design.
    /// `certificates` is a (usually small) set of target assignments
    /// whose cofactor conjunction is already unsatisfiable — a sound
    /// replacement for the full `2^k` cofactor expansion.
    Solvable {
        /// Target assignments (one bool per target, in target order).
        certificates: Vec<Vec<bool>>,
        /// SAT calls spent.
        sat_calls: u64,
    },
    /// Expression (1) is SAT: no patch at the targets can work.
    Unsolvable {
        /// Input assignment on which every target valuation fails.
        witness: Vec<bool>,
    },
    /// Budget exhausted before a verdict.
    Unknown,
}

/// Checks whether the target set is sufficient to solve the ECO
/// problem, per the CEGAR loop:
///
/// 1. Solver A holds miter copies `M(n^j, x)` for collected
///    counterexample assignments `n^j`, all asserted different; a model
///    proposes a candidate witness `x*`.
/// 2. Solver B asks for a target assignment removing the difference at
///    `x*`; finding one refutes the witness and grows A, finding none
///    certifies unsolvability.
///
/// On UNSAT of A, the final conflict identifies which copies were
/// needed — the certificate set.
pub fn check_targets_sufficient(
    problem: &EcoProblem,
    max_iterations: usize,
    per_call_conflicts: Option<u64>,
) -> QbfOutcome {
    check_targets_sufficient_observed(
        problem,
        max_iterations,
        per_call_conflicts,
        &ObserverHandle::default(),
        &ResourceGovernor::new(GovernorLimits::default()),
    )
}

/// [`check_targets_sufficient`] with event emission: each SAT call is
/// reported as [`EcoEvent::SatCall`] of kind [`SatCallKind::Qbf`]
/// (unattributed — sufficiency is shared across targets), and each
/// added counterexample copy as [`EcoEvent::QbfRefinement`].
pub(crate) fn check_targets_sufficient_observed(
    problem: &EcoProblem,
    max_iterations: usize,
    per_call_conflicts: Option<u64>,
    obs: &ObserverHandle,
    governor: &ResourceGovernor,
) -> QbfOutcome {
    let miter = EcoMiter::build(problem, None);
    let num_targets = problem.targets.len();

    // Solver B: one persistent copy of the miter with x and n free.
    let mut solver_b = Solver::new();
    solver_b.set_governor(governor.clone());
    CnfEncoder::reserve_copies(&mut solver_b, &miter.aig, 1);
    let mut enc_b = CnfEncoder::new(&miter.aig);
    let out_b = enc_b.lit(&miter.aig, &mut solver_b, miter.output);
    let x_b: Vec<Lit> = miter
        .x_inputs
        .iter()
        .map(|&l| enc_b.lit(&miter.aig, &mut solver_b, l))
        .collect();
    let n_b: Vec<Lit> = miter
        .target_inputs
        .iter()
        .map(|&l| enc_b.lit(&miter.aig, &mut solver_b, l))
        .collect();

    // Solver A: a growing AIG of constant-cofactored miter copies over
    // shared x inputs; each copy's difference output is an assumption so
    // the final conflict yields the certificate subset.
    let mut acc = Aig::new();
    let acc_inputs: Vec<AigLit> = (0..problem.num_inputs()).map(|_| acc.add_input()).collect();
    let mut solver_a = Solver::new();
    solver_a.set_governor(governor.clone());
    let mut enc_a = CnfEncoder::new(&acc);
    let x_a: Vec<Lit> = acc_inputs
        .iter()
        .map(|&l| enc_a.lit(&acc, &mut solver_a, l))
        .collect();

    let mut assignments: Vec<Vec<bool>> = Vec::new();
    let mut copy_outs: Vec<Lit> = Vec::new();
    let mut sat_calls = 0u64;

    let add_copy = |assignment: &[bool],
                    acc: &mut Aig,
                    solver_a: &mut Solver,
                    enc_a: &mut CnfEncoder,
                    copy_outs: &mut Vec<Lit>| {
        let mut bindings = acc_inputs.clone();
        bindings.extend(
            assignment
                .iter()
                .map(|&v| if v { AigLit::TRUE } else { AigLit::FALSE }),
        );
        let out = acc.import_lit(&miter.aig, &bindings, miter.output);
        copy_outs.push(enc_a.lit(acc, solver_a, out));
    };

    // Seed with the all-false assignment.
    let seed = vec![false; num_targets];
    add_copy(&seed, &mut acc, &mut solver_a, &mut enc_a, &mut copy_outs);
    assignments.push(seed);

    for _ in 0..max_iterations {
        if let Some(c) = per_call_conflicts {
            solver_a.set_budget(Some(c));
        }
        sat_calls += 1;
        match obs.solve(&mut solver_a, &copy_outs, SatCallKind::Qbf, None) {
            SolveResult::Unknown => return QbfOutcome::Unknown,
            SolveResult::Unsat => {
                let core: std::collections::HashSet<Lit> =
                    solver_a.conflict().iter().copied().collect();
                let mut certificates: Vec<Vec<bool>> = assignments
                    .iter()
                    .zip(&copy_outs)
                    .filter(|(_, &o)| core.contains(&o))
                    .map(|(a, _)| a.clone())
                    .collect();
                if certificates.is_empty() {
                    // Degenerate conflict (e.g. the miter is structurally
                    // constant-false): keep the seed as certificate.
                    certificates.push(assignments[0].clone());
                }
                return QbfOutcome::Solvable {
                    certificates,
                    sat_calls,
                };
            }
            SolveResult::Sat => {
                let x_star: Vec<bool> = x_a
                    .iter()
                    .map(|&l| solver_a.model_value(l).to_option().unwrap_or(false))
                    .collect();
                // Ask B for a fixing target assignment at x*.
                let mut assumptions: Vec<Lit> = x_b
                    .iter()
                    .zip(&x_star)
                    .map(|(&l, &v)| if v { l } else { !l })
                    .collect();
                assumptions.push(!out_b);
                if let Some(c) = per_call_conflicts {
                    solver_b.set_budget(Some(c));
                }
                sat_calls += 1;
                match obs.solve(&mut solver_b, &assumptions, SatCallKind::Qbf, None) {
                    SolveResult::Unknown => return QbfOutcome::Unknown,
                    SolveResult::Unsat => {
                        return QbfOutcome::Unsolvable { witness: x_star };
                    }
                    SolveResult::Sat => {
                        let n_star: Vec<bool> = n_b
                            .iter()
                            .map(|&l| solver_b.model_value(l).to_option().unwrap_or(false))
                            .collect();
                        add_copy(&n_star, &mut acc, &mut solver_a, &mut enc_a, &mut copy_outs);
                        assignments.push(n_star);
                        obs.emit(|| EcoEvent::QbfRefinement {
                            copies: copy_outs.len(),
                        });
                    }
                }
            }
        }
    }
    QbfOutcome::Unknown
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_aig::Aig;

    /// impl: y = a & b with the AND as target; spec: y = a | b. Solvable.
    fn solvable_problem() -> EcoProblem {
        let mut im = Aig::new();
        let (a, b) = (im.add_input(), im.add_input());
        let t = im.and(a, b);
        im.add_output(t);
        let t_node = t.node();
        let mut sp = Aig::new();
        let (a, b) = (sp.add_input(), sp.add_input());
        let o = sp.or(a, b);
        sp.add_output(o);
        EcoProblem::with_unit_weights(im, sp, vec![t_node]).expect("valid")
    }

    /// impl: y0 = t, y1 = !t (one target drives both, inconsistently
    /// with a spec wanting y0 = y1 = a). Unsolvable.
    fn unsolvable_problem() -> EcoProblem {
        let mut im = Aig::new();
        let a = im.add_input();
        let b = im.add_input();
        let t = im.and(a, b);
        im.add_output(t);
        im.add_output(!t);
        let t_node = t.node();
        let mut sp = Aig::new();
        let a = sp.add_input();
        let _b = sp.add_input();
        sp.add_output(a);
        sp.add_output(a);
        EcoProblem::with_unit_weights(im, sp, vec![t_node]).expect("valid")
    }

    #[test]
    fn solvable_single_target() {
        match check_targets_sufficient(&solvable_problem(), 64, None) {
            QbfOutcome::Solvable { certificates, .. } => {
                assert!(!certificates.is_empty());
                assert!(certificates.len() <= 2);
            }
            other => panic!("expected solvable, got {other:?}"),
        }
    }

    #[test]
    fn unsolvable_complemented_outputs() {
        match check_targets_sufficient(&unsolvable_problem(), 64, None) {
            QbfOutcome::Unsolvable { witness } => {
                // On the witness, both target values must leave a diff.
                let p = unsolvable_problem();
                let m = EcoMiter::build(&p, None);
                for n in [false, true] {
                    let mut ins = witness.clone();
                    ins.push(n);
                    assert!(m.aig.eval_lit(&ins, m.output), "witness must be universal");
                }
            }
            other => panic!("expected unsolvable, got {other:?}"),
        }
    }

    #[test]
    fn already_equivalent_is_trivially_solvable() {
        let mut im = Aig::new();
        let (a, b) = (im.add_input(), im.add_input());
        let t = im.and(a, b);
        im.add_output(t);
        let t_node = t.node();
        let sp = im.clone();
        let p = EcoProblem::with_unit_weights(im, sp, vec![t_node]).expect("valid");
        match check_targets_sufficient(&p, 64, None) {
            QbfOutcome::Solvable { .. } => {}
            other => panic!("expected solvable, got {other:?}"),
        }
    }

    #[test]
    fn multi_target_certificates_are_subset_of_cube() {
        // Two targets feeding an AND; spec is a ^ c: solvable, and the
        // certificate set must be at most 2^2 assignments.
        let mut im = Aig::new();
        let (a, b, c) = (im.add_input(), im.add_input(), im.add_input());
        let t1 = im.and(a, b);
        let t2 = im.and(b, c);
        let y = im.and(t1, t2);
        im.add_output(y);
        let mut sp = Aig::new();
        let (a, _b, c) = (sp.add_input(), sp.add_input(), sp.add_input());
        let y = sp.xor(a, c);
        sp.add_output(y);
        let p = EcoProblem::with_unit_weights(im, sp, vec![t1.node(), t2.node()]).expect("valid");
        match check_targets_sufficient(&p, 64, None) {
            QbfOutcome::Solvable { certificates, .. } => {
                assert!(!certificates.is_empty() && certificates.len() <= 4);
                for c in &certificates {
                    assert_eq!(c.len(), 2);
                }
            }
            other => panic!("expected solvable, got {other:?}"),
        }
    }

    #[test]
    fn zero_iterations_is_unknown() {
        assert_eq!(
            check_targets_sufficient(&solvable_problem(), 0, None),
            QbfOutcome::Unknown
        );
    }
}
