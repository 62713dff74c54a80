//! Combinational equivalence checking (CEC) of two AIGs via a SAT
//! miter — used for the target-sufficiency check and the final patch
//! verification.

use crate::cnf::CnfEncoder;
use crate::observe::{ObserverHandle, SatCallKind};
use eco_aig::Aig;
use eco_sat::{GovernorLimits, Lit, ResourceGovernor, SolveResult, Solver};

/// Outcome of an equivalence check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CecResult {
    /// The two circuits agree on every input.
    Equivalent,
    /// A distinguishing input assignment was found.
    Counterexample(Vec<bool>),
    /// The SAT budget ran out before a verdict.
    Unknown,
}

/// Checks combinational equivalence of `a` and `b` output-by-output
/// under a shared input space.
///
/// `conflict_budget` bounds the total SAT effort (`None` = unlimited).
///
/// # Panics
///
/// Panics if the circuits have different input or output counts.
///
/// # Examples
///
/// ```
/// use eco_aig::Aig;
/// use eco_core::{check_equivalence, CecResult};
///
/// let mut f = Aig::new();
/// let a = f.add_input();
/// let b = f.add_input();
/// let o = f.or(a, b);
/// f.add_output(o);
///
/// let mut g = Aig::new();
/// let a = g.add_input();
/// let b = g.add_input();
/// let o = !g.and(!a, !b); // De Morgan
/// g.add_output(o);
///
/// assert_eq!(check_equivalence(&f, &g, None), CecResult::Equivalent);
/// ```
pub fn check_equivalence(a: &Aig, b: &Aig, conflict_budget: Option<u64>) -> CecResult {
    check_outputs_equivalence_observed(
        a,
        b,
        None,
        conflict_budget,
        &ObserverHandle::default(),
        &ResourceGovernor::new(GovernorLimits::default()),
    )
}

/// Equivalence of `a` and `b` restricted to `outputs` (`None` = all
/// outputs) — the sweep primitive behind the engine's incremental
/// verification. The CNF encoding is lazy, so only the cones of the
/// selected outputs reach the solver even though both AIGs are imported
/// in full. The SAT call (if the miter is not discharged structurally)
/// reports as [`SatCallKind::Cec`], unattributed.
pub(crate) fn check_outputs_equivalence_observed(
    a: &Aig,
    b: &Aig,
    outputs: Option<&[usize]>,
    conflict_budget: Option<u64>,
    obs: &ObserverHandle,
    governor: &ResourceGovernor,
) -> CecResult {
    assert_eq!(a.num_inputs(), b.num_inputs(), "input count mismatch");
    assert_eq!(a.num_outputs(), b.num_outputs(), "output count mismatch");
    // Build the miter in a fresh AIG so structural hashing can prove
    // identical cones equivalent for free.
    let mut miter = Aig::new();
    miter.reserve(a.num_ands() + b.num_ands());
    let inputs: Vec<_> = (0..a.num_inputs()).map(|_| miter.add_input()).collect();
    let outs_a = miter.import(a, &inputs);
    let outs_b = miter.import(b, &inputs);
    let indices: Vec<usize> = match outputs {
        Some(idx) => idx.to_vec(),
        None => (0..a.num_outputs()).collect(),
    };
    let diffs: Vec<_> = indices
        .iter()
        .map(|&i| miter.xor(outs_a[i], outs_b[i]))
        .collect();
    let any_diff = miter.or_many(&diffs);
    if any_diff == eco_aig::AigLit::FALSE {
        return CecResult::Equivalent;
    }
    let mut solver = Solver::new();
    solver.set_governor(governor.clone());
    if let Some(budget) = conflict_budget {
        solver.set_budget(Some(budget));
    }
    let mut enc = CnfEncoder::new(&miter);
    let out_lit = enc.lit(&miter, &mut solver, any_diff);
    let in_lits: Vec<Lit> = inputs
        .iter()
        .map(|&i| enc.lit(&miter, &mut solver, i))
        .collect();
    match obs.solve(&mut solver, &[out_lit], SatCallKind::Cec, None) {
        SolveResult::Unsat => CecResult::Equivalent,
        SolveResult::Sat => {
            let cex = in_lits
                .iter()
                .map(|&l| solver.model_value(l).to_option().unwrap_or(false))
                .collect();
            CecResult::Counterexample(cex)
        }
        SolveResult::Unknown => CecResult::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adder_pair() -> (Aig, Aig) {
        // Two structurally different 3-input majority implementations.
        let mut f = Aig::new();
        let (a, b, c) = (f.add_input(), f.add_input(), f.add_input());
        let ab = f.and(a, b);
        let ac = f.and(a, c);
        let bc = f.and(b, c);
        let t = f.or(ab, ac);
        let maj = f.or(t, bc);
        f.add_output(maj);

        let mut g = Aig::new();
        let (a, b, c) = (g.add_input(), g.add_input(), g.add_input());
        // maj = (a & (b | c)) | (b & c)
        let bc_or = g.or(b, c);
        let abc = g.and(a, bc_or);
        let bc = g.and(b, c);
        let maj = g.or(abc, bc);
        g.add_output(maj);
        (f, g)
    }

    #[test]
    fn equivalent_majority_circuits() {
        let (f, g) = adder_pair();
        assert_eq!(check_equivalence(&f, &g, None), CecResult::Equivalent);
    }

    #[test]
    fn counterexample_is_a_real_difference() {
        let (f, mut g) = adder_pair();
        // Corrupt g: flip its output.
        let o = g.outputs()[0];
        g.set_output(0, !o);
        match check_equivalence(&f, &g, None) {
            CecResult::Counterexample(cex) => {
                assert_ne!(f.eval(&cex), g.eval(&cex), "cex must distinguish");
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn structurally_identical_short_circuits() {
        let (f, _) = adder_pair();
        // Equivalence with itself should be resolved structurally (no SAT
        // conflicts needed: budget of 0 still answers).
        assert_eq!(check_equivalence(&f, &f, Some(0)), CecResult::Equivalent);
    }

    #[test]
    fn multi_output_difference_found() {
        let mut f = Aig::new();
        let a = f.add_input();
        f.add_output(a);
        f.add_output(!a);
        let mut g = Aig::new();
        let a = g.add_input();
        g.add_output(a);
        g.add_output(a); // differs on output 1
        match check_equivalence(&f, &g, None) {
            CecResult::Counterexample(cex) => {
                assert_eq!(cex.len(), 1);
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn output_restricted_sweep_ignores_other_outputs() {
        let mut f = Aig::new();
        let a = f.add_input();
        f.add_output(a);
        f.add_output(!a);
        let mut g = Aig::new();
        let a = g.add_input();
        g.add_output(a);
        g.add_output(a); // differs on output 1 only
        let obs = ObserverHandle::default();
        let gov = ResourceGovernor::new(GovernorLimits::default());
        assert_eq!(
            check_outputs_equivalence_observed(&f, &g, Some(&[0]), None, &obs, &gov),
            CecResult::Equivalent
        );
        assert!(matches!(
            check_outputs_equivalence_observed(&f, &g, Some(&[1]), None, &obs, &gov),
            CecResult::Counterexample(_)
        ));
        assert_eq!(
            check_outputs_equivalence_observed(&f, &g, Some(&[]), None, &obs, &gov),
            CecResult::Equivalent,
            "an empty sweep is vacuously equivalent"
        );
    }

    #[test]
    #[should_panic(expected = "input count mismatch")]
    fn mismatched_interfaces_panic() {
        let mut f = Aig::new();
        f.add_input();
        let g = Aig::new();
        let _ = check_equivalence(&f, &g, None);
    }
}
