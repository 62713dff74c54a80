//! SAT-based exact pruning (`SAT_prune`, Sec. 3.4.2): minimum-cost
//! patch support via a second SAT solver that searches divisor subsets,
//! blocking infeasible subsets and cost-bounded regions until UNSAT
//! proves optimality.

use crate::error::EcoError;
use crate::observe::SatCallKind;
use crate::support::{SupportResult, SupportSolver};
use eco_sat::{Lit, PbSum, SolveResult, Solver};

/// Configuration for [`sat_prune_support`].
#[derive(Clone, Copy, Debug)]
pub struct SatPruneOptions {
    /// Cap on candidate subsets examined before giving up on exactness.
    pub max_iterations: usize,
}

impl Default for SatPruneOptions {
    fn default() -> SatPruneOptions {
        SatPruneOptions {
            max_iterations: 2_000,
        }
    }
}

/// Result of the exact pruning search.
#[derive(Clone, Debug)]
pub struct SatPruneResult {
    /// The best support found.
    pub support: SupportResult,
    /// `true` when the search space was exhausted, proving the result
    /// cost-minimum (guaranteed for a single target, per the paper).
    pub exact: bool,
    /// Candidate subsets examined.
    pub iterations: usize,
}

/// Runs the `SAT_prune` search on a prepared [`SupportSolver`].
///
/// `seed` optionally provides a known-feasible support (e.g. from
/// `minimize_assumptions`) used as the initial upper bound.
///
/// The search solver holds one selection variable per divisor plus a
/// binary adder network encoding `Σ cost·s`; each improvement installs
/// a fresh `sum < best` bound under an activation literal, each
/// infeasible subset `S` adds the blocking clause `∨_{d ∉ S} s_d`.
/// Termination at UNSAT proves cost-minimality.
///
/// # Errors
///
/// [`EcoError::SolverBudgetExhausted`] only if no feasible support is
/// known when a budget runs out; otherwise budget exhaustion degrades
/// to an inexact result.
pub fn sat_prune_support(
    support_solver: &mut SupportSolver,
    seed: Option<SupportResult>,
    options: SatPruneOptions,
) -> Result<SatPruneResult, EcoError> {
    let costs = support_solver.costs().to_vec();
    let obs = support_solver.observer().clone();
    let n = costs.len();
    let mut search = Solver::new();
    // The subset-search solver runs under the same governor as the
    // feasibility oracle it drives.
    search.set_governor(support_solver.governor().clone());
    let selection: Vec<Lit> = (0..n).map(|_| search.new_var().positive()).collect();
    for &s in &selection {
        // Prefer small subsets: branch "not selected" first.
        search.set_polarity(s.var(), false);
    }
    let terms: Vec<(Lit, u64)> = selection
        .iter()
        .copied()
        .zip(costs.iter().copied())
        .collect();
    let sum = PbSum::encode(&mut search, &terms);

    let mut best: Option<SupportResult> = seed;
    let mut bound_act: Option<Lit> = None;
    if let Some(b) = &best {
        let act = search.new_var().positive();
        sum.assert_less_under(&mut search, b.cost, act);
        bound_act = Some(act);
    }

    let mut iterations = 0usize;
    let exact = loop {
        if iterations >= options.max_iterations {
            break false;
        }
        iterations += 1;
        let assumptions: Vec<Lit> = bound_act.into_iter().collect();
        match obs.solve(&mut search, &assumptions, SatCallKind::SatPruneSearch, None) {
            SolveResult::Unknown => break false,
            SolveResult::Unsat => break true,
            SolveResult::Sat => {
                let subset: Vec<usize> = (0..n)
                    .filter(|&i| search.model_value(selection[i]).is_true())
                    .collect();
                let feasible = match support_solver.subset_feasible(&subset) {
                    Ok(f) => f,
                    Err(EcoError::SolverBudgetExhausted { .. }) if best.is_some() => {
                        break false;
                    }
                    Err(e) => return Err(e),
                };
                if feasible {
                    let cost: u64 = subset.iter().map(|&i| costs[i]).sum();
                    let better = best.as_ref().is_none_or(|b| cost < b.cost);
                    if better {
                        best = Some(SupportResult {
                            divisor_indices: subset.clone(),
                            cost,
                            sat_calls: support_solver.sat_calls,
                        });
                    }
                    // Tighten: require strictly cheaper solutions. Also
                    // exclude this exact subset so the search moves on even
                    // when the bound encoding is loose.
                    let act = search.new_var().positive();
                    sum.assert_less_under(&mut search, cost, act);
                    bound_act = Some(act);
                    let block: Vec<Lit> = (0..n)
                        .map(|i| {
                            if subset.contains(&i) {
                                !selection[i]
                            } else {
                                selection[i]
                            }
                        })
                        .collect();
                    search.add_clause(&block);
                } else {
                    // Any subset of an infeasible set is infeasible: demand
                    // at least one divisor outside it.
                    let block: Vec<Lit> = (0..n)
                        .filter(|i| !subset.contains(i))
                        .map(|i| selection[i])
                        .collect();
                    if block.is_empty() {
                        // The full set is infeasible: no support exists.
                        break true;
                    }
                    search.add_clause(&block);
                }
            }
        }
    };
    let support = best.ok_or(EcoError::budget_exhausted("SAT_prune"))?;
    let mut support = support;
    support.sat_calls = support_solver.sat_calls;
    Ok(SatPruneResult {
        support,
        exact,
        iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::miter::QuantifiedMiter;
    use crate::problem::EcoProblem;
    use eco_aig::Aig;

    /// impl: t = a & b (target); spec: y = a ^ b. Divisors: a, b, and a
    /// precomputed xor signal with controllable cost.
    fn xor_problem(xor_cost: u64) -> (EcoProblem, Vec<eco_aig::NodeId>, Vec<u64>) {
        let mut im = Aig::new();
        let (a, b) = (im.add_input(), im.add_input());
        let x = im.xor(a, b);
        let t = im.and(a, b);
        im.add_output(t);
        im.add_output(x); // keep the xor cone alive
        let t_node = t.node();
        let mut sp = Aig::new();
        let (a2, b2) = (sp.add_input(), sp.add_input());
        let y = sp.xor(a2, b2);
        sp.add_output(y);
        sp.add_output(y);
        let p = EcoProblem::with_unit_weights(im, sp, vec![t_node]).expect("valid");
        let divisors = vec![a.node(), b.node(), x.node()];
        let costs = vec![3, 3, xor_cost];
        (p, divisors, costs)
    }

    fn run(xor_cost: u64) -> SatPruneResult {
        let (p, divisors, costs) = xor_problem(xor_cost);
        let qm = QuantifiedMiter::build(&p, 0, &[], None);
        let mut ss = SupportSolver::new(&qm, divisors, costs, None);
        assert!(
            ss.all_feasible().expect("no budget"),
            "divisors must suffice"
        );
        sat_prune_support(&mut ss, None, SatPruneOptions::default()).expect("prune")
    }

    #[test]
    fn picks_cheap_single_divisor() {
        // xor divisor costs 1 < 3+3: the minimum support is {xor}.
        let r = run(1);
        assert!(r.exact);
        assert_eq!(r.support.divisor_indices, vec![2]);
        assert_eq!(r.support.cost, 1);
    }

    #[test]
    fn picks_input_pair_when_xor_is_expensive() {
        // xor divisor costs 100 > 3+3: minimum is {a, b}.
        let r = run(100);
        assert!(r.exact);
        assert_eq!(r.support.divisor_indices, vec![0, 1]);
        assert_eq!(r.support.cost, 6);
    }

    #[test]
    fn seed_bound_is_respected_and_improved() {
        let (p, divisors, costs) = xor_problem(1);
        let qm = QuantifiedMiter::build(&p, 0, &[], None);
        let mut ss = SupportSolver::new(&qm, divisors, costs, None);
        assert!(ss.all_feasible().expect("no budget"));
        let seed = SupportResult {
            divisor_indices: vec![0, 1],
            cost: 6,
            sat_calls: 0,
        };
        let r = sat_prune_support(&mut ss, Some(seed), SatPruneOptions::default()).expect("prune");
        assert!(r.exact);
        assert_eq!(r.support.cost, 1);
    }

    #[test]
    fn infeasible_divisor_set_detected() {
        // Only divisor a: cannot express xor patch.
        let (p, divisors, costs) = xor_problem(1);
        let qm = QuantifiedMiter::build(&p, 0, &[], None);
        let mut ss = SupportSolver::new(&qm, vec![divisors[0]], vec![costs[0]], None);
        let err = sat_prune_support(&mut ss, None, SatPruneOptions::default()).unwrap_err();
        assert!(matches!(err, EcoError::SolverBudgetExhausted { .. }));
    }

    #[test]
    fn iteration_cap_degrades_to_inexact() {
        let (p, divisors, costs) = xor_problem(1);
        let qm = QuantifiedMiter::build(&p, 0, &[], None);
        let mut ss = SupportSolver::new(&qm, divisors, costs, None);
        let seed = SupportResult {
            divisor_indices: vec![0, 1],
            cost: 6,
            sat_calls: 0,
        };
        let r = sat_prune_support(&mut ss, Some(seed), SatPruneOptions { max_iterations: 0 })
            .expect("prune returns seed");
        assert!(!r.exact);
        assert_eq!(r.support.cost, 6);
    }
}
