//! ECO miter construction (Fig. 1 of the paper) and its universally
//! quantified variants for multi-target processing (Sec. 3.1).

use crate::problem::EcoProblem;
use eco_aig::{Aig, AigLit, AigNode, NodeId};
use std::collections::HashMap;

/// Maps the implementation into `miter`, binding primary inputs to
/// `x_inputs` and target nodes per `bindings`. Returns the literal each
/// implementation node computes inside the miter.
fn map_implementation(
    miter: &mut Aig,
    implementation: &Aig,
    x_inputs: &[AigLit],
    bindings: &HashMap<NodeId, AigLit>,
) -> Vec<AigLit> {
    let mut map: Vec<AigLit> = Vec::with_capacity(implementation.num_nodes());
    for id in implementation.iter_nodes() {
        let lit = if let Some(&b) = bindings.get(&id) {
            b
        } else {
            match implementation.node(id) {
                AigNode::Const0 => AigLit::FALSE,
                AigNode::Input { index } => x_inputs[index as usize],
                AigNode::And { f0, f1 } => {
                    let a = map[f0.node().index()].xor_complement(f0.is_complement());
                    let b = map[f1.node().index()].xor_complement(f1.is_complement());
                    miter.and(a, b)
                }
            }
        };
        map.push(lit);
    }
    map
}

/// The basic ECO miter `M(n, x)`: the implementation with every target
/// exposed as a fresh free input, compared against the specification.
///
/// Input order of [`EcoMiter::aig`]: the `x` inputs first, then one
/// input per target (in the problem's target order).
#[derive(Clone, Debug)]
pub(crate) struct EcoMiter {
    /// The miter circuit.
    pub aig: Aig,
    /// `1` iff the (free-target) implementation differs from the
    /// specification on some compared output.
    pub output: AigLit,
    /// Literals of the shared primary inputs.
    pub x_inputs: Vec<AigLit>,
    /// Literals of the free target inputs, in target order.
    pub target_inputs: Vec<AigLit>,
}

impl EcoMiter {
    /// Builds the miter over the given output indices (`None` compares
    /// all outputs).
    pub fn build(problem: &EcoProblem, output_indices: Option<&[usize]>) -> EcoMiter {
        let mut aig = Aig::new();
        aig.reserve(problem.implementation.num_ands() + problem.specification.num_ands());
        let x_inputs: Vec<AigLit> = (0..problem.num_inputs()).map(|_| aig.add_input()).collect();
        let target_inputs: Vec<AigLit> = problem.targets.iter().map(|_| aig.add_input()).collect();
        let bindings: HashMap<NodeId, AigLit> = problem
            .targets
            .iter()
            .copied()
            .zip(target_inputs.iter().copied())
            .collect();
        let impl_map = map_implementation(&mut aig, &problem.implementation, &x_inputs, &bindings);
        let spec_outs = aig.import(&problem.specification, &x_inputs);
        let indices: Vec<usize> = match output_indices {
            Some(idx) => idx.to_vec(),
            None => (0..problem.num_outputs()).collect(),
        };
        let diffs: Vec<AigLit> = indices
            .iter()
            .map(|&i| {
                let o = problem.implementation.outputs()[i];
                let impl_lit = impl_map[o.node().index()].xor_complement(o.is_complement());
                aig.xor(impl_lit, spec_outs[i])
            })
            .collect();
        let output = aig.or_many(&diffs);
        EcoMiter {
            aig,
            output,
            x_inputs,
            target_inputs,
        }
    }
}

/// The single-target miter `M_i(n_i, x)` with the remaining targets
/// universally quantified over an explicit set of assignments:
/// `M_i = ∧_{a ∈ assignments} M(n_i, a, x)` (Sec. 3.1).
///
/// With `assignments` covering all `2^(k-1)` values this is the exact
/// quantification; with a subset (e.g. QBF certificates, Sec. 3.6.2) it
/// is a sound over-approximation — any patch valid for it is valid for
/// the exact miter.
#[derive(Clone, Debug)]
pub struct QuantifiedMiter {
    /// The quantified miter circuit. Inputs: `x` first, then `n`.
    pub aig: Aig,
    /// `∧` over the assignment copies of the per-copy difference.
    pub output: AigLit,
    /// Literals of the shared primary inputs.
    pub x_inputs: Vec<AigLit>,
    /// The free input for the current target.
    pub n_input: AigLit,
    /// Miter literal per implementation node, from the first copy.
    /// Only meaningful for candidate divisors (nodes outside the TFO of
    /// every target), whose function is copy-independent.
    pub impl_map: Vec<AigLit>,
}

impl QuantifiedMiter {
    /// Builds the quantified miter for `problem.targets[target_index]`.
    ///
    /// Each entry of `assignments` gives constants for the *other*
    /// targets, ordered as the target list with `target_index` skipped.
    /// An empty slice is treated as the single empty assignment (the
    /// single-target case).
    ///
    /// # Panics
    ///
    /// Panics if `target_index` is out of range or an assignment has the
    /// wrong arity.
    pub fn build(
        problem: &EcoProblem,
        target_index: usize,
        assignments: &[Vec<bool>],
        output_indices: Option<&[usize]>,
    ) -> QuantifiedMiter {
        assert!(
            target_index < problem.targets.len(),
            "target index out of range"
        );
        let others: Vec<NodeId> = problem
            .targets
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != target_index)
            .map(|(_, &t)| t)
            .collect();
        let empty: Vec<Vec<bool>> = vec![vec![]];
        let assignments: &[Vec<bool>] = if assignments.is_empty() {
            &empty
        } else {
            assignments
        };
        let mut aig = Aig::new();
        // Room for the specification and one implementation copy; later
        // copies fold constants and may stay much smaller.
        aig.reserve(problem.specification.num_ands() + problem.implementation.num_ands());
        let x_inputs: Vec<AigLit> = (0..problem.num_inputs()).map(|_| aig.add_input()).collect();
        let n_input = aig.add_input();
        let spec_outs = aig.import(&problem.specification, &x_inputs);
        let indices: Vec<usize> = match output_indices {
            Some(idx) => idx.to_vec(),
            None => (0..problem.num_outputs()).collect(),
        };
        let mut copy_diffs: Vec<AigLit> = Vec::with_capacity(assignments.len());
        let mut first_map: Option<Vec<AigLit>> = None;
        for assignment in assignments {
            assert_eq!(assignment.len(), others.len(), "assignment arity mismatch");
            let mut bindings: HashMap<NodeId, AigLit> = HashMap::new();
            bindings.insert(problem.targets[target_index], n_input);
            for (&t, &v) in others.iter().zip(assignment) {
                bindings.insert(t, if v { AigLit::TRUE } else { AigLit::FALSE });
            }
            let map = map_implementation(&mut aig, &problem.implementation, &x_inputs, &bindings);
            let diffs: Vec<AigLit> = indices
                .iter()
                .map(|&i| {
                    let o = problem.implementation.outputs()[i];
                    let impl_lit = map[o.node().index()].xor_complement(o.is_complement());
                    aig.xor(impl_lit, spec_outs[i])
                })
                .collect();
            copy_diffs.push(aig.or_many(&diffs));
            if first_map.is_none() {
                first_map = Some(map);
            }
        }
        let output = aig.and_many(&copy_diffs);
        QuantifiedMiter {
            aig,
            output,
            x_inputs,
            n_input,
            impl_map: first_map.expect("at least one copy"),
        }
    }

    /// The circuit cofactor `M_i(value, x)` as a standalone AIG over the
    /// `x` inputs — the structural patch of Sec. 3.6.1 when
    /// `value == false`.
    pub fn cofactor(&self, value: bool) -> Aig {
        let mut out = Aig::new();
        let mut bindings: Vec<AigLit> = (0..self.x_inputs.len()).map(|_| out.add_input()).collect();
        bindings.push(if value { AigLit::TRUE } else { AigLit::FALSE });
        let lit = out.import_lit(&self.aig, &bindings, self.output);
        out.add_output(lit);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// impl: y = a & b (target = the AND); spec: y = a | b.
    fn and_vs_or() -> EcoProblem {
        let mut im = Aig::new();
        let a = im.add_input();
        let b = im.add_input();
        let x = im.and(a, b);
        im.add_output(x);
        let t = x.node();
        let mut sp = Aig::new();
        let a = sp.add_input();
        let b = sp.add_input();
        let o = sp.or(a, b);
        sp.add_output(o);
        EcoProblem::with_unit_weights(im, sp, vec![t]).expect("valid")
    }

    #[test]
    fn miter_detects_differences_per_target_value() {
        let p = and_vs_or();
        let m = EcoMiter::build(&p, None);
        // inputs: [a, b, n]
        // spec(a,b) = a|b; impl with target free = n.
        for mask in 0..8u32 {
            let a = mask & 1 == 1;
            let b = mask >> 1 & 1 == 1;
            let n = mask >> 2 & 1 == 1;
            let spec = a || b;
            let differs = n != spec;
            assert_eq!(
                m.aig.eval_lit(&[a, b, n], m.output),
                differs,
                "a={a} b={b} n={n}"
            );
        }
    }

    #[test]
    fn quantified_single_target_equals_plain_miter() {
        let p = and_vs_or();
        let q = QuantifiedMiter::build(&p, 0, &[], None);
        for mask in 0..8u32 {
            let a = mask & 1 == 1;
            let b = mask >> 1 & 1 == 1;
            let n = mask >> 2 & 1 == 1;
            let differs = n != (a || b);
            assert_eq!(q.aig.eval_lit(&[a, b, n], q.output), differs);
        }
    }

    #[test]
    fn cofactor_is_structural_patch() {
        let p = and_vs_or();
        let q = QuantifiedMiter::build(&p, 0, &[], None);
        // M(0, x): difference when target forced 0 = spec(a,b) != 0 = a|b.
        let m0 = q.cofactor(false);
        // M(1, x): difference when target forced 1 = !(a|b).
        let m1 = q.cofactor(true);
        for mask in 0..4u32 {
            let a = mask & 1 == 1;
            let b = mask >> 1 & 1 == 1;
            assert_eq!(m0.eval(&[a, b]), vec![a || b]);
            assert_eq!(m1.eval(&[a, b]), vec![!(a || b)]);
        }
    }

    /// Two targets: impl y = t1 & t2 where t1 = a&b, t2 = b&c;
    /// spec y = a ^ c.
    fn two_target_problem() -> EcoProblem {
        let mut im = Aig::new();
        let a = im.add_input();
        let b = im.add_input();
        let c = im.add_input();
        let t1 = im.and(a, b);
        let t2 = im.and(b, c);
        let y = im.and(t1, t2);
        im.add_output(y);
        let mut sp = Aig::new();
        let a = sp.add_input();
        let _b = sp.add_input();
        let c = sp.add_input();
        let y = sp.xor(a, c);
        sp.add_output(y);
        EcoProblem::with_unit_weights(im, sp, vec![t1.node(), t2.node()]).expect("valid")
    }

    #[test]
    fn quantified_miter_conjoins_assignments() {
        let p = two_target_problem();
        // Quantify target 1 (t2) over both values while t1 is the free n.
        let q = QuantifiedMiter::build(&p, 0, &[vec![false], vec![true]], None);
        // M_0(n, x) = AND over t2 in {0,1} of [ (n & t2) != (a ^ c) ].
        for mask in 0..16u32 {
            let a = mask & 1 == 1;
            let b = mask >> 1 & 1 == 1;
            let c = mask >> 2 & 1 == 1;
            let n = mask >> 3 & 1 == 1;
            let spec = a ^ c;
            let expect = ((n & false) != spec) && ((n & true) != spec);
            assert_eq!(
                q.aig.eval_lit(&[a, b, c, n], q.output),
                expect,
                "a={a} b={b} c={c} n={n}"
            );
        }
    }

    #[test]
    fn output_restriction_limits_comparison() {
        // impl has two outputs; restrict the miter to output 0 only.
        let mut im = Aig::new();
        let a = im.add_input();
        let b = im.add_input();
        let x = im.and(a, b);
        im.add_output(x);
        im.add_output(a);
        let t = x.node();
        let mut sp = Aig::new();
        let a = sp.add_input();
        let b = sp.add_input();
        let o = sp.or(a, b);
        sp.add_output(o);
        sp.add_output(!a); // output 1 differs, but is outside the window
        let p = EcoProblem::with_unit_weights(im, sp, vec![t]).expect("valid");
        let m = EcoMiter::build(&p, Some(&[0]));
        // With n = spec value, no difference is seen on output 0.
        for mask in 0..4u32 {
            let a = mask & 1 == 1;
            let b = mask >> 1 & 1 == 1;
            let n = a || b;
            assert!(!m.aig.eval_lit(&[a, b, n], m.output));
        }
    }

    #[test]
    fn impl_map_exposes_divisor_functions() {
        let p = and_vs_or();
        let qm = QuantifiedMiter::build(&p, 0, &[], None);
        // Input a of the implementation maps to the first x input.
        let a_node = p.implementation.inputs()[0];
        assert_eq!(qm.impl_map[a_node.index()], qm.x_inputs[0]);
    }
}
