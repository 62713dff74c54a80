//! Structural patch computation (Sec. 3.6): derive the patch as the
//! circuit cofactor `M(0, x)` of the (quantified) ECO miter — no SAT
//! required — for use when SAT-based computation times out.

use crate::miter::QuantifiedMiter;
use eco_aig::Aig;

/// A patch expressed over primary inputs.
#[derive(Clone, Debug)]
pub(crate) struct StructuralPatch {
    /// Single-output patch circuit; input `i` corresponds to primary
    /// input `support_inputs[i]` of the problem.
    pub aig: Aig,
    /// Problem input indices actually used by the patch.
    pub support_inputs: Vec<usize>,
}

/// Computes the structural patch `I(x) = M_i(0, x)` for the quantified
/// miter of one target (Sec. 3.6.1; the multi-target case of Sec. 3.6.2
/// arises by building the quantified miter over the QBF certificate
/// assignments).
///
/// `M_i(0, x)` is an interpolant of the unsatisfiable
/// `M_i(0, x) ∧ M_i(1, x)`, hence a correct patch whenever the ECO is
/// feasible at this step. Unused inputs are trimmed from the support.
pub(crate) fn structural_patch(qm: &QuantifiedMiter) -> StructuralPatch {
    let cofactor = qm.cofactor(false);
    // Trim to the cone of the output.
    let roots = [cofactor.outputs()[0]];
    let cone = cofactor.extract_cone(&roots, &[]);
    let input_position: std::collections::HashMap<_, _> = cofactor
        .inputs()
        .iter()
        .enumerate()
        .map(|(i, &n)| (n, i))
        .collect();
    let support_inputs: Vec<usize> = cone.input_nodes.iter().map(|n| input_position[n]).collect();
    StructuralPatch {
        aig: cone.aig,
        support_inputs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cec::{check_equivalence, CecResult};
    use crate::miter::QuantifiedMiter;
    use crate::problem::EcoProblem;
    use eco_aig::NodePatch;
    use std::collections::HashMap;

    fn apply_structural(p: &EcoProblem, target_index: usize) -> Aig {
        let qm = QuantifiedMiter::build(p, target_index, &[], None);
        let sp = structural_patch(&qm);
        let support = sp
            .support_inputs
            .iter()
            .map(|&i| p.implementation.inputs()[i].lit())
            .collect();
        let mut patches = HashMap::new();
        patches.insert(
            p.targets[target_index],
            NodePatch {
                aig: sp.aig.clone(),
                support,
            },
        );
        p.implementation.substitute(&patches).expect("acyclic")
    }

    #[test]
    fn and_to_or_structural_patch_verifies() {
        let mut im = eco_aig::Aig::new();
        let (a, b) = (im.add_input(), im.add_input());
        let t = im.and(a, b);
        im.add_output(t);
        let t_node = t.node();
        let mut sp = eco_aig::Aig::new();
        let (a, b) = (sp.add_input(), sp.add_input());
        let o = sp.or(a, b);
        sp.add_output(o);
        let p = EcoProblem::with_unit_weights(im, sp, vec![t_node]).expect("valid");
        let patched = apply_structural(&p, 0);
        assert_eq!(
            check_equivalence(&patched, &p.specification, None),
            CecResult::Equivalent
        );
    }

    #[test]
    fn unused_inputs_are_trimmed() {
        // Only input a matters for the difference; b, c are pass-through
        // identical in both circuits.
        let mut im = eco_aig::Aig::new();
        let (a, b, c) = (im.add_input(), im.add_input(), im.add_input());
        // Target t4 = a & b; output y = t4 | (a & !b) so the window cone
        // is {a, b} while c passes through untouched. The spec wants
        // y = a ^ b, reachable by patching t4 := !a & b.
        let t4 = im.and(a, b);
        let anb = im.and(a, !b);
        let y = im.or(t4, anb);
        im.add_output(y);
        im.add_output(c);
        let t_node = t4.node();
        let mut spx = eco_aig::Aig::new();
        let (a2, b2, c2) = (spx.add_input(), spx.add_input(), spx.add_input());
        let y2 = spx.xor(a2, b2);
        spx.add_output(y2);
        spx.add_output(c2);
        let p = EcoProblem::with_unit_weights(im, spx, vec![t_node]).expect("valid");
        let qm = QuantifiedMiter::build(&p, 0, &[], None);
        let s = structural_patch(&qm);
        // c is identical on both sides and outside the window cone, so it
        // must not appear in the patch support.
        assert!(
            !s.support_inputs.contains(&2),
            "support {:?}",
            s.support_inputs
        );
        let patched = apply_structural(&p, 0);
        assert_eq!(
            check_equivalence(&patched, &p.specification, None),
            CecResult::Equivalent
        );
    }

    #[test]
    fn structural_patch_solves_multi_target_iteratively() {
        // Two targets; patch them one at a time with full quantification.
        let mut im = eco_aig::Aig::new();
        let (a, b, c) = (im.add_input(), im.add_input(), im.add_input());
        let t1 = im.and(a, b);
        let t2 = im.and(b, c);
        let y = im.and(t1, t2);
        im.add_output(y);
        let mut spx = eco_aig::Aig::new();
        let (a2, _b2, c2) = (spx.add_input(), spx.add_input(), spx.add_input());
        let y = spx.xor(a2, c2);
        spx.add_output(y);
        let mut p =
            EcoProblem::with_unit_weights(im, spx, vec![t1.node(), t2.node()]).expect("valid");
        // Target 0 with target 1 quantified over both values.
        let qm0 = QuantifiedMiter::build(&p, 0, &[vec![false], vec![true]], None);
        let s0 = structural_patch(&qm0);
        let support0 = s0
            .support_inputs
            .iter()
            .map(|&i| p.implementation.inputs()[i].lit())
            .collect();
        let mut patches = HashMap::new();
        patches.insert(
            p.targets[0],
            NodePatch {
                aig: s0.aig.clone(),
                support: support0,
            },
        );
        let result = p
            .implementation
            .substitute_with_map(&patches)
            .expect("acyclic");
        // Remap target 1 into the new implementation.
        let new_t1 = result.node_map[p.targets[1].index()]
            .expect("target alive")
            .node();
        p.implementation = result.aig;
        p.targets = vec![new_t1];
        p.weights = vec![1; p.implementation.num_nodes()];
        // Now solve the single remaining target.
        let patched = apply_structural(&p, 0);
        assert_eq!(
            check_equivalence(&patched, &p.specification, None),
            CecResult::Equivalent
        );
    }
}
