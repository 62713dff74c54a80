//! Structural pruning (Sec. 3.3): compute the logic window around the
//! targets and the candidate divisor set.

use crate::problem::EcoProblem;
use eco_aig::NodeId;

/// The logic window used while solving the ECO problem.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Window {
    /// Primary-output indices reachable from the targets (window POs).
    pub outputs: Vec<usize>,
    /// Primary-input indices feeding those POs in either netlist
    /// (window PIs).
    pub inputs: Vec<usize>,
    /// Candidate divisors: implementation nodes outside the TFO of
    /// every target whose input support lies within the window PIs
    /// (window PIs themselves included).
    pub divisors: Vec<NodeId>,
}

/// Computes the window per the paper's three steps:
///
/// 1. POs reachable from the targets in the implementation,
/// 2. PIs in the TFI of those POs in implementation *and*
///    specification (union),
/// 3. implementation signals outside the targets' TFO whose support is
///    contained in the window PIs.
pub(crate) fn compute_window(problem: &EcoProblem) -> Window {
    let implementation = &problem.implementation;
    let fanouts = implementation.fanouts();
    let tfo = implementation.tfo_mask(problem.targets.iter().copied(), &fanouts);

    let outputs: Vec<usize> = implementation
        .outputs()
        .iter()
        .enumerate()
        .filter(|(_, o)| tfo[o.node().index()])
        .map(|(i, _)| i)
        .collect();

    // Window PIs: union over both netlists of PIs feeding the window POs.
    let impl_roots: Vec<NodeId> = outputs
        .iter()
        .map(|&i| implementation.outputs()[i].node())
        .collect();
    let impl_tfi = implementation.tfi_mask(impl_roots);
    let spec_roots: Vec<NodeId> = outputs
        .iter()
        .map(|&i| problem.specification.outputs()[i].node())
        .collect();
    let spec_tfi = problem.specification.tfi_mask(spec_roots);

    let mut input_mask = vec![false; problem.num_inputs()];
    for (idx, &n) in implementation.inputs().iter().enumerate() {
        if impl_tfi[n.index()] {
            input_mask[idx] = true;
        }
    }
    for (idx, &n) in problem.specification.inputs().iter().enumerate() {
        if spec_tfi[n.index()] {
            input_mask[idx] = true;
        }
    }
    let inputs: Vec<usize> = input_mask
        .iter()
        .enumerate()
        .filter(|(_, &m)| m)
        .map(|(i, _)| i)
        .collect();

    let divisors = compute_divisors(implementation, &problem.targets, &inputs);
    Window {
        outputs,
        inputs,
        divisors,
    }
}

/// Recomputes the candidate divisors for a (possibly already partially
/// patched) implementation: nodes outside the TFO of the remaining
/// `targets` whose input support lies within `window_inputs`.
///
/// Used at each step of the multi-target iteration, where previously
/// inserted patch logic becomes eligible divisor material while the
/// window PI/PO sets stay fixed.
pub(crate) fn compute_divisors(
    implementation: &eco_aig::Aig,
    targets: &[NodeId],
    window_inputs: &[usize],
) -> Vec<NodeId> {
    let fanouts = implementation.fanouts();
    let tfo = implementation.tfo_mask(targets.iter().copied(), &fanouts);
    let mut input_mask = vec![false; implementation.num_inputs()];
    for &i in window_inputs {
        input_mask[i] = true;
    }
    // Bottom-up marking: a node is "supported" when its input support is
    // contained in the window PIs.
    let mut supported = vec![false; implementation.num_nodes()];
    supported[NodeId::CONST0.index()] = true;
    for (idx, &n) in implementation.inputs().iter().enumerate() {
        supported[n.index()] = input_mask[idx];
    }
    let mut divisors = Vec::new();
    for id in implementation.iter_nodes() {
        if let Some((f0, f1)) = implementation.fanins(id) {
            supported[id.index()] = supported[f0.node().index()] && supported[f1.node().index()];
        }
        if id != NodeId::CONST0 && supported[id.index()] && !tfo[id.index()] {
            divisors.push(id);
        }
    }
    divisors
}

/// The primary-output indices reachable from each of `targets` alone,
/// in target order.
pub fn per_target_outputs(implementation: &eco_aig::Aig, targets: &[NodeId]) -> Vec<Vec<usize>> {
    let fanouts = implementation.fanouts();
    targets
        .iter()
        .map(|&t| {
            let tfo = implementation.tfo_mask(std::iter::once(t), &fanouts);
            implementation
                .outputs()
                .iter()
                .enumerate()
                .filter(|(_, o)| tfo[o.node().index()])
                .map(|(i, _)| i)
                .collect()
        })
        .collect()
}

/// Positions (into `targets`) of the *independent* targets: those that
/// reach at least one output and whose reachable-output set is disjoint
/// from every other target's.
///
/// An independent target's window outputs do not depend on any other
/// remaining target, and no other target's outputs depend on it — so it
/// can be patched as a standalone single-target subproblem (with the
/// other targets fixed to an arbitrary constant assignment), and the
/// resulting patches can all be committed in one substitution. This is
/// a purely structural property of the current implementation.
pub fn independent_targets(implementation: &eco_aig::Aig, targets: &[NodeId]) -> Vec<usize> {
    let outputs = per_target_outputs(implementation, targets);
    let num_outputs = implementation.num_outputs();
    // Count, per output, how many targets reach it.
    let mut reach_count = vec![0usize; num_outputs];
    for outs in &outputs {
        for &o in outs {
            reach_count[o] += 1;
        }
    }
    (0..targets.len())
        .filter(|&i| !outputs[i].is_empty() && outputs[i].iter().all(|&o| reach_count[o] == 1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_aig::Aig;

    /// impl: o0 = t & c (t = a & b), o1 = d; spec mirrors with OR.
    fn windowed_problem() -> (EcoProblem, NodeId, NodeId, NodeId) {
        let mut im = Aig::new();
        let a = im.add_input();
        let b = im.add_input();
        let c = im.add_input();
        let d = im.add_input();
        let t = im.and(a, b);
        let o0 = im.and(t, c);
        im.add_output(o0);
        im.add_output(d);
        let mut sp = Aig::new();
        let a = sp.add_input();
        let b = sp.add_input();
        let c = sp.add_input();
        let d = sp.add_input();
        let u = sp.or(a, b);
        let s0 = sp.and(u, c);
        sp.add_output(s0);
        sp.add_output(d);
        let p = EcoProblem::with_unit_weights(im, sp, vec![t.node()]).expect("valid");
        (p, t.node(), o0.node(), d.node())
    }

    #[test]
    fn window_outputs_are_target_tfo() {
        let (p, _, _, _) = windowed_problem();
        let w = compute_window(&p);
        assert_eq!(w.outputs, vec![0], "only o0 is reachable from the target");
    }

    #[test]
    fn window_inputs_cover_both_netlists() {
        let (p, _, _, _) = windowed_problem();
        let w = compute_window(&p);
        // o0's cone touches a, b, c in both netlists; d is outside.
        assert_eq!(w.inputs, vec![0, 1, 2]);
    }

    #[test]
    fn divisors_exclude_tfo_and_unsupported() {
        let (p, t, o0, d) = windowed_problem();
        let w = compute_window(&p);
        assert!(!w.divisors.contains(&t), "target is in its own TFO");
        assert!(!w.divisors.contains(&o0), "TFO node excluded");
        assert!(
            !w.divisors.contains(&d),
            "input outside window PIs excluded"
        );
        // The window PIs themselves are divisors.
        for &idx in &[0usize, 1, 2] {
            assert!(w.divisors.contains(&p.implementation.inputs()[idx]));
        }
    }

    #[test]
    fn side_logic_is_a_divisor() {
        // Add side logic over window PIs not in the target's TFO.
        let mut im = Aig::new();
        let a = im.add_input();
        let b = im.add_input();
        let t = im.and(a, b);
        let side = im.xor(a, b);
        im.add_output(t);
        im.add_output(side);
        let t_node = t.node();
        let mut sp = Aig::new();
        let a = sp.add_input();
        let b = sp.add_input();
        let o = sp.or(a, b);
        let side = sp.xor(a, b);
        sp.add_output(o);
        sp.add_output(side);
        let p = EcoProblem::with_unit_weights(im, sp, vec![t_node]).expect("valid");
        let w = compute_window(&p);
        // The xor cone nodes are all outside the target TFO and supported.
        assert!(
            w.divisors.len() >= 4,
            "xor internals plus PIs expected: {:?}",
            w.divisors
        );
    }

    #[test]
    fn independent_targets_require_disjoint_output_cones() {
        // o0 = t1 & c, o1 = t2 | d, o2 = t1 ^ t3, o3 = a: t2 is the only
        // target whose reachable outputs are untouched by the others.
        let mut im = Aig::new();
        let a = im.add_input();
        let b = im.add_input();
        let c = im.add_input();
        let d = im.add_input();
        let t1 = im.and(a, b);
        let t2 = im.and(c, d);
        let t3 = im.and(a, d);
        let o0 = im.and(t1, c);
        let o1 = im.or(t2, d);
        let o2 = im.xor(t1, t3);
        im.add_output(o0);
        im.add_output(o1);
        im.add_output(o2);
        im.add_output(a);
        let targets = vec![t1.node(), t2.node(), t3.node()];
        let per = per_target_outputs(&im, &targets);
        assert_eq!(per, vec![vec![0, 2], vec![1], vec![2]]);
        assert_eq!(independent_targets(&im, &targets), vec![1]);
        // Dropping t3 frees t1: both survivors become independent.
        let targets2 = vec![t1.node(), t2.node()];
        assert_eq!(independent_targets(&im, &targets2), vec![0, 1]);
    }

    #[test]
    fn dead_targets_are_never_independent() {
        let mut im = Aig::new();
        let a = im.add_input();
        let b = im.add_input();
        let dead = im.and(a, b);
        let live = im.and(a, !b);
        im.add_output(live);
        let targets = vec![dead.node(), live.node()];
        // `dead` reaches no output, so it cannot be batched.
        assert_eq!(independent_targets(&im, &targets), vec![1]);
    }

    #[test]
    fn multi_target_union_tfo() {
        let mut im = Aig::new();
        let a = im.add_input();
        let b = im.add_input();
        let c = im.add_input();
        let t1 = im.and(a, b);
        let t2 = im.and(b, c);
        im.add_output(t1);
        im.add_output(t2);
        let mut sp = Aig::new();
        let a = sp.add_input();
        let b = sp.add_input();
        let c = sp.add_input();
        let s1 = sp.or(a, b);
        let s2 = sp.or(b, c);
        sp.add_output(s1);
        sp.add_output(s2);
        let p = EcoProblem::with_unit_weights(im, sp, vec![t1.node(), t2.node()]).expect("valid");
        let w = compute_window(&p);
        assert_eq!(w.outputs, vec![0, 1]);
        assert_eq!(w.inputs, vec![0, 1, 2]);
        assert!(!w.divisors.contains(&t1.node()));
        assert!(!w.divisors.contains(&t2.node()));
    }
}
