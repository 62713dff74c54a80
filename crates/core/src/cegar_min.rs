//! `CEGAR_min` (Sec. 3.6.3): improve a structural patch expressed over
//! primary inputs by resubstituting internal implementation signals.
//! Functionally equivalent (impl-signal, patch-signal) pairs form
//! candidate cut points; a node-capacitated max-flow/min-cut picks the
//! cheapest cut, which becomes the new patch support.

use crate::cnf::CnfEncoder;
use crate::error::EcoError;
use crate::observe::{ClassesCounters, EcoEvent, ObserverHandle, SatCallKind};
use eco_aig::{splitmix64, Aig, AigLit, NodeId};
use eco_graph::{NodeCutGraph, INF};
use eco_sat::{GovernorLimits, Lit, ResourceGovernor, SolveResult, Solver};

/// Result of the max-flow resubstitution.
#[derive(Clone, Debug)]
pub struct CegarMinResult {
    /// The rewritten patch; input `i` is bound to `support[i]`.
    pub aig: Aig,
    /// Implementation literals (possibly complemented) forming the new
    /// support.
    pub support: Vec<AigLit>,
    /// Total weight of the distinct support nodes.
    pub cost: u64,
    /// SAT calls spent proving equivalences.
    pub sat_calls: u64,
}

/// Rewrites `patch` (a single-output AIG whose inputs are bound to the
/// implementation literals `bindings`) over a minimum-weight cut of
/// functionally equivalent implementation signals.
///
/// `weight(node)` prices implementation nodes; uncut patch-internal
/// nodes are free (they stay patch logic). The result is functionally
/// identical to the original patch by construction — every cut point is
/// SAT-proven equivalent to its replacement.
///
/// # Errors
///
/// [`EcoError::SolverBudgetExhausted`] if an equivalence query exceeds
/// `per_call_conflicts` (queries are skipped, not failed, when a budget
/// merely makes a candidate unprovable; the error occurs only if the
/// final verification budget is exceeded).
pub fn cegar_min(
    implementation: &Aig,
    weight: &dyn Fn(NodeId) -> u64,
    patch: &Aig,
    bindings: &[AigLit],
    per_call_conflicts: Option<u64>,
) -> Result<CegarMinResult, EcoError> {
    cegar_min_observed(
        implementation,
        weight,
        &|_| true,
        patch,
        bindings,
        per_call_conflicts,
        &ObserverHandle::default(),
        None,
        &ResourceGovernor::new(GovernorLimits::default()),
        None,
    )
}

/// [`cegar_min`] with event emission and an `eligible` filter: only
/// implementation nodes passing it may become support signals (the
/// engine excludes the transitive fanout of still-unpatched targets,
/// whose functions are not yet final). Equivalence queries
/// report as [`SatCallKind::CegarMin`] attributed to `target_index`,
/// and the completed round as [`EcoEvent::CegarMinRound`].
///
/// With `classes` set, counterexample valuations learned from SAT
/// answers are replayed by simulation to discharge later equivalence
/// checks whose disagreement is already witnessed (Sat-only
/// inheritance — a finite pattern store can never prove UNSAT).
/// Inherited answers still count in `sat_calls`, so reported totals
/// match a classless run byte-for-byte; the skips are accounted in
/// `classes.inherited_answers`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn cegar_min_observed(
    implementation: &Aig,
    weight: &dyn Fn(NodeId) -> u64,
    eligible: &dyn Fn(NodeId) -> bool,
    patch: &Aig,
    bindings: &[AigLit],
    per_call_conflicts: Option<u64>,
    obs: &ObserverHandle,
    target_index: Option<usize>,
    governor: &ResourceGovernor,
    classes: Option<&mut ClassesCounters>,
) -> Result<CegarMinResult, EcoError> {
    assert_eq!(patch.num_outputs(), 1, "patch must be single-output");
    assert_eq!(patch.num_inputs(), bindings.len(), "binding arity mismatch");

    // Combined network: the implementation plus the patch cone over it.
    let mut combined = implementation.clone();
    let patch_map = combined.import_with_map(patch, bindings);

    // Simulation signatures over 256 deterministic pseudo-random
    // patterns (4 words of 64).
    const ROUNDS: usize = 4;
    let mut seed = 0x00C0_FFEE_u64;
    let sims: Vec<Vec<u64>> = (0..ROUNDS)
        .map(|_| {
            let words: Vec<u64> = (0..combined.num_inputs())
                .map(|_| splitmix64(&mut seed))
                .collect();
            combined.simulate(&words)
        })
        .collect();
    let signatures: Vec<[u64; ROUNDS]> = (0..combined.num_nodes())
        .map(|i| std::array::from_fn(|round| sims[round][i]))
        .collect();
    // Bucket implementation nodes by signature (both phases).
    use std::collections::HashMap;
    let mut buckets: HashMap<[u64; ROUNDS], Vec<(NodeId, bool)>> = HashMap::new();
    for id in implementation.iter_nodes() {
        if id == NodeId::CONST0 || !eligible(id) {
            continue;
        }
        let sig = signatures[id.index()];
        buckets.entry(sig).or_default().push((id, false));
        let neg: [u64; ROUNDS] = std::array::from_fn(|i| !sig[i]);
        buckets.entry(neg).or_default().push((id, true));
    }

    // SAT context over the combined network for equivalence proofs.
    let mut solver = Solver::new();
    solver.set_governor(governor.clone());
    let mut enc = CnfEncoder::new(&combined);
    let mut sat_calls = 0u64;
    // Class layer: full node valuations of counterexample inputs
    // harvested from SAT answers. A valuation where two literals
    // disagree discharges the matching phase check without a solver
    // call. Disabled whenever the governor has tripped or injected a
    // fault — a real call would then see the degraded solver, and the
    // inherited answer must not mask that.
    const MAX_CEGAR_CEX: usize = 256;
    let use_store = classes.is_some();
    let mut cex_store: Vec<Vec<bool>> = Vec::new();
    let (mut inherited, mut learned) = (0u64, 0u64);
    let mut prove_equal = |a: AigLit,
                           b: AigLit,
                           solver: &mut Solver,
                           enc: &mut CnfEncoder|
     -> Result<Option<bool>, EcoError> {
        if a == b {
            return Ok(Some(true));
        }
        let eval = |vals: &[bool], l: AigLit| vals[l.node().index()] ^ l.is_complement();
        // known[0]: some valuation has a=1, b=0; known[1]: a=0, b=1.
        let mut known = [false; 2];
        if use_store && !governor.interfered() {
            for vals in &cex_store {
                let (va, vb) = (eval(vals, a), eval(vals, b));
                known[0] |= va && !vb;
                known[1] |= !va && vb;
                if known[0] && known[1] {
                    break;
                }
            }
        }
        let la = enc.lit(&combined, solver, a);
        let lb = enc.lit(&combined, solver, b);
        let mut check =
            |x: Lit, y: Lit, inherited_sat: bool, solver: &mut Solver| -> Option<bool> {
                sat_calls += 1;
                if inherited_sat {
                    inherited += 1;
                    return Some(false);
                }
                if let Some(c) = per_call_conflicts {
                    solver.set_budget(Some(c));
                }
                let result = obs.solve(solver, &[x, y], SatCallKind::CegarMin, target_index);
                if result == SolveResult::Sat
                    && use_store
                    && !governor.interfered()
                    && cex_store.len() < MAX_CEGAR_CEX
                {
                    let words: Vec<u64> = combined
                        .inputs()
                        .iter()
                        .map(|&n| {
                            let bit = enc
                                .var(n)
                                .map(|v| {
                                    solver
                                        .model_value(v.positive())
                                        .to_option()
                                        .unwrap_or(false)
                                })
                                .unwrap_or(false);
                            u64::from(bit)
                        })
                        .collect();
                    let vals: Vec<bool> = combined
                        .simulate(&words)
                        .iter()
                        .map(|&w| w & 1 == 1)
                        .collect();
                    if !cex_store.contains(&vals) {
                        cex_store.push(vals);
                        learned += 1;
                    }
                }
                match result {
                    SolveResult::Unsat => Some(true),
                    SolveResult::Sat => Some(false),
                    SolveResult::Unknown => None,
                }
            };
        // a != b is UNSAT in both phases.
        match (
            check(la, !lb, known[0], solver),
            check(!la, lb, known[1], solver),
        ) {
            (Some(true), Some(true)) => Ok(Some(true)),
            (Some(_), Some(_)) => Ok(Some(false)),
            _ => Ok(None), // budget: treat as unproven
        }
    };

    // For each patch node, find the cheapest SAT-proven equivalent
    // implementation signal.
    const MAX_CANDIDATES: usize = 6;
    let patch_nodes = patch.num_nodes();
    let mut replacement: Vec<Option<(AigLit, u64)>> = vec![None; patch_nodes];
    for pid in patch.iter_nodes() {
        if pid == NodeId::CONST0 {
            continue;
        }
        let plit = patch_map[pid.index()];
        if plit.is_const() {
            continue;
        }
        let sig = signatures[plit.node().index()];
        let adjusted: [u64; ROUNDS] = if plit.is_complement() {
            std::array::from_fn(|i| !sig[i])
        } else {
            sig
        };
        let Some(cands) = buckets.get(&adjusted) else {
            continue;
        };
        let mut cands: Vec<(NodeId, bool)> = cands.clone();
        cands.sort_by_key(|&(n, _)| (weight(n), n.index()));
        cands.truncate(MAX_CANDIDATES);
        for (n, compl) in cands {
            let impl_lit = n.lit().xor_complement(compl);
            if prove_equal(plit, impl_lit, &mut solver, &mut enc)? == Some(true) {
                replacement[pid.index()] = Some((impl_lit, weight(n)));
                break;
            }
        }
    }

    if let Some(counters) = classes {
        counters.inherited_answers += inherited;
        counters.refinement_rounds += learned;
    }

    let out = patch.outputs()[0];
    // Node-capacitated min cut over the patch DAG: a virtual source
    // feeds the patch inputs and a virtual sink hangs off the output
    // node (so even the output itself may be cut — whole-patch
    // replacement); replaceable nodes carry their replacement weight.
    let source = patch_nodes;
    let sink = patch_nodes + 1;
    let mut graph = NodeCutGraph::new(patch_nodes + 2);
    graph.set_node_capacity(source, INF);
    graph.set_node_capacity(sink, INF);
    graph.add_arc(out.node().index(), sink);
    for pid in patch.iter_nodes() {
        if patch.is_input(pid) {
            graph.add_arc(source, pid.index());
            // Inputs are always replaceable by their own binding.
            let own = bindings[patch
                .inputs()
                .iter()
                .position(|&n| n == pid)
                .expect("input node")];
            let own_w = weight(own.node());
            let cap = match replacement[pid.index()] {
                Some((_, w)) if w < own_w => w,
                _ => {
                    replacement[pid.index()] = Some((own, own_w));
                    own_w
                }
            };
            graph.set_node_capacity(pid.index(), cap);
        } else if let Some((f0, f1)) = patch.fanins(pid) {
            for f in [f0.node(), f1.node()] {
                if f != NodeId::CONST0 {
                    graph.add_arc(f.index(), pid.index());
                }
            }
            let cap = replacement[pid.index()].map_or(INF, |(_, w)| w);
            graph.set_node_capacity(pid.index(), cap);
        }
    }
    let (_, cut) = graph
        .min_node_cut(source, sink)
        .expect("patch inputs are always cuttable");

    // Rebuild the patch cut at the chosen nodes.
    let cut_nodes: Vec<NodeId> = cut.iter().map(|&i| NodeId::from_index(i)).collect();
    let cone = patch.extract_cone(&[out], &cut_nodes);
    let mut support = Vec::with_capacity(cone.input_nodes.len());
    let mut distinct = std::collections::HashSet::new();
    let mut cost = 0u64;
    for n in &cone.input_nodes {
        let (lit, w) = replacement[n.index()].expect("cut nodes have replacements");
        if distinct.insert(lit.node()) {
            cost += w;
        }
        support.push(lit);
    }
    obs.emit(|| EcoEvent::CegarMinRound {
        target_index,
        sat_calls,
        cost,
    });
    Ok(CegarMinResult {
        aig: cone.aig,
        support,
        cost,
        sat_calls,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Implementation with an internal xor signal; a patch over PIs that
    /// recomputes the same xor should collapse onto it.
    #[test]
    fn patch_collapses_onto_equivalent_internal_signal() {
        let mut im = Aig::new();
        let (a, b) = (im.add_input(), im.add_input());
        let x = im.xor(a, b);
        im.add_output(x);
        // Patch: xor over the PIs (cost of PIs high, xor node cheap).
        let mut patch = Aig::new();
        let (pa, pb) = (patch.add_input(), patch.add_input());
        let px = patch.xor(pa, pb);
        patch.add_output(px);
        let weight = |n: NodeId| -> u64 {
            if n == x.node() {
                1
            } else {
                10
            }
        };
        let r = cegar_min(&im, &weight, &patch, &[a, b], None).expect("no budget");
        assert_eq!(r.support.len(), 1);
        assert_eq!(r.support[0].node(), x.node(), "collapses onto the xor node");
        assert_eq!(r.cost, 1);
        assert_eq!(
            r.aig.num_ands(),
            0,
            "patch is a bare (possibly inverted) wire"
        );
        // Function preserved: patch(support) == a ^ b.
        for mask in 0..4u32 {
            let bits = [mask & 1 == 1, mask >> 1 & 1 == 1];
            let vals: Vec<bool> = r.support.iter().map(|&l| im.eval_lit(&bits, l)).collect();
            assert_eq!(r.aig.eval(&vals)[0], bits[0] ^ bits[1]);
        }
    }

    #[test]
    fn falls_back_to_inputs_when_no_internal_equivalent() {
        let mut im = Aig::new();
        let (a, b) = (im.add_input(), im.add_input());
        let g = im.and(a, b);
        im.add_output(g);
        // Patch: a | b — nothing inside the implementation matches it or
        // its sub-signals except the PIs themselves.
        let mut patch = Aig::new();
        let (pa, pb) = (patch.add_input(), patch.add_input());
        let po = patch.or(pa, pb);
        patch.add_output(po);
        let weight = |_: NodeId| 5u64;
        let r = cegar_min(&im, &weight, &patch, &[a, b], None).expect("no budget");
        let mut nodes: Vec<NodeId> = r.support.iter().map(|l| l.node()).collect();
        nodes.sort();
        assert_eq!(nodes, vec![a.node(), b.node()]);
        assert_eq!(r.cost, 10);
        // Function preserved.
        for mask in 0..4u32 {
            let bits = [mask & 1 == 1, mask >> 1 & 1 == 1];
            let vals: Vec<bool> = r.support.iter().map(|&l| im.eval_lit(&bits, l)).collect();
            assert_eq!(r.aig.eval(&vals)[0], bits[0] || bits[1]);
        }
    }

    #[test]
    fn complemented_equivalence_is_used() {
        let mut im = Aig::new();
        let (a, b) = (im.add_input(), im.add_input());
        let nand = !im.and(a, b);
        im.add_output(nand);
        // Patch computes AND over PIs; implementation has NAND: the
        // complement equivalence must be found.
        let mut patch = Aig::new();
        let (pa, pb) = (patch.add_input(), patch.add_input());
        let pand = patch.and(pa, pb);
        patch.add_output(pand);
        let weight = |n: NodeId| if im.is_input(n) { 20u64 } else { 2 };
        let r = cegar_min(&im, &weight, &patch, &[a, b], None).expect("no budget");
        assert_eq!(r.cost, 2);
        assert_eq!(r.support.len(), 1);
        assert_eq!(r.support[0].node(), nand.node());
        // Verify function: output must equal a & b.
        for mask in 0..4u32 {
            let bits = [mask & 1 == 1, mask >> 1 & 1 == 1];
            let vals: Vec<bool> = r.support.iter().map(|&l| im.eval_lit(&bits, l)).collect();
            assert_eq!(r.aig.eval(&vals)[0], bits[0] && bits[1]);
        }
    }

    #[test]
    fn mid_cone_cut_beats_both_extremes() {
        // impl: y = (a^b) & c plus an explicit a^b node; patch recomputes
        // (a^b) & c over PIs. Cutting at {a^b, c} is cheapest.
        let mut im = Aig::new();
        let (a, b, c) = (im.add_input(), im.add_input(), im.add_input());
        let x = im.xor(a, b);
        let y = im.and(x, c);
        im.add_output(y);
        im.add_output(x);
        let mut patch = Aig::new();
        let (pa, pb, pc) = (patch.add_input(), patch.add_input(), patch.add_input());
        let px = patch.xor(pa, pb);
        let py = patch.and(px, pc);
        patch.add_output(py);
        // PIs cost 10 each, the xor node 3, the y node 100: the global
        // minimum cut is {x, c} at cost 13 — cheaper than collapsing the
        // whole patch onto y (100) or cutting at all PIs (30).
        let weight = |n: NodeId| -> u64 {
            if n == x.node() {
                3
            } else if n == y.node() {
                100
            } else {
                10
            }
        };
        let r = cegar_min(&im, &weight, &patch, &[a, b, c], None).expect("no budget");
        assert_eq!(r.cost, 13);
        let mut nodes: Vec<NodeId> = r.support.iter().map(|l| l.node()).collect();
        nodes.sort();
        let mut expect = vec![x.node(), c.node()];
        expect.sort();
        assert_eq!(nodes, expect);
        for mask in 0..8u32 {
            let bits = [mask & 1 == 1, mask >> 1 & 1 == 1, mask >> 2 & 1 == 1];
            let vals: Vec<bool> = r.support.iter().map(|&l| im.eval_lit(&bits, l)).collect();
            assert_eq!(r.aig.eval(&vals)[0], (bits[0] ^ bits[1]) && bits[2]);
        }
    }
}
