//! SAT sweeping (fraig): [`fraig_reduce`], a governed fraig engine —
//! candidate classes from the bit-parallel simulator, equivalence
//! proofs through the budgeted solver, merges via substitution.
//! Degrades to the identity transform (never a wrong answer) when the
//! governor trips.

use crate::cnf::CnfEncoder;
use eco_aig::{Aig, AigLit, CandidateClasses, NodeId, NodePatch, PatternPool};
use eco_sat::{Lit, ResourceGovernor, SolveResult, Solver};
use std::collections::HashMap;

/// Options for [`fraig_reduce`].
#[derive(Clone, Debug)]
pub struct FraigOptions {
    /// Random 64-pattern words per input in the initial pool.
    pub pattern_words: usize,
    /// Seed for the deterministic pattern pool.
    pub seed: u64,
    /// Maximum partition-refinement rounds.
    pub max_rounds: usize,
    /// Conflict budget per equivalence-proof SAT call (`None` =
    /// unlimited). Exhaustion degrades the whole reduction to the
    /// identity transform.
    pub per_call_conflicts: Option<u64>,
}

impl Default for FraigOptions {
    fn default() -> FraigOptions {
        FraigOptions {
            pattern_words: 4,
            seed: 0x5EED,
            max_rounds: 4,
            per_call_conflicts: Some(100_000),
        }
    }
}

/// Counters accumulated by [`fraig_reduce`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FraigStats {
    /// Candidate classes in the final partition.
    pub classes: u64,
    /// Candidate pairs submitted to the solver.
    pub candidates: u64,
    /// Pairs proven equivalent and merged.
    pub merges: u64,
    /// Equivalence-proof SAT calls issued.
    pub sat_calls: u64,
    /// Counterexample patterns fed back into the pool.
    pub refinement_rounds: u64,
    /// Node-count reduction achieved by the merges.
    pub nodes_eliminated: u64,
}

/// Result of [`fraig_reduce`].
#[derive(Clone, Debug)]
pub struct FraigOutcome {
    /// The reduced AIG (equal to the input when nothing merged).
    pub aig: Aig,
    /// For each node of the input AIG, the literal computing the same
    /// function in [`FraigOutcome::aig`] (`None` for nodes dropped as
    /// unreachable).
    pub node_map: Vec<Option<AigLit>>,
    /// Work counters.
    pub stats: FraigStats,
    /// `true` when a governor trip or budget exhaustion forced the
    /// identity result. The outcome is still correct — just unreduced.
    pub degraded: bool,
}

/// SAT-sweeps `aig`: partitions nodes into equivalence-candidate
/// classes by bit-parallel simulation, proves candidate pairs
/// equivalent through a (optionally governed) SAT solver, and merges
/// proven pairs. Counterexamples from failed proofs refine the
/// partition, so no pair is retried unchanged.
///
/// The result computes the same function as the input on every output.
/// If the governor trips or a proof exhausts its conflict budget the
/// reduction *degrades* to the identity transform — it never returns a
/// circuit that might differ from the input.
pub fn fraig_reduce(
    aig: &Aig,
    options: &FraigOptions,
    governor: Option<&ResourceGovernor>,
) -> FraigOutcome {
    let mut stats = FraigStats::default();
    let mut pool = PatternPool::new(aig.num_inputs(), options.pattern_words, options.seed);
    // member node -> replacement literal (in input-AIG coordinates,
    // already resolved through earlier merges).
    let mut merges: HashMap<NodeId, AigLit> = HashMap::new();
    for _round in 0..options.max_rounds.max(1) {
        let classes = CandidateClasses::compute(aig, &pool);
        stats.classes = classes.classes.len() as u64;
        let candidates: Vec<(NodeId, AigLit)> = classes
            .merge_candidates()
            .filter(|(node, _)| aig.is_and(*node) && !merges.contains_key(node))
            .collect();
        if candidates.is_empty() {
            break;
        }
        stats.candidates += candidates.len() as u64;
        let mut solver = Solver::new();
        solver.set_search_control(governor.map(ResourceGovernor::control));
        let mut enc = CnfEncoder::new(aig);
        let in_lits: Vec<Lit> = aig
            .inputs()
            .iter()
            .map(|&n| enc.lit(aig, &mut solver, n.lit()))
            .collect();
        for (node, rep_lit) in candidates {
            let rep_lit = resolve(&merges, rep_lit);
            if rep_lit.node() == node {
                continue; // resolution closed a loop back to the member
            }
            let lm = enc.lit(aig, &mut solver, node.lit());
            let lr = enc.lit(aig, &mut solver, rep_lit);
            let mut proven = true;
            for assumptions in [[lm, !lr], [!lm, lr]] {
                if let Some(c) = options.per_call_conflicts {
                    solver.set_budget(Some(c), None);
                }
                stats.sat_calls += 1;
                match solver.solve(&assumptions) {
                    SolveResult::Unsat => {}
                    SolveResult::Sat => {
                        // The model distinguishes the pair; feeding it
                        // back splits their class next round.
                        let cex: Vec<bool> = in_lits
                            .iter()
                            .map(|&l| solver.model_value(l).to_option().unwrap_or(false))
                            .collect();
                        pool.add_pattern(&cex);
                        stats.refinement_rounds += 1;
                        proven = false;
                        break;
                    }
                    SolveResult::Unknown => {
                        return identity_outcome(aig, stats, true);
                    }
                }
            }
            if proven {
                merges.insert(node, rep_lit);
                stats.merges += 1;
            }
        }
    }
    if merges.is_empty() {
        return identity_outcome(aig, stats, false);
    }
    let patches: HashMap<NodeId, NodePatch> = merges
        .iter()
        .map(|(&node, &lit)| {
            let mut pass = Aig::new();
            let i = pass.add_input();
            pass.add_output(i);
            (
                node,
                NodePatch {
                    aig: pass,
                    support: vec![resolve(&merges, lit)],
                },
            )
        })
        .collect();
    match aig.substitute_with_map(&patches) {
        Ok(res) => {
            stats.nodes_eliminated = aig.num_nodes().saturating_sub(res.aig.num_nodes()) as u64;
            FraigOutcome {
                aig: res.aig,
                node_map: res.node_map,
                stats,
                degraded: false,
            }
        }
        // Representatives precede members topologically, so a cycle
        // cannot arise; stay safe anyway.
        Err(_) => identity_outcome(aig, stats, true),
    }
}

/// Follows merge links until the literal refers to an unmerged node.
/// Terminates because every link strictly decreases the node index.
fn resolve(merges: &HashMap<NodeId, AigLit>, mut lit: AigLit) -> AigLit {
    while let Some(&target) = merges.get(&lit.node()) {
        lit = target.xor_complement(lit.is_complement());
    }
    lit
}

fn identity_outcome(aig: &Aig, mut stats: FraigStats, degraded: bool) -> FraigOutcome {
    // Any proven merges were discarded along with the reduction, so
    // the counters must not claim them.
    if degraded {
        stats.merges = 0;
    }
    FraigOutcome {
        aig: aig.clone(),
        node_map: aig.iter_nodes().map(|id| Some(id.lit())).collect(),
        stats,
        degraded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn redundant_aig() -> Aig {
        // Outputs: or(a, a&b) == a, xor(a, b), and a constant-0 cone.
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let ab = g.and(a, b);
        let red = g.or(a, ab);
        let x = g.xor(a, b);
        let t1 = g.and(a, b);
        let t2 = g.and(a, !b);
        let z = g.and(t1, t2); // constant 0
        g.add_output(red);
        g.add_output(x);
        g.add_output(z);
        g
    }

    fn equivalent_on_all_inputs(a: &Aig, b: &Aig) {
        assert_eq!(a.num_inputs(), b.num_inputs());
        for mask in 0u32..1 << a.num_inputs() {
            let bits: Vec<bool> = (0..a.num_inputs()).map(|i| mask >> i & 1 == 1).collect();
            assert_eq!(a.eval(&bits), b.eval(&bits), "inputs {bits:?}");
        }
    }

    #[test]
    fn fraig_merges_redundancies_and_preserves_function() {
        let g = redundant_aig();
        let out = fraig_reduce(&g, &FraigOptions::default(), None);
        assert!(!out.degraded);
        assert!(out.stats.merges >= 1, "stats: {:?}", out.stats);
        assert!(out.aig.num_nodes() < g.num_nodes());
        equivalent_on_all_inputs(&g, &out.aig);
    }

    #[test]
    fn fraig_node_map_points_at_equivalent_literals() {
        let g = redundant_aig();
        let out = fraig_reduce(&g, &FraigOptions::default(), None);
        for id in g.iter_nodes() {
            let Some(mapped) = out.node_map[id.index()] else {
                continue;
            };
            for mask in 0u32..1 << g.num_inputs() {
                let bits: Vec<bool> = (0..g.num_inputs()).map(|i| mask >> i & 1 == 1).collect();
                assert_eq!(
                    g.eval_lit(&bits, id.lit()),
                    out.aig.eval_lit(&bits, mapped),
                    "node {id} inputs {bits:?}"
                );
            }
        }
    }

    #[test]
    fn fraig_identity_when_nothing_merges() {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let x = g.xor(a, b);
        g.add_output(x);
        let out = fraig_reduce(&g, &FraigOptions::default(), None);
        assert!(!out.degraded);
        assert_eq!(out.stats.merges, 0);
        assert_eq!(out.aig.num_nodes(), g.num_nodes());
    }

    #[test]
    fn fraig_degrades_to_identity_on_zero_budget() {
        let g = redundant_aig();
        let opts = FraigOptions {
            per_call_conflicts: Some(0),
            ..FraigOptions::default()
        };
        let out = fraig_reduce(&g, &opts, None);
        // A zero budget may still decide trivial calls; whatever
        // happens, the result must be the input function.
        equivalent_on_all_inputs(&g, &out.aig);
        if out.degraded {
            assert_eq!(out.aig.num_nodes(), g.num_nodes());
        }
    }
}
