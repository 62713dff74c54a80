//! Automatic target detection — the paper's stated future work ("an
//! integrated ECO flow ... which detects a set of target nodes,
//! followed by applying the proposed patch computation").
//!
//! Counterexample-driven, in the spirit of error-localization work
//! ([4], [7] in the paper): distinguishing patterns are collected by
//! CEC and random simulation; each internal node is scored by how many
//! distinguishing patterns a single value-flip at the node would fully
//! repair; targets are grown greedily with the CEGAR 2QBF sufficiency
//! check as the oracle.

use crate::cec::{check_equivalence, CecResult};
use crate::error::EcoError;
use crate::problem::EcoProblem;
use crate::qbf::{check_targets_sufficient, QbfOutcome};
use eco_aig::{Aig, AigNode, NodeId};

/// Largest target set to try.
const MAX_TARGETS: usize = 8;

/// Candidate nodes kept after simulation ranking.
const MAX_CANDIDATES: usize = 64;

/// Distinguishing pattern words (64 patterns each) to collect.
const PATTERN_WORDS: usize = 16;

/// Iteration cap for each sufficiency check.
const QBF_MAX_ITERATIONS: usize = 512;

/// Result of target detection.
#[derive(Clone, Debug)]
pub struct DetectedTargets {
    /// The detected rectification points (empty when the circuits are
    /// already equivalent).
    pub targets: Vec<NodeId>,
    /// `true` when the CEGAR 2QBF check certified the set sufficient.
    pub sufficient: bool,
}

/// Detects a target set in `implementation` sufficient to rectify it
/// against `specification`, spending at most `per_call_conflicts`
/// conflicts on each CEC and sufficiency SAT call (`None` = unlimited).
///
/// # Errors
///
/// - [`EcoError::InterfaceMismatch`] for differing input/output counts.
/// - [`EcoError::SolverBudgetExhausted`] when CEC/QBF budgets run out
///   before any verdict.
///
/// # Examples
///
/// ```
/// use eco_aig::Aig;
/// use eco_core::detect_targets;
///
/// // implementation: y = a & b; specification: y = a | b.
/// let mut im = Aig::new();
/// let a = im.add_input();
/// let b = im.add_input();
/// let t = im.and(a, b);
/// im.add_output(t);
/// let mut sp = Aig::new();
/// let a = sp.add_input();
/// let b = sp.add_input();
/// let y = sp.or(a, b);
/// sp.add_output(y);
///
/// let found = detect_targets(&im, &sp, None)?;
/// assert!(found.sufficient);
/// assert_eq!(found.targets, vec![t.node()]);
/// # Ok::<(), eco_core::EcoError>(())
/// ```
pub fn detect_targets(
    implementation: &Aig,
    specification: &Aig,
    per_call_conflicts: Option<u64>,
) -> Result<DetectedTargets, EcoError> {
    if implementation.num_inputs() != specification.num_inputs()
        || implementation.num_outputs() != specification.num_outputs()
    {
        return Err(EcoError::InterfaceMismatch {
            message: "detection requires matching interfaces".into(),
        });
    }
    // Phase 0: already equivalent?
    match check_equivalence(implementation, specification, per_call_conflicts) {
        CecResult::Equivalent => {
            return Ok(DetectedTargets {
                targets: Vec::new(),
                sufficient: true,
            })
        }
        CecResult::Unknown => return Err(EcoError::budget_exhausted("detection CEC")),
        CecResult::Counterexample(_) => {}
    }

    // Phase 1: collect distinguishing patterns (deterministic random
    // words, keeping those that expose a difference).
    let mut seed = 0xDE7E_C700_u64;
    let mut next = move || {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut pattern_sets: Vec<Vec<u64>> = Vec::new();
    for _ in 0..PATTERN_WORDS {
        let words: Vec<u64> = (0..implementation.num_inputs()).map(|_| next()).collect();
        let impl_out = implementation.simulate_outputs(&words);
        let spec_out = specification.simulate_outputs(&words);
        if impl_out != spec_out {
            pattern_sets.push(words);
        }
    }
    // No random pattern distinguishes: fall back to scoring everything
    // equally (rare for real differences) — the QBF oracle still guides.
    // Phase 2: score candidates by single-flip repair power.
    let spec_per_pattern: Vec<Vec<u64>> = pattern_sets
        .iter()
        .map(|w| specification.simulate_outputs(w))
        .collect();
    let mut scored: Vec<(u64, NodeId)> = Vec::new();
    for id in implementation.iter_nodes() {
        if !implementation.is_and(id) {
            continue;
        }
        let mut score = 0u64;
        for (words, spec_out) in pattern_sets.iter().zip(&spec_per_pattern) {
            score += flip_repairs(implementation, id, words, spec_out);
        }
        if score > 0 {
            scored.push((score, id));
        }
    }
    scored.sort_by_key(|&(score, id)| (std::cmp::Reverse(score), id));
    scored.truncate(MAX_CANDIDATES);
    if scored.is_empty() {
        // Nothing repairable by a single flip: seed with the highest
        // fanout-cone nodes feeding differing outputs.
        for id in implementation.iter_nodes() {
            if implementation.is_and(id) {
                scored.push((0, id));
            }
        }
        scored.truncate(MAX_CANDIDATES);
    }

    // Phase 3: greedy growth with the QBF oracle.
    let mut targets: Vec<NodeId> = Vec::new();
    for &(_, candidate) in &scored {
        if targets.len() >= MAX_TARGETS {
            break;
        }
        targets.push(candidate);
        let problem = EcoProblem::with_unit_weights(
            implementation.clone(),
            specification.clone(),
            targets.clone(),
        )?;
        match check_targets_sufficient(&problem, QBF_MAX_ITERATIONS, per_call_conflicts) {
            QbfOutcome::Solvable { .. } => {
                return Ok(DetectedTargets {
                    targets,
                    sufficient: true,
                })
            }
            QbfOutcome::Unsolvable { .. } => {} // keep growing
            QbfOutcome::Unknown => return Err(EcoError::budget_exhausted("detection QBF")),
        }
    }
    Ok(DetectedTargets {
        targets,
        sufficient: false,
    })
}

/// Number of the 64 patterns in `words` on which flipping node `flip`
/// makes every implementation output match `spec_out`.
fn flip_repairs(implementation: &Aig, flip: NodeId, words: &[u64], spec_out: &[u64]) -> u64 {
    let base = implementation.simulate(words);
    // Re-simulate with the node's word complemented; only the TFO can
    // change but a full pass is simple and cache-friendly.
    let mut patched: Vec<u64> = Vec::with_capacity(base.len());
    for id in implementation.iter_nodes() {
        let w = if id == flip {
            !base[id.index()]
        } else {
            match implementation.node(id) {
                AigNode::Const0 => 0,
                AigNode::Input { index } => words[index as usize],
                AigNode::And { f0, f1 } => {
                    let a =
                        patched[f0.node().index()] ^ if f0.is_complement() { u64::MAX } else { 0 };
                    let b =
                        patched[f1.node().index()] ^ if f1.is_complement() { u64::MAX } else { 0 };
                    a & b
                }
            }
        };
        patched.push(w);
    }
    // Pattern p is "repaired" when, for every output, patched == spec,
    // and was broken before.
    let mut repaired_mask = u64::MAX;
    let mut broken_mask = 0u64;
    for (o, &out) in implementation.outputs().iter().enumerate() {
        let inv = if out.is_complement() { u64::MAX } else { 0 };
        let impl_base = base[out.node().index()] ^ inv;
        let impl_patched = patched[out.node().index()] ^ inv;
        repaired_mask &= !(impl_patched ^ spec_out[o]);
        broken_mask |= impl_base ^ spec_out[o];
    }
    (repaired_mask & broken_mask).count_ones() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EcoEngine, EcoOptions};

    #[test]
    fn equivalent_circuits_need_no_targets() {
        let mut im = Aig::new();
        let a = im.add_input();
        let b = im.add_input();
        let t = im.and(a, b);
        im.add_output(t);
        let sp = im.clone();
        let found = detect_targets(&im, &sp, None).expect("detect");
        assert!(found.sufficient);
        assert!(found.targets.is_empty());
    }

    #[test]
    fn detects_single_injected_bug() {
        use eco_benchgen_shim::*;
        let (im, sp, injected) = injected_instance(40, 1, 77);
        let found = detect_targets(&im, &sp, None).expect("detect");
        assert!(found.sufficient, "detected set must be sufficient");
        // The detected set need not equal the injected one, but the full
        // flow must produce a verified patch.
        let problem = EcoProblem::with_unit_weights(im, sp, found.targets).expect("valid");
        let outcome = EcoEngine::new(EcoOptions::default())
            .solve(&problem.snapshot())
            .expect("run");
        assert!(outcome.verified);
        let _ = injected;
    }

    #[test]
    fn detects_multi_bug_set() {
        use eco_benchgen_shim::*;
        let (im, sp, _) = injected_instance(80, 2, 5);
        let found = detect_targets(&im, &sp, None).expect("detect");
        assert!(found.sufficient);
        assert!(!found.targets.is_empty());
        let problem = EcoProblem::with_unit_weights(im, sp, found.targets).expect("valid");
        let outcome = EcoEngine::new(EcoOptions::default())
            .solve(&problem.snapshot())
            .expect("run");
        assert!(outcome.verified);
    }

    #[test]
    fn interface_mismatch_is_rejected() {
        let mut im = Aig::new();
        im.add_input();
        let sp = Aig::new();
        assert!(matches!(
            detect_targets(&im, &sp, None),
            Err(EcoError::InterfaceMismatch { .. })
        ));
    }

    /// Minimal local ECO injection (eco-benchgen depends on eco-core, so
    /// tests here rebuild the essentials).
    mod eco_benchgen_shim {
        use super::super::*;
        use eco_aig::{AigLit, NodePatch};
        use std::collections::HashMap;

        fn mix(seed: &mut u64) -> u64 {
            *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        pub fn injected_instance(gates: usize, bugs: usize, seed: u64) -> (Aig, Aig, Vec<NodeId>) {
            let mut s = seed;
            let mut im = Aig::new();
            let inputs: Vec<AigLit> = (0..8).map(|_| im.add_input()).collect();
            let mut pool = inputs.clone();
            while im.num_ands() < gates {
                let a =
                    pool[(mix(&mut s) as usize) % pool.len()].xor_complement(mix(&mut s) & 1 == 1);
                let b =
                    pool[(mix(&mut s) as usize) % pool.len()].xor_complement(mix(&mut s) & 1 == 1);
                let g = im.and(a, b);
                if !g.is_const() {
                    pool.push(g);
                }
            }
            for k in 0..4 {
                im.add_output(pool[pool.len() - 1 - k]);
            }
            // Choose bug nodes among ANDs feeding outputs.
            let tfi = im.tfi_mask(im.outputs().iter().map(|o| o.node()).collect::<Vec<_>>());
            let cands: Vec<NodeId> = im.iter_ands().filter(|n| tfi[n.index()]).collect();
            let fanouts = im.fanouts();
            let mut targets = Vec::new();
            let mut guard = 0;
            while targets.len() < bugs && guard < 200 {
                guard += 1;
                let t = cands[(mix(&mut s) as usize) % cands.len()];
                if !targets.contains(&t) {
                    targets.push(t);
                }
            }
            let tfo = im.tfo_mask(targets.iter().copied(), &fanouts);
            let eligible: Vec<NodeId> = im
                .iter_nodes()
                .filter(|&n| n != NodeId::CONST0 && !tfo[n.index()])
                .collect();
            let mut patches = HashMap::new();
            for &t in &targets {
                let d1 = eligible[(mix(&mut s) as usize) % eligible.len()];
                let d2 = eligible[(mix(&mut s) as usize) % eligible.len()];
                let mut p = Aig::new();
                let x = p.add_input();
                let y = p.add_input();
                let o = p.xor(x, y);
                p.add_output(o);
                patches.insert(
                    t,
                    NodePatch {
                        aig: p,
                        support: vec![d1.lit(), d2.lit()],
                    },
                );
            }
            let sp = im.substitute(&patches).expect("acyclic");
            (im, sp, targets)
        }
    }
}
