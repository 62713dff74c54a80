//! ECO injection: derive a *specification* from an implementation by
//! rewriting the local functions of chosen target nodes, producing
//! instances that are solvable by construction (the injected functions
//! are themselves valid patches) with known rectification points —
//! the synthetic stand-in for the contest's old-vs-new netlist pairs.

use crate::rng::SplitMix64;
use eco_aig::{Aig, AigLit, NodeId, NodePatch};
use std::collections::HashMap;

/// Parameters for [`inject_eco`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InjectSpec {
    /// Number of target nodes to rewrite.
    pub num_targets: usize,
    /// Seed for deterministic choices.
    pub seed: u64,
}

/// A generated ECO instance piece: the specification AIG plus the
/// target nodes of the implementation.
#[derive(Clone, Debug)]
pub struct InjectedEco {
    /// The rewritten circuit (the "new specification").
    pub specification: Aig,
    /// The rectification points in the *implementation*.
    pub targets: Vec<NodeId>,
}

/// Rewrites `num_targets` internal nodes of `implementation` with small
/// random replacement functions over signals outside every target's
/// transitive fanout, and returns the result as the specification.
///
/// Guarantees:
///
/// - The instance is solvable: substituting the same replacement
///   functions at the targets rectifies the implementation.
/// - The specification actually differs from the implementation
///   (checked by random simulation; replacement functions are re-drawn
///   until a difference is visible or candidates are exhausted).
///
/// Returns `None` if the circuit is too small to host the requested
/// number of targets.
pub fn inject_eco(implementation: &Aig, spec: &InjectSpec) -> Option<InjectedEco> {
    let mut rng = SplitMix64::new(spec.seed ^ 0xEC0_1A7C);
    let fanouts = implementation.fanouts();
    // Candidate targets: AND nodes that reach at least one output.
    let out_roots: Vec<NodeId> = implementation.outputs().iter().map(|o| o.node()).collect();
    let tfi_of_outputs = implementation.tfi_mask(out_roots);
    let candidates: Vec<NodeId> = implementation
        .iter_ands()
        .filter(|id| tfi_of_outputs[id.index()])
        .collect();
    if candidates.len() < spec.num_targets {
        return None;
    }

    for attempt in 0..32 {
        // Pick distinct targets.
        let mut targets: Vec<NodeId> = Vec::new();
        let mut tries = 0;
        while targets.len() < spec.num_targets && tries < 64 * spec.num_targets + 64 {
            tries += 1;
            let t = candidates[rng.below(candidates.len())];
            if !targets.contains(&t) {
                targets.push(t);
            }
        }
        if targets.len() < spec.num_targets {
            return None;
        }
        // Eligible replacement supports: outside the TFO of every target.
        let tfo = implementation.tfo_mask(targets.iter().copied(), &fanouts);
        let eligible: Vec<NodeId> = implementation
            .iter_nodes()
            .filter(|&id| id != NodeId::CONST0 && !tfo[id.index()])
            .collect();
        if eligible.len() < 2 {
            continue;
        }
        // Build replacement functions.
        let mut patches: HashMap<NodeId, NodePatch> = HashMap::new();
        for &t in &targets {
            let arity = 2 + rng.below(2); // 2..=3 support signals
            let mut support: Vec<AigLit> = Vec::new();
            let mut guard = 0;
            while support.len() < arity && guard < 64 {
                guard += 1;
                let s = eligible[rng.below(eligible.len())]
                    .lit()
                    .xor_complement(rng.flip());
                if !support.iter().any(|x| x.node() == s.node()) {
                    support.push(s);
                }
            }
            let mut paig = Aig::new();
            let ins: Vec<AigLit> = support.iter().map(|_| paig.add_input()).collect();
            // Random small function: fold the inputs with random gates.
            let mut acc = ins[0];
            for &i in &ins[1..] {
                acc = match rng.below(3) {
                    0 => paig.and(acc, i),
                    1 => paig.or(acc, i),
                    _ => paig.xor(acc, i),
                };
            }
            if rng.flip() {
                acc = !acc;
            }
            paig.add_output(acc);
            patches.insert(t, NodePatch { aig: paig, support });
        }
        let Ok(specification) = implementation.substitute(&patches) else {
            continue;
        };
        // The change must be observable: compare by random simulation.
        if differs_by_simulation(implementation, &specification, spec.seed ^ attempt) {
            return Some(InjectedEco {
                specification,
                targets,
            });
        }
    }
    None
}

/// Quick probabilistic difference check via 512 random patterns.
fn differs_by_simulation(a: &Aig, b: &Aig, seed: u64) -> bool {
    let mut rng = SplitMix64::new(seed ^ 0x51D_CAFE);
    for _ in 0..8 {
        let words: Vec<u64> = (0..a.num_inputs()).map(|_| rng.next_u64()).collect();
        if a.simulate_outputs(&words) != b.simulate_outputs(&words) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::randckt::{random_aig, CircuitSpec};

    fn circuit(seed: u64) -> Aig {
        random_aig(&CircuitSpec {
            num_inputs: 10,
            num_outputs: 5,
            num_gates: 200,
            seed,
        })
    }

    #[test]
    fn injection_changes_function() {
        let im = circuit(1);
        let inj = inject_eco(
            &im,
            &InjectSpec {
                num_targets: 2,
                seed: 9,
            },
        )
        .expect("inject");
        assert!(differs_by_simulation(&im, &inj.specification, 123));
        assert_eq!(inj.targets.len(), 2);
    }

    #[test]
    fn instance_is_solvable_by_construction() {
        use eco_core::{EcoEngine, EcoOptions, EcoProblem};
        let im = circuit(2);
        let inj = inject_eco(
            &im,
            &InjectSpec {
                num_targets: 1,
                seed: 4,
            },
        )
        .expect("inject");
        let p = EcoProblem::with_unit_weights(im, inj.specification, inj.targets)
            .expect("valid problem");
        let out = EcoEngine::new(EcoOptions::default())
            .solve(&p)
            .expect("engine");
        assert!(out.verified);
    }

    #[test]
    fn injection_is_deterministic() {
        let im = circuit(3);
        let a = inject_eco(
            &im,
            &InjectSpec {
                num_targets: 2,
                seed: 5,
            },
        )
        .expect("inject");
        let b = inject_eco(
            &im,
            &InjectSpec {
                num_targets: 2,
                seed: 5,
            },
        )
        .expect("inject");
        assert_eq!(a.targets, b.targets);
        assert_eq!(a.specification.to_aag(), b.specification.to_aag());
    }

    #[test]
    fn too_many_targets_is_none() {
        let mut im = Aig::new();
        let a = im.add_input();
        let b = im.add_input();
        let g = im.and(a, b);
        im.add_output(g);
        assert!(inject_eco(
            &im,
            &InjectSpec {
                num_targets: 5,
                seed: 1
            }
        )
        .is_none());
    }

    #[test]
    fn multi_target_instances_remain_interfaced() {
        let im = circuit(7);
        let inj = inject_eco(
            &im,
            &InjectSpec {
                num_targets: 4,
                seed: 8,
            },
        )
        .expect("inject");
        assert_eq!(inj.specification.num_inputs(), im.num_inputs());
        assert_eq!(inj.specification.num_outputs(), im.num_outputs());
    }
}
