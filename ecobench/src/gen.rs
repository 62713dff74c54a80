//! Seeded generation of daemon-stream instances. The program under test
//! only ever sees the Verilog and weight text rendered here; the same
//! seed always renders the same text.

use eco_aig::{Aig, AigLit, NodeId, NodePatch};
use eco_benchgen::{
    inject_eco, random_aig, render_unit, CircuitSpec, InjectSpec, SplitMix64, UnitFiles, UnitSpec,
};
use eco_core::{generate_weights, EcoProblem};
use std::collections::HashMap;

/// A daemon-stream instance: an implementation with fixed targets and
/// weights, plus one replacement-function seed per target. The
/// specification is the implementation with every target rewritten by
/// the function its seed draws, so a one-target spec revision is a
/// change of one seed while implementation, targets and weights stay.
#[derive(Clone, Debug)]
pub struct Instance {
    unit: UnitSpec,
    implementation: Aig,
    targets: Vec<NodeId>,
    weights: Vec<u64>,
    /// Replacement-support candidates: nodes outside every target's
    /// transitive fanout, so no rewrite can create a cycle.
    eligible: Vec<NodeId>,
    function_seeds: Vec<u64>,
    files: UnitFiles,
}

impl Instance {
    /// A fresh instance of `unit`'s shape.
    pub fn fresh(unit: &UnitSpec, rng: &mut SplitMix64) -> Instance {
        loop {
            let seed = rng.next_u64();
            let implementation = random_aig(&CircuitSpec {
                num_inputs: unit.num_inputs,
                num_outputs: unit.num_outputs,
                num_gates: unit.num_gates,
                seed,
            });
            let Some(injected) = inject_eco(
                &implementation,
                &InjectSpec {
                    num_targets: unit.num_targets,
                    seed: seed ^ 0xABCD,
                },
            ) else {
                continue;
            };
            let fanouts = implementation.fanouts();
            let tfo = implementation.tfo_mask(injected.targets.iter().copied(), &fanouts);
            let eligible: Vec<NodeId> = implementation
                .iter_nodes()
                .filter(|&id| id != NodeId::CONST0 && !tfo[id.index()])
                .collect();
            if eligible.len() < 3 {
                continue;
            }
            let weights = generate_weights(&implementation, unit.weights, seed ^ 0x77);
            let function_seeds = injected.targets.iter().map(|_| rng.next_u64()).collect();
            let candidate = Instance {
                unit: unit.clone(),
                implementation,
                targets: injected.targets,
                weights,
                eligible,
                function_seeds,
                files: empty_files(),
            };
            if let Some(instance) = candidate.rendered(None) {
                return instance;
            }
        }
    }

    /// A one-target spec revision: re-draws one target's function.
    pub fn revised(&self, rng: &mut SplitMix64) -> Instance {
        loop {
            let mut next = self.clone();
            let k = rng.below(next.targets.len());
            next.function_seeds[k] = rng.next_u64();
            if let Some(instance) = next.rendered(Some(&self.files.specification)) {
                return instance;
            }
        }
    }

    /// The rendered request files.
    pub fn files(&self) -> &UnitFiles {
        &self.files
    }

    /// Renders the instance, or `None` when the drawn specification is
    /// not observably different from the implementation or renders the
    /// same text as `previous_spec`.
    fn rendered(mut self, previous_spec: Option<&str>) -> Option<Instance> {
        let patches: HashMap<NodeId, NodePatch> = self
            .targets
            .iter()
            .zip(&self.function_seeds)
            .map(|(&t, &s)| (t, draw_function(&self.eligible, s)))
            .collect();
        let specification = self.implementation.substitute(&patches).ok()?;
        if !differs(&self.implementation, &specification) {
            return None;
        }
        let problem = EcoProblem::new(
            self.implementation.clone(),
            specification,
            self.targets.clone(),
            self.weights.clone(),
        )
        .ok()?;
        let files = render_unit(&self.unit, &problem);
        if previous_spec == Some(files.specification.as_str()) {
            return None;
        }
        self.files = files;
        Some(self)
    }
}

fn empty_files() -> UnitFiles {
    UnitFiles {
        implementation: String::new(),
        specification: String::new(),
        weights: String::new(),
        target_nets: Vec::new(),
    }
}

/// A small random replacement function over 2–3 eligible signals, the
/// same family of rewrites the suite generator injects.
fn draw_function(eligible: &[NodeId], seed: u64) -> NodePatch {
    let mut rng = SplitMix64::new(seed);
    let arity = 2 + rng.below(2);
    let mut support: Vec<AigLit> = Vec::new();
    while support.len() < arity {
        let s = eligible[rng.below(eligible.len())]
            .lit()
            .xor_complement(rng.flip());
        if !support.iter().any(|x| x.node() == s.node()) {
            support.push(s);
        }
    }
    let mut aig = Aig::new();
    let ins: Vec<AigLit> = support.iter().map(|_| aig.add_input()).collect();
    let mut acc = ins[0];
    for &i in &ins[1..] {
        acc = match rng.below(3) {
            0 => aig.and(acc, i),
            1 => aig.or(acc, i),
            _ => aig.xor(acc, i),
        };
    }
    if rng.flip() {
        acc = !acc;
    }
    aig.add_output(acc);
    NodePatch { aig, support }
}

/// Whether 512 random patterns tell `a` and `b` apart.
fn differs(a: &Aig, b: &Aig) -> bool {
    let mut rng = SplitMix64::new(0x51D_CAFE);
    (0..8).any(|_| {
        let words: Vec<u64> = (0..a.num_inputs()).map(|_| rng.next_u64()).collect();
        a.simulate_outputs(&words) != b.simulate_outputs(&words)
    })
}
