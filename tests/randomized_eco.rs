//! Randomized integration tests: random circuits with injected ECOs
//! must always be solvable, verified, and round-trippable.

use eco_patch::benchgen::{inject_eco, random_aig, CircuitSpec, InjectSpec};
use eco_patch::core::{
    check_targets_sufficient, generate_weights, EcoEngine, EcoOptions, EcoProblem, QbfOutcome,
    SupportMethod, WeightDistribution,
};
use eco_testutil::{cases, Rng};

fn random_instance(rng: &mut Rng) -> (CircuitSpec, usize, u64) {
    let pi = rng.range(4, 14) as usize;
    let po = rng.range(2, 6) as usize;
    let gates = rng.range(40, 160) as usize;
    let targets = rng.range(1, 4) as usize;
    let seed = rng.below(1000);
    (
        CircuitSpec {
            num_inputs: pi,
            num_outputs: po,
            num_gates: gates,
            seed,
        },
        targets,
        seed,
    )
}

#[test]
fn injected_instances_always_solve_and_verify() {
    cases(24, |case, rng| {
        let (spec, num_targets, seed) = random_instance(rng);
        let dist_idx = rng.index(8);
        let implementation = random_aig(&spec);
        let Some(injected) = inject_eco(&implementation, &InjectSpec { num_targets, seed }) else {
            return; // circuit too small for that many targets
        };
        let weights = generate_weights(
            &implementation,
            WeightDistribution::from_index(dist_idx),
            seed,
        );
        let problem = EcoProblem::new(
            implementation,
            injected.specification,
            injected.targets,
            weights,
        )
        .expect("valid problem");
        // The instance is solvable by construction, so the QBF check must
        // agree...
        match check_targets_sufficient(&problem, 1024, None) {
            QbfOutcome::Solvable { .. } => {}
            other => panic!("case {case}: sufficiency check said {other:?}"),
        }
        // ...and the engine must find verified patches.
        let outcome = EcoEngine::new(
            EcoOptions::builder()
                .method(SupportMethod::MinimizeAssumptions)
                .build(),
        )
        .solve(&problem.snapshot())
        .expect("engine solves injected instances");
        assert!(outcome.verified, "case {case}");
        // Cost accounting sanity: the support cost is the sum of reports.
        let sum: u64 = outcome.reports.iter().map(|r| r.cost).sum();
        assert_eq!(sum, outcome.total_cost, "case {case}");
    });
}

#[test]
fn patched_netlists_roundtrip_through_aag() {
    cases(24, |case, rng| {
        let (spec, num_targets, _) = random_instance(rng);
        let seed = spec.seed;
        let implementation = random_aig(&spec);
        let Some(injected) = inject_eco(&implementation, &InjectSpec { num_targets, seed }) else {
            return;
        };
        let problem =
            EcoProblem::with_unit_weights(implementation, injected.specification, injected.targets)
                .expect("valid problem");
        let outcome = EcoEngine::new(EcoOptions::default())
            .solve(&problem.snapshot())
            .expect("engine solves");
        let text = outcome.patched_implementation.to_aag();
        let back = eco_patch::aig::Aig::from_aag(&text).expect("roundtrip");
        use eco_patch::core::{check_equivalence, CecResult};
        assert_eq!(
            check_equivalence(&back, &problem.specification, None),
            CecResult::Equivalent,
            "case {case}"
        );
    });
}
