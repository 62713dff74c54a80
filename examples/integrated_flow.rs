//! The integrated ECO flow the paper names as future work: target
//! *detection* followed by patch computation. Given only the old
//! implementation and the new specification (no rectification points),
//! detect a sufficient target set, then patch and verify.
//!
//! Run with: `cargo run --release --example integrated_flow`

use eco_benchgen::{inject_eco, random_aig, CircuitSpec, InjectSpec};
use eco_core::{detect_targets, EcoEngine, EcoOptions, EcoProblem};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An engineer changed the spec; we only have the two netlists.
    let implementation = random_aig(&CircuitSpec {
        num_inputs: 12,
        num_outputs: 6,
        num_gates: 280,
        seed: 77,
    });
    let injected = inject_eco(
        &implementation,
        &InjectSpec {
            num_targets: 2,
            seed: 13,
        },
    )
    .expect("injection succeeds");
    let specification = injected.specification;
    println!(
        "implementation: {} gates; specification changed somewhere (truth withheld: {:?})",
        implementation.num_ands(),
        injected.targets
    );

    // Phase 1: find where to patch, under the engine's per-call budget.
    let budget = EcoOptions::default().per_call_conflicts;
    let detected = detect_targets(&implementation, &specification, budget)?;
    println!(
        "detected {} target(s): {:?} (certified sufficient: {})",
        detected.targets.len(),
        detected.targets,
        detected.sufficient
    );

    // Phase 2: compute and verify the patches.
    let problem = EcoProblem::with_unit_weights(implementation, specification, detected.targets)?;
    let outcome = EcoEngine::new(EcoOptions::default()).solve(&problem)?;
    println!("patched and verified: {}", outcome.verified);
    for r in &outcome.reports {
        println!(
            "  target #{}: {:?}, support={}, cost={}, gates={}",
            r.target_index, r.kind, r.support_size, r.cost, r.gates
        );
    }
    Ok(())
}
