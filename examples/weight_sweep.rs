//! Resource-aware behaviour: the same functional ECO solved under the
//! contest's eight weight distributions T1–T8. The chosen patch support
//! (and its cost) shifts with the pricing of the circuit's signals.
//!
//! Run with: `cargo run --release --example weight_sweep`

use eco_benchgen::{inject_eco, random_aig, CircuitSpec, InjectSpec};
use eco_core::{
    generate_weights, EcoEngine, EcoOptions, EcoProblem, SupportMethod, WeightDistribution,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let implementation = random_aig(&CircuitSpec {
        num_inputs: 16,
        num_outputs: 8,
        num_gates: 350,
        seed: 2024,
    });
    let injected = inject_eco(
        &implementation,
        &InjectSpec {
            num_targets: 2,
            seed: 7,
        },
    )
    .expect("injection succeeds on this shape");
    println!(
        "instance: {} gates, {} targets; solving under all weight distributions\n",
        implementation.num_ands(),
        injected.targets.len()
    );

    println!(
        "{:<6} {:>10} {:>8} {:>8}",
        "dist", "cost", "support", "gates"
    );
    for dist in WeightDistribution::ALL {
        let weights = generate_weights(&implementation, dist, 99);
        let problem = EcoProblem::new(
            implementation.clone(),
            injected.specification.clone(),
            injected.targets.clone(),
            weights,
        )?;
        let engine = EcoEngine::new(
            EcoOptions::builder()
                .method(SupportMethod::MinimizeAssumptions)
                .build(),
        );
        let outcome = engine.solve(&problem.snapshot())?;
        assert!(outcome.verified);
        let support: usize = outcome.reports.iter().map(|r| r.support_size).sum();
        println!(
            "{:<6} {:>10} {:>8} {:>8}",
            format!("{dist:?}"),
            outcome.total_cost,
            support,
            outcome.total_gates
        );
    }
    Ok(())
}
