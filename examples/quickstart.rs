//! Quickstart: fix a one-gate functional ECO end to end.
//!
//! The old implementation computes `y = a & b`; a late specification
//! change wants `y = a | b`. We mark the AND gate as the rectification
//! target and let the engine compute, apply, and verify the patch.
//!
//! Run with: `cargo run --release --example quickstart`

use eco_aig::Aig;
use eco_core::{EcoEngine, EcoOptions, EcoProblem, SupportMethod};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- The old implementation: y = a & b -----------------------------
    let mut implementation = Aig::new();
    let a = implementation.add_input();
    let b = implementation.add_input();
    let y = implementation.and(a, b);
    implementation.add_output(y);
    let target = y.node();

    // --- The new specification: y = a | b -------------------------------
    let mut specification = Aig::new();
    let a = specification.add_input();
    let b = specification.add_input();
    let y = specification.or(a, b);
    specification.add_output(y);

    // --- Solve the ECO ---------------------------------------------------
    let problem = EcoProblem::with_unit_weights(implementation, specification, vec![target])?;
    let engine = EcoEngine::new(
        EcoOptions::builder()
            .method(SupportMethod::MinimizeAssumptions)
            .build(),
    );
    let outcome = engine.solve(&problem.snapshot())?;

    println!("ECO solved and verified: {}", outcome.verified);
    for report in &outcome.reports {
        println!(
            "  target #{}: {:?}, support={}, cost={}, patch gates={}, cubes={:?}",
            report.target_index,
            report.kind,
            report.support_size,
            report.cost,
            report.gates,
            report.cubes
        );
    }
    println!(
        "patched implementation: {} AND gates (was {})",
        outcome.patched_implementation.num_ands(),
        problem.implementation.num_ands()
    );
    // The patched netlist can be exported for downstream tools:
    println!("--- patched AIG (ASCII AIGER) ---");
    print!("{}", outcome.patched_implementation.to_aag());
    Ok(())
}
