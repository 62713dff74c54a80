//! Multi-target ECO on a synthetic contest-sized instance, comparing
//! the three support-computation methods of the paper's Table 1:
//! the `analyze_final` baseline, `minimize_assumptions`, and
//! `SAT_prune`.
//!
//! Run with: `cargo run --release --example multi_target_eco`

use eco_benchgen::{build_unit, table1_units};
use eco_core::{check_targets_sufficient, EcoEngine, EcoOptions, QbfOutcome, SupportMethod};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // unit9 of the suite: 4 targets — small enough to run in seconds at
    // reduced scale, large enough to show the method gap.
    let spec = table1_units(0.05).into_iter().nth(8).expect("unit9 exists");
    let problem = build_unit(&spec);
    println!(
        "{}: {} inputs, {} outputs, {} gates, {} targets, weights {:?}",
        spec.name,
        problem.num_inputs(),
        problem.num_outputs(),
        problem.implementation.num_ands(),
        problem.targets.len(),
        spec.weights,
    );

    // The QBF sufficiency check also yields the certificate assignments
    // used to reduce the cofactor expansion (Sec. 3.6.2 of the paper).
    match check_targets_sufficient(&problem, 512, None) {
        QbfOutcome::Solvable {
            certificates,
            sat_calls,
        } => println!(
            "targets sufficient: {} certificate assignments (vs {} full cofactors), {} SAT calls",
            certificates.len(),
            (1usize << problem.targets.len()) - 1,
            sat_calls
        ),
        other => println!("unexpected sufficiency outcome: {other:?}"),
    }

    println!(
        "{:<22} {:>8} {:>8} {:>10} {:>10}",
        "method", "cost", "gates", "SAT calls", "time"
    );
    for (name, method) in [
        ("analyze_final", SupportMethod::AnalyzeFinal),
        ("minimize_assumptions", SupportMethod::MinimizeAssumptions),
        ("SAT_prune", SupportMethod::SatPrune),
    ] {
        let engine = EcoEngine::new(EcoOptions::builder().method(method).build());
        let t = std::time::Instant::now();
        let outcome = engine.solve(&problem)?;
        assert!(
            outcome.verified,
            "every method must produce a verified patch"
        );
        let calls: u64 = outcome.reports.iter().map(|r| r.sat_calls).sum();
        println!(
            "{:<22} {:>8} {:>8} {:>10} {:>10.2?}",
            name,
            outcome.total_cost,
            outcome.total_gates,
            calls,
            t.elapsed()
        );
    }
    Ok(())
}
