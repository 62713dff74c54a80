//! The structural path (Sec. 3.6 of the paper): when SAT budgets run
//! out, the engine derives the patch as the miter cofactor `M(0, x)`
//! over primary inputs, and `CEGAR_min` (max-flow/min-cut
//! resubstitution) rewrites it over cheap internal signals.
//!
//! We emulate the paper's timeouts with a zero conflict budget, then
//! compare the raw structural patch against the `CEGAR_min`-improved
//! one — the same comparison as units 6/10/11/19 of Table 1.
//!
//! Run with: `cargo run --release --example structural_fallback`

use eco_benchgen::{inject_eco, random_aig, CircuitSpec, InjectSpec};
use eco_core::{check_equivalence, CecResult, EcoEngine, EcoOptions, EcoProblem, PatchKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let implementation = random_aig(&CircuitSpec {
        num_inputs: 14,
        num_outputs: 6,
        num_gates: 260,
        seed: 4242,
    });
    let injected = inject_eco(
        &implementation,
        &InjectSpec {
            num_targets: 2,
            seed: 3,
        },
    )
    .expect("injection succeeds");
    let problem =
        EcoProblem::with_unit_weights(implementation, injected.specification, injected.targets)?;

    println!(
        "{:<24} {:>8} {:>8} {:>10}",
        "variant", "cost", "gates", "kinds"
    );
    for (name, cegar_min) in [("structural", false), ("structural+CEGAR_min", true)] {
        // Zero budget: every SAT phase times out immediately, forcing
        // the structural path (the paper's timeout behaviour).
        let options = EcoOptions::builder()
            .per_call_conflicts(Some(0))
            .cegar_min(cegar_min)
            .verify(false) // no budget to verify in-run; we check below
            .build();
        let engine = EcoEngine::new(options);
        let outcome = engine.solve(&problem)?;
        // Out-of-band verification with a real budget.
        let cec = check_equivalence(
            &outcome.patched_implementation,
            &problem.specification,
            None,
        );
        assert_eq!(
            cec,
            CecResult::Equivalent,
            "structural patch must be correct"
        );
        let kinds: Vec<PatchKind> = outcome.reports.iter().map(|r| r.kind).collect();
        println!(
            "{:<24} {:>8} {:>8} {:>10}",
            name,
            outcome.total_cost,
            outcome.total_gates,
            format!("{kinds:?}")
        );
    }
    println!("\nCEGAR_min rewrites the PI-level cofactor patch over internal");
    println!("signals chosen by a min-weight node cut, shrinking both the");
    println!("resource cost and the patch itself.");
    Ok(())
}
