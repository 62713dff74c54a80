//! Ablation E — `CEGAR_min` on structural patches: Table 1's units
//! 6/10/11/19 are solved structurally (SAT timed out), and the paper
//! shows `CEGAR_min` improving both cost and patch size there.
//!
//! We force the structural path with a zero main-SAT budget (the
//! paper's timeout) on those units and compare raw structural patches
//! against `CEGAR_min`-improved ones.
//!
//! Usage: `cargo run --release -p eco-bench --bin ablation_cegar_min [SCALE]`

use eco_benchgen::{build_unit, table1_units};
use eco_core::{check_equivalence, CecResult, EcoEngine, EcoOptions};

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.05);
    // Table 1's structurally solved units (1-based 6, 10, 11, 19).
    let structural_units = [5usize, 9, 10, 18];
    let units = table1_units(scale);
    println!(
        "{:<8} | {:>10} {:>8} | {:>10} {:>8} | {:>9} {:>9}",
        "unit", "cost", "gates", "cost", "gates", "cost red.", "gate red."
    );
    println!(
        "{:<8} | {:^19} | {:^19} |",
        "", "structural", "structural+CEGAR_min"
    );
    for &i in &structural_units {
        let unit = &units[i];
        let problem = build_unit(unit);
        let mut results = Vec::new();
        for cegar in [false, true] {
            let options = EcoOptions::builder()
                .per_call_conflicts(Some(0)) // force the structural path
                .cegar_min(cegar)
                .verify(false)
                .build();
            let engine = EcoEngine::new(options);
            let out = engine.solve(&problem).expect("structural run");
            let cec = check_equivalence(&out.patched_implementation, &problem.specification, None);
            assert_eq!(
                cec,
                CecResult::Equivalent,
                "{}: patch must verify",
                unit.name
            );
            results.push((out.total_cost, out.total_gates));
        }
        let (c0, g0) = results[0];
        let (c1, g1) = results[1];
        let red = |a: usize, b: usize| {
            if a == 0 {
                0.0
            } else {
                100.0 * (a as f64 - b as f64) / a as f64
            }
        };
        println!(
            "{:<8} | {:>10} {:>8} | {:>10} {:>8} | {:>8.1}% {:>8.1}%",
            unit.name,
            c0,
            g0,
            c1,
            g1,
            red(c0 as usize, c1 as usize),
            red(g0, g1)
        );
    }
    println!("\npaper's observation: both cost and size of structural patches");
    println!("improve under CEGAR_min (units 6, 10, 11, 19 of Table 1).");
}
