//! Timing of the three Table 1 method columns on representative suite
//! units (single/multi target, small/large) at reduced scale, so the
//! bench finishes in minutes while preserving the methods' relative
//! runtimes (the paper's `1x / 2.12x / 19.31x` geomean shape).

use eco_bench::{options_for, timing::bench};
use eco_benchgen::{build_unit, table1_units};
use eco_core::{EcoEngine, SupportMethod};

fn main() {
    let units = table1_units(0.02);
    // unit2 (single target), unit9 (4 targets), unit17 (8 targets).
    let picks = [1usize, 8, 16];
    for &i in &picks {
        let unit = units[i].clone();
        let problem = build_unit(&unit);
        for (name, method) in [
            ("analyze_final", SupportMethod::AnalyzeFinal),
            ("minimize_assumptions", SupportMethod::MinimizeAssumptions),
            ("sat_prune_cegar_min", SupportMethod::SatPrune),
        ] {
            let engine = EcoEngine::new(options_for(method, Some(500_000)));
            bench(&format!("table1/{name}/{}", unit.name), 10, || {
                let out = engine.solve(&problem).expect("engine run");
                out.total_cost
            });
        }
    }
}
