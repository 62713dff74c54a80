//! Overhead of the observability layer: the same engine run with no
//! observer attached, with a `NullObserver` (event payloads built and
//! delivered to a sink that drops them), and with the full
//! `MetricsObserver` aggregation. The no-observer and NullObserver
//! columns should be indistinguishable from run-to-run noise; the
//! metrics column bounds the cost of `--stats-json`.

use eco_bench::{options_for, timing::bench};
use eco_benchgen::{build_unit, table1_units};
use eco_core::{EcoEngine, NullObserver, SupportMethod};

fn main() {
    let units = table1_units(0.02);
    // unit2 (single target) and unit9 (4 targets).
    for &i in &[1usize, 8] {
        let unit = units[i].clone();
        let problem = build_unit(&unit);
        let options = options_for(SupportMethod::MinimizeAssumptions, Some(500_000));

        let plain = EcoEngine::new(options.clone());
        let baseline = bench(&format!("observer/none/{}", unit.name), 10, || {
            plain.solve(&problem).expect("engine run").total_cost
        });

        let null = EcoEngine::new(options.clone()).with_observer(NullObserver);
        let nulled = bench(&format!("observer/null/{}", unit.name), 10, || {
            null.solve(&problem).expect("engine run").total_cost
        });

        let metered = EcoEngine::new(options).with_metrics();
        bench(&format!("observer/metrics/{}", unit.name), 10, || {
            let out = metered.solve(&problem).expect("engine run");
            out.metrics.as_ref().map(|m| m.sat_calls.total).unwrap_or(0)
        });

        let ratio = nulled.mean.as_secs_f64() / baseline.mean.as_secs_f64().max(1e-12);
        println!("  null/none mean ratio: {ratio:.3} (expect ~1.0)");
    }
}
