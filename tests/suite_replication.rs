//! Integration tests over the synthetic suite: the engine must solve
//! and verify every unit at test scale, across methods, and the
//! Table 1 trend (minimize_assumptions ≤ baseline cost on geomean)
//! must hold.

use eco_patch::benchgen::{build_unit, table1_units};
use eco_patch::core::{EcoEngine, EcoOptions, SupportMethod};

const TEST_SCALE: f64 = 0.02;

#[test]
fn all_units_solve_and_verify_with_minimize_assumptions() {
    for (i, unit) in table1_units(TEST_SCALE).iter().enumerate() {
        let problem = build_unit(unit);
        let engine = EcoEngine::new(
            EcoOptions::builder()
                .method(SupportMethod::MinimizeAssumptions)
                .build(),
        );
        let outcome = engine
            .solve(&problem.snapshot())
            .unwrap_or_else(|e| panic!("{} failed: {e}", unit.name));
        assert!(outcome.verified, "{} (index {i}) did not verify", unit.name);
        assert_eq!(
            outcome.reports.len(),
            unit.num_targets,
            "{}: one report per target",
            unit.name
        );
    }
}

#[test]
fn single_target_units_solve_with_analyze_final_baseline() {
    for unit in table1_units(TEST_SCALE)
        .iter()
        .filter(|u| u.num_targets == 1)
    {
        let problem = build_unit(unit);
        let engine = EcoEngine::new(
            EcoOptions::builder()
                .method(SupportMethod::AnalyzeFinal)
                .build(),
        );
        let outcome = engine
            .solve(&problem.snapshot())
            .unwrap_or_else(|e| panic!("{} failed: {e}", unit.name));
        assert!(outcome.verified, "{}", unit.name);
    }
}

#[test]
fn minimize_assumptions_beats_baseline_on_geomean_cost() {
    let mut log_ratio_sum = 0.0;
    let mut count = 0;
    for unit in table1_units(TEST_SCALE).iter().take(12) {
        let problem = build_unit(unit);
        let run = |method| {
            EcoEngine::new(EcoOptions::builder().method(method).build())
                .solve(&problem.snapshot())
                .map(|o| o.total_cost)
                .unwrap_or(u64::MAX)
        };
        let baseline = run(SupportMethod::AnalyzeFinal);
        let minimized = run(SupportMethod::MinimizeAssumptions);
        if baseline > 0 && baseline != u64::MAX && minimized > 0 {
            log_ratio_sum += (minimized as f64 / baseline as f64).ln();
            count += 1;
        }
    }
    assert!(count >= 5, "need enough comparable units, got {count}");
    let geomean = (log_ratio_sum / count as f64).exp();
    // The paper reports 0.26; on small synthetic units we only require
    // a clear improvement.
    assert!(
        geomean < 0.9,
        "minimize_assumptions should beat the baseline (geomean {geomean:.2})"
    );
}

#[test]
fn multi_target_units_solve_with_sat_prune() {
    for unit in table1_units(TEST_SCALE)
        .iter()
        .filter(|u| u.num_targets >= 2 && u.num_targets <= 4)
        .take(3)
    {
        let problem = build_unit(unit);
        let engine = EcoEngine::new(
            EcoOptions::builder()
                .method(SupportMethod::SatPrune)
                .build(),
        );
        let outcome = engine
            .solve(&problem.snapshot())
            .unwrap_or_else(|e| panic!("{} failed: {e}", unit.name));
        assert!(outcome.verified, "{}", unit.name);
    }
}

#[test]
fn structural_path_verifies_on_every_unit() {
    use eco_patch::core::{check_equivalence, CecResult};
    for unit in table1_units(0.015).iter().take(10) {
        let problem = build_unit(unit);
        let options = EcoOptions::builder()
            .per_call_conflicts(Some(0)) // force structural
            .cegar_min(true)
            .verify(false)
            .build();
        let engine = EcoEngine::new(options);
        let outcome = engine
            .solve(&problem.snapshot())
            .unwrap_or_else(|e| panic!("{} failed: {e}", unit.name));
        assert_eq!(
            check_equivalence(
                &outcome.patched_implementation,
                &problem.specification,
                None
            ),
            CecResult::Equivalent,
            "{}: structural patches must be correct",
            unit.name
        );
    }
}
