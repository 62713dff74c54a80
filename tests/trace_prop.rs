//! Trace-integrity property test: every `*Started` event matches a
//! `*Finished` in LIFO order — even when the governor trips mid-run or
//! a fault plan injects `Unknown` results into arbitrary SAT calls.

use eco_patch::benchgen::{inject_eco, random_aig, CircuitSpec, InjectSpec};
use eco_patch::core::trace::{check_span_integrity, summarize_trace, JsonlTraceObserver};
use eco_patch::core::{
    EcoEngine, EcoObserver, EcoOptions, EcoProblem, FaultPlan, GovernorLimits, ResourceGovernor,
    SupportMethod,
};
use eco_testutil::{cases, Rng};
use std::sync::{Arc, Mutex};

fn random_fault_plan(rng: &mut Rng) -> Option<FaultPlan> {
    Some(match rng.below(6) {
        0 => return None,
        1 => FaultPlan::EveryNth(rng.below(5)),
        2 => FaultPlan::AtCalls((0..rng.range(1, 5)).map(|_| rng.range(1, 30)).collect()),
        3 => FaultPlan::Seeded {
            seed: rng.next_u64(),
            one_in: rng.range(1, 6),
        },
        4 => FaultPlan::CancelAt(rng.range(1, 20)),
        _ => FaultPlan::EveryNth(1),
    })
}

/// Random engine options plus random run limits for one case.
fn random_run(rng: &mut Rng) -> (EcoOptions, GovernorLimits) {
    let method = match rng.below(3) {
        0 => SupportMethod::AnalyzeFinal,
        1 => SupportMethod::MinimizeAssumptions,
        _ => SupportMethod::SatPrune,
    };
    let per_call_conflicts = if rng.bool() {
        Some(rng.below(50))
    } else {
        None
    };
    // No timeout: wall-clock chaos is governor_prop's job.
    let limits = GovernorLimits {
        global_conflicts: if rng.bool() {
            Some(rng.below(200))
        } else {
            None
        },
        fault_plan: random_fault_plan(rng),
        ..GovernorLimits::default()
    };
    // Structural fallback stays on so most runs complete and exercise
    // the full span tree; budgets/faults still trip mid-phase.
    let options = EcoOptions::builder()
        .method(method)
        .per_call_conflicts(per_call_conflicts)
        .cegar_min(rng.bool())
        .structural_fallback(true)
        .verify(rng.bool())
        .build();
    (options, limits)
}

#[test]
fn spans_stay_lifo_under_faults_and_trips() {
    cases(48, |case, rng| {
        let spec = CircuitSpec {
            num_inputs: rng.range(3, 9) as usize,
            num_outputs: rng.range(1, 4) as usize,
            num_gates: rng.range(10, 60) as usize,
            seed: rng.below(1000),
        };
        let num_targets = rng.range(1, 4) as usize;
        let implementation = random_aig(&spec);
        let Some(injected) = inject_eco(
            &implementation,
            &InjectSpec {
                num_targets,
                seed: spec.seed,
            },
        ) else {
            return; // circuit too small for that many targets
        };
        let problem =
            EcoProblem::with_unit_weights(implementation, injected.specification, injected.targets)
                .expect("valid problem");
        let (options, limits) = random_run(rng);
        let sink = Arc::new(Mutex::new(JsonlTraceObserver::new(Vec::new())));
        let engine = EcoEngine::new(options)
            .with_governor(ResourceGovernor::new(limits))
            .with_shared_observer(sink.clone() as Arc<Mutex<dyn EcoObserver + Send>>);
        let result = engine.solve(&problem.snapshot());
        drop(engine);
        let bytes = Arc::try_unwrap(sink)
            .unwrap_or_else(|_| panic!("engine dropped"))
            .into_inner()
            .expect("no poison")
            .finish()
            .expect("no io error on Vec sink");
        let text = String::from_utf8(bytes).expect("utf8 trace");

        // The property: whatever the run did — completed, degraded, or
        // errored out mid-phase — the trace is span-balanced.
        check_span_integrity(&text)
            .unwrap_or_else(|e| panic!("case {case}: {e} (run result: {result:?})\n{text}"));

        // And it replays: the summarizer accepts every trace it emits.
        let summary = summarize_trace(&text, 3)
            .unwrap_or_else(|e| panic!("case {case}: summarize failed: {e}"));
        if result.is_ok() {
            assert!(
                summary.run_elapsed_us.is_some(),
                "case {case}: successful runs must record run_finished"
            );
        }
    });
}
