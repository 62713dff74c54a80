//! Robustness property test: under random tiny budgets, random
//! fault-injection schedules, and random small problems, the engine never panics — every run returns either an
//! anytime outcome with a disposition per target or a typed
//! `EcoError`, and the event stream keeps its LIFO span discipline.

use eco_patch::benchgen::{inject_eco, random_aig, CircuitSpec, InjectSpec};
use eco_patch::core::trace::{check_span_integrity, JsonlTraceObserver};
use eco_patch::core::{
    EcoEngine, EcoObserver, EcoOptions, EcoProblem, FaultPlan, GovernorLimits, ResourceGovernor,
    SupportMethod, TargetDisposition,
};
use eco_testutil::{cases, Rng};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

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
    let limits = GovernorLimits {
        global_conflicts: if rng.bool() {
            Some(rng.below(200))
        } else {
            None
        },
        global_propagations: if rng.below(4) == 0 {
            Some(rng.below(2000))
        } else {
            None
        },
        // Already expired or expiring mid-run. Wall-clock dependent,
        // so assertions below stay timing-agnostic.
        timeout: if rng.below(4) == 0 {
            Some(Duration::from_millis(rng.below(3)))
        } else {
            None
        },
        fault_plan: random_fault_plan(rng),
    };
    let options = EcoOptions::builder()
        .method(method)
        .per_call_conflicts(per_call_conflicts)
        .cegar_min(rng.bool())
        .structural_fallback(rng.bool())
        .verify(rng.bool())
        .build();
    (options, limits)
}

/// Builds a random small multi-target problem, or `None` when the
/// random circuit is too small to carry the requested targets.
fn random_problem(rng: &mut Rng) -> Option<(EcoProblem, usize)> {
    let spec = CircuitSpec {
        num_inputs: rng.range(3, 9) as usize,
        num_outputs: rng.range(1, 4) as usize,
        num_gates: rng.range(10, 60) as usize,
        seed: rng.below(1000),
    };
    let num_targets = rng.range(1, 4) as usize;
    let implementation = random_aig(&spec);
    let injected = inject_eco(
        &implementation,
        &InjectSpec {
            num_targets,
            seed: spec.seed,
        },
    )?;
    let expected_targets = injected.targets.len();
    let problem =
        EcoProblem::with_unit_weights(implementation, injected.specification, injected.targets)
            .expect("valid problem");
    Some((problem, expected_targets))
}

#[test]
fn engine_is_total_under_chaos() {
    cases(48, |case, rng| {
        let Some((problem, expected_targets)) = random_problem(rng) else {
            return; // circuit too small for that many targets
        };
        let (options, limits) = random_run(rng);
        // The property: `run` is total. No panic, and the result is
        // either an anytime outcome covering every target or a typed
        // error that renders.
        let engine = EcoEngine::new(options).with_governor(ResourceGovernor::new(limits));
        match engine.solve(&problem.snapshot()) {
            Ok(outcome) => {
                assert_eq!(
                    outcome.reports.len(),
                    expected_targets,
                    "case {case}: every target needs a disposition"
                );
                for report in &outcome.reports {
                    match &report.disposition {
                        TargetDisposition::Patched | TargetDisposition::Degraded => {}
                        TargetDisposition::Skipped { reason } => {
                            assert!(!reason.is_empty(), "case {case}: skip needs a reason");
                        }
                        other => panic!("case {case}: unexpected disposition {other:?}"),
                    }
                }
                if outcome.verified {
                    // A verified claim must be backed by real patches.
                    assert!(
                        outcome.reports.iter().all(|r| r.disposition.is_patched()
                            || r.disposition == TargetDisposition::Degraded),
                        "case {case}: verified outcome cannot contain skips"
                    );
                }
            }
            Err(e) => {
                // Typed and displayable is all we ask of the error path.
                assert!(!e.to_string().is_empty(), "case {case}");
            }
        }
    });
}

#[test]
fn chaos_keeps_trace_span_discipline() {
    // Same chaos as above, but with a JSONL trace attached: whatever
    // the governor and fault plan do to the ladder, the event stream
    // must stay a valid LIFO span tree (aborted runs may leave spans
    // open, but never close them out of order).
    cases(32, |case, rng| {
        let Some((problem, expected_targets)) = random_problem(rng) else {
            return;
        };
        let (options, limits) = random_run(rng);
        let trace = Arc::new(Mutex::new(JsonlTraceObserver::new(Vec::new())));
        let engine = EcoEngine::new(options)
            .with_governor(ResourceGovernor::new(limits))
            .with_shared_observer(trace.clone() as Arc<Mutex<dyn EcoObserver + Send>>);
        let result = engine.solve(&problem.snapshot());
        drop(engine);
        let writer = Arc::try_unwrap(trace)
            .unwrap_or_else(|_| panic!("case {case}: engine still holds the trace observer"))
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .finish()
            .expect("in-memory trace write");
        let text = String::from_utf8(writer).expect("traces are UTF-8");
        check_span_integrity(&text).unwrap_or_else(|e| {
            panic!("case {case}: span integrity violated: {e}\ntrace:\n{text}")
        });
        if let Ok(outcome) = result {
            assert_eq!(
                outcome.reports.len(),
                expected_targets,
                "case {case}: anytime outcome must cover every target"
            );
        }
    });
}
