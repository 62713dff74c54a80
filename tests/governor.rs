//! Fault-injection integration tests: drive every edge of the
//! per-target degradation ladder deterministically, and check the
//! governor's anytime guarantees (deadline, cancellation, global
//! budget pool).

use eco_patch::aig::Aig;
use eco_patch::core::{
    check_equivalence, CecResult, EcoEngine, EcoEvent, EcoObserver, EcoOptions, EcoProblem,
    FaultPlan, GovernorLimits, LadderRung, PatchKind, ResourceGovernor, SatCallKind,
    TargetDisposition, TripReason,
};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn and_vs_or_problem() -> EcoProblem {
    let mut im = Aig::new();
    let (a, b) = (im.add_input(), im.add_input());
    let t = im.and(a, b);
    im.add_output(t);
    let t_node = t.node();
    let mut sp = Aig::new();
    let (a, b) = (sp.add_input(), sp.add_input());
    let o = sp.or(a, b);
    sp.add_output(o);
    EcoProblem::with_unit_weights(im, sp, vec![t_node]).expect("valid")
}

fn multi_target_problem() -> EcoProblem {
    // impl y = (a&b) & (b&c); spec y = a ^ c; both ANDs are targets.
    let mut im = Aig::new();
    let (a, b, c) = (im.add_input(), im.add_input(), im.add_input());
    let t1 = im.and(a, b);
    let t2 = im.and(b, c);
    let y = im.and(t1, t2);
    im.add_output(y);
    let mut sp = Aig::new();
    let (a, _b, c) = (sp.add_input(), sp.add_input(), sp.add_input());
    let y = sp.xor(a, c);
    sp.add_output(y);
    EcoProblem::with_unit_weights(im, sp, vec![t1.node(), t2.node()]).expect("valid")
}

/// Records every event for post-run inspection.
#[derive(Default)]
struct Recorder {
    events: Vec<EcoEvent>,
}

impl EcoObserver for Recorder {
    fn on_event(&mut self, event: &EcoEvent) {
        self.events.push(event.clone());
    }
}

fn ladder_rungs(events: &[EcoEvent]) -> Vec<(usize, LadderRung)> {
    events
        .iter()
        .filter_map(|e| match e {
            EcoEvent::LadderStep { target_index, rung } => Some((*target_index, *rung)),
            _ => None,
        })
        .collect()
}

/// A governor that only injects faults on the given schedule.
fn faulted(plan: FaultPlan) -> ResourceGovernor {
    ResourceGovernor::new(GovernorLimits {
        fault_plan: Some(plan),
        ..GovernorLimits::default()
    })
}

/// Runs the default engine under `governor`, recording every event.
fn run_recorded(
    governor: ResourceGovernor,
    problem: &EcoProblem,
) -> (eco_patch::core::EcoOutcome, Vec<EcoEvent>) {
    let recorder = Arc::new(Mutex::new(Recorder::default()));
    let engine = EcoEngine::new(EcoOptions::default())
        .with_governor(governor)
        .with_shared_observer(recorder.clone() as Arc<Mutex<dyn EcoObserver + Send>>);
    let outcome = engine.solve(&problem.snapshot()).expect("anytime outcome");
    let events = std::mem::take(&mut recorder.lock().expect("no poison").events);
    (outcome, events)
}

/// Ladder edge: full attempt -> reduced retry. A single injected fault
/// at the first patch-phase SAT call fails the full attempt; the retry
/// runs fault-free and still patches, so the target lands `Degraded`
/// on the SAT path and the result verifies.
#[test]
fn fault_on_full_attempt_degrades_to_retry() {
    let p = and_vs_or_problem();
    // Locate the first patch-phase call: it follows the sufficiency
    // check's QBF calls, whose count a fault-free metered run reveals.
    let baseline = EcoEngine::new(EcoOptions::builder().build())
        .with_metrics()
        .solve(&p.snapshot())
        .expect("baseline");
    let qbf_calls =
        baseline.metrics.expect("metrics").sat_calls.by_kind[SatCallKind::Qbf.index()].calls;
    let (outcome, events) = run_recorded(faulted(FaultPlan::AtCalls(vec![qbf_calls + 1])), &p);
    assert_eq!(outcome.fault_injections, 1);
    assert_eq!(outcome.reports.len(), 1);
    assert_eq!(outcome.reports[0].kind, PatchKind::Sat);
    assert_eq!(outcome.reports[0].disposition, TargetDisposition::Degraded);
    assert!(outcome.verified, "retry patch must still verify");
    assert_eq!(ladder_rungs(&events), vec![(0, LadderRung::DegradedRetry)]);
    assert!(
        events.iter().any(|e| matches!(
            e,
            EcoEvent::GovernorTripped {
                reason: TripReason::FaultInjected
            }
        )),
        "each injected fault must be announced"
    );
}

/// Ladder edge: retry -> structural. Failing every SAT call exhausts
/// both SAT rungs and the CEGAR_min queries; the SAT-free structural
/// cofactor patch still lands, keeping the run alive.
#[test]
fn all_faults_degrade_to_structural() {
    let p = and_vs_or_problem();
    let (outcome, events) = run_recorded(faulted(FaultPlan::EveryNth(1)), &p);
    assert_eq!(outcome.reports.len(), 1);
    // CEGAR_min may shrug off faulted (Unknown) equivalence queries and
    // still improve the patch; either structural kind is acceptable.
    assert!(
        matches!(
            outcome.reports[0].kind,
            PatchKind::Structural | PatchKind::StructuralCegarMin
        ),
        "got {:?}",
        outcome.reports[0].kind
    );
    assert_eq!(outcome.reports[0].disposition, TargetDisposition::Degraded);
    assert!(outcome.fault_injections > 0);
    // Faults are per-call, not sticky: no lasting governor trip.
    assert_eq!(outcome.governor_trip, None);
    let rungs = ladder_rungs(&events);
    assert_eq!(
        rungs,
        vec![(0, LadderRung::DegradedRetry), (0, LadderRung::Structural)],
        "must walk retry then structural, never skip"
    );
    // The final CEC may be discharged structurally (no SAT call, hence
    // no fault); confirm correctness out-of-band either way.
    assert_eq!(
        check_equivalence(&outcome.patched_implementation, &p.specification, None),
        CecResult::Equivalent
    );
}

/// Ladder edge: structural -> skipped. A sticky cancellation before any
/// work hard-stops every rung; all targets are skipped, the original
/// functions are kept, and the run still returns an outcome.
#[test]
fn cancellation_skips_every_target() {
    let p = multi_target_problem();
    let (outcome, events) = run_recorded(faulted(FaultPlan::CancelAt(1)), &p);
    assert_eq!(outcome.governor_trip, Some(TripReason::Cancelled));
    assert_eq!(outcome.reports.len(), 2);
    for r in &outcome.reports {
        assert_eq!(r.kind, PatchKind::Skipped);
        assert!(
            matches!(&r.disposition, TargetDisposition::Skipped { reason } if reason == "cancelled"),
            "got {:?}",
            r.disposition
        );
    }
    assert!(!outcome.verified);
    assert_eq!(outcome.total_gates, 0, "no patch logic was added");
    let rungs = ladder_rungs(&events);
    assert_eq!(
        rungs,
        vec![(0, LadderRung::Skipped), (1, LadderRung::Skipped)]
    );
    assert!(events.iter().any(|e| matches!(
        e,
        EcoEvent::GovernorTripped {
            reason: TripReason::Cancelled
        }
    )));
}

/// An already-expired deadline must yield an anytime outcome promptly:
/// per-target `Skipped` dispositions, a `Deadline` trip on the outcome,
/// and a wall-clock bound far below what the un-governed run could use.
#[test]
fn expired_deadline_returns_anytime_outcome() {
    let p = multi_target_problem();
    let t0 = Instant::now();
    let outcome = EcoEngine::new(EcoOptions::default())
        .with_governor(ResourceGovernor::new(GovernorLimits {
            timeout: Some(Duration::ZERO),
            ..GovernorLimits::default()
        }))
        .solve(&p.snapshot())
        .expect("anytime outcome");
    let elapsed = t0.elapsed();
    assert_eq!(outcome.governor_trip, Some(TripReason::Deadline));
    assert_eq!(outcome.reports.len(), 2);
    for r in &outcome.reports {
        assert!(
            matches!(&r.disposition, TargetDisposition::Skipped { reason } if reason == "deadline"),
            "got {:?}",
            r.disposition
        );
    }
    assert!(!outcome.verified);
    // Generous CI margin; the run does no SAT search at all.
    assert!(
        elapsed < Duration::from_secs(5),
        "anytime return took {elapsed:?}"
    );
}

/// A drained global conflict pool is a soft trip: SAT rungs fail but
/// the SAT-free structural patch still lands on every target.
#[test]
fn exhausted_global_pool_degrades_but_patches() {
    let p = multi_target_problem();
    let options = EcoOptions::builder().cegar_min(false).build();
    let outcome = EcoEngine::new(options)
        .with_governor(ResourceGovernor::new(GovernorLimits {
            global_conflicts: Some(0),
            ..GovernorLimits::default()
        }))
        .solve(&p.snapshot())
        .expect("anytime outcome");
    assert_eq!(outcome.governor_trip, Some(TripReason::GlobalBudget));
    assert_eq!(outcome.reports.len(), 2);
    for r in &outcome.reports {
        assert_eq!(r.disposition, TargetDisposition::Degraded, "got {:?}", r);
    }
    assert_eq!(
        check_equivalence(&outcome.patched_implementation, &p.specification, None),
        CecResult::Equivalent
    );
}

/// An externally-owned governor can be cancelled before the run, and
/// the engine honors it.
#[test]
fn external_governor_cancellation_is_honored() {
    let p = and_vs_or_problem();
    let governor = ResourceGovernor::new(GovernorLimits::default());
    governor.cancel();
    let outcome = EcoEngine::new(EcoOptions::builder().build())
        .with_governor(governor.clone())
        .solve(&p.snapshot())
        .expect("anytime outcome");
    assert_eq!(outcome.governor_trip, Some(TripReason::Cancelled));
    assert!(matches!(
        outcome.reports[0].disposition,
        TargetDisposition::Skipped { .. }
    ));
    // The sufficiency probe's solve attempt is still counted, but it
    // must return `Unknown` before any search; nothing else may run.
    assert!(governor.sat_calls() <= 1, "got {}", governor.sat_calls());
}

/// With the fallback ladder disabled, a deadline surfaces as the typed
/// `DeadlineExceeded` error rather than a generic budget failure.
#[test]
fn no_fallback_mode_reports_deadline_error() {
    let p = and_vs_or_problem();
    let options = EcoOptions::builder().structural_fallback(false).build();
    let err = EcoEngine::new(options)
        .with_governor(ResourceGovernor::new(GovernorLimits {
            timeout: Some(Duration::ZERO),
            ..GovernorLimits::default()
        }))
        .solve(&p.snapshot())
        .unwrap_err();
    assert!(
        matches!(err, eco_patch::core::EcoError::DeadlineExceeded { .. }),
        "got {err:?}"
    );
    assert!(err.is_resource_exhausted());
}

/// Seeded fault schedules are reproducible: the same seed yields the
/// same dispositions and fault count, a different seed may not.
#[test]
fn seeded_fault_schedule_is_reproducible() {
    let p = multi_target_problem();
    let run = |seed: u64| {
        let out = EcoEngine::new(EcoOptions::default())
            .with_governor(faulted(FaultPlan::Seeded { seed, one_in: 3 }))
            .solve(&p.snapshot())
            .expect("anytime outcome");
        (
            out.fault_injections,
            out.reports
                .iter()
                .map(|r| r.disposition.clone())
                .collect::<Vec<_>>(),
        )
    };
    let (faults_a, dispositions_a) = run(42);
    let (faults_b, dispositions_b) = run(42);
    assert_eq!(faults_a, faults_b);
    assert_eq!(dispositions_a, dispositions_b);
}
