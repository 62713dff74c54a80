//! Trace-subsystem integration tests: the Chrome document carries
//! every engine event and round-trips through the parser, the replayed
//! report agrees with `RunMetrics` v3, and the document is balanced
//! and loadable.

use eco_patch::aig::Aig;
use eco_patch::core::json::{parse_json, JsonValue};
use eco_patch::core::trace::{check_span_integrity, render_report, summarize_trace, ChromeTrace};
use eco_patch::core::{EcoEngine, EcoEvent, EcoObserver, EcoOptions, EcoProblem, RunMetrics};
use eco_testutil::SharedBuf;
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

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

/// Counts the events the engine delivers.
#[derive(Clone, Default)]
struct Counter(Arc<Mutex<usize>>);

impl EcoObserver for Counter {
    fn on_event(&mut self, _: &EcoEvent) {
        *self.0.lock().expect("no poison") += 1;
    }
}

/// Runs the engine with metrics, an event counter and a Chrome trace
/// attached, as `eco_patch --trace-out` does (one lane, no request
/// id), and returns (trace document, metrics, events delivered).
fn traced_run(options: EcoOptions, problem: &EcoProblem) -> (String, RunMetrics, usize) {
    let buf = SharedBuf::default();
    let trace = ChromeTrace::new(Box::new(buf.clone()));
    let counter = Counter::default();
    let engine = EcoEngine::new(options)
        .with_metrics()
        .with_observer(counter.clone())
        .with_observer(trace.observer(trace.open_lane(), None));
    let outcome = engine.solve(problem).expect("engine run");
    trace.finish().expect("no io error on Vec sink");
    let delivered = *counter.0.lock().expect("no poison");
    (
        buf.text(),
        outcome.metrics.expect("with_metrics was set"),
        delivered,
    )
}

#[test]
fn chrome_trace_round_trips_and_passes_integrity() {
    let (text, _, delivered) = traced_run(EcoOptions::builder().build(), &multi_target_problem());
    let doc = parse_json(&text).expect("the trace is one JSON document");
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array");
    assert!(events.len() > 8, "trace too short:\n{text}");
    for record in events {
        record
            .get("ts")
            .and_then(JsonValue::as_u64)
            .expect("ts on every record");
        record
            .get("args")
            .and_then(|a| a.get("event"))
            .and_then(JsonValue::as_str)
            .expect("event tag on every record");
    }
    assert_eq!(events.len(), delivered, "one record per engine event");
    let summary = summarize_trace(&text, 0).expect("summarize");
    assert_eq!(summary.events, delivered as u64);
    check_span_integrity(&text).expect("spans are LIFO-balanced");
}

#[test]
fn report_phase_totals_agree_with_run_metrics_v3() {
    let (text, metrics, _) = traced_run(EcoOptions::builder().build(), &multi_target_problem());
    let summary = summarize_trace(&text, 5).expect("summarize");

    // Phase totals: both paths truncate the same Duration to µs, so
    // they must agree exactly, in the same completion order.
    assert_eq!(summary.phases.len(), metrics.phases.len());
    for (got, want) in summary.phases.iter().zip(&metrics.phases) {
        assert_eq!(got.name, want.phase.name());
        assert_eq!(
            got.elapsed_us,
            u64::try_from(want.elapsed.as_micros()).unwrap()
        );
    }
    assert_eq!(
        summary.run_elapsed_us,
        Some(u64::try_from(metrics.elapsed.as_micros()).unwrap())
    );

    // Call/conflict totals agree exactly.
    assert_eq!(summary.sat_calls, metrics.sat_calls.total);
    assert_eq!(summary.sat_conflicts, metrics.sat_calls.conflicts);
    assert_eq!(summary.num_targets, Some(metrics.num_targets as u64));
    assert_eq!(summary.targets.len(), metrics.targets.len());
    for (got, want) in summary.targets.iter().zip(&metrics.targets) {
        assert_eq!(got.target_index, want.target_index as u64);
        assert_eq!(got.sat_calls, want.observed_sat_calls);
        assert_eq!(got.conflicts, want.conflicts);
    }

    // Solver time: the report sums per-call truncated µs, the metrics
    // truncate the summed Duration — the report can undercount by at
    // most 1µs per call.
    let metrics_time_us = u64::try_from(metrics.sat_calls.time.as_micros()).unwrap();
    assert!(summary.sat_time_us <= metrics_time_us);
    assert!(metrics_time_us - summary.sat_time_us <= summary.sat_calls);

    // The rendered report carries the same numbers.
    let rendered = render_report(&summary);
    for phase in &summary.phases {
        assert!(rendered.contains(&phase.name), "{rendered}");
    }
    assert!(
        rendered.contains(&format!("total={}", summary.sat_calls)),
        "{rendered}"
    );
}

#[test]
fn top_calls_are_sorted_and_bounded() {
    let (text, _, _) = traced_run(EcoOptions::builder().build(), &multi_target_problem());
    let summary = summarize_trace(&text, 3).expect("summarize");
    assert!(summary.top_calls.len() <= 3);
    for pair in summary.top_calls.windows(2) {
        assert!(
            (pair[0].elapsed_us, pair[0].conflicts) >= (pair[1].elapsed_us, pair[1].conflicts),
            "top calls must be sorted most-expensive first"
        );
    }
}

#[test]
fn chrome_trace_is_balanced_and_loadable() {
    let (text, metrics, _) = traced_run(EcoOptions::builder().build(), &multi_target_problem());

    let value = parse_json(&text).expect("chrome trace is one JSON document");
    let events = value
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let mut depth = 0i64;
    let mut complete = 0u64;
    for ev in events {
        match ev.get("ph").and_then(|v| v.as_str()).expect("ph field") {
            "B" => depth += 1,
            "E" => {
                depth -= 1;
                assert!(depth >= 0, "E without matching B");
            }
            "X" => complete += 1,
            "i" => {}
            other => panic!("unexpected phase type {other:?}"),
        }
    }
    assert_eq!(depth, 0, "every B span must close");
    assert!(complete > 0, "SAT calls must appear as X events");
    let blocks: HashSet<&str> = events
        .iter()
        .filter(|ev| ev.get("ph").and_then(|v| v.as_str()) == Some("X"))
        .filter_map(|ev| ev.get("name").and_then(|v| v.as_str()))
        .collect();
    assert!(!metrics.phases.is_empty());
    for phase in &metrics.phases {
        assert!(
            blocks.contains(phase.phase.name()),
            "finished phase {} must be an X block: {blocks:?}",
            phase.phase.name()
        );
    }
    assert!(blocks.contains("run"), "the run must be an X block");
}
