//! Trace-subsystem integration tests: JSONL export round-trips through
//! the parser, the replayed report agrees with `RunMetrics` v3, and the
//! Chrome exporter emits a balanced, loadable document.

use eco_patch::aig::Aig;
use eco_patch::core::json::parse_json;
use eco_patch::core::trace::{
    check_span_integrity, render_report, summarize_trace, ChromeTrace, JsonlTraceObserver,
};
use eco_patch::core::{EcoEngine, EcoObserver, EcoOptions, EcoProblem, RunMetrics};
use std::collections::HashSet;
use std::io::Write;
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

/// Runs the engine with both metrics and a JSONL trace attached and
/// returns (trace text, metrics).
fn traced_run(options: EcoOptions, problem: &EcoProblem) -> (String, RunMetrics) {
    let sink = Arc::new(Mutex::new(JsonlTraceObserver::new(Vec::new())));
    let engine = EcoEngine::new(options)
        .with_metrics()
        .with_shared_observer(sink.clone() as Arc<Mutex<dyn EcoObserver + Send>>);
    let outcome = engine.solve(&problem.snapshot()).expect("engine run");
    drop(engine);
    let observer = Arc::try_unwrap(sink)
        .unwrap_or_else(|_| panic!("engine dropped"))
        .into_inner()
        .expect("no poison");
    let bytes = observer.finish().expect("no io error on Vec sink");
    let text = String::from_utf8(bytes).expect("utf8 trace");
    (text, outcome.metrics.expect("with_metrics was set"))
}

#[test]
fn jsonl_trace_round_trips_and_passes_integrity() {
    let (text, _) = traced_run(
        EcoOptions::builder().build().expect("valid options"),
        &multi_target_problem(),
    );
    assert!(text.lines().count() > 8, "trace too short:\n{text}");
    let mut last_ts = 0u64;
    for line in text.lines() {
        let value = parse_json(line).expect("every trace line parses");
        let ts = value
            .get("ts_us")
            .and_then(|v| v.as_u64())
            .expect("ts_us on every record");
        assert!(ts >= last_ts, "timestamps must be monotone:\n{text}");
        last_ts = ts;
        value
            .get("event")
            .and_then(|v| v.as_str())
            .expect("event tag on every record");
    }
    check_span_integrity(&text).expect("spans are LIFO-balanced");
}

#[test]
fn report_phase_totals_agree_with_run_metrics_v3() {
    let (text, metrics) = traced_run(
        EcoOptions::builder().build().expect("valid options"),
        &multi_target_problem(),
    );
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
    let (text, _) = traced_run(
        EcoOptions::builder().build().expect("valid options"),
        &multi_target_problem(),
    );
    let summary = summarize_trace(&text, 3).expect("summarize");
    assert!(summary.top_calls.len() <= 3);
    for pair in summary.top_calls.windows(2) {
        assert!(
            (pair[0].elapsed_us, pair[0].conflicts) >= (pair[1].elapsed_us, pair[1].conflicts),
            "top calls must be sorted most-expensive first"
        );
    }
}

/// A `Write` sink the test reads back after the trace took ownership
/// of it.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("no poison").extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn chrome_trace_is_balanced_and_loadable() {
    // The document the CLI writes for `--trace-format chrome`: one
    // observer on one lane, no request id.
    let buf = SharedBuf::default();
    let trace = ChromeTrace::new(Box::new(buf.clone()));
    let engine = EcoEngine::new(EcoOptions::builder().build().expect("valid options"))
        .with_metrics()
        .with_observer(trace.observer(trace.open_lane(), None));
    let outcome = engine
        .solve(&multi_target_problem().snapshot())
        .expect("engine run");
    trace.finish().expect("no io error on Vec sink");
    let text = String::from_utf8(buf.0.lock().expect("no poison").clone()).expect("utf8 trace");

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
    let metrics = outcome.metrics.expect("with_metrics was set");
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
