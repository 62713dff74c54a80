//! End-to-end tests of the `eco_patchd` binary: a JSONL session over
//! stdin/stdout exercising the outcome cache (identical repeat →
//! zero SAT calls, byte-identical patched netlist), the engine-side
//! layers (one-gate spec revision → solved-target reuse for the
//! untouched cone), the stats/shutdown commands, and the resilience
//! layer — a chaos session raining worker panics, overload sheds,
//! queue-expired deadlines, and a drain on a pooled daemon while every
//! healthy answer stays byte-identical to an unfaulted run. The CI
//! daemon-smoke and chaos-smoke jobs run exactly these tests.

use eco_patch::core::json::{escape_json, parse_json, JsonValue};
use std::io::Write;
use std::process::{Command, Stdio};
use std::time::Duration;

/// Implementation: two independently patchable gates with disjoint
/// output cones.
const IMPLEMENTATION: &str = "module top(a, b, c, d, y0, y1);\n\
input a, b, c, d;\noutput y0, y1;\nwire t0, t1;\n\
and g0(t0, a, b);\nand g1(t1, c, d);\n\
buf g2(y0, t0);\nbuf g3(y1, t1);\nendmodule\n";

/// Specification: both gates should have been ORs.
const SPECIFICATION: &str = "module top(a, b, c, d, y0, y1);\n\
input a, b, c, d;\noutput y0, y1;\nwire t0, t1;\n\
or g0(t0, a, b);\nor g1(t1, c, d);\n\
buf g2(y0, t0);\nbuf g3(y1, t1);\nendmodule\n";

/// One-gate revision of the specification: only `t1`'s cone changes.
const REVISED_SPEC: &str = "module top(a, b, c, d, y0, y1);\n\
input a, b, c, d;\noutput y0, y1;\nwire t0, t1;\n\
or g0(t0, a, b);\nxor g1(t1, c, d);\n\
buf g2(y0, t0);\nbuf g3(y1, t1);\nendmodule\n";

fn eco_line(id: &str, spec: &str) -> String {
    format!(
        "{{\"id\":\"{id}\",\"impl\":\"{}\",\"spec\":\"{}\",\"targets\":[\"t0\",\"t1\"]}}",
        escape_json(IMPLEMENTATION),
        escape_json(spec)
    )
}

fn eco_line_with_options(id: &str, spec: &str, options: &str) -> String {
    format!(
        "{{\"id\":\"{id}\",\"impl\":\"{}\",\"spec\":\"{}\",\"targets\":[\"t0\",\"t1\"],\
         \"options\":{options}}}",
        escape_json(IMPLEMENTATION),
        escape_json(spec)
    )
}

/// Runs a JSONL session through the daemon binary and returns one
/// parsed response per request line.
fn run_session(session: &str) -> Vec<JsonValue> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_eco_patchd"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn eco_patchd");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(session.as_bytes())
        .expect("write session");
    let output = child.wait_with_output().expect("daemon exits");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout)
        .expect("UTF-8 responses")
        .lines()
        .map(|line| parse_json(line).unwrap_or_else(|e| panic!("bad response {line:?}: {e}")))
        .collect()
}

/// Runs a staged JSONL session through the daemon binary with extra
/// CLI arguments: each stage is written after its delay, pacing the
/// session so overload and drain states are reached deterministically.
/// Asserts a clean exit and returns the parsed response lines.
fn run_staged_session(args: &[&str], stages: &[(u64, String)]) -> Vec<JsonValue> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_eco_patchd"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn eco_patchd");
    let mut stdin = child.stdin.take().expect("stdin piped");
    let stages: Vec<(u64, String)> = stages.to_vec();
    let writer = std::thread::spawn(move || {
        for (delay_ms, text) in stages {
            std::thread::sleep(Duration::from_millis(delay_ms));
            stdin.write_all(text.as_bytes()).expect("write stage");
            stdin.flush().expect("flush stage");
        }
        // Dropping stdin closes the stream: accepted work drains,
        // then the daemon exits.
    });
    let output = child.wait_with_output().expect("daemon exits");
    writer.join().expect("writer thread");
    assert!(
        output.status.success(),
        "daemon must exit cleanly; stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout)
        .expect("UTF-8 responses")
        .lines()
        .map(|line| parse_json(line).unwrap_or_else(|e| panic!("bad response {line:?}: {e}")))
        .collect()
}

fn cache_flag<'a>(response: &'a JsonValue, layer: &str) -> Option<&'a str> {
    response
        .get("cache")
        .and_then(|c| c.get(layer))
        .and_then(JsonValue::as_str)
}

fn counter(response: &JsonValue, name: &str) -> Option<u64> {
    response
        .get("metrics")
        .and_then(|m| m.get("cache"))
        .and_then(|c| c.get(name))
        .and_then(JsonValue::as_u64)
}

#[test]
fn smoke_session_repeat_hits_the_outcome_cache_with_identical_output() {
    // Three ECO requests: cold, identical repeat, one-gate revision.
    let session = format!(
        "{}\n{}\n{}\n{{\"id\":\"s\",\"cmd\":\"stats\"}}\n{{\"id\":\"q\",\"cmd\":\"shutdown\"}}\n",
        eco_line("cold", SPECIFICATION),
        eco_line("warm", SPECIFICATION),
        eco_line("revised", REVISED_SPEC),
    );
    let responses = run_session(&session);
    assert_eq!(responses.len(), 5, "one response per request line");
    let (cold, warm, revised, stats, bye) = (
        &responses[0],
        &responses[1],
        &responses[2],
        &responses[3],
        &responses[4],
    );
    for (name, r) in [("cold", cold), ("warm", warm), ("revised", revised)] {
        assert_eq!(
            r.get("status").and_then(JsonValue::as_str),
            Some("ok"),
            "{name}"
        );
        assert_eq!(
            r.get("verified").and_then(JsonValue::as_bool),
            Some(true),
            "{name}"
        );
    }

    // Cold run: outcome miss, real SAT work, request id in metrics.
    assert_eq!(cache_flag(cold, "outcome"), Some("miss"));
    let cold_sat = cold
        .get("metrics")
        .and_then(|m| m.get("sat_calls"))
        .and_then(|s| s.get("total"))
        .and_then(JsonValue::as_u64)
        .expect("cold metrics have SAT totals");
    assert!(cold_sat > 0, "the cold run must do solver work");
    assert_eq!(
        cold.get("metrics")
            .and_then(|m| m.get("request_id"))
            .and_then(JsonValue::as_str),
        Some("cold")
    );

    // Identical repeat: outcome hit, zero SAT calls, byte-identical
    // patched netlist.
    assert_eq!(cache_flag(warm, "outcome"), Some("hit"));
    let warm_sat = warm
        .get("metrics")
        .and_then(|m| m.get("sat_calls"))
        .and_then(|s| s.get("total"))
        .and_then(JsonValue::as_u64);
    assert_eq!(warm_sat, Some(0), "an outcome hit performs zero SAT calls");
    assert_eq!(counter(warm, "outcome_hits"), Some(1));
    let cold_patched = cold.get("patched_verilog").and_then(JsonValue::as_str);
    assert!(cold_patched.is_some_and(|v| v.contains("module")));
    assert_eq!(
        cold_patched,
        warm.get("patched_verilog").and_then(JsonValue::as_str),
        "replayed patched netlist must be byte-identical"
    );
    assert_eq!(
        warm.get("metrics")
            .and_then(|m| m.get("request_id"))
            .and_then(JsonValue::as_str),
        Some("warm"),
        "each request's metrics carry its own id"
    );

    // One-gate spec revision: outcome misses, but the implementation
    // netlist text and target t0's untouched cone are served from the
    // caches — visible in the per-request hit/miss counters.
    assert_eq!(cache_flag(revised, "outcome"), Some("miss"));
    assert_eq!(
        counter(revised, "netlist_hits"),
        Some(1),
        "impl text is cached"
    );
    assert_eq!(
        counter(revised, "netlist_misses"),
        Some(1),
        "revised spec is new"
    );
    assert!(
        counter(revised, "target_hits").is_some_and(|h| h >= 1),
        "the untouched target must be served from the solved-target layer: {revised:?}"
    );

    // Stats reflect the session; shutdown acknowledges and stops.
    let engine_stats = stats.get("stats").expect("stats payload");
    assert_eq!(
        engine_stats.get("outcome_hits").and_then(JsonValue::as_u64),
        Some(1)
    );
    assert_eq!(
        engine_stats
            .get("outcome_misses")
            .and_then(JsonValue::as_u64),
        Some(2)
    );
    assert_eq!(bye.get("shutdown").and_then(JsonValue::as_bool), Some(true));
}

#[test]
fn classed_requests_replay_as_zero_sat_call_outcome_hits() {
    // `"method":"prune"` solves with the SAT_prune class layer: the
    // cold run reports the layer's counters in its metrics, and the
    // identical repeat is an outcome hit with zero SAT calls, nothing
    // inherited, and a byte-identical patched netlist.
    let prune = "{\"method\":\"prune\"}";
    let session = format!(
        "{}\n{}\n",
        eco_line_with_options("cold", SPECIFICATION, prune),
        eco_line_with_options("warm", SPECIFICATION, prune),
    );
    let responses = run_session(&session);
    assert_eq!(responses.len(), 2);
    let (cold, warm) = (&responses[0], &responses[1]);
    for (name, r) in [("cold", cold), ("warm", warm)] {
        assert_eq!(
            r.get("status").and_then(JsonValue::as_str),
            Some("ok"),
            "{name}"
        );
        assert_eq!(
            r.get("verified").and_then(JsonValue::as_bool),
            Some(true),
            "{name}"
        );
    }
    let metric = |r: &JsonValue, path: [&str; 2]| {
        r.get("metrics")
            .and_then(|m| m.get(path[0]))
            .and_then(|s| s.get(path[1]))
            .and_then(JsonValue::as_u64)
    };
    assert_eq!(cache_flag(cold, "outcome"), Some("miss"));
    let cold_sat = metric(cold, ["sat_calls", "total"]).expect("classed SAT totals");
    assert!(cold_sat > 0, "the cold classed run must do solver work");
    assert!(
        metric(cold, ["sweep", "oracle_hits"]).is_some()
            && metric(cold, ["classes", "inherited_answers"]).is_some(),
        "the class layer's counters must reach the daemon metrics"
    );
    assert_eq!(cache_flag(warm, "outcome"), Some("hit"));
    assert_eq!(
        metric(warm, ["sat_calls", "total"]),
        Some(0),
        "a classed outcome hit performs zero SAT calls"
    );
    assert_eq!(
        metric(warm, ["classes", "inherited_answers"]),
        Some(0),
        "a replay inherits nothing — the stored outcome is returned as-is"
    );
    let patched = |r: &JsonValue| {
        r.get("patched_verilog")
            .and_then(JsonValue::as_str)
            .map(str::to_owned)
    };
    assert!(patched(cold).is_some_and(|v| v.contains("module")));
    assert_eq!(patched(cold), patched(warm), "replay is byte-identical");
}

#[test]
fn malformed_and_failing_requests_answer_with_errors_and_keep_serving() {
    let session = format!(
        "not json\n{{\"id\":\"bad\",\"impl\":\"junk\",\"spec\":\"junk\",\"targets\":[\"t\"]}}\n{}\n",
        eco_line("ok", SPECIFICATION)
    );
    let responses = run_session(&session);
    assert_eq!(responses.len(), 3);
    assert_eq!(
        responses[0].get("status").and_then(JsonValue::as_str),
        Some("error")
    );
    assert_eq!(
        responses[1].get("status").and_then(JsonValue::as_str),
        Some("error")
    );
    assert_eq!(
        responses[1].get("id").and_then(JsonValue::as_str),
        Some("bad")
    );
    assert_eq!(
        responses[2].get("status").and_then(JsonValue::as_str),
        Some("ok"),
        "errors must not poison the stream"
    );
}

#[test]
fn per_request_deadline_degrades_one_request_without_caching_it() {
    // A request with an already-expired deadline yields an anytime
    // answer (governor trip reported); repeating it without the
    // deadline must NOT hit the outcome cache — pressured results are
    // never stored.
    let strained = format!(
        "{{\"id\":\"strained\",\"impl\":\"{}\",\"spec\":\"{}\",\"targets\":[\"t0\",\"t1\"],\
         \"options\":{{\"deadline_ms\":0}}}}",
        escape_json(IMPLEMENTATION),
        escape_json(SPECIFICATION)
    );
    let session = format!("{strained}\n{}\n", eco_line("clean", SPECIFICATION));
    let responses = run_session(&session);
    assert_eq!(responses.len(), 2);
    let strained = &responses[0];
    assert_eq!(
        strained.get("status").and_then(JsonValue::as_str),
        Some("ok")
    );
    assert!(
        strained
            .get("governor_trip")
            .and_then(JsonValue::as_str)
            .is_some(),
        "a zero deadline must trip: {strained:?}"
    );
    let clean = &responses[1];
    assert_eq!(cache_flag(clean, "outcome"), Some("miss"));
    assert_eq!(
        clean.get("verified").and_then(JsonValue::as_bool),
        Some(true)
    );
    assert_eq!(clean.get("governor_trip"), Some(&JsonValue::Null));
}

fn eco_line_opts(id: &str, spec: &str, options: &str) -> String {
    format!(
        "{{\"id\":\"{id}\",\"impl\":\"{}\",\"spec\":\"{}\",\"targets\":[\"t0\",\"t1\"],\
         \"options\":{options}}}",
        escape_json(IMPLEMENTATION),
        escape_json(spec)
    )
}

fn answer_fields(response: &JsonValue) -> (Option<&str>, Option<bool>, Option<u64>, Option<u64>) {
    (
        response.get("patched_verilog").and_then(JsonValue::as_str),
        response.get("verified").and_then(JsonValue::as_bool),
        response.get("cost").and_then(JsonValue::as_u64),
        response.get("gates").and_then(JsonValue::as_u64),
    )
}

/// The acceptance scenario for the resilience layer: one pooled chaos
/// session combining an injected worker panic (fresh + poisoned
/// retry), an overload shed, a deadline expired in queue, a health
/// probe, and a graceful drain — and every *healthy* request must be
/// answered byte-identically to an unfaulted single-worker run, with
/// the daemon exiting 0.
#[test]
fn chaos_session_answers_healthy_requests_byte_identically_and_exits_cleanly() {
    // Unfaulted reference run: the two healthy payloads, no chaos.
    let baseline = run_session(&format!(
        "{}\n{}\n",
        eco_line("base_spec", SPECIFICATION),
        eco_line("base_revised", REVISED_SPEC)
    ));
    assert_eq!(baseline.len(), 2);
    let expected_spec = answer_fields(&baseline[0]);
    let expected_revised = answer_fields(&baseline[1]);
    assert!(expected_spec.0.is_some_and(|v| v.contains("module")));

    // Chaos run: 2 workers, a 2-deep queue, chaos hooks armed.
    let stages = [
        // Two held requests park both workers.
        (
            0,
            format!(
                "{}\n{}\n",
                eco_line_opts("hold_a", SPECIFICATION, "{\"hold_ms\":500}"),
                eco_line_opts("hold_b", REVISED_SPEC, "{\"hold_ms\":500}")
            ),
        ),
        // Workers busy: fill the queue (`queued`, `expired`), then
        // overflow it (`shed_me`). `expired`'s deadline has already
        // passed by the time a worker frees up.
        (
            150,
            format!(
                "{}\n{}\n{}\n",
                eco_line("queued", SPECIFICATION),
                eco_line_opts("expired", SPECIFICATION, "{\"deadline_ms\":1}"),
                eco_line("shed_me", SPECIFICATION)
            ),
        ),
        // Backlog drained: crash a worker mid-solve.
        (
            900,
            format!(
                "{}\n",
                eco_line_opts("boom", SPECIFICATION, "{\"inject_panic\":true}")
            ),
        ),
        // Identical payload again: the poison pill answers instantly
        // instead of crashing a second worker.
        (
            400,
            format!(
                "{}\n",
                eco_line_opts("boom_again", SPECIFICATION, "{\"inject_panic\":true}")
            ),
        ),
        // Observe, then wind down gracefully; a request after the
        // drain must be refused, not queued.
        (
            300,
            "{\"id\":\"h\",\"cmd\":\"health\"}\n{\"id\":\"d\",\"cmd\":\"drain\"}\n".to_string(),
        ),
        (100, format!("{}\n", eco_line("too_late", SPECIFICATION))),
    ];
    let responses = run_staged_session(
        &["--workers", "2", "--queue-capacity", "2", "--chaos"],
        &stages,
    );
    let mut by_id = std::collections::HashMap::new();
    for r in &responses {
        let id = r
            .get("id")
            .and_then(JsonValue::as_str)
            .expect("every response carries an id")
            .to_string();
        by_id.insert(id, r);
    }

    // Every healthy request answered, byte-identical to the baseline.
    for (id, expected) in [
        ("hold_a", &expected_spec),
        ("hold_b", &expected_revised),
        ("queued", &expected_spec),
    ] {
        let r = by_id[id];
        assert_eq!(
            r.get("status").and_then(JsonValue::as_str),
            Some("ok"),
            "{id}: {r:?}"
        );
        assert_eq!(
            &answer_fields(r),
            expected,
            "{id} must match the unfaulted run byte-for-byte"
        );
    }

    // The faults all got their structured answers.
    let shed = by_id["shed_me"];
    assert_eq!(
        shed.get("status").and_then(JsonValue::as_str),
        Some("overloaded"),
        "{responses:?}"
    );
    assert!(shed
        .get("retry_after_ms")
        .and_then(JsonValue::as_u64)
        .is_some_and(|ms| ms > 0));
    let expired = by_id["expired"];
    assert_eq!(
        expired.get("status").and_then(JsonValue::as_str),
        Some("expired"),
        "{responses:?}"
    );
    let boom = by_id["boom"];
    assert_eq!(
        boom.get("status").and_then(JsonValue::as_str),
        Some("panic")
    );
    assert_eq!(
        boom.get("poisoned").and_then(JsonValue::as_bool),
        Some(false),
        "first crash is fresh"
    );
    let boom_again = by_id["boom_again"];
    assert_eq!(
        boom_again.get("status").and_then(JsonValue::as_str),
        Some("panic")
    );
    assert_eq!(
        boom_again.get("poisoned").and_then(JsonValue::as_bool),
        Some(true),
        "identical retry must hit the poison pill: {boom_again:?}"
    );
    assert_eq!(
        by_id["d"].get("draining").and_then(JsonValue::as_bool),
        Some(true)
    );
    assert_eq!(
        by_id["too_late"].get("status").and_then(JsonValue::as_str),
        Some("draining")
    );

    // Health saw it all happen.
    let health = by_id["h"].get("health").expect("health payload");
    assert_eq!(health.get("shed").and_then(JsonValue::as_u64), Some(1));
    assert_eq!(health.get("expired").and_then(JsonValue::as_u64), Some(1));
    assert_eq!(health.get("panicked").and_then(JsonValue::as_u64), Some(1));
    assert_eq!(
        health.get("poison_pills").and_then(JsonValue::as_u64),
        Some(1)
    );
}

/// The observability acceptance scenario: the chaos session again
/// (shed + expired + panic + drain), but served with `--log-jsonl` and
/// `--trace-out`, scraped twice through the `metrics` command. The
/// Prometheus exposition must parse and agree with the `health`
/// serving counters, the journal's event sequence must reconstruct
/// the same counts, the merged Chrome trace must nest every solved
/// request's engine spans under a daemon lifecycle span carrying its
/// request id — and the solved answers must stay byte-identical to a
/// telemetry-disabled run.
#[test]
fn observability_session_metrics_journal_and_trace_agree() {
    // Telemetry-disabled reference run.
    let baseline = run_session(&format!(
        "{}\n{}\n",
        eco_line("base_spec", SPECIFICATION),
        eco_line("base_revised", REVISED_SPEC)
    ));
    assert_eq!(baseline.len(), 2);
    let expected_spec = answer_fields(&baseline[0]);
    let expected_revised = answer_fields(&baseline[1]);
    assert!(expected_spec.0.is_some_and(|v| v.contains("module")));

    let dir = std::env::temp_dir().join(format!("eco_patchd_obs_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let journal_path = dir.join("journal.jsonl");
    let trace_path = dir.join("trace.json");

    let stages = [
        // Two held requests park both workers; `hold_a` carries a
        // client-supplied trace id.
        (
            0,
            format!(
                "{}\n{}\n",
                eco_line_opts(
                    "hold_a",
                    SPECIFICATION,
                    "{\"hold_ms\":500,\"trace_id\":\"client-lane-a\"}"
                ),
                eco_line_opts("hold_b", REVISED_SPEC, "{\"hold_ms\":500}")
            ),
        ),
        // Fill the queue (`queued`, `expired`), then overflow it.
        (
            150,
            format!(
                "{}\n{}\n{}\n",
                eco_line("queued", SPECIFICATION),
                eco_line_opts("expired", SPECIFICATION, "{\"deadline_ms\":1}"),
                eco_line("shed_me", SPECIFICATION)
            ),
        ),
        // Backlog drained: crash a worker mid-solve.
        (
            900,
            format!(
                "{}\n",
                eco_line_opts("boom", SPECIFICATION, "{\"inject_panic\":true}")
            ),
        ),
        // Scrape both formats, probe health, then wind down.
        (
            400,
            "{\"id\":\"m1\",\"cmd\":\"metrics\"}\n\
             {\"id\":\"h\",\"cmd\":\"health\"}\n\
             {\"id\":\"m2\",\"cmd\":\"metrics\",\"format\":\"json\"}\n\
             {\"id\":\"d\",\"cmd\":\"drain\"}\n"
                .to_string(),
        ),
        (100, format!("{}\n", eco_line("too_late", SPECIFICATION))),
    ];
    let responses = run_staged_session(
        &[
            "--workers",
            "2",
            "--queue-capacity",
            "2",
            "--chaos",
            "--log-jsonl",
            journal_path.to_str().expect("utf-8 path"),
            "--trace-out",
            trace_path.to_str().expect("utf-8 path"),
        ],
        &stages,
    );
    let mut by_id = std::collections::HashMap::new();
    for r in &responses {
        let id = r
            .get("id")
            .and_then(JsonValue::as_str)
            .expect("every response carries an id")
            .to_string();
        by_id.insert(id, r);
    }

    // Telemetry must not move a byte of any solved answer.
    for (id, expected) in [
        ("hold_a", &expected_spec),
        ("hold_b", &expected_revised),
        ("queued", &expected_spec),
    ] {
        let r = by_id[id];
        assert_eq!(
            r.get("status").and_then(JsonValue::as_str),
            Some("ok"),
            "{id}: {r:?}"
        );
        assert_eq!(
            &answer_fields(r),
            expected,
            "{id} must match the telemetry-disabled run byte-for-byte"
        );
    }
    assert_eq!(
        by_id["shed_me"].get("status").and_then(JsonValue::as_str),
        Some("overloaded")
    );
    assert_eq!(
        by_id["expired"].get("status").and_then(JsonValue::as_str),
        Some("expired")
    );
    assert_eq!(
        by_id["boom"].get("status").and_then(JsonValue::as_str),
        Some("panic")
    );

    // The Prometheus scrape parses and its serving counters equal the
    // health command's view.
    let health = by_id["h"].get("health").expect("health payload");
    let h = |key: &str| health.get(key).and_then(JsonValue::as_u64).expect(key);
    let m1 = by_id["m1"];
    assert_eq!(
        m1.get("format").and_then(JsonValue::as_str),
        Some("prometheus")
    );
    let exposition = m1
        .get("metrics")
        .and_then(JsonValue::as_str)
        .expect("prometheus metrics payload is text");
    let samples = eco_testutil::prom::check_exposition(exposition)
        .unwrap_or_else(|e| panic!("invalid exposition: {e}\n{exposition}"));
    let sample = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name && s.labels.is_empty())
            .unwrap_or_else(|| panic!("missing sample {name}"))
            .value
    };
    assert_eq!(sample("eco_patchd_shed_total") as u64, h("shed"));
    assert_eq!(sample("eco_patchd_expired_total") as u64, h("expired"));
    assert_eq!(sample("eco_patchd_panicked_total") as u64, h("panicked"));
    assert_eq!(h("shed"), 1);
    assert_eq!(h("expired"), 1);
    assert_eq!(h("panicked"), 1);
    let eco_requests = samples
        .iter()
        .find(|s| {
            s.name == "eco_patchd_requests_total"
                && s.labels == [("cmd".to_string(), "eco".to_string())]
        })
        .expect("per-command request counter");
    // hold_a, hold_b, queued, expired, shed_me, boom (too_late arrives
    // after this scrape).
    assert_eq!(eco_requests.value as u64, 6);

    // The JSON scrape agrees.
    let m2 = by_id["m2"];
    assert_eq!(m2.get("format").and_then(JsonValue::as_str), Some("json"));
    let serving = m2
        .get("metrics")
        .and_then(|m| m.get("serving"))
        .expect("json metrics payload");
    for key in ["shed", "expired", "panicked"] {
        assert_eq!(
            serving.get(key).and_then(JsonValue::as_u64),
            Some(h(key)),
            "{key}"
        );
    }
    assert_eq!(
        m2.get("metrics")
            .and_then(|m| m.get("mode"))
            .and_then(JsonValue::as_str),
        Some("pooled")
    );

    // The journal reconstructs the same counts, event by event.
    let journal_text = std::fs::read_to_string(&journal_path).expect("journal written");
    let journal = eco_patch::daemon::journal::summarize_journal(&journal_text)
        .expect("journal is valid JSONL");
    assert_eq!(journal.shed, 1, "{journal_text}");
    assert_eq!(journal.expired, 1);
    assert_eq!(journal.panicked, 1);
    assert_eq!(journal.drain_refused, 1, "too_late refused while draining");
    assert!(
        journal.admitted >= 4,
        "hold_a, hold_b, queued, expired, boom admit: {journal:?}"
    );
    let ok = journal
        .statuses
        .iter()
        .find(|(s, _)| s == "ok")
        .map(|(_, n)| *n);
    assert_eq!(ok, Some(3), "three solved requests: {journal:?}");
    assert!(
        journal.solve_us > 0 && journal.queue_wait_us > 0,
        "attribution must see real solve and queue time: {journal:?}"
    );

    // The merged trace is one Chrome document where each solved
    // request's lifecycle span carries its request id and its engine
    // spans sit on the same lane inside the span.
    let trace_text = std::fs::read_to_string(&trace_path).expect("trace written");
    let doc = parse_json(&trace_text).expect("trace is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array");
    let request_id_of = |e: &JsonValue| {
        e.get("args")
            .and_then(|a| a.get("request_id"))
            .and_then(JsonValue::as_str)
            .map(str::to_owned)
    };
    for (id, trace_name) in [
        ("hold_a", "request client-lane-a"),
        ("hold_b", "request hold_b"),
        ("queued", "request queued"),
    ] {
        let begin = events
            .iter()
            .find(|e| {
                e.get("ph").and_then(JsonValue::as_str) == Some("B")
                    && request_id_of(e).as_deref() == Some(id)
            })
            .unwrap_or_else(|| panic!("no lifecycle span for {id}"));
        assert_eq!(
            begin.get("name").and_then(JsonValue::as_str),
            Some(trace_name),
            "client trace ids label the span"
        );
        let lane = begin.get("tid").and_then(JsonValue::as_u64).expect("tid");
        let begin_ts = begin.get("ts").and_then(JsonValue::as_u64).expect("ts");
        let end_ts = events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(JsonValue::as_str) == Some("E")
                    && e.get("tid").and_then(JsonValue::as_u64) == Some(lane)
            })
            .filter_map(|e| e.get("ts").and_then(JsonValue::as_u64))
            .find(|ts| *ts >= begin_ts)
            .unwrap_or_else(|| panic!("lifecycle span for {id} never closes"));
        let engine_spans: Vec<&JsonValue> = events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(JsonValue::as_str) == Some("X")
                    && e.get("tid").and_then(JsonValue::as_u64) == Some(lane)
                    && request_id_of(e).as_deref() == Some(id)
                    && e.get("cat").and_then(JsonValue::as_str) != Some("daemon")
            })
            .collect();
        assert!(
            !engine_spans.is_empty(),
            "{id} must contribute engine spans on its lane"
        );
        for span in engine_spans {
            let ts = span.get("ts").and_then(JsonValue::as_u64).expect("ts");
            let dur = span.get("dur").and_then(JsonValue::as_u64).unwrap_or(0);
            assert!(
                ts >= begin_ts && ts + dur <= end_ts,
                "{id}: engine span {span:?} must nest in [{begin_ts}, {end_ts}]"
            );
        }
    }
    // The faults landed on the control lane as instants.
    for name in ["shed", "expired"] {
        assert!(
            events.iter().any(|e| {
                e.get("ph").and_then(JsonValue::as_str) == Some("i")
                    && e.get("name").and_then(JsonValue::as_str) == Some(name)
            }),
            "missing {name} instant in trace"
        );
    }
    // The session document is one engine trace: every request's runs
    // nest on their own lane, and its SAT calls are exactly those the
    // solved requests report.
    eco_patch::core::trace::check_span_integrity(&trace_text)
        .unwrap_or_else(|e| panic!("session trace span integrity: {e}"));
    let summary =
        eco_patch::core::trace::summarize_trace(&trace_text, 0).expect("report reads the session");
    let solved: Vec<u64> = responses
        .iter()
        .filter(|r| r.get("status").and_then(JsonValue::as_str) == Some("ok"))
        .filter_map(|r| {
            r.get("metrics")
                .and_then(|m| m.get("sat_calls"))
                .and_then(|c| c.get("total"))
                .and_then(JsonValue::as_u64)
        })
        .collect();
    assert_eq!(solved.len(), 3, "hold_a, hold_b and queued: {solved:?}");
    assert_eq!(summary.sat_calls, solved.iter().sum::<u64>());
    assert!(summary.sat_calls > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An uncleanly killed daemon leaves its socket file behind; a
/// restart on the same path must detect the stale file, rebind, and
/// serve.
#[test]
fn restart_on_the_same_socket_path_replaces_a_stale_socket_file() {
    let dir = std::env::temp_dir().join(format!("eco_patchd_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("patchd.sock");
    let spawn = || {
        Command::new(env!("CARGO_BIN_EXE_eco_patchd"))
            .args(["--socket", path.to_str().expect("utf-8 path")])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn eco_patchd")
    };
    let connect = || {
        for _ in 0..500 {
            if let Ok(s) = std::os::unix::net::UnixStream::connect(&path) {
                return s;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("daemon never bound {}", path.display());
    };

    // First daemon binds, then dies hard — no cleanup, stale file.
    let mut first = spawn();
    drop(connect());
    first.kill().expect("kill -9 the first daemon");
    first.wait().expect("reap");
    assert!(path.exists(), "the socket file must survive the hard kill");

    // Second daemon on the same path must replace the stale socket
    // and serve a full session.
    let second = spawn();
    let mut stream = connect();
    let session = format!(
        "{}\n{{\"id\":\"q\",\"cmd\":\"shutdown\"}}\n",
        eco_line("reborn", SPECIFICATION)
    );
    stream.write_all(session.as_bytes()).expect("write");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut replies = String::new();
    std::io::Read::read_to_string(&mut stream, &mut replies).expect("read replies");
    let first_reply = parse_json(replies.lines().next().expect("a response")).expect("valid JSON");
    assert_eq!(
        first_reply.get("id").and_then(JsonValue::as_str),
        Some("reborn")
    );
    assert_eq!(
        first_reply.get("status").and_then(JsonValue::as_str),
        Some("ok")
    );
    let status = second.wait_with_output().expect("second daemon exits");
    assert!(
        status.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&status.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
