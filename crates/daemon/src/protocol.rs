//! The JSONL wire protocol: one JSON object per line in both
//! directions, parsed and serialized with the dependency-free
//! [`eco_core::json`] reader/writer.
//!
//! # Requests
//!
//! An ECO request carries both netlists inline (Verilog text), the
//! target nets, optional per-net weights, and optional solver options:
//!
//! ```json
//! {"id":"r1","impl":"module top(...)...","spec":"module top(...)...",
//!  "targets":["t0"],"weights":{"n3":4},"default_weight":1,
//!  "options":{"method":"minimize","budget":2000000,
//!             "global_conflicts":100000,"deadline_ms":5000,
//!             "structural_fallback":true}}
//! ```
//!
//! Control requests use `cmd` instead: `{"id":"s","cmd":"stats"}`
//! reports cache statistics, `{"id":"q","cmd":"shutdown"}` stops the
//! daemon after answering.
//!
//! # Responses
//!
//! Success: `{"id":...,"status":"ok",...}` with the patched Verilog,
//! per-target dispositions, cache hit flags, and the full
//! [`RunMetrics`] JSON under `"metrics"`. Failure:
//! `{"id":...,"status":"error","error":"..."}`.
//!
//! [`RunMetrics`]: eco_core::RunMetrics

use eco_core::json::{escape_json, parse_json, JsonValue};

/// Solver options of one ECO request; every field is optional on the
/// wire and `None` means "the daemon's default".
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RequestOptions {
    /// Support method: `"baseline"`, `"minimize"`, or `"prune"`.
    pub method: Option<String>,
    /// Per-SAT-call conflict budget.
    pub budget: Option<u64>,
    /// Conflict pool shared by every SAT call of this request.
    pub global_conflicts: Option<u64>,
    /// Per-request wall-clock deadline in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Whether the structural fallback ladder is enabled.
    pub structural_fallback: Option<bool>,
    /// Chaos hook (requires the daemon's `--chaos` flag): hold the
    /// request on its worker for this many milliseconds before
    /// solving, keeping the worker deterministically busy so tests can
    /// fill the queue and force load-shedding.
    pub hold_ms: Option<u64>,
    /// Chaos hook (requires the daemon's `--chaos` flag): panic on the
    /// request's first SAT call, simulating a solver bug; the daemon
    /// must answer `"status":"panic"` and keep serving.
    pub inject_panic: bool,
    /// Client-chosen trace correlation id: names the request's
    /// lifecycle span in the daemon's `--trace-out` timeline (defaults
    /// to the request id). Observability-only — it never affects
    /// solving or caching.
    pub trace_id: Option<String>,
}

/// One ECO request, decoded from a JSONL line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EcoRequest {
    /// Client-chosen request id, echoed on the response and stamped
    /// into the run's [`RunMetrics`](eco_core::RunMetrics).
    pub id: String,
    /// The implementation netlist (Verilog text).
    pub impl_verilog: String,
    /// The specification netlist (Verilog text).
    pub spec_verilog: String,
    /// Names of the target nets to re-synthesize.
    pub targets: Vec<String>,
    /// Per-net weight overrides, in wire order.
    pub weights: Vec<(String, u64)>,
    /// Weight of nets absent from `weights`.
    pub default_weight: u64,
    /// Solver options.
    pub options: RequestOptions,
}

/// A decoded request line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Solve an ECO instance.
    Eco(Box<EcoRequest>),
    /// Report daemon cache statistics.
    Stats {
        /// Echoed request id.
        id: String,
    },
    /// Report daemon health: queue depth, in-flight count, uptime,
    /// poison pills, serving counters, and per-layer cache stats.
    Health {
        /// Echoed request id.
        id: String,
    },
    /// Scrape the metrics registry: counters, gauges, stage-latency
    /// histograms, and rolling-window rates/quantiles.
    Metrics {
        /// Echoed request id.
        id: String,
        /// Rendering requested by the client.
        format: MetricsFormat,
    },
    /// Stop admission, drain in-flight work, then exit cleanly.
    Drain {
        /// Echoed request id.
        id: String,
    },
    /// Answer, then stop serving.
    Shutdown {
        /// Echoed request id.
        id: String,
    },
}

/// Rendering of a `metrics` scrape.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MetricsFormat {
    /// Prometheus text exposition format 0.0.4 (the default),
    /// returned as a JSON string under `"metrics"`.
    #[default]
    Prometheus,
    /// A JSON object under `"metrics"`.
    Json,
}

fn string_field(v: &JsonValue, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string field {key:?}"))
}

/// Parses one JSONL request line.
///
/// # Errors
///
/// Returns a human-readable message for malformed JSON, a missing
/// `id`/`impl`/`spec`/`targets`, or an unknown `cmd`.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = parse_json(line).map_err(|e| e.to_string())?;
    if v.as_object().is_none() {
        return Err("request must be a JSON object".to_string());
    }
    let id = string_field(&v, "id")?;
    if let Some(cmd) = v.get("cmd") {
        return match cmd.as_str() {
            Some("stats") => Ok(Request::Stats { id }),
            Some("health") => Ok(Request::Health { id }),
            Some("metrics") => {
                let format = match v.get("format").and_then(JsonValue::as_str) {
                    None | Some("prometheus") => MetricsFormat::Prometheus,
                    Some("json") => MetricsFormat::Json,
                    Some(other) => {
                        return Err(format!(
                            "unknown metrics format {other:?} (expected prometheus or json)"
                        ))
                    }
                };
                Ok(Request::Metrics { id, format })
            }
            Some("drain") => Ok(Request::Drain { id }),
            Some("shutdown") => Ok(Request::Shutdown { id }),
            _ => Err(format!(
                "unknown cmd {cmd:?} (expected stats, health, metrics, drain, or shutdown)"
            )),
        };
    }
    let impl_verilog = string_field(&v, "impl")?;
    let spec_verilog = string_field(&v, "spec")?;
    let targets: Vec<String> = v
        .get("targets")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| "missing or non-array field \"targets\"".to_string())?
        .iter()
        .map(|t| {
            t.as_str()
                .map(str::to_string)
                .ok_or_else(|| "targets must be strings".to_string())
        })
        .collect::<Result<_, _>>()?;
    if targets.is_empty() {
        return Err("targets must be non-empty".to_string());
    }
    let mut weights = Vec::new();
    if let Some(obj) = v.get("weights") {
        let members = obj
            .as_object()
            .ok_or_else(|| "weights must be an object".to_string())?;
        for (net, w) in members {
            let w = w
                .as_u64()
                .ok_or_else(|| format!("weight of {net:?} must be a non-negative integer"))?;
            weights.push((net.clone(), w));
        }
    }
    let default_weight = match v.get("default_weight") {
        None => 1,
        Some(w) => w
            .as_u64()
            .ok_or_else(|| "default_weight must be a non-negative integer".to_string())?,
    };
    let mut options = RequestOptions::default();
    if let Some(opts) = v.get("options") {
        if opts.as_object().is_none() {
            return Err("options must be an object".to_string());
        }
        let uint = |key: &str| -> Result<Option<u64>, String> {
            match opts.get(key) {
                None | Some(JsonValue::Null) => Ok(None),
                Some(w) => w
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| format!("options.{key} must be a non-negative integer")),
            }
        };
        options.method = opts
            .get("method")
            .and_then(JsonValue::as_str)
            .map(str::to_string);
        options.budget = uint("budget")?;
        options.global_conflicts = uint("global_conflicts")?;
        options.deadline_ms = uint("deadline_ms")?;
        options.structural_fallback = opts.get("structural_fallback").and_then(JsonValue::as_bool);
        options.hold_ms = uint("hold_ms")?;
        options.inject_panic = opts
            .get("inject_panic")
            .and_then(JsonValue::as_bool)
            .unwrap_or(false);
        options.trace_id = opts
            .get("trace_id")
            .and_then(JsonValue::as_str)
            .map(str::to_string);
    }
    Ok(Request::Eco(Box::new(EcoRequest {
        id,
        impl_verilog,
        spec_verilog,
        targets,
        weights,
        default_weight,
        options,
    })))
}

/// A successful ECO answer, ready to serialize as one JSONL line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EcoResponse {
    /// Echo of the request id.
    pub id: String,
    /// `true` when the final equivalence check passed.
    pub verified: bool,
    /// Sum of per-target support costs.
    pub cost: u64,
    /// Total AND gates across all patch networks.
    pub gates: u64,
    /// Per-target dispositions (`"patched"`, `"degraded"`,
    /// `"skipped: <reason>"`), in processing order.
    pub dispositions: Vec<String>,
    /// The governor trip that cut the run short, if any.
    pub governor_trip: Option<String>,
    /// `true` when the implementation/spec netlists were served from
    /// the parsed-netlist cache (both lookups hit).
    pub netlist_cache_hit: bool,
    /// `true` when the whole outcome was served from the outcome
    /// cache (zero SAT calls this run).
    pub outcome_cache_hit: bool,
    /// The patched implementation as Verilog text.
    pub patched_verilog: String,
    /// The run's [`RunMetrics`](eco_core::RunMetrics) as a
    /// pre-serialized JSON object.
    pub metrics_json: String,
}

fn flag(hit: bool) -> &'static str {
    if hit {
        "\"hit\""
    } else {
        "\"miss\""
    }
}

impl EcoResponse {
    /// Serializes the response as one JSONL line (no trailing
    /// newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.patched_verilog.len() + 256);
        out.push_str(&format!(
            "{{\"id\":\"{}\",\"status\":\"ok\",\"verified\":{},\"cost\":{},\"gates\":{}",
            escape_json(&self.id),
            self.verified,
            self.cost,
            self.gates
        ));
        out.push_str(",\"dispositions\":[");
        for (i, d) in self.dispositions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&escape_json(d));
            out.push('"');
        }
        out.push(']');
        match &self.governor_trip {
            None => out.push_str(",\"governor_trip\":null"),
            Some(t) => out.push_str(&format!(",\"governor_trip\":\"{}\"", escape_json(t))),
        }
        out.push_str(&format!(
            ",\"cache\":{{\"netlist\":{},\"outcome\":{}}}",
            flag(self.netlist_cache_hit),
            flag(self.outcome_cache_hit)
        ));
        out.push_str(&format!(
            ",\"patched_verilog\":\"{}\"",
            escape_json(&self.patched_verilog)
        ));
        out.push_str(&format!(",\"metrics\":{}}}", self.metrics_json));
        out
    }
}

/// Serializes an error response line for `id` (no trailing newline).
pub fn error_response(id: &str, message: &str) -> String {
    format!(
        "{{\"id\":\"{}\",\"status\":\"error\",\"error\":\"{}\"}}",
        escape_json(id),
        escape_json(message)
    )
}

/// Serializes a load-shed response: the bounded queue is full and the
/// client should back off for about `retry_after_ms` before retrying.
pub fn overloaded_response(id: &str, retry_after_ms: u64) -> String {
    format!(
        "{{\"id\":\"{}\",\"status\":\"overloaded\",\"retry_after_ms\":{retry_after_ms}}}",
        escape_json(id)
    )
}

/// Serializes an expired-in-queue response: the request's own
/// `deadline_ms` passed while it waited (`queued_ms` reports the
/// wait), so it was rejected before any solver work.
pub fn expired_response(id: &str, queued_ms: u64) -> String {
    format!(
        "{{\"id\":\"{}\",\"status\":\"expired\",\"queued_ms\":{queued_ms}}}",
        escape_json(id)
    )
}

/// Serializes a draining response: admission is closed because the
/// daemon is shutting down gracefully; the client should fail over or
/// retry elsewhere after `retry_after_ms`.
pub fn draining_response(id: &str, retry_after_ms: u64) -> String {
    format!(
        "{{\"id\":\"{}\",\"status\":\"draining\",\"retry_after_ms\":{retry_after_ms}}}",
        escape_json(id)
    )
}

/// Serializes a panic response: the request's solve path panicked and
/// was isolated by the worker's unwind boundary. `poisoned` is `true`
/// when this is a fast cached rejection of a quarantined fingerprint
/// (a poison pill) rather than a fresh panic.
pub fn panic_response(id: &str, message: &str, poisoned: bool) -> String {
    format!(
        "{{\"id\":\"{}\",\"status\":\"panic\",\"error\":\"{}\",\"poisoned\":{poisoned}}}",
        escape_json(id),
        escape_json(message)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_eco_request() {
        // `jobs` is not an option: like every unknown key it is ignored.
        let line = r#"{"id":"r1","impl":"module a; endmodule","spec":"module b; endmodule",
            "targets":["t0","t1"],"weights":{"n1":4,"n2":0},"default_weight":2,
            "options":{"method":"prune","budget":100,"global_conflicts":50,
                       "deadline_ms":1000,"jobs":2,"structural_fallback":false}}"#
            .replace('\n', " ");
        let Request::Eco(req) = parse_request(&line).expect("parses") else {
            panic!("expected an ECO request");
        };
        assert_eq!(req.id, "r1");
        assert_eq!(req.targets, vec!["t0", "t1"]);
        assert_eq!(
            req.weights,
            vec![("n1".to_string(), 4), ("n2".to_string(), 0)]
        );
        assert_eq!(req.default_weight, 2);
        assert_eq!(req.options.method.as_deref(), Some("prune"));
        assert_eq!(req.options.budget, Some(100));
        assert_eq!(req.options.global_conflicts, Some(50));
        assert_eq!(req.options.deadline_ms, Some(1000));
        assert_eq!(req.options.structural_fallback, Some(false));
    }

    #[test]
    fn defaults_are_applied_for_optional_fields() {
        let line = r#"{"id":"x","impl":"i","spec":"s","targets":["t"]}"#;
        let Request::Eco(req) = parse_request(line).expect("parses") else {
            panic!("expected an ECO request");
        };
        assert!(req.weights.is_empty());
        assert_eq!(req.default_weight, 1);
        assert_eq!(req.options, RequestOptions::default());
    }

    #[test]
    fn parses_control_commands() {
        assert_eq!(
            parse_request(r#"{"id":"a","cmd":"stats"}"#),
            Ok(Request::Stats {
                id: "a".to_string()
            })
        );
        assert_eq!(
            parse_request(r#"{"id":"h","cmd":"health"}"#),
            Ok(Request::Health {
                id: "h".to_string()
            })
        );
        assert_eq!(
            parse_request(r#"{"id":"d","cmd":"drain"}"#),
            Ok(Request::Drain {
                id: "d".to_string()
            })
        );
        assert_eq!(
            parse_request(r#"{"id":"b","cmd":"shutdown"}"#),
            Ok(Request::Shutdown {
                id: "b".to_string()
            })
        );
    }

    #[test]
    fn parses_metrics_commands_and_formats() {
        assert_eq!(
            parse_request(r#"{"id":"m","cmd":"metrics"}"#),
            Ok(Request::Metrics {
                id: "m".to_string(),
                format: MetricsFormat::Prometheus
            })
        );
        assert_eq!(
            parse_request(r#"{"id":"m","cmd":"metrics","format":"json"}"#),
            Ok(Request::Metrics {
                id: "m".to_string(),
                format: MetricsFormat::Json
            })
        );
        let err = parse_request(r#"{"id":"m","cmd":"metrics","format":"xml"}"#)
            .expect_err("xml is not a format");
        assert!(err.contains("unknown metrics format"), "{err}");
    }

    #[test]
    fn parses_the_trace_id_option() {
        let line = r#"{"id":"t","impl":"i","spec":"s","targets":["t"],
            "options":{"trace_id":"batch-7/step-2"}}"#
            .replace('\n', " ");
        let Request::Eco(req) = parse_request(&line).expect("parses") else {
            panic!("expected an ECO request");
        };
        assert_eq!(req.options.trace_id.as_deref(), Some("batch-7/step-2"));
    }

    #[test]
    fn parses_chaos_options() {
        let line = r#"{"id":"c","impl":"i","spec":"s","targets":["t"],
            "options":{"hold_ms":250,"inject_panic":true}}"#
            .replace('\n', " ");
        let Request::Eco(req) = parse_request(&line).expect("parses") else {
            panic!("expected an ECO request");
        };
        assert_eq!(req.options.hold_ms, Some(250));
        assert!(req.options.inject_panic);
    }

    #[test]
    fn resilience_responses_are_valid_json() {
        let v = parse_json(&overloaded_response("o1", 300)).expect("overloaded parses");
        assert_eq!(
            v.get("status").and_then(JsonValue::as_str),
            Some("overloaded")
        );
        assert_eq!(
            v.get("retry_after_ms").and_then(JsonValue::as_u64),
            Some(300)
        );
        let v = parse_json(&expired_response("e1", 42)).expect("expired parses");
        assert_eq!(v.get("status").and_then(JsonValue::as_str), Some("expired"));
        assert_eq!(v.get("queued_ms").and_then(JsonValue::as_u64), Some(42));
        let v = parse_json(&draining_response("d1", 1000)).expect("draining parses");
        assert_eq!(
            v.get("status").and_then(JsonValue::as_str),
            Some("draining")
        );
        let v = parse_json(&panic_response("p1", "solver \"bug\"", true)).expect("panic parses");
        assert_eq!(v.get("status").and_then(JsonValue::as_str), Some("panic"));
        assert_eq!(
            v.get("error").and_then(JsonValue::as_str),
            Some("solver \"bug\"")
        );
        assert_eq!(v.get("poisoned").and_then(JsonValue::as_bool), Some(true));
    }

    #[test]
    fn rejects_malformed_requests() {
        for (line, needle) in [
            ("not json", "JSON error"),
            ("[1]", "must be a JSON object"),
            (r#"{"impl":"i"}"#, "\"id\""),
            (r#"{"id":"r","impl":"i","spec":"s"}"#, "\"targets\""),
            (
                r#"{"id":"r","impl":"i","spec":"s","targets":[]}"#,
                "non-empty",
            ),
            (r#"{"id":"r","cmd":"reboot"}"#, "unknown cmd"),
            (
                r#"{"id":"r","impl":"i","spec":"s","targets":["t"],"weights":{"n":-1}}"#,
                "weight of",
            ),
        ] {
            let err = parse_request(line).expect_err(line);
            assert!(
                err.contains(needle),
                "{line}: {err} should mention {needle}"
            );
        }
    }

    #[test]
    fn responses_round_trip_through_the_json_parser() {
        let resp = EcoResponse {
            id: "r\"1".to_string(),
            verified: true,
            cost: 7,
            gates: 3,
            dispositions: vec!["patched".to_string(), "skipped: why\nnot".to_string()],
            governor_trip: Some("deadline".to_string()),
            netlist_cache_hit: true,
            outcome_cache_hit: false,
            patched_verilog: "module m;\nendmodule\n".to_string(),
            metrics_json: "{\"schema_version\":8}".to_string(),
        };
        let line = resp.to_json();
        let v = parse_json(&line).expect("response is valid JSON");
        assert_eq!(v.get("id").and_then(JsonValue::as_str), Some("r\"1"));
        assert_eq!(v.get("status").and_then(JsonValue::as_str), Some("ok"));
        assert_eq!(v.get("cost").and_then(JsonValue::as_u64), Some(7));
        assert_eq!(
            v.get("cache")
                .and_then(|c| c.get("netlist"))
                .and_then(JsonValue::as_str),
            Some("hit")
        );
        assert_eq!(
            v.get("patched_verilog").and_then(JsonValue::as_str),
            Some("module m;\nendmodule\n")
        );
        assert_eq!(
            v.get("metrics")
                .and_then(|m| m.get("schema_version"))
                .and_then(JsonValue::as_u64),
            Some(8)
        );
        let err = error_response("e1", "bad \"thing\"");
        let v = parse_json(&err).expect("error response is valid JSON");
        assert_eq!(v.get("status").and_then(JsonValue::as_str), Some("error"));
        assert_eq!(
            v.get("error").and_then(JsonValue::as_str),
            Some("bad \"thing\"")
        );
    }
}
