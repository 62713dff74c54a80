//! Trace export and offline analysis for engine runs.
//!
//! [`ChromeTrace`] writes the one engine trace format: a Chrome
//! `trace_event` document, loadable in Perfetto or `chrome://tracing`.
//! It is a shared handle: the CLI attaches one [`ChromeObserver`] to
//! its run, and `eco_patchd` records request lifecycles and one
//! observer per request into a single session document. Every engine
//! event becomes one record whose `args` carry the event's tag
//! (`"event"`) and all its fields, so the document is lossless.
//!
//! Replay utilities read such a document back: [`summarize_trace`]
//! builds a [`TraceSummary`] (time/conflict breakdown by phase, target,
//! and call kind plus the most expensive calls, added up over every run
//! in the document) and [`check_span_integrity`] verifies that every
//! `*_started` event is closed by its `*_finished` partner in LIFO
//! order on its lane. Records without an `event` tag (the daemon's
//! request spans and control instants) are skipped by both.

use crate::json::{escape_json, parse_json, JsonValue};
use crate::observe::{duration_us, EcoEvent, EcoObserver};
use eco_sat::SolveResult;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::Write;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

fn result_name(result: SolveResult) -> &'static str {
    match result {
        SolveResult::Sat => "sat",
        SolveResult::Unsat => "unsat",
        SolveResult::Unknown => "unknown",
    }
}

fn opt<T: std::fmt::Display>(v: Option<T>) -> String {
    match v {
        Some(x) => x.to_string(),
        None => "null".to_string(),
    }
}

/// Renders one event as `args` members: `"event":"<tag>"` first, then
/// every field of the event. Returns the tag with the members.
fn event_args(event: &EcoEvent) -> (&'static str, String) {
    let mut s = String::with_capacity(96);
    let tag = match event {
        EcoEvent::RunStarted {
            num_targets,
            per_call_conflicts,
        } => {
            let _ = write!(
                s,
                ",\"num_targets\":{num_targets},\"per_call_conflicts\":{}",
                opt(*per_call_conflicts)
            );
            "run_started"
        }
        EcoEvent::PhaseStarted { phase } => {
            let _ = write!(s, ",\"phase\":\"{}\"", phase.name());
            "phase_started"
        }
        EcoEvent::PhaseFinished { phase, elapsed } => {
            let _ = write!(
                s,
                ",\"phase\":\"{}\",\"elapsed_us\":{}",
                phase.name(),
                duration_us(*elapsed)
            );
            "phase_finished"
        }
        EcoEvent::TargetStarted { target_index } => {
            let _ = write!(s, ",\"target_index\":{target_index}");
            "target_started"
        }
        EcoEvent::TargetFinished {
            target_index,
            sat_calls,
            elapsed,
        } => {
            let _ = write!(
                s,
                ",\"target_index\":{target_index},\"sat_calls\":{sat_calls},\"elapsed_us\":{}",
                duration_us(*elapsed)
            );
            "target_finished"
        }
        EcoEvent::SatCall {
            kind,
            target_index,
            result,
            conflicts,
            decisions,
            propagations,
            elapsed,
        } => {
            let _ = write!(
                s,
                ",\"kind\":\"{}\",\"target_index\":{},\"result\":\"{}\",\
                 \"conflicts\":{conflicts},\"decisions\":{decisions},\
                 \"propagations\":{propagations},\"elapsed_us\":{}",
                kind.name(),
                opt(*target_index),
                result_name(*result),
                duration_us(*elapsed)
            );
            "sat_call"
        }
        EcoEvent::QbfRefinement { copies } => {
            let _ = write!(s, ",\"copies\":{copies}");
            "qbf_refinement"
        }
        EcoEvent::QuantificationRefinement {
            target_index,
            assignments,
        } => {
            let _ = write!(
                s,
                ",\"target_index\":{target_index},\"assignments\":{assignments}"
            );
            "quantification_refinement"
        }
        EcoEvent::SupportMinimizationStep {
            target_index,
            step,
            support_size,
        } => {
            let _ = write!(
                s,
                ",\"target_index\":{},\"step\":\"{}\",\"support_size\":{support_size}",
                opt(*target_index),
                step.name()
            );
            "support_minimization_step"
        }
        EcoEvent::StructuralFallback { target_index } => {
            let _ = write!(s, ",\"target_index\":{target_index}");
            "structural_fallback"
        }
        EcoEvent::GovernorTripped { reason } => {
            let _ = write!(s, ",\"reason\":\"{}\"", escape_json(reason.name()));
            "governor_tripped"
        }
        EcoEvent::LadderStep { target_index, rung } => {
            let _ = write!(
                s,
                ",\"target_index\":{target_index},\"rung\":\"{}\"",
                rung.name()
            );
            "ladder_step"
        }
        EcoEvent::CegarMinRound {
            target_index,
            sat_calls,
            cost,
        } => {
            let _ = write!(
                s,
                ",\"target_index\":{},\"sat_calls\":{sat_calls},\"cost\":{cost}",
                opt(*target_index)
            );
            "cegar_min_round"
        }
        EcoEvent::RequestTagged { request_id } => {
            let _ = write!(s, ",\"request_id\":\"{}\"", escape_json(request_id));
            "request_tagged"
        }
        EcoEvent::CacheQuery { layer, hit } => {
            let _ = write!(s, ",\"layer\":\"{}\",\"hit\":{hit}", layer.name());
            "cache_query"
        }
        EcoEvent::ClassesReport {
            target_index,
            oracle_hits,
            inherited_answers,
            refinement_rounds,
            witness_replays,
        } => {
            let _ = write!(
                s,
                ",\"target_index\":{},\"oracle_hits\":{oracle_hits},\
                 \"inherited_answers\":{inherited_answers},\
                 \"refinement_rounds\":{refinement_rounds},\
                 \"witness_replays\":{witness_replays}",
                opt(*target_index)
            );
            "classes_report"
        }
        EcoEvent::RunFinished { elapsed } => {
            let _ = write!(s, ",\"elapsed_us\":{}", duration_us(*elapsed));
            "run_finished"
        }
    };
    (tag, format!("\"event\":\"{tag}\"{s}"))
}

/// The lane (`tid`) for records that belong to no run or request
/// (`eco_patchd` control events such as shed and drain);
/// [`ChromeTrace::open_lane`] hands out the lanes above it.
pub const CONTROL_LANE: usize = 1;

struct ChromeInner {
    writer: Box<dyn Write + Send>,
    wrote_any: bool,
    closed: bool,
    error: Option<std::io::Error>,
    next_lane: usize,
}

/// A Chrome `trace_event` JSON document on one monotonic clock,
/// shared by every thread that records into it. Cheap to clone; all
/// state is shared.
///
/// Records go to lanes (Chrome `tid`s): [`CONTROL_LANE`] plus one per
/// [`ChromeTrace::open_lane`] call. Engine runs record through a
/// [`ChromeObserver`]. Write errors are sticky: the first one is kept
/// and reported by [`ChromeTrace::finish`], which also closes the
/// document exactly once.
#[derive(Clone)]
pub struct ChromeTrace {
    inner: Arc<Mutex<ChromeInner>>,
    started: Instant,
}

impl std::fmt::Debug for ChromeTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("ChromeTrace")
            .field("next_lane", &inner.next_lane)
            .field("closed", &inner.closed)
            .finish()
    }
}

impl ChromeTrace {
    /// Wraps a writer (typically a buffered file).
    pub fn new(writer: Box<dyn Write + Send>) -> ChromeTrace {
        ChromeTrace {
            inner: Arc::new(Mutex::new(ChromeInner {
                writer,
                wrote_any: false,
                closed: false,
                error: None,
                next_lane: CONTROL_LANE + 1,
            })),
            started: Instant::now(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ChromeInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Microseconds since the document was created (the shared clock
    /// of every record's `ts`).
    pub fn ts_us(&self) -> u64 {
        duration_us(self.started.elapsed())
    }

    /// Allocates the next free lane.
    pub fn open_lane(&self) -> usize {
        let mut inner = self.lock();
        let lane = inner.next_lane;
        inner.next_lane += 1;
        lane
    }

    /// Opens a `B` span on `lane` at `ts_us`.
    pub fn begin(&self, lane: usize, name: &str, cat: &str, ts_us: u64, request_id: Option<&str>) {
        self.record('B', name, cat, lane, ts_us, None, request_id, "");
    }

    /// Closes the innermost open span on `lane` at `ts_us`.
    pub fn end(&self, lane: usize, cat: &str, ts_us: u64) {
        self.record('E', "", cat, lane, ts_us, None, None, "");
    }

    /// An `X` block covering `[ts_us, ts_us + dur_us)` on `lane`.
    pub fn complete(
        &self,
        lane: usize,
        name: &str,
        cat: &str,
        ts_us: u64,
        dur_us: u64,
        request_id: Option<&str>,
    ) {
        self.record('X', name, cat, lane, ts_us, Some(dur_us), request_id, "");
    }

    /// An instant event on `lane`, stamped now.
    pub fn instant(&self, lane: usize, name: &str, cat: &str, request_id: Option<&str>) {
        self.record('i', name, cat, lane, self.ts_us(), None, request_id, "");
    }

    /// An engine observer recording one run onto `lane`, tagging every
    /// record with `request_id` when given.
    pub fn observer(&self, lane: usize, request_id: Option<String>) -> ChromeObserver {
        ChromeObserver {
            trace: self.clone(),
            lane,
            request_id,
        }
    }

    /// Renders and writes one record; `extra` holds further `args`
    /// members, already rendered as JSON.
    #[allow(clippy::too_many_arguments)]
    fn record(
        &self,
        ph: char,
        name: &str,
        cat: &str,
        lane: usize,
        ts_us: u64,
        dur_us: Option<u64>,
        request_id: Option<&str>,
        extra: &str,
    ) {
        let mut r = String::with_capacity(128);
        r.push('{');
        if !name.is_empty() {
            let _ = write!(r, "\"name\":\"{}\",", escape_json(name));
        }
        let _ = write!(r, "\"cat\":\"{cat}\",\"ph\":\"{ph}\",\"ts\":{ts_us}");
        if let Some(dur) = dur_us {
            let _ = write!(r, ",\"dur\":{dur}");
        }
        let _ = write!(r, ",\"pid\":1,\"tid\":{lane}");
        if ph == 'i' {
            r.push_str(",\"s\":\"t\"");
        }
        let mut args = String::new();
        if let Some(id) = request_id {
            let _ = write!(args, "\"request_id\":\"{}\"", escape_json(id));
        }
        if !extra.is_empty() {
            if !args.is_empty() {
                args.push(',');
            }
            args.push_str(extra);
        }
        if !args.is_empty() {
            let _ = write!(r, ",\"args\":{{{args}}}");
        }
        r.push('}');
        let mut inner = self.lock();
        if inner.error.is_some() || inner.closed {
            return;
        }
        let lead = if inner.wrote_any {
            ",\n"
        } else {
            "{\"traceEvents\":[\n"
        };
        let written = inner
            .writer
            .write_all(lead.as_bytes())
            .and_then(|()| inner.writer.write_all(r.as_bytes()));
        match written {
            Ok(()) => inner.wrote_any = true,
            Err(e) => inner.error = Some(e),
        }
    }

    /// Closes the JSON document and flushes; fails with the first
    /// write error encountered while streaming, if any. Later records
    /// are dropped; calling again is a cheap no-op.
    pub fn finish(&self) -> std::io::Result<()> {
        let mut inner = self.lock();
        if let Some(e) = inner.error.take() {
            inner.closed = true;
            return Err(e);
        }
        if inner.closed {
            return Ok(());
        }
        inner.closed = true;
        if !inner.wrote_any {
            inner.writer.write_all(b"{\"traceEvents\":[")?;
        }
        inner.writer.write_all(b"]}\n")?;
        inner.writer.flush()
    }
}

/// Records one engine run onto a [`ChromeTrace`] lane.
///
/// Run, phase, target, and SAT-call spans become `X` blocks ending at
/// receipt of their finish event (which carries the duration), so no
/// `B`/`E` pairing is needed. Every other event, the start events
/// included, becomes an instant named after its tag. Each record's
/// `args` carry the full event (see [`summarize_trace`]).
#[derive(Debug)]
pub struct ChromeObserver {
    trace: ChromeTrace,
    lane: usize,
    request_id: Option<String>,
}

impl EcoObserver for ChromeObserver {
    fn on_event(&mut self, event: &EcoEvent) {
        let (tag, args) = event_args(event);
        let (name, cat, elapsed): (Cow<'static, str>, _, _) = match event {
            EcoEvent::RunFinished { elapsed } => ("run".into(), "eco", Some(elapsed)),
            EcoEvent::PhaseFinished { phase, elapsed } => {
                (phase.name().into(), "eco", Some(elapsed))
            }
            EcoEvent::TargetFinished {
                target_index,
                elapsed,
                ..
            } => (
                format!("target {target_index}").into(),
                "eco",
                Some(elapsed),
            ),
            EcoEvent::SatCall { kind, elapsed, .. } => {
                (format!("sat:{}", kind.name()).into(), "sat", Some(elapsed))
            }
            _ => (tag.into(), "eco", None),
        };
        let now = self.trace.ts_us();
        let (ph, ts, dur) = match elapsed {
            Some(elapsed) => {
                let dur = duration_us(*elapsed);
                ('X', now.saturating_sub(dur), Some(dur))
            }
            None => ('i', now, None),
        };
        // A `request_tagged` record carries its own `request_id`.
        let request_id = match event {
            EcoEvent::RequestTagged { .. } => None,
            _ => self.request_id.as_deref(),
        };
        self.trace
            .record(ph, &name, cat, self.lane, ts, dur, request_id, &args);
    }
}

/// Per-phase totals replayed from a trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseSummary {
    /// Phase name as recorded in the trace.
    pub name: String,
    /// `elapsed_us` summed over this phase's `phase_finished` records.
    pub elapsed_us: u64,
}

/// Per-target totals replayed from a trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TargetSummary {
    /// Index into the original problem's target list.
    pub target_index: u64,
    /// Attributed SAT calls observed in the trace.
    pub sat_calls: u64,
    /// Conflicts across those calls.
    pub conflicts: u64,
    /// Solver time across those calls, µs.
    pub sat_time_us: u64,
    /// `elapsed_us` summed over this target's `target_finished`
    /// records (0 if the target never finished).
    pub elapsed_us: u64,
}

/// Per-kind totals replayed from a trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KindSummary {
    /// SAT-call kind name as recorded in the trace.
    pub name: String,
    /// Calls of this kind.
    pub calls: u64,
    /// Conflicts across those calls.
    pub conflicts: u64,
    /// Solver time across those calls, µs.
    pub time_us: u64,
}

/// One expensive SAT call flagged by the report.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExpensiveCall {
    /// SAT-call kind name.
    pub kind: String,
    /// Attributed target, if any.
    pub target_index: Option<u64>,
    /// The call's verdict.
    pub result: String,
    /// Conflicts in the call.
    pub conflicts: u64,
    /// Call wall-time, µs.
    pub elapsed_us: u64,
}

/// Aggregated view of one trace, built by [`summarize_trace`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Engine records replayed (records without an `event` tag are
    /// skipped).
    pub events: u64,
    /// `num_targets` summed over the `run_started` records, if any.
    pub num_targets: Option<u64>,
    /// `elapsed_us` summed over the `run_finished` records, if any.
    pub run_elapsed_us: Option<u64>,
    /// Phase totals by name, in first-completion order.
    pub phases: Vec<PhaseSummary>,
    /// Target totals, in first-seen order.
    pub targets: Vec<TargetSummary>,
    /// Kind totals, in first-seen order.
    pub kinds: Vec<KindSummary>,
    /// Total SAT calls.
    pub sat_calls: u64,
    /// Total conflicts.
    pub sat_conflicts: u64,
    /// Total solver time, µs.
    pub sat_time_us: u64,
    /// The `top_k` most expensive calls, by wall-time then conflicts.
    pub top_calls: Vec<ExpensiveCall>,
    /// Governor trips / injected faults recorded.
    pub governor_trips: u64,
}

/// Walks the engine records of a Chrome trace document in document
/// order: those whose `args` carry an `event` tag. `visit` receives
/// each record's index in `traceEvents`, its lane (`tid`), its tag and
/// its `args`.
fn for_each_engine_record(
    doc: &str,
    mut visit: impl FnMut(usize, u64, &str, &JsonValue) -> Result<(), String>,
) -> Result<(), String> {
    let doc = parse_json(doc).map_err(|e| e.to_string())?;
    let records = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .ok_or("not a Chrome trace: no \"traceEvents\" array")?;
    for (index, record) in records.iter().enumerate() {
        let Some(args) = record.get("args") else {
            continue;
        };
        let Some(event) = args.get("event").and_then(JsonValue::as_str) else {
            continue;
        };
        let lane = record.get("tid").and_then(JsonValue::as_u64).unwrap_or(0);
        visit(index, lane, event, args)?;
    }
    Ok(())
}

/// The entry of `items` that `matches`, appended by `new` if absent.
fn entry<T>(items: &mut Vec<T>, matches: impl Fn(&T) -> bool, new: impl FnOnce() -> T) -> &mut T {
    match items.iter().position(matches) {
        Some(pos) => &mut items[pos],
        None => {
            items.push(new());
            items.last_mut().expect("just pushed")
        }
    }
}

/// Replays a Chrome trace document into a [`TraceSummary`], keeping
/// the `top_k` most expensive calls. Totals add up over every run in
/// the document (one for a CLI trace, one or more per request for an
/// `eco_patchd` session).
///
/// # Errors
///
/// Returns a message when the document is not JSON or has no
/// `traceEvents` array.
pub fn summarize_trace(doc: &str, top_k: usize) -> Result<TraceSummary, String> {
    let mut summary = TraceSummary::default();
    let mut calls: Vec<ExpensiveCall> = Vec::new();
    for_each_engine_record(doc, |_, _, event, args| {
        summary.events += 1;
        let u = |key: &str| args.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
        let text = |key: &str| {
            args.get(key)
                .and_then(JsonValue::as_str)
                .unwrap_or("?")
                .to_string()
        };
        let add = |total: &mut Option<u64>, key: &str| {
            if let Some(n) = args.get(key).and_then(JsonValue::as_u64) {
                *total.get_or_insert(0) += n;
            }
        };
        match event {
            "run_started" => add(&mut summary.num_targets, "num_targets"),
            "run_finished" => add(&mut summary.run_elapsed_us, "elapsed_us"),
            "phase_finished" => {
                let name = text("phase");
                entry(
                    &mut summary.phases,
                    |p| p.name == name,
                    || PhaseSummary {
                        name: name.clone(),
                        elapsed_us: 0,
                    },
                )
                .elapsed_us += u("elapsed_us");
            }
            "target_finished" => {
                target_entry(&mut summary.targets, u("target_index")).elapsed_us += u("elapsed_us");
            }
            "governor_tripped" => summary.governor_trips += 1,
            "sat_call" => {
                let kind = text("kind");
                let conflicts = u("conflicts");
                let elapsed_us = u("elapsed_us");
                summary.sat_calls += 1;
                summary.sat_conflicts += conflicts;
                summary.sat_time_us += elapsed_us;
                let k = entry(
                    &mut summary.kinds,
                    |k| k.name == kind,
                    || KindSummary {
                        name: kind.clone(),
                        ..KindSummary::default()
                    },
                );
                k.calls += 1;
                k.conflicts += conflicts;
                k.time_us += elapsed_us;
                let target_index = args.get("target_index").and_then(JsonValue::as_u64);
                if let Some(idx) = target_index {
                    let t = target_entry(&mut summary.targets, idx);
                    t.sat_calls += 1;
                    t.conflicts += conflicts;
                    t.sat_time_us += elapsed_us;
                }
                calls.push(ExpensiveCall {
                    kind,
                    target_index,
                    result: text("result"),
                    conflicts,
                    elapsed_us,
                });
            }
            _ => {}
        }
        Ok(())
    })?;
    calls.sort_by_key(|c| std::cmp::Reverse((c.elapsed_us, c.conflicts)));
    calls.truncate(top_k);
    summary.top_calls = calls;
    Ok(summary)
}

fn target_entry(targets: &mut Vec<TargetSummary>, target_index: u64) -> &mut TargetSummary {
    entry(
        targets,
        |t| t.target_index == target_index,
        || TargetSummary {
            target_index,
            ..TargetSummary::default()
        },
    )
}

fn percent(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// Renders a [`TraceSummary`] as the human-readable report printed by
/// `eco_patch report`.
pub fn render_report(summary: &TraceSummary) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "trace: {} events", summary.events);
    let _ = writeln!(
        out,
        "run: targets={} elapsed_us={} governor_trips={}",
        summary
            .num_targets
            .map_or_else(|| "?".to_string(), |n| n.to_string()),
        summary
            .run_elapsed_us
            .map_or_else(|| "?".to_string(), |n| n.to_string()),
        summary.governor_trips
    );
    let run_us = summary.run_elapsed_us.unwrap_or(0);
    let _ = writeln!(out, "\nphases:");
    let _ = writeln!(out, "  {:<20} {:>12} {:>7}", "phase", "elapsed_us", "share");
    for p in &summary.phases {
        let _ = writeln!(
            out,
            "  {:<20} {:>12} {:>6.1}%",
            p.name,
            p.elapsed_us,
            percent(p.elapsed_us, run_us)
        );
    }
    let _ = writeln!(
        out,
        "\nsat calls: total={} conflicts={} time_us={}",
        summary.sat_calls, summary.sat_conflicts, summary.sat_time_us
    );
    let _ = writeln!(
        out,
        "  {:<20} {:>8} {:>10} {:>12} {:>7}",
        "kind", "calls", "conflicts", "time_us", "share"
    );
    for k in &summary.kinds {
        let _ = writeln!(
            out,
            "  {:<20} {:>8} {:>10} {:>12} {:>6.1}%",
            k.name,
            k.calls,
            k.conflicts,
            k.time_us,
            percent(k.time_us, summary.sat_time_us)
        );
    }
    if !summary.targets.is_empty() {
        let _ = writeln!(out, "\ntargets:");
        let _ = writeln!(
            out,
            "  {:<8} {:>8} {:>10} {:>12} {:>12}",
            "target", "calls", "conflicts", "sat_time_us", "elapsed_us"
        );
        for t in &summary.targets {
            let _ = writeln!(
                out,
                "  {:<8} {:>8} {:>10} {:>12} {:>12}",
                t.target_index, t.sat_calls, t.conflicts, t.sat_time_us, t.elapsed_us
            );
        }
    }
    if !summary.top_calls.is_empty() {
        let _ = writeln!(
            out,
            "\ntop {} most expensive calls:",
            summary.top_calls.len()
        );
        for (i, c) in summary.top_calls.iter().enumerate() {
            let _ = writeln!(
                out,
                "  #{:<3} kind={} target={} result={} conflicts={} elapsed_us={}",
                i + 1,
                c.kind,
                c.target_index
                    .map_or_else(|| "-".to_string(), |t| t.to_string()),
                c.result,
                c.conflicts,
                c.elapsed_us
            );
        }
    }
    out
}

/// Verifies the span discipline of a Chrome trace document: on each
/// lane, every `run/phase/target started` record must be closed by the
/// matching `finished` record in LIFO order. A lane may hold several
/// engine runs back to back (observers handed the same lane), so after
/// `run_finished` the only record allowed on that lane is a new
/// `run_started`.
///
/// Lanes whose run was aborted (no `run_finished`) pass as long as the
/// records seen so far nest correctly.
///
/// # Errors
///
/// Returns a message naming the record (its index in `traceEvents`)
/// of the first violation.
pub fn check_span_integrity(doc: &str) -> Result<(), String> {
    // Per lane: the open spans, innermost last, and whether the lane's
    // last run has finished.
    let mut lanes: HashMap<u64, (Vec<String>, bool)> = HashMap::new();
    for_each_engine_record(doc, |index, lane, event, args| {
        let (stack, finished) = lanes.entry(lane).or_default();
        if *finished && event != "run_started" {
            return Err(format!(
                "record {index}: {event} after run_finished on lane {lane}"
            ));
        }
        let span = |kind: &str| -> Result<String, String> {
            match kind {
                "run" => Ok("run".to_string()),
                "phase" => args
                    .get("phase")
                    .and_then(JsonValue::as_str)
                    .map(|p| format!("phase {p}"))
                    .ok_or_else(|| format!("record {index}: missing \"phase\"")),
                _ => args
                    .get("target_index")
                    .and_then(JsonValue::as_u64)
                    .map(|t| format!("target {t}"))
                    .ok_or_else(|| format!("record {index}: missing \"target_index\"")),
            }
        };
        let (open, kind) = match event {
            "run_started" => (true, "run"),
            "run_finished" => (false, "run"),
            "phase_started" => (true, "phase"),
            "phase_finished" => (false, "phase"),
            "target_started" => (true, "target"),
            "target_finished" => (false, "target"),
            _ => return Ok(()),
        };
        let name = span(kind)?;
        if open {
            if kind == "run" {
                if !stack.is_empty() {
                    return Err(format!("record {index}: run_started inside open spans"));
                }
                *finished = false;
            }
            stack.push(name);
        } else {
            match stack.pop() {
                Some(top) if top == name => {}
                Some(top) => {
                    return Err(format!(
                        "record {index}: closed '{name}' while '{top}' was innermost"
                    ));
                }
                None => {
                    return Err(format!("record {index}: closed '{name}' with no open span"));
                }
            }
            if kind == "run" {
                *finished = true;
            }
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::{Phase, SatCallKind};
    use eco_testutil::SharedBuf;
    use std::time::Duration;

    fn sample_events() -> Vec<EcoEvent> {
        vec![
            EcoEvent::RunStarted {
                num_targets: 1,
                per_call_conflicts: None,
            },
            EcoEvent::PhaseStarted {
                phase: Phase::PatchGeneration,
            },
            EcoEvent::TargetStarted { target_index: 0 },
            EcoEvent::SatCall {
                kind: SatCallKind::Support,
                target_index: Some(0),
                result: SolveResult::Unsat,
                conflicts: 12,
                decisions: 4,
                propagations: 40,
                elapsed: Duration::from_micros(250),
            },
            EcoEvent::SatCall {
                kind: SatCallKind::Cec,
                target_index: None,
                result: SolveResult::Sat,
                conflicts: 3,
                decisions: 1,
                propagations: 9,
                elapsed: Duration::from_micros(90),
            },
            EcoEvent::TargetFinished {
                target_index: 0,
                sat_calls: 1,
                elapsed: Duration::from_micros(400),
            },
            EcoEvent::PhaseFinished {
                phase: Phase::PatchGeneration,
                elapsed: Duration::from_micros(500),
            },
            EcoEvent::RunFinished {
                elapsed: Duration::from_micros(600),
            },
        ]
    }

    /// The `traceEvents` records written into `buf`.
    fn records(buf: &SharedBuf) -> Vec<JsonValue> {
        let text = buf.text();
        let doc = parse_json(&text).unwrap_or_else(|e| panic!("bad chrome JSON: {e}\n{text}"));
        doc.get("traceEvents")
            .and_then(JsonValue::as_array)
            .expect("traceEvents array")
            .to_vec()
    }

    /// The document `record` writes into a fresh trace.
    fn document(record: impl FnOnce(&ChromeTrace)) -> String {
        let buf = SharedBuf::default();
        let trace = ChromeTrace::new(Box::new(buf.clone()));
        record(&trace);
        trace.finish().expect("no io errors");
        buf.text()
    }

    /// The sample run on one untagged lane, as the CLI writes it.
    fn sample_doc() -> String {
        document(|trace| {
            let mut obs = trace.observer(trace.open_lane(), None);
            for event in sample_events() {
                obs.on_event(&event);
            }
        })
    }

    #[test]
    fn summary_replays_totals() {
        let summary = summarize_trace(&sample_doc(), 1).expect("replay");
        assert_eq!(summary.events, 8);
        assert_eq!(summary.num_targets, Some(1));
        assert_eq!(summary.run_elapsed_us, Some(600));
        assert_eq!(summary.sat_calls, 2);
        assert_eq!(summary.sat_conflicts, 15);
        assert_eq!(summary.sat_time_us, 340);
        assert_eq!(summary.phases.len(), 1);
        assert_eq!(summary.phases[0].name, "patch_generation");
        assert_eq!(summary.phases[0].elapsed_us, 500);
        assert_eq!(summary.targets.len(), 1);
        assert_eq!(summary.targets[0].sat_calls, 1);
        assert_eq!(summary.targets[0].sat_time_us, 250);
        assert_eq!(summary.targets[0].elapsed_us, 400);
        assert_eq!(summary.top_calls.len(), 1);
        assert_eq!(summary.top_calls[0].kind, "support");
        let report = render_report(&summary);
        assert!(report.contains("patch_generation"));
        assert!(report.contains("top 1 most expensive calls"));
        assert!(summarize_trace("{\"ts_us\":0,\"event\":\"run_started\"}", 1).is_err());
    }

    #[test]
    fn span_integrity_accepts_wellformed_and_rejects_crossed_spans() {
        check_span_integrity(&sample_doc()).expect("well-formed");
        let crossed = r#"{"traceEvents":[
{"name":"run_started","cat":"eco","ph":"i","ts":0,"pid":1,"tid":2,"s":"t","args":{"event":"run_started","num_targets":1,"per_call_conflicts":null}},
{"name":"phase_started","cat":"eco","ph":"i","ts":1,"pid":1,"tid":2,"s":"t","args":{"event":"phase_started","phase":"windowing"}},
{"name":"target_started","cat":"eco","ph":"i","ts":2,"pid":1,"tid":2,"s":"t","args":{"event":"target_started","target_index":0}},
{"name":"windowing","cat":"eco","ph":"X","ts":1,"dur":2,"pid":1,"tid":2,"args":{"event":"phase_finished","phase":"windowing","elapsed_us":2}}]}"#;
        let err = check_span_integrity(crossed).unwrap_err();
        assert!(err.contains("target 0"), "{err}");
        let unopened = r#"{"traceEvents":[{"name":"target 3","cat":"eco","ph":"X","ts":0,"dur":1,"pid":1,"tid":2,"args":{"event":"target_finished","target_index":3,"sat_calls":0,"elapsed_us":1}}]}"#;
        assert!(check_span_integrity(unopened).is_err());
        let after_run = document(|trace| {
            let mut obs = trace.observer(trace.open_lane(), None);
            for event in sample_events() {
                obs.on_event(&event);
            }
            obs.on_event(&EcoEvent::QbfRefinement { copies: 1 });
        });
        let err = check_span_integrity(&after_run).unwrap_err();
        assert!(err.contains("after run_finished"), "{err}");
    }

    #[test]
    fn interleaved_runs_on_two_lanes_pass_integrity_and_add_up() {
        let events = sample_events();
        let doc = document(|trace| {
            let (lane_a, lane_b) = (trace.open_lane(), trace.open_lane());
            let mut a = trace.observer(lane_a, Some("a".to_string()));
            let mut b = trace.observer(lane_b, Some("b".to_string()));
            trace.begin(lane_a, "request a", "daemon", 0, Some("a"));
            trace.instant(CONTROL_LANE, "shed", "daemon", Some("c"));
            // Lane b runs one event behind lane a, so each lane's spans
            // cross the other's in document order.
            a.on_event(&events[0]);
            for (ea, eb) in events[1..].iter().zip(&events) {
                a.on_event(ea);
                b.on_event(eb);
            }
            b.on_event(&events[events.len() - 1]);
            trace.end(lane_a, "daemon", trace.ts_us());
            // A second engine run on the same lane.
            let mut again = trace.observer(lane_b, Some("b".to_string()));
            for event in &events {
                again.on_event(event);
            }
        });
        check_span_integrity(&doc).expect("each lane nests on its own");
        let summary = summarize_trace(&doc, 10).expect("replay");
        assert_eq!(summary.events, 24, "daemon records are skipped");
        assert_eq!(summary.num_targets, Some(3));
        assert_eq!(summary.run_elapsed_us, Some(1800));
        assert_eq!(summary.sat_calls, 6);
        assert_eq!(summary.sat_conflicts, 45);
        assert_eq!(summary.sat_time_us, 1020);
        assert_eq!(summary.phases.len(), 1, "phases add up by name");
        assert_eq!(summary.phases[0].elapsed_us, 1500);
        assert_eq!(summary.targets.len(), 1);
        assert_eq!(summary.targets[0].sat_calls, 3);
        assert_eq!(summary.targets[0].elapsed_us, 1200);
        assert_eq!(summary.kinds.len(), 2);
        assert_eq!(summary.top_calls.len(), 6);

        // A crossed span within one lane still fails, even when
        // another lane is interleaved with it.
        let crossed = document(|trace| {
            let (lane_a, lane_b) = (trace.open_lane(), trace.open_lane());
            let mut a = trace.observer(lane_a, None);
            let mut b = trace.observer(lane_b, None);
            for event in &events[..3] {
                a.on_event(event);
                b.on_event(event);
            }
            a.on_event(&EcoEvent::PhaseFinished {
                phase: Phase::PatchGeneration,
                elapsed: Duration::from_micros(5),
            });
        });
        let err = check_span_integrity(&crossed).unwrap_err();
        assert!(err.contains("target 0"), "{err}");
    }

    #[test]
    fn chrome_observer_writes_every_event_with_its_fields() {
        let buf = SharedBuf::default();
        let trace = ChromeTrace::new(Box::new(buf.clone()));
        let mut obs = trace.observer(trace.open_lane(), Some("r1".to_string()));
        for event in sample_events() {
            obs.on_event(&event);
        }
        obs.on_event(&EcoEvent::RequestTagged {
            request_id: "r1".to_string(),
        });
        trace.finish().expect("no io errors");
        let events = records(&buf);
        let str_of =
            |e: &JsonValue, key: &str| e.get(key).and_then(JsonValue::as_str).map(str::to_owned);
        let records: Vec<(String, String)> = events
            .iter()
            .map(|e| (str_of(e, "ph").unwrap(), str_of(e, "name").unwrap()))
            .collect();
        let want = [
            ("i", "run_started"),
            ("i", "phase_started"),
            ("i", "target_started"),
            ("X", "sat:support"),
            ("X", "sat:cec"),
            ("X", "target 0"),
            ("X", "patch_generation"),
            ("X", "run"),
            ("i", "request_tagged"),
        ];
        let want: Vec<(String, String)> = want
            .iter()
            .map(|(ph, name)| (ph.to_string(), name.to_string()))
            .collect();
        assert_eq!(records, want, "one record per event, in event order");
        let tags = [
            "run_started",
            "phase_started",
            "target_started",
            "sat_call",
            "sat_call",
            "target_finished",
            "phase_finished",
            "run_finished",
            "request_tagged",
        ];
        for (e, tag) in events.iter().zip(tags) {
            assert!(e.get("ts").and_then(JsonValue::as_u64).is_some());
            assert_eq!(e.get("tid").and_then(JsonValue::as_u64), Some(2));
            let args = e.get("args").expect("args");
            assert_eq!(
                args.get("request_id").and_then(JsonValue::as_str),
                Some("r1")
            );
            assert_eq!(args.get("event").and_then(JsonValue::as_str), Some(tag));
        }
        let line = buf
            .text()
            .lines()
            .find(|l| l.contains("request_tagged"))
            .expect("tag record")
            .to_string();
        assert_eq!(line.matches("request_id").count(), 1, "{line}");
        let target = &events[5];
        assert_eq!(target.get("dur").and_then(JsonValue::as_u64), Some(400));
        let support = events[3].get("args").expect("args");
        for (key, value) in [
            ("conflicts", 12),
            ("decisions", 4),
            ("propagations", 40),
            ("elapsed_us", 250),
            ("target_index", 0),
        ] {
            assert_eq!(
                support.get(key).and_then(JsonValue::as_u64),
                Some(value),
                "{key}"
            );
        }
        assert_eq!(
            support.get("kind").and_then(JsonValue::as_str),
            Some("support")
        );
        assert_eq!(
            support.get("result").and_then(JsonValue::as_str),
            Some("unsat")
        );
    }

    #[test]
    fn chrome_trace_records_lifecycles_and_closes_once() {
        let buf = SharedBuf::default();
        let trace = ChromeTrace::new(Box::new(buf.clone()));
        let lane = trace.open_lane();
        assert_eq!(lane, 2, "lanes start above the control lane");
        trace.begin(lane, "request trace-a", "daemon", 0, Some("r1"));
        trace.complete(lane, "queue_wait", "daemon", 0, 120, Some("r1"));
        trace.instant(CONTROL_LANE, "shed", "daemon", Some("r2"));
        trace
            .observer(lane, None)
            .on_event(&EcoEvent::QbfRefinement { copies: 2 });
        trace.end(lane, "daemon", trace.ts_us().max(200));
        trace.finish().expect("finish");
        trace.finish().expect("idempotent");
        trace.instant(CONTROL_LANE, "late", "daemon", None);
        let events = records(&buf);
        assert_eq!(events.len(), 5, "records after finish are dropped");
        let begin = &events[0];
        assert_eq!(
            begin.get("name").and_then(JsonValue::as_str),
            Some("request trace-a")
        );
        assert_eq!(begin.get("ph").and_then(JsonValue::as_str), Some("B"));
        assert_eq!(
            begin
                .get("args")
                .and_then(|a| a.get("request_id"))
                .and_then(JsonValue::as_str),
            Some("r1")
        );
        assert_eq!(events[1].get("dur").and_then(JsonValue::as_u64), Some(120));
        assert_eq!(events[2].get("tid").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(events[3].get("ph").and_then(JsonValue::as_str), Some("i"));
        let args = events[3].get("args").expect("engine records carry args");
        assert!(
            args.get("request_id").is_none(),
            "untagged lanes carry no request id"
        );
        assert_eq!(args.get("copies").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(events[4].get("ph").and_then(JsonValue::as_str), Some("E"));

        let empty = SharedBuf::default();
        ChromeTrace::new(Box::new(empty.clone()))
            .finish()
            .expect("io");
        assert!(
            records(&empty).is_empty(),
            "an empty document is still closed"
        );
    }
}
