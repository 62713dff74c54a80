//! Trace export and offline analysis for engine runs.
//!
//! Two exporters turn the [`EcoEvent`] stream into files:
//!
//! - [`JsonlTraceObserver`] streams one JSON object per event (JSON
//!   Lines) — the lossless format replayed by [`summarize_trace`] and
//!   the `eco_patch report` command;
//! - [`ChromeTrace`] writes the Chrome `trace_event` format, loadable
//!   in Perfetto or `chrome://tracing`. It is a shared handle: the CLI
//!   attaches one [`ChromeObserver`] to its run, and `eco_patchd`
//!   records request lifecycles and one observer per request into a
//!   single session document.
//!
//! Replay utilities build a [`TraceSummary`] (time/conflict breakdown
//! by phase, target, and call kind plus the most expensive calls) and
//! [`check_span_integrity`] verifies that every `*_started` event is
//! closed by its `*_finished` partner in LIFO order.

use crate::json::{escape_json, parse_json, JsonValue};
use crate::observe::{duration_us, EcoEvent, EcoObserver};
use eco_sat::SolveResult;
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

fn opt_usize(v: Option<usize>) -> String {
    match v {
        Some(x) => x.to_string(),
        None => "null".to_string(),
    }
}

/// Renders one event as a single-line JSON object with the given
/// relative timestamp. This is the line format of
/// [`JsonlTraceObserver`].
fn event_record(ts_us: u64, event: &EcoEvent) -> String {
    let mut s = String::with_capacity(96);
    let _ = write!(s, "{{\"ts_us\":{ts_us},\"event\":");
    match event {
        EcoEvent::RunStarted {
            num_targets,
            per_call_conflicts,
        } => {
            let budget = match per_call_conflicts {
                Some(b) => b.to_string(),
                None => "null".to_string(),
            };
            let _ = write!(
                s,
                "\"run_started\",\"num_targets\":{num_targets},\"per_call_conflicts\":{budget}"
            );
        }
        EcoEvent::PhaseStarted { phase } => {
            let _ = write!(s, "\"phase_started\",\"phase\":\"{}\"", phase.name());
        }
        EcoEvent::PhaseFinished { phase, elapsed } => {
            let _ = write!(
                s,
                "\"phase_finished\",\"phase\":\"{}\",\"elapsed_us\":{}",
                phase.name(),
                duration_us(*elapsed)
            );
        }
        EcoEvent::TargetStarted { target_index } => {
            let _ = write!(s, "\"target_started\",\"target_index\":{target_index}");
        }
        EcoEvent::TargetFinished {
            target_index,
            sat_calls,
            elapsed,
        } => {
            let _ = write!(
                s,
                "\"target_finished\",\"target_index\":{target_index},\
                 \"sat_calls\":{sat_calls},\"elapsed_us\":{}",
                duration_us(*elapsed)
            );
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
                "\"sat_call\",\"kind\":\"{}\",\"target_index\":{},\"result\":\"{}\",\
                 \"conflicts\":{conflicts},\"decisions\":{decisions},\
                 \"propagations\":{propagations},\"elapsed_us\":{}",
                kind.name(),
                opt_usize(*target_index),
                result_name(*result),
                duration_us(*elapsed)
            );
        }
        EcoEvent::QbfRefinement { copies } => {
            let _ = write!(s, "\"qbf_refinement\",\"copies\":{copies}");
        }
        EcoEvent::QuantificationRefinement {
            target_index,
            assignments,
        } => {
            let _ = write!(
                s,
                "\"quantification_refinement\",\"target_index\":{target_index},\
                 \"assignments\":{assignments}"
            );
        }
        EcoEvent::SupportMinimizationStep {
            target_index,
            step,
            support_size,
        } => {
            let _ = write!(
                s,
                "\"support_minimization_step\",\"target_index\":{},\"step\":\"{}\",\
                 \"support_size\":{support_size}",
                opt_usize(*target_index),
                step.name()
            );
        }
        EcoEvent::StructuralFallback { target_index } => {
            let _ = write!(s, "\"structural_fallback\",\"target_index\":{target_index}");
        }
        EcoEvent::GovernorTripped { reason } => {
            let _ = write!(
                s,
                "\"governor_tripped\",\"reason\":\"{}\"",
                escape_json(reason.name())
            );
        }
        EcoEvent::LadderStep { target_index, rung } => {
            let _ = write!(
                s,
                "\"ladder_step\",\"target_index\":{target_index},\"rung\":\"{}\"",
                rung.name()
            );
        }
        EcoEvent::CegarMinRound {
            target_index,
            sat_calls,
            cost,
        } => {
            let _ = write!(
                s,
                "\"cegar_min_round\",\"target_index\":{},\"sat_calls\":{sat_calls},\
                 \"cost\":{cost}",
                opt_usize(*target_index)
            );
        }
        EcoEvent::RequestTagged { request_id } => {
            let _ = write!(
                s,
                "\"request_tagged\",\"request_id\":\"{}\"",
                escape_json(request_id)
            );
        }
        EcoEvent::CacheQuery { layer, hit } => {
            let _ = write!(
                s,
                "\"cache_query\",\"layer\":\"{}\",\"hit\":{hit}",
                layer.name()
            );
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
                "\"classes_report\",\"target_index\":{},\"oracle_hits\":{oracle_hits},\
                 \"inherited_answers\":{inherited_answers},\
                 \"refinement_rounds\":{refinement_rounds},\
                 \"witness_replays\":{witness_replays}",
                opt_usize(*target_index)
            );
        }
        EcoEvent::RunFinished { elapsed } => {
            let _ = write!(
                s,
                "\"run_finished\",\"elapsed_us\":{}",
                duration_us(*elapsed)
            );
        }
        // `EcoEvent` is non_exhaustive for downstream crates; new
        // variants must be given a record shape here before release.
        #[allow(unreachable_patterns)]
        _ => {
            let _ = write!(s, "\"unknown\"");
        }
    }
    s.push('}');
    s
}

/// Streams every event as one JSON object per line (JSON Lines).
///
/// Timestamps (`ts_us`) are microseconds relative to the first
/// observed event. Write errors are sticky: the first one is kept and
/// reported by [`JsonlTraceObserver::finish`], and no further lines
/// are written.
#[derive(Debug)]
pub struct JsonlTraceObserver<W: Write> {
    writer: W,
    start: Option<Instant>,
    error: Option<std::io::Error>,
}

impl<W: Write> JsonlTraceObserver<W> {
    /// Wraps a writer (typically a buffered file).
    pub fn new(writer: W) -> JsonlTraceObserver<W> {
        JsonlTraceObserver {
            writer,
            start: None,
            error: None,
        }
    }

    /// Flushes and returns the writer; fails with the first write
    /// error encountered while streaming, if any.
    pub fn finish(mut self) -> std::io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.writer.flush()?;
        Ok(self.writer)
    }

    fn ts_us(&mut self) -> u64 {
        let start = *self.start.get_or_insert_with(Instant::now);
        duration_us(start.elapsed())
    }
}

impl<W: Write> EcoObserver for JsonlTraceObserver<W> {
    fn on_event(&mut self, event: &EcoEvent) {
        if self.error.is_some() {
            return;
        }
        let ts = self.ts_us();
        let line = event_record(ts, event);
        if let Err(e) = writeln!(self.writer, "{line}") {
            self.error = Some(e);
        }
    }
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
/// `B`/`E` pairing is needed. Start events are implied by the blocks;
/// every other event becomes an instant.
#[derive(Debug)]
pub struct ChromeObserver {
    trace: ChromeTrace,
    lane: usize,
    request_id: Option<String>,
}

impl EcoObserver for ChromeObserver {
    fn on_event(&mut self, event: &EcoEvent) {
        let (name, cat, elapsed, extra) = match event {
            EcoEvent::RunStarted { .. }
            | EcoEvent::PhaseStarted { .. }
            | EcoEvent::TargetStarted { .. } => return,
            EcoEvent::RunFinished { elapsed } => {
                ("run".to_string(), "eco", Some(elapsed), String::new())
            }
            EcoEvent::PhaseFinished { phase, elapsed } => (
                phase.name().to_string(),
                "eco",
                Some(elapsed),
                String::new(),
            ),
            EcoEvent::TargetFinished {
                target_index,
                elapsed,
                ..
            } => (
                format!("target {target_index}"),
                "eco",
                Some(elapsed),
                String::new(),
            ),
            EcoEvent::SatCall {
                kind,
                target_index,
                result,
                conflicts,
                elapsed,
                ..
            } => (
                format!("sat:{}", kind.name()),
                "sat",
                Some(elapsed),
                format!(
                    "\"result\":\"{}\",\"conflicts\":{conflicts},\"target_index\":{}",
                    result_name(*result),
                    opt_usize(*target_index)
                ),
            ),
            EcoEvent::GovernorTripped { reason } => (
                "governor_tripped".to_string(),
                "eco",
                None,
                format!("\"reason\":\"{}\"", escape_json(reason.name())),
            ),
            other => {
                let name = match other {
                    EcoEvent::QbfRefinement { .. } => "qbf_refinement",
                    EcoEvent::QuantificationRefinement { .. } => "quantification_refinement",
                    EcoEvent::SupportMinimizationStep { .. } => "support_minimization_step",
                    EcoEvent::StructuralFallback { .. } => "structural_fallback",
                    EcoEvent::LadderStep { .. } => "ladder_step",
                    EcoEvent::CegarMinRound { .. } => "cegar_min_round",
                    EcoEvent::RequestTagged { .. } => "request_tagged",
                    EcoEvent::CacheQuery { .. } => "cache_query",
                    EcoEvent::ClassesReport { .. } => "classes_report",
                    _ => "event",
                };
                (name.to_string(), "eco", None, String::new())
            }
        };
        let now = self.trace.ts_us();
        let (ph, ts, dur) = match elapsed {
            Some(elapsed) => {
                let dur = duration_us(*elapsed);
                ('X', now.saturating_sub(dur), Some(dur))
            }
            None => ('i', now, None),
        };
        self.trace.record(
            ph,
            &name,
            cat,
            self.lane,
            ts,
            dur,
            self.request_id.as_deref(),
            &extra,
        );
    }
}

/// Per-phase totals replayed from a trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseSummary {
    /// Phase name as recorded in the trace.
    pub name: String,
    /// `elapsed_us` of the `phase_finished` record.
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
    /// `elapsed_us` of the `target_finished` record (0 if the target
    /// never finished).
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
    /// Records replayed.
    pub events: u64,
    /// `num_targets` of the `run_started` record, if present.
    pub num_targets: Option<u64>,
    /// `elapsed_us` of the `run_finished` record, if present.
    pub run_elapsed_us: Option<u64>,
    /// Phase totals, in completion order.
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

/// Replays a JSONL trace into a [`TraceSummary`], keeping the `top_k`
/// most expensive calls.
///
/// # Errors
///
/// Returns a message naming the offending line when a line is not a
/// JSON object or lacks the `event` tag.
pub fn summarize_trace(jsonl: &str, top_k: usize) -> Result<TraceSummary, String> {
    let mut summary = TraceSummary::default();
    let mut calls: Vec<ExpensiveCall> = Vec::new();
    for (lineno, line) in jsonl.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let record = parse_json(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let event = record
            .get("event")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("line {}: missing \"event\" tag", lineno + 1))?;
        summary.events += 1;
        let u = |key: &str| record.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
        match event {
            "run_started" => {
                summary.num_targets = record.get("num_targets").and_then(JsonValue::as_u64);
            }
            "run_finished" => {
                summary.run_elapsed_us = record.get("elapsed_us").and_then(JsonValue::as_u64);
            }
            "phase_finished" => {
                let name = record
                    .get("phase")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("?")
                    .to_string();
                summary.phases.push(PhaseSummary {
                    name,
                    elapsed_us: u("elapsed_us"),
                });
            }
            "target_finished" => {
                let idx = u("target_index");
                let entry = target_entry(&mut summary.targets, idx);
                entry.elapsed_us = u("elapsed_us");
            }
            "governor_tripped" => summary.governor_trips += 1,
            "sat_call" => {
                let kind = record
                    .get("kind")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("?")
                    .to_string();
                let conflicts = u("conflicts");
                let elapsed_us = u("elapsed_us");
                summary.sat_calls += 1;
                summary.sat_conflicts += conflicts;
                summary.sat_time_us += elapsed_us;
                let entry = match summary.kinds.iter_mut().find(|k| k.name == kind) {
                    Some(entry) => entry,
                    None => {
                        summary.kinds.push(KindSummary {
                            name: kind.clone(),
                            ..KindSummary::default()
                        });
                        summary.kinds.last_mut().expect("just pushed")
                    }
                };
                entry.calls += 1;
                entry.conflicts += conflicts;
                entry.time_us += elapsed_us;
                let target_index = record.get("target_index").and_then(JsonValue::as_u64);
                if let Some(idx) = target_index {
                    let t = target_entry(&mut summary.targets, idx);
                    t.sat_calls += 1;
                    t.conflicts += conflicts;
                    t.sat_time_us += elapsed_us;
                }
                calls.push(ExpensiveCall {
                    kind,
                    target_index,
                    result: record
                        .get("result")
                        .and_then(JsonValue::as_str)
                        .unwrap_or("?")
                        .to_string(),
                    conflicts,
                    elapsed_us,
                });
            }
            _ => {}
        }
    }
    calls.sort_by_key(|c| std::cmp::Reverse((c.elapsed_us, c.conflicts)));
    calls.truncate(top_k);
    summary.top_calls = calls;
    Ok(summary)
}

fn target_entry(targets: &mut Vec<TargetSummary>, target_index: u64) -> &mut TargetSummary {
    if let Some(pos) = targets.iter().position(|t| t.target_index == target_index) {
        return &mut targets[pos];
    }
    targets.push(TargetSummary {
        target_index,
        ..TargetSummary::default()
    });
    targets.last_mut().expect("just pushed")
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

/// Verifies the span discipline of a JSONL trace: every
/// `run/phase/target started` record must be closed by the matching
/// `finished` record in LIFO order, and nothing may remain open at the
/// end of a trace that saw `run_finished`.
///
/// Traces of aborted runs (no `run_finished`) pass as long as the
/// records seen so far nest correctly.
///
/// # Errors
///
/// Returns a message naming the line of the first violation.
pub fn check_span_integrity(jsonl: &str) -> Result<(), String> {
    let mut stack: Vec<String> = Vec::new();
    let mut finished = false;
    for (lineno, line) in jsonl.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let lineno = lineno + 1;
        let record = parse_json(line).map_err(|e| format!("line {lineno}: {e}"))?;
        let event = record
            .get("event")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("line {lineno}: missing \"event\" tag"))?;
        if finished {
            return Err(format!("line {lineno}: record after run_finished"));
        }
        let span = |kind: &str| -> Result<String, String> {
            match kind {
                "run" => Ok("run".to_string()),
                "phase" => record
                    .get("phase")
                    .and_then(JsonValue::as_str)
                    .map(|p| format!("phase {p}"))
                    .ok_or_else(|| format!("line {lineno}: missing \"phase\"")),
                _ => record
                    .get("target_index")
                    .and_then(JsonValue::as_u64)
                    .map(|t| format!("target {t}"))
                    .ok_or_else(|| format!("line {lineno}: missing \"target_index\"")),
            }
        };
        let (open, kind) = match event {
            "run_started" => (true, "run"),
            "run_finished" => (false, "run"),
            "phase_started" => (true, "phase"),
            "phase_finished" => (false, "phase"),
            "target_started" => (true, "target"),
            "target_finished" => (false, "target"),
            _ => continue,
        };
        let name = span(kind)?;
        if open {
            if kind == "run" && !stack.is_empty() {
                return Err(format!("line {lineno}: run_started inside open spans"));
            }
            stack.push(name);
        } else {
            match stack.pop() {
                Some(top) if top == name => {}
                Some(top) => {
                    return Err(format!(
                        "line {lineno}: closed '{name}' while '{top}' was innermost"
                    ));
                }
                None => {
                    return Err(format!("line {lineno}: closed '{name}' with no open span"));
                }
            }
            if kind == "run" {
                finished = true;
            }
        }
    }
    if finished && !stack.is_empty() {
        return Err(format!("spans left open at end of trace: {stack:?}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::{Phase, SatCallKind};
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

    fn sample_jsonl() -> String {
        let mut obs = JsonlTraceObserver::new(Vec::new());
        for event in sample_events() {
            obs.on_event(&event);
        }
        String::from_utf8(obs.finish().expect("no io errors")).expect("utf8")
    }

    #[test]
    fn jsonl_lines_are_valid_json() {
        let text = sample_jsonl();
        assert_eq!(text.lines().count(), 8);
        for line in text.lines() {
            let v = parse_json(line).expect("line parses");
            assert!(v.get("event").is_some(), "{line}");
            assert!(v.get("ts_us").and_then(JsonValue::as_u64).is_some());
        }
    }

    #[test]
    fn summary_replays_totals() {
        let summary = summarize_trace(&sample_jsonl(), 1).expect("replay");
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
        assert_eq!(summary.top_calls.len(), 1);
        assert_eq!(summary.top_calls[0].kind, "support");
        let report = render_report(&summary);
        assert!(report.contains("patch_generation"));
        assert!(report.contains("top 1 most expensive calls"));
    }

    #[test]
    fn span_integrity_accepts_wellformed_and_rejects_crossed_spans() {
        check_span_integrity(&sample_jsonl()).expect("well-formed");
        let crossed = "\
{\"ts_us\":0,\"event\":\"run_started\",\"num_targets\":1,\"per_call_conflicts\":null}
{\"ts_us\":1,\"event\":\"phase_started\",\"phase\":\"windowing\"}
{\"ts_us\":2,\"event\":\"target_started\",\"target_index\":0}
{\"ts_us\":3,\"event\":\"phase_finished\",\"phase\":\"windowing\",\"elapsed_us\":2}
";
        let err = check_span_integrity(crossed).unwrap_err();
        assert!(err.contains("target 0"), "{err}");
        let unopened = "{\"ts_us\":0,\"event\":\"target_finished\",\"target_index\":3,\
                        \"sat_calls\":0,\"elapsed_us\":1}";
        assert!(check_span_integrity(unopened).is_err());
    }

    /// A `Write` sink the test keeps a handle to after the trace takes
    /// ownership of its writer.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl SharedBuf {
        fn events(&self) -> Vec<JsonValue> {
            let text = String::from_utf8(self.0.lock().unwrap().clone()).expect("utf8");
            let doc = parse_json(&text).unwrap_or_else(|e| panic!("bad chrome JSON: {e}\n{text}"));
            doc.get("traceEvents")
                .and_then(JsonValue::as_array)
                .expect("traceEvents array")
                .to_vec()
        }
    }

    #[test]
    fn chrome_observer_writes_complete_blocks_for_every_span() {
        let buf = SharedBuf::default();
        let trace = ChromeTrace::new(Box::new(buf.clone()));
        let mut obs = trace.observer(trace.open_lane(), Some("r1".to_string()));
        for event in sample_events() {
            obs.on_event(&event);
        }
        trace.finish().expect("no io errors");
        let events = buf.events();
        let str_of =
            |e: &JsonValue, key: &str| e.get(key).and_then(JsonValue::as_str).map(str::to_owned);
        let blocks: Vec<String> = events
            .iter()
            .filter(|e| str_of(e, "ph").as_deref() == Some("X"))
            .filter_map(|e| str_of(e, "name"))
            .collect();
        assert_eq!(
            blocks,
            [
                "sat:support",
                "sat:cec",
                "target 0",
                "patch_generation",
                "run"
            ],
            "one X block per finished span, in finish order"
        );
        assert_eq!(events.len(), blocks.len(), "start events are implied");
        for e in &events {
            assert!(e.get("ts").and_then(JsonValue::as_u64).is_some());
            assert_eq!(e.get("tid").and_then(JsonValue::as_u64), Some(2));
            let args = e.get("args").expect("args");
            assert_eq!(
                args.get("request_id").and_then(JsonValue::as_str),
                Some("r1")
            );
        }
        let target = events
            .iter()
            .find(|e| str_of(e, "name").as_deref() == Some("target 0"))
            .expect("target block");
        assert_eq!(target.get("dur").and_then(JsonValue::as_u64), Some(400));
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
        let events = buf.events();
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
        assert!(
            events[3].get("args").is_none(),
            "untagged lanes carry no args"
        );
        assert_eq!(events[4].get("ph").and_then(JsonValue::as_str), Some("E"));

        let empty = SharedBuf::default();
        ChromeTrace::new(Box::new(empty.clone()))
            .finish()
            .expect("io");
        assert!(
            empty.events().is_empty(),
            "an empty document is still closed"
        );
    }
}
