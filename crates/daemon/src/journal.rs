//! The structured event journal of `eco_patchd` and its offline
//! analysis.
//!
//! [`Journal`] records every admit / shed / expire / panic /
//! poison / eviction / drain transition as one JSON object per line,
//! stamped with a monotonic `ts_us` (microseconds since daemon start)
//! and a strictly increasing `seq`. Sinks are leveled: the daemon
//! always keeps a stderr sink at [`Level::Warn`] (replacing ad-hoc
//! `eprintln!` diagnostics with machine-parseable lines) and adds a
//! size-rotated file sink for `--log-jsonl PATH`.
//!
//! [`summarize_journal`] replays a journal into a [`JournalSummary`]
//! (serving counters, per-command latency percentiles, stage-time
//! attribution, cache hit-rate trajectory), and
//! [`render_journal_report`] prints it for `eco_patch report
//! --journal`.

use eco_core::duration_us;
use eco_core::json::{escape_json, parse_json, JsonValue};
use std::fmt::Write as _;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Journal file rotation threshold default (8 MiB).
pub const DEFAULT_LOG_ROTATE_BYTES: u64 = 8 * 1024 * 1024;

/// Journal severity, ordered `Debug < Info < Warn < Error`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// High-volume diagnostics.
    Debug,
    /// Lifecycle transitions (admit, request_done, drain, ...).
    Info,
    /// Degraded service (shed, expired, poison hits, parse errors).
    Warn,
    /// Faults (panics, connection errors, I/O failures).
    Error,
}

impl Level {
    /// Stable lowercase label (`"info"`, ...).
    pub fn name(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    /// Parses a lowercase label back to a level.
    pub fn parse(s: &str) -> Option<Level> {
        match s {
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    }
}

/// One typed journal field value.
#[derive(Clone, Debug)]
pub enum Field {
    /// Unsigned integer.
    U(u64),
    /// String (JSON-escaped on write).
    S(String),
    /// Boolean.
    B(bool),
}

enum SinkKind {
    Stderr,
    Writer(Box<dyn Write + Send>),
    File {
        path: PathBuf,
        writer: std::io::BufWriter<std::fs::File>,
        written: u64,
        rotate_bytes: u64,
    },
}

struct Sink {
    kind: SinkKind,
    level: Level,
}

impl Sink {
    fn write_line(&mut self, line: &str) {
        match &mut self.kind {
            SinkKind::Stderr => eprintln!("{line}"),
            SinkKind::Writer(w) => {
                let _ = writeln!(w, "{line}");
                let _ = w.flush();
            }
            SinkKind::File {
                path,
                writer,
                written,
                rotate_bytes,
            } => {
                let len = line.len() as u64 + 1;
                if *written > 0 && *written + len > *rotate_bytes {
                    // Size rotation: flush, rename to `<path>.1`
                    // (replacing any previous rotation), reopen fresh.
                    let _ = writer.flush();
                    let mut rotated = path.clone().into_os_string();
                    rotated.push(".1");
                    let _ = std::fs::rename(&*path, &rotated);
                    if let Ok(f) = std::fs::File::create(&*path) {
                        *writer = std::io::BufWriter::new(f);
                        *written = 0;
                    }
                }
                let _ = writeln!(writer, "{line}");
                let _ = writer.flush();
                *written += len;
            }
        }
    }
}

struct JournalInner {
    started: Instant,
    seq: u64,
    sinks: Vec<Sink>,
}

/// The structured event journal: one JSON object per event, fanned
/// out to leveled sinks under one lock (so `ts_us` and `seq` are
/// monotonic across threads). Cheap to clone; all state is shared.
#[derive(Clone)]
pub struct Journal {
    inner: Arc<Mutex<JournalInner>>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        f.debug_struct("Journal")
            .field("sinks", &inner.sinks.len())
            .field("seq", &inner.seq)
            .finish()
    }
}

impl Default for Journal {
    fn default() -> Journal {
        Journal::new()
    }
}

impl Journal {
    /// Creates a journal with no sinks (events are counted but go
    /// nowhere).
    pub fn new() -> Journal {
        Journal {
            inner: Arc::new(Mutex::new(JournalInner {
                started: Instant::now(),
                seq: 0,
                sinks: Vec::new(),
            })),
        }
    }

    fn push_sink(self, sink: Sink) -> Journal {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .sinks
            .push(sink);
        self
    }

    /// Adds a stderr sink for events at `level` or above (the
    /// daemon's default operator channel at [`Level::Warn`]).
    pub fn with_stderr(self, level: Level) -> Journal {
        self.push_sink(Sink {
            kind: SinkKind::Stderr,
            level,
        })
    }

    /// Adds an arbitrary writer sink (tests, embedding).
    pub fn with_writer(self, writer: Box<dyn Write + Send>, level: Level) -> Journal {
        self.push_sink(Sink {
            kind: SinkKind::Writer(writer),
            level,
        })
    }

    /// Adds a size-rotated file sink at `path` for events at `level`
    /// or above. When the file would exceed `rotate_bytes` it is
    /// renamed to `<path>.1` (replacing any previous rotation) and a
    /// fresh file is started.
    pub fn with_file(
        self,
        path: &Path,
        level: Level,
        rotate_bytes: u64,
    ) -> std::io::Result<Journal> {
        let file = std::fs::File::create(path)?;
        Ok(self.push_sink(Sink {
            kind: SinkKind::File {
                path: path.to_path_buf(),
                writer: std::io::BufWriter::new(file),
                written: 0,
                rotate_bytes: rotate_bytes.max(1024),
            },
            level,
        }))
    }

    /// Records one event: `{"ts_us":...,"seq":...,"level":...,
    /// "event":...,"request_id":...,<fields>}` on every sink whose
    /// level admits it.
    pub fn event(
        &self,
        level: Level,
        event: &str,
        request_id: Option<&str>,
        fields: &[(&str, Field)],
    ) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.seq += 1;
        if inner.sinks.iter().all(|s| level < s.level) {
            return;
        }
        let ts_us = duration_us(inner.started.elapsed());
        let seq = inner.seq;
        let mut line = String::with_capacity(128);
        let _ = write!(
            line,
            "{{\"ts_us\":{ts_us},\"seq\":{seq},\"level\":\"{}\",\"event\":\"{}\"",
            level.name(),
            escape_json(event)
        );
        if let Some(id) = request_id {
            let _ = write!(line, ",\"request_id\":\"{}\"", escape_json(id));
        }
        for (key, value) in fields {
            match value {
                Field::U(v) => {
                    let _ = write!(line, ",\"{}\":{v}", escape_json(key));
                }
                Field::S(v) => {
                    let _ = write!(line, ",\"{}\":\"{}\"", escape_json(key), escape_json(v));
                }
                Field::B(v) => {
                    let _ = write!(line, ",\"{}\":{v}", escape_json(key));
                }
            }
        }
        line.push('}');
        for sink in inner.sinks.iter_mut() {
            if level >= sink.level {
                sink.write_line(&line);
            }
        }
    }
}

/// Latency distribution of one command kind replayed from a daemon
/// journal (`request_done` events), in microseconds.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JournalLatency {
    /// Command name (`cmd` field of the `request_done` events).
    pub cmd: String,
    /// Completed requests of this command.
    pub count: u64,
    /// Median total latency, µs (exact nearest-rank).
    pub p50_us: u64,
    /// 90th-percentile total latency, µs.
    pub p90_us: u64,
    /// 99th-percentile total latency, µs.
    pub p99_us: u64,
    /// Slowest request, µs.
    pub max_us: u64,
}

/// One cache hit-rate observation along a journal: the cumulative
/// daemon-wide cache totals as of one completed request.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CachePoint {
    /// Journal timestamp of the observation, µs since daemon start.
    pub ts_us: u64,
    /// Cumulative cache hits across all layers.
    pub hits: u64,
    /// Cumulative cache misses across all layers.
    pub misses: u64,
}

impl CachePoint {
    /// Hit rate of this observation in percent (0 when nothing was
    /// looked up yet).
    pub fn hit_rate(&self) -> f64 {
        percent(self.hits, self.hits + self.misses)
    }
}

/// Aggregated view of an `eco_patchd` event journal (`--log-jsonl`),
/// built by [`summarize_journal`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JournalSummary {
    /// Journal records replayed.
    pub events: u64,
    /// `admit` events (requests accepted for solving).
    pub admitted: u64,
    /// `shed` events (refused at capacity).
    pub shed: u64,
    /// `expired` events (deadline passed while queued).
    pub expired: u64,
    /// `panic` events (requests isolated behind the unwind boundary).
    pub panicked: u64,
    /// `poison_hit` events (known-poison fingerprints refused).
    pub poison_hits: u64,
    /// `drain_refused` events (requests refused while draining).
    pub drain_refused: u64,
    /// `parse_error` events (unparseable request lines).
    pub parse_errors: u64,
    /// Completed requests by `status`, in first-seen order.
    pub statuses: Vec<(String, u64)>,
    /// Per-command latency percentiles over `request_done` events.
    pub latency: Vec<JournalLatency>,
    /// Total queue wait across completed requests, µs.
    pub queue_wait_us: u64,
    /// Total parse time across completed requests, µs.
    pub parse_us: u64,
    /// Total solve time across completed requests, µs.
    pub solve_us: u64,
    /// Total serialization time across completed requests, µs.
    pub serialize_us: u64,
    /// Cache hit-rate trajectory: one cumulative observation per
    /// completed request that carried cache totals, in journal order.
    pub cache_trajectory: Vec<CachePoint>,
}

/// Exact nearest-rank percentile of an **ascending-sorted** slice:
/// the smallest element with cumulative rank `>= ceil(q * n)`.
fn nearest_rank(sorted_us: &[u64], q: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = (q * sorted_us.len() as f64).ceil() as usize;
    sorted_us[rank.clamp(1, sorted_us.len()) - 1]
}

/// Replays an `eco_patchd` event journal (one JSON object per line,
/// as written by `--log-jsonl`) into a [`JournalSummary`]: serving
/// counters reconstructed from lifecycle events, per-command latency
/// percentiles, stage-time attribution, and the cache hit-rate
/// trajectory.
///
/// # Errors
///
/// Returns a message naming the offending line when a line is not a
/// JSON object or lacks the `event` tag.
pub fn summarize_journal(jsonl: &str) -> Result<JournalSummary, String> {
    let mut summary = JournalSummary::default();
    let mut samples: Vec<(String, Vec<u64>)> = Vec::new();
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
            "admit" => summary.admitted += 1,
            "shed" => summary.shed += 1,
            "expired" => summary.expired += 1,
            "panic" => summary.panicked += 1,
            "poison_hit" => summary.poison_hits += 1,
            "drain_refused" => summary.drain_refused += 1,
            "parse_error" => summary.parse_errors += 1,
            "request_done" => {
                let status = record
                    .get("status")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("?")
                    .to_string();
                match summary.statuses.iter_mut().find(|(s, _)| *s == status) {
                    Some((_, n)) => *n += 1,
                    None => summary.statuses.push((status, 1)),
                }
                let cmd = record
                    .get("cmd")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("?")
                    .to_string();
                let total_us = u("total_us");
                match samples.iter_mut().find(|(c, _)| *c == cmd) {
                    Some((_, v)) => v.push(total_us),
                    None => samples.push((cmd, vec![total_us])),
                }
                summary.queue_wait_us += u("queue_wait_us");
                summary.parse_us += u("parse_us");
                summary.solve_us += u("solve_us");
                summary.serialize_us += u("serialize_us");
                if record.get("cache_hits_total").is_some() {
                    summary.cache_trajectory.push(CachePoint {
                        ts_us: u("ts_us"),
                        hits: u("cache_hits_total"),
                        misses: u("cache_misses_total"),
                    });
                }
            }
            _ => {}
        }
    }
    for (cmd, mut v) in samples {
        v.sort_unstable();
        summary.latency.push(JournalLatency {
            cmd,
            count: v.len() as u64,
            p50_us: nearest_rank(&v, 0.50),
            p90_us: nearest_rank(&v, 0.90),
            p99_us: nearest_rank(&v, 0.99),
            max_us: *v.last().expect("samples are non-empty"),
        });
    }
    Ok(summary)
}

/// Renders a [`JournalSummary`] as the human-readable report printed
/// by `eco_patch report --journal`.
pub fn render_journal_report(summary: &JournalSummary) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "journal: {} events", summary.events);
    let _ = writeln!(
        out,
        "serving: admitted={} shed={} expired={} panicked={} poison_hits={} \
         drain_refused={} parse_errors={}",
        summary.admitted,
        summary.shed,
        summary.expired,
        summary.panicked,
        summary.poison_hits,
        summary.drain_refused,
        summary.parse_errors
    );
    if !summary.statuses.is_empty() {
        let done: u64 = summary.statuses.iter().map(|(_, n)| n).sum();
        let mut line = format!("completed: total={done}");
        for (status, n) in &summary.statuses {
            let _ = write!(line, " {status}={n}");
        }
        let _ = writeln!(out, "{line}");
    }
    if !summary.latency.is_empty() {
        let _ = writeln!(out, "\nlatency (total_us per request):");
        let _ = writeln!(
            out,
            "  {:<10} {:>8} {:>10} {:>10} {:>10} {:>10}",
            "cmd", "count", "p50", "p90", "p99", "max"
        );
        for l in &summary.latency {
            let _ = writeln!(
                out,
                "  {:<10} {:>8} {:>10} {:>10} {:>10} {:>10}",
                l.cmd, l.count, l.p50_us, l.p90_us, l.p99_us, l.max_us
            );
        }
    }
    let attributed =
        summary.queue_wait_us + summary.parse_us + summary.solve_us + summary.serialize_us;
    if attributed > 0 {
        let _ = writeln!(out, "\nattribution (summed across requests):");
        for (name, us) in [
            ("queue_wait", summary.queue_wait_us),
            ("parse", summary.parse_us),
            ("solve", summary.solve_us),
            ("serialize", summary.serialize_us),
        ] {
            let _ = writeln!(
                out,
                "  {:<12} {:>12} us {:>6.1}%",
                name,
                us,
                percent(us, attributed)
            );
        }
    }
    if let (Some(first), Some(last)) = (
        summary.cache_trajectory.first(),
        summary.cache_trajectory.last(),
    ) {
        let _ = writeln!(
            out,
            "\ncache hit rate: {:.1}% -> {:.1}% over {} completed requests \
             ({} hits / {} lookups at end)",
            first.hit_rate(),
            last.hit_rate(),
            summary.cache_trajectory.len(),
            last.hits,
            last.hits + last.misses
        );
    }
    out
}

fn percent(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_events_are_leveled_sequenced_jsonl() {
        let buffer = Arc::new(Mutex::new(Vec::<u8>::new()));
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let journal = Journal::new().with_writer(Box::new(Shared(buffer.clone())), Level::Info);
        journal.event(Level::Debug, "too_quiet", None, &[]);
        journal.event(
            Level::Info,
            "admit",
            Some("r1"),
            &[("queue_depth", Field::U(3))],
        );
        journal.event(
            Level::Warn,
            "shed",
            Some("r2"),
            &[
                ("retry_after_ms", Field::U(300)),
                ("note", Field::S("queue \"full\"".to_string())),
                ("pooled", Field::B(true)),
            ],
        );
        let text = String::from_utf8(buffer.lock().unwrap().clone()).expect("UTF-8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "debug is below the sink level:\n{text}");
        let first = parse_json(lines[0]).expect("valid JSON");
        assert_eq!(
            first.get("event").and_then(JsonValue::as_str),
            Some("admit")
        );
        assert_eq!(
            first.get("request_id").and_then(JsonValue::as_str),
            Some("r1")
        );
        assert_eq!(
            first.get("queue_depth").and_then(JsonValue::as_u64),
            Some(3)
        );
        let second = parse_json(lines[1]).expect("valid JSON");
        assert_eq!(
            second.get("level").and_then(JsonValue::as_str),
            Some("warn")
        );
        assert_eq!(
            second.get("note").and_then(JsonValue::as_str),
            Some("queue \"full\"")
        );
        assert_eq!(
            second.get("pooled").and_then(JsonValue::as_bool),
            Some(true)
        );
        // seq strictly increases even across suppressed events.
        let s1 = first.get("seq").and_then(JsonValue::as_u64).expect("seq");
        let s2 = second.get("seq").and_then(JsonValue::as_u64).expect("seq");
        assert!(s2 > s1);
    }

    #[test]
    fn journal_file_sink_rotates_at_the_size_threshold() {
        let dir = std::env::temp_dir().join(format!("eco_journal_rot_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("events.jsonl");
        let journal = Journal::new()
            .with_file(&path, Level::Info, 1024)
            .expect("file sink");
        for i in 0..64 {
            journal.event(
                Level::Info,
                "filler",
                Some(&format!("r{i}")),
                &[("payload", Field::S("x".repeat(64)))],
            );
        }
        let rotated = dir.join("events.jsonl.1");
        assert!(rotated.exists(), "rotation must produce <path>.1");
        for p in [&path, &rotated] {
            let text = std::fs::read_to_string(p).expect("readable");
            assert!(!text.is_empty());
            for line in text.lines() {
                parse_json(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn journal_line(ts_us: u64, event: &str, rest: &str) -> String {
        let tail = if rest.is_empty() {
            String::new()
        } else {
            format!(",{rest}")
        };
        format!(
            "{{\"ts_us\":{ts_us},\"seq\":{ts_us},\"level\":\"info\",\"event\":\"{event}\"{tail}}}"
        )
    }

    #[test]
    fn journal_summary_reconstructs_serving_counters_and_percentiles() {
        let mut lines = vec![
            journal_line(0, "daemon_started", "\"workers\":2"),
            journal_line(1, "admit", "\"request_id\":\"a\""),
            journal_line(2, "shed", "\"request_id\":\"b\",\"retry_after_ms\":300"),
            journal_line(3, "expired", "\"request_id\":\"c\",\"queued_ms\":5"),
            journal_line(5, "panic", "\"request_id\":\"d\",\"error\":\"boom\""),
            journal_line(6, "parse_error", "\"error\":\"bad line\""),
            journal_line(7, "drain_refused", "\"request_id\":\"e\""),
        ];
        // 100 completed eco requests: 1..=100 µs, cache warming from
        // all-miss to half-hit.
        for i in 1..=100u64 {
            lines.push(journal_line(
                100 + i,
                "request_done",
                &format!(
                    "\"request_id\":\"r{i}\",\"cmd\":\"eco\",\"status\":\"ok\",\
                     \"queue_wait_us\":2,\"parse_us\":1,\"solve_us\":{i},\
                     \"serialize_us\":1,\"total_us\":{i},\
                     \"cache_hits_total\":{},\"cache_misses_total\":100",
                    i - 1
                ),
            ));
        }
        lines.push(journal_line(
            999,
            "request_done",
            "\"request_id\":\"d\",\"cmd\":\"eco\",\"status\":\"panic\",\"total_us\":7",
        ));
        let summary = summarize_journal(&lines.join("\n")).expect("journal parses");
        assert_eq!(summary.events, 7 + 101);
        assert_eq!(summary.admitted, 1);
        assert_eq!(summary.shed, 1);
        assert_eq!(summary.expired, 1);
        assert_eq!(summary.panicked, 1);
        assert_eq!(summary.parse_errors, 1);
        assert_eq!(summary.drain_refused, 1);
        assert_eq!(
            summary.statuses,
            vec![("ok".to_string(), 100), ("panic".to_string(), 1)]
        );
        assert_eq!(summary.latency.len(), 1, "one command kind");
        let eco = &summary.latency[0];
        assert_eq!(eco.cmd, "eco");
        assert_eq!(eco.count, 101);
        // 101 samples: 1..=100 plus the 7µs panic. Nearest-rank p50 is
        // the 51st smallest = 50, p90 the 91st = 90, p99 the 100th = 99.
        assert_eq!(eco.p50_us, 50);
        assert_eq!(eco.p90_us, 90);
        assert_eq!(eco.p99_us, 99);
        assert_eq!(eco.max_us, 100);
        assert_eq!(summary.queue_wait_us, 200);
        assert_eq!(summary.solve_us, 5050);
        assert_eq!(summary.cache_trajectory.len(), 100);
        assert_eq!(summary.cache_trajectory[0].hit_rate(), 0.0);
        let report = render_journal_report(&summary);
        assert!(
            report.contains("admitted=1 shed=1 expired=1 panicked=1"),
            "{report}"
        );
        assert!(report.contains("cache hit rate: 0.0% -> 49.7%"), "{report}");
        assert!(report.contains("queue_wait"), "{report}");
    }

    #[test]
    fn journal_summary_rejects_malformed_lines() {
        assert!(summarize_journal("not json").is_err());
        let missing_tag = "{\"ts_us\":0,\"seq\":1,\"level\":\"info\"}";
        let err = summarize_journal(missing_tag).unwrap_err();
        assert!(err.contains("missing \"event\""), "{err}");
        let empty = summarize_journal("").expect("empty journal is fine");
        assert_eq!(empty.events, 0);
        assert!(render_journal_report(&empty).contains("journal: 0 events"));
    }
}
