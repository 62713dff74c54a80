//! In-memory spans for traced runs, written out once at the end as a
//! Chrome `trace_event` document (loadable in Perfetto).

use eco_core::{EcoEvent, EcoObserver};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary, e.g. `unit`, `parse`, `phase.windowing`.
    pub name: String,
    /// The operation the span belongs to (unit name or request id).
    pub key: String,
    /// The enclosing span's name (`None` for an operation's root span).
    pub parent: Option<&'static str>,
    /// Timeline lane (client thread, or 0 for in-process suites).
    pub lane: usize,
    /// Start, relative to the tracer's epoch.
    pub start: Duration,
    /// Length.
    pub duration: Duration,
}

/// Collects spans in memory; cheap to clone (shared storage).
#[derive(Clone)]
pub struct Tracer {
    epoch: Instant,
    spans: Arc<Mutex<Vec<Span>>>,
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Records a span from `start` to `end`.
    pub fn record(
        &self,
        name: impl Into<String>,
        key: &str,
        parent: Option<&'static str>,
        lane: usize,
        (start, end): (Instant, Instant),
    ) {
        self.push(Span {
            name: name.into(),
            key: key.to_string(),
            parent,
            lane,
            start: start.saturating_duration_since(self.epoch),
            duration: end.saturating_duration_since(start),
        });
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("no tracer user panics").push(span);
    }

    /// An engine observer recording phase and target spans of one
    /// solve under `key`.
    pub fn engine_observer(&self, key: &str, lane: usize) -> EngineSpans {
        EngineSpans {
            tracer: self.clone(),
            key: key.to_string(),
            lane,
        }
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("no tracer user panics").len()
    }

    /// Writes every span as a Chrome `trace_event` JSON document.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let spans = self.spans.lock().expect("no tracer user panics");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{\"traceEvents\":[")?;
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                write!(out, ",")?;
            }
            write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\
                 \"args\":{{\"key\":\"{}\",\"parent\":{}}}}}",
                eco_core::json::escape_json(&s.name),
                s.lane,
                s.start.as_micros(),
                s.duration.as_micros(),
                eco_core::json::escape_json(&s.key),
                s.parent.map_or("null".to_string(), |p| format!("\"{p}\"")),
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Records engine phase and target spans from the observer API. Event
/// durations come from the engine; the end is the moment the event
/// arrives.
pub struct EngineSpans {
    tracer: Tracer,
    key: String,
    lane: usize,
}

impl EngineSpans {
    fn span(&self, name: String, parent: &'static str, elapsed: Duration) {
        let end = Instant::now().saturating_duration_since(self.tracer.epoch);
        self.tracer.push(Span {
            name,
            key: self.key.clone(),
            parent: Some(parent),
            lane: self.lane,
            start: end.saturating_sub(elapsed),
            duration: elapsed,
        });
    }
}

impl EcoObserver for EngineSpans {
    fn on_event(&mut self, event: &EcoEvent) {
        match event {
            EcoEvent::PhaseFinished { phase, elapsed } => {
                self.span(format!("phase.{}", phase.name()), "solve", *elapsed)
            }
            EcoEvent::TargetFinished {
                target_index,
                elapsed,
                ..
            } => self.span(
                format!("target.{target_index}"),
                "phase.patch_generation",
                *elapsed,
            ),
            _ => {}
        }
    }
}
