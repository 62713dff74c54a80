//! The daemon-wide metrics registry.
//!
//! [`Telemetry`] holds monotonic [`Counter`]s (serving outcomes,
//! per-command request counts, per-worker busy time), a cumulative
//! [`Histogram`] for every request-lifecycle [`Stage`] (admission →
//! queue wait → parse → solve → serialize → write-back), and
//! per-second [`RollingWindow`]s that yield 1m/5m request rates,
//! p50/p90/p99 stage latencies, and per-cache-layer hit-rate series.
//! Scrapes render either Prometheus text exposition format 0.0.4
//! ([`Telemetry::render_prometheus`], hand-rolled like
//! [`eco_core::json`]) or a JSON object ([`Telemetry::render_json`]);
//! both are served by the `{"cmd":"metrics"}` protocol command.
//!
//! The event journal lives in [`crate::journal`]; the session-wide
//! Chrome trace is an [`eco_core::trace::ChromeTrace`].

use crate::cache::DaemonCacheStats;
use eco_core::json::escape_json;
use eco_core::{duration_us, CacheLayer, Histogram};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Seconds of per-second history kept by a [`RollingWindow`] — enough
/// for the 5-minute window.
const WINDOW_SLOTS: usize = 300;

/// A monotonic counter (relaxed atomics; scrapes tolerate skew of a
/// few in-flight increments).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One second of [`RollingWindow`] history; the slots inside a span
/// sum into one.
pub trait WindowSlot: Clone + Default {
    /// Adds `other`'s observations into `self`.
    fn merge(&mut self, other: &Self);
}

impl WindowSlot for Histogram {
    fn merge(&mut self, other: &Histogram) {
        Histogram::merge(self, other);
    }
}

/// Per-layer `[hits, misses]`, indexed by [`CacheLayer::index`].
type CacheTally = [[u64; 2]; CacheLayer::ALL.len()];

impl WindowSlot for CacheTally {
    fn merge(&mut self, other: &CacheTally) {
        for (total, add) in self.iter_mut().flatten().zip(other.iter().flatten()) {
            *total += add;
        }
    }
}

/// A ring of per-second slots holding the last five minutes, summed
/// over trailing spans (1m/5m). Methods take the current second explicitly, so tests
/// drive a synthetic clock; [`Telemetry`] supplies its own monotonic
/// clock in production.
#[derive(Debug)]
pub struct RollingWindow<S> {
    /// `(absolute second, slot)`; slots are reused ring-style, so a
    /// stale stamp means the slot is from a lap ago.
    slots: Box<[(u64, S)]>,
}

impl<S: WindowSlot> Default for RollingWindow<S> {
    fn default() -> RollingWindow<S> {
        RollingWindow {
            slots: vec![(0, S::default()); WINDOW_SLOTS].into_boxed_slice(),
        }
    }
}

impl<S: WindowSlot> RollingWindow<S> {
    /// The slot of absolute second `now_s`, emptied first if it still
    /// holds a second from a lap ago.
    pub fn record_at(&mut self, now_s: u64) -> &mut S {
        let (second, slot) = &mut self.slots[(now_s % WINDOW_SLOTS as u64) as usize];
        if *second != now_s {
            *second = now_s;
            *slot = S::default();
        }
        slot
    }

    /// The sum of the trailing `span_s` seconds ending at `now_s`
    /// (slots stamped in `(now_s - span_s, now_s]`).
    pub fn sum_at(&self, now_s: u64, span_s: u64) -> S {
        let mut total = S::default();
        for (second, slot) in self.slots.iter() {
            if *second <= now_s && now_s - second < span_s {
                total.merge(slot);
            }
        }
        total
    }
}

/// Aggregated statistics of one rolling window span.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WindowStats {
    /// Observations inside the span.
    pub count: u64,
    /// Sum of observations inside the span, in microseconds.
    pub sum_us: u64,
    /// Observations per second over the span.
    pub rate_per_s: f64,
    /// Median latency (bucket upper bound), when any observations.
    pub p50_us: Option<u64>,
    /// 90th-percentile latency (bucket upper bound).
    pub p90_us: Option<u64>,
    /// 99th-percentile latency (bucket upper bound).
    pub p99_us: Option<u64>,
}

impl RollingWindow<Histogram> {
    /// Count, rate, and [`Histogram::quantile`]s of the trailing
    /// `span_s` seconds ending at `now_s` (`span_s` is clamped to the
    /// history kept).
    pub fn stats_at(&self, now_s: u64, span_s: u64) -> WindowStats {
        let span_s = span_s.clamp(1, WINDOW_SLOTS as u64);
        let h = self.sum_at(now_s, span_s);
        WindowStats {
            count: h.count(),
            sum_us: h.sum(),
            rate_per_s: h.count() as f64 / span_s as f64,
            p50_us: h.quantile(0.50),
            p90_us: h.quantile(0.90),
            p99_us: h.quantile(0.99),
        }
    }
}

/// One request-lifecycle stage, in pipeline order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Line receipt through the admission decision (parse the JSON
    /// envelope, dispatch or shed).
    Admission,
    /// Time an admitted request waited in the bounded queue (pooled
    /// mode; zero observations in direct mode).
    QueueWait,
    /// Netlist parsing / AIG conversion (cache misses only pay this).
    Parse,
    /// Engine solve.
    Solve,
    /// Patched-Verilog emission and response serialization.
    Serialize,
    /// Writing the response line back to the client.
    WriteBack,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 6] = [
        Stage::Admission,
        Stage::QueueWait,
        Stage::Parse,
        Stage::Solve,
        Stage::Serialize,
        Stage::WriteBack,
    ];

    /// Stable label used in metric names and the journal.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Admission => "admission",
            Stage::QueueWait => "queue_wait",
            Stage::Parse => "parse",
            Stage::Solve => "solve",
            Stage::Serialize => "serialize",
            Stage::WriteBack => "write_back",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// The protocol command kinds counted by
/// `eco_patchd_requests_total{cmd=...}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommandKind {
    /// An ECO solve request.
    Eco,
    /// The `stats` control command.
    Stats,
    /// The `health` control command.
    Health,
    /// The `metrics` control command.
    Metrics,
    /// The `drain` control command.
    Drain,
    /// The `shutdown` control command.
    Shutdown,
    /// A line that failed to parse.
    Invalid,
}

impl CommandKind {
    /// Every command kind, in exposition order.
    pub const ALL: [CommandKind; 7] = [
        CommandKind::Eco,
        CommandKind::Stats,
        CommandKind::Health,
        CommandKind::Metrics,
        CommandKind::Drain,
        CommandKind::Shutdown,
        CommandKind::Invalid,
    ];

    /// Stable label used as the `cmd` metric label.
    pub fn name(self) -> &'static str {
        match self {
            CommandKind::Eco => "eco",
            CommandKind::Stats => "stats",
            CommandKind::Health => "health",
            CommandKind::Metrics => "metrics",
            CommandKind::Drain => "drain",
            CommandKind::Shutdown => "shutdown",
            CommandKind::Invalid => "invalid",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One stage's cumulative histogram and its rolling window, kept under
/// one lock.
#[derive(Default)]
struct StageMetrics {
    total: Histogram,
    window: RollingWindow<Histogram>,
}

/// Everything the daemon can observe at scrape time that lives
/// outside [`Telemetry`]: cumulative cache statistics and the live
/// queue occupancy of the serving loop answering the scrape.
#[derive(Clone, Copy, Debug)]
pub struct ScrapeView<'a> {
    /// Cumulative cache statistics across every layer.
    pub cache: &'a DaemonCacheStats,
    /// Requests waiting in the admission queue right now (zero in
    /// direct mode, where no queue exists).
    pub queue_depth: u64,
    /// Requests being worked on right now (zero in direct mode).
    pub in_flight: u64,
    /// High-water mark of the queue depth this session.
    pub queue_peak: u64,
    /// Whether admission is closed.
    pub draining: bool,
    /// `"direct"` (inline serving) or `"pooled"`.
    pub mode: &'a str,
}

/// The daemon-wide metrics registry. One instance per [`crate::Daemon`],
/// shared by the serving loops and the worker pool.
pub struct Telemetry {
    started: Instant,
    workers: usize,
    /// Requests shed by admission control (`"status":"overloaded"`).
    pub shed: Counter,
    /// Requests whose deadline expired while queued.
    pub expired: Counter,
    /// Requests whose solve path panicked (isolated and poisoned).
    pub panicked: Counter,
    requests: [Counter; CommandKind::ALL.len()],
    worker_busy_us: Vec<Counter>,
    stages: [Mutex<StageMetrics>; Stage::ALL.len()],
    cache_window: Mutex<RollingWindow<CacheTally>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("workers", &self.workers)
            .field("shed", &self.shed.get())
            .field("expired", &self.expired.get())
            .field("panicked", &self.panicked.get())
            .finish_non_exhaustive()
    }
}

impl Telemetry {
    /// Creates a registry tracking `workers` pool workers (clamped to
    /// at least one so direct mode still has a busy-time series).
    pub fn new(workers: usize) -> Telemetry {
        let workers = workers.max(1);
        Telemetry {
            started: Instant::now(),
            workers,
            shed: Counter::new(),
            expired: Counter::new(),
            panicked: Counter::new(),
            requests: std::array::from_fn(|_| Counter::new()),
            worker_busy_us: (0..workers).map(|_| Counter::new()).collect(),
            stages: std::array::from_fn(|_| Mutex::default()),
            cache_window: Mutex::default(),
        }
    }

    fn stage(&self, stage: Stage) -> MutexGuard<'_, StageMetrics> {
        self.stages[stage.index()]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn cache_window(&self) -> MutexGuard<'_, RollingWindow<CacheTally>> {
        self.cache_window
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Seconds since the registry was created (the rolling-window
    /// clock).
    pub fn now_s(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Microseconds since the registry was created.
    pub fn uptime_us(&self) -> u64 {
        duration_us(self.started.elapsed())
    }

    /// Counts one request of the given command kind.
    pub fn record_request(&self, kind: CommandKind) {
        self.requests[kind.index()].inc();
    }

    /// Requests counted for `kind` so far.
    pub fn requests_total(&self, kind: CommandKind) -> u64 {
        self.requests[kind.index()].get()
    }

    /// Records one stage latency observation at the current second.
    pub fn record_stage(&self, stage: Stage, us: u64) {
        self.record_stage_at(stage, self.now_s(), us);
    }

    /// Synthetic-clock variant of [`Telemetry::record_stage`].
    pub fn record_stage_at(&self, stage: Stage, now_s: u64, us: u64) {
        let mut s = self.stage(stage);
        s.total.record(us);
        s.window.record_at(now_s).record(us);
    }

    /// The cumulative histogram for one stage.
    pub fn stage_histogram(&self, stage: Stage) -> Histogram {
        self.stage(stage).total
    }

    /// Rolling-window statistics for one stage over the trailing
    /// `span_s` seconds ending at `now_s`.
    pub fn stage_window_at(&self, stage: Stage, now_s: u64, span_s: u64) -> WindowStats {
        self.stage(stage).window.stats_at(now_s, span_s)
    }

    /// Adds `us` microseconds of busy time to one worker's series
    /// (out-of-range workers are clamped to the last series so a
    /// miscount can never panic a serving thread).
    pub fn record_worker_busy(&self, worker: usize, us: u64) {
        let i = worker.min(self.worker_busy_us.len() - 1);
        self.worker_busy_us[i].add(us);
    }

    /// Records `hits` + `misses` cache-layer events at the current
    /// second, for the rolling hit-rate series.
    pub fn record_cache(&self, layer: CacheLayer, hits: u64, misses: u64) {
        self.record_cache_at(layer, self.now_s(), hits, misses);
    }

    /// Synthetic-clock variant of [`Telemetry::record_cache`].
    pub fn record_cache_at(&self, layer: CacheLayer, now_s: u64, hits: u64, misses: u64) {
        if hits == 0 && misses == 0 {
            return;
        }
        let mut window = self.cache_window();
        let tally = &mut window.record_at(now_s)[layer.index()];
        tally[0] += hits;
        tally[1] += misses;
    }

    /// Rolling `(hits, misses)` for one layer over the trailing
    /// `span_s` seconds ending at `now_s`.
    pub fn cache_window_at(&self, layer: CacheLayer, now_s: u64, span_s: u64) -> (u64, u64) {
        let [hits, misses] = self.cache_window().sum_at(now_s, span_s)[layer.index()];
        (hits, misses)
    }

    /// Renders the registry plus the [`ScrapeView`] as Prometheus text
    /// exposition format 0.0.4 at the current second.
    pub fn render_prometheus(&self, view: &ScrapeView<'_>) -> String {
        self.render_prometheus_at(self.now_s(), view)
    }

    /// Synthetic-clock variant of [`Telemetry::render_prometheus`]
    /// (the rolling-window sections are evaluated at `now_s`).
    pub fn render_prometheus_at(&self, now_s: u64, view: &ScrapeView<'_>) -> String {
        let mut render = String::with_capacity(8192);
        let mut push_family = |name: &str, kind: &str, help: &str, samples: &str| {
            let _ = writeln!(render, "# HELP eco_patchd_{name} {help}");
            let _ = writeln!(render, "# TYPE eco_patchd_{name} {kind}");
            render.push_str(samples);
        };
        // Sample lines for each family are staged in `s`, then pushed
        // under their HELP/TYPE header.
        let mut s = String::new();

        let _ = writeln!(
            s,
            "eco_patchd_uptime_seconds {:.3}",
            self.started.elapsed().as_secs_f64()
        );
        push_family(
            "uptime_seconds",
            "gauge",
            "Seconds since the daemon started.",
            &s,
        );

        s.clear();
        let _ = writeln!(s, "eco_patchd_workers {}", self.workers);
        push_family("workers", "gauge", "Configured worker-pool size.", &s);

        s.clear();
        let _ = writeln!(s, "eco_patchd_draining {}", u64::from(view.draining));
        push_family(
            "draining",
            "gauge",
            "1 while admission is closed (drain in progress).",
            &s,
        );

        s.clear();
        let _ = writeln!(s, "eco_patchd_queue_depth {}", view.queue_depth);
        push_family(
            "queue_depth",
            "gauge",
            "Requests waiting in the admission queue.",
            &s,
        );

        s.clear();
        let _ = writeln!(s, "eco_patchd_queue_depth_peak {}", view.queue_peak);
        push_family(
            "queue_depth_peak",
            "gauge",
            "High-water mark of the admission queue this session.",
            &s,
        );

        s.clear();
        let _ = writeln!(s, "eco_patchd_in_flight {}", view.in_flight);
        push_family(
            "in_flight",
            "gauge",
            "Requests being worked on right now.",
            &s,
        );

        s.clear();
        for kind in CommandKind::ALL {
            let _ = writeln!(
                s,
                "eco_patchd_requests_total{{cmd=\"{}\"}} {}",
                kind.name(),
                self.requests_total(kind)
            );
        }
        push_family(
            "requests_total",
            "counter",
            "Request lines received, by command kind.",
            &s,
        );

        for (name, help, counter) in [
            (
                "shed_total",
                "Requests shed by admission control.",
                &self.shed,
            ),
            (
                "expired_total",
                "Requests whose deadline expired in the queue.",
                &self.expired,
            ),
            (
                "panicked_total",
                "Requests whose solve path panicked.",
                &self.panicked,
            ),
        ] {
            s.clear();
            let _ = writeln!(s, "eco_patchd_{name} {}", counter.get());
            push_family(name, "counter", help, &s);
        }

        s.clear();
        let _ = writeln!(s, "eco_patchd_poison_pills {}", view.cache.poison_pills);
        push_family(
            "poison_pills",
            "gauge",
            "Quarantined request fingerprints currently held.",
            &s,
        );

        let c = view.cache;
        let layer_hits = [
            ("netlist", c.netlist_hits),
            ("outcome", c.outcome_hits),
            ("poison", c.poison_hits),
            ("window", c.engine.window_hits),
            ("cnf", c.engine.cnf_hits),
            ("target", c.engine.target_hits),
        ];
        s.clear();
        for (layer, hits) in layer_hits {
            let _ = writeln!(s, "eco_patchd_cache_hits_total{{layer=\"{layer}\"}} {hits}");
        }
        push_family("cache_hits_total", "counter", "Cache hits, by layer.", &s);

        let layer_misses = [
            ("netlist", c.netlist_misses),
            ("outcome", c.outcome_misses),
            ("window", c.engine.window_misses),
            ("cnf", c.engine.cnf_misses),
            ("target", c.engine.target_misses),
        ];
        s.clear();
        for (layer, misses) in layer_misses {
            let _ = writeln!(
                s,
                "eco_patchd_cache_misses_total{{layer=\"{layer}\"}} {misses}"
            );
        }
        push_family(
            "cache_misses_total",
            "counter",
            "Cache misses, by layer.",
            &s,
        );

        s.clear();
        let _ = writeln!(
            s,
            "eco_patchd_cache_evictions_total{{scope=\"daemon\"}} {}",
            c.evictions
        );
        let _ = writeln!(
            s,
            "eco_patchd_cache_evictions_total{{scope=\"engine\"}} {}",
            c.engine.evictions
        );
        push_family(
            "cache_evictions_total",
            "counter",
            "Cache evictions, by scope.",
            &s,
        );

        s.clear();
        for layer in CacheLayer::ALL {
            for (label, span) in [("1m", 60u64), ("5m", 300u64)] {
                let (hits, misses) = self.cache_window_at(layer, now_s, span);
                let total = hits + misses;
                let ratio = if total == 0 {
                    f64::NAN
                } else {
                    hits as f64 / total as f64
                };
                let _ = writeln!(
                    s,
                    "eco_patchd_cache_hit_ratio{{layer=\"{}\",window=\"{label}\"}} {}",
                    layer.name(),
                    format_value(ratio)
                );
            }
        }
        push_family(
            "cache_hit_ratio",
            "gauge",
            "Rolling cache hit ratio, by layer and trailing window (NaN when idle).",
            &s,
        );

        s.clear();
        for (i, busy) in self.worker_busy_us.iter().enumerate() {
            let _ = writeln!(
                s,
                "eco_patchd_worker_busy_seconds_total{{worker=\"{i}\"}} {:.6}",
                busy.get() as f64 / 1e6
            );
        }
        push_family(
            "worker_busy_seconds_total",
            "counter",
            "Seconds each pool worker spent on requests.",
            &s,
        );

        s.clear();
        for stage in Stage::ALL {
            let h = self.stage_histogram(stage);
            let buckets = h.buckets();
            let mut cumulative = 0u64;
            for (i, b) in buckets.iter().enumerate() {
                cumulative += b;
                let le = match Histogram::BOUNDS.get(i) {
                    Some(bound) => bound.to_string(),
                    None => "+Inf".to_string(),
                };
                let _ = writeln!(
                    s,
                    "eco_patchd_stage_latency_us_bucket{{stage=\"{}\",le=\"{le}\"}} {cumulative}",
                    stage.name()
                );
            }
            let _ = writeln!(
                s,
                "eco_patchd_stage_latency_us_sum{{stage=\"{}\"}} {}",
                stage.name(),
                h.sum()
            );
            let _ = writeln!(
                s,
                "eco_patchd_stage_latency_us_count{{stage=\"{}\"}} {}",
                stage.name(),
                h.count()
            );
        }
        push_family(
            "stage_latency_us",
            "histogram",
            "Request-lifecycle stage latency, microseconds.",
            &s,
        );

        s.clear();
        for stage in Stage::ALL {
            for (label, span) in [("1m", 60u64), ("5m", 300u64)] {
                let w = self.stage_window_at(stage, now_s, span);
                for (q, v) in [("0.5", w.p50_us), ("0.9", w.p90_us), ("0.99", w.p99_us)] {
                    let _ = writeln!(
                        s,
                        "eco_patchd_stage_latency_quantile_us{{stage=\"{}\",window=\"{label}\",\
                         quantile=\"{q}\"}} {}",
                        stage.name(),
                        format_value(v.map(|x| x as f64).unwrap_or(f64::NAN))
                    );
                }
            }
        }
        push_family(
            "stage_latency_quantile_us",
            "gauge",
            "Rolling stage-latency quantiles, microseconds (NaN when idle).",
            &s,
        );

        s.clear();
        for stage in Stage::ALL {
            for (label, span) in [("1m", 60u64), ("5m", 300u64)] {
                let w = self.stage_window_at(stage, now_s, span);
                let _ = writeln!(
                    s,
                    "eco_patchd_stage_rate_per_second{{stage=\"{}\",window=\"{label}\"}} {:.6}",
                    stage.name(),
                    w.rate_per_s
                );
            }
        }
        push_family(
            "stage_rate_per_second",
            "gauge",
            "Rolling per-stage observation rate, by trailing window.",
            &s,
        );

        render
    }

    /// Renders the registry plus the [`ScrapeView`] as one JSON
    /// object (the `"format":"json"` variant of the `metrics`
    /// command).
    pub fn render_json(&self, view: &ScrapeView<'_>) -> String {
        self.render_json_at(self.now_s(), view)
    }

    /// Synthetic-clock variant of [`Telemetry::render_json`].
    pub fn render_json_at(&self, now_s: u64, view: &ScrapeView<'_>) -> String {
        let mut s = String::with_capacity(4096);
        let _ = write!(
            s,
            "{{\"uptime_us\":{},\"mode\":\"{}\",\"workers\":{},\"draining\":{},\
             \"queue_depth\":{},\"in_flight\":{},\"queue_depth_peak\":{}",
            self.uptime_us(),
            escape_json(view.mode),
            self.workers,
            view.draining,
            view.queue_depth,
            view.in_flight,
            view.queue_peak
        );
        let _ = write!(
            s,
            ",\"serving\":{{\"shed\":{},\"expired\":{},\"panicked\":{}}}",
            self.shed.get(),
            self.expired.get(),
            self.panicked.get()
        );
        s.push_str(",\"requests\":{");
        for (i, kind) in CommandKind::ALL.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{}\":{}", kind.name(), self.requests_total(*kind));
        }
        s.push('}');
        s.push_str(",\"worker_busy_us\":[");
        for (i, busy) in self.worker_busy_us.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{}", busy.get());
        }
        s.push(']');
        s.push_str(",\"stages\":{");
        for (i, stage) in Stage::ALL.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let h = self.stage_histogram(*stage);
            let _ = write!(
                s,
                "\"{}\":{{\"count\":{},\"sum_us\":{},\"windows\":{{",
                stage.name(),
                h.count(),
                h.sum()
            );
            for (j, (label, span)) in [("1m", 60u64), ("5m", 300u64)].iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let w = self.stage_window_at(*stage, now_s, *span);
                let _ = write!(
                    s,
                    "\"{label}\":{{\"count\":{},\"rate_per_s\":{:.6},\"p50_us\":{},\
                     \"p90_us\":{},\"p99_us\":{}}}",
                    w.count,
                    w.rate_per_s,
                    json_opt(w.p50_us),
                    json_opt(w.p90_us),
                    json_opt(w.p99_us)
                );
            }
            s.push_str("}}");
        }
        s.push('}');
        s.push_str(",\"cache_windows\":{");
        for (i, layer) in CacheLayer::ALL.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let (h1, m1) = self.cache_window_at(*layer, now_s, 60);
            let (h5, m5) = self.cache_window_at(*layer, now_s, 300);
            let _ = write!(
                s,
                "\"{}\":{{\"1m\":{{\"hits\":{h1},\"misses\":{m1}}},\
                 \"5m\":{{\"hits\":{h5},\"misses\":{m5}}}}}",
                layer.name()
            );
        }
        s.push('}');
        let _ = write!(s, ",\"cache\":{}}}", view.cache.to_json());
        s
    }
}

fn json_opt(v: Option<u64>) -> String {
    match v {
        Some(x) => x.to_string(),
        None => "null".to_string(),
    }
}

/// Prometheus sample-value formatting: finite values as plain
/// decimals, absent data as `NaN` (the exposition format's idle
/// marker).
fn format_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else {
        format!("{v:.6}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_core::json::{parse_json, JsonValue};

    #[test]
    fn rolling_window_quantiles_with_a_synthetic_clock() {
        let mut w = RollingWindow::<Histogram>::default();
        // 100 observations at second 10: 50 fast (10µs), 40 medium
        // (1ms), 10 slow (100ms).
        for _ in 0..50 {
            w.record_at(10).record(10);
        }
        for _ in 0..40 {
            w.record_at(10).record(1_000);
        }
        for _ in 0..10 {
            w.record_at(10).record(100_000);
        }
        let s = w.stats_at(10, 60);
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_us, Some(10), "rank 50 lands in the 10µs bucket");
        assert_eq!(s.p90_us, Some(1_000), "rank 90 lands in the 1ms bucket");
        assert_eq!(s.p99_us, Some(100_000), "rank 99 lands in the 100ms bucket");
        assert!((s.rate_per_s - 100.0 / 60.0).abs() < 1e-9);
    }

    #[test]
    fn rolling_window_forgets_slots_outside_the_span() {
        let mut w = RollingWindow::<Histogram>::default();
        w.record_at(0).record(500);
        w.record_at(100).record(500);
        // At second 130 with a 60s span, only second 100 is inside.
        let s = w.stats_at(130, 60);
        assert_eq!(s.count, 1);
        // A full lap later the slot is reused: second 0's data must
        // not bleed into second 300.
        w.record_at(300).record(7);
        let s = w.stats_at(300, 1);
        assert_eq!(s.count, 1);
        assert_eq!(s.sum_us, 7);
        // Empty span: no quantiles.
        let s = w.stats_at(1000, 60);
        assert_eq!(s.count, 0);
        assert_eq!(s.p50_us, None);
    }

    #[test]
    fn prometheus_exposition_is_checkable_and_carries_the_counters() {
        let t = Telemetry::new(2);
        t.shed.inc();
        t.expired.add(2);
        t.record_request(CommandKind::Eco);
        t.record_request(CommandKind::Eco);
        t.record_request(CommandKind::Health);
        t.record_stage_at(Stage::Solve, 10, 1_000);
        t.record_stage_at(Stage::Solve, 10, 3_000);
        t.record_cache_at(CacheLayer::Outcome, 10, 3, 1);
        t.record_worker_busy(1, 2_000_000);
        let stats = DaemonCacheStats::default();
        let view = ScrapeView {
            cache: &stats,
            queue_depth: 4,
            in_flight: 2,
            queue_peak: 6,
            draining: false,
            mode: "pooled",
        };
        let text = t.render_prometheus_at(10, &view);
        let samples = eco_testutil::prom::check_exposition(&text)
            .unwrap_or_else(|e| panic!("exposition must parse: {e}\n{text}"));
        let value = |name: &str, labels: &[(&str, &str)]| -> f64 {
            samples
                .iter()
                .find(|s| {
                    s.name == name
                        && labels
                            .iter()
                            .all(|(k, v)| s.labels.iter().any(|(lk, lv)| lk == k && lv == v))
                })
                .unwrap_or_else(|| panic!("missing sample {name} {labels:?}\n{text}"))
                .value
        };
        assert_eq!(value("eco_patchd_shed_total", &[]), 1.0);
        assert_eq!(value("eco_patchd_expired_total", &[]), 2.0);
        assert_eq!(value("eco_patchd_requests_total", &[("cmd", "eco")]), 2.0);
        assert_eq!(
            value("eco_patchd_requests_total", &[("cmd", "health")]),
            1.0
        );
        assert_eq!(value("eco_patchd_queue_depth", &[]), 4.0);
        assert_eq!(value("eco_patchd_queue_depth_peak", &[]), 6.0);
        assert_eq!(value("eco_patchd_in_flight", &[]), 2.0);
        assert_eq!(
            value("eco_patchd_stage_latency_us_count", &[("stage", "solve")]),
            2.0
        );
        assert_eq!(
            value("eco_patchd_stage_latency_us_sum", &[("stage", "solve")]),
            4_000.0
        );
        assert_eq!(
            value(
                "eco_patchd_stage_latency_quantile_us",
                &[("stage", "solve"), ("window", "1m"), ("quantile", "0.5")]
            ),
            1_000.0
        );
        assert_eq!(
            value(
                "eco_patchd_cache_hit_ratio",
                &[("layer", "outcome"), ("window", "1m")]
            ),
            0.75
        );
        assert_eq!(
            value("eco_patchd_worker_busy_seconds_total", &[("worker", "1")]),
            2.0
        );
        // Idle windows are NaN, never fabricated zeros.
        assert!(value(
            "eco_patchd_stage_latency_quantile_us",
            &[("stage", "parse"), ("window", "1m"), ("quantile", "0.5")]
        )
        .is_nan());
    }

    #[test]
    fn golden_metric_families_are_stable() {
        let t = Telemetry::new(1);
        let stats = DaemonCacheStats::default();
        let view = ScrapeView {
            cache: &stats,
            queue_depth: 0,
            in_flight: 0,
            queue_peak: 0,
            draining: false,
            mode: "direct",
        };
        let text = t.render_prometheus_at(0, &view);
        let samples = eco_testutil::prom::check_exposition(&text).expect("parses");
        let mut families: Vec<&str> = samples.iter().map(|s| s.name.as_str()).collect();
        families.sort_unstable();
        families.dedup();
        // The golden family list: renames break dashboards, so a
        // change here must be deliberate.
        assert_eq!(
            families,
            [
                "eco_patchd_cache_evictions_total",
                "eco_patchd_cache_hit_ratio",
                "eco_patchd_cache_hits_total",
                "eco_patchd_cache_misses_total",
                "eco_patchd_draining",
                "eco_patchd_expired_total",
                "eco_patchd_in_flight",
                "eco_patchd_panicked_total",
                "eco_patchd_poison_pills",
                "eco_patchd_queue_depth",
                "eco_patchd_queue_depth_peak",
                "eco_patchd_requests_total",
                "eco_patchd_shed_total",
                "eco_patchd_stage_latency_quantile_us",
                "eco_patchd_stage_latency_us_bucket",
                "eco_patchd_stage_latency_us_count",
                "eco_patchd_stage_latency_us_sum",
                "eco_patchd_stage_rate_per_second",
                "eco_patchd_uptime_seconds",
                "eco_patchd_worker_busy_seconds_total",
                "eco_patchd_workers",
            ]
        );
    }

    #[test]
    fn json_rendering_round_trips_through_the_parser() {
        let t = Telemetry::new(1);
        t.record_stage_at(Stage::Admission, 3, 42);
        let stats = DaemonCacheStats::default();
        let view = ScrapeView {
            cache: &stats,
            queue_depth: 1,
            in_flight: 0,
            queue_peak: 1,
            draining: true,
            mode: "direct",
        };
        let text = t.render_json_at(3, &view);
        let v = parse_json(&text).unwrap_or_else(|e| panic!("bad JSON: {e}\n{text}"));
        assert_eq!(v.get("mode").and_then(JsonValue::as_str), Some("direct"));
        assert_eq!(v.get("draining").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(
            v.get("stages")
                .and_then(|s| s.get("admission"))
                .and_then(|s| s.get("count"))
                .and_then(JsonValue::as_u64),
            Some(1)
        );
        assert_eq!(
            v.get("stages")
                .and_then(|s| s.get("admission"))
                .and_then(|s| s.get("windows"))
                .and_then(|w| w.get("1m"))
                .and_then(|w| w.get("p50_us"))
                .and_then(JsonValue::as_u64),
            Some(50),
            "42µs lands in the (20, 50] bucket"
        );
    }
}
