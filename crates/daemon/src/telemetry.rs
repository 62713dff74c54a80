//! The daemon-wide observability plane: a zero-dependency metrics
//! registry, a leveled structured event journal, and session-wide
//! trace aggregation.
//!
//! # Metrics registry
//!
//! [`Telemetry`] holds monotonic [`Counter`]s (serving outcomes,
//! per-command request counts, per-worker busy time), log-bucketed
//! latency [`Histogram`]s for every request-lifecycle [`Stage`]
//! (admission → queue wait → parse → solve → serialize → write-back),
//! and per-second ring-buffer [`RollingWindow`]s that yield 1m/5m
//! request rates, p50/p90/p99 stage latencies, and per-cache-layer
//! hit-rate series. Scrapes render either Prometheus text exposition
//! format 0.0.4 ([`Telemetry::render_prometheus`], hand-rolled like
//! [`eco_core::json`]) or a JSON object ([`Telemetry::render_json`]);
//! both are served by the `{"cmd":"metrics"}` protocol command.
//!
//! # Journal
//!
//! [`Journal`] records every admit / shed / expire / retry / panic /
//! poison / eviction / drain transition as one JSON object per line,
//! stamped with a monotonic `ts_us` (microseconds since daemon start)
//! and a strictly increasing `seq`. Sinks are leveled: the daemon
//! always keeps a stderr sink at [`Level::Warn`] (replacing ad-hoc
//! `eprintln!` diagnostics with machine-parseable lines) and adds a
//! size-rotated file sink for `--log-jsonl PATH`. Journals are
//! analyzed offline by [`eco_core::trace::summarize_journal`] via
//! `eco_patch report --journal`.
//!
//! # Trace aggregation
//!
//! [`TraceAggregator`] merges per-request engine spans with
//! daemon-side queue-wait and lifecycle spans into one Chrome
//! `trace_event` document (`--trace-out`) on a shared monotonic
//! clock. Each request gets its own Chrome track (`tid`), a lifecycle
//! `B`/`E` span named after its (client-supplied) `trace_id`, a
//! retroactive `X` queue-wait block, and the engine events forwarded
//! through a [`LaneObserver`] — all tagged with the request id, so a
//! whole chaos session loads as one Perfetto timeline.

use crate::cache::DaemonCacheStats;
use eco_core::json::escape_json;
use eco_core::{EcoEvent, EcoObserver, SolveResult};
use std::fmt::Write as _;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Upper bounds (microseconds) of the stage-latency buckets: a 1-2-5
/// series from 1µs to 10s. Values above the last bound land in the
/// overflow bucket.
pub const STAGE_BUCKET_BOUNDS_US: [u64; 22] = [
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000,
    200_000, 500_000, 1_000_000, 2_000_000, 5_000_000, 10_000_000,
];

/// Bucket count including the overflow bucket.
pub const NUM_STAGE_BUCKETS: usize = STAGE_BUCKET_BOUNDS_US.len() + 1;

/// Seconds of per-second history kept by a [`RollingWindow`] — enough
/// for the 5-minute window.
const WINDOW_SLOTS: usize = 300;

/// Journal file rotation threshold default (8 MiB).
pub const DEFAULT_LOG_ROTATE_BYTES: u64 = 8 * 1024 * 1024;

fn duration_us(d: Duration) -> u64 {
    d.as_micros().min(u64::MAX as u128) as u64
}

fn bucket_index(us: u64) -> usize {
    STAGE_BUCKET_BOUNDS_US
        .iter()
        .position(|&b| us <= b)
        .unwrap_or(STAGE_BUCKET_BOUNDS_US.len())
}

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

/// A log-bucketed latency histogram over [`STAGE_BUCKET_BOUNDS_US`]
/// with running sum and count, rendered as a Prometheus histogram
/// family (cumulative `_bucket{le=...}` samples).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_STAGE_BUCKETS],
    sum_us: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_us: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation of `us` microseconds.
    pub fn record(&self, us: u64) {
        self.buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Observation count.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations, in microseconds.
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// Per-bucket (non-cumulative) counts.
    pub fn buckets(&self) -> [u64; NUM_STAGE_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }
}

/// One second of rolling-window history.
#[derive(Clone, Copy)]
struct WindowSlot {
    /// Absolute second this slot currently holds (slots are reused
    /// ring-style; a stale stamp means the slot is from a lap ago).
    second: u64,
    count: u64,
    sum_us: u64,
    buckets: [u32; NUM_STAGE_BUCKETS],
}

impl WindowSlot {
    const EMPTY: WindowSlot = WindowSlot {
        second: 0,
        count: 0,
        sum_us: 0,
        buckets: [0; NUM_STAGE_BUCKETS],
    };
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

/// A ring of [`WINDOW_SLOTS`] per-second histogram slots, queried for
/// rates and quantiles over trailing spans (1m/5m). All methods take
/// the current second explicitly, so tests drive a synthetic clock;
/// [`Telemetry`] supplies its own monotonic clock in production.
#[derive(Debug)]
pub struct RollingWindow {
    slots: Mutex<Box<[WindowSlot]>>,
}

impl Default for RollingWindow {
    fn default() -> RollingWindow {
        RollingWindow {
            slots: Mutex::new(vec![WindowSlot::EMPTY; WINDOW_SLOTS].into_boxed_slice()),
        }
    }
}

impl std::fmt::Debug for WindowSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowSlot")
            .field("second", &self.second)
            .field("count", &self.count)
            .finish_non_exhaustive()
    }
}

impl RollingWindow {
    /// Creates an empty window.
    pub fn new() -> RollingWindow {
        RollingWindow::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Box<[WindowSlot]>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records one observation of `us` microseconds at absolute second
    /// `now_s`.
    pub fn record_at(&self, now_s: u64, us: u64) {
        let mut slots = self.lock();
        let slot = &mut slots[(now_s % WINDOW_SLOTS as u64) as usize];
        if slot.second != now_s {
            *slot = WindowSlot::EMPTY;
            slot.second = now_s;
        }
        slot.count += 1;
        slot.sum_us = slot.sum_us.saturating_add(us);
        let b = &mut slot.buckets[bucket_index(us)];
        *b = b.saturating_add(1);
    }

    /// Aggregates the trailing `span_s` seconds ending at `now_s`
    /// (slots stamped in `(now_s - span_s, now_s]`). Quantiles are the
    /// upper bound of the smallest bucket whose cumulative count
    /// reaches the rank — deterministic, and saturated at the overflow
    /// bucket's 10-second bound.
    pub fn stats_at(&self, now_s: u64, span_s: u64) -> WindowStats {
        let span_s = span_s.clamp(1, WINDOW_SLOTS as u64);
        let slots = self.lock();
        let mut count = 0u64;
        let mut sum_us = 0u64;
        let mut buckets = [0u64; NUM_STAGE_BUCKETS];
        for slot in slots.iter() {
            if slot.second <= now_s && now_s - slot.second < span_s && slot.count > 0 {
                count += slot.count;
                sum_us = sum_us.saturating_add(slot.sum_us);
                for (total, b) in buckets.iter_mut().zip(slot.buckets.iter()) {
                    *total += u64::from(*b);
                }
            }
        }
        let quantile = |q: f64| -> Option<u64> {
            if count == 0 {
                return None;
            }
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (i, b) in buckets.iter().enumerate() {
                seen += b;
                if seen >= rank {
                    return Some(
                        STAGE_BUCKET_BOUNDS_US
                            .get(i)
                            .copied()
                            .unwrap_or(STAGE_BUCKET_BOUNDS_US[STAGE_BUCKET_BOUNDS_US.len() - 1]),
                    );
                }
            }
            None
        };
        WindowStats {
            count,
            sum_us,
            rate_per_s: count as f64 / span_s as f64,
            p50_us: quantile(0.50),
            p90_us: quantile(0.90),
            p99_us: quantile(0.99),
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
    /// Engine solve, including fair-share retries.
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

/// Cache layers tracked by the windowed hit-rate series. Cumulative
/// per-layer counters come straight from [`DaemonCacheStats`]; the
/// rolling ratios here answer "how warm is the cache *lately*".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheLayer {
    /// Daemon-side parsed-netlist layer.
    Netlist,
    /// Daemon-side whole-outcome layer.
    Outcome,
    /// Daemon-side poison-pill layer (hits only; a miss is the normal
    /// case and is not recorded).
    Poison,
    /// Engine-side window-extraction layer.
    Window,
    /// Engine-side CNF(miter)-build layer.
    Cnf,
    /// Engine-side solved-target layer.
    Target,
}

impl CacheLayer {
    /// Every layer, in exposition order.
    pub const ALL: [CacheLayer; 6] = [
        CacheLayer::Netlist,
        CacheLayer::Outcome,
        CacheLayer::Poison,
        CacheLayer::Window,
        CacheLayer::Cnf,
        CacheLayer::Target,
    ];

    /// Stable label used as the `layer` metric label.
    pub fn name(self) -> &'static str {
        match self {
            CacheLayer::Netlist => "netlist",
            CacheLayer::Outcome => "outcome",
            CacheLayer::Poison => "poison",
            CacheLayer::Window => "window",
            CacheLayer::Cnf => "cnf",
            CacheLayer::Target => "target",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One second of per-layer hit/miss history for the rolling hit-rate
/// series.
#[derive(Clone, Copy)]
struct CacheSlot {
    second: u64,
    hits: [u64; CacheLayer::ALL.len()],
    misses: [u64; CacheLayer::ALL.len()],
}

impl CacheSlot {
    const EMPTY: CacheSlot = CacheSlot {
        second: 0,
        hits: [0; CacheLayer::ALL.len()],
        misses: [0; CacheLayer::ALL.len()],
    };
}

struct StageMetrics {
    histogram: Histogram,
    window: RollingWindow,
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
    /// Fair-share budget retries performed.
    pub retried: Counter,
    /// Requests whose solve path panicked (isolated and poisoned).
    pub panicked: Counter,
    requests: [Counter; CommandKind::ALL.len()],
    worker_busy_us: Vec<Counter>,
    stages: [StageMetrics; Stage::ALL.len()],
    cache_slots: Mutex<Box<[CacheSlot]>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("workers", &self.workers)
            .field("shed", &self.shed.get())
            .field("expired", &self.expired.get())
            .field("retried", &self.retried.get())
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
            retried: Counter::new(),
            panicked: Counter::new(),
            requests: std::array::from_fn(|_| Counter::new()),
            worker_busy_us: (0..workers).map(|_| Counter::new()).collect(),
            stages: std::array::from_fn(|_| StageMetrics {
                histogram: Histogram::default(),
                window: RollingWindow::new(),
            }),
            cache_slots: Mutex::new(vec![CacheSlot::EMPTY; WINDOW_SLOTS].into_boxed_slice()),
        }
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
        let s = &self.stages[stage.index()];
        s.histogram.record(us);
        s.window.record_at(now_s, us);
    }

    /// The cumulative histogram for one stage.
    pub fn stage_histogram(&self, stage: Stage) -> &Histogram {
        &self.stages[stage.index()].histogram
    }

    /// Rolling-window statistics for one stage over the trailing
    /// `span_s` seconds.
    pub fn stage_window(&self, stage: Stage, span_s: u64) -> WindowStats {
        self.stage_window_at(stage, self.now_s(), span_s)
    }

    /// Synthetic-clock variant of [`Telemetry::stage_window`].
    pub fn stage_window_at(&self, stage: Stage, now_s: u64, span_s: u64) -> WindowStats {
        self.stages[stage.index()].window.stats_at(now_s, span_s)
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
        let mut slots = self
            .cache_slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let slot = &mut slots[(now_s % WINDOW_SLOTS as u64) as usize];
        if slot.second != now_s {
            *slot = CacheSlot::EMPTY;
            slot.second = now_s;
        }
        slot.hits[layer.index()] += hits;
        slot.misses[layer.index()] += misses;
    }

    /// Rolling `(hits, misses)` for one layer over the trailing
    /// `span_s` seconds ending at `now_s`.
    pub fn cache_window_at(&self, layer: CacheLayer, now_s: u64, span_s: u64) -> (u64, u64) {
        let span_s = span_s.clamp(1, WINDOW_SLOTS as u64);
        let slots = self
            .cache_slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let mut hits = 0u64;
        let mut misses = 0u64;
        for slot in slots.iter() {
            if slot.second <= now_s && now_s - slot.second < span_s {
                hits += slot.hits[layer.index()];
                misses += slot.misses[layer.index()];
            }
        }
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
                "retried_total",
                "Fair-share budget retries performed.",
                &self.retried,
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
                let le = match STAGE_BUCKET_BOUNDS_US.get(i) {
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
                h.sum_us()
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
            ",\"serving\":{{\"shed\":{},\"expired\":{},\"retried\":{},\"panicked\":{}}}",
            self.shed.get(),
            self.expired.get(),
            self.retried.get(),
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
                h.sum_us()
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

// ---------------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------------

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

// ---------------------------------------------------------------------------
// Trace aggregation
// ---------------------------------------------------------------------------

struct AggregatorInner {
    writer: Box<dyn Write + Send>,
    wrote_any: bool,
    closed: bool,
    error: Option<std::io::Error>,
    next_lane: usize,
}

/// Merges daemon lifecycle spans and per-request engine spans into
/// one Chrome `trace_event` document on a shared monotonic clock.
///
/// Track layout: `tid 1` is the daemon control lane (instant events
/// for shed / expired / drain); each request gets its own lane from
/// `tid 2` upward, carrying its lifecycle `B`/`E` span (named after
/// the request's `trace_id`), the retroactive queue-wait `X` block,
/// and the engine events forwarded by a [`LaneObserver`]. Every span
/// carries the request id in `args`, so a session-wide timeline can
/// be filtered per request. Cheap to clone; all state is shared.
#[derive(Clone)]
pub struct TraceAggregator {
    inner: Arc<Mutex<AggregatorInner>>,
    started: Instant,
}

impl std::fmt::Debug for TraceAggregator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        f.debug_struct("TraceAggregator")
            .field("lanes", &inner.next_lane.saturating_sub(2))
            .field("closed", &inner.closed)
            .finish()
    }
}

/// The daemon control lane (`tid`) carrying instant events.
const CONTROL_LANE: usize = 1;

impl TraceAggregator {
    /// Wraps a writer (typically a buffered `--trace-out` file).
    pub fn new(writer: Box<dyn Write + Send>) -> TraceAggregator {
        TraceAggregator {
            inner: Arc::new(Mutex::new(AggregatorInner {
                writer,
                wrote_any: false,
                closed: false,
                error: None,
                next_lane: CONTROL_LANE + 1,
            })),
            started: Instant::now(),
        }
    }

    /// Microseconds since the aggregator was created (the shared
    /// session clock).
    pub fn ts_us(&self) -> u64 {
        duration_us(self.started.elapsed())
    }

    /// Allocates the next free request lane (`tid`).
    pub fn open_lane(&self) -> usize {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let lane = inner.next_lane;
        inner.next_lane += 1;
        lane
    }

    fn push(&self, record: String) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if inner.error.is_some() || inner.closed {
            return;
        }
        let lead = if inner.wrote_any {
            ",\n"
        } else {
            "{\"traceEvents\":[\n"
        };
        let result = inner
            .writer
            .write_all(lead.as_bytes())
            .and_then(|()| inner.writer.write_all(record.as_bytes()));
        match result {
            Ok(()) => inner.wrote_any = true,
            Err(e) => inner.error = Some(e),
        }
    }

    /// Opens a request lifecycle span at `ts_us` (retroactive for
    /// queued requests: the span starts at admission, not dequeue).
    pub fn begin_request(&self, lane: usize, trace_id: &str, request_id: &str, ts_us: u64) {
        self.push(format!(
            "{{\"name\":\"request {}\",\"cat\":\"daemon\",\"ph\":\"B\",\"ts\":{ts_us},\
             \"pid\":1,\"tid\":{lane},\"args\":{{\"request_id\":\"{}\"}}}}",
            escape_json(trace_id),
            escape_json(request_id)
        ));
    }

    /// Closes a request lifecycle span.
    pub fn end_request(&self, lane: usize, ts_us: u64) {
        self.push(format!(
            "{{\"ph\":\"E\",\"cat\":\"daemon\",\"ts\":{ts_us},\"pid\":1,\"tid\":{lane}}}"
        ));
    }

    /// A retroactive queue-wait block covering
    /// `[start_ts_us, start_ts_us + dur_us)` on the request's lane.
    pub fn queue_wait(&self, lane: usize, request_id: &str, start_ts_us: u64, dur_us: u64) {
        self.push(format!(
            "{{\"name\":\"queue_wait\",\"cat\":\"daemon\",\"ph\":\"X\",\"ts\":{start_ts_us},\
             \"dur\":{dur_us},\"pid\":1,\"tid\":{lane},\
             \"args\":{{\"request_id\":\"{}\"}}}}",
            escape_json(request_id)
        ));
    }

    /// An instant event on the daemon control lane (shed, expired,
    /// drain, ...).
    pub fn instant(&self, name: &str, request_id: &str) {
        let ts = self.ts_us();
        self.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"daemon\",\"ph\":\"i\",\"ts\":{ts},\"pid\":1,\
             \"tid\":{CONTROL_LANE},\"s\":\"g\",\"args\":{{\"request_id\":\"{}\"}}}}",
            escape_json(name),
            escape_json(request_id)
        ));
    }

    /// An engine-observer adapter forwarding a request's events onto
    /// its lane, for
    /// [`EcoEngine::with_shared_observer`](eco_core::EcoEngine::with_shared_observer).
    pub fn observer(&self, lane: usize, request_id: String) -> LaneObserver {
        LaneObserver {
            aggregator: self.clone(),
            lane,
            request_id,
        }
    }

    /// Closes the JSON document and flushes; fails with the first
    /// write error encountered while streaming, if any. Later events
    /// are dropped; calling again is a cheap no-op.
    pub fn finish(&self) -> std::io::Result<()> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
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

/// Forwards one request's engine events onto its aggregator lane.
///
/// Span-shaped engine events are emitted as `X` complete blocks at
/// their finish time minus their reported duration (phases, targets,
/// sweeps, SAT calls), so concurrent engine workers inside one
/// request can share the lane without malformed `B`/`E` nesting;
/// governor trips become instant events. Every record carries the
/// request id in `args`.
pub struct LaneObserver {
    aggregator: TraceAggregator,
    lane: usize,
    request_id: String,
}

impl LaneObserver {
    fn complete(&self, name: &str, cat: &str, dur_us: u64, extra: &str) {
        let ts = self.aggregator.ts_us().saturating_sub(dur_us);
        self.aggregator.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur_us},\
             \"pid\":1,\"tid\":{},\"args\":{{\"request_id\":\"{}\"{extra}}}}}",
            escape_json(name),
            self.lane,
            escape_json(&self.request_id)
        ));
    }
}

impl EcoObserver for LaneObserver {
    fn on_event(&mut self, event: &EcoEvent) {
        match event {
            EcoEvent::PhaseFinished { phase, elapsed } => {
                self.complete(phase.name(), "eco", duration_us(*elapsed), "");
            }
            EcoEvent::TargetFinished {
                target_index,
                worker,
                elapsed,
                ..
            } => {
                self.complete(
                    &format!("target {target_index}"),
                    "eco",
                    duration_us(*elapsed),
                    &format!(",\"worker\":{worker}"),
                );
            }
            EcoEvent::SatCall {
                kind,
                result,
                conflicts,
                elapsed,
                ..
            } => {
                let result = match result {
                    SolveResult::Sat => "sat",
                    SolveResult::Unsat => "unsat",
                    SolveResult::Unknown => "unknown",
                };
                self.complete(
                    &format!("sat:{}", kind.name()),
                    "sat",
                    duration_us(*elapsed),
                    &format!(",\"result\":\"{result}\",\"conflicts\":{conflicts}"),
                );
            }
            EcoEvent::GovernorTripped { reason } => {
                let ts = self.aggregator.ts_us();
                self.aggregator.push(format!(
                    "{{\"name\":\"governor:{}\",\"cat\":\"eco\",\"ph\":\"i\",\"ts\":{ts},\
                     \"pid\":1,\"tid\":{},\"s\":\"t\",\"args\":{{\"request_id\":\"{}\"}}}}",
                    escape_json(reason.name()),
                    self.lane,
                    escape_json(&self.request_id)
                ));
            }
            // Start markers and fine-grained telemetry are implied by
            // the complete blocks; skip them to keep session traces
            // lean.
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_core::json::{parse_json, JsonValue};

    #[test]
    fn histogram_buckets_and_totals_accumulate() {
        let h = Histogram::default();
        h.record(1); // bucket 0 (<= 1)
        h.record(3); // bucket 2 (<= 5)
        h.record(10_000_001); // overflow bucket
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum_us(), 10_000_005);
        let buckets = h.buckets();
        assert_eq!(buckets[0], 1);
        assert_eq!(buckets[2], 1);
        assert_eq!(buckets[NUM_STAGE_BUCKETS - 1], 1);
    }

    #[test]
    fn rolling_window_quantiles_with_a_synthetic_clock() {
        let w = RollingWindow::new();
        // 100 observations at second 10: 50 fast (10µs), 40 medium
        // (1ms), 10 slow (100ms).
        for _ in 0..50 {
            w.record_at(10, 10);
        }
        for _ in 0..40 {
            w.record_at(10, 1_000);
        }
        for _ in 0..10 {
            w.record_at(10, 100_000);
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
        let w = RollingWindow::new();
        w.record_at(0, 500);
        w.record_at(100, 500);
        // At second 130 with a 60s span, only second 100 is inside.
        let s = w.stats_at(130, 60);
        assert_eq!(s.count, 1);
        // A full lap later the slot is reused: second 0's data must
        // not bleed into second 300.
        w.record_at(300, 7);
        let s = w.stats_at(300, 1);
        assert_eq!(s.count, 1);
        assert_eq!(s.sum_us, 7);
        // Empty span: no quantiles.
        let s = w.stats_at(1000, 60);
        assert_eq!(s.count, 0);
        assert_eq!(s.p50_us, None);
    }

    #[test]
    fn quantiles_saturate_at_the_overflow_bucket() {
        let w = RollingWindow::new();
        w.record_at(5, u64::MAX);
        let s = w.stats_at(5, 60);
        assert_eq!(
            s.p99_us,
            Some(10_000_000),
            "overflow reports the last bound"
        );
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
                "eco_patchd_retried_total",
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

    #[test]
    fn trace_aggregator_produces_a_valid_chrome_document() {
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
        let agg = TraceAggregator::new(Box::new(Shared(buffer.clone())));
        let lane = agg.open_lane();
        assert_eq!(lane, 2, "request lanes start above the control lane");
        agg.begin_request(lane, "trace-a", "r1", 0);
        agg.queue_wait(lane, "r1", 0, 120);
        agg.instant("shed", "r2");
        agg.end_request(lane, agg.ts_us().max(200));
        agg.finish().expect("finish");
        agg.finish().expect("idempotent");
        let text = String::from_utf8(buffer.lock().unwrap().clone()).expect("UTF-8");
        let doc = parse_json(&text).unwrap_or_else(|e| panic!("bad chrome JSON: {e}\n{text}"));
        let events = doc
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .expect("traceEvents array");
        assert_eq!(events.len(), 4);
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
        let control = &events[2];
        assert_eq!(control.get("tid").and_then(JsonValue::as_u64), Some(1));
    }
}
