//! The serving loop: reads JSONL requests from stdin or a unix
//! socket, schedules them on a daemon-level worker pool, and answers
//! each on its own line. Responses may interleave out of order when
//! the pool has more than one worker; clients correlate by `id`.
//!
//! # Resilience
//!
//! The daemon is built to degrade per-request, never per-process:
//!
//! - **Panic isolation** — every request's solve path runs inside an
//!   unwind boundary. A panic (a solver bug, real or injected) becomes
//!   a structured `"status":"panic"` response, and the request's
//!   content fingerprint is quarantined as a *poison pill*: identical
//!   retries get a fast cached rejection instead of re-crashing a
//!   worker.
//! - **Admission control** — in pooled mode (`--workers` > 1) a
//!   capacity-bounded queue fronts the pool. A full queue sheds new
//!   requests with `"status":"overloaded"` and a `retry_after_ms`
//!   hint; a request whose own `deadline_ms` expires while queued is
//!   rejected with `"status":"expired"` before any solver work.
//! - **Retry with backoff** — a request that tripped the daemon's
//!   fair-share conflict pool (not its own deadline or an explicit
//!   caller budget) is re-run once with an escalated budget before the
//!   degraded answer is returned.
//! - **Graceful drain** — the `drain` command stops admission
//!   (subsequent requests answer `"status":"draining"`), lets
//!   in-flight work finish, and exits cleanly once the stream closes.
//!   End-of-stream without `drain` behaves the same way: accepted work
//!   always drains before exit.
//! - **Health** — the `health` command reports queue depth, in-flight
//!   count, uptime, poison-pill count, shed/expired/retried/panicked
//!   counters, and per-layer cache statistics, and is answered by the
//!   reader thread so it works even while every worker is busy.

use crate::cache::{outcome_key, CachedOutcome, DaemonCache};
use crate::journal::{Field, Journal, Level};
use crate::protocol::{
    draining_response, error_response, expired_response, overloaded_response, panic_response,
    parse_request, EcoRequest, EcoResponse, MetricsFormat, Request, RequestOptions,
};
use crate::queue::{Admission, RequestQueue};
use crate::telemetry::{CommandKind, ScrapeView, Stage, Telemetry};
use eco_core::json::escape_json;
use eco_core::trace::{ChromeTrace, CONTROL_LANE};
use eco_core::{
    duration_us, netlist_patches, patched_netlist, CacheCounters, CacheLayer, EcoEngine,
    EcoOptions, EcoProblem, FaultPlan, GovernorLimits, Lookup, ResourceGovernor, RunMetrics,
    SupportMethod, TargetDisposition, TripReason,
};
use eco_netlist::WeightTable;
use std::io::{self, BufRead, BufReader, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// `retry_after_ms` hint on `draining` responses: the client should
/// fail over to another instance, so the hint is deliberately long.
const DRAIN_RETRY_HINT_MS: u64 = 1000;

/// How many times a fair-share budget trip is retried with an
/// escalated budget before the degraded answer is returned.
const MAX_FAIR_SHARE_RETRIES: u64 = 1;

/// Budget multiplier per fair-share retry.
const FAIR_SHARE_ESCALATION: u64 = 4;

/// Upper bound on the `hold_ms` chaos hook, so a hostile client with
/// `--chaos` enabled cannot park a worker forever.
const MAX_HOLD_MS: u64 = 60_000;

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Number of daemon-level workers pulling requests off the queue.
    /// With one worker (the default) responses keep request order;
    /// with more, independent requests overlap and responses
    /// interleave.
    pub workers: usize,
    /// Entries per cache layer (netlist, outcome, poison-pill, and
    /// each engine-side layer).
    pub cache_capacity: usize,
    /// Waiting requests admitted before the daemon load-sheds
    /// (pooled mode only; inline mode handles each line
    /// synchronously, so a queue never builds).
    pub queue_capacity: usize,
    /// Default per-request conflict pool applied when a request does
    /// not bring its own `global_conflicts`. A request that trips
    /// this daemon-imposed pool (and only this pool) is retried with
    /// an escalated budget.
    pub fair_share_conflicts: Option<u64>,
    /// Enables the chaos hooks (`hold_ms`, `inject_panic` request
    /// options). Off by default: chaos requests are refused so a
    /// stray client cannot park or panic workers in production.
    pub chaos: bool,
    /// Daemon-wide resource limits, shared fairly by every request
    /// through the governor chain (per-request limits layer under
    /// these).
    pub limits: GovernorLimits,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            workers: 1,
            cache_capacity: 256,
            queue_capacity: 64,
            fair_share_conflicts: None,
            chaos: false,
            limits: GovernorLimits::default(),
        }
    }
}

/// The `eco_patchd` daemon: shared caches, the root governor, the
/// serving loops, the resilience state (drain flag, poison pills),
/// and the observability plane (metrics registry, event journal,
/// trace aggregation).
#[derive(Debug)]
pub struct Daemon {
    config: DaemonConfig,
    cache: DaemonCache,
    root: ResourceGovernor,
    shutdown: AtomicBool,
    draining: AtomicBool,
    started: Instant,
    telemetry: Telemetry,
    journal: Journal,
    trace: Option<ChromeTrace>,
    /// `(daemon, engine)` eviction counts already reported to the
    /// journal, so each eviction is journaled exactly once.
    evictions_seen: Mutex<(u64, u64)>,
}

impl Daemon {
    /// Creates a daemon with fresh caches, a root governor holding the
    /// daemon-wide pools, and the default observability plane: metrics
    /// always on, journal to stderr at [`Level::Warn`], no trace
    /// aggregation.
    pub fn new(config: DaemonConfig) -> Daemon {
        let journal = Journal::new().with_stderr(Level::Warn);
        Daemon::with_observability(config, journal, None)
    }

    /// Creates a daemon with an explicit journal and optional session
    /// trace (the `--log-jsonl` / `--trace-out` path).
    pub fn with_observability(
        config: DaemonConfig,
        journal: Journal,
        trace: Option<ChromeTrace>,
    ) -> Daemon {
        let root = ResourceGovernor::new(config.limits.clone());
        let cache = DaemonCache::new(config.cache_capacity);
        let telemetry = Telemetry::new(config.workers);
        Daemon {
            config,
            cache,
            root,
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            started: Instant::now(),
            telemetry,
            journal,
            trace,
            evictions_seen: Mutex::new((0, 0)),
        }
    }

    /// The daemon's cache (shared handles; cheap to clone).
    pub fn cache(&self) -> &DaemonCache {
        &self.cache
    }

    /// The daemon's metrics registry.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The daemon's event journal (cheap to clone).
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Closes the session trace document, if one is attached.
    /// Call after serving ends; later calls are no-ops.
    pub fn finish_trace(&self) -> io::Result<()> {
        match &self.trace {
            Some(t) => t.finish(),
            None => Ok(()),
        }
    }

    /// Journals cache evictions that happened since the last call, so
    /// the journal carries one `eviction` event per observed batch.
    fn note_evictions(&self) {
        let stats = self.cache.stats();
        let mut seen = self
            .evictions_seen
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let (daemon_new, engine_new) = (
            stats.evictions.saturating_sub(seen.0),
            stats.engine.evictions.saturating_sub(seen.1),
        );
        *seen = (stats.evictions, stats.engine.evictions);
        drop(seen);
        if daemon_new > 0 || engine_new > 0 {
            self.journal.event(
                Level::Info,
                "eviction",
                None,
                &[
                    ("daemon_evictions", Field::U(daemon_new)),
                    ("engine_evictions", Field::U(engine_new)),
                ],
            );
        }
    }

    /// The `metrics` response: the rendered scrape under `"metrics"`
    /// (a string for Prometheus exposition, an object for JSON).
    fn metrics_response(&self, id: &str, format: MetricsFormat, view: &ScrapeView<'_>) -> String {
        match format {
            MetricsFormat::Prometheus => format!(
                "{{\"id\":\"{}\",\"status\":\"ok\",\"format\":\"prometheus\",\
                 \"metrics\":\"{}\"}}",
                escape_json(id),
                escape_json(&self.telemetry.render_prometheus(view))
            ),
            MetricsFormat::Json => format!(
                "{{\"id\":\"{}\",\"status\":\"ok\",\"format\":\"json\",\"metrics\":{}}}",
                escape_json(id),
                self.telemetry.render_json(view)
            ),
        }
    }

    /// Whether admission is closed (a `drain` request was served).
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// The health payload: serving counters, queue occupancy (as
    /// reported by the caller — the queue lives inside the serving
    /// loop), serving mode (`"direct"` handles requests inline, so the
    /// occupancy gauges are structurally zero; `"pooled"` reports live
    /// queue state), uptime, poison pills, and cache statistics.
    fn health_json(&self, id: &str, queue_depth: usize, in_flight: usize, mode: &str) -> String {
        let stats = self.cache.stats();
        format!(
            "{{\"id\":\"{}\",\"status\":\"ok\",\"health\":{{\"uptime_ms\":{},\
             \"mode\":\"{mode}\",\"draining\":{},\"queue_depth\":{queue_depth},\
             \"in_flight\":{in_flight},\
             \"poison_pills\":{},\"shed\":{},\"expired\":{},\"retried\":{},\"panicked\":{},\
             \"cache\":{}}}}}",
            escape_json(id),
            self.started.elapsed().as_millis().min(u64::MAX as u128) as u64,
            self.draining(),
            stats.poison_pills,
            self.telemetry.shed.get(),
            self.telemetry.expired.get(),
            self.telemetry.retried.get(),
            self.telemetry.panicked.get(),
            stats.to_json()
        )
    }

    fn drain_ack(&self, id: &str, queue_depth: usize, in_flight: usize) -> String {
        format!(
            "{{\"id\":\"{}\",\"status\":\"ok\",\"draining\":true,\
             \"queue_depth\":{queue_depth},\"in_flight\":{in_flight}}}",
            escape_json(id)
        )
    }

    /// Handles one request line; returns the response line (without
    /// trailing newline) and whether the daemon should stop serving.
    ///
    /// This is the inline (single-worker) path: requests are solved
    /// synchronously, so no queue exists — `health` and `metrics`
    /// responses mark themselves `"mode":"direct"` and report the
    /// occupancy gauges as the structural zeros they are, instead of
    /// posing as idle pooled readings.
    pub fn handle_line(&self, line: &str) -> (String, bool) {
        let (response, stop) = self.dispatch(line, None);
        (response.expect("inline requests are always answered"), stop)
    }

    /// Handles one request line in either serving mode: `queue` is the
    /// pooled mode's admission queue, `None` serves inline. Returns the
    /// response line — `None` when an ECO request was queued, since a
    /// pool worker answers it later — and whether serving should stop.
    /// Only the ECO arm differs by mode; control commands report the
    /// queue's occupancy, or zeros inline.
    fn dispatch(&self, line: &str, queue: Option<&RequestQueue>) -> (Option<String>, bool) {
        let received = Instant::now();
        let parsed = parse_request(line);
        self.telemetry.record_request(command_kind(&parsed));
        let mode = if queue.is_some() { "pooled" } else { "direct" };
        let occupancy = || queue.map_or((0, 0), |q| (q.depth(), q.in_flight()));
        let response = match parsed {
            Err(e) => {
                self.journal.event(
                    Level::Warn,
                    "parse_error",
                    None,
                    &[("error", Field::S(e.clone()))],
                );
                error_response("", &e)
            }
            Ok(Request::Stats { id }) => format!(
                "{{\"id\":\"{}\",\"status\":\"ok\",\"stats\":{}}}",
                escape_json(&id),
                self.cache.stats().to_json()
            ),
            Ok(Request::Health { id }) => {
                let (depth, in_flight) = occupancy();
                self.health_json(&id, depth, in_flight, mode)
            }
            Ok(Request::Metrics { id, format }) => {
                let stats = self.cache.stats();
                let (depth, in_flight) = occupancy();
                let view = ScrapeView {
                    cache: &stats,
                    queue_depth: depth as u64,
                    in_flight: in_flight as u64,
                    queue_peak: queue.map_or(0, RequestQueue::peak_depth) as u64,
                    draining: self.draining(),
                    mode,
                };
                self.metrics_response(&id, format, &view)
            }
            Ok(Request::Drain { id }) => {
                self.draining.store(true, Ordering::SeqCst);
                match queue {
                    None => self.journal.event(Level::Info, "drain", Some(&id), &[]),
                    Some(queue) => {
                        queue.close();
                        self.journal.event(
                            Level::Info,
                            "drain",
                            Some(&id),
                            &[
                                ("queue_depth", Field::U(queue.depth() as u64)),
                                ("in_flight", Field::U(queue.in_flight() as u64)),
                            ],
                        );
                        if let Some(t) = &self.trace {
                            t.instant(CONTROL_LANE, "drain", "daemon", Some(&id));
                        }
                    }
                }
                let (depth, in_flight) = occupancy();
                self.drain_ack(&id, depth, in_flight)
            }
            Ok(Request::Shutdown { id }) => {
                self.shutdown.store(true, Ordering::SeqCst);
                self.journal.event(Level::Info, "shutdown", Some(&id), &[]);
                let bye = format!(
                    "{{\"id\":\"{}\",\"status\":\"ok\",\"shutdown\":true}}",
                    escape_json(&id)
                );
                return (Some(bye), true);
            }
            Ok(Request::Eco(req)) if self.draining() => {
                self.journal
                    .event(Level::Warn, "drain_refused", Some(&req.id), &[]);
                draining_response(&req.id, DRAIN_RETRY_HINT_MS)
            }
            Ok(Request::Eco(req)) => match queue {
                None => {
                    self.telemetry
                        .record_stage(Stage::Admission, duration_us(received.elapsed()));
                    self.journal.event(
                        Level::Info,
                        "admit",
                        Some(&req.id),
                        &[("mode", Field::S("direct".to_string()))],
                    );
                    self.answer_eco(&req, None, None)
                }
                Some(queue) => match self.offer(queue, req, received) {
                    Some(refusal) => refusal,
                    None => return (None, false),
                },
            },
        };
        (Some(response), false)
    }

    /// Offers an ECO request to the pool's admission queue; returns the
    /// refusal line when it was shed or the queue is draining, `None`
    /// when it was queued.
    fn offer(
        &self,
        queue: &RequestQueue,
        req: Box<EcoRequest>,
        received: Instant,
    ) -> Option<String> {
        let id = req.id.clone();
        let admission = queue.offer(req);
        self.telemetry
            .record_stage(Stage::Admission, duration_us(received.elapsed()));
        match admission {
            Admission::Queued => {
                self.journal.event(
                    Level::Info,
                    "admit",
                    Some(&id),
                    &[("queue_depth", Field::U(queue.depth() as u64))],
                );
                None
            }
            Admission::Shed { retry_after_ms } => {
                self.telemetry.shed.inc();
                self.journal.event(
                    Level::Warn,
                    "shed",
                    Some(&id),
                    &[("retry_after_ms", Field::U(retry_after_ms))],
                );
                if let Some(t) = &self.trace {
                    t.instant(CONTROL_LANE, "shed", "daemon", Some(&id));
                }
                Some(overloaded_response(&id, retry_after_ms))
            }
            Admission::Draining => {
                self.journal
                    .event(Level::Warn, "drain_refused", Some(&id), &[]);
                Some(draining_response(&id, DRAIN_RETRY_HINT_MS))
            }
        }
    }

    /// Answers one admitted ECO request with full panic isolation:
    /// poison-pill lookup, chaos gating, then the engine behind an
    /// unwind boundary. Always returns a response line — never
    /// propagates a panic into the serving loop.
    ///
    /// `queued` is the admission-queue wait (pooled mode), `worker`
    /// the pool worker index — both feed the telemetry stage and
    /// utilization series, and the queue wait also becomes a
    /// retroactive block on the request's trace lane.
    fn answer_eco(
        &self,
        req: &EcoRequest,
        queued: Option<Duration>,
        worker: Option<usize>,
    ) -> String {
        let begun = Instant::now();
        let queued_us = queued.map(duration_us).unwrap_or(0);
        if queued.is_some() {
            self.telemetry.record_stage(Stage::QueueWait, queued_us);
        }
        // The lifecycle span opens retroactively at admission time, so
        // the queue-wait block and every engine span nest inside it.
        let lane = self.trace.as_ref().map(|t| {
            let lane = t.open_lane();
            let trace_id = req.options.trace_id.as_deref().unwrap_or(&req.id);
            let start = t.ts_us().saturating_sub(queued_us);
            t.begin(
                lane,
                &format!("request {trace_id}"),
                "daemon",
                start,
                Some(&req.id),
            );
            if queued_us > 0 {
                t.complete(
                    lane,
                    "queue_wait",
                    "daemon",
                    start,
                    queued_us,
                    Some(&req.id),
                );
            }
            lane
        });
        let key = outcome_key(req);
        // The request's own deadline runs from here, so time spent
        // waiting on a concurrent identical request counts against it.
        let deadline = req
            .options
            .deadline_ms
            .map(|ms| begun + Duration::from_millis(ms));
        let mut stage = StageTimes::default();
        let (line, status) = 'resp: {
            if let Some(pill) = self.cache.poisoned(key) {
                // Quarantined fingerprint: fast cached rejection, zero
                // engine work, no second crash.
                self.journal
                    .event(Level::Warn, "poison_hit", Some(&req.id), &[]);
                break 'resp (panic_response(&req.id, &pill, true), "panic");
            }
            if (req.options.inject_panic || req.options.hold_ms.is_some()) && !self.config.chaos {
                break 'resp (
                    error_response(
                        &req.id,
                        "chaos options (hold_ms, inject_panic) require --chaos",
                    ),
                    "error",
                );
            }
            if let Some(ms) = req.options.hold_ms {
                std::thread::sleep(Duration::from_millis(ms.min(MAX_HOLD_MS)));
            }
            match catch_unwind(AssertUnwindSafe(|| {
                self.handle_eco(req, key, deadline, lane, &mut stage)
            })) {
                Ok(Ok(response)) => {
                    let serializing = Instant::now();
                    let line = response.to_json();
                    stage.serialize_us =
                        Some(stage.serialize_us.unwrap_or(0) + duration_us(serializing.elapsed()));
                    (line, "ok")
                }
                Ok(Err(e)) => (error_response(&req.id, &e), "error"),
                Err(payload) => {
                    let message = panic_text(payload.as_ref());
                    self.telemetry.panicked.inc();
                    self.cache.poison(key, &message);
                    self.journal.event(
                        Level::Error,
                        "panic",
                        Some(&req.id),
                        &[("error", Field::S(message.clone()))],
                    );
                    (panic_response(&req.id, &message, false), "panic")
                }
            }
        };
        if let (Some(t), Some(lane)) = (self.trace.as_ref(), lane) {
            t.end(lane, "daemon", t.ts_us());
        }
        let total_us = duration_us(begun.elapsed());
        self.telemetry
            .record_worker_busy(worker.unwrap_or(0), total_us);
        for (s, us) in [
            (Stage::Parse, stage.parse_us),
            (Stage::Solve, stage.solve_us),
            (Stage::Serialize, stage.serialize_us),
        ] {
            if let Some(us) = us {
                self.telemetry.record_stage(s, us);
            }
        }
        let stats = self.cache.stats();
        self.journal.event(
            Level::Info,
            "request_done",
            Some(&req.id),
            &[
                ("cmd", Field::S("eco".to_string())),
                ("status", Field::S(status.to_string())),
                ("queue_wait_us", Field::U(queued_us)),
                ("parse_us", Field::U(stage.parse_us.unwrap_or(0))),
                ("solve_us", Field::U(stage.solve_us.unwrap_or(0))),
                ("serialize_us", Field::U(stage.serialize_us.unwrap_or(0))),
                ("total_us", Field::U(total_us)),
                (
                    "cache_hits_total",
                    Field::U(
                        stats.netlist_hits
                            + stats.outcome_hits
                            + stats.poison_hits
                            + stats.engine.hits(),
                    ),
                ),
                (
                    "cache_misses_total",
                    Field::U(stats.netlist_misses + stats.outcome_misses + stats.engine.misses()),
                ),
            ],
        );
        self.note_evictions();
        line
    }

    /// Answers one ECO request through the outcome layer. A stored
    /// clean outcome — found, or published by a concurrent identical
    /// request this one waited for — replays without touching the
    /// engine (or even the parser): zero SAT calls, byte-identical
    /// patched netlist. Otherwise this request solves, and its answer
    /// is stored when clean. The wait for a concurrent request ends at
    /// this request's `deadline`, after which it solves (and trips)
    /// on its own. `lane` is the request's trace lane (engine spans
    /// are forwarded onto it), and `stage` receives the
    /// parse/solve/serialize wall times.
    fn handle_eco(
        &self,
        req: &EcoRequest,
        key: u128,
        deadline: Option<Instant>,
        lane: Option<usize>,
        stage: &mut StageTimes,
    ) -> Result<EcoResponse, String> {
        let lookup = self.cache.outcome.get_or_fill(key, deadline, || {
            self.telemetry.record_cache(CacheLayer::Outcome, 0, 1);
            let solved = self.solve_eco(req, deadline, lane, stage);
            // Only clean runs are replayable: a governor trip or
            // injected fault marks a resource-shaped answer that must
            // not be served as if it were the real one.
            let stored = match &solved {
                Ok((response, true)) => Some(Arc::new(CachedOutcome {
                    verified: response.verified,
                    cost: response.cost,
                    gates: response.gates,
                    dispositions: response.dispositions.clone(),
                    patched_verilog: response.patched_verilog.clone(),
                    num_targets: req.targets.len(),
                })),
                _ => None,
            };
            (solved.map(|(response, _)| response), stored)
        });
        let stored = match lookup {
            Lookup::Hit(stored) => stored,
            Lookup::Miss(solved) => return solved,
        };
        self.telemetry.record_cache(CacheLayer::Outcome, 1, 0);
        let metrics = RunMetrics {
            request_id: Some(req.id.clone()),
            num_targets: stored.num_targets,
            cache: CacheCounters {
                outcome_hits: 1,
                ..CacheCounters::default()
            },
            ..RunMetrics::default()
        };
        Ok(EcoResponse {
            id: req.id.clone(),
            verified: stored.verified,
            cost: stored.cost,
            gates: stored.gates,
            dispositions: stored.dispositions.clone(),
            governor_trip: None,
            netlist_cache_hit: false,
            outcome_cache_hit: true,
            patched_verilog: stored.patched_verilog.clone(),
            metrics_json: metrics.to_json(),
        })
    }

    /// The outcome fill: parse, solve, emit. The flag is `true` when
    /// the run was clean (no governor trip, no injected fault), so its
    /// answer may be replayed.
    fn solve_eco(
        &self,
        req: &EcoRequest,
        deadline: Option<Instant>,
        lane: Option<usize>,
        stage: &mut StageTimes,
    ) -> Result<(EcoResponse, bool), String> {
        let parsing = Instant::now();
        let (impl_design, impl_hit) = self.cache.parsed(&req.impl_verilog)?;
        let (spec_design, spec_hit) = self.cache.parsed(&req.spec_verilog)?;
        let netlist_hits = u64::from(impl_hit) + u64::from(spec_hit);
        let netlist_misses = 2 - netlist_hits;
        self.telemetry
            .record_cache(CacheLayer::Netlist, netlist_hits, netlist_misses);

        let mut weights = WeightTable::new();
        for (net, w) in &req.weights {
            weights.set(net.clone(), *w);
        }
        let names: Vec<&str> = req.targets.iter().map(String::as_str).collect();
        let problem = EcoProblem::from_netlists(
            impl_design.netlist(),
            spec_design.netlist(),
            &names,
            &weights,
            req.default_weight,
        )
        .map_err(|e| e.to_string())?;
        stage.parse_us = Some(duration_us(parsing.elapsed()));

        let options = engine_options(&req.options)?;
        // The fair-share pool: the caller's own budget wins when
        // present; otherwise the daemon's default applies, and trips
        // of that daemon-imposed pool are eligible for escalation.
        let caller_pool = req.options.global_conflicts;
        let mut pool = caller_pool.or(self.config.fair_share_conflicts);
        let mut retries = 0u64;
        let snapshot = problem.snapshot();
        let solving = Instant::now();
        let outcome = loop {
            // Per-request QoS: the time left before the request's own
            // deadline and its fair-share conflict pool layer under the
            // daemon-wide root limits. A passed deadline leaves a zero
            // timeout: "already expired" (anytime answer).
            let limits = GovernorLimits {
                timeout: deadline.map(|d| d.saturating_duration_since(Instant::now())),
                global_conflicts: pool,
                global_propagations: None,
                // Chaos hook: panic on this request's first SAT call
                // (the call counter is chain-wide, so "next call" is
                // current + 1).
                fault_plan: req
                    .options
                    .inject_panic
                    .then(|| FaultPlan::PanicAt(self.root.sat_calls() + 1)),
            };
            let governor = self.root.child_with_limits(limits);
            let mut engine = EcoEngine::new(options.clone())
                .with_metrics()
                .with_cache(self.cache.engine())
                .with_request_id(req.id.clone())
                .with_governor(governor);
            if let (Some(t), Some(lane)) = (self.trace.as_ref(), lane) {
                engine = engine.with_observer(t.observer(lane, Some(req.id.clone())));
            }
            let outcome = engine.solve(&snapshot).map_err(|e| e.to_string())?;
            // Daemon-side retry: the trip must come from the
            // fair-share pool this daemon imposed — not the caller's
            // own budget, not a deadline, and not the daemon-wide
            // root pool (whose exhaustion an escalated retry would
            // only make worse).
            let fair_share_trip = outcome.governor_trip == Some(TripReason::GlobalBudget)
                && caller_pool.is_none()
                && self.config.fair_share_conflicts.is_some()
                && self.root.trip().is_none();
            if fair_share_trip && retries < MAX_FAIR_SHARE_RETRIES {
                retries += 1;
                pool = pool.map(|p| p.saturating_mul(FAIR_SHARE_ESCALATION));
                self.journal.event(
                    Level::Info,
                    "retry",
                    Some(&req.id),
                    &[("escalated_pool", Field::U(pool.unwrap_or(0)))],
                );
                continue;
            }
            break outcome;
        };
        stage.solve_us = Some(duration_us(solving.elapsed()));
        self.telemetry.retried.add(retries);

        let dispositions: Vec<String> = outcome
            .reports
            .iter()
            .map(|r| match &r.disposition {
                TargetDisposition::Patched => "patched".to_string(),
                TargetDisposition::Degraded => "degraded".to_string(),
                TargetDisposition::Skipped { reason } => format!("skipped: {reason}"),
                other => format!("{other:?}"),
            })
            .collect();

        // Prefer name-preserving splices; fall back to the rebuilt
        // netlist when a patch feeds on patch-created logic or the
        // splices would close a loop.
        let serializing = Instant::now();
        let named = netlist_patches(
            &outcome,
            &names,
            impl_design.netlist(),
            &impl_design.conversion,
        );
        let (patched, _) =
            patched_netlist(&outcome, &named, impl_design.netlist()).map_err(|e| e.to_string())?;
        let patched_verilog = patched.to_verilog();

        let mut metrics = outcome
            .metrics
            .clone()
            .ok_or_else(|| "engine returned no metrics despite with_metrics".to_string())?;
        metrics.cache.netlist_hits += netlist_hits;
        metrics.cache.netlist_misses += netlist_misses;
        metrics.cache.outcome_misses += 1;
        metrics.serving.retried = retries;
        // This run's engine-layer cache activity feeds the rolling
        // hit-rate series (the cumulative counters come from
        // `DaemonCacheStats` at scrape time).
        for (layer, hits, misses) in [
            (
                CacheLayer::Window,
                metrics.cache.window_hits,
                metrics.cache.window_misses,
            ),
            (
                CacheLayer::Cnf,
                metrics.cache.cnf_hits,
                metrics.cache.cnf_misses,
            ),
            (
                CacheLayer::Target,
                metrics.cache.target_hits,
                metrics.cache.target_misses,
            ),
        ] {
            self.telemetry.record_cache(layer, hits, misses);
        }

        let metrics_json = metrics.to_json();
        stage.serialize_us = Some(duration_us(serializing.elapsed()));

        let response = EcoResponse {
            id: req.id.clone(),
            verified: outcome.verified,
            cost: outcome.total_cost,
            gates: outcome.total_gates as u64,
            dispositions,
            governor_trip: outcome.governor_trip.map(|t| t.to_string()),
            netlist_cache_hit: netlist_hits == 2,
            outcome_cache_hit: false,
            patched_verilog,
            metrics_json,
        };
        let clean = outcome.governor_trip.is_none() && outcome.fault_injections == 0;
        Ok((response, clean))
    }

    /// Serves one JSONL stream until EOF, a `shutdown`, or a `drain`
    /// followed by EOF.
    ///
    /// With `workers == 1`, requests are handled inline in arrival
    /// order. With more workers, ECO requests flow through the
    /// bounded admission queue to a pool and responses interleave;
    /// control requests (`stats`, `health`, `drain`, `shutdown`) are
    /// answered immediately by the reader, so they work even while
    /// every worker is busy. Each response line is written atomically.
    /// Accepted work always drains before this returns.
    pub fn serve<R: BufRead, W: Write + Send>(&self, reader: R, writer: W) -> io::Result<()> {
        if self.config.workers <= 1 {
            let mut writer = writer;
            for line in reader.lines() {
                let line = line?;
                if line.trim().is_empty() {
                    continue;
                }
                let (response, stop) = self.handle_line(&line);
                let writing = Instant::now();
                writeln!(writer, "{response}")?;
                writer.flush()?;
                self.telemetry
                    .record_stage(Stage::WriteBack, duration_us(writing.elapsed()));
                if stop {
                    break;
                }
            }
            return Ok(());
        }
        self.serve_pooled(reader, writer)
    }

    /// The pooled serving loop: a reader thread doing admission
    /// control, `workers` solver threads draining the bounded queue.
    fn serve_pooled<R: BufRead, W: Write + Send>(&self, reader: R, writer: W) -> io::Result<()> {
        let queue = RequestQueue::new(self.config.queue_capacity);
        let writer = Mutex::new(writer);
        // Worker- and reader-side write errors cannot unwind across
        // the pool; a broken pipe simply ends the stream.
        let write_line = |response: &str| {
            let writing = Instant::now();
            let mut w = writer.lock().unwrap_or_else(PoisonError::into_inner);
            let _ = writeln!(w, "{response}");
            let _ = w.flush();
            self.telemetry
                .record_stage(Stage::WriteBack, duration_us(writing.elapsed()));
        };
        std::thread::scope(|scope| -> io::Result<()> {
            for worker in 0..self.config.workers {
                let queue = &queue;
                let write_line = &write_line;
                scope.spawn(move || {
                    while let Some(item) = queue.take() {
                        let response = match item.expired_in_queue() {
                            Some(queued_ms) => {
                                // The caller's deadline passed while
                                // the request sat in the queue: shed
                                // it before any solver work.
                                self.telemetry.expired.inc();
                                self.telemetry.record_stage(
                                    Stage::QueueWait,
                                    duration_us(item.queued_duration()),
                                );
                                self.journal.event(
                                    Level::Warn,
                                    "expired",
                                    Some(&item.request.id),
                                    &[("queued_ms", Field::U(queued_ms))],
                                );
                                if let Some(t) = &self.trace {
                                    t.instant(
                                        CONTROL_LANE,
                                        "expired",
                                        "daemon",
                                        Some(&item.request.id),
                                    );
                                }
                                expired_response(&item.request.id, queued_ms)
                            }
                            None => self.answer_eco(
                                &item.request,
                                Some(item.queued_duration()),
                                Some(worker),
                            ),
                        };
                        write_line(&response);
                        queue.finish();
                    }
                });
            }
            let read_result = (|| -> io::Result<()> {
                for line in reader.lines() {
                    let line = line?;
                    if line.trim().is_empty() {
                        continue;
                    }
                    let (response, stop) = self.dispatch(&line, Some(&queue));
                    if let Some(response) = response {
                        write_line(&response);
                    }
                    if stop {
                        break;
                    }
                }
                Ok(())
            })();
            // Whatever ended the stream — EOF, shutdown, or a reader
            // I/O error — accepted work drains before the pool exits.
            queue.close();
            read_result
        })
    }

    /// Serves connections on a unix domain socket at `path`.
    /// Connections are accepted one at a time; a `shutdown` or
    /// `drain` request ends the accept loop after its connection
    /// closes. Connection-level I/O faults (mid-request disconnects,
    /// reset streams) are logged and the next connection is accepted
    /// — they never kill the daemon.
    ///
    /// A leftover socket file from an unclean shutdown is detected by
    /// probing it: a dead socket is removed and the address rebound,
    /// while a path owned by a live daemon (or occupied by a
    /// non-socket file) is refused.
    pub fn serve_unix(&self, path: &Path) -> io::Result<()> {
        let listener = bind_unix_listener(path)?;
        for connection in listener.incoming() {
            let served = connection.and_then(|stream| {
                let reader = BufReader::new(stream.try_clone()?);
                self.serve(reader, stream)
            });
            if let Err(e) = served {
                self.journal.event(
                    Level::Error,
                    "connection_error",
                    None,
                    &[("error", Field::S(e.to_string()))],
                );
            }
            if self.shutdown.load(Ordering::SeqCst) || self.draining() {
                break;
            }
        }
        let _ = std::fs::remove_file(path);
        Ok(())
    }
}

/// Per-request stage wall times filled by [`Daemon::handle_eco`] and
/// recorded by [`Daemon::answer_eco`]. Lives outside the unwind
/// boundary, so stages completed before a panic still count; `None`
/// means the stage never ran (e.g. no parse on an outcome-cache hit).
#[derive(Clone, Copy, Debug, Default)]
struct StageTimes {
    parse_us: Option<u64>,
    solve_us: Option<u64>,
    serialize_us: Option<u64>,
}

/// The engine options of one ECO request. Without a `budget` the
/// engine's default per-call budget applies.
fn engine_options(options: &RequestOptions) -> Result<EcoOptions, String> {
    let method = SupportMethod::from_name(options.method.as_deref().unwrap_or("minimize"))?;
    let mut builder = EcoOptions::builder()
        .method(method)
        .structural_fallback(options.structural_fallback.unwrap_or(true));
    if options.budget.is_some() {
        builder = builder.per_call_conflicts(options.budget);
    }
    Ok(builder.build())
}

/// The [`CommandKind`] of a parse result, for per-command request
/// counters.
fn command_kind(parsed: &Result<Request, String>) -> CommandKind {
    match parsed {
        Err(_) => CommandKind::Invalid,
        Ok(Request::Eco(_)) => CommandKind::Eco,
        Ok(Request::Stats { .. }) => CommandKind::Stats,
        Ok(Request::Health { .. }) => CommandKind::Health,
        Ok(Request::Metrics { .. }) => CommandKind::Metrics,
        Ok(Request::Drain { .. }) => CommandKind::Drain,
        Ok(Request::Shutdown { .. }) => CommandKind::Shutdown,
    }
}

/// Renders a caught panic payload as text (panics carry `&str` or
/// `String` in practice; anything else gets a placeholder).
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Binds `path`, detecting and replacing a stale socket file left by
/// an unclean shutdown. A live socket (something accepts connections)
/// or a non-socket file at `path` is an error.
fn bind_unix_listener(path: &Path) -> io::Result<std::os::unix::net::UnixListener> {
    use std::os::unix::fs::FileTypeExt;
    match std::os::unix::net::UnixListener::bind(path) {
        Ok(listener) => Ok(listener),
        Err(e) if e.kind() == io::ErrorKind::AddrInUse => {
            let is_socket = std::fs::metadata(path)
                .map(|m| m.file_type().is_socket())
                .unwrap_or(false);
            if !is_socket {
                return Err(io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!("{} exists and is not a socket", path.display()),
                ));
            }
            match std::os::unix::net::UnixStream::connect(path) {
                // Someone answered: a live daemon owns this path.
                Ok(_) => Err(io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!("{} is in use by a live daemon", path.display()),
                )),
                // Dead socket file from an unclean shutdown: remove
                // and rebind.
                Err(_) => {
                    std::fs::remove_file(path)?;
                    std::os::unix::net::UnixListener::bind(path)
                }
            }
        }
        Err(e) => Err(e),
    }
}

const USAGE: &str = "\
eco_patchd: persistent ECO patch daemon (JSONL over stdio or a unix socket)

USAGE:
  eco_patchd [--socket PATH] [--workers N] [--cache-capacity N]
             [--queue-capacity N] [--fair-share N] [--chaos]
             [--global-budget N] [--timeout-ms N]
             [--log-jsonl PATH] [--log-level LVL] [--log-rotate-bytes N]
             [--trace-out PATH]

OPTIONS:
  --socket PATH       serve a unix domain socket instead of stdio
                      (a stale socket file from an unclean shutdown is
                      detected and replaced; a live one is refused)
  --workers N         daemon-level request concurrency (default 1;
                      responses interleave when N > 1)
  --cache-capacity N  entries per cache layer (default 256)
  --queue-capacity N  waiting requests admitted before load-shedding
                      with status \"overloaded\" (default 64; applies
                      when --workers > 1)
  --fair-share N      default per-request conflict pool; requests that
                      trip it are retried once with an escalated budget
  --chaos             enable the hold_ms / inject_panic chaos request
                      options (testing only)
  --global-budget N   daemon-wide shared conflict pool
  --timeout-ms N      daemon-wide deadline (whole-process wall clock)
  --log-jsonl PATH    append the structured event journal to PATH
                      (one JSON object per line; rotated in place)
  --log-level LVL     journal file verbosity: debug, info, warn, or
                      error (default info; stderr always logs warn+)
  --log-rotate-bytes N  rotate the journal file to PATH.1 once it
                      exceeds N bytes (default 8388608)
  --trace-out PATH    write a Chrome/Perfetto trace of the whole
                      session: daemon lifecycle spans with nested
                      engine spans, tagged by request id
  -h, --help          print this help

PROTOCOL: one JSON object per line; see the eco-daemon crate docs.
COMMANDS: {\"id\":...,\"cmd\":\"stats\"|\"health\"|\"metrics\"|\"drain\"|\"shutdown\"}
";

/// Entry point for the `eco_patchd` binary. Returns the process exit
/// code: `0` on success, `1` for I/O failures, `2` for usage errors.
pub fn run_cli(args: &[String]) -> u8 {
    let mut config = DaemonConfig::default();
    let mut socket: Option<String> = None;
    let mut log_jsonl: Option<String> = None;
    let mut log_level = Level::Info;
    let mut log_rotate_bytes = crate::journal::DEFAULT_LOG_ROTATE_BYTES;
    let mut trace_out: Option<String> = None;
    let mut i = 0;
    let parse_num = |args: &[String], i: usize, flag: &str| -> Result<u64, String> {
        args.get(i)
            .ok_or_else(|| format!("{flag} requires a value"))?
            .parse()
            .map_err(|_| format!("{flag} expects a non-negative integer"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "-h" | "--help" => {
                print!("{USAGE}");
                return 0;
            }
            "--socket" => {
                i += 1;
                match args.get(i) {
                    Some(path) => socket = Some(path.clone()),
                    None => {
                        eprintln!("eco_patchd: --socket requires a path");
                        return 2;
                    }
                }
            }
            "--workers" => {
                i += 1;
                match parse_num(args, i, "--workers") {
                    Ok(n) => config.workers = (n as usize).max(1),
                    Err(e) => {
                        eprintln!("eco_patchd: {e}");
                        return 2;
                    }
                }
            }
            "--cache-capacity" => {
                i += 1;
                match parse_num(args, i, "--cache-capacity") {
                    Ok(n) => config.cache_capacity = (n as usize).max(1),
                    Err(e) => {
                        eprintln!("eco_patchd: {e}");
                        return 2;
                    }
                }
            }
            "--queue-capacity" => {
                i += 1;
                match parse_num(args, i, "--queue-capacity") {
                    Ok(n) => config.queue_capacity = (n as usize).max(1),
                    Err(e) => {
                        eprintln!("eco_patchd: {e}");
                        return 2;
                    }
                }
            }
            "--fair-share" => {
                i += 1;
                match parse_num(args, i, "--fair-share") {
                    Ok(n) => config.fair_share_conflicts = Some(n.max(1)),
                    Err(e) => {
                        eprintln!("eco_patchd: {e}");
                        return 2;
                    }
                }
            }
            "--chaos" => {
                config.chaos = true;
            }
            "--global-budget" => {
                i += 1;
                match parse_num(args, i, "--global-budget") {
                    Ok(n) => config.limits.global_conflicts = Some(n),
                    Err(e) => {
                        eprintln!("eco_patchd: {e}");
                        return 2;
                    }
                }
            }
            "--timeout-ms" => {
                i += 1;
                match parse_num(args, i, "--timeout-ms") {
                    Ok(n) => config.limits.timeout = Some(Duration::from_millis(n)),
                    Err(e) => {
                        eprintln!("eco_patchd: {e}");
                        return 2;
                    }
                }
            }
            "--log-jsonl" => {
                i += 1;
                match args.get(i) {
                    Some(path) => log_jsonl = Some(path.clone()),
                    None => {
                        eprintln!("eco_patchd: --log-jsonl requires a path");
                        return 2;
                    }
                }
            }
            "--log-level" => {
                i += 1;
                match args.get(i).map(String::as_str).map(Level::parse) {
                    Some(Some(level)) => log_level = level,
                    Some(None) => {
                        eprintln!(
                            "eco_patchd: --log-level expects debug, info, warn, or error, got {:?}",
                            args[i]
                        );
                        return 2;
                    }
                    None => {
                        eprintln!("eco_patchd: --log-level requires a value");
                        return 2;
                    }
                }
            }
            "--log-rotate-bytes" => {
                i += 1;
                match parse_num(args, i, "--log-rotate-bytes") {
                    Ok(n) => log_rotate_bytes = n.max(1024),
                    Err(e) => {
                        eprintln!("eco_patchd: {e}");
                        return 2;
                    }
                }
            }
            "--trace-out" => {
                i += 1;
                match args.get(i) {
                    Some(path) => trace_out = Some(path.clone()),
                    None => {
                        eprintln!("eco_patchd: --trace-out requires a path");
                        return 2;
                    }
                }
            }
            other => {
                eprintln!("eco_patchd: unexpected argument {other:?} (try --help)");
                return 2;
            }
        }
        i += 1;
    }
    let mut journal = Journal::new().with_stderr(Level::Warn);
    if let Some(path) = &log_jsonl {
        match journal.with_file(Path::new(path), log_level, log_rotate_bytes) {
            Ok(j) => journal = j,
            Err(e) => {
                eprintln!("eco_patchd: cannot open journal {path}: {e}");
                return 1;
            }
        }
    }
    let trace = match &trace_out {
        None => None,
        Some(path) => match std::fs::File::create(path) {
            Ok(file) => Some(ChromeTrace::new(Box::new(io::BufWriter::new(file)))),
            Err(e) => {
                eprintln!("eco_patchd: cannot open trace {path}: {e}");
                return 1;
            }
        },
    };
    let daemon = Daemon::with_observability(config, journal, trace);
    daemon.journal().event(
        Level::Info,
        "daemon_started",
        None,
        &[
            ("workers", Field::U(daemon.config.workers as u64)),
            (
                "mode",
                Field::S(if socket.is_some() { "socket" } else { "stdio" }.to_string()),
            ),
        ],
    );
    let served = match socket {
        Some(path) => daemon.serve_unix(Path::new(&path)),
        None => {
            // `Stdout` (unlike `StdoutLock`) is `Send`, which the
            // worker pool needs; per-line locking is fine since every
            // response is written in one call.
            daemon.serve(io::stdin().lock(), io::stdout())
        }
    };
    daemon
        .journal()
        .event(Level::Info, "daemon_stopped", None, &[]);
    if let Err(e) = daemon.finish_trace() {
        eprintln!("eco_patchd: trace write failed: {e}");
        return 1;
    }
    match served {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("eco_patchd: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_core::json::{parse_json, JsonValue};
    use std::collections::VecDeque;
    use std::io::Read;

    const IMPL: &str = "module top(a, b, y);\ninput a, b;\noutput y;\nwire t;\n\
                        and g0(t, a, b);\nbuf g1(y, t);\nendmodule\n";
    const SPEC: &str = "module top(a, b, y);\ninput a, b;\noutput y;\nwire t;\n\
                        or g0(t, a, b);\nbuf g1(y, t);\nendmodule\n";
    const SPEC_XOR: &str = "module top(a, b, y);\ninput a, b;\noutput y;\nwire t;\n\
                        xor g0(t, a, b);\nbuf g1(y, t);\nendmodule\n";

    fn eco_line(id: &str) -> String {
        format!(
            "{{\"id\":\"{id}\",\"impl\":\"{}\",\"spec\":\"{}\",\"targets\":[\"t\"]}}",
            escape_json(IMPL),
            escape_json(SPEC)
        )
    }

    fn eco_line_with(id: &str, spec: &str, options: &str) -> String {
        format!(
            "{{\"id\":\"{id}\",\"impl\":\"{}\",\"spec\":\"{}\",\"targets\":[\"t\"],\
             \"options\":{options}}}",
            escape_json(IMPL),
            escape_json(spec)
        )
    }

    fn status(v: &JsonValue) -> Option<&str> {
        v.get("status").and_then(JsonValue::as_str)
    }

    #[test]
    fn identical_requests_replay_from_the_outcome_cache() {
        let daemon = Daemon::new(DaemonConfig::default());
        let (cold, stop) = daemon.handle_line(&eco_line("r1"));
        assert!(!stop);
        let cold = parse_json(&cold).expect("valid JSON");
        assert_eq!(status(&cold), Some("ok"));
        assert_eq!(
            cold.get("verified").and_then(JsonValue::as_bool),
            Some(true)
        );
        assert_eq!(
            cold.get("cache")
                .and_then(|c| c.get("outcome"))
                .and_then(JsonValue::as_str),
            Some("miss")
        );
        let (warm, _) = daemon.handle_line(&eco_line("r2"));
        let warm = parse_json(&warm).expect("valid JSON");
        assert_eq!(
            warm.get("cache")
                .and_then(|c| c.get("outcome"))
                .and_then(JsonValue::as_str),
            Some("hit")
        );
        // Byte-identical patched netlist, zero SAT calls on the warm run.
        assert_eq!(
            cold.get("patched_verilog").and_then(JsonValue::as_str),
            warm.get("patched_verilog").and_then(JsonValue::as_str)
        );
        let sat_total = warm
            .get("metrics")
            .and_then(|m| m.get("sat_calls"))
            .and_then(|s| s.get("total"))
            .and_then(JsonValue::as_u64);
        assert_eq!(sat_total, Some(0));
        assert_eq!(
            warm.get("metrics")
                .and_then(|m| m.get("request_id"))
                .and_then(JsonValue::as_str),
            Some("r2")
        );
    }

    #[test]
    fn concurrent_identical_requests_solve_once() {
        const CALLERS: usize = 8;
        // A long inverter chain in front of the target keeps the cold
        // parse and solve slow enough for the callers to overlap.
        let mut chain = String::from("wire w0;\nnot n0(w0, a);\n");
        for i in 1..5_000 {
            chain.push_str(&format!("wire w{i};\nnot n{i}(w{i}, w{});\n", i - 1));
        }
        let design = |gate: &str| {
            format!(
                "module top(a, b, y);\ninput a, b;\noutput y;\nwire t;\n{chain}\
                 {gate} g0(t, w4999, b);\nbuf g1(y, t);\nendmodule\n"
            )
        };
        let line = |id: &str| {
            format!(
                "{{\"id\":\"{id}\",\"impl\":\"{}\",\"spec\":\"{}\",\"targets\":[\"t\"]}}",
                escape_json(&design("and")),
                escape_json(&design("or"))
            )
        };
        let daemon = Daemon::new(DaemonConfig::default());
        let barrier = std::sync::Barrier::new(CALLERS);
        let responses: Vec<JsonValue> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CALLERS)
                .map(|i| {
                    let (daemon, barrier) = (&daemon, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        let (line, _) = daemon.handle_line(&line(&format!("r{i}")));
                        parse_json(&line).expect("valid JSON")
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("no panic"))
                .collect()
        });
        let stats = daemon.cache().stats();
        assert_eq!(stats.outcome_misses, 1, "one answer, one solve: {stats:?}");
        assert_eq!(stats.outcome_hits, CALLERS as u64 - 1);
        let outcome = |v: &JsonValue| {
            v.get("cache")
                .and_then(|c| c.get("outcome"))
                .and_then(JsonValue::as_str)
                .map(str::to_string)
        };
        let hits = responses
            .iter()
            .filter(|v| outcome(v).as_deref() == Some("hit"))
            .count();
        assert_eq!(hits, CALLERS - 1, "every waiter answers as an outcome hit");
        let verilog = |v: &JsonValue| {
            v.get("patched_verilog")
                .and_then(JsonValue::as_str)
                .map(str::to_string)
        };
        for (i, v) in responses.iter().enumerate() {
            assert_eq!(status(v), Some("ok"));
            assert_eq!(
                v.get("metrics")
                    .and_then(|m| m.get("request_id"))
                    .and_then(JsonValue::as_str),
                Some(format!("r{i}").as_str())
            );
            assert!(verilog(v).is_some());
            assert_eq!(verilog(v), verilog(&responses[0]));
            if outcome(v).as_deref() == Some("hit") {
                let sat_total = v
                    .get("metrics")
                    .and_then(|m| m.get("sat_calls"))
                    .and_then(|s| s.get("total"))
                    .and_then(JsonValue::as_u64);
                assert_eq!(sat_total, Some(0), "a hit spends no SAT calls");
            }
        }
    }

    /// Holds a run's target-layer fill open: signals on entering it,
    /// then blocks until released.
    struct HoldTargetFill {
        entered: std::sync::mpsc::Sender<()>,
        release: std::sync::mpsc::Receiver<()>,
    }

    impl eco_core::EcoObserver for HoldTargetFill {
        fn on_event(&mut self, event: &eco_core::EcoEvent) {
            if let eco_core::EcoEvent::CacheQuery {
                layer: CacheLayer::Target,
                hit: false,
            } = event
            {
                let _ = self.entered.send(());
                let _ = self.release.recv_timeout(Duration::from_secs(30));
            }
        }
    }

    #[test]
    fn requests_waiting_on_a_longer_solve_answer_within_their_own_deadline() {
        const DEADLINE_MS: u64 = 600;
        let daemon = Daemon::new(DaemonConfig::default());
        let (entered_tx, entered) = std::sync::mpsc::channel();
        let (release, release_rx) = std::sync::mpsc::channel();
        let barrier = std::sync::Barrier::new(2);
        let line = eco_line_with("d", SPEC, &format!("{{\"deadline_ms\":{DEADLINE_MS}}}"));
        std::thread::scope(|s| {
            // A run with no deadline on the daemon's shared engine
            // cache, with the request's engine options, so it owns the
            // same target key as the requests below; it stands in for a
            // request whose solve outlasts their deadline.
            let held = s.spawn(|| {
                let (impl_design, _) = daemon.cache().parsed(IMPL).expect("parses");
                let (spec_design, _) = daemon.cache().parsed(SPEC).expect("parses");
                let problem = EcoProblem::from_netlists(
                    impl_design.netlist(),
                    spec_design.netlist(),
                    &["t"],
                    &WeightTable::new(),
                    1,
                )
                .expect("valid problem");
                let options = engine_options(&RequestOptions::default()).expect("valid options");
                EcoEngine::new(options)
                    .with_cache(daemon.cache().engine())
                    .with_observer(HoldTargetFill {
                        entered: entered_tx,
                        release: release_rx,
                    })
                    .solve(&problem.snapshot())
            });
            entered
                .recv_timeout(Duration::from_secs(30))
                .expect("the held run enters its target fill");
            // Two identical requests with a deadline: one owns the
            // outcome fill and waits on the held target fill, the
            // other waits on that outcome fill. Each must answer at
            // about its own deadline, not the held run's finish and not
            // after a second, fresh deadline.
            let answers: Vec<(Duration, JsonValue)> = (0..2)
                .map(|_| {
                    let (daemon, barrier, line) = (&daemon, &barrier, &line);
                    s.spawn(move || {
                        barrier.wait();
                        let begun = Instant::now();
                        let (response, _) = daemon.handle_line(line);
                        (begun.elapsed(), parse_json(&response).expect("valid JSON"))
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("no panic"))
                .collect();
            let _ = release.send(());
            let outcome = held.join().expect("no panic").expect("held run solves");
            assert!(outcome.verified);
            for (elapsed, v) in &answers {
                assert_eq!(status(v), Some("ok"));
                assert_eq!(
                    v.get("governor_trip").and_then(JsonValue::as_str),
                    Some("deadline"),
                    "the request tripped its own deadline: {v:?}"
                );
                assert!(
                    *elapsed < Duration::from_millis(DEADLINE_MS * 3 / 2),
                    "answered within about its deadline: {elapsed:?}"
                );
            }
        });
        let stats = daemon.cache().stats();
        assert_eq!(
            (stats.outcome_hits, stats.outcome_misses),
            (0, 2),
            "a tripped answer is never stored or shared: {stats:?}"
        );
    }

    #[test]
    fn stats_and_shutdown_commands_answer_and_stop() {
        let daemon = Daemon::new(DaemonConfig::default());
        let (stats, stop) = daemon.handle_line("{\"id\":\"s\",\"cmd\":\"stats\"}");
        assert!(!stop);
        let v = parse_json(&stats).expect("valid JSON");
        assert_eq!(
            v.get("stats")
                .and_then(|s| s.get("outcome_hits"))
                .and_then(JsonValue::as_u64),
            Some(0)
        );
        let (bye, stop) = daemon.handle_line("{\"id\":\"q\",\"cmd\":\"shutdown\"}");
        assert!(stop);
        assert!(bye.contains("\"shutdown\":true"));
    }

    #[test]
    fn malformed_lines_and_bad_netlists_answer_with_errors() {
        let daemon = Daemon::new(DaemonConfig::default());
        let (resp, stop) = daemon.handle_line("{oops");
        assert!(!stop);
        let v = parse_json(&resp).expect("valid JSON");
        assert_eq!(status(&v), Some("error"));
        let (resp, _) = daemon.handle_line(
            "{\"id\":\"r\",\"impl\":\"garbage\",\"spec\":\"garbage\",\"targets\":[\"t\"]}",
        );
        let v = parse_json(&resp).expect("valid JSON");
        assert_eq!(status(&v), Some("error"));
        assert_eq!(v.get("id").and_then(JsonValue::as_str), Some("r"));
    }

    #[test]
    fn injected_panic_is_isolated_and_poisons_the_fingerprint() {
        let daemon = Daemon::new(DaemonConfig {
            chaos: true,
            ..DaemonConfig::default()
        });
        let chaos = eco_line_with("p1", SPEC, "{\"inject_panic\":true}");
        let (resp, stop) = daemon.handle_line(&chaos);
        assert!(!stop, "a panic must not stop the daemon");
        let v = parse_json(&resp).expect("valid JSON");
        assert_eq!(status(&v), Some("panic"), "got: {resp}");
        assert_eq!(v.get("poisoned").and_then(JsonValue::as_bool), Some(false));
        assert!(v
            .get("error")
            .and_then(JsonValue::as_str)
            .is_some_and(|e| e.contains("injected solver panic")));

        // Identical payload (id differs): fast cached rejection from
        // the poison pill, no second crash.
        let retry = eco_line_with("p2", SPEC, "{\"inject_panic\":true}");
        let (resp, _) = daemon.handle_line(&retry);
        let v = parse_json(&resp).expect("valid JSON");
        assert_eq!(status(&v), Some("panic"));
        assert_eq!(v.get("poisoned").and_then(JsonValue::as_bool), Some(true));

        // The daemon keeps solving healthy requests afterwards.
        let (resp, _) = daemon.handle_line(&eco_line("healthy"));
        let v = parse_json(&resp).expect("valid JSON");
        assert_eq!(status(&v), Some("ok"));
        assert_eq!(v.get("verified").and_then(JsonValue::as_bool), Some(true));

        // Health surfaces the isolation.
        let (health, _) = daemon.handle_line("{\"id\":\"h\",\"cmd\":\"health\"}");
        let v = parse_json(&health).expect("valid JSON");
        let h = v.get("health").expect("health payload");
        assert_eq!(h.get("panicked").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(h.get("poison_pills").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(
            h.get("cache")
                .and_then(|c| c.get("poison_hits"))
                .and_then(JsonValue::as_u64),
            Some(1)
        );
    }

    #[test]
    fn chaos_options_are_refused_without_the_chaos_flag() {
        let daemon = Daemon::new(DaemonConfig::default());
        let (resp, _) = daemon.handle_line(&eco_line_with("c1", SPEC, "{\"inject_panic\":true}"));
        let v = parse_json(&resp).expect("valid JSON");
        assert_eq!(status(&v), Some("error"));
        assert!(v
            .get("error")
            .and_then(JsonValue::as_str)
            .is_some_and(|e| e.contains("--chaos")));
    }

    #[test]
    fn drain_stops_admission_and_reports_draining() {
        let daemon = Daemon::new(DaemonConfig::default());
        let (ack, stop) = daemon.handle_line("{\"id\":\"d\",\"cmd\":\"drain\"}");
        assert!(!stop, "drain answers, then the stream winds down");
        let v = parse_json(&ack).expect("valid JSON");
        assert_eq!(v.get("draining").and_then(JsonValue::as_bool), Some(true));
        assert!(daemon.draining());
        let (resp, _) = daemon.handle_line(&eco_line("late"));
        let v = parse_json(&resp).expect("valid JSON");
        assert_eq!(status(&v), Some("draining"));
        assert!(v
            .get("retry_after_ms")
            .and_then(JsonValue::as_u64)
            .is_some_and(|ms| ms > 0));
    }

    #[test]
    fn fair_share_trips_are_retried_with_an_escalated_budget() {
        // A 1-conflict fair share trips immediately; the escalated
        // retry gets enough budget to finish cleanly.
        let daemon = Daemon::new(DaemonConfig {
            fair_share_conflicts: Some(1),
            ..DaemonConfig::default()
        });
        let (resp, _) = daemon.handle_line(&eco_line("fs"));
        let v = parse_json(&resp).expect("valid JSON");
        assert_eq!(status(&v), Some("ok"), "got: {resp}");
        let retried = v
            .get("metrics")
            .and_then(|m| m.get("serving"))
            .and_then(|s| s.get("retried"))
            .and_then(JsonValue::as_u64);
        assert_eq!(retried, Some(1), "the fair-share trip must retry: {resp}");
        let (health, _) = daemon.handle_line("{\"id\":\"h\",\"cmd\":\"health\"}");
        let h = parse_json(&health).expect("valid JSON");
        assert_eq!(
            h.get("health")
                .and_then(|x| x.get("retried"))
                .and_then(JsonValue::as_u64),
            Some(1)
        );
        // A caller-chosen budget is never second-guessed: the tripped
        // answer comes back without a retry.
        let caller = eco_line_with("own", SPEC_XOR, "{\"global_conflicts\":1}");
        let (resp, _) = daemon.handle_line(&caller);
        let v = parse_json(&resp).expect("valid JSON");
        assert_eq!(status(&v), Some("ok"));
        assert_eq!(
            v.get("metrics")
                .and_then(|m| m.get("serving"))
                .and_then(|s| s.get("retried"))
                .and_then(JsonValue::as_u64),
            Some(0),
            "caller budgets are not escalated: {resp}"
        );
    }

    #[test]
    fn serve_answers_a_session_in_order_with_one_worker() {
        let daemon = Daemon::new(DaemonConfig::default());
        let session = format!(
            "{}\n\n{}\n{{\"id\":\"q\",\"cmd\":\"shutdown\"}}\nignored after shutdown\n",
            eco_line("r1"),
            eco_line("r2")
        );
        let mut out = Vec::new();
        daemon
            .serve(session.as_bytes(), &mut out)
            .expect("serve succeeds");
        let text = String::from_utf8(out).expect("UTF-8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "r1, r2, shutdown — nothing after:\n{text}");
        assert!(lines[0].contains("\"id\":\"r1\""));
        assert!(lines[1].contains("\"id\":\"r2\""));
        assert!(lines[2].contains("\"shutdown\":true"));
    }

    #[test]
    fn serve_with_a_worker_pool_answers_every_request() {
        let daemon = Daemon::new(DaemonConfig {
            workers: 3,
            ..DaemonConfig::default()
        });
        let session: String = (0..6).map(|i| eco_line(&format!("r{i}")) + "\n").collect();
        let mut out = Vec::new();
        daemon
            .serve(session.as_bytes(), &mut out)
            .expect("serve succeeds");
        let text = String::from_utf8(out).expect("UTF-8");
        assert_eq!(text.lines().count(), 6);
        for i in 0..6 {
            assert!(
                text.contains(&format!("\"id\":\"r{i}\"")),
                "response for r{i} missing:\n{text}"
            );
        }
    }

    /// A reader that releases its stages with delays, so pooled-serve
    /// tests can pace a session deterministically (fill the pool, then
    /// overflow the queue, then drain) without a real client.
    struct PacedReader {
        stages: VecDeque<(Duration, Vec<u8>)>,
    }

    impl Read for PacedReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let Some((delay, bytes)) = self.stages.pop_front() else {
                return Ok(0); // EOF
            };
            std::thread::sleep(delay);
            assert!(buf.len() >= bytes.len(), "stage fits the read buffer");
            buf[..bytes.len()].copy_from_slice(&bytes);
            Ok(bytes.len())
        }
    }

    #[test]
    fn pooled_serve_sheds_expires_and_drains_under_pressure() {
        let daemon = Daemon::new(DaemonConfig {
            workers: 2,
            queue_capacity: 2,
            chaos: true,
            ..DaemonConfig::default()
        });
        // Stage 1: two held requests occupy both workers.
        let stage1 = format!(
            "{}\n{}\n",
            eco_line_with("hold_a", SPEC, "{\"hold_ms\":400}"),
            eco_line_with("hold_b", SPEC_XOR, "{\"hold_ms\":400}")
        );
        // Stage 2 (workers busy): `queued` and `exp` fill the queue,
        // `shed_me` overflows it. `exp` uses a unique spec text so the
        // netlist-layer counters prove it never reached the parser.
        let unique_spec = SPEC.replace("or g0", "nand g0");
        let exp_line = format!(
            "{{\"id\":\"exp\",\"impl\":\"{}\",\"spec\":\"{}\",\"targets\":[\"t\"],\
             \"options\":{{\"deadline_ms\":1}}}}",
            escape_json(IMPL),
            escape_json(&unique_spec)
        );
        let stage2 = format!(
            "{}\n{exp_line}\n{}\n",
            eco_line("queued"),
            eco_line("shed_me")
        );
        // Stage 3 (after the holds clear): health, then drain, then a
        // request that must be refused.
        let stage3 = format!(
            "{{\"id\":\"h\",\"cmd\":\"health\"}}\n{{\"id\":\"d\",\"cmd\":\"drain\"}}\n{}\n",
            eco_line("too_late")
        );
        let reader = BufReader::new(PacedReader {
            stages: VecDeque::from([
                (Duration::ZERO, stage1.into_bytes()),
                (Duration::from_millis(150), stage2.into_bytes()),
                (Duration::from_millis(600), stage3.into_bytes()),
            ]),
        });
        let mut out = Vec::new();
        daemon.serve(reader, &mut out).expect("serve succeeds");
        let text = String::from_utf8(out).expect("UTF-8");
        let mut by_id = std::collections::HashMap::new();
        for line in text.lines() {
            let v = parse_json(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
            let id = v
                .get("id")
                .and_then(JsonValue::as_str)
                .expect("every response carries an id")
                .to_string();
            by_id.insert(id, v);
        }
        for id in ["hold_a", "hold_b", "queued"] {
            assert_eq!(status(&by_id[id]), Some("ok"), "{id}: {text}");
            assert_eq!(
                by_id[id].get("verified").and_then(JsonValue::as_bool),
                Some(true),
                "{id}"
            );
        }
        assert_eq!(status(&by_id["shed_me"]), Some("overloaded"), "{text}");
        assert!(by_id["shed_me"]
            .get("retry_after_ms")
            .and_then(JsonValue::as_u64)
            .is_some_and(|ms| ms > 0));
        assert_eq!(status(&by_id["exp"]), Some("expired"), "{text}");
        assert!(by_id["exp"]
            .get("queued_ms")
            .and_then(JsonValue::as_u64)
            .is_some_and(|ms| ms >= 1));
        assert_eq!(status(&by_id["too_late"]), Some("draining"), "{text}");
        assert_eq!(
            by_id["d"].get("draining").and_then(JsonValue::as_bool),
            Some(true)
        );
        // The expired request was rejected before any solver work:
        // its unique spec never hit the netlist layer (3 misses: the
        // shared impl + the two healthy specs).
        let stats = daemon.cache().stats();
        assert_eq!(
            stats.netlist_misses, 3,
            "expired request must not reach the parser: {stats:?}"
        );
        let h = by_id["h"].get("health").expect("health payload");
        assert_eq!(h.get("shed").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(h.get("expired").and_then(JsonValue::as_u64), Some(1));
    }

    #[test]
    fn serve_unix_answers_over_a_socket() {
        let dir = std::env::temp_dir().join(format!("eco_patchd_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("sock");
        let daemon = Daemon::new(DaemonConfig::default());
        std::thread::scope(|scope| {
            let server = scope.spawn(|| daemon.serve_unix(&path));
            // Wait for the socket to appear, then run a session.
            let mut stream = loop {
                match std::os::unix::net::UnixStream::connect(&path) {
                    Ok(s) => break s,
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
            };
            let session = format!(
                "{}\n{{\"id\":\"q\",\"cmd\":\"shutdown\"}}\n",
                eco_line("u1")
            );
            stream.write_all(session.as_bytes()).expect("write");
            stream
                .shutdown(std::net::Shutdown::Write)
                .expect("half-close");
            let mut reply = String::new();
            let mut reader = BufReader::new(stream);
            reader.read_line(&mut reply).expect("read");
            assert!(reply.contains("\"id\":\"u1\""), "got: {reply}");
            server.join().expect("no panic").expect("serve_unix ok");
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_socket_files_are_rebound_and_live_ones_refused() {
        let dir = std::env::temp_dir().join(format!("eco_patchd_stale_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");

        // Simulate an unclean shutdown: bind, then drop the listener
        // without unlinking the socket file.
        let stale = dir.join("stale.sock");
        drop(std::os::unix::net::UnixListener::bind(&stale).expect("first bind"));
        assert!(stale.exists(), "the socket file survives the listener");
        let rebound = bind_unix_listener(&stale).expect("stale socket must be replaced");
        // While the daemon holds it, the path is refused as live.
        let err = bind_unix_listener(&stale).expect_err("live socket must be refused");
        assert!(err.to_string().contains("live daemon"), "{err}");
        drop(rebound);

        // A non-socket file is never clobbered.
        let plain = dir.join("plain.txt");
        std::fs::write(&plain, "precious").expect("write");
        let err = bind_unix_listener(&plain).expect_err("regular file must be refused");
        assert!(err.to_string().contains("not a socket"), "{err}");
        assert_eq!(
            std::fs::read_to_string(&plain).expect("still there"),
            "precious"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_request_disconnects_do_not_kill_the_accept_loop() {
        let dir = std::env::temp_dir().join(format!("eco_patchd_chaos_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("sock");
        let daemon = Daemon::new(DaemonConfig::default());
        std::thread::scope(|scope| {
            let server = scope.spawn(|| daemon.serve_unix(&path));
            let connect = || loop {
                match std::os::unix::net::UnixStream::connect(&path) {
                    Ok(s) => break s,
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
            };
            // Connection 1: half a request, then vanish mid-line.
            let mut rude = connect();
            rude.write_all(b"{\"id\":\"trunc\",\"impl\":\"modu")
                .expect("partial write");
            drop(rude);
            // Connection 2: a healthy session must still be served.
            let mut stream = connect();
            let session = format!(
                "{}\n{{\"id\":\"q\",\"cmd\":\"shutdown\"}}\n",
                eco_line("after_chaos")
            );
            stream.write_all(session.as_bytes()).expect("write");
            stream
                .shutdown(std::net::Shutdown::Write)
                .expect("half-close");
            let mut reply = String::new();
            let mut reader = BufReader::new(stream);
            reader.read_line(&mut reply).expect("read");
            assert!(
                reply.contains("\"id\":\"after_chaos\"") && reply.contains("\"status\":\"ok\""),
                "got: {reply}"
            );
            server.join().expect("no panic").expect("serve_unix ok");
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
